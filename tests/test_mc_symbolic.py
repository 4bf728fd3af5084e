"""Tests for the symbolic (BDD) verification backend."""

import pytest

from repro.desync import one_place_fifo, n_fifo_chain
from repro.errors import VerificationError
from repro.lang import parse_component
from repro.mc import check_never_present, compile_lts
from repro.mc.symbolic import SymbolicChecker
from repro.sim import simulate

TOGGLER = (
    "process T = (? event tick; ! boolean b;)"
    "(| b := not (pre false b) | b ^= tick |) end"
)


class TestEncoding:
    def test_rejects_integer_programs(self):
        comp = parse_component(
            "process C = (? integer a; ! integer x;) (| x := a + 1 |) end"
        )
        with pytest.raises(VerificationError):
            SymbolicChecker(comp)

    def test_toggler_two_states(self):
        chk = SymbolicChecker(parse_component(TOGGLER))
        assert chk.state_count() == 2
        assert chk.iterations >= 2

    def test_stateless_program_one_state(self):
        comp = parse_component(
            "process C = (? boolean a; ! boolean x;) (| x := not a |) end"
        )
        chk = SymbolicChecker(comp)
        assert chk.state_count() == 1

    def test_reachable_output_conditions(self):
        chk = SymbolicChecker(parse_component(TOGGLER))
        bdd = chk.bdd
        b_true = bdd.AND(chk.presence("b"), bdd.variable("v:b"))
        b_false = bdd.AND(chk.presence("b"), bdd.NOT(bdd.variable("v:b")))
        assert chk.reachable(b_true)
        assert chk.reachable(b_false)

    def test_alphabet_constrains_environment(self):
        # without ticks, the toggler can never produce b
        chk = SymbolicChecker(parse_component(TOGGLER), alphabet=[{}])
        assert not chk.reachable(chk.presence("b"))
        assert chk.state_count() == 1


class TestFifoVerification:
    """The paper's obligation, symbolically, on the (boolean) FIFO cells."""

    FREE = [{}, {"msgin": True}, {"msgin": False}, {"rreq": True},
            {"msgin": True, "rreq": True}, {"msgin": False, "rreq": True}]
    POLLED = [{"rreq": True}, {"msgin": True, "rreq": True},
              {"msgin": False, "rreq": True}]

    def test_alarm_reachable_in_free_environment(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None
        assert len(ce.inputs) == 2  # write, then write again

    def test_counterexample_replays_in_simulator(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        ce = chk.check_never_present(ports.alarm)
        trace = simulate(comp, ce.as_stimulus())
        assert trace.presence_count(ports.alarm) >= 1

    def test_one_place_blocking_alarms_even_when_polled(self):
        # the paper's 1-place cell rejects a same-instant write+read on a
        # full buffer, so even a polling reader cannot make it safe
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.POLLED)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None

    def test_agrees_with_explicit_backend(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        lts = compile_lts(comp, alphabet=self.FREE)
        explicit = check_never_present(lts, ports.alarm)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        symbolic = chk.check_never_present(ports.alarm)
        assert (explicit is None) == (symbolic is None)
        assert len(explicit) == len(symbolic.inputs)

    def test_chain_fifo_symbolically(self):
        from repro.lang.types import BOOL

        comp, ports = n_fifo_chain(2, dtype=BOOL)
        alphabet = [
            {"tick": True},
            {"tick": True, "msgin": True},
            {"tick": True, "rreq": True},
            {"tick": True, "msgin": True, "rreq": True},
        ]
        chk = SymbolicChecker(comp, alphabet=alphabet)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None  # back-to-back writes overwhelm the head cell
        # spaced writes: at most every other tick -> need memory of last
        # write, which the alphabet cannot express; the refutation stands.

    def test_state_count_matches_explicit_reachability(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        lts = compile_lts(comp, alphabet=self.FREE)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        assert chk.state_count() == lts.num_states()


def _free_alphabet(names):
    import itertools

    out = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            out.append({n: True for n in combo})
    return out


class TestDesyncBackendAgreement:
    """Symbolic vs explicit on the Section 5.2 designs (chain-kind
    boolean desynchronization, lossy and backpressure-masked): verdicts,
    counterexample lengths and reachable state counts must agree."""

    def _check_both(self, masked):
        from repro.designs import boolean_producer_consumer
        from repro.desync import desynchronize

        kwargs = {"backpressure": {"P": "p_act"}} if masked else {}
        res = desynchronize(
            boolean_producer_consumer(), capacities=2, kind="chain", **kwargs
        )
        ch = res.channels[0]
        alphabet = _free_alphabet(["p_act", ch.rreq, "x_tick"])
        lts = compile_lts(res.program, alphabet=alphabet)
        explicit_ce = check_never_present(lts, ch.alarm)
        chk = SymbolicChecker(res.program, alphabet=alphabet)
        symbolic_ce = chk.check_never_present(ch.alarm)
        return lts, explicit_ce, chk, symbolic_ce

    def test_lossy_design_agreement(self):
        lts, explicit_ce, chk, symbolic_ce = self._check_both(masked=False)
        assert explicit_ce is not None and symbolic_ce is not None
        assert len(explicit_ce) == len(symbolic_ce.inputs)
        assert chk.state_count() == lts.num_states()

    def test_backpressure_masked_design_agreement(self):
        # chain-kind clock gating reads the occupancy through ``pre`` (one
        # instant stale), so unlike the direct-kind A4 design the masked
        # chain still alarms — both backends must agree on that verdict,
        # the counterexample length, and the reachable state count
        lts, explicit_ce, chk, symbolic_ce = self._check_both(masked=True)
        assert (explicit_ce is None) == (symbolic_ce is None)
        if explicit_ce is not None:
            assert len(explicit_ce) == len(symbolic_ce.inputs)
        assert chk.state_count() == lts.num_states()


class TestPartitionedImage:
    """The partitioned path is a pure evaluation-strategy change: the
    reachable-set BDD it computes must be *identical* (same node in the
    same manager) to the monolithic one."""

    def _reached_both_ways(self, comp, alphabet):
        chk = SymbolicChecker(comp, alphabet=alphabet, partitioned=True)
        reached_part = chk.reachable_states()
        # recompute monolithically on the SAME manager so node ids are
        # comparable (hash-consing makes equal functions equal ids)
        chk._reached = None
        chk._rings = []
        chk.partitioned = False
        reached_mono = chk.reachable_states()
        return reached_part, reached_mono

    def test_toggler_reachable_sets_identical(self):
        part, mono = self._reached_both_ways(parse_component(TOGGLER), None)
        assert part == mono

    def test_chain_fifo_reachable_sets_identical(self):
        from repro.lang.types import BOOL

        comp, ports = n_fifo_chain(2, dtype=BOOL)
        alphabet = [
            {"tick": True},
            {"tick": True, "msgin": True},
            {"tick": True, "rreq": True},
            {"tick": True, "msgin": True, "rreq": True},
        ]
        part, mono = self._reached_both_ways(comp, alphabet)
        assert part == mono

    def test_desynchronized_design_reachable_sets_identical(self):
        from repro.designs import boolean_producer_consumer
        from repro.desync import desynchronize

        res = desynchronize(
            boolean_producer_consumer(), capacities=2, kind="chain"
        )
        ch = res.channels[0]
        alphabet = _free_alphabet(["p_act", ch.rreq, "x_tick"])
        part, mono = self._reached_both_ways(res.program, alphabet)
        assert part == mono


A6_ALPHABET = [
    {"tick": True},
    {"tick": True, "msgin": True},
    {"tick": True, "rreq": True},
    {"tick": True, "msgin": True, "rreq": True},
]


def _relay_chain(stages, polled):
    from repro.designs import gals_relay_chain, gals_relay_chain_rreqs
    from repro.lang import flatten_program
    from repro.mc import input_alphabet

    flat = flatten_program(gals_relay_chain(stages))
    always = gals_relay_chain_rreqs(stages) if polled else ()
    return flat, input_alphabet(flat, always_present=always)


class TestOneProductVerdicts:
    """``check_never_present`` settles a holding obligation with one
    relational product over the reachable set and walks the rings only
    for a refuted one: every answer must be the one the ring walk alone
    gives (``None``, or the same counterexample input for input), and
    agree with the explicit backend."""

    def _against_ring_walk(self, comp, alphabet, signals):
        chk = SymbolicChecker(comp, alphabet=alphabet)
        walk = SymbolicChecker(comp, alphabet=alphabet)
        # with the one-product test always passing, the answer comes
        # from the ring walk alone
        walk.reachable_states()
        walk.reachable = lambda condition: True
        answers = {}
        for signal in signals:
            ce = chk.check_never_present(signal)
            ref = walk.check_never_present(signal)
            assert (ce is None) == (ref is None), signal
            if ce is not None:
                assert ce.inputs == ref.inputs, signal
                assert ce.violation == ref.violation
            answers[signal] = ce
        return chk, answers

    def _against_explicit(self, comp, alphabet, answers):
        lts = compile_lts(comp, alphabet=alphabet)
        for signal, ce in answers.items():
            explicit = check_never_present(lts, signal)
            assert (explicit is None) == (ce is None), signal
            if ce is not None:
                assert len(explicit) == len(ce.inputs), signal
        return lts

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_a6_chains(self, depth):
        from repro.lang.types import BOOL

        comp, ports = n_fifo_chain(depth, dtype=BOOL)
        signals = sorted(comp.outputs)
        assert ports.alarm in signals
        chk, answers = self._against_ring_walk(comp, A6_ALPHABET, signals)
        lts = self._against_explicit(comp, A6_ALPHABET, answers)
        assert chk.state_count() == lts.num_states()

    @pytest.mark.parametrize("polled", [True, False])
    def test_relay_chain_2(self, polled):
        flat, alphabet = _relay_chain(2, polled)
        signals = sorted(flat.outputs)
        chk, answers = self._against_ring_walk(flat, alphabet, signals)
        assert (answers["dup"] is None) == polled
        assert (answers["f0_alarm"] is None) == polled
        lts = self._against_explicit(flat, alphabet, answers)
        assert chk.state_count() == lts.num_states()

    def test_relay_chain_12_polled(self):
        flat, alphabet = _relay_chain(12, polled=True)
        chk, answers = self._against_ring_walk(
            flat, alphabet, ["dup", "f0_alarm", "f11_msgout"]
        )
        # the explicit backend's figures for this chain (12,288 states,
        # both obligations hold, a 13-letter shortest path to the last
        # stage's output), fixed here: exploring it takes ~12 s
        assert answers["dup"] is None and answers["f0_alarm"] is None
        assert len(answers["f11_msgout"].inputs) == 13
        assert chk.state_count() == 12288

    def test_relay_chain_4_free(self):
        # the free-reader chain grows far faster than the polled one
        # (5,703 states at four stages, millions at eight), so four
        # stages stand in for the larger sizes
        flat, alphabet = _relay_chain(4, polled=False)
        chk, answers = self._against_ring_walk(flat, alphabet, ["f0_alarm", "dup"])
        assert len(answers["f0_alarm"].inputs) == 2
        assert len(answers["dup"].inputs) == 8
        assert chk.state_count() == 5703

    def test_holding_obligation_costs_one_product(self):
        flat, alphabet = _relay_chain(2, polled=True)
        chk = SymbolicChecker(flat, alphabet=alphabet)
        chk.reachable_states()
        products = []
        inner = chk._relation_product

        def counting(seed, quantify=()):
            products.append(seed)
            return inner(seed, quantify)

        chk._relation_product = counting
        for signal in ("dup", "f0_alarm"):
            before = len(products)
            assert chk.check_never_present(signal) is None
            assert len(products) - before == 1
        # a refuted obligation still walks the rings
        before = len(products)
        assert chk.check_never_present("x2") is not None
        assert len(products) - before > 1
