"""Cached plans generate code only once they are hot.

:func:`repro.sim.plan.shared_plan` hands out a closure plan that promotes
itself in place to generated code after :data:`PROMOTE_AFTER` executed
reactions.  The contract: results are byte-identical across the
promotion boundary, promotion generates code exactly once (even when
threads race to it), ``REPRO_NO_SPECIALIZE`` never promotes, and the
verification loop of Section 5.2 — whose deployments each run a few
hundred reactions — generates no code at all.
"""

import sys
import threading

import pytest

from repro.designs import boolean_producer_consumer, modular_producer_consumer
from repro.desync import desynchronize, verified_buffer_sizes
from repro.faults.soak import jittered_stimulus
from repro.lang import flatten_program
from repro.mc import compile_lts, input_alphabet
from repro.mc.lts import lts_to_dict
from repro.perf import PERF
from repro.sim import Reactor, simulate, simulate_batch, stimuli
from repro.sim.engine import ABSENT
from repro.sim.plan import PROMOTE_AFTER, clear_plan_cache, shared_plan
from tests.test_specialize_batch import _react_all

NO_SPEC = "REPRO_NO_SPECIALIZE"


@pytest.fixture(autouse=True)
def _cold_cache(monkeypatch):
    monkeypatch.delenv(NO_SPEC, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


def _accumulator():
    from tests.test_specialize_batch import _accumulator as build

    return build()


def _long_rows(n, offset=0):
    # with a few absent instants, so presence is exercised too
    return [
        {"a": ABSENT} if i % 7 == 3 else {"a": 1 + offset + i % 5}
        for i in range(n)
    ]


def _deployment(design, capacity):
    return flatten_program(desynchronize(design, capacities=capacity).program)


class TestAcrossTheBoundary:
    def test_simulate_matches_interpreter(self):
        comp = _accumulator()
        rows = _long_rows(PROMOTE_AFTER + 80)
        ref = _react_all(Reactor(comp, compiled=False), rows)
        plan = shared_plan(comp)
        got = _react_all(Reactor(comp, plan=plan), rows)
        assert plan.kind == "plan.spec"
        assert repr(got) == repr(ref)
        trace = simulate(
            comp, iter(rows), reactor=Reactor(comp, compiled=False)
        )
        again = simulate(comp, iter(rows), reactor=Reactor(comp, plan=plan))
        assert repr(again.instants) == repr(trace.instants)

    def test_batch_matches_interpreter(self):
        comp = _accumulator()
        # distinct lanes: no memo hit stands in for a reaction
        lanes = [_long_rows(PROMOTE_AFTER // 2 + 40, k) for k in range(3)]
        refs = [
            simulate(comp, iter(rows), reactor=Reactor(comp, compiled=False))
            for rows in lanes
        ]
        report = simulate_batch(comp, [iter(rows) for rows in lanes])
        assert shared_plan(comp).kind == "plan.spec"
        for k, ref in enumerate(refs):
            assert repr(report.traces[k].instants) == repr(ref.instants), k

    def test_explicit_lts_matches_closure_plan(self, monkeypatch):
        flat = _deployment(modular_producer_consumer(modulus=4), 3)
        alphabet = input_alphabet(flat)
        monkeypatch.setenv(NO_SPEC, "1")
        closure = lts_to_dict(compile_lts(flat, alphabet=alphabet))
        monkeypatch.delenv(NO_SPEC)
        lts = compile_lts(flat, alphabet=alphabet)
        plan = shared_plan(flat)
        assert plan.kind == "plan.spec"
        # the exploration crossed the boundary: both tiers did work
        tiers = plan.counters_snapshot()
        assert tiers["plan"]["reactions"] == PROMOTE_AFTER
        assert tiers["plan.spec"]["reactions"] > 0
        assert lts_to_dict(lts) == closure


class TestCodegenOnce:
    def test_one_codegen_per_promoted_plan(self):
        comp = _accumulator()
        plan = shared_plan(comp)
        before = PERF.get("plan.codegen_plans")
        reactor = Reactor(comp, plan=plan)
        for row in _long_rows(PROMOTE_AFTER):
            reactor.react(row)
        assert plan.kind == "plan"
        assert PERF.get("plan.codegen_plans") == before
        for row in _long_rows(3 * PROMOTE_AFTER):
            reactor.react(row)
        assert plan.kind == "plan.spec"
        assert PERF.get("plan.codegen_plans") == before + 1

    def test_racing_threads_promote_once(self):
        comp = _accumulator()
        plan = shared_plan(comp)
        before = PERF.get("plan.codegen_plans")
        start = threading.Barrier(4)
        rows = _long_rows(PROMOTE_AFTER)
        outputs = []
        errors = []

        def worker():
            try:
                start.wait()
                outputs.append(_react_all(Reactor(comp, plan=plan), rows))
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(outputs) == 4
        assert plan.kind == "plan.spec"
        assert PERF.get("plan.codegen_plans") == before + 1
        ref = _react_all(Reactor(comp, compiled=False), rows)
        assert all(repr(out) == repr(ref) for out in outputs)

    def test_no_specialize_never_promotes(self, monkeypatch):
        monkeypatch.setenv(NO_SPEC, "1")
        comp = _accumulator()
        plan = shared_plan(comp)
        before = PERF.get("plan.codegen_plans")
        simulate_batch(comp, [iter(_long_rows(3 * PROMOTE_AFTER))])
        assert shared_plan(comp) is plan
        assert plan.kind == "plan"
        assert plan.counters["reactions"] == 3 * PROMOTE_AFTER
        assert PERF.get("plan.codegen_plans") == before

    def test_explicit_specialization_is_eager(self):
        comp = _accumulator()
        before = PERF.get("plan.codegen_plans")
        plan = shared_plan(comp, specialize=True)
        assert plan.kind == "plan.spec"
        assert PERF.get("plan.codegen_plans") == before + 1
        assert shared_plan(comp) is not plan


def _environment(inputs, seed):
    def make():
        parts = [
            stimuli.periodic(name, 1 if name.endswith("_rreq") else 2)
            for name in inputs
        ]
        return jittered_stimulus(stimuli.merge(*parts), 0.25, seed)

    return make


@pytest.mark.parametrize(
    "design, expected",
    [
        (modular_producer_consumer(), (True, {"x": 2}, [9])),
        (boolean_producer_consumer(), (True, {"x": 2}, [5])),
    ],
    ids=["modular_producer_consumer", "boolean_producer_consumer"],
)
def test_verify_loop_generates_no_code(design, expected):
    """The grow-and-reverify loop explores each deployment once, far
    below the break-even: it must stay on closures."""
    dflat = flatten_program(desynchronize(design).program)
    inputs = sorted(dflat.inputs)
    alphabet = input_alphabet(
        dflat, always_present=[n for n in inputs if n.endswith("_rreq")]
    )
    before = PERF.get("plan.codegen_plans")
    verified = verified_buffer_sizes(
        design, _environment(inputs, 3), horizon=48, alphabet=alphabet
    )
    assert PERF.get("plan.codegen_plans") == before
    states = [r.states for r in verified.rounds]
    assert (verified.proven, verified.sizes, states) == expected
