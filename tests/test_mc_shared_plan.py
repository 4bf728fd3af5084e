"""Explicit exploration runs on the shared reaction plan.

:func:`repro.mc.compile_lts` takes its plan from
:func:`repro.sim.plan.shared_plan`: a closure plan that generates code
once hot, or one that never does when ``REPRO_NO_SPECIALIZE`` is set.
Both must explore every design identically — same states in the same
order, same transitions, same invalid-letter sets, same error text — and
a cached plan's cumulative counters must not leak into ``lts.stats``.
"""

import random

import pytest

from repro.designs import modular_producer_consumer
from repro.desync import desynchronize
from repro.errors import VerificationError
from repro.lang import flatten_program
from repro.lang.ast import Program
from repro.mc import ReactionMemo, compile_lts, input_alphabet
from repro.mc.lts import lts_to_dict
from repro.perf import PERF
from repro.sim.plan import PROMOTE_AFTER, plan_cache_stats, shared_plan
from tests.test_specialize_batch import _corpus, _random_component

NO_SPEC = "REPRO_NO_SPECIALIZE"


def _deployment(design, capacity):
    return flatten_program(desynchronize(design, capacities=capacity).program)


def _explore(comp, alphabet, max_states):
    """The LTS (or the error) plus every reaction outcome in the order
    it was computed — a partial exploration that hits ``max_states`` is
    still compared reaction by reaction."""
    memo = ReactionMemo()
    try:
        lts = compile_lts(comp, alphabet=alphabet, max_states=max_states, memo=memo)
        result = lts_to_dict(lts)
    except VerificationError as exc:
        result = "VerificationError: {}".format(exc)
    return result, list(memo.table.items())


def _tier_sum(key):
    """``key`` summed over the explicit checker's two plan tiers."""
    return PERF.get("mc.plan." + key) + PERF.get("mc.plan.spec." + key)


def _both_plans(monkeypatch, comp, alphabet, max_states):
    monkeypatch.setenv(NO_SPEC, "1")
    closure = _explore(comp, alphabet, max_states)
    monkeypatch.delenv(NO_SPEC)
    specialized = _explore(comp, alphabet, max_states)
    return closure, specialized


class TestSharedPlan:
    def test_compile_reuses_the_cached_plan(self, monkeypatch):
        monkeypatch.delenv(NO_SPEC, raising=False)
        flat = _deployment(modular_producer_consumer(modulus=2), 2)
        compile_lts(flat)
        before = plan_cache_stats()
        lts = compile_lts(flat)
        after = plan_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        plan = shared_plan(flat)
        ran = sum(c["reactions"] for c in plan.counters_snapshot().values())
        assert plan.kind == ("plan.spec" if ran > PROMOTE_AFTER else "plan")
        assert lts.stats["sweeps"] == lts.stats["reactions"]

    def test_repeated_compile_reports_identical_stats(self, monkeypatch):
        monkeypatch.delenv(NO_SPEC, raising=False)
        flat = _deployment(modular_producer_consumer(modulus=3), 2)
        runs = []
        for _ in range(2):
            base = _tier_sum("sweeps")
            lts = compile_lts(flat)
            runs.append({k: v for k, v in lts.stats.items() if k != "elapsed"})
            assert _tier_sum("sweeps") - base == lts.stats["sweeps"]
        assert runs[0] == runs[1]
        assert runs[0]["sweeps"] > 0

    def test_closure_plan_counters_attributed(self, monkeypatch):
        monkeypatch.setenv(NO_SPEC, "1")
        flat = _deployment(modular_producer_consumer(modulus=2), 1)
        base = PERF.get("mc.plan.sweeps")
        lts = compile_lts(flat)
        assert PERF.get("mc.plan.sweeps") - base == lts.stats["sweeps"] > 0


class TestClosureSpecializedEquivalence:
    def test_corpus_deployments_explore_identically(self, monkeypatch):
        checked = 0
        for name, design in _corpus():
            if not isinstance(design, Program):
                continue
            for capacity in (1, 2, 3):
                flat = _deployment(design, capacity)
                alphabet = input_alphabet(flat)
                # about two thousand reactions per exploration: the
                # small designs finish, the rest stop at the state bound
                # after the same partial exploration on both plans
                bound = max(2, 2000 // len(alphabet))
                closure, specialized = _both_plans(
                    monkeypatch, flat, alphabet, bound
                )
                assert specialized == closure, (name, capacity)
                checked += 1
        assert checked >= 27

    def test_modular_deployment_full_lts(self, monkeypatch):
        flat = _deployment(modular_producer_consumer(modulus=4), 3)
        alphabet = input_alphabet(flat)
        closure, specialized = _both_plans(monkeypatch, flat, alphabet, 10000)
        assert isinstance(closure[0], dict)
        assert len(closure[0]["states"]) == 3072
        assert specialized == closure

    def test_random_components_explore_identically(self, monkeypatch):
        free_clock_errors = 0
        for seed in range(120):
            comp = _random_component(random.Random(seed))
            alphabet = input_alphabet(comp)
            closure, specialized = _both_plans(monkeypatch, comp, alphabet, 40)
            assert specialized == closure, seed
            if "free clocks" in str(closure[0]):
                free_clock_errors += 1
        assert free_clock_errors >= 3


@pytest.mark.slow
def test_parallel_exploration_counts_worker_reactions(monkeypatch):
    from tests.test_mc_workers import FREE, assert_isomorphic

    monkeypatch.delenv(NO_SPEC, raising=False)
    flat = _deployment(modular_producer_consumer(modulus=2), 3)
    seq = compile_lts(flat, alphabet=FREE)
    base = _tier_sum("sweeps")
    par = compile_lts(flat, alphabet=FREE, workers=2)
    assert_isomorphic(seq, par)
    assert par.stats["sweeps"] == seq.stats["sweeps"] > 0
    assert par.stats["residual_passes"] == seq.stats["residual_passes"]
    assert _tier_sum("sweeps") - base == par.stats["sweeps"]
