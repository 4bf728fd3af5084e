"""Plan specialization, the shared plan cache, and batched lane execution.

The contract under test everywhere: the specialized generated code and
the batch lanes are *observationally byte-identical* to the closure plan
and the reference interpreter — same traces, same errors, same estimator
outputs, same soak verdicts — only faster.
"""

import os
from unittest import mock

import pytest

from repro import designs
from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import App, Component, Const, Equation, Program, Var
from repro.lang.types import EVENT, INT
from repro.perf import PERF
from repro.sim import Reactor, simulate, simulate_batch, stimuli
from repro.sim.plan import (
    PROMOTE_AFTER,
    ReactionPlan,
    clear_plan_cache,
    component_key,
    plan_cache_stats,
    shared_plan,
)
from repro.sim.specialize import (
    SpecializedPlan,
    specialization_enabled,
    specialize,
)


def _corpus():
    """Every zero-argument design in :mod:`repro.designs`."""
    import inspect

    out = []
    for name in sorted(dir(designs)):
        if name.startswith("_"):
            continue
        fn = getattr(designs, name)
        if not inspect.isfunction(fn):
            continue
        sig = inspect.signature(fn)
        if any(
            p.default is inspect.Parameter.empty
            for p in sig.parameters.values()
        ):
            continue
        built = fn()
        if isinstance(built, (Program, Component)):
            out.append((name, built))
    return out


def _stimulus(comp, seed, n=25):
    import random

    from repro.sim.engine import ABSENT

    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = {}
        for name, ty in comp.inputs.items():
            if rng.random() < 0.3:
                row[name] = ABSENT
            elif ty is INT:
                row[name] = rng.randrange(-5, 10)
            elif ty is EVENT:
                row[name] = True
            else:
                row[name] = rng.random() < 0.5
        rows.append(row)
    return rows


class TestSpecializedCorpus:
    def test_corpus_byte_identical(self):
        """Specialized traces match the closure plan's across the whole
        designs corpus, several stimuli each."""
        for name, design in _corpus():
            comp = (
                flatten_program(design)
                if isinstance(design, Program)
                else design
            )
            spec_plan = SpecializedPlan(comp)
            for seed in range(3):
                rows = _stimulus(comp, seed)
                ref = simulate(comp, iter(rows))
                got = simulate(
                    comp,
                    iter(rows),
                    reactor=Reactor(comp, plan=spec_plan, check=False),
                )
                assert repr(got.instants) == repr(ref.instants), (name, seed)

    def test_specialize_helper(self):
        comp = flatten_program(designs.producer_consumer())
        plan = specialize(comp)
        assert isinstance(plan, SpecializedPlan)
        assert plan.kind == "plan.spec"
        assert "_sweep" in plan.source
        # a plan can be re-specialized from an existing ReactionPlan
        assert isinstance(specialize(ReactionPlan(comp)), SpecializedPlan)


class TestEnvironmentGate:
    def test_no_specialize_env_wins(self):
        with mock.patch.dict(os.environ, {"REPRO_NO_SPECIALIZE": "1"}):
            assert not specialization_enabled(True)
            assert not specialization_enabled(None)
            comp = flatten_program(designs.producer_consumer())
            reactor = Reactor(comp, specialize=True)
            assert not isinstance(reactor.plan, SpecializedPlan)

    def test_default_flag_semantics(self):
        with mock.patch.dict(os.environ, {"REPRO_NO_SPECIALIZE": ""}):
            assert specialization_enabled(None)
            assert specialization_enabled(True)
            assert not specialization_enabled(False)


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_content_hash_ignores_identity(self):
        a = flatten_program(designs.producer_consumer())
        b = flatten_program(designs.producer_consumer())
        assert a is not b
        assert component_key(a) == component_key(b)
        assert shared_plan(a) is shared_plan(b)

    def test_hit_miss_counters(self):
        PERF.reset("plan.")
        comp = flatten_program(designs.producer_consumer())
        shared_plan(comp)
        assert PERF.get("plan.cache_misses") == 1
        assert PERF.get("plan.cache_hits") == 0
        shared_plan(comp)
        shared_plan(flatten_program(designs.producer_consumer()))
        assert PERF.get("plan.cache_hits") == 2
        assert PERF.get("plan.cache_misses") == 1

    def test_plain_and_specialized_cached_separately(self):
        comp = flatten_program(designs.producer_consumer())
        plain = shared_plan(comp, specialize=False)
        spec = shared_plan(comp, specialize=True)
        assert plain is not spec
        assert not isinstance(plain, SpecializedPlan)
        assert isinstance(spec, SpecializedPlan)
        assert plan_cache_stats()["size"] == 2

    def test_bounded_lru(self):
        from repro.lang.ast import Const
        from repro.sim import plan as plan_mod

        cap = plan_mod._PLAN_CACHE_CAPACITY
        for i in range(cap + 10):
            comp = Component(
                "N{}".format(i), {"a": INT}, {"y": INT}, {},
                [Equation("y", App("+", (Var("a"), Const(i))))],
            )
            shared_plan(comp, specialize=False)
        stats = plan_cache_stats()
        assert stats["size"] <= stats["capacity"] == cap


class TestBatchLanes:
    def test_matches_simulate_per_lane(self):
        comp = flatten_program(designs.modular_producer_consumer())
        lanes = [_stimulus(comp, seed) for seed in range(5)]
        refs = [simulate(comp, iter(rows)) for rows in lanes]
        report = simulate_batch(comp, [iter(rows) for rows in lanes])
        assert report.lanes == 5
        for k, ref in enumerate(refs):
            assert repr(report.traces[k].instants) == repr(ref.instants)

    def test_wide_ints_record_exactly(self):
        comp = Component(
            "big", {"x": INT}, {"y": INT}, {},
            [Equation("y", App("*", (Var("x"), Var("x"))))],
        )
        rows = [{"x": 3}, {"x": 2 ** 40}, {"x": -7}]
        ref = simulate(comp, iter(rows))
        report = simulate_batch(comp, [iter(rows), iter([{"x": 2}])])
        assert repr(report.traces[0].instants) == repr(ref.instants)
        assert report.traces[1].instants == [{"x": 2, "y": 4}]

    def test_non_canonical_values_record_exactly(self):
        comp = Component(
            "ev", {"e": EVENT}, {"o": EVENT}, {}, [Equation("o", Var("e"))]
        )
        rows = [{"e": 1}, {}, {"e": True}]  # 1 is a tick, but not a bool
        ref = simulate(comp, iter(rows))
        report = simulate_batch(comp, [iter(rows)])
        assert repr(report.traces[0].instants) == repr(ref.instants)

    def test_closure_corpus_byte_identical(self):
        """Wide batches on the closure tier: traces *and* captured
        rejection errors match one reactor per lane across the designs
        corpus."""
        for name, design in _corpus():
            comp = (
                flatten_program(design)
                if isinstance(design, Program)
                else design
            )
            lane_rows = [_stimulus(comp, 7 * k + 1, n=12) for k in range(12)]
            refs = [_reference_with_errors(comp, rows) for rows in lane_rows]
            report = simulate_batch(
                comp,
                [iter(rows) for rows in lane_rows],
                specialize=False,
                capture_errors=True,
            )
            for k, (out, err) in enumerate(refs):
                assert report.errors[k] == err, (name, k)
                assert repr(report.traces[k].instants) == repr(out), (name, k)

    def test_capture_errors_per_lane(self):
        comp = Component(
            "sync", {"a": EVENT, "b": EVENT}, {"o": INT}, {},
            [Equation("o", App("+", (Var("a"), Var("b"))))],
        )
        good = [{"a": True, "b": True}] * 3
        bad = [{"a": True, "b": True}, {"a": True}]
        report = simulate_batch(
            comp, [iter(good), iter(bad)], capture_errors=True
        )
        assert report.errors[0] is None
        assert report.errors[1] is not None
        assert report.errors[1][0] == "SimulationError"
        assert len(report.traces[0]) == 3
        assert len(report.traces[1]) == 1  # stopped at the rejection
        with pytest.raises(SimulationError):
            simulate_batch(comp, [iter(bad)])

    def test_aggregation_helpers(self):
        comp = flatten_program(designs.modular_producer_consumer())
        lanes = [_stimulus(comp, seed) for seed in range(3)]
        refs = [simulate(comp, iter(rows)) for rows in lanes]
        report = simulate_batch(comp, [iter(rows) for rows in lanes])
        for sig in list(comp.signals())[:4]:
            expected_counts = [ref.presence_count(sig) for ref in refs]
            assert report.presence_counts(sig) == expected_counts
            expected_max = [
                max(ref.values(sig)) if ref.values(sig) else 0 for ref in refs
            ]
            assert report.max_values(sig) == expected_max


class TestBatchMemo:
    def test_identical_lanes_hit_memo_on_object_backend(self):
        comp = flatten_program(designs.modular_producer_consumer())
        rows = _stimulus(comp, 3, n=12)
        ref = simulate(comp, iter(rows))
        report = simulate_batch(comp, [iter(rows) for _ in range(4)])
        assert report.stats["memo_hits"] >= 3 * 12
        for k in range(4):
            assert repr(report.traces[k].instants) == repr(ref.instants)

    def test_memo_distinguishes_bool_from_int(self):
        """``1 == True`` hashes alike; the memo must not conflate a
        canonical tick with the non-canonical int form (they record
        differently, and rows must stay byte-identical per lane)."""
        comp = Component(
            "ev", {"e": EVENT}, {"o": EVENT}, {}, [Equation("o", Var("e"))]
        )
        report = simulate_batch(
            comp, [iter([{"e": True}]), iter([{"e": 1}])]
        )
        assert report.traces[0].instants == [{"e": True, "o": True}]
        assert report.traces[1].instants == [{"e": 1, "o": 1}]

    def test_oracle_lanes_bypass_memo(self):
        comp = flatten_program(designs.modular_producer_consumer())
        rows = _stimulus(comp, 4, n=8)
        report = simulate_batch(
            comp,
            [iter(rows), iter(rows)],
            oracle=lambda index, undetermined: {},
        )
        assert report.stats["memo_hits"] == 0
        plain = simulate_batch(comp, [iter(rows), iter(rows)])
        assert plain.stats["memo_hits"] > 0
        for k in range(2):
            assert repr(report.traces[k].instants) == repr(
                plain.traces[k].instants
            )


def _reference_with_errors(comp, rows):
    reactor = Reactor(comp, check=False, specialize=False)
    out, err = [], None
    for row in rows:
        try:
            out.append(reactor.react(row))
        except SimulationError as exc:
            err = (type(exc).__name__, str(exc))
            break
    return out, err


def _accumulator():
    """A running sum: its state never repeats on positive inputs, so no
    batch-memo hit ever stands in for a reaction."""
    from repro.lang.ast import Pre

    return Component(
        "acc", {"a": INT}, {"y": INT}, {},
        [Equation("y", App("+", (Var("a"), Pre(0, Var("y")))))],
    )


class TestCounterAttribution:
    """Reactions count under the tier that ran them: ``plan`` on
    closures, ``plan.spec`` on generated code; the per-tier sums equal
    the call's own stats."""

    def test_plan_vs_spec_vs_batch_phases(self):
        comp = flatten_program(designs.producer_consumer())
        rows = _stimulus(comp, 0, n=10)
        PERF.reset()
        simulate(comp, iter(rows), reactor=Reactor(comp, check=False))
        assert PERF.get("sim.plan.reactions") == 10
        assert PERF.get("sim.plan.spec.reactions") == 0
        simulate(
            comp, iter(rows),
            reactor=Reactor(comp, check=False, specialize=True),
        )
        assert PERF.get("sim.plan.spec.reactions") == 10
        assert PERF.get("sim.plan.reactions") == 10  # unchanged
        clear_plan_cache()
        rep = simulate_batch(comp, [iter(rows), iter(rows)])
        # identical lanes share reactions through the batch memo: executed
        # reactions + memo hits account for every recorded instant, and
        # the second lane is hits from start to finish
        assert rep.stats["reactions"] + rep.stats["memo_hits"] == 20
        assert rep.stats["memo_hits"] >= 10
        # a fresh cached plan is cold: its reactions run on closures
        assert PERF.get("batch.plan.reactions") == rep.stats["reactions"]
        assert PERF.get("batch.plan.spec.reactions") == 0
        assert PERF.get("batch.memo_hits") == rep.stats["memo_hits"]
        assert PERF.get("batch.lanes") == 2
        assert PERF.get("batch.instants") == 20
        clear_plan_cache()
        with mock.patch.dict(os.environ, {"REPRO_NO_SPECIALIZE": "1"}):
            rep2 = simulate_batch(comp, [iter(rows)])
        assert rep2.stats["reactions"] + rep2.stats["memo_hits"] == 10
        assert (
            PERF.get("batch.plan.reactions")
            == rep.stats["reactions"] + rep2.stats["reactions"]
        )

    def test_promotion_splits_counters_by_tier(self):
        comp = _accumulator()
        n = PROMOTE_AFTER + 50
        rows = [{"a": 1 + i % 3} for i in range(n)]
        clear_plan_cache()
        PERF.reset()
        report = simulate_batch(comp, [iter(rows)])
        assert PERF.get("batch.plan.reactions") == PROMOTE_AFTER
        assert PERF.get("batch.plan.spec.reactions") == 50
        for key in ("reactions", "sweeps", "residual_passes"):
            assert (
                PERF.get("batch.plan." + key)
                + PERF.get("batch.plan.spec." + key)
                == report.stats[key]
            ), key
        assert report.stats["reactions"] == n
        clear_plan_cache()

    def test_sweep_merges_batch_counters(self):
        from repro.perf.sweep import sweep

        comp = flatten_program(designs.producer_consumer())
        rows = _stimulus(comp, 1, n=8)
        clear_plan_cache()
        PERF.reset()
        report = sweep(
            lambda _: simulate_batch(comp, [iter(rows)]).lanes, [0, 1]
        )
        assert report.values() == [1, 1]
        per_task = [r.counters for r in report.results]
        total = sum(c.get("batch.plan.reactions", 0) for c in per_task)
        assert total == 16
        assert PERF.get("batch.plan.reactions") == 16


class TestEstimatorLanes:
    def test_multi_lane_dominates_each_environment(self):
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        envs = [scenarios.steady(), scenarios.bursty_producer()]
        lanes = estimate_buffer_sizes(
            prog, [w.stimulus_factory for w in envs], horizon=60
        )
        assert lanes.converged
        for env in envs:
            single = estimate_buffer_sizes(
                prog, env.stimulus_factory, horizon=60
            )
            for sig, size in single.sizes.items():
                assert lanes.sizes[sig] >= size

    def test_single_factory_list_degrades_to_classic(self):
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        env = scenarios.bursty_producer()
        classic = estimate_buffer_sizes(prog, env.stimulus_factory, horizon=60)
        listed = estimate_buffer_sizes(
            prog, [env.stimulus_factory], horizon=60
        )
        assert listed == classic

    def test_parallel_lanes_identical(self):
        from repro.desync.estimator import estimate_buffer_sizes

        prog = designs.modular_producer_consumer()
        factories = [_steady_env_stimulus, _bursty_env_stimulus]
        seq = estimate_buffer_sizes(prog, factories, horizon=60)
        par = estimate_buffer_sizes(prog, factories, horizon=60, workers=2)
        assert par == seq


# module-level so the workers=2 estimator path can pickle them
def _steady_env_stimulus():
    return stimuli.merge(
        stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 1)
    )


def _bursty_env_stimulus():
    return stimuli.merge(
        stimuli.bursty("p_act", burst=3, gap=3),
        stimuli.periodic("x_rreq", 2),
    )


class TestBatchedSoaks:
    def test_soak_batch_matches_standalone(self):
        from repro.faults.soak import soak, soak_batch
        from repro.faults.spec import uniform_plan
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        wl = scenarios.steady()
        plans = [
            uniform_plan(seed=7),
            uniform_plan(seed=7, drop=0.2),
            uniform_plan(seed=7, duplicate=0.2),
        ]
        batched = soak_batch(prog, wl, plans, horizon=25.0)
        for plan, got in zip(plans, batched):
            ref = soak(prog, wl, plan, horizon=25.0)
            assert got.classification == ref.classification
            assert got.flow_equivalent == ref.flow_equivalent
            assert got.fault_counts == ref.fault_counts

    def test_batched_sweeps_byte_identical(self):
        from repro.workloads.scenarios import (
            batched_recovery_sweep,
            batched_soak_sweep,
            fault_kind_specs,
            recovery_rate_specs,
            recovery_sweep,
            soak_sweep,
        )

        prog = designs.modular_producer_consumer()
        specs = fault_kind_specs(seed=7, rate=0.2)
        assert (
            batched_soak_sweep(prog, specs, horizon=25.0)
            == soak_sweep(prog, specs, horizon=25.0).values()
        )
        rspecs = recovery_rate_specs(rates=(0.05, 0.3))
        assert (
            batched_recovery_sweep(prog, rspecs, horizon=20.0)
            == recovery_sweep(prog, rspecs, horizon=20.0).values()
        )


# -- compact codegen ----------------------------------------------------------


def _instrumented(design, capacity):
    from repro.desync.transform import desynchronize

    deployment = desynchronize(design, capacities=capacity, instrument=True)
    return flatten_program(deployment.program)


def _jittered_rows(inputs, seed, n):
    """The estimator's environment shape: activations every other
    instant, read requests every instant, deferred at random."""
    import itertools

    from repro.faults.soak import jittered_stimulus

    parts = [
        stimuli.periodic(name, 1 if name.endswith("_rreq") else 2)
        for name in inputs
    ]
    return list(itertools.islice(
        jittered_stimulus(stimuli.merge(*parts), 0.25, seed), n
    ))


def _react_all(reactor, rows):
    """Outputs and state per instant, ending at the first rejection."""
    out = []
    try:
        for row in rows:
            out.append(reactor.react(row))
            out.append(reactor.state())
    except SimulationError as exc:
        out.append(("rejected", type(exc).__name__, str(exc)))
    return repr(out)


def _three_ways(comp, rows):
    """Interpreter, closure plan and a fresh specialized plan."""
    return [
        _react_all(Reactor(comp, check=False, compiled=False), rows),
        _react_all(Reactor(comp, check=False), rows),
        _react_all(Reactor(comp, check=False, plan=SpecializedPlan(comp)), rows),
    ]


# plan.source bytes of the instrumented deployments as generated before
# compact emission (commit 78f12a8: one unrolled guard block per
# assignment and requeue, each default's right branch emitted twice);
# each must now be at most half that
_PARENT_SOURCE_BYTES = {
    ("producer_consumer", 1): 189875,
    ("producer_consumer", 3): 256289,
    ("producer_consumer", 6): 369319,
    ("pipeline", 1): 562328,
    ("pipeline", 3): 765586,
    ("pipeline", 6): 1113939,
    ("fan_out", 1): 377757,
    ("fan_out", 3): 513302,
    ("fan_out", 6): 744998,
    ("request_response", 1): 374822,
    ("request_response", 3): 509720,
    ("request_response", 6): 740589,
}

_BUDGET_DESIGNS = {
    "producer_consumer": designs.producer_consumer,
    "pipeline": lambda: designs.pipeline(stages=3),
    "fan_out": designs.fan_out,
    "request_response": designs.request_response,
}


class TestCompactCodegen:
    def test_source_size_budget(self):
        total = parent_total = 0
        for (name, cap), parent in sorted(_PARENT_SOURCE_BYTES.items()):
            plan = SpecializedPlan(_instrumented(_BUDGET_DESIGNS[name](), cap))
            assert plan.fallback_steps == 0, (name, cap)
            size = len(plan.source)
            assert 2 * size <= parent, (name, cap, size, parent)
            total += size
            parent_total += parent
        assert 2 * total <= parent_total

    def test_codegen_counters(self):
        comp = flatten_program(designs.producer_consumer())
        before = (
            PERF.get("plan.codegen_plans"),
            PERF.get("plan.codegen_bytes"),
            PERF.get_time("plan.codegen"),
        )
        plan = SpecializedPlan(comp)
        assert PERF.get("plan.codegen_plans") == before[0] + 1
        assert PERF.get("plan.codegen_bytes") == before[1] + len(plan.source)
        assert PERF.get_time("plan.codegen") > before[2]
        # deterministic: the same component generates the same source
        assert SpecializedPlan(comp).source == plan.source

    def test_reactor_specialize_goes_through_shared_cache(self):
        clear_plan_cache()
        try:
            a = Reactor(flatten_program(designs.producer_consumer()),
                        specialize=True)
            b = Reactor(flatten_program(designs.producer_consumer()),
                        specialize=True)
            assert a.plan is b.plan
            comp = flatten_program(designs.producer_consumer())
            assert a.plan is shared_plan(comp, specialize=True)
            assert plan_cache_stats()["size"] == 1
        finally:
            clear_plan_cache()


class TestEstimatorDeployments:
    """The instrumented deployments the Sec. 5.2 loop simulates: the
    interpreter, the closure plan and the specialized plan agree byte
    for byte on outputs, state trajectories and rejections."""

    def test_instrumented_deployments_byte_identical(self):
        checked = 0
        for name, design in _corpus():
            if not isinstance(design, Program):
                continue
            for cap in range(1, 7):
                comp = _instrumented(design, cap)
                rows = _jittered_rows(sorted(comp.inputs), cap, 16)
                ref, plan_out, spec_out = _three_ways(comp, rows)
                assert "rejected" not in ref, (name, cap)
                assert plan_out == ref, (name, cap)
                assert spec_out == ref, (name, cap)
                checked += 1
        assert checked >= 6 * 9

    def test_clock_contradiction_text(self):
        from repro.sim.engine import ABSENT

        # an input that is also defined: present, but its definition is
        # absent with its operand
        comp = Component(
            "ClockClash", {"a": INT, "b": INT}, {"y": INT}, {},
            [Equation("a", App("+", (Var("b"), Const(1)))),
             Equation("y", Var("a"))],
        )
        ref, plan_out, spec_out = _three_ways(
            comp, [{"a": 3, "b": 2}, {"a": 1, "b": ABSENT}]
        )
        assert "clock contradiction on 'a': P vs A" in ref
        assert plan_out == ref
        assert spec_out == ref

    def test_value_contradiction_text(self):
        comp = Component(
            "ValueClash", {"a": INT, "b": INT}, {"y": INT}, {},
            [Equation("a", App("+", (Var("b"), Const(1)))),
             Equation("y", Var("a"))],
        )
        ref, plan_out, spec_out = _three_ways(
            comp, [{"a": 3, "b": 2}, {"a": 1, "b": 2}]
        )
        assert "value contradiction on 'a': 1 vs 3" in ref
        assert plan_out == ref
        assert spec_out == ref


def _random_component(rng):
    """A small component with locals, forward references and
    synchronization constraints — shapes the typed property strategies
    do not draw (backward forces, residual passes, sync steps)."""
    from repro.lang.ast import ClockOf, Const, Default, Pre, SyncConstraint, When
    from repro.lang.types import BOOL

    inputs = {"a": INT, "b": BOOL, "c": EVENT, "d": INT}
    names = ["x{}".format(i) for i in range(rng.randint(2, 6))]
    types = {n: rng.choice([INT, BOOL]) for n in names}
    env = dict(inputs, **types)

    def expr(ty, depth):
        if depth <= 0 or rng.random() < 0.25:
            if rng.random() < 0.2:
                return Const(rng.randint(-2, 3) if ty is INT else rng.random() < 0.5)
            return Var(rng.choice([
                n for n, t in env.items()
                if t is ty or (ty is BOOL and t is EVENT)
            ]))
        pick = rng.randrange(6)
        if pick == 0:
            inner = expr(ty, depth - 1)
            if isinstance(inner, Const):
                inner = Var(rng.choice([n for n, t in env.items() if t is ty]))
            return Pre(rng.randint(0, 2) if ty is INT else False, inner)
        if pick == 1:
            return When(expr(ty, depth - 1), expr(BOOL, depth - 1))
        if pick == 2:
            return Default(expr(ty, depth - 1), expr(ty, depth - 1))
        if ty is BOOL:
            if pick == 3:
                return ClockOf(Var(rng.choice(sorted(env))))
            if pick == 4:
                return App("not", (expr(BOOL, depth - 1),))
            if rng.random() < 0.5:
                return App(rng.choice(["==", "<", ">="]),
                           (expr(INT, depth - 1), expr(INT, depth - 1)))
            return App(rng.choice(["and", "or", "xor"]),
                       (expr(BOOL, depth - 1), expr(BOOL, depth - 1)))
        if pick == 3:
            return App("neg", (expr(INT, depth - 1),))
        op = rng.choice(["+", "-", "*", "min", "max", "mod"])
        right = Const(rng.randint(1, 4)) if op == "mod" else expr(INT, depth - 1)
        return App(op, (expr(INT, depth - 1), right))

    statements = [Equation(n, expr(types[n], rng.randint(1, 4))) for n in names]
    for _ in range(rng.randint(0, 3)):
        members = rng.sample(sorted(env), rng.randint(2, 3))
        statements.append(SyncConstraint(tuple(members)))
    half = max(1, len(names) // 2)
    return Component(
        "R", inputs, {n: types[n] for n in names[:half]},
        {n: types[n] for n in names[half:]}, statements,
    )


def test_random_components_plan_and_specialized_agree():
    """Closure plan vs specialized plan on random components with
    locals, forward references and synchronization constraints: same
    outputs, state trajectories and rejection text."""
    import random

    from repro.sim.engine import ABSENT

    compared = 0
    for seed in range(300):
        rng = random.Random(seed)
        comp = _random_component(rng)
        try:
            plan = ReactionPlan(comp)
        except SimulationError:
            continue
        spec = SpecializedPlan(comp)
        for _ in range(2):
            rows = []
            for _ in range(10):
                row = {}
                for name, ty in comp.inputs.items():
                    r = rng.random()
                    if r < 0.2:
                        row[name] = ABSENT
                    elif r < 0.25:
                        continue
                    elif ty is INT:
                        row[name] = rng.randint(-3, 5)
                    else:
                        row[name] = ty is EVENT or rng.random() < 0.5
                rows.append(row)
            expected = _react_all(Reactor(comp, check=False, plan=plan), rows)
            got = _react_all(Reactor(comp, check=False, plan=spec), rows)
            assert got == expected, (seed, comp)
            compared += 1
    assert compared >= 500
