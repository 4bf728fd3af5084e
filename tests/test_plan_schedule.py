"""The reaction plan's step schedule.

Steps are ordered by the strongly connected components of the full
data-flow graph (``pre`` operands included).  A register ``x := pre x
...`` is a cycle of that graph, so an order that treats it as an
unschedulable residue leaves it — and everything downstream of it — to
the residual worklist; the component order settles the chain in the
sweep.  ``residual_passes`` (re-runs after the sweep) is the
deterministic measure.
"""

from repro.lang.ast import App, Component, Const, Equation, Pre, Program, Var
from repro.lang.types import INT
from repro.sim import simulate_batch
from repro.sim.plan import ReactionPlan
from tests.test_specialize_batch import _corpus, _instrumented, _jittered_rows

#: designs where a register learns its presence only from a step that
#: runs after it and forces it — a one-place buffer's ``full`` flag in
#: the relay chain, the channel clocks closing the token ring — so those
#: steps re-run whatever the order; the rest of the corpus settles in the
#: sweep up to the watchers' ``max(pre reg, cnt)`` registers, which force
#: their own ``pre`` operand
_FORCED_LOOPS = frozenset(("gals_relay_chain", "token_ring"))


def _chain():
    """a -> x -> y -> r (a ``pre`` self-loop register) -> out, declared
    consumers first."""
    return Component(
        "chain", {"a": INT}, {"out": INT}, {"x": INT, "y": INT, "r": INT},
        [
            Equation("out", App("+", (Var("r"), Const(1)))),
            Equation("r", App("max", (Pre(0, Var("r")), Var("y")))),
            Equation("y", App("*", (Var("x"), Const(2)))),
            Equation("x", App("+", (Var("a"), Const(1)))),
        ],
    )


class TestTopoOrder:
    def test_consumers_follow_producers_through_a_register(self):
        comp = _chain()
        order = [eq.target for eq in ReactionPlan._topo_order(
            comp, comp.equations())]
        assert order == ["x", "y", "r", "out"]

    def test_acyclic_order_is_kahn_order(self):
        comp = Component(
            "acyclic", {"a": INT}, {"z": INT}, {"x": INT, "y": INT},
            [
                Equation("z", App("+", (Var("x"), Var("y")))),
                Equation("y", App("+", (Var("a"), Const(2)))),
                Equation("x", App("+", (Var("a"), Const(1)))),
            ],
        )
        order = [eq.target for eq in ReactionPlan._topo_order(
            comp, comp.equations())]
        assert order == ["y", "x", "z"]


def test_estimator_deployments_settle_in_the_sweep():
    """Every corpus program's instrumented deployment, capacities 1-4,
    8 jittered lanes x 48 instants: the sweep settles all but a bounded
    number of steps per reaction."""
    checked = 0
    for name, design in _corpus():
        if not isinstance(design, Program):
            continue
        for capacity in range(1, 5):
            comp = _instrumented(design, capacity)
            plan = ReactionPlan(comp)
            lanes = [
                _jittered_rows(sorted(comp.inputs), seed, 48)
                for seed in range(8)
            ]
            report = simulate_batch(
                comp, [iter(rows) for rows in lanes], plan=plan
            )
            reactions = report.stats["reactions"]
            residual = report.stats["residual_passes"]
            bound = len(plan.steps) // 2 if name in _FORCED_LOOPS else 2
            assert residual <= bound * reactions, (
                name, capacity, residual, reactions)
            checked += 1
    assert checked >= 9 * 4
