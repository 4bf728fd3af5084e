"""Experiment A3 — substrate ablation: model-checker scaling.

The verification phase's cost is the reachable state space of the
desynchronized design.  This bench measures how states, transitions and
exploration rate scale with FIFO depth and datapath width (the producer's
value modulus) under the free environment — the "cost of assurance" curve
for the rebuilt backend.

Expected shape: states grow geometrically with FIFO depth (each slot adds
a value dimension) and polynomially with the datapath modulus.

A second section ablates the *simulation* substrate on the same design:
the reference interpreter vs the compiled closure plan vs the
specialized generated-code plan (``repro.sim.specialize``), reactions
per second on the desynchronized network.  The specialized plan is the
default hot path everywhere (soaks, sweeps, the estimator, and the
explicit exploration timed above), so this is the speedup those
harnesses inherit per lane.

``BENCH_QUICK=1`` restricts the sweep to small parameters (smoke mode).
"""

import time

from repro.designs import modular_producer_consumer
from repro.desync import desynchronize
from repro.lang.analysis import flatten_program
from repro.mc import compile_lts
from repro.perf.sweep import sweep
from repro.sim import Reactor

from _report import emit, quick, table

FREE = [{}, {"p_act": True}, {"x_rreq": True}, {"p_act": True, "x_rreq": True}]

CAPACITIES = (1, 2) if quick() else (1, 2, 3, 4)
MODULI = (2, 3) if quick() else (2, 3, 4)

SIM_INSTANTS = 400 if quick() else 4000
SIM_REPEATS = 1 if quick() else 6


def explore(point):
    capacity, modulus = point
    res = desynchronize(
        modular_producer_consumer(modulus=modulus), capacities=capacity
    )
    lts = compile_lts(res.program, alphabet=FREE, max_states=500000)
    return lts.num_states(), lts.num_transitions()


def run_experiment():
    # the depth sweep at modulus 2, then the modulus sweep at depth 2 (the
    # shared (2, 2) point is intentionally measured twice); sequential so
    # each per-task wall time is an honest single-core exploration cost
    points = [(c, 2) for c in CAPACITIES] + [(2, m) for m in MODULI]
    report = sweep(explore, points)
    records = []
    by_depth = {}
    by_modulus = {}
    for point, task in zip(points, report.results):
        capacity, modulus = point
        states, transitions = task.value
        records.append(
            {
                "capacity": capacity,
                "modulus": modulus,
                "states": states,
                "transitions": transitions,
                "seconds": task.seconds,
                "reactions_per_s":
                    int(transitions / task.seconds) if task.seconds else 0,
            }
        )
        if modulus == 2:
            by_depth[capacity] = states
        if capacity == 2:
            by_modulus[modulus] = states
    return records, by_depth, by_modulus


def _sim_rows(n):
    # an alternating produce/consume handshake: the steady-state rhythm
    # of the desynchronized pair
    return [
        {"p_act": True} if i % 2 == 0 else {"x_rreq": True} for i in range(n)
    ]


ENGINES = (
    ("interpreter", {"compiled": False}),
    ("plan", {"specialize": False}),
    ("specialized", {"specialize": True}),
)


def sim_speed():
    """Reactions/s of the three engines on the desynchronized design.

    CPU time, engines interleaved per round and best-of-``SIM_REPEATS``,
    so scheduler noise and per-process drift hit every engine alike; the
    traces are also cross-checked so the ratio compares *identical*
    work."""
    comp = flatten_program(
        desynchronize(modular_producer_consumer(), capacities=2).program
    )
    rows = _sim_rows(SIM_INSTANTS)
    best = {}
    traces = {}
    for _ in range(SIM_REPEATS):
        for name, kwargs in ENGINES:
            reactor = Reactor(comp, check=False, **kwargs)
            start = time.process_time()
            out = [reactor.react(row) for row in rows]
            elapsed = time.process_time() - start
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
            traces[name] = out
    assert repr(traces["plan"]) == repr(traces["interpreter"])
    assert repr(traces["specialized"]) == repr(traces["interpreter"])
    return [
        {
            "engine": name,
            "instants": SIM_INSTANTS,
            "cpu_seconds": best[name],
            "reactions_per_s":
                int(SIM_INSTANTS / best[name]) if best[name] else 0,
        }
        for name, _ in ENGINES
    ]


def test_a3_mc_scaling(benchmark):
    records, by_depth, by_modulus = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    sim_records = sim_speed()
    rps = {r["engine"]: r["reactions_per_s"] for r in sim_records}
    emit(
        "A3_mc_scaling",
        table(
            ["FIFO depth", "modulus", "states", "transitions",
             "explore time (s)", "reactions/s"],
            [
                (r["capacity"], r["modulus"], r["states"], r["transitions"],
                 "{:.3f}".format(r["seconds"]), r["reactions_per_s"])
                for r in records
            ],
        )
        + "\n\nsimulation substrate (desynchronized design, {} instants)\n".format(
            SIM_INSTANTS
        )
        + table(
            ["engine", "reactions/s", "vs interpreter"],
            [
                (r["engine"], r["reactions_per_s"],
                 "{:.1f}x".format(
                     r["reactions_per_s"] / max(1, rps["interpreter"])))
                for r in sim_records
            ],
        ),
        data={"mc": records, "sim": sim_records},
    )
    # the specialized plan is the default hot path; it must beat the
    # reference interpreter by an order of magnitude (smoke mode runs too
    # few instants for a stable ratio and only checks direction)
    floor = 2 if quick() else 10
    assert rps["specialized"] >= floor * rps["interpreter"], rps
    assert rps["plan"] > rps["interpreter"], rps
    # geometric growth in depth
    depths = sorted(by_depth)
    for a, b in zip(depths, depths[1:]):
        assert by_depth[b] > by_depth[a]
    if 4 in by_depth:
        assert by_depth[4] >= 8 * by_depth[2]
    # growth in datapath width
    mods = sorted(by_modulus)
    for a, b in zip(mods, mods[1:]):
        assert by_modulus[b] > by_modulus[a]
