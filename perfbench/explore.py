"""Workload ``explore``: model checking only.

One pass runs every obligation below and ends when each has its verdict:

- explicit ``compile_lts`` + ``check_never_present`` on the
  desynchronized ``modular_producer_consumer`` at modulus 3 / capacity 4
  (4,860 states) and modulus 4 / capacity 3 (3,072 states) under the free
  alphabet, both refuted, and the same two under the polled alphabet,
  both proven;
- ``SymbolicChecker`` on ``gals_relay_chain(12)`` and
  ``gals_relay_chain(15)`` (12,288 and 98,304 states), obligations
  ``f0_alarm`` and ``dup``, polled readers;
- ``verify_composed`` on the same chains with the alternating-bit
  contracts of experiment A13;
- a refuted control, ``gals_relay_chain(2)`` with free readers, on all
  three backends, whose counterexamples must agree.

The seed orders the eleven tasks.  Their number is odd so that the
median task time of a run is the median of one task's times, not the
mean of the slowest run of one task and the fastest of another.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import designs
from repro.desync import desynchronize
from repro.lang import flatten_program
from repro.mc import (
    SymbolicChecker,
    check_never_present,
    compile_lts,
    input_alphabet,
    verify_composed,
)

from calibrate import Speedometer, Stopwatch
from common import Outcome, p50, ratio, tail_mean
from layers import CounterWindow, sim_metrics
from tracer import Tracer

#: (modulus, capacity) -> reachable states under the free alphabet (A3)
EXPLICIT_STATES = {(3, 4): 4860, (4, 3): 3072}
#: relay-chain stages -> reachable states with polled readers (A13)
CHAIN_STATES = {12: 12288, 15: 98304}
CHAIN_OBLIGATIONS = ("f0_alarm", "dup")
CONTROL_STAGES = 2


class Verdict(NamedTuple):
    """One obligation's answer from one backend."""

    design: str
    obligation: str
    backend: str
    holds: bool
    counterexample: Optional[list]   # input rows, when refuted


class Work:
    """Counters summed over a pass (read by :func:`layer_metrics`)."""

    def __init__(self) -> None:
        self.states = self.transitions = self.reactions = 0
        self.iterations = self.peak_nodes = 0
        self.apply_hits = self.apply_lookups = self.gc_collections = 0
        self.compose_checks = self.largest_check = 0


def chain_contracts(stages: int) -> Dict[str, str]:
    """The A13 alternating-bit contracts on every cut signal of the chain."""
    contracts = {"x0": "alternating"}
    for i in range(stages):
        contracts["f{}_msgout".format(i)] = "alternating"
        contracts["x{}".format(i + 1)] = "alternating"
    return contracts


def _rows(ce) -> Optional[list]:
    return None if ce is None else list(ce.inputs)


def _check_explicit(tracer, work, label, flat, alphabet, alarm):
    """Explicit exploration plus the alarm check; returns (LTS, Verdict)."""
    with tracer.span("mc.explicit", rid=label):
        lts = compile_lts(flat, alphabet=alphabet, max_states=500000)
    with tracer.span("mc.check"):
        ce = check_never_present(lts, alarm)
    work.states += lts.num_states()
    work.transitions += lts.num_transitions()
    work.reactions += int(lts.stats.get("reactions", 0))
    return lts, Verdict(label, alarm, "explicit", ce is None, _rows(ce))


def _explicit(tracer, work, outcome, modulus, capacity, polled) -> List[Verdict]:
    label = "mod{}-cap{}-{}".format(modulus, capacity, "polled" if polled else "free")
    with tracer.span("desync.transform", rid=label):
        deployment = desynchronize(
            designs.modular_producer_consumer(modulus=modulus), capacities=capacity)
    with tracer.span("lang.flatten"):
        flat = flatten_program(deployment.program)
    rreqs = [n for n in flat.inputs if n.endswith("_rreq")]
    alphabet = input_alphabet(flat, always_present=rreqs if polled else ())
    lts, verdict = _check_explicit(
        tracer, work, label, flat, alphabet, deployment.channels[0].alarm)
    if not polled:
        expected = EXPLICIT_STATES[(modulus, capacity)]
        outcome.check(lts.num_states() == expected, "{}: {} states (want {})".format(
            label, lts.num_states(), expected))
    return [verdict]


def _chain(stages: int, polled: bool):
    program = designs.gals_relay_chain(stages)
    rreqs = designs.gals_relay_chain_rreqs(stages)
    return program, rreqs if polled else []


def _symbolic(tracer, work, outcome, stages, polled=True) -> List[Verdict]:
    label = "chain{}-{}".format(stages, "polled" if polled else "free")
    program, always = _chain(stages, polled)
    obligations = CHAIN_OBLIGATIONS if polled else ("f0_alarm",)
    with tracer.span("lang.flatten", rid=label):
        flat = flatten_program(program)
    with tracer.span("mc.symbolic"):
        chk = SymbolicChecker(flat, alphabet=input_alphabet(flat, always_present=always))
        states = chk.state_count()
        ces = {s: chk.check_never_present(s) for s in obligations}
    stats = chk.bdd.cache_stats()
    work.iterations += chk.iterations
    work.peak_nodes = max(work.peak_nodes, chk.peak_nodes)
    work.apply_hits += stats["apply_hits"]
    work.apply_lookups += stats["apply_hits"] + stats["apply_misses"]
    work.gc_collections += stats["gc_collections"]
    if polled:
        outcome.check(states == CHAIN_STATES[stages],
                      "{}: {} states (want {})".format(label, states, CHAIN_STATES[stages]))
    return [Verdict(label, s, "symbolic", ce is None, _rows(ce))
            for s, ce in ces.items()]


def _compose(tracer, work, outcome, stages, polled=True) -> List[Verdict]:
    label = "chain{}-{}".format(stages, "polled" if polled else "free")
    program, always = _chain(stages, polled)
    obligations = CHAIN_OBLIGATIONS if polled else ("f0_alarm",)
    out = []
    for s in obligations:
        with tracer.span("mc.compose", rid=label):
            cert = verify_composed(
                program, s,
                contracts=chain_contracts(stages) if s == "dup" else None,
                always_present=always,
            )
        work.compose_checks += cert.num_checks
        work.largest_check = max(work.largest_check, cert.largest_check_states)
        out.append(Verdict(label, s, "compose", cert.holds,
                           _rows(cert.counterexample)))
    return out


def _control_explicit(tracer, work, outcome) -> List[Verdict]:
    label = "chain{}-free".format(CONTROL_STAGES)
    program, _ = _chain(CONTROL_STAGES, polled=False)
    with tracer.span("lang.flatten", rid=label):
        flat = flatten_program(program)
    _, verdict = _check_explicit(
        tracer, work, label, flat, input_alphabet(flat), "f0_alarm")
    return [verdict]


class Task(NamedTuple):
    name: str
    run: Callable[[Tracer, Work, Outcome], List[Verdict]]


def generate(seed: int) -> List[Task]:
    """The pass's tasks in a seeded order."""
    rng = random.Random(seed)
    tasks = [
        Task("explicit-mod{}-cap{}-{}".format(m, c, "polled" if polled else "free"),
             lambda t, w, o, m=m, c=c, p=polled: _explicit(t, w, o, m, c, polled=p))
        for m, c in sorted(EXPLICIT_STATES) for polled in (False, True)
    ]
    for k in sorted(CHAIN_STATES):
        tasks.append(Task("symbolic-chain{}".format(k),
                          lambda t, w, o, k=k: _symbolic(t, w, o, k)))
        tasks.append(Task("compose-chain{}".format(k),
                          lambda t, w, o, k=k: _compose(t, w, o, k)))
    tasks.append(Task("explicit-control", _control_explicit))
    tasks.append(Task("symbolic-control",
                      lambda t, w, o: _symbolic(t, w, o, CONTROL_STAGES, polled=False)))
    tasks.append(Task("compose-control",
                      lambda t, w, o: _compose(t, w, o, CONTROL_STAGES, polled=False)))
    rng.shuffle(tasks)
    return tasks


def check_verdicts(verdicts: List[Verdict], outcome: Outcome) -> None:
    """Every verdict must be the known answer (polled environments hold,
    free ones are refuted with a counterexample), and backends that
    answered the same obligation must agree; the explicit and the
    compositional counterexample (a monolithic fallback) must be the same
    input rows."""
    groups: Dict[tuple, List[Verdict]] = {}
    for v in verdicts:
        groups.setdefault((v.design, v.obligation), []).append(v)
        want = v.design.endswith("-polled")
        outcome.check(
            v.holds == want and (want or bool(v.counterexample)),
            "{} never {} ({}): holds={}, want {}".format(
                v.design, v.obligation, v.backend, v.holds, want))
    for (design, obligation), group in sorted(groups.items()):
        if len(group) < 2:
            continue
        rows = {v.backend: v.counterexample for v in group}
        ok = len({v.holds for v in group}) == 1
        if "explicit" in rows and "compose" in rows:
            ok = ok and rows["explicit"] == rows["compose"]
        outcome.check(ok, "{} never {}: backends disagree ({})".format(
            design, obligation, {v.backend: v.holds for v in group}))


def run_pass(tasks: List[Task], tracer: Tracer, outcome: Outcome,
             work: Work, meter) -> List[float]:
    """Every task once; returns each task's time as ``meter`` measures
    it.  The verdicts are checked after the last one is in."""
    verdicts: List[Verdict] = []
    times: List[float] = []
    for task in tasks:
        def one(task=task):
            try:
                with tracer.span("task", rid=task.name):
                    verdicts.extend(task.run(tracer, work, outcome))
            except Exception as exc:  # one task's error must not end the run
                outcome.fail("{}: {}: {}".format(task.name, type(exc).__name__, exc))
        _, seconds = meter.measure(one)
        times.append(seconds)
    with tracer.span("bench.oracle"):
        check_verdicts(verdicts, outcome)
    return times


def run_timed(tasks: List[Task], seconds: float,
              outcome: Outcome) -> Tuple[Speedometer, Dict[str, float]]:
    """Whole passes until ``seconds`` of wall time pass; every figure is
    speed-scaled CPU time (see ``calibrate``)."""
    latencies: List[float] = []
    passes: List[float] = []
    t0 = time.perf_counter()
    with Speedometer() as meter:
        while True:
            times = run_pass(tasks, Tracer(False), outcome, Work(), meter)
            latencies.extend(times)
            passes.append(sum(times))
            if time.perf_counter() - t0 >= seconds:
                break
    return meter, {
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * p50(latencies),
        "latency_tail_ms": 1e3 * tail_mean(latencies),
        "pass_s": p50(passes),
    }


def run_traced(tasks: List[Task], outcome: Outcome):
    """An untraced pass, then a traced one.

    Returns (traced wall, untraced wall, tracer, layer metrics)."""
    t0 = time.perf_counter()
    run_pass(tasks, Tracer(False), Outcome(), Work(), Stopwatch())
    untraced = time.perf_counter() - t0
    tracer = Tracer(True)
    work = Work()
    window = CounterWindow().open()
    t0 = time.perf_counter()
    with tracer.span("pass"):
        run_pass(tasks, tracer, outcome, work, Stopwatch())
    wall = time.perf_counter() - t0
    delta = window.close()
    own = tracer.layer_self_seconds()
    explicit_s = own.get("mc.explicit", 0.0)
    metrics = {
        "desync.transform_s": own.get("desync.transform", 0.0),
        "lang.flatten_s": own.get("lang.flatten", 0.0),
        "mc.explicit_s": explicit_s,
        "mc.states": work.states,
        "mc.transitions": work.transitions,
        "mc.reactions": work.reactions,
        "mc.states_per_s": ratio(work.states, explicit_s),
        "mc.check_s": own.get("mc.check", 0.0),
        "mc.symbolic_s": own.get("mc.symbolic", 0.0),
        "mc.symbolic_iterations": work.iterations,
        "mc.bdd_peak_nodes": work.peak_nodes,
        "mc.bdd_apply_hit_ratio": ratio(work.apply_hits, work.apply_lookups),
        "mc.bdd_apply_lookups": work.apply_lookups,
        "mc.bdd_gc_collections": work.gc_collections,
        "mc.compose_s": own.get("mc.compose", 0.0),
        "mc.compose_checks": work.compose_checks,
        "mc.compose_largest_check_states": work.largest_check,
    }
    metrics.update(sim_metrics(delta))
    return wall, untraced, tracer, metrics
