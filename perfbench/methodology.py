"""Workload ``methodology``: the Section 5.2 pipeline, cold, per design.

Each design of a seeded draw of ``repro.designs`` constructors goes
through print -> parse -> typecheck -> flatten -> clock calculus, lint,
the affine flow-equivalence proof, desynchronization and a cold plan
build of the deployment, buffer estimation against jittered environments
(``simulate_batch`` lanes) and, for the finite-state families, the
verified grow-and-check loop under the polled alphabet.  The process-wide
plan cache is emptied before every design: a designer pays codegen on
every new design.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, NamedTuple, Tuple

from repro import designs
from repro.clocks import analyze_clocks
from repro.desync import desynchronize, estimate_buffer_sizes, verified_buffer_sizes
from repro.faults.soak import jittered_stimulus
from repro.lang import check_program, flatten_program, format_program, parse_program
from repro.lang.serializer import program_to_dict
from repro.lint import lint_program
from repro.lint.bounds import PeriodicWord
from repro.mc import input_alphabet
from repro.prove import prove_flow_equivalence
from repro.service.jobs import design_key
from repro.sim import stimuli
from repro.sim.plan import clear_plan_cache, shared_plan

from calibrate import Speedometer, Stopwatch
from common import Outcome, p50, ratio, tail_mean
from layers import CounterWindow, sim_metrics
from tracer import Tracer

LANES = 8          # jittered environments per estimate (batch lanes)
HORIZON = 48       # instants per simulated environment
HOLD = 0.25        # probability a read request is deferred one instant
#: each argument set below is drawn this many times, each time with its
#: own environments
COPIES = 2

#: constructor -> argument sets.  Every draw holds the same 56 designs in
#: a seeded order.  The ranges keep every explicit state space small under
#: the polled alphabet.
FAMILIES = (
    ("producer_consumer", ({"scale": 1}, {"scale": 2}, {"scale": 3}, {"scale": 4})),
    ("modular_producer_consumer", (
        {"modulus": 2, "scale": 1}, {"modulus": 3, "scale": 2},
        {"modulus": 4, "scale": 1}, {"modulus": 3, "scale": 3})),
    ("boolean_producer_consumer", ({},) * 4),
    ("pipeline", ({"stages": 2}, {"stages": 3}) * 2),
    ("fan_out", ({},) * 4),
    ("request_response", ({},) * 4),
    ("producer_accumulator", ({},) * 4),
)

#: families whose deployments are finite-state (verified by model checking)
FINITE = frozenset(("modular_producer_consumer", "boolean_producer_consumer"))

ALWAYS = PeriodicWord.parse("1")


class DesignInput(NamedTuple):
    label: str
    family: str
    program: object
    env_seeds: Tuple[int, ...]


def generate(seed: int) -> List[DesignInput]:
    """The seeded draw: every (family, arguments) pair :data:`COPIES`
    times, in a seeded order.

    Each design's environments are seeded by its label, not by ``seed``:
    how many iterations an estimate needs (2 to 4) depends on its
    environments and sets most of its time, and environments drawn per
    seed moved the median design time by up to 30% between seeds.  So
    every seed does the same work and seeds differ in order only."""
    rng = random.Random(seed)
    draw = []
    for name, arg_sets in FAMILIES:
        for i, args in enumerate(arg_sets * COPIES):
            label = "{}({})#{}".format(name, ",".join(
                "{}={}".format(k, v) for k, v in sorted(args.items())), i)
            draw.append((label, name, args))
    rng.shuffle(draw)
    out = []
    for label, name, args in draw:
        envs = random.Random(label)
        out.append(DesignInput(label, name, getattr(designs, name)(**args),
                               tuple(envs.randrange(1 << 30) for _ in range(LANES))))
    return out


def environment(inputs: List[str], seed: int):
    """A fresh-stimulus factory: activations every other instant, read
    requests every instant but deferred at random (consumer jitter)."""
    def make():
        parts = [
            stimuli.periodic(name, 1 if name.endswith("_rreq") else 2)
            for name in inputs
        ]
        return jittered_stimulus(stimuli.merge(*parts), HOLD, seed)
    return make


class DesignWork(NamedTuple):
    """What one design's pipeline did (summed into layer counters)."""

    diagnostics: int
    obligations: int
    estimate_iterations: int
    verify_rounds: int
    verify_states: int


def run_design(d: DesignInput, tracer: Tracer) -> Tuple[DesignWork, object, List[str]]:
    """The timed pipeline on one design.

    Returns what it did, the parsed program (for the round-trip oracle,
    which runs outside the timed window) and the wrong answers found; an
    exception is one more wrong answer."""
    span = tracer.span
    failures: List[str] = []
    work = DesignWork(0, 0, 0, 0, 0)
    parsed = None
    try:
        with span("lang.print"):
            text = format_program(d.program)
        with span("lang.parse"):
            parsed = parse_program(text, name=d.program.name)
        with span("lang.typecheck"):
            check_program(parsed)
        with span("lang.flatten"):
            flat = flatten_program(parsed)
        with span("clocks.analyze"):
            analyze_clocks(flat)
        with span("lint.run"):
            report = lint_program(parsed, file=d.label)
        with span("prove.affine"):
            cert = prove_flow_equivalence(
                parsed, rates={name: ALWAYS for name in flat.inputs})
        if (cert.verdict, cert.method) != ("proven", "affine-inductive"):
            failures.append("prove: {} by {} ({})".format(
                cert.verdict, cert.method, cert.reason))
        with span("desync.transform"):
            deployment = desynchronize(parsed)
        with span("lang.flatten"):
            dflat = flatten_program(deployment.program)
        with span("sim.codegen"):
            shared_plan(dflat)
        inputs = sorted(dflat.inputs)
        envs = [environment(inputs, s) for s in d.env_seeds]
        with span("desync.estimate"):
            estimate = estimate_buffer_sizes(parsed, envs, horizon=HORIZON)
        if not estimate.converged:
            failures.append("estimate did not converge")
        rounds = states = 0
        if d.family in FINITE:
            alphabet = input_alphabet(dflat, always_present=[
                n for n in inputs if n.endswith("_rreq")])
            with span("desync.verify_loop"):
                verified = verified_buffer_sizes(
                    parsed, envs[0], horizon=HORIZON, alphabet=alphabet)
            if not verified.proven:
                failures.append("verified_buffer_sizes not proven")
            rounds = len(verified.rounds)
            states = sum(r.states for r in verified.rounds)
        work = DesignWork(
            len(report.diagnostics), len(cert.obligations),
            estimate.iterations, rounds, states,
        )
    except Exception as exc:  # one design's error must not end the run
        failures.append("{}: {}".format(type(exc).__name__, exc))
    return work, parsed, failures


def run_pass(draw: List[DesignInput], tracer: Tracer, outcome: Outcome,
             meter) -> Tuple[List[float], List[DesignWork]]:
    """One pass over the draw; returns each design's pipeline time as
    ``meter`` measures it and the work done.  Emptying the plan cache,
    collecting garbage and the round-trip oracle are the benchmark's own
    work, outside the timed window."""
    times: List[float] = []
    works = []
    for d in draw:
        with tracer.span("design", rid=d.label):
            with tracer.span("bench.reset"):
                clear_plan_cache()
                # the last design's garbage goes now, not inside this one;
                # otherwise the draw's order moves the peak RSS
                gc.collect()
            (work, parsed, failures), seconds = meter.measure(
                lambda: run_design(d, tracer))
            times.append(seconds)
            with tracer.span("bench.oracle"):
                if parsed is not None and \
                        design_key({"program": program_to_dict(d.program)}) != \
                        design_key({"program": program_to_dict(parsed)}):
                    failures.append("print/parse round trip changed design_key")
        works.append(work)
        if failures:
            outcome.fail("{}: {}".format(d.label, "; ".join(failures)))
        else:
            outcome.ok()
    return times, works


def run_timed(draw: List[DesignInput], seconds: float,
              outcome: Outcome) -> Tuple[Speedometer, Dict[str, float]]:
    """Whole draws until ``seconds`` of wall time pass; every figure is
    speed-scaled pipeline CPU time (see ``calibrate``)."""
    off = Tracer(False)
    latencies: List[float] = []
    passes: List[float] = []
    t0 = time.perf_counter()
    with Speedometer() as meter:
        while True:
            times, _ = run_pass(draw, off, outcome, meter)
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


def layer_metrics(tracer: Tracer, works: List[DesignWork],
                  delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer numbers of a traced pass: span self times plus the
    program's own counters (``delta`` from a :class:`CounterWindow`)."""
    own = tracer.layer_self_seconds()
    states = sum(w.verify_states for w in works)
    explicit_s = delta.get("time.mc.explore", 0.0)
    out = {
        "lang.print_s": own.get("lang.print", 0.0),
        "lang.parse_s": own.get("lang.parse", 0.0),
        "lang.typecheck_s": own.get("lang.typecheck", 0.0),
        "lang.flatten_s": own.get("lang.flatten", 0.0),
        "clocks.analyze_s": own.get("clocks.analyze", 0.0),
        "lint.s": own.get("lint.run", 0.0),
        "lint.diagnostics": sum(w.diagnostics for w in works),
        "prove.s": own.get("prove.affine", 0.0),
        "prove.obligations": sum(w.obligations for w in works),
        "desync.transform_s": own.get("desync.transform", 0.0),
        "desync.estimate_s": own.get("desync.estimate", 0.0),
        "desync.estimate_iterations": sum(w.estimate_iterations for w in works),
        "desync.design_cache_misses": delta.get("desync.cache_misses", 0),
        "desync.verify_loop_s": own.get("desync.verify_loop", 0.0),
        "desync.verify_rounds": sum(w.verify_rounds for w in works),
        "sim.codegen_s": own.get("sim.codegen", 0.0),
        "mc.explicit_s": explicit_s,
        "mc.states": states,
        "mc.reactions": delta.get("mc.reactions", 0),
        "mc.states_per_s": ratio(states, explicit_s),
    }
    out.update(sim_metrics(delta))
    return out


def run_traced(draw: List[DesignInput], outcome: Outcome):
    """An untraced pass, then a traced one over the same draw.

    Returns (traced wall, untraced wall, tracer, layer metrics)."""
    t0 = time.perf_counter()
    run_pass(draw, Tracer(False), Outcome(), Stopwatch())
    untraced = time.perf_counter() - t0
    tracer = Tracer(True)
    window = CounterWindow().open()
    t0 = time.perf_counter()
    with tracer.span("pass"):
        _, works = run_pass(draw, tracer, outcome, Stopwatch())
    wall = time.perf_counter() - t0
    return wall, untraced, tracer, layer_metrics(tracer, works, window.close())
