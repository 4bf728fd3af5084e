"""Convenience drivers around :class:`~repro.sim.engine.Reactor`."""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, Optional, Union

from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.perf import PERF
from repro.sim.engine import Oracle, Reactor
from repro.sim.plan import merge_plan_counters
from repro.sim.trace import SimTrace


def simulate(
    design: Union[Component, Program],
    stimulus: Iterable[Dict[str, object]],
    n: Optional[int] = None,
    oracle: Optional[Oracle] = None,
    reactor: Optional[Reactor] = None,
) -> SimTrace:
    """Run ``design`` against ``stimulus`` for ``n`` instants.

    Programs are flattened (synchronous composition) first.  ``n`` defaults
    to the stimulus length; infinite stimuli require an explicit ``n``.
    A pre-built ``reactor`` can be supplied to continue a run.

    The returned trace carries execution statistics in ``trace.stats``
    (also merged into :data:`repro.perf.PERF` under the ``sim.`` prefix).
    """
    if reactor is None:
        comp = flatten_program(design) if isinstance(design, Program) else design
        reactor = Reactor(comp, oracle=oracle)
    plan = reactor.plan
    base = plan.counters_snapshot() if plan is not None else None
    trace = SimTrace()
    rows = stimulus if n is None else itertools.islice(stimulus, n)
    start = time.perf_counter()
    for inputs in rows:
        trace.append(reactor.react(inputs))
    elapsed = time.perf_counter() - start
    trace.stats["instants"] = len(trace)
    trace.stats["elapsed"] = elapsed
    if base is not None:
        # attribution: sim.plan.* for reactions run on closures,
        # sim.plan.spec.* for generated code — so bench deltas name the
        # tier that produced them
        trace.stats.update(merge_plan_counters(plan.counters_since(base), "sim"))
    PERF.add_time("sim.simulate", elapsed)
    return trace
