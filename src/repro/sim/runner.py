"""Convenience drivers around :class:`~repro.sim.engine.Reactor`."""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, Optional, Union

from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.perf import PERF
from repro.sim.engine import Oracle, Reactor
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
        delta = plan.counters_since(base)
        trace.stats.update(delta)
        # attribution: sim.plan.* for closure plans, sim.plan.spec.* for
        # specialized ones — so bench deltas name the path that produced them
        PERF.merge(delta, prefix="sim." + plan.kind)
    PERF.add_time("sim.simulate", elapsed)
    return trace
