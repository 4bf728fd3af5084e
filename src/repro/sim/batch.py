"""Batched lane execution: N independent runs through one compiled plan.

The expensive part of a simulation campaign — the buffer estimator's
iteration loop, fault soaks, property sweeps — is rarely *one* long run;
it is many short, independent runs of the *same* design under different
stimuli or seeds ("validate many flows, not one").  This module amortizes
everything that is per-design across those runs:

- the plan (and its specialized generated code) is compiled **once** and
  shared by every lane via :func:`repro.sim.plan.shared_plan`;
- reactions go through :meth:`ReactionPlan.react_slots`, skipping the
  per-instant output-dict build of :meth:`Reactor.react`;
- recorded statuses/values are laid out as per-lane arrays — a compact
  numpy ``uint8``/``int64`` encoding when numpy is importable (every
  Signal value type is bool/int-shaped), with a pure-Python object-lane
  recorder as the always-available fallback, so numpy stays an
  *optional* dependency.  A value that does not fit the numpy encoding
  (e.g. an int beyond 64 bits) demotes the whole batch to object lanes
  mid-run without re-executing any reaction;
- a reaction is a pure function of ``(state, inputs)``, and soak lanes
  are near-copies of one another, so the scalar loop memoizes reactions
  run-wide: every lane that reaches a pair some lane already solved
  reuses the result instead of re-running the plan (pure Python — it
  speeds up the object backend just as much);
- when the plan is *unspecialized* (``REPRO_NO_SPECIALIZE``) and the
  batch is wide, execution switches to :mod:`repro.sim.vector`: one
  numpy sweep evaluates all lanes simultaneously, statuses and values
  held as ``(signal, lane)`` matrices, with per-lane scalar redo keeping
  error messages and divergent lanes byte-exact.

The oracle guarantee is unchanged: every lane produces exactly the trace
:func:`repro.sim.runner.simulate` would — same rows, same values, same
exceptions — because lanes execute the same plan sequentially with their
own state and instant index.  The win is amortization, not reordering.

Counters are merged into :data:`repro.perf.PERF` under
``batch.<plan-kind>.*`` (``batch.plan.*`` or ``batch.plan.spec.*``) plus
``batch.lanes`` / ``batch.instants``, so A11 deltas are attributable to
the path that produced them.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.lang.types import BOOL, EVENT, INT
from repro.perf import PERF
from repro.sim.engine import ABSENT, Oracle
from repro.sim.plan import ReactionPlan, shared_plan
from repro.sim.trace import SimTrace

#: lazy numpy probe: ``None`` unprobed, ``False`` absent, else the module
_np = None


def numpy_available() -> bool:
    """Whether the numpy lane encoding may be used.

    ``REPRO_NO_NUMPY=1`` forces the object-lane fallback (the CI leg that
    proves the fallback complete runs the whole suite this way)."""
    if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
        return False
    global _np
    if _np is None:
        try:
            import numpy

            _np = numpy
        except ImportError:
            _np = False
    return _np is not False


#: minimum lane count before the cross-lane vector executor
#: (:mod:`repro.sim.vector`) is worth its per-instant array overhead;
#: below it the scalar lane loop wins
VECTOR_MIN_LANES = 8

#: cap on distinct ``(state, inputs)`` reaction results the scalar-lane
#: memo retains per batch; past it new pairs still compute (and hit the
#: existing entries) but are not stored, bounding memory on batches whose
#: lanes never converge
MEMO_CAP = 1 << 16


class _LaneDemotion(Exception):
    """A value did not fit the numpy encoding; switch to object lanes."""


class _NumpyLane:
    """One lane's record as ``uint8`` status and ``int64`` value arrays.

    Only *canonical* values are encoded — exactly ``bool`` for
    boolean/event slots, exactly ``int`` (within 64 bits) for integer
    slots — so decoding reproduces every row byte-for-byte.  Anything
    else (an ``1`` fed to an event input, a 70-bit counter) raises
    :class:`_LaneDemotion` and the batch falls back to object lanes.
    """

    backend = "numpy"

    def __init__(self, n_signals: int, hint: Optional[int], exact):
        np = _np
        cap = hint if hint and hint > 0 else 16
        self._status = np.zeros((cap, n_signals), dtype=np.uint8)
        self._value = np.zeros((cap, n_signals), dtype=np.int64)
        self._exact = exact
        self.count = 0

    def _grow(self) -> None:
        np = _np
        self._status = np.concatenate([self._status, np.zeros_like(self._status)])
        self._value = np.concatenate([self._value, np.zeros_like(self._value)])

    def record_raw(self, status_col, value_col) -> None:
        """Record one instant straight from vector-executor lane columns.

        The columns are trusted: the vector executor only produces
        canonical int64-encodable values (anything else bails to the
        scalar path before reaching a recorder)."""
        t = self.count
        if t == len(self._status):
            self._grow()
        self._status[t] = status_col
        self._value[t] = value_col
        self.count = t + 1

    def record(self, statuses: List[int], values: List[object]) -> None:
        t = self.count
        if t == len(self._status):
            self._grow()
        self._status[t] = statuses
        row = self._value[t]
        exact = self._exact
        try:
            for i, s in enumerate(statuses):
                if s == 1:
                    v = values[i]
                    if v.__class__ is not exact[i]:
                        raise _LaneDemotion()
                    row[i] = v
        except (OverflowError, TypeError, ValueError):
            # leave the half-written row behind; the driver re-records this
            # instant on the object lane it converts us into
            raise _LaneDemotion()
        self.count = t + 1

    def rows(self, names: Sequence[str], conv) -> Iterable[Dict[str, object]]:
        status = self._status
        value = self._value
        for t in range(self.count):
            st = status[t]
            vals = value[t]
            yield {
                names[i]: conv[i](vals[i])
                for i in range(len(names))
                if st[i] == 1
            }

    def presence_count(self, i: int) -> int:
        return int((self._status[: self.count, i] == 1).sum())

    def max_value(self, i: int, default, conv):
        mask = self._status[: self.count, i] == 1
        if not mask.any():
            return default
        return conv(self._value[: self.count, i][mask].max())


class _ObjectLane:
    """One lane's record as materialized present-value row dicts."""

    backend = "object"

    def __init__(self, n_signals: int, hint: Optional[int]):
        self._rows: List[Dict[str, object]] = []

    @property
    def count(self) -> int:
        return len(self._rows)

    def record_row(self, row: Dict[str, object]) -> None:
        self._rows.append(row)

    def rows(self, names: Sequence[str], conv) -> Iterable[Dict[str, object]]:
        return iter(self._rows)

    def presence_count_by_name(self, name: str) -> int:
        return sum(1 for row in self._rows if name in row)

    def max_value_by_name(self, name: str, default):
        best = default
        seen = False
        for row in self._rows:
            if name in row:
                v = row[name]
                if not seen or v > best:
                    best = v
                    seen = True
        return best


class BatchReport:
    """The result of :func:`simulate_batch`.

    ``traces`` materializes one :class:`~repro.sim.trace.SimTrace` per
    lane, row-identical to what :func:`repro.sim.runner.simulate` would
    have produced for that lane alone.  The aggregation helpers
    (:meth:`max_values`, :meth:`presence_counts`) read the lane arrays
    directly — vectorized on the numpy backend — without building row
    dicts.
    """

    def __init__(self, plan, lanes, errors, elapsed, backend, conv, stats):
        self._plan = plan
        self._lanes = lanes
        self._conv = conv
        self.errors: Tuple[Optional[Tuple[str, str]], ...] = tuple(errors)
        self.elapsed = elapsed
        self.backend = backend
        self.stats: Dict[str, object] = stats
        self._traces: Optional[Tuple[SimTrace, ...]] = None

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def instants(self, lane: int) -> int:
        return self._lanes[lane].count

    @property
    def traces(self) -> Tuple[SimTrace, ...]:
        if self._traces is None:
            names = self._plan.names
            conv = self._conv
            out = []
            for k, lane in enumerate(self._lanes):
                trace = SimTrace()
                for row in lane.rows(names, conv):
                    trace.instants.append(row)
                trace.stats["instants"] = len(trace)
                trace.stats["lane"] = k
                out.append(trace)
            self._traces = tuple(out)
        return self._traces

    def max_values(self, name: str, default=0) -> List[object]:
        """Per lane, the maximum present value of ``name`` (``default``
        when the signal never occurs in that lane)."""
        i = self._plan.slot[name]
        conv = self._conv[i]
        out = []
        for lane in self._lanes:
            if lane.backend == "numpy":
                out.append(lane.max_value(i, default, conv))
            else:
                out.append(lane.max_value_by_name(name, default))
        return out

    def presence_counts(self, name: str) -> List[int]:
        """Per lane, how many instants ``name`` is present."""
        i = self._plan.slot[name]
        out = []
        for lane in self._lanes:
            if lane.backend == "numpy":
                out.append(lane.presence_count(i))
            else:
                out.append(lane.presence_count_by_name(name))
        return out

    def __repr__(self) -> str:
        return "BatchReport({} lanes, {} backend, {:.3f}s)".format(
            self.lanes, self.backend, self.elapsed
        )


def _converters(plan: ReactionPlan):
    """Per-slot ``(decode, exact-class)`` for the int64 lane encoding."""
    types = plan.component.signals()
    conv = []
    exact = []
    for name in plan.names:
        t = types[name]
        if t == INT:
            conv.append(int)
            exact.append(int)
        elif t in (BOOL, EVENT):
            conv.append(lambda v: bool(v))
            exact.append(bool)
        else:  # unknown/extension type: no numpy encoding guarantee
            conv.append(None)
            exact.append(None)
    return conv, exact


def _materialize_row(names, statuses, values) -> Dict[str, object]:
    return {
        names[i]: values[i] for i in range(len(names)) if statuses[i] == 1
    }


def simulate_batch(
    design: Union[Component, Program],
    stimuli: Iterable[Iterable[Mapping[str, object]]],
    n: Optional[int] = None,
    oracle: Union[Oracle, Sequence[Optional[Oracle]], None] = None,
    plan: Optional[ReactionPlan] = None,
    specialize: Optional[bool] = None,
    capture_errors: bool = False,
) -> BatchReport:
    """Run every stimulus in ``stimuli`` as an independent *lane* of one
    shared compiled plan.

    Each lane starts from the initial state and keeps its own instant
    index, so its trace is identical to a standalone
    :func:`~repro.sim.runner.simulate` run.  ``oracle`` is either one
    callable shared by all lanes (invoked with each lane's own instant
    index) or a sequence with one entry per lane.  ``plan`` overrides the
    process-wide :func:`~repro.sim.plan.shared_plan` cache lookup;
    ``specialize`` is forwarded to it (``None`` = specialize unless
    ``REPRO_NO_SPECIALIZE`` is set).

    With ``capture_errors`` a lane that raises
    :class:`~repro.errors.SimulationError` records ``(type name,
    message)`` in ``report.errors`` and stops, leaving the other lanes to
    finish; by default the error propagates exactly as ``simulate``'s
    would.
    """
    comp = flatten_program(design) if isinstance(design, Program) else design
    if plan is None:
        plan = shared_plan(comp, specialize=specialize)
    n_signals = plan.n_signals
    conv, exact = _converters(plan)
    use_numpy = numpy_available() and all(c is not None for c in conv)

    lane_stimuli = list(stimuli)
    if callable(oracle) or oracle is None:
        oracles: List[Optional[Oracle]] = [oracle] * len(lane_stimuli)
    else:
        oracles = list(oracle)
        if len(oracles) != len(lane_stimuli):
            raise ValueError(
                "need one oracle per lane: {} oracles for {} lanes".format(
                    len(oracles), len(lane_stimuli)
                )
            )

    base = plan.counters_snapshot()
    start = time.perf_counter()
    mode = "scalar"
    lanes: List[object] = []
    errors: List[Optional[Tuple[str, str]]] = []
    if (
        use_numpy
        and plan.kind == "plan"
        and len(lane_stimuli) >= VECTOR_MIN_LANES
        and all(o is None for o in oracles)
    ):
        # The cross-lane vector executor replaces per-lane closure sweeps
        # with one numpy sweep over all lanes; it pays off when the plan
        # is *not* specialized (REPRO_NO_SPECIALIZE, or a fallback from
        # codegen).  With generated code available, the memoized scalar
        # loop below is faster still, so it stays the default.
        from repro.sim.vector import VectorBail, vector_executor

        vx = vector_executor(plan, exact, _np)
        if vx is not None:
            # materialized rows make the batch restartable if the vector
            # path bails (wide values, non-canonical inputs, ...)
            rows_per_lane = [
                list(s) if n is None else list(itertools.islice(s, n))
                for s in lane_stimuli
            ]
            lanes = [_NumpyLane(n_signals, n, exact) for _ in rows_per_lane]
            errors = [None] * len(rows_per_lane)
            try:
                vx.run_batch(
                    rows_per_lane, capture_errors, lanes, errors, _LaneDemotion
                )
                mode = "vector"
            except VectorBail:
                lane_stimuli = [iter(rows) for rows in rows_per_lane]
                lanes = []
                errors = []
    memo_hits = 0
    if mode != "vector":
        lanes, errors, use_numpy, memo_hits = _run_scalar_lanes(
            plan, lane_stimuli, oracles, n, capture_errors, use_numpy, exact
        )
    elapsed = time.perf_counter() - start

    total = sum(lane.count for lane in lanes)
    delta = plan.counters_since(base)
    PERF.merge(delta, prefix="batch." + plan.kind)
    PERF.incr("batch.runs")
    PERF.incr("batch.lanes", len(lanes))
    PERF.incr("batch.instants", total)
    if mode == "vector":
        PERF.incr("batch.vector_runs")
    if memo_hits:
        PERF.incr("batch.memo_hits", memo_hits)
    PERF.add_time("sim.batch", elapsed)
    backend = "numpy" if use_numpy else "object"
    stats: Dict[str, object] = {
        "lanes": len(lanes),
        "instants": total,
        "elapsed": elapsed,
        "backend": backend,
        "mode": mode,
        "memo_hits": memo_hits,
    }
    stats.update(delta)
    return BatchReport(plan, lanes, errors, elapsed, backend, conv, stats)


def _run_scalar_lanes(
    plan, lane_stimuli, oracles, n, capture_errors, use_numpy, exact
):
    """The lane-major scalar loop (also the vector path's fallback).

    Lanes in a soak campaign are near-copies of each other — the same
    base schedule with per-lane jitter — so at any instant only a handful
    of distinct ``(state, inputs)`` pairs exist across the whole batch.
    A reaction is a pure function of that pair (:meth:`react_slots`
    builds fresh status/value/state lists and reads the instant index
    only through the oracle), so a run-wide memo shares one reaction
    across every lane that reaches the same pair.  Oracle-driven lanes
    and unhashable values fall through to a plain reaction.
    """
    names = plan.names
    n_signals = plan.n_signals
    conv, _ = _converters(plan)
    lanes: List[object] = []
    errors: List[Optional[Tuple[str, str]]] = []
    react_slots = plan.react_slots
    init_state = list(plan.init_state)
    memo: Dict[object, tuple] = {}
    memo_hits = 0
    for stimulus, lane_oracle in zip(lane_stimuli, oracles):
        lane = (
            _NumpyLane(n_signals, n, exact)
            if use_numpy
            else _ObjectLane(n_signals, n)
        )
        state = init_state[:]
        index = 0
        error = None
        rows = stimulus if n is None else itertools.islice(stimulus, n)
        for inputs in rows:
            try:
                hit = key = None
                if lane_oracle is None:
                    try:
                        items = sorted(inputs.items())
                        # classes are part of the key: ``1 == True`` but
                        # the two record differently, and recorded rows
                        # must stay byte-identical per lane
                        key = (
                            tuple(state),
                            tuple(v.__class__ for v in state),
                            tuple(items),
                            tuple(v.__class__ for _, v in items),
                        )
                        hit = memo.get(key)
                    except TypeError:  # unhashable state or input value
                        key = None
                if hit is not None:
                    statuses, values, state = hit
                    memo_hits += 1
                else:
                    statuses, values, state = react_slots(
                        inputs, state, lane_oracle, index, ABSENT
                    )
                    if key is not None and len(memo) < MEMO_CAP:
                        memo[key] = (statuses, values, state)
            except SimulationError as exc:
                if not capture_errors:
                    raise
                error = (type(exc).__name__, str(exc))
                break
            index += 1
            if lane.backend == "object":
                lane.record_row(_materialize_row(names, statuses, values))
            else:
                try:
                    lane.record(statuses, values)
                except _LaneDemotion:
                    # demote every lane (recorded data converts without
                    # re-running a single reaction) and re-record this
                    # instant on the object lane
                    use_numpy = False
                    lanes = [_demote(l, names, conv, n) for l in lanes]
                    lane = _demote(lane, names, conv, n)
                    lane.record_row(_materialize_row(names, statuses, values))
        lanes.append(lane)
        errors.append(error)
    return lanes, errors, use_numpy, memo_hits


def _demote(lane, names, conv, hint) -> _ObjectLane:
    """Convert a recorded numpy lane into an object lane in place."""
    if lane.backend == "object":
        return lane
    out = _ObjectLane(len(names), hint)
    for row in lane.rows(names, conv):
        out.record_row(row)
    return out


__all__ = [
    "BatchReport",
    "numpy_available",
    "simulate_batch",
]
