"""Spans recorded by the benchmark around its calls into each layer.

A :class:`Tracer` keeps every span in memory and writes nothing until the
run ends.  A span has a name, a start and an end, the span that was open
when it began (its parent, per thread) and a request id (the design or
obligation it served), inherited from the parent when not given.

From the spans the benchmark derives each layer's *self time*: a span's
duration minus the part of its interval its children cover.  Span names
are ``<layer>.<step>`` (``lang.parse``, ``mc.explicit``); a name without
a dot (``design``, ``pass``, ``task``) only groups the work of one request,
so its self time is glue the table reports as unattributed.  ``bench.*``
spans time the benchmark's own work (oracles, cache resets): they count
toward the traced time but are not a layer of the program.

A disabled tracer records nothing and costs one attribute test per span,
so the untraced runs that give the end-to-end numbers share the code.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (thread-safe; nesting is per thread)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._rids: Dict[int, Optional[str]] = {}
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = _current.get()
        with self._lock:
            sid = next(self._ids)
            if rid is None and parent is not None:
                rid = self._rids.get(parent)
            self._rids[sid] = rid
        token = _current.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            with self._lock:
                self.spans.append(Span(
                    sid, name, start, end, parent, rid, threading.get_ident()
                ))

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the union of its children's
        intervals."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.sid] = s.duration - covered
        return out

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per span name."""
        own = self.self_times()
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + own[s.sid]
        return out

    def stage_table(self) -> "StageTable":
        """Per-name count, total and self time, and the share of the
        traced threads' time that layer spans (every dotted name except
        ``bench.*``) account for by self time.  A thread's time runs from its first span's
        start to its last span's end, so concurrent clients are not
        counted twice."""
        own = self.self_times()
        rows: Dict[str, List[float]] = {}
        bounds: Dict[int, List[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += own[s.sid]
            b = bounds.setdefault(s.thread, [s.start, s.end])
            b[0], b[1] = min(b[0], s.start), max(b[1], s.end)
        busy = sum(hi - lo for lo, hi in bounds.values())
        attributed = sum(row[2] for name, row in rows.items()
                         if "." in name and not name.startswith("bench."))
        return StageTable(
            [(name, int(r[0]), r[1], r[2]) for name, r in sorted(rows.items())],
            busy,
            len(bounds),
            attributed / busy if busy > 0 else 0.0,
        )

    def write_chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        """Chrome trace-event JSON (complete ``X`` events, microseconds);
        Perfetto and ``chrome://tracing`` open it as a plain file."""
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": os.getpid(),
                "tid": tid,
                "args": {"id": s.sid, "parent": s.parent, "rid": s.rid},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": metadata},
                fh,
            )


class StageTable(NamedTuple):
    rows: List[tuple]          # (name, count, total_s, self_s)
    thread_seconds: float      # summed over the traced threads
    threads: int
    coverage: float            # share of thread_seconds in layer self time

    def render(self, overhead: Optional[float] = None) -> str:
        lines = ["{:<26} {:>7} {:>10} {:>10} {:>7}".format(
            "span", "count", "total_s", "self_s", "self%")]
        for name, count, total, own in sorted(self.rows, key=lambda r: -r[3]):
            share = 100.0 * own / self.thread_seconds if self.thread_seconds else 0.0
            lines.append("{:<26} {:>7} {:>10.4f} {:>10.4f} {:>6.1f}%".format(
                name, count, total, own, share))
        lines.append(
            "{:.4f} s traced on {} thread(s); layer spans cover {:.1f}% of it"
            .format(self.thread_seconds, self.threads, 100.0 * self.coverage))
        if overhead is not None:
            lines.append(
                "tracing overhead (traced - untraced wall): {:+.4f} s".format(
                    overhead))
        return "\n".join(lines)
