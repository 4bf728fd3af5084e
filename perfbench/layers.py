"""Per-layer counters: the window they are read from, the ``sim.*``
numbers both workloads share, and the counters that must repeat exactly.

Times are span self times measured by the benchmark unless the README
says they come from the program's ``PERF`` registry.
"""

from __future__ import annotations

from typing import Dict

from repro.perf import PERF
from repro.sim.plan import plan_cache_stats

from common import ratio

#: counters two runs with the same seed must reproduce exactly
EXACT_REPEAT = (
    "sim.reactions", "sim.plan_cache_misses", "sim.memo_hits",
    "desync.estimate_iterations", "mc.states", "mc.reactions",
    "mc.bdd_peak_nodes", "mc.symbolic_iterations",
)


class CounterWindow:
    """Deltas of ``PERF`` (counters and ``time.*`` phases) and of
    :func:`plan_cache_stats` between :meth:`open` and :meth:`close`."""

    def open(self) -> "CounterWindow":
        self._counts, self._times = PERF.dump()
        self._plans = plan_cache_stats()
        return self

    def close(self) -> Dict[str, float]:
        counts, times = PERF.dump()
        plans = plan_cache_stats()
        out: Dict[str, float] = {}
        for now, then in ((counts, self._counts), (times, self._times)):
            for key, value in now.items():
                out[key] = value - then.get(key, 0)
        for key in ("hits", "misses"):
            out["plan." + key] = plans[key] - self._plans[key]
        return out


def sim_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    """The ``sim.*`` counters of a :class:`CounterWindow` delta (the
    benchmark's own ``sim.codegen_s`` span is added by the workload)."""
    reactions = sum(
        v for k, v in delta.items()
        if k.startswith(("sim.", "batch.")) and k.endswith(".reactions")
    )
    batch_s = delta.get("time.sim.batch", 0.0)
    lanes = delta.get("batch.instants", 0)
    memo = delta.get("batch.memo_hits", 0)
    return {
        "sim.plan_cache_misses": delta["plan.misses"],
        "sim.plan_cache_hits": delta["plan.hits"],
        "sim.batch_s": batch_s,
        "sim.reactions": reactions,
        "sim.reactions_per_s": ratio(reactions, batch_s),
        "sim.memo_hits": memo,
        "sim.memo_hit_ratio": ratio(memo, lanes),
        "sim.memo_lookups": lanes,
    }
