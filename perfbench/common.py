"""Shared pieces of the benchmark: statistics, the run result, the
appended result record and the machine fingerprint."""

from __future__ import annotations

import datetime
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

#: the environment variable that points the program at a disk store; the
#: in-process workloads run without one so every run starts cold
STORE_ENV = "REPRO_MC_STORE"


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail_mean(values: Sequence[float], share: float = 0.25) -> float:
    """The mean of the slowest ``share`` of the values (at least one).

    Unlike a percentile it does not jump when noise reorders two items
    on either side of a gap in the distribution."""
    k = max(1, math.ceil(len(values) * share))
    return statistics.fmean(sorted(values)[-k:])


def ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operations attempted and failed, with the first few reasons.

    A failure is an operation that raised or an answer that disagrees
    with the workload's independent oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        """Count one operation; a false ``condition`` is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(reason)

    @property
    def failed_share(self) -> float:
        return ratio(self.failed, self.attempted)


class Metric(NamedTuple):
    value: float
    unit: str


def result_line(outcome: Outcome, metrics: Dict[str, Metric]) -> str:
    """The last line the benchmark prints."""
    return json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in metrics.items()
        },
    })


# -- provenance ---------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes: names the
    measured code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "platform": platform.platform(),
    }


def append_record(record: Dict[str, object]) -> str:
    """Append one JSON line to ``out/trajectory.jsonl`` (never rewritten)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trajectory.jsonl")
    record = dict(record)
    record.setdefault(
        "time", datetime.datetime.now(datetime.timezone.utc).isoformat())
    record.setdefault("commit", git_commit())
    record.setdefault("source_sha256", source_digest())
    record.setdefault("machine", machine())
    record.setdefault("argv", sys.argv[1:])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path
