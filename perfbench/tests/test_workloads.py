"""Workload inputs are seeded, and the deterministic counters repeat
exactly across two runs with the same seed."""

import json
import os
import subprocess
import sys

import pytest

import methodology
from layers import EXACT_REPEAT

from conftest import BENCH

ROOT = os.path.dirname(BENCH)


def test_methodology_draw_is_seeded_and_balanced():
    a, b = methodology.generate(5), methodology.generate(5)
    assert [(d.label, d.env_seeds) for d in a] == [(d.label, d.env_seeds) for d in b]
    other = methodology.generate(6)
    assert [d.label for d in a] != [d.label for d in other]
    # the seed orders the draw; each design's environments follow its label
    assert sorted((d.label, d.env_seeds) for d in a) == \
        sorted((d.label, d.env_seeds) for d in other)
    families = [d.family for d in a]
    assert sorted(set(families)) == sorted(n for n, _ in methodology.FAMILIES)
    assert len({families.count(f) for f in families}) == 1


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["methodology", "explore"])
def test_counters_repeat_exactly(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert {k: first[k] for k in EXACT_REPEAT} == {k: second[k] for k in EXACT_REPEAT}
    assert first["trace.coverage"] >= 0.95
