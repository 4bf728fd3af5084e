"""BENCHMARK.json, the counter labels and the run's exit behaviour agree."""

import os
import shutil
import subprocess
import sys

import run
from layers import EXACT_REPEAT

from conftest import BENCH

ROOT = os.path.dirname(BENCH)


def test_setup_has_the_largest_bound():
    spec = run.load_spec()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exact_repeat_counters_are_per_layer_metrics():
    names = {m["name"] for m in run.load_spec()["per_layer"]}
    assert set(EXACT_REPEAT) <= names


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
