"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {methodology,explore} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
with tracing off.  ``--trace 1`` runs a fixed amount of work twice,
untraced and then traced, and reports the per-layer metrics, a stage
table, the tracing overhead and a Chrome trace-event file under
``perfbench/out/``.  The workloads and the metric names and units are
those of ``BENCHMARK.json`` at the root.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; every run also appends a record to
``perfbench/out/trajectory.jsonl``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import REFERENCE_S  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR, OUT, ROOT, SRC, STORE_ENV, Metric, Outcome, append_record,
    peak_rss_mb, result_line,
)

#: fresh set-ups per run; setup_s is their median
SETUP_REPEATS = 11


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Speed-scaled CPU seconds a fresh interpreter spends importing the
    workload's layers and generating its inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed)],
        check=True, capture_output=True, text=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def traced(args, module, inputs, outcome, record):
    """The traced run: every per-layer metric the workload reaches, the
    stage table, the tracing overhead and the Chrome trace."""
    wall, untraced, tracer, values = module.run_traced(inputs, outcome)
    table = tracer.stage_table()
    overhead = wall - untraced
    values.update({
        "trace.wall_s": wall,
        "trace.coverage": table.coverage,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced if untraced else 0.0,
    })
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(
        OUT, "trace-{}-seed{}.json".format(args.workload, args.seed))
    tracer.write_chrome_trace(trace_path, {
        "workload": args.workload, "seed": args.seed})
    print("stage table ({}, seed {}, traced pass):".format(
        args.workload, args.seed))
    print(table.render(overhead))
    print("chrome trace: {}".format(os.path.relpath(trace_path)))
    record["stage_table"] = [list(row) for row in table.rows]
    record["trace_file"] = os.path.relpath(trace_path, BENCH_DIR)
    return values


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: the program's sources are missing ({})".format(SRC),
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.path.insert(1, SRC)
    # the workloads run cold: no disk store of compiled LTSs or fixpoints
    os.environ.pop(STORE_ENV, None)

    setup_s = statistics.median(
        probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS))
    module = importlib.import_module(args.workload)
    inputs = module.generate(args.seed)
    outcome = Outcome()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "traced": bool(args.trace)}
    if args.trace:
        values = traced(args, module, inputs, outcome, record)
        wanted = spec["per_layer"]
    else:
        meter, values = module.run_timed(inputs, args.seconds, outcome)
        record.update(cpu_s=meter.raw_s, speed=meter.speed,
                      kernel_samples=len(meter.kernel_s))
        print("CPU {:.3f} s unscaled; kernel median {:.4g} ms over {} samples "
              "(speed factor {:.3f})".format(
                  meter.raw_s, 1e3 * meter.speed * REFERENCE_S,
                  len(meter.kernel_s), meter.speed))
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                      ok_share=1.0 - outcome.failed_share)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError("metrics outside BENCHMARK.json: {}".format(sorted(unknown)))
    if args.trace:
        # a layer the workload does not reach reports 0 (see the README)
        values = {name: values.get(name, 0) for name in names}
    metrics = {m["name"]: Metric(values[m["name"]], m["unit"]) for m in wanted}
    record.update({
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_share": outcome.failed_share,
        "failures": outcome.reasons,
        "metrics": {k: m.value for k, m in metrics.items()},
    })
    append_record(record)
    for reason in outcome.reasons:
        print("FAILED: {}".format(reason), file=sys.stderr)
    for name, m in metrics.items():
        print("{:<36} {:>16.6g} {}".format(name, m.value, m.unit))
    print("failed_share {:.6f} ({} of {} operations)".format(
        outcome.failed_share, outcome.failed, outcome.attempted))
    print(result_line(outcome, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
