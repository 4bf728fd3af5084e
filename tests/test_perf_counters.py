"""PerfCounters under concurrent updates: every increment, merge and
phase time lands exactly once."""

import threading

from repro.perf import PerfCounters


def _hammer(n_threads, work):
    """Run ``work`` on ``n_threads`` threads released together."""
    start = threading.Barrier(n_threads)

    def run():
        start.wait()
        work()

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_incr_exact_under_threads():
    perf = PerfCounters()

    def work():
        for _ in range(200_000):
            perf.incr("hits")

    _hammer(4, work)
    assert perf.get("hits") == 800_000


def test_merge_and_add_time_exact_under_threads():
    perf = PerfCounters()

    def work():
        for _ in range(10_000):
            perf.merge({"reactions": 3, "sweeps": 1}, "sim")
            perf.add_time("phase", 0.5)

    _hammer(4, work)
    assert perf.get("sim.reactions") == 120_000
    assert perf.get("sim.sweeps") == 40_000
    # halves add exactly in binary floating point
    assert perf.get_time("phase") == 20_000.0


def test_reset_and_restore_keep_counting():
    perf = PerfCounters()
    perf.incr("a", 2)
    state = perf.dump()
    perf.reset()
    assert perf.get("a") == 0
    perf.restore(state)
    perf.incr("a")
    assert perf.get("a") == 3
