"""Set-up probe: import one workload's layers and generate its inputs.

``python3 perfbench/probe.py <workload> <seed>`` prints the speed-scaled
CPU seconds of that set-up (see ``calibrate``); ``run.py`` runs it in
fresh interpreters to measure set-up (``setup_s``).
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from calibrate import Speedometer  # noqa: E402

if __name__ == "__main__":
    def setup():
        importlib.import_module(sys.argv[1]).generate(int(sys.argv[2]))
    with Speedometer() as meter:
        _, seconds = meter.measure(setup)
    print(repr(seconds))
