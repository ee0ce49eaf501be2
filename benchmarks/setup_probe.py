"""Set-up probe: import the package and write a workload's first pass of inputs.

Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED OUT_DIR
Prints the seconds from interpreter start-up to inputs written.  The
benchmark runs it in fresh processes so that every probe pays the import.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[name].make_pass(seed, 0, out)
print(time.perf_counter() - T0)
