"""One cold set-up of a workload, for `setup_s`.

    python3 perfbench/coldsetup.py WORKLOAD SEED [--smoke]

Runs in a fresh interpreter, so gkmc's dependencies load cold along with
gkmc itself.  The clock starts before anything but `time` is imported
and stops when the first query's input is ready: the import of gkmc,
the workload's construction and the making of query 0 (with its oracle
answer, where it has one).  Prints the seconds.
"""

import time

_t0 = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter's start-up)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gkmc  # noqa: E402,F401
import layertrace  # noqa: E402  (this directory is sys.path[0] when run as a script)
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](layertrace.layer_namespace(), int(sys.argv[2]), "--smoke" in sys.argv[3:])
workload.input(0)
print(time.perf_counter() - _t0)
