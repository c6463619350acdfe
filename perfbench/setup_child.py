"""Print the seconds a fresh interpreter takes to import marginseq and build one
workload's inputs.  Usage: setup_child.py WORKLOAD SEED  (src/ on PYTHONPATH)."""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports marginseq; part of what is timed)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - start)
