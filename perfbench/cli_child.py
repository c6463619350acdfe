"""Run one marginseq command as the installed `marginseq` script does, with the
reference kernel timed in this interpreter before and after it.

The speed report goes to stderr.  The kernel needs numpy, which marginseq
imports anyway, so the interpreter's total work is unchanged.
Usage: cli_child.py ARGS...  (src/ on PYTHONPATH)
"""

import sys
import time

import reference

start = time.perf_counter()
before = reference.kernel_seconds()
cost = time.perf_counter() - start

from marginseq.cli import main  # noqa: E402

code = main(sys.argv[1:])
reference.report(before, cost)
sys.exit(code)
