"""Traced stand-in for ``python -m wordpower``.

    python3 perfbench/cli_child.py REPORT ARGS...

Runs the wordpower CLI on ARGS in this fresh interpreter, exits with its
exit code, and writes to REPORT the perf_counter interval of the import
of ``wordpower.cli`` and of ``main``.  perf_counter is the system-wide
monotonic clock on Linux, so the parent can place both intervals inside
its own span of the process.
"""

import sys
import time

started = time.perf_counter()
from wordpower import cli  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse reports usage errors this way
    code = exc.code
finished = time.perf_counter()
sys.stdout.flush()

import json  # noqa: E402

with open(sys.argv[1], "w", encoding="ascii") as handle:
    json.dump({"import": [started, imported], "main": [imported, finished]}, handle)
sys.exit(code)
