"""Speed gauges: two fixed pieces of work whose time tracks the machine's speed.

On a shared machine the speed of the cores drifts by a quarter or more over
tens of seconds as other tenants come and go, and interpreter-bound code
suffers more than numpy-bound code.  The benchmark therefore reads two
gauges between commands, one interpreter-bound (difflib, fractions and json
from the standard library), one numpy-bound (in-place uint64 hashing), and
scales each timing by the gauge that matches it.

The gauges run in the benchmark's own process, on the thread that ran the
command: a helper process tracked the drift worse (see README.md).  So that
the program's interpreter settings do not change the scale, a reading runs
with the garbage collector off and the default switch interval, and puts
back the program's settings after it.  A command that leaves Python threads
running is reported by the caller.

Set-up time is scaled by a third gauge: a fresh interpreter that imports a
fixed set of standard-library modules, the same kind of work (reading,
unmarshalling and initialising modules) as the program's own import.
"""

from __future__ import annotations

import difflib
import fractions
import gc
import json
import sys
import time

PY, NP = 0, 1  # gauge indices
#: gauge times on a shared 2-core x86 machine at the fast end of its drift
NOMINAL_S = (0.0021, 0.0012)
DEFAULT_SWITCH_INTERVAL_S = 0.005

#: run with ``python3 -E -c``; prints the seconds the imports took
IMPORT_GAUGE_CODE = """\
import time
t0 = time.perf_counter()
import argparse, asyncio, csv, decimal, email.mime.multipart, http.server, logging.handlers
import sqlite3, tarfile, unittest, xml.dom.minidom, zipfile
print(time.perf_counter() - t0)
"""
#: import gauge time on a shared 2-core x86 machine at the fast end of its drift
IMPORT_NOMINAL_S = 0.09

_LINES_A = [f"row {i} {i * i % 97} alpha beta" for i in range(120)]
_LINES_B = [f"row {i} {i * i % 89} alpha gamma" for i in range(120)]


def python_gauge() -> None:
    difflib.SequenceMatcher(None, _LINES_A, _LINES_B).ratio()
    total = fractions.Fraction(0)
    for i in range(1, 300):
        total += fractions.Fraction(1, i)
    json.loads(json.dumps({str(i): [i, i * 0.5, str(i)] for i in range(800)}))


def numpy_gauge():
    """The numpy gauge, with its arrays made once."""
    import numpy as np

    words = np.arange(175_000, dtype=np.uint64)
    shifted = np.empty_like(words)

    def gauge() -> None:
        # in place: fresh arrays would time the kernel's page faults, not the cores
        for _ in range(4):
            np.right_shift(words, np.uint64(29), out=shifted)
            np.bitwise_xor(words, shifted, out=words)
            np.multiply(words, np.uint64(0xBF58476D1CE4E5B9), out=words)

    return gauge


def read(gauges) -> list[float]:
    """Median seconds of five runs of each gauge."""
    collecting = gc.isenabled()
    interval = sys.getswitchinterval()
    # the gauges' garbage is freed by reference counting, so the collector's
    # settings and the number of objects the program keeps do not reach the
    # reading
    gc.disable()
    sys.setswitchinterval(DEFAULT_SWITCH_INTERVAL_S)
    try:
        # untimed passes first: the command evicted the gauges from the caches
        for _ in range(2):
            for gauge in gauges:
                gauge()
        times = [[] for _ in gauges]
        for _ in range(5):
            for gauge, out in zip(gauges, times):
                t0 = time.perf_counter()
                gauge()
                out.append(time.perf_counter() - t0)
    finally:
        sys.setswitchinterval(interval)
        if collecting:
            gc.enable()
    return [sorted(t)[2] for t in times]

