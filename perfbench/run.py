#!/usr/bin/env python3
"""pdqkd benchmark: one closed-loop workload per run, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload protocol_50km --seed 1 --seconds 15 --trace 0

One process, one client: each CLI command runs in-process through
``pdqkd.cli.main(argv)`` with its output captured, and starts only after the
previous one returned.  Engine commands use at most two worker threads.  The
run repeats identical rounds (see ``workloads.py``) until ``--seconds`` have
passed, checks every command's output, and prints a report followed by one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``layers.py`` with ``--trace 1``.  A traced run wraps the program's
functions from outside; comparing its end-to-end report with an untraced
run's gives the tracing overhead.

Every end-to-end time is scaled against the machine's drift in speed: two
speed gauges (``gauge.py``) are read between commands, and each time is
multiplied by the matching gauge's nominal time over its mean reading just
before and just after the command.  The report prints the unscaled medians
beside the scaled ones, each kind of command's median change in the gauges,
and flags a kind after which a gauge reads differently from before it more
often than chance allows, or Python threads are still running.  ``setup_s``
is scaled by a third gauge, a fresh interpreter importing a fixed set of
standard-library modules, read just before each set-up.

Exit status: 0 when a result was printed, 2 when the program cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import gauge
from gauge import NOMINAL_S, NP, PY

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("protocol_50km", "event_log_roundtrip", "estimator_scan",
             "source_characterisation")
SETUP_REPEATS = 7

#: name -> (unit, better, op kind, gauge, per-op sample from (seconds, work))
END_TO_END = {
    "sim_mpulse_s_1w": ("Mpulse/s", "higher", "sim_1w", NP, lambda dt, n: n / dt / 1e6),
    "sim_mpulse_s_2w": ("Mpulse/s", "higher", "sim_2w", NP, lambda dt, n: n / dt / 1e6),
    "log_write_krows_s": ("krow/s", "higher", "log_write", PY, lambda dt, n: n / dt / 1e3),
    "log_read_krows_s": ("krow/s", "higher", "log_read", PY, lambda dt, n: n / dt / 1e3),
    "fig4_ms": ("ms", "lower", "fig4", PY, lambda dt, n: dt * 1e3),
    "estimate_ms": ("ms", "lower", "estimate", PY, lambda dt, n: dt * 1e3),
    "hbt_mpulse_s": ("Mpulse/s", "higher", "hbt", NP, lambda dt, n: n / dt / 1e6),
    "car_mpulse_s": ("Mpulse/s", "higher", "car", NP, lambda dt, n: n / dt / 1e6),
}

# times the import and config load in a fresh process
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pdqkd.cli
pdqkd.cli.load_manifest(sys.argv[2] or None, sys.argv[3:])
print(time.perf_counter() - t0)
"""


class Record(NamedTuple):
    """One timed command."""

    index: int
    kind: str
    probe: bool
    seconds: float
    scales: tuple[float, float]  # nominal gauge time over the mean reading around it
    drift: tuple[float, float]  # gauge reading after the command over the one before
    work: float
    failure: str | None


def _load_program():
    if not (SRC / "pdqkd" / "__init__.py").is_file():
        raise ImportError(f"no pdqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdqkd
    import pdqkd.cli
    if Path(pdqkd.__file__).resolve().parent != (SRC / "pdqkd").resolve():
        raise ImportError(f"pdqkd was imported from {pdqkd.__file__}, not from {SRC}")
    return pdqkd


def _child_seconds(code: str, *args: str) -> float:
    """Run ``code`` in a fresh interpreter and return the seconds it prints."""
    proc = subprocess.run([sys.executable, "-E", "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def measure_setup(workload: str, failures: list) -> list[tuple[float, float]]:
    """Fresh-interpreter times to import ``pdqkd.cli`` and load the workload's config,
    each with the import gauge's scale read just before it."""
    from workloads import SETUP_CONFIG
    config, overrides = SETUP_CONFIG[workload]
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            reading = _child_seconds(gauge.IMPORT_GAUGE_CODE)
            elapsed = _child_seconds(SETUP_CODE, str(SRC), config, *overrides)
        except (RuntimeError, ValueError) as exc:
            failures.append(f"setup: {exc}")
            continue
        samples.append((elapsed, gauge.IMPORT_NOMINAL_S / reading))
    return samples


def run_op(cli, op, tracer, index: int) -> tuple[float, str | None]:
    """Run one command and check its output.

    Returns the command's wall time and a failure message or None.
    """
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = index
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception:
        # a crash is a failed op; the run goes on and reports it
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
    if code != 0:
        return dt, f"{op.argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
    if op.check is None:
        return dt, None
    try:
        return dt, op.check(out.getvalue())
    except (ValueError, OSError, ArithmeticError) as exc:
        return dt, f"{op.kind} output check could not read the output: {exc}"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def provenance(seed: int) -> dict:
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cache": _cache_sizes()}


def _summary(values, better: str) -> tuple[float, float]:
    """Median and the slow-side 90th percentile (the 10th for a rate)."""
    if not values:
        return 0.0, 0.0
    tail = 10 if better == "higher" else 90
    return float(np.median(values)), float(np.percentile(values, tail))


def _sign_test(ups: int, n: int) -> float:
    """Two-sided p-value of ``ups`` rises in ``n`` changes that rise or fall at even odds."""
    tail = sum(math.comb(n, k) for k in range(min(ups, n - ups) + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def _drift_report(records) -> list[str]:
    """How the gauges change across each kind of command, and flags.

    A command that leaves work running after it returns (a writer thread,
    the kernel writing back its files) slows the reading after it, and so
    inflates its own scale.  The machine's own drift moves a gauge up as
    often as down across a command; a kind across whose commands a gauge
    moves one way so often that a sign test gives p < 0.001 is flagged.
    That takes at least 11 commands.
    """
    changes = {}
    for r in records:
        changes.setdefault(r.kind, []).append(r.drift)
    medians = {kind: [float(np.median([d[g] for d in ds])) - 1.0 for g in (PY, NP)]
               for kind, ds in changes.items()}
    lines = ["  gauge change across a command, median (interpreter, numpy): " + ", ".join(
        f"{kind} {py:+.1%} {np_:+.1%}" for kind, (py, np_) in medians.items())]
    for g, label in ((PY, "interpreter"), (NP, "numpy")):
        for kind, ds in changes.items():
            ups = sum(d[g] > 1.0 for d in ds)
            p = _sign_test(ups, len(ds))
            if p < 0.001:
                way = "slower" if 2 * ups > len(ds) else "faster"
                lines.append(f"  flag: the {label} gauge reads {way} after {kind} than before "
                             f"it in {max(ups, len(ds) - ups)} of {len(ds)} commands "
                             f"(sign test p = {p:.1g})")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, list]:
    """One benchmark run; returns the result object and the report lines."""
    import layers
    import workloads
    from tracer import Tracer

    cli = sys.modules["pdqkd.cli"]
    sizes = sizes or workloads.FULL
    failures: list[str] = []
    setup = [] if trace else measure_setup(workload, failures)
    setup_attempts = 0 if trace else SETUP_REPEATS
    records: list[Record] = []
    rounds = 0
    peak_rss_mb = 0.0
    tracer = Tracer(layers.TARGETS) if trace else None
    gauges = [gauge.python_gauge, gauge.numpy_gauge()]
    gauge.read(gauges)  # the first reading pays one-off costs
    threads_left = {}  # command kind -> most Python threads still running after it
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        warm = Path(tmp) / "warmup"
        warm.mkdir()
        for op in workloads.round_ops(workload, warm, seed, workloads.WARMUP):
            run_op(cli, replace(op, check=None), None, -1)  # untimed: fills lazy state
        once = workloads.once_ops(workload, Path(tmp), seed)
        for op in once:
            _, failure = run_op(cli, op, None, -1)
            if failure is not None:
                failures.append(failure)
        ops = workloads.round_ops(workload, Path(tmp), seed, sizes)
        if tracer is not None:
            tracer.install()
        try:
            # output checks do not use up the measured time
            checking = 0.0
            start = time.perf_counter()
            before = gauge.read(gauges)
            while rounds == 0 or time.perf_counter() - start - checking < seconds:
                for op in ops:
                    index = len(records)
                    t0 = time.perf_counter()
                    dt, failure = run_op(cli, op, tracer, index)
                    checking += time.perf_counter() - t0 - dt
                    if threading.active_count() > 1:
                        threads_left[op.kind] = max(threads_left.get(op.kind, 0),
                                                    threading.active_count() - 1)
                    after = gauge.read(gauges)
                    records.append(Record(
                        index, op.kind, op.probe, dt,
                        tuple(2.0 * n / (b + a) for n, b, a in zip(NOMINAL_S, before, after)),
                        tuple(a / b for b, a in zip(before, after)), op.work, failure))
                    before = after
                if rounds == 0:
                    # later rounds repeat the first, so their peak is the first one's;
                    # only heap fragmentation could raise it, more with more rounds
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                rounds += 1
        finally:
            if tracer is not None:
                tracer.uninstall()

    failures += [r.failure for r in records if r.failure is not None]
    lines = [f"workload {workload}: {rounds} rounds, {len(records)} commands, "
             f"{len(failures)} failed"]
    timed = {"setup_s": ("s", "lower", PY, lambda dt, n: dt,
                         [(t, (scale, scale), 0) for t, scale in setup])}
    for name, (unit, better, kind, g, sample) in END_TO_END.items():
        timed[name] = (unit, better, g, sample,
                       [(r.seconds, r.scales, r.work) for r in records
                        if r.kind == kind and r.failure is None])
    e2e = {}
    for name, (unit, better, g, sample, samples) in timed.items():
        med, tail = _summary([sample(dt * s[g], n) for dt, s, n in samples], better)
        raw, _ = _summary([sample(dt, n) for dt, _, n in samples], better)
        e2e[name] = med
        if samples:
            lines.append(f"  {name:<18} median {med:.4g} {unit}  "
                         f"{'p10' if better == 'higher' else 'p90'} {tail:.4g}  "
                         f"n={len(samples)}  (unscaled median {raw:.4g})")
    e2e["peak_rss_mb"] = peak_rss_mb
    lines.append(f"  peak_rss_mb        {peak_rss_mb:.1f} MiB (after the first round)")
    lines += _drift_report(records)
    lines += [f"  flag: {n} Python threads were still running after {kind}, "
              "and ran beside the gauge reading" for kind, n in threads_left.items()]

    if trace:
        values, from_probes = layers.per_layer_metrics(
            tracer.spans, rounds, own_ops={r.index for r in records if not r.probe},
            fig4_ops={r.index for r in records if r.kind == "fig4"})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
        lines += [f"  {name:<38} {values[name]:.6g} {unit}"
                  + ("  (from the probes)" if name in from_probes else "")
                  for name, (unit, _) in layers.PER_LAYER.items()]
        lines += [f"  absent from the program: {name}" for name in tracer.absent]
    else:
        units = {name: spec[0] for name, spec in timed.items()}
        units["peak_rss_mb"] = "MiB"
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    lines += [f"  failed: {f}" for f in failures[:10]]
    result = {"correct": not failures,
              "attempted": len(records) + len(once) + setup_attempts,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
