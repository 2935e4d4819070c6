"""The four closed-loop workloads: the CLI commands of one round and their output checks.

Every workload repeats identical rounds: the same commands on the same inputs,
all derived from the run's seed, each command started after the previous one
returned.  A round runs the workload's own command family at full size, then
every other family twice at a reduced size (a probe), so that every run
reports every end-to-end metric.  Probes come after the workload's own
commands and are small, so they leave its own timings alone.

Families and why each workload exists:

- ``sim``: ``simulate`` at paper50km with 1 and 2 workers, then ``estimate``
  on the tally.  The paper's production path; the counter RNG dominates it.
  The pulse count is a multiple of 2 x the preset's 4e6 batch, so with two
  workers no lone leftover batch sets the wall time.
- ``log``: ``simulate --events`` at paper0km writes a per-pulse CSV log,
  ``estimate --events`` reads it back.  Dominated by per-row Python loops in
  ``dataio``, and the only path that draws three per-click variates for
  every pulse.
- ``scan``: ``reproduce fig4`` and ``estimate`` on each preset's published
  rates.  The closed-form path; it never reaches the engine or the RNG, so an
  engine change predicts no change in its timings.
- ``source``: ``hbt`` on a single-mode thermal source and ``car`` at the
  mean-pair-number inversion point, both with one worker.  Each has its own
  batch code in the engine.

Statistical checks are sized to hold: criterion 4's pulls use the exact
binomial tail (a handful of T-branch errors at 8e6 pulses is far from
normal), and the ``car`` inversion is checked within 5 % of 0.1 only from
4e7 pulses on.  The first-order inversion reads 0.1018 there on average, and
4e7 pulses put the band's near edge 3.6 standard deviations away.  A timed
``car`` runs 1e7 pulses, so ``source_characterisation`` makes that check on
one more ``car`` of 4e7 pulses, run once before the rounds with two workers
and not timed.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from scipy.stats import binom, norm

from pdqkd import dataio, link_model
from pdqkd.presets import preset_manifest

#: published Q_N, Q_T, E_N, E_T and final key length of each reference run
PUBLISHED = {
    "paper0km": (2.13e-4, 2.21e-5, 0.0212, 0.0197, 2.53e6),
    "paper25km": (1.02e-4, 1.02e-5, 0.0315, 0.0281, 8.05e5),
    "paper50km": (2.43e-5, 2.50e-6, 0.0399, 0.0306, 8.98e4),
}
#: exact click-level g2(0) of the thermal source at detector efficiency 0.15
G2_CLICK_LEVEL = 1.9852
CAR_CHECK_PULSES = 40_000_000
FIG4_ROWS = 351

FAMILY = {
    "protocol_50km": "sim",
    "event_log_roundtrip": "log",
    "estimator_scan": "scan",
    "source_characterisation": "source",
}

#: config and overrides each workload loads; ``setup_s`` times this load
SETUP_CONFIG = {
    "protocol_50km": ("paper50km", []),
    "event_log_roundtrip": ("paper0km", []),
    "estimator_scan": ("paper50km", []),
    "source_characterisation": ("", ["mu0=0.1", "eta_a=0"]),
}


@dataclass(frozen=True)
class Sizes:
    """Command sizes: a workload's own family runs at full size, the others as probes."""

    sim_pulses: int = 8_000_000
    sim_batch: int | None = None  # None keeps the preset's batch size
    log_rows: int = 250_000
    scan_reps: int = 25
    hbt_pulses: int = 10_000_000
    car_pulses: int = 10_000_000
    probe_pulses: int = 2_000_000
    probe_batch: int = 1_000_000
    probe_rows: int = 50_000
    probe_source_pulses: int = 500_000


FULL = Sizes()
WARMUP = Sizes(sim_pulses=20_000, sim_batch=10_000, log_rows=1_000, scan_reps=1,
               hbt_pulses=10_000, car_pulses=10_000, probe_pulses=20_000,
               probe_batch=10_000, probe_rows=1_000, probe_source_pulses=10_000)


@dataclass(frozen=True)
class Op:
    """One CLI command: ``kind`` names the metric it feeds, ``work`` its pulses or rows."""

    kind: str
    argv: list
    work: float = 0.0
    check: Callable[[str], str | None] | None = None  # stdout -> failure or None
    probe: bool = False  # a reduced-size command of another workload's family


def _field(stdout: str, label: str) -> str:
    match = re.search(rf"^{re.escape(label)}\s*:\s*(.*)$", stdout, re.M)
    if match is None:
        raise ValueError(f"no '{label}' line in the output")
    return match.group(1)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def exact_pull(k: int, n: int, p: float) -> float:
    """Standard deviations equivalent to the exact two-sided binomial tail of k in n."""
    if n == 0:
        return 0.0
    tail = min(binom.cdf(k, n, p), binom.sf(k - 1, n, p), 0.5)
    return float(norm.isf(tail))


class _Families:
    def __init__(self, work_dir: Path, seed: int):
        self.dir = work_dir
        self.seed = seed

    def sim(self, pulses: int, batch: int | None) -> list[Op]:
        argv = ["simulate", "--config", "paper50km", "--pulses", str(pulses),
                "--seed", str(self.seed)]
        if batch is not None:
            argv += ["--set", f"batch_size={batch}"]
        one, two = self.dir / "sim_1w.tally", self.dir / "sim_2w.tally"
        manifest = preset_manifest("paper50km")
        source, link = manifest.to_source_params(), manifest.to_link_params()
        model = link_model.gains_analytic(source, link)
        p_trigger = 1.0 - (1.0 - source.y0_alice) * math.exp(-source.mu0 * source.eta_a)

        def check_pulls(stdout):
            t = dataio.read_tally(one)
            if t.n_pulses != pulses:
                return f"tally holds {t.n_pulses} pulses, expected {pulses}"
            pulls = {
                "Q_N": exact_pull(t.detections_n, t.n_pulses, model.q_n),
                "Q_T": exact_pull(t.detections_t, t.n_pulses, model.q_t),
                "E_N": exact_pull(t.err_n, t.det_n_match, model.e_n),
                "E_T": exact_pull(t.err_t, t.det_t_match, model.e_t),
                "trigger": exact_pull(t.n_triggers, t.n_pulses, p_trigger),
            }
            over = {k: round(v, 2) for k, v in pulls.items() if v >= 4.0}
            return f"pulls against gains_analytic over 4 sigma: {over}" if over else None

        def check_identical(stdout):
            if two.read_bytes() != one.read_bytes():
                return "tally differs between --workers 1 and --workers 2"
            return None

        def check_estimate(stdout):
            _field(stdout, "key length")
            return None

        return [
            Op("sim_1w", argv + ["--workers", "1", "--out", str(one)], pulses, check_pulls),
            Op("sim_2w", argv + ["--workers", "2", "--out", str(two)], pulses, check_identical),
            Op("estimate_tally", ["estimate", "--config", "paper50km", "--tally", str(one)],
               check=check_estimate),
        ]

    def log(self, rows: int, reps: int = 1) -> list[Op]:
        tally, log = self.dir / "log.tally", self.dir / "log.csv"
        verified = {}

        def check_log(stdout):
            digests = (_sha(log), _sha(tally))
            if verified:
                # rounds repeat the same inputs, so the bytes must repeat too
                if digests != verified["digests"]:
                    return "event log or tally differs from the verified first round"
                return None
            expected = dataio.read_tally(tally)
            if expected.n_pulses != rows:
                return f"tally holds {expected.n_pulses} pulses, expected {rows}"
            if dataio.tally_from_events(dataio.read_events(log)) != expected:
                return "tally_from_events(read_events(log)) differs from the --out tally"
            verified["digests"] = digests
            return None

        def check_read(stdout):
            _field(stdout, "key length")
            return None

        return [
            Op("log_write", ["simulate", "--config", "paper0km", "--pulses", str(rows),
                             "--seed", str(self.seed), "--out", str(tally),
                             "--events", str(log)], rows, check_log),
            Op("log_read", ["estimate", "--config", "paper0km", "--events", str(log)],
               rows, check_read),
        ] * reps

    def scan(self, reps: int) -> list[Op]:
        csv, again = self.dir / "fig4.csv", self.dir / "fig4_again.csv"

        def check_fig4(stdout):
            cutoff = float(_field(stdout, "R_N reaches 0").split()[0])
            if not 31.2 <= cutoff <= 32.2:
                return f"R_N cutoff {cutoff} dB outside 31.2-32.2 dB"
            rows = dataio.read_results(csv)
            dataio.write_results(rows, again)
            if len(rows) != FIG4_ROWS or again.read_bytes() != csv.read_bytes():
                return "fig4 rows do not round-trip through read_results"
            return None

        def estimate_op(name):
            q_n, q_t, e_n, e_t, key_published = PUBLISHED[name]

            def check_key(stdout):
                ratio = float(_field(stdout, "key length").split()[0]) / key_published
                if not 0.5 <= ratio <= 1.5:
                    return f"{name}: key total {ratio:.2f}x the published one"
                return None

            return Op("estimate", ["estimate", "--config", name, "--q-n", repr(q_n),
                                   "--q-t", repr(q_t), "--e-n", repr(e_n),
                                   "--e-t", repr(e_t)], check=check_key)

        presets = sorted(PUBLISHED)
        random.Random(self.seed).shuffle(presets)
        ops = []
        for _ in range(reps):
            ops.append(Op("fig4", ["reproduce", "fig4", "--out", str(csv)], check=check_fig4))
            ops.extend(estimate_op(name) for name in presets)
        return ops

    def car(self, pulses: int, workers: int = 1) -> Op:
        def check_car(stdout):
            mu0 = float(_field(stdout, "mu0 (inverted)"))  # printed unless CAR <= 1
            if pulses >= CAR_CHECK_PULSES and abs(mu0 - 0.1) > 0.005:
                return f"CAR-inverted mu0 {mu0} is not within 5 % of 0.1"
            return None

        return Op("car", ["car", "--mu0", "0.1", "--set", "eta_a=0.2", "--signal-eff", "0.2",
                          "--pulses", str(pulses), "--seed", str(self.seed),
                          "--workers", str(workers)],
                  pulses, check_car)

    def source(self, hbt_pulses: int, car_pulses: int) -> list[Op]:
        def check_hbt(stdout):
            g2, _, sigma = _field(stdout, "g2(0)").partition("+/-")
            g2, sigma = float(g2), float(sigma)
            if abs(g2 - G2_CLICK_LEVEL) > 5.0 * sigma:
                return f"g2(0) {g2} +/- {sigma} is over 5 sigma from {G2_CLICK_LEVEL}"
            return None

        return [
            Op("hbt", ["hbt", "--source", "thermal", "--mu0", "0.1", "--set", "eta_a=0",
                       "--detector-eff", "0.15", "--pulses", str(hbt_pulses),
                       "--seed", str(self.seed), "--workers", "1"], hbt_pulses, check_hbt),
            self.car(car_pulses),
        ]


def round_ops(workload: str, work_dir: Path, seed: int, sizes: Sizes) -> list[Op]:
    """The commands of one round: the workload's own family, then a probe of each other."""
    f = _Families(work_dir, seed)
    own = {
        "sim": lambda: f.sim(sizes.sim_pulses, sizes.sim_batch),
        "log": lambda: f.log(sizes.log_rows, 2),
        "scan": lambda: f.scan(sizes.scan_reps),
        "source": lambda: f.source(sizes.hbt_pulses, sizes.car_pulses),
    }
    probe = {
        "sim": lambda: f.sim(sizes.probe_pulses, sizes.probe_batch),
        "log": lambda: f.log(sizes.probe_rows),
        "scan": lambda: f.scan(1),
        "source": lambda: f.source(sizes.probe_source_pulses, sizes.probe_source_pulses),
    }
    family = FAMILY[workload]
    ops = own[family]()
    probes = [replace(op, probe=True)
              for name, build in probe.items() if name != family for op in build()]
    return ops + probes * 2


def once_ops(workload: str, work_dir: Path, seed: int) -> list[Op]:
    """Commands run once per run, before the rounds and untimed.

    They carry the checks that need more pulses than a timed command runs.
    """
    if FAMILY[workload] != "source":
        return []
    # untimed, so two workers; the engine's output does not depend on their number
    return [_Families(work_dir, seed).car(CAR_CHECK_PULSES, workers=2)]
