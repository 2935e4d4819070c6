"""Pulse-level Monte Carlo engine.

Generates heralding and detection events for full protocol runs and for the
two virtual source-characterization experiments (intensity correlation at a
beam splitter, and signal/idler coincidence counting).  Serves as the
empirical oracle for the closed-form gain/QBER model.

Each pulse ``i`` draws one uniform, a pure function of ``(seed, i, slot)``
with one slot per engine (see :mod:`pdqkd.rng`), so results are
bit-identical regardless of how a run is cut up or how many workers run it;
cross-pulse quantities such as delayed coincidences recompute their
neighbours' uniforms instead of carrying state across chunk boundaries.
Batches of ``_BATCH`` pulses go to the worker threads; chunks of ``_CHUNK``
pulses within them bound the working set and reuse one workspace per thread
(:class:`_Workspace`).

Sampling model per pulse.  Pulses are i.i.d. and no output needs a pulse's
pair number, only its outcome, so each run sums the per-pair-number model
over the truncated source pmf (its tail folded into ``n_max``) into one
table of outcome cells, and inverts each pulse's uniform through that
table's CDF.  Given ``n`` pairs, the model is:

- heralding click with probability ``1 - (1 - y0_alice)(1 - eta_a)^n``;
- ``{0, 1, >=2}`` surviving photons at the receiver, each photon surviving
  with ``eta_s * eta``, and an independent dark click with probability ``y0``;
- detection = survivor or dark click; simultaneous photon+dark or multiple
  survivors raise the double-click flag, which squashes to a uniformly
  random bit; single-survivor detections flip the encoded bit with
  probability ``e_d`` (mismatched bases decohere to a random outcome);
  dark-only detections yield a random bit, so a run takes only ``e0 = 1/2``;
- both bases and Alice's bit are uniform.

The gains of the table equal the closed forms of
:func:`pdqkd.link_model.gains_analytic` up to the pmf's truncation, but its
E_N and E_T sit slightly above them (0.041602 against 0.041597 for E_N at
``paper50km``): two or more surviving photons squash to a random bit here,
where the closed forms keep ``e_d``.  The virtual experiments invert their
uniform through a four-cell table of the two arms' clicks.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decoy_estimator import KeyRateResult, ObservedStats, ProtocolParams, key_rate
from .errors import ParameterError, UndefinedRatioError
from .link_model import LinkParams
from .photon_source import PhotonNumberPmf, SourceParams, poisson_pmf
from .rng import uniform_stream

_SLOT_RUN, _SLOT_HBT, _SLOT_CAR = 0, 1, 2  # the one stream of each engine
_CLICKED = 96  # clicked cells of a protocol pulse, the first cells of its outcome table
_HBT_MAX_DELAY = 5  # largest pulse delay of the beam-splitter histogram
# at half this size, two workers waited on each other for the GIL 4x as often
_CHUNK = 65_536  # pulses per call of the batch code: 512 KiB per float64 array
_BATCH = 1_000_000  # pulses per pool task: two workers still share a 2e6-pulse run

#: one row of an event log: a detected pulse
EVENT_DTYPE = np.dtype([
    ("pulse_id", "<u8"), ("triggered", "u1"),
    ("alice_basis", "u1"), ("alice_bit", "u1"), ("bob_basis", "u1"),
    ("bob_bit", "u1"), ("dark_origin", "u1"), ("double_click", "u1"),
])

#: the four trigger/basis cells of a run, indexed by ``2 * triggered + matched``
CELLS = ("n_mismatch", "n_match", "t_mismatch", "t_match")


@dataclass(frozen=True)
class SimConfig:
    """The pulses of a Monte Carlo run and its seed; how the run is cut up is not set here."""

    n_pulses: int
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_pulses, int) and self.n_pulses >= 1):
            raise ParameterError(f"n_pulses must be a positive integer, got {self.n_pulses!r}")


@dataclass(frozen=True)
class Tally:
    """Event counts split by heralding outcome and basis match.

    ``sent_*`` partition the pulses; ``det_*`` count receiver detections in
    each cell; ``err_*`` count bit errors among matched-basis detections
    (the only ones with a defined error).  ``double_*`` and ``dark_*`` track
    squashed double clicks and dark-origin detections for diagnostics.
    """

    n_pulses: int = 0
    sent_n_match: int = 0
    sent_n_mismatch: int = 0
    sent_t_match: int = 0
    sent_t_mismatch: int = 0
    det_n_match: int = 0
    det_n_mismatch: int = 0
    det_t_match: int = 0
    det_t_mismatch: int = 0
    err_n: int = 0
    err_t: int = 0
    double_clicks: int = 0
    dark_detections: int = 0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ParameterError(f"tally counter {name} must be non-negative")
        sent = (self.sent_n_match, self.sent_n_mismatch, self.sent_t_match, self.sent_t_mismatch)
        det = (self.det_n_match, self.det_n_mismatch, self.det_t_match, self.det_t_mismatch)
        if sum(sent) != self.n_pulses:
            raise ParameterError("sent cells must sum to n_pulses")
        if any(d > s for d, s in zip(det, sent)):
            raise ParameterError("detections cannot exceed the pulses sent in their cell")
        if self.err_n > self.det_n_match or self.err_t > self.det_t_match:
            raise ParameterError("errors cannot exceed matched detections")
        if max(self.double_clicks, self.dark_detections) > sum(det):
            raise ParameterError("double clicks and dark detections cannot exceed detections")

    @property
    def n_triggers(self) -> int:
        return self.sent_t_match + self.sent_t_mismatch

    @property
    def n_sifted(self) -> int:
        return self.sent_n_match + self.sent_t_match

    @property
    def detections_n(self) -> int:
        return self.det_n_match + self.det_n_mismatch

    @property
    def detections_t(self) -> int:
        return self.det_t_match + self.det_t_mismatch

    def to_observed_stats(self) -> ObservedStats:
        """Per-pulse rates in the estimator's convention.

        Gains count detections in all basis combinations; QBERs are error
        fractions among matched-basis detections (0 when a branch has none).
        """
        n = self.n_pulses
        if n < 1:
            raise ParameterError("tally holds no pulses")
        e_n = self.err_n / self.det_n_match if self.det_n_match else 0.0
        e_t = self.err_t / self.det_t_match if self.det_t_match else 0.0
        return ObservedStats(q_n=self.detections_n / n, q_t=self.detections_t / n,
                             e_n=e_n, e_t=e_t, n_pulses=n, n_triggers=self.n_triggers)


@dataclass(frozen=True, eq=False)
class EventLog:
    """The detections of a run, with the pulses sent per cell.

    ``sent`` counts the pulses sent in each of :data:`CELLS`; ``rows`` holds
    one ``EVENT_DTYPE`` row per detected pulse, in pulse order, and ``len()``
    counts them.  A tally needs nothing of the undetected pulses but ``sent``.
    """

    sent: tuple[int, int, int, int]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EventLog) and self.sent == other.sent
                and np.array_equal(self.rows, other.rows))


def count_tally(log: EventLog) -> Tally:
    """Reduce an event log to a :class:`Tally`.

    The sent cells come from ``log.sent``; detections, errors (matched cells
    only), double clicks and dark-only detections from its rows.
    """
    rows = log.rows
    cell = np.left_shift(rows["triggered"], 1) | (rows["alice_basis"] == rows["bob_basis"])
    det = np.bincount(cell, minlength=4).tolist()
    err = np.bincount(cell[rows["alice_bit"] != rows["bob_bit"]], minlength=4).tolist()
    return Tally(n_pulses=sum(log.sent),
                 **{f"sent_{c}": n for c, n in zip(CELLS, log.sent)},
                 **{f"det_{c}": n for c, n in zip(CELLS, det)},
                 err_n=err[1], err_t=err[3],
                 double_clicks=int(np.count_nonzero(rows["double_click"])),
                 dark_detections=int(np.count_nonzero(rows["dark_origin"])))


class _Workspace(threading.local):
    """Arrays for a chunk plus its delayed pulses, made once per thread and reused."""

    def __init__(self):
        self.u = np.empty(_CHUNK + _HBT_MAX_DELAY)
        self.scratch = np.empty_like(self.u, dtype=np.uint64)


_WORKSPACE = _Workspace()


def _draw(seed: int, slot: int, start: int, count: int) -> np.ndarray:
    """The stream in ``_WORKSPACE.u``, until the next draw."""
    return uniform_stream(seed, slot, start, count, out=_WORKSPACE.u, scratch=_WORKSPACE.scratch)


def _weights(pmf: PhotonNumberPmf) -> tuple[np.ndarray, np.ndarray]:
    """The pair counts of the support as floats, and their probabilities with the tail
    mass folded into ``n_max``."""
    w = pmf.probs.copy()
    w[-1] += pmf.tail_mass
    return np.arange(pmf.n_max + 1, dtype=np.float64), w


def _map_batches(work, merge, config: SimConfig, workers: int):
    """Fold ``work(lo, hi)`` over the run's pulses with ``merge``.

    ``_BATCH``-pulse batches go to ``workers`` threads, each running ``work`` on
    ``_CHUNK``-pulse chunks.  ``merge`` folds a list of results in pulse order:
    each batch's chunks, then the batches.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers!r}")

    def batch(lo, hi):
        return merge([work(c, min(c + _CHUNK, hi)) for c in range(lo, hi, _CHUNK)])

    los = range(0, config.n_pulses, _BATCH)
    his = [min(lo + _BATCH, config.n_pulses) for lo in los]
    if workers == 1 or len(los) == 1:
        return merge(list(map(batch, los, his)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return merge(list(pool.map(batch, los, his)))


def _pulse_tables(n: np.ndarray, source: SourceParams, p_surv: float):
    """Probabilities at pair counts ``n`` of no herald and of 0 and <= 1 surviving photons."""
    p_no_trig = (1.0 - source.y0_alice) * np.power(1.0 - source.eta_a, n)
    none_prob = np.power(1.0 - p_surv, n)
    one_prob = np.where(n > 0, n * p_surv * np.power(1.0 - p_surv, np.maximum(n - 1.0, 0.0)), 0.0)
    return p_no_trig, none_prob, none_prob + one_prob


def _outcome_table(source: SourceParams, link: LinkParams):
    """The outcome cells of one protocol pulse: their CDF edges, the event row of each
    clicked cell, and each clicked cell's index in :data:`CELLS`.

    The ``_CLICKED`` clicked cells come first, so that their edges sit near 0, where
    float64 is finest: trigger x Alice's basis x Bob's basis x {lone photon, double click,
    dark click alone} x Alice's bit x Bob's bit.  The four no-click cells of :data:`CELLS`
    follow, and the last edge is inf.
    """
    n, w = _weights(poisson_pmf(source.mu0))
    no_trig, none, single = _pulse_tables(n, source, source.eta_s * link.eta)
    y0 = link.y0
    kinds = np.stack([(single - none) * (1.0 - y0), 1.0 - single + (single - none) * y0,
                      none * y0, none * (1.0 - y0)])  # lone photon, double, dark alone, no click
    p = np.einsum("n,tn,kn->tk", w, np.stack([no_trig, 1.0 - no_trig]), kinds)
    t, basis_a, basis_b, kind, bit_a, bit_b = np.indices((2, 2, 2, 3, 2, 2)).reshape(6, -1)
    match = basis_a == basis_b
    # a lone photon keeps Alice's bit but for e_d (1/2 in mismatched bases); others are random
    flip = np.where((kind == 0) & match, link.e_d, 0.5)
    clicked = p[t, kind] / 8.0 * np.where(bit_a == bit_b, 1.0 - flip, flip)
    edges = np.cumsum(np.concatenate([clicked, np.repeat(p[:, 3], 2) / 2.0]))
    edges[-1] = np.inf
    rows = np.zeros(_CLICKED, dtype=EVENT_DTYPE)
    for name, col in (("triggered", t), ("alice_basis", basis_a), ("bob_basis", basis_b),
                      ("alice_bit", bit_a), ("bob_bit", bit_b),
                      ("dark_origin", kind == 2), ("double_click", kind == 1)):
        rows[name] = col
    return edges, rows, 2 * t + match


def _run_batch(lo: int, hi: int, table, config: SimConfig):
    """Per-cell sent counts and the event-log rows of pulses ``lo..hi-1``."""
    edges, cell_rows, cell = table
    u = _draw(config.seed, _SLOT_RUN, lo, hi - lo)
    hits = np.flatnonzero(u < edges[_CLICKED - 1])
    clicked = np.searchsorted(edges, u[hits], side="right")
    rows = cell_rows[clicked]
    rows["pulse_id"] = hits + lo
    # the pulses below each no-click cell's upper edge, less those below its lower edge
    below = [len(hits), *(np.count_nonzero(u < e) for e in edges[_CLICKED:-1]), hi - lo]
    return np.bincount(cell[clicked], minlength=4) + np.diff(below), rows


def simulate_run(source: SourceParams, link: LinkParams, config: SimConfig,
                 workers: int = 1) -> tuple[Tally, EventLog]:
    """Simulate a protocol run; returns ``(count_tally(log), log)``.

    Pair numbers are Poisson of mean ``mu0``.  ``workers`` parallelizes over
    batches without affecting any output value.
    """
    if link.e0 != 0.5:
        raise ParameterError(f"e0 must be 0.5 to simulate a run: a dark-only detection gets "
                             f"a uniformly random bit, got e0={link.e0!r}")
    table = _outcome_table(source, link)
    sent, rows = _map_batches(
        lambda lo, hi: _run_batch(lo, hi, table, config),
        lambda parts: (sum(s for s, _ in parts), np.concatenate([r for _, r in parts])),
        config, workers)
    log = EventLog(sent=tuple(sent.tolist()), rows=rows)
    return count_tally(log), log


def _arm_cells(w: np.ndarray, silent_a, silent_b, silent_both) -> np.ndarray:
    """Probabilities of the cells ``[a alone | both | b alone | neither]`` of two click arms,
    summed with the pair-count weights ``w`` over the per-count probabilities that arm a,
    arm b and both arms stay silent."""
    return np.stack([silent_b - silent_both, 1.0 - silent_a - silent_b + silent_both,
                     silent_a - silent_both, silent_both]) @ w


def _hbt_cells(pmf: PhotonNumberPmf, detector_eff: float) -> np.ndarray:
    """Arm cells of the beam splitter: k photons leave one arm silent with
    ``(1 - eff/2)**k`` and both with ``(1 - eff)**k``."""
    k, w = _weights(pmf)
    silent = np.power(1.0 - detector_eff / 2.0, k)
    return _arm_cells(w, silent, silent, np.power(1.0 - detector_eff, k))


def _car_cells(source: SourceParams, signal_eff: float) -> np.ndarray:
    """Arm cells of the signal (a) and idler (b) detectors, independent given the pair count."""
    n, w = _weights(poisson_pmf(source.mu0))
    idler, signal, _ = _pulse_tables(n, source, source.eta_s * signal_eff)
    return _arm_cells(w, signal, idler, signal * idler)


def _arm_clicks(cells: np.ndarray, seed: int, slot: int):
    """``clicks`` for :func:`_coincidences` from one uniform per pulse: arm a clicks below
    the second CDF edge of ``cells``, arm b between the first and the third."""
    first, second, third = np.cumsum(cells)[:3].tolist()

    def clicks(lo, hi):
        u = _draw(seed, slot, lo, hi - lo)
        return u < second, (u >= first) & (u < third)

    return clicks


@dataclass(frozen=True)
class HbtHistogram:
    """Delayed-coincidence histogram of the beam-splitter experiment.

    Delays are in pulse slots (one slot per repetition period).  ``g2_zero``
    is ``N_cc(0) * n_pulses / (N_1 * N_2)`` with a first-order counting
    uncertainty; ``car`` is the zero-delay to mean off-zero coincidence
    ratio of the histogram.
    """

    delays: tuple[int, ...]
    coincidences: tuple[int, ...]
    singles_1: int
    singles_2: int
    n_pulses: int
    g2_zero: float
    g2_zero_sigma: float
    car: float


def _coincidences(clicks, config: SimConfig, max_delay: int, workers: int) -> list[int]:
    """``[singles_a, singles_b, cc_0, .., cc_max_delay]`` of two click streams.

    ``clicks(lo, hi)`` returns the click masks ``(a, b)`` of pulses
    ``lo..hi-1``; ``cc_k`` counts pulses ``i`` with ``a[i] & b[i + k]``.  Each
    chunk recomputes the ``max_delay`` pulses past its end, so no count
    depends on where a chunk or batch ends.
    """
    n_total = config.n_pulses

    def work(lo, hi):
        a, b = clicks(lo, min(hi + max_delay, n_total))
        counts = [np.count_nonzero(a[:hi - lo]), np.count_nonzero(b[:hi - lo])]
        for k in range(max_delay + 1):
            limit = max(min(hi, n_total - k) - lo, 0)
            counts.append(np.count_nonzero(a[:limit] & b[k:limit + k]))
        return counts

    return _map_batches(work, lambda parts: [int(sum(c)) for c in zip(*parts)], config, workers)


def simulate_hbt(source: SourceParams, detector_eff: float, config: SimConfig,
                 pmf: PhotonNumberPmf | None = None, workers: int = 1) -> HbtHistogram:
    """Virtual intensity-correlation experiment on the signal mode.

    Each photon routes independently to one of two arms of a balanced
    splitter and is detected with probability ``detector_eff``; threshold
    clicks are correlated across pulse delays ``-5 .. 5``.  Poisson pair
    statistics give a flat histogram at 1; single-mode thermal statistics
    double the zero-delay bin.
    """
    if not (0.0 < detector_eff <= 1.0):
        raise ParameterError(f"detector_eff must be in (0, 1], got {detector_eff!r}")
    if config.n_pulses <= _HBT_MAX_DELAY:
        raise UndefinedRatioError(f"delay {config.n_pulses} has no pulse pairs; g2 undefined")
    cells = _hbt_cells(poisson_pmf(source.mu0) if pmf is None else pmf, detector_eff)
    clicks = _arm_clicks(cells, config.seed, _SLOT_HBT)
    n1, n2, *cc = _coincidences(clicks, config, _HBT_MAX_DELAY, workers)
    if n1 == 0 or n2 == 0:
        raise UndefinedRatioError("no singles recorded on one arm; g2 undefined")
    if not any(cc[1:]):
        raise UndefinedRatioError("no off-zero coincidences recorded; zero/off ratio undefined")
    n_pulses = config.n_pulses
    norm = n_pulses / (float(n1) * float(n2))

    def g2_at(k: int) -> float:
        pairs = n_pulses - abs(k)
        return cc[abs(k)] * norm * (n_pulses / pairs)

    delays = tuple(range(-_HBT_MAX_DELAY, _HBT_MAX_DELAY + 1))
    # negative delays mirror positive ones for a stationary source
    coincidences = tuple(cc[abs(k)] for k in delays)
    g2_zero = g2_at(0)
    # first-order counting error: Poisson on the coincidence and singles counts
    rel = math.sqrt(1.0 / max(cc[0], 1) + 1.0 / n1 + 1.0 / n2)
    off_zero = [g2_at(k) for k in range(1, _HBT_MAX_DELAY + 1)]
    car = g2_zero / (sum(off_zero) / len(off_zero))
    return HbtHistogram(delays=delays, coincidences=coincidences,
                        singles_1=n1, singles_2=n2, n_pulses=n_pulses,
                        g2_zero=g2_zero, g2_zero_sigma=g2_zero * rel, car=car)


@dataclass(frozen=True)
class CarResult:
    """Signal/idler coincidence-to-accidental ratio of a virtual run.

    When no accidental was recorded, ``car`` holds the lower bound
    (coincidences / 1) and ``is_lower_bound`` is set.
    """

    car: float
    coincidences: int
    accidentals: int
    is_lower_bound: bool


def simulate_car(source: SourceParams, signal_eff: float, config: SimConfig,
                 workers: int = 1) -> CarResult:
    """Virtual coincidence experiment between the signal and idler arms.

    Coincidences pair same-pulse clicks; accidentals pair each signal click
    with the next pulse's idler click.  The ratio estimates ``1 + 1/mu0``
    for Poisson pair statistics, which is what the mean-pair-number
    calibration inverts.
    """
    if not (0.0 < signal_eff <= 1.0):
        raise ParameterError(f"signal_eff must be in (0, 1], got {signal_eff!r}")
    clicks = _arm_clicks(_car_cells(source, signal_eff), config.seed, _SLOT_CAR)
    _, _, coinc, acc = _coincidences(clicks, config, 1, workers)
    if acc == 0:
        return CarResult(car=float(coinc), coincidences=coinc, accidentals=0,
                         is_lower_bound=True)
    return CarResult(car=coinc / acc, coincidences=coinc, accidentals=acc,
                     is_lower_bound=False)


def end_to_end(source: SourceParams, link: LinkParams, protocol: ProtocolParams,
               config: SimConfig, *, vacuum_credit: float = 0.0,
               workers: int = 1) -> KeyRateResult:
    """Simulate a run and estimate the key rate purely from its tallies."""
    tally, _ = simulate_run(source, link, config, workers=workers)
    return key_rate(tally.to_observed_stats(), protocol, source, vacuum_credit=vacuum_credit)
