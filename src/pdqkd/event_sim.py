"""Pulse-level Monte Carlo engine.

Generates heralding and detection events for full protocol runs and for the
two virtual source-characterization experiments (intensity correlation at a
beam splitter, and signal/idler coincidence counting).  Serves as the
empirical oracle for the closed-form gain/QBER model.

The run is cut into fixed blocks of ``_BLOCK`` pulses.  Block ``b`` of an
engine's slot draws from its own stream, numpy's counter-based Philox keyed by
``(seed, slot)`` with its counter set to ``b << 192`` (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), to which each thread sets its one
generator, in this order: the block's cell counts, one multinomial over the
engine's outcome table; the places of its clicked pulses; the order of their
cells.  So, for a given numpy version, a pulse's outcome is a pure function of
``(seed, slot, pulse_id // _BLOCK)`` and of its block's size.  Across versions
it is not: ``Generator`` promises no stable stream for its samplers, only
``Philox``'s bit stream is.  No value depends on the number of workers; a run
of n pulses is a prefix of a longer run only up to its last whole block; and a
change of ``_BLOCK`` moves every value, as a change of seed does.  Whole blocks
are the tasks of the thread pool.  A run's cost follows its blocks and, if it
makes an event log (:func:`simulate_run`), its clicks, never its pulses; a tally
alone (:func:`simulate_tally`) draws each block's cell counts, on the calling thread.

Sampling model per pulse.  Pulses are i.i.d. and no output needs a pulse's
pair number, only its outcome, so each run sums the per-pair-number model
over the truncated source pmf (its tail folded into ``n_max``) into one
table of outcome cells, over which each block draws its multinomial.  Given
``n`` pairs, the model is:

- heralding click with probability ``1 - (1 - y0_alice)(1 - eta_a)^n``;
- ``{0, 1, >=2}`` surviving photons at the receiver, each photon surviving
  with ``eta_s * eta``, and an independent dark click with probability ``y0``;
- detection = survivor or dark click; simultaneous photon+dark or multiple
  survivors raise the double-click flag, which squashes to a uniformly
  random bit; single-survivor detections flip the encoded bit with
  probability ``e_d`` (mismatched bases decohere to a random outcome);
  dark-only detections yield a random bit, the ``E0 = 1/2`` of the closed forms;
- both bases and Alice's bit are uniform.

The gains of the table equal the closed forms of
:func:`pdqkd.link_model.gains_analytic` up to the pmf's truncation, but its
E_N and E_T sit slightly above them (0.041602 against 0.041597 for E_N at
``paper50km``): two or more surviving photons squash to a random bit here,
where the closed forms keep ``e_d``.  The virtual experiments draw from a
four-cell table of the two arms' clicks, and count the delayed coincidences
that cross a block edge from the clicks within the largest delay of it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decoy_estimator import KeyRateResult, ObservedStats, ProtocolParams, key_rate
from .errors import DataFormatError, ParameterError, UndefinedRatioError
from .link_model import LinkParams
from .photon_source import PhotonNumberPmf, SourceParams, poisson_pmf

_SLOT_RUN, _SLOT_HBT, _SLOT_CAR = 0, 1, 2  # the generator key of each engine
_CLICKED = 96  # clicked cells of a protocol pulse, the first cells of its outcome table
_HBT_MAX_DELAY = 5  # largest pulse delay of the beam-splitter histogram
# pulses per block; sets every value, as the seed does.  A block's cell counts cost ~6 us, its
# clicks ~20-40 us more however few, and above 5 % clicks choice permutes 8 MiB of places
_BLOCK = 2**20
# blocks the pool takes per thread at a time: its threads idle at most once per window
_WINDOW = 64
_THREAD = threading.local()  # each thread's one generator, which each block sets to its state

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
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ParameterError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")


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
    """The detections of a run, with the pulses sent per cell, checked and counted once.

    ``sent`` counts the pulses sent in each of :data:`CELLS`; ``rows`` holds
    one ``EVENT_DTYPE`` row per detected pulse, in pulse order, and ``len()``
    counts them.  A tally needs nothing of the undetected pulses but ``sent``.
    A log is checked when made: pulse ids increase strictly and stay below the
    pulses sent, flags are 0 or 1, and no cell holds more rows than pulses sent
    (a bad record ``r`` raises :class:`DataFormatError` with ``row = r``).  It is
    then counted into ``tally``, and its rows turn read-only, so it stays valid.
    """

    sent: tuple[int, int, int, int]
    rows: np.ndarray
    tally: Tally = field(init=False)

    def __post_init__(self):
        def fail(message, record=None):
            raise DataFormatError(message if record is None else f"{message} at record {record}",
                                  row=record)

        if not (len(self.sent) == len(CELLS) and getattr(self.rows, "dtype", None) == EVENT_DTYPE):
            fail(f"events must be an EventLog of {len(CELLS)} sent counts and {EVENT_DTYPE} rows")
        rows, n_pulses = self.rows, sum(self.sent)
        ids = rows["pulse_id"]
        for message, bad in (("pulse_id not strictly increasing",
                              1 + np.flatnonzero(ids[1:] <= ids[:-1])),
                             (f"pulse_id not below the {n_pulses} pulses sent",
                              np.flatnonzero(ids >= n_pulses))):
            if len(bad):
                fail(message, int(bad[0]))
        # the flag bytes after each 8-byte pulse id, by field and then by record
        flags = np.ascontiguousarray(rows).view("u1").reshape(-1, EVENT_DTYPE.itemsize)[:, 8:].T
        for bad in np.flatnonzero(flags.ravel() > 1)[:1]:
            f, r = divmod(int(bad), len(rows))
            fail(f"{EVENT_DTYPE.names[1 + f]} must be 0 or 1, got {flags[f, r]}", r)
        cell = _cells(rows)
        det = np.bincount(cell, minlength=4).tolist()
        over = [np.flatnonzero(cell == c)[n] for c, n in enumerate(self.sent) if det[c] > n >= 0]
        if over:  # the first record that passes its cell's sent count
            fail("detections cannot exceed the pulses sent in their cell", int(min(over)))
        try:
            tally = _count(rows, 1, self.sent)
        except ParameterError as exc:
            fail(str(exc))
        rows.flags.writeable = False
        object.__setattr__(self, "tally", tally)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EventLog) and self.sent == other.sent
                and np.array_equal(self.rows, other.rows))


def _cells(rows: np.ndarray) -> np.ndarray:
    """The index in :data:`CELLS` of each event row."""
    return np.left_shift(rows["triggered"], 1) | (rows["alice_basis"] == rows["bob_basis"])


def _count(rows: np.ndarray, weights, sent) -> Tally:
    """The tally of ``sent`` pulses in each of :data:`CELLS` whose detections are ``rows``, row
    ``i`` counted ``weights[i]`` times, in integers: a log weighs each row 1."""
    kind = (rows["dark_origin"].astype(np.int64) << 4 | rows["double_click"] << 3
            | (rows["alice_bit"] != rows["bob_bit"]) << 2 | _cells(rows))
    hist = np.zeros(32, dtype=np.int64)
    np.add.at(hist, kind, weights)
    h = hist.reshape(2, 2, 2, 4)  # dark alone, double click, bit error, cell
    det, err = h.sum(axis=(0, 1, 2)).tolist(), h[:, :, 1].sum(axis=(0, 1)).tolist()
    return Tally(n_pulses=sum(sent), **{f"sent_{c}": n for c, n in zip(CELLS, sent)},
                 **{f"det_{c}": n for c, n in zip(CELLS, det)}, err_n=err[1], err_t=err[3],
                 double_clicks=int(h[:, 1].sum()), dark_detections=int(h[1].sum()))


def _weights(pmf: PhotonNumberPmf) -> tuple[np.ndarray, np.ndarray]:
    """The pair counts of the support as floats, and their probabilities with the tail
    mass folded into ``n_max``."""
    w = pmf.probs.copy()
    w[-1] += pmf.tail_mass
    return np.arange(pmf.n_max + 1, dtype=np.float64), w


def _map_blocks(work, config: SimConfig, workers: int):
    """``work(lo, hi)`` of each ``_BLOCK``-pulse block ``lo..hi-1`` of the run, yielded in pulse
    order, run on ``workers`` threads, but never more than one per block or per core.  The
    pool takes ``_WINDOW`` blocks per thread at a time, so no list grows with the run."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers!r}")
    n = config.n_pulses
    los = range(0, n, _BLOCK)
    threads = min(workers, len(los), os.cpu_count() or 1)
    if threads == 1:
        yield from (work(lo, min(lo + _BLOCK, n)) for lo in los)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i in range(0, len(los), _WINDOW * threads):
            window = los[i:i + _WINDOW * threads]
            yield from pool.map(work, window, [min(lo + _BLOCK, n) for lo in window])


def _generator(seed: int, slot: int, lo: int) -> np.random.Generator:
    """This thread's one generator, set for the block at pulse ``lo`` of the engine ``slot`` to
    the state of a new ``Philox(key=seed | slot << 64, counter=(lo // _BLOCK) << 192)``."""
    g = getattr(_THREAD, "generator", None)
    if g is None:
        g = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    g.bit_generator.state = {"bit_generator": "Philox",
                             "state": {"key": [seed, slot], "counter": [0, 0, 0, lo // _BLOCK]},
                             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return g


def _block(probs: np.ndarray, clicked: int, seed: int, slot: int, lo: int, hi: int):
    """The draws of the block of pulses ``lo..hi-1``: its count in each cell of ``probs``,
    the sorted places (offsets from ``lo``) of its pulses in the first ``clicked`` cells, and
    the cell of each place."""
    g = _generator(seed, slot, lo)
    counts = g.multinomial(hi - lo, probs)
    # shuffle=False keeps choice on Floyd's algorithm up to 5 % clicks, not a block permutation
    places = np.sort(g.choice(hi - lo, counts[:clicked].sum(), replace=False, shuffle=False))
    return counts, places, g.permutation(np.repeat(np.arange(clicked), counts[:clicked]))


def _pulse_tables(n: np.ndarray, source: SourceParams, p_surv: float):
    """Probabilities at pair counts ``n`` of no herald and of 0 and <= 1 surviving photons."""
    p_no_trig = (1.0 - source.y0_alice) * np.power(1.0 - source.eta_a, n)
    none_prob = np.power(1.0 - p_surv, n)
    one_prob = np.where(n > 0, n * p_surv * np.power(1.0 - p_surv, np.maximum(n - 1.0, 0.0)), 0.0)
    return p_no_trig, none_prob, none_prob + one_prob


def _cell_layout():
    """The half of :func:`_outcome_table` that no setting moves, built once and read-only:
    the columns of the clicked cells, the event row of each, and every cell's index."""
    cols = t, basis_a, basis_b, kind, bit_a, bit_b = np.indices((2, 2, 2, 3, 2, 2)).reshape(6, -1)
    rows = np.zeros(_CLICKED, dtype=EVENT_DTYPE)
    for name, col in (("triggered", t), ("alice_basis", basis_a), ("bob_basis", basis_b),
                      ("alice_bit", bit_a), ("bob_bit", bit_b),
                      ("dark_origin", kind == 2), ("double_click", kind == 1)):
        rows[name] = col
    cell = np.concatenate([2 * t + (basis_a == basis_b), np.arange(len(CELLS))])
    cols.flags.writeable = rows.flags.writeable = cell.flags.writeable = False
    return cols, rows, cell


_CELL_COLUMNS, _CELL_ROWS, _CELL_INDEX = _cell_layout()


def _outcome_table(source: SourceParams, link: LinkParams):
    """The outcome cells of one protocol pulse: their probabilities, the event row of each
    clicked cell, and each cell's index in :data:`CELLS`.

    The ``_CLICKED`` clicked cells come first: trigger x Alice's basis x Bob's basis x
    {lone photon, double click, dark click alone} x Alice's bit x Bob's bit.  The four
    no-click cells of :data:`CELLS` follow.  Only the probabilities depend on the settings.
    """
    n, w = _weights(poisson_pmf(source.mu0))
    no_trig, none, single = _pulse_tables(n, source, source.eta_s * link.eta)
    y0 = link.y0
    kinds = np.stack([(single - none) * (1.0 - y0), 1.0 - single + (single - none) * y0,
                      none * y0, none * (1.0 - y0)])  # lone photon, double, dark alone, no click
    p = np.einsum("n,tn,kn->tk", w, np.stack([no_trig, 1.0 - no_trig]), kinds)
    t, basis_a, basis_b, kind, bit_a, bit_b = _CELL_COLUMNS
    # a lone photon keeps Alice's bit but for e_d (1/2 in mismatched bases); others are random
    flip = np.where((kind == 0) & (basis_a == basis_b), link.e_d, 0.5)
    clicked = p[t, kind] / 8.0 * np.where(bit_a == bit_b, 1.0 - flip, flip)
    probs = np.maximum(np.concatenate([clicked, np.repeat(p[:, 3], 2) / 2.0]), 0.0)  # rounding
    return probs, _CELL_ROWS, _CELL_INDEX


def _sent(counts: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The pulses sent in each of :data:`CELLS`, of ``counts`` in the cells of index ``cell``."""
    return (cell == np.arange(len(CELLS))[:, None]) @ counts


def _run_batch(lo: int, hi: int, table, config: SimConfig):
    """Per-cell sent counts and the event-log rows of the block of pulses ``lo..hi-1``."""
    probs, cell_rows, cell = table
    counts, places, cells = _block(probs, _CLICKED, config.seed, _SLOT_RUN, lo, hi)
    rows = cell_rows[cells]
    rows["pulse_id"] = places + lo
    return _sent(counts, cell), rows


def simulate_run(source: SourceParams, link: LinkParams, config: SimConfig,
                 workers: int = 1) -> tuple[Tally, EventLog]:
    """Simulate a protocol run; returns ``(log.tally, log)``.

    Pair numbers are Poisson of mean ``mu0``.  ``workers`` parallelizes over
    blocks without affecting any output value.
    """
    table = _outcome_table(source, link)
    parts = list(_map_blocks(lambda lo, hi: _run_batch(lo, hi, table, config), config, workers))
    log = EventLog(sent=tuple(sum(s for s, _ in parts).tolist()),
                   rows=np.concatenate([r for _, r in parts]))
    return log.tally, log


def simulate_tally(source: SourceParams, link: LinkParams, config: SimConfig) -> Tally:
    """The tally of :func:`simulate_run`, from the same draws stopped at each block's cell
    counts.  Their running sum, so memory stays flat, weighs the clicked cells' rows, which
    :func:`_count` counts as it counts a log's.  It runs on the calling thread: a block is
    one multinomial, too short to gain from a second thread that waits for the GIL."""
    probs, cell_rows, cell = _outcome_table(source, link)
    counts = sum(_generator(config.seed, _SLOT_RUN, lo).multinomial(
        min(_BLOCK, config.n_pulses - lo), probs) for lo in range(0, config.n_pulses, _BLOCK))
    return _count(cell_rows, counts[:_CLICKED], _sent(counts, cell).tolist())


def _arm_cells(w: np.ndarray, silent_a, silent_b, silent_both) -> np.ndarray:
    """Probabilities of the cells ``[a alone | both | b alone | neither]`` of two click arms,
    summed with the pair-count weights ``w`` over the per-count probabilities that arm a,
    arm b and both arms stay silent."""
    cells = np.stack([silent_b - silent_both, 1.0 - silent_a - silent_b + silent_both,
                      silent_a - silent_both, silent_both]) @ w
    return np.maximum(cells, 0.0)  # rounding may dip a cell of probability 0 below it


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


def _coincidence_block(cells: np.ndarray, seed: int, slot: int, max_delay: int, lo: int,
                       hi: int):
    """``[singles_a, singles_b, cc_0, .., cc_max_delay]`` of the block of pulses ``lo..hi-1``,
    with its arm-a places within ``max_delay`` of its end (as offsets from the end) and its
    arm-b places within ``max_delay`` of its start.

    Arm a clicks in the cells ``[a alone | both]`` of ``cells``, arm b in ``[both | b alone]``;
    ``cc_k`` counts the arm-a places ``p`` for which ``p + k`` is an arm-b place.  The singles
    and ``cc_0``, the "both" cell, are read off the cell counts.  The places are sorted and
    distinct, so a pair ``k >= 1`` apart lies at most ``k`` entries apart: ``cc`` bins the
    gaps of at most ``max_delay`` between each place and the ``s``-th next, for ``s = 1 ..
    max_delay``, from an arm-a place to an arm-b place.
    """
    counts, places, cell = _block(cells, 3, seed, slot, lo, hi)  # all but "neither" clicked
    size = hi - lo
    in_a, in_b = cell < 2, cell > 0
    cc = np.zeros(max_delay + 1, dtype=np.int64)
    for s in range(1, max_delay + 1):
        gap = places[s:] - places[:-s]
        cc += np.bincount(gap[(gap <= max_delay) & in_a[:-s] & in_b[s:]], minlength=max_delay + 1)
    cc[0] = counts[1]
    tail, head = np.searchsorted(places, [size - max_delay, max_delay])
    return (np.concatenate([counts[:2] + counts[1:3], cc]), places[tail:][in_a[tail:]] - size,
            places[:head][in_b[:head]])


def _coincidences(cells: np.ndarray, slot: int, config: SimConfig, max_delay: int,
                  workers: int) -> list[int]:
    """``[singles_a, singles_b, cc_0, .., cc_max_delay]`` of a run drawn from the arm
    ``cells``; ``cc_k`` counts pulses ``i`` with an arm-a click at ``i`` and an arm-b click at
    ``i + k``.

    Each block counts its own pairs; the pairs that cross the edge between two blocks are
    added from the first block's last and the second's first ``max_delay`` pulses.  Only the
    last block can be shorter than ``max_delay``, so no pair spans two edges.
    """
    parts = list(_map_blocks(lambda lo, hi: _coincidence_block(
        cells, config.seed, slot, max_delay, lo, hi), config, workers))
    counts = sum(c for c, _, _ in parts)
    for (_, tail, _), (_, _, head) in zip(parts, parts[1:]):
        delays = np.subtract.outer(head, tail).ravel()
        counts[2:] += np.bincount(delays[delays <= max_delay], minlength=max_delay + 1)
    return counts.tolist()


def simulate_hbt(pmf: PhotonNumberPmf, detector_eff: float, config: SimConfig,
                 workers: int = 1) -> HbtHistogram:
    """Virtual intensity-correlation experiment on a mode whose photon number follows ``pmf``.

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
    cells = _hbt_cells(pmf, detector_eff)
    n1, n2, *cc = _coincidences(cells, _SLOT_HBT, config, _HBT_MAX_DELAY, workers)
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
    # (an empty zero-delay bin counts as one, so it claims no exact g2 of 0)
    rel = math.sqrt(1.0 / max(cc[0], 1) + 1.0 / n1 + 1.0 / n2)
    off_zero = [g2_at(k) for k in range(1, _HBT_MAX_DELAY + 1)]
    car = g2_zero / (sum(off_zero) / len(off_zero))
    return HbtHistogram(delays=delays, coincidences=coincidences, singles_1=n1, singles_2=n2,
                        n_pulses=n_pulses, g2_zero=g2_zero,
                        g2_zero_sigma=max(cc[0], 1) * norm * rel, car=car)


@dataclass(frozen=True)
class CarResult:
    """The counts of a virtual signal/idler coincidence run; ``car`` is coincidences over
    accidentals, a lower bound (``is_lower_bound``) over 1 when no accidental was recorded."""

    coincidences: int
    accidentals: int
    singles_signal: int
    singles_idler: int
    n_pulses: int

    @property
    def car(self) -> float:
        return self.coincidences / max(self.accidentals, 1)

    @property
    def is_lower_bound(self) -> bool:
        return self.accidentals == 0

    def mu0(self, y0_alice: float) -> float | None:
        """The mean pair number of the counts, by the law of :func:`_car_cells` inverted.

        With the signal, idler and coincidence fractions ``P_s, P_i, P_si`` and ``L(p) =
        ln(1 - p)``, ``mu0 = L(P_s) [L(P_i) - L(y0_alice)] / [L(P_s + P_i - P_si) - L(P_s) -
        L(P_i)]``, which needs neither efficiency.  None unless each arm clicked on some pulses
        but not all, the idler more often than its dark count, and coincidences beat chance.
        """
        p_s, p_i, p_si = (count / self.n_pulses for count in (
            self.singles_signal, self.singles_idler, self.coincidences))
        if not (0.0 < p_s < 1.0 and y0_alice < p_i < 1.0 and p_si > p_s * p_i):
            return None
        # the denominator as log1p((P_si - P_s P_i) / ((1 - P_s)(1 - P_i))), accurate near 0
        return (math.log1p(-p_s) * (math.log1p(-p_i) - math.log1p(-y0_alice))
                / math.log1p((p_si - p_s * p_i) / ((1.0 - p_s) * (1.0 - p_i))))


def simulate_car(source: SourceParams, signal_eff: float, config: SimConfig,
                 workers: int = 1) -> CarResult:
    """Virtual coincidence experiment between the signal and idler arms.

    Coincidences pair same-pulse clicks, and accidentals each signal click with the next
    pulse's idler click; :meth:`CarResult.mu0` inverts the counts to the mean pair number.
    """
    if not (0.0 < signal_eff <= 1.0):
        raise ParameterError(f"signal_eff must be in (0, 1], got {signal_eff!r}")
    s, i, coinc, acc = _coincidences(_car_cells(source, signal_eff), _SLOT_CAR, config, 1, workers)
    return CarResult(coinc, acc, s, i, config.n_pulses)


def end_to_end(source: SourceParams, link: LinkParams, protocol: ProtocolParams,
               config: SimConfig) -> KeyRateResult:
    """Simulate a run's tally and estimate the key rate from it alone."""
    tally = simulate_tally(source, link, config)
    return key_rate(tally.to_observed_stats(), protocol, source)
