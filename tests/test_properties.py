"""Property tests of the engine, file-format and estimator invariants.

The tests are derandomized, yet their draws still depend on the modules loaded: hypothesis
takes some values from a pool that includes the literal constants of every local module in
``sys.modules``, so running a test alone or beside ``tests/test_cli.py`` draws different values.
The edge values each property depends on (0, the ends of its ranges and the smallest
subnormal double) are therefore pinned as explicit examples, which every selection runs.
"""

import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import error_n, joint_signal_pmf, yield_n
from pdqkd import event_sim
from pdqkd.dataio import (_SCHEMA, RunManifest, read_config, read_events, read_tally,
                          tally_from_events, write_config, write_events, write_tally)
from pdqkd.decoy_estimator import (ObservedStats, ProtocolParams, e1_upper, fluctuation_bounds,
                                   key_rate, y1_lower)
from pdqkd.errors import UnboundedErrorRate
from pdqkd.event_sim import (_BLOCK, _CLICKED, EVENT_DTYPE, CarResult, SimConfig, Tally,
                             _block, _car_cells, _coincidence_block, _hbt_cells,
                             _outcome_table, _run_batch, simulate_run)
from pdqkd.link_model import LinkParams, db_to_linear, gains_analytic
from pdqkd.photon_source import (PhotonNumberPmf, SourceParams, multimode_thermal_pmf,
                                 poisson_pmf, thermal_pmf)
from pdqkd.presets import REFERENCE_RUNS

# a bright, low-loss link, so that a few thousand pulses give many detections
SOURCE = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
LINK = LinkParams(eta=db_to_linear(3.0), y0=1e-3, e_d=0.02)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None)
TINY = 5e-324  # the smallest subnormal double
SEED_MAX = 2**64 - 1


@settings(DERANDOMIZED, max_examples=40)
@example(n=1, batch=1, workers=1, seed=0)
@example(n=3000, batch=1, workers=3, seed=SEED_MAX)
@example(n=3000, batch=3000, workers=2, seed=0)
@given(n=st.integers(1, 3000), batch=st.integers(1, 3000),
       workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**64 - 1))
def test_run_independent_of_batching_and_log_round_trips(n, batch, workers, seed):
    # blocks of ``batch`` pulses, on one worker or shared by several
    config = SimConfig(n_pulses=n, seed=seed)
    with patch.object(event_sim, "_BLOCK", batch):
        tally, log = simulate_run(SOURCE, LINK, config)
        again = simulate_run(SOURCE, LINK, config, workers=workers)
    assert again == (tally, log)
    assert tally_from_events(log) == tally
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events(log, path)
        assert read_events(path) == log


@settings(DERANDOMIZED, max_examples=40)
@example(n=1, extra=1, block=1, seed=0)
@example(n=3000, extra=3000, block=1000, seed=SEED_MAX)
@given(n=st.integers(1, 3000), extra=st.integers(1, 3000), block=st.integers(1, 1000),
       seed=st.integers(0, 2**64 - 1))
def test_run_is_a_prefix_of_a_longer_run_up_to_its_last_whole_block(n, extra, block, seed):
    with patch.object(event_sim, "_BLOCK", block):
        _, short = simulate_run(SOURCE, LINK, SimConfig(n_pulses=n, seed=seed))
        _, longer = simulate_run(SOURCE, LINK, SimConfig(n_pulses=n + extra, seed=seed))
    whole = n - n % block
    assert np.array_equal(short.rows[short.rows["pulse_id"] < whole],
                          longer.rows[longer.rows["pulse_id"] < whole])


@st.composite
def tallies(draw):
    """Tallies that pass the structure check, with counts up to a paper-scale 6e10."""
    count = st.integers(0, 60_000_000_000)
    sent = {f"sent_{cell}": draw(count) for cell in ("n_match", "n_mismatch", "t_match",
                                                     "t_mismatch")}
    det = {name.replace("sent", "det"): draw(st.integers(0, s)) for name, s in sent.items()}
    n_det = sum(det.values())
    return Tally(n_pulses=sum(sent.values()), **sent, **det,
                 err_n=draw(st.integers(0, det["det_n_match"])),
                 err_t=draw(st.integers(0, det["det_t_match"])),
                 double_clicks=draw(st.integers(0, n_det)),
                 dark_detections=draw(st.integers(0, n_det)))


def full_tally(sent: int) -> Tally:
    """Every cell at ``sent`` pulses, each detected and each matched detection an error."""
    cells = {f"{kind}_{cell}": sent for kind in ("sent", "det")
             for cell in ("n_match", "n_mismatch", "t_match", "t_mismatch")}
    return Tally(n_pulses=4 * sent, **cells, err_n=sent, err_t=sent, double_clicks=4 * sent,
                 dark_detections=4 * sent)


@settings(DERANDOMIZED, max_examples=100)
@example(tally=full_tally(0))
@example(tally=full_tally(60_000_000_000))
@given(tally=tallies())
def test_tally_file_round_trips(tally):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tally"
        write_tally(tally, path)
        assert read_tally(path) == tally


RUN50 = REFERENCE_RUNS["paper50km"]
PROTOCOL50 = RUN50.manifest().to_protocol_params()
SOURCE50 = RUN50.manifest().to_source_params()


@settings(DERANDOMIZED, max_examples=200)
@example(gain_scale=0.2, qber_scale=0.2, n_pulses=10**6, u_alpha=[0.0, 10.0], f=[1.0, 3.0])
@example(gain_scale=5.0, qber_scale=3.0, n_pulses=10**11, u_alpha=[0.0, 0.0], f=[1.0, 1.0])
@given(gain_scale=st.floats(0.2, 5.0), qber_scale=st.floats(0.2, 3.0),
       n_pulses=st.integers(10**6, 10**11),
       u_alpha=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2),
       f=st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2))
def test_key_rate_does_not_grow_with_u_alpha_or_f(gain_scale, qber_scale, n_pulses, u_alpha, f):
    # published 50 km observables, scaled, so every fluctuation bound is defined
    obs = ObservedStats(q_n=RUN50.q_n * gain_scale, q_t=RUN50.q_t * gain_scale,
                        e_n=RUN50.e_n * qber_scale, e_t=RUN50.e_t * qber_scale,
                        n_pulses=n_pulses,
                        n_triggers=n_pulses * RUN50.n_triggers // RUN50.observed_stats().n_pulses)
    u_low, u_high = sorted(u_alpha)
    f_low, f_high = sorted(f)

    def rate(u, f_ec):
        return key_rate(obs, replace(PROTOCOL50, u_alpha=u, f=f_ec), SOURCE50).r

    assert rate(u_high, f_low) <= rate(u_low, f_low)
    assert rate(u_low, f_high) <= rate(u_low, f_low)


@st.composite
def pair_pmfs(draw):
    """Poisson, thermal and multimode thermal pmfs, and pmfs with zero entries."""
    mu = draw(st.floats(0.01, 10.0))
    kind = draw(st.sampled_from(["poisson", "thermal", "multimode", "zeros"]))
    if kind == "thermal":
        return thermal_pmf(mu)
    if kind == "multimode":
        return multimode_thermal_pmf(mu, draw(st.integers(2, 20)))
    pmf = poisson_pmf(mu)
    if kind == "poisson":
        return pmf
    probs = pmf.probs.copy()
    zeroed = draw(st.lists(st.integers(0, pmf.n_max), min_size=1, max_size=pmf.n_max + 1))
    probs[zeroed] = 0.0
    assume(probs.sum() > 0.0)
    # rounding can leave the kept probabilities a few ulps above 1, a tail the pmf takes as 0
    return PhotonNumberPmf(probs, 1.0 - math.fsum(probs.tolist()))


@st.composite
def box_runs(draw):
    """A source and link in criterion 5's parameter box; no dark counts or no misalignment
    give cells of zero probability."""
    src = SourceParams(mu0=draw(st.floats(0.05, 4.0)), eta_s=draw(st.floats(0.002, 1.0)),
                       eta_a=draw(st.floats(0.005, 0.6)))
    link = LinkParams(eta=10.0**draw(st.floats(-4.0, 0.0)),
                      y0=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-4))),
                      e_d=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))))
    return src, link


def box_run(mu0, eta_s, eta_a, eta, y0, e_d):
    return SourceParams(mu0=mu0, eta_s=eta_s, eta_a=eta_a), LinkParams(eta=eta, y0=y0, e_d=e_d)


# the box's low corner with no dark count and no misalignment, its high corner with both at
# their maxima, and each corner with both at the smallest subnormal
LOW_CORNER, HIGH_CORNER = (0.05, 0.002, 0.005, 1e-4), (4.0, 1.0, 0.6, 1.0)
BOX_EDGES = [box_run(*LOW_CORNER, 0.0, 0.0), box_run(*HIGH_CORNER, 1e-4, 0.05),
             box_run(*LOW_CORNER, TINY, TINY), box_run(*HIGH_CORNER, TINY, TINY)]


@settings(DERANDOMIZED, max_examples=200)
@example(run=BOX_EDGES[0])
@example(run=BOX_EDGES[1])
@example(run=BOX_EDGES[2])
@example(run=BOX_EDGES[3])
@given(run=box_runs())
def test_outcome_table_gains_equal_the_closed_forms(run):
    # E_N and E_T are not compared: the table squashes two or more surviving photons to a
    # random bit where the closed forms keep e_d, so its QBERs sit slightly above them
    src, link = run
    probs, rows, _ = _outcome_table(src, link)
    cells = probs.tolist()
    triggered = rows["triggered"] == 1
    clicked = np.array(cells[:_CLICKED])
    analytic = gains_analytic(src, link)
    tol = poisson_pmf(src.mu0).tail_mass + 1e-12
    assert abs(clicked[~triggered].sum() - analytic.q_n) <= tol
    assert abs(clicked[triggered].sum() - analytic.q_t) <= tol
    # the no-click cells follow CELLS: n_mismatch, n_match, t_mismatch, t_match
    assert abs(clicked[triggered].sum() + sum(cells[-2:]) - src.trigger_prob) <= tol


@settings(DERANDOMIZED, max_examples=200)
@example(run=BOX_EDGES[0], y0_alice=0.0)
@example(run=BOX_EDGES[1], y0_alice=math.nextafter(0.5, 0.0))
@example(run=BOX_EDGES[2], y0_alice=TINY)
@example(run=BOX_EDGES[3], y0_alice=math.nextafter(0.5, 0.0))
@given(run=box_runs(), y0_alice=st.floats(0.0, 0.5, exclude_max=True))
def test_bounds_read_the_heralding_dark_count_from_the_source(run, y0_alice):
    # on closed-form observables at u = 0, a heralding dark count scales every N-branch term
    # by (1 - y0_alice), so the bounds it feeds stay where they are and stay sound.  Values
    # below the smallest normal double (a subnormal y0 or e_d) keep no relative precision,
    # so each comparison also allows that absolute amount
    tiny = sys.float_info.min
    src, link = run
    dark = replace(src, y0_alice=y0_alice)
    protocol = ProtocolParams(u_alpha=0.0)

    def bounds(s):
        obs = ObservedStats.from_analytic(gains_analytic(s, link), s, 10**12)
        return obs, key_rate(obs, protocol, s)

    _, clear = bounds(src)
    obs, res = bounds(dark)
    assert math.isclose(res.bounds.y0_up, clear.bounds.y0_up, rel_tol=1e-9, abs_tol=tiny)
    assert math.isclose(res.y1_low, clear.y1_low, rel_tol=1e-9, abs_tol=tiny)
    assert res.bounds.y0_up >= link.y0 - tiny
    y1 = yield_n(1, link)
    assert res.y1_low <= y1 * (1 + 1e-9)  # criterion 5's rounding allowance
    if res.y1_low > 0.0:
        e1 = e1_upper(obs.e_t * obs.q_t, res.y1_low, dark)[0]
        assert e1 >= error_n(1, link) * (1 - 1e-9) - tiny
    for outcome, q1 in (("N", res.branch_n.q1), ("T", res.branch_t.q1)):
        assert q1 <= joint_signal_pmf(dark, outcome).probs[1] * y1 * (1 + 1e-9)


@settings(DERANDOMIZED, max_examples=150)
@example(run=BOX_EDGES[0], seed=0, block=0, size=1)
@example(run=BOX_EDGES[1], seed=SEED_MAX, block=2**40, size=5000)
@example(run=BOX_EDGES[2], seed=0, block=2**40, size=5000)
@given(run=box_runs(), seed=st.integers(0, 2**64 - 1), block=st.integers(0, 2**40),
       size=st.integers(1, 5000))
def test_block_draws_fit_the_block_and_the_table(run, seed, block, size):
    table = _outcome_table(*run)
    probs, cell_rows, cell = table
    lo = block * _BLOCK
    counts, places, cells = _block(probs, _CLICKED, seed, 0, lo, lo + size)
    assert counts.sum() == size
    # the places are distinct, sorted and inside the block, one per clicked pulse
    assert np.all(np.diff(places) > 0) and np.all((0 <= places) & (places < size))
    assert np.bincount(cells, minlength=_CLICKED).tolist() == counts[:_CLICKED].tolist()
    sent, rows = _run_batch(lo, lo + size, table, SimConfig(n_pulses=lo + size, seed=seed))
    assert rows["pulse_id"].tolist() == (places + lo).tolist()
    # each row reads back to its own cell of the table, and to its trigger/basis cell
    flags = list(EVENT_DTYPE.names[1:])
    table_rows = {tuple(r): i for i, r in enumerate(cell_rows[flags].tolist())}
    assert len(table_rows) == _CLICKED
    assert [table_rows[tuple(r)] for r in rows[flags].tolist()] == cells.tolist()
    matched = rows["alice_basis"] == rows["bob_basis"]
    assert np.array_equal(cell[cells], 2 * rows["triggered"] + matched)
    assert sent.tolist() == (np.bincount(cell[cells], minlength=4)
                             + counts[_CLICKED:]).tolist()


@settings(DERANDOMIZED, max_examples=100)
@example(pmf=poisson_pmf(0.01), eff=0.01, seed=0)
@example(pmf=thermal_pmf(10.0), eff=1.0, seed=SEED_MAX)
@example(pmf=multimode_thermal_pmf(10.0, 20), eff=1.0, seed=0)
@given(pmf=pair_pmfs(), eff=st.floats(0.01, 1.0), seed=st.integers(0, 2**64 - 1))
def test_hbt_table_and_its_inversion(pmf, eff, seed):
    cells = _hbt_cells(pmf, eff)
    k = np.arange(pmf.n_max + 1)
    silent = pmf.probs @ (1.0 - eff / 2.0) ** k
    tol = pmf.tail_mass + 1e-12
    assert abs(cells.sum() - 1.0) <= 2e-12  # the pmf's balance, 1e-12, plus rounding
    assert abs(cells[2] + cells[3] - silent) <= tol  # arm a: silent alone in b and neither
    assert abs(cells[0] + cells[3] - silent) <= tol
    # one block: arm a clicks in cells [a alone | both], arm b in [both | b alone]
    counts, _, _ = _block(cells, 3, seed, 0, 0, 5000)
    singles_a, singles_b, cc_0, *_ = _coincidence_block(cells, seed, 0, 1, 0, 5000)[0]
    assert counts.sum() == 5000
    assert (singles_a, singles_b, cc_0) == (counts[0] + counts[1], counts[1] + counts[2],
                                             counts[1])


@settings(DERANDOMIZED, max_examples=100)
@example(mu0=0.01, eta_s=0.0, eta_a=0.0, y0_alice=0.0, eff=0.01)
@example(mu0=10.0, eta_s=1.0, eta_a=1.0, y0_alice=1e-3, eff=1.0)
@example(mu0=0.01, eta_s=TINY, eta_a=TINY, y0_alice=TINY, eff=0.01)
@given(mu0=st.floats(0.01, 10.0), eta_s=st.floats(0.0, 1.0), eta_a=st.floats(0.0, 1.0),
       y0_alice=st.floats(0.0, 1e-3), eff=st.floats(0.01, 1.0))
def test_car_table_arm_marginals(mu0, eta_s, eta_a, y0_alice, eff):
    src = SourceParams(mu0=mu0, eta_s=eta_s, eta_a=eta_a, y0_alice=y0_alice)
    cells = _car_cells(src, eff)
    pmf = poisson_pmf(mu0)
    k = np.arange(pmf.n_max + 1)
    tol = pmf.tail_mass + 1e-12
    assert abs(cells.sum() - 1.0) <= 2e-12
    # arm a is the signal detector, arm b the heralding (idler) one
    assert abs(cells[2] + cells[3] - pmf.probs @ (1.0 - eta_s * eff) ** k) <= tol
    assert abs(cells[0] + cells[3] - (1.0 - y0_alice) * pmf.probs @ (1.0 - eta_a) ** k) <= tol


@settings(DERANDOMIZED, max_examples=200)
@example(mu0=0.01, eta_s=0.01, eta_a=0.01, y0_alice=0.0, eff=0.01)
@example(mu0=10.0, eta_s=1.0, eta_a=0.99, y0_alice=0.01, eff=1.0)
@example(mu0=0.01, eta_s=0.01, eta_a=0.99, y0_alice=0.01, eff=0.01)
@example(mu0=10.0, eta_s=1.0, eta_a=0.01, y0_alice=0.0, eff=1.0)
@given(mu0=st.floats(0.01, 10.0), eta_s=st.floats(0.01, 1.0), eta_a=st.floats(0.01, 0.99),
       y0_alice=st.floats(0.0, 0.01), eff=st.floats(0.01, 1.0))
def test_car_estimate_inverts_the_car_table(mu0, eta_s, eta_a, y0_alice, eff):
    # the table's expected fractions, read as the counts of a one-pulse run, give mu0 back
    a_alone, both, b_alone, _ = _car_cells(
        SourceParams(mu0=mu0, eta_s=eta_s, eta_a=eta_a, y0_alice=y0_alice), eff)
    res = CarResult(coincidences=both, accidentals=0, singles_signal=a_alone + both,
                    singles_idler=both + b_alone, n_pulses=1.0)
    assert abs(res.mu0(y0_alice) / mu0 - 1.0) <= 1e-6


# arm cells [a alone | both | b alone | neither]: the benchmark's hbt and car sources (1.5 %
# and 3.5 % of pulses clicking), a bright table, and one where every pulse clicks
DIM_HBT = _hbt_cells(thermal_pmf(0.1), 0.15)
DIM_CAR = _car_cells(SourceParams(mu0=0.1, eta_s=1.0, eta_a=0.2), 0.2)
BRIGHT = np.array([0.2, 0.3, 0.2, 0.3])
ALL_CLICK = np.array([0.25, 0.5, 0.25, 0.0])
arm_tables = st.sampled_from([DIM_HBT, DIM_CAR, BRIGHT, ALL_CLICK]) | st.lists(
    st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.0).map(
    lambda w: np.array(w) / sum(w))


@settings(DERANDOMIZED, max_examples=200)
@example(cells=DIM_HBT, max_delay=5, seed=0, block=1, size=1)
@example(cells=ALL_CLICK, max_delay=5, seed=SEED_MAX, block=2**40, size=5)
@example(cells=ALL_CLICK, max_delay=5, seed=0, block=1, size=6)
@example(cells=BRIGHT, max_delay=1, seed=0, block=7, size=3000)
@example(cells=ALL_CLICK, max_delay=1, seed=SEED_MAX, block=1, size=3000)
@example(cells=DIM_CAR, max_delay=1, seed=SEED_MAX, block=2**40, size=3000)
@given(cells=arm_tables, max_delay=st.sampled_from([1, 5]), seed=st.integers(0, 2**64 - 1),
       block=st.integers(1, 2**40), size=st.integers(1, 3000))
def test_block_coincidences_equal_a_dense_count(cells, max_delay, seed, block, size):
    # each pulse's cell, rebuilt from the block's draws as oracles.dense_cells does
    lo = block * _BLOCK
    _, places, block_cells = _block(cells, 3, seed, 0, lo, lo + size)
    dense = np.full(size, 3)
    dense[places] = block_cells
    a, b = dense < 2, (dense == 1) | (dense == 2)
    counts, tail, head = _coincidence_block(cells, seed, 0, max_delay, lo, lo + size)
    assert counts.tolist() == [a.sum(), b.sum(), *(
        np.count_nonzero(a[:size - k] & b[k:]) for k in range(max_delay + 1))]
    edge = max(size - max_delay, 0)
    assert tail.tolist() == (np.flatnonzero(a[edge:]) + edge - size).tolist()
    assert head.tolist() == np.flatnonzero(b[:max_delay]).tolist()


@settings(DERANDOMIZED, max_examples=200)
@example(mu0=0.05, eta_s=0.002, eta_a=0.005, log_eta=-4.0, y0=0.0, e_d=0.0)
@example(mu0=4.0, eta_s=1.0, eta_a=0.6, log_eta=0.0, y0=1e-4, e_d=0.05)
@example(mu0=0.05, eta_s=0.002, eta_a=0.005, log_eta=-4.0, y0=TINY, e_d=TINY)
@example(mu0=4.0, eta_s=1.0, eta_a=0.6, log_eta=0.0, y0=TINY, e_d=TINY)
@given(mu0=st.floats(0.05, 4.0), eta_s=st.floats(0.002, 1.0), eta_a=st.floats(0.005, 0.6),
       log_eta=st.floats(-4.0, 0.0), y0=st.floats(0.0, 1e-4), e_d=st.floats(0.0, 0.05))
def test_asymptotic_bounds_hold_on_the_criterion_5_box(mu0, eta_s, eta_a, log_eta, y0, e_d):
    # criterion 5's parameter box; at u_alpha = 0 the fluctuation shifts vanish
    src = SourceParams(mu0=mu0, eta_s=eta_s, eta_a=eta_a)
    link = LinkParams(eta=10.0**log_eta, y0=y0, e_d=e_d)
    analytic = gains_analytic(src, link)
    assume(analytic.q_n > 0.0 and analytic.q_t > 0.0)
    obs = ObservedStats.from_analytic(analytic, src, 10**12)
    bounds = fluctuation_bounds(obs, ProtocolParams(u_alpha=0.0), src)
    y1, _ = y1_lower(bounds.q_n_low, bounds.q_up, bounds.y0_up, src)
    assert y1 <= yield_n(1, link) * (1 + 1e-9)
    try:
        e1, _ = e1_upper(bounds.etqt_up, y1, src)
    except UnboundedErrorRate:
        return  # a yield bound clamped to zero bounds no error rate
    assert e1 >= error_n(1, link) * (1 - 1e-9)


@st.composite
def configs(draw):
    """A value for every config key, anywhere in its schema range (integers past 2**53 too)."""
    values = {}
    for key, (kind, bounds, _, _) in _SCHEMA.items():
        lo, hi = bounds or (-math.inf, math.inf)
        if kind is int:
            values[key] = draw(st.integers(int(lo) if math.isfinite(lo) else None,
                                           int(hi) if math.isfinite(hi) else None))
        else:
            values[key] = draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    return RunManifest(values=values)


def edge_config(end: int, zero: float = 0.0) -> RunManifest:
    """Every key at the low (``end=0``) or high (``end=1``) end of its schema range, a float
    range's end at 0 as ``zero``; an open end is the largest finite float or a 65-bit integer."""
    open_ends = {float: (-sys.float_info.max, sys.float_info.max), int: (-2**64 - 1, 2**64 + 1)}
    values = {}
    for key, (kind, bounds, _, _) in _SCHEMA.items():
        value = (bounds or (-math.inf, math.inf))[end]
        value = kind(value) if math.isfinite(value) else open_ends[kind][end]
        values[key] = zero if kind is float and value == 0.0 else value
    return RunManifest(values=values)


@settings(DERANDOMIZED, max_examples=150)
@example(manifest=edge_config(0))
@example(manifest=edge_config(0, zero=TINY))
@example(manifest=edge_config(1))
@given(manifest=configs())
def test_config_write_read_write_is_exact(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.cfg", Path(tmp) / "second.cfg"
        write_config(manifest, first)
        back = read_config(first)
        write_config(back, second)
        assert back == manifest
        assert second.read_bytes() == first.read_bytes()
