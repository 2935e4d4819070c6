"""Property tests of the engine, file-format and estimator invariants (derandomized, so deterministic)."""

import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdqkd import event_sim
from pdqkd.dataio import (_SCHEMA, RunManifest, read_config, read_events, read_tally,
                          tally_from_events, write_config, write_events, write_tally)
from pdqkd.decoy_estimator import (ObservedStats, ProtocolParams, e1_upper, fluctuation_bounds,
                                   key_rate, y1_lower)
from pdqkd.errors import UnboundedErrorRate
from pdqkd.event_sim import (_GUIDE_BUCKETS, SimConfig, Tally, _pair_guide, _sample_pairs,
                             simulate_run)
from pdqkd.link_model import LinkParams, db_to_linear, error_n, gains_analytic, yield_n
from pdqkd.photon_source import (PhotonNumberPmf, SourceParams, multimode_thermal_pmf, poisson_pmf,
                                 thermal_pmf)
from pdqkd.presets import REFERENCE_RUNS
from pdqkd.rng import uniform_stream

# a bright, low-loss link, so that a few thousand pulses give many detections
SOURCE = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
LINK = LinkParams(eta=db_to_linear(3.0), y0=1e-3, e_d=0.02)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None)


@settings(DERANDOMIZED, max_examples=40)
@given(n=st.integers(1, 3000), batch=st.integers(1, 3000),
       workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**64 - 1))
def test_run_independent_of_batching_and_log_round_trips(n, batch, workers, seed):
    config = SimConfig(n_pulses=n, seed=seed)
    with patch.object(event_sim, "_BATCH", n):
        tally, log = simulate_run(SOURCE, LINK, config)
    with patch.object(event_sim, "_BATCH", batch):
        again = simulate_run(SOURCE, LINK, config, workers=workers)
    assert again == (tally, log)
    assert tally_from_events(log) == tally
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events(log, path)
        assert read_events(path) == log


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


@settings(DERANDOMIZED, max_examples=100)
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
    """Poisson, thermal and multimode thermal pmfs, and pmfs with zero entries (tied CDF steps)."""
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
    # rounding can leave the kept probabilities a few ulps above 1, so the tail is clamped at 0
    return PhotonNumberPmf(probs, pmf.n_max, max(0.0, 1.0 - math.fsum(probs.tolist())))


@settings(DERANDOMIZED, max_examples=150)
@given(pmf=pair_pmfs(), seed=st.integers(0, 2**64 - 1))
def test_guide_table_inversion_equals_searchsorted(pmf, seed):
    cdf = np.cumsum(pmf.probs)
    steps = cdf[(cdf >= 0.0) & (cdf < 1.0)]
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS,  # every bucket edge
        steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
        uniform_stream(seed, 0, 0, 20_000),
    ])
    u = u[u < 1.0]
    oracle = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    got = _sample_pairs(_pair_guide(pmf)[0], u)
    assert np.array_equal(got, oracle)


@settings(DERANDOMIZED, max_examples=200)
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
    for key, (kind, bounds, _) in _SCHEMA.items():
        lo, hi = bounds or (-math.inf, math.inf)
        if kind is int:
            values[key] = draw(st.integers(int(lo) if math.isfinite(lo) else None,
                                           int(hi) if math.isfinite(hi) else None))
        else:
            values[key] = draw(st.floats(lo, hi, allow_nan=False))
    return RunManifest(values=values)


@settings(DERANDOMIZED, max_examples=150)
@given(manifest=configs())
def test_config_write_read_write_is_exact(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.cfg", Path(tmp) / "second.cfg"
        write_config(manifest, first)
        back = read_config(first)
        write_config(back, second)
        assert back == manifest
        assert second.read_bytes() == first.read_bytes()
