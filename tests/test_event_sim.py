"""Monte Carlo engine against the closed-form oracles, plus determinism."""

import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest

from pdqkd import event_sim
from pdqkd.decoy_estimator import ProtocolParams
from pdqkd.errors import ParameterError
from pdqkd.event_sim import (_CHUNK, EventLog, SimConfig, Tally, count_tally, end_to_end,
                             simulate_car, simulate_hbt, simulate_run)
from pdqkd.link_model import LinkParams, db_to_linear, gains_analytic
from pdqkd.photon_source import (SourceParams, calibrate_mu0_from_car,
                                 poisson_pmf, thermal_pmf)


def scaled_link(loss_db: float) -> LinkParams:
    return LinkParams(eta=db_to_linear(loss_db), y0=1.6e-6, e_d=0.012)


def pull(observed, expected, n):
    """Deviation in units of the binomial standard error."""
    se = math.sqrt(expected * (1.0 - expected) / n)
    return abs(observed - expected) / se


class TestSimulateRun:
    def test_dead_link_gives_no_detections(self):
        source = SourceParams(mu0=1.0, eta_s=0.3, eta_a=0.1)
        link = LinkParams(eta=0.0, y0=0.0, e_d=0.012)
        tally, _ = simulate_run(source, link, SimConfig(n_pulses=200_000, seed=1))
        assert tally.detections_n == 0 and tally.detections_t == 0

    def test_matches_analytic_within_4_sigma(self, source50):
        link = scaled_link(10.0)  # scaled-up rates for desk-size statistics
        config = SimConfig(n_pulses=10_000_000, seed=2024)
        tally, _ = simulate_run(source50, link, config)
        obs = tally.to_observed_stats()
        ao = gains_analytic(source50, link)
        n = config.n_pulses
        assert pull(obs.q_n, ao.q_n, n) < 4.0
        assert pull(obs.q_t, ao.q_t, n) < 4.0
        assert pull(obs.e_n, ao.e_n, tally.det_n_match) < 4.0
        assert pull(obs.e_t, ao.e_t, tally.det_t_match) < 4.0

    def test_trigger_fraction_within_4_sigma(self, source50, link50):
        config = SimConfig(n_pulses=5_000_000, seed=7)
        tally, _ = simulate_run(source50, link50, config)
        expected = 1.0 - math.exp(-source50.mu0 * source50.eta_a)
        assert pull(tally.n_triggers / tally.n_pulses, expected, config.n_pulses) < 4.0

    def test_sift_conservation(self, source50, link50):
        config = SimConfig(n_pulses=2_000_000, seed=3)
        tally, _ = simulate_run(source50, link50, config)
        assert pull(tally.n_sifted / tally.n_pulses, 0.5, config.n_pulses) < 4.0

    def test_double_click_rate_consistent_with_multi_survivors(self):
        # strong source + lossy threshold detector: doubles come from >=2
        # survivors (plus the tiny photon-and-dark cross term)
        source = SourceParams(mu0=2.0, eta_s=0.5, eta_a=0.1)
        link = LinkParams(eta=0.3, y0=1e-4, e_d=0.02)
        config = SimConfig(n_pulses=2_000_000, seed=11)
        tally, _ = simulate_run(source, link, config)
        pmf = poisson_pmf(source.mu0)
        ns = np.arange(pmf.n_max + 1, dtype=float)
        p = source.eta_s * link.eta
        p_none = np.power(1.0 - p, ns)
        p_one = np.where(ns > 0, ns * p * np.power(1.0 - p, np.maximum(ns - 1.0, 0.0)), 0.0)
        p_multi = float(pmf.probs @ (1.0 - p_none - p_one))
        p_photon = float(pmf.probs @ (1.0 - p_none))
        expected = p_multi + (p_photon - p_multi) * link.y0
        assert pull(tally.double_clicks / tally.n_pulses, expected, config.n_pulses) < 4.0

    def test_deterministic_across_workers_and_batching(self, source50, link50):
        base = SimConfig(n_pulses=1_500_000, seed=5)
        base_tally, base_log = simulate_run(source50, link50, base)
        assert len(base_log) > 0
        for workers, batch in ((4, 1_000_000), (2, 123_457), (3, 77_777)):
            with patch.object(event_sim, "_BATCH", batch):
                tally, log = simulate_run(source50, link50, base, workers=workers)
            assert tally == base_tally and log == base_log

    def test_dark_count_error_other_than_half_is_rejected(self, source50):
        # a dark-only detection gets a uniformly random bit, which is e0 = 1/2 and no other
        link = replace(scaled_link(60.0), e0=0.2)
        with pytest.raises(ParameterError, match="e0"):
            simulate_run(source50, link, SimConfig(n_pulses=1000))

    def test_event_log_round_trips_through_tally(self, source50):
        from pdqkd.dataio import tally_from_events
        link = scaled_link(6.0)
        config = SimConfig(n_pulses=50_000, seed=13)
        tally, log = simulate_run(source50, link, config)
        assert len(log) == tally.detections_n + tally.detections_t > 0
        assert sum(log.sent) == config.n_pulses
        assert tally_from_events(log) == tally

    def test_bad_workers_rejected(self, source50, link50):
        with pytest.raises(ParameterError):
            simulate_run(source50, link50, SimConfig(n_pulses=10, seed=0), workers=0)


class TestTally:
    def test_merge_is_field_wise_sum(self):
        # the engine folds its chunks by summing their sent counts and joining their rows;
        # the tally of the joined log is the field-wise sum of the parts' tallies
        source = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
        link = LinkParams(eta=0.5, y0=1e-2, e_d=0.05)
        parts = [simulate_run(source, link, SimConfig(n_pulses=20_000, seed=seed))[1]
                 for seed in (13, 14)]
        joined = EventLog(sent=tuple(map(sum, zip(*(log.sent for log in parts)))),
                          rows=np.concatenate([log.rows for log in parts]))
        a, b = map(count_tally, parts)
        total = count_tally(joined)
        for f in fields(Tally):
            assert getattr(a, f.name) > 0 and getattr(b, f.name) > 0
            assert getattr(total, f.name) == getattr(a, f.name) + getattr(b, f.name)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParameterError):
            Tally(n_pulses=1, err_n=2, det_n_match=1)

    def test_structure_checked(self):
        cells = dict(n_pulses=10, sent_n_match=4, sent_n_mismatch=3, sent_t_match=2,
                     sent_t_mismatch=1, det_n_match=2, det_t_match=1)
        Tally(**cells, double_clicks=3, dark_detections=3)
        with pytest.raises(ParameterError, match="sum to n_pulses"):
            Tally(n_pulses=10, sent_n_match=1000, det_n_match=5000)
        with pytest.raises(ParameterError, match="sum to n_pulses"):
            Tally(**{**cells, "n_pulses": 11})
        with pytest.raises(ParameterError, match="pulses sent in their cell"):
            Tally(**cells, det_t_mismatch=2)
        with pytest.raises(ParameterError, match="exceed detections"):
            Tally(**cells, double_clicks=4)
        with pytest.raises(ParameterError, match="exceed detections"):
            Tally(**cells, dark_detections=4)

    def test_observed_stats_rates(self):
        t = Tally(n_pulses=1000, sent_n_match=460, sent_n_mismatch=440,
                  sent_t_match=50, sent_t_mismatch=50, det_n_match=20,
                  det_n_mismatch=18, det_t_match=4, det_t_mismatch=2,
                  err_n=2, err_t=1)
        obs = t.to_observed_stats()
        assert obs.q_n == 38 / 1000 and obs.q_t == 6 / 1000
        assert obs.e_n == 2 / 20 and obs.e_t == 1 / 4
        assert obs.n_triggers == 100


class TestHbt:
    def test_poisson_g2_near_one(self):
        source = SourceParams(mu0=0.2, eta_s=1.0, eta_a=0.0)
        hist = simulate_hbt(source, 0.15, SimConfig(n_pulses=20_000_000, seed=21))
        assert hist.g2_zero == pytest.approx(1.0, abs=0.05)
        assert hist.g2_zero_sigma < 0.02

    def test_thermal_g2_near_two(self):
        source = SourceParams(mu0=0.1, eta_s=1.0, eta_a=0.0)
        hist = simulate_hbt(source, 0.15, SimConfig(n_pulses=20_000_000, seed=22),
                            pmf=thermal_pmf(0.1))
        assert hist.g2_zero == pytest.approx(2.0, abs=0.15)

    def test_off_zero_bins_flat(self):
        source = SourceParams(mu0=0.2, eta_s=1.0, eta_a=0.0)
        hist = simulate_hbt(source, 0.15, SimConfig(n_pulses=20_000_000, seed=23))
        norm = hist.n_pulses / (hist.singles_1 * float(hist.singles_2))
        for delay, cc in zip(hist.delays, hist.coincidences):
            if delay != 0:
                pairs_scale = hist.n_pulses / (hist.n_pulses - abs(delay))
                assert cc * norm * pairs_scale == pytest.approx(1.0, abs=0.06)

    def test_batch_independence(self, monkeypatch):
        source = SourceParams(mu0=0.3, eta_s=1.0, eta_a=0.0)
        config = SimConfig(n_pulses=300_000, seed=4)
        monkeypatch.setattr(event_sim, "_BATCH", 300_000)
        a = simulate_hbt(source, 0.2, config)
        monkeypatch.setattr(event_sim, "_BATCH", 12_345)
        assert simulate_hbt(source, 0.2, config, workers=3) == a

    def test_sigma_shrinks_with_counts(self):
        source = SourceParams(mu0=0.2, eta_s=1.0, eta_a=0.0)
        small = simulate_hbt(source, 0.15, SimConfig(n_pulses=1_000_000, seed=5))
        large = simulate_hbt(source, 0.15, SimConfig(n_pulses=16_000_000, seed=5))
        assert large.g2_zero_sigma < 0.5 * small.g2_zero_sigma


class TestCar:
    def test_inversion_round_trip(self):
        source = SourceParams(mu0=0.1, eta_s=1.0, eta_a=0.2)
        res = simulate_car(source, 0.2, SimConfig(n_pulses=20_000_000, seed=31))
        assert not res.is_lower_bound
        mu0_hat = calibrate_mu0_from_car(res.car)
        assert mu0_hat == pytest.approx(0.1, rel=0.05)

    def test_car_decreases_with_mu0(self):
        cars = []
        for i, mu0 in enumerate((0.05, 0.1, 0.2, 0.5, 2.0)):
            source = SourceParams(mu0=mu0, eta_s=1.0, eta_a=0.2)
            res = simulate_car(source, 0.2, SimConfig(n_pulses=2_000_000, seed=40 + i))
            cars.append(res.car)
        assert all(b < a for a, b in zip(cars, cars[1:]))

    def test_accidental_dominated_limit(self):
        source = SourceParams(mu0=20.0, eta_s=1.0, eta_a=0.2)
        res = simulate_car(source, 0.2, SimConfig(n_pulses=500_000, seed=50))
        assert res.car < 1.5

    def test_zero_accidentals_flagged(self):
        source = SourceParams(mu0=0.05, eta_s=1.0, eta_a=0.3)
        res = simulate_car(source, 0.3, SimConfig(n_pulses=300, seed=60))
        if res.accidentals == 0:
            assert res.is_lower_bound
        else:  # tiny run may still record one; the flag logic is what matters
            assert not res.is_lower_bound

    def test_batch_independence(self, monkeypatch):
        source = SourceParams(mu0=0.2, eta_s=1.0, eta_a=0.2)
        config = SimConfig(n_pulses=400_000, seed=8)
        monkeypatch.setattr(event_sim, "_BATCH", 400_000)
        a = simulate_car(source, 0.2, config)
        monkeypatch.setattr(event_sim, "_BATCH", 9_999)
        assert simulate_car(source, 0.2, config, workers=4) == a


class TestEndToEnd:
    def test_matches_analytic_scan_at_grid_points(self, source50):
        from pdqkd.decoy_estimator import scan_loss
        link = scaled_link(0.0)
        protocol = ProtocolParams(u_alpha=0.0)
        n_pulses = 10_000_000
        scan = scan_loss(source50, link, protocol, [6.0, 9.0, 12.0], n_pulses,
                         vacuum_credit=0.0)
        for point in scan.points:
            config = SimConfig(n_pulses=n_pulses, seed=int(101 + point.loss_db))
            result = end_to_end(source50, scaled_link(point.loss_db), protocol, config,
                                vacuum_credit=0.0)
            assert result.r == pytest.approx(point.result.r, rel=0.30)

    def test_zero_key_beyond_cutoff(self, source50):
        # beyond the cutoff the run yields either a clamped zero rate or, at
        # desk-scale counts, a degenerate-statistics signal; both mean no key
        from pdqkd.errors import DegenerateStatisticsError
        protocol = ProtocolParams(u_alpha=5.0)
        try:
            result = end_to_end(source50, scaled_link(35.0), protocol,
                                SimConfig(n_pulses=1_000_000, seed=90))
            assert result.key_bits == 0.0
        except DegenerateStatisticsError:
            pass

    def test_deterministic_in_workers(self, source50):
        protocol = ProtocolParams(u_alpha=5.0)
        config = SimConfig(n_pulses=2_000_000, seed=17)
        a = end_to_end(source50, scaled_link(10.0), protocol, config, workers=1)
        b = end_to_end(source50, scaled_link(10.0), protocol, config, workers=4)
        assert a.key_bits == b.key_bits and a.r == b.r


class TestChunking:
    """The engine works in chunks of ``_CHUNK`` pulses; no value may depend on their edges.

    A batch (``_BATCH``) of 7,777 pulses never reaches a chunk edge, so runs at that batch
    size are the reference.  The sources are bright, so detections and delayed coincidences
    fall on both sides of each of the three edges.
    """

    N = 3 * _CHUNK + 17
    CONFIGS = [(batch, workers) for batch in (_CHUNK - 1, _CHUNK + 1, N) for workers in (1, 2)]

    @pytest.fixture(scope="class")
    def reference(self):
        with patch.object(event_sim, "_BATCH", 7_777):
            return self._outputs(SimConfig(n_pulses=self.N, seed=31), workers=1)

    @staticmethod
    def _outputs(config: SimConfig, workers: int):
        bright = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
        hbt_source = SourceParams(mu0=1.0, eta_s=1.0, eta_a=0.0)
        return (simulate_run(bright, LinkParams(eta=0.5, y0=1e-3, e_d=0.02), config,
                             workers=workers),
                simulate_hbt(hbt_source, 0.8, config, pmf=thermal_pmf(1.0), workers=workers),
                simulate_car(bright, 0.5, config, workers=workers))

    def test_reference_crosses_edges_with_events(self, reference):
        (tally, _), hist, car = reference
        assert tally.detections_n + tally.detections_t > 10_000
        assert min(hist.coincidences) > 5_000 and car.accidentals > 500

    @pytest.mark.parametrize("batch, workers", CONFIGS)
    def test_outputs_independent_of_chunk_edges(self, reference, batch, workers, monkeypatch):
        monkeypatch.setattr(event_sim, "_BATCH", batch)
        assert self._outputs(SimConfig(n_pulses=self.N, seed=31), workers) == reference


def test_memory_does_not_grow_with_batch_size(paper50km):
    # A 4e6-pulse batch once held ~156 MiB of whole-batch temporaries.  In chunks a run
    # holds a few chunk-sized arrays (512 KiB each) and ~110 detection rows, about
    # 2.4 MiB; 16 MiB, fixed before the run, leaves room for allocator and numpy growth
    # while staying far below any whole-batch footprint (32 MB per 4e6-pulse array).
    manifest = paper50km.manifest()
    config = SimConfig(n_pulses=4_000_000, seed=7)
    tracemalloc.start()
    try:
        simulate_run(manifest.to_source_params(), manifest.to_link_params(), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_warmed_run_allocates_no_chunk_length_float_arrays(paper50km):
    # Every chunk-length 8-byte array (512 KiB) lives in the thread's reused workspace;
    # a chunk allocates only its boolean masks (64 KiB each) and detection rows, 0.56 MiB
    # at peak.  A threshold gathered into a fresh array instead would read 0.74 MiB.
    manifest = paper50km.manifest()
    source, link = manifest.to_source_params(), manifest.to_link_params()
    config = SimConfig(n_pulses=4_000_000, seed=7)
    simulate_run(source, link, replace(config, n_pulses=1_000))  # allocates the workspace
    tracemalloc.start()
    try:
        simulate_run(source, link, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * 2**20


def test_concurrent_runs_in_threads_reproduce_their_serial_results(source50, link50,
                                                                   monkeypatch):
    # Each thread reuses its own workspace; a workspace shared across threads would mix
    # the streams of the two runs.  Switching threads every 10 us interleaves their chunks.
    bright = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
    jobs = [(source50, link50, SimConfig(n_pulses=3 * _CHUNK + 17, seed=5)),
            (bright, LinkParams(eta=0.5, y0=1e-3, e_d=0.02),
             SimConfig(n_pulses=2 * _CHUNK + 3, seed=6))]

    def run(i):  # one run on the calling thread, one on two pool threads
        results[i] = simulate_run(*jobs[i], workers=1 + i)

    for batch in (_CHUNK - 1, _CHUNK + 1):
        monkeypatch.setattr(event_sim, "_BATCH", batch)
        serial = [simulate_run(*job) for job in jobs]
        results = [None] * len(jobs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
