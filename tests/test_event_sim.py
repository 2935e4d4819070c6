"""Monte Carlo engine against the closed-form oracles, plus determinism."""

import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import dense_cells, dense_coincidences
from scipy.stats import chi2

from pdqkd import event_sim
from pdqkd.decoy_estimator import ProtocolParams
from pdqkd.errors import ParameterError
from pdqkd.event_sim import (_CLICKED, EVENT_DTYPE, CarResult, EventLog, SimConfig, Tally,
                             end_to_end, simulate_car, simulate_hbt, simulate_run,
                             simulate_tally)
from pdqkd.link_model import LinkParams, db_to_linear, gains_analytic
from pdqkd.photon_source import SourceParams, multimode_thermal_pmf, poisson_pmf, thermal_pmf
from pdqkd.presets import PRESET_NAMES, preset_manifest


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
        sifted = tally.sent_n_match + tally.sent_t_match
        assert pull(sifted / tally.n_pulses, 0.5, config.n_pulses) < 4.0

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

    def test_deterministic_across_workers_and_batching(self, source50, link50, monkeypatch):
        # the block size sets the values, as the seed does; the workers that share the
        # blocks do not
        config = SimConfig(n_pulses=1_500_000, seed=5)
        for block in (event_sim._BLOCK, 123_457, 77_777):
            monkeypatch.setattr(event_sim, "_BLOCK", block)
            base_tally, base_log = simulate_run(source50, link50, config)
            assert len(base_log) > 0
            for workers in (2, 3, 4):
                tally, log = simulate_run(source50, link50, config, workers=workers)
                assert tally == base_tally and log == base_log

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
        # the engine folds its blocks by summing their sent counts and joining their rows;
        # the tally of the joined log is the field-wise sum of the parts' tallies
        source = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
        link = LinkParams(eta=0.5, y0=1e-2, e_d=0.05)
        parts = [simulate_run(source, link, SimConfig(n_pulses=20_000, seed=seed))[1]
                 for seed in (13, 14)]
        rows = np.concatenate([log.rows for log in parts])
        rows["pulse_id"][len(parts[0]):] += 20_000  # the second run follows the first
        joined = EventLog(sent=tuple(map(sum, zip(*(log.sent for log in parts)))), rows=rows)
        a, b = (log.tally for log in parts)
        total = joined.tally
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
        hist = simulate_hbt(poisson_pmf(0.2), 0.15, SimConfig(n_pulses=20_000_000, seed=21))
        assert hist.g2_zero == pytest.approx(1.0, abs=0.05)
        assert hist.g2_zero_sigma < 0.02

    def test_thermal_g2_near_two(self):
        hist = simulate_hbt(thermal_pmf(0.1), 0.15, SimConfig(n_pulses=20_000_000, seed=22))
        assert hist.g2_zero == pytest.approx(2.0, abs=0.15)

    def test_off_zero_bins_flat(self):
        hist = simulate_hbt(poisson_pmf(0.2), 0.15, SimConfig(n_pulses=20_000_000, seed=23))
        norm = hist.n_pulses / (hist.singles_1 * float(hist.singles_2))
        for delay, cc in zip(hist.delays, hist.coincidences):
            if delay != 0:
                pairs_scale = hist.n_pulses / (hist.n_pulses - abs(delay))
                assert cc * norm * pairs_scale == pytest.approx(1.0, abs=0.06)

    def test_batch_independence(self, monkeypatch):
        # 25 blocks on one worker or shared by three
        pmf = poisson_pmf(0.3)
        config = SimConfig(n_pulses=300_000, seed=4)
        monkeypatch.setattr(event_sim, "_BLOCK", 12_345)
        assert simulate_hbt(pmf, 0.2, config, workers=3) == simulate_hbt(pmf, 0.2, config)

    def test_sigma_shrinks_with_counts(self):
        pmf = poisson_pmf(0.2)
        small = simulate_hbt(pmf, 0.15, SimConfig(n_pulses=1_000_000, seed=5))
        large = simulate_hbt(pmf, 0.15, SimConfig(n_pulses=16_000_000, seed=5))
        assert large.g2_zero_sigma < 0.5 * small.g2_zero_sigma

    def test_empty_zero_delay_bin_has_an_uncertainty(self):
        # the sigma counts an empty zero-delay bin as one coincidence, not as an exact 0
        hist = simulate_hbt(multimode_thermal_pmf(0.1, 10), 0.15,
                            SimConfig(n_pulses=10_000, seed=0))
        assert hist.coincidences[5] == 0 and sum(hist.coincidences) > 0
        assert hist.g2_zero == 0.0 and hist.g2_zero_sigma > 0.0


class TestCar:
    def test_inversion_round_trip(self):
        source = SourceParams(mu0=0.1, eta_s=1.0, eta_a=0.2)
        res = simulate_car(source, 0.2, SimConfig(n_pulses=20_000_000, seed=31))
        assert not res.is_lower_bound
        mu0_hat = res.mu0(source.y0_alice)
        assert mu0_hat == pytest.approx(0.1, rel=0.05)

    def test_counts_give_a_preset_mu0(self, source50):
        # paper50km sends 2.33 pairs a pulse; there the first-order 1 / (CAR - 1) reads 3.7 %
        # high on the table's own expected counts, and the exact inversion has no such bias
        res = simulate_car(source50, 0.15, SimConfig(n_pulses=200_000_000, seed=1), workers=2)
        assert res.mu0(source50.y0_alice) == pytest.approx(source50.mu0, rel=0.03)

    @pytest.mark.parametrize("counts", [(0, 0, 0, 5, 1000), (0, 0, 5, 0, 1000),
                                        (5, 0, 1000, 5, 1000), (5, 0, 5, 1000, 1000),
                                        (250, 0, 500, 500, 1000), (0, 0, 5, 5, 1000)],
                             ids=["signal silent", "idler silent", "signal always",
                                  "idler always", "chance coincidences", "no coincidences"])
    def test_estimate_undefined_without_a_correlation_to_invert(self, counts):
        res = CarResult(*counts)
        assert res.mu0(0.0) is None and res.car == counts[0] / max(counts[1], 1)

    def test_estimate_undefined_at_the_idler_dark_count(self):
        # 5 idler clicks in 1,000 pulses are all the heralding detector's dark count of 0.5 %
        res = CarResult(coincidences=2, accidentals=0, singles_signal=10, singles_idler=5,
                        n_pulses=1000)
        assert res.mu0(0.004) > 0.0 and res.mu0(0.005) is None

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
        # 41 blocks on one worker or shared by four
        source = SourceParams(mu0=0.2, eta_s=1.0, eta_a=0.2)
        config = SimConfig(n_pulses=400_000, seed=8)
        monkeypatch.setattr(event_sim, "_BLOCK", 9_999)
        assert simulate_car(source, 0.2, config, workers=4) == simulate_car(source, 0.2, config)


class TestEndToEnd:
    def test_matches_analytic_scan_at_grid_points(self, source50):
        from pdqkd.decoy_estimator import scan_loss
        link = scaled_link(0.0)
        protocol = ProtocolParams(u_alpha=0.0)
        n_pulses = 10_000_000
        scan = scan_loss(source50, link, protocol, [6.0, 9.0, 12.0], n_pulses)
        for point in scan.points:
            config = SimConfig(n_pulses=n_pulses, seed=int(101 + point.loss_db))
            result = end_to_end(source50, scaled_link(point.loss_db), protocol, config)
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
        # end_to_end draws on one thread; its key is that of a four-worker run's tally
        from pdqkd.decoy_estimator import key_rate
        protocol = ProtocolParams(u_alpha=5.0)
        config = SimConfig(n_pulses=2_000_000, seed=17)
        tally, _ = simulate_run(source50, scaled_link(10.0), config, workers=4)
        a = end_to_end(source50, scaled_link(10.0), protocol, config)
        b = key_rate(tally.to_observed_stats(), protocol, source50)
        assert a.key_bits == b.key_bits and a.r == b.r

    def test_estimates_the_tally_of_the_event_log_run(self, source50):
        # end_to_end draws the tally alone; its result is that of the event log's tally
        from pdqkd.decoy_estimator import key_rate
        protocol = ProtocolParams(u_alpha=5.0)
        config = SimConfig(n_pulses=3_000_000, seed=17)
        link = scaled_link(6.0)
        tally, _ = simulate_run(source50, link, config)
        assert end_to_end(source50, link, protocol, config) == key_rate(
            tally.to_observed_stats(), protocol, source50)


class TestChunking:
    """The engine cuts a run into blocks of ``_BLOCK`` pulses; no count may depend on their edges.

    The oracles rebuild every pulse's cell from the same block draws and count the run pulse
    by pulse, with no edges.  Blocks of 1,000 pulses put 196 edges in the run; blocks of
    65,535, 65,537 and 65,541 pulses leave a last block of 20, 14 and 2 pulses, the last
    shorter than the largest delay; one block of the whole run has no edge.  The sources are
    bright, so detections and delayed coincidences fall on both sides of the edges.
    """

    N = 196_625
    BRIGHT = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
    LINK = LinkParams(eta=0.5, y0=1e-3, e_d=0.02)
    CONFIGS = [(block, workers) for block in (1_000, 65_535, 65_537, 65_541, N)
               for workers in (1, 2)]

    def _outputs(self, workers: int):
        config = SimConfig(n_pulses=self.N, seed=31)
        return (simulate_run(self.BRIGHT, self.LINK, config, workers=workers),
                simulate_hbt(thermal_pmf(1.0), 0.8, config, workers=workers),
                simulate_car(self.BRIGHT, 0.5, config, workers=workers))

    def _dense(self, arm_cells, slot, max_delay):
        return dense_coincidences(arm_cells, 31, slot, self.N, max_delay)

    def test_reference_crosses_edges_with_events(self, monkeypatch):
        monkeypatch.setattr(event_sim, "_BLOCK", 1_000)
        (tally, _), hist, car = self._outputs(workers=1)
        assert tally.detections_n + tally.detections_t > 10_000
        assert min(hist.coincidences) > 5_000 and car.accidentals > 500
        # pairs that cross an edge, at each delay of the histogram
        cells = dense_cells(event_sim._hbt_cells(thermal_pmf(1.0), 0.8), 3, 31,
                            event_sim._SLOT_HBT, self.N)
        a, b = cells < 2, (cells == 1) | (cells == 2)
        for k in range(1, 6):
            assert sum(np.count_nonzero(a[e - k:e] & b[e:e + k])
                       for e in range(1_000, self.N, 1_000)) > 0

    @pytest.mark.parametrize("block, workers", CONFIGS)
    def test_outputs_independent_of_chunk_edges(self, block, workers, monkeypatch):
        monkeypatch.setattr(event_sim, "_BLOCK", block)
        (tally, log), hist, car = self._outputs(workers)
        probs, cell_rows, _ = event_sim._outcome_table(self.BRIGHT, self.LINK)
        cells = dense_cells(probs, _CLICKED, 31, event_sim._SLOT_RUN, self.N)
        clicked = np.flatnonzero(cells < _CLICKED)
        want = cell_rows[cells[clicked]]
        want["pulse_id"] = clicked
        assert np.array_equal(log.rows, want) and sum(log.sent) == self.N
        assert log.tally == tally
        n1, n2, *cc = self._dense(event_sim._hbt_cells(thermal_pmf(1.0), 0.8),
                                  event_sim._SLOT_HBT, 5)
        assert (hist.singles_1, hist.singles_2, hist.coincidences) == (
            n1, n2, tuple(cc[abs(k)] for k in hist.delays))
        singles_s, singles_i, coinc, acc = self._dense(event_sim._car_cells(self.BRIGHT, 0.5),
                                                       event_sim._SLOT_CAR, 1)
        assert (car.singles_signal, car.singles_idler, car.coincidences, car.accidentals) == (
            singles_s, singles_i, coinc, acc)

    @pytest.mark.parametrize("block", [1_000, 65_535, 65_537, N])
    def test_tally_alone_equals_the_event_logs_tally(self, block, monkeypatch):
        # the same block draws, stopped after the cell counts, at run lengths on each side of
        # a block edge, on every preset and the bright source, against a log run on one
        # worker and on two
        monkeypatch.setattr(event_sim, "_BLOCK", block)
        runs = [(self.BRIGHT, self.LINK)] + [
            (preset_manifest(name).to_source_params(), preset_manifest(name).to_link_params())
            for name in PRESET_NAMES]
        for (source, link), n, workers in itertools.product(
                runs, (1, 5, block - 1, block, block + 1, 3 * block + 7), (1, 2)):
            config = SimConfig(n_pulses=n, seed=n % 3)
            tally = simulate_tally(source, link, config)
            assert tally == simulate_run(source, link, config, workers=workers)[0], (n, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_are_handed_out_as_they_are_taken(self, workers, monkeypatch):
        # a run of 10,000 blocks: its first three come before more than one window of blocks
        # is worked, so what the run holds does not grow with its blocks
        monkeypatch.setattr(event_sim, "_BLOCK", 10)
        worked = []

        def work(lo, hi):
            worked.append(lo)
            return lo, hi

        blocks = event_sim._map_blocks(work, SimConfig(n_pulses=100_000), workers)
        assert list(itertools.islice(blocks, 3)) == [(0, 10), (10, 20), (20, 30)]
        assert len(worked) <= event_sim._WINDOW * workers
        blocks.close()

    @pytest.mark.parametrize("cores, threads", [(4, 4), (64, 20), (None, 1)])
    def test_pool_starts_at_most_one_thread_per_block_and_core(self, cores, threads,
                                                              monkeypatch):
        # a million workers on a run of 20 blocks: a stub pool records the size asked of it
        # and runs the blocks in order on this thread, so no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(event_sim, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(event_sim, "_BLOCK", 10_000)
        monkeypatch.setattr(event_sim.os, "cpu_count", lambda: cores)
        outputs = self._outputs(workers=10**6)
        assert sizes == ([threads] * 3 if threads > 1 else [])
        assert outputs == self._outputs(workers=1)


def test_cell_counts_of_a_1e10_pulse_run_fit_the_outcome_table(paper50km):
    # One run at the paper's scale.  Each row is mapped back to its cell of the table, and the
    # pulses sent per trigger/basis cell give the four no-click cells.  Cells expected to hold
    # fewer than 5 pulses are pooled into one bin; the threshold, the chi-square quantile at
    # p = 1e-6 for the bins left, depends on the table alone and is fixed before the run.
    manifest = paper50km.manifest()
    source, link = manifest.to_source_params(), manifest.to_link_params()
    n = 10**10
    probs, cell_rows, cell = event_sim._outcome_table(source, link)
    expected = n * probs
    small = expected < 5.0
    threshold = chi2.isf(1e-6, np.count_nonzero(~small))  # bins: the large cells and the pool

    _, log = simulate_run(source, link, SimConfig(n_pulses=n, seed=2026))
    flags = EVENT_DTYPE.names[1:]

    def key(rows):
        return sum(rows[name].astype(np.int64) << i for i, name in enumerate(flags))

    order = np.argsort(key(cell_rows))
    clicked = order[np.searchsorted(key(cell_rows)[order], key(log.rows))]
    assert np.array_equal(cell_rows[clicked][list(flags)], log.rows[list(flags)])
    observed = np.concatenate([np.bincount(clicked, minlength=_CLICKED),
                               np.array(log.sent) - np.bincount(cell[clicked], minlength=4)])
    assert observed.sum() == n
    bins_o = np.append(observed[~small], observed[small].sum())
    bins_e = np.append(expected[~small], expected[small].sum())
    assert np.sum((bins_o - bins_e) ** 2 / bins_e) < threshold


def test_memory_does_not_grow_with_batch_size(paper50km):
    # A 4e6-pulse batch once held ~156 MiB of whole-batch temporaries.  A block draws only
    # its cell counts and its clicked pulses, ~30 at 50 km, so a run holds a few KiB; 16 MiB,
    # fixed before the run, leaves room for allocator and numpy growth while staying far
    # below any whole-batch footprint (32 MB per 4e6-pulse array).
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
    # No array of a block's length is made: a block allocates its 100 cell counts, its
    # clicked pulses' places and cells, and their rows.  One float64 array per pulse of a
    # block would read 8 MiB, one boolean mask 1 MiB.
    manifest = paper50km.manifest()
    source, link = manifest.to_source_params(), manifest.to_link_params()
    config = SimConfig(n_pulses=4_000_000, seed=7)
    simulate_run(source, link, replace(config, n_pulses=1_000))  # one-off imports and caches
    tracemalloc.start()
    try:
        simulate_run(source, link, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * 2**20


def test_virtual_experiments_allocate_no_block_length_arrays():
    # The benchmark's sources: a thermal beam splitter with 1.5 % of its pulses clicking and
    # a CAR run with 3.5 %.  A block holds its clicked places, a hash set to draw them and a
    # few masks and gaps over the places, 1.2 and 1.0 MiB at peak; one float64 array per pulse
    # of a block would add 8 MiB.
    config = SimConfig(n_pulses=4_000_000, seed=7)
    runs = (lambda: simulate_hbt(thermal_pmf(0.1), 0.15, config),
            lambda: simulate_car(SourceParams(mu0=0.1, eta_s=1.0, eta_a=0.2), 0.2, config))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_concurrent_runs_in_threads_reproduce_their_serial_results(source50, link50,
                                                                   monkeypatch):
    # Each thread sets its own generator to each block's state; a generator shared across
    # threads would mix the draws of the two runs.  Switching threads every 10 us interleaves
    # their blocks.
    bright = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
    jobs = [(source50, link50, SimConfig(n_pulses=196_625, seed=5)),
            (bright, LinkParams(eta=0.5, y0=1e-3, e_d=0.02), SimConfig(n_pulses=131_075, seed=6))]

    def run(i):  # one run on the calling thread, one on two pool threads
        results[i] = simulate_run(*jobs[i], workers=1 + i)

    for block in (4_099, 65_537):
        monkeypatch.setattr(event_sim, "_BLOCK", block)
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
