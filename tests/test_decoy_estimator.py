"""Estimator: entropy, fluctuation bounds, single-photon bounds, key rates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import error_n, gain_series, yield_n
from pdqkd.decoy_estimator import (ObservedStats, ProtocolParams,
                                   binary_entropy, e1_upper,
                                   fluctuation_bounds, key_rate, scan_loss, y1_lower)
from pdqkd.errors import (DegenerateHeraldingError, DegenerateStatisticsError,
                          ParameterError, UnboundedErrorRate)
from pdqkd.link_model import LinkParams, gains_analytic
from pdqkd.photon_source import SourceParams
from pdqkd.presets import REFERENCE_RUNS

RUN50 = REFERENCE_RUNS["paper50km"]
N50 = RUN50.manifest()["n_pulses"]


def obs50():
    return RUN50.observed_stats()


def src50():
    return RUN50.manifest().to_source_params()


def proto50(**kw):
    return replace(RUN50.manifest().to_protocol_params(), **kw)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_edges_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_value(self):
        # oracle: H(1/4) = 2 - (3/4) log2 3, evaluated independently
        assert binary_entropy(0.25) == pytest.approx(2.0 - 0.75 * math.log2(3.0), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.0, 1.0, size=50):
            assert binary_entropy(float(x)) == pytest.approx(binary_entropy(float(1 - x)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)


class TestFluctuationBounds:
    def test_zero_u_gives_centrals(self):
        obs = obs50()
        b = fluctuation_bounds(obs, proto50(u_alpha=0.0), src50())
        assert b.q_n_low == obs.q_n
        assert b.q_up == obs.q
        assert b.etqt_up == obs.e_t * obs.q_t
        assert b.enqn_up == obs.e_n * obs.q_n

    def test_50km_q_n_low(self):
        # formula evaluated independently: N * Q_N ~ 1.458e6 events
        obs = obs50()
        n_events = obs.n_pulses * obs.q_n
        assert n_events == pytest.approx(1.458e6, rel=1e-9)
        expected = obs.q_n * (1.0 - 5.0 / math.sqrt(n_events))
        b = fluctuation_bounds(obs, proto50(), src50())
        assert b.q_n_low == pytest.approx(expected, rel=1e-12)

    def test_bounds_bracket_centrals(self):
        obs = obs50()
        b = fluctuation_bounds(obs, proto50(), src50())
        assert b.q_n_low < obs.q_n
        assert b.q_up > obs.q
        assert b.etqt_up > obs.e_t * obs.q_t
        assert b.enqn_up > obs.e_n * obs.q_n

    def test_y0_up_brackets_device_value(self):
        b = fluctuation_bounds(obs50(), proto50(), src50())
        assert 1.0e-6 < b.y0_up < 2.5e-6  # device calibration is 1.6e-6

    def test_zero_rate_raises_named(self):
        obs = ObservedStats(q_n=1e-5, q_t=0.0, e_n=0.04, e_t=0.0,
                            n_pulses=10**9)
        with pytest.raises(DegenerateStatisticsError) as err:
            fluctuation_bounds(obs, proto50(), src50())
        assert "E_T*Q_T" in str(err.value)

    @pytest.mark.parametrize("n_pulses", [0, 1.5, 6e10 + 0.5])
    def test_pulse_count_must_be_whole(self, n_pulses):
        # N is the sample size of every bound and the multiplier of the key
        with pytest.raises(ParameterError, match="n_pulses"):
            replace(obs50(), n_pulses=n_pulses)

    def test_trigger_count_cannot_exceed_pulse_count(self):
        assert replace(obs50(), n_pulses=10, n_triggers=10).n_triggers == 10
        with pytest.raises(ParameterError, match="n_triggers=11 with n_pulses=10"):
            replace(obs50(), n_pulses=10, n_triggers=11)


class TestY1Lower:
    def test_soundness_over_eta_grid(self):
        # oracle: true single-photon yield from the channel model
        src = src50()
        for eta in np.logspace(-4, 0, 25):
            link = LinkParams(eta=float(eta), y0=1.6e-6, e_d=0.012)
            ao = gains_analytic(src, link)
            obs = ObservedStats.from_analytic(ao, src, 10**9)
            b = fluctuation_bounds(obs, proto50(u_alpha=0.0), src)
            y1, _ = y1_lower(b.q_n_low, b.q_up, b.y0_up, src)
            assert y1 <= yield_n(1, link) * (1 + 1e-12)

    def test_50km_asymptotic_ratio(self):
        src = src50()
        obs = obs50()
        b = fluctuation_bounds(obs, proto50(u_alpha=0.0), src)
        y1, clamped = y1_lower(b.q_n_low, b.q_up, b.y0_up, src)
        y1_true = yield_n(1, RUN50.manifest().to_link_params())
        assert not clamped
        assert 0.7 <= y1 / y1_true <= 1.0

    def test_clamps_to_zero_below_floor(self):
        src = src50()
        # gains with almost no non-triggered detections force a negative bound
        y1, clamped = y1_lower(1e-9, 3e-5, 1e-5, src)
        assert y1 == 0.0 and clamped

    def test_degenerate_heralding(self):
        with pytest.raises(DegenerateHeraldingError):
            y1_lower(1e-5, 2e-5, 0.0, SourceParams(mu0=1.0, eta_s=0.1, eta_a=0.0))
        with pytest.raises(DegenerateHeraldingError):
            y1_lower(1e-5, 2e-5, 0.0, SourceParams(mu0=1.0, eta_s=0.1, eta_a=1.0))


class TestE1Upper:
    def test_zero_errors_give_zero(self):
        e1, clamped = e1_upper(0.0, 1e-3, src50())
        assert e1 == 0.0 and not clamped

    def test_50km_asymptotic_bracket(self):
        src = src50()
        ao = gains_analytic(src, RUN50.manifest().to_link_params())
        obs = ObservedStats.from_analytic(ao, src, RUN50.manifest()["n_pulses"])
        b = fluctuation_bounds(obs, proto50(u_alpha=0.0), src)
        y1, _ = y1_lower(b.q_n_low, b.q_up, b.y0_up, src)
        e1, _ = e1_upper(b.etqt_up, y1, src)
        assert 0.02 <= e1 <= 0.08  # hand evaluation sits near 0.037

    def test_halving_y1_doubles_e1(self):
        src = src50()
        e1_a, _ = e1_upper(7.65e-8, 6e-4, src)
        e1_b, _ = e1_upper(7.65e-8, 3e-4, src)
        assert e1_b == pytest.approx(2.0 * e1_a, rel=1e-12)

    def test_zero_y1_is_unbounded(self):
        with pytest.raises(UnboundedErrorRate):
            e1_upper(1e-8, 0.0, src50())

    def test_clamped_at_one(self):
        e1, clamped = e1_upper(0.5, 1e-6, src50())
        assert e1 == 1.0 and clamped


class TestSinglePhotonGains:
    # key_rate's branches hold Q_j1 = P_j(1) Y_1^L as q1
    def test_no_heralding_zeroes_trigger_gains(self):
        # key_rate refuses eta_a = 0, so the branch terms it multiplies are checked directly
        src = SourceParams(mu0=1.0, eta_s=0.1, eta_a=0.0)
        _, p_t0, _, p_t1 = src.branch_terms
        assert p_t1 == 0.0 and p_t0 == 0.0
        with pytest.raises(DegenerateHeraldingError):
            key_rate(obs50(), proto50(), src)

    def test_branch_sum_identity(self):
        src = src50()
        res = key_rate(obs50(), proto50(), src)
        assert res.y1_low > 0.0
        q1 = res.branch_n.q1 + res.branch_t.q1
        assert q1 == pytest.approx(src.mu * math.exp(-src.mu) * res.y1_low, rel=1e-12)

    def test_matches_gain_series_i1_terms(self):
        # cross-module identity: series terms at i=1 with Y replaced by Y1
        src = src50()
        res = key_rate(obs50(), proto50(), src)
        y1 = res.y1_low
        link = RUN50.manifest().to_link_params()
        q_n_terms, q_t_terms = gain_series(src, link)
        y1_link = yield_n(1, link)
        assert res.branch_n.q1 == pytest.approx(q_n_terms[1] * y1 / y1_link, abs=1e-12)
        assert res.branch_t.q1 == pytest.approx(q_t_terms[1] * y1 / y1_link, abs=1e-12)


class TestKeyRate:
    def test_50km_key_bits_band(self):
        result = key_rate(obs50(), proto50(), src50())
        assert 0.5 * 89.8e3 <= result.key_bits <= 1.5 * 89.8e3

    def test_high_error_clamps_to_zero(self):
        obs = ObservedStats(q_n=2.43e-5, q_t=2.5e-6, e_n=0.11, e_t=0.11,
                            n_pulses=6 * 10**10)
        result = key_rate(obs, proto50(), src50())
        assert result.r == 0.0
        assert "r_n_negative" in result.clamps and "r_t_negative" in result.clamps

    def test_asymptotic_beats_finite(self):
        fin = key_rate(obs50(), proto50(), src50())
        asy = key_rate(obs50(), proto50(u_alpha=0.0), src50())
        assert asy.key_bits > fin.key_bits

    def test_branch_split_of_e1(self):
        result = key_rate(obs50(), proto50(), src50())
        # non-triggered branch carries the fluctuation-raised bound
        assert result.branch_n.e1_up > result.branch_t.e1_up

    def test_r_is_branch_sum(self):
        result = key_rate(obs50(), proto50(), src50())
        assert result.r == result.r_n + result.r_t
        assert result.r_n >= 0.0 and result.r_t >= 0.0


class TestSoundnessGrid:
    """Asymptotic bound soundness on random passive-channel parameters."""

    def test_y1_and_e1_bounds_sound(self):
        rng = np.random.default_rng(20240717)
        checked = 0
        while checked < 250:
            src = SourceParams(mu0=float(rng.uniform(0.05, 4.0)),
                               eta_s=float(rng.uniform(0.002, 1.0)),
                               eta_a=float(rng.uniform(0.005, 0.6)))
            link = LinkParams(eta=float(10 ** rng.uniform(-4, 0)),
                              y0=float(rng.uniform(0.0, 1e-4)),
                              e_d=float(rng.uniform(0.0, 0.05)))
            ao = gains_analytic(src, link)
            if ao.q_t == 0.0 or ao.q_n == 0.0:
                continue
            obs = ObservedStats.from_analytic(ao, src, 10**12)
            b = fluctuation_bounds(obs, ProtocolParams(u_alpha=0.0), src)
            y1, _ = y1_lower(b.q_n_low, b.q_up, b.y0_up, src)
            y1_true = yield_n(1, link)
            assert y1 <= y1_true * (1 + 1e-9)
            if y1 > 0.0:
                e1, _ = e1_upper(b.etqt_up, y1, src)
                e1_true = error_n(1, link) if y1_true > 0 else 0.0
                assert e1 >= e1_true * (1 - 1e-9)
            checked += 1


class TestScanLoss:
    def test_single_point_matches_direct_estimate(self):
        src = src50()
        link = RUN50.manifest().to_link_params()
        proto = proto50()
        scan = scan_loss(src, link, proto, [0.0], N50)
        ao = gains_analytic(src, replace(link, eta=1.0))
        obs = ObservedStats.from_analytic(ao, src, N50)
        direct = key_rate(obs, proto, src)
        assert scan.points[0].result.r == pytest.approx(direct.r, rel=0.1)
        assert scan.points[0].result.r == direct.r  # identical by construction

    def test_rate_monotone_nonincreasing(self):
        src = src50()
        link = RUN50.manifest().to_link_params()
        scan = scan_loss(src, link, proto50(), list(np.arange(0.0, 35.5, 0.5)), N50)
        rates = [p.result.r for p in scan.points]
        assert all(b <= a + 1e-18 for a, b in zip(rates, rates[1:]))

    def test_inflection_located(self):
        src = src50()
        link = RUN50.manifest().to_link_params()
        scan = scan_loss(src, link, proto50(), list(np.arange(28.0, 35.0, 0.25)), N50)
        assert scan.r_n_cutoff_db is not None
        assert 31.2 <= scan.r_n_cutoff_db <= 32.2
        assert scan.r_cutoff_db > scan.r_n_cutoff_db  # T branch survives longer

    def test_grid_must_ascend(self):
        src = src50()
        link = RUN50.manifest().to_link_params()
        with pytest.raises(ParameterError):
            scan_loss(src, link, proto50(), [1.0, 1.0], N50)
        with pytest.raises(ParameterError):
            scan_loss(src, link, proto50(), [], N50)


class TestFiniteCoverage:
    """One-sided coverage of the finite-size yield bound at desk scale.

    Repetitions draw the sufficient statistics (a 6-cell multinomial over
    detection/error outcomes) from the closed-form probabilities; the engine
    itself is validated against the same closed forms elsewhere.  With the
    known device dark rate in the subtraction slot, the u_alpha = 1 bound
    must be violated at roughly the one-sided normal rate; with the fully
    estimated dark-rate upper bound it can only be rarer.  At u_alpha = 5
    violations must not occur at these sample counts.
    """

    MU0, ETA_S, ETA_A = 1.0, 0.02, 0.98
    ETA, Y0, E_D = 0.9, 1e-6, 1e-3
    N = 10**8

    @classmethod
    def _draw(cls, reps, seed):
        src = SourceParams(mu0=cls.MU0, eta_s=cls.ETA_S, eta_a=cls.ETA_A)
        link = LinkParams(eta=cls.ETA, y0=cls.Y0, e_d=cls.E_D)
        ao = gains_analytic(src, link)
        p_n = math.exp(-cls.MU0 * cls.ETA_A)
        enqn, etqt = ao.e_n * ao.q_n, ao.e_t * ao.q_t
        cells = np.array([p_n - ao.q_n, ao.q_n - enqn, enqn,
                          (1 - p_n) - ao.q_t, ao.q_t - etqt, etqt])
        counts = np.random.default_rng(seed).multinomial(cls.N, cells, size=reps)
        assert cls.N * ao.q_n > 10**4  # desk-scale count floor
        return src, link, counts

    def _violations(self, u, reps, seed, known_y0_sub):
        src, link, counts = self._draw(reps, seed)
        y1_true = yield_n(1, link)
        proto = ProtocolParams(u_alpha=u)
        viol = 0
        for c in counts:
            det_n, err_n = int(c[1] + c[2]), int(c[2])
            det_t, err_t = int(c[4] + c[5]), int(c[5])
            obs = ObservedStats(q_n=det_n / self.N, q_t=det_t / self.N,
                                e_n=err_n / det_n, e_t=err_t / det_t,
                                n_pulses=self.N)
            b = fluctuation_bounds(obs, proto, src)
            y0_sub = self.Y0 if known_y0_sub else b.y0_up
            y1, _ = y1_lower(b.q_n_low, b.q_up, y0_sub, src)
            if y1 > y1_true:
                viol += 1
        return viol / reps

    def test_u1_rate_near_one_sided_normal(self):
        rate = self._violations(u=1.0, reps=2000, seed=42, known_y0_sub=True)
        assert 0.11 <= rate <= 0.21

    def test_estimated_y0_is_more_conservative(self):
        rate = self._violations(u=1.0, reps=1000, seed=42, known_y0_sub=False)
        assert rate <= 0.21

    def test_u5_violations_vanish(self):
        assert self._violations(u=5.0, reps=1000, seed=42, known_y0_sub=True) == 0.0
        assert self._violations(u=5.0, reps=1000, seed=42, known_y0_sub=False) == 0.0
