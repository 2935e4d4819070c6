"""Photon statistics: pmf construction, heralding laws, calibrations."""

import math
from functools import partial

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import (g2_of_pmf, joint_signal_pmf, joint_signal_pmf_series, pmf_mean,
                     support_mass)
from pdqkd.errors import ParameterError, TruncationError, UndefinedRatioError
from pdqkd.event_sim import _pulse_tables
from pdqkd.photon_source import (DEFAULT_TAIL_CUTOFF, MAX_N_CAP, PhotonNumberPmf,
                                 SourceParams, calibrate_eta_a, multimode_thermal_pmf,
                                 poisson_pmf, thermal_pmf)
from pdqkd.presets import REFERENCE_RUNS

ETA_S_192DB = 0.012022644346174132  # 10^(-19.2/10)


def tv_distance(a: PhotonNumberPmf, b: PhotonNumberPmf) -> float:
    n = max(a.n_max, b.n_max) + 1
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.n_max + 1] = a.probs
    pb[: b.n_max + 1] = b.probs
    return 0.5 * (np.abs(pa - pb).sum() + a.tail_mass + b.tail_mass)


MULTIMODE_3 = partial(multimode_thermal_pmf, k_modes=3)


@pytest.mark.parametrize("make", [poisson_pmf, thermal_pmf, MULTIMODE_3],
                         ids=["poisson", "thermal", "multimode"])
def test_constructors_check_mu_and_n_max_alike(make):
    # every constructor picks its own order: none takes an n_max, and vacuum is the point mass
    with pytest.raises(TypeError):
        make(0.5, n_max=20)
    assert make(0.0).probs.tolist() == [1.0]
    for mu in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            make(mu)


PRESET_MU0 = 0.028 / ETA_S_192DB  # 2.329, the presets' pump-side mean


@pytest.mark.parametrize("make", [poisson_pmf, thermal_pmf, MULTIMODE_3,
                                  lambda mu: joint_signal_pmf(SourceParams(mu, 1.0, 0.0295), "T")],
                         ids=["poisson", "thermal", "multimode", "joint"])
def test_constructors_reach_the_cutoff_or_raise(make):
    for mu in (PRESET_MU0, 0.1):
        pmf = make(mu)
        assert pmf.tail_mass <= DEFAULT_TAIL_CUTOFF
        mass = getattr(pmf, "norm", 1.0)  # a joint law sums to its branch probability
        assert math.fsum(pmf.probs.tolist()) + pmf.tail_mass == pytest.approx(mass, abs=1e-12)
    for mu in (400.0, 1e17):  # at 1e17, mu/(1+mu) rounds to 1
        with pytest.raises(TruncationError):
            make(mu)


class TestPoissonPmf:
    def test_vacuum(self):
        pmf = poisson_pmf(0.0)
        assert pmf.probs[0] == 1.0
        assert pmf.tail_mass == 0.0

    def test_paper_mu_50km(self):
        # closed-form p0 at the 50 km operating point
        pmf = poisson_pmf(0.028)
        assert pmf.probs[0] == pytest.approx(math.exp(-0.028), rel=1e-14)

    def test_mean_matches_input(self):
        mu = 0.028 / ETA_S_192DB  # 2.329, the pump-side mean
        pmf = poisson_pmf(mu)
        assert pmf_mean(pmf) == pytest.approx(mu, abs=1e-9)

    def test_negative_mu_rejected(self):
        with pytest.raises(ParameterError):
            poisson_pmf(-0.1)

    def test_truncation_error_above_cap(self):
        with pytest.raises(TruncationError):
            poisson_pmf(400.0)  # tail cannot reach 1e-12 by n=512


class TestThermalPmf:
    def test_vacuum(self):
        assert thermal_pmf(0.0).probs[0] == 1.0

    def test_closed_form_mu1(self):
        pmf = thermal_pmf(1.0)
        assert pmf.probs[0] == pytest.approx(0.5, rel=1e-14)
        assert pmf.probs[1] == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("mu", [0.05, 0.4, 1.0, 3.7])
    def test_g2_is_2(self, mu):
        assert g2_of_pmf(thermal_pmf(mu)) == pytest.approx(2.0, abs=1e-6)

    def test_negative_mu_rejected(self):
        with pytest.raises(ParameterError):
            thermal_pmf(-1e-9)


class TestMultimodeThermalPmf:
    def test_single_mode_identical_to_thermal(self):
        a = multimode_thermal_pmf(0.8, 1)
        b = thermal_pmf(0.8)
        assert a.n_max == b.n_max
        assert np.allclose(a.probs, b.probs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_explicit_convolution(self, k):
        # oracle: literal K-fold convolution of the single-mode law, over the support the
        # two pmfs' own orders share
        mu = 1.3
        single = thermal_pmf(mu / k)
        conv = single.probs
        for _ in range(k - 1):
            conv = np.convolve(conv, single.probs)
        nb = multimode_thermal_pmf(mu, k)
        n = min(nb.n_max, single.n_max) + 1
        assert np.allclose(nb.probs[:n], conv[:n], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 10, 350])
    def test_mean_and_g2(self, k):
        mu = 2.33
        pmf = multimode_thermal_pmf(mu, k)
        assert pmf_mean(pmf) == pytest.approx(mu, rel=1e-9)
        assert g2_of_pmf(pmf) == pytest.approx(1.0 + 1.0 / k, abs=1e-6)

    def test_tv_to_poisson_decreases_with_k(self):
        mu = 2.33
        target = poisson_pmf(mu)
        tvs = [tv_distance(multimode_thermal_pmf(mu, k), target)
               for k in (1, 2, 5, 10, 50, 350)]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))

    def test_k350_closer_than_k10(self):
        mu = 2.33
        target = poisson_pmf(mu)
        assert (tv_distance(multimode_thermal_pmf(mu, 350), target)
                < tv_distance(multimode_thermal_pmf(mu, 10), target))

    @pytest.mark.parametrize("k", [10**4, 10**5, 10**8])
    def test_many_modes_balance_and_approach_poisson(self, k):
        # the log-gamma difference gammaln(n + K) - gammaln(K) cancelled here and raised
        mu = 0.5
        pmf = multimode_thermal_pmf(mu, k)
        assert math.fsum(pmf.probs.tolist()) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert tv_distance(pmf, poisson_pmf(mu)) < mu ** 2 / k

    def test_zero_modes_rejected(self):
        with pytest.raises(ParameterError):
            multimode_thermal_pmf(1.0, 0)


def gammaln_reference(log_pmf, start):
    """The truncated pmf ``exp(log_pmf(k))`` with log n! from ``scipy.special.gammaln``, cut
    by the library's rule: the first order of ``start, 2 start, ..`` (capped at MAX_N_CAP)
    whose tail is within the cutoff.  ``None`` when the cap leaves the tail above it."""
    n = start
    while True:
        k = np.arange(n + 1, dtype=np.float64)
        probs = np.exp(log_pmf(k, gammaln(k + 1.0)))
        tail = max(0.0, 1.0 - math.fsum(probs.tolist()))
        if tail <= DEFAULT_TAIL_CUTOFF:
            return probs, tail
        if n == MAX_N_CAP:
            return None
        n = min(2 * n, MAX_N_CAP)


LOG_FACTORIAL_MUS = sorted([run.mu0 for run in REFERENCE_RUNS.values()]
                           + [1e-3, 0.1, 10.0, 100.0])


class TestLogFactorialAccuracy:
    """The standard-library log n! against scipy's ``gammaln``: the same truncation, and every
    entry within 1e-12 relative.  The two differ in their last bits: on this grid by at most
    4.5e-13, at mu = 100 near n = 256, where log n! is about 1,170."""

    def check(self, make, reference):
        if reference is None:
            with pytest.raises(TruncationError):
                make()
            return
        ref, ref_tail = reference
        pmf = make()
        assert pmf.n_max == ref.size - 1
        np.testing.assert_allclose(pmf.probs, ref, rtol=1e-12, atol=0.0)
        # entries within 1e-12 relative move their sum, and so the tail, by 1e-12 at most
        assert abs(pmf.tail_mass - ref_tail) <= 1e-12 * math.fsum(ref.tolist())

    @pytest.mark.parametrize("mu", LOG_FACTORIAL_MUS)
    def test_poisson(self, mu):
        self.check(lambda: poisson_pmf(mu), gammaln_reference(
            lambda k, log_fact: k * math.log(mu) - mu - log_fact, 8))

    @pytest.mark.parametrize("k_modes", [2, 10, 350])
    @pytest.mark.parametrize("mu", LOG_FACTORIAL_MUS)
    def test_multimode(self, mu, k_modes):
        def log_pmf(k, log_fact):
            rising = np.concatenate(([0.0], np.cumsum(np.log1p(k[:-1] / k_modes))))
            return (k * math.log(mu) - log_fact + rising
                    - (k_modes + k) * math.log1p(mu / k_modes))

        self.check(lambda: multimode_thermal_pmf(mu, k_modes), gammaln_reference(log_pmf, 16))


class TestPmfInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_pmfs_normalized(self, seed):
        rng = np.random.default_rng(seed)
        mu = float(rng.uniform(0.0, 8.0))
        k = int(rng.integers(1, 40))
        for pmf in (poisson_pmf(mu), thermal_pmf(mu), multimode_thermal_pmf(mu, k)):
            assert np.all(pmf.probs >= 0.0)
            assert math.fsum(pmf.probs.tolist()) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)
            assert pmf.tail_mass < 1e-12

    def test_unbalanced_pmf_rejected(self):
        with pytest.raises(ParameterError):
            PhotonNumberPmf(np.array([0.5, 0.4]), 0.0)
        with pytest.raises(ParameterError, match="tail_mass"):
            PhotonNumberPmf(np.array([0.5, 0.5]), -2e-12)

    def test_probs_must_be_a_non_empty_vector(self):
        # n_max is the length of probs less one, so it cannot disagree with it
        for probs in (np.array([]), np.array([[0.5, 0.5]])):
            with pytest.raises(ParameterError, match="non-empty vector"):
                PhotonNumberPmf(probs, 1.0 - probs.sum())
        assert PhotonNumberPmf(np.array([0.5, 0.5]), 0.0).n_max == 1

    def test_rebuilt_poisson_with_rounded_tail_is_accepted(self):
        # a Poisson pmf's probabilities can sum to a few ulps above 1 (106 of these 2,000
        # mu did, from mu = 7.3913 on), so a tail of 1 - sum is slightly negative
        negative = 0
        for mu in np.linspace(0.01, 10.0, 2000):
            pmf = poisson_pmf(float(mu))
            tail = 1.0 - math.fsum(pmf.probs.tolist())
            negative += tail < 0.0
            rebuilt = PhotonNumberPmf(pmf.probs, tail)
            assert rebuilt.tail_mass == pmf.tail_mass >= 0.0
        assert negative > 0  # the scan reaches the rounded-below-zero tails


class TestTriggerProb:
    """The engine's no-trigger probability per pair count, ``(1 - y0_alice)(1 - eta_a)^n``."""

    @staticmethod
    def no_trigger(n, s: SourceParams):
        return _pulse_tables(np.asarray(n, dtype=np.float64), s, 0.5)[0]

    def test_vacuum_never_triggers(self):
        s = SourceParams(mu0=1.0, eta_s=0.5, eta_a=0.3)
        assert self.no_trigger([0], s)[0] == 1.0

    def test_perfect_heralding(self):
        s = SourceParams(mu0=1.0, eta_s=0.5, eta_a=1.0)
        assert (1.0 - self.no_trigger([1, 2, 7], s)).tolist() == [1.0, 1.0, 1.0]

    def test_single_pair_value(self):
        s = SourceParams(mu0=2.329, eta_s=ETA_S_192DB, eta_a=0.0295)
        assert self.no_trigger([1], s)[0] == pytest.approx(0.9705, rel=1e-12)

    def test_alice_dark_counts_factor(self):
        s = SourceParams(mu0=1.0, eta_s=0.5, eta_a=0.3, y0_alice=1e-3)
        assert self.no_trigger([2], s)[0] == pytest.approx((1 - 1e-3) * 0.7 ** 2, rel=1e-12)


class TestJointSignalPmf:
    def setup_method(self):
        self.s = SourceParams(mu0=2.329, eta_s=0.01202, eta_a=0.0295)

    def test_no_heralding_arm(self):
        s = SourceParams(mu0=1.7, eta_s=0.3, eta_a=0.0)
        p_n = joint_signal_pmf(s, "N")
        p_t = joint_signal_pmf(s, "T")
        marginal = poisson_pmf(s.mu)
        assert np.allclose(p_n.probs, marginal.probs, atol=1e-15)
        assert np.all(p_t.probs == 0.0)

    def test_series_matches_closed_form(self):
        for outcome in ("N", "T"):
            closed = joint_signal_pmf(self.s, outcome)
            series = joint_signal_pmf_series(self.s, outcome, closed.n_max)
            assert np.allclose(closed.probs, series, rtol=0, atol=1e-10)

    def test_branches_sum_to_poisson_marginal(self):
        p_n = joint_signal_pmf(self.s, "N")
        p_t = joint_signal_pmf(self.s, "T")
        marginal = poisson_pmf(self.s.mu)
        assert np.allclose(p_n.probs + p_t.probs, marginal.probs, rtol=0, atol=1e-10)

    def test_total_mass_is_one(self):
        p_n = joint_signal_pmf(self.s, "N")
        p_t = joint_signal_pmf(self.s, "T")
        total = (support_mass(p_n) + p_n.tail_mass + support_mass(p_t) + p_t.tail_mass)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_trigger_mass_matches_table_rate(self):
        # trigger fraction N_A/N = 3.99e9 / 6e10 at the 50 km point
        rate = 3.99e9 / 6e10
        mu0 = 0.028 / ETA_S_192DB
        s = SourceParams(mu0=mu0, eta_s=ETA_S_192DB,
                         eta_a=calibrate_eta_a(rate, mu0, 0.0))
        p_t = joint_signal_pmf(s, "T")
        assert p_t.norm == pytest.approx(rate, rel=1e-10)
        assert 1.0 - math.exp(-s.mu0 * s.eta_a) == pytest.approx(rate, rel=1e-10)

    def test_marginal_mean_is_mu(self):
        p_n = joint_signal_pmf(self.s, "N")
        p_t = joint_signal_pmf(self.s, "T")
        ns = np.arange(p_n.n_max + 1)
        mean = float(ns @ (p_n.probs + p_t.probs))
        assert mean == pytest.approx(self.s.mu, abs=1e-9)


class TestG2:
    def test_poisson_is_1(self):
        for mu in (0.01, 0.4, 3.0):
            assert g2_of_pmf(poisson_pmf(mu)) == pytest.approx(1.0, abs=1e-9)

    def test_single_photon_is_0(self):
        pmf = PhotonNumberPmf(np.array([0.0, 1.0]), 0.0)
        assert g2_of_pmf(pmf) == 0.0

    def test_zero_mean_rejected(self):
        with pytest.raises(UndefinedRatioError):
            g2_of_pmf(poisson_pmf(0.0))


class TestCalibrations:
    def test_eta_a_zero_rate(self):
        assert calibrate_eta_a(0.0, 2.3, 0.0) == 0.0

    def test_eta_a_paper_numbers(self):
        assert calibrate_eta_a(0.0665, 2.329, 0.0) == pytest.approx(0.029546722198522862, rel=1e-12)

    def test_eta_a_round_trip(self):
        mu0, rate = 2.329, 0.0665
        eta_a = calibrate_eta_a(rate, mu0, 0.0)
        s = SourceParams(mu0=mu0, eta_s=0.012, eta_a=eta_a)
        assert joint_signal_pmf(s, "T").norm == pytest.approx(rate, abs=1e-10)

    def test_eta_a_clamped(self):
        assert calibrate_eta_a(0.99, 0.5, 0.0) == 1.0
        assert calibrate_eta_a(0.01, 0.5, 0.02) == 0.0  # fewer triggers than dark counts

    @pytest.mark.parametrize("y0_alice", [0.01, 0.05, 0.3])
    def test_eta_a_inverts_the_no_trigger_probability(self, y0_alice):
        s = SourceParams(mu0=0.5, eta_s=0.1, eta_a=0.0251, y0_alice=y0_alice)
        assert calibrate_eta_a(s.trigger_prob, s.mu0, y0_alice) == pytest.approx(s.eta_a,
                                                                                 rel=1e-12)

    def test_eta_a_domain(self):
        with pytest.raises(ParameterError):
            calibrate_eta_a(1.0, 2.0, 0.0)


class TestSourceParams:
    def test_mu_is_product(self):
        s = SourceParams(mu0=2.329, eta_s=ETA_S_192DB, eta_a=0.03)
        assert s.mu == pytest.approx(2.329 * ETA_S_192DB, rel=1e-15)

    def test_range_checks(self):
        with pytest.raises(ParameterError):
            SourceParams(mu0=-1.0, eta_s=0.5, eta_a=0.5)
        with pytest.raises(ParameterError):
            SourceParams(mu0=1.0, eta_s=1.5, eta_a=0.5)
        with pytest.raises(ParameterError):
            SourceParams(mu0=1.0, eta_s=0.5, eta_a=0.5, y0_alice=1.0)
