"""Closed-form yields, gains and QBERs against series and published values."""

import math

import numpy as np
import pytest

from pdqkd.errors import ParameterError, UndefinedRatioError
from oracles import error_n, gain_series, linear_to_db, yield_n
from pdqkd.link_model import E0, LinkParams, db_to_linear, gains_analytic
from pdqkd.photon_source import SourceParams, calibrate_eta_a

ETA_50KM = 0.0009120108393559096  # 10^(-30.4/10)


def paper50_source():
    mu0 = 0.028 / db_to_linear(19.2)
    return SourceParams(mu0=mu0, eta_s=db_to_linear(19.2),
                        eta_a=calibrate_eta_a(3.99e9 / 6e10, mu0, 0.0))


def paper50_link():
    return LinkParams(eta=db_to_linear(30.4), y0=1.6e-6, e_d=0.012)


class TestYield:
    def test_vacuum_yield_is_dark_rate(self):
        link = LinkParams(eta=0.3, y0=1.6e-6, e_d=0.012)
        assert yield_n(0, link) == pytest.approx(1.6e-6, rel=1e-12)

    def test_perfect_channel(self):
        link = LinkParams(eta=1.0, y0=0.0, e_d=0.0)
        assert yield_n(1, link) == 1.0
        assert yield_n(5, link) == 1.0

    def test_single_photon_50km(self):
        link = paper50_link()
        expected = 1.0 - (1.0 - 1.6e-6) * (1.0 - ETA_50KM)
        assert yield_n(1, link) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_i(self):
        link = LinkParams(eta=0.02, y0=1e-5, e_d=0.01)
        ys = yield_n(np.arange(30), link)
        assert np.all(np.diff(ys) >= 0.0)


class TestErrorRate:
    def test_dark_counts_only(self):
        link = LinkParams(eta=0.0, y0=1e-5, e_d=0.012)
        for i in (0, 1, 4):
            assert error_n(i, link) == pytest.approx(0.5, rel=1e-9)

    def test_no_darks_gives_ed(self):
        link = LinkParams(eta=0.1, y0=0.0, e_d=0.012)
        assert error_n(1, link) == pytest.approx(0.012, rel=1e-12)

    def test_limit_is_ed(self):
        # the residual dark term (e0-e_d)*y0 sets the approach scale
        link = LinkParams(eta=0.05, y0=1e-8, e_d=0.012)
        assert error_n(400, link) == pytest.approx(0.012, rel=1e-5)

    def test_bounded_between_ed_and_e0(self):
        link = LinkParams(eta=0.01, y0=2e-6, e_d=0.012)
        es = error_n(np.arange(50), link)
        assert np.all((es >= 0.012 * (1 - 1e-9)) & (es <= 0.5 * (1 + 1e-9)))

    def test_zero_yield_rejected(self):
        link = LinkParams(eta=0.0, y0=0.0, e_d=0.012)
        with pytest.raises(UndefinedRatioError):
            error_n(3, link)


class TestGains:
    def test_series_matches_analytic(self):
        source, link = paper50_source(), paper50_link()
        q_n_terms, q_t_terms = gain_series(source, link)
        ao = gains_analytic(source, link)
        assert math.fsum(q_n_terms.tolist()) == pytest.approx(ao.q_n, abs=1e-10)
        assert math.fsum(q_t_terms.tolist()) == pytest.approx(ao.q_t, abs=1e-10)

    def test_series_zero_terms_match_vacuum_gains(self):
        source, link = paper50_source(), paper50_link()
        q_n_terms, q_t_terms = gain_series(source, link)
        mu, mu0, eta_a = source.mu, source.mu0, source.eta_a
        q_n0 = math.exp(-(mu + (mu0 - mu) * eta_a)) * link.y0
        q_t0 = math.exp(-mu) * (1.0 - math.exp(-(mu0 - mu) * eta_a)) * link.y0
        assert q_n_terms[0] == pytest.approx(q_n0, rel=1e-10)
        assert q_t_terms[0] == pytest.approx(q_t0, rel=1e-10)

    def test_no_heralding_collapses_to_single_branch(self):
        source = SourceParams(mu0=2.0, eta_s=0.01, eta_a=0.0)
        link = LinkParams(eta=0.001, y0=1.6e-6, e_d=0.012)
        ao = gains_analytic(source, link)
        assert ao.q_t == pytest.approx(0.0, abs=1e-18)
        assert ao.q_n == pytest.approx(ao.q, rel=1e-12)

    def test_no_source_gives_dark_branch(self):
        source = SourceParams(mu0=0.0, eta_s=0.5, eta_a=0.1)
        link = LinkParams(eta=0.3, y0=1e-5, e_d=0.012)
        ao = gains_analytic(source, link)
        assert ao.q == pytest.approx(1e-5, rel=1e-9)
        assert ao.e_n == pytest.approx(0.5, rel=1e-9)
        # with mu0 = 0 the trigger branch never occurs at all
        assert ao.q_t == 0.0 and ao.e_t == 0.0

    def test_50km_against_published_tallies(self):
        ao = gains_analytic(paper50_source(), paper50_link())
        assert ao.q_n == pytest.approx(2.43e-5, rel=0.15)
        assert ao.q_t == pytest.approx(2.50e-6, rel=0.15)
        assert ao.e_n == pytest.approx(0.0399, rel=0.25)
        assert ao.e_t == pytest.approx(0.0306, rel=0.25)

    @pytest.mark.parametrize("seed", range(8))
    def test_identities_on_random_parameters(self, seed):
        rng = np.random.default_rng(seed)
        source = SourceParams(mu0=float(rng.uniform(0.01, 4.0)),
                              eta_s=float(rng.uniform(0.001, 1.0)),
                              eta_a=float(rng.uniform(0.0, 0.8)),
                              y0_alice=float(rng.uniform(0.0, 1e-4)))
        link = LinkParams(eta=float(rng.uniform(1e-4, 1.0)),
                          y0=float(rng.uniform(0.0, 1e-4)),
                          e_d=float(rng.uniform(0.0, 0.05)))
        ao = gains_analytic(source, link)
        q = 1.0 - (1.0 - link.y0) * math.exp(-source.mu * link.eta)
        assert ao.q == pytest.approx(q, abs=1e-12)
        assert ao.eq == pytest.approx(link.e_d * q + (E0 - link.e_d) * link.y0, abs=1e-12)
        assert 0.0 <= ao.e_n <= 1.0 and 0.0 <= ao.e_t <= 1.0

    def test_q_monotone_in_eta_and_mu(self):
        y0, e_d = 1.6e-6, 0.012
        mu0 = 2.0
        qs = [gains_analytic(SourceParams(mu0=mu0, eta_s=0.01, eta_a=0.03),
                             LinkParams(eta=eta, y0=y0, e_d=e_d)).q
              for eta in np.logspace(-4, 0, 20)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        qs_mu = [gains_analytic(SourceParams(mu0=m, eta_s=0.01, eta_a=0.03),
                                LinkParams(eta=0.01, y0=y0, e_d=e_d)).q
                 for m in np.linspace(0.01, 4.0, 20)]
        assert all(b >= a for a, b in zip(qs_mu, qs_mu[1:]))

    def test_qber_monotone_nonincreasing_in_eta(self):
        source = SourceParams(mu0=2.0, eta_s=0.01, eta_a=0.03)
        es = [gains_analytic(source, LinkParams(eta=eta, y0=1.6e-6, e_d=0.012)).e_n
              for eta in np.logspace(-4, 0, 20)]
        assert all(b <= a + 1e-15 for a, b in zip(es, es[1:]))


class TestDbConversion:
    def test_zero_db(self):
        assert db_to_linear(0.0) == 1.0

    def test_paper_eta(self):
        assert db_to_linear(30.4) == pytest.approx(9.120108393559096e-4, rel=1e-12)

    @pytest.mark.parametrize("db", [0.0, 0.1, 3.0, 19.2, 30.4, 60.0])
    def test_round_trip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            db_to_linear(-1.0)
        with pytest.raises(ParameterError):
            linear_to_db(0.0)
        with pytest.raises(ParameterError):
            linear_to_db(1.5)
