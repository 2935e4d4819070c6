"""Each refusal of a bad parameter: the library raises its documented error type, with a
message that names what is wrong."""

import math

import numpy as np
import pytest

from pdqkd.dataio import RunManifest
from pdqkd.decoy_estimator import ObservedStats, ProtocolParams, e1_upper, y1_lower
from pdqkd.errors import ConfigError, ParameterError
from pdqkd.event_sim import SimConfig, Tally, simulate_car, simulate_hbt
from pdqkd.link_model import AnalyticObservables, LinkParams
from pdqkd.photon_source import PhotonNumberPmf, SourceParams, calibrate_eta_a, poisson_pmf
from pdqkd.presets import REFERENCE_RUNS, preset_manifest

RUN50 = REFERENCE_RUNS["paper50km"]
SRC50 = RUN50.manifest().to_source_params()
RATES = dict(q_n=RUN50.q_n, q_t=RUN50.q_t, e_n=RUN50.e_n, e_t=RUN50.e_t)


@pytest.mark.parametrize("kind, extra", [(AnalyticObservables, {}),
                                         (ObservedStats, {"n_pulses": 10**6})],
                         ids=["AnalyticObservables", "ObservedStats"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, 1.1, 1.5])
@pytest.mark.parametrize("name", ["q_n", "q_t", "e_n", "e_t"])
def test_one_rate_check_guards_both_rate_types(kind, extra, value, name):
    # the four rates are declared once, so a closed form that yields a NaN or a gain above 1
    # is refused as a measurement is
    with pytest.raises(ParameterError) as err:
        kind(**{**RATES, name: value}, **extra)
    assert str(err.value) == f"{name} must be a rate in [0, 1], got {value!r}"
    for end in (0.0, 1.0):  # the range's ends are rates
        assert getattr(kind(**{**RATES, name: end}, **extra), name) == end


@pytest.mark.parametrize("make, error, message", [
    (lambda: ProtocolParams(f=0.9), ParameterError, "f must be >= 1, got 0.9"),
    (lambda: ProtocolParams(u_alpha=-1.0), ParameterError, "u_alpha must be >= 0, got -1.0"),
    (lambda: y1_lower(1e-5, 2e-5, 0.0, SourceParams(mu0=0.0, eta_s=0.1, eta_a=0.1)),
     ParameterError, "single-photon bounds require mu > 0"),
    (lambda: e1_upper(-1e-9, 1e-3, SRC50), ParameterError,
     "E_T*Q_T must be non-negative, got -1e-09"),
    (lambda: SimConfig(n_pulses=0), ParameterError, "n_pulses must be a positive integer, got 0"),
    (lambda: SimConfig(n_pulses=10, seed=-1), ParameterError,
     "seed must be an integer in [0, 2**64 - 1], got -1"),
    (lambda: SimConfig(n_pulses=10, seed=2**64), ParameterError,
     "seed must be an integer in [0, 2**64 - 1], got 18446744073709551616"),
    (lambda: SimConfig(n_pulses=10, seed=1.5), ParameterError,
     "seed must be an integer in [0, 2**64 - 1], got 1.5"),
    (lambda: Tally(err_n=-1), ParameterError, "tally counter err_n must be non-negative"),
    (lambda: Tally(n_pulses=1, sent_n_match=1, det_n_match=1, err_n=2), ParameterError,
     "errors cannot exceed matched detections"),
    (lambda: Tally().to_observed_stats(), ParameterError, "tally holds no pulses"),
    (lambda: simulate_hbt(poisson_pmf(0.1), 0.0, SimConfig(n_pulses=100)), ParameterError,
     "detector_eff must be in (0, 1], got 0.0"),
    (lambda: simulate_hbt(poisson_pmf(0.1), 1.5, SimConfig(n_pulses=100)), ParameterError,
     "detector_eff must be in (0, 1], got 1.5"),
    (lambda: simulate_car(SRC50, 0.0, SimConfig(n_pulses=100)), ParameterError,
     "signal_eff must be in (0, 1], got 0.0"),
    (lambda: LinkParams(eta=1.5, y0=0.0, e_d=0.0), ParameterError, "eta must be in [0, 1], got 1.5"),
    (lambda: LinkParams(eta=0.5, y0=math.nan, e_d=0.0), ParameterError,
     "y0 must be in [0, 1], got nan"),
    (lambda: calibrate_eta_a(0.05, 0.0, 0.0), ParameterError, "mu0 must be positive, got 0.0"),
    (lambda: calibrate_eta_a(0.05, -1.0, 0.0), ParameterError, "mu0 must be positive, got -1.0"),
    (lambda: PhotonNumberPmf(probs=np.array([0.5, np.nan]), tail_mass=0.5), ParameterError,
     "probs must be finite and non-negative"),
    (lambda: PhotonNumberPmf(probs=np.array([0.5, np.inf]), tail_mass=0.0), ParameterError,
     "probs must be finite and non-negative"),
    (lambda: RunManifest(values={"n_pulses": 1.5}), ConfigError,
     "key n_pulses: expected an integer, got 1.5"),
    (lambda: preset_manifest("paper75km"), KeyError,
     "unknown preset 'paper75km'; available: paper0km, paper25km, paper50km"),
], ids=["f < 1", "u_alpha < 0", "mu = 0", "E_T*Q_T < 0", "n_pulses 0", "seed -1",
        "seed 2**64", "seed 1.5", "negative count",
        "errors above matched detections", "no pulses", "detector_eff 0", "detector_eff 1.5",
        "signal_eff 0", "eta 1.5", "y0 nan", "mu0 0", "mu0 -1", "pmf nan", "pmf inf",
        "fractional n_pulses", "unknown preset"])
def test_bad_parameter_is_refused_by_name(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert message in str(err.value)
