"""Passive decoy-state BB84 with a pulsed PDC source.

Library layout:

- :mod:`pdqkd.photon_source` -- pair-number statistics and heralding model
- :mod:`pdqkd.link_model` -- closed-form gains and QBERs
- :mod:`pdqkd.decoy_estimator` -- fluctuation bounds, single-photon bounds, key rates
- :mod:`pdqkd.event_sim` -- deterministic pulse-level Monte Carlo engine
- :mod:`pdqkd.dataio` -- config / event-log / results persistence
- :mod:`pdqkd.presets` -- published reference operating points
- :mod:`pdqkd.cli` -- operator command line
"""

from .decoy_estimator import (FluctuationBounds, KeyRateResult, ObservedStats,
                              ProtocolParams, ScanResult, binary_entropy, e1_upper,
                              fluctuation_bounds, key_rate, scan_loss, y1_lower)
from .event_sim import (CarResult, HbtHistogram, SimConfig, Tally, end_to_end,
                        simulate_car, simulate_hbt, simulate_run, simulate_tally)
from .link_model import AnalyticObservables, LinkParams, db_to_linear, gains_analytic
from .photon_source import (PhotonNumberPmf, SourceParams, calibrate_eta_a,
                            multimode_thermal_pmf, poisson_pmf, thermal_pmf)

__version__ = "0.1.0"

__all__ = [
    "AnalyticObservables", "CarResult", "FluctuationBounds",
    "HbtHistogram", "KeyRateResult", "LinkParams", "ObservedStats",
    "PhotonNumberPmf", "ProtocolParams", "ScanResult", "SimConfig",
    "SourceParams", "Tally", "binary_entropy", "calibrate_eta_a",
    "db_to_linear", "e1_upper", "end_to_end", "fluctuation_bounds",
    "gains_analytic", "key_rate",
    "multimode_thermal_pmf", "poisson_pmf", "scan_loss", "simulate_car",
    "simulate_hbt", "simulate_run", "simulate_tally", "thermal_pmf", "y1_lower",
]
