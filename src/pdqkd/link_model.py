"""Analytic channel and detector model for the receiving side.

Yields and error rates per photon number assume a passive channel (no
adversary tampering with per-photon-number statistics):

- ``Y_i = 1 - (1 - Y0) (1 - eta)^i``
- ``e_i Y_i = e_d Y_i + (E0 - e_d) Y0``, a dark count erring at ``E0 = 1/2``

Combining them with the heralded joint photon-number laws of
:mod:`pdqkd.photon_source` gives closed forms for the trigger/non-trigger
gains and QBERs, which the Monte Carlo engine reproduces empirically and the
decoy estimator consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, UndefinedRatioError
from .photon_source import SourceParams

E0 = 0.5  # error rate of a dark-count detection, whose bit is uniformly random


@dataclass(frozen=True)
class LinkParams:
    """Receiver-side parameters.

    Attributes
    ----------
    eta : float
        Overall transmittance from the channel input to a detection event:
        channel loss, receiver modulation loss and detector efficiency.
    y0 : float
        Dark-count probability per pulse of the receiving detection.
    e_d : float
        Intrinsic error rate of the detection apparatus (misalignment).
    """

    eta: float
    y0: float
    e_d: float

    def __post_init__(self):
        for name in ("eta", "y0", "e_d"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class AnalyticObservables:
    """Gains per sent pulse (not per sifted pulse) and QBERs, the error fractions within
    each branch's detections, split by heralding outcome.  ``ObservedStats`` adds N."""

    q_n: float
    q_t: float
    e_n: float
    e_t: float

    def __post_init__(self):
        for name in ("q_n", "q_t", "e_n", "e_t"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be a rate in [0, 1], got {v!r}")

    @property
    def q(self) -> float:
        return self.q_n + self.q_t

    @property
    def eq(self) -> float:
        return self.e_n * self.q_n + self.e_t * self.q_t


def gains_analytic(source: SourceParams, link: LinkParams) -> AnalyticObservables:
    """Closed-form overall gains and QBERs for both heralding branches.

    With B and the N-branch mean ``mu_N`` of the heralding law, ``P_N(i) = B Pois(mu_N, i)``:

    - ``Q_N  = B [1 - (1 - Y0) e^(-mu_N eta)]``
    - ``Q    = 1 - (1 - Y0) e^(-mu eta)`` and ``Q_T = Q - Q_N``
    - ``E_N Q_N = e_d Q_N + (E0 - e_d) Y0 B``
    - ``E Q  = e_d Q + (E0 - e_d) Y0`` and ``E_T Q_T = EQ - E_N Q_N``
    """
    y0, e_d = link.y0, link.e_d
    p_no_trigger = source.no_trigger_prob
    q_n = p_no_trigger * -math.expm1(math.log1p(-y0) - source.mu_n * link.eta)
    q = -math.expm1(math.log1p(-y0) - source.mu * link.eta)
    q_t = q - q_n
    enqn = e_d * q_n + (E0 - e_d) * y0 * p_no_trigger
    eq = e_d * q + (E0 - e_d) * y0
    etqt = eq - enqn
    e_n = enqn / q_n if q_n > 0.0 else _degenerate_qber(q_n, enqn)
    e_t = etqt / q_t if q_t > 0.0 else _degenerate_qber(q_t, etqt)
    return AnalyticObservables(q_n=q_n, q_t=q_t, e_n=e_n, e_t=e_t)


def _degenerate_qber(gain: float, error_mass: float) -> float:
    # a zero-gain branch with zero error mass is a structurally absent branch;
    # anything else is a genuine 0/0 the caller must not silently receive
    if gain == 0.0 and error_mass == 0.0:
        return 0.0
    raise UndefinedRatioError("QBER undefined for a zero-gain branch with non-zero error mass")


def db_to_linear(loss_db: float) -> float:
    """Transmittance from a loss figure in dB: ``eta = 10^(-dB/10)``."""
    if not (isinstance(loss_db, (int, float)) and math.isfinite(loss_db) and loss_db >= 0.0):
        raise ParameterError(f"loss_db must be a finite non-negative number, got {loss_db!r}")
    return 10.0 ** (-loss_db / 10.0)
