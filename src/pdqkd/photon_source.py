"""Photon-pair number statistics of a pulsed PDC source and heralding model.

A pulsed parametric down-conversion source emits photon pairs whose number
per pulse follows a thermal law for a single temporal mode and approaches a
Poisson law when a long pump pulse spans many modes.  The idler mode is
monitored by a threshold detector; conditioning on trigger (T) versus
non-trigger (N) splits the signal mode into two effective sources with
different photon-number distributions, which is what the passive decoy-state
analysis exploits.

The heralding law, stated once here and read by every closed form: i photons
enter the channel with ``Pois(mu, i)`` and leave the heralding detector silent
with ``h_i = (1 - y0_alice) (1 - eta_a)^i e^(-(mu0 - mu) eta_a)``, so ``P_N(i) =
Pois(mu, i) h_i = B Pois(mu (1 - eta_a), i)`` and ``P_T(i) = Pois(mu, i) (1 - h_i)``
with ``B = (1 - y0_alice) e^(-mu0 eta_a)``.  :class:`SourceParams` carries B, the
N-branch mean ``mu (1 - eta_a)`` and ``P_N(0), P_T(0), P_N(1), P_T(1)``.

Pair-number distributions are represented by :class:`PhotonNumberPmf`, a
truncated probability vector with explicit tail accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, TruncationError

#: Tail probability above the truncation order that a pmf may leave unaccounted.
DEFAULT_TAIL_CUTOFF = 1e-12

#: Hard cap on the truncation order; decoy bounds are sensitive to 1e-7-scale
#: residuals, so pmfs that cannot reach the cutoff by this order raise instead
#: of silently degrading.
MAX_N_CAP = 512

_PMF_BALANCE_TOL = 1e-12


def _check_prob(name: str, value: float, *, upper_open: bool = False) -> float:
    value = float(value)
    hi_ok = value < 1.0 if upper_open else value <= 1.0
    if not (math.isfinite(value) and 0.0 <= value and hi_ok):
        rng = "[0, 1)" if upper_open else "[0, 1]"
        raise ParameterError(f"{name} must be in {rng}, got {value!r}")
    return value


@dataclass(frozen=True)
class SourceParams:
    """Source-side physical parameters.

    Attributes
    ----------
    mu0 : float
        Mean photon-pair number per pump pulse (dimensionless, >= 0).
    eta_s : float
        Internal transmittance of the signal path up to the channel input
        (source transmission and encoder losses), linear in [0, 1].
    eta_a : float
        Idler-arm transmittance including the heralding detector efficiency,
        linear in [0, 1].
    y0_alice : float
        Dark-count probability per pulse of the heralding detector, in [0, 1).
    """

    mu0: float
    eta_s: float
    eta_a: float
    y0_alice: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu0) and self.mu0 >= 0.0):
            raise ParameterError(f"mu0 must be a finite non-negative number, got {self.mu0!r}")
        _check_prob("eta_s", self.eta_s)
        _check_prob("eta_a", self.eta_a)
        _check_prob("y0_alice", self.y0_alice, upper_open=True)

    @property
    def mu(self) -> float:
        """Mean photon number sent into the channel (eta_s * mu0)."""
        return self.eta_s * self.mu0

    @property
    def no_trigger_prob(self) -> float:
        """B, the per-pulse probability that the heralding detector stays silent."""
        return (1.0 - self.y0_alice) * math.exp(-self.mu0 * self.eta_a)

    @property
    def trigger_prob(self) -> float:
        """Per-pulse probability that the heralding detector clicks, 1 - B."""
        return 1.0 - self.no_trigger_prob

    @property
    def mu_n(self) -> float:
        """Mean of the N branch's Poisson law, ``mu (1 - eta_a)``."""
        return self.mu * (1.0 - self.eta_a)

    @cached_property
    def branch_terms(self) -> tuple[float, float, float, float]:
        """``(P_N(0), P_T(0), P_N(1), P_T(1))``, computed once per instance."""
        log_h0 = math.log1p(-self.y0_alice) - (self.mu0 - self.mu) * self.eta_a
        log_h1 = log_h0 + math.log1p(-self.eta_a)
        mu, vacuum = self.mu, math.exp(-self.mu)
        return (math.exp(log_h0 - mu), vacuum * -math.expm1(log_h0),
                mu * math.exp(log_h1 - mu), mu * vacuum * -math.expm1(log_h1))


def calibrate_eta_a(trigger_rate: float, mu0: float, y0_alice: float) -> float:
    """Idler-arm transmittance from the measured trigger fraction.

    Inverts ``1 - trigger_rate = B``; a result outside [0, 1] (a trigger fraction below
    ``y0_alice``, or one no eta_a reaches) is clamped into it rather than propagated.
    """
    _check_prob("trigger_rate", trigger_rate, upper_open=True)
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ParameterError(f"mu0 must be positive, got {mu0!r}")
    y0_alice = _check_prob("y0_alice", y0_alice, upper_open=True)
    return min(1.0, max(0.0, (math.log1p(-y0_alice) - math.log1p(-trigger_rate)) / mu0))


@dataclass(frozen=True)
class PhotonNumberPmf:
    """Truncated photon-number distribution with explicit tail mass.

    ``probs[n]`` is the probability of n photons for n in ``0..n_max``;
    ``tail_mass`` is the probability beyond ``n_max``.  The balance
    ``sum(probs) + tail_mass == 1`` holds to 1e-12.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ParameterError(f"probs must be a non-empty vector, got shape {probs.shape}")
        if np.any(probs < -1e-15) or not np.all(np.isfinite(probs)):
            raise ParameterError("probs must be finite and non-negative")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.tail_mass < -_PMF_BALANCE_TOL:  # rounding in 1 - sum(probs) may go below 0
            raise ParameterError(f"tail_mass must be non-negative, got {self.tail_mass!r}")
        object.__setattr__(self, "tail_mass", max(0.0, float(self.tail_mass)))
        balance = math.fsum(probs.tolist()) + self.tail_mass
        if abs(balance - 1.0) > _PMF_BALANCE_TOL:
            raise ParameterError(f"pmf mass {balance!r} is not 1 within {_PMF_BALANCE_TOL}")

    @property
    def n_max(self) -> int:
        """The truncation order: the largest photon number of ``probs``."""
        return self.probs.size - 1


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``log(k!)`` for each whole number of ``k``, through the standard library."""
    return np.array([math.lgamma(x + 1.0) for x in k.tolist()])


def _pmf(mu: float, make) -> PhotonNumberPmf:
    """``make()`` for ``mu > 0``, the point mass at 0 for ``mu == 0``; checks ``mu``."""
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ParameterError(f"mu must be a finite non-negative number, got {mu!r}")
    return make() if mu > 0.0 else PhotonNumberPmf(np.ones(1), 0.0)


def _summed(body, name: str, start: int = 8) -> PhotonNumberPmf:
    """The pmf ``body(n)`` on ``0..n``, its tail the missing mass, at the first ``n`` of
    ``start, 2 start, 4 start, ..`` (capped at MAX_N_CAP) whose tail is within the cutoff."""
    n = start
    while True:
        probs = body(n)
        tail = max(0.0, 1.0 - math.fsum(probs.tolist()))
        if tail <= DEFAULT_TAIL_CUTOFF:
            return PhotonNumberPmf(probs, tail)
        if n == MAX_N_CAP:
            raise TruncationError(f"{name} tail {tail:g} above cutoff "
                                  f"{DEFAULT_TAIL_CUTOFF:g} at the cap {MAX_N_CAP}")
        n = min(2 * n, MAX_N_CAP)


def poisson_pmf(mu: float) -> PhotonNumberPmf:
    """Poisson photon-number distribution p[n] = mu^n e^-mu / n!.

    The truncation order is the first of 8, 16, 32, .. (capped at MAX_N_CAP) whose
    tail is at most ``DEFAULT_TAIL_CUTOFF``, so ``poisson_pmf(2.329).n_max`` is 32.
    """
    def body(n):
        k = np.arange(n + 1, dtype=np.float64)
        return np.exp(k * math.log(mu) - mu - _log_factorial(k))

    return _pmf(mu, lambda: _summed(body, "poisson"))


def thermal_pmf(mu: float) -> PhotonNumberPmf:
    """Single-mode thermal (Bose-Einstein) distribution p[n] = mu^n / (1+mu)^(n+1)."""
    def make():
        ratio = mu / (1.0 + mu)
        # the geometric tail is exactly ratio^(n+1): the smallest order >= 8 within the cutoff
        n = (math.ceil(math.log(DEFAULT_TAIL_CUTOFF) / math.log(ratio)) - 1 if ratio < 1.0
             else MAX_N_CAP)  # mu so large that mu/(1+mu) rounds to 1
        n = min(MAX_N_CAP, max(8, n))
        if ratio ** (n + 1) > DEFAULT_TAIL_CUTOFF:
            raise TruncationError(f"thermal tail {ratio ** (n + 1):g} above cutoff "
                                  f"{DEFAULT_TAIL_CUTOFF:g} at the cap {MAX_N_CAP}")
        k = np.arange(n + 1, dtype=np.float64)
        return PhotonNumberPmf(np.exp(k * math.log(ratio)) / (1.0 + mu), ratio ** (n + 1))

    return _pmf(mu, make)


def multimode_thermal_pmf(mu: float, k_modes: int) -> PhotonNumberPmf:
    """K-fold convolution of thermal modes carrying mu/K each (negative binomial).

    Models a pump pulse spanning ``k_modes`` independent temporal modes; the
    total mean stays ``mu`` and g2 drops from 2 toward the Poisson value as
    1 + 1/K.
    """
    if not isinstance(k_modes, (int, np.integer)) or k_modes < 1:
        raise ParameterError(f"k_modes must be a positive integer, got {k_modes!r}")
    if k_modes == 1:
        return thermal_pmf(mu)

    def body(n):
        # p_k = mu^k / k! prod_{j<k} (1 + j/K) (1 + mu/K)^-(K+k), stable at any K
        k = np.arange(n + 1, dtype=np.float64)
        rising = np.concatenate(([0.0], np.cumsum(np.log1p(k[:-1] / k_modes))))
        return np.exp(k * math.log(mu) - _log_factorial(k) + rising
                      - (k_modes + k) * math.log1p(mu / k_modes))

    return _pmf(mu, lambda: _summed(body, "multimode", start=16))
