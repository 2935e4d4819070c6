"""Security analysis: finite-size bounds, single-photon estimates, key rates.

The estimator consumes measured (or simulated) per-pulse rates split by the
heralding outcome and produces a lower bound on the single-photon yield, an
upper bound on the single-photon error rate, and the two-branch secret key
rate

    ``R_j >= q { -f Q_j H(E_j) + Q_j1 [1 - H(e1)] }``,   j in {N, T},

with negative branches clamped to zero.  Statistical fluctuations over a
finite number of pulses N are handled by the standard-error recipe: every
observable X that enters a bound is shifted by ``u_alpha / sqrt(N X)``
standard deviations in its conservative direction.  N is the pulse count of
the observations (``ObservedStats.n_pulses``), ``u_alpha`` is a field of
``ProtocolParams``, and ``u_alpha = 0`` gives the asymptotic rate.  BB84's
uniform bases fix the sift factor ``q = SIFT = 1/2``, and a dark count's random
bit fixes its error rate ``e0 = link_model.E0 = 1/2``.

Conventions baked into this module (all surfaced in diagnostics):

- the N-branch single-photon error bound uses the fluctuation-shifted
  ``(E_T Q_T)^U`` while the T branch uses the central value;
- the dark-count yield entering the subtraction inside the single-photon
  yield bound is always its estimated upper bound (never the device value);
- no vacuum term ``Q_j0`` is credited: the two branches bound the vacuum yield
  from below by ``[P_T(1) Q_N - P_N(1) Q_T] / [P_T(1) P_N(0) - P_N(1) P_T(0)]``,
  and with ``Q_N`` lowered and ``Q_T`` raised by ``u_alpha`` standard errors
  that bound is below zero at every preset, so the observations support no credit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import (DegenerateHeraldingError, DegenerateStatisticsError,
                     ParameterError, UnboundedErrorRate)
from .link_model import E0, AnalyticObservables, LinkParams, db_to_linear, gains_analytic
from .photon_source import SourceParams

SIFT = 0.5  # sift factor q: both bases are equally likely, so half the detections match


@dataclass(frozen=True)
class ProtocolParams:
    """Post-processing parameters.

    Attributes
    ----------
    f : float
        Error-correction inefficiency relative to the Shannon limit.
    u_alpha : float
        Number of standard deviations for the fluctuation analysis
        (5 corresponds to a failure probability of 5.733e-7 per bound);
        0 evaluates every bound at its central value, the asymptotic rate.
    """

    f: float = 1.2
    u_alpha: float = 5.0

    def __post_init__(self):
        if not (self.f >= 1.0):
            raise ParameterError(f"f must be >= 1, got {self.f!r}")
        if not (self.u_alpha >= 0.0):
            raise ParameterError(f"u_alpha must be >= 0, got {self.u_alpha!r}")


@dataclass(frozen=True)
class ObservedStats(AnalyticObservables):
    """Measured rates with the pulse count N they were measured over, and the trigger count
    of the measurement (0 when it is not known)."""

    n_pulses: int
    n_triggers: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (self.n_pulses >= 1 and float(self.n_pulses).is_integer()):
            raise ParameterError(f"n_pulses must be a whole number >= 1, got {self.n_pulses!r}")
        if not 0 <= self.n_triggers <= self.n_pulses:
            raise ParameterError(f"n_triggers must be in 0..n_pulses, got n_triggers="
                                 f"{self.n_triggers!r} with n_pulses={self.n_pulses!r}")

    @classmethod
    def from_analytic(cls, ao: AnalyticObservables, source: SourceParams,
                      n_pulses: int) -> "ObservedStats":
        """Treat closed-form observables as if they had been measured."""
        return cls(q_n=ao.q_n, q_t=ao.q_t, e_n=ao.e_n, e_t=ao.e_t,
                   n_pulses=n_pulses,
                   n_triggers=round(n_pulses * source.trigger_prob))


@dataclass(frozen=True)
class FluctuationBounds:
    """Conservatively shifted observables entering the single-photon bounds."""

    q_n_low: float
    q_up: float
    etqt_up: float
    enqn_up: float
    y0_up: float
    u_alpha: float


@dataclass(frozen=True)
class BranchDiagnostics:
    """Per-branch decomposition of the rate formula (all per pulse)."""

    e1_up: float
    q1: float            # Q_j1 = P_j(1) Y_1^L
    ec_term: float       # f * Q_j * H(E_j)
    single_term: float   # Q_j1 * [1 - H(e1)]
    raw_rate: float      # q * (-ec + single), before clamping


@dataclass(frozen=True)
class KeyRateResult:
    """Two-branch key rate with full diagnostics.

    ``obs`` holds the observations the result was computed from.  ``r_j`` is
    branch j's raw rate clamped at zero, ``r = r_n + r_t`` (bits per pulse) and
    ``key_bits = r * N``, with N = ``obs.n_pulses``.  ``clamps`` lists every
    quantity that was pushed back into its physical range; an empty tuple
    means the formulas evaluated cleanly.
    """

    obs: ObservedStats
    y1_low: float
    bounds: FluctuationBounds
    branch_n: BranchDiagnostics
    branch_t: BranchDiagnostics
    clamps: tuple[str, ...]

    @property
    def r_n(self) -> float:
        return max(0.0, self.branch_n.raw_rate)

    @property
    def r_t(self) -> float:
        return max(0.0, self.branch_t.raw_rate)

    @property
    def r(self) -> float:
        return self.r_n + self.r_t

    @property
    def key_bits(self) -> float:
        return self.r * self.obs.n_pulses


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise ParameterError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _shift(x: float, n: int, u: float, direction: int, name: str) -> float:
    """x * (1 + direction * u / sqrt(n x)); direction -1 lowers, +1 raises."""
    if u == 0.0:
        return x
    if x <= 0.0:
        raise DegenerateStatisticsError(name)
    return x * (1.0 + direction * u / math.sqrt(n * x))


def fluctuation_bounds(obs: ObservedStats, protocol: ProtocolParams,
                       source: SourceParams) -> FluctuationBounds:
    """Standard-error bounds on the observables entering the decoy analysis.

    With ``u = protocol.u_alpha`` and ``N = obs.n_pulses``:

    - ``Q_N^L  = Q_N (1 - u / sqrt(N Q_N))``
    - ``Q^U    = Q (1 + u / sqrt(N Q))``
    - ``(E_T Q_T)^U`` and ``(E_N Q_N)^U`` analogously raised
    - ``Y_0^U  = (E_N Q_N)^U / (E0 P_N(0))``, every N-branch error charged to vacuum

    ``u = 0`` reduces every bound to its central value (the dark-count yield
    then becomes its central estimate, still derived from the observations).
    Raises :class:`DegenerateStatisticsError` naming the offending observable
    if a bound would divide by ``sqrt(N * 0)``.
    """
    n, u = obs.n_pulses, protocol.u_alpha
    enqn_up = _shift(obs.e_n * obs.q_n, n, u, +1, "E_N*Q_N")
    return FluctuationBounds(
        q_n_low=_shift(obs.q_n, n, u, -1, "Q_N"),
        q_up=_shift(obs.q, n, u, +1, "Q"),
        etqt_up=_shift(obs.e_t * obs.q_t, n, u, +1, "E_T*Q_T"),
        enqn_up=enqn_up,
        y0_up=enqn_up / (E0 * source.branch_terms[0]),
        u_alpha=u,
    )


def _require_heralding(source: SourceParams) -> None:
    if not (0.0 < source.eta_a < 1.0):
        raise DegenerateHeraldingError(
            f"single-photon bounds require 0 < eta_a < 1, got {source.eta_a!r}")
    if source.mu <= 0.0:
        raise ParameterError("single-photon bounds require mu > 0")


def y1_lower(q_n: float, q: float, y0_for_subtraction: float,
             source: SourceParams) -> tuple[float, bool]:
    """Lower bound on the single-photon yield from the two-branch gains.

    Implements

        ``Y_1^L = [Q_N / P_N(0) - (1 - eta_a)^2 e^mu Q
                   - (2 eta_a - eta_a^2) Y_0] / [mu eta_a (1 - eta_a)]``

    obtained by cancelling the zero- and multi-photon contributions between
    ``(1 - eta_a)^2 Q`` and ``Q_N / P_N(0)``, whose i-photon weight is
    ``(mu (1 - eta_a))^i / i!``.  For a conservative finite-size bound pass
    ``Q_N^L``, ``Q^U`` and ``Y_0^U``; each substitution can only lower the
    result.  Returns ``(value, clamped)`` with the value clamped into [0, 1].
    """
    _require_heralding(source)
    mu, eta_a = source.mu, source.eta_a
    numerator = (q_n / source.branch_terms[0]
                 - (1.0 - eta_a) ** 2 * math.exp(mu) * q
                 - (2.0 * eta_a - eta_a ** 2) * y0_for_subtraction)
    raw = numerator / (mu * eta_a * (1.0 - eta_a))
    clamped = not (0.0 <= raw <= 1.0)
    return min(1.0, max(0.0, raw)), clamped


def e1_upper(etqt: float, y1_low: float, source: SourceParams) -> tuple[float, bool]:
    """Upper bound on the single-photon error rate.

    ``e_1^U = E_T Q_T / (P_T(1) Y_1^L)``: every error in the triggered branch
    is attributed to its single-photon slice.  Pass the fluctuation-raised
    ``(E_T Q_T)^U`` when bounding the non-triggered branch; the central value
    suffices for the triggered one.  Returns ``(value, clamped)``, clamped at 1.
    Raises :class:`UnboundedErrorRate` when ``y1_low == 0``.
    """
    _require_heralding(source)
    if etqt < 0.0:
        raise ParameterError(f"E_T*Q_T must be non-negative, got {etqt!r}")
    if y1_low <= 0.0:
        raise UnboundedErrorRate("single-photon error rate unbounded: Y_1^L is zero")
    raw = etqt / (source.branch_terms[3] * y1_low)
    return min(1.0, raw), raw > 1.0


def _branch(q_gain: float, qber: float, e1: float, q1: float, protocol: ProtocolParams,
            clamps: list[str], name: str) -> BranchDiagnostics:
    ec = protocol.f * q_gain * binary_entropy(qber)
    if e1 < 0.5:
        pa_factor = 1.0 - binary_entropy(e1)
    else:
        # beyond 1/2 the single-photon slice carries no extractable key
        pa_factor = 0.0
        if e1 > 0.5:
            clamps.append(f"e1_worthless_{name}")
    single = q1 * pa_factor
    raw = SIFT * (-ec + single)
    if raw < 0.0:
        clamps.append(f"r_{name}_negative")
    return BranchDiagnostics(e1_up=e1, q1=q1, ec_term=ec, single_term=single, raw_rate=raw)


def key_rate(obs: ObservedStats, protocol: ProtocolParams,
             source: SourceParams) -> KeyRateResult:
    """Two-branch secret key rate from observed rates.

    ``obs`` holds the observed rates and their pulse count N, ``protocol`` the
    post-processing parameters (``protocol.u_alpha = 0`` gives the asymptotic rate)
    and ``source`` the source calibration.  No vacuum term is credited.

    Returns a :class:`KeyRateResult`; negative branch rates clamp to zero and
    every clamp is listed in ``clamps``.
    """
    bounds = fluctuation_bounds(obs, protocol, source)
    clamps: list[str] = []
    y1, y1_clamped = y1_lower(bounds.q_n_low, bounds.q_up, bounds.y0_up, source)
    if y1_clamped:
        clamps.append("y1_low")
    if y1 > 0.0:
        e1_n, cn = e1_upper(bounds.etqt_up, y1, source)
        e1_t, ct = e1_upper(obs.e_t * obs.q_t, y1, source)
        if cn or ct:
            clamps.append("e1_up")
    else:
        e1_n = e1_t = 1.0
        clamps.append("e1_unbounded")
    _, _, p_n1, p_t1 = source.branch_terms
    branch_n = _branch(obs.q_n, obs.e_n, e1_n, p_n1 * y1, protocol, clamps, "n")
    branch_t = _branch(obs.q_t, obs.e_t, e1_t, p_t1 * y1, protocol, clamps, "t")
    return KeyRateResult(obs=obs, y1_low=y1, bounds=bounds, branch_n=branch_n,
                         branch_t=branch_t, clamps=tuple(clamps))


@dataclass(frozen=True)
class ScanPoint:
    loss_db: float
    result: KeyRateResult


@dataclass(frozen=True)
class ScanResult:
    """Key rates along a loss grid, with the zero-crossing loss of each curve.

    ``r_n_cutoff_db`` / ``r_cutoff_db`` are the losses where the branch rate
    and the total rate first reach zero (bisection-refined between grid
    points); None if the rate is zero on the whole grid, +inf if it never
    vanishes on it.
    """

    points: tuple[ScanPoint, ...]
    r_n_cutoff_db: float | None
    r_cutoff_db: float | None


def _rate_at(loss_db: float, source: SourceParams, link_template: LinkParams,
             protocol: ProtocolParams, n_pulses: int):
    link = replace(link_template, eta=db_to_linear(loss_db))
    obs = ObservedStats.from_analytic(gains_analytic(source, link), source, n_pulses)
    return key_rate(obs, protocol, source)


def _refine_cutoff(lo: float, hi: float, value, iterations: int = 40) -> float:
    # value(lo) > 0 == value(hi); bisect the first-zero loss
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_loss(source: SourceParams, link_template: LinkParams,
              protocol: ProtocolParams, loss_db_grid: Sequence[float],
              n_pulses: int) -> ScanResult:
    """Evaluate the key rate over an ascending grid of total loss figures.

    Each grid point feeds the closed-form observables at that loss, taken as
    if measured over ``n_pulses`` pulses, into :func:`key_rate` (the
    template supplies the loss-independent receiver parameters).
    """
    grid = [float(x) for x in loss_db_grid]
    if len(grid) == 0:
        raise ParameterError("loss grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("loss grid must be strictly ascending")
    points = []
    for loss in grid:
        points.append(ScanPoint(loss_db=loss, result=_rate_at(
            loss, source, link_template, protocol, n_pulses)))

    def cutoff(component) -> float | None:
        vals = [component(p.result) for p in points]
        positive = [i for i, v in enumerate(vals) if v > 0.0]
        if not positive:
            return None
        last_pos = positive[-1]
        if last_pos == len(grid) - 1:
            return math.inf
        return _refine_cutoff(
            grid[last_pos], grid[last_pos + 1],
            lambda L: component(_rate_at(L, source, link_template, protocol, n_pulses)))
    return ScanResult(points=tuple(points),
                      r_n_cutoff_db=cutoff(lambda r: r.r_n),
                      r_cutoff_db=cutoff(lambda r: r.r))
