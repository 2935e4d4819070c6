"""Slow series oracles that the closed forms of the library are checked against.

They evaluate the defining sums term by term, or count pulse by pulse, and
live with the tests, apart from the code they check.  Import them as ``from oracles import ...``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from pdqkd import event_sim
from pdqkd.errors import ParameterError, UndefinedRatioError
from pdqkd.link_model import E0, LinkParams
from pdqkd.photon_source import PhotonNumberPmf, SourceParams, poisson_pmf


def yield_n(i, link: LinkParams):
    """Detection probability given i photons entered the channel.

    Monotone non-decreasing in i, with ``yield_n(0) == y0``.  Accepts a
    scalar count or an integer array.
    """
    i_arr = np.asarray(i)
    if np.any(i_arr < 0):
        raise ParameterError("photon count i must be non-negative")
    y = 1.0 - (1.0 - link.y0) * np.power(1.0 - link.eta, i_arr.astype(np.float64))
    if np.isscalar(i) or i_arr.ndim == 0:
        return float(y)
    return y


def error_n(i, link: LinkParams):
    """Error rate of detections given i photons entered the channel.

    ``e_i = [e_d Y_i + (E0 - e_d) Y0] / Y_i``; interpolates between the
    dark-count value E0 (channel fully opaque) and the intrinsic e_d.
    """
    y = yield_n(i, link)
    if np.any(np.asarray(y) == 0.0):
        raise UndefinedRatioError("error rate undefined where the yield is zero")
    return (link.e_d * y + (E0 - link.e_d) * link.y0) / y


def linear_to_db(transmittance: float) -> float:
    """Loss in dB from a linear transmittance in (0, 1]."""
    if not (isinstance(transmittance, (int, float)) and 0.0 < transmittance <= 1.0):
        raise ParameterError(f"transmittance must be in (0, 1], got {transmittance!r}")
    return -10.0 * math.log10(transmittance)


@dataclass(frozen=True)
class JointPmf:
    """One heralding branch's law on ``0..n_max``: ``probs`` and ``tail_mass`` sum to the
    branch probability ``norm``, not to 1."""

    probs: np.ndarray
    tail_mass: float
    norm: float

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def joint_signal_pmf(s: SourceParams, outcome: str) -> JointPmf:
    """Joint law of (heralding outcome, i photons entering the channel).

    ``outcome`` is ``"N"`` (``P_N(i)``) or ``"T"`` (``P_T(i)``).  The result is
    sub-normalized: its ``norm`` is the branch probability, and the two branches
    sum element-wise to the Poisson marginal of mean ``mu``.
    """
    if outcome not in ("N", "T"):
        raise ParameterError(f"outcome must be 'N' or 'T', got {outcome!r}")
    marginal = poisson_pmf(s.mu)
    herald = ((1.0 - s.y0_alice) * np.power(1.0 - s.eta_a, np.arange(marginal.n_max + 1))
              * math.exp(-(s.mu0 - s.mu) * s.eta_a))  # h_i
    p_n = marginal.probs * herald
    if outcome == "N":
        probs, norm = p_n, s.no_trigger_prob
    else:
        probs, norm = marginal.probs - p_n, s.trigger_prob
    tail = max(0.0, norm - math.fsum(probs.tolist()))
    return JointPmf(probs, tail, norm)


def support_mass(pmf: PhotonNumberPmf | JointPmf) -> float:
    """Probability mass on the truncated support 0..n_max."""
    return float(pmf.probs.sum())


def pmf_mean(pmf: PhotonNumberPmf | JointPmf) -> float:
    """Mean photon number, conditional on the truncated support."""
    mass = support_mass(pmf)
    if mass <= 0.0:
        raise UndefinedRatioError("pmf has zero mass on its support")
    return float(np.arange(pmf.n_max + 1, dtype=np.float64) @ pmf.probs) / mass


def second_factorial_moment(pmf: PhotonNumberPmf) -> float:
    """<n(n-1)> conditional on the truncated support."""
    mass = support_mass(pmf)
    if mass <= 0.0:
        raise UndefinedRatioError("pmf has zero mass on its support")
    ns = np.arange(pmf.n_max + 1, dtype=np.float64)
    return float((ns * (ns - 1.0)) @ pmf.probs) / mass


def g2_of_pmf(pmf: PhotonNumberPmf) -> float:
    """Normalized second-order correlation at zero delay, <n(n-1)> / <n>^2.

    1 for Poissonian statistics, 2 for single-mode thermal, 1 + 1/K for a
    K-mode thermal mixture, 0 for an ideal single-photon state.
    """
    mean = pmf_mean(pmf)
    if mean <= 0.0:
        raise UndefinedRatioError("g2 is undefined for a zero-mean distribution")
    return second_factorial_moment(pmf) / (mean * mean)


def joint_signal_pmf_series(s: SourceParams, outcome: str, n_max: int) -> np.ndarray:
    """Joint law evaluated from its defining sum over the pair number j.

    Independent cross-check of :func:`joint_signal_pmf`: for each channel
    photon count i, sums Poisson(mu0, j) * P(outcome | j) * Binomial(j, eta_s)
    thinning over j >= i.  Returns the probability vector for i in 0..n_max.
    """
    if outcome not in ("N", "T"):
        raise ParameterError(f"outcome must be 'N' or 'T', got {outcome!r}")
    j_max = max(4 * n_max, int(8 * (1 + s.mu0)), 64)
    j = np.arange(j_max + 1, dtype=np.float64)
    if s.mu0 > 0:
        log_pois = j * math.log(s.mu0) - s.mu0 - gammaln(j + 1.0)
    else:
        log_pois = np.where(j == 0, 0.0, -np.inf)
    pois = np.exp(log_pois)
    no_trig = (1.0 - s.y0_alice) * np.power(1.0 - s.eta_a, j)
    weight = no_trig if outcome == "N" else 1.0 - no_trig
    out = np.empty(n_max + 1)
    for i in range(n_max + 1):
        jj = j[i:]
        log_binom = (gammaln(jj + 1.0) - gammaln(i + 1.0) - gammaln(jj - i + 1.0)
                     + (i * math.log(s.eta_s) if s.eta_s > 0 else (0.0 if i == 0 else -np.inf)))
        if s.eta_s < 1.0:
            log_binom = log_binom + (jj - i) * math.log1p(-s.eta_s)
        else:
            log_binom = np.where(jj == i, log_binom, -np.inf)
        out[i] = float(np.sum(pois[i:] * weight[i:] * np.exp(log_binom)))
    return out


def gain_series(source: SourceParams, link: LinkParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-photon-number gain terms ``(Q_N_i, Q_T_i) = (P_N(i) Y_i, P_T(i) Y_i)``.

    Partial sums converge to the closed-form overall gains; used as the
    series oracle for :func:`gains_analytic`.
    """
    p_n = joint_signal_pmf(source, "N")
    p_t = joint_signal_pmf(source, "T")
    i = np.arange(p_n.n_max + 1)
    y = yield_n(i, link)
    return p_n.probs * y, p_t.probs * y


def dense_cells(probs: np.ndarray, clicked: int, seed: int, slot: int,
                n_pulses: int) -> np.ndarray:
    """Every pulse's cell of a run, rebuilt from the engine's block draws; a pulse in none of
    the first ``clicked`` cells reads ``clicked``."""
    cells = np.full(n_pulses, clicked)
    for lo in range(0, n_pulses, event_sim._BLOCK):
        hi = min(lo + event_sim._BLOCK, n_pulses)
        _, places, block_cells = event_sim._block(probs, clicked, seed, slot, lo, hi)
        cells[lo + places] = block_cells
    return cells


def dense_coincidences(arm_cells: np.ndarray, seed: int, slot: int, n_pulses: int,
                       max_delay: int) -> list[int]:
    """``[singles_a, singles_b, cc_0, .., cc_max_delay]`` of a run drawn from the cells
    ``[a alone | both | b alone | neither]``, counted over per-pulse click masks with no
    block edges: ``cc_k`` sums ``a[i] & b[i + k]``."""
    cells = dense_cells(arm_cells, 3, seed, slot, n_pulses)
    a, b = cells < 2, (cells == 1) | (cells == 2)
    return [int(a.sum()), int(b.sum()),
            *(int(np.count_nonzero(a[:n_pulses - k] & b[k:])) for k in range(max_delay + 1))]
