"""Slow series oracles that the closed forms of the library are checked against.

They evaluate the defining sums term by term, or count pulse by pulse, and
live with the tests, apart from the code they check.  Import them as ``from oracles import ...``.
"""

import math

import numpy as np
from scipy.special import gammaln

from pdqkd import event_sim
from pdqkd.errors import ParameterError
from pdqkd.link_model import LinkParams, yield_n
from pdqkd.photon_source import SourceParams, joint_signal_pmf


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
