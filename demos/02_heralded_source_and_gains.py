"""From heralding statistics to the two-branch gains and error rates.

Monitoring the idler arm splits the pulses into non-triggered (N) and
triggered (T) groups whose channel-photon-number laws differ: that contrast
is the passive decoy structure.  Everything downstream needs only four
calibrated numbers: the pair mean mu0 (from the sender losses and the mean
channel photon number), the idler-arm transmittance eta_a (inverted from the
heralding fraction N_A / N), and the receiver's dark rate and error rate.

This script walks the 50 km reference calibration and compares the resulting
closed-form gains/QBERs with the published tallies.
"""

import numpy as np

from pdqkd import calibrate_eta_a, db_to_linear, gains_analytic, poisson_pmf
from pdqkd.presets import REFERENCE_RUNS

run = REFERENCE_RUNS["paper50km"]
manifest = run.manifest()
source = manifest.to_source_params()
link = manifest.to_link_params()

print("calibration chain (50 km reference run):")
print(f"  eta_s   = 19.2 dB  -> {db_to_linear(19.2):.6f} linear")
print(f"  mu      = {run.mu}  (mean photon number entering the channel)")
print(f"  mu0     = mu / eta_s = {source.mu0:.6f}")
trigger_rate = run.n_triggers / manifest["n_pulses"]
print(f"  N_A / N = {trigger_rate:.6f}")
eta_a = calibrate_eta_a(trigger_rate, source.mu0, source.y0_alice)
print(f"  eta_a   = [ln(1 - y0_alice) - ln(1 - N_A/N)] / mu0 = {eta_a:.6f}"
      f"  (y0_alice = {source.y0_alice})")

print("\nconditional photon-number laws (per-branch, sub-normalized):")
# P_N(i) = B Pois(mu_N, i) with mu_N = mu (1 - eta_a), and P_T(i) = Pois(mu, i) - P_N(i)
b = source.no_trigger_prob
print(f"  P(no trigger) = {b:.4f},  P(trigger) = {source.trigger_prob:.4f}")
print(f"  conditional mean photons | N : {source.mu_n:.6f}")
print(f"  conditional mean photons | T : {(source.mu - b * source.mu_n) / (1 - b):.6f}")
print("  (triggered pulses carry more photons; that is the decoy contrast)")

print("\nclosed-form gains vs published tallies:")
ao = gains_analytic(source, link)
for label, model, published in (("Q_N", ao.q_n, run.q_n), ("Q_T", ao.q_t, run.q_t),
                                ("E_N", ao.e_n, run.e_n), ("E_T", ao.e_t, run.e_t)):
    print(f"  {label}: model {model:.4e}   published {published:.4e}   "
          f"({model / published - 1:+.1%})")

p_n = b * poisson_pmf(source.mu_n).probs
i = np.arange(p_n.size)
q_n_terms = p_n * (1 - (1 - link.y0) * (1 - link.eta) ** i)  # Q_N_i = P_N(i) Y_i
print("\nseries convergence of the non-trigger gain (partial sums):")
for upto in (0, 1, 2, 5, i[-1]):
    print(f"  i <= {upto:>2}: {q_n_terms[:upto + 1].sum():.6e}")
print(f"  closed form: {ao.q_n:.6e}")
print(f"  residual at full truncation: {abs(q_n_terms.sum() - ao.q_n):.1e}")
assert np.isclose(q_n_terms.sum(), ao.q_n, atol=1e-10)
