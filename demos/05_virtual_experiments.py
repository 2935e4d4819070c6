"""Virtual source-characterization experiments: g2 and coincidence ratio.

Two measurements pin down the source model without touching the protocol:

- a balanced beam splitter with two threshold detectors estimates g2(0),
  separating Poissonian (1) from thermal (2) pair statistics;
- signal/idler coincidence counting gives the coincidence-to-accidental
  ratio, and its counts calibrate the pair mean: with the signal, idler and
  coincidence fractions P_s, P_i, P_si and L(p) = ln(1 - p),
  mu0 = L(P_s) [L(P_i) - L(y0_alice)] / [L(P_s + P_i - P_si) - L(P_s) - L(P_i)],
  the exact inverse of the engine's click law, which needs neither efficiency.

Both are simulated at desk scale here; the g2 run mirrors the reference
experiment's measured 0.994 +/- 0.014 on its Poissonian source.
"""

from pdqkd import SimConfig, SourceParams, poisson_pmf, simulate_car, simulate_hbt, thermal_pmf

print("beam-splitter correlation, Poissonian source (mu0 = 0.2, eff = 0.15):")
hist = simulate_hbt(poisson_pmf(0.2), 0.15, SimConfig(n_pulses=20_000_000, seed=31))
print(f"  singles: {hist.singles_1} / {hist.singles_2}")
print(f"  g2(0) = {hist.g2_zero:.4f} +/- {hist.g2_zero_sigma:.4f}   "
      "(reference measurement: 0.994 +/- 0.014)")
norm = hist.n_pulses / (hist.singles_1 * float(hist.singles_2))
flat = ", ".join(f"{c * norm:.3f}" for d, c in zip(hist.delays, hist.coincidences)
                 if d in (-2, -1, 1, 2))
print(f"  off-zero bins (should be ~1): {flat}")

print("\nsame optics, single-mode thermal source of equal mean:")
hist_th = simulate_hbt(thermal_pmf(0.2), 0.15, SimConfig(n_pulses=20_000_000, seed=32))
print(f"  g2(0) = {hist_th.g2_zero:.4f} +/- {hist_th.g2_zero_sigma:.4f}   (expect ~2)")

print("\ncoincidence-to-accidental calibration round trip:")
for mu0 in (0.05, 0.1, 0.3):
    src = SourceParams(mu0=mu0, eta_s=1.0, eta_a=0.2)
    res = simulate_car(src, 0.2, SimConfig(n_pulses=30_000_000, seed=int(100 * mu0)))
    mu0_hat = res.mu0(src.y0_alice)
    print(f"  mu0 = {mu0:<5}: CAR = {res.car:7.3f}  ->  mu0_hat = {mu0_hat:.4f} "
          f"({mu0_hat / mu0 - 1:+.1%})")
