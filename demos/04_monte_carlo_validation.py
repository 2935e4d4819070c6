"""Pulse-level Monte Carlo against the closed forms, and determinism.

Each block of 2**20 pulses draws its counts in each cell of an outcome table
the run builds once, then the places and cells of its clicked pulses, all a
pure function of (seed, slot, block index), so a run is reproducible
bit-for-bit regardless of how many workers run it.  At a scaled-up transmittance
(10 dB total loss keeps desk-scale runs well-populated) the empirical gains,
error rates and heralding fraction must sit within a few standard errors of
the analytic model - this is the engine's acceptance contract.
"""

import math
import time
from dataclasses import replace

from pdqkd import SimConfig, gains_analytic, simulate_run
from pdqkd.link_model import db_to_linear
from pdqkd.presets import REFERENCE_RUNS

manifest = REFERENCE_RUNS["paper50km"].manifest()
source = manifest.to_source_params()
link = replace(manifest.to_link_params(), eta=db_to_linear(10.0))

config = SimConfig(n_pulses=20_000_000, seed=271828)
t0 = time.time()
tally, _ = simulate_run(source, link, config, workers=2)
print(f"simulated {config.n_pulses:.0e} pulses in {time.time() - t0:.1f} s")

obs = tally.to_observed_stats()
ao = gains_analytic(source, link)


def line(label, emp, ana, sample):
    se = math.sqrt(ana * (1 - ana) / sample)
    print(f"  {label}: empirical {emp:.5e}   analytic {ana:.5e}   "
          f"pull {(emp - ana) / se:+.2f} sigma")


print("\nempirical vs analytic:")
line("Q_N", obs.q_n, ao.q_n, config.n_pulses)
line("Q_T", obs.q_t, ao.q_t, config.n_pulses)
line("E_N", obs.e_n, ao.e_n, tally.det_n_match)
line("E_T", obs.e_t, ao.e_t, tally.det_t_match)
line("trigger fraction", tally.n_triggers / tally.n_pulses,
     source.trigger_prob, config.n_pulses)
line("sift fraction", (tally.sent_n_match + tally.sent_t_match) / tally.n_pulses, 0.5,
     config.n_pulses)

print("\ndeterminism: same seed, different worker counts")
small = SimConfig(n_pulses=2_000_000, seed=99)
reference, _ = simulate_run(source, link, small)
for workers in (2, 4):
    variant, _ = simulate_run(source, link, small, workers=workers)
    print(f"  workers={workers}: identical tally = {variant == reference}")
