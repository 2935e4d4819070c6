"""Property tests of the engine and event-log invariants (derandomized, so deterministic)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqkd.dataio import read_events, tally_from_events, write_events
from pdqkd.event_sim import SimConfig, simulate_run
from pdqkd.link_model import LinkParams, db_to_linear
from pdqkd.photon_source import SourceParams

# a bright, low-loss link, so that a few thousand pulses give many detections
SOURCE = SourceParams(mu0=0.5, eta_s=0.5, eta_a=0.2)
LINK = LinkParams(eta=db_to_linear(3.0), y0=1e-3, e_d=0.02)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 3000), batch=st.integers(1, 3000),
       workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**64 - 1))
def test_run_independent_of_batching_and_log_round_trips(n, batch, workers, seed):
    config = SimConfig(n_pulses=n, seed=seed, batch_size=n, record_events=True)
    tally, events = simulate_run(SOURCE, LINK, config)
    again = simulate_run(SOURCE, LINK, SimConfig(n_pulses=n, seed=seed, batch_size=batch,
                                                 record_events=True), workers=workers)
    assert again[0] == tally and np.array_equal(again[1], events)
    assert tally_from_events(events) == tally
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("events.csv", "events.npy"):
            path = Path(tmp) / name
            write_events(events, path)
            assert np.array_equal(read_events(path), events)
