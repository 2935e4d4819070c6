"""Toy-size smoke test of the benchmark, so that it cannot rot.

Run from the repository root:  python3 -m pytest -q perfbench/tests

Each workload runs one round at toy sizes, timed and traced, and must pass
every output check and report exactly the metrics BENCHMARK.json declares.
The full-size runs take minutes and stay out of the test suite.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
import gauge  # noqa: E402
from tracer import Span, Target, Tracer, busy_and_self  # noqa: E402

TOY = workloads.Sizes(sim_pulses=800_000, sim_batch=400_000, log_rows=10_000, scan_reps=2,
                      hbt_pulses=1_000_000, car_pulses=1_000_000, probe_pulses=200_000,
                      probe_batch=100_000, probe_rows=5_000, probe_source_pulses=200_000)
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_round_passes_checks_and_reports_declared_metrics(workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0.0, trace=trace, sizes=TOY)
    assert result["failed"] == 0, lines
    assert result["correct"] and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_traced_counts_repeat_exactly():
    first, _ = run.run("estimator_scan", seed=5, seconds=0.0, trace=True, sizes=TOY)
    again, _ = run.run("estimator_scan", seed=5, seconds=0.0, trace=True, sizes=TOY)
    for name in ("decoy_estimator.key_rate.calls", "rng.values_per_pulse",
                 "event_sim.detections", "dataio.write_events.bytes"):
        assert first["metrics"][name] == again["metrics"][name]
    assert first["metrics"]["decoy_estimator.key_rate.calls"]["value"] == 431


def test_per_layer_metrics_come_from_the_workloads_own_commands():
    result, lines = run.run("protocol_50km", seed=3, seconds=0.0, trace=True, sizes=TOY)
    # simulate draws 6 values per pulse and 3 per detection; the probes'
    # hbt, car and --events commands draw other numbers per pulse
    assert 6.0 < result["metrics"]["rng.values_per_pulse"]["value"] < 6.01
    assert not any("rng." in line and "from the probes" in line for line in lines)
    assert any("dataio.write_events" in line and "from the probes" in line for line in lines)


def test_tracer_records_a_call_that_raises():
    import pdqkd.decoy_estimator

    tracer = Tracer([Target("pdqkd.decoy_estimator", "key_rate")])
    tracer.install()
    tracer.op = 0
    try:
        with pytest.raises(Exception):
            pdqkd.decoy_estimator.key_rate(None, None, None, None)
    finally:
        tracer.op = -1
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["decoy_estimator.key_rate"]


def test_gauge_reading_leaves_the_programs_interpreter_settings_alone():
    import gc

    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(5000, 20, 20)
    sys.setswitchinterval(0.02)
    gc.disable()
    try:
        readings = gauge.read([gauge.python_gauge, gauge.numpy_gauge()])
        assert not gc.isenabled()
        assert gc.get_threshold() == (5000, 20, 20) and sys.getswitchinterval() == 0.02
    finally:
        gc.enable()
        gc.set_threshold(*threshold)
        sys.setswitchinterval(interval)
    assert len(readings) == 2 and all(r > 0 for r in readings)


def test_tracer_patches_every_binding_and_reports_absent_functions():
    import pdqkd
    import pdqkd.cli
    import pdqkd.decoy_estimator
    import pdqkd.event_sim

    modules = (pdqkd, pdqkd.cli, pdqkd.decoy_estimator, pdqkd.event_sim)
    original = pdqkd.decoy_estimator.key_rate
    tracer = Tracer([Target("pdqkd.decoy_estimator", "key_rate"),
                     Target("pdqkd.rng", "no_such_function"),
                     Target("pdqkd.no_such_module", "f")])
    tracer.install()
    try:
        assert all(m.key_rate is not original for m in modules)
    finally:
        tracer.uninstall()
    assert all(m.key_rate is original for m in modules)
    assert tracer.absent == ["rng.no_such_function", "no_such_module.f"]


def test_busy_time_sums_worker_threads_and_self_time_excludes_layers_below():
    # a 10 s engine call on thread 1 waits 8 s for two batches on threads 2
    # and 3; each batch spends part of its time in the RNG
    spans = [
        Span(0, "event_sim.simulate_run", 0.0, 10.0, 5, 1, 0, {}, True),
        Span(1, "event_sim._run_batch", 1.0, 9.0, 0, 2, 0, {}, False),
        Span(2, "event_sim._run_batch", 1.0, 9.0, 0, 3, 0, {}, False),
        Span(3, "rng.uniform_stream", 2.0, 6.0, 1, 2, 0, {}, True),
        Span(4, "rng.uniform_stream", 2.0, 8.0, 2, 3, 0, {}, True),
        Span(5, "cli.main", -1.0, 11.0, None, 1, 0, {}, True),
    ]
    busy, self_time = busy_and_self(spans)
    assert busy[0] == pytest.approx(10.0 - 8.0 + 16.0)
    assert self_time[0] == pytest.approx(18.0 - 4.0 - 6.0)
    assert busy[5] == pytest.approx(12.0 + 8.0)
    assert self_time[5] == pytest.approx(2.0)


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
