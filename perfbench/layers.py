"""Traced functions of each pdqkd layer and the per-layer metrics made from their spans.

Metric names are ``<module>.<function>.<stat>``.  Times (``.s``, ``.self_s``,
``us_per_*``, ``ns_per_value``) are means per call and vary from run to run.
Counts are per round and repeat exactly for a given seed, because every round
of a run repeats the same commands on the same inputs; ``key_rate.calls`` and
``gains_analytic.calls`` are per ``reproduce fig4`` command instead, and
``write_events.bytes`` per call.

A workload's metrics come from its own commands, not from the probes of the
other families that share its rounds, wherever its own commands reach the
layer; ``rng.values_per_pulse`` on ``protocol_50km`` is thus the ``simulate``
path's count alone.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Target, busy_and_self


def _values_drawn(args, result) -> dict:
    return {"values": int(args["count"])}


def _values_at(args, result) -> dict:
    return {"values": len(args["pulse_ids"])}


def _run_counts(args, result) -> dict:
    tally = result[0]
    return {"pulses": args["config"].n_pulses,
            "detections": tally.detections_n + tally.detections_t}


def _pulses(args, result) -> dict:
    return {"pulses": args["config"].n_pulses}


def _rows_written(args, result) -> dict:
    return {"rows": len(args["events"]), "bytes": os.path.getsize(args["path"])}


def _rows_read(args, result) -> dict:
    return {"rows": len(result)}


ENGINES = ("event_sim.simulate_run", "event_sim.simulate_hbt", "event_sim.simulate_car")
PMFS = ("photon_source.poisson_pmf", "photon_source.thermal_pmf",
        "photon_source.multimode_thermal_pmf")

TARGETS = (
    Target("pdqkd.rng", "uniform_stream", _values_drawn),
    Target("pdqkd.rng", "uniform_at", _values_at),
    Target("pdqkd.event_sim", "simulate_run", _run_counts),
    Target("pdqkd.event_sim", "simulate_hbt", _pulses),
    Target("pdqkd.event_sim", "simulate_car", _pulses),
    # batch helpers run on the worker threads; traced so those threads link
    # back to the engine call, their time counts as the engine's own
    Target("pdqkd.event_sim", "_run_batch", layer=False),
    Target("pdqkd.event_sim", "_hbt_batch", layer=False),
    Target("pdqkd.dataio", "write_events", _rows_written),
    Target("pdqkd.dataio", "read_events", _rows_read),
    Target("pdqkd.dataio", "tally_from_events"),
    Target("pdqkd.dataio", "write_tally"),
    Target("pdqkd.dataio", "read_tally"),
    Target("pdqkd.dataio", "write_results"),
    Target("pdqkd.decoy_estimator", "key_rate"),
    Target("pdqkd.decoy_estimator", "scan_loss"),
    Target("pdqkd.link_model", "gains_analytic"),
    Target("pdqkd.photon_source", "poisson_pmf"),
    Target("pdqkd.photon_source", "thermal_pmf"),
    Target("pdqkd.photon_source", "multimode_thermal_pmf"),
    Target("pdqkd.cli", "main"),
)

#: name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "rng.uniform_stream.s": ("s", "lower"),
    "rng.uniform_stream.values": ("values", "lower"),
    "rng.uniform_at.s": ("s", "lower"),
    "rng.uniform_at.values": ("values", "lower"),
    "rng.ns_per_value": ("ns", "lower"),
    "rng.values_per_pulse": ("values/pulse", "lower"),
    "rng.share_of_sim": ("fraction", "lower"),
    "event_sim.simulate_run.s": ("s", "lower"),
    "event_sim.simulate_run.self_s": ("s", "lower"),
    "event_sim.pulses": ("pulses", "higher"),
    "event_sim.detections": ("detections", "higher"),
    "event_sim.detect_per_pulse": ("1/pulse", "higher"),
    "event_sim.simulate_hbt.self_s": ("s", "lower"),
    "event_sim.simulate_car.self_s": ("s", "lower"),
    "dataio.write_events.us_per_row": ("us/row", "lower"),
    "dataio.read_events.us_per_row": ("us/row", "lower"),
    "dataio.write_events.bytes": ("bytes", "lower"),
    "dataio.tally_from_events.s": ("s", "lower"),
    "dataio.write_tally.s": ("s", "lower"),
    "dataio.read_tally.s": ("s", "lower"),
    "dataio.write_results.s": ("s", "lower"),
    "decoy_estimator.key_rate.calls": ("calls/fig4", "lower"),
    "decoy_estimator.key_rate.us_per_call": ("us", "lower"),
    "decoy_estimator.scan_loss.s": ("s", "lower"),
    "decoy_estimator.scan_loss.self_s": ("s", "lower"),
    "link_model.gains_analytic.calls": ("calls/fig4", "lower"),
    "link_model.gains_analytic.s": ("s", "lower"),
    "photon_source.pmf.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    # a layer the round never reached reads 0 rather than failing the run
    return num / den if den else 0.0


def _basis(metric: str) -> tuple[str, ...]:
    """The traced functions a metric is made of."""
    if metric in ("rng.ns_per_value", "rng.values_per_pulse", "rng.share_of_sim",
                  "event_sim.pulses"):
        return ENGINES  # the values drawn are counted against the engines' pulses
    if metric.startswith("event_sim.detect"):
        return ("event_sim.simulate_run",)
    if metric == "photon_source.pmf.s":
        return PMFS
    return (metric.rsplit(".", 1)[0],)


def per_layer_metrics(spans, rounds: int, own_ops: set[int],
                      fig4_ops: set[int]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics from the spans of ``rounds`` identical rounds.

    A metric comes from the spans of the workload's own commands (``own_ops``)
    when those call any function it is made of, and from the probes otherwise;
    the second value names the metrics that come from the probes.  The
    ``.calls`` counts come from the ``reproduce fig4`` commands (``fig4_ops``).
    """
    busy, self_time = busy_and_self(spans)
    names = {s.sid: s.name for s in spans}
    own, every = defaultdict(list), defaultdict(list)
    for s in spans:
        every[s.name].append(s)
        if s.op in own_ops:
            own[s.name].append(s)

    def mean(g, name, table=busy):
        return _ratio(sum(table[s.sid] for s in g[name]), len(g[name]))

    def total(g, name, key):
        return sum(s.counts.get(key, 0) for s in g[name])

    def per_row(g, name):
        return 1e6 * _ratio(sum(busy[s.sid] for s in g[name]), total(g, name, "rows"))

    def per_fig4(name):
        return _ratio(sum(1 for s in every[name] if s.op in fig4_ops), len(fig4_ops))

    def rng_busy(g):
        return sum(busy[s.sid] for n in ("rng.uniform_stream", "rng.uniform_at") for s in g[n])

    def rng_values(g):
        return total(g, "rng.uniform_stream", "values") + total(g, "rng.uniform_at", "values")

    def engine_pulses(g):
        return sum(total(g, n, "pulses") for n in ENGINES)

    def engine_busy(g):
        return sum(busy[s.sid] for n in ENGINES for s in g[n])

    def pmf_mean(g):
        outer = [s for n in PMFS for s in g[n] if names.get(s.parent) not in PMFS]
        return _ratio(sum(busy[s.sid] for s in outer), len(outer))

    formulas = {
        "rng.uniform_stream.s": lambda g: mean(g, "rng.uniform_stream"),
        "rng.uniform_stream.values": lambda g: total(g, "rng.uniform_stream", "values") / rounds,
        "rng.uniform_at.s": lambda g: mean(g, "rng.uniform_at"),
        "rng.uniform_at.values": lambda g: total(g, "rng.uniform_at", "values") / rounds,
        "rng.ns_per_value": lambda g: 1e9 * _ratio(rng_busy(g), rng_values(g)),
        "rng.values_per_pulse": lambda g: _ratio(rng_values(g), engine_pulses(g)),
        "rng.share_of_sim": lambda g: _ratio(rng_busy(g), engine_busy(g)),
        "event_sim.simulate_run.s": lambda g: mean(g, "event_sim.simulate_run"),
        "event_sim.simulate_run.self_s":
            lambda g: mean(g, "event_sim.simulate_run", self_time),
        "event_sim.pulses": lambda g: engine_pulses(g) / rounds,
        "event_sim.detections":
            lambda g: total(g, "event_sim.simulate_run", "detections") / rounds,
        "event_sim.detect_per_pulse": lambda g: _ratio(
            total(g, "event_sim.simulate_run", "detections"),
            total(g, "event_sim.simulate_run", "pulses")),
        "event_sim.simulate_hbt.self_s": lambda g: mean(g, "event_sim.simulate_hbt", self_time),
        "event_sim.simulate_car.self_s": lambda g: mean(g, "event_sim.simulate_car", self_time),
        "dataio.write_events.us_per_row": lambda g: per_row(g, "dataio.write_events"),
        "dataio.read_events.us_per_row": lambda g: per_row(g, "dataio.read_events"),
        "dataio.write_events.bytes": lambda g: _ratio(total(g, "dataio.write_events", "bytes"),
                                                      len(g["dataio.write_events"])),
        "dataio.tally_from_events.s": lambda g: mean(g, "dataio.tally_from_events"),
        "dataio.write_tally.s": lambda g: mean(g, "dataio.write_tally"),
        "dataio.read_tally.s": lambda g: mean(g, "dataio.read_tally"),
        "dataio.write_results.s": lambda g: mean(g, "dataio.write_results"),
        "decoy_estimator.key_rate.calls": lambda g: per_fig4("decoy_estimator.key_rate"),
        "decoy_estimator.key_rate.us_per_call":
            lambda g: 1e6 * mean(g, "decoy_estimator.key_rate"),
        "decoy_estimator.scan_loss.s": lambda g: mean(g, "decoy_estimator.scan_loss"),
        "decoy_estimator.scan_loss.self_s":
            lambda g: mean(g, "decoy_estimator.scan_loss", self_time),
        "link_model.gains_analytic.calls": lambda g: per_fig4("link_model.gains_analytic"),
        "link_model.gains_analytic.s": lambda g: mean(g, "link_model.gains_analytic"),
        "photon_source.pmf.s": pmf_mean,
        "cli.main.s": lambda g: mean(g, "cli.main"),
        "cli.main.self_s": lambda g: mean(g, "cli.main", self_time),
    }
    values, from_probes = {}, set()
    for metric, formula in formulas.items():
        if metric.endswith(".calls"):
            own_reaches = bool(fig4_ops & own_ops)
        else:
            own_reaches = any(own[n] for n in _basis(metric))
        if not own_reaches:
            from_probes.add(metric)
        values[metric] = formula(own if own_reaches else every)
    return values, from_probes
