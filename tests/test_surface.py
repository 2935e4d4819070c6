"""Settable values of the public surface, counted mechanically.

A settable value is an option flag of a CLI subcommand (summed over the
subcommands, ``--help`` excluded), a defaulted parameter of a public library
function (a function in ``pdqkd.__all__``), a config key, or a field of a public
dataclass that callers build.  The totals, the field names and the public names
themselves are pinned so that a change which adds or removes one says so.
"""

import argparse
import dataclasses
import inspect

import pdqkd
from pdqkd import dataio, decoy_estimator
from pdqkd.cli import build_parser
from pdqkd.dataio import _RETIRED, _SCHEMA


def cli_flags() -> dict[str, int]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sum(1 for a in parser._actions
                      if a.option_strings and not isinstance(a, argparse._HelpAction))
            for name, parser in sub.choices.items()}


def defaulted_parameters() -> dict[str, int]:
    counts = {}
    for name in pdqkd.__all__:
        obj = getattr(pdqkd, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            counts[name] = sum(p.default is not p.empty for p in params)
    return counts


def test_cli_flag_count():
    assert cli_flags() == {"simulate": 7, "estimate": 10, "scan-loss": 6, "hbt": 9, "car": 7,
                           "calibrate": 2, "reproduce": 1}
    assert sum(cli_flags().values()) == 42


def test_config_keys():
    assert list(_SCHEMA) == ["mu0", "eta_s_db", "eta_a", "y0_alice", "eta_db", "y0_bob", "e_d",
                             "f", "u_alpha", "n_pulses", "seed"]
    assert len(_SCHEMA) == 11
    assert list(_RETIRED) == ["batch_size", "basis_bias", "e0", "q"]


def test_public_names():
    assert sorted(pdqkd.__all__) == [
        "AnalyticObservables", "CarResult", "FluctuationBounds", "HbtHistogram", "KeyRateResult",
        "LinkParams", "ObservedStats", "PhotonNumberPmf", "ProtocolParams", "ScanResult",
        "SimConfig", "SourceParams", "Tally", "binary_entropy",
        "calibrate_eta_a", "db_to_linear", "e1_upper", "end_to_end",
        "fluctuation_bounds", "gains_analytic", "key_rate", "multimode_thermal_pmf",
        "poisson_pmf", "scan_loss", "simulate_car", "simulate_hbt", "simulate_run",
        "simulate_tally", "thermal_pmf", "y1_lower"]
    assert len(pdqkd.__all__) == 30


def test_defaulted_public_parameter_count():
    counts = {name: n for name, n in defaulted_parameters().items() if n}
    assert counts == {"simulate_car": 1, "simulate_hbt": 1, "simulate_run": 1}
    assert sum(counts.values()) == 3


def test_public_dataclass_fields():
    # each field of a dataclass that callers build is a value they set
    pinned = {
        "SourceParams": ["mu0", "eta_s", "eta_a", "y0_alice"],
        "LinkParams": ["eta", "y0", "e_d"],
        "ProtocolParams": ["f", "u_alpha"],
        "SimConfig": ["n_pulses", "seed"],
        "PhotonNumberPmf": ["probs", "tail_mass"],
        "ObservedStats": ["q_n", "q_t", "e_n", "e_t", "n_pulses", "n_triggers"],
        "AnalyticObservables": ["q_n", "q_t", "e_n", "e_t"],
    }
    assert {name: [f.name for f in dataclasses.fields(getattr(pdqkd, name))]
            for name in pinned} == pinned


def test_key_rate_result_fields():
    # each number of a result is held once: the rates are properties over the branches, and
    # the observations it came from, with their pulse count, travel with it
    assert [f.name for f in dataclasses.fields(pdqkd.KeyRateResult)] == [
        "obs", "y1_low", "bounds", "branch_n", "branch_t", "clamps"]
    assert [f.name for f in dataclasses.fields(decoy_estimator.BranchDiagnostics)] == [
        "e1_up", "q1", "ec_term", "single_term", "raw_rate"]


def test_car_result_fields():
    # a CAR run keeps its counts once; its ratio, the lower-bound flag and the mu0 estimate
    # are read from them
    assert [f.name for f in dataclasses.fields(pdqkd.CarResult)] == [
        "coincidences", "accidentals", "singles_signal", "singles_idler", "n_pulses"]


def test_traced_dataio_parameter_names():
    # perfbench's tracer binds these calls' arguments by name and reads args["events"] and
    # args["path"], so a renamed parameter would quietly corrupt its per-layer metrics
    names = {name: list(inspect.signature(getattr(dataio, name)).parameters)
             for name in ("write_events", "read_events", "tally_from_events", "write_tally",
                          "read_tally", "write_results")}
    assert names == {"write_events": ["events", "path"], "read_events": ["path"],
                     "tally_from_events": ["events"], "write_tally": ["tally", "path"],
                     "read_tally": ["path"], "write_results": ["rows", "path"]}
