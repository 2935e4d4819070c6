"""Operator command line.

Subcommands: ``simulate``, ``estimate``, ``scan-loss``, ``hbt``, ``car``,
``calibrate``, ``reproduce``.  Every subcommand is deterministic given
(config, overrides, seed); ``--workers``, taken by the Monte Carlo commands
``simulate``, ``hbt`` and ``car``, spreads the engine's fixed blocks over
threads (``simulate`` only for ``--events``: a tally alone comes from the blocks'
cell counts, on one thread) and never changes any output byte; no setting cuts a
run up.  Every output path is checked, against the others and the inputs too, before
any work starts.  The parser is built on the first :func:`main` call of a process.

Exit codes: 0 success, 1 usage, 2 data/parse, 3 numeric/degenerate.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import dataio, event_sim
from .decoy_estimator import ObservedStats, key_rate, scan_loss
from .errors import (ConfigError, DataFormatError, DegenerateStatisticsError,
                     EstimatorError, ParameterError, TruncationError,
                     UndefinedRatioError)
from .photon_source import calibrate_eta_a, multimode_thermal_pmf, poisson_pmf, thermal_pmf
from .presets import PRESET_NAMES, preset_manifest, table1_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CONFIG_DIR_ENV = "PDQKD_CONFIG_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(EXIT_USAGE, message))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _config_keys_epilog() -> str:
    lines = ["config keys (flat 'key = value' files; losses always in dB):"]
    for key, (_, _, default, doc) in dataio._SCHEMA.items():
        lines.append(f"  {key:<14} {doc} [default: {default!r}]")
    lines.append(f"presets: {', '.join(PRESET_NAMES)} "
                 f"(or a path; ${CONFIG_DIR_ENV} sets the search directory)")
    return "\n".join(lines)


def _config_path(name_or_path: str | None) -> Path | None:
    """The config file that ``--config`` names; None for no config or a preset."""
    if name_or_path is None or name_or_path in PRESET_NAMES:
        return None
    path = Path(name_or_path)
    if not path.exists():
        base = os.environ.get(CONFIG_DIR_ENV)
        if not (base and (Path(base) / name_or_path).exists()):
            raise ConfigError(f"config {name_or_path!r} is neither a preset "
                              f"({', '.join(PRESET_NAMES)}) nor an existing file")
        path = Path(base) / name_or_path
    return path


def load_manifest(name_or_path: str | None, overrides: list[str]) -> dataio.RunManifest:
    path = _config_path(name_or_path)
    if path is not None:
        manifest = dataio.read_config(path)
    elif name_or_path is None:
        manifest = dataio.RunManifest(values={})
    else:
        manifest = preset_manifest(name_or_path)
    parsed = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        parsed[key.strip()] = value.strip()
    return manifest.with_overrides(parsed)


def _run_manifest(args) -> dataio.RunManifest:
    """Config of an engine command, with its --pulses/--seed/--mu0 flags applied."""
    if args.workers < 1:  # refused also where no thread would start
        raise ParameterError(f"workers must be >= 1, got {args.workers!r}")
    manifest = load_manifest(args.config, args.set)
    flags = {"n_pulses": args.pulses, "seed": args.seed, "mu0": getattr(args, "mu0", None)}
    return manifest.with_overrides({k: str(v) for k, v in flags.items() if v is not None})


def _check_writable(*outputs, reads=()) -> None:
    """Raise :class:`DataFormatError` for an output path that cannot be written, or that
    names the same file as another output or as one of the files the command ``reads``,
    before any work starts; creates no file."""
    taken = {Path(p).resolve(): "an input" for p in reads if p}
    for path in filter(None, outputs):
        p = Path(path)
        if p.is_dir() or not p.parent.is_dir() or not os.access(
                p if p.exists() else p.parent, os.W_OK):
            raise DataFormatError("not a writable file", str(path))
        if p.resolve() in taken:
            raise DataFormatError(f"names the same file as {taken[p.resolve()]}", str(path))
        taken[p.resolve()] = "another output"


def _print_keyrate(result) -> None:
    u = result.bounds.u_alpha
    print(f"mode           : {'finite' if u else 'asymptotic'} (u_alpha={u:g}, "
          f"N={result.obs.n_pulses})")
    print(f"y1_lower       : {result.y1_low:.6e}")
    print(f"e1_upper (N/T) : {result.branch_n.e1_up:.6e} / {result.branch_t.e1_up:.6e}")
    print(f"R_N, R_T       : {result.r_n:.6e}, {result.r_t:.6e} bit/pulse")
    print(f"R              : {result.r:.6e} bit/pulse")
    print(f"key length     : {result.key_bits:.6e} bit")
    if result.clamps:
        print(f"clamps         : {', '.join(result.clamps)}")


def cmd_simulate(args) -> int:
    _check_writable(args.out, args.events, reads=[_config_path(args.config)])
    manifest = _run_manifest(args)
    config = manifest.to_sim_config()
    source = manifest.to_source_params()
    link = manifest.to_link_params()
    if args.events:
        tally, log = event_sim.simulate_run(source, link, config, workers=args.workers)
    else:  # the tally alone, from each block's cell counts
        tally = event_sim.simulate_tally(source, link, config)
    obs = tally.to_observed_stats()
    print(f"pulses         : {tally.n_pulses}")
    print(f"triggers       : {tally.n_triggers} "
          f"(fraction {tally.n_triggers / tally.n_pulses:.6e})")
    print(f"detections N/T : {tally.detections_n} / {tally.detections_t}")
    print(f"Q_N, Q_T       : {obs.q_n:.6e}, {obs.q_t:.6e}")
    print(f"E_N, E_T       : {obs.e_n:.6e}, {obs.e_t:.6e}")
    if args.out:
        dataio.write_tally(tally, args.out)
        print(f"tally written  : {args.out}")
    if args.events:
        dataio.write_events(log, args.events)
        print(f"events written : {args.events}")
    return EXIT_OK


def _observed_from_args(args, manifest) -> ObservedStats:
    direct = (("--q-n", args.q_n), ("--q-t", args.q_t), ("--e-n", args.e_n), ("--e-t", args.e_t))
    given_direct = any(v is not None for _, v in direct)
    sources = sum([args.tally is not None, args.events is not None, given_direct])
    if sources != 1:
        raise ConfigError("provide exactly one input: --tally, --events, "
                          "or the direct --q-n/--q-t/--e-n/--e-t rates")
    if args.tally or args.events:
        path = args.tally or args.events
        tally = (dataio.read_tally(path) if args.tally
                 else dataio.tally_from_events(dataio.read_events(path)))
        if not tally.n_pulses:
            raise DataFormatError("holds no pulses", path)
        return tally.to_observed_stats()
    missing = [name for name, v in direct if v is None]
    if missing:
        raise ConfigError(f"direct input needs all four rates; missing {', '.join(missing)}")
    return ObservedStats(q_n=args.q_n, q_t=args.q_t, e_n=args.e_n, e_t=args.e_t,
                         n_pulses=manifest["n_pulses"])


def cmd_estimate(args) -> int:
    _check_writable(args.out, reads=[_config_path(args.config), args.tally, args.events])
    manifest = load_manifest(args.config, args.set)
    obs = _observed_from_args(args, manifest)
    if args.calibrate_eta_a:
        if not obs.n_triggers:
            raise ConfigError("--calibrate-eta-a needs the trigger count of a --tally or "
                              "--events input; for direct rates, run calibrate "
                              "--trigger-rate N_A/N --mu0 MU0 and pass --set eta_a=...")
        eta_a = calibrate_eta_a(obs.n_triggers / obs.n_pulses, manifest["mu0"],
                                manifest["y0_alice"])
        manifest = manifest.with_overrides({"eta_a": repr(eta_a)})
    source = manifest.to_source_params()
    try:
        result = key_rate(obs, manifest.to_protocol_params(), source)
    except DegenerateStatisticsError as exc:
        print(f"warning: degenerate statistics ({exc.observable}); no key can be claimed",
              file=sys.stderr)
        print("R              : 0.0 bit/pulse")
        print("key length     : 0.0 bit")
        return EXIT_OK
    _print_keyrate(result)
    if args.out:
        row = dataio.ResultsRow.from_result(manifest["eta_db"], result)
        dataio.write_results([row], args.out)
        print(f"results written: {args.out}")
    return EXIT_OK


# a scan's peak memory grows by about 2 KB per point (measured on a 3,501-point scan), so
# this caps it near 200 MB; fig4 has 351 points
_MAX_GRID_POINTS = 100_000


def _grid(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid bounds and step must be finite, got {start:g}..{stop:g} "
                          f"step {step:g}")
    if start < 0 or step <= 0 or stop < start:
        raise ConfigError("need 0 <= --from <= --to and --step > 0")
    # floor: the grid ends at --to or short of it, never a step beyond (1e-9 absorbs rounding);
    # the span stays a float until it is bounded, so a step too small for it reads as inf
    span = (stop - start) / step + 1e-9
    if span >= _MAX_GRID_POINTS:
        raise ConfigError(f"a grid of {span + 1:.3g} points exceeds the limit of "
                          f"{_MAX_GRID_POINTS:,}; use a larger --step")
    return [start + i * step for i in range(math.floor(span) + 1)]


def _scan(manifest: dataio.RunManifest, grid: list[float]):
    """The loss scan of ``manifest`` over ``grid``, and its rows."""
    link = manifest.to_link_params()
    protocol = manifest.to_protocol_params()
    if protocol.u_alpha and link.e_d == link.y0 == 0.0:  # E_N Q_N is zero at every loss
        raise DegenerateStatisticsError("E_N*Q_N", "e_d = 0 and y0_bob = 0 leave no errors to "
                                        "bound at any loss; set either, or u_alpha=0")
    scan = scan_loss(manifest.to_source_params(), link, protocol, grid, manifest["n_pulses"])
    return scan, [dataio.ResultsRow.from_result(p.loss_db, p.result) for p in scan.points]


def cmd_scan_loss(args) -> int:
    _check_writable(args.out, reads=[_config_path(args.config)])
    scan, rows = _scan(load_manifest(args.config, args.set),
                       _grid(args.loss_from, args.loss_to, args.step))
    print(f"grid           : {args.loss_from:g}..{args.loss_to:g} dB, "
          f"step {args.step:g} ({len(rows)} points)")
    return _report_scan(scan, rows, args.out)


def _report_scan(scan, rows, out: str | None) -> int:
    print(f"R_N reaches 0  : {_fmt_cutoff(scan.r_n_cutoff_db)}")
    print(f"R   reaches 0  : {_fmt_cutoff(scan.r_cutoff_db)}")
    if out:
        dataio.write_results(rows, out)
        print(f"results written: {out}")
    return EXIT_OK


def _fmt_cutoff(value) -> str:
    if value is None:
        return "below the grid (rate zero everywhere)"
    if value == float("inf"):
        return "beyond the grid (rate still positive at its end)"
    return f"{value:.3f} dB"


def _hbt_pmf(args, mu0: float):
    if args.source == "poisson":
        return poisson_pmf(mu0)
    if args.source == "thermal":
        return thermal_pmf(mu0)
    return multimode_thermal_pmf(mu0, args.k_modes)


def cmd_hbt(args) -> int:
    manifest = _run_manifest(args)
    source = manifest.to_source_params()
    config = manifest.to_sim_config()
    hist = event_sim.simulate_hbt(_hbt_pmf(args, source.mu0), args.detector_eff, config,
                                  workers=args.workers)
    print(f"pulses         : {hist.n_pulses}")
    print(f"singles        : {hist.singles_1} / {hist.singles_2}")
    print(f"g2(0)          : {hist.g2_zero:.4f} +/- {hist.g2_zero_sigma:.4f}")
    print(f"zero/off ratio : {hist.car:.4f}")
    print("delay bins     : " + " ".join(str(d) for d in hist.delays))
    print("coincidences   : " + " ".join(str(c) for c in hist.coincidences))
    return EXIT_OK


def cmd_car(args) -> int:
    manifest = _run_manifest(args)
    source = manifest.to_source_params()
    config = manifest.to_sim_config()
    res = event_sim.simulate_car(source, args.signal_eff, config, workers=args.workers)
    bound = " (lower bound: no accidentals recorded)" if res.is_lower_bound else ""
    print(f"coincidences   : {res.coincidences}")
    print(f"accidentals    : {res.accidentals}")
    print(f"CAR            : {res.car:.4f}{bound}")
    if (mu0 := res.mu0(source.y0_alice)) is not None:
        print(f"mu0 (inverted) : {mu0:.6f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.trigger_rate is None or args.mu0 is None:
        raise ConfigError("--trigger-rate needs --mu0")
    print(f"eta_a          : {calibrate_eta_a(args.trigger_rate, args.mu0, 0.0):.6f}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.target == "fig4":
        return _reproduce_fig(args.out or "fig4.csv")
    if args.out:
        return _fail(EXIT_USAGE, "--out is for fig4; reproduce table1 prints its rows and "
                     "writes no file")
    return _reproduce_table()


def _reproduce_table() -> int:
    print(f"{'run':<10} {'quantity':<5} {'model':>12} {'published':>12} {'rel.dev':>9}")
    rows = table1_rows()
    for name, label, model, published, dev in rows:
        print(f"{name:<10} {label:<5} {model:>12.4e} {published:>12.4e} {dev:>+8.1%}")
    print(f"largest relative deviation: {max(abs(row[4]) for row in rows):.1%}")
    return EXIT_OK


def _reproduce_fig(out: str) -> int:
    """The published curve: paper50km at 0..35 dB in 0.1 dB steps."""
    _check_writable(out)
    scan, rows = _scan(preset_manifest("paper50km"), _grid(0.0, 35.0, 0.1))
    return _report_scan(scan, rows, out)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="preset name or config file path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (validated against the schema)")


def _add_engine(p: argparse.ArgumentParser) -> None:
    """Flags of the Monte Carlo commands ``simulate``, ``hbt`` and ``car``."""
    _add_common(p)
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for hbt, car and simulate --events (a tally alone "
                   "runs on one); never changes numeric output")
    p.add_argument("--pulses", type=float, help="override n_pulses")
    p.add_argument("--seed", type=int, help="override seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by later ones: parsing never changes the parser."""
    parser = _Parser(prog="pdqkd",
                     description="Passive decoy-state BB84 simulator and estimator",
                     epilog=_config_keys_epilog(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the pulse-level Monte Carlo engine",
                       epilog=_config_keys_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_engine(p)
    p.add_argument("--out", help="write the tally summary here")
    p.add_argument("--events", help="write the event log here: CSV of the detections "
                   "and the pulses sent per trigger/basis cell")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="key rate from a tally, event log, or direct rates")
    _add_common(p)
    p.add_argument("--tally", help="tally summary file")
    p.add_argument("--events", help="event log file (CSV, as simulate --events writes it)")
    p.add_argument("--q-n", type=float, help="direct non-trigger gain")
    p.add_argument("--q-t", type=float, help="direct trigger gain")
    p.add_argument("--e-n", type=float, help="direct non-trigger QBER")
    p.add_argument("--e-t", type=float, help="direct trigger QBER")
    p.add_argument("--calibrate-eta-a", action="store_true",
                   help="recalibrate eta_a from the trigger fraction of a --tally "
                   "or --events input")
    p.add_argument("--out", help="write a one-row results CSV here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("scan-loss", help="key rate over a loss grid (analytic observables)")
    _add_common(p)
    p.add_argument("--from", dest="loss_from", type=float, default=0.0, help="grid start, dB")
    p.add_argument("--to", dest="loss_to", type=float, default=35.0, help="grid end, dB")
    p.add_argument("--step", type=float, default=0.1, help="grid step, dB")
    p.add_argument("--out", help="write the results CSV here")
    p.set_defaults(func=cmd_scan_loss)

    p = sub.add_parser("hbt", help="virtual beam-splitter correlation experiment")
    _add_engine(p)
    p.add_argument("--mu0", type=float, help="override the mean pair number")
    p.add_argument("--detector-eff", type=float, default=0.15)
    p.add_argument("--source", choices=("poisson", "thermal", "multimode"),
                   default="poisson")
    p.add_argument("--k-modes", type=int, default=10, help="modes for --source multimode")
    p.set_defaults(func=cmd_hbt)

    p = sub.add_parser("car", help="virtual signal/idler coincidence experiment")
    _add_engine(p)
    p.add_argument("--mu0", type=float, help="override the mean pair number")
    p.add_argument("--signal-eff", type=float, default=0.15)
    p.set_defaults(func=cmd_car)

    p = sub.add_parser("calibrate", help="invert a trigger fraction into eta_a")
    p.add_argument("--trigger-rate", type=float,
                   help="measured N_A / N, inverted with no heralding dark count (y0_alice = 0)")
    p.add_argument("--mu0", type=float, help="mean pair number")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reproduce", help="rebuild the published comparison tables/curves")
    p.add_argument("target", choices=("table1", "fig4"))
    p.add_argument("--out", help="results CSV path for fig4")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as exc:
        return _fail(EXIT_DATA, str(exc))
    except (EstimatorError, TruncationError, UndefinedRatioError) as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ParameterError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
