"""Persistence: config manifests, event logs, tally summaries, results tables.

All formats are text-first and versioned:

- configs are flat ``key = value`` files (losses always in dB, never linear);
- tallies, event logs and results tables share one CSV layout: a tag line,
  fixed head lines ending in a header, then one record per line (a tally's
  counts; per detection, under a line of the pulses sent per trigger/basis
  cell; per loss point, at full double precision so re-reading reproduces
  every value exactly).

Readers report parse failures with file/line context and reject unknown or
out-of-range keys by name; retired config keys read with a warning and are ignored.
An event log is checked and counted once, when it is made or read (see
:class:`~pdqkd.event_sim.EventLog`); its writer and ``tally_from_events`` reuse that tally.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoy_estimator import KeyRateResult, ProtocolParams
from .errors import ConfigError, DataFormatError, ParameterError
from .event_sim import CELLS, EVENT_DTYPE, EventLog, SimConfig, Tally
from .link_model import LinkParams, db_to_linear
from .photon_source import SourceParams

_CONFIG_TAG = "# pdqkd:config:v1"
_TALLY_TAG = "# pdqkd:tally:v1"
_EVENTS_TAG = "# pdqkd:events:v2"
_RESULTS_TAG = "# pdqkd:results:v1"

EVENTS_HEADER = ",".join(EVENT_DTYPE.names)
_SENT_LINE = re.compile(",".join(f"sent_{cell}=([0-9]+)" for cell in CELLS))


# key -> (python type, (low, high) range or None, default, documentation the CLI help prints
# verbatim); dB keys hold losses (>= 0), and linear transmittances never appear in files
_SCHEMA: dict[str, tuple[type, tuple[float, float] | None, object, str]] = {
    "mu0": (float, (0.0, math.inf), 0.1, "mean photon-pair number per pulse (dimensionless)"),
    "eta_s_db": (float, (0.0, math.inf), 0.0, "sender internal loss, source + encoder, in dB"),
    "eta_a": (float, (0.0, 1.0), 0.1,
              "idler-arm transmittance incl. detector efficiency, linear in [0,1]"),
    "y0_alice": (float, (0.0, math.nextafter(1.0, 0.0)), 0.0,
                 "heralding-detector dark-count probability per pulse, linear"),
    "eta_db": (float, (0.0, math.inf), 0.0,
               "total receiver-side loss incl. channel and detector, in dB"),
    "y0_bob": (float, (0.0, 1.0), 0.0, "receiver dark-count probability per pulse, linear"),
    "e_d": (float, (0.0, 1.0), 0.0, "intrinsic detection error rate, linear in [0,1]"),
    "f": (float, (1.0, math.inf), 1.2, "error-correction inefficiency, >= 1"),
    "u_alpha": (float, (0.0, math.inf), 5.0,
                "standard deviations for the fluctuation analysis, >= 0"),
    "n_pulses": (int, (1, math.inf), 1_000_000, "number of pulses sent (N)"),
    "seed": (int, (0, 2**64 - 1), 0, "64-bit random seed"),
}

# keys of older configs, read in the range they had with a warning and ignored: the engine
# cuts a run into fixed blocks, both bases are equally likely, so the sift factor q is 1/2,
# and a dark count's bit is random, so its error rate e0 is 1/2 (no default)
_RETIRED: dict[str, tuple[type, tuple[float, float], None]] = {
    "batch_size": (int, (1, math.inf), None),
    "basis_bias": (float, (0.5, 0.5), None),
    "e0": (float, (0.5, 0.5), None),
    "q": (float, (0.5, 0.5), None),
}


@dataclass(frozen=True)
class RunManifest:
    """Complete, serializable description of a run: a value for every schema key."""

    values: dict

    def __post_init__(self):
        for key, val in self.values.items():
            _validate_key(key, val)
        for key in (k for k in _RETIRED if k in self.values):
            print(f"warning: config key {key} is retired and ignored", file=sys.stderr)
        merged = {k: self.values.get(k, default) for k, (_, _, default, _) in _SCHEMA.items()}
        object.__setattr__(self, "values", merged)

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: dict[str, str]) -> "RunManifest":
        vals = dict(self.values)
        for key, raw in overrides.items():
            vals[key] = _coerce(key, raw)
        return RunManifest(values=vals)

    def to_source_params(self) -> SourceParams:
        return SourceParams(mu0=self["mu0"], eta_s=db_to_linear(self["eta_s_db"]),
                            eta_a=self["eta_a"], y0_alice=self["y0_alice"])

    def to_link_params(self) -> LinkParams:
        return LinkParams(eta=db_to_linear(self["eta_db"]), y0=self["y0_bob"], e_d=self["e_d"])

    def to_protocol_params(self) -> ProtocolParams:
        return ProtocolParams(f=self["f"], u_alpha=self["u_alpha"])

    def to_sim_config(self) -> SimConfig:
        return SimConfig(n_pulses=self["n_pulses"], seed=self["seed"])


def _entry(key: str):
    if key not in _SCHEMA and key not in _RETIRED:
        raise ConfigError(f"unknown keys: {key}")
    return _SCHEMA.get(key) or _RETIRED[key]


def _coerce(key: str, text: str):
    kind = _entry(key)[0]
    try:
        if kind is int:
            try:
                return int(text)  # exact past 2**53, where a float would round
            except ValueError:
                as_float = float(text)  # "1e8" and "100.0" are whole numbers too
            if not as_float.is_integer():
                raise ValueError(f"not an integer: {text!r}")
            return int(as_float)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"key {key}: {exc}") from exc


def _validate_key(key: str, value) -> None:
    kind, bounds = _entry(key)[:2]
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"key {key}: expected a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"key {key}: expected an integer, got {value!r}")
    if bounds is not None:
        lo, hi = bounds
        if not (lo <= value <= hi):
            rng = f"[{lo}, {hi}]" if math.isfinite(hi) else f">= {lo}"
            raise ConfigError(f"key {key}: value {value!r} out of range {rng}")


def _read_lines(path, error=DataFormatError) -> list[str]:
    """The lines of a text file; an unreadable or non-UTF-8 file raises ``error``."""
    try:
        return Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"not a readable text file ({exc})", str(path)) from exc


def _write_table(path, head: Sequence[str], records) -> None:
    """Write the ``head`` lines, then each record's fields joined by commas, one line each;
    an unwritable path raises :class:`DataFormatError` naming it."""
    try:
        with Path(path).open("w") as fh:
            fh.writelines(f"{line}\n" for line in head)
            fh.writelines(",".join(fields) + "\n" for fields in records)
    except OSError as exc:
        raise DataFormatError(f"not a writable file ({exc})", str(path)) from exc


def _read_table(path, tag: str, what: str, header: str, parse, head=(), dtype=object):
    """The matches of ``head``, the records and their line numbers, of a table file.

    The file is the optional version ``tag``, a line per ``(pattern, name)`` of ``head``,
    ``header`` exactly, then one record of comma-separated fields per line; blank lines are
    skipped.  Record ``i`` is stored as ``parse(fields)`` at ``i`` in an array of ``dtype``.
    Every error, a ValueError or OverflowError of ``parse`` too, names the file's line.
    """
    lines = _read_lines(path)
    linenos = [n for n, line in enumerate(lines, 1) if line.strip()]  # non-blank lines, 1-based
    first = lines[linenos[0] - 1] if linenos else ""
    if first.startswith(tag.rpartition(":")[0] + ":"):
        if first.strip() != tag:
            raise DataFormatError(f"unsupported {what} version {first!r}", str(path), linenos[0])
        del linenos[0]
    matches = []
    for pattern, name in (*head, (re.compile(re.escape(header)), f"{what} header")):
        n = linenos.pop(0) if linenos else len(lines) + 1
        text = lines[n - 1].strip() if n <= len(lines) else ""
        matches.append(pattern.fullmatch(text))
        if matches[-1] is None:
            got = f": {text!r}" if text else ""
            raise DataFormatError(f"missing or malformed {name}{got}", str(path), n)
    n_fields = header.count(",") + 1
    records = np.empty(len(linenos), dtype)
    try:
        for i, n in enumerate(linenos):
            fields = lines[n - 1].split(",")
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            records[i] = parse(fields)
    except (ValueError, OverflowError) as exc:
        raise DataFormatError(str(exc), str(path), n) from exc
    return matches[:-1], records, linenos


def write_config(manifest: RunManifest, path) -> None:
    _write_table(path, [_CONFIG_TAG] + [f"{key} = {manifest[key]!r}" for key in _SCHEMA], ())


def read_config(path) -> RunManifest:
    """Parse a flat key-value config; ``#`` lines are comments, missing keys take defaults."""
    values: dict = {}
    for lineno, raw in enumerate(_read_lines(path, ConfigError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", str(path), lineno)
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key}", str(path), lineno)
        try:
            values[key] = _coerce(key, text)
            _validate_key(key, values[key])
        except ConfigError as exc:
            raise ConfigError(str(exc), str(path), lineno) from exc
    return RunManifest(values=values)


_TALLY_FIELDS = [f.name for f in fields(Tally)]
TALLY_HEADER = ",".join(_TALLY_FIELDS)


def write_tally(tally: Tally, path) -> None:
    """Write a tally as a one-row CSV (tag line, header, counts)."""
    _write_table(path, [_TALLY_TAG, TALLY_HEADER],
                 [[str(getattr(tally, name)) for name in _TALLY_FIELDS]])


def read_tally(path) -> Tally:
    _, tallies, lines = _read_table(path, _TALLY_TAG, "tally", TALLY_HEADER,
                                    lambda fields: Tally(*map(int, fields)))
    if len(tallies) != 1:
        raise DataFormatError("expected exactly one tally row", str(path),
                              lines[1] if len(lines) > 1 else None)
    return tallies[0]


def _event_log(events) -> EventLog:
    """``events``, once it is an :class:`EventLog`, which was checked and counted when made."""
    if not isinstance(events, EventLog):
        raise DataFormatError(f"events must be an EventLog, got {type(events).__name__}")
    return events


def write_events(events: EventLog, path) -> None:
    """Write an event log as CSV: tag, per-cell sent counts, header, one line per detection."""
    sent = ",".join(f"sent_{cell}={n}" for cell, n in zip(CELLS, _event_log(events).sent))
    _write_table(path, [_EVENTS_TAG, sent, EVENTS_HEADER],
                 (map(str, row) for row in events.rows.tolist()))


def read_events(path) -> EventLog:
    """Read a CSV event log back into an :class:`EventLog`; a bad record names its line."""
    (sent,), rows, lines = _read_table(path, _EVENTS_TAG, "event log", EVENTS_HEADER,
                                       lambda fields: tuple(map(int, fields)),
                                       head=[(_SENT_LINE, "sent-count line")],
                                       dtype=EVENT_DTYPE)
    try:
        return EventLog(sent=tuple(int(n) for n in sent.groups()), rows=rows)
    except DataFormatError as exc:
        raise DataFormatError(str(exc), str(path),
                              None if exc.row is None else lines[exc.row]) from exc


def tally_from_events(events: EventLog) -> Tally:
    """The tally of an event log, exactly as the engine counts it."""
    return _event_log(events).tally


@dataclass(frozen=True)
class ResultsRow:
    """One loss point of a rate table (plot-ready, loss in dB)."""

    loss_db: float
    q_n: float
    q_t: float
    e_n: float
    e_t: float
    y1_low: float
    e1_up: float
    r_n: float
    r_t: float
    r: float
    key_bits: float
    clamped_y1: bool = False
    clamped_e1: bool = False
    clamped_r_n: bool = False
    clamped_r_t: bool = False

    @classmethod
    def from_result(cls, loss_db: float, result: KeyRateResult) -> "ResultsRow":
        obs = result.obs
        return cls(loss_db=loss_db, q_n=obs.q_n, q_t=obs.q_t, e_n=obs.e_n, e_t=obs.e_t,
                   y1_low=result.y1_low, e1_up=result.branch_n.e1_up,
                   r_n=result.r_n, r_t=result.r_t, r=result.r, key_bits=result.key_bits,
                   clamped_y1="y1_low" in result.clamps,
                   clamped_e1=not {"e1_up", "e1_unbounded"}.isdisjoint(result.clamps),
                   clamped_r_n="r_n_negative" in result.clamps,
                   clamped_r_t="r_t_negative" in result.clamps)


_RESULTS_FIELDS = [f.name for f in fields(ResultsRow)]
_RESULTS_FLAGS = {f.name for f in fields(ResultsRow) if f.type == "bool"}  # written 0 or 1
RESULTS_HEADER = ",".join(_RESULTS_FIELDS)


def write_results(rows: Sequence[ResultsRow], path) -> None:
    """Write a rate table as CSV at full double precision."""
    if not rows:
        raise ParameterError("results table must contain at least one row")
    _write_table(path, [_RESULTS_TAG, RESULTS_HEADER],
                 ([str(int(getattr(row, name))) if name in _RESULTS_FLAGS
                   else repr(float(getattr(row, name))) for name in _RESULTS_FIELDS]
                  for row in rows))


def read_results(path) -> list[ResultsRow]:
    _, rows, _ = _read_table(path, _RESULTS_TAG, "results", RESULTS_HEADER,
                             lambda fields: ResultsRow(*(
                                 bool(int(p)) if name in _RESULTS_FLAGS else float(p)
                                 for name, p in zip(_RESULTS_FIELDS, fields))))
    return rows.tolist()
