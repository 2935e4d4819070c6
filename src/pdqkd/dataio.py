"""Persistence: config manifests, event logs, tally summaries, results tables.

All formats are text-first and versioned:

- configs are flat ``key = value`` files (losses always in dB, never linear);
- tallies are one-row CSV files: a tag line, a header of the counter names,
  then the counts;
- event logs are CSV: the pulses sent per trigger/basis cell on one line,
  then one row per detection under a fixed header;
- results tables are CSV with one row per loss point, serialized at full
  double precision so re-reading reproduces every value exactly.

Readers report parse failures with file/line context and reject unknown or
out-of-range keys by name; retired config keys read with a warning and are ignored.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoy_estimator import KeyRateResult, ProtocolParams, ScanPoint
from .errors import ConfigError, DataFormatError, ParameterError
from .event_sim import CELLS, EVENT_DTYPE, EventLog, SimConfig, Tally, count_tally
from .link_model import LinkParams, db_to_linear
from .photon_source import SourceParams

_CONFIG_TAG = "# pdqkd:config:v1"
_TALLY_TAG = "# pdqkd:tally:v1"
_EVENTS_TAG = "# pdqkd:events:v2"
_RESULTS_TAG = "# pdqkd:results:v1"

EVENTS_HEADER = ",".join(EVENT_DTYPE.names)
_SENT_LINE = re.compile(",".join(f"sent_{cell}=([0-9]+)" for cell in CELLS))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# config schema: key -> (python type, (low, high) range or None, default)
# dB keys hold losses (>= 0); linear transmittances never appear in files.
_SCHEMA: dict[str, tuple[type, tuple[float, float] | None, object]] = {
    "mu0": (float, (0.0, math.inf), 0.1),
    "eta_s_db": (float, (0.0, math.inf), 0.0),
    "eta_a": (float, (0.0, 1.0), 0.1),
    "y0_alice": (float, (0.0, 1.0), 0.0),
    "eta_db": (float, (0.0, math.inf), 0.0),
    "y0_bob": (float, (0.0, 1.0), 0.0),
    "e_d": (float, (0.0, 1.0), 0.0),
    "e0": (float, (0.0, 1.0), 0.5),
    "q": (float, (0.0, 1.0), 0.5),
    "f": (float, (1.0, math.inf), 1.2),
    "u_alpha": (float, (0.0, math.inf), 5.0),
    "n_pulses": (int, (1, math.inf), 1_000_000),
    "seed": (int, None, 0),
}

# keys of older configs, read in the range they had with a warning and ignored: the engine
# cuts a run into fixed batches, and both bases are equally likely (no default)
_RETIRED: dict[str, tuple[type, tuple[float, float], None]] = {
    "batch_size": (int, (1, math.inf), None),
    "basis_bias": (float, (0.5, 0.5), None),
}


#: Human documentation per config key; the CLI help reproduces this verbatim.
KEY_DOCS: dict[str, str] = {
    "mu0": "mean photon-pair number per pulse (dimensionless)",
    "eta_s_db": "sender internal loss, source + encoder, in dB",
    "eta_a": "idler-arm transmittance incl. detector efficiency, linear in [0,1]",
    "y0_alice": "heralding-detector dark-count probability per pulse, linear",
    "eta_db": "total receiver-side loss incl. channel and detector, in dB",
    "y0_bob": "receiver dark-count probability per pulse, linear",
    "e_d": "intrinsic detection error rate, linear in [0,1]",
    "e0": "dark-count error rate, linear (1/2 unless doing sensitivity studies)",
    "q": "sift factor, linear in (0,1]",
    "f": "error-correction inefficiency, >= 1",
    "u_alpha": "standard deviations for the fluctuation analysis, >= 0",
    "n_pulses": "number of pulses sent (N)",
    "seed": "64-bit random seed",
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
        merged = {k: self.values.get(k, default) for k, (_, _, default) in _SCHEMA.items()}
        object.__setattr__(self, "values", merged)

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: dict) -> "RunManifest":
        vals = dict(self.values)
        for key, raw in overrides.items():
            vals[key] = _coerce(key, raw) if isinstance(raw, str) else raw
        return RunManifest(values=vals)

    def to_source_params(self) -> SourceParams:
        return SourceParams(mu0=self["mu0"], eta_s=db_to_linear(self["eta_s_db"]),
                            eta_a=self["eta_a"], y0_alice=self["y0_alice"])

    def to_link_params(self) -> LinkParams:
        return LinkParams(eta=db_to_linear(self["eta_db"]), y0=self["y0_bob"],
                          e_d=self["e_d"], e0=self["e0"])

    def to_protocol_params(self) -> ProtocolParams:
        return ProtocolParams(q=self["q"], f=self["f"], u_alpha=self["u_alpha"],
                              e0=self["e0"])

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
    kind, bounds, _ = _entry(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"key {key}: expected a number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"key {key}: expected an integer, got {value!r}")
    if bounds is not None:
        lo, hi = bounds
        if not (lo <= value <= hi):
            rng = f"[{lo}, {hi}]" if math.isfinite(hi) else f">= {lo}"
            raise ConfigError(f"key {key}: value {value!r} out of range {rng}")


def _read_lines(path: Path, error=DataFormatError) -> list[str]:
    """The lines of a text file; an unreadable or non-UTF-8 file raises ``error``."""
    try:
        return path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"not a readable text file ({exc})", str(path)) from exc


def write_config(manifest: RunManifest, path) -> None:
    lines = [_CONFIG_TAG] + [f"{key} = {_fmt(manifest.values[key])}" for key in _SCHEMA]
    Path(path).write_text("\n".join(lines) + "\n")


def read_config(path) -> RunManifest:
    """Parse a flat key-value config; ``#`` lines are comments, missing keys take defaults."""
    path = Path(path)
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


def _skip_tag(lines: list[str], tag: str, what: str, path: Path) -> int:
    """Index of the first line after the optional version tag ``tag``."""
    if lines and lines[0].startswith(tag.rpartition(":")[0] + ":"):
        if lines[0].strip() != tag:
            raise DataFormatError(f"unsupported {what} version {lines[0]!r}", str(path), 1)
        return 1
    return 0


_TALLY_FIELDS = [f.name for f in fields(Tally)]
TALLY_HEADER = ",".join(_TALLY_FIELDS)


def write_tally(tally: Tally, path) -> None:
    """Write a tally as a one-row CSV (tag line, header, counts)."""
    row = ",".join(str(getattr(tally, name)) for name in _TALLY_FIELDS)
    Path(path).write_text(f"{_TALLY_TAG}\n{TALLY_HEADER}\n{row}\n")


def read_tally(path) -> Tally:
    path = Path(path)
    lines = [l for l in _read_lines(path) if l.strip()]
    pos = _skip_tag(lines, _TALLY_TAG, "tally", path)
    if pos >= len(lines):
        raise DataFormatError("missing tally header", str(path), pos + 1)
    header = [h.strip() for h in lines[pos].split(",")]
    unknown = set(header) - set(_TALLY_FIELDS)
    missing = set(_TALLY_FIELDS) - set(header)
    if unknown or missing:
        parts = []
        if unknown:
            parts.append(f"unknown tally fields: {', '.join(sorted(unknown))}")
        if missing:
            parts.append(f"missing tally fields: {', '.join(sorted(missing))}")
        raise DataFormatError("; ".join(parts), str(path), pos + 1)
    pos += 1
    if pos >= len(lines) or len(lines) > pos + 1:
        raise DataFormatError("expected exactly one tally row", str(path), pos + 1)
    parts = lines[pos].split(",")
    if len(parts) != len(header):
        raise DataFormatError(f"expected {len(header)} fields, got {len(parts)}",
                              str(path), pos + 1)
    try:
        values = {name: int(text) for name, text in zip(header, parts)}
    except ValueError as exc:
        raise DataFormatError(str(exc), str(path), pos + 1) from exc
    try:
        return Tally(**values)
    except ParameterError as exc:
        raise DataFormatError(str(exc), str(path)) from exc


def _checked_events(log, path=None, first_line=None) -> EventLog:
    """``log`` itself, once it is an :class:`EventLog` that a tally can be made of.

    Its rows must be ``EVENT_DTYPE`` with 0/1 flags and pulse ids that
    increase strictly and stay below ``n_pulses``, and no cell may hold more
    rows than pulses sent.  A bad record ``r`` of a file is reported on line
    ``first_line + r``.
    """
    where = None if path is None else str(path)

    def fail(message, record=None):
        line = None if record is None or first_line is None else first_line + record
        raise DataFormatError(message if record is None else f"{message} at record {record}",
                              where, line)

    if not (isinstance(log, EventLog) and len(log.sent) == len(CELLS)
            and getattr(log.rows, "dtype", None) == EVENT_DTYPE):
        fail(f"events must be an EventLog of {len(CELLS)} sent counts and {EVENT_DTYPE} rows")
    ids, n_pulses = log.rows["pulse_id"], sum(log.sent)
    for message, bad in (("pulse_id not strictly increasing",
                          1 + np.flatnonzero(ids[1:] <= ids[:-1])),
                         (f"pulse_id not below the {n_pulses} pulses sent",
                          np.flatnonzero(ids >= n_pulses))):
        if len(bad):
            fail(message, int(bad[0]))
    for name in EVENT_DTYPE.names[1:]:
        bad = np.flatnonzero(log.rows[name] > 1)
        if len(bad):
            fail(f"{name} must be 0 or 1, got {log.rows[name][bad[0]]}", int(bad[0]))
    try:
        count_tally(log)
    except ParameterError as exc:
        fail(str(exc))
    return log


def write_events(events: EventLog, path) -> None:
    """Write an event log as CSV: tag, per-cell sent counts, header, one line per detection."""
    log = _checked_events(events)
    sent = ",".join(f"sent_{cell}={n}" for cell, n in zip(CELLS, log.sent))
    with Path(path).open("w") as fh:
        fh.write(f"{_EVENTS_TAG}\n{sent}\n{EVENTS_HEADER}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in log.rows.tolist())


def read_events(path) -> EventLog:
    """Read a CSV event log back into a checked :class:`EventLog`."""
    path = Path(path)
    lines = _read_lines(path)
    pos = _skip_tag(lines, _EVENTS_TAG, "event log", path)
    sent = _SENT_LINE.fullmatch(lines[pos].strip()) if pos < len(lines) else None
    if sent is None:
        raise DataFormatError("missing or malformed sent-count line", str(path), pos + 1)
    if pos + 1 >= len(lines) or lines[pos + 1].strip() != EVENTS_HEADER:
        raise DataFormatError("missing or wrong event header", str(path), pos + 2)
    pos += 2
    rows = np.empty(len(lines) - pos, dtype=EVENT_DTYPE)
    for i, line in enumerate(lines[pos:]):
        try:  # a wrong field count is a ValueError of the assignment
            rows[i] = tuple(int(p) for p in line.split(","))
        except (ValueError, OverflowError) as exc:
            raise DataFormatError(str(exc), str(path), pos + i + 1) from exc
    log = EventLog(sent=tuple(int(n) for n in sent.groups()), rows=rows)
    return _checked_events(log, path, first_line=pos + 1)


def tally_from_events(events: EventLog) -> Tally:
    """Recount an event log into a Tally, exactly as the engine does."""
    return count_tally(_checked_events(events))


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
    def from_result(cls, loss_db: float, obs, result: KeyRateResult) -> "ResultsRow":
        return cls(loss_db=loss_db, q_n=obs.q_n, q_t=obs.q_t, e_n=obs.e_n, e_t=obs.e_t,
                   y1_low=result.y1_low, e1_up=result.single.e1_up,
                   r_n=result.r_n, r_t=result.r_t, r=result.r, key_bits=result.key_bits,
                   clamped_y1=result.single.y1_clamped,
                   clamped_e1=result.single.e1_clamped,
                   clamped_r_n=result.branch_n.clamped,
                   clamped_r_t=result.branch_t.clamped)

    @classmethod
    def from_scan_point(cls, point: ScanPoint) -> "ResultsRow":
        return cls.from_result(point.loss_db, point.observables, point.result)


_RESULTS_FIELDS = [f.name for f in fields(ResultsRow)]
_RESULTS_FLAGS = {f.name for f in fields(ResultsRow) if f.type == "bool"}  # written 0 or 1
RESULTS_HEADER = ",".join(_RESULTS_FIELDS)


def write_results(rows: Sequence[ResultsRow], path) -> None:
    """Write a rate table as CSV at full double precision."""
    if not rows:
        raise ParameterError("results table must contain at least one row")
    path = Path(path)
    with path.open("w") as fh:
        fh.write(_RESULTS_TAG + "\n")
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            vals = [str(int(getattr(row, name))) if name in _RESULTS_FLAGS
                    else repr(float(getattr(row, name))) for name in _RESULTS_FIELDS]
            fh.write(",".join(vals) + "\n")


def read_results(path) -> list[ResultsRow]:
    path = Path(path)
    lines = _read_lines(path)
    pos = _skip_tag(lines, _RESULTS_TAG, "results", path)
    if pos >= len(lines) or lines[pos].strip() != RESULTS_HEADER:
        raise DataFormatError("missing or wrong results header", str(path), pos + 1)
    pos += 1
    rows = []
    n_cols = len(_RESULTS_FIELDS)
    for i, line in enumerate(lines[pos:]):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise DataFormatError(f"expected {n_cols} fields, got {len(parts)}",
                                  str(path), pos + i + 1)
        try:
            values = {name: bool(int(p)) if name in _RESULTS_FLAGS else float(p)
                      for name, p in zip(_RESULTS_FIELDS, parts)}
        except ValueError as exc:
            raise DataFormatError(str(exc), str(path), pos + i + 1) from exc
        rows.append(ResultsRow(**values))
    return rows
