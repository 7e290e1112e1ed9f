"""Command-line verification runner.

Subcommands:
    verify        - run the full identity/invariant suite, emit CheckRecords
    correlations  - correlation table over a direction set and kappa list
    locality      - per-point operator-support report, with/without auxiliaries
    qubit         - first-quantized oracle: exact vs second-order values

Exit codes: 0 all checks pass (or table written), 1 at least one verify
check failed, 2 configuration error (including a geometry or sign choice
the run cannot be built on).

Configuration is a version-tagged INI file; every command-line flag
overrides its file counterpart, and all defaults are valid without a file.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import functools
import itertools
import json
import os
import sys

import numpy as np

from .checks import (
    RunConfig, Table, record_table, run_correlations, run_locality, run_qubit, run_verify,
)
from .errors import ConfigError, LayoutError, SignConstraintError


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_signs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated signs, got {text!r}") from exc


# INI section -> key -> (RunConfig field, parser)
_SCHEMA = {
    "run": {
        "config_version": ("config_version", int),
        "kappa": ("kappas", _parse_floats),
        "signs": ("signs", _parse_signs),
        "seed": ("seed", int),
    },
    "geometry": {
        "grid_min": ("grid_min", float),
        "grid_max": ("grid_max", float),
        "grid_points": ("grid_points", int),
        "packet_centers": ("packet_centers", _parse_floats),
        "packet_width": ("packet_width", float),
        "probe_point": ("probe_point", float),
        "separations": ("separations", _parse_floats),
    },
    "directions": {
        "mode": ("direction_mode", str),
        "n_theta": ("n_theta", int),
        "n_phi": ("n_phi", int),
        "n_random": ("n_random", int),
    },
    "tolerances": {
        "exact": ("tol_exact", float),
        "wsw": ("wsw_tol", float),
        "aperture": ("aperture_tol", float),
    },
    "output": {
        "path": ("out_path", str),
        "format": ("out_format", str),
    },
}


def load_config_file(path: str) -> dict:
    """Parse the INI run configuration into RunConfig field overrides."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:  # its message spans lines: file, line number, text
        reason = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
        raise ConfigError(f"cannot parse config {path}: {reason}") from exc
    overrides: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, parse = _SCHEMA[section][key]
            try:
                overrides[field] = parse(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return overrides


# command-line flag -> the _SCHEMA entry it overrides
_FLAGS = {
    "kappa": _SCHEMA["run"]["kappa"],
    "signs": _SCHEMA["run"]["signs"],
    "seed": _SCHEMA["run"]["seed"],
    "tol_exact": _SCHEMA["tolerances"]["exact"],
    "out": _SCHEMA["output"]["path"],
    "format": _SCHEMA["output"]["format"],
}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    overrides = load_config_file(args.config) if args.config is not None else {}
    for flag, (field, parse) in _FLAGS.items():
        if getattr(args, flag) is not None:
            overrides[field] = parse(getattr(args, flag))
    try:
        return RunConfig(**overrides)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _check_out_path(path: str) -> None:
    """Raise OSError, worded as open() words it, unless `path` can be written:
    its parent is a writable directory, and the path is no directory and, if
    it exists, writable.  Nothing is opened, so a run that fails later leaves
    an existing file as it was."""
    if path in ("-", ""):
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(parent, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


# rows per piece of a table: it bounds the text held at once, about 125 KB of
# `correlations` JSON; no other temporary spans every float of the table
_TABLE_CHUNK = 256


def _json_pieces(payload):
    """Yield `json.dumps(payload, indent=2)` in pieces, a Table written as the
    dumps text of its rows, for what a runner returns: a Table, or a dict of
    Tables (`locality`'s three reports)."""
    if isinstance(payload, Table):
        yield from _table_pieces(payload, "json")
        return
    sep = "{"
    for name, table in payload.items():
        yield f"{sep}\n  {json.encoder.encode_basestring_ascii(name)}: "
        yield from _table_pieces(table, "json", 1)
        sep = ","
    yield "\n}"


def _json_text(value, depth: int) -> str:
    """`json.dumps(value, indent=2)` as it reads nested `depth` levels deep: an
    encoded string holds no raw newline, so every line break is the indent's,
    and a scalar's text, which has none, is the plain dumps text."""
    if not isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _table_pieces(table: Table, fmt: str, depth: int = 0):
    """`table.rows()` in pieces of _TABLE_CHUNK rows, with no row built: as the
    `json.dumps(indent=2)` text at `depth`, each cell its _json_text, or as
    CSV, a header row and the rows as `csv.writer` writes them, each cell the
    text of _csv_field.  Each column is texts and a code per cell into them: a
    text per distinct bit pattern of the float columns (_float_texts), or per
    distinct object of a list column.  The head is a piece of its own; every
    other is one join over slots that run key literal (in CSV a comma), value
    text, ..., row end, the value slots filled a column at a time."""
    n, csv = len(table), fmt == "csv"
    if csv:
        # csv.writer quotes a row that is one empty cell
        cell = functools.partial(_csv_field, empty='""' if len(table.columns) == 1 else "")
        keys = ["," if i else "" for i in range(len(table.columns))]
        row_end = last_end = "\r\n"
        sep = ",".join(map(cell, table.columns)) + row_end  # the header, in the first piece
    else:
        cell = functools.partial(_json_text, depth=depth + 2)
        key = json.encoder.encode_basestring_ascii
        row = "\n" + "  " * (depth + 1)  # a row's indent; its keys' is two more
        keys = [("," if i else "{") + row + "  " + key(k) + ": "
                for i, k in enumerate(table.columns)]
        row_end, last_end = row + "}," + row, row + "}\n" + "  " * depth + "]"
        sep = "[" + row
    if not n:
        yield sep if csv else "[]"
        return
    columns = list(table.columns.values())
    floats = [i for i, c in enumerate(columns) if isinstance(c, np.ndarray)]
    for i, column in enumerate(columns):
        if i not in floats:  # by identity, not equality: -0.0 == 0.0 and NaN != NaN
            first, codes = _codes(np.fromiter(map(id, column), np.intp, n))
            objects = map(column.__getitem__, first.tolist())
            columns[i] = np.fromiter(map(cell, objects), object, len(first)), codes
    # only a list cell can fail to encode, so the head goes out before the float
    # texts are made; made before _emit opens its file, they cost 0.6-0.8 MB RSS
    yield sep
    if floats:
        for i, coded in zip(floats, _float_texts([columns[i] for i in floats], csv)):
            columns[i] = coded
    width = 2 * len(columns) + 1
    slots = [row_end] * width
    slots[:-1:2] = keys
    slots *= min(n, _TABLE_CHUNK)
    for start in range(0, n, _TABLE_CHUNK):
        stop = min(start + _TABLE_CHUNK, n)
        del slots[(stop - start) * width:]  # the last piece may be shorter
        for i, (texts, codes) in enumerate(columns):
            slots[2 * i + 1::width] = texts[codes[start:stop]].tolist()
        if stop == n:
            slots[-1] = last_end
        yield "".join(slots)


def _codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From one argsort of `keys`: where one of each distinct key stands, in
    key order, and each key's code, the rank of its value among the distinct
    ones, in the narrowest unsigned type that holds their count."""
    order = keys.argsort()
    keys = keys[order]  # sorted: the unsorted view is the caller's
    first = np.concatenate(([True], keys[1:] != keys[:-1]))  # where each run starts
    del keys
    codes = np.empty(len(order), np.min_scalar_type(np.count_nonzero(first)))
    codes[order] = first.cumsum(dtype=codes.dtype) - 1
    return order[first], codes


def _float_texts(columns: list[np.ndarray], csv: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per column, the texts of the distinct bit patterns of all the columns'
    floats (one array, shared) and the column's codes into them: _codes
    deduplicates each column, then ranks their patterns together (np.sort and
    np.searchsorted would fault in 0.3 MB more of numpy's code).  -0.0 and
    0.0, or two NaN payloads, differ in bits, so are never merged.  A text is
    `float.__repr__`, the JSON encoder's own for a finite float, and CSV's
    `nan`, `inf` and `-inf`, which JSON spells as its encoder does."""
    codes, patterns = [], []
    for column in columns:
        first, column_codes = _codes(column.view(np.int64))
        codes.append(column_codes)
        patterns.append(column.view(np.int64)[first])
    ends = np.cumsum([len(p) for p in patterns[:-1]], dtype=int)
    patterns = np.concatenate(patterns)
    first, ranks = _codes(patterns)  # the table's codes of each column's patterns
    bits = patterns[first].view(np.float64)
    codes = [r[c] for r, c in zip(np.split(ranks, ends), codes)]
    texts = np.fromiter(map(float.__repr__, bits), dtype=object, count=len(bits))
    if not csv:
        special = ~np.isfinite(bits)
        texts[special] = list(map(json.dumps, bits[special].tolist()))
    return [(texts, c) for c in codes]


def _csv_field(value, empty: str = "") -> str:
    """The CSV text of a cell, quoted as `csv.writer` quotes it: where it holds
    a comma, a quote or a line break, with its quotes doubled."""
    text = _csv_text(value)
    if any(map(text.__contains__, ',"\r\n')):
        return '"' + text.replace('"', '""') + '"'
    return text or empty


def _csv_text(value) -> str:
    """A cell's unquoted CSV text: a float's JSON text, but `nan`, `inf` and
    `-inf` where it is not finite; `str(v)` for a str, int or bool; empty for
    None; a list's or tuple's item texts joined by `;`.  Any other value
    raises TypeError, as it does in the JSON encoder."""
    if isinstance(value, float):  # np.float64 too, whose repr is not a number
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ";".join(map(_csv_text, value))
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not CSV serializable")


def _stacked(tables: dict[str, Table]) -> Table:
    """The tables one under another, over the union of their columns behind a
    leading `table` column that names each row's table.  A cell is None,
    written empty, where its table lacks the column."""
    names = dict.fromkeys(k for t in tables.values() for k in t.columns)
    return Table({"table": [name for name, t in tables.items() for _ in range(len(t))],
                  **{k: [v for t in tables.values() for v in t.columns.get(k, [None] * len(t))]
                     for k in names}})


def _emit(payload, rc: RunConfig) -> None:
    """Write the payload as it is encoded.  The first piece is made before the
    file is opened, so a payload that fails at once leaves the file alone."""
    if rc.out_format == "csv":
        pieces = _table_pieces(_stacked(payload) if isinstance(payload, dict) else payload, "csv")
    else:
        pieces = _json_pieces(payload)
    pieces = itertools.chain([next(pieces)], pieces)  # before open() truncates the file
    if rc.out_path in ("-", ""):
        if not _write(sys.stdout, pieces).endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(rc.out_path, "w") as fh:
            _write(fh, pieces)


def _write(fh, pieces) -> str:
    """Write every piece to `fh`; return the last."""
    for piece in pieces:
        fh.write(piece)
    return piece


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="INI run configuration file")
    sub.add_argument("--out", metavar="PATH", help="output path ('-' for stdout)")
    sub.add_argument("--format", choices=("json", "csv"), help="output format")
    sub.add_argument("--kappa", metavar="LIST", help="comma-separated kappa values")
    sub.add_argument("--signs", metavar="s1,s2,s3", help="factor sign assignment")
    sub.add_argument("--tol-exact", dest="tol_exact", type=float, metavar="X",
                     help="tolerance for exact identities")
    sub.add_argument("--seed", type=int, metavar="N",
                     help="seed for randomized direction sampling")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dhlab", description="verification runner for the mode laboratory"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run the identity/invariant suite and emit check records"),
        ("correlations", "emit the correlation table"),
        ("locality", "emit the operator-support locality report"),
        ("qubit", "emit the first-quantized oracle table"),
    ):
        _add_common_flags(subparsers.add_parser(name, help=help_text))
    args = parser.parse_args(argv)

    try:
        rc = build_run_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        _check_out_path(rc.out_path)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            records = run_verify(rc)
            payload = record_table(records)
        else:
            records = []
            payload = {"correlations": run_correlations, "locality": run_locality,
                       "qubit": run_qubit}[args.command](rc)
    except (ConfigError, LayoutError, SignConstraintError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, rc)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in records if not r.passed]
    for r in failed:
        print(f"FAIL {r.id}: |{r.actual} - {r.expected}| = "
              f"{r.abs_error} > {r.tolerance}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
