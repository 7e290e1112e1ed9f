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
import csv
import errno
import functools
import io
import itertools
import json
import os
import sys

import numpy as np

from .checks import RunConfig, Table, run_correlations, run_locality, run_qubit, run_verify
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


def _rows_to_csv(rows: list[dict]) -> str:
    """The csv.DictWriter text of `rows` over every key in first-seen order
    (the locality tables differ in columns), a missing key written as ""."""
    if not rows:
        return ""
    fields = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    writer.writerows([_csv_cell(row.get(k, "")) for k in fields] for row in rows)
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(repr(v) for v in value)
    if isinstance(value, float):  # np.float64 too, whose repr is not a number
        return repr(float(value))
    return value


@functools.cache
def _encoder(depth: int):
    """Encode and item indent for an all-scalar container at `depth`: the item
    separator carries the newline, so only the brackets need padding."""
    pad = "\n" + "  " * (depth + 1)
    return json.JSONEncoder(separators=("," + pad, ": ")).encode, pad


# rows per piece of a table: it bounds the text held at once; the 19,200-row
# table of 40 directions encoded as one piece raised a call's peak RSS from
# 79 to 98 MB
_TABLE_CHUNK = 1024


def _json_pieces(value, depth: int = 0):
    """Yield `json.dumps(value, indent=2)` in pieces, for a Table and for plain
    lists, tuples and str-keyed dicts.  Each innermost container is one
    C-encoder call, and a table (a Table, or two or more dicts of one str key
    tuple) is encoded column by column, one piece per _TABLE_CHUNK rows."""
    if isinstance(value, Table):
        yield from _table_pieces(value, depth)
        return
    encode, pad = _encoder(depth)
    if not isinstance(value, (list, tuple, dict)) or not value:
        yield encode(value)
        return
    items = value.values() if isinstance(value, dict) else value
    types = {*map(type, items)}
    if types.isdisjoint((list, tuple, dict)):
        text = encode(value)  # encoded strings hold no raw newline, so only separators break lines
        yield text[0] + pad + text[1:-1] + pad[:-2] + text[-1]
    elif isinstance(value, dict):
        key = json.encoder.encode_basestring_ascii  # raises on a non-str key
        sep = "{" + pad
        for k, v in value.items():
            yield f"{sep}{key(k)}: "
            yield from _json_pieces(v, depth + 1)
            sep = "," + pad
        yield pad[:-2] + "}"
    elif types == {dict} and (keys := _table_keys(value)):
        yield from _table_pieces(Table({k: [row[k] for row in value] for k in keys}), depth)
    else:
        sep = "[" + pad
        for item in value:
            yield sep
            yield from _json_pieces(item, depth + 1)
            sep = "," + pad
        yield pad[:-2] + "]"


def _json_text(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2)` (of `value.rows()` for a Table) for a
    Table and for plain lists, tuples and str-keyed dicts."""
    return "".join(_json_pieces(value, depth))


def _table_keys(rows) -> tuple[str, ...] | None:
    """The key tuple that two or more dicts share, if it is non-empty and all str."""
    keys = tuple(rows[0])
    if (len(rows) > 1 and keys and {*map(type, keys)} == {str}
            and all(map(keys.__eq__, map(tuple, rows)))):
        return keys
    return None


def _table_pieces(table: Table, depth: int):
    """`table.rows()` as JSON text in pieces of _TABLE_CHUNK rows, with no row
    built.  Every float is encoded once per distinct bit pattern in the
    table; each piece is one join over slots that run key literal, value
    text, ..., row closer, the value slots filled a column at a time."""
    n = len(table)
    if not n:
        yield "[]"
        return
    (encode, pad), row_pad = _encoder(depth), _encoder(depth + 1)[1]
    columns = [np.array(c) if isinstance(c, list) and {*map(type, c)} == {float} else c
               for c in table.columns.values()]
    floats = [i for i, c in enumerate(columns) if isinstance(c, np.ndarray)]
    if floats:
        # One text per distinct bit pattern: equal bits give equal text, and
        # -0.0 and 0.0, or two NaN payloads, differ in bits, so are never merged.
        bits, inverse = np.unique(np.concatenate([columns[i] for i in floats]).view(np.int64),
                                  return_inverse=True)
        text = encode(bits.view(np.float64).tolist())  # a float's text holds no comma
        texts = np.array(text[1:-1].split("," + pad), dtype=object)
        for i, index in zip(floats, inverse.reshape(len(floats), n)):
            columns[i] = index  # each float column as its values' indices into `texts`
    key = json.encoder.encode_basestring_ascii
    width = 2 * len(columns) + 1
    slots = [None] * width
    for i, k in enumerate(table.columns):
        slots[2 * i] = ("," if i else "{") + row_pad + key(k) + ": "
    slots[-1] = row_pad[:-2] + "}," + pad
    slots *= min(n, _TABLE_CHUNK)
    sep = "[" + pad
    for start in range(0, n, _TABLE_CHUNK):
        stop = min(start + _TABLE_CHUNK, n)
        del slots[(stop - start) * width:]  # the last piece may be shorter
        for i, column in enumerate(columns):
            if isinstance(column, np.ndarray):
                slots[2 * i + 1::width] = texts[column[start:stop]].tolist()
            else:
                slots[2 * i + 1::width] = _column_texts(column[start:stop], depth + 2)
        if stop == n:
            slots[-1] = row_pad[:-2] + "}" + pad[:-2] + "]"
        yield sep + "".join(slots)
        sep = ""


def _column_texts(values: list, depth: int) -> list[str]:
    """The JSON text of each value, each distinct object encoded once: shared by
    identity, not equality, since -0.0 == 0.0 and NaN != NaN."""
    by_id = dict(zip(map(id, values), values))
    distinct = list(by_id.values())
    if {*map(type, distinct)} == {str}:
        texts = list(map(json.encoder.encode_basestring_ascii, distinct))
    else:
        texts = [_json_text(v, depth) for v in distinct]
    if len(distinct) == len(values):
        return texts
    by_id = dict(zip(by_id, texts))
    return list(map(by_id.__getitem__, map(id, values)))


def _emit(payload, rc: RunConfig) -> None:
    """Write the payload as it is encoded.  The first piece is made before the
    file is opened, so a payload that fails at once leaves the file alone."""
    if rc.out_format == "csv":
        if isinstance(payload, dict):
            rows = []
            for section, content in payload.items():
                for row in content:
                    rows.append({"table": section, **row})
            text = _rows_to_csv(rows)
        else:
            text = _rows_to_csv(payload.rows() if isinstance(payload, Table) else payload)
        pieces = iter([text])
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
            payload = [r.to_dict() for r in records]
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
