"""Golden outputs of the four commands, and the comparison tier-1 makes.

`tests/golden.json` holds, for each case below, the exit code and either the
sha256 and size of the output with each float column's min, max and sum, or,
for `verify`, its records without `wall_time`.  It is keyed by the numpy
version, the BLAS library and the machine: on the key it was made on, every
byte must match; on another, `verify`'s `actual` values must match within
ABS_TOL, and each float column's min, max and sum within REL_TOL of the
column's magnitude, the largest of the three in absolute value (a column of
correlations sums to rounding noise, which no relative bound can hold).

Regenerate it, and see which outputs moved, with

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from dhlab import cli

GOLDEN = Path(__file__).with_name("golden.json")
ABS_TOL = 1e-12  # verify's actual values, on another key
REL_TOL = 1e-12  # a float column's min, max and sum, on another key, by its magnitude
RANDOM_40 = "[directions]\nmode = random\nn_random = 40\n"

# case -> (argv, INI text or None); a verify case is compared by its records
CASES = {
    "correlations.json": (["correlations"], None),
    "correlations.csv": (["correlations", "--format", "csv"], None),
    "locality.json": (["locality"], None),
    "locality.csv": (["locality", "--format", "csv"], None),
    "qubit.json": (["qubit"], None),
    "qubit.csv": (["qubit", "--format", "csv"], None),
    "locality-kappa.json": (["locality", "--kappa", "0,0.13", "--seed", "3"], None),
    "locality-kappa.csv": (["locality", "--kappa", "0,0.13", "--seed", "3", "--format", "csv"],
                           None),
    "locality-tol.json": (["locality", "--tol-exact", "1e-20"], None),
    "correlations-random.json": (["correlations", "--seed", "77"], RANDOM_40),
    "correlations-random.csv": (["correlations", "--seed", "77", "--format", "csv"], RANDOM_40),
    "verify": (["verify"], None),
    "verify-kappa": (["verify", "--kappa", "0,0.13", "--seed", "3"], None),
    "verify-signs": (["verify", "--signs", "1,1,1"], None),
}


def platform_key() -> dict:
    """What the output bytes may depend on beyond the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def run(case: str) -> tuple[int, bytes]:
    """The exit code and output bytes of one case, run in this process."""
    argv, ini = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if ini is not None:
            (Path(tmp) / "run.ini").write_text(ini)
            argv = [*argv, "--config", str(Path(tmp) / "run.ini")]
        code = cli.main([*argv, "--out", str(out)])
        return code, out.read_bytes()


def _tables(case: str, output: bytes) -> dict[str, list[dict]]:
    """An output's tables as rows, by table name ('' for a lone table)."""
    if case.endswith(".csv"):
        return {}  # its floats are its JSON twin's
    payload = json.loads(output)
    return {"": payload} if isinstance(payload, list) else payload


def column_stats(case: str, output: bytes) -> dict[str, list[float]]:
    """[min, max, sum] of each float column, by 'table/column'."""
    stats = {}
    for name, rows in _tables(case, output).items():
        for column in rows[0] if rows else ():
            values = [row[column] for row in rows]
            if all(type(v) is float for v in values):
                a = np.array(values)
                stats[f"{name}/{column}"] = [float(a.min()), float(a.max()), float(a.sum())]
    return stats


def records(output: bytes) -> list[dict]:
    """verify's records without `wall_time`."""
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in json.loads(output)]


def entry(case: str, code: int, output: bytes) -> dict:
    if case.startswith("verify"):
        return {"exit": code, "records": records(output)}
    return {"exit": code, "sha256": hashlib.sha256(output).hexdigest(), "size": len(output),
            "columns": column_stats(case, output)}


def generate() -> dict:
    return {"key": platform_key(), "cases": {case: entry(case, *run(case)) for case in CASES}}


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def _same_records(got: list[dict], want: list[dict], same_key: bool) -> bool:
    """Equal records; on another key, `actual` and `abs_error` within ABS_TOL."""
    if same_key:
        return json.dumps(got) == json.dumps(want)
    loose = ("actual", "abs_error")
    strip = lambda rs: [{k: v for k, v in r.items() if k not in loose} for r in rs]
    return json.dumps(strip(got)) == json.dumps(strip(want)) and all(
        _close(g[k], w[k], ABS_TOL) for g, w in zip(got, want) for k in loose)


def _same(want: dict, got: dict | None, same_key: bool) -> bool:
    if got is None or got["exit"] != want["exit"]:
        return False
    if "records" in want:
        return _same_records(got["records"], want["records"], same_key)
    if same_key:
        return (got["sha256"], got["size"]) == (want["sha256"], want["size"])
    return got["columns"].keys() == want["columns"].keys() and all(
        _close(g, w, REL_TOL * max(map(abs, stats))) for col, stats in want["columns"].items()
        for g, w in zip(got["columns"][col], stats))


def moved(golden: dict, fresh: dict) -> list[str]:
    """The cases whose output differs from the golden file's: in bytes (and
    records) where the two keys match, else beyond the tolerances."""
    same_key = golden["key"] == fresh["key"]
    return [case for case, want in golden["cases"].items()
            if not _same(want, fresh["cases"].get(case), same_key)]


def main() -> int:
    fresh = generate()
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        if golden["key"] != fresh["key"]:
            print(f"key changed: {golden['key']} -> {fresh['key']}")
        changed = moved(golden, fresh)
        print("moved: " + (", ".join(changed) if changed else "none"))
    GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
