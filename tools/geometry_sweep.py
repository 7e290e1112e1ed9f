"""Run `dhlab verify` over seeded samples of valid INI geometries.

Each config runs in its own `python -m dhlab.cli verify` subprocess, one at a
time, under an address-space cap (RLIMIT_AS) and a CPU-time cap (RLIMIT_CPU).
The same runner serves the tests' capped CLI runs (tests/conftest.py).
A meaningless geometry must exit 2; an exit 1 must be a paper identity that
fails.  The report holds, per sample, the exit-code counts, the failing record
families (the id's two-digit prefix), each config that exits 1 (or with any
code other than 0 and 2), and the first words of each exit-2 line.

Two samples are drawn from one random.Random(SEED):

- `valid`: VALID configs of widths 0.5-2, grids of 801-2001 points,
  separations of 10-40 widths of either sign with arbitrary decimals, sign
  choices with s1 s2 s3 = -1, and 1-3 kappas in (0, 0.2];
- `near`: NEAR configs like those, with one separation of 3-10 widths, where
  the packet's tail at the probe point is no longer negligible (README,
  "Near separations").

Run it from the repository root with

    python tools/geometry_sweep.py [--out tools/geometry_sweep.json]
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 1 << 30  # bytes
CPU_SECONDS = 60
SEED, VALID, NEAR = 0, 200, 20
VALID_SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))


def _separation(rng: random.Random, lo: float, hi: float) -> str:
    value = round(rng.uniform(lo, hi), rng.choice((0, 1, 2, 3, 6)))
    return repr(rng.choice((1, -1)) * value)


def draw_config(rng: random.Random, near: bool = False) -> str:
    """One INI geometry that the config gates admit.  Packet gaps of 17-25
    widths and grid margins of 10-15 widths sit near the layout's aperture
    gate (apertures 17.2 widths across), which may still refuse a few."""
    width = round(rng.uniform(0.5, 2.0), 3)
    mid = round(rng.uniform(-5.0, 5.0), 2)
    centers = (mid - rng.uniform(17.0, 25.0) * width, mid, mid + rng.uniform(17.0, 25.0) * width)
    side = rng.choice((-1, 1))
    edge = centers[2] if side == 1 else centers[0]
    probe = edge + side * rng.uniform(8.0, 20.0) * width
    lo = min(centers[0], probe) - rng.uniform(10.0, 15.0) * width
    hi = max(centers[2], probe) + rng.uniform(10.0, 15.0) * width
    separations = [_separation(rng, 10.0, 40.0) for _ in range(rng.randint(1, 3))]
    if near:
        separations[rng.randrange(len(separations))] = _separation(rng, 3.0, 10.0)
    kappas = sorted({round(rng.uniform(0.001, 0.2), 3) for _ in range(rng.randint(1, 3))})
    return "\n".join([
        "[run]",
        f"kappa = {', '.join(map(str, kappas))}",
        f"signs = {', '.join(map(str, rng.choice(VALID_SIGNS)))}",
        f"seed = {rng.randrange(1000)}",
        "[geometry]",
        f"grid_min = {lo:.3f}",
        f"grid_max = {hi:.3f}",
        f"grid_points = {rng.randint(801, 2001)}",
        f"packet_centers = {', '.join(f'{c:.3f}' for c in centers)}",
        f"packet_width = {width}",
        f"probe_point = {probe:.3f}",
        f"separations = {', '.join(separations)}",
        "[directions]",
        f"mode = {rng.choice(('grid', 'random'))}",
        "",
    ])


def run_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` that imports dhlab from this
    checkout, with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=2 * CPU_SECONDS, **kwargs)


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_cli_capped(argv: list[str], config: str) -> subprocess.CompletedProcess:
    """Run `python -m dhlab.cli <argv>` on `config` (INI text) in a subprocess
    capped at 1 GiB of address space and 60 s of CPU, so a config that asks
    for too much fails in the child instead of exhausting the machine."""
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(config)
        return run_python(["-m", "dhlab.cli", *argv, "--config", str(ini),
                           "--out", str(Path(tmp) / "out.json")], preexec_fn=_cap)


def sweep(configs: list[str]) -> dict:
    exits: collections.Counter = collections.Counter()
    families: collections.Counter = collections.Counter()
    refusals: collections.Counter = collections.Counter()
    failing = []
    for config in configs:
        proc = run_cli_capped(["verify"], config)
        code, err = proc.returncode, proc.stderr
        exits[str(code)] += 1
        if code == 1:
            ids = [line.split()[1].rstrip(":") for line in err.splitlines()
                   if line.startswith("FAIL ")]
            families.update({i[:2] for i in ids})
            failing.append({"config": config, "failed": ids})
        elif code == 2:
            refusals[" ".join(err.split(":", 1)[-1].split()[:4])] += 1
        elif code != 0:
            failing.append({"config": config, "exit": code, "stderr": err[-2000:]})
    return {"configs": len(configs), "exit_codes": dict(sorted(exits.items())),
            "failing_families": dict(sorted(families.items())),
            "refusals": dict(refusals.most_common()), "failures": failing}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tools" / "geometry_sweep.json"))
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    start = time.perf_counter()
    report = {"seed": SEED,
              "valid": sweep([draw_config(rng) for _ in range(VALID)]),
              "near": sweep([draw_config(rng, near=True) for _ in range(NEAR)])}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name in ("valid", "near"):
        print(name, report[name]["exit_codes"], report[name]["failing_families"])
    print(f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
