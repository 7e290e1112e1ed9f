"""The benchmark's workloads: per-call CLI inputs drawn from the workload seed,
and the gate each call's output must pass before the call counts.

A workload turns `random.Random(seed)` into a sequence of calls; the program
sees only the generated argv (and, where the CLI has no flag for a setting,
a generated INI file).  Each call's output goes to a file that `check` reads
back; `check` returns None when the output is correct, else the reason.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass

KAPPA_RANGE = (0.02, 0.2)
TOL_EXACT = 1e-10

# `dhlab verify` record ids that do not depend on kappa ...
VERIFY_FIXED_IDS = (
    "01-car-suite", "02-vacuum-annihilation", "03-expm-taylor-oracle",
    "04-expm-unitarity", "10-wsw-gate", "11-aperture-products",
    "12-aperture-pointwise", "13-aperture-integrals", "20-spin-eigenvalue-r1",
    "20-spin-eigenvalue-r2", "20-spin-eigenvalue-r3", "21-state-orthonormality",
    "22-unentangled-correlations", "30-sign-constraint",
    "31-standardization-unentangled", "32-removal-skewness",
    "33-rotation-fastpath", "34-closed-form-smeared", "40-closed-form-sections",
    "41-closed-form-sections-entangled", "42-vacuum-actions",
    "50-locality-aux-outside-support", "51-locality-aux-entangled-outside-support",
    "52-locality-entangled-cross-term", "53-noaux-probe-distance",
    "54-noaux-separation-invariance", "55-aux-probe-distance",
)
# ... and the ids repeated once per kappa, with the suffix f"-k{kappa:g}".
VERIFY_PER_KAPPA_IDS = (
    "35-standardization-entangled", "36-entangled-correlations",
    "37-dh-equivalence-exact", "38-dh-equivalence-first",
    "60-qubit-state-distance", "61-qubit-expectations",
    "62-qubit-correlations-second", "63-qubit-correlations-exact",
    "64-qubit-second-order-decrease",
)

CORRELATION_KAPPAS = (0.0, 0.02, 0.05, 0.1)  # the default list plus kappa = 0
N_RANDOM = 40
REGION_PAIRS = 3


@dataclass(frozen=True)
class Call:
    argv: list[str]
    params: dict  # what the gate needs to know about the inputs


def _kappa(rng: random.Random) -> float:
    return round(rng.uniform(*KAPPA_RANGE), 4)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


class VerifyDefault:
    """`dhlab verify` on the default config with a drawn seed and kappa triple."""

    name = "verify-default"
    reference_s = 3.4  # s, a frozen-copy call time measured on the baseline machine
    # the main registry, the CAR-suite and probe registries, the 4-mode expm
    # oracle and the single-packet no-aux contrast
    registry_modes = (2, 3, 4, 9, 10, 11)

    def make_call(self, rng: random.Random, workdir: str, out: str) -> Call:
        kappas: list[float] = []
        while len(kappas) < 3:
            k = _kappa(rng)
            if k not in kappas:
                kappas.append(k)
        seed = rng.randrange(2**31)
        argv = ["verify", "--seed", str(seed), "--kappa", ",".join(repr(k) for k in kappas),
                "--out", out]
        return Call(argv, {"kappas": kappas})

    def check(self, rc, out: str, params: dict) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        records = _load(out)
        expected = set(VERIFY_FIXED_IDS) | {
            f"{base}-k{k:g}" for base in VERIFY_PER_KAPPA_IDS for k in params["kappas"]
        }
        if len(records) != len(expected):
            return f"{len(records)} records, expected {len(expected)}"
        ids = {r["id"] for r in records}
        if ids != expected:
            return f"record ids differ: {sorted(ids ^ expected)}"
        for r in records:
            if r["pass"] is not True or not r["abs_error"] <= r["tolerance"]:
                return f"record {r['id']} failed"
        return None


class CorrelationsSweep:
    """`dhlab correlations` over 40 seeded random directions per region."""

    name = "correlations-sweep"
    reference_s = 2.0  # s, a frozen-copy call time measured on the baseline machine
    registry_modes = (9,)

    def make_call(self, rng: random.Random, workdir: str, out: str) -> Call:
        config = os.path.join(workdir, "correlations.ini")
        with open(config, "w") as fh:
            fh.write(f"[directions]\nmode = random\nn_random = {N_RANDOM}\n")
        seed = rng.randrange(2**31)
        return Call(["correlations", "--config", config, "--seed", str(seed), "--out", out], {})

    def check(self, rc, out: str, params: dict) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        rows = _load(out)
        expected = len(CORRELATION_KAPPAS) * REGION_PAIRS * N_RANDOM**2
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        per_kappa = Counter(row["kappa"] for row in rows)
        if per_kappa != {k: expected // len(CORRELATION_KAPPAS) for k in CORRELATION_KAPPAS}:
            return f"rows per kappa {dict(per_kappa)}"
        for row in rows:
            k = row["kappa"]
            if not row["dev_dh_exact"] <= TOL_EXACT:
                return f"dev_dh_exact {row['dev_dh_exact']} at kappa {k}"
            if not row["dev_exact_closed"] <= max(5.0 * k * k, TOL_EXACT):
                return f"dev_exact_closed {row['dev_exact_closed']} at kappa {k}"
        return None


class LocalityProbe:
    """`dhlab locality` with a drawn probe point and kappa (11 modes, dim 2048)."""

    name = "locality-probe"
    reference_s = 0.10  # s, a frozen-copy call time measured on the baseline machine
    registry_modes = (2, 3, 11)

    def make_call(self, rng: random.Random, workdir: str, out: str) -> Call:
        probe = round(rng.uniform(30.0, 40.0), 3)
        kappa = _kappa(rng)
        config = os.path.join(workdir, "locality.ini")
        with open(config, "w") as fh:
            fh.write(f"[geometry]\nprobe_point = {probe!r}\n")
        return Call(["locality", "--config", config, "--kappa", repr(kappa), "--out", out],
                    {"probe_point": probe, "kappa": kappa})

    def check(self, rc, out: str, params: dict) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        report = _load(out)
        for table in ("aux_unentangled", "aux_entangled"):
            if not report[table]:
                return f"{table} is empty"
            for row in report[table]:
                if row["outside_support"] and not row["distance"] <= TOL_EXACT:
                    return f"{table} leaks {row['distance']} at x = {row['point']}"
        noaux = report["noaux_contrast"]
        if not noaux:
            return "noaux_contrast is empty"
        sections = [r["noaux_section_distance"] for r in noaux]
        if not max(sections) - min(sections) <= TOL_EXACT:
            return f"noaux section distance spread {max(sections) - min(sections)}"
        probe = min(r["noaux_probe_operator_distance"] for r in noaux)
        if not probe >= 0.1:
            return f"noaux probe operator distance {probe} < 0.1"
        return None


WORKLOADS = {w.name: w for w in (VerifyDefault(), CorrelationsSweep(), LocalityProbe())}
