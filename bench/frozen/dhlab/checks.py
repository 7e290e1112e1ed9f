"""Verification suites behind the command-line runner.

Every check produces a CheckRecord whose pass flag is recomputable from its
fields: pass iff abs_error <= tolerance.  For lower-bound checks ("the
distance must exceed X") abs_error stores the shortfall max(0, X - actual)
and the tolerance is zero.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dhrep, model, qubits
from . import wavepackets as wp
from .errors import ConfigError
from .fock import (
    FockOperator,
    ModeRegistry,
    ProbeMode,
    anticommutator,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
    zero_operator,
)
from .model import SpinDirection


@dataclass(frozen=True)
class CheckRecord:
    id: str
    paper_ref: str
    expected: float
    actual: float
    abs_error: float
    tolerance: float
    passed: bool
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "paper_ref": self.paper_ref,
            "expected": self.expected,
            "actual": self.actual,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "wall_time": self.wall_time,
        }


@dataclass
class RunConfig:
    """Geometry, sweep, tolerance, and output settings for one CLI run."""

    config_version: int = 1
    kappas: tuple[float, ...] = (0.02, 0.05, 0.1)
    signs: tuple[int, int, int] = (1, 1, -1)
    direction_mode: str = "grid"
    n_theta: int = 5
    n_phi: int = 4
    n_random: int = 20
    seed: int = 0
    grid_min: float = -35.0
    grid_max: float = 35.0
    grid_points: int = 1401
    packet_centers: tuple[float, float, float] = (-20.0, 0.0, 20.0)
    packet_width: float = 1.0
    probe_point: float = 32.0
    separations: tuple[float, ...] = (10.0, 20.0, 40.0)
    tol_exact: float = 1e-10
    wsw_tol: float = 1e-10
    aperture_tol: float = 1e-8
    out_path: str = "-"
    out_format: str = "json"

    def __post_init__(self):
        if self.config_version != 1:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.out_format!r}")
        if self.direction_mode not in ("grid", "random"):
            raise ConfigError(f"direction mode must be grid or random, got {self.direction_mode!r}")
        if any(k < 0 for k in self.kappas):
            raise ConfigError("kappa values must be non-negative")
        if len(self.signs) != 3 or any(s not in (1, -1) for s in self.signs):
            raise ConfigError(f"signs must be three values of +-1, got {self.signs}")


def directions(rc: RunConfig) -> list[SpinDirection]:
    """Deterministic direction set: a (theta, phi) grid, or seeded uniform
    sphere samples when direction_mode = random."""
    if rc.direction_mode == "random":
        rng = np.random.default_rng(rc.seed)
        out = []
        for _ in range(rc.n_random):
            theta = math.acos(rng.uniform(-1.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.append(SpinDirection(theta, phi))
        return out
    thetas = np.linspace(0.0, math.pi, rc.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, rc.n_phi, endpoint=False)
    return [SpinDirection(float(t), float(p)) for t in thetas for p in phis]


def _layout(rc: RunConfig, probe_points: tuple[float, ...] = ()) -> wp.PacketLayout:
    lo, hi = rc.grid_min, rc.grid_max
    spacing = (hi - lo) / (rc.grid_points - 1)
    if probe_points:
        lo = min(lo, min(probe_points) - 10.0 * rc.packet_width)
        hi = max(hi, max(probe_points) + 10.0 * rc.packet_width)
    n = int(round((hi - lo) / spacing)) + 1
    return wp.standard_layout(
        centers=rc.packet_centers,
        width=rc.packet_width,
        span=(lo, hi),
        n_points=n,
        probe_points=probe_points,
    )


def _config(rc: RunConfig, kappa: float, probe_points: tuple[float, ...] = ()) -> model.SystemConfig:
    return model.standard_config(
        kappa=kappa,
        signs=rc.signs,
        layout=_layout(rc, probe_points),
        wsw_tol=rc.wsw_tol,
        aperture_tol=rc.aperture_tol,
        probe_points=probe_points,
    )


class _Recorder:
    """Accumulates CheckRecords, attributing wall time between records."""

    def __init__(self):
        self.records: list[CheckRecord] = []
        self._mark = time.perf_counter()

    def _elapsed(self) -> float:
        now = time.perf_counter()
        dt = now - self._mark
        self._mark = now
        return dt

    def close(self, check_id, ref, expected, actual, tolerance):
        err = abs(float(actual) - float(expected))
        self.records.append(
            CheckRecord(
                id=check_id,
                paper_ref=ref,
                expected=float(expected),
                actual=float(actual),
                abs_error=err,
                tolerance=float(tolerance),
                passed=err <= tolerance,
                wall_time=self._elapsed(),
            )
        )

    def close_lower_bound(self, check_id, ref, bound, actual):
        shortfall = max(0.0, float(bound) - float(actual))
        self.records.append(
            CheckRecord(
                id=check_id,
                paper_ref=ref,
                expected=float(bound),
                actual=float(actual),
                abs_error=shortfall,
                tolerance=0.0,
                passed=shortfall <= 0.0,
                wall_time=self._elapsed(),
            )
        )


def _ten_mode_registry() -> ModeRegistry:
    return ModeRegistry(model.standard_registry().modes + (ProbeMode(1),))


def _taylor_expm(matrix: np.ndarray, terms: int = 40) -> np.ndarray:
    """Brute-force truncated Taylor sum, the independent oracle for expm."""
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ matrix / n
        out = out + term
    return out


def run_verify(rc: RunConfig) -> list[CheckRecord]:
    """Run the full invariant and identity suite; records sorted by id."""
    rec = _Recorder()
    dirs = directions(rc)

    # --- mode algebra ------------------------------------------------------
    reg = _ten_mode_registry()
    ident = identity_operator(reg)
    zero = zero_operator(reg)
    worst = 0.0
    ops = [(mode_operator(reg, m), mode_operator(reg, m, dagger=True)) for m in reg.modes]
    for i, (ci, cid) in enumerate(ops):
        for j, (cj, cjd) in enumerate(ops):
            target = ident if i == j else zero
            worst = max(worst, (anticommutator(ci, cjd) - target).max_abs())
            worst = max(worst, anticommutator(ci, cj).max_abs())
            worst = max(worst, anticommutator(cid, cjd).max_abs())
    rec.close("01-car-suite", "canonical anticommutation relations, all mode pairs",
              0.0, worst, 0.0)

    vac = vacuum_state(reg)
    worst = max((c @ vac).norm() for c, _ in ops)
    rec.close("02-vacuum-annihilation", "every annihilator kills the vacuum",
              0.0, worst, 0.0)

    rng = np.random.default_rng(rc.seed)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    skew = raw - raw.conj().T
    skew *= 1.0 / max(1.0, np.linalg.norm(skew, 2))
    small_reg = ModeRegistry(model.standard_registry().modes[:4])
    a = FockOperator(small_reg, skew)
    dev = operator_distance(matrix_exponential(a), FockOperator(small_reg, _taylor_expm(skew)))
    rec.close("03-expm-taylor-oracle", "matrix exponential vs truncated Taylor oracle",
              0.0, dev, 1e-12)
    e = matrix_exponential(a)
    rec.close("04-expm-unitarity", "exp of skew-Hermitian input is unitary",
              0.0, operator_distance(e @ e.dagger(), identity_operator(small_reg)), 1e-11)

    # --- geometry gates ----------------------------------------------------
    cfg0 = _config(rc, 0.0)
    wsw = wp.wsw_report(list(cfg0.layout.packets), tol=rc.wsw_tol)
    rec.close("10-wsw-gate", "pointwise products of distinct packets vanish",
              0.0, wsw.max_product, rc.wsw_tol)
    apt = wp.aperture_report(list(cfg0.layout.apertures), list(cfg0.layout.packets),
                             tol=rc.aperture_tol)
    rec.close("11-aperture-products", "aperture mutual exclusion and idempotence",
              0.0, 0.0 if apt.products_exact else 1.0, 0.0)
    rec.close("12-aperture-pointwise", "apertures pass their packets through unchanged",
              0.0, apt.max_pointwise_error, rc.aperture_tol)
    rec.close("13-aperture-integrals", "aperture-weighted packet norms are Kronecker deltas",
              0.0, apt.max_integral_error, rc.aperture_tol)

    # --- unentangled model -------------------------------------------------
    psi_un = model.unentangled_state(cfg0)
    for region, eig in ((1, 1.0), (2, -1.0), (3, -1.0)):
        s = model.localized_spin_operator(cfg0, region, SpinDirection.x3())
        rec.close(f"20-spin-eigenvalue-r{region}",
                  "axis-aligned localized spin eigenvalue",
                  0.0, (s @ psi_un - eig * psi_un).norm(), rc.tol_exact)

    states = [model.unentangled_state(cfg0)] + [
        model.build_state(cfg0, model.FLIPPED_OCC[r]) for r in (1, 2, 3)
    ]
    gram_dev = max(
        abs(si.overlap(sj) - (1.0 if i == j else 0.0))
        for i, si in enumerate(states)
        for j, sj in enumerate(states)
    )
    rec.close("21-state-orthonormality", "basis kets are normalized and orthogonal",
              0.0, gram_dev, rc.tol_exact)

    worst = 0.0
    sa_cache = {
        (r, i): model.localized_spin_operator(cfg0, r, d) @ psi_un
        for r in (1, 2, 3)
        for i, d in enumerate(dirs)
    }
    for ra, rb in ((1, 2), (2, 3), (3, 1)):
        for i, da in enumerate(dirs):
            for j, db in enumerate(dirs):
                val = complex(np.vdot(sa_cache[(ra, i)].amplitudes,
                                      sa_cache[(rb, j)].amplitudes)).real
                closed = model.correlation_closed_form(ra, rb, da, db, 0.0)
                worst = max(worst, abs(val - closed))
    rec.close("22-unentangled-correlations", "pairwise spin correlations, closed forms",
              0.0, worst, rc.tol_exact)

    # --- standardizing transforms -----------------------------------------
    sprod = rc.signs[0] * rc.signs[1] * rc.signs[2]
    rec.close("30-sign-constraint", "factor signs satisfy s1*s2*s3 = -1",
              -1.0, float(sprod), 0.0)
    if sprod != -1:
        return sorted(rec.records, key=lambda r: r.id)

    worst = 0.0
    for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)):
        t = dhrep.build_unentangled_transform(cfg0, signs)
        vac0 = cfg0.vacuum()
        worst = max(worst, abs(vac0.overlap(t.operator @ psi_un) - 1.0))
    rec.close("31-standardization-unentangled",
              "transform maps the three-particle state to the vacuum, all sign choices",
              0.0, worst, rc.tol_exact)

    t_un0 = dhrep.build_unentangled_transform(cfg0)
    w1 = dhrep.removal_generator(cfg0, "up", 1, 1)
    rec.close("32-removal-skewness", "removal generators are skew-Hermitian",
              0.0, (w1 + w1.dagger()).max_abs(), 0.0)
    dev = operator_distance(
        dhrep.rotation_exponential(w1, math.pi / 2.0, 1.0),
        matrix_exponential((math.pi / 2.0) * w1),
    )
    rec.close("33-rotation-fastpath", "factor exponential closed form vs generic path",
              0.0, dev, 1e-12)

    smear_dev = max(
        operator_distance(dhrep.conjugate(t_un0, cfg0.b("up", 1)),
                          float(t_un0.signs[0]) * cfg0.adag(1)),
        operator_distance(dhrep.conjugate(t_un0, cfg0.b("down", 2)),
                          float(t_un0.signs[1]) * cfg0.adag(2)),
        operator_distance(dhrep.conjugate(t_un0, cfg0.b("down", 3)),
                          float(t_un0.signs[2]) * cfg0.adag(3)),
        operator_distance(dhrep.conjugate(t_un0, cfg0.b("down", 1)), cfg0.b("down", 1)),
    )
    rec.close("34-closed-form-smeared", "packet-smeared transformed operators, closed forms",
              0.0, smear_dev, rc.tol_exact)

    for kappa in rc.kappas:
        cfg = _config(rc, kappa)
        t_un = dhrep.build_unentangled_transform(cfg)
        t_en = dhrep.build_entangled_transform(cfg, t_un)
        psi = model.unentangled_state(cfg)
        exact = model.evolve(cfg, psi, "exact")
        first = model.evolve(cfg, psi, "first").normalized()
        rec.close(f"35-standardization-entangled-k{kappa:g}",
                  "two-step transform maps the evolved state to the vacuum",
                  0.0, (t_en.operator @ exact - cfg.vacuum()).norm(), rc.tol_exact)

        # Precompute S|psi> per (region, direction) so the pair sweep is all
        # inner products.
        v = t_en.operator
        w = v.dagger() @ cfg.vacuum()
        s_exact, s_first, s_dh = {}, {}, {}
        for r in (1, 2, 3):
            for i, d in enumerate(dirs):
                s = model.localized_spin_operator(cfg, r, d)
                s_exact[r, i] = s @ exact
                s_first[r, i] = s @ first
                s_dh[r, i] = v @ (s @ w)
        worst_closed = 0.0
        worst_dh_exact = 0.0
        worst_dh_first = 0.0
        vac0 = cfg.vacuum()
        for r in (1, 2, 3):
            for i, d in enumerate(dirs):
                ue = exact.overlap(s_exact[r, i]).real
                uf = first.overlap(s_first[r, i]).real
                dh = vac0.overlap(s_dh[r, i]).real
                worst_dh_exact = max(worst_dh_exact, abs(dh - ue))
                worst_dh_first = max(worst_dh_first, abs(dh - uf))
        for ra, rb in ((1, 2), (2, 3), (3, 1)):
            for i in range(len(dirs)):
                for j in range(len(dirs)):
                    ue = s_exact[ra, i].overlap(s_exact[rb, j]).real
                    uf = s_first[ra, i].overlap(s_first[rb, j]).real
                    dh = s_dh[ra, i].overlap(s_dh[rb, j]).real
                    closed = model.correlation_closed_form(ra, rb, dirs[i], dirs[j], kappa)
                    worst_closed = max(worst_closed, abs(ue - closed))
                    worst_dh_exact = max(worst_dh_exact, abs(dh - ue))
                    worst_dh_first = max(worst_dh_first, abs(dh - uf))
        rec.close(f"36-entangled-correlations-k{kappa:g}",
                  "first-order correlation closed forms vs exact evolution",
                  0.0, worst_closed, max(5.0 * kappa**2, rc.tol_exact))
        rec.close(f"37-dh-equivalence-exact-k{kappa:g}",
                  "operator-encoded values equal exact usual-representation values",
                  0.0, worst_dh_exact, rc.tol_exact)
        rec.close(f"38-dh-equivalence-first-k{kappa:g}",
                  "operator-encoded values vs first-order usual-representation values",
                  0.0, worst_dh_first, kappa**2 + rc.tol_exact)

    # --- field sections and locality ---------------------------------------
    kmid = rc.kappas[len(rc.kappas) // 2] if rc.kappas else 0.05
    cfgp = _config(rc, kmid, probe_points=(rc.probe_point,))
    t_un = dhrep.build_unentangled_transform(cfgp)
    t_en = dhrep.build_entangled_transform(cfgp, t_un)
    pts = cfgp.layout.centers + (rc.probe_point,)
    usual = dhrep.field_section(cfgp, dhrep.USUAL, pts)
    closed_un = dhrep.field_section(cfgp, dhrep.DH_UNENTANGLED_CLOSED_FORM, pts, t_un)
    conj_un = dhrep.field_section(cfgp, dhrep.CONJUGATED, pts, t_un)
    closed_en = dhrep.field_section(cfgp, dhrep.DH_ENTANGLED_CLOSED_FORM, pts, t_en)
    dev_un = 0.0
    dev_en = 0.0
    for i in range(len(pts)):
        for spin in ("up", "down"):
            dev_un = max(dev_un, operator_distance(closed_un.operator(i, spin),
                                                   conj_un.operator(i, spin)))
            first_order = dhrep.first_order_entangled_conjugate(
                cfgp, t_un, usual.operator(i, spin))
            dev_en = max(dev_en, operator_distance(closed_en.operator(i, spin),
                                                   first_order))
    rec.close("40-closed-form-sections", "transformed field sections vs conjugation",
              0.0, dev_un, rc.tol_exact)
    rec.close("41-closed-form-sections-entangled",
              "entangled field sections vs first-order conjugation",
              0.0, dev_en, rc.tol_exact)

    vac = cfgp.vacuum()
    s1, s2, s3 = (float(s) for s in t_un.signs)
    dev = 0.0
    for i, x in enumerate(pts):
        psi = cfgp.layout.packet_values(x)
        up_expect = complex(psi[0]) * s1 * (cfgp.adag(1) @ vac)
        down_expect = (complex(psi[1]) * s2 * (cfgp.adag(2) @ vac)
                       + complex(psi[2]) * s3 * (cfgp.adag(3) @ vac))
        dev = max(dev, (dhrep.vacuum_action(closed_un.operator(i, "up")) - up_expect).norm())
        dev = max(dev, (dhrep.vacuum_action(closed_un.operator(i, "down")) - down_expect).norm())
        kterm_up = cfgp.bdag("down", 1) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))
        kterm_down = cfgp.bdag("up", 2) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))
        en_up = up_expect - s1 * s2 * kmid * complex(psi[1]) * kterm_up
        en_down = down_expect + s1 * s2 * kmid * complex(psi[0]) * kterm_down
        dev = max(dev, (dhrep.vacuum_action(closed_en.operator(i, "up")) - en_up).norm())
        dev = max(dev, (dhrep.vacuum_action(closed_en.operator(i, "down")) - en_down).norm())
    rec.close("42-vacuum-actions", "transformed operators acting on the vacuum, closed forms",
              0.0, dev, rc.tol_exact)

    loc = dhrep.locality_report(cfgp, t_un, tol=rc.tol_exact)
    outside = [r.distance for r in loc.rows if r.outside_support]
    rec.close("50-locality-aux-outside-support",
              "transformed operators differ only where their quanta live",
              0.0, max(outside) if outside else 0.0, rc.tol_exact)
    loc_en = dhrep.locality_report(cfgp, t_en, tol=rc.tol_exact)
    outside = [r.distance for r in loc_en.rows if r.outside_support]
    rec.close("51-locality-aux-entangled-outside-support",
              "entangled transform stays local away from the coupled regions",
              0.0, max(outside) if outside else 0.0, rc.tol_exact)
    region2_up = next(
        r.distance for r in loc_en.rows
        if r.spin == "up" and abs(r.point - cfgp.layout.centers[1]) < 1e-9
    )
    rec.close_lower_bound("52-locality-entangled-cross-term",
                          "exchange coupling leaks the partner region's support",
                          5.0 * kmid, region2_up)

    noaux = dhrep.noaux_locality_report(rc.separations, rc.packet_width)
    rec.close_lower_bound("53-noaux-probe-distance",
                          "bare construction moves the distant probe operator",
                          0.1, min(r["noaux_probe_operator_distance"] for r in noaux))
    sect = [r["noaux_section_distance"] for r in noaux]
    rec.close("54-noaux-separation-invariance",
              "probe leakage of the bare construction ignores the separation",
              0.0, max(sect) - min(sect), rc.tol_exact)
    rec.close("55-aux-probe-distance",
              "auxiliary-partner construction leaves the probe untouched",
              0.0, max(r["aux_probe_operator_distance"] for r in noaux), rc.tol_exact)

    # --- first-quantized oracle --------------------------------------------
    # The kappa^3 closed-form comparison needs a theta grid without pi/2:
    # the displayed pair-(1,2) form drops a (4/3) kappa^3 transverse term, so
    # exactly transverse-aligned pairs sit above the kappa^3 line.  Even-count
    # theta grids (as in the acceptance sweeps) avoid them; the exact-state
    # comparison at 2 kappa^3 covers transverse pairs as well.
    n_even = rc.n_theta + (rc.n_theta % 2)
    dirs_even = [
        SpinDirection(float(t), float(p))
        for t in np.linspace(0.0, math.pi, n_even)
        for p in np.linspace(0.0, 2.0 * math.pi, max(rc.n_phi, 2), endpoint=False)
    ]
    for kappa in rc.kappas:
        if kappa == 0.0:
            continue
        k3 = kappa**3
        psi0 = qubits.unentangled_state()
        exact = qubits.evolve_qubits(psi0, kappa, "exact")
        second = qubits.evolve_qubits(psi0, kappa, "second")
        rec.close(f"60-qubit-state-distance-k{kappa:g}",
                  "exact evolution vs second-order expansion", 0.0,
                  float(np.linalg.norm(exact - second)), k3)
        worst_exp = max(
            abs(qubits.pauli_expectation(exact, q, d)
                - qubits.expectation_closed_form(q, d, kappa))
            for q in (1, 2, 3) for d in dirs
        )
        rec.close(f"61-qubit-expectations-k{kappa:g}",
                  "spin expectations vs second-order closed forms", 0.0, worst_exp, k3)
        worst_sec = 0.0
        worst_exact = 0.0
        for qa, qb in ((1, 2), (2, 3), (3, 1)):
            for da in dirs_even:
                for db in dirs_even:
                    closed = qubits.correlation_closed_form(qa, qb, da, db, kappa)
                    worst_sec = max(worst_sec, abs(
                        qubits.pauli_correlation(second, qa, da, qb, db) - closed))
            for da in dirs:
                for db in dirs:
                    closed = qubits.correlation_closed_form(qa, qb, da, db, kappa)
                    worst_exact = max(worst_exact, abs(
                        qubits.pauli_correlation(exact, qa, da, qb, db) - closed))
        rec.close(f"62-qubit-correlations-second-k{kappa:g}",
                  "second-order state correlations vs displayed closed forms",
                  0.0, worst_sec, k3)
        rec.close(f"63-qubit-correlations-exact-k{kappa:g}",
                  "exact state correlations vs displayed closed forms",
                  0.0, worst_exact, 2.0 * k3)
        worst_dec = 0.0
        for qa, qb in ((2, 3), (1, 3)):
            for da in dirs:
                for db in dirs:
                    c0 = qubits.pauli_correlation(psi0, qa, da, qb, db)
                    ck = qubits.pauli_correlation(exact, qa, da, qb, db)
                    worst_dec = max(worst_dec, abs((abs(c0) - abs(ck))
                                                   - 2.0 * kappa**2 * abs(c0)))
        rec.close(f"64-qubit-second-order-decrease-k{kappa:g}",
                  "untouched-pair correlations shrink by twice kappa squared",
                  0.0, worst_dec, k3)

    return sorted(rec.records, key=lambda r: r.id)


def run_correlations(rc: RunConfig) -> list[dict]:
    """Correlation table over the direction set and kappa list."""
    dirs = directions(rc)
    rows = []
    kappas = rc.kappas if 0.0 in rc.kappas else (0.0,) + tuple(rc.kappas)
    for kappa in kappas:
        cfg = _config(rc, kappa)
        t_un = dhrep.build_unentangled_transform(cfg)
        transform = dhrep.build_entangled_transform(cfg, t_un) if kappa > 0 else t_un
        psi = model.unentangled_state(cfg)
        exact_state = model.evolve(cfg, psi, "exact")
        first_state = model.evolve(cfg, psi, "first").normalized()
        label = "entangled" if kappa > 0 else "unentangled"
        v = transform.operator
        w = v.dagger() @ cfg.vacuum()
        s_exact, s_first, s_dh = {}, {}, {}
        for r in (1, 2, 3):
            for i, d in enumerate(dirs):
                s = model.localized_spin_operator(cfg, r, d)
                s_exact[r, i] = s @ exact_state
                s_first[r, i] = s @ first_state
                s_dh[r, i] = v @ (s @ w)
        for ra, rb in ((1, 2), (2, 3), (3, 1)):
            for i, da in enumerate(dirs):
                for j, db in enumerate(dirs):
                    first = s_first[ra, i].overlap(s_first[rb, j]).real
                    exact = s_exact[ra, i].overlap(s_exact[rb, j]).real
                    dh = s_dh[ra, i].overlap(s_dh[rb, j]).real
                    closed = model.correlation_closed_form(ra, rb, da, db, kappa)
                    rows.append({
                        "representation": label,
                        "kappa": kappa,
                        "regions": f"({ra},{rb})",
                        "ua_theta": da.theta, "ua_phi": da.phi,
                        "ub_theta": db.theta, "ub_phi": db.phi,
                        "first_order": first,
                        "exact": exact,
                        "dh_vacuum": dh,
                        "closed_form": closed,
                        "dev_first_closed": abs(first - closed),
                        "dev_exact_closed": abs(exact - closed),
                        "dev_dh_exact": abs(dh - exact),
                    })
    return rows


def run_locality(rc: RunConfig) -> dict:
    """Per-point section distances for the auxiliary construction alongside
    the no-auxiliary contrast."""
    kappa = max(rc.kappas) if rc.kappas else 0.05
    cfg = _config(rc, kappa, probe_points=(rc.probe_point,))
    t_un = dhrep.build_unentangled_transform(cfg)
    t_en = dhrep.build_entangled_transform(cfg, t_un)
    return {
        "aux_unentangled": [r.to_dict() for r in dhrep.locality_report(cfg, t_un).rows],
        "aux_entangled": [r.to_dict() for r in dhrep.locality_report(cfg, t_en).rows],
        "noaux_contrast": dhrep.noaux_locality_report(rc.separations, rc.packet_width),
    }


def run_qubit(rc: RunConfig) -> list[dict]:
    """Exact vs second-order qubit expectations/correlations over the kappa list."""
    probe_dirs = [("x3", SpinDirection.x3()), ("x1", SpinDirection.x1()),
                  ("x2", SpinDirection.x2())]
    rows = []
    kappas = rc.kappas if 0.0 in rc.kappas else (0.0,) + tuple(rc.kappas)
    for kappa in kappas:
        psi0 = qubits.unentangled_state()
        exact = qubits.evolve_qubits(psi0, kappa, "exact")
        second = qubits.evolve_qubits(psi0, kappa, "second")
        for q in (1, 2, 3):
            for name, d in probe_dirs:
                rows.append({
                    "kappa": kappa,
                    "item": f"expectation_q{q}_{name}",
                    "exact": qubits.pauli_expectation(exact, q, d),
                    "second_order": qubits.pauli_expectation(second, q, d),
                    "closed_form": qubits.expectation_closed_form(q, d, kappa),
                })
        for qa, qb in ((1, 2), (2, 3), (3, 1)):
            for name_a, da in probe_dirs:
                for name_b, db in probe_dirs:
                    rows.append({
                        "kappa": kappa,
                        "item": f"correlation_q{qa}{qb}_{name_a}_{name_b}",
                        "exact": qubits.pauli_correlation(exact, qa, da, qb, db),
                        "second_order": qubits.pauli_correlation(second, qa, da, qb, db),
                        "closed_form": qubits.correlation_closed_form(qa, qb, da, db, kappa),
                    })
    for row in rows:
        row["dev_exact_closed"] = abs(row["exact"] - row["closed_form"])
        row["dev_second_closed"] = abs(row["second_order"] - row["closed_form"])
    return rows
