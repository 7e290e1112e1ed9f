"""Verification suites behind the command-line runner.

Every check produces a CheckRecord whose pass flag is recomputable from its
fields: pass iff abs_error <= tolerance.  For lower-bound checks ("the
distance must exceed X") abs_error stores the shortfall max(0, X - actual)
and the tolerance is zero.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from . import dhrep, model, qubits
from . import wavepackets as wp
from .errors import ConfigError
from .fock import (
    FockOperator,
    FockState,
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


# exp(-iG) is periodic in kappa (G^3 = kappa^2 G), so larger values add no physics
MAX_KAPPA = 2.0 * math.pi


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
        if min(self.n_theta, self.n_phi, self.n_random, self.grid_points) < 1:
            raise ConfigError("n_theta, n_phi, n_random and grid_points must be at least 1")
        if self.grid_points > wp.MAX_GRID_POINTS:
            raise ConfigError(f"grid_points exceeds the cap of {wp.MAX_GRID_POINTS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.kappas:
            raise ConfigError("the kappa list is empty")
        if not all(math.isfinite(k) for k in self.kappas):
            raise ConfigError(f"kappa values must be finite, got {self.kappas}")
        if any(k < 0 for k in self.kappas):
            raise ConfigError("kappa values must be non-negative")
        if max(self.kappas) > MAX_KAPPA:
            raise ConfigError(f"kappa values must be at most 2 pi = {MAX_KAPPA!r}, "
                              f"got {max(self.kappas)!r}")
        if len(self.packet_centers) != 3:
            raise ConfigError(f"need exactly three packet centers, got {self.packet_centers}")
        geometry = (self.grid_min, self.grid_max, self.packet_width, self.probe_point,
                    *self.packet_centers, *self.separations)
        if not all(math.isfinite(v) for v in geometry):
            raise ConfigError("geometry values must be finite")
        if self.packet_width <= 0:
            raise ConfigError(f"packet_width must be positive, got {self.packet_width}")
        if not self.separations:
            raise ConfigError("the separation list is empty")
        if len(self.signs) != 3 or any(s not in (1, -1) for s in self.signs):
            raise ConfigError(f"signs must be three values of +-1, got {self.signs}")
        tolerances = (self.tol_exact, self.wsw_tol, self.aperture_tol)
        if not all(math.isfinite(t) and t >= 0 for t in tolerances):
            raise ConfigError(f"tolerances must be finite and non-negative, got "
                              f"exact={self.tol_exact!r}, wsw={self.wsw_tol!r}, "
                              f"aperture={self.aperture_tol!r}")


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


PAIRS = ((1, 2), (2, 3), (3, 1))


def _unit_vectors(dirs: list[SpinDirection]) -> np.ndarray:
    return np.array([d.unit_vector for d in dirs])


def _sweep(moments: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every expectation u . m[r] (directions x regions) and every pair
    correlation u_a^T C[a, b] u_b (PAIRS x directions x directions)."""
    m, c = moments
    return u @ m.T, np.array([u @ c[a - 1, b - 1] @ u.T for a, b in PAIRS])


def _closed_grids(closed_form, dirs: list[SpinDirection], kappa: float) -> np.ndarray:
    """A correlation closed form on the _sweep grid, direction by direction."""
    return np.array([[[closed_form(a, b, da, db, kappa) for db in dirs] for da in dirs]
                     for a, b in PAIRS])


def _config(rc: RunConfig, kappa: float, probe_points: tuple[float, ...] = ()) -> model.SystemConfig:
    layout = wp.standard_layout(
        centers=rc.packet_centers,
        width=rc.packet_width,
        span=(rc.grid_min, rc.grid_max),
        n_points=rc.grid_points,
        probe_points=probe_points,
    )
    return model.standard_config(
        kappa=kappa, signs=rc.signs, layout=layout,
        wsw_tol=rc.wsw_tol, aperture_tol=rc.aperture_tol,
    )


def _system(rc: RunConfig, kappa: float, probe_points: tuple[float, ...] = ()
            ) -> tuple[model.SystemConfig, dhrep.DhTransform, dhrep.DhTransform]:
    """Config with its unentangled and two-step entangled transforms."""
    cfg = _config(rc, kappa, probe_points)
    t_un = dhrep.build_unentangled_transform(cfg)
    return cfg, t_un, dhrep.build_entangled_transform(cfg, t_un)


def _evolved(cfg: model.SystemConfig) -> tuple[FockState, FockState]:
    """Exact and normalized first-order evolutions of the unentangled state."""
    psi = model.unentangled_state(cfg)
    return model.evolve(cfg, psi, "exact"), model.evolve(cfg, psi, "first").normalized()


def _with_zero(kappas: tuple[float, ...]) -> tuple[float, ...]:
    """The kappa list with the unentangled kappa = 0 in front, unless present."""
    return kappas if 0.0 in kappas else (0.0,) + tuple(kappas)


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

    def _append(self, check_id, ref, expected, actual, err, tolerance):
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

    def close(self, check_id, ref, expected, actual, tolerance):
        self._append(check_id, ref, expected, actual,
                     abs(float(actual) - float(expected)), tolerance)

    def close_lower_bound(self, check_id, ref, bound, actual):
        self._append(check_id, ref, bound, actual, max(0.0, float(bound) - float(actual)), 0.0)


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
    a = FockOperator(small_reg, sparse.csr_array(skew))
    e = matrix_exponential(a)
    dev = operator_distance(e, FockOperator(small_reg, sparse.csr_array(_taylor_expm(skew))))
    rec.close("03-expm-taylor-oracle", "matrix exponential vs truncated Taylor oracle",
              0.0, dev, 1e-12)
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

    u = _unit_vectors(dirs)
    corr = _sweep(model.state_moments(cfg0, psi_un), u)[1]
    rec.close("22-unentangled-correlations", "pairwise spin correlations, closed forms",
              0.0, np.abs(corr - _closed_grids(model.correlation_closed_form, dirs, 0.0)).max(),
              rc.tol_exact)

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
        cfg, _, t_en = _system(rc, kappa)
        exact, first = _evolved(cfg)
        rec.close(f"35-standardization-entangled-k{kappa:g}",
                  "two-step transform maps the evolved state to the vacuum",
                  0.0, (t_en.operator @ exact - cfg.vacuum()).norm(), rc.tol_exact)

        ue, uf, dh = (_sweep(moments, u) for moments in (
            model.state_moments(cfg, exact), model.state_moments(cfg, first),
            dhrep.dh_vacuum_moments(cfg, t_en)))
        closed = _closed_grids(model.correlation_closed_form, dirs, kappa)
        rec.close(f"36-entangled-correlations-k{kappa:g}",
                  "first-order correlation closed forms vs exact evolution",
                  0.0, np.abs(ue[1] - closed).max(), max(5.0 * kappa**2, rc.tol_exact))
        rec.close(f"37-dh-equivalence-exact-k{kappa:g}",
                  "operator-encoded values equal exact usual-representation values",
                  0.0, max(np.abs(d - e).max() for d, e in zip(dh, ue)), rc.tol_exact)
        rec.close(f"38-dh-equivalence-first-k{kappa:g}",
                  "operator-encoded values vs first-order usual-representation values",
                  0.0, max(np.abs(d - f).max() for d, f in zip(dh, uf)), kappa**2 + rc.tol_exact)

    # --- field sections and locality ---------------------------------------
    kmid = rc.kappas[len(rc.kappas) // 2]
    cfgp, t_un, t_en = _system(rc, kmid, (rc.probe_point,))
    pts = cfgp.layout.centers + (rc.probe_point,)
    section = dhrep.field_section
    closed_un, closed_en, conj_un, first_order = {}, {}, {}, {}
    for spin in ("up", "down"):
        modes = dhrep.section_modes(cfgp, spin)
        closed_un[spin] = dhrep.closed_form_modes(cfgp, spin, t_un)
        closed_en[spin] = dhrep.closed_form_modes(cfgp, spin, t_en)
        conj_un[spin] = [dhrep.conjugate(t_un, m) for m in modes]
        first_order[spin] = dhrep.first_order_entangled_conjugate(cfgp, t_un, modes)
    dev_un = max(operator_distance(section(cfgp, x, closed_un[spin]),
                                   section(cfgp, x, conj_un[spin]))
                 for x in pts for spin in ("up", "down"))
    rec.close("40-closed-form-sections", "transformed field sections vs conjugation",
              0.0, dev_un, rc.tol_exact)
    dev_en = max(operator_distance(section(cfgp, x, closed_en[spin]),
                                   section(cfgp, x, first_order[spin]))
                 for x in pts for spin in ("up", "down"))
    rec.close("41-closed-form-sections-entangled",
              "entangled field sections vs first-order conjugation",
              0.0, dev_en, rc.tol_exact)

    vac = cfgp.vacuum()
    s1, s2, s3 = (float(s) for s in t_un.signs)
    dev = 0.0
    for x in pts:
        psi = cfgp.layout.packet_values(x)
        up_expect = complex(psi[0]) * s1 * (cfgp.adag(1) @ vac)
        down_expect = (complex(psi[1]) * s2 * (cfgp.adag(2) @ vac)
                       + complex(psi[2]) * s3 * (cfgp.adag(3) @ vac))
        un_up, un_down, en_up, en_down = (
            dhrep.vacuum_action(section(cfgp, x, images[spin]))
            for images in (closed_un, closed_en) for spin in ("up", "down"))
        dev = max(dev, (un_up - up_expect).norm(), (un_down - down_expect).norm())
        kterm_up = cfgp.bdag("down", 1) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))
        kterm_down = cfgp.bdag("up", 2) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))
        en_up_expect = up_expect - s1 * s2 * kmid * complex(psi[1]) * kterm_up
        en_down_expect = down_expect + s1 * s2 * kmid * complex(psi[0]) * kterm_down
        dev = max(dev, (en_up - en_up_expect).norm(), (en_down - en_down_expect).norm())
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
    dirs_even = directions(replace(rc, direction_mode="grid",
                                   n_theta=rc.n_theta + rc.n_theta % 2, n_phi=max(rc.n_phi, 2)))
    u_even = _unit_vectors(dirs_even)
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
        (exp_exact, corr_exact), (_, corr0) = (
            _sweep(qubits.pauli_moments(s), u) for s in (exact, psi0))
        corr_second = _sweep(qubits.pauli_moments(second), u_even)[1]
        closed_exp = np.array([[qubits.expectation_closed_form(q, d, kappa) for q in (1, 2, 3)]
                               for d in dirs])
        rec.close(f"61-qubit-expectations-k{kappa:g}",
                  "spin expectations vs second-order closed forms", 0.0,
                  np.abs(exp_exact - closed_exp).max(), k3)
        closed = _closed_grids(qubits.correlation_closed_form, dirs_even, kappa)
        rec.close(f"62-qubit-correlations-second-k{kappa:g}",
                  "second-order state correlations vs displayed closed forms",
                  0.0, np.abs(corr_second - closed).max(), k3)
        closed = _closed_grids(qubits.correlation_closed_form, dirs, kappa)
        rec.close(f"63-qubit-correlations-exact-k{kappa:g}",
                  "exact state correlations vs displayed closed forms",
                  0.0, np.abs(corr_exact - closed).max(), 2.0 * k3)
        # corr[1:] is pairs (2,3) and (3,1): those with the qubit the exchange leaves alone
        c0, ck = np.abs(corr0[1:]), np.abs(corr_exact[1:])
        worst_dec = np.abs((c0 - ck) - 2.0 * kappa**2 * c0).max()
        rec.close(f"64-qubit-second-order-decrease-k{kappa:g}",
                  "untouched-pair correlations shrink by twice kappa squared",
                  0.0, worst_dec, k3)

    return sorted(rec.records, key=lambda r: r.id)


def run_correlations(rc: RunConfig) -> list[dict]:
    """Correlation table over the direction set and kappa list."""
    dirs = directions(rc)
    u = _unit_vectors(dirs)
    rows = []
    for kappa in _with_zero(rc.kappas):
        # at kappa = 0 the entangler is the identity, so t_en's matrix equals t_un's
        cfg, _, t_en = _system(rc, kappa)
        exact_state, first_state = _evolved(cfg)
        label = "entangled" if kappa > 0 else "unentangled"
        firsts, exacts, dhs = (_sweep(moments, u)[1].ravel().tolist() for moments in (
            model.state_moments(cfg, first_state), model.state_moments(cfg, exact_state),
            dhrep.dh_vacuum_moments(cfg, t_en)))
        closed_forms = _closed_grids(model.correlation_closed_form, dirs, kappa).ravel()
        for ((ra, rb), da, db), first, exact, dh, closed in zip(
                itertools.product(PAIRS, dirs, dirs), firsts, exacts, dhs, closed_forms):
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
    cfg, t_un, t_en = _system(rc, max(rc.kappas), (rc.probe_point,))
    return {
        "aux_unentangled": [r.to_dict() for r in dhrep.locality_report(cfg, t_un).rows],
        "aux_entangled": [r.to_dict() for r in dhrep.locality_report(cfg, t_en).rows],
        "noaux_contrast": dhrep.noaux_locality_report(rc.separations, rc.packet_width),
    }


def run_qubit(rc: RunConfig) -> list[dict]:
    """Exact vs second-order qubit expectations/correlations over the kappa list."""
    probe_dirs = [("x3", SpinDirection.x3()), ("x1", SpinDirection.x1()),
                  ("x2", SpinDirection.x2())]
    u = _unit_vectors([d for _, d in probe_dirs])
    rows = []
    for kappa in _with_zero(rc.kappas):
        psi0 = qubits.unentangled_state()
        (exp_exact, corr_exact), (exp_second, corr_second) = (
            _sweep(qubits.pauli_moments(qubits.evolve_qubits(psi0, kappa, order)), u)
            for order in ("exact", "second"))
        for (q, (name, d)), exact, second in zip(
                itertools.product((1, 2, 3), probe_dirs),
                exp_exact.T.ravel().tolist(), exp_second.T.ravel().tolist()):
            rows.append({
                "kappa": kappa,
                "item": f"expectation_q{q}_{name}",
                "exact": exact,
                "second_order": second,
                "closed_form": qubits.expectation_closed_form(q, d, kappa),
            })
        for ((qa, qb), (name_a, da), (name_b, db)), exact, second in zip(
                itertools.product(PAIRS, probe_dirs, probe_dirs),
                corr_exact.ravel().tolist(), corr_second.ravel().tolist()):
            rows.append({
                "kappa": kappa,
                "item": f"correlation_q{qa}{qb}_{name_a}_{name_b}",
                "exact": exact,
                "second_order": second,
                "closed_form": qubits.correlation_closed_form(qa, qb, da, db, kappa),
            })
    for row in rows:
        row["dev_exact_closed"] = abs(row["exact"] - row["closed_form"])
        row["dev_second_closed"] = abs(row["second_order"] - row["closed_form"])
    return rows
