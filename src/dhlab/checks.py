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
    ModeRegistry,
    ProbeMode,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
)
from .model import PAIRS, SpinDirection


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


@dataclass(frozen=True)
class Table:
    """A table as its columns, each a float64 array or a list, all of one
    length; the JSON emitter encodes it column by column, building no row."""
    columns: dict[str, np.ndarray | list]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def rows(self) -> list[dict]:
        """The table as one dict per row, its array values as Python floats."""
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


# exp(-iG) is periodic in kappa (G^3 = kappa^2 G), so larger values add no physics
MAX_KAPPA = 2.0 * math.pi
# a sweep holds (directions x directions) arrays and `correlations` writes
# (kappas + 1) * 3 * n^2 rows of about 490 B: 100 directions at the default
# kappas give a 59 MB file, from a call whose peak RSS is about 148 MB
MAX_DIRECTIONS = 100


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
        # verify also sweeps the even theta grid, whatever the mode
        even_grid = (self.n_theta + self.n_theta % 2) * max(self.n_phi, 2)
        if max(self.n_random, even_grid) > MAX_DIRECTIONS:
            raise ConfigError(f"n_random and the (even) n_theta x n_phi grid must hold at "
                              f"most {MAX_DIRECTIONS} directions")
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
        # -0.0 passes `k < 0` but is labelled "-0": make it the kappa 0 it is; an
        # int kappa is a float, as the float64 kappa column of `correlations` writes it
        self.kappas = tuple(abs(k) if k == 0 else k for k in map(float, self.kappas))
        labels = [f"{k:g}" for k in self.kappas]
        if len(set(labels)) < len(labels):  # record ids carry the label
            raise ConfigError(f"kappa values must have distinct labels, got {', '.join(labels)}")
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
        if self.grid_points > 1:  # a single point has no spacing; the grid refuses it
            spacing = (self.grid_max - self.grid_min) / (self.grid_points - 1)
            if self.packet_width < spacing:
                raise ConfigError(f"packet_width {self.packet_width!r} is below the grid "
                                  f"spacing {spacing!r}, so the grid cannot resolve a packet")
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


def _unit_vectors(dirs: list[SpinDirection]) -> np.ndarray:
    return np.array([d.unit_vector for d in dirs])


def _sweep(moments: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every expectation u . m[r] (directions x regions) and every pair
    correlation u_a^T C[a, b] u_b (PAIRS x directions x directions)."""
    m, c = moments
    return u @ m.T, np.array([u @ c[a - 1, b - 1] @ u.T for a, b in PAIRS])


def _config(rc: RunConfig, probe_points: tuple[float, ...] = ()) -> model.SystemConfig:
    """The kappa = 0 config of one probe set; each kappa is a replace() of it."""
    layout = wp.standard_layout(
        centers=rc.packet_centers,
        width=rc.packet_width,
        span=(rc.grid_min, rc.grid_max),
        n_points=rc.grid_points,
        probe_points=probe_points,
    )
    return model.standard_config(signs=rc.signs, layout=layout,
                                 wsw_tol=rc.wsw_tol, aperture_tol=rc.aperture_tol)


def _entangled(cfg0: model.SystemConfig, t_un: dhrep.DhTransform, kappa: float):
    """The config at kappa with its two-step transform on the shared t_un."""
    cfg = replace(cfg0, kappa=kappa)
    return cfg, dhrep.build_entangled_transform(cfg, t_un)


def _sweeps(cfg: model.SystemConfig, t_en: dhrep.DhTransform, u: np.ndarray):
    """The exact state; the _sweeps of exact, normalized first-order and DH-vacuum moments."""
    psi = model.unentangled_state(cfg)
    exact = model.evolve(cfg, psi, "exact")
    first = model.evolve(cfg, psi, "first").normalized()
    return exact, [_sweep(moments, u) for moments in (
        model.state_moments(cfg, exact), model.state_moments(cfg, first),
        dhrep.dh_vacuum_moments(cfg, t_en))]


def _qubit_states(kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unentangled qubit state with its exact and second-order evolutions."""
    psi0 = qubits.unentangled_state()
    return psi0, *(qubits.evolve_qubits(psi0, kappa, order) for order in ("exact", "second"))


def _with_zero(kappas: tuple[float, ...]) -> tuple[float, ...]:
    """The kappa list with the unentangled kappa = 0 in front, unless present."""
    return kappas if 0.0 in kappas else (0.0,) + tuple(kappas)


def _record(check_id: str, ref: str, expected, actual, tolerance) -> CheckRecord:
    """A record that passes iff |actual - expected| <= tolerance; _timed sets its wall_time."""
    err = abs(float(actual) - float(expected))
    return CheckRecord(check_id, ref, float(expected), float(actual), err, float(tolerance),
                       err <= tolerance, 0.0)


def _lower_bound(check_id: str, ref: str, bound, actual) -> CheckRecord:
    """A record that passes iff actual >= bound; abs_error is the shortfall."""
    err = _worst([float(bound) - float(actual)])
    return CheckRecord(check_id, ref, float(bound), float(actual), err, 0.0, err <= 0.0, 0.0)


def _worst(deviations) -> float:
    """max(0.0, *deviations), but NaN if any deviation is NaN: Python's max
    drops a NaN that follows a number, so a record reduced with it passes."""
    return float(np.max(np.fromiter(deviations, float), initial=0.0))


def _timed(group, *args) -> list[CheckRecord]:
    """The group's records, each with its share of the group's wall time."""
    start = time.perf_counter()
    records = group(*args)
    share = (time.perf_counter() - start) / max(len(records), 1)
    return [replace(r, wall_time=share) for r in records]


def _block_transposed(m: sparse.sparray, block: int) -> sparse.coo_array:
    """`m` with its (block x block) blocks transposed as blocks: block (p, q)
    moves to (q, p), its entries keeping their place within the block."""
    m = m.tocoo()
    rows = m.col // block * block + m.row % block
    cols = m.row // block * block + m.col % block
    return sparse.coo_array((m.data, (rows, cols)), shape=m.shape)


def _taylor_expm(matrix: np.ndarray, terms: int = 40) -> np.ndarray:
    """Brute-force truncated Taylor sum, the independent oracle for expm."""
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ matrix / n
        out = out + term
    return out


def _algebra_checks(seed: int) -> list[CheckRecord]:
    """01-04: the mode algebra and the generic exponential against its oracle."""
    reg = ModeRegistry(model.standard_registry().modes + (ProbeMode(1),))
    ops = [(mode_operator(reg, m), mode_operator(reg, m, dagger=True)) for m in reg.modes]
    # Block (p, q) of the product is e_p e_q over e = (c_1 .. c_K, c_1^dag .. c_K^dag);
    # adding its block transpose gives every anticommutator {e_p, e_q} at once.
    stack = [c.matrix for c, _ in ops] + [cd.matrix for _, cd in ops]
    products = sparse.vstack(stack, format="csr") @ sparse.hstack(stack, format="csr")
    k_dim = len(ops) * reg.dimension  # {c_i, c_i^dag} = I sits K blocks off the diagonal
    target = sparse.eye_array(2 * k_dim, k=k_dim) + sparse.eye_array(2 * k_dim, k=-k_dim)
    anticommutators = products + _block_transposed(products, reg.dimension) - target
    vac = vacuum_state(reg)

    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    skew = raw - raw.conj().T
    skew *= 1.0 / max(1.0, np.linalg.norm(skew, 2))
    small_reg = ModeRegistry(model.standard_registry().modes[:4])
    e = matrix_exponential(FockOperator(small_reg, sparse.csr_array(skew)))
    dev = operator_distance(e, FockOperator(small_reg, sparse.csr_array(_taylor_expm(skew))))
    return [
        _record("01-car-suite", "canonical anticommutation relations, all mode pairs",
                0.0, np.abs(anticommutators.data).max(initial=0.0), 0.0),
        _record("02-vacuum-annihilation", "every annihilator kills the vacuum",
                0.0, _worst((c @ vac).norm() for c, _ in ops), 0.0),
        _record("03-expm-taylor-oracle", "matrix exponential vs truncated Taylor oracle",
                0.0, dev, 1e-12),
        _record("04-expm-unitarity", "exp of skew-Hermitian input is unitary",
                0.0, operator_distance(e @ e.dagger(), identity_operator(small_reg)), 1e-11),
    ]


def _model_checks(rc: RunConfig, cfg0: model.SystemConfig, psi_un, dirs, u) -> list[CheckRecord]:
    """10-30: the geometry gates, the unentangled model and the sign constraint."""
    wsw = wp.wsw_report(list(cfg0.layout.packets), tol=rc.wsw_tol)
    apt = wp.aperture_report(list(cfg0.layout.apertures), list(cfg0.layout.packets),
                             tol=rc.aperture_tol)
    states = [psi_un] + [model.build_state(cfg0, model.FLIPPED_OCC[r]) for r in (1, 2, 3)]
    gram_dev = _worst(abs(si.overlap(sj) - (1.0 if i == j else 0.0))
                      for i, si in enumerate(states) for j, sj in enumerate(states))
    corr = _sweep(model.state_moments(cfg0, psi_un), u)[1]
    return [
        _record("10-wsw-gate", "pointwise products of distinct packets vanish",
                0.0, wsw.max_product, rc.wsw_tol),
        _record("11-aperture-products", "aperture mutual exclusion and idempotence",
                0.0, 0.0 if apt.products_exact else 1.0, 0.0),
        _record("12-aperture-pointwise", "apertures pass their packets through unchanged",
                0.0, apt.max_pointwise_error, rc.aperture_tol),
        _record("13-aperture-integrals", "aperture-weighted packet norms are Kronecker deltas",
                0.0, apt.max_integral_error, rc.aperture_tol),
        *(_record(f"20-spin-eigenvalue-r{region}", "axis-aligned localized spin eigenvalue", 0.0,
                  (model.localized_spin_operator(cfg0, region, SpinDirection.x3()) @ psi_un
                   - eig * psi_un).norm(), rc.tol_exact)
          for region, eig in ((1, 1.0), (2, -1.0), (3, -1.0))),
        _record("21-state-orthonormality", "basis kets are normalized and orthogonal",
                0.0, gram_dev, rc.tol_exact),
        _record("22-unentangled-correlations", "pairwise spin correlations, closed forms",
                0.0, np.abs(corr - model.correlation_closed_grid(dirs, dirs, 0.0)).max(),
                rc.tol_exact),
        _record("30-sign-constraint", "factor signs satisfy s1*s2*s3 = -1",
                -1.0, float(math.prod(rc.signs)), 0.0),
    ]


def _transform_checks(rc: RunConfig, cfg0: model.SystemConfig, psi_un, t_uns: dict,
                      t_un0: dhrep.DhTransform, dirs, u) -> list[CheckRecord]:
    """31-38: the unentangled transforms and their factors, then at each kappa
    the two-step transform and the DH-vacuum values."""
    worst = _worst(abs(cfg0.vacuum().overlap(t.operator @ psi_un) - 1.0) for t in t_uns.values())
    w1 = dhrep.removal_generator(cfg0, "up", 1, 1)
    generic = matrix_exponential((math.pi / 2.0) * w1)
    dev = _worst(operator_distance(closed, generic) for closed in (
        dhrep.rotation_exponential(w1, math.pi / 2.0, 1.0),
        dhrep.DhFactorParams.from_sign(1).exponential(w1)))  # the factor V_un uses
    s1, s2, s3 = (float(s) for s in t_un0.signs)
    smear_dev = _worst(operator_distance(dhrep.conjugate(t_un0, cfg0.b(spin, r)), image)
                       for spin, r, image in (("up", 1, s1 * cfg0.adag(1)),
                                              ("down", 2, s2 * cfg0.adag(2)),
                                              ("down", 3, s3 * cfg0.adag(3)),
                                              ("down", 1, cfg0.b("down", 1))))
    records = [
        _record("31-standardization-unentangled",
                "transform maps the three-particle state to the vacuum, all sign choices",
                0.0, worst, rc.tol_exact),
        _record("32-removal-skewness", "removal generators are skew-Hermitian",
                0.0, (w1 + w1.dagger()).max_abs(), 0.0),
        _record("33-rotation-fastpath", "factor exponential closed form vs generic path",
                0.0, dev, 1e-12),
        _record("34-closed-form-smeared", "packet-smeared transformed operators, closed forms",
                0.0, smear_dev, rc.tol_exact),
    ]
    for kappa in rc.kappas:
        cfg, t_en = _entangled(cfg0, t_un0, kappa)
        exact, (ue, uf, dh) = _sweeps(cfg, t_en, u)
        closed = model.correlation_closed_grid(dirs, dirs, kappa)
        records += [
            _record(f"35-standardization-entangled-k{kappa:g}",
                    "two-step transform maps the evolved state to the vacuum",
                    0.0, (t_en.operator @ exact - cfg.vacuum()).norm(), rc.tol_exact),
            _record(f"36-entangled-correlations-k{kappa:g}",
                    "first-order correlation closed forms vs exact evolution",
                    0.0, np.abs(ue[1] - closed).max(), max(5.0 * kappa**2, rc.tol_exact)),
            _record(f"37-dh-equivalence-exact-k{kappa:g}",
                    "operator-encoded values equal exact usual-representation values",
                    0.0, _worst(np.abs(d - e).max() for d, e in zip(dh, ue)), rc.tol_exact),
            _record(f"38-dh-equivalence-first-k{kappa:g}",
                    "operator-encoded values vs first-order usual-representation values",
                    0.0, _worst(np.abs(d - f).max() for d, f in zip(dh, uf)),
                    kappa**2 + rc.tol_exact),
        ]
    return records


def _section_checks(rc: RunConfig, cfgp: model.SystemConfig, t_un: dhrep.DhTransform,
                    t_en: dhrep.DhTransform, kmid: float) -> list[CheckRecord]:
    """40-55 on the probe system at kmid: field sections and locality."""
    pts = cfgp.layout.centers + (rc.probe_point,)
    modes = {spin: dhrep.section_modes(cfgp, spin) for spin in ("up", "down")}
    # one call conjugates G_DH once for both spins' lists
    both = dhrep.first_order_entangled_conjugate(cfgp, t_un, modes["up"] + modes["down"])
    first = {"up": both[:len(modes["up"])], "down": both[len(modes["up"]):]}
    closed_un, closed_en, dev_un, dev_en = {}, {}, [], []
    for spin in ("up", "down"):
        closed_un[spin] = dhrep.closed_form_modes(cfgp, spin, t_un)
        closed_en[spin] = dhrep.closed_form_modes(cfgp, spin, t_en)
        # ||section(a) - section(b)|| is the norm of the section of a - b
        dev_un.extend(dhrep.section_norms(cfgp, pts, [
            c - dhrep.conjugate(t_un, m) for c, m in zip(closed_un[spin], modes[spin])]))
        dev_en.extend(dhrep.section_norms(cfgp, pts, [
            c - f for c, f in zip(closed_en[spin], first[spin])]))

    vac = cfgp.vacuum()
    s1, s2, s3 = (float(s) for s in t_un.signs)
    aux1, aux2, aux3 = ((cfgp.adag(j) @ vac).amplitudes for j in (1, 2, 3))
    kterm_up, kterm_down = ((cfgp.bdag(s, r) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))).amplitudes
                            for s, r in (("down", 1), ("up", 2)))
    # a section's vacuum action is sum_k alpha_k(x) m_k|0>: each m_k|0> is read once
    columns = [[dhrep.vacuum_action(m).amplitudes for m in images[spin]]
               for images in (closed_un, closed_en) for spin in ("up", "down")]
    dev = []
    for x in pts:
        psi, alpha = cfgp.layout.packet_values(x), dhrep.section_coefficients(cfgp, x)
        up_expect = complex(psi[0]) * s1 * aux1
        down_expect = complex(psi[1]) * s2 * aux2 + complex(psi[2]) * s3 * aux3
        expected = (up_expect, down_expect,
                    up_expect - s1 * s2 * kmid * complex(psi[1]) * kterm_up,
                    down_expect + s1 * s2 * kmid * complex(psi[0]) * kterm_down)
        dev += [np.linalg.norm(sum(complex(a) * c for a, c in zip(alpha, cols)) - want)
                for cols, want in zip(columns, expected)]
    loc = _locality_payload(cfgp, t_un, t_en, rc)
    outside = {table: [r["distance"] for r in rows if r["outside_support"]]
               for table, rows in loc.items() if table.startswith("aux_")}
    region2_up = next(
        r["distance"] for r in loc["aux_entangled"]
        if r["spin"] == "up" and abs(r["point"] - cfgp.layout.centers[1]) < 1e-9
    )
    noaux = loc["noaux_contrast"]
    sect = [r["noaux_section_distance"] for r in noaux]
    return [
        _record("40-closed-form-sections", "transformed field sections vs conjugation",
                0.0, _worst(dev_un), rc.tol_exact),
        _record("41-closed-form-sections-entangled",
                "entangled field sections vs first-order conjugation",
                0.0, _worst(dev_en), rc.tol_exact),
        _record("42-vacuum-actions", "transformed operators acting on the vacuum, closed forms",
                0.0, _worst(dev), rc.tol_exact),
        _record("50-locality-aux-outside-support",
                "transformed operators differ only where their quanta live",
                0.0, _worst(outside["aux_unentangled"]), rc.tol_exact),
        _record("51-locality-aux-entangled-outside-support",
                "entangled transform stays local away from the coupled regions",
                0.0, _worst(outside["aux_entangled"]), rc.tol_exact),
        _lower_bound("52-locality-entangled-cross-term",
                     "exchange coupling leaks the partner region's support",
                     5.0 * kmid, region2_up),
        _lower_bound("53-noaux-probe-distance",
                     "bare construction moves the distant probe operator",
                     0.1, np.min([r["noaux_probe_operator_distance"] for r in noaux])),
        _record("54-noaux-separation-invariance",
                "probe leakage of the bare construction ignores the separation",
                0.0, np.ptp(sect), rc.tol_exact),
        _record("55-aux-probe-distance",
                "auxiliary-partner construction leaves the probe untouched",
                0.0, _worst(r["aux_probe_operator_distance"] for r in noaux), rc.tol_exact),
    ]


def _qubit_checks(rc: RunConfig, dirs, u) -> list[CheckRecord]:
    """60-64 at each nonzero kappa: the first-quantized oracle."""
    # The kappa^3 closed-form comparison needs a theta grid without pi/2:
    # the displayed pair-(1,2) form drops a (4/3) kappa^3 transverse term, so
    # exactly transverse-aligned pairs sit above the kappa^3 line.  Even-count
    # theta grids (as in the acceptance sweeps) avoid them; the exact-state
    # comparison at 2 kappa^3 covers transverse pairs as well.
    dirs_even = directions(replace(rc, direction_mode="grid",
                                   n_theta=rc.n_theta + rc.n_theta % 2, n_phi=max(rc.n_phi, 2)))
    u_even = _unit_vectors(dirs_even)
    records = []
    for kappa in filter(None, rc.kappas):  # kappa = 0 has nothing to expand
        k3 = kappa**3
        psi0, exact, second = _qubit_states(kappa)
        (exp_exact, corr_exact), (_, corr0) = (
            _sweep(qubits.pauli_moments(s), u) for s in (exact, psi0))
        corr_second = _sweep(qubits.pauli_moments(second), u_even)[1]
        closed_exp = np.array([[qubits.expectation_closed_form(q, d, kappa) for q in (1, 2, 3)]
                               for d in dirs])
        closed_even = qubits.correlation_closed_grid(dirs_even, dirs_even, kappa)
        closed = qubits.correlation_closed_grid(dirs, dirs, kappa)
        # corr[1:] is pairs (2,3) and (3,1): those with the qubit the exchange leaves alone
        c0, ck = np.abs(corr0[1:]), np.abs(corr_exact[1:])
        records += [
            _record(f"60-qubit-state-distance-k{kappa:g}",
                    "exact evolution vs second-order expansion", 0.0,
                    float(np.linalg.norm(exact - second)), k3),
            _record(f"61-qubit-expectations-k{kappa:g}",
                    "spin expectations vs second-order closed forms", 0.0,
                    np.abs(exp_exact - closed_exp).max(), k3),
            _record(f"62-qubit-correlations-second-k{kappa:g}",
                    "second-order state correlations vs displayed closed forms",
                    0.0, np.abs(corr_second - closed_even).max(), k3),
            _record(f"63-qubit-correlations-exact-k{kappa:g}",
                    "exact state correlations vs displayed closed forms",
                    0.0, np.abs(corr_exact - closed).max(), 2.0 * k3),
            _record(f"64-qubit-second-order-decrease-k{kappa:g}",
                    "untouched-pair correlations shrink by twice kappa squared",
                    0.0, np.abs((c0 - ck) - 2.0 * kappa**2 * c0).max(), k3),
        ]
    return records


def run_verify(rc: RunConfig) -> list[CheckRecord]:
    """Run the full invariant and identity suite; records sorted by id.  A
    record's wall_time is its check group's time over the group's record count;
    the setup that builds what several groups read is charged to no record."""
    import scipy.sparse.linalg  # noqa: F401  (fock's deferred import, paid here in setup)
    dirs = directions(rc)
    u = _unit_vectors(dirs)
    cfg0 = _config(rc)
    psi_un = model.unentangled_state(cfg0)
    records = _timed(_algebra_checks, rc.seed) + _timed(_model_checks, rc, cfg0, psi_un, dirs, u)
    # the transforms exist only under s1*s2*s3 = -1
    if next(r for r in records if r.id == "30-sign-constraint").passed:
        t_uns = {signs: dhrep.build_unentangled_transform(cfg0, signs)
                 for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))}
        t_un0 = t_uns[tuple(rc.signs)]
        kmid = rc.kappas[len(rc.kappas) // 2]
        cfgp0 = _config(rc, (rc.probe_point,))
        t_un = dhrep.build_unentangled_transform(cfgp0)
        cfgp, t_en = _entangled(cfgp0, t_un, kmid)
        records += (_timed(_transform_checks, rc, cfg0, psi_un, t_uns, t_un0, dirs, u)
                    + _timed(_section_checks, rc, cfgp, t_un, t_en, kmid)
                    + _timed(_qubit_checks, rc, dirs, u))
    return sorted(records, key=lambda r: r.id)


def run_correlations(rc: RunConfig) -> Table:
    """Correlation table over the direction set and kappa list: its rows run
    over product(kappas, PAIRS, dirs, dirs)."""
    dirs = directions(rc)
    u = _unit_vectors(dirs)
    cfg0 = _config(rc)
    t_un = dhrep.build_unentangled_transform(cfg0)
    kappas = _with_zero(rc.kappas)
    n, blocks = len(dirs), len(kappas) * len(PAIRS)
    thetas, phis = np.array([(d.theta, d.phi) for d in dirs]).T
    labels, values = [], []
    for kappa in kappas:
        # at kappa = 0 the entangler is the identity, so t_en's matrix equals t_un's
        labels += ["entangled" if kappa > 0 else "unentangled"] * (len(PAIRS) * n * n)
        exact, first, dh = (corr.ravel() for _, corr in
                            _sweeps(*_entangled(cfg0, t_un, kappa), u)[1])
        closed = model.correlation_closed_grid(dirs, dirs, kappa).ravel()
        values.append((first, exact, dh, closed,
                       np.abs(first - closed), np.abs(exact - closed), np.abs(dh - exact)))
    return Table({
        "representation": labels,
        "kappa": np.repeat(kappas, len(PAIRS) * n * n),
        "regions": [label for a, b in PAIRS for label in [f"({a},{b})"] * n * n] * len(kappas),
        "ua_theta": np.tile(np.repeat(thetas, n), blocks),
        "ua_phi": np.tile(np.repeat(phis, n), blocks),
        "ub_theta": np.tile(thetas, n * blocks),
        "ub_phi": np.tile(phis, n * blocks),
        **{name: np.concatenate(column) for name, column in zip(
            ("first_order", "exact", "dh_vacuum", "closed_form",
             "dev_first_closed", "dev_exact_closed", "dev_dh_exact"), zip(*values))},
    })


def _locality_payload(cfg: model.SystemConfig, t_un: dhrep.DhTransform,
                      t_en: dhrep.DhTransform, rc: RunConfig) -> dict:
    """Per-point section distances for the auxiliary construction alongside
    the no-auxiliary contrast: the `dhlab locality` payload."""
    return {
        "aux_unentangled": dhrep.locality_report(cfg, t_un, tol=rc.tol_exact),
        "aux_entangled": dhrep.locality_report(cfg, t_en, tol=rc.tol_exact),
        "noaux_contrast": dhrep.noaux_locality_report(rc.separations, rc.packet_width),
    }


def run_locality(rc: RunConfig) -> dict:
    """The locality payload for the probe geometry at the largest kappa."""
    cfg0 = _config(rc, (rc.probe_point,))
    t_un = dhrep.build_unentangled_transform(cfg0)
    cfg, t_en = _entangled(cfg0, t_un, max(rc.kappas))
    return _locality_payload(cfg, t_un, t_en, rc)


def run_qubit(rc: RunConfig) -> list[dict]:
    """Exact vs second-order qubit expectations/correlations over the kappa list."""
    probe_dirs = [("x3", SpinDirection.x3()), ("x1", SpinDirection.x1()),
                  ("x2", SpinDirection.x2())]
    dirs = [d for _, d in probe_dirs]
    u = _unit_vectors(dirs)
    rows = []
    for kappa in _with_zero(rc.kappas):
        (exp_exact, corr_exact), (exp_second, corr_second) = (
            _sweep(qubits.pauli_moments(s), u) for s in _qubit_states(kappa)[1:])
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
        for ((qa, qb), (name_a, _), (name_b, _)), exact, second, closed in zip(
                itertools.product(PAIRS, probe_dirs, probe_dirs),
                corr_exact.ravel().tolist(), corr_second.ravel().tolist(),
                qubits.correlation_closed_grid(dirs, dirs, kappa).ravel().tolist()):
            rows.append({
                "kappa": kappa,
                "item": f"correlation_q{qa}{qb}_{name_a}_{name_b}",
                "exact": exact,
                "second_order": second,
                "closed_form": closed,
            })
    for row in rows:
        row["dev_exact_closed"] = abs(row["exact"] - row["closed_form"])
        row["dev_second_closed"] = abs(row["second_order"] - row["closed_form"])
    return rows
