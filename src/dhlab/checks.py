"""Verification suites behind the command-line runner.

Every check produces a CheckRecord whose pass flag is recomputable from its
fields: pass iff abs_error <= tolerance.  For lower-bound checks ("the
distance must exceed X") abs_error stores the shortfall max(0, X - actual)
and the tolerance is zero.

Claim map: which `verify` records check which claim of the abstract
(PAPER.md).  The first five rows are the four claims, the correlations with
their independent qubit oracle; the last three are the ground they stand on.
A record family NN is every id NN-..., per-kappa ids included; each family
sits in one row.  Tolerances are the defaults (1e-10 is `tol_exact`), and
kappa is the record's own.

| claim                  | records      | tolerance class                               | demo   |
| ---------------------- | ------------ | --------------------------------------------- | ------ |
| DH field transforms    | 31-35, 40-42 | 1e-10; 32: exactly 0; 33: 1e-12               | 04, 05 |
| localized spin         | 20, 22       | 1e-10                                         | 03     |
| DH-vacuum correlations | 36-38        | 36: 5 kappa^2; 37: 1e-10; 38: kappa^2 + 1e-10 | 05     |
| - their qubit oracle   | 60-64        | kappa^3; 63: 2 kappa^3                        | 07     |
| locality, separability | 50-55        | 1e-10; 52, 53: lower bounds                   | 06     |
| mode algebra, expm     | 01-04        | 01, 02: exactly 0; 03: 1e-12; 04: 1e-11       | 01     |
| geometry gates         | 10-13        | 10: 1e-10; 11: exactly 0; 12, 13: 1e-8        | 02     |
| basis kets, signs      | 21, 30       | 21: 1e-10; 30: exactly 0                      | 03, 04 |
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dhrep, model, qubits
from . import wavepackets as wp
from .errors import ConfigError
from .fock import (
    CSRMatrix,
    FockOperator,
    ModeRegistry,
    ProbeMode,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
    vstack,
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


@dataclass(frozen=True)
class Table:
    """A table as its columns, all of one length: a float column is a float64
    array, any other a list, whose cells the CLI encodes one object at a time.
    The CLI encodes it column by column, as JSON or CSV, building no row."""
    columns: dict[str, np.ndarray | list]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def rows(self) -> list[dict]:
        """The table as one dict per row, its array values as Python floats: the
        tests' oracle, which no command calls."""
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


def record_table(records: list[CheckRecord]) -> Table:
    """The records as one Table, a column per field; `passed` is named `pass`."""
    return Table({"pass" if f.name == "passed" else f.name: [getattr(r, f.name) for r in records]
                  for f in fields(CheckRecord)})


# exp(-iG) is periodic in kappa (G^3 = kappa^2 G), so larger values add no physics
MAX_KAPPA = 2.0 * math.pi
# Records 60-64 hold O(1) values to kappa^3, and those values carry a few ulps
# of rounding (up to 4 eps measured): below kappa^3 = 4 eps (kappa ~ 9.6e-6)
# the records fail on rounding alone, and below ~1.5e-154 kappa^2 underflows
# to 0 in the rotation closed form.  So a nonzero kappa may not go lower.
MIN_KAPPA = (4.0 * np.finfo(float).eps) ** (1.0 / 3.0)
# a sweep holds (directions x directions) arrays and `correlations` writes
# (kappas + 1) * 3 * n^2 rows of about 490 B: 100 directions at the default
# kappas give a 59 MB file, from a call whose peak RSS is about 148 MB
MAX_DIRECTIONS = 100
# `locality`'s probe packet, s widths from its packet, keeps a residual of about
# |s| / 2 when orthogonalized against it (overlap exp(-s^2 / 8)), and one at or
# below wp.SPAN_RESIDUAL_TOL is refused, so every |s| up to about twice that
# fails (the measured edge is 2.0000000056e-8 at widths 0.002 to 1e4); at this
# floor the residual is 1.5 times the tolerance, so every admitted separation runs
MIN_SEPARATION = 3.0 * wp.SPAN_RESIDUAL_TOL


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
        tiny = [k for k in self.kappas if 0.0 < k < MIN_KAPPA]
        if tiny:
            raise ConfigError(f"nonzero kappa values must be at least {MIN_KAPPA:.4g}, where "
                              f"kappa^3 still exceeds the rounding of O(1) values, got {tiny[0]!r}")
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
        tiny = [s for s in self.separations if abs(s) < MIN_SEPARATION]
        if tiny:
            raise ConfigError(f"separations must be at least {MIN_SEPARATION:g} widths in size: "
                              f"a probe packet nearer its packet lies in the packet's span, "
                              f"got {tiny[0]!r}")
        if len(self.signs) != 3 or any(s not in (1, -1) for s in self.signs):
            raise ConfigError(f"signs must be three values of +-1, got {self.signs}")
        tolerances = (self.tol_exact, self.wsw_tol, self.aperture_tol)
        if not all(math.isfinite(t) and t >= 0 for t in tolerances):
            raise ConfigError(f"tolerances must be finite and non-negative, got "
                              f"exact={self.tol_exact!r}, wsw={self.wsw_tol!r}, "
                              f"aperture={self.aperture_tol!r}")


def directions(rc: RunConfig) -> list[SpinDirection]:
    """Deterministic direction set: a (theta, phi) grid, or seeded uniform
    sphere samples when direction_mode = random.  The samples come from a
    private random.Random(seed), whose random() stream Python keeps across
    versions, through uniform(a, b) = a + (b - a) * random(); loading
    numpy.random for them would cost several MB of RSS."""
    if rc.direction_mode == "random":
        rng = random.Random(rc.seed)
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
        wsw_tol=rc.wsw_tol,
        aperture_tol=rc.aperture_tol,
    )
    return model.standard_config(signs=rc.signs, layout=layout)


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
    """max(0.0, *deviations), but NaN if any deviation is NaN or there is none,
    so a record fails on a NaN or on nothing: Python's max drops a NaN that
    follows a number, and max(0.0) of nothing would pass."""
    deviations = np.fromiter(deviations, float)
    return float(np.max(deviations, initial=0.0)) if deviations.size else math.nan


def _timed(group, *args) -> list[CheckRecord]:
    """The group's records, each with its share of the group's wall time."""
    start = time.perf_counter()
    records = group(*args)
    share = (time.perf_counter() - start) / max(len(records), 1)
    return [replace(r, wall_time=share) for r in records]


def _side_by_side(m: CSRMatrix, block: int) -> CSRMatrix:
    """`m`'s blocks of `block` rows set side by side: entry (q * block + r, c)
    moves to (r, q * width + c), so vstack(m_0 .. m_n) becomes hstack(m_0 .. m_n)."""
    width = m.shape[1]
    q, r = np.divmod(m.rows, block)
    order = r.argsort(kind="stable")  # within a row r, m's order is block q, then column
    return CSRMatrix.from_triples(r[order], (q * width + m.indices)[order], m.data[order],
                                  (block, m.shape[0] // block * width))


def _car_deviation(stack: list[CSRMatrix]) -> float:
    """The worst |entry| of {e_p, e_q} - [q = p + K] I over the stack
    e = (e_0 .. e_2K-1) = (c_1 .. c_K, c_1^dag .. c_K^dag).  {e_q, e_p} is
    {e_p, e_q} summed in the other order, so each unordered pair is read
    once, in block row p's blocks q >= p.  Laid out last first,
    rev = (e_2K-1 .. e_0), the stack puts those blocks first: block j of
    e_p @ hstack(rev) is e_p e_q, and row block j of vstack(rev) @ e_p is
    e_q e_p, q = 2K-1-j.  So the first product is cut to its first 2K-p
    blocks by a column mask, the second is taken of vstack(rev)'s first
    2K-p blocks (views), and side by side their sum is block row p."""
    k, dim = len(stack) // 2, stack[0].shape[0]
    e_column = vstack(stack[::-1])
    # hstack(rev) is remapped from vstack(rev), not taken as an adjoint, so a
    # stack that is not closed under adjoints reads as it stands
    e_row = _side_by_side(e_column, dim)
    diagonal = np.arange(dim)
    worst = []
    for p, e_p in enumerate(stack):
        width = (2 * k - p) * dim
        full = e_p @ e_row
        keep = (full.indices < width).nonzero()[0]
        row = CSRMatrix.from_triples(full.rows[keep], full.indices[keep], full.data[keep],
                                     (dim, width))
        del full, keep  # the traced peak holds one product at a time
        row = row + _side_by_side(e_column.first_rows(width) @ e_p, dim)
        if p < k:  # q = p + K is block j = K-1-p
            row = row - CSRMatrix.from_triples(diagonal, diagonal + (k - 1 - p) * dim,
                                               np.ones(dim, dtype=complex), row.shape)
        worst.append(np.abs(row.data).max(initial=0.0))
    return _worst(worst)


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
    car_dev = _car_deviation([c.matrix for c, _ in ops] + [cd.matrix for _, cd in ops])
    vac = vacuum_state(reg)

    rng = random.Random(seed)  # as in directions(): no numpy.random
    draws = np.array([rng.uniform(-1.0, 1.0) for _ in range(512)]).reshape(2, 16, 16)
    raw = draws[0] + 1j * draws[1]
    skew = raw - raw.conj().T
    skew *= 1.0 / max(1.0, np.linalg.norm(skew, 2))
    small_reg = ModeRegistry(model.standard_registry().modes[:4])
    e = matrix_exponential(FockOperator(small_reg, CSRMatrix.from_dense(skew)))
    dev = operator_distance(e, FockOperator(small_reg, CSRMatrix.from_dense(_taylor_expm(skew))))
    return [
        _record("01-car-suite", "canonical anticommutation relations, all mode pairs",
                0.0, car_dev, 0.0),
        _record("02-vacuum-annihilation", "every annihilator kills the vacuum",
                0.0, _worst((c @ vac).norm() for c, _ in ops), 0.0),
        _record("03-expm-taylor-oracle", "matrix exponential vs truncated Taylor oracle",
                0.0, dev, 1e-12),
        _record("04-expm-unitarity", "exp of skew-Hermitian input is unitary",
                0.0, operator_distance(e @ e.dagger(), identity_operator(small_reg)), 1e-11),
    ]


def _model_checks(rc: RunConfig, cfg0: model.SystemConfig, psi_un, dirs, u) -> list[CheckRecord]:
    """10-30: the geometry gates (the numbers `wp.standard_layout` gated the
    layout on), the unentangled model and the sign constraint."""
    exact, pointwise, integral = cfg0.layout.aperture_gate
    states = [psi_un] + [model.build_state(cfg0, model.FLIPPED_OCC[r]) for r in (1, 2, 3)]
    gram_dev = _worst(abs(si.overlap(sj) - (1.0 if i == j else 0.0))
                      for i, si in enumerate(states) for j, sj in enumerate(states))
    corr = _sweep(model.state_moments(cfg0, psi_un), u)[1]
    return [
        _record("10-wsw-gate", "pointwise products of distinct packets vanish",
                0.0, cfg0.layout.packet_product, rc.wsw_tol),
        _record("11-aperture-products", "aperture mutual exclusion and idempotence",
                0.0, 0.0 if exact else 1.0, 0.0),
        _record("12-aperture-pointwise", "apertures pass their packets through unchanged",
                0.0, pointwise, rc.aperture_tol),
        _record("13-aperture-integrals", "aperture-weighted packet norms are Kronecker deltas",
                0.0, integral, rc.aperture_tol),
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
        dhrep.removal_factor(w1, 1)))  # the factor V_un uses
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
    # conjugated once, for records 40 and 41 and the unentangled locality report
    conjugated = {spin: [dhrep.conjugate(t_un, m) for m in modes[spin]] for spin in modes}
    loc = _locality_payload(cfgp, t_un, t_en, rc, conjugated)
    # one call conjugates G_DH once for both spins' lists
    both = dhrep.first_order_entangled_conjugate(cfgp, t_un, conjugated["up"] + conjugated["down"])
    first = {"up": both[:len(modes["up"])], "down": both[len(modes["up"]):]}
    del both
    # one spin at a time, dropping its closed, first-order and conjugated lists
    # once its deviations and vacuum columns are taken; a section's vacuum
    # action is sum_k alpha_k(x) m_k|0>, so each m_k|0> is read once
    dev_un, dev_en, vacuum_columns = [], [], {}
    for spin in ("up", "down"):
        closed_un = dhrep.closed_form_modes(cfgp, spin, t_un)
        closed_en = dhrep.closed_form_modes(cfgp, spin, t_en)
        # ||section(a) - section(b)|| is the norm of the section of a - b
        dev_un.extend(dhrep.section_norms(cfgp, pts, [
            c - m for c, m in zip(closed_un, conjugated.pop(spin))]))
        dev_en.extend(dhrep.section_norms(cfgp, pts, [
            c - f for c, f in zip(closed_en, first.pop(spin))]))
        for flavor, images in (("un", closed_un), ("en", closed_en)):
            vacuum_columns[flavor, spin] = [dhrep.vacuum_action(m).amplitudes for m in images]
    columns = [vacuum_columns[flavor, spin] for flavor in ("un", "en") for spin in ("up", "down")]

    vac = cfgp.vacuum()
    s1, s2, s3 = (float(s) for s in t_un.signs)
    aux1, aux2, aux3 = ((cfgp.adag(j) @ vac).amplitudes for j in (1, 2, 3))
    kterm_up, kterm_down = ((cfgp.bdag(s, r) @ (cfgp.adag(1) @ (cfgp.adag(2) @ vac))).amplitudes
                            for s, r in (("down", 1), ("up", 2)))
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
    outside = {table: loc[table]["distance"][loc[table]["outside_support"]]
               for table in ("aux_unentangled", "aux_entangled")}
    en = loc["aux_entangled"]
    region2_up = en["distance"][(np.abs(en["point"] - cfgp.layout.centers[1]) < 1e-9)
                                & (np.array(en["spin"]) == "up")][0]
    noaux = loc["noaux_contrast"]
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
                     0.1, np.min(noaux["noaux_probe_operator_distance"])),
        _record("54-noaux-separation-invariance",
                "probe leakage of the bare construction ignores the separation",
                0.0, np.ptp(noaux["noaux_section_distance"]), rc.tol_exact),
        _record("55-aux-probe-distance",
                "auxiliary-partner construction leaves the probe untouched",
                0.0, _worst(noaux["aux_probe_operator_distance"]), rc.tol_exact),
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
    dirs = directions(rc)
    u = _unit_vectors(dirs)
    cfg0 = _config(rc)
    psi_un = model.unentangled_state(cfg0)
    records = _timed(_algebra_checks, rc.seed) + _timed(_model_checks, rc, cfg0, psi_un, dirs, u)
    # the transforms exist only under s1*s2*s3 = -1
    if next(r for r in records if r.id == "30-sign-constraint").passed:
        t_uns = dhrep.unentangled_transforms(
            cfg0, ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)))
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
                      t_en: dhrep.DhTransform, rc: RunConfig,
                      conjugated: dict | None = None) -> dict[str, dict]:
    """Per-point section distances for the auxiliary construction alongside
    the no-auxiliary contrast, as the columns of each report.  `conjugated`
    holds the section modes conjugated by t_un, when the caller has them."""
    return {
        "aux_unentangled": dhrep.locality_report(cfg, t_un, tol=rc.tol_exact,
                                                 conjugated=conjugated),
        "aux_entangled": dhrep.locality_report(cfg, t_en, tol=rc.tol_exact),
        "noaux_contrast": dhrep.noaux_locality_report(rc.separations, rc.packet_width),
    }


def run_locality(rc: RunConfig) -> dict[str, Table]:
    """The locality payload for the probe geometry at the largest kappa: each
    report as a Table."""
    cfg0 = _config(rc, (rc.probe_point,))
    t_un = dhrep.build_unentangled_transform(cfg0)
    cfg, t_en = _entangled(cfg0, t_un, max(rc.kappas))
    payload = _locality_payload(cfg, t_un, t_en, rc)
    return {name: Table(columns) for name, columns in payload.items()}


def run_qubit(rc: RunConfig) -> Table:
    """Exact vs second-order qubit expectations/correlations over the kappa
    list: per kappa, the expectation rows over product((1, 2, 3), directions),
    then the correlation rows over product(PAIRS, directions, directions)."""
    names = ("x3", "x1", "x2")
    dirs = [SpinDirection.x3(), SpinDirection.x1(), SpinDirection.x2()]
    u = _unit_vectors(dirs)
    kappas = _with_zero(rc.kappas)
    items = ([f"expectation_q{q}_{a}" for q, a in itertools.product((1, 2, 3), names)]
             + [f"correlation_q{qa}{qb}_{a}_{b}"
                for (qa, qb), a, b in itertools.product(PAIRS, names, names)])
    exact, second, closed = [], [], []
    for kappa in kappas:
        (exp_exact, corr_exact), (exp_second, corr_second) = (
            _sweep(qubits.pauli_moments(s), u) for s in _qubit_states(kappa)[1:])
        exact += [exp_exact.T.ravel(), corr_exact.ravel()]
        second += [exp_second.T.ravel(), corr_second.ravel()]
        closed += [[qubits.expectation_closed_form(q, d, kappa)
                    for q, d in itertools.product((1, 2, 3), dirs)],
                   qubits.correlation_closed_grid(dirs, dirs, kappa).ravel()]
    exact, second, closed = (np.concatenate(c) for c in (exact, second, closed))
    return Table({
        "kappa": np.repeat(kappas, len(items)),
        "item": items * len(kappas),
        "exact": exact,
        "second_order": second,
        "closed_form": closed,
        "dev_exact_closed": np.abs(exact - closed),
        "dev_second_closed": np.abs(second - closed),
    })
