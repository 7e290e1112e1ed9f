"""Deutsch-Hayden transformations and the effective-locality diagnostics.

The standardizing unitary V maps the physical state to the information-free
vacuum; physical information then lives entirely in the conjugated operators
V A V^dag.  V is assembled from three removal factors exp(theta_i W_i), one
per region, where each skew-Hermitian generator

    W = g (a b - bdag adag)

swaps the physical quantum of one region into its auxiliary partner.  On the
relevant subspace W^3 = -g^2 W, so the factor exponentials have the exact
rotation closed form; the generic matrix exponential is kept as the
validation path.  Choosing cos(theta_i g_i) = 0 makes each factor act with a
pure sign s_i = sin(theta_i g_i) = +-1, and the product standardizes the
three-particle state exactly when s1 s2 s3 = -1.

The entangled transform is the two-step composition V_en = V_un exp(+iG)
with G the dimensionless spin-exchange generator; it standardizes the
exactly evolved entangled state.

Field sections realize point-evaluated field operators inside the registry
span: per point x and spin, the usual section is sum_r psi_r(x) b_{s,r} plus
probe terms, and the Deutsch-Hayden sections add the closed-form correction
terms.  Locality reports compare conjugated sections against usual sections
point by point; the no-auxiliary construction is provided for contrast (its
probe-mode support leakage is separation-independent).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import wavepackets as wp
from .errors import SignConstraintError
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    SPINS,
    AuxiliaryMode,
    FockOperator,
    FockState,
    ModeRegistry,
    PhysicalMode,
    ProbeMode,
    expectation,
    identity_operator,
    mode_operator,
    operator_distance,
    vacuum_state,
)
from .model import (
    IMAG_TOL,
    SpinDirection,
    SystemConfig,
    entangling_generator,
    localized_spin_operator,
    spin_moments,
    spin_stacks,
)

UNITARITY_TOL = 1e-10

USUAL = "usual"
DH_UNENTANGLED_CLOSED_FORM = "dh_unentangled_closed_form"
DH_ENTANGLED_CLOSED_FORM = "dh_entangled_closed_form"
CONJUGATED = "conjugated"


@dataclass(frozen=True)
class DhFactorParams:
    """Parameters (g, theta) of one removal factor, pinned to a pure sign:
    cos(theta*g) = 0 and s = sin(theta*g) = +-1."""

    g: float
    theta: float

    def __post_init__(self):
        if abs(math.cos(self.theta * self.g)) > 1e-12:
            raise ValueError(
                f"cos(theta*g) = {math.cos(self.theta * self.g)} must vanish"
            )

    @property
    def sign(self) -> int:
        s = math.sin(self.theta * self.g)
        if abs(abs(s) - 1.0) > 1e-12:
            raise ValueError(f"sin(theta*g) = {s} is not a pure sign")
        return 1 if s > 0 else -1

    @classmethod
    def from_sign(cls, sign: int, g: float = 1.0) -> "DhFactorParams":
        """Minimal branch: theta = sign * pi/(2 g)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(g=g, theta=sign * math.pi / (2.0 * g))


@dataclass(frozen=True, eq=False)
class DhTransform:
    """Unitary standardizing transform with its factor metadata."""

    operator: FockOperator
    factors: tuple[DhFactorParams, ...]
    kappa: float | None = None
    base: "DhTransform | None" = None

    def __post_init__(self):
        v = self.operator
        dev = operator_distance(v @ v.dagger(), identity_operator(v.registry))
        if dev > UNITARITY_TOL:
            raise ValueError(f"transform is not unitary: ||V Vdag - I|| = {dev}")

    @property
    def registry(self) -> ModeRegistry:
        return self.operator.registry

    @property
    def flavor(self) -> str:
        return "unentangled" if self.kappa is None else "entangled"

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(f.sign for f in self.factors)


def removal_generator(
    cfg: SystemConfig, spin: str, region: int, aux_index: int, g: float = 1.0
) -> FockOperator:
    """Skew-Hermitian generator g (a_j b_{s,r} - bdag_{s,r} adag_j) that swaps
    one region's physical quantum into its auxiliary partner."""
    b = cfg.b(spin, region)
    a = cfg.a(aux_index)
    return g * (a @ b - b.dagger() @ a.dagger())


def rotation_exponential(w: FockOperator, theta: float, g: float) -> FockOperator:
    """exp(theta*w) for a generator with w^3 = -g^2 w (exact closed form):

        exp(theta w) = I + sin(theta g)/g * w + (1 - cos(theta g))/g^2 * w @ w

    Validated against the generic matrix exponential in the test suite.
    """
    ident = identity_operator(w.registry)
    s = math.sin(theta * g) / g
    c = (1.0 - math.cos(theta * g)) / (g * g)
    return ident + s * w + c * (w @ w)


def entangler_exponential(cfg: SystemConfig, sign: int = 1) -> FockOperator:
    """exp(sign * i * G) for the spin-exchange generator, using G^3 = kappa^2 G."""
    k = cfg.kappa
    if k == 0.0:
        return identity_operator(cfg.registry)
    g = entangling_generator(cfg)
    ident = identity_operator(cfg.registry)
    return ident + (sign * 1j * math.sin(k) / k) * g + ((math.cos(k) - 1.0) / (k * k)) * (g @ g)


_REMOVAL_SLOTS = ((SPIN_UP, 1, 1), (SPIN_DOWN, 2, 2), (SPIN_DOWN, 3, 3))


def build_unentangled_transform(
    cfg: SystemConfig,
    signs: tuple[int, int, int] | None = None,
    g: float = 1.0,
) -> DhTransform:
    """Standardizing transform V = V3 V2 V1 for the unentangled state.

    The sign assignment must satisfy s1*s2*s3 = -1, which makes
    V |psi_unentangled> = |0> exactly.
    """
    if signs is None:
        signs = cfg.signs
    if signs[0] * signs[1] * signs[2] != -1:
        raise SignConstraintError(
            f"sign assignment {signs} violates s1*s2*s3 = -1"
        )
    factors = tuple(DhFactorParams.from_sign(s, g) for s in signs)
    v = identity_operator(cfg.registry)
    for (spin, region, aux), factor in zip(_REMOVAL_SLOTS, factors):
        w = removal_generator(cfg, spin, region, aux, factor.g)
        v = rotation_exponential(w, factor.theta, factor.g) @ v
    return DhTransform(operator=v, factors=factors, kappa=None)


def build_entangled_transform(cfg: SystemConfig, base: DhTransform) -> DhTransform:
    """Two-step transform V_en = V_un exp(+iG); standardizes the exactly
    evolved entangled state."""
    if base.flavor != "unentangled":
        raise ValueError("base must be an unentangled transform")
    v = base.operator @ entangler_exponential(cfg, sign=+1)
    return DhTransform(operator=v, factors=base.factors, kappa=cfg.kappa, base=base)


def conjugate(transform: DhTransform, op: FockOperator) -> FockOperator:
    """Exact conjugation V A Vdag (spectrum preserving)."""
    v = transform.operator
    return v @ op @ v.dagger()


def first_order_entangled_conjugate(
    cfg: SystemConfig, base: DhTransform, op: FockOperator
) -> FockOperator:
    """First-order entangled conjugation A_DH + i [G_DH, A_DH] built on the
    unentangled transform (no series truncation beyond first order)."""
    op_dh = conjugate(base, op)
    g_dh = conjugate(base, entangling_generator(cfg))
    return op_dh + 1j * (g_dh @ op_dh - op_dh @ g_dh)


def vacuum_action(op: FockOperator) -> FockState:
    """A |0> for the operator's registry vacuum (possibly unnormalized)."""
    return op @ vacuum_state(op.registry)


@dataclass(frozen=True, eq=False)
class FieldSection:
    """Point-evaluated field operators, one per (point, spin)."""

    registry: ModeRegistry
    points: tuple[float, ...]
    provenance: str
    operators: tuple[tuple[FockOperator, FockOperator], ...]  # (up, down) per point

    def operator(self, point_index: int, spin: str) -> FockOperator:
        pair = self.operators[point_index]
        return pair[0] if spin == SPIN_UP else pair[1]


def _usual_section_operator(cfg: SystemConfig, x: float, spin: str) -> FockOperator:
    psi = cfg.layout.packet_values(x)
    op = None
    for r in (1, 2, 3):
        term = complex(psi[r - 1]) * cfg.b(spin, r)
        op = term if op is None else op + term
    chis = cfg.layout.probe_values(x)
    for j, chi in enumerate(chis):
        op = op + complex(chi) * cfg.annihilator(cfg.probe_mode(j, spin))
    return op


def _unentangled_correction(cfg: SystemConfig, x: float, spin: str, signs) -> FockOperator:
    psi = cfg.layout.packet_values(x)
    s1, s2, s3 = signs
    if spin == SPIN_UP:
        return complex(psi[0]) * (-cfg.b(SPIN_UP, 1) + s1 * cfg.adag(1))
    return complex(psi[1]) * (-cfg.b(SPIN_DOWN, 2) + s2 * cfg.adag(2)) + complex(
        psi[2]
    ) * (-cfg.b(SPIN_DOWN, 3) + s3 * cfg.adag(3))


def _entangled_correction(cfg: SystemConfig, x: float, spin: str, base: DhTransform) -> FockOperator:
    # Exchange-induced first-order terms; the trilinears are written in the
    # transformed fields, hence the conjugation by the unentangled transform.
    psi = cfg.layout.packet_values(x)
    if spin == SPIN_UP:
        raw = complex(psi[1]) * (
            cfg.bdag(SPIN_DOWN, 1) @ cfg.b(SPIN_DOWN, 2) @ cfg.b(SPIN_UP, 1)
        ) - complex(psi[0]) * (
            cfg.bdag(SPIN_DOWN, 2) @ cfg.b(SPIN_DOWN, 1) @ cfg.b(SPIN_UP, 2)
        )
    else:
        raw = complex(psi[0]) * (
            cfg.bdag(SPIN_UP, 2) @ cfg.b(SPIN_UP, 1) @ cfg.b(SPIN_DOWN, 2)
        ) - complex(psi[1]) * (
            cfg.bdag(SPIN_UP, 1) @ cfg.b(SPIN_UP, 2) @ cfg.b(SPIN_DOWN, 1)
        )
    return cfg.kappa * conjugate(base, raw)


def field_section(
    cfg: SystemConfig,
    representation: str,
    points: tuple[float, ...],
    transform: DhTransform | None = None,
) -> FieldSection:
    """Assemble per-point, per-spin operators in the requested representation.

    "usual": sum_r psi_r(x) b_{s,r} plus probe terms.
    "dh_unentangled_closed_form": usual plus the sign-weighted removal
        corrections (coefficients psi_r(x)).
    "dh_entangled_closed_form": unentangled closed form plus the
        kappa-weighted exchange corrections.
    "conjugated": V (usual section) Vdag for the given transform.
    """
    entries = []
    for x in points:
        pair = []
        for spin in SPINS:
            usual = _usual_section_operator(cfg, x, spin)
            if representation == USUAL:
                op = usual
            elif representation == DH_UNENTANGLED_CLOSED_FORM:
                if transform is None:
                    raise ValueError("closed-form sections need a transform for the signs")
                op = usual + _unentangled_correction(cfg, x, spin, transform.signs)
            elif representation == DH_ENTANGLED_CLOSED_FORM:
                if transform is None or transform.base is None:
                    raise ValueError("entangled closed form needs an entangled transform")
                op = (
                    usual
                    + _unentangled_correction(cfg, x, spin, transform.signs)
                    + _entangled_correction(cfg, x, spin, transform.base)
                )
            elif representation == CONJUGATED:
                if transform is None:
                    raise ValueError("conjugated sections need a transform")
                op = conjugate(transform, usual)
            else:
                raise ValueError(f"unknown representation {representation!r}")
            pair.append(op)
        entries.append((pair[0], pair[1]))
    return FieldSection(
        registry=cfg.registry,
        points=tuple(float(x) for x in points),
        provenance=representation,
        operators=tuple(entries),
    )


def dh_vacuum_spin(
    cfg: SystemConfig, transform: DhTransform, region: int, direction: SpinDirection
) -> float:
    """<0| V S Vdag |0> - the spin expectation read entirely from operators."""
    s_dh = conjugate(transform, localized_spin_operator(cfg, region, direction))
    val = expectation(vacuum_state(cfg.registry), s_dh)
    if abs(val.imag) > IMAG_TOL:
        raise ArithmeticError(f"vacuum spin expectation has imaginary part {val.imag}")
    return val.real


def dh_vacuum_correlation(
    cfg: SystemConfig,
    transform: DhTransform,
    region_a: int,
    dir_a: SpinDirection,
    region_b: int,
    dir_b: SpinDirection,
) -> float:
    """<0| S_a,DH S_b,DH |0> via three matrix-vector products per operator."""
    if region_a == region_b:
        raise ValueError("correlation needs two distinct regions")
    v = transform.operator
    vac = vacuum_state(cfg.registry)
    w = v.dagger() @ vac
    ua = v @ (localized_spin_operator(cfg, region_a, dir_a) @ w)
    ub = v @ (localized_spin_operator(cfg, region_b, dir_b) @ w)
    val = ua.overlap(ub)
    if abs(val.imag) > IMAG_TOL:
        raise ArithmeticError(f"vacuum correlation has imaginary part {val.imag}")
    return val.real


def dh_vacuum_moments(cfg: SystemConfig, transform: DhTransform) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments (m, C) read from the vacuum: bra <0|, stacks V [S_k w]
    with w = Vdag |0>; see model.spin_moments."""
    v = transform.operator
    vac = vacuum_state(cfg.registry)
    w = v.dagger() @ vac
    return spin_moments(vac.amplitudes, [v.matrix @ a for a in spin_stacks(cfg, w)])


@dataclass(frozen=True)
class LocalityRow:
    point: float
    spin: str
    representation: str
    distance: float
    packet_magnitudes: tuple[float, float, float]
    relevant_magnitude: float
    outside_support: bool
    local_ok: bool

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "spin": self.spin,
            "representation": self.representation,
            "distance": self.distance,
            "packet_magnitudes": list(self.packet_magnitudes),
            "relevant_magnitude": self.relevant_magnitude,
            "outside_support": self.outside_support,
            "local_ok": self.local_ok,
        }


@dataclass(frozen=True)
class LocalityReport:
    representation: str
    tol: float
    support_cut: float
    rows: tuple[LocalityRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.local_ok for r in self.rows)

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rows], indent=2)


def _relevant_packets(spin: str, flavor: str) -> tuple[int, ...]:
    # Packets whose quanta the spin-s field can touch: region 1 carries the
    # up quantum, regions 2 and 3 the down quanta; the exchange coupling adds
    # region 2 for spin up and region 1 for spin down.
    if flavor == "unentangled":
        return (1,) if spin == SPIN_UP else (2, 3)
    return (1, 2) if spin == SPIN_UP else (1, 2, 3)


def locality_report(
    cfg: SystemConfig,
    transform: DhTransform,
    points: tuple[float, ...] | None = None,
    tol: float = 1e-10,
    support_cut: float = 1e-12,
) -> LocalityReport:
    """Distance between conjugated and usual field sections, point by point.

    A row is flagged `local_ok` unless the point lies outside the supports of
    every wavepacket carrying the corresponding quanta (all relevant packet
    magnitudes <= support_cut) while the distance still exceeds tol.
    """
    if points is None:
        centers = cfg.layout.centers
        mids = tuple(
            0.5 * (centers[i] + centers[i + 1]) for i in range(len(centers) - 1)
        )
        points = centers + mids + cfg.layout.probe_points
    usual = field_section(cfg, USUAL, points)
    conj = field_section(cfg, CONJUGATED, points, transform)
    rows = []
    for i, x in enumerate(points):
        mags = tuple(float(abs(v)) for v in cfg.layout.packet_values(x))
        for spin in SPINS:
            dist = operator_distance(conj.operator(i, spin), usual.operator(i, spin))
            relevant = max(mags[r - 1] for r in _relevant_packets(spin, transform.flavor))
            outside = relevant <= support_cut
            rows.append(
                LocalityRow(
                    point=float(x),
                    spin=spin,
                    representation=transform.flavor,
                    distance=float(dist),
                    packet_magnitudes=mags,
                    relevant_magnitude=relevant,
                    outside_support=outside,
                    local_ok=(not outside) or dist <= tol,
                )
            )
    return LocalityReport(transform.flavor, tol, support_cut, tuple(rows))


# ---------------------------------------------------------------------------
# Single-particle construction without auxiliary fields (the contrast case).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SinglePacketConfig:
    """One packet plus one distant probe; optionally an auxiliary partner."""

    grid: wp.Grid
    packet: wp.GridFunction
    probe_point: float
    probe_function: wp.GridFunction
    registry: ModeRegistry
    with_auxiliary: bool

    @property
    def packet_mode(self) -> PhysicalMode:
        return PhysicalMode(SPIN_UP, 1)

    @property
    def probe_label(self) -> ProbeMode:
        return ProbeMode(1)

    def b(self) -> FockOperator:
        return mode_operator(self.registry, self.packet_mode)

    def probe(self) -> FockOperator:
        return mode_operator(self.registry, self.probe_label)


def single_packet_config(
    separation: float, width: float = 1.0, with_auxiliary: bool = False
) -> SinglePacketConfig:
    """Packet at the origin, probe packet `separation` widths away."""
    margin = 15.0 * width
    lo, hi = -margin, separation * width + margin
    n = max(16, int(round((hi - lo) / 0.05)) + 1)
    grid = wp.uniform_grid(lo, hi, n)
    packet = wp.gaussian_packet(0.0, width, grid)
    probe_point = separation * width
    probe = wp.orthogonalized(wp.gaussian_packet(probe_point, width, grid), (packet,))
    modes: tuple = (PhysicalMode(SPIN_UP, 1),)
    if with_auxiliary:
        modes += (AuxiliaryMode(1),)
    modes += (ProbeMode(1),)
    return SinglePacketConfig(
        grid=grid,
        packet=packet,
        probe_point=probe_point,
        probe_function=probe,
        registry=ModeRegistry(modes),
        with_auxiliary=with_auxiliary,
    )


def single_particle_state(cfg: SinglePacketConfig) -> FockState:
    """bdag |0> (times adag for the auxiliary-partner construction)."""
    state = vacuum_state(cfg.registry)
    if cfg.with_auxiliary:
        state = mode_operator(cfg.registry, AuxiliaryMode(1), dagger=True) @ state
    return cfg.b().dagger() @ state


def noaux_rotation(cfg: SinglePacketConfig, theta: float) -> FockOperator:
    """exp(theta W) for the bare removal generator W = b - bdag (no auxiliary
    field); for the auxiliary-partner config, W = a b - bdag adag instead."""
    b = cfg.b()
    if cfg.with_auxiliary:
        a = mode_operator(cfg.registry, AuxiliaryMode(1))
        w = a @ b - b.dagger() @ a.dagger()
    else:
        w = b - b.dagger()
    return rotation_exponential(w, theta, 1.0)


def noaux_transform(cfg: SinglePacketConfig, theta: float = math.pi / 2.0) -> DhTransform:
    """Standardizing transform exp(theta W) at cos(theta) = 0."""
    return DhTransform(
        operator=noaux_rotation(cfg, theta),
        factors=(DhFactorParams(g=1.0, theta=theta),),
        kappa=None,
    )


def _single_section(cfg: SinglePacketConfig, x: float) -> FockOperator:
    psi = cfg.packet.value_at(x)
    chi = cfg.probe_function.value_at(x)
    return psi * cfg.b() + chi * cfg.probe()


def noaux_locality_report(
    separations: tuple[float, ...] = (10.0, 20.0, 40.0), width: float = 1.0
) -> list[dict]:
    """Probe-support leakage of the no-auxiliary construction next to the
    auxiliary-partner construction on the same geometry, per separation."""
    rows = []
    for sep in separations:
        row: dict = {"separation": float(sep)}
        for with_aux, prefix in ((False, "noaux"), (True, "aux")):
            cfg = single_packet_config(sep, width, with_auxiliary=with_aux)
            v = noaux_transform(cfg)
            probe = cfg.probe()
            row[f"{prefix}_probe_operator_distance"] = operator_distance(
                conjugate(v, probe), probe
            )
            section = _single_section(cfg, cfg.probe_point)
            row[f"{prefix}_section_distance"] = operator_distance(
                conjugate(v, section), section
            )
        rows.append(row)
    return rows
