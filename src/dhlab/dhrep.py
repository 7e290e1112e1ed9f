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
three-particle state exactly when s1 s2 s3 = -1.  Every factor is pinned at
g = 1, where it is I + s W + W^2 exactly (removal_factor), so a transform is
its operator and its signs, and V_un is a signed permutation of the basis.

The entangled transform is the two-step composition V_en = V_un exp(+iG)
with G the dimensionless spin-exchange generator; it standardizes the
exactly evolved entangled state.

Field sections realize point-evaluated field operators inside the registry
span.  A section is linear in the per-point coefficients
alpha(x) = (psi_1..3(x), chi_j(x)): per point x and spin it is
sum_k alpha_k(x) m_k over a mode list.  The usual section takes the mode
basis m_k = b_{s,1..3}, probe_{s,j}; a Deutsch-Hayden section takes the
images of those modes, either in closed form or conjugated as V m_k V^dag.
Locality reports conjugate each mode once and read the distance between
conjugated and usual sections at every point from one gather of the moved
modes; the no-auxiliary construction is provided for contrast (its
probe-mode support leakage is separation-independent).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import wavepackets as wp
from .errors import LayoutError, SignConstraintError
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
# a packet magnitude at or below this counts as outside the packet's support
SUPPORT_CUT = 1e-12


@dataclass(frozen=True, eq=False)
class DhTransform:
    """Unitary standardizing transform with the signs of its removal factors."""

    operator: FockOperator
    signs: tuple[int, ...]
    base: "DhTransform | None" = None

    def __post_init__(self):
        v = self.operator
        dev = operator_distance(v @ self.adjoint, identity_operator(v.registry))
        if not dev <= UNITARITY_TOL:  # NaN fails too
            raise ValueError(f"transform is not unitary: ||V Vdag - I|| = {dev}")

    @cached_property
    def adjoint(self) -> FockOperator:
        """V^dag, built once per transform."""
        return self.operator.dagger()

    @property
    def registry(self) -> ModeRegistry:
        return self.operator.registry

    @property
    def flavor(self) -> str:
        return "unentangled" if self.base is None else "entangled"


def removal_generator(cfg: SystemConfig, spin: str, region: int, aux_index: int) -> FockOperator:
    """Skew-Hermitian generator a_j b_{s,r} - bdag_{s,r} adag_j (g = 1) that
    swaps one region's physical quantum into its auxiliary partner."""
    a, b = cfg.a(aux_index), cfg.b(spin, region)
    return a @ b - cfg.bdag(spin, region) @ cfg.adag(aux_index)


def rotation_exponential(w: FockOperator, theta: float, g: float) -> FockOperator:
    """exp(theta*w) for a generator with w^3 = -g^2 w (exact closed form):

        exp(theta w) = I + sin(theta g)/g * w + (1 - cos(theta g))/g^2 * w @ w

    Validated against the generic matrix exponential in the test suite.
    """
    ident = identity_operator(w.registry)
    s = math.sin(theta * g) / g
    c = (1.0 - math.cos(theta * g)) / (g * g)
    return ident + s * w + c * (w @ w)


def removal_factor(w: FockOperator, sign: int,
                   square: FockOperator | None = None) -> FockOperator:
    """exp(s (pi/2) w) for a removal generator at g = 1, so w^3 = -w: at the
    pinned angle the closed form is I + s w + w @ w, free of the
    cos(fl(pi/2)) residue.  A caller that holds w @ w passes it as `square`."""
    square = w @ w if square is None else square
    return identity_operator(w.registry) + sign * w + square


def entangler_exponential(cfg: SystemConfig) -> FockOperator:
    """exp(iG) for the spin-exchange generator: G^3 = kappa^2 G gives
    w^3 = -kappa^2 w for w = iG, so the rotation closed form applies."""
    if cfg.kappa == 0.0:
        return identity_operator(cfg.registry)
    return rotation_exponential(1j * entangling_generator(cfg), 1.0, cfg.kappa)


_REMOVAL_SLOTS = ((SPIN_UP, 1, 1), (SPIN_DOWN, 2, 2), (SPIN_DOWN, 3, 3))


def build_unentangled_transform(cfg: SystemConfig) -> DhTransform:
    """Standardizing transform V = V3 V2 V1 for the unentangled state, with
    the factor signs cfg.signs.

    The sign assignment must satisfy s1*s2*s3 = -1, which makes
    V |psi_unentangled> = |0> exactly.
    """
    signs = tuple(cfg.signs)
    return unentangled_transforms(cfg, (signs,))[signs]


def unentangled_transforms(
    cfg: SystemConfig, sign_choices: Sequence[tuple[int, int, int]]
) -> dict[tuple[int, int, int], DhTransform]:
    """build_unentangled_transform for each sign choice.  Every factor is
    pinned at g = 1 whatever its sign, so each slot's removal generator and
    its square are built once for all the choices."""
    for signs in sign_choices:
        if len(signs) != 3 or any(s not in (1, -1) for s in signs) or math.prod(signs) != -1:
            raise SignConstraintError(
                f"sign assignment {signs} must be three signs +-1 with s1*s2*s3 = -1")
    generators = [removal_generator(cfg, spin, region, aux) for spin, region, aux in _REMOVAL_SLOTS]
    squares = [w @ w for w in generators]
    transforms = {}
    for signs in sign_choices:
        v = identity_operator(cfg.registry)
        for sign, w, square in zip(signs, generators, squares):
            v = removal_factor(w, sign, square) @ v
        transforms[tuple(signs)] = DhTransform(operator=v, signs=tuple(signs))
    return transforms


def build_entangled_transform(cfg: SystemConfig, base: DhTransform) -> DhTransform:
    """Two-step transform V_en = V_un exp(+iG); standardizes the exactly
    evolved entangled state."""
    if base.flavor != "unentangled":
        raise ValueError("base must be an unentangled transform")
    v = base.operator @ entangler_exponential(cfg)
    return DhTransform(operator=v, signs=base.signs, base=base)


def conjugate(transform: DhTransform, op: FockOperator) -> FockOperator:
    """Exact conjugation V A Vdag (spectrum preserving)."""
    return transform.operator @ op @ transform.adjoint


def first_order_entangled_conjugate(
    cfg: SystemConfig, base: DhTransform, ops_dh: Sequence[FockOperator]
) -> list[FockOperator]:
    """First-order entangled conjugations A_DH + i [G_DH, A_DH] of the images
    ops_dh = [conjugate(base, op) for op in ops] under the unentangled
    transform (no series truncation beyond first order), with
    G_DH = V_un G V_un^dag built once for all of them."""
    g_dh = conjugate(base, entangling_generator(cfg))
    return [op_dh + 1j * (g_dh @ op_dh - op_dh @ g_dh) for op_dh in ops_dh]


def vacuum_action(op: FockOperator) -> FockState:
    """A |0> for the operator's registry vacuum (possibly unnormalized)."""
    return op @ vacuum_state(op.registry)


def section_modes(cfg: SystemConfig, spin: str) -> list[FockOperator]:
    """The usual mode basis of a spin-s section: b_{s,1..3}, then one probe
    mode per probe point (the order of the coefficients alpha(x))."""
    probes = [cfg.annihilator(cfg.probe_mode(j, spin))
              for j in range(len(cfg.layout.probe_points))]
    return [cfg.b(spin, r) for r in (1, 2, 3)] + probes


def closed_form_modes(
    cfg: SystemConfig, spin: str, transform: DhTransform
) -> list[FockOperator]:
    """Closed-form images of section_modes(cfg, spin) under the transform.

    The removed quantum's mode becomes s_r adag_r; every other mode is left
    alone.  For an entangled transform (one with a base) each packet slot r
    of regions 1 and 2 gains the first-order exchange term
    +-kappa V_un (bdag_{o,p} b_{o,r} b_{s,p}) V_un^dag, with p the partner
    region and o the other spin; the trilinears are written in the
    transformed fields, hence the conjugation by the unentangled transform.
    """
    modes = section_modes(cfg, spin)
    for (s, region, aux), sign in zip(_REMOVAL_SLOTS, transform.signs):
        if s == spin:
            modes[region - 1] = sign * cfg.adag(aux)
    if transform.base is not None:
        other = SPIN_DOWN if spin == SPIN_UP else SPIN_UP
        for region, partner in ((1, 2), (2, 1)):
            # + on (up, region 2) and (down, region 1), - on the other two
            sign = 1.0 if (spin == SPIN_UP) == (region == 2) else -1.0
            raw = cfg.bdag(other, partner) @ cfg.b(other, region) @ cfg.b(spin, partner)
            modes[region - 1] = modes[region - 1] + sign * cfg.kappa * conjugate(
                transform.base, raw)
    return modes


def section_coefficients(cfg: SystemConfig, x: float) -> np.ndarray:
    """alpha(x): the packet values psi_1..3(x), then the probe values chi_j(x)."""
    return np.concatenate([cfg.layout.packet_values(x), cfg.layout.probe_values(x)])


def field_section(cfg: SystemConfig, x: float, modes: Sequence[FockOperator]) -> FockOperator:
    """The section sum_k alpha_k(x) modes[k] at x.

    With section_modes this is the usual field operator at x; with
    closed_form_modes, or the conjugated modes [conjugate(t, m) for m in
    section_modes(cfg, spin)], it is the transformed one.
    """
    alpha = section_coefficients(cfg, x)
    op = complex(alpha[0]) * modes[0]
    for coeff, mode in zip(alpha[1:], modes[1:]):
        op = op + complex(coeff) * mode
    return op


def _union_gather(modes: Sequence[FockOperator]) -> np.ndarray:
    """The modes on their union sparsity pattern, keys row * dim + col in
    increasing order, as a dense (nnz x k) block; each mode stores a place
    once, so its keys are a sorted run and one stable argsort merges them."""
    mats = [m.matrix for m in modes]
    keys = np.concatenate([m.keys for m in mats])
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)  # where each distinct key first comes
    first[1:] = keys[1:] != keys[:-1]
    slots = np.empty_like(order)
    slots[order] = first.cumsum() - 1
    del keys, order  # freed before the block: a lower traced peak
    block = np.zeros((np.count_nonzero(first), len(mats)), dtype=complex)
    block[slots, np.repeat(np.arange(len(mats)), [m.nnz for m in mats])] = np.concatenate(
        [m.data for m in mats])
    return block


def section_norms(cfg: SystemConfig, points: Sequence[float],
                  modes: Sequence[FockOperator]) -> np.ndarray:
    """field_section(cfg, x, modes).norm() at each point, as ||D alpha(x)|| for
    D the union gather; one point at a time, so no (nnz x points) temporary."""
    block = _union_gather(modes)
    return np.array([np.linalg.norm(block @ section_coefficients(cfg, x)) for x in points])


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
    w = transform.adjoint @ vac
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
    w = transform.adjoint @ vac
    return spin_moments(vac.amplitudes, [v.matrix @ a for a in spin_stacks(cfg, w)])


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
    conjugated: dict[str, list[FockOperator]] | None = None,
) -> dict[str, np.ndarray | list]:
    """Distance between conjugated and usual field sections, as the columns of
    the table `dhlab locality` prints: one row per point and spin, points
    first.  `conjugated` maps a spin to [conjugate(transform, m) for m in
    section_modes(cfg, spin)], when the caller has already built them.

    A row is flagged `local_ok` unless the point lies outside the supports of
    every wavepacket carrying the corresponding quanta (all relevant packet
    magnitudes <= SUPPORT_CUT) while the distance still exceeds tol.
    """
    if points is None:
        centers = cfg.layout.centers
        mids = tuple(0.5 * (a + b) for a, b in zip(centers, centers[1:]))
        points = centers + mids + cfg.layout.probe_points
    # V u(x) V^dag - u(x) is linear in alpha(x): conjugate each mode once,
    # one spin at a time, so no spin's operators outlive its distances
    distance = np.empty((len(points), len(SPINS)))
    for j, s in enumerate(SPINS):
        modes = section_modes(cfg, s)
        images = (conjugated[s] if conjugated is not None
                  else [conjugate(transform, m) for m in modes])
        distance[:, j] = section_norms(cfg, points, [c - m for c, m in zip(images, modes)])
    mags = np.abs([cfg.layout.packet_values(x) for x in points])
    relevant = np.column_stack([mags[:, [r - 1 for r in _relevant_packets(s, transform.flavor)]]
                                .max(axis=1) for s in SPINS])
    distance, relevant = distance.ravel(), relevant.ravel()
    outside = relevant <= SUPPORT_CUT
    return {
        "point": np.repeat(np.asarray(points, dtype=float), len(SPINS)),
        "spin": list(SPINS) * len(points),
        "representation": [transform.flavor] * distance.size,
        "distance": distance,
        "packet_magnitudes": [m for m in mags.tolist() for _ in SPINS],
        "relevant_magnitude": relevant,
        "outside_support": outside.tolist(),
        "local_ok": (~outside | (distance <= tol)).tolist(),
    }


# the contrast's grid in packet widths; _NOAUX_ABOVE = _NOAUX_MARGIN / _NOAUX_SPACING steps
_NOAUX_MARGIN, _NOAUX_SPACING, _NOAUX_ABOVE = 15.0, 0.05, 300


def _noaux_probe_values(separation: float, width: float) -> tuple[complex, complex]:
    """psi, chi at the probe point: a packet at the origin and a probe packet
    orthogonalized against it, |separation| widths away (a reflection maps one
    sign onto the other).  The spacing puts the probe centre on a node; the
    step count comes first, so a huge separation meets the grid cap."""
    # np.round, not round: round(inf) raises, and an infinite count meets the cap
    to_probe = float(np.round((_NOAUX_MARGIN + abs(separation)) / _NOAUX_SPACING))
    d = abs(separation) * width
    h = (_NOAUX_MARGIN * width + d) / to_probe
    grid = wp.uniform_grid(-_NOAUX_MARGIN * width, d + _NOAUX_ABOVE * h,
                           to_probe + _NOAUX_ABOVE + 1)
    packet = wp.gaussian_packet(0.0, width, grid)
    try:
        probe = wp.orthogonalized(wp.gaussian_packet(d, width, grid), (packet,))
    except LayoutError as exc:
        raise LayoutError(f"separations: a probe packet {separation!r} widths from its "
                          f"packet lies in that packet's span") from exc
    return packet.value_at(d), probe.value_at(d)


def _noaux_transform(with_auxiliary: bool) -> DhTransform:
    """exp((pi/2) W) on the modes b, probe: the bare removal generator
    W = b - bdag, or W = a b - bdag adag with an auxiliary partner a."""
    aux = (AuxiliaryMode(1),) if with_auxiliary else ()
    registry = ModeRegistry((PhysicalMode(SPIN_UP, 1), *aux, ProbeMode(1)))
    b, bdag = (mode_operator(registry, PhysicalMode(SPIN_UP, 1), d) for d in (False, True))
    w = b - bdag
    if with_auxiliary:
        a, adag = (mode_operator(registry, AuxiliaryMode(1), d) for d in (False, True))
        w = a @ b - bdag @ adag
    return DhTransform(operator=removal_factor(w, 1), signs=(1,))


def noaux_locality_report(separations: tuple[float, ...], width: float) -> dict[str, np.ndarray]:
    """Probe-support leakage of the no-auxiliary construction next to the
    auxiliary-partner construction on the same geometry, as columns, a row per
    separation.  The moved operators V m V^dag - m (m = b, probe) ignore the
    separation, so each is built once; only psi, chi at the probe point change."""
    at_probe = [_noaux_probe_values(sep, width) for sep in separations]
    columns = {"separation": np.array(separations, dtype=float)}
    for prefix, with_auxiliary in (("noaux", False), ("aux", True)):
        v = _noaux_transform(with_auxiliary)
        d_b, d_probe = (conjugate(v, m) - m for m in (
            mode_operator(v.registry, PhysicalMode(SPIN_UP, 1)),
            mode_operator(v.registry, ProbeMode(1))))
        columns[f"{prefix}_probe_operator_distance"] = np.full(len(at_probe), d_probe.norm())
        columns[f"{prefix}_section_distance"] = np.array(
            [(psi * d_b + chi * d_probe).norm() for psi, chi in at_probe])
    return columns
