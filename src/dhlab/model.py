"""States and physical operators of the three-particle model, usual representation.

The system holds three identical spin-1/2 fermions in widely separated
regions: region 1 spin-up, regions 2 and 3 spin-down along the x3 axis.  All
operators act on the finite mode registry obtained by smearing the fields
against the region wavepackets (six physical modes), the auxiliary
wavefunctions (three auxiliary modes), and any probe packets.  An entangling
generator exchanges the spins of the particles in regions 1 and 2 with
dimensionless strength kappa.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import wavepackets as wp
from .errors import DuplicateOccupationError, PerturbativeRangeWarning
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    SPINS,
    AuxiliaryMode,
    CSRMatrix,
    FockOperator,
    FockState,
    ModeRegistry,
    PhysicalMode,
    ProbeMode,
    expectation,
    exponential_action,
    mode_operator,
    vacuum_state,
    vstack,
)

KAPPA_GUARD = 0.2
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SpinDirection:
    """Measurement direction (theta, phi) with unit vector
    (sin t cos p, sin t sin p, cos t)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")

    @functools.cached_property
    def unit_vector(self) -> np.ndarray:
        """Computed once per direction, and read-only since it is shared."""
        st, ct = math.sin(self.theta), math.cos(self.theta)
        u = np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])
        u.flags.writeable = False
        return u

    @property
    def u3(self) -> float:
        return math.cos(self.theta)

    @classmethod
    def x1(cls) -> "SpinDirection":
        return cls(math.pi / 2.0, 0.0)

    @classmethod
    def x2(cls) -> "SpinDirection":
        return cls(math.pi / 2.0, math.pi / 2.0)

    @classmethod
    def x3(cls) -> "SpinDirection":
        return cls(0.0, 0.0)


def standard_registry(n_probe_points: int = 0) -> ModeRegistry:
    """Registry in the fixed convention order: physical (up/down per region),
    auxiliary 1..3, then one probe mode per (point, spin) pair."""
    modes: list = []
    for region in (1, 2, 3):
        modes.append(PhysicalMode(SPIN_UP, region))
        modes.append(PhysicalMode(SPIN_DOWN, region))
    for j in (1, 2, 3):
        modes.append(AuxiliaryMode(j))
    for k in range(2 * n_probe_points):
        modes.append(ProbeMode(k + 1))
    return ModeRegistry(tuple(modes))


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Geometry, registry, entanglement strength and factor signs for one run."""

    layout: wp.PacketLayout
    registry: ModeRegistry
    kappa: float = 0.0
    signs: tuple[int, int, int] = (1, 1, -1)

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")

    def annihilator(self, label) -> FockOperator:
        return mode_operator(self.registry, label)

    def creator(self, label) -> FockOperator:
        return mode_operator(self.registry, label, dagger=True)

    def b(self, spin: str, region: int) -> FockOperator:
        return self.annihilator(PhysicalMode(spin, region))

    def bdag(self, spin: str, region: int) -> FockOperator:
        return self.creator(PhysicalMode(spin, region))

    def a(self, index: int) -> FockOperator:
        return self.annihilator(AuxiliaryMode(index))

    def adag(self, index: int) -> FockOperator:
        return self.creator(AuxiliaryMode(index))

    def probe_mode(self, point_index: int, spin: str) -> ProbeMode:
        return ProbeMode(2 * point_index + (0 if spin == SPIN_UP else 1) + 1)

    def vacuum(self) -> FockState:
        return vacuum_state(self.registry)


def standard_config(
    kappa: float = 0.0,
    signs: tuple[int, int, int] = (1, 1, -1),
    probe_points: tuple[float, ...] = (),
    layout: wp.PacketLayout | None = None,
) -> SystemConfig:
    """Default three-region system.

    Without a layout, `wp.standard_layout` builds (and gates) the default
    geometry with the requested probe points.
    """
    if layout is None:
        layout = wp.standard_layout(probe_points=probe_points)
    registry = standard_registry(len(layout.probe_points))
    return SystemConfig(layout, registry, kappa, signs)


@dataclass(frozen=True)
class OccupationDescriptor:
    """Physical (spin, region) occupations plus auxiliary indices, in creator order."""

    physical: tuple[tuple[str, int], ...]
    auxiliary: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.physical)) != len(self.physical):
            raise DuplicateOccupationError(
                f"duplicate physical occupation in {self.physical}"
            )
        if len(set(self.auxiliary)) != len(self.auxiliary):
            raise DuplicateOccupationError(
                f"duplicate auxiliary occupation in {self.auxiliary}"
            )
        for spin, region in self.physical:
            PhysicalMode(spin, region)
        for j in self.auxiliary:
            AuxiliaryMode(j)


UNENTANGLED_OCC = OccupationDescriptor(
    ((SPIN_UP, 1), (SPIN_DOWN, 2), (SPIN_DOWN, 3)), (1, 2, 3)
)
# Spin in regions 1 and 2 exchanged: the target of the entangling generator.
EXCHANGED_OCC = OccupationDescriptor(
    ((SPIN_DOWN, 1), (SPIN_UP, 2), (SPIN_DOWN, 3)), (1, 2, 3)
)
FLIPPED_OCC = {
    1: OccupationDescriptor(((SPIN_DOWN, 1), (SPIN_DOWN, 2), (SPIN_DOWN, 3)), (1, 2, 3)),
    2: OccupationDescriptor(((SPIN_UP, 1), (SPIN_UP, 2), (SPIN_DOWN, 3)), (1, 2, 3)),
    3: OccupationDescriptor(((SPIN_UP, 1), (SPIN_DOWN, 2), (SPIN_UP, 3)), (1, 2, 3)),
}
# Intermediate states reached while removing particles region by region.
REGIONS_23_OCC = OccupationDescriptor(((SPIN_DOWN, 2), (SPIN_DOWN, 3)), (2, 3))
REGION_3_OCC = OccupationDescriptor(((SPIN_DOWN, 3),), (3,))


def build_state(cfg: SystemConfig, desc: OccupationDescriptor) -> FockState:
    """Ordered product of creators on the vacuum; the sign follows from the
    registry ordering and the descriptor's creator order."""
    labels = [PhysicalMode(spin, region) for spin, region in desc.physical]
    labels += [AuxiliaryMode(j) for j in desc.auxiliary]
    state = vacuum_state(cfg.registry)
    for label in reversed(labels):
        state = cfg.creator(label) @ state
    return state


def unentangled_state(cfg: SystemConfig) -> FockState:
    return build_state(cfg, UNENTANGLED_OCC)


def exchanged_state(cfg: SystemConfig) -> FockState:
    return build_state(cfg, EXCHANGED_OCC)


def localized_spin_operator(cfg: SystemConfig, region: int, direction: SpinDirection) -> FockOperator:
    """Spin along `direction` measured through the aperture of one region,
    reduced to mode form:

        cos t (n_up - n_down)
        + sin t (e^{+i p} bdag_down b_up + e^{-i p} bdag_up b_down)
    """
    t, p = direction.theta, direction.phi
    up, dn = cfg.b(SPIN_UP, region), cfg.b(SPIN_DOWN, region)
    updag, dndag = cfg.bdag(SPIN_UP, region), cfg.bdag(SPIN_DOWN, region)
    op = math.cos(t) * (updag @ up - dndag @ dn)
    op = op + math.sin(t) * (
        cmath.exp(1j * p) * (dndag @ up) + cmath.exp(-1j * p) * (updag @ dn)
    )
    return op


def spin_components(cfg: SystemConfig, region: int) -> tuple[FockOperator, ...]:
    """(Sx, Sy, Sz) of one region, so that localized_spin_operator is u . (Sx, Sy, Sz):
    X = bdag_down b_up, Sx = X + X^dag, Sy = i (X - X^dag), Sz = n_up - n_down."""
    return _region_spins(cfg.registry, region)


def _region_spins(registry: ModeRegistry, region: int) -> tuple[FockOperator, ...]:
    up, dn, updag, dndag = (mode_operator(registry, PhysicalMode(s, region), d)
                            for d in (False, True) for s in SPINS)
    x, xdag = dndag @ up, updag @ dn
    return x + xdag, 1j * (x - xdag), updag @ up - dndag @ dn


@functools.cache
def _spin_stack(registry: ModeRegistry) -> CSRMatrix:
    """The (Sx, Sy, Sz) of regions 1, 2, 3 stacked row-wise: (9 dim x dim)."""
    return vstack([s.matrix for r in (1, 2, 3) for s in _region_spins(registry, r)])


def spin_stacks(cfg: SystemConfig, ket: FockState) -> list[np.ndarray]:
    """Per region 1, 2, 3 the dim x 3 array [Sx ket, Sy ket, Sz ket], from one product."""
    return list((_spin_stack(cfg.registry) @ ket.amplitudes).reshape(3, 3, -1).transpose(0, 2, 1))


def spin_moments(bra: np.ndarray, stacks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments m[r] = bra^H A_r (3,) and C[a, b] = A_a^H A_b (3, 3) from
    per-region stacks A_r = [S_r^i phi].  With bra = phi = psi these are
    <psi|S_r^i|psi> and <psi|S_a^i S_b^j|psi>, so an expectation is u . m[r]
    and a pair correlation u_a^T C[a, b] u_b.  m and the distinct-pair blocks
    must be real within 1e-10; same-region products are not Hermitian, so
    C[a, a] keeps only its real (symmetrized) part, unchecked.
    """
    n = len(stacks)
    a = np.concatenate(stacks, axis=1)
    m = (bra.conj() @ a).reshape(n, 3)
    c = (a.conj().T @ a).reshape(n, 3, n, 3).transpose(0, 2, 1, 3)
    # one numpy max, so a NaN anywhere is the result and fails the guard
    imag = np.abs(np.concatenate((m.imag.ravel(), c[~np.eye(n, dtype=bool)].imag.ravel()))).max()
    if not imag <= IMAG_TOL:
        raise ArithmeticError(f"spin moments have imaginary part {imag}")
    return m.real, c.real


def state_moments(cfg: SystemConfig, state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments (m, C) of a normalized state in the usual representation."""
    return spin_moments(state.amplitudes, spin_stacks(cfg, state))


def rotated_creator(
    cfg: SystemConfig, region: int, spin_along_u: str, direction: SpinDirection
) -> FockOperator:
    """Creator for a quantum polarized along `direction` in one region."""
    t2, p2 = direction.theta / 2.0, direction.phi / 2.0
    updag, dndag = cfg.bdag(SPIN_UP, region), cfg.bdag(SPIN_DOWN, region)
    if spin_along_u == SPIN_UP:
        return cmath.exp(-1j * p2) * math.cos(t2) * updag + cmath.exp(1j * p2) * math.sin(t2) * dndag
    if spin_along_u == SPIN_DOWN:
        return -cmath.exp(-1j * p2) * math.sin(t2) * updag + cmath.exp(1j * p2) * math.cos(t2) * dndag
    raise ValueError(f"spin_along_u must be one of {SPINS}")


def entangling_generator(cfg: SystemConfig) -> FockOperator:
    """Dimensionless spin-exchange generator between regions 1 and 2:

        G = -i kappa (bdag_down1 bdag_up2 b_down2 b_up1
                      - bdag_up1 bdag_down2 b_up2 b_down1)

    G is Hermitian; exp(-iG) is the exact entangling evolution.
    """
    return (-1j * cfg.kappa) * _exchange_operator(cfg.registry)


@functools.cache
def _exchange_operator(registry: ModeRegistry) -> FockOperator:
    """The kappa-free t1 - t2 of entangling_generator, built once per registry."""
    b, bdag = ({(s, r): mode_operator(registry, PhysicalMode(s, r), d)
                for s in SPINS for r in (1, 2)} for d in (False, True))
    t1 = bdag[SPIN_DOWN, 1] @ bdag[SPIN_UP, 2] @ b[SPIN_DOWN, 2] @ b[SPIN_UP, 1]
    return t1 - bdag[SPIN_UP, 1] @ bdag[SPIN_DOWN, 2] @ b[SPIN_UP, 2] @ b[SPIN_DOWN, 1]


def evolve(cfg: SystemConfig, state: FockState, order: str = "exact") -> FockState:
    """Entangling evolution of a normalized state.

    order="first" returns the unnormalized first-order state
    |psi> - i G |psi| (expectation helpers normalize internally);
    order="exact" applies exp(-iG) through the generic exponential action.
    """
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("evolve expects a normalized input state")
    g = entangling_generator(cfg)
    if order == "first":
        if cfg.kappa > KAPPA_GUARD:
            warnings.warn(
                f"kappa={cfg.kappa} exceeds the perturbative guard {KAPPA_GUARD}; "
                "first-order results are unreliable",
                PerturbativeRangeWarning,
                stacklevel=2,
            )
        return state - 1j * (g @ state)
    if order == "exact":
        return exponential_action(-1j * g, state)
    raise ValueError("order must be 'first' or 'exact'")


def spin_expectation(
    cfg: SystemConfig, state: FockState, region: int, direction: SpinDirection
) -> float:
    """<S> in the given (internally normalized) state; real within 1e-10."""
    val = expectation(state.normalized(), localized_spin_operator(cfg, region, direction))
    if abs(val.imag) > IMAG_TOL:
        raise ArithmeticError(f"spin expectation has imaginary part {val.imag}")
    return val.real


def spin_correlation(
    cfg: SystemConfig,
    state: FockState,
    region_a: int,
    dir_a: SpinDirection,
    region_b: int,
    dir_b: SpinDirection,
) -> float:
    """<S_a S_b> for spins in two distinct regions."""
    if region_a == region_b:
        raise ValueError("spin correlation needs two distinct regions")
    psi = state.normalized()
    sa = localized_spin_operator(cfg, region_a, dir_a)
    sb = localized_spin_operator(cfg, region_b, dir_b)
    # Both operators are Hermitian: <psi|Sa Sb|psi> = <Sa psi, Sb psi>.
    val = complex(np.vdot((sa @ psi).amplitudes, (sb @ psi).amplitudes))
    if abs(val.imag) > IMAG_TOL:
        raise ArithmeticError(f"spin correlation has imaginary part {val.imag}")
    return val.real


def entanglement_overlaps(cfg: SystemConfig, state: FockState) -> tuple[complex, complex, float]:
    """Overlaps (c_un, c_ex) of a state with the unentangled and exchanged kets
    plus the norm of the residual outside their span.  The state is entangled
    in the region-1/region-2 spin sector iff both overlaps are nonzero and the
    residual vanishes."""
    psi = state.normalized()
    un = unentangled_state(cfg)
    ex = exchanged_state(cfg)
    c0 = un.overlap(psi)
    c1 = ex.overlap(psi)
    residual = psi - c0 * un - c1 * ex
    return c0, c1, residual.norm()


def is_entangled(cfg: SystemConfig, state: FockState, tol: float = 1e-12) -> bool:
    c0, c1, residual = entanglement_overlaps(cfg, state)
    return abs(c0 * c1) > tol and residual <= math.sqrt(tol)


# the order of every pair axis: the sweeps' correlation grids and the closed forms
PAIRS = ((1, 2), (2, 3), (3, 1))


def pair_index(a: int, b: int, what: str = "regions") -> int:
    """The position of the unordered pair {a, b} in PAIRS."""
    pair = {a, b}
    for i, known in enumerate(PAIRS):
        if pair == set(known):
            return i
    raise ValueError(f"{what} must be two distinct members of (1, 2, 3), got {pair}")


def unit_products(dirs_a, dirs_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u_a3 (n,), u_b3 (m,) and every dot u_a . u_b (n x m) of two direction
    lists.  The stacks are two arrays, (n x 3) and (3 x m), so numpy's matmul
    runs gemm, which on OpenBLAS sums like one pair's ua @ ub.  One stack
    times its own transpose would go to syrk, whose sums can differ by an ulp."""
    ua = np.array([d.unit_vector for d in dirs_a])
    ub = np.stack([d.unit_vector for d in dirs_b], axis=1)
    return ua[:, 2], ub[2], ua @ ub


def correlation_closed_grid(dirs_a, dirs_b, kappa: float = 0.0) -> np.ndarray:
    """First-order closed forms of the pairwise spin correlations over two
    direction lists (n and m long), as the (PAIRS, n, m) grid.

    Unentangled (kappa=0): -u_a3 u_b3 for (1,2), +u_a3 u_b3 for (2,3),
    -u_a3 u_b3 for (3,1).  The entangling coupling modifies only the (1,2)
    pair at first order: -(1-2k) u_a3 u_b3 - 2k u_a.u_b.
    """
    ua3, ub3, dots = unit_products(dirs_a, dirs_b)
    return np.array([
        (-(1.0 - 2.0 * kappa) * ua3)[:, None] * ub3 - 2.0 * kappa * dots,
        ua3[:, None] * ub3,
        (-ua3)[:, None] * ub3,
    ])


def correlation_closed_form(
    region_a: int,
    region_b: int,
    dir_a: SpinDirection,
    dir_b: SpinDirection,
    kappa: float = 0.0,
) -> float:
    """correlation_closed_grid at one pair of regions and one pair of directions."""
    pair = pair_index(region_a, region_b)
    return float(correlation_closed_grid([dir_a], [dir_b], kappa)[pair, 0, 0])
