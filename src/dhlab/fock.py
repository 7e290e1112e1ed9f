r"""Exact Fock-space representation of a finite ordered set of fermionic modes.

A registry fixes an ordered list of mode labels.  Basis states of the
2**N-dimensional Fock space are encoded as integers n whose bit j stores the
occupation of registry mode j (the vacuum is index 0).  Annihilating mode j
carries the Jordan-Wigner parity string over all modes ordered before j:

    c_j |n>  = (-1)**popcount(n & ((1 << j) - 1)) * n_j * |n with bit j cleared>

With this convention every canonical anticommutation relation

    {c_i, c_j^dag} = delta_ij I,    {c_i, c_j} = {c_i^dag, c_j^dag} = 0

holds exactly: all matrices are integer-structured, so the identities close
in floating point with zero error.

Operators are thin immutable wrappers around scipy sparse arrays, states
around numpy vectors; both are bound to their registry and never mutated after
construction, so they may be shared freely between threads.  Exponentials are
actions (Al-Mohy & Higham): on a state, or on the identity columns when the
operator itself is wanted.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse

from .errors import RegistryError

DEFAULT_MODE_CAP = 12

SPIN_UP = "up"
SPIN_DOWN = "down"
SPINS = (SPIN_UP, SPIN_DOWN)
REGIONS = (1, 2, 3)


@dataclass(frozen=True)
class PhysicalMode:
    """One spin component of the physical field projected on one wavepacket."""

    spin: str
    region: int

    def __post_init__(self):
        if self.spin not in SPINS:
            raise RegistryError(f"spin must be one of {SPINS}, got {self.spin!r}")
        if self.region not in REGIONS:
            raise RegistryError(f"region must be one of {REGIONS}, got {self.region!r}")

    def __str__(self):
        return f"phys({self.spin},{self.region})"


@dataclass(frozen=True)
class AuxiliaryMode:
    """Single used mode of one auxiliary fermionic field species."""

    index: int

    def __post_init__(self):
        if self.index not in (1, 2, 3):
            raise RegistryError(f"auxiliary index must be 1..3, got {self.index!r}")

    def __str__(self):
        return f"aux({self.index})"


@dataclass(frozen=True)
class ProbeMode:
    """Mode orthogonal to all wavepackets, used to detect operator-support leakage."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise RegistryError(f"probe index must be >= 1, got {self.index!r}")

    def __str__(self):
        return f"probe({self.index})"


ModeLabel = PhysicalMode | AuxiliaryMode | ProbeMode


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered, fixed set of fermionic modes generating the Fock space."""

    modes: tuple[ModeLabel, ...]

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise RegistryError("mode labels must be pairwise distinct")
        if len(self.modes) > DEFAULT_MODE_CAP:
            raise RegistryError(
                f"{len(self.modes)} modes exceed the cap of {DEFAULT_MODE_CAP}; "
                "matrices would leave desk scale"
            )
        if not self.modes:
            raise RegistryError("registry needs at least one mode")

    @property
    def size(self) -> int:
        return len(self.modes)

    @property
    def dimension(self) -> int:
        return 2 ** len(self.modes)

    def index(self, label: ModeLabel) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise RegistryError(f"label {label} not in registry") from None


def _check_same_registry(a, b):
    if a.registry != b.registry:
        raise RegistryError("operands are bound to different registries")


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Complex 2**N x 2**N matrix bound to a mode registry."""

    registry: ModeRegistry
    matrix: sparse.sparray

    def __post_init__(self):
        if not sparse.issparse(self.matrix):
            raise TypeError(f"operator matrix must be scipy-sparse, got {type(self.matrix)}")
        dim = self.registry.dimension
        if self.matrix.shape != (dim, dim):
            raise RegistryError(
                f"matrix shape {self.matrix.shape} does not match registry dimension {dim}"
            )

    def dagger(self) -> "FockOperator":
        return FockOperator(self.registry, sparse.csr_array(self.matrix.conj().T))

    def norm(self) -> float:
        """Frobenius norm of the matrix."""
        return float(np.linalg.norm(self.matrix.data))

    def max_abs(self) -> float:
        return float(np.abs(self.matrix.data).max(initial=0.0))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the dense matrix (sorted for Hermitian input)."""
        dense = self.matrix.toarray()
        if np.allclose(dense, dense.conj().T, atol=1e-12):
            return np.linalg.eigvalsh(dense)
        return np.sort_complex(np.linalg.eigvals(dense))

    def __add__(self, other: "FockOperator") -> "FockOperator":
        _check_same_registry(self, other)
        return FockOperator(self.registry, self.matrix + other.matrix)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        _check_same_registry(self, other)
        return FockOperator(self.registry, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "FockOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FockOperator(self.registry, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return self * (-1.0)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _check_same_registry(self, other)
            return FockOperator(self.registry, self.matrix @ other.matrix)
        if isinstance(other, FockState):
            _check_same_registry(self, other)
            return FockState(self.registry, self.matrix @ other.amplitudes)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class FockState:
    """Complex vector of dimension 2**N bound to a mode registry."""

    registry: ModeRegistry
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.registry.dimension,):
            raise RegistryError(
                f"amplitude shape {amps.shape} does not match registry dimension "
                f"{self.registry.dimension}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-12

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockState(self.registry, self.amplitudes / n)

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other>."""
        _check_same_registry(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def distance(self, other: "FockState") -> float:
        _check_same_registry(self, other)
        return float(np.linalg.norm(self.amplitudes - other.amplitudes))

    def __add__(self, other: "FockState") -> "FockState":
        _check_same_registry(self, other)
        return FockState(self.registry, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "FockState") -> "FockState":
        _check_same_registry(self, other)
        return FockState(self.registry, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar) -> "FockState":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FockState(self.registry, self.amplitudes * scalar)

    __rmul__ = __mul__


@cache
def _annihilator_matrix(nmodes: int, position: int) -> sparse.csr_array:
    """Jordan-Wigner annihilator for the mode at `position`, as a sparse matrix.

    Depends only on the position within the registry order, so one cache
    serves every registry of the same size.
    """
    dim = 1 << nmodes
    n = np.arange(dim, dtype=np.int64)
    occupied = n[(n >> position) & 1 == 1]
    parity = np.bitwise_count(occupied & ((1 << position) - 1)).astype(np.int64) & 1
    data = (1.0 - 2.0 * parity).astype(complex)
    rows = occupied ^ (1 << position)
    mat = sparse.csr_array((data, (rows, occupied)), shape=(dim, dim))
    mat.eliminate_zeros()
    return mat


def mode_operator(registry: ModeRegistry, label: ModeLabel, dagger: bool = False) -> FockOperator:
    """Annihilator (or creator, if `dagger`) for one registry mode.

    The sign convention is fixed: the operator acts on bit j with the parity
    string over all modes ordered before j, so every anticommutation identity
    holds exactly.
    """
    position = registry.index(label)
    mat = _annihilator_matrix(registry.size, position)
    if dagger:
        mat = sparse.csr_array(mat.conj().T)
    return FockOperator(registry, mat)


def identity_operator(registry: ModeRegistry) -> FockOperator:
    return FockOperator(
        registry, sparse.eye_array(registry.dimension, dtype=complex, format="csr")
    )


def zero_operator(registry: ModeRegistry) -> FockOperator:
    dim = registry.dimension
    return FockOperator(registry, sparse.csr_array((dim, dim), dtype=complex))


def vacuum_state(registry: ModeRegistry) -> FockState:
    """Unit vector on the all-modes-empty basis state."""
    amps = np.zeros(registry.dimension, dtype=complex)
    amps[0] = 1.0
    return FockState(registry, amps)


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def anticommutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b + b @ a


def _exponential_action(a: FockOperator, block: np.ndarray) -> np.ndarray:
    """exp(a) @ block by Al-Mohy & Higham's action algorithm (expm_multiply);
    exp(a) itself is never formed."""
    if not np.all(np.isfinite(a.matrix.data)):
        raise ValueError("operator entries must be finite")
    # Deferred: `import dhlab.cli` and `dhlab locality` never exponentiate.
    from scipy.sparse.linalg import expm_multiply
    # On wide blocks expm_multiply picks its step count through scipy's
    # randomized onenormest, which draws from numpy's global RandomState.
    state = np.random.get_state()
    try:
        return expm_multiply(a.matrix, block)
    finally:
        np.random.set_state(state)


def exponential_action(a: FockOperator, state: FockState) -> FockState:
    """exp(a)|state>, without forming exp(a)."""
    _check_same_registry(a, state)
    return FockState(a.registry, _exponential_action(a, state.amplitudes))


def matrix_exponential(a: FockOperator) -> FockOperator:
    """exp(a) as its action on the identity columns, stored sparse.  Unitary for
    skew-Hermitian a; the suite holds it to 1e-12 against a Taylor oracle."""
    identity = np.eye(a.registry.dimension, dtype=complex)
    return FockOperator(a.registry, sparse.csr_array(_exponential_action(a, identity)))


def expectation(state: FockState, op: FockOperator) -> complex:
    """Matrix element <psi|A|psi> for a normalized state."""
    _check_same_registry(state, op)
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (norm {state.norm()!r})")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def operator_distance(a: FockOperator, b: FockOperator) -> float:
    """Frobenius-norm distance ||a - b|| between two operators.

    The Frobenius norm is the documented choice; report it together with the
    registry dimension when comparing across registries.
    """
    _check_same_registry(a, b)
    return (a - b).norm()
