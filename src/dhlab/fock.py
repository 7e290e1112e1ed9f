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

Operators hold their matrix as its entries in row order on numpy arrays
(CSRMatrix), states a numpy vector; both are bound to their registry and never
mutated after construction, so they may be shared freely between threads.
The matrix type has the few operations dhlab needs: products, sums, scalar
multiples, adjoints, row stacks and leading rows, and its products and sums
add in the order scipy's do: their values are scipy's bit for bit, apart from
the sign of a zero.  Exponentials are taken of skew-Hermitian
operators only, one connected component of the sparsity graph at a time,
from the eigendecomposition (numpy's eigh) of the square of the component's
block.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import RegistryError

DEFAULT_MODE_CAP = 12
# Largest 1-norm fock exponentiates; the largest in use is 2 pi (the kappa cap).
MAX_EXPONENT_NORM = 1e3
# Largest |a + a^dag| entry, relative to the 1-norm, of an operator a taken as
# skew-Hermitian; every exponent in use is skew-Hermitian to the last bit.
SKEW_TOL = 1e-14

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


@dataclass(frozen=True, eq=False, init=False)
class CSRMatrix:
    """A complex matrix stored as its entries in row order, never mutated
    after construction.  Entry k holds data[k] at (rows[k], indices[k]);
    rows never decrease, and within a row each column comes once and in
    increasing order.  Products and sums drop the entries that come out
    exactly zero.  `indptr`, the start of each row's entries and the end of
    the last (row i is data[indptr[i]:indptr[i + 1]]), is derived from
    `rows` the first time it is read (_row_pointer) and then kept; of the
    matrix's own operations only a product reads it, of its right factor.
    A caller that holds a row pointer may pass it in place of `rows`, which
    is then filled from it.  `keys` is computed each time it is asked for.
    A matrix built from triples in key order may share the caller's arrays
    (from_triples), and a scalar multiple, first_rows and adjoint share
    their operand's."""

    rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __init__(self, indptr, indices, data, shape, rows=None):
        if rows is None:
            rows = np.arange(shape[0]).repeat(indptr[1:] - indptr[:-1])
        self.__dict__.update(rows=rows, indices=indices, data=data, shape=shape)
        if indptr is not None:
            self.__dict__["indptr"] = indptr  # fills the cached_property

    @property
    def nnz(self) -> int:
        return self.data.size

    # the stored values, as scipy counts a sparse array's size: bench/spans.py
    # reads getattr(matrix, "nnz", matrix.size), whose default is evaluated first
    size = nnz

    @cached_property
    def indptr(self) -> np.ndarray:
        """Where each row's entries start, and where the last row's end."""
        return _row_pointer(self.rows, self.shape[0])

    @property
    def keys(self) -> np.ndarray:
        """row * width + column of each stored entry, increasing."""
        return self.rows * self.shape[1] + self.indices

    @classmethod
    def from_triples(cls, rows, cols, vals, shape) -> "CSRMatrix":
        """The matrix of entries (rows[k], cols[k], vals[k]).  Entries at one
        place add up in the order given; exact zeros are dropped.  Triples
        whose keys (row * width + column) strictly increase are not sorted,
        and where no zero is dropped the matrix stores the caller's `rows`,
        `cols` and `vals` as its rows, indices and data.  No row pointer is
        built."""
        keys = rows * shape[1] + cols
        if not (keys[1:] > keys[:-1]).all():
            order = keys.argsort(kind="stable")
            keys, vals = keys[order], vals[order]
            starts = np.concatenate(([0], (keys[1:] != keys[:-1]).nonzero()[0] + 1))
            if starts.size < keys.size:
                keys, vals = keys[starts], _run_sums(vals, starts)
            rows = keys // shape[1]
            cols = keys - rows * shape[1]
        if not vals.all():  # a complex is true where it is != 0, NaN included
            kept = vals.nonzero()[0]
            rows, cols, vals = rows[kept], cols[kept], vals[kept]
        return cls(None, cols, vals, shape, rows)

    @classmethod
    def from_dense(cls, array) -> "CSRMatrix":
        """The nonzero entries of a 2-D array."""
        array = np.asarray(array, dtype=complex)
        rows, cols = np.nonzero(array)
        return cls.from_triples(rows, cols, array[rows, cols], array.shape)

    def first_rows(self, n: int) -> "CSRMatrix":
        """The first n rows, as views of this matrix's arrays."""
        end = self.rows.searchsorted(n)
        return CSRMatrix(None, self.indices[:end], self.data[:end], (n, self.shape[1]),
                         self.rows[:end])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.rows, self.indices] = self.data
        return out

    def adjoint(self) -> "CSRMatrix":
        """The conjugate transpose.  A stable sort by column keeps each new
        row's entries in the order of the old rows, so it comes out sorted,
        and the sorted columns are its rows."""
        order = self.indices.argsort(kind="stable")
        return CSRMatrix(None, self.rows[order], self.data[order].conj(), self.shape[::-1],
                         self.indices[order])

    def _with_data(self, data) -> "CSRMatrix":
        """This matrix's places holding `data`: it shares the rows, and the
        row pointer if one was built."""
        return CSRMatrix(self.__dict__.get("indptr"), self.indices, data, self.shape, self.rows)

    def __mul__(self, scalar) -> "CSRMatrix":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._with_data(self.data * scalar)

    __rmul__ = __mul__

    def __add__(self, other: "CSRMatrix") -> "CSRMatrix":
        """The sum, self's entry first where both store a place, exact zeros
        dropped.  The merged keys come out sorted, each place once and none
        of their values zero, so their rows and columns build the result
        directly, with no second pass over the keys."""
        # Both operands are sorted and store a place once, so the stable sort
        # merges two runs and a place comes at most twice, self's entry first.
        keys = np.concatenate((self.keys, other.keys))
        order = keys.argsort(kind="stable")
        keys, vals = keys[order], np.concatenate((self.data, other.data))[order]
        second = (keys[1:] == keys[:-1]).nonzero()[0] + 1
        vals[second - 1] += vals[second]
        vals[second] = 0
        kept = vals.nonzero()[0]  # before the division: most of a CAR-suite sum cancels
        keys = keys[kept]
        rows = keys // self.shape[1]
        return CSRMatrix(None, keys - rows * self.shape[1], vals[kept], self.shape, rows)

    def __neg__(self) -> "CSRMatrix":
        return self._with_data(-self.data)

    def __sub__(self, other: "CSRMatrix") -> "CSRMatrix":
        return self + (-other)  # x + (-y) rounds as x - y does

    def __matmul__(self, other):
        if isinstance(other, CSRMatrix):
            return _product(self, other)
        if isinstance(other, np.ndarray):
            return _apply(self, other)
        return NotImplemented


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """The int64 row pointer of n rows whose entries, in row order, sit in `rows`."""
    return np.concatenate(([0], np.bincount(rows, minlength=n).cumsum()))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, each part rounded after its two products, as
    (ar br - ai bi) + i (ar bi + ai br) in scipy's compiled loops: numpy's
    vector loops may fuse a multiply-add and round once less.  Where a factor
    is real, the cross products are exact zeros and numpy's product rounds
    the same."""
    if not (a.imag.any() and b.imag.any()):
        return a * b
    re = a.real * b.real
    re -= a.imag * b.imag
    im = a.real * b.imag
    im += a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _run_sums(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run vals[starts[k]:starts[k + 1]], added left to right."""
    lengths = np.concatenate((starts[1:], [vals.size])) - starts
    sums = vals[starts]
    for r in range(1, lengths.max()):
        sel = (lengths > r).nonzero()[0]
        sums[sel] += vals[starts[sel] + r]
    return sums


def _product(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """a @ b.  Row i's terms come in the order of row i of a, each a[i, j]
    times row j of b, and add up in that order, as in scipy's csr_matmat,
    which starts from 0 and so may turn a part's -0.0 into +0.0.  Only the
    entries of a whose row of b stores something make terms, expanded into
    b's rows only when one of those holds more than one entry (a mode
    operator or V_un holds at most one; expanding by lengths of 1 changes
    nothing).  It reads b's row pointer, which b then keeps, and builds none
    for the result."""
    starts = b.indptr[a.indices]
    lengths = b.indptr[a.indices + 1] - starts
    met = lengths.nonzero()[0]
    starts, lengths, rows, vals = starts[met], lengths[met], a.rows[met], a.data[met]
    if lengths.max(initial=0) > 1:
        ends = lengths.cumsum()
        starts = np.arange(ends[-1]) + (starts - ends + lengths).repeat(lengths)  # b's, in turn
        del ends  # freed before the products' arrays: a lower traced peak
        rows, vals = rows.repeat(lengths), vals.repeat(lengths)
    vals = _times(vals, b.data[starts])
    return CSRMatrix.from_triples(rows, b.indices[starts], vals, (a.shape[0], b.shape[1]))


def _apply(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """a @ x for a vector or a block of columns x.  Each output element adds
    its terms in a's row order, from 0, as scipy's csr_matvec(s) does:
    np.add.at applies its updates in index order, and a's entries are stored
    row by row.  A block goes through one flat np.add.at at row * k + column
    (k columns), which keeps that order and is about twice as fast as one
    into a 2-D output."""
    if x.ndim == 1:
        out = np.zeros(a.shape[0], dtype=complex)
        np.add.at(out, a.rows, _times(a.data, x[a.indices]))
        return out
    k = x.shape[1]
    out = np.zeros(a.shape[0] * k, dtype=complex)
    np.add.at(out, (a.rows[:, None] * k + np.arange(k)).ravel(),
              _times(a.data[:, None], x[a.indices]).ravel())
    return out.reshape(a.shape[0], k)


def vstack(blocks) -> CSRMatrix:
    """The matrices stacked row-wise, all of one width."""
    starts = np.cumsum([0] + [b.shape[0] for b in blocks])
    return CSRMatrix(None, np.concatenate([b.indices for b in blocks]),
                     np.concatenate([b.data for b in blocks]),
                     (int(starts[-1]), blocks[0].shape[1]),
                     np.concatenate([b.rows + start for b, start in zip(blocks, starts)]))


def _check_same_registry(a, b):
    if a.registry != b.registry:
        raise RegistryError("operands are bound to different registries")


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Complex 2**N x 2**N CSRMatrix bound to a mode registry."""

    registry: ModeRegistry
    matrix: CSRMatrix

    def __post_init__(self):
        if not isinstance(self.matrix, CSRMatrix):
            raise TypeError(f"operator matrix must be a CSRMatrix, got {type(self.matrix)}")
        dim = self.registry.dimension
        if self.matrix.shape != (dim, dim):
            raise RegistryError(
                f"matrix shape {self.matrix.shape} does not match registry dimension {dim}"
            )

    def dagger(self) -> "FockOperator":
        return FockOperator(self.registry, self.matrix.adjoint())

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
def _annihilator_matrix(nmodes: int, position: int) -> CSRMatrix:
    """Jordan-Wigner annihilator for the mode at `position`, as a sparse matrix.

    Depends only on the position within the registry order, so one cache
    serves every registry of the same size.
    """
    dim = 1 << nmodes
    n = np.arange(dim, dtype=np.int64)
    occupied = n[(n >> position) & 1 == 1]
    parity = np.bitwise_count(occupied & ((1 << position) - 1)).astype(np.int64) & 1
    data = (1.0 - 2.0 * parity).astype(complex)
    return CSRMatrix.from_triples(occupied ^ (1 << position), occupied, data, (dim, dim))


@cache
def _creator_matrix(nmodes: int, position: int) -> CSRMatrix:
    """Conjugate transpose of `_annihilator_matrix`, cached beside it."""
    return _annihilator_matrix(nmodes, position).adjoint()


def mode_operator(registry: ModeRegistry, label: ModeLabel, dagger: bool = False) -> FockOperator:
    """Annihilator (or creator, if `dagger`) for one registry mode.

    The sign convention is fixed: the operator acts on bit j with the parity
    string over all modes ordered before j, so every anticommutation identity
    holds exactly.
    """
    matrix = _creator_matrix if dagger else _annihilator_matrix
    return FockOperator(registry, matrix(registry.size, registry.index(label)))


def identity_operator(registry: ModeRegistry) -> FockOperator:
    dim = registry.dimension
    return FockOperator(registry, CSRMatrix(np.arange(dim + 1), np.arange(dim),
                                            np.ones(dim, dtype=complex), (dim, dim)))


def zero_operator(registry: ModeRegistry) -> FockOperator:
    dim = registry.dimension
    return FockOperator(registry, CSRMatrix(np.zeros(dim + 1, dtype=np.int64),
                                            np.zeros(0, dtype=np.int64),
                                            np.zeros(0, dtype=complex), (dim, dim)))


def vacuum_state(registry: ModeRegistry) -> FockState:
    """Unit vector on the all-modes-empty basis state."""
    amps = np.zeros(registry.dimension, dtype=complex)
    amps[0] = 1.0
    return FockState(registry, amps)


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def anticommutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b + b @ a


def _components(m: CSRMatrix) -> np.ndarray:
    """Each index's connected component in the sparsity graph of m, its edges
    taken both ways, named by the component's smallest index.  Label
    propagation: every index takes the smallest label among itself and its
    neighbours, then its label's label, until no label changes."""
    nonzero = m.data != 0
    rows, cols = m.rows[nonzero], m.indices[nonzero]
    labels = np.arange(m.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _component_exponentials(a: FockOperator) -> list[tuple[np.ndarray, np.ndarray]]:
    """exp(a) as (members, blocks) per component size s: members (k x s) holds
    k components' indices, ascending, and blocks (k x s x s) their blocks of
    exp(a), which is zero between components.  The k blocks of a component
    size go through one batched eigh.  An operator whose 1-norm is not finite
    or exceeds MAX_EXPONENT_NORM, or that is not skew-Hermitian to SKEW_TOL,
    is refused with ValueError."""
    m = a.matrix
    with np.errstate(over="ignore"):  # a huge norm overflows to inf: refused below
        norm = np.bincount(m.indices, weights=np.abs(m.data), minlength=m.shape[1]).max()
    if not norm <= MAX_EXPONENT_NORM:  # NaN fails too
        raise ValueError(f"operator 1-norm {norm} is not finite or exceeds {MAX_EXPONENT_NORM:g}")
    skew = np.abs((m + m.adjoint()).data).max(initial=0.0)
    if not skew <= SKEW_TOL * norm:
        raise ValueError(f"operator is not skew-Hermitian: max |a + a^dag| = {skew}")
    labels = _components(m)
    order = np.argsort(labels, kind="stable")  # components in turn, each in index order
    size = np.bincount(labels)[labels]
    slot = np.empty_like(labels)  # an index's place within its component
    parts = []
    for s in np.flatnonzero(np.bincount(size)).tolist():  # ascending; np.unique loads numpy.ma
        members = order[size[order] == s].reshape(-1, s)
        slot[members] = np.arange(s)
        comp = np.empty_like(labels)
        comp[members] = np.arange(len(members))[:, None]
        inside = size[m.rows] == s
        rows, cols = m.rows[inside], m.indices[inside]
        blocks = np.zeros((len(members), s, s), dtype=complex)
        blocks[comp[rows], slot[rows], slot[cols]] = m.data[inside]
        # exp(a) = cos(h) - i sin(h) for the Hermitian h = i a.  Both parts are
        # even in h, so functions of h^2 = -a^2 = q diag(mu) q^dag: cos(h) is
        # q cos(w) q^dag and -i sin(h) is a q (sin(w) / w) q^dag, w = sqrt(mu).
        # On a rotation block this rounds as the closed forms cos and sin do.
        mu, q = np.linalg.eigh(-(blocks @ blocks))
        w = np.sqrt(np.maximum(mu, 0.0))  # rounding may take a zero mu below 0
        sinc = np.divide(np.sin(w), w, out=np.ones_like(w), where=w > 0)
        qdag = q.conj().transpose(0, 2, 1)
        parts.append((members, (q * np.cos(w)[:, None, :]) @ qdag
                      + blocks @ ((q * sinc[:, None, :]) @ qdag)))
    return parts


def exponential_action(a: FockOperator, state: FockState) -> FockState:
    """exp(a)|state> for skew-Hermitian a, one component block at a time."""
    _check_same_registry(a, state)
    x = state.amplitudes
    out = np.empty_like(x)
    for members, blocks in _component_exponentials(a):
        out[members] = (blocks @ x[members][:, :, None])[:, :, 0]
    return FockState(a.registry, out)


def matrix_exponential(a: FockOperator) -> FockOperator:
    """exp(a) for skew-Hermitian a, stored sparse: the blocks of the
    components of a's sparsity graph, exact zeros dropped.  Unitary; the
    suite holds it to 1e-12 against a Taylor oracle."""
    parts = _component_exponentials(a)
    rows = [np.broadcast_to(members[:, :, None], blocks.shape).ravel() for members, blocks in parts]
    cols = [np.broadcast_to(members[:, None, :], blocks.shape).ravel() for members, blocks in parts]
    vals = [blocks.ravel() for _, blocks in parts]
    matrix = CSRMatrix.from_triples(np.concatenate(rows), np.concatenate(cols),
                                    np.concatenate(vals), a.matrix.shape)
    return FockOperator(a.registry, matrix)


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
