"""Independent first-quantized three-qubit oracle.

Three distinguishable spin-1/2 particles with no spatial degrees of freedom
cross-check the field model: the same spin-exchange coupling acts on qubits
1 and 2, and expectations/correlations are worked out to second order in the
dimensionless strength kappa.

States are plain complex vectors of dimension 8 ordered qubit1 x qubit2 x
qubit3, with basis index 0 = spin-up and 1 = spin-down per qubit (so the
unentangled reference state up,down,down sits at index 0b011 = 3).
"""

from __future__ import annotations

import numpy as np

from .model import SpinDirection, pair_index, spin_moments, unit_products

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

_UP, _DOWN = 0, 1


def _embed(op2: np.ndarray, qubit: int) -> np.ndarray:
    """Lift a one-qubit operator into the 8-dimensional product space."""
    if qubit not in (1, 2, 3):
        raise ValueError("qubit must be 1, 2, or 3")
    factors = [IDENTITY_2, IDENTITY_2, IDENTITY_2]
    factors[qubit - 1] = op2
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def pauli_operator(qubit: int, axis: int) -> np.ndarray:
    """sigma_axis (1=x, 2=y, 3=z) acting on one qubit slot."""
    return _embed(PAULIS[axis - 1], qubit)


# _EMBEDDED[q - 1, i - 1] = pauli_operator(q, i), built once and read-only
_EMBEDDED = np.array([[pauli_operator(q, i) for i in (1, 2, 3)] for q in (1, 2, 3)])
_EMBEDDED.flags.writeable = False


def spin_operator(qubit: int, direction: SpinDirection) -> np.ndarray:
    """u . sigma for one qubit, as a new array."""
    if qubit not in (1, 2, 3):
        raise ValueError("qubit must be 1, 2, or 3")
    u, p = direction.unit_vector, _EMBEDDED[qubit - 1]
    return u[0] * p[0] + u[1] * p[1] + u[2] * p[2]


def basis_index(q1: int, q2: int, q3: int) -> int:
    return 4 * q1 + 2 * q2 + q3


def unentangled_state() -> np.ndarray:
    """|up, down, down>."""
    state = np.zeros(8, dtype=complex)
    state[basis_index(_UP, _DOWN, _DOWN)] = 1.0
    return state


def exchanged_state() -> np.ndarray:
    """|down, up, down> - the spin-exchanged companion."""
    state = np.zeros(8, dtype=complex)
    state[basis_index(_DOWN, _UP, _DOWN)] = 1.0
    return state


def build_h1q(kappa: float) -> np.ndarray:
    """Dimensionless exchange generator acting on qubits 1 and 2 only:

        G = -i kappa (|down,up><up,down| - |up,down><down,up|) (x) I
    """
    if kappa < 0.0:
        raise ValueError("kappa must be non-negative")
    g2 = np.zeros((4, 4), dtype=complex)
    ud = 2 * _UP + _DOWN
    du = 2 * _DOWN + _UP
    g2[du, ud] = -1j * kappa
    g2[ud, du] = 1j * kappa
    return np.kron(g2, IDENTITY_2)


def evolve_qubits(state: np.ndarray, kappa: float, order: str = "exact") -> np.ndarray:
    """Exchange evolution exp(-iG)|state| (exact) or its second-order
    truncation (I - iG - G@G/2)|state> (unnormalized, as displayed)."""
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("evolve_qubits expects a normalized state")
    g = build_h1q(kappa)
    if order == "exact":
        w, q = np.linalg.eigh(g)  # G = q diag(w) q^dag, so exp(-iG) = q diag(exp(-iw)) q^dag
        return q @ (np.exp(-1j * w) * (q.conj().T @ state))
    if order == "second":
        first = -1j * (g @ state)
        second = -1j * (g @ first)
        return state + first + 0.5 * second
    raise ValueError("order must be 'exact' or 'second'")


def pauli_expectation(state: np.ndarray, qubit: int, direction: SpinDirection) -> float:
    """<u . sigma_qubit> in the (internally normalized) state."""
    psi = state / np.linalg.norm(state)
    val = complex(np.vdot(psi, spin_operator(qubit, direction) @ psi))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"expectation has imaginary part {val.imag}")
    return val.real


def pauli_correlation(
    state: np.ndarray,
    qubit_a: int,
    dir_a: SpinDirection,
    qubit_b: int,
    dir_b: SpinDirection,
) -> float:
    """<(u_a . sigma_a)(u_b . sigma_b)> for two distinct qubits."""
    if qubit_a == qubit_b:
        raise ValueError("correlation needs two distinct qubits")
    psi = state / np.linalg.norm(state)
    op = spin_operator(qubit_a, dir_a) @ spin_operator(qubit_b, dir_b)
    val = complex(np.vdot(psi, op @ psi))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"correlation has imaginary part {val.imag}")
    return val.real


def pauli_moments(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments of the (internally normalized) state: m[q] = <sigma_q^i>
    and C[qa, qb] = <sigma_qa^i sigma_qb^j>, qubits counted from 0; see
    model.spin_moments."""
    psi = state / np.linalg.norm(state)
    return spin_moments(psi, list((_EMBEDDED @ psi).transpose(0, 2, 1)))


def is_product_with_qubit3(state: np.ndarray, tol: float = 1e-12) -> bool:
    """True if the state factorizes as (qubits 1,2) x qubit 3."""
    m = state.reshape(4, 2)
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[1] <= tol)


def expectation_closed_form(qubit: int, direction: SpinDirection, kappa: float) -> float:
    """Second-order closed forms: (1 - 2k^2) u3 on qubit 1, -(1 - 2k^2) u3 on
    qubit 2, and -u3 on the untouched qubit 3."""
    u3 = direction.u3
    if qubit == 1:
        return (1.0 - 2.0 * kappa**2) * u3
    if qubit == 2:
        return -(1.0 - 2.0 * kappa**2) * u3
    if qubit == 3:
        return -u3
    raise ValueError("qubit must be 1, 2, or 3")


def correlation_closed_grid(dirs_a, dirs_b, kappa: float) -> np.ndarray:
    """Second-order closed forms of the pairwise correlations over two
    direction lists (n and m long), as the (PAIRS, n, m) grid:

        (1,2): -(1 - 2k) u_a3 u_b3 - 2k u_a . u_b
        (2,3): +(1 - 2k^2) u_a3 u_b3
        (3,1): -(1 - 2k^2) u_a3 u_b3
    """
    ua3, ub3, dots = unit_products(dirs_a, dirs_b)
    c = 1.0 - 2.0 * kappa**2
    return np.array([
        (-(1.0 - 2.0 * kappa) * ua3)[:, None] * ub3 - 2.0 * kappa * dots,
        (c * ua3)[:, None] * ub3,
        (-c * ua3)[:, None] * ub3,
    ])


def correlation_closed_form(
    qubit_a: int,
    qubit_b: int,
    dir_a: SpinDirection,
    dir_b: SpinDirection,
    kappa: float,
) -> float:
    """correlation_closed_grid at one pair of qubits and one pair of directions."""
    pair = pair_index(qubit_a, qubit_b, "qubits")
    return float(correlation_closed_grid([dir_a], [dir_b], kappa)[pair, 0, 0])
