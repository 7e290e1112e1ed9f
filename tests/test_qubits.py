"""First-quantized three-qubit oracle and its agreement with the field model."""

import itertools

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AXES, PAIRS, assert_moments_match, grid_directions
from dhlab import model, qubits
from dhlab.model import SpinDirection

KAPPAS = (0.02, 0.05, 0.1)


def test_pauli_algebra_per_slot():
    # sigma_a sigma_b = delta_ab I + i eps_abc sigma_c on every qubit slot
    eye8 = np.eye(8, dtype=complex)
    eps = np.zeros((3, 3, 3))
    for a, b, c in itertools.permutations(range(3)):
        eps[a, b, c] = (-1) ** (
            sum(1 for i in range(3) for j in range(i + 1, 3) if [a, b, c][i] > [a, b, c][j])
        )
    for q in (1, 2, 3):
        for a in range(3):
            sa = qubits.pauli_operator(q, a + 1)
            assert np.abs(sa - sa.conj().T).max() == 0.0  # Hermitian
            assert np.abs(sa @ sa.conj().T - eye8).max() == 0.0  # unitary
            assert abs(np.trace(sa)) == 0.0
            for b in range(3):
                product = sa @ qubits.pauli_operator(q, b + 1)
                expected = (1.0 if a == b else 0.0) * eye8
                for c in range(3):
                    if eps[a, b, c]:
                        expected = expected + 1j * eps[a, b, c] * qubits.pauli_operator(q, c + 1)
                assert np.abs(product - expected).max() == 0.0


def test_exchange_generator_action():
    k = 0.07
    g = qubits.build_h1q(k)
    psi = qubits.unentangled_state()
    exch = qubits.exchanged_state()
    assert np.abs(g @ psi - (-1j * k) * exch).max() <= 1e-15
    # no matching spin pattern: |up,up,*> is annihilated
    up_up = np.zeros(8, dtype=complex)
    up_up[qubits.basis_index(0, 0, 1)] = 1.0
    assert np.abs(g @ up_up).max() == 0.0
    # acts as the identity on qubit 3 (pure tensor factor structure)
    g2 = g.reshape(4, 2, 4, 2)
    assert np.abs(g2[:, 0, :, 1]).max() == 0.0
    assert np.abs(g2[:, 0, :, 0] - g2[:, 1, :, 1]).max() == 0.0
    with pytest.raises(ValueError):
        qubits.build_h1q(-0.1)


def test_evolution_orders():
    psi = qubits.unentangled_state()
    assert np.abs(qubits.evolve_qubits(psi, 0.0, "exact") - psi).max() <= 1e-15
    assert np.abs(qubits.evolve_qubits(psi, 0.0, "second") - psi).max() == 0.0
    for k in KAPPAS:
        exact = qubits.evolve_qubits(psi, k, "exact")
        second = qubits.evolve_qubits(psi, k, "second")
        assert np.linalg.norm(exact - second) <= k**3
        assert qubits.is_product_with_qubit3(exact)
    with pytest.raises(ValueError):
        qubits.evolve_qubits(psi, 0.1, "third")


def test_expectation_closed_forms_on_exact_state():
    dirs = grid_directions(6, 6)
    for k in KAPPAS:
        exact = qubits.evolve_qubits(qubits.unentangled_state(), k, "exact")
        for q in (1, 2, 3):
            for d in dirs:
                got = qubits.pauli_expectation(exact, q, d)
                assert abs(got - qubits.expectation_closed_form(q, d, k)) <= k**3
    # the headline number: (1 - 2 k^2) u3 = 0.98 u3 at k = 0.1
    exact = qubits.evolve_qubits(qubits.unentangled_state(), 0.1, "exact")
    assert qubits.pauli_expectation(exact, 1, SpinDirection.x3()) == pytest.approx(
        0.98, abs=1e-3
    )


def test_correlation_closed_forms():
    dirs_even = grid_directions(6, 6)  # no transverse-aligned pairs
    dirs_any = grid_directions(5, 4)   # includes theta = pi/2
    for k in KAPPAS:
        psi = qubits.unentangled_state()
        exact = qubits.evolve_qubits(psi, k, "exact")
        second = qubits.evolve_qubits(psi, k, "second")
        for qa, qb in ((1, 2), (2, 3), (3, 1)):
            for da in dirs_even:
                for db in dirs_even:
                    closed = qubits.correlation_closed_form(qa, qb, da, db, k)
                    got = qubits.pauli_correlation(second, qa, da, qb, db)
                    assert abs(got - closed) <= k**3
            # the exact state deviates from the displayed pair-(1,2) form by
            # (4/3) k^3 at transverse-aligned pairs; 2 k^3 bounds every pair
            for da in dirs_any:
                for db in dirs_any:
                    closed = qubits.correlation_closed_form(qa, qb, da, db, k)
                    got = qubits.pauli_correlation(exact, qa, da, qb, db)
                    assert abs(got - closed) <= 2.0 * k**3


def test_correlation_simple_values():
    psi = qubits.unentangled_state()
    x3 = SpinDirection.x3()
    assert qubits.pauli_correlation(psi, 1, x3, 2, x3) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        qubits.pauli_correlation(psi, 2, x3, 2, x3)


def test_second_order_decrease():
    dirs = grid_directions(4, 4)
    for k in KAPPAS:
        psi = qubits.unentangled_state()
        exact = qubits.evolve_qubits(psi, k, "exact")
        for qa, qb in ((2, 3), (1, 3)):
            for da in dirs:
                for db in dirs:
                    c0 = qubits.pauli_correlation(psi, qa, da, qb, db)
                    ck = qubits.pauli_correlation(exact, qa, da, qb, db)
                    assert abs((abs(c0) - abs(ck)) - 2.0 * k**2 * abs(c0)) <= k**3


@pytest.mark.parametrize("kappa", KAPPAS)
def test_field_model_agrees_with_qubit_oracle(kappa):
    # first-order field correlations vs exact qubit correlations: C kappa^2
    cfg = model.standard_config(kappa=kappa)
    psi = model.unentangled_state(cfg)
    first = model.evolve(cfg, psi, "first").normalized()
    exact_q = qubits.evolve_qubits(qubits.unentangled_state(), kappa, "exact")
    dirs = grid_directions(6, 6)
    spin_vecs = {
        (r, i): model.localized_spin_operator(cfg, r, d) @ first
        for r in (1, 2, 3)
        for i, d in enumerate(dirs)
    }
    worst = 0.0
    for ra, rb in ((1, 2), (2, 3), (3, 1)):
        for i, da in enumerate(dirs):
            for j, db in enumerate(dirs):
                field_val = spin_vecs[ra, i].overlap(spin_vecs[rb, j]).real
                qubit_val = qubits.pauli_correlation(exact_q, ra, da, rb, db)
                worst = max(worst, abs(field_val - qubit_val))
    assert worst <= 5.0 * kappa**2


spin_directions = st.builds(
    SpinDirection, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)
)


def _qubit_cases():
    """(moments, expectation, correlation) for the unentangled, exact and
    unnormalized second-order states and a generic unnormalized one:
    pauli_moments next to the direct per-direction evaluators."""
    psi0 = qubits.unentangled_state()
    states = [psi0] + [qubits.evolve_qubits(psi0, 0.1, order) for order in ("exact", "second")]
    states.append(np.array([1.0, 1j]) @ np.random.default_rng(5).standard_normal((2, 8)))
    return [(
        qubits.pauli_moments(s),
        lambda q, d, s=s: qubits.pauli_expectation(s, q, d),
        lambda qa, da, qb, db, s=s: qubits.pauli_correlation(s, qa, da, qb, db),
    ) for s in states]


QUBIT_CASES = _qubit_cases()


def test_pauli_moments_match_direct_evaluators_on_axes():
    for moments, expectation, correlation in QUBIT_CASES:
        assert_moments_match(moments, expectation, correlation, AXES)


@settings(max_examples=50, deadline=None)
@given(da=spin_directions, db=spin_directions)
def test_pauli_moments_match_direct_evaluators_on_drawn_directions(da, db):
    for moments, expectation, correlation in QUBIT_CASES:
        assert_moments_match(moments, expectation, correlation, (da, db))


@settings(max_examples=50, deadline=None)
@given(d=spin_directions)
def test_spin_operator_equals_its_kron_embedding(d):
    # spin_operator sums cached embedded Paulis; the reference embeds u . sigma
    # with one kron chain per qubit and must agree exactly
    u = d.unit_vector
    op2 = u[0] * qubits.PAULI_X + u[1] * qubits.PAULI_Y + u[2] * qubits.PAULI_Z
    eye2 = qubits.IDENTITY_2
    references = (np.kron(np.kron(op2, eye2), eye2), np.kron(np.kron(eye2, op2), eye2),
                  np.kron(np.kron(eye2, eye2), op2))
    for q, reference in zip((1, 2, 3), references):
        op = qubits.spin_operator(q, d)
        assert np.array_equal(op, reference)
        op[:] = 7.0  # the caller owns the result: the cache stays intact
        assert np.array_equal(qubits.spin_operator(q, d), reference)
    for q in (0, 4):
        with pytest.raises(ValueError):
            qubits.spin_operator(q, d)


def test_pauli_moment_tensor_identities_at_kappa_zero():
    e3e3 = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    expected = {(1, 2): -e3e3, (2, 3): e3e3, (3, 1): -e3e3}
    m, c = qubits.pauli_moments(qubits.unentangled_state())
    assert np.array_equal(m, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
    for a, b in PAIRS:
        assert np.array_equal(c[a - 1, b - 1], expected[a, b])


def test_pauli_moments_same_qubit_blocks_keep_the_real_part():
    # sigma^x sigma^y = i sigma^z is not Hermitian: the same-qubit block keeps
    # only the symmetrized part delta_ij and is not checked for realness
    _, c = qubits.pauli_moments(qubits.unentangled_state())
    for q in range(3):
        assert np.array_equal(c[q, q], np.eye(3))
