"""Mode-operator algebra: anticommutation relations, exponentials, distances."""

import math

import numpy as np
import pytest
from scipy import sparse

from dhlab import fock
from dhlab.errors import RegistryError
from dhlab.fock import (
    AuxiliaryMode,
    FockOperator,
    FockState,
    ModeRegistry,
    PhysicalMode,
    ProbeMode,
    anticommutator,
    commutator,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
    zero_operator,
)
from dhlab.model import standard_registry


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


def taylor_expm(matrix, terms=40):
    """Independent brute-force oracle: truncated Taylor sum."""
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ matrix / n
        out = out + term
    return out


def test_car_suite_exact(registry):
    ident = identity_operator(registry)
    zero = zero_operator(registry)
    for i, mi in enumerate(registry.modes):
        ci = mode_operator(registry, mi)
        cid = mode_operator(registry, mi, dagger=True)
        for j, mj in enumerate(registry.modes):
            cj = mode_operator(registry, mj)
            cjd = mode_operator(registry, mj, dagger=True)
            target = ident if i == j else zero
            assert (anticommutator(ci, cjd) - target).max_abs() == 0.0
            assert anticommutator(ci, cj).max_abs() == 0.0
            assert anticommutator(cid, cjd).max_abs() == 0.0


def test_vacuum_annihilation(registry):
    vac = vacuum_state(registry)
    assert vac.overlap(vac) == 1.0
    for m in registry.modes:
        c = mode_operator(registry, m)
        assert (c @ vac).norm() == 0.0
        assert fock.expectation(vac, c.dagger() @ c) == 0.0
        assert (c.dagger() @ vac).norm() == 1.0


def test_unknown_label_is_registry_error(registry):
    with pytest.raises(RegistryError):
        mode_operator(registry, ProbeMode(7))


def test_registry_invariants():
    with pytest.raises(RegistryError):
        ModeRegistry((PhysicalMode("up", 1), PhysicalMode("up", 1)))
    with pytest.raises(RegistryError):
        ModeRegistry(tuple(ProbeMode(i + 1) for i in range(13)))
    with pytest.raises(RegistryError):
        PhysicalMode("sideways", 1)
    with pytest.raises(RegistryError):
        AuxiliaryMode(4)


def test_adjoint_involution_and_product_rule(registry):
    a = mode_operator(registry, registry.modes[0])
    b = mode_operator(registry, registry.modes[3], dagger=True)
    assert (a.dagger().dagger() - a).max_abs() == 0.0
    assert ((a @ b).dagger() - b.dagger() @ a.dagger()).max_abs() == 0.0


def test_commutator_and_anticommutator(registry):
    a = mode_operator(registry, registry.modes[0])
    b = mode_operator(registry, registry.modes[1])
    assert commutator(a, a).max_abs() == 0.0
    assert anticommutator(a, b.dagger()).max_abs() == 0.0
    for x, y in ((a, b), (a, a.dagger()), (b.dagger(), a)):
        assert (commutator(x, y) - (x @ y - y @ x)).max_abs() == 0.0
        assert (anticommutator(x, y) - (x @ y + y @ x)).max_abs() == 0.0


def test_registry_mismatch_rejected(registry):
    other = ModeRegistry(registry.modes[:4])
    a = mode_operator(registry, registry.modes[0])
    b = mode_operator(other, other.modes[0])
    with pytest.raises(RegistryError):
        a + b
    with pytest.raises(RegistryError):
        operator_distance(a, b)
    with pytest.raises(RegistryError):
        fock.expectation(vacuum_state(other), a)


def test_removal_commutator_closed_form(registry):
    # [b, g(a b - bdag adag)] = -g adag: the mode-projected form of the
    # single-commutator identity behind effective locality.
    g = 1.7
    b = mode_operator(registry, PhysicalMode("up", 1))
    a = mode_operator(registry, AuxiliaryMode(1))
    w = g * (a @ b - b.dagger() @ a.dagger())
    assert operator_distance(commutator(b, w), -g * a.dagger()) == 0.0


def test_double_creation_antisymmetry(registry):
    coeffs = (0.3 + 0.1j, -0.5, 0.81j)
    f = sum(
        (c * mode_operator(registry, PhysicalMode("up", r), dagger=True)
         for c, r in zip(coeffs, (1, 2, 3))),
        start=zero_operator(registry),
    )
    assert (f @ f).max_abs() == 0.0


def test_expm_identity(registry):
    z = zero_operator(registry)
    assert operator_distance(matrix_exponential(z), identity_operator(registry)) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_expm_against_taylor_oracle(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    skew = raw - raw.conj().T
    skew *= 1.0 / max(1.0, np.linalg.norm(skew, 2))
    reg = ModeRegistry(tuple(ProbeMode(i + 1) for i in range(4)))
    a = FockOperator(reg, sparse.csr_array(skew))
    e = matrix_exponential(a)
    assert operator_distance(e, FockOperator(reg, sparse.csr_array(taylor_expm(skew)))) <= 1e-12
    # skew-Hermitian input exponentiates to a unitary
    assert operator_distance(e @ e.dagger(), identity_operator(reg)) <= 1e-11


def test_expm_rejects_bad_input(registry):
    bad = FockOperator(registry, sparse.csr_array(np.full((512, 512), np.nan, dtype=complex)))
    with pytest.raises(ValueError):
        matrix_exponential(bad)


def test_dense_matrix_rejected(registry):
    with pytest.raises(TypeError):
        FockOperator(registry, np.eye(registry.dimension, dtype=complex))


@pytest.mark.parametrize("theta", [math.pi / 6.0, math.pi / 2.0])
def test_single_mode_removal_rotation(theta):
    # V(theta)|psi_1> = cos(theta)|psi_1> + sin(theta)|0> for the bare
    # single-particle removal generator W = b - bdag.
    reg = ModeRegistry((PhysicalMode("up", 1),))
    b = mode_operator(reg, PhysicalMode("up", 1))
    w = b - b.dagger()
    vac = vacuum_state(reg)
    psi1 = b.dagger() @ vac
    rotated = matrix_exponential(theta * w) @ psi1
    expected = math.cos(theta) * psi1 + math.sin(theta) * vac
    assert (rotated - expected).norm() <= 1e-14


def test_operator_distance_examples(registry):
    ident = identity_operator(registry)
    a = mode_operator(registry, registry.modes[2])
    assert operator_distance(a, a) == 0.0
    assert operator_distance(ident, 2.0 * ident) == pytest.approx(
        math.sqrt(registry.dimension), abs=1e-12
    )


def test_state_vector_algebra(registry):
    vac = vacuum_state(registry)
    one = mode_operator(registry, registry.modes[0], dagger=True) @ vac
    combo = 0.6 * vac + 0.8j * one
    assert combo.norm() == pytest.approx(1.0, abs=1e-15)
    assert combo.overlap(vac) == pytest.approx(0.6)
    assert vac.overlap(combo) == pytest.approx(0.6)
    assert one.overlap(combo) == pytest.approx(0.8j)
    assert combo.is_normalized
    with pytest.raises(ValueError):
        (vac - vac).normalized()
    with pytest.raises(ValueError):
        FockState(registry, np.full(registry.dimension, np.inf, dtype=complex))
