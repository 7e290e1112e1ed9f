"""Mode-operator algebra: anticommutation relations, exponentials, distances."""

import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import dhlab
from dhlab import checks, cli, dhrep, fock, model, qubits, wavepackets
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
    exponential_action,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
    zero_operator,
)
from dhlab.model import entangling_generator, standard_config, standard_registry


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


def test_creator_is_the_cached_conjugate_transpose(registry):
    for label in registry.modes:
        c = mode_operator(registry, label).matrix
        cdag = mode_operator(registry, label, dagger=True).matrix
        assert cdag.shape == c.shape and cdag.nnz == c.nnz
        assert np.array_equal(cdag.toarray(), c.toarray().conj().T)
        assert mode_operator(registry, label, dagger=True).matrix is cdag


def test_caches_are_module_level_functools_caches():
    # benchmark calls start cold by clearing every functools cache bound at
    # module level in a dhlab module; a cache anywhere else would survive
    found = {f"{m.__name__}.{name}" for m in (dhlab, checks, cli, dhrep, fock, model, qubits,
                                             wavepackets)
             for name, value in vars(m).items()
             if callable(getattr(value, "cache_clear", None))
             and getattr(value, "__module__", None) == m.__name__}
    assert found == {"dhlab.fock._annihilator_matrix", "dhlab.fock._creator_matrix",
                     "dhlab.model._spin_stack", "dhlab.model._exchange_operator"}
    reg = standard_registry()
    model._spin_stack(reg)
    assert model._spin_stack.cache_info().currsize >= 1
    model._spin_stack.cache_clear()
    assert model._spin_stack.cache_info().currsize == 0


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
    e = matrix_exponential(zero_operator(registry))
    assert operator_distance(e, identity_operator(registry)) == 0.0
    assert e.matrix.nnz == registry.dimension  # no stored zeros


def _on_shuffled_indices(blocks, seed, dim=16):
    """A dim x dim matrix holding the given square blocks on disjoint,
    randomly drawn basis indices; the indices left over are zero."""
    perm = np.random.default_rng(seed).permutation(dim)
    out = np.zeros((dim, dim), dtype=complex)
    start = 0
    for block in blocks:
        idx = perm[start:start + len(block)]
        out[np.ix_(idx, idx)] = block
        start += len(block)
    return out


def _random_block(size, seed):
    rng = np.random.default_rng(seed)
    return 0.5 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))


def _check_03_skew(seed=0):
    """The dense 16x16 skew-Hermitian exponent of verify check 03."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    skew = raw - raw.conj().T
    return skew * (1.0 / max(1.0, np.linalg.norm(skew, 2)))


def _skew(block):
    return block - block.conj().T


COMPRESSED_CASES = {
    "unequal-skew-blocks": lambda: _on_shuffled_indices(
        [_skew(_random_block(size, size)) for size in (5, 3, 2, 2, 1)], seed=11),
    "isolated-imaginary-diagonal": lambda: np.diag([0.7j, 0, -1.2j, 0, 0, 0.3j, 0, 0,
                                                    0, 0, 0, -0.9j, 0, 0, 0, 0]),
    "check-03-dense-skew": _check_03_skew,
}

# inputs that are not skew-Hermitian, which no caller exponentiates
NON_SKEW_CASES = {
    "unequal-blocks": lambda: _on_shuffled_indices(
        [_random_block(size, size) for size in (5, 3, 2, 2, 1)], seed=11),
    "isolated-diagonal": lambda: np.diag([0.7, 0, -1.2j, 0, 0, 0.3 + 0.4j, 0, 0,
                                          0, 0, 0, -0.9, 0, 0, 0, 0]),
    # edges only one way: the components are weakly, not strongly, connected
    "one-way-chains": lambda: _on_shuffled_indices(
        [np.diag([0.8, -0.5j, 1.1, 0.6], k=1), np.diag([0.3 + 0.2j, -0.7], k=1)], seed=12),
    "nonzero-trace": lambda: _on_shuffled_indices(
        [_skew(_random_block(size, 20 + size)) for size in (6, 4, 1)], seed=13)
        + (0.25 - 0.4j) * np.eye(16),
}


@pytest.mark.parametrize("case", sorted(COMPRESSED_CASES))
def test_compressed_exponential_against_dense_expm(case):
    # Test-only oracle: scipy's dense expm of the whole matrix.
    dense = COMPRESSED_CASES[case]()
    reg = ModeRegistry(tuple(ProbeMode(i + 1) for i in range(4)))
    e = matrix_exponential(FockOperator(reg, fock.CSRMatrix.from_dense(dense)))
    assert np.abs(e.matrix.toarray() - scipy.linalg.expm(dense)).max() <= 1e-13
    assert not np.any(e.matrix.data == 0)  # exact zeros are dropped


@pytest.mark.parametrize("case", sorted(NON_SKEW_CASES))
def test_exponential_refuses_non_skew_input(case):
    reg = ModeRegistry(tuple(ProbeMode(i + 1) for i in range(4)))
    a = FockOperator(reg, fock.CSRMatrix.from_dense(NON_SKEW_CASES[case]()))
    with pytest.raises(ValueError, match="skew-Hermitian"):
        matrix_exponential(a)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        exponential_action(a, vacuum_state(reg))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_expm_against_taylor_oracle(seed):
    skew = _check_03_skew(seed)
    reg = ModeRegistry(tuple(ProbeMode(i + 1) for i in range(4)))
    a = FockOperator(reg, fock.CSRMatrix.from_dense(skew))
    e = matrix_exponential(a)
    taylor = FockOperator(reg, fock.CSRMatrix.from_dense(taylor_expm(skew)))
    assert operator_distance(e, taylor) <= 1e-12
    # skew-Hermitian input exponentiates to a unitary
    assert operator_distance(e @ e.dagger(), identity_operator(reg)) <= 1e-11


@pytest.mark.parametrize("kappa", [0.0, 0.02, 0.1, 0.2, 1.3])
def test_exponential_action_against_dense_expm(kappa):
    # Test-only oracle: the dense exp(-iG) of the dim-512 generator, applied
    # to a random state that reaches every basis vector.
    g = -1j * entangling_generator(standard_config(kappa=kappa))
    rng = np.random.default_rng(17)
    amps = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    psi = FockState(g.registry, amps / np.linalg.norm(amps))
    dense = scipy.linalg.expm(g.matrix.toarray()) @ psi.amplitudes
    assert exponential_action(g, psi).distance(FockState(g.registry, dense)) <= 1e-13


def test_expm_rejects_bad_input(registry):
    bad = FockOperator(registry, fock.CSRMatrix.from_dense(np.full((512, 512), np.nan)))
    with pytest.raises(ValueError):
        matrix_exponential(bad)
    with pytest.raises(ValueError):
        exponential_action(bad, vacuum_state(registry))
    other = ModeRegistry(tuple(ProbeMode(i + 1) for i in range(registry.size)))
    with pytest.raises(RegistryError):
        exponential_action(zero_operator(registry), vacuum_state(other))


@pytest.mark.parametrize("scale", [1e308, 1e6])
def test_exponential_rejects_a_huge_norm_quickly(scale):
    # no exponent in use comes near these norms, and 1e308 * G overflows;
    # both must fail at once, and loudly
    g = -1j * entangling_generator(standard_config(kappa=1.0))
    psi = vacuum_state(g.registry)
    for run in (lambda: exponential_action(scale * g, psi),
                lambda: matrix_exponential(scale * g)):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            run()
        assert time.perf_counter() - start < 1.0


def test_exponential_at_the_largest_in_use_norm_still_evolves():
    # kappa is capped at 2 pi, so 2 pi * G is the largest exponent in use
    g = -1j * entangling_generator(standard_config(kappa=1.0))
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    psi = FockState(g.registry, amps / np.linalg.norm(amps))
    a = (2.0 * math.pi) * g
    dense = scipy.linalg.expm(a.matrix.toarray()) @ psi.amplitudes
    assert exponential_action(a, psi).distance(FockState(g.registry, dense)) <= 1e-12


def test_dense_matrix_rejected(registry):
    with pytest.raises(TypeError):
        FockOperator(registry, np.eye(registry.dimension, dtype=complex))
    with pytest.raises(TypeError):  # nor is any other sparse type converted
        FockOperator(registry, sparse.csr_array(np.eye(registry.dimension, dtype=complex)))


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
    assert abs(combo.norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        (vac - vac).normalized()
    with pytest.raises(ValueError):
        FockState(registry, np.full(registry.dimension, np.inf, dtype=complex))


def _scipy(m):
    return sparse.csr_array((m.data, m.indices, m.indptr), shape=m.shape)


def _assert_bit_identical(mine, oracle):
    # scipy's products leave each row's columns unsorted; sorting moves no value
    oracle = sparse.csr_array(oracle)
    oracle.sort_indices()
    assert np.array_equal(mine.indptr, oracle.indptr)
    assert np.array_equal(mine.indices, oracle.indices)
    assert np.array_equal(mine.data, oracle.data)


@pytest.fixture(scope="module")
def real_operators(cfg_probe, t_en_probe):
    """dim-2048 operators dhlab builds: V_en, its adjoint, the exchange
    operator, and the closed-form images of both spins' section modes with
    each region's spin along a direction whose entries are complex."""
    modes = [m.matrix for spin in fock.SPINS
             for m in dhrep.closed_form_modes(cfg_probe, spin, t_en_probe)]
    modes += [model.localized_spin_operator(cfg_probe, r, model.SpinDirection(0.7, 1.3)).matrix
              for r in (1, 2, 3)]
    v = t_en_probe.operator.matrix
    return v, t_en_probe.adjoint.matrix, model._exchange_operator(cfg_probe.registry).matrix, modes


def test_numpy_product_is_scipys_bit_for_bit(real_operators):
    v, vdag, exchange, modes = real_operators
    pairs = [(v, vdag), (vdag, v), (exchange, v), (v, exchange), (exchange, exchange)]
    pairs += [(v, m) for m in modes] + [(m, vdag) for m in modes] + [(m, m.adjoint()) for m in modes]
    pairs += [(v @ m, vdag) for m in modes] + list(zip(modes, modes[1:])) + [(modes[-1], modes[-2])]
    for a, b in pairs:
        _assert_bit_identical(a @ b, _scipy(a) @ _scipy(b))


def test_numpy_sum_and_adjoint_are_scipys_bit_for_bit(real_operators):
    v, vdag, exchange, modes = real_operators
    pairs = [(v, vdag), (exchange, v), (v, v)] + list(zip(modes, modes[1:]))
    pairs += [(v @ m @ vdag, m) for m in modes]
    for a, b in pairs:
        _assert_bit_identical(a + b, _scipy(a) + _scipy(b))
        _assert_bit_identical(a - b, _scipy(a) - _scipy(b))
        _assert_bit_identical((0.3 - 1.7j) * a, (0.3 - 1.7j) * _scipy(a))
    for a in (v, vdag, exchange, *modes):
        _assert_bit_identical(a.adjoint(), _scipy(a).conj().T)


def test_sums_and_products_keep_no_key_array(registry):
    # keys is read only to merge a sum or gather a union, so it is computed when
    # asked rather than stored beside the three arrays of every result
    a, b = (mode_operator(registry, m).matrix for m in registry.modes[:2])
    bdag = mode_operator(registry, registry.modes[1], dagger=True).matrix
    total = a + bdag  # two entries in some rows, so its product merges by key
    for m in (total, a - bdag, total @ b, b @ total):
        assert m.nnz and "keys" not in m.__dict__
        assert np.array_equal(m.keys, m.rows * m.shape[1] + m.indices)
        assert "keys" not in m.__dict__


def test_chained_results_are_scipys_bit_for_bit(real_operators):
    # every link's result holds no row pointer until the next product reads it
    v, vdag, exchange, modes = real_operators
    for m in modes[:4]:
        sv, svdag, sx, sm = (_scipy(a) for a in (v, vdag, exchange, m))
        _assert_bit_identical(((v @ m) + exchange).adjoint() @ vdag,
                              ((sv @ sm) + sx).conj().T @ svdag)
        _assert_bit_identical(vdag @ ((m - exchange) * (0.3 - 1.7j)).adjoint() @ (-(v @ m)),
                              svdag @ ((sm - sx) * (0.3 - 1.7j)).conj().T @ (-(sv @ sm)))
        _assert_bit_identical((v @ fock.vstack([m.first_rows(1024), vdag.first_rows(1024)])
                               ).adjoint() @ v,
                              (sv @ sparse.vstack([sm[:1024], svdag[:1024]])).conj().T @ sv)


class _RowPointerSpy:
    """Counts fock._row_pointer calls: each is one matrix's indptr derived."""

    def __init__(self, monkeypatch):
        self.calls, inner = 0, fock._row_pointer

        def counted(rows, n):
            self.calls += 1
            return inner(rows, n)
        monkeypatch.setattr(fock, "_row_pointer", counted)


def test_results_build_no_row_pointer_until_it_is_read(registry, monkeypatch):
    a, b = (mode_operator(registry, m).matrix for m in registry.modes[:2])
    c = mode_operator(registry, registry.modes[2], dagger=True).matrix
    b.indptr  # read before the spy: a product derives its right factor's
    spy = _RowPointerSpy(monkeypatch)
    total = a + c
    results = [total, a - c, (0.5 - 2j) * total, total * 3.0, -total, total.adjoint(),
               total @ b, fock.vstack([a, total, c]), total.first_rows(40)]
    assert spy.calls == 0
    for k, m in enumerate(results, start=1):
        want = np.concatenate(([0], np.bincount(m.rows, minlength=m.shape[0]).cumsum()))
        assert np.array_equal(m.indptr, want) and m.indptr.dtype == np.int64
        assert m.indptr is m.indptr and spy.calls == k  # derived once, then kept
    # a scalar multiple or a negation shares its operand's rows and row pointer
    for m in ((0.5 - 2j) * b, b * 2.0, -b):
        assert m.rows is b.rows and m.indptr is b.indptr
    assert spy.calls == len(results)
    total @ (a + c)  # a product's right factor derives its row pointer
    assert spy.calls == len(results) + 1


def _clear_mode_caches():
    for cached in (fock._annihilator_matrix, fock._creator_matrix, model._spin_stack,
                   model._exchange_operator):
        cached.cache_clear()


def test_default_verify_derives_few_row_pointers(monkeypatch):
    _clear_mode_caches()
    built, init = [0], fock.CSRMatrix.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(fock.CSRMatrix, "__init__", counted)
    spy = _RowPointerSpy(monkeypatch)
    checks.run_verify(checks.RunConfig())
    assert 0 < 4 * spy.calls < built[0], (spy.calls, built[0])


def _skips_expansion(a, b):
    # every row of b that an entry of a meets holds at most one entry
    return (b.indptr[a.indices + 1] - b.indptr[a.indices]).max(initial=0) <= 1


def test_default_verify_skips_most_product_expansions(monkeypatch):
    # mode operators and V_un hold at most one entry per row, so most products
    # need no expansion of a's entries into b's rows
    _clear_mode_caches()
    calls, product = [], fock._product

    def counted(a, b):
        calls.append(_skips_expansion(a, b))
        return product(a, b)
    monkeypatch.setattr(fock, "_product", counted)
    checks.run_verify(checks.RunConfig())
    assert calls and 4 * sum(calls) >= 3 * len(calls), (sum(calls), len(calls))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_derived_row_pointer_is_bincounts_and_scipys(data):
    m, k = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    dense = _dense(data.draw, m, k)
    if m:  # empty first and last rows, or no entry at all
        dense[0] = dense[-1] = 0.0
        if data.draw(st.booleans()):
            dense[:] = 0.0
    a = fock.CSRMatrix.from_dense(dense)
    want = np.concatenate(([0], np.bincount(a.rows, minlength=m).cumsum()))
    assert a.indptr.dtype == want.dtype == np.int64
    assert np.array_equal(a.indptr, want)
    assert np.array_equal(a.indptr, sparse.csr_array(dense).indptr)
    assert a.indptr.size == m + 1 and a.indptr[0] == 0 and a.indptr[-1] == a.nnz


def test_numpy_action_is_scipys_bit_for_bit(real_operators):
    v, _, exchange, modes = real_operators
    rng = np.random.default_rng(3)
    block = rng.standard_normal((v.shape[0], 3)) + 1j * rng.standard_normal((v.shape[0], 3))
    block[::3, 1] = complex(-0.0, -0.0)  # a vector holding -0.0
    gaps = v.rows % 4 != 0  # v without every fourth row: a matrix with empty rows
    gappy = fock.CSRMatrix.from_triples(v.rows[gaps], v.indices[gaps], v.data[gaps], v.shape)
    data = v.data.copy()
    data[v.indptr[5]:v.indptr[6]] = complex(-0.0, -0.0)  # stored -0.0s, row 5 only those
    signed = fock.CSRMatrix(v.indptr, v.indices, data, v.shape)
    # a block goes through one flat add.at at row * k + column: one, two
    # (strided) and three (Fortran-ordered) columns
    blocks = (block, block[:, :1], block[:, ::2], np.asfortranarray(block))
    for a in (v, exchange, modes[0], v @ modes[1], modes[-1], v @ modes[-1], gappy, signed):
        for x in (block[:, 0], block[:, 1], *blocks):
            assert (a @ x).tobytes() == (_scipy(a) @ x).tobytes()  # -0.0 is not 0.0 here


def _assert_scipy_values(mine, oracle):
    # the claim the suite checks on drawn matrices: scipy's structure, and
    # scipy's values bit for bit once + 0.0 folds the sign of a zero
    oracle = sparse.csr_array(oracle)
    oracle.sort_indices()
    assert np.array_equal(mine.indptr, oracle.indptr)
    assert np.array_equal(mine.indices, oracle.indices)
    assert np.array_equal(mine.data, oracle.data)
    assert (mine.data + 0.0).tobytes() == (oracle.data + 0.0).tobytes()


# drawn entries: about half exact zeros, the rest with parts that are small
# integers, -0.0, or values whose products and sums round; the EXACT ones add
# up exactly in any order
EXACT_PARTS = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0)
PARTS = EXACT_PARTS + (0.5, 1.7, -2.3, 0.1)


def _entries(parts=PARTS):
    nonzero = [complex(re, im) for re in parts for im in parts if re or im]
    return st.sampled_from([0j] * len(nonzero) + nonzero)


def _dense(draw, rows, cols):
    return draw(hnp.arrays(complex, (rows, cols), elements=_entries()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_sparse_layer_matches_scipy_on_drawn_matrices(data):
    m, k, n = (data.draw(st.integers(0, 7)) for _ in range(3))
    dense_a, dense_a2, dense_b = _dense(data.draw, m, k), _dense(data.draw, m, k), _dense(
        data.draw, k, n)
    a, a2, b = (fock.CSRMatrix.from_dense(d) for d in (dense_a, dense_a2, dense_b))
    sa, sa2, sb = (sparse.csr_array(d) for d in (dense_a, dense_a2, dense_b))
    _assert_scipy_values(a, sa)
    _assert_scipy_values(a @ b, sa @ sb)
    _assert_scipy_values(a + a2, sa + sa2)
    _assert_scipy_values(a - a2, sa - sa2)
    scalar = data.draw(_entries())
    _assert_scipy_values(scalar * a, scalar * sa)
    _assert_scipy_values(a.adjoint(), sa.conj().T)
    # chains: each link's right factor derives its row pointer as it is read
    _assert_scipy_values(((a @ b) + (a2 @ b)).adjoint() @ a,
                         ((sa @ sb) + (sa2 @ sb)).conj().T @ sa)
    _assert_scipy_values(a @ (-(scalar * b) - b).adjoint().adjoint(), sa @ (-(scalar * sb) - sb))
    r = data.draw(st.integers(0, m))
    _assert_scipy_values(a.first_rows(r), sa[:r])
    blocks = [_dense(data.draw, data.draw(st.integers(0, 3)), k) for _ in range(
        data.draw(st.integers(1, 3)))]
    _assert_scipy_values(fock.vstack([fock.CSRMatrix.from_dense(d) for d in blocks]),
                         sparse.vstack([sparse.csr_array(d) for d in blocks], format="csr"))
    x = _dense(data.draw, k, 1)[:, 0]
    mine, oracle = a @ x, sa @ x
    assert np.array_equal(mine, oracle)
    assert (mine + 0.0).tobytes() == (oracle + 0.0).tobytes()
    # unsorted triples with repeated places; exact parts, as scipy's sum of a
    # place's entries need not follow their order
    nnz = data.draw(st.integers(0, 12))
    rows = np.array(data.draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=nnz,
                                       max_size=nnz)), dtype=np.int64)
    cols = np.array(data.draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=nnz,
                                       max_size=nnz)), dtype=np.int64)
    if m and k:
        vals = np.array(data.draw(st.lists(_entries(EXACT_PARTS), min_size=nnz, max_size=nnz)),
                        dtype=complex)
        oracle = sparse.coo_array((vals, (rows, cols)), shape=(m, k)).tocsr()
        oracle.eliminate_zeros()
        _assert_scipy_values(fock.CSRMatrix.from_triples(rows, cols, vals, (m, k)), oracle)


def _expanded_product(a, b):
    # the product with every entry of a expanded into its row of b, met or not
    starts = b.indptr[a.indices]
    lengths = b.indptr[a.indices + 1] - starts
    ends = lengths.cumsum()
    picks = np.arange(ends[-1] if ends.size else 0) + (starts - ends + lengths).repeat(lengths)
    return fock.CSRMatrix.from_triples(a.rows.repeat(lengths), b.indices[picks], fock._times(
        a.data.repeat(lengths), b.data[picks]), (a.shape[0], b.shape[1]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_product_skips_only_an_expansion_that_changes_nothing(data):
    m, k, n = (data.draw(st.integers(0, 7)) for _ in range(3))
    dense_a, dense_b = _dense(data.draw, m, k), _dense(data.draw, k, n)
    cap = data.draw(st.sampled_from((0, 1, n)))  # b's rows hold at most 0, 1 or n entries
    for row in dense_b:
        row[row.nonzero()[0][data.draw(st.integers(0, cap)):]] = 0.0
    if m:
        dense_a[data.draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0  # empty rows
    if data.draw(st.booleans()):
        (dense_a if data.draw(st.booleans()) else dense_b)[:] = 0.0  # nnz == 0
    a, b = fock.CSRMatrix.from_dense(dense_a), fock.CSRMatrix.from_dense(dense_b)
    got, want = a @ b, _expanded_product(a, b)
    _assert_scipy_values(got, sparse.csr_array(dense_a) @ sparse.csr_array(dense_b))
    for name in ("rows", "indices", "data"):
        mine, forced = getattr(got, name), getattr(want, name)
        assert mine.dtype == forced.dtype and mine.tobytes() == forced.tobytes(), name
    assert got.shape == want.shape == (m, n)


# (rows, cols) in key order; "duplicates" gives three places more than once
FROM_TRIPLES_CASES = {
    "distinct": ([0, 0, 2, 3, 3, 6], [1, 4, 0, 0, 2, 4]),
    "duplicates": ([0, 2, 2, 2, 3, 3, 6, 6], [1, 0, 0, 0, 2, 2, 4, 4]),
    "one-entry": ([2], [3]),
    "no-entry": ([], []),
}


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("case", sorted(FROM_TRIPLES_CASES))
def test_from_triples_takes_sorted_or_shuffled_triples_alike(case, zeros):
    rows, cols = (np.array(a, dtype=np.int64) for a in FROM_TRIPLES_CASES[case])
    rng = np.random.default_rng(21)
    vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    if zeros:
        vals[::3] = 0.0
    if case == "duplicates":
        vals[1:4] = [0.1, 0.2, 0.3]  # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        vals[6:] = [1.5, -1.5]  # cancels to an exact zero
    # oracle: each place's values added in the order given, exact zeros dropped
    sums = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        sums[r, c] = sums[r, c] + v if (r, c) in sums else v
    kept = [(r, c, v) for (r, c), v in sums.items() if v != 0]
    want = [np.cumsum([0] + [sum(r == i for r, _, _ in kept) for i in range(7)]),
            np.array([c for _, c, _ in kept], dtype=np.int64),
            np.array([v for _, _, v in kept], dtype=complex),
            np.array([r for r, _, _ in kept], dtype=np.int64)]
    if case == "duplicates":
        assert sums[2, 0] == (0.1 + 0.2) + 0.3 != 0.6
        assert (6, 4) not in [(r, c) for r, c, _ in kept]
    made = fock.CSRMatrix.from_triples(rows, cols, vals, (7, 5))
    places = rows * 5 + cols
    for seed in range(4):  # places in a random order, each place's values in theirs
        rank = np.random.default_rng(seed).permutation(35)[places]
        order = np.argsort(rank, kind="stable")
        shuffled = fock.CSRMatrix.from_triples(rows[order], cols[order], vals[order], (7, 5))
        for got in (made, shuffled):
            parts = (got.indptr, got.indices, got.data, got.rows)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(parts, want)), (case, seed)
    if case != "duplicates" and not zeros:  # sorted, nothing dropped: kept as given
        assert made.rows is rows and made.indices is cols and made.data is vals
