"""Physical states, localized spin operators, and the entangling evolution."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AXES, PAIRS, assert_moments_match, grid_directions
from dhlab import dhrep, fock, model, qubits
from dhlab.checks import RunConfig, directions
from dhlab.errors import DuplicateOccupationError, LayoutError, PerturbativeRangeWarning
from dhlab.model import (
    EXCHANGED_OCC,
    FLIPPED_OCC,
    UNENTANGLED_OCC,
    OccupationDescriptor,
    SpinDirection,
    build_state,
    correlation_closed_form,
    entangling_generator,
    evolve,
    localized_spin_operator,
    rotated_creator,
    spin_correlation,
    spin_expectation,
    unentangled_state,
)


def test_spin_direction_validation():
    with pytest.raises(ValueError):
        SpinDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        SpinDirection(0.1, 7.0)
    d = SpinDirection(1.1, 2.2)
    assert np.linalg.norm(d.unit_vector) == pytest.approx(1.0, abs=1e-12)
    assert SpinDirection.x3().unit_vector == pytest.approx([0.0, 0.0, 1.0])
    assert SpinDirection.x1().unit_vector == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_unit_vector_is_computed_once_and_read_only():
    d = SpinDirection(1.1, 2.2)
    u = d.unit_vector
    assert d.unit_vector is u
    with pytest.raises(ValueError):
        u[0] = 0.0


def test_build_state_normalized_and_orthogonal(cfg0):
    states = [build_state(cfg0, UNENTANGLED_OCC)] + [
        build_state(cfg0, FLIPPED_OCC[r]) for r in (1, 2, 3)
    ]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert abs(si.overlap(sj) - expected) <= 1e-10


def test_duplicate_occupation_rejected():
    with pytest.raises(DuplicateOccupationError):
        OccupationDescriptor((("up", 1), ("up", 1)), (1, 2))
    with pytest.raises(DuplicateOccupationError):
        OccupationDescriptor((("up", 1),), (2, 2))


def test_spin_eigenvalues_along_x3(cfg0):
    psi = unentangled_state(cfg0)
    x3 = SpinDirection.x3()
    for region, eig in ((1, 1.0), (2, -1.0), (3, -1.0)):
        s = localized_spin_operator(cfg0, region, x3)
        assert (s @ psi - eig * psi).norm() <= 1e-10
        assert (s - s.dagger()).max_abs() == 0.0


def test_spin_action_general_direction(cfg0):
    # S_1 |psi_un> = cos t |psi_un> + sin t e^{+i p} |psi flipped in 1>,
    # and regions 2, 3 carry -cos t and e^{-i p} phases instead.
    psi = unentangled_state(cfg0)
    flips = {r: build_state(cfg0, FLIPPED_OCC[r]) for r in (1, 2, 3)}
    d = SpinDirection(0.7, 1.3)
    t, p = d.theta, d.phi
    expected = {
        1: math.cos(t) * psi + math.sin(t) * cmath.exp(1j * p) * flips[1],
        2: -math.cos(t) * psi + math.sin(t) * cmath.exp(-1j * p) * flips[2],
        3: -math.cos(t) * psi + math.sin(t) * cmath.exp(-1j * p) * flips[3],
    }
    for region, target in expected.items():
        got = localized_spin_operator(cfg0, region, d) @ psi
        assert (got - target).norm() <= 1e-14


def test_spin_operators_commute_across_regions(cfg0):
    da, db = SpinDirection(0.7, 1.3), SpinDirection(2.1, 4.4)
    for ra, rb in ((1, 2), (2, 3), (3, 1)):
        sa = localized_spin_operator(cfg0, ra, da)
        sb = localized_spin_operator(cfg0, rb, db)
        assert fock.commutator(sa, sb).max_abs() == 0.0


def test_rotated_creator(cfg0):
    assert fock.operator_distance(
        rotated_creator(cfg0, 1, "up", SpinDirection.x3()), cfg0.bdag("up", 1)
    ) == 0.0
    along_x1 = rotated_creator(cfg0, 1, "up", SpinDirection.x1())
    expected = (1.0 / math.sqrt(2.0)) * (cfg0.bdag("up", 1) + cfg0.bdag("down", 1))
    assert fock.operator_distance(along_x1, expected) <= 1e-13
    ident = fock.identity_operator(cfg0.registry)
    for d in (SpinDirection(0.4, 0.9), SpinDirection(2.2, 5.1), SpinDirection.x2()):
        for spin in ("up", "down"):
            cdag = rotated_creator(cfg0, 2, spin, d)
            assert fock.operator_distance(
                fock.anticommutator(cdag.dagger(), cdag), ident
            ) <= 1e-13
    with pytest.raises(ValueError):
        rotated_creator(cfg0, 1, "left", SpinDirection.x3())


def test_entangling_generator_action(cfg05):
    g = entangling_generator(cfg05)
    psi = unentangled_state(cfg05)
    exch = build_state(cfg05, EXCHANGED_OCC)
    assert (g @ psi - (-1j * cfg05.kappa) * exch).norm() <= 1e-14
    assert (g @ cfg05.vacuum()).norm() == 0.0
    assert (g - g.dagger()).max_abs() == 0.0  # Hermitian generator
    # the cached kappa-free operator gives the product of the docstring exactly
    t1 = cfg05.bdag("down", 1) @ cfg05.bdag("up", 2) @ cfg05.b("down", 2) @ cfg05.b("up", 1)
    t2 = cfg05.bdag("up", 1) @ cfg05.bdag("down", 2) @ cfg05.b("up", 2) @ cfg05.b("down", 1)
    assert (g - (-1j * cfg05.kappa) * (t1 - t2)).max_abs() == 0.0


def test_evolve_kappa_zero_is_identity(cfg0):
    psi = unentangled_state(cfg0)
    assert (evolve(cfg0, psi, "first") - psi).norm() == 0.0
    assert (evolve(cfg0, psi, "exact") - psi).norm() <= 1e-14


def test_evolve_first_matches_exact_to_second_order(cfg05):
    psi = unentangled_state(cfg05)
    first = evolve(cfg05, psi, "first")
    exact = evolve(cfg05, psi, "exact")
    # components differ by cos k - 1 ~ k^2/2 and k - sin k ~ k^3/6
    assert (exact - first).norm() <= cfg05.kappa**2
    assert abs(psi.overlap(exact) - math.cos(cfg05.kappa)) <= 1e-10
    assert psi.overlap(exact).real == pytest.approx(0.9987502603949663, abs=1e-12)


def test_evolve_guard_warning():
    cfg = model.standard_config(kappa=0.3)
    psi = unentangled_state(cfg)
    with pytest.warns(PerturbativeRangeWarning):
        evolve(cfg, psi, "first")
    evolve(cfg, psi, "exact")  # no warning on the exact path


def test_spin_expectations_on_entangled_state(cfg05):
    psi = unentangled_state(cfg05)
    first = evolve(cfg05, psi, "first")
    k2 = cfg05.kappa**2
    for d in (SpinDirection(0.8, 0.4), SpinDirection.x3()):
        # first-order closed forms: +u3, -u3, -u3; true values differ at 2k^2
        assert abs(spin_expectation(cfg05, first, 1, d) - d.u3) <= 2.1 * k2
        assert abs(spin_expectation(cfg05, first, 2, d) + d.u3) <= 2.1 * k2
        assert abs(spin_expectation(cfg05, first, 3, d) + d.u3) <= 1e-10
    assert abs(spin_expectation(cfg05, psi, 2, SpinDirection.x1())) <= 1e-12


def test_unentangled_correlations_closed_forms(cfg0):
    psi = unentangled_state(cfg0)
    for da in grid_directions(4, 3):
        for db in grid_directions(3, 4):
            for ra, rb in ((1, 2), (2, 3), (3, 1)):
                got = spin_correlation(cfg0, psi, ra, da, rb, db)
                assert abs(got - correlation_closed_form(ra, rb, da, db, 0.0)) <= 1e-10


def _scalar_closed_forms(ua, ub, kappa, second_order):
    """The (1,2), (2,3), (3,1) closed forms of one direction pair, written out
    with the dot as ua @ ub: the reference the grids must reproduce."""
    c = 1.0 - 2.0 * kappa**2 if second_order else 1.0
    return (-(1.0 - 2.0 * kappa) * ua[2] * ub[2] - 2.0 * kappa * float(ua @ ub),
            c * ua[2] * ub[2], -c * ua[2] * ub[2])


@pytest.mark.parametrize("kappa", [0.0, 0.02, 0.1, 0.2])
@pytest.mark.parametrize("mode", ["grid", "random"])
@pytest.mark.parametrize("module", [model, qubits], ids=["model", "qubits"])
def test_closed_form_grid_equals_the_per_direction_forms(module, mode, kappa):
    # Exact equality, signs of zeros included: on OpenBLAS 0.3 the grid's gemm
    # and the one-pair dot sum the three products alike.  A BLAS that orders
    # them otherwise would need a 2-ulp bound here.
    dirs = directions(RunConfig(direction_mode=mode, seed=7))
    grid = module.correlation_closed_grid(dirs, dirs, kappa)
    per_direction = np.array([[[module.correlation_closed_form(a, b, da, db, kappa)
                                for db in dirs] for da in dirs] for a, b in PAIRS])
    scalar = np.array([[_scalar_closed_forms(da.unit_vector, db.unit_vector, kappa,
                                             module is qubits) for db in dirs] for da in dirs])
    scalar = scalar.transpose(2, 0, 1)
    assert grid.shape == (len(PAIRS), len(dirs), len(dirs))
    assert np.array_equal(grid, per_direction) and np.array_equal(grid, scalar)
    assert np.array_equal(np.signbit(grid), np.signbit(scalar))


def test_closed_form_rejects_a_pair_outside_the_regions():
    x3 = SpinDirection.x3()
    for bad in ((1, 1), (0, 2), (3, 4)):
        with pytest.raises(ValueError):
            correlation_closed_form(*bad, x3, x3)
        with pytest.raises(ValueError):
            qubits.correlation_closed_form(*bad, x3, x3, 0.1)


def test_same_region_correlation_rejected(cfg0):
    psi = unentangled_state(cfg0)
    with pytest.raises(ValueError):
        spin_correlation(cfg0, psi, 2, SpinDirection.x3(), 2, SpinDirection.x1())


def test_entangled_correlation_example(cfg05):
    # (1,2) along x1 at k=0.05: first-order closed form -2k = -0.1.
    psi = unentangled_state(cfg05)
    exact = evolve(cfg05, psi, "exact")
    x1 = SpinDirection.x1()
    got = spin_correlation(cfg05, exact, 1, x1, 2, x1)
    assert abs(got - (-0.1)) <= 2.5e-3
    # (2,3) keeps its unentangled first-order value
    x3 = SpinDirection.x3()
    assert abs(spin_correlation(cfg05, exact, 2, x3, 3, x3) - 1.0) <= 5 * cfg05.kappa**2


@pytest.mark.parametrize("kappa", [0.02, 0.05, 0.1])
def test_exact_vs_first_order_closed_forms(kappa):
    cfg = model.standard_config(kappa=kappa)
    psi = unentangled_state(cfg)
    exact = evolve(cfg, psi, "exact")
    dirs = grid_directions(4, 4)
    sa = {
        (r, i): localized_spin_operator(cfg, r, d) @ exact
        for r in (1, 2, 3)
        for i, d in enumerate(dirs)
    }
    for ra, rb in ((1, 2), (2, 3), (3, 1)):
        for i, da in enumerate(dirs):
            for j, db in enumerate(dirs):
                got = sa[ra, i].overlap(sa[rb, j]).real
                closed = correlation_closed_form(ra, rb, da, db, kappa)
                assert abs(got - closed) <= 5.0 * kappa**2


def test_auxiliary_functions_do_not_move_observables(cfg05):
    # Any normalized auxiliary wavefunction choice leaves every expectation
    # unchanged; the modes are defined by the functions but never observed.
    from dhlab import wavepackets as wp

    grid = wp.uniform_grid(-35.0, 35.0, 1401)
    alt_aux = tuple(wp.gaussian_packet(c, 2.0, grid) for c in (-8.0, 3.0, 11.0))
    layout = wp.standard_layout(aux_functions=alt_aux)
    cfg_alt = model.standard_config(kappa=0.05, layout=layout)
    psi_a = evolve(cfg05, unentangled_state(cfg05), "exact")
    psi_b = evolve(cfg_alt, unentangled_state(cfg_alt), "exact")
    d1, d2 = SpinDirection(0.9, 0.2), SpinDirection(1.7, 3.9)
    for region in (1, 2, 3):
        assert abs(
            spin_expectation(cfg05, psi_a, region, d1)
            - spin_expectation(cfg_alt, psi_b, region, d1)
        ) <= 1e-10
    assert abs(
        spin_correlation(cfg05, psi_a, 1, d1, 2, d2)
        - spin_correlation(cfg_alt, psi_b, 1, d1, 2, d2)
    ) <= 1e-10


def test_entanglement_detection(cfg0, cfg05):
    psi0 = unentangled_state(cfg0)
    assert not model.is_entangled(cfg0, psi0)
    exact = evolve(cfg05, unentangled_state(cfg05), "exact")
    c0, c1, residual = model.entanglement_overlaps(cfg05, exact)
    assert c0.real == pytest.approx(math.cos(0.05), abs=1e-12)
    assert c1.real == pytest.approx(-math.sin(0.05), abs=1e-12)
    assert residual <= 1e-12
    assert model.is_entangled(cfg05, exact)


def test_layout_gates_enforced():
    from dhlab import wavepackets as wp

    grid = wp.uniform_grid(-35.0, 35.0, 1401)
    overlapping = wp.standard_layout(centers=(-2.0, 0.0, 2.0))
    with pytest.raises(LayoutError):
        model.standard_config(layout=overlapping)


# --- spin-moment tensor kernel ----------------------------------------------

spin_directions = st.builds(
    SpinDirection, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)
)


@pytest.fixture(scope="module")
def kernel_cases(cfg05, t_en05):
    """(moments, expectation, correlation) for the usual exact and
    first-order states at kappa = 0.05, a generic normalized state, and the
    DH vacuum: the kernel's moments next to the direct per-direction
    evaluators.  The generic state has moments along every axis, so a
    transposed or mis-signed component shows."""
    psi = unentangled_state(cfg05)
    rng = np.random.default_rng(5)
    amps = np.array([1.0, 1j]) @ rng.standard_normal((2, cfg05.registry.dimension))
    generic = fock.FockState(cfg05.registry, amps).normalized()
    cases = []
    for state in (evolve(cfg05, psi, "exact"), evolve(cfg05, psi, "first").normalized(), generic):
        cases.append((
            model.state_moments(cfg05, state),
            lambda r, d, s=state: spin_expectation(cfg05, s, r, d),
            lambda ra, da, rb, db, s=state: spin_correlation(cfg05, s, ra, da, rb, db),
        ))
    cases.append((
        dhrep.dh_vacuum_moments(cfg05, t_en05),
        lambda r, d: dhrep.dh_vacuum_spin(cfg05, t_en05, r, d),
        lambda ra, da, rb, db: dhrep.dh_vacuum_correlation(cfg05, t_en05, ra, da, rb, db),
    ))
    return cases


def test_spin_components_span_localized_spin(cfg0):
    for region in (1, 2, 3):
        sx, sy, sz = model.spin_components(cfg0, region)
        for d in AXES + (SpinDirection(0.7, 4.0),):
            u = d.unit_vector
            direct = localized_spin_operator(cfg0, region, d)
            assert fock.operator_distance(u[0] * sx + u[1] * sy + u[2] * sz, direct) <= 1e-15


def test_spin_stacks_are_the_separate_products(cfg05):
    # one product with the stacked operator, bit for bit the nine separate ones
    psi = evolve(cfg05, unentangled_state(cfg05), "exact")
    stacks = model.spin_stacks(cfg05, psi)
    for region, stack in zip((1, 2, 3), stacks):
        loop = np.array([(s @ psi).amplitudes for s in model.spin_components(cfg05, region)]).T
        assert np.array_equal(stack, loop)


def test_kernel_matches_direct_evaluators_on_axes(kernel_cases):
    for moments, expectation, correlation in kernel_cases:
        assert_moments_match(moments, expectation, correlation, AXES)


@settings(max_examples=15, deadline=None)
@given(da=spin_directions, db=spin_directions)
def test_kernel_matches_direct_evaluators_on_drawn_directions(kernel_cases, da, db):
    for moments, expectation, correlation in kernel_cases:
        assert_moments_match(moments, expectation, correlation, (da, db))


def test_kernel_tensor_identities_at_kappa_zero(cfg0, t_un0):
    # C_12 = -e3 e3^T, C_23 = +e3 e3^T, C_31 = -e3 e3^T with no rounding, in
    # the usual representation and read from the DH vacuum alike
    e3e3 = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    expected = {(1, 2): -e3e3, (2, 3): e3e3, (3, 1): -e3e3}
    for m, c in (model.state_moments(cfg0, unentangled_state(cfg0)),
                 dhrep.dh_vacuum_moments(cfg0, t_un0)):
        assert np.array_equal(m, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
        for a, b in PAIRS:
            assert np.array_equal(c[a - 1, b - 1], expected[a, b])


def test_spin_moments_reject_complex_values():
    bra = np.array([1.0, 0.0], dtype=complex)
    real = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    m, c = model.spin_moments(bra, [real, real])
    assert np.array_equal(m, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(c[0, 1], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ArithmeticError):  # an imaginary expectation
        model.spin_moments(bra, [1j * real, real])
    with pytest.raises(ArithmeticError):  # an imaginary distinct-pair block
        model.spin_moments(np.zeros(2, dtype=complex), [1j * real, real])


def test_spin_moments_reject_a_nan_imaginary_part():
    # a NaN is no real moment; Python's max drops a NaN that follows a number,
    # and `nan > tol` is False, so the guard must reduce with numpy
    bra = np.array([1.0, 0.0], dtype=complex)
    real = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    nan_column = real.copy()
    nan_column[:, 2] = 1.0 + np.nan * 1j
    for stacks in ([real, nan_column], [nan_column, real]):
        with pytest.raises(ArithmeticError):
            model.spin_moments(bra, stacks)


@pytest.mark.parametrize("kappa", [0.02, 0.05, 0.1])
def test_first_order_correlation_tensors(kappa):
    # C_12 = -(1-2k) e3 e3^T - 2k I within the check-36 bound 5 k^2 (the
    # first-order identity as a tensor); the untouched pairs keep their
    # kappa = 0 tensors up to the 2 k^2 second-order decrease
    cfg = model.standard_config(kappa=kappa)
    c = model.state_moments(cfg, evolve(cfg, unentangled_state(cfg), "exact"))[1]
    e3e3 = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    c12 = -(1.0 - 2.0 * kappa) * e3e3 - 2.0 * kappa * np.eye(3)
    assert np.abs(c[0, 1] - c12).max() <= 5.0 * kappa**2
    assert np.abs(c[1, 2] - e3e3).max() <= 2.0 * kappa**2 + 1e-12
    assert np.abs(c[2, 0] + e3e3).max() <= 2.0 * kappa**2 + 1e-12
