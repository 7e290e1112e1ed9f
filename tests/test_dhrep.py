"""Standardizing transforms, transformed operators, and locality diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import grid_directions
from dhlab import dhrep, fock, model
from dhlab.checks import Table
from dhlab.errors import SignConstraintError
from dhlab.fock import matrix_exponential, operator_distance, vacuum_state
from dhlab.model import (
    REGION_3_OCC,
    REGIONS_23_OCC,
    SpinDirection,
    build_state,
    evolve,
    spin_correlation,
    spin_expectation,
    unentangled_state,
)

ALL_SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))


def test_factor_params():
    f = dhrep.DhFactorParams.from_sign(-1, g=2.0)
    assert f.sign == -1
    assert abs(math.cos(f.theta * f.g)) <= 1e-12
    with pytest.raises(ValueError):
        dhrep.DhFactorParams(g=1.0, theta=0.3)
    with pytest.raises(ValueError):
        dhrep.DhFactorParams.from_sign(0)


def test_removal_generator_actions(cfg0):
    g1, g2, g3 = 1.3, 0.7, 2.1
    psi_un = unentangled_state(cfg0)
    psi_23 = build_state(cfg0, REGIONS_23_OCC)
    psi_3 = build_state(cfg0, REGION_3_OCC)
    vac = cfg0.vacuum()
    w1 = dhrep.removal_generator(cfg0, "up", 1, 1, g1)
    w2 = dhrep.removal_generator(cfg0, "down", 2, 2, g2)
    w3 = dhrep.removal_generator(cfg0, "down", 3, 3, g3)
    # the six displayed actions, with their exact signs
    assert (w1 @ psi_un - g1 * psi_23).norm() == 0.0
    assert (w1 @ psi_23 + g1 * psi_un).norm() == 0.0
    assert (w2 @ psi_23 + g2 * psi_3).norm() == 0.0
    assert (w2 @ psi_3 - g2 * psi_23).norm() == 0.0
    assert (w3 @ psi_3 - g3 * vac).norm() == 0.0
    assert (w3 @ vac + g3 * psi_3).norm() == 0.0
    for w in (w1, w2, w3):
        assert (w + w.dagger()).max_abs() == 0.0  # skew-Hermitian


def test_intermediate_rotation_action(cfg0):
    # exp(theta W1)|psi_un> = cos(theta g)|psi_un> + sin(theta g)|psi_23>
    g, theta = 1.0, 0.3
    w1 = dhrep.removal_generator(cfg0, "up", 1, 1, g)
    psi_un = unentangled_state(cfg0)
    psi_23 = build_state(cfg0, REGIONS_23_OCC)
    got = dhrep.rotation_exponential(w1, theta, g) @ psi_un
    expected = math.cos(theta * g) * psi_un + math.sin(theta * g) * psi_23
    assert (got - expected).norm() <= 1e-14


@pytest.mark.parametrize("sign", [1, -1])
def test_single_factor_actions(cfg0, sign):
    # V1|psi_un> = s1 |psi_23>, V2|psi_23> = -s2 |psi_3>, V3|psi_3> = s3 |0>
    factor = dhrep.DhFactorParams.from_sign(sign)
    psi_un = unentangled_state(cfg0)
    psi_23 = build_state(cfg0, REGIONS_23_OCC)
    psi_3 = build_state(cfg0, REGION_3_OCC)
    vac = cfg0.vacuum()
    w1 = dhrep.removal_generator(cfg0, "up", 1, 1, factor.g)
    w2 = dhrep.removal_generator(cfg0, "down", 2, 2, factor.g)
    w3 = dhrep.removal_generator(cfg0, "down", 3, 3, factor.g)
    v1 = dhrep.rotation_exponential(w1, factor.theta, factor.g)
    v2 = dhrep.rotation_exponential(w2, factor.theta, factor.g)
    v3 = dhrep.rotation_exponential(w3, factor.theta, factor.g)
    assert (v1 @ psi_un - float(sign) * psi_23).norm() <= 1e-14
    assert (v2 @ psi_23 + float(sign) * psi_3).norm() <= 1e-14
    assert (v3 @ psi_3 - float(sign) * vac).norm() <= 1e-14


def test_sign_constraint_enforced(cfg0):
    for signs in ((1, 1, 1), (-1, -1, 1), (1, -1, -1)):
        with pytest.raises(SignConstraintError):
            dhrep.build_unentangled_transform(cfg0, signs)


@pytest.mark.parametrize("signs", ALL_SIGNS)
def test_standardization_all_sign_assignments(cfg0, signs):
    t = dhrep.build_unentangled_transform(cfg0, signs)
    vac = cfg0.vacuum()
    psi_un = unentangled_state(cfg0)
    assert abs(vac.overlap(t.operator @ psi_un) - 1.0) <= 1e-10
    ident = fock.identity_operator(cfg0.registry)
    assert operator_distance(t.operator @ t.operator.dagger(), ident) <= 1e-10
    assert t.signs == signs
    assert t.flavor == "unentangled"
    # the two-step transform standardizes the evolved state for every
    # admissible sign assignment as well
    cfg = dataclasses.replace(cfg0, kappa=0.05)
    t_en = dhrep.build_entangled_transform(cfg, dhrep.build_unentangled_transform(cfg, signs))
    exact = evolve(cfg, unentangled_state(cfg), "exact")
    assert (t_en.operator @ exact - vac).norm() <= 1e-10


@pytest.mark.parametrize("cfg_name", ["cfg0", "cfg_probe"])
@pytest.mark.parametrize("signs", ALL_SIGNS)
def test_unentangled_transform_is_a_signed_permutation(request, cfg_name, signs):
    # every factor is pinned at cos(theta g) = 0, so V_un only permutes the
    # Fock basis up to signs and stores no cos(fl(pi/2)) residue
    cfg = request.getfixturevalue(cfg_name)
    v = dhrep.build_unentangled_transform(cfg, signs).operator
    assert v.matrix.nnz == cfg.registry.dimension
    assert np.all(np.abs(v.matrix.data) == 1.0)
    assert np.array_equal((v @ unentangled_state(cfg)).amplitudes, cfg.vacuum().amplitudes)
    assert (v @ v.dagger() - fock.identity_operator(cfg.registry)).max_abs() == 0.0


def test_entangled_transform_sparsity(t_en05, t_en_probe):
    # V_un exp(iG) at kappa 0.05: the signed permutation spreads only the
    # entangler's 2x2 exchange blocks
    assert t_en05.operator.matrix.nnz == 576
    assert t_en_probe.operator.matrix.nnz == 2304


def test_nan_transform_fails_unitarity_gate(cfg0, t_un0):
    # a NaN deviation compares False against the tolerance; it must still fail
    m = t_un0.operator.matrix
    data = m.data.copy()
    data[0] = np.nan
    matrix = fock.CSRMatrix(m.indptr, m.indices, data, m.shape)
    with pytest.raises(ValueError):
        dhrep.DhTransform(operator=fock.FockOperator(cfg0.registry, matrix),
                          factors=t_un0.factors)


def test_rotation_fast_path_matches_generic_expm(cfg0, cfg05):
    f = dhrep.DhFactorParams.from_sign(1, g=1.4)
    w = dhrep.removal_generator(cfg0, "down", 2, 2, f.g)
    fast = dhrep.rotation_exponential(w, f.theta, f.g)
    generic = matrix_exponential(f.theta * w)
    assert operator_distance(fast, generic) <= 1e-12
    fast_en = dhrep.entangler_exponential(cfg05)
    generic_en = matrix_exponential(1j * model.entangling_generator(cfg05))
    assert operator_distance(fast_en, generic_en) <= 1e-12


def test_exact_evolution_matches_entangler_closed_form(cfg_probe):
    # Probe-carrying registry (dim 2048): the generic action exp(-iG)|psi>
    # against the closed form exp(iG)^dagger |psi>.
    psi = unentangled_state(cfg_probe)
    closed = dhrep.entangler_exponential(cfg_probe).dagger() @ psi
    assert evolve(cfg_probe, psi, "exact").distance(closed) <= 1e-12


def test_conjugation_identities(cfg0, t_un0):
    ident = fock.identity_operator(cfg0.registry)
    assert operator_distance(dhrep.conjugate(t_un0, ident), ident) <= 1e-12
    s1, s2, s3 = (float(s) for s in t_un0.signs)
    # packet-smeared closed forms of the transformed annihilators
    assert operator_distance(
        dhrep.conjugate(t_un0, cfg0.b("up", 1)), s1 * cfg0.adag(1)) <= 1e-13
    assert operator_distance(
        dhrep.conjugate(t_un0, cfg0.b("down", 2)), s2 * cfg0.adag(2)) <= 1e-13
    assert operator_distance(
        dhrep.conjugate(t_un0, cfg0.b("down", 3)), s3 * cfg0.adag(3)) <= 1e-13
    # modes holding no quantum are untouched
    for op in (cfg0.b("down", 1), cfg0.b("up", 2), cfg0.b("up", 3)):
        assert operator_distance(dhrep.conjugate(t_un0, op), op) <= 1e-13


def test_probe_mode_is_invariant(cfg_probe, t_un_probe, t_en_probe):
    for spin in ("up", "down"):
        p = cfg_probe.annihilator(cfg_probe.probe_mode(0, spin))
        assert operator_distance(dhrep.conjugate(t_un_probe, p), p) <= 1e-12
        assert operator_distance(dhrep.conjugate(t_en_probe, p), p) <= 1e-12


def test_spectrum_preserved_under_conjugation(cfg0, t_un0):
    s = model.localized_spin_operator(cfg0, 1, SpinDirection(0.8, 2.3))
    conjugated = dhrep.conjugate(t_un0, s)
    ev_a = s.eigenvalues()
    ev_b = conjugated.eigenvalues()
    assert np.abs(ev_a - ev_b).max() <= 1e-10


def test_entangled_transform(cfg05, t_un05, t_en05):
    # kappa = 0 reduces the two-step transform to the base transform
    cfg0k = dataclasses.replace(cfg05, kappa=0.0)
    t0 = dhrep.build_entangled_transform(cfg0k, dhrep.build_unentangled_transform(cfg0k))
    base = dhrep.build_unentangled_transform(cfg0k)
    assert operator_distance(t0.operator, base.operator) <= 1e-12
    assert t_en05.flavor == "entangled"
    with pytest.raises(ValueError):
        dhrep.build_entangled_transform(cfg05, t_en05)
    psi_exact = evolve(cfg05, unentangled_state(cfg05), "exact")
    assert (t_en05.operator @ psi_exact - cfg05.vacuum()).norm() <= 1e-10


@pytest.mark.parametrize("kappa", [0.02, 0.05, 0.1])
def test_first_order_vs_exact_conjugation(kappa):
    cfg = model.standard_config(kappa=kappa)
    base = dhrep.build_unentangled_transform(cfg)
    t_en = dhrep.build_entangled_transform(cfg, base)
    # second-order Frobenius remainder measured at 9 modes: 4.00 kappa^2 per
    # packet-mode operator; recorded bound C = 8.
    ops = (cfg.b("up", 1), cfg.b("down", 2))
    for op, first in zip(ops, dhrep.first_order_entangled_conjugate(cfg, base, ops)):
        exact = dhrep.conjugate(t_en, op)
        assert operator_distance(exact, first) <= 8.0 * kappa**2


def test_sections_usual_composition(cfg_probe):
    x = cfg_probe.layout.centers[0]
    section = dhrep.field_section(cfg_probe, x, dhrep.section_modes(cfg_probe, "up"))
    psi = cfg_probe.layout.packet_values(x)
    chi = cfg_probe.layout.probe_values(x)
    expected = (
        complex(psi[0]) * cfg_probe.b("up", 1)
        + complex(psi[1]) * cfg_probe.b("up", 2)
        + complex(psi[2]) * cfg_probe.b("up", 3)
        + complex(chi[0]) * cfg_probe.annihilator(cfg_probe.probe_mode(0, "up"))
    )
    assert operator_distance(section, expected) == 0.0


def test_sections_closed_form_equals_conjugation(cfg_probe, t_un_probe):
    pts = cfg_probe.layout.centers + (32.0, 10.0)
    for spin in ("up", "down"):
        closed = dhrep.closed_form_modes(cfg_probe, spin, t_un_probe)
        conj = [dhrep.conjugate(t_un_probe, m) for m in dhrep.section_modes(cfg_probe, spin)]
        for x in pts:
            assert operator_distance(dhrep.field_section(cfg_probe, x, closed),
                                     dhrep.field_section(cfg_probe, x, conj)) <= 1e-10


def test_sections_entangled_closed_form_equals_first_order(cfg_probe, t_un_probe, t_en_probe):
    pts = cfg_probe.layout.centers + (32.0,)
    k2 = cfg_probe.kappa**2
    for spin in ("up", "down"):
        modes = dhrep.section_modes(cfg_probe, spin)
        closed_modes = dhrep.closed_form_modes(cfg_probe, spin, t_en_probe)
        conj_modes = [dhrep.conjugate(t_en_probe, m) for m in modes]
        for x in pts:
            closed = dhrep.field_section(cfg_probe, x, closed_modes)
            usual = dhrep.field_section(cfg_probe, x, modes)
            [first] = dhrep.first_order_entangled_conjugate(cfg_probe, t_un_probe, [usual])
            assert operator_distance(closed, first) <= 1e-10
            # against exact conjugation the closed form is first-order only;
            # measured remainder 5.06 k^2 at 11 modes, bound C = 8
            conj = dhrep.field_section(cfg_probe, x, conj_modes)
            assert operator_distance(closed, conj) <= 8.0 * k2


def test_section_region3_spin_up_untouched(cfg_probe, t_un_probe, t_en_probe):
    x3_point = cfg_probe.layout.centers[2]

    def section(spin, transform=None):
        modes = (dhrep.section_modes(cfg_probe, spin) if transform is None
                 else dhrep.closed_form_modes(cfg_probe, spin, transform))
        return dhrep.field_section(cfg_probe, x3_point, modes)

    # no up-spin quantum lives in region 3: the transformed section is the
    # usual one, and the exchange terms vanish there for both spins
    assert operator_distance(section("up", t_un_probe), section("up")) <= 1e-12
    for spin in ("up", "down"):
        assert operator_distance(
            section(spin, t_en_probe), section(spin, t_un_probe)) <= 1e-10


def test_vacuum_actions_match_displayed_states(cfg_probe, t_un_probe, t_en_probe):
    pts = cfg_probe.layout.centers + (32.0,)
    closed = {(spin, t.flavor): dhrep.closed_form_modes(cfg_probe, spin, t)
              for spin in ("up", "down") for t in (t_un_probe, t_en_probe)}
    vac = cfg_probe.vacuum()
    s1, s2, s3 = (float(s) for s in t_un_probe.signs)
    k = cfg_probe.kappa
    for x in pts:
        closed_un = {spin: dhrep.field_section(cfg_probe, x, closed[spin, "unentangled"])
                     for spin in ("up", "down")}
        closed_en = {spin: dhrep.field_section(cfg_probe, x, closed[spin, "entangled"])
                     for spin in ("up", "down")}
        psi = cfg_probe.layout.packet_values(x)
        up = complex(psi[0]) * s1 * (cfg_probe.adag(1) @ vac)
        down = (complex(psi[1]) * s2 * (cfg_probe.adag(2) @ vac)
                + complex(psi[2]) * s3 * (cfg_probe.adag(3) @ vac))
        assert (dhrep.vacuum_action(closed_un["up"]) - up).norm() <= 1e-10
        assert (dhrep.vacuum_action(closed_un["down"]) - down).norm() <= 1e-10
        # daggered sections on the vacuum: the packet component is removed
        up_dag = (complex(np.conj(psi[1])) * (cfg_probe.bdag("up", 2) @ vac)
                  + complex(np.conj(psi[2])) * (cfg_probe.bdag("up", 3) @ vac)
                  + complex(np.conj(cfg_probe.layout.probe_values(x)[0]))
                  * (cfg_probe.creator(cfg_probe.probe_mode(0, "up")) @ vac))
        got = dhrep.vacuum_action(closed_un["up"].dagger())
        assert (got - up_dag).norm() <= 1e-10
        # entangled actions gain one exchange term per spin
        pair = cfg_probe.adag(1) @ (cfg_probe.adag(2) @ vac)
        en_up = up - s1 * s2 * k * complex(psi[1]) * (cfg_probe.bdag("down", 1) @ pair)
        en_down = down + s1 * s2 * k * complex(psi[0]) * (cfg_probe.bdag("up", 2) @ pair)
        assert (dhrep.vacuum_action(closed_en["up"]) - en_up).norm() <= 1e-10
        assert (dhrep.vacuum_action(closed_en["down"]) - en_down).norm() <= 1e-10


def test_pure_creator_vacuum_norm(cfg0):
    coeff = 0.3 - 0.4j
    op = coeff * cfg0.bdag("up", 2)
    assert dhrep.vacuum_action(op).norm() == pytest.approx(abs(coeff))


def test_dh_vacuum_spin_and_correlation(cfg0, t_un0, cfg05, t_en05):
    # unentangled: vacuum matrix elements reproduce the eigenvalues
    for region, expected in ((1, 1.0), (2, -1.0), (3, -1.0)):
        got = dhrep.dh_vacuum_spin(cfg0, t_un0, region, SpinDirection.x3())
        assert abs(got - expected) <= 1e-10
    d = SpinDirection(0.9, 0.7)
    assert abs(dhrep.dh_vacuum_spin(cfg0, t_un0, 1, d) - d.u3) <= 1e-10

    x3, x1 = SpinDirection.x3(), SpinDirection.x1()
    k = cfg05.kappa
    # (1,2) along x3: the exchange terms cancel, the correlation stays -1
    assert abs(dhrep.dh_vacuum_correlation(cfg05, t_en05, 1, x3, 2, x3) + 1.0) <= 1e-10
    # (1,2) along x1: first-order value -2k
    assert abs(dhrep.dh_vacuum_correlation(cfg05, t_en05, 1, x1, 2, x1) + 2.0 * k) <= k**2
    # (3,1): unchanged unentangled form at first order
    da, db = SpinDirection(0.4, 5.0), SpinDirection(2.0, 1.1)
    closed = model.correlation_closed_form(3, 1, da, db, k)
    assert abs(dhrep.dh_vacuum_correlation(cfg05, t_en05, 3, da, 1, db) - closed) <= 5 * k**2
    with pytest.raises(ValueError):
        dhrep.dh_vacuum_correlation(cfg0, t_un0, 2, x3, 2, x3)


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.1])
def test_dh_equivalence_against_usual(kappa):
    cfg = model.standard_config(kappa=kappa)
    base = dhrep.build_unentangled_transform(cfg)
    transform = dhrep.build_entangled_transform(cfg, base) if kappa else base
    psi = unentangled_state(cfg)
    exact = evolve(cfg, psi, "exact")
    first = evolve(cfg, psi, "first")
    dirs = grid_directions(4, 3)
    tol = kappa**2 + 1e-10
    for region in (1, 2, 3):
        for d in dirs:
            dh = dhrep.dh_vacuum_spin(cfg, transform, region, d)
            assert abs(dh - spin_expectation(cfg, exact, region, d)) <= 1e-10
            assert abs(dh - spin_expectation(cfg, first, region, d)) <= tol
    for (ra, rb) in ((1, 2), (2, 3)):
        for da in dirs[::2]:
            for db in dirs[::2]:
                dh = dhrep.dh_vacuum_correlation(cfg, transform, ra, da, rb, db)
                assert abs(dh - spin_correlation(cfg, exact, ra, da, rb, db)) <= 1e-10
                assert abs(dh - spin_correlation(cfg, first, ra, da, rb, db)) <= tol


def test_locality_report_unentangled(cfg_probe, t_un_probe):
    report = dhrep.locality_report(cfg_probe, t_un_probe)
    assert all(report["local_ok"])
    by_key = {(r["point"], r["spin"]): r for r in Table(report).rows()}
    # spin-up sections in region 3 and at the probe point are untouched
    assert by_key[(20.0, "up")]["distance"] <= 1e-10
    assert by_key[(32.0, "up")]["distance"] <= 1e-10
    assert by_key[(32.0, "down")]["distance"] <= 1e-10
    assert by_key[(32.0, "down")]["outside_support"]
    # where the quantum lives, the transformed operator differs at order one
    assert by_key[(-20.0, "up")]["distance"] > 1.0


def test_locality_report_entangled_cross_term(cfg_probe, t_en_probe):
    report = dhrep.locality_report(cfg_probe, t_en_probe)
    assert all(report["local_ok"])
    by_key = {(r["point"], r["spin"]): r for r in Table(report).rows()}
    # the exchange coupling leaks the partner region's support at order kappa
    assert by_key[(0.0, "up")]["distance"] >= 5.0 * cfg_probe.kappa
    assert by_key[(-20.0, "down")]["distance"] >= 5.0 * cfg_probe.kappa
    # but region 3 and the probe stay clean
    assert by_key[(20.0, "up")]["distance"] <= 1e-10
    assert by_key[(32.0, "up")]["distance"] <= 1e-10


@pytest.mark.parametrize("flavor", ["unentangled", "entangled"])
def test_locality_holds_across_the_grid(cfg_probe, t_un_probe, t_en_probe, flavor):
    transform = t_un_probe if flavor == "unentangled" else t_en_probe
    points = tuple(float(x) for x in cfg_probe.layout.grid.points)
    report = dhrep.locality_report(cfg_probe, transform, points=points)
    assert all(report["local_ok"])
    outside = np.array(report["outside_support"])
    assert outside.any()
    leaks = report["distance"][outside]
    assert np.all(leaks <= 1e-10), (report["point"][outside], leaks)


def test_locality_report_columns(cfg_probe, t_un_probe):
    # the centers, then the midpoints between them, then the probe point, each
    # for spin up and then spin down
    report = dhrep.locality_report(cfg_probe, t_un_probe)
    assert list(report) == ["point", "spin", "representation", "distance",
                            "packet_magnitudes", "relevant_magnitude", "outside_support",
                            "local_ok"]
    assert np.array_equal(report["point"], np.repeat([-20.0, 0.0, 20.0, -10.0, 10.0, 32.0], 2))
    assert report["spin"] == ["up", "down"] * 6


@pytest.mark.parametrize("flavor", ["unentangled", "entangled"])
def test_section_norms_match_the_per_point_sections(cfg_probe, t_un_probe, t_en_probe, flavor):
    # oracle: build the sparse section at every grid point and take its norm
    transform = t_un_probe if flavor == "unentangled" else t_en_probe
    points = tuple(float(x) for x in cfg_probe.layout.grid.points)
    for spin in fock.SPINS:
        moved = [dhrep.conjugate(transform, m) - m for m in dhrep.section_modes(cfg_probe, spin)]
        got = dhrep.section_norms(cfg_probe, points, moved)
        want = np.array([dhrep.field_section(cfg_probe, x, moved).norm() for x in points])
        assert got.shape == want.shape and want.max() > 0.1
        assert np.all(np.abs(got - want) <= 1e-13 * want), (spin, np.abs(got - want).max())


def test_section_norms_sum_duplicate_entries(cfg_probe):
    # a matrix holding one entry twice counts as its sum, as in a sparse sum
    dim = cfg_probe.registry.dimension
    dup = fock.FockOperator(cfg_probe.registry, fock.CSRMatrix.from_triples(
        np.array([0, 0, 0]), np.array([5, 5, 7]), np.array([1.0, 2.0, 1j]), (dim, dim)))
    modes = [dup] + dhrep.section_modes(cfg_probe, "up")[1:]
    x = cfg_probe.layout.centers[0]
    assert dhrep.section_norms(cfg_probe, (x,), modes)[0] == pytest.approx(
        dhrep.field_section(cfg_probe, x, modes).norm(), rel=1e-15)


@pytest.mark.parametrize("flavor", ["unentangled", "entangled"])
def test_locality_report_matches_per_point_conjugation(cfg_probe, t_un_probe, t_en_probe,
                                                       flavor):
    # oracle: conjugate the whole usual section at each point
    transform = t_un_probe if flavor == "unentangled" else t_en_probe
    rows = Table(dhrep.locality_report(cfg_probe, transform)).rows()
    assert len(rows) == 12
    for row in rows:
        point, spin = row["point"], row["spin"]
        usual = dhrep.field_section(cfg_probe, point, dhrep.section_modes(cfg_probe, spin))
        oracle = operator_distance(dhrep.conjugate(transform, usual), usual)
        assert row["distance"] == pytest.approx(oracle, rel=1e-12, abs=1e-14), (point, spin)


def test_noaux_transform_actions():
    cfg = dhrep.single_packet_config(20.0)
    psi1 = dhrep.single_particle_state(cfg)
    vac = vacuum_state(cfg.registry)
    theta = math.pi / 3.0
    rotated = dhrep.rotation_exponential(dhrep._noaux_generator(cfg), theta, 1.0) @ psi1
    expected = math.cos(theta) * psi1 + math.sin(theta) * vac
    assert (rotated - expected).norm() <= 1e-14
    t = dhrep.noaux_transform(cfg)
    assert (t.operator @ psi1 - vac).norm() <= 1e-14


def test_noaux_locality_contrast():
    report = dhrep.noaux_locality_report(separations=(10.0, 20.0, 40.0))
    assert np.all(report["noaux_probe_operator_distance"] > 0.1)
    assert np.all(report["noaux_section_distance"] > 0.1)
    assert np.all(report["aux_probe_operator_distance"] <= 1e-12)
    assert np.all(report["aux_section_distance"] <= 1e-10)
    # the bare construction's probe distance equals 2*sqrt(2) exactly: the
    # conjugated probe operator is just the negated probe operator
    assert report["noaux_probe_operator_distance"][0] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12)
    assert np.ptp(report["noaux_section_distance"]) <= 1e-10


def _noaux_rows_rebuilt_per_separation(separations, width):
    # oracle: the config, the transform and the section rebuilt for every
    # separation and every construction
    rows = []
    for sep in separations:
        row = {"separation": float(sep)}
        for with_aux, prefix in ((False, "noaux"), (True, "aux")):
            cfg = dhrep.single_packet_config(sep, width, with_auxiliary=with_aux)
            v = dhrep.noaux_transform(cfg)
            probe = cfg.probe()
            row[f"{prefix}_probe_operator_distance"] = operator_distance(
                dhrep.conjugate(v, probe), probe)
            section = (cfg.packet.value_at(cfg.probe_point) * cfg.b()
                       + cfg.probe_function.value_at(cfg.probe_point) * probe)
            row[f"{prefix}_section_distance"] = operator_distance(
                dhrep.conjugate(v, section), section)
        rows.append(row)
    return rows


@pytest.mark.parametrize("separations, width", [((10.0, 20.0, 40.0), 1.0), ((3.0, 36.5), 0.7)])
def test_noaux_report_matches_per_separation_rebuild(separations, width):
    rows = Table(dhrep.noaux_locality_report(separations, width)).rows()
    oracle = _noaux_rows_rebuilt_per_separation(separations, width)
    assert [row.keys() for row in rows] == [row.keys() for row in oracle]
    for row, expected in zip(rows, oracle):
        for key, value in expected.items():
            assert abs(row[key] - value) <= 1e-15, (key, row[key], value)


def test_noaux_report_builds_each_transform_once(monkeypatch):
    built = []
    original = dhrep.noaux_transform

    def counting(cfg, *args, **kwargs):
        built.append(cfg.with_auxiliary)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(dhrep, "noaux_transform", counting)
    dhrep.noaux_locality_report(separations=(10.0, 20.0, 40.0))
    assert sorted(built) == [False, True]
