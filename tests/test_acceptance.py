"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here; none are deferred to runtime calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import grid_directions
from dhlab import dhrep, fock, model, qubits
from dhlab import wavepackets as wp
from dhlab.fock import ModeRegistry, ProbeMode, anticommutator, mode_operator
from dhlab.model import SpinDirection, evolve, unentangled_state

KAPPAS = (0.02, 0.05, 0.1)
EXACT_TOL = 1e-10

_module_t0 = time.perf_counter()


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL - {label}")
        raise
    print(f"[criterion {number:02d}] PASS - {label} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_car_suite():
    with criterion(1, "CAR suite exact over a 10-mode registry, < 5 s"):
        t0 = time.perf_counter()
        registry = ModeRegistry(model.standard_registry().modes + (ProbeMode(1),))
        assert registry.size == 10
        ident = fock.identity_operator(registry)
        zero = fock.zero_operator(registry)
        ops = [
            (mode_operator(registry, m), mode_operator(registry, m, dagger=True))
            for m in registry.modes
        ]
        worst = 0.0
        for i, (ci, cid) in enumerate(ops):
            for j, (cj, cjd) in enumerate(ops):
                target = ident if i == j else zero
                worst = max(worst, (anticommutator(ci, cjd) - target).max_abs())
                worst = max(worst, anticommutator(ci, cj).max_abs())
                worst = max(worst, anticommutator(cid, cjd).max_abs())
        elapsed = time.perf_counter() - t0
        assert worst == 0.0, f"CAR deviation {worst}"
        assert elapsed < 5.0, f"CAR suite took {elapsed:.2f}s"


def test_criterion_02_standardization(cfg0):
    with criterion(2, "standardizing transforms reach the vacuum"):
        psi_un = unentangled_state(cfg0)
        vac = cfg0.vacuum()
        for t in dhrep.unentangled_transforms(
                cfg0, ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))).values():
            assert abs(vac.overlap(t.operator @ psi_un) - 1.0) <= EXACT_TOL
        for kappa in KAPPAS:
            cfg = model.standard_config(kappa=kappa)
            t_en = dhrep.build_entangled_transform(
                cfg, dhrep.build_unentangled_transform(cfg))
            psi_exact = evolve(cfg, unentangled_state(cfg), "exact")
            assert (t_en.operator @ psi_exact - cfg.vacuum()).norm() <= EXACT_TOL


def test_criterion_03_eigenvalues(cfg0):
    with criterion(3, "axis-aligned spin eigenvalues +1, -1, -1"):
        psi = unentangled_state(cfg0)
        x3 = SpinDirection.x3()
        for region, eig in ((1, 1.0), (2, -1.0), (3, -1.0)):
            s = model.localized_spin_operator(cfg0, region, x3)
            assert (s @ psi - eig * psi).norm() <= EXACT_TOL


def test_criterion_04_unentangled_correlations(cfg0):
    with criterion(4, "unentangled correlations over a 10x10 direction grid"):
        psi = unentangled_state(cfg0)
        dirs = grid_directions(10, 10)
        vecs = {
            (r, i): model.localized_spin_operator(cfg0, r, d) @ psi
            for r in (1, 2, 3)
            for i, d in enumerate(dirs)
        }
        worst = 0.0
        for ra, rb in ((1, 2), (2, 3), (3, 1)):
            for i, da in enumerate(dirs):
                for j, db in enumerate(dirs):
                    got = vecs[ra, i].overlap(vecs[rb, j]).real
                    closed = model.correlation_closed_form(ra, rb, da, db, 0.0)
                    worst = max(worst, abs(got - closed))
        assert worst <= EXACT_TOL, f"worst deviation {worst}"


def test_criterion_05_entangled_correlations_usual():
    with criterion(5, "entangled correlations match exact evolution within 5 k^2"):
        dirs = grid_directions(6, 6)
        for kappa in KAPPAS:
            cfg = model.standard_config(kappa=kappa)
            exact = evolve(cfg, unentangled_state(cfg), "exact")
            vecs = {
                (r, i): model.localized_spin_operator(cfg, r, d) @ exact
                for r in (1, 2, 3)
                for i, d in enumerate(dirs)
            }
            worst = 0.0
            for ra, rb in ((1, 2), (2, 3), (3, 1)):
                for i, da in enumerate(dirs):
                    for j, db in enumerate(dirs):
                        got = vecs[ra, i].overlap(vecs[rb, j]).real
                        closed = model.correlation_closed_form(ra, rb, da, db, kappa)
                        worst = max(worst, abs(got - closed))
            assert worst <= 5.0 * kappa**2, f"kappa={kappa}: worst {worst}"


def test_criterion_06_dh_representation_equivalence(cfg_probe, t_en_probe):
    with criterion(6, "vacuum matrix elements equal usual-representation values"):
        t0 = time.perf_counter()
        dirs = grid_directions(6, 6)
        for kappa in (0.0, 0.05, 0.1):
            cfg = model.standard_config(kappa=kappa)
            base = dhrep.build_unentangled_transform(cfg)
            transform = dhrep.build_entangled_transform(cfg, base) if kappa else base
            psi = unentangled_state(cfg)
            exact = evolve(cfg, psi, "exact")
            first = evolve(cfg, psi, "first").normalized()
            tol = kappa**2 + EXACT_TOL
            v = transform.operator
            w = v.dagger() @ cfg.vacuum()
            vac = cfg.vacuum()
            s_ex, s_fi, s_dh = {}, {}, {}
            for r in (1, 2, 3):
                for i, d in enumerate(dirs):
                    s = model.localized_spin_operator(cfg, r, d)
                    s_ex[r, i] = s @ exact
                    s_fi[r, i] = s @ first
                    s_dh[r, i] = v @ (s @ w)
            for r in (1, 2, 3):
                for i in range(len(dirs)):
                    dh = vac.overlap(s_dh[r, i]).real
                    assert abs(dh - exact.overlap(s_ex[r, i]).real) <= tol
                    assert abs(dh - first.overlap(s_fi[r, i]).real) <= tol
            for ra, rb in ((1, 2), (2, 3), (3, 1)):
                for i in range(len(dirs)):
                    for j in range(len(dirs)):
                        dh = s_dh[ra, i].overlap(s_dh[rb, j]).real
                        assert abs(dh - s_ex[ra, i].overlap(s_ex[rb, j]).real) <= tol
                        assert abs(dh - s_fi[ra, i].overlap(s_fi[rb, j]).real) <= tol
        # spot equivalence on the 11-mode registry (probe modes included)
        vac = cfg_probe.vacuum()
        exact = evolve(cfg_probe, unentangled_state(cfg_probe), "exact")
        tol = cfg_probe.kappa**2 + EXACT_TOL
        for r in (1, 2, 3):
            for d in (SpinDirection.x3(), SpinDirection(1.0, 0.7)):
                dh = dhrep.dh_vacuum_spin(cfg_probe, t_en_probe, r, d)
                assert abs(dh - model.spin_expectation(cfg_probe, exact, r, d)) <= tol
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_07_closed_form_dh_operators(cfg_probe, t_un_probe, t_en_probe):
    with criterion(7, "closed-form transformed operators and vacuum actions"):
        cfg = cfg_probe
        s1, s2, s3 = (float(s) for s in t_un_probe.signs)
        # packet-smeared closed forms against generic conjugation
        assert fock.operator_distance(
            dhrep.conjugate(t_un_probe, cfg.b("up", 1)), s1 * cfg.adag(1)) <= EXACT_TOL
        assert fock.operator_distance(
            dhrep.conjugate(t_un_probe, cfg.b("down", 2)), s2 * cfg.adag(2)) <= EXACT_TOL
        assert fock.operator_distance(
            dhrep.conjugate(t_un_probe, cfg.b("down", 3)), s3 * cfg.adag(3)) <= EXACT_TOL
        pts = cfg.layout.centers + (32.0, -10.0)
        modes = {spin: dhrep.section_modes(cfg, spin) for spin in ("up", "down")}
        closed_un_modes = {spin: dhrep.closed_form_modes(cfg, spin, t_un_probe) for spin in modes}
        conj_un_modes = {spin: [dhrep.conjugate(t_un_probe, m) for m in modes[spin]]
                         for spin in modes}
        closed_en_modes = {spin: dhrep.closed_form_modes(cfg, spin, t_en_probe) for spin in modes}
        first_modes = {spin: dhrep.first_order_entangled_conjugate(cfg, t_un_probe,
                                                                   conj_un_modes[spin])
                       for spin in modes}
        vac = cfg.vacuum()
        k = cfg.kappa
        for x in pts:
            psi = cfg.layout.packet_values(x)
            closed_un = {spin: dhrep.field_section(cfg, x, closed_un_modes[spin])
                         for spin in modes}
            closed_en = {spin: dhrep.field_section(cfg, x, closed_en_modes[spin])
                         for spin in modes}
            for spin in ("up", "down"):
                assert fock.operator_distance(
                    closed_un[spin],
                    dhrep.field_section(cfg, x, conj_un_modes[spin])) <= EXACT_TOL
                first = dhrep.field_section(cfg, x, first_modes[spin])
                assert fock.operator_distance(closed_en[spin], first) <= EXACT_TOL
            up = complex(psi[0]) * s1 * (cfg.adag(1) @ vac)
            down = (complex(psi[1]) * s2 * (cfg.adag(2) @ vac)
                    + complex(psi[2]) * s3 * (cfg.adag(3) @ vac))
            assert (dhrep.vacuum_action(closed_un["up"]) - up).norm() <= EXACT_TOL
            assert (dhrep.vacuum_action(closed_un["down"]) - down).norm() <= EXACT_TOL
            pair = cfg.adag(1) @ (cfg.adag(2) @ vac)
            en_up = up - s1 * s2 * k * complex(psi[1]) * (cfg.bdag("down", 1) @ pair)
            en_down = down + s1 * s2 * k * complex(psi[0]) * (cfg.bdag("up", 2) @ pair)
            assert (dhrep.vacuum_action(closed_en["up"]) - en_up).norm() <= EXACT_TOL
            assert (dhrep.vacuum_action(closed_en["down"]) - en_down).norm() <= EXACT_TOL


def test_criterion_08_effective_locality_contrast(cfg_probe, t_un_probe, t_en_probe):
    with criterion(8, "effective locality with auxiliaries, leakage without"):
        assert dhrep.SUPPORT_CUT == 1e-12
        for transform in (t_un_probe, t_en_probe):
            report = dhrep.locality_report(cfg_probe, transform, tol=EXACT_TOL)
            assert all(report["local_ok"])
            outside = np.array(report["outside_support"])
            assert outside.any(), "report must include outside-support points"
            leaks = report["distance"][outside]
            assert np.all(leaks <= EXACT_TOL), (report["point"][outside], leaks)
            assert outside[report["point"] == 32.0].any()
        report = dhrep.noaux_locality_report(separations=(10.0, 20.0, 40.0), width=1.0)
        assert np.all(report["noaux_probe_operator_distance"] > 0.1)
        assert np.all(report["noaux_section_distance"] > 0.1)
        assert np.all(report["aux_probe_operator_distance"] <= EXACT_TOL)
        assert np.ptp(report["noaux_section_distance"]) <= EXACT_TOL


def test_criterion_09_first_quantized_oracle():
    with criterion(9, "three-qubit oracle to second order"):
        dirs_even = grid_directions(6, 6)
        psi0 = qubits.unentangled_state()
        for kappa in KAPPAS:
            k3 = kappa**3
            exact = qubits.evolve_qubits(psi0, kappa, "exact")
            second = qubits.evolve_qubits(psi0, kappa, "second")
            assert np.linalg.norm(exact - second) <= k3
            for qa, qb in ((1, 2), (2, 3), (3, 1)):
                for da in dirs_even:
                    for db in dirs_even:
                        closed = qubits.correlation_closed_form(qa, qb, da, db, kappa)
                        # displayed forms are exact consequences of the
                        # second-order state ...
                        got = qubits.pauli_correlation(second, qa, da, qb, db)
                        assert abs(got - closed) <= k3
                        # ... and bound the exact state within 2 k^3 (the
                        # pair-(1,2) transverse term carries a 4/3 constant)
                        got = qubits.pauli_correlation(exact, qa, da, qb, db)
                        assert abs(got - closed) <= 2.0 * k3
            for qa, qb in ((2, 3), (1, 3)):
                for da in dirs_even:
                    for db in dirs_even:
                        c0 = qubits.pauli_correlation(psi0, qa, da, qb, db)
                        ck = qubits.pauli_correlation(exact, qa, da, qb, db)
                        assert abs((abs(c0) - abs(ck)) - 2.0 * kappa**2 * abs(c0)) <= k3
        kappa = 0.1
        exact = qubits.evolve_qubits(psi0, kappa, "exact")
        for d in dirs_even:
            got = qubits.pauli_expectation(exact, 1, d)
            assert abs(got - (1.0 - 2.0 * kappa**2) * d.u3) <= kappa**3
        assert qubits.pauli_expectation(exact, 1, SpinDirection.x3()) == pytest.approx(
            0.98, abs=1e-3)


def test_criterion_10_geometry_gates(cfg0):
    with criterion(10, "geometry gates and desk-scale wall time"):
        product = wp.max_packet_product(list(cfg0.layout.packets))
        assert product <= 1e-10, f"separation gate max product {product}"
        exact, pointwise, integral = wp.aperture_errors(
            list(cfg0.layout.apertures), list(cfg0.layout.packets))
        assert exact and pointwise <= 1e-8
        assert integral <= 1e-8
        elapsed = time.perf_counter() - _module_t0
        print(f"  acceptance module wall time so far: {elapsed:.1f}s")
        assert elapsed < 300.0, f"acceptance suite took {elapsed:.1f}s"
