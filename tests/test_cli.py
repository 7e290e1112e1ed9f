"""Runner contract: exit codes, config handling, report schemas, determinism."""

import ast
import contextlib
import csv
import io
import json
import math
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import geometry_sweep, run_cli_capped, run_python
import dhlab
from dhlab import checks, cli, dhrep, fock, model, qubits, wavepackets
from dhlab.checks import (
    MAX_DIRECTIONS, RunConfig, Table, directions, run_correlations, run_locality, run_qubit,
    run_verify,
)
from dhlab.errors import ConfigError
from dhlab.fock import CSRMatrix
from dhlab.model import SpinDirection

FAST_FLAGS = ["--kappa", "0.05"]

RECORD_KEYS = {
    "id", "paper_ref", "expected", "actual", "abs_error", "tolerance", "pass", "wall_time",
}


@pytest.fixture(scope="module")
def verify_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = cli.main(["verify", *FAST_FLAGS, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_verify_default_passes(verify_records):
    code, records = verify_records
    assert code == 0
    assert records, "verify must emit records"
    assert all(r["pass"] for r in records)


def test_verify_record_schema(verify_records):
    _, records = verify_records
    for r in records:
        assert set(r) == RECORD_KEYS
        assert r["pass"] == (r["abs_error"] <= r["tolerance"])
        assert r["wall_time"] >= 0.0
    ids = [r["id"] for r in records]
    assert ids == sorted(ids)  # deterministic ordering


def test_verify_deterministic_apart_from_timing(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["verify", *FAST_FLAGS, "--out", str(out_a)]) == 0
    assert cli.main(["verify", *FAST_FLAGS, "--out", str(out_b)]) == 0
    recs_a = json.loads(out_a.read_text())
    recs_b = json.loads(out_b.read_text())
    strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_time"} for r in recs]
    assert strip(recs_a) == strip(recs_b)


def test_verify_sign_violation_exits_one(tmp_path):
    out = tmp_path / "bad.json"
    code = cli.main(["verify", "--signs", "+1,+1,+1", "--out", str(out)])
    assert code == 1
    records = json.loads(out.read_text())
    failed = {r["id"] for r in records if not r["pass"]}
    assert "30-sign-constraint" in failed


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("this is not an ini file {{{\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nflux_capacitance = 12\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["verify", "--config", str(tmp_path / "absent.ini")]) == 2


def test_bad_flag_values_exit_two():
    assert cli.main(["verify", "--signs", "1,2,3"]) == 2
    assert cli.main(["verify", "--kappa", "puppies"]) == 2


@pytest.mark.parametrize("key", ["n_theta", "n_phi", "n_random"])
@pytest.mark.parametrize("command", ["verify", "correlations", "qubit"])
def test_empty_direction_set_exits_two(tmp_path, capsys, command, key):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[directions]\n{key} = 0\n")
    assert cli.main([command, "--config", str(ini), "--out", str(tmp_path / "o.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["nan", "inf", "0.05,nan"])
def test_non_finite_kappa_exits_two(tmp_path, capsys, kappa):
    assert cli.main(["verify", "--kappa", kappa, "--out", str(tmp_path / "o.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["1e308", "7.0"])
@pytest.mark.parametrize("command", ["verify", "correlations", "locality"])
def test_kappa_above_cap_exits_two_with_one_line(tmp_path, capsys, command, kappa):
    # exp(-iG) is periodic in kappa with period 2 pi, so larger values add no physics
    assert cli.main([command, "--kappa", kappa, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kappa", ["1e-300", "1e-320", "1e-6", "0.05,1e-6"])
@pytest.mark.parametrize("command", ["verify", "correlations", "locality"])
def test_kappa_below_floor_exits_two_with_one_line(tmp_path, capsys, command, kappa):
    # below about 1.5e-154 kappa^2 underflows and the rotation closed form
    # divides by zero; at 1e-6 records 60-64 fail on rounding alone, since
    # their kappa^3 tolerances fall under the rounding of O(1) values
    assert cli.main([command, "--kappa", kappa, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kappa", [checks.MIN_KAPPA, 1e-5, 2e-5])
def test_verify_passes_at_and_above_the_kappa_floor(kappa):
    records = run_verify(RunConfig(kappas=(kappa,)))
    assert [r.id for r in records if not r.passed] == []


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_bad_tol_exact_flag_exits_two_with_one_line(tmp_path, capsys, tol):
    assert cli.main(["verify", "--tol-exact", tol, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_verify_leaves_numpy_global_random_state_alone():
    # nor Python's: the seeded draws use a private random.Random
    before, python_before = np.random.get_state(), random.getstate()
    run_verify(RunConfig(kappas=(0.05,)))
    directions(RunConfig(direction_mode="random", n_random=5, seed=7))
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert random.getstate() == python_before


def test_config_file_and_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\n"
        "config_version = 1\n"
        "kappa = 0.02\n"
        "signs = -1, 1, 1\n"
        "[directions]\n"
        "n_theta = 3\n"
        "n_phi = 2\n"
        "[tolerances]\n"
        "exact = 1e-9\n"
        "[output]\n"
        "format = json\n"
    )
    overrides = cli.load_config_file(str(ini))
    rc = RunConfig(**overrides)
    assert rc.kappas == (0.02,)
    assert rc.signs == (-1, 1, 1)
    assert rc.n_theta == 3 and rc.n_phi == 2
    assert rc.tol_exact == 1e-9
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--config", str(ini), "--kappa", "0.05", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert any(r["id"] == "35-standardization-entangled-k0.05" for r in records)
    assert not any("k0.02" in r["id"] for r in records)


def test_direction_sets():
    rc = RunConfig(n_theta=4, n_phi=3)
    grid = directions(rc)
    assert len(grid) == 12
    rng_rc = RunConfig(direction_mode="random", n_random=9, seed=3)
    sampled = directions(rng_rc)
    assert len(sampled) == 9
    assert directions(rng_rc) == sampled  # seeded, reproducible
    assert not set(sampled) & set(directions(RunConfig(direction_mode="random", n_random=9,
                                                       seed=4)))
    with pytest.raises(ConfigError):
        RunConfig(direction_mode="spiral")
    with pytest.raises(ConfigError):
        RunConfig(kappas=(-0.1,))
    with pytest.raises(ConfigError):
        RunConfig(out_format="yaml")


def test_correlations_table(tmp_path):
    out = tmp_path / "corr.json"
    code = cli.main(["correlations", "--kappa", "0.05", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    half_pi = math.pi / 2.0

    def pick(kappa, regions, ta, pa, tb, pb):
        for r in rows:
            if (r["kappa"] == kappa and r["regions"] == regions
                    and abs(r["ua_theta"] - ta) < 1e-12 and abs(r["ua_phi"] - pa) < 1e-12
                    and abs(r["ub_theta"] - tb) < 1e-12 and abs(r["ub_phi"] - pb) < 1e-12):
                return r
        raise AssertionError("row not found")

    both_z = pick(0.0, "(1,2)", 0.0, 0.0, 0.0, 0.0)
    for col in ("first_order", "exact", "dh_vacuum", "closed_form"):
        assert both_z[col] == pytest.approx(-1.0, abs=1e-10)
    both_x = pick(0.05, "(1,2)", half_pi, 0.0, half_pi, 0.0)
    assert both_x["closed_form"] == pytest.approx(-0.1, abs=1e-12)
    assert abs(both_x["exact"] - both_x["closed_form"]) <= 2.5e-3
    r23 = pick(0.05, "(2,3)", 0.0, 0.0, 0.0, 0.0)
    # dh tracks the exact value; the first-order closed form sits 2 k^2 away
    # (the second-order decrease the closed form does not carry)
    assert abs(r23["dh_vacuum"] - r23["exact"]) <= 1e-10
    assert abs(r23["dh_vacuum"] - r23["closed_form"]) <= 2.0 * 0.05**2 + 1e-10


def test_correlation_rows_match_direct_evaluators():
    # the table comes from the moment tensors; sampled rows must equal the
    # per-direction evaluators of each representation
    rc = RunConfig(kappas=(0.05,), direction_mode="random", n_random=4, seed=3)
    rows = run_correlations(rc).rows()
    assert len(rows) == 2 * 3 * 16
    for row in rows[::7]:
        kappa = row["kappa"]
        cfg = model.standard_config(kappa=kappa, signs=rc.signs)
        psi = model.unentangled_state(cfg)
        t_un = dhrep.build_unentangled_transform(cfg)
        transform = dhrep.build_entangled_transform(cfg, t_un) if kappa > 0 else t_un
        ra, rb = (int(c) for c in row["regions"].strip("()").split(","))
        args = (ra, SpinDirection(row["ua_theta"], row["ua_phi"]),
                rb, SpinDirection(row["ub_theta"], row["ub_phi"]))
        for col, state in (("exact", model.evolve(cfg, psi, "exact")),
                           ("first_order", model.evolve(cfg, psi, "first"))):
            assert abs(row[col] - model.spin_correlation(cfg, state, *args)) <= 1e-14
        assert abs(row["dh_vacuum"] - dhrep.dh_vacuum_correlation(cfg, transform, *args)) <= 1e-14


def test_kappa_independent_setup_is_built_once_per_probe_set(monkeypatch):
    # the layout and V_un are built once per probe set and shared by every
    # kappa; verify's other four V_un are check 31's sign choices, built from
    # one set of removal generators; record 33 builds one more generator
    counts = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    count(wavepackets, "standard_layout")
    count(dhrep, "unentangled_transforms")
    count(dhrep, "removal_generator")
    run_verify(RunConfig())
    assert counts == {"standard_layout": 2, "unentangled_transforms": 2,
                      "removal_generator": 3 + 3 + 1}
    counts.clear()
    run_correlations(RunConfig())
    assert counts == {"standard_layout": 1, "unentangled_transforms": 1, "removal_generator": 3}


def test_verify_wall_times_share_each_group_time():
    # run_verify times each check group once and splits that time evenly
    # among the group's records: 01-04, 10-30, 31-38, 40-55 and 60-64
    start = time.perf_counter()
    records = run_verify(RunConfig(kappas=(0.02, 0.05)))
    elapsed = time.perf_counter() - start
    assert sum(r.wall_time for r in records) <= elapsed
    shares = {}
    for r in records:
        group = next(i for i, last in enumerate((4, 30, 38, 55, 64)) if int(r.id[:2]) <= last)
        shares.setdefault(group, set()).add(r.wall_time)
    assert sorted(shares) == [0, 1, 2, 3, 4]
    assert all(len(times) == 1 for times in shares.values()), shares


# the claim map that opens checks.py: header, rule, then one row per claim
CLAIM_TABLE = [line for line in checks.__doc__.splitlines() if line.startswith("| ")]


def _claim_families():
    # every record family the map's rows name, once per naming
    named = []
    for line in CLAIM_TABLE[2:]:
        for part in line.split("|")[2].split(","):
            first, _, last = part.strip().partition("-")
            named += [f"{n:02d}" for n in range(int(first), int(last or first) + 1)]
    return named


def test_readme_holds_the_claim_map_of_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert len(CLAIM_TABLE) > 2 and "\n".join(CLAIM_TABLE) in readme


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(kappas=(0.0, 0.13), seed=3)],
                         ids=["default", "kappa-0-0.13-seed-3"])
def test_claim_map_names_each_verify_record_family_once(config):
    # per-kappa ids go by their family; no family twice, missing or stale
    emitted = {r.id[:2] for r in run_verify(config)}
    assert sorted(_claim_families()) == sorted(emitted)


def test_side_by_side_sets_row_blocks_beside_each_other():
    # record 01 moves each partner block e_q e_p from row block q into block row p
    rng = np.random.default_rng(5)
    dense = ((rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))
             * (rng.random((12, 4)) < 0.5))
    side = checks._side_by_side(CSRMatrix.from_dense(dense), 4)
    assert side.shape == (4, 12)
    assert np.array_equal(side.toarray(), np.hstack(np.vsplit(dense, 3)))


def _car_stack():
    # (c_1 .. c_4, c_1^dag .. c_4^dag) on a 4-mode registry, dim 16
    reg = fock.ModeRegistry(model.standard_registry().modes[:4])
    return [fock.mode_operator(reg, m, dagger).matrix for dagger in (False, True)
            for m in reg.modes]


def _dense_car_deviation(stack):
    # every one of the (2K)^2 anticommutators, dense: {c_p, c_p^dag} = I sits K blocks off
    k, dense = len(stack) // 2, [m.toarray() for m in stack]
    eye = np.eye(dense[0].shape[0])
    return max(np.abs(a @ b + b @ a - (eye if abs(p - q) == k else 0.0)).max()
               for p, a in enumerate(dense) for q, b in enumerate(dense))


def test_car_deviation_on_mode_operators_reads_zero_as_brute_force_does():
    stack = _car_stack()
    assert checks._car_deviation(stack) == _dense_car_deviation(stack) == 0.0


@pytest.mark.parametrize("factor", [-1.0, 1.5])
@pytest.mark.parametrize("creator", range(4))
def test_car_deviation_reads_a_broken_creator_as_brute_force_does(creator, factor):
    # one entry of one creator negated (or scaled): the triangle of unordered
    # pairs must find the same worst entry as all (2K)^2 dense anticommutators
    stack = _car_stack()
    m = stack[4 + creator]
    data = m.data.copy()
    data[3] *= factor
    stack[4 + creator] = CSRMatrix(m.indptr, m.indices, data, m.shape)
    deviation = checks._car_deviation(stack)
    assert deviation > 0.0
    assert deviation == _dense_car_deviation(stack)


@pytest.mark.parametrize("position", [0, 3, 6])
def test_car_deviation_reads_every_unordered_pair(position):
    # a mode operator's single entries give every broken pair the same
    # deviation, and a square of one is zero; an integer matrix in one slot
    # gives each pair with it, itself included, its own exact value
    stack = _car_stack()
    rng = np.random.default_rng(position)
    dense = rng.integers(-3, 4, (16, 16)) * (rng.random((16, 16)) < 0.3)
    dense = dense + 1j * rng.integers(-2, 3, (16, 16)) * (dense != 0)
    stack[position] = CSRMatrix.from_dense(dense)
    deviation = checks._car_deviation(stack)
    assert deviation > 0.0
    assert deviation == _dense_car_deviation(stack)


def test_car_suite_holds_one_block_row_at_a_time():
    # from cold mode caches the traced peak reads 2.30 MB; the whole
    # 20480 x 20480 product of all 20 block rows and its block transpose took
    # it to 20.6 MB
    for cached in (fock._annihilator_matrix, fock._creator_matrix):
        cached.cache_clear()
    tracemalloc.start()
    try:
        records = checks._algebra_checks(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records[0].id == "01-car-suite" and records[0].passed
    assert peak < 3.5e6, f"traced peak {peak / 1e6:.1f} MB"


def _probe_setup(rc: RunConfig, kappa: float):
    cfg0 = checks._config(rc, (rc.probe_point,))
    t_un = dhrep.build_unentangled_transform(cfg0)
    return (*checks._entangled(cfg0, t_un, kappa), t_un)


def test_section_group_holds_one_spin_at_a_time():
    # mode caches emptied before the probe setup, as in a fresh run; with both
    # spins' conjugated, first-order and closed-form lists alive for the whole
    # group the traced peak was 4.3 MB; it now reads 1.54 MB
    for cached in (fock._annihilator_matrix, fock._creator_matrix):
        cached.cache_clear()
    rc = RunConfig()
    kmid = rc.kappas[len(rc.kappas) // 2]
    cfg, t_en, t_un = _probe_setup(rc, kmid)
    tracemalloc.start()
    try:
        records = checks._section_checks(rc, cfg, t_un, t_en, kmid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.id[:2] for r in records] == ["40", "41", "42", "50", "51", "52", "53", "54", "55"]
    assert all(r.passed for r in records)
    assert peak < 2.0e6, f"traced peak {peak / 1e6:.2f} MB"


def test_locality_report_holds_one_spin_at_a_time():
    # warm caches; with both spins' modes, images and moved lists alive at once
    # the traced peak was 1.5 MB
    rc = RunConfig()
    cfg, t_en, _ = _probe_setup(rc, max(rc.kappas))
    expected = dhrep.locality_report(cfg, t_en)
    tracemalloc.start()
    try:
        report = dhrep.locality_report(cfg, t_en)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(report) == list(expected)
    assert all(np.array_equal(report[k], expected[k]) for k in expected)
    assert peak < 1.2e6, f"traced peak {peak / 1e6:.2f} MB"


def test_table_encoder_holds_little_beyond_its_texts():
    # the 230,400 floats of 40 random directions: np.unique's flatten copy,
    # permutation, sorted copy, cumsum and int64 inverse took the traced peak
    # above the table to 11.6 MB; the table-wide argsort that followed read
    # 5.53 MB; with no temporary longer than a column it reads about 4.2 MB
    table = run_correlations(RunConfig(direction_mode="random", n_random=40, seed=77))
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            for _ in cli._table_pieces(table, fmt):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"{fmt}: traced peak {peak / 1e6:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_repeated_correlations_hold_their_peak_rss(tmp_path):
    # 20 cold calls in one process, as the benchmark's worker makes them: with
    # the table-wide encoder arrays the peak crept 2.7-2.9 MB from call 1 to
    # 20; it now grows about 0.5 MB.  The peak is VmHWM, the process image's
    # own ru_maxrss: ru_maxrss itself keeps, across the exec, the peak of the
    # process it was forked from
    ini = tmp_path / "random.ini"
    ini.write_text("[directions]\nmode = random\nn_random = 40\n")
    code = ("import sys, dhlab.cli\n"
            "def clear_caches():\n"
            "    for name, module in list(sys.modules.items()):\n"
            "        if module is None or name.split('.')[0] != 'dhlab':\n"
            "            continue\n"
            "        for value in vars(module).values():\n"
            "            if callable(getattr(value, 'cache_clear', None)) and \\\n"
            "                    getattr(value, '__module__', None) == name:\n"
            "                value.cache_clear()\n"
            "ini, out = sys.argv[1:]\n"
            "assert dhlab.cli.main(['qubit', '--out', out]) == 0\n"
            "for seed in range(20):\n"
            "    clear_caches()\n"
            "    argv = ['correlations', '--config', ini, '--seed', str(seed), '--out', out]\n"
            "    assert dhlab.cli.main(argv) == 0\n"
            "    with open('/proc/self/status') as fh:\n"
            "        print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n")
    proc = run_python(["-c", code, str(ini), str(tmp_path / "o.json")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    peaks = [int(kib) / 1024 for kib in proc.stdout.split()]
    assert len(peaks) == 20
    assert peaks[-1] - peaks[0] < 1.2, f"peak RSS by call, MB: {peaks}"


def test_verify_charges_the_kernel_import_to_no_record():
    # the exponential kernel is numpy.linalg's eigh, imported with numpy before
    # run_verify starts; its first import is slowed by 0.5 s, and neither record
    # 03, the first exponential, nor any other record carries it
    code = ("import sys, time\n"
            "class Delay:\n"
            "    slept = False\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name == 'numpy.linalg' and not Delay.slept:\n"
            "            Delay.slept = True\n"
            "            time.sleep(0.5)\n"
            "        return None\n"
            "sys.meta_path.insert(0, Delay())\n"
            "from dhlab.checks import RunConfig, run_verify\n"
            "assert Delay.slept and 'numpy.linalg' in sys.modules\n"
            "records = run_verify(RunConfig(kappas=(0.05,)))\n"
            "print(next(r.wall_time for r in records if r.id == '03-expm-taylor-oracle'),\n"
            "      sum(r.wall_time for r in records))")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
    oracle, total = (float(v) for v in proc.stdout.split())
    assert oracle < 0.5
    assert total < 0.5


def test_qubit_rows_match_direct_evaluators():
    axes = {"x1": SpinDirection.x1(), "x2": SpinDirection.x2(), "x3": SpinDirection.x3()}
    for row in run_qubit(RunConfig(kappas=(0.1,))).rows():
        psi0 = qubits.unentangled_state()
        kind, *names = row["item"].split("_")
        for col, order in (("exact", "exact"), ("second_order", "second")):
            state = qubits.evolve_qubits(psi0, row["kappa"], order)
            if kind == "expectation":
                direct = qubits.pauli_expectation(state, int(names[0][1]), axes[names[1]])
            else:
                qa, qb = int(names[0][1]), int(names[0][2])
                direct = qubits.pauli_correlation(state, qa, axes[names[1]], qb, axes[names[2]])
            assert abs(row[col] - direct) <= 1e-14


def test_qubit_table(tmp_path):
    out = tmp_path / "qubit.json"
    assert cli.main(["qubit", "--kappa", "0.1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    zero_rows = [r for r in rows if r["kappa"] == 0.0]
    assert zero_rows and all(r["dev_exact_closed"] == 0.0 for r in zero_rows)
    exp = next(r for r in rows if r["kappa"] == 0.1 and r["item"] == "expectation_q1_x3")
    assert exp["exact"] == pytest.approx(0.98, abs=1e-3)
    assert exp["closed_form"] == pytest.approx(0.98, abs=1e-12)


def test_locality_report_payload(tmp_path):
    out = tmp_path / "loc.json"
    assert cli.main(["locality", "--kappa", "0.05", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"aux_unentangled", "aux_entangled", "noaux_contrast"}
    probe_rows = [r for r in payload["aux_unentangled"] if r["point"] == 32.0]
    assert probe_rows and all(r["distance"] <= 1e-10 for r in probe_rows)
    for row in payload["noaux_contrast"]:
        assert row["noaux_probe_operator_distance"] > 0.1
        assert row["aux_probe_operator_distance"] <= 1e-10
    for r in payload["aux_entangled"]:
        assert {"point", "spin", "representation", "distance", "packet_magnitudes"} <= set(r)


def test_locality_honours_tol_exact(tmp_path):
    # the (32.0, down) probe rows sit 6.6e-15 from the usual section: inside the
    # default 1e-10, outside 1e-20
    out = tmp_path / "loc.json"
    assert cli.main(["locality", "--tol-exact", "1e-20", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    rows = payload["aux_unentangled"] + payload["aux_entangled"]
    for r in rows:
        assert r["local_ok"] == (not r["outside_support"] or r["distance"] <= 1e-20)
    assert not all(r["local_ok"] for r in rows)


def test_locality_csv_holds_every_table(tmp_path):
    out = tmp_path / "loc.csv"
    assert cli.main(["locality", "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["table"] for r in rows} == {"aux_unentangled", "aux_entangled", "noaux_contrast"}
    noaux = [r for r in rows if r["table"] == "noaux_contrast"]
    assert [float(r["separation"]) for r in noaux] == [10.0, 20.0, 40.0]


def _oracle_cell(value):
    """A cell as the CSV oracle spells it before csv.writer quotes it: a
    finite float as its JSON text, a non-finite one as nan, inf or -inf, a
    str, int or bool as str() does, None as empty, and a list or tuple as its
    items' texts joined by ';'.  A dict or any other object has no CSV text."""
    if isinstance(value, float):
        return json.dumps(float(value)) if math.isfinite(value) else str(float(value))
    if isinstance(value, (list, tuple)):
        return ";".join(map(_oracle_cell, value))
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    raise TypeError(f"no CSV text for {type(value).__name__}")


def _csv_oracle(rows, fields):
    """csv.DictWriter's text of `rows` over `fields`, a cell a row lacks
    written empty, each cell spelt by _oracle_cell."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows({k: _oracle_cell(v) for k, v in row.items()} for row in rows)
    return buf.getvalue()


def _table_csv_oracle(payload):
    """The oracle's CSV text of a Table, or of a dict of Tables one under
    another behind a leading `table` column."""
    if isinstance(payload, Table):
        return _csv_oracle(payload.rows(), payload.columns)
    rows = [{"table": name, **row} for name, table in payload.items() for row in table.rows()]
    return _csv_oracle(rows, dict.fromkeys(k for row in rows for k in row))


def _cli_csv(payload):
    """The CSV text the CLI writes for a runner's payload."""
    table = cli._stacked(payload) if isinstance(payload, dict) else payload
    return "".join(cli._table_pieces(table, "csv"))


# a cell of every kind a CSV writer must spell or quote
ODD = {
    "floats": Table({
        "x": np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1]),
        "f": [-0.0, math.nan, -math.inf, 1e300, None, 0.5],
        "s": ["x,\"y\"\n", "\r", "", "plain", "caf\u00e9", "a\r\nb"],
        "b": [True, False, True, None, False, True],
        "l": [[np.float64(0.1), 2], (None,), [], ["a,b", math.nan], [True, -0.0], ("\"",)],
    }),
    "short": Table({"x": [0.25], "only_here": ["q\"q"], "n": [None]}),
}


def test_csv_text_is_the_csv_writer_text():
    rc = RunConfig(kappas=(0.05,), n_theta=2, n_phi=2)
    locality = run_locality(rc)
    assert len({tuple(table.columns) for table in locality.values()}) > 1  # mixed columns
    records = checks.record_table(run_verify(RunConfig(kappas=(0.05,), signs=(1, 1, 1))))
    for payload in (run_correlations(rc), locality, run_qubit(rc), records, *ODD.values(), ODD):
        assert _cli_csv(payload) == _table_csv_oracle(payload)
    text = _cli_csv(ODD["floats"])  # list items are spelt, never repr'd
    assert "np.float64" not in text and ",True,0.1;2\r\n" in text


def test_csv_output(tmp_path):
    out = tmp_path / "qubit.csv"
    assert cli.main(["qubit", "--kappa", "0.05", "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {"kappa", "item", "exact", "second_order", "closed_form"} <= set(rows[0])


def test_stdout_output(capsys):
    assert cli.main(["qubit", "--kappa", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload


@pytest.mark.parametrize("command, text_columns", [
    ("correlations", {"representation", "regions"}),
    ("qubit", {"item"}),
])
def test_csv_numeric_cells_parse_as_floats(tmp_path, command, text_columns):
    ini = tmp_path / "run.ini"
    ini.write_text("[directions]\nn_theta = 2\nn_phi = 2\n")
    out = tmp_path / "table.csv"
    flags = ["--config", str(ini), "--kappa", "0.05", "--format", "csv", "--out", str(out)]
    assert cli.main([command, *flags]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for key, cell in row.items():
            if key not in text_columns:
                float(cell)


MEANINGLESS = {
    "overlapping-centres": "[geometry]\npacket_centers = -2, 0, 2\n",
    "two-centres": "[geometry]\npacket_centers = -20, 20\n",
    "one-grid-point": "[geometry]\ngrid_points = 1\n",
    "probe-on-centre": "[geometry]\nprobe_point = 0\n",
    "no-kappa": "[run]\nkappa =\n",
    "negative-grid-points": "[geometry]\ngrid_points = -1\n",
    "zero-width": "[geometry]\npacket_width = 0\n",
    "negative-width": "[geometry]\npacket_width = -1\n",
    "infinite-width": "[geometry]\npacket_width = inf\n",
    "nan-probe": "[geometry]\nprobe_point = nan\n",
    "nan-grid-min": "[geometry]\ngrid_min = nan\n",
    "no-separations": "[geometry]\nseparations =\n",
    "negative-seed": "[run]\nseed = -1\n",
    "negative-seed-random": "[run]\nseed = -1\n[directions]\nmode = random\n",
    "nan-wsw-tol": "[tolerances]\nwsw = nan\n",
    "negative-aperture-tol": "[tolerances]\naperture = -1e-8\n",
    "sub-spacing-width": "[geometry]\npacket_width = 1e-9\n",
    "duplicate-kappa": "[run]\nkappa = 0.05, 0.05\n",
    "huge-n-random": "[directions]\nmode = random\nn_random = 200000\n",
    "huge-grid-random": "[directions]\nmode = random\nn_theta = 100000\nn_phi = 100000\n",
    "negative-zero-kappa": "[run]\nkappa = 0, -0\n",
    "not-ini": "this is not an ini file {{{\n",
    "keyless-line": "[run]\nkappa\n",
    # finite, but the grid extents derived from them overflow to infinity
    "huge-probe": "[geometry]\nprobe_point = 1e308\n",
    "huge-negative-probe": "[geometry]\nprobe_point = -1e308\n",
    "huge-separation": "[geometry]\nseparations = 1e308\n",
    "huge-negative-separation": "[geometry]\nseparations = -1e308\n",
    "huge-width": "[geometry]\npacket_width = 1e308\n",
}


@pytest.mark.parametrize("command, case", [
    ("verify", "overlapping-centres"),
    ("verify", "two-centres"),
    ("verify", "one-grid-point"),
    ("locality", "one-grid-point"),
    ("verify", "probe-on-centre"),
    ("locality", "probe-on-centre"),
    ("verify", "no-kappa"),
    ("locality", "no-kappa"),
    ("verify", "negative-grid-points"),
    ("locality", "negative-grid-points"),
    ("verify", "zero-width"),
    ("locality", "zero-width"),
    ("verify", "negative-width"),
    ("locality", "negative-width"),
    ("locality", "infinite-width"),
    ("verify", "nan-probe"),
    ("locality", "nan-probe"),
    ("verify", "nan-grid-min"),
    ("locality", "nan-grid-min"),
    ("verify", "no-separations"),
    ("locality", "no-separations"),
    ("verify", "negative-seed"),
    ("correlations", "negative-seed-random"),
    ("verify", "nan-wsw-tol"),
    ("locality", "negative-aperture-tol"),
    ("verify", "sub-spacing-width"),
    ("locality", "sub-spacing-width"),
    ("verify", "duplicate-kappa"),
    ("correlations", "duplicate-kappa"),
    ("verify", "negative-zero-kappa"),
    ("correlations", "negative-zero-kappa"),
    ("verify", "not-ini"),
    ("locality", "not-ini"),
    ("qubit", "keyless-line"),
    ("verify", "huge-probe"),
    ("locality", "huge-probe"),
    ("verify", "huge-negative-probe"),
    ("locality", "huge-negative-probe"),
    ("verify", "huge-separation"),
    ("locality", "huge-separation"),
    ("verify", "huge-negative-separation"),
    ("verify", "huge-width"),
    ("locality", "huge-width"),
])
def test_meaningless_config_exits_two_with_one_line(tmp_path, capsys, command, case):
    ini = tmp_path / "run.ini"
    ini.write_text(MEANINGLESS[case])
    assert cli.main([command, "--config", str(ini), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, case", [
    ("verify", "huge-n-random"),
    ("correlations", "huge-n-random"),
    ("verify", "huge-grid-random"),
])
def test_oversized_direction_set_exits_two_under_memory_cap(command, case):
    # a sweep holds (directions x directions) arrays; verify also derives an
    # even theta grid from n_theta and n_phi in random mode
    proc = run_cli_capped([command], MEANINGLESS[case])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1


def test_direction_cap_keeps_the_default_and_benchmark_counts():
    assert len(directions(RunConfig())) == 20
    assert len(directions(RunConfig(direction_mode="random", n_random=40))) == 40
    assert RunConfig(direction_mode="random", n_random=MAX_DIRECTIONS).n_random == MAX_DIRECTIONS
    with pytest.raises(ConfigError):
        RunConfig(direction_mode="random", n_random=MAX_DIRECTIONS + 1)


@pytest.mark.filterwarnings("ignore::dhlab.errors.PerturbativeRangeWarning")  # kappa = 1
def test_int_kappas_are_floats_in_every_table():
    # both tables' kappa columns are float64 and hold the same kappas
    rc = RunConfig(kappas=(1, 0), n_theta=2, n_phi=2)
    assert all(type(k) is float for k in rc.kappas)
    qubit, correlations = (run(rc).columns["kappa"] for run in (run_qubit, run_correlations))
    assert qubit.dtype == correlations.dtype == np.float64 and set(qubit) == set(correlations)


def test_negative_zero_kappa_is_kappa_zero(tmp_path, capsys):
    # -0.0 passes `k < 0` but was labelled "-0", so `0,-0` ran kappa 0 twice
    (kappa,) = RunConfig(kappas=(-0.0,)).kappas
    assert kappa == 0.0 and math.copysign(1.0, kappa) == 1.0
    assert cli.main(["verify", "--kappa", "0,-0", "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    ini = tmp_path / "run.ini"
    ini.write_text("[directions]\nn_theta = 2\nn_phi = 2\n")
    for command in ("correlations", "qubit"):
        texts = []
        for kappa in ("0", "-0"):
            out = tmp_path / f"{command}{kappa}.json"
            assert cli.main([command, "--config", str(ini), f"--kappa={kappa}",
                             "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["verify", "correlations", "locality", "qubit"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_two_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    # refused before the run computes anything
    def must_not_run(rc):
        raise AssertionError(f"{command} computed before refusing --out")

    monkeypatch.setattr(cli, f"run_{command}", must_not_run)
    out = tmp_path / "absent" / "o.json" if target == "missing-directory" else tmp_path
    start = time.perf_counter()
    assert cli.main([command, *FAST_FLAGS, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(out) in err


def test_out_check_leaves_an_existing_file_alone(tmp_path):
    # the path is checked, never opened, before the run: a run that fails
    # with exit 2 must not truncate what the file held
    out = tmp_path / "o.json"
    out.write_text("kept")
    assert cli.main(["verify", "--signs", "1,1,1", "--format", "csv", "--kappa", "nan",
                     "--out", str(out)]) == 2
    assert cli.main(["locality", "--signs", "1,1,1", "--out", str(out)]) == 2
    assert out.read_text() == "kept"


def test_packet_width_of_one_grid_spacing_is_valid():
    # 70 / 1400 = 0.05 exactly: a width of one spacing is the finest the grid resolves
    assert RunConfig(packet_width=0.05).packet_width == 0.05


@pytest.mark.parametrize("command", ["verify", "locality"])
@pytest.mark.parametrize("separation", ["0", "-0.0", "1e-320", "-1e-320",
                                        "1.5e-8", "-1.5e-8", "2.5e-8"])
def test_tiny_separation_exits_two_naming_it_before_the_run(tmp_path, capsys, monkeypatch,
                                                            command, separation):
    # a probe packet this close lies in its packet's span (up to about 2e-8
    # widths), or just outside it: refused before the run is built
    def no_run(rc):
        raise AssertionError("the run was started")
    monkeypatch.setattr(cli, f"run_{command}", no_run)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[geometry]\nseparations = 10, {separation}\n")
    assert cli.main([command, "--config", str(ini), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "separations" in err and repr(float(separation)) in err


@pytest.mark.parametrize("command", ["verify", "locality"])
@pytest.mark.parametrize("point", ["0", "20", "-20", "1e-9"])
def test_probe_on_a_centre_exits_two_naming_it(tmp_path, capsys, command, point):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[geometry]\nprobe_point = {point}\n")
    out = tmp_path / "o.json"
    assert cli.main([command, *FAST_FLAGS, "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "probe_point" in err and repr(float(point)) in err


def test_small_and_negative_separations_still_run(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[geometry]\nseparations = 1e-7, -10\n")
    out = tmp_path / "o.json"
    assert cli.main(["locality", "--config", str(ini), "--out", str(out)]) == 0
    assert [r["separation"] for r in json.loads(out.read_text())["noaux_contrast"]] == [1e-7, -10]
    # verify runs too; record 54 may fail at a separation of 1e-7 widths
    assert cli.main(["verify", *FAST_FLAGS, "--config", str(ini), "--out", str(out)]) in (0, 1)
    assert "configuration error" not in capsys.readouterr().err


@pytest.mark.parametrize("separations", ["10.01, 20", "10, 20, 40.02", "-10, 20", "10, -20"])
def test_off_node_and_negative_separations_pass_verify(tmp_path, capsys, separations):
    # the contrast's grid puts the probe centre on a node, whatever the
    # decimals or the sign of the separation
    ini = tmp_path / "run.ini"
    ini.write_text(f"[geometry]\nseparations = {separations}\n")
    out = tmp_path / "o.json"
    assert cli.main(["verify", *FAST_FLAGS, "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_negated_separation_gives_the_same_contrast_row(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[geometry]\nseparations = 10, -10, -20, 20\n")
    out = tmp_path / "o.json"
    assert cli.main(["locality", *FAST_FLAGS, "--config", str(ini), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["noaux_contrast"]
    assert [r.pop("separation") for r in rows] == [10, -10, -20, 20]
    assert rows[0] == rows[1] and rows[2] == rows[3]


def test_geometry_sweep_configs_pass_verify(tmp_path):
    # the first configs of tools/geometry_sweep.py's seeded sample, in process:
    # valid geometries, with separations of either sign, that verify passes
    rng = random.Random(geometry_sweep.SEED)
    ini, out = tmp_path / "run.ini", tmp_path / "o.json"
    for _ in range(3):
        ini.write_text(geometry_sweep.draw_config(rng))
        assert cli.main(["verify", *FAST_FLAGS, "--config", str(ini), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["correlations", "locality"])
def test_sign_violation_outside_verify_exits_two(tmp_path, capsys, command):
    out = tmp_path / "o.json"
    assert cli.main([command, "--signs", "1,1,1", "--kappa", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


OVERSIZED = {
    "huge-grid": "[geometry]\ngrid_points = 100000000\n",
    "far-probe": "[geometry]\nprobe_point = 1e9\n",
    "far-separation": "[geometry]\nseparations = 1e9\n",
}


@pytest.mark.parametrize("command", ["verify", "locality"])
@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_grid_exits_two_under_memory_cap(command, case):
    proc = run_cli_capped([command], OVERSIZED[case])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1


# INI fuzzer values: floats with subnormals, +-1e308, non-finite values and
# -0; ints that stay small, so no draw asks for a large grid or sweep (those
# run under the memory cap above); comma lists of both; and junk that no
# parser takes or that means something else (an empty value, a lone comma)
FUZZ_FLOATS = st.sampled_from(["2", "0.5", "-20", "32", "0.13", "1", "0", "1e-12", "-0", "1e-320",
                               "5e-324", "1e308", "-1e308", "nan", "inf", "-inf"])
FUZZ_INTS = st.sampled_from(["1", "2", "3", "4", "6", "0", "-1"])
FUZZ_JUNK = st.sampled_from(["", ",", "x", "0x10", "1_0", "1e-320", "-1e308"])
FUZZ_TYPED = {
    int: FUZZ_INTS,
    float: FUZZ_FLOATS,
    str: st.sampled_from(["random", "grid", "x"]),
    cli._parse_floats: st.lists(FUZZ_FLOATS | FUZZ_INTS, min_size=1, max_size=4).map(",".join),
    cli._parse_signs: st.lists(st.sampled_from(["1", "-1", "+1", "0", "2"]),
                               min_size=1, max_size=4).map(",".join),
}
FUZZ_ENTRIES = st.sampled_from(
    [(section, key) for section, keys in cli._SCHEMA.items() if section != "output"
     for key in keys]
).flatmap(lambda entry: st.tuples(
    st.just(entry), FUZZ_TYPED[cli._SCHEMA[entry[0]][entry[1]][1]] | FUZZ_JUNK))


@pytest.mark.filterwarnings("ignore::dhlab.errors.PerturbativeRangeWarning")  # kappa >= 1
@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(["verify", "correlations", "locality", "qubit"]),
       fmt=st.sampled_from(["json", "csv"]),
       entries=st.lists(FUZZ_ENTRIES, min_size=1, max_size=3, unique_by=lambda e: e[0]))
def test_fuzzed_config_exits_cleanly(tmp_path_factory, command, fmt, entries):
    # on any config, main returns 0, 1 or 2 and nothing escapes it; exit 2
    # says why in one line, and exit 1 is verify's FAIL lines
    sections = {"run": {"kappa": "0.05"}}  # a drawn kappa replaces it
    for (section, key), value in entries:
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())
    ini = tmp_path_factory.getbasetemp() / "fuzz.ini"
    ini.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", str(ini), "--format", fmt])
        except Exception as exc:  # SystemExit is no Exception, and passes
            raise AssertionError(f"{type(exc).__name__} escaped {command} on\n{text}") from exc
    lines = err.getvalue().splitlines(keepends=True)
    assert code in (0, 1, 2), text
    if code == 0:
        assert not lines, text
    elif code == 1:
        assert command == "verify" and lines, text
        assert all(line.startswith("FAIL ") for line in lines), text
    else:
        assert len(lines) == 1 and lines[0].endswith("\n"), text


def test_locality_never_loads_the_exponential_kernel(tmp_path):
    # `dhlab locality` makes no call to the exponential kernel (numpy's eigh,
    # which fock.matrix_exponential and exponential_action run) and loads none
    # of scipy.sparse.linalg, scipy.sparse.csgraph or scipy.linalg
    code = ("import sys, numpy as np\n"
            "eigh, calls = np.linalg.eigh, []\n"
            "np.linalg.eigh = lambda *a, **k: calls.append(1) or eigh(*a, **k)\n"
            "import dhlab.cli\n"
            "assert dhlab.cli.main(['locality', '--out', sys.argv[1]]) == 0\n"
            "print(len(calls), [m in sys.modules for m in\n"
            "       ('scipy.sparse.linalg', 'scipy.sparse.csgraph', 'scipy.linalg')])")
    proc = run_python(["-c", code, str(tmp_path / "o.json")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "0 [False, False, False]"


def test_no_command_loads_scipy(tmp_path):
    # the runtime is numpy alone; scipy is the test suite's oracle only
    code = ("import sys, dhlab.cli\n"
            "loaded = lambda: [m for m in sys.modules if m.startswith('scipy')]\n"
            "print('import', loaded())\n"
            "for command in ('verify', 'correlations', 'locality', 'qubit'):\n"
            "    assert dhlab.cli.main([command, '--out', sys.argv[1]]) == 0\n"
            "    print(command, loaded())\n")
    proc = run_python(["-c", code, str(tmp_path / "o.json")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [f"{step} []" for step in (
        "import", "verify", "correlations", "locality", "qubit")]


def test_no_command_loads_a_numpy_module_the_import_did_not(tmp_path):
    # numpy.random (seeded draws) and numpy.ma (a plain np.unique) cost MBs
    # of RSS when first loaded mid-run; no command needs either
    ini = tmp_path / "random.ini"
    ini.write_text("[directions]\nmode = random\nn_random = 6\n")
    code = ("import sys, dhlab.cli\n"
            "loaded = lambda: {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
            "before = loaded()\n"
            "assert dhlab.cli.main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted({'.'.join(m.split('.')[:2]) for m in loaded() - before})))\n")
    new = {}
    for argv in (["verify"], ["correlations"], ["correlations", "--config", str(ini)],
                 ["locality"], ["qubit"]):
        proc = run_python(["-c", code, *argv, "--out", str(tmp_path / "o.json")])
        assert proc.returncode == 0, proc.stderr[-2000:]
        new[" ".join(argv[:2])] = proc.stdout.split()
    assert not any(new.values()), f"numpy modules loaded after import: {new}"


def test_runtime_declares_and_imports_no_scipy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = Path(dhlab.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert not [d for d in project["dependencies"] if d.lower().startswith("scipy")]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
    imported = []
    for path in sorted(Path(dhlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert imported and not [(f, m) for f, m in imported if m.split(".")[0] == "scipy"]


def _assert_same_text(text, expected):
    # `assert text == expected` on texts of megabytes has pytest build a
    # difflib report for minutes; name the first difference instead
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                  min(len(text), len(expected)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at {at}: {text[lo:at + 40]!r} != {expected[lo:at + 40]!r}")


json_scalars = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats() | st.floats().map(np.float64))


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=6), children, max_size=4))


# values up to four containers deep, composed level by level.  st.recursive
# decides whether its `extend` uses its argument by parsing the source lines
# at the function's line number, read from disk when it validates: if the file
# changed after import, it parses other lines (`max_leaves=30,` here) and
# warns that `extend` cannot recurse.  A composed strategy has no such check.
json_values = json_scalars
for _ in range(4):
    json_values = json_scalars | _containers(json_values)

# a table: dicts of one key tuple, each column drawn from one kind of value
json_columns = st.sampled_from([
    st.floats(), st.floats().map(np.float64), st.text(), st.integers(), st.booleans(),
    st.none(), json_scalars, json_values,
])


def _rows(columns):
    keys = [key for key, _ in columns]
    return st.lists(st.tuples(*(column for _, column in columns)).map(
        lambda values: dict(zip(keys, values))), max_size=6)


json_tables = st.lists(st.tuples(st.text(max_size=4), json_columns), max_size=4,
                       unique_by=lambda column: column[0]).flatmap(_rows)
SHARED = 0.1  # one float object in several rows: encoded once


@settings(max_examples=300, derandomize=True, deadline=None)
@given(value=json_values | json_tables, depth=st.integers(1, 3))
@example(value=[[], {}, (), [[]], {"": {}}], depth=1)
@example(value=[math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0), np.float64(0.1)], depth=2)
@example(value={"quote\"": "a\nb\"c\\", "caf\u00e9": ["\u2603", "tab\t", "\n"], "t": (True, None)},
         depth=3)
@example(value=[{"a": 1.5, "b": "x"}, {"a": [1, 2], "b": {"c": (3,)}}], depth=1)
@example(value=[{"x": -0.0, "y": np.float64(-0.0)}, {"x": 0.0, "y": np.float64(0.0)},
                {"x": math.nan, "y": np.float64(math.inf)}, {"x": math.inf, "y": -math.inf}],
         depth=2)
@example(value=[{"b": True, "n": None, "i": 3}, {"b": False, "n": None, "i": -(2**70)}], depth=3)
@example(value=[{"50%": 1.0, "caf\u00e9 %s": "\u2603"}, {"50%": -2.5, "caf\u00e9 %s": "%d"}],
         depth=1)
@example(value=[{"k": SHARED, "v": SHARED}, {"k": SHARED, "v": -0.0}, {"k": SHARED, "v": 0.0}],
         depth=2)
@example(value=[{"only": 1.0}], depth=3)
@example(value=[{}, {}, {}], depth=1)
@example(value=[{1: 0.5, None: "x"}, {1: -0.0, None: "y"}], depth=2)  # keys json.dumps converts
@example(value=[{"i": float(i), "s": "ab"[i % 2]} for i in range(2 * cli._TABLE_CHUNK + 1)],
         depth=3)
def test_json_text_equals_indent_two_dumps(value, depth):
    # a value nested `depth` one-item lists deep is dumped as the lists' own
    # brackets and indents around the value's text at `depth`
    nested = value
    for _ in range(depth):
        nested = [nested]
    text = json.dumps(nested, indent=2)
    head = "".join("[\n" + "  " * (d + 1) for d in range(depth))
    tail = "".join("\n" + "  " * d + "]" for d in reversed(range(depth)))
    assert text.startswith(head) and text.endswith(tail)
    _assert_same_text(cli._json_text(value, depth), text[len(head):len(text) - len(tail)])


def test_json_text_is_the_same_without_the_c_encoder(monkeypatch):
    # a whole payload, a dict of tables, written by the pure-Python encoder
    payload = {
        "values": Table({"x": np.array([-0.0, math.nan, math.inf, -math.inf, SHARED]),
                         "f": [SHARED, -0.0, SHARED, 1e308, 5e-324],
                         "s": ["caf\u00e9\n", "", "caf\u00e9\n", "\u2603", "%s"],
                         "l": [[math.nan, None], [], [SHARED, "caf\u00e9\n"], [[1.5]], [-0.0]]}),
        "empty": Table({"x": np.array([])}),
        "one": Table({"\u00e9": [True], "n": [None]}),
    }
    expected = json.dumps({name: t.rows() for name, t in payload.items()}, indent=2)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert "".join(cli._json_pieces(payload)) == expected


def test_streamed_correlations_are_the_dumps_text(tmp_path, capsysbinary):
    # 2 x 1200 rows: the table is streamed in more than one piece
    out = tmp_path / "o.json"
    assert cli.main(["correlations", *FAST_FLAGS, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert cli.main(["correlations", *FAST_FLAGS, "--out", "-"]) == 0
    printed, written = capsysbinary.readouterr().out, out.read_bytes()
    rows = run_correlations(RunConfig(kappas=(0.05,))).rows()
    assert len(rows) > 2 * cli._TABLE_CHUNK
    assert printed == written + b"\n"
    _assert_same_text(written.decode(), json.dumps(rows, indent=2))


# float64 bit patterns: raw draws, plus 0.0, -0.0, +-inf, NaNs with and
# without payload or sign, and the smallest and largest subnormals
FLOAT_BITS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([
    0, -(2**63), 0x7FF0 << 48, -(0x0010 << 48), 0x7FF8 << 48, 0x7FF0_0000_0000_0001,
    -(0x0007_FFFF_FFFF_FFFF), 2**63 - 1, 1, 0x000F_FFFF_FFFF_FFFF,
])


@st.composite
def column_tables(draw):
    """Tables of float64 array, float list, str list and mixed list columns,
    each column drawn from a small pool so that its values repeat."""
    n = draw(st.integers(0, 12) | st.sampled_from([cli._TABLE_CHUNK, 2 * cli._TABLE_CHUNK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in draw(st.lists(st.text(max_size=4), max_size=5, unique=True)):
        kind = draw(st.sampled_from(["array", "floats", "str", "list"]))
        if kind in ("array", "floats"):
            pool = np.array(draw(st.lists(FLOAT_BITS, min_size=1, max_size=6))).view(np.float64)
            column = pool[rng.integers(len(pool), size=n)]
            columns[name] = column if kind == "array" else column.tolist()
        else:
            values = st.text(max_size=3) if kind == "str" else json_values
            pool = draw(st.lists(values, min_size=1, max_size=4))
            columns[name] = [pool[i] for i in rng.integers(len(pool), size=n)]
    return Table(columns)


# floats on either side of repr's switches to exponent form, the extremes,
# and one that needs 17 significant digits, over three pieces in two orders
REPR_EDGES = [1e15, 1e16, -1e16, 0.0001, 1e-05, 5e-324, 1.7976931348623157e308,
              0.30000000000000004]
REPR_EDGE_TABLE = Table({"x": np.array(REPR_EDGES * 257), "f": REPR_EDGES[::-1] * 257})

# the seams of the encoder's float path, which deduplicates each float column
# on its own and then merges the columns' patterns
NAN_PAYLOADS = np.array([0x7FF8 << 48, 0x7FF0_0000_0000_0001]).view(np.float64)
SHARED_PATTERNS_TABLE = Table({"a": np.array([2.5, 0.25, 1.5, 0.5]),  # 0.25 only here
                               "b": np.array([0.5, 2.5, 1.5, 0.5])})
SPLIT_ZEROS_TABLE = Table({"a": np.array([0.0, NAN_PAYLOADS[0], 1.0]),
                           "b": np.array([-0.0, NAN_PAYLOADS[1], 1.0])})
# 40,000 patterns a column fit uint16 codes; the table's 80,000 do not
WIDE_CODES_TABLE = Table({"a": np.arange(40_000) + 0.5, "b": np.arange(40_000) + 40_000.5})
NO_FLOAT_TABLE = Table({"s": ["a", "b", "a"], "l": [[1.0], None, [1.0]]})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(table=column_tables())
@example(table=Table({"x": np.array([0.0, -0.0, math.nan, -math.nan, math.inf, 5e-324] * 400),
                      "s": ["a", "\u2603"] * 1200, "f": [0.1, -0.0] * 1200}))
@example(table=REPR_EDGE_TABLE)
@example(table=SHARED_PATTERNS_TABLE)
@example(table=SPLIT_ZEROS_TABLE)
@example(table=WIDE_CODES_TABLE)
@example(table=NO_FLOAT_TABLE)
def test_table_text_is_the_dumps_text_of_its_rows(table):
    expected = json.dumps(table.rows(), indent=2)
    c_make_encoder = json.encoder.c_make_encoder
    try:
        for encoder in (c_make_encoder, None):
            json.encoder.c_make_encoder = encoder
            _assert_same_text("".join(cli._json_pieces(table)), expected)
    finally:
        json.encoder.c_make_encoder = c_make_encoder


@settings(max_examples=60, derandomize=True, deadline=None)
@given(table=column_tables())
@example(table=Table({"": ["", "a", ""]}))  # csv.writer quotes a row that is one empty cell
@example(table=Table({"x": [None, [], "", ()]}))
@example(table=Table({"x": np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf] * 400),
                      "s": [",", "\"", "\r", "\n"] * 600, "f": [0.1, -0.0] * 1200}))
@example(table=Table({"d": [{"a": 1}], "x": [1.0]}))  # a dict cell has no CSV text
@example(table=REPR_EDGE_TABLE)
@example(table=SHARED_PATTERNS_TABLE)
@example(table=SPLIT_ZEROS_TABLE)
@example(table=WIDE_CODES_TABLE)
@example(table=NO_FLOAT_TABLE)
def test_table_csv_is_the_csv_writer_text_of_its_rows(table):
    try:
        expected = _table_csv_oracle(table)
    except TypeError:
        with pytest.raises(TypeError):
            _cli_csv(table)
        return
    _assert_same_text(_cli_csv(table), expected)


def test_float_texts_are_one_per_distinct_pattern_of_the_table():
    # float.__repr__ runs once per bit pattern, however many columns hold it
    for table in (SHARED_PATTERNS_TABLE, SPLIT_ZEROS_TABLE, REPR_EDGE_TABLE):
        columns = [c for c in table.columns.values() if isinstance(c, np.ndarray)]
        coded = cli._float_texts(columns, csv=False)
        bits = {b for c in columns for b in c.view(np.int64).tolist()}
        assert all(texts is coded[0][0] for texts, _ in coded)
        assert len(coded[0][0]) == len(bits)
        assert [texts[c].tolist() for texts, c in coded] == [list(map(json.dumps, c.tolist()))
                                                             for c in columns]


def test_runner_tables_keep_floats_in_arrays():
    # the encoder sorts the floats of array columns and encodes a list column
    # one object at a time: a float column must reach it as a float64 array
    rc = RunConfig(kappas=(0.05,), n_theta=2, n_phi=2)
    for table in (run_correlations(rc), run_qubit(rc), *run_locality(rc).values()):
        for key, column in table.columns.items():
            if isinstance(column, np.ndarray):
                assert column.dtype == np.float64, key
            else:
                assert not any(isinstance(cell, float) for cell in column), key


def test_no_command_builds_a_row(tmp_path, monkeypatch):
    # every table is encoded from its columns, in JSON and in CSV: no row
    # dict is ever built; verify's texts are compared apart from wall_time
    rc = RunConfig(kappas=(0.05,))
    payloads = {"correlations": run_correlations(rc), "locality": run_locality(rc),
                "qubit": run_qubit(rc)}
    rows = {command: ({name: table.rows() for name, table in payload.items()}
                      if isinstance(payload, dict) else payload.rows())
            for command, payload in payloads.items()}
    rows["verify"] = [{"id": r.id, "paper_ref": r.paper_ref, "expected": r.expected,
                       "actual": r.actual, "abs_error": r.abs_error, "tolerance": r.tolerance,
                       "pass": r.passed, "wall_time": r.wall_time} for r in run_verify(rc)]
    expected = {(command, "json"): json.dumps(value, indent=2) for command, value in rows.items()}
    expected.update({(command, "csv"): _table_csv_oracle(payload)
                     for command, payload in payloads.items()})
    expected["verify", "csv"] = _csv_oracle(rows["verify"], rows["verify"][0])
    wall_time = {"json": (r'"wall_time": [^\n]*', '"wall_time": T'),
                 "csv": (r',[^,\r\n]*\r\n', ',T\r\n')}  # the last column

    def no_rows(self):
        raise AssertionError("Table.rows called")
    monkeypatch.setattr(checks.Table, "rows", no_rows)
    for (command, fmt), text in expected.items():
        out = tmp_path / f"{command}.{fmt}"
        assert cli.main([command, *FAST_FLAGS, "--format", fmt, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            written = fh.read()
        if command == "verify":
            (written, n), (text, m) = (re.subn(*wall_time[fmt], t) for t in (written, text))
            assert n == m >= len(rows["verify"])
        _assert_same_text(written, text)


def test_unencodable_payload_leaves_an_existing_out_file_alone(tmp_path, monkeypatch):
    # the first piece, with the CSV header, is made before the file is opened
    out = tmp_path / "o.json"
    out.write_text("kept")
    monkeypatch.setattr(cli, "run_correlations",
                        lambda rc: Table({"a": np.array([1.0, 2.0]), "b": [object(), 1]}))
    for fmt in ("json", "csv"):
        with pytest.raises(TypeError):
            cli.main(["correlations", "--format", fmt, "--out", str(out)])
        assert out.read_text() == "kept"


@pytest.mark.parametrize("command", ["verify", "correlations", "locality", "qubit"])
def test_emitted_json_is_the_indent_two_text(tmp_path, capsys, command):
    ini = tmp_path / "run.ini"
    ini.write_text("[directions]\nn_theta = 2\nn_phi = 2\n")
    flags = ["--config", str(ini), *FAST_FLAGS]
    out = tmp_path / "o.json"
    assert cli.main([command, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main([command, *flags, "--out", "-"]) == 0
    for text in (out.read_text(), capsys.readouterr().out.removesuffix("\n")):
        assert text == json.dumps(json.loads(text), indent=2)
