"""Runner contract: exit codes, config handling, report schemas, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import run_cli_capped, run_python
from dhlab import cli, dhrep, model, qubits
from dhlab.checks import RunConfig, directions, run_correlations, run_qubit, run_verify
from dhlab.errors import ConfigError
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


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_bad_tol_exact_flag_exits_two_with_one_line(tmp_path, capsys, tol):
    assert cli.main(["verify", "--tol-exact", tol, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_verify_leaves_numpy_global_random_state_alone():
    before = np.random.get_state()
    run_verify(RunConfig(kappas=(0.05,)))
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


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
    assert directions(rng_rc)[0].theta == sampled[0].theta  # seeded, reproducible
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
    rows = run_correlations(rc)
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


def test_qubit_rows_match_direct_evaluators():
    axes = {"x1": SpinDirection.x1(), "x2": SpinDirection.x2(), "x3": SpinDirection.x3()}
    for row in run_qubit(RunConfig(kappas=(0.1,))):
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
])
def test_meaningless_config_exits_two_with_one_line(tmp_path, capsys, command, case):
    ini = tmp_path / "run.ini"
    ini.write_text(MEANINGLESS[case])
    assert cli.main([command, "--config", str(ini), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


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


def test_locality_never_loads_the_exponential_kernel(tmp_path):
    # `import dhlab.cli` and `dhlab locality` pay no import of scipy.sparse.linalg.
    code = ("import sys, dhlab.cli\n"
            "assert dhlab.cli.main(['locality', '--out', sys.argv[1]]) == 0\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    proc = run_python(["-c", code, str(tmp_path / "o.json")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
