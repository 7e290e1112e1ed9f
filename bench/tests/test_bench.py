"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/tests

The smoke runs start real worker processes at the minimum run length; the
whole module takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from spans import LAYERS, Tracer, load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

ZERO_CALLS = {
    "verify-default": (),
    "correlations-sweep": ("qubits.calls", "qubits.pauli_correlation.calls",
                           "qubits.pauli_expectation.calls", "qubits.evolve_qubits.calls"),
    "locality-probe": ("qubits.calls", "qubits.pauli_correlation.calls",
                       "qubits.pauli_expectation.calls", "qubits.evolve_qubits.calls",
                       "fock.matrix_exponential.calls", "model.evolve.calls",
                       "model.localized_spin_operator.calls"),
}


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert "error_rate" in proc.stdout
    if trace:
        for name in ZERO_CALLS[workload]:
            assert result["metrics"][name]["value"] == 0, name
        for layer in LAYERS:
            assert result["metrics"][f"{layer}.errors"]["value"] == 0
        # the worker empties dhlab's caches before each call, so each call misses
        assert 0 < result["metrics"]["fock.annihilator_cache.hit_ratio"]["value"] < 1
        with open(os.path.join(BENCH, "out", f"{workload}-seed7-trace1.json")) as fh:
            meta = json.load(fh)["meta"]
        # every traced registry is a declared one; 8 is also the qubit oracle's
        assert set(meta["traced_dimensions"]) - {8} <= set(meta["registry_dimensions"])
        spans = load_spans(os.path.join(BENCH, "out", f"{workload}-seed7-trace1.spans"))
        assert len(spans["start"]) == meta["spans"] > 0
    else:
        for name in ("wall_p50_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
        assert "wall_tail_s" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("locality-probe", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dhlab.cli

    return dhlab.cli


def test_layer_self_times_stay_within_traced_wall_time(cli, tmp_path):
    out = str(tmp_path / "out.json")
    argv = ["locality", "--kappa", "0.1", "--out", out]
    cli.main(argv)  # warm
    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    summary = tracer.summarize(0)
    total = sum(layer["self_s"] for layer in summary["layers"].values())
    assert 0.0 < total <= wall
    assert summary["layers"]["cli"]["calls"] >= 1
    for name, fn in summary["functions"].items():
        assert fn["self_s"] <= summary["layers"][name.split(".")[0]]["self_s"] + 1e-12
    # uninstall restored the originals: a new call records no spans
    before = len(tracer)
    cli.main(argv)
    assert len(tracer) == before


def _corrupt(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def _make(workload, tmp_path, cli):
    out = str(tmp_path / "output")
    call = workload.make_call(random.Random(3), str(tmp_path), out)
    rc = cli.main(call.argv)
    assert workload.check(rc, out, call.params) is None
    return rc, out, call


def test_flipped_pass_flag_fails_the_verify_gate(cli, tmp_path):
    workload = WORKLOADS["verify-default"]
    rc, out, call = _make(workload, tmp_path, cli)

    def flip(records):
        records[5]["pass"] = False

    _corrupt(out, flip)
    assert "failed" in workload.check(rc, out, call.params)
    assert workload.check(1, out, call.params) == "exit code 1"


def test_corrupted_correlations_and_locality_fail_their_gates(cli, tmp_path):
    corr = WORKLOADS["correlations-sweep"]
    rc, out, call = _make(corr, tmp_path, cli)
    _corrupt(out, lambda rows: rows[-1].update(dev_dh_exact=1e-6))
    assert "dev_dh_exact" in corr.check(rc, out, call.params)
    _corrupt(out, lambda rows: rows.pop())
    assert "rows" in corr.check(rc, out, call.params)

    loc = WORKLOADS["locality-probe"]
    rc, out, call = _make(loc, tmp_path, cli)

    def leak(report):
        row = next(r for r in report["aux_entangled"] if r["outside_support"])
        row["distance"] = 1e-3

    _corrupt(out, leak)
    assert "leaks" in loc.check(rc, out, call.params)


class _FakeWorker:
    """Stands in for the worker: answers each call with a prepared output."""

    def __init__(self, source, error=None, wall_s=0.1):
        self.source, self.error, self.wall_s = source, error, wall_s

    def request(self, op, argv, trace):
        shutil.copy(self.source, argv[argv.index("--out") + 1])
        return {"rc": 0, "wall_s": self.wall_s, "error": self.error, "trace": None}


def test_a_bad_output_counts_as_a_failed_call(cli, tmp_path):
    loc = WORKLOADS["locality-probe"]
    rc, out, call = _make(loc, tmp_path, cli)
    good = str(tmp_path / "good.json")
    shutil.copy(out, good)
    workdir = tmp_path / "calls"
    workdir.mkdir()
    [ok] = run.run_calls(_FakeWorker(good), loc, 0, 0.0, False, str(workdir))
    assert ok["ok"]
    _corrupt(good, lambda report: report["noaux_contrast"][0].update(
        noaux_probe_operator_distance=0.0))
    [bad] = run.run_calls(_FakeWorker(good), loc, 0, 0.0, False, str(workdir))
    assert not bad["ok"] and "probe operator distance" in bad["reason"]
    [raised] = run.run_calls(_FakeWorker(out, error="Traceback\nValueError: x"), loc, 0, 0.0,
                             False, str(workdir))
    assert not raised["ok"] and raised["reason"] == "raised: ValueError: x"


def test_call_time_is_scaled_by_the_same_call_on_the_frozen_copy(cli, tmp_path):
    loc = WORKLOADS["locality-probe"]
    rc, out, call = _make(loc, tmp_path, cli)
    workdir = tmp_path / "calls"
    workdir.mkdir()
    [sample] = run.run_calls(_FakeWorker(out, wall_s=0.1), loc, 0, 0.0, False, str(workdir),
                             frozen=_FakeWorker(out, wall_s=0.4))
    assert sample["ok"] and sample["frozen_wall_s"] == 0.4
    assert sample["norm_s"] == pytest.approx(0.25 * loc.reference_s)
    broken = _FakeWorker(out, error="Traceback\nValueError: x")
    with pytest.raises(run.BenchError, match="frozen copy failed"):
        run.run_calls(_FakeWorker(out), loc, 0, 0.0, False, str(workdir), frozen=broken)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    assert run.tail(samples) == (19.0, 100.0 * 19 / 29, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)
