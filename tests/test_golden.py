"""The commands' outputs against tests/golden.json; make_golden.py makes it."""

import json

import numpy as np
import pytest
from scipy import sparse

import make_golden
from dhlab import cli, fock

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def fresh():
    return make_golden.generate()


def test_golden_holds_every_case():
    assert list(GOLDEN["cases"]) == list(make_golden.CASES)
    counts = {case: len(GOLDEN["cases"][case]["records"]) for case in ("verify", "verify-kappa",
                                                                         "verify-signs")}
    assert counts == {"verify": 54, "verify-kappa": 40, "verify-signs": 14}
    assert GOLDEN["cases"]["verify-signs"]["exit"] == 1


def test_outputs_match_golden(fresh):
    """Bytes and records on the golden key, tolerances on any other."""
    assert make_golden.moved(GOLDEN, fresh) == []


def test_outputs_match_golden_on_another_key(fresh):
    assert make_golden.moved({**GOLDEN, "key": {**GOLDEN["key"], "machine": "other"}}, fresh) == []


def _to_scipy(m):
    return sparse.csr_array((m.data, m.indices, m.indptr), shape=m.shape)


def _from_scipy(s):
    # scipy drops the exact zeros of a sum or product as dhlab does, but may
    # leave a product's columns unsorted; sorting moves no value
    s.sort_indices()
    return fock.CSRMatrix(s.indptr.astype(np.int64), s.indices.astype(np.int64), s.data,
                          s.shape)


def test_outputs_match_golden_with_scipys_sparse_layer(monkeypatch):
    """The four commands with the sparse layer's products, sums and actions
    taken by scipy: no output moves, as in bytes on the golden key."""
    monkeypatch.setattr(fock, "_product", lambda a, b: _from_scipy(_to_scipy(a) @ _to_scipy(b)))
    monkeypatch.setattr(fock, "_apply", lambda a, x: _to_scipy(a) @ x)
    monkeypatch.setattr(fock.CSRMatrix, "__add__",
                        lambda a, b: _from_scipy(_to_scipy(a) + _to_scipy(b)))
    monkeypatch.setattr(fock.CSRMatrix, "__sub__",
                        lambda a, b: _from_scipy(_to_scipy(a) - _to_scipy(b)))
    assert make_golden.moved(GOLDEN, make_golden.generate()) == []


def test_one_ulp_in_one_correlation_moves_the_output(monkeypatch):
    case = "correlations.json"
    reference = {"key": make_golden.platform_key(),
                 "cases": {case: make_golden.entry(case, *make_golden.run(case))}}
    run = cli.run_correlations

    def nudged(rc):
        table = run(rc)
        table.columns["exact"][7] = np.nextafter(table.columns["exact"][7], np.inf)
        return table

    monkeypatch.setattr(cli, "run_correlations", nudged)
    fresh = {"key": reference["key"], "cases": {case: make_golden.entry(case, *make_golden.run(case))}}
    assert make_golden.moved(reference, fresh) == [case]
