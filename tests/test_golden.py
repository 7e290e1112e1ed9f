"""The commands' outputs against tests/golden.json; make_golden.py makes it."""

import json

import numpy as np
import pytest

import make_golden
from dhlab import cli

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
