"""Check power: a verify record must fail when the code it guards is broken.

Each case applies one monkeypatch mutant and runs `run_verify` on the
default RunConfig; the record family the case names must then fail.  The
table covers the two records whose oracles are wide operations:

- `01-car-suite` reads every anticommutator from one stacked product;
- `33-rotation-fastpath` compares the closed-form factor exponentials with
  `matrix_exponential`, which probes compressed columns.

The other record families have no mutant in this table yet.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from dhlab import checks, fock
from dhlab.checks import RunConfig, run_verify
from dhlab.fock import FockOperator


def _annihilator_without_string(registry, label, dagger=False):
    # the last mode carries the longest Jordan-Wigner string; drop its signs
    op = fock.mode_operator(registry, label, dagger)
    if label != registry.modes[-1]:
        return op
    return FockOperator(registry, abs(op.matrix))


def _exponential_without_one_block(a):
    # exp(a) with the block of the component of a's first stored entry zeroed
    e = fock.matrix_exponential(a).matrix.toarray()
    _, labels = connected_components(a.matrix != 0, connection="weak")
    dropped = labels == labels[a.matrix.nonzero()[0][0]]
    e[np.ix_(dropped, dropped)] = 0.0
    return FockOperator(a.registry, sparse.csr_array(e))


MUTANTS = {
    "jordan-wigner-string-dropped": ("01-", "mode_operator", _annihilator_without_string),
    "partner-not-block-transposed": ("01-", "_block_transposed", lambda m, block: m),
    "component-block-dropped": ("33-", "matrix_exponential", _exponential_without_one_block),
}


def _failed(records):
    return {r.id for r in records if not r.passed}


def test_default_run_passes_without_a_mutant():
    assert _failed(run_verify(RunConfig())) == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_record(monkeypatch, name):
    family, attribute, mutant = MUTANTS[name]
    monkeypatch.setattr(checks, attribute, mutant)
    assert any(rid.startswith(family) for rid in _failed(run_verify(RunConfig())))
