"""Check power: a verify record must fail when the code it guards is broken.

Each case applies one monkeypatch mutant and runs `run_verify` on the
default RunConfig; every record family the case names must then fail.
The table covers each check group of `run_verify`:

- `01-car-suite` reads the anticommutators one block row at a time, each
  unordered pair once, each partner block moved into the row by
  `checks._side_by_side`, and `02` each annihilator on the vacuum;
- `03` and `04` read the generic exponential of a random skew matrix;
- `20` reads each region's localized spin operator on the unentangled state,
  and `21` the Gram matrix of the basis kets;
- `31`, `33` and `34` read the closed-form factor exponential that `V_un` is
  built from; `33` compares it with `matrix_exponential`, which takes one
  block per connected component of the generator's sparsity graph;
- `22` and `35`-`38` read the cached exchange operator and the stacked
  spin operator;
- `40`-`42` and `50`-`52` read field sections through the union gather of
  `dhrep.section_norms` or through each mode's vacuum column;
- `60` compares the exact qubit evolution with its second-order expansion,
  `61` its expectations with `qubits.expectation_closed_form`, and `64` its
  untouched-pair correlations with the second-order decrease;
- `62` and `63` compare the qubit correlations with the closed-form grid of
  `qubits.correlation_closed_grid`.

The `nan-` cases put a NaN in a non-first position of the values a record
reduces: Python's `max` and `min` drop a NaN that follows a number, so a
record must reduce through NaN-propagating numpy calls to fail on one.

`no-row-outside-support` sets `dhrep.SUPPORT_CUT` to -1.0, so no point of
the locality reports counts as outside support: `50`/`51` then reduce no
distance, and a reduction of nothing is NaN, so both fail.

Where a mutant cannot reach the record family it sits under, the case names
the records that do catch it:

- `35` compares the exact evolution with the two-step transform, and both
  read the same cached exchange operator, so a wrong operator cancels there.
  A wrong sign is caught by the closed forms of `36` and by `41`.
- `40`/`41` take the section norms of mode differences that vanish exactly,
  so no gather error can show in them.  A dropped gather column shows in
  `52` when it is the region-2 slot, which carries the exchange leak.
- `42`: zeroing a probe mode's vacuum column changes nothing, since probe
  annihilators kill the vacuum.  The case reads m^dag|0> in place of m|0>.
- `50`/`51` read points where every mode that moves has a coefficient
  below `SUPPORT_CUT`.  An offset of the union keys moves entries only
  within their columns, which changes a norm only where two moving modes
  both carry a coefficient, never at those points.  Columns shifted onto
  the wrong coefficients do show.

Three record families have no mutant, for these reasons:

- `10`-`13` restate the gates that `wp.standard_layout` enforces: a mutant
  of the packets or apertures that breaks them makes `_config` raise
  LayoutError, the CLI's exit 2, before any record exists.
- `30` reads the sign triple of the RunConfig, which no code computes;
  `--signs 1,1,1` fails it (`test_cli.py::test_verify_sign_violation_exits_one`).
- `32`: a removal generator that is not skew-Hermitian makes `V_un`
  non-unitary, and `dhrep.build_unentangled_transform` refuses it with a
  ValueError in `run_verify`'s setup, before the record is built.
"""

import numpy as np
import pytest

from dhlab import checks, dhrep, fock, model, qubits
from dhlab.checks import RunConfig, run_verify
from dhlab.fock import CSRMatrix, FockOperator, identity_operator


def _annihilator_without_string(registry, label, dagger=False):
    # the last mode carries the longest Jordan-Wigner string; drop its signs
    op = fock.mode_operator(registry, label, dagger)
    if label != registry.modes[-1]:
        return op
    m = op.matrix
    return FockOperator(registry, CSRMatrix(m.indptr, m.indices, np.abs(m.data) + 0j, m.shape))


def _creator_negated_for_last_mode(registry, label, dagger=False):
    # the last mode's (the probe's) creator negated: {c, -c^dag} = -I, not I
    op = fock.mode_operator(registry, label, dagger)
    return -op if dagger and label == registry.modes[-1] else op


def _creator_with_one_entry_negated(registry, label, dagger=False):
    # one entry of the first mode's creator negated: its {c, c^dag} is off I there
    op = fock.mode_operator(registry, label, dagger)
    if not (dagger and label == registry.modes[0]):
        return op
    m = op.matrix
    data = m.data.copy()
    data[0] = -data[0]
    return FockOperator(registry, CSRMatrix(m.indptr, m.indices, data, m.shape))


def _partners_without_block_offset(m, block):
    # every partner block e_q e_p lands on block 0 of the row, not on block q
    return CSRMatrix.from_triples(m.rows % block, m.indices, m.data,
                                  (block, m.shape[0] // block * m.shape[1]))


def _exponential_without_one_block(a):
    # exp(a) with the block of the component of a's first stored entry zeroed
    e = fock.matrix_exponential(a).matrix.toarray()
    labels = fock._components(a.matrix)
    dropped = labels == labels[a.matrix.rows[0]]
    e[np.ix_(dropped, dropped)] = 0.0
    return FockOperator(a.registry, CSRMatrix.from_dense(e))


# the originals the mutants below wrap, bound before any patch
EXCHANGE = model._exchange_operator
GATHER, VACUUM_ACTION = dhrep._union_gather, dhrep.vacuum_action
LOCALIZED_SPIN, EVOLVE_QUBITS = model.localized_spin_operator, qubits.evolve_qubits
QUBIT_GRID, SECTION_COEFFICIENTS = qubits.correlation_closed_grid, dhrep.section_coefficients
SECTION_NORMS = dhrep.section_norms
LOCALITY, NOAUX_LOCALITY = dhrep.locality_report, dhrep.noaux_locality_report
DH_MOMENTS = dhrep.dh_vacuum_moments
VACUUM_STATE, BUILD_STATE = checks.vacuum_state, model.build_state
EXPECTATION, MATRIX_EXPONENTIAL = qubits.expectation_closed_form, checks.matrix_exponential


def _localized_spin_negated(cfg, region, direction):
    return -LOCALIZED_SPIN(cfg, region, direction)


def _factor_exponential_sign_flipped(w, sign, square=None):
    # I - s w + w @ w is exp(-s (pi/2) w), the inverse factor, still unitary
    return identity_operator(w.registry) + (-sign) * w + (w @ w)


def _second_order_without_half(state, kappa, order="exact"):
    if order != "second":
        return EVOLVE_QUBITS(state, kappa, order)
    g = qubits.build_h1q(kappa)
    first = -1j * (g @ state)
    return state + first - 1j * (g @ first)


def _qubit_grid_without_exchange_term(dirs_a, dirs_b, kappa):
    grid = QUBIT_GRID(dirs_a, dirs_b, kappa)
    grid[0] += 2.0 * kappa * model.unit_products(dirs_a, dirs_b)[2]
    return grid


def _qubit_grid_without_second_order_factor(dirs_a, dirs_b, kappa):
    # at kappa = 0 the factor (1 - 2 kappa^2) of pairs (2,3) and (3,1) is 1
    grid = QUBIT_GRID(dirs_a, dirs_b, kappa)
    grid[1:] = QUBIT_GRID(dirs_a, dirs_b, 0.0)[1:]
    return grid


def _section_norm_nan_at_last_point(cfg, points, modes):
    norms = SECTION_NORMS(cfg, points, modes)
    norms[-1] = np.nan
    return norms


def _coefficients_nan_at_probe(cfg, x):
    # the probe point is the last point of the section records
    alpha = SECTION_COEFFICIENTS(cfg, x)
    return alpha * np.nan if x == cfg.layout.probe_points[-1] else alpha


def _last_outside_row_nan(cfg, transform, points=None, tol=1e-10, conjugated=None):
    report = LOCALITY(cfg, transform, points, tol, conjugated)
    report["distance"][np.flatnonzero(report["outside_support"])[-1]] = np.nan
    return report


def _last_noaux_row_nan(separations, width):
    report = NOAUX_LOCALITY(separations, width)
    for key in ("noaux_probe_operator_distance", "noaux_section_distance",
                "aux_probe_operator_distance"):
        report[key][-1] = np.nan
    return report


def _dh_correlations_nan(cfg, transform):
    # the expectations stay finite: the correlations are the second value reduced
    m, c = DH_MOMENTS(cfg, transform)
    c = c.copy()
    c[0, 1] = np.nan
    return m, c


def _exchange_negated(registry):
    return -EXCHANGE(registry)


def _spin_stack_regions_swapped(registry):
    # the rows of regions 1 and 2 trade places
    return fock.vstack([s.matrix for r in (2, 1, 3) for s in model._region_spins(registry, r)])


def _gather_without_region2_column(modes):
    block = GATHER(modes)
    block[:, 1] = 0.0
    return block


def _gather_columns_shifted(modes):
    return np.roll(GATHER(modes), 1, axis=1)


def _vacuum_row_for_column(op):
    return VACUUM_ACTION(op.dagger())


def _vacuum_with_one_quantum(registry):
    # the last mode occupied: its annihilator does not kill this "vacuum"
    return fock.mode_operator(registry, registry.modes[-1], dagger=True) @ VACUUM_STATE(registry)


def _flipped_states_unnormalized(cfg, desc):
    state = BUILD_STATE(cfg, desc)
    return 2.0 * state if desc in model.FLIPPED_OCC.values() else state


def _expectation_without_second_order_term(qubit, direction, kappa):
    # qubit 1 reads u3 in place of (1 - 2 kappa^2) u3
    return direction.u3 if qubit == 1 else EXPECTATION(qubit, direction, kappa)


def _exponential_scaled(a):
    # exp(a) off by a factor 1 + 1e-9: no longer unitary, off the Taylor oracle
    return (1.0 + 1e-9) * MATRIX_EXPONENTIAL(a)


def _exact_qubit_evolution_at_larger_kappa(state, kappa, order="exact"):
    return EVOLVE_QUBITS(state, 1.2 * kappa if order == "exact" else kappa, order)


# name -> (record families that must each fail, module, attribute, mutant)
MUTANTS = {
    "jordan-wigner-string-dropped": (("01-",), checks, "mode_operator",
                                     _annihilator_without_string),
    "partner-not-block-transposed": (("01-",), checks, "_side_by_side",
                                     _partners_without_block_offset),
    "last-creator-negated": (("01-",), checks, "mode_operator", _creator_negated_for_last_mode),
    "creator-entry-negated": (("01-",), checks, "mode_operator", _creator_with_one_entry_negated),
    "component-block-dropped": (("33-",), checks, "matrix_exponential",
                                _exponential_without_one_block),
    "vacuum-with-one-quantum": (("02-",), checks, "vacuum_state", _vacuum_with_one_quantum),
    "exponential-scaled": (("03-", "04-"), checks, "matrix_exponential", _exponential_scaled),
    "flipped-states-unnormalized": (("21-",), model, "build_state",
                                    _flipped_states_unnormalized),
    "exchange-operator-negated": (("36-", "41-"), model, "_exchange_operator",
                                  _exchange_negated),
    "spin-stack-regions-swapped": (("22-", "36-"), model, "_spin_stack",
                                   _spin_stack_regions_swapped),
    "gather-column-dropped": (("52-",), dhrep, "_union_gather",
                              _gather_without_region2_column),
    "vacuum-row-for-column": (("42-",), dhrep, "vacuum_action", _vacuum_row_for_column),
    "gather-columns-shifted": (("50-", "51-"), dhrep, "_union_gather",
                               _gather_columns_shifted),
    "localized-spin-negated": (("20-spin-eigenvalue-r1", "20-spin-eigenvalue-r2",
                                "20-spin-eigenvalue-r3"), model, "localized_spin_operator",
                               _localized_spin_negated),
    "factor-exponential-sign-flipped": (("31-", "33-", "34-"), dhrep, "removal_factor",
                                        _factor_exponential_sign_flipped),
    "second-order-without-half": (("60-",), qubits, "evolve_qubits",
                                  _second_order_without_half),
    "expectation-without-second-order-term": (("61-",), qubits, "expectation_closed_form",
                                              _expectation_without_second_order_term),
    "exact-qubit-evolution-at-larger-kappa": (("60-", "61-", "63-", "64-"), qubits,
                                              "evolve_qubits",
                                              _exact_qubit_evolution_at_larger_kappa),
    "qubit-grid-without-exchange-term": (("63-",), qubits, "correlation_closed_grid",
                                         _qubit_grid_without_exchange_term),
    "qubit-grid-without-second-order-factor": (("62-",), qubits, "correlation_closed_grid",
                                               _qubit_grid_without_second_order_factor),
    "nan-section-norm-at-last-point": (("40-", "41-"), dhrep, "section_norms",
                                       _section_norm_nan_at_last_point),
    "nan-section-at-probe-point": (("42-",), dhrep, "section_coefficients",
                                   _coefficients_nan_at_probe),
    "nan-last-outside-row": (("50-", "51-"), dhrep, "locality_report", _last_outside_row_nan),
    "nan-last-noaux-row": (("53-", "54-", "55-"), dhrep, "noaux_locality_report",
                           _last_noaux_row_nan),
    "no-row-outside-support": (("50-", "51-"), dhrep, "SUPPORT_CUT", -1.0),
    "nan-dh-correlations": (("37-", "38-"), dhrep, "dh_vacuum_moments", _dh_correlations_nan),
}


def _failed(records):
    return {r.id for r in records if not r.passed}


def test_default_run_passes_without_a_mutant():
    assert _failed(run_verify(RunConfig())) == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_record(monkeypatch, name):
    families, module, attribute, mutant = MUTANTS[name]
    monkeypatch.setattr(module, attribute, mutant)
    failed = _failed(run_verify(RunConfig()))
    for family in families:
        assert any(rid.startswith(family) for rid in failed), (family, sorted(failed))
