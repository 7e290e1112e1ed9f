"""Finite-mode fermionic Fock laboratory for Deutsch-Hayden representations.

Subpackages:
    fock        - exact mode operators, states, and operator algebra
    wavepackets - grid geometry, separation and aperture gates
    model       - physical states, localized spin operators, entangler
    dhrep       - standardizing transforms, field sections, locality reports
    qubits      - first-quantized three-qubit cross-check oracle
    cli         - verification runner with machine-readable reports
"""

from .errors import (
    ConfigError,
    DuplicateOccupationError,
    GridMismatchError,
    LayoutError,
    PerturbativeRangeWarning,
    RegistryError,
    SignConstraintError,
)
from .fock import (
    AuxiliaryMode,
    FockOperator,
    FockState,
    ModeRegistry,
    PhysicalMode,
    ProbeMode,
    SPIN_DOWN,
    SPIN_UP,
    anticommutator,
    commutator,
    expectation,
    exponential_action,
    identity_operator,
    matrix_exponential,
    mode_operator,
    operator_distance,
    vacuum_state,
)
from .model import (
    OccupationDescriptor,
    SpinDirection,
    SystemConfig,
    build_state,
    correlation_closed_form,
    entangling_generator,
    evolve,
    localized_spin_operator,
    rotated_creator,
    spin_correlation,
    spin_expectation,
    standard_config,
)
from .dhrep import (
    DhTransform,
    build_entangled_transform,
    build_unentangled_transform,
    closed_form_modes,
    conjugate,
    dh_vacuum_correlation,
    dh_vacuum_spin,
    field_section,
    first_order_entangled_conjugate,
    locality_report,
    noaux_locality_report,
    removal_factor,
    removal_generator,
    section_modes,
    vacuum_action,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
