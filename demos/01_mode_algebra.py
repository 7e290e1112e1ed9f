"""Exact fermionic mode algebra on the finite registry.

Builds the standard nine-mode registry (three regions x two spins plus three
auxiliary partners), checks every anticommutation relation exactly, and shows
the matrix exponential against a brute-force Taylor sum.
"""

import numpy as np
from scipy import sparse

from dhlab import fock
from dhlab.model import standard_registry

registry = standard_registry()
print(f"registry: {registry.size} modes -> Fock dimension {registry.dimension}")
for label in registry.modes:
    print("  ", label)

ident = fock.identity_operator(registry)
zero = fock.zero_operator(registry)
worst = 0.0
for i, mi in enumerate(registry.modes):
    ci = fock.mode_operator(registry, mi)
    for j, mj in enumerate(registry.modes):
        cjd = fock.mode_operator(registry, mj, dagger=True)
        target = ident if i == j else zero
        worst = max(worst, (fock.anticommutator(ci, cjd) - target).max_abs())
print(f"\nworst CAR deviation over all {registry.size}^2 pairs: {worst}")

vac = fock.vacuum_state(registry)
print("every annihilator kills the vacuum:",
      max((fock.mode_operator(registry, m) @ vac).norm() for m in registry.modes))

# matrix exponential sanity: scaling-and-squaring vs a 40-term Taylor sum
rng = np.random.default_rng(0)
raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
skew = raw - raw.conj().T
skew /= max(1.0, np.linalg.norm(skew, 2))
small = fock.ModeRegistry(registry.modes[:4])
a = fock.FockOperator(small, sparse.csr_array(skew))
taylor = np.eye(16, dtype=complex)
term = np.eye(16, dtype=complex)
for n in range(1, 41):
    term = term @ skew / n
    taylor += term
dev = fock.operator_distance(fock.matrix_exponential(a), fock.FockOperator(small, sparse.csr_array(taylor)))
print(f"expm vs Taylor oracle on a random skew-Hermitian 16x16: {dev:.3e}")
