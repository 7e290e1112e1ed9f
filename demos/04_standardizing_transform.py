"""Building the transform that maps the physical state to the vacuum.

Each removal factor exp(theta W) swaps one region's quantum into its
auxiliary partner; with cos(theta g) = 0 the factor acts as a pure sign.
The product standardizes the three-particle state exactly when
s1 * s2 * s3 = -1, and the conjugated mode operators collapse to the
displayed closed forms.
"""

from dhlab import dhrep, fock, model
from dhlab.errors import SignConstraintError

cfg = model.standard_config()
psi = model.unentangled_state(cfg)
vac = cfg.vacuum()

w1 = dhrep.removal_generator(cfg, "up", 1, 1)
psi23 = model.build_state(cfg, model.REGIONS_23_OCC)
print("removal generator action: W1|psi> = g|psi_23> ->",
      (w1 @ psi - psi23).norm())
print("and back with a sign:     W1|psi_23> = -g|psi> ->",
      (w1 @ psi23 + psi).norm())

for signs, t in dhrep.unentangled_transforms(
        cfg, ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))).items():
    overlap = vac.overlap(t.operator @ psi)
    print(f"signs {signs}: <0|V|psi> = {overlap.real:+.12f}")

try:
    dhrep.unentangled_transforms(cfg, ((1, 1, 1),))
except SignConstraintError as exc:
    print("rejected sign assignment:", exc)

t = dhrep.build_unentangled_transform(cfg)
s1, s2, s3 = t.signs
print("\nconjugated packet-mode operators (closed forms):")
print("  V b_up1 Vdag  = s1 adag1  ->",
      fock.operator_distance(dhrep.conjugate(t, cfg.b("up", 1)), float(s1) * cfg.adag(1)))
print("  V b_dn2 Vdag  = s2 adag2  ->",
      fock.operator_distance(dhrep.conjugate(t, cfg.b("down", 2)), float(s2) * cfg.adag(2)))
print("  V b_dn1 Vdag  = b_dn1     ->",
      fock.operator_distance(dhrep.conjugate(t, cfg.b("down", 1)), cfg.b("down", 1)))

print("\nvacuum expectations read back the physics with the state emptied out:")
for region in (1, 2, 3):
    val = dhrep.dh_vacuum_spin(cfg, t, region, model.SpinDirection.x3())
    print(f"  <0| S_x3({region}) |0> in the transformed frame = {val:+.6f}")
