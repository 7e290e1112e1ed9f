"""Why the auxiliary fields are in the formalism: effective locality.

With auxiliary partners, the transformed field operator at a point differs
from the untransformed one only through wavepacket values at that point; a
probe mode far from every packet is untouched.  Dropping the auxiliaries
makes the removal generator odd in the fields, and the transformed probe
operator then differs by an amount independent of the separation.
"""

from dhlab import dhrep, model

cfg = model.standard_config(kappa=0.05, probe_points=(32.0,))
t_un = dhrep.build_unentangled_transform(cfg)
t_en = dhrep.build_entangled_transform(cfg, t_un)

print("auxiliary-partner construction "
      "(distance between transformed and usual sections):")
for transform, name in ((t_un, "unentangled"), (t_en, "entangled")):
    print(f"  {name}:")
    report = dhrep.locality_report(cfg, transform)
    for x, spin, dist, magnitude, outside in zip(
            report["point"], report["spin"], report["distance"],
            report["relevant_magnitude"], report["outside_support"]):
        tag = "outside all supports" if outside else f"packet magnitude {magnitude:.1e}"
        print(f"    x={x:+06.1f} spin={spin:4s} distance={dist:.3e}  ({tag})")

print("\nthe entangled rows show the exchange leakage: the spin-up section in")
print("region 2 (x=0) moves by ~10*kappa, fed entirely by the partner region.")

print("\nno-auxiliary contrast (single packet + distant probe):")
contrast = dhrep.noaux_locality_report(separations=(10.0, 20.0, 40.0), width=1.0)
for sep, bare, aux in zip(contrast["separation"], contrast["noaux_probe_operator_distance"],
                          contrast["aux_probe_operator_distance"]):
    print(f"  separation {sep:4.0f} widths: "
          f"probe operator moved by {bare:.6f} (bare)  vs {aux:.1e} (with auxiliary)")
print("the bare construction's leakage is the same at every separation;")
print("the auxiliary partner removes it identically.")
