"""The spatial geometry behind the mode reduction.

Three unit-width Gaussian wavepackets, twenty widths apart, define the
regions.  The separation gate (pointwise products of distinct packets) and
the aperture gates justify treating the packet modes as exactly orthonormal
before any operator algebra runs on top of them; `wp.standard_layout` judges
both and refuses a layout that fails either.
"""

from dhlab import wavepackets as wp

layout = wp.standard_layout()
print(f"grid: [{layout.grid.points[0]}, {layout.grid.points[-1]}] "
      f"with {layout.grid.size} points, spacing {layout.grid.spacing}")
print(f"packets at {layout.centers}, width {layout.width}")

for i, p in enumerate(layout.packets, start=1):
    print(f"  packet {i}: quadrature norm = {wp.norm(p):.15f}")

print("\npairwise overlaps vs the analytic Gaussian formula exp(-d^2/(8 w^2)):")
for i in range(3):
    for j in range(i + 1, 3):
        measured = wp.inner(layout.packets[i], layout.packets[j])
        analytic = wp.gaussian_overlap(layout.centers[i], layout.centers[j], layout.width)
        print(f"  ({i + 1},{j + 1}): quadrature {measured.real:.3e}, analytic {analytic:.3e}")

# standard_layout already refused the layout if a gate failed; these are its numbers
product = layout.packet_product
print(f"\nseparation gate: max pointwise product = {product:.3e} (tolerance {wp.WSW_TOL:g})")

exact, pointwise, integral = layout.aperture_gate
print(f"aperture gate: products exact = {exact}, max pointwise error = {pointwise:.3e}, "
      f"max integral error = {integral:.3e} (tolerance {wp.APERTURE_TOL:g})")

# aperture extents: a contiguous block of ones around each packet
for i, a in enumerate(layout.apertures, start=1):
    on = a.values.nonzero()[0]
    lo, hi = layout.grid.points[on[0]], layout.grid.points[on[-1]]
    print(f"  aperture {i} covers [{lo:+.2f}, {hi:+.2f}]")
