"""Grid-sampled wavepackets, aperture functions, and the geometric gates.

All functions live on a uniform 1-D grid and integrals use the rectangle
rule h * sum(f).  The layout gates (widely-separated-wavepacket products and
the aperture algebra) must pass before the finite mode reduction used by the
operator algebra is trusted: `max_packet_product` and `aperture_errors`
measure them, and `standard_layout` refuses a layout that fails either.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, LayoutError

WSW_TOL = 1e-10
APERTURE_TOL = 1e-8
APERTURE_THRESHOLD = 1e-8
SPAN_RESIDUAL_TOL = 1e-8
MAX_GRID_POINTS = 1_000_000  # 1.4 M points already take `dhlab locality` to 261 MB


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniformly spaced, strictly increasing 1-D grid (>= 16 points)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 16:
            raise LayoutError("grid needs at least 16 points on one axis")
        steps = np.diff(pts)
        if np.any(steps <= 0.0):
            raise LayoutError("grid points must be strictly increasing")
        h = steps[0]
        if np.any(np.abs(steps - h) > 1e-9 * max(1.0, abs(h))):
            raise LayoutError("grid spacing must be uniform")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def size(self) -> int:
        return int(self.points.size)

    def index_of(self, x: float) -> int:
        """Index of the grid point at x (within half a spacing): the nearer of
        the two around x found by bisection, the lower at a tie, as argmin."""
        pts = self.points
        i = int(pts.searchsorted(x))
        if i == pts.size or (i > 0 and abs(pts[i - 1] - x) <= abs(pts[i] - x)):
            i -= 1
        if not abs(pts[i] - x) <= 0.5 * self.spacing + 1e-12:  # NaN is off-grid too
            raise LayoutError(f"point {x} is off-grid")
        return i

    def same_as(self, other: "Grid") -> bool:
        return self is other or np.array_equal(self.points, other.points)


def uniform_grid(lo: float, hi: float, n: float) -> Grid:
    """n points over [lo, hi]; a count derived from a huge span may be inf."""
    if not n <= MAX_GRID_POINTS:  # inf and NaN fail too
        raise LayoutError(f"a grid of {n:.0f} points exceeds the cap of {MAX_GRID_POINTS}")
    return Grid(np.linspace(lo, hi, int(n)))


def _check_same_grid(f, g):
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("operands live on different grids")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.points.shape:
            raise GridMismatchError("sample count does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def value_at(self, x: float) -> complex:
        return complex(self.values[self.grid.index_of(x)])


@dataclass(frozen=True, eq=False)
class ApertureFunction:
    """{0,1}-valued indicator matched to one wavepacket's support."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != self.grid.points.shape:
            raise GridMismatchError("sample count does not match grid")
        if not np.all((vals == 0) | (vals == 1)):
            raise ValueError("aperture samples must be exactly 0 or 1")
        vals = vals.astype(np.int8)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def inner(f: GridFunction, g: GridFunction) -> complex:
    """Rectangle-rule quadrature of integral conj(f) * g."""
    _check_same_grid(f, g)
    return complex(f.grid.spacing * np.vdot(f.values, g.values))


def norm(f: GridFunction) -> float:
    return math.sqrt(inner(f, f).real)


def normalized(f: GridFunction) -> GridFunction:
    n = norm(f)
    if n == 0.0:
        raise ValueError("cannot normalize the zero function")
    return GridFunction(f.grid, f.values / n)


def gaussian_packet(center: float, width: float, grid: Grid) -> GridFunction:
    """Normalized Gaussian wavepacket; |psi|^2 has standard deviation `width`.

    Requires at least five widths of margin between the center and either
    grid edge so the support is not clipped.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    lo, hi = float(grid.points[0]), float(grid.points[-1])
    if center - lo < 5.0 * width or hi - center < 5.0 * width:
        raise LayoutError(
            f"packet at {center} (width {width}) needs >= 5 widths of margin "
            f"inside [{lo}, {hi}]"
        )
    raw = np.exp(-((grid.points - center) ** 2) / (4.0 * width**2))
    return normalized(GridFunction(grid, raw.astype(complex)))


def gaussian_overlap(center_a: float, center_b: float, width: float) -> float:
    """Analytic overlap of two equal-width Gaussian packets: exp(-d^2/(8 w^2))."""
    d = center_a - center_b
    return math.exp(-(d**2) / (8.0 * width**2))


def orthogonalized(f: GridFunction, against: tuple[GridFunction, ...]) -> GridFunction:
    """Gram-Schmidt step: remove the components of f along `against`, renormalize.

    A residual of norm <= 1e-8 is rounding noise of an f in the span of
    `against`, not a new direction, and raises LayoutError.
    """
    vals = f.values.copy()
    for g in against:
        _check_same_grid(f, g)
        vals = vals - inner(g, GridFunction(f.grid, vals)) * g.values
    residual = GridFunction(f.grid, vals)
    if norm(residual) <= SPAN_RESIDUAL_TOL:
        raise LayoutError("function lies in the span it is orthogonalized against")
    return normalized(residual)


def max_packet_product(functions: list[GridFunction]) -> float:
    """Worst pointwise product |f_i f_j| over distinct functions (0 for fewer than two)."""
    worst = 0.0
    for i in range(len(functions)):
        for j in range(i + 1, len(functions)):
            _check_same_grid(functions[i], functions[j])
            worst = max(worst, float(np.abs(functions[i].values * functions[j].values).max()))
    return worst


def build_aperture(f: GridFunction) -> ApertureFunction:
    """Indicator of the region where |f| >= APERTURE_THRESHOLD * peak|f|."""
    mags = np.abs(f.values)
    return ApertureFunction(f.grid, (mags >= APERTURE_THRESHOLD * mags.max()).astype(np.int8))


def aperture_errors(
    apertures: list[ApertureFunction], packets: list[GridFunction]
) -> tuple[bool, float, float]:
    """How far the apertures are from A_i A_j = delta_ij A_j (exactly),
    A_i psi_j = delta_ij psi_j (pointwise) and quadrature of A_i |psi_j|^2 =
    delta_ij: (products exact, max pointwise error, max integral error)."""
    if len(apertures) != len(packets):
        raise LayoutError("need one aperture per packet")
    products_exact = True
    max_pointwise = 0.0
    max_integral = 0.0
    for i, a in enumerate(apertures):
        for j, (b, psi) in enumerate(zip(apertures, packets)):
            _check_same_grid(a, b)
            _check_same_grid(a, psi)
            delta = 1 if i == j else 0
            if np.any(a.values * b.values != delta * b.values):
                products_exact = False
            pointwise = float(np.abs((a.values - delta) * psi.values).max())
            max_pointwise = max(max_pointwise, pointwise)
            integral = float(a.grid.spacing * np.sum(a.values * np.abs(psi.values) ** 2))
            max_integral = max(max_integral, abs(integral - delta))
    return products_exact, max_pointwise, max_integral


def write_csv(f: GridFunction, path) -> None:
    """Export a grid function as CSV with header x,re,im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for x, v in zip(f.grid.points, f.values):
            writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])


def read_csv(path) -> GridFunction:
    """Import a grid function from CSV; the x,re,im header row is required."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "re", "im"]:
            raise ValueError(f"expected header 'x,re,im' in {path}, got {header}")
        rows = [(float(x), float(re), float(im)) for x, re, im in reader]
    xs = np.array([r[0] for r in rows])
    vals = np.array([complex(r[1], r[2]) for r in rows])
    return GridFunction(Grid(xs), vals)


DEFAULT_CENTERS = (-20.0, 0.0, 20.0)
DEFAULT_WIDTH = 1.0
DEFAULT_SPAN = (-35.0, 35.0)
DEFAULT_POINTS = 1401


@dataclass(frozen=True, eq=False)
class PacketLayout:
    """The standard three-region geometry plus probe functions.

    Probe functions are orthogonalized against the physical packets so the
    probe modes extend the orthonormal mode family exactly.  The auxiliary
    modes need no wavefunction: they never enter a physical expectation.
    `packet_product` and `aperture_gate` are the numbers the layout's gates
    read: max_packet_product and aperture_errors of its packets.
    """

    grid: Grid
    packets: tuple[GridFunction, GridFunction, GridFunction]
    apertures: tuple[ApertureFunction, ApertureFunction, ApertureFunction]
    probe_points: tuple[float, ...]
    probe_functions: tuple[GridFunction, ...]
    centers: tuple[float, float, float]
    width: float
    packet_product: float
    aperture_gate: tuple[bool, float, float]

    def packet_values(self, x: float) -> np.ndarray:
        i = self.grid.index_of(x)
        return np.array([p.values[i] for p in self.packets])

    def probe_values(self, x: float) -> np.ndarray:
        i = self.grid.index_of(x)
        return np.array([p.values[i] for p in self.probe_functions])


def standard_layout(
    centers: tuple[float, float, float] = DEFAULT_CENTERS,
    width: float = DEFAULT_WIDTH,
    span: tuple[float, float] = DEFAULT_SPAN,
    n_points: int = DEFAULT_POINTS,
    probe_points: tuple[float, ...] = (),
    wsw_tol: float = WSW_TOL,
    aperture_tol: float = APERTURE_TOL,
) -> PacketLayout:
    """Build the default geometry: three unit-width Gaussians, matched
    apertures, and orthogonalized probe packets at the requested points.

    The span widens, at the same grid spacing, so that every probe point
    keeps ten packet widths of margin to either edge.  A layout whose packets
    fail the separation gate (max_packet_product above wsw_tol) or the
    aperture gates (aperture_errors above aperture_tol) raises LayoutError.
    """
    grid = uniform_grid(span[0], span[1], n_points)
    if probe_points:
        lo = min(span[0], min(probe_points) - 10.0 * width)
        hi = max(span[1], max(probe_points) + 10.0 * width)
        spacing = (span[1] - span[0]) / (n_points - 1)
        grid = uniform_grid(lo, hi, np.round((hi - lo) / spacing) + 1)
    packets = tuple(gaussian_packet(c, width, grid) for c in centers)
    apertures = tuple(build_aperture(p) for p in packets)
    probes = []
    for x in probe_points:
        raw = gaussian_packet(x, width, grid)
        try:
            probes.append(orthogonalized(raw, packets + tuple(probes)))
        except LayoutError as exc:
            raise LayoutError(f"probe_point: a probe packet at {float(x)!r} lies in the "
                              f"span of the packets it is orthogonalized against") from exc
    product = max_packet_product(list(packets))
    if not product <= wsw_tol:
        raise LayoutError(f"layout fails the separation gate: max packet product "
                          f"{product!r} exceeds {wsw_tol!r}")
    aperture_gate = exact, pointwise, integral = aperture_errors(list(apertures), list(packets))
    if not (exact and pointwise <= aperture_tol and integral <= aperture_tol):
        raise LayoutError(f"layout fails the aperture gate: products exact {exact}, "
                          f"pointwise error {pointwise!r}, integral error {integral!r}, "
                          f"tolerance {aperture_tol!r}")
    return PacketLayout(
        grid=grid,
        packets=packets,
        apertures=apertures,
        probe_points=tuple(float(x) for x in probe_points),
        probe_functions=tuple(probes),
        centers=tuple(float(c) for c in centers),
        width=float(width),
        packet_product=product,
        aperture_gate=aperture_gate,
    )
