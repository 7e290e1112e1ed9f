"""Geometry gates: quadrature, separation products, aperture algebra, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhlab import wavepackets as wp
from dhlab.errors import GridMismatchError, LayoutError


@pytest.fixture(scope="module")
def grid():
    return wp.uniform_grid(-35.0, 35.0, 1401)


@pytest.fixture(scope="module")
def packets(grid):
    return [wp.gaussian_packet(c, 1.0, grid) for c in (-20.0, 0.0, 20.0)]


def test_grid_invariants():
    with pytest.raises(LayoutError):
        wp.Grid(np.linspace(0.0, 1.0, 8))
    with pytest.raises(LayoutError):
        wp.Grid(np.array([0.0, 1.0, 0.5] + list(range(2, 20))))
    with pytest.raises(LayoutError):
        wp.Grid(np.concatenate([np.linspace(0, 1, 10), np.linspace(1.5, 9, 10)]))
    g = wp.uniform_grid(0.0, 1.0, 21)
    assert g.spacing == pytest.approx(0.05)
    assert g.index_of(0.25) == 5
    with pytest.raises(LayoutError):
        g.index_of(4.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_index_of_picks_the_point_argmin_picks(data):
    lo = data.draw(st.floats(-1e3, 1e3))
    span = data.draw(st.floats(1e-3, 1e3))
    g = wp.uniform_grid(lo, lo + span, data.draw(st.integers(16, 2000)))
    pts = g.points
    i = data.draw(st.integers(0, g.size - 2))
    x = data.draw(st.one_of(
        st.sampled_from([pts[i], pts[i + 1], 0.5 * (pts[i] + pts[i + 1]), pts[0], pts[-1]]),
        st.floats(pts[0] - span, pts[-1] + span),  # off-grid beyond both ends
        st.floats(pts[i], pts[i + 1])))
    want = int(np.argmin(np.abs(pts - x)))
    if abs(pts[want] - x) > 0.5 * g.spacing + 1e-12:
        with pytest.raises(LayoutError, match="off-grid"):
            g.index_of(x)
    else:
        assert g.index_of(x) == want


def test_gaussian_packet_normalization(grid, packets):
    for p in packets:
        assert abs(wp.norm(p) - 1.0) <= 1e-10
        assert wp.inner(p, p).real == pytest.approx(1.0, abs=1e-12)


def test_gaussian_packet_margin_guard(grid):
    with pytest.raises(LayoutError):
        wp.gaussian_packet(33.0, 1.0, grid)
    with pytest.raises(ValueError):
        wp.gaussian_packet(0.0, -1.0, grid)


def test_overlap_against_analytic_oracle(grid):
    # Analytic overlap of equal-width normalized Gaussians: exp(-d^2/(8 w^2)).
    close_a = wp.gaussian_packet(-1.0, 1.0, grid)
    close_b = wp.gaussian_packet(1.0, 1.0, grid)
    assert wp.inner(close_a, close_b).real == pytest.approx(
        math.exp(-0.5), abs=1e-10
    )
    assert wp.gaussian_overlap(-1.0, 1.0, 1.0) == pytest.approx(0.6065306597126334)
    far_a = wp.gaussian_packet(-10.0, 1.0, grid)
    far_b = wp.gaussian_packet(10.0, 1.0, grid)
    # 20 widths apart: oracle value exp(-50) ~ 1.93e-22, far below 1e-12.
    assert abs(wp.inner(far_a, far_b)) <= 1e-12
    assert abs(wp.inner(far_a, far_b) - wp.gaussian_overlap(-10.0, 10.0, 1.0)) <= 1e-15


def test_inner_conjugate_symmetry_and_grid_check(grid, packets):
    f = wp.GridFunction(grid, packets[0].values * np.exp(0.3j))
    g = wp.GridFunction(grid, packets[1].values + 0.1 * packets[0].values)
    assert wp.inner(f, g) == pytest.approx(np.conj(wp.inner(g, f)))
    assert wp.inner(f, f).real > 0.0
    other = wp.uniform_grid(-35.0, 35.0, 1400)
    with pytest.raises(GridMismatchError):
        wp.inner(f, wp.GridFunction(other, np.zeros(1400)))


def test_max_packet_product_cases(grid, packets):
    assert wp.max_packet_product(packets) <= 1e-10
    peak = float(np.abs(packets[0].values).max())
    assert wp.max_packet_product([packets[0], packets[0]]) == pytest.approx(peak**2)
    assert wp.max_packet_product([packets[0]]) == 0.0


def test_packet_gram_matrix_is_identity(packets):
    gram = np.array([[wp.inner(a, b) for b in packets] for a in packets])
    assert np.abs(gram - np.eye(3)).max() <= 1e-10


def test_build_aperture_shape(grid, packets):
    ap = wp.build_aperture(packets[1])
    ones = np.flatnonzero(ap.values)
    assert ones.size > 0
    assert np.array_equal(ones, np.arange(ones[0], ones[-1] + 1))  # contiguous
    assert np.array_equal(ap.values * ap.values, ap.values)  # idempotent
    mags = np.abs(packets[1].values)
    assert np.array_equal(ap.values == 1, mags >= wp.APERTURE_THRESHOLD * mags.max())


def test_aperture_errors_standard_layout(grid, packets):
    apertures = [wp.build_aperture(p) for p in packets]
    exact, pointwise, integral = wp.aperture_errors(apertures, packets)
    assert exact
    assert pointwise <= 1e-8
    assert integral <= 1e-8


def test_aperture_errors_swapped(grid, packets):
    apertures = [wp.build_aperture(p) for p in packets]
    swapped = [apertures[1], apertures[0], apertures[2]]
    integral = wp.aperture_errors(swapped, packets)[2]
    # diagonal integral ~ 0 instead of 1
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_aperture_errors_empty_aperture(grid, packets):
    empty = wp.ApertureFunction(grid, np.zeros(grid.size, dtype=np.int8))
    apertures = [empty] + [wp.build_aperture(p) for p in packets[1:]]
    integral = wp.aperture_errors(apertures, packets)[2]
    assert integral == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(LayoutError):
        wp.aperture_errors(apertures[:2], packets)


def test_aperture_values_must_be_binary(grid):
    with pytest.raises(ValueError):
        wp.ApertureFunction(grid, np.full(grid.size, 0.5))


def test_orthogonalized_probe(grid, packets):
    probe = wp.orthogonalized(wp.gaussian_packet(28.0, 1.0, grid), tuple(packets))
    assert abs(wp.norm(probe) - 1.0) <= 1e-12
    for p in packets:
        assert abs(wp.inner(p, probe)) <= 1e-14
    # a packet in the span leaves only rounding noise, which is no probe
    with pytest.raises(LayoutError):
        wp.orthogonalized(wp.gaussian_packet(0.0, 1.0, grid), tuple(packets))


def test_standard_layout_widens_span_for_probes():
    # ten packet widths of margin around every probe, at the requested spacing
    layout = wp.standard_layout(width=0.5, probe_points=(36.5, -40.0))
    assert layout.grid.points[0] == -45.0 and layout.grid.points[-1] == 41.5
    assert layout.grid.spacing == pytest.approx(0.05, abs=1e-12)
    assert wp.standard_layout(probe_points=(25.0,)).grid.same_as(wp.standard_layout().grid)


def test_standard_layout_keeps_its_gate_numbers():
    # verify's records 10-13 read these in place of evaluating the gates again
    for layout in (wp.standard_layout(), wp.standard_layout(width=0.5, probe_points=(36.5,))):
        assert layout.packet_product == wp.max_packet_product(list(layout.packets))
        assert layout.aperture_gate == wp.aperture_errors(list(layout.apertures),
                                                          list(layout.packets))


def test_csv_roundtrip(tmp_path, grid, packets):
    f = wp.GridFunction(grid, packets[0].values * np.exp(1.2j))
    path = tmp_path / "packet.csv"
    wp.write_csv(f, path)
    back = wp.read_csv(path)
    assert back.grid.same_as(grid)
    assert np.abs(back.values - f.values).max() == 0.0


def test_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0.0,1.0,0.0\n")
    with pytest.raises(ValueError):
        wp.read_csv(path)
