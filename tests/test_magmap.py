"""Grid geometry, bilinear sampling, synthetic generation, and map file I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magplan.magmap import (
    MagMap,
    MapError,
    MapFormatError,
    OutOfMapError,
    SyntheticMapSpec,
    generate_synthetic,
    load_map,
    lookup,
    sample_point,
    save_map,
)
from conftest import FULLWIDTH_42_LATIN1, ODD_FLOATS, bit_equal
from oracles import clamp, contains, interpolate_two_axis, sample


def sval(m: MagMap, x: float, y: float) -> float:
    return sample(m, (x, y))


def grid_of(values: list[list[float]], origin=(0.0, 0.0), cell_size=1.0) -> MagMap:
    return MagMap(origin, cell_size, np.asarray(values, dtype=float))


@st.composite
def small_maps(draw) -> MagMap:
    width = draw(st.integers(2, 5))
    height = draw(st.integers(2, 5))
    vals = draw(
        st.lists(
            st.lists(st.floats(0.5, 1e5), min_size=width, max_size=width),
            min_size=height,
            max_size=height,
        )
    )
    cell = draw(st.floats(0.05, 10.0))
    ox = draw(st.floats(-50.0, 50.0))
    oy = draw(st.floats(-50.0, 50.0))
    return grid_of(vals, origin=(ox, oy), cell_size=cell)


# --- construction and geometry ---


def test_geometry_node_coords():
    # Each node holds the field at its own coordinates.
    spec = SyntheticMapSpec(1.0, (0.0, 0.0), 1.0, (1.0, 1.0))
    m = generate_synthetic(spec, (1.0, 2.0), 0.5, 4, 3)
    xg, yg = np.meshgrid([1.0, 1.5, 2.0, 2.5], [2.0, 2.5, 3.0])
    assert m.values == pytest.approx(1.0 + np.exp(-(xg * xg + yg * yg) / 2), rel=1e-15)


def test_geometry_rejects_bad_parameters():
    flat = SyntheticMapSpec(25000.0, (0.0, 0.0), 0.0, (1.0, 1.0))
    with pytest.raises(MapError):
        generate_synthetic(flat, (0.0, 0.0), 0.0, 4, 4)
    with pytest.raises(MapError):
        generate_synthetic(flat, (0.0, 0.0), -1.0, 4, 4)
    with pytest.raises(MapError):
        generate_synthetic(flat, (0.0, 0.0), 1.0, 1, 4)
    with pytest.raises(MapError):
        generate_synthetic(flat, (0.0, 0.0), 1.0, 4, 1)
    with pytest.raises(MapError):
        generate_synthetic(flat, (math.nan, 0.0), 1.0, 4, 4)


def test_map_rejects_nonpositive_and_nonfinite_values():
    with pytest.raises(MapError):
        grid_of([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(MapError):
        grid_of([[1.0, 1.0], [1.0, -5.0]])
    with pytest.raises(MapError):
        grid_of([[1.0, 1.0], [1.0, math.inf]])
    with pytest.raises(MapError):
        grid_of([[1.0, 1.0], [1.0, math.nan]])


def test_map_rejects_shape_geometry_mismatch():
    with pytest.raises(MapError):
        MagMap((0.0, 0.0), 1.0, np.ones((1, 4)))
    with pytest.raises(MapError):
        MagMap((0.0, 0.0), 1.0, np.ones(4))


def test_values_are_read_only():
    m = grid_of([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0


def test_extent_and_contains():
    m = grid_of([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], origin=(-1.0, 2.0), cell_size=0.5)
    assert m.extent() == (-1.0, 0.0, 2.0, 2.5)
    _, inside = lookup(m, np.array([[-1.0, 2.0], [0.0, 2.5], [0.001, 2.2], [-1.2, 2.2]]))
    assert inside.tolist() == [True, True, False, False]


def test_clamp_projects_onto_extent():
    # A point outside reads the map at its projection onto the extent.
    m = grid_of([[1.0, 2.0], [3.0, 4.0]], origin=(0.0, 0.0), cell_size=1.0)
    pts = np.array([[-3.0, 0.4], [0.7, 8.0], [0.3, 0.3]])
    projected = np.array([[0.0, 0.4], [0.7, 1.0], [0.3, 0.3]])
    assert lookup(m, pts)[0].tolist() == lookup(m, projected)[0].tolist()


# --- bilinear sampling ---


def test_sample_at_nodes_returns_stored_values():
    vals = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    m = grid_of(vals, origin=(10.0, -5.0), cell_size=2.0)
    for j in range(2):
        for i in range(3):
            assert sval(m, 10.0 + 2.0 * i, -5.0 + 2.0 * j) == vals[j][i]


def test_sample_at_cell_center_averages_corners():
    # Three equal corners plus one offset by 4 puts the center value a
    # quarter of the offset above the shared corner value.
    m = grid_of([[1.0, 1.0], [1.0, 5.0]])
    assert sval(m, 0.5, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_sample_linear_along_edge():
    m = grid_of([[1.0, 3.0], [1.0, 3.0]])
    assert sval(m, 0.25, 0.0) == pytest.approx(1.5, abs=1e-12)
    assert sval(m, 0.75, 1.0) == pytest.approx(2.5, abs=1e-12)


def test_sample_outside_extent_raises():
    m = grid_of([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(OutOfMapError):
        sval(m, 1.5, 0.5)
    with pytest.raises(OutOfMapError):
        sval(m, 0.5, -0.1)


def test_interpolate_matches_two_axis_index_oracle_bitwise():
    rng = np.random.default_rng(4)
    m = MagMap((-3.25, 1.5), 0.37, rng.uniform(20000.0, 30000.0, (7, 11)))
    x_min, x_max, y_min, y_max = m.extent()
    interior = np.column_stack([rng.uniform(x_min, x_max, 300), rng.uniform(y_min, y_max, 300)])
    xs, ys = rng.uniform(x_min, x_max, 20), rng.uniform(y_min, y_max, 20)
    last_row_and_column = np.concatenate(
        [
            np.column_stack([xs, np.full(20, y_max)]),
            np.column_stack([np.full(20, x_max), ys]),
            [[x_max, y_max], [x_min, y_max], [x_max, y_min], [x_min, y_min]],
        ]
    )
    wide = [rng.uniform(x_min - 5, x_max + 5, 300), rng.uniform(y_min - 5, y_max + 5, 300)]
    clamped = clamp(m, np.column_stack(wide))
    on_edge = (clamped == [x_min, y_min]) | (clamped == [x_max, y_max])
    assert on_edge.any(axis=1).sum() > 200
    for pts in (interior, last_row_and_column, clamped):
        assert bit_equal(lookup(m, pts)[0], interpolate_two_axis(m, pts))
        assert bit_equal([sample_point(m, *p) for p in pts.tolist()], lookup(m, pts)[0])


def test_sample_points_matches_scalar_sample():
    m = grid_of([[1.0, 2.0, 3.0], [4.0, 8.0, 6.0], [7.0, 5.0, 9.0]], cell_size=0.5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (40, 2))
    vec = lookup(m, pts)[0]
    for k in range(40):
        assert vec[k] == sval(m, pts[k, 0], pts[k, 1])


@given(small_maps(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_lookups_on_the_extent_edges_match_their_oracles_bitwise(m: MagMap, fx, fy):
    # The four edges and corners, where the cell index clamps to the last cell
    # on x_max and y_max; the scalar lookup against the array one too.
    x_min, x_max, y_min, y_max = m.extent()
    x = min(x_min + fx * (x_max - x_min), x_max)
    y = min(y_min + fy * (y_max - y_min), y_max)
    pts = np.array(
        [[x, y], [x_min, y], [x_max, y], [x, y_min], [x, y_max],
         [x_min, y_min], [x_max, y_min], [x_min, y_max], [x_max, y_max]]
    )
    assert bit_equal(lookup(m, pts)[0], interpolate_two_axis(m, pts))
    assert bit_equal([sample_point(m, *p) for p in pts.tolist()], lookup(m, pts)[0])


def test_lookups_at_negative_zero_match_their_oracles_bitwise():
    # -0.0 - 0.0 keeps the sign, so these offsets from the origin are -0.0.
    m = grid_of([[1.0, 2.0, 3.0], [4.0, 8.0, 6.0], [7.0, 5.0, 9.0]], cell_size=0.5)
    pts = np.array([[-0.0, -0.0], [-0.0, 0.75], [0.25, -0.0], [-0.0, 1.0]])
    assert bit_equal(lookup(m, pts)[0], interpolate_two_axis(m, pts))
    assert bit_equal([sample_point(m, *p) for p in pts.tolist()], lookup(m, pts)[0])


@given(small_maps(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
def test_lookup_is_the_clamp_interpolate_contains_composition(m: MagMap, fx, fy, zero_origin):
    # Inside, on each edge and corner, one ulp outside each edge, far outside,
    # and at -0.0 offsets from a (0, 0) origin.
    if zero_origin:
        m = MagMap((0.0, 0.0), m.cell_size, m.values)
    x_min, x_max, y_min, y_max = m.extent()
    x = min(x_min + fx * (x_max - x_min), x_max)
    y = min(y_min + fy * (y_max - y_min), y_max)
    below_x, above_x = math.nextafter(x_min, -math.inf), math.nextafter(x_max, math.inf)
    below_y, above_y = math.nextafter(y_min, -math.inf), math.nextafter(y_max, math.inf)
    pts = np.array(
        [[x, y], [x_min, y], [x_max, y], [x, y_min], [x, y_max],
         [x_min, y_min], [x_max, y_min], [x_min, y_max], [x_max, y_max],
         [below_x, y], [above_x, y], [x, below_y], [x, above_y], [below_x, above_y],
         [x_min - 1e6, y], [x, y_max + 1e6], [x_max + 1e300, y_min - 1e300],
         [-0.0, -0.0], [-0.0, y], [x, -0.0]]
    )
    values, inside = lookup(m, pts)
    assert bit_equal(values, interpolate_two_axis(m, clamp(m, pts)))
    assert inside.tolist() == contains(m, pts).tolist()
    assert inside[:9].all() and not inside[9:17].any()
    assert bit_equal([sample_point(m, *p) for p in pts[inside].tolist()], values[inside])


@given(small_maps(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sample_bounded_by_corner_values(m: MagMap, fx: float, fy: float):
    """Bilinear interpolation is a convex combination of the four corners."""
    x0, x1, y0, y1 = m.extent()
    x = x0 + fx * (x1 - x0)
    y = y0 + fy * (y1 - y0)
    v = sval(m, x, y)
    assert m.values.min() - 1e-9 <= v <= m.values.max() + 1e-9


@given(small_maps(), st.integers(1, 4), st.floats(0.05, 0.95))
def test_sample_continuous_across_cell_boundaries(m: MagMap, col: int, fy: float):
    col = min(col, m.width - 1)
    xb = m.origin[0] + col * m.cell_size
    y = m.origin[1] + fy * (m.height - 1) * m.cell_size
    eps = 1e-10 * m.cell_size
    left = sval(m, xb - eps, y)
    right = sval(m, min(xb + eps, m.extent()[1]), y)
    scale = max(1.0, abs(float(m.values.max())))
    assert abs(left - right) <= 1e-7 * scale


def test_sample_monotone_within_cell_when_corners_are():
    # Corners increase along +x on both cell edges, so any fixed-y transect
    # inside the cell must be non-decreasing in x.
    m = grid_of([[1.0, 4.0], [2.0, 8.0]])
    for y in (0.1, 0.5, 0.9):
        xs = np.linspace(0.0, 1.0, 17)
        vals = lookup(m, np.column_stack([xs, np.full_like(xs, y)]))[0]
        assert np.all(np.diff(vals) >= -1e-12)


# --- synthetic generation ---


def test_synthetic_peak_center_and_tail():
    spec = SyntheticMapSpec(25000.0, (0.0, 0.0), 1000.0, (1.0, 1.0))
    m = generate_synthetic(spec, (-10.0, -10.0), 1.0, 21, 21)
    assert sval(m, 0.0, 0.0) == pytest.approx(26000.0, abs=1e-9)
    # 10 sigma out the bump contributes ~2e-19 nT.
    assert sval(m, 10.0, 0.0) == pytest.approx(25000.0, abs=1e-9)


def test_synthetic_value_one_sigma_from_center():
    spec = SyntheticMapSpec(25000.0, (0.0, 0.0), 1000.0, (1.0, 1.0))
    m = generate_synthetic(spec, (-5.0, -5.0), 1.0, 11, 11)
    expected = 25000.0 + 1000.0 * math.exp(-0.5)
    assert sval(m, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
    assert sval(m, 0.0, -1.0) == pytest.approx(expected, rel=1e-12)


def test_synthetic_anisotropic_sigma():
    spec = SyntheticMapSpec(1.0, (0.0, 0.0), 100.0, (2.0, 1.0))
    m = generate_synthetic(spec, (-6.0, -6.0), 1.0, 13, 13)
    # Two sigma along x equals one sigma... no: exp(-0.5*(2/2)^2) vs
    # exp(-0.5*1^2) at (2,0) and (0,1) respectively, which must agree.
    assert sval(m, 2.0, 0.0) == pytest.approx(sval(m, 0.0, 1.0), rel=1e-12)


def test_synthetic_mirror_symmetry_about_peak():
    spec = SyntheticMapSpec(500.0, (0.0, 0.0), 50.0, (1.3, 0.7))
    m = generate_synthetic(spec, (-4.0, -4.0), 0.5, 17, 17)
    assert np.allclose(m.values, m.values[:, ::-1], rtol=1e-13)
    assert np.allclose(m.values, m.values[::-1, :], rtol=1e-13)


def test_synthetic_zero_amplitude_is_uniform():
    spec = SyntheticMapSpec(25000.0, (2.0, 2.0), 0.0, (1.0, 1.0))
    m = generate_synthetic(spec, (0.0, 0.0), 1.0, 5, 5)
    assert np.all(m.values == 25000.0)


def test_synthetic_spec_validation():
    with pytest.raises(MapError):
        SyntheticMapSpec(0.0, (0.0, 0.0), 1.0, (1.0, 1.0))
    with pytest.raises(MapError):
        SyntheticMapSpec(1.0, (0.0, 0.0), 1.0, (0.0, 1.0))
    with pytest.raises(MapError):
        SyntheticMapSpec(1.0, (0.0, 0.0), math.nan, (1.0, 1.0))
    # A bump deep enough to drive values nonpositive must be rejected at
    # generation, not silently clipped.
    spec = SyntheticMapSpec(100.0, (0.0, 0.0), -200.0, (1.0, 1.0))
    with pytest.raises(MapError):
        generate_synthetic(spec, (-2.0, -2.0), 1.0, 5, 5)


# --- file format ---


def test_save_load_round_trip(tmp_path):
    spec = SyntheticMapSpec(48211.375, (0.1, 3.0), 312.0625, (0.4, 0.9))
    m = generate_synthetic(spec, (-1.5, 2.25), 0.125, 7, 5)
    path = tmp_path / "trip.magmap"
    save_map(m, path)
    back = load_map(path)
    assert back.width == m.width and back.height == m.height
    assert back.origin == m.origin
    assert back.cell_size == m.cell_size
    # repr() of a float round-trips exactly, so equality is bitwise.
    assert np.array_equal(back.values, m.values)


def test_save_map_writes_fixed_text(tmp_path):
    neg0, tiny, big = ODD_FLOATS[:3]
    m = grid_of([[tiny, big, 1.0], [0.1, 2.5, 1e20]], origin=(neg0, tiny), cell_size=0.125)
    path = tmp_path / "m.magmap"
    save_map(m, path)
    assert path.read_text() == (
        "magmap v1 3 2 -0.0 5e-324 0.125\n"
        "5e-324 1.7976931348623157e+308 1.0\n"
        "0.1 2.5 1e+20\n"
    )


def test_saved_header_layout(tmp_path):
    m = grid_of([[1.0, 2.0], [3.0, 4.0]], origin=(0.5, -0.5), cell_size=0.25)
    path = tmp_path / "m.magmap"
    save_map(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "magmap v1 2 2 0.5 -0.5 0.25"
    assert len(lines) == 3
    # Row written first holds the minimum-y nodes.
    assert [float(tok) for tok in lines[1].split()] == [1.0, 2.0]
    assert [float(tok) for tok in lines[2].split()] == [3.0, 4.0]


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("bogus v1 2 2 0 0 1\n1 1\n1 1\n", 1),
        ("magmap v2 2 2 0 0 1\n1 1\n1 1\n", 1),
        ("magmap v1 2 2 0 0\n1 1\n1 1\n", 1),
        ("magmap v1 2 2 0 0 x\n1 1\n1 1\n", 1),
        ("magmap v1 2 2 0 0 1\n1 1\n", 2),
        ("magmap v1 2 2 0 0 1\n1 1\n1 1\n1 1\n", 4),
        ("magmap v1 2 2 0 0 1\n1 1 1\n1 1\n", 2),
        ("magmap v1 2 2 0 0 1\n1 oops\n1 1\n", 2),
        ("magmap v1 2 2 0 0 1\n1 -3\n1 1\n", 2),
        ("magmap v1 2 2 0 0 1\n1 1\n1 1\xe9\n", 3),
        ("magmap\xe9 v1 2 2 0 0 1\n1 1\n1 1\n", 1),
        # One number grammar: no digit separators, no non-ASCII digits, and an
        # integer field takes no decimal point or exponent.
        ("magmap v1 2 2 0 0 1_0\n1 1\n1 1\n", 1),
        ("magmap v1 2 2 0 0 1\n1 1\n1 1_0\n", 3),
        (f"magmap v1 2 2 0 0 {FULLWIDTH_42_LATIN1}\n1 1\n1 1\n", 1),
        (f"magmap v1 2 2 0 0 1\n1 1\n1 {FULLWIDTH_42_LATIN1}\n", 3),
        ("magmap v1 2.0 2 0 0 1\n1 1\n1 1\n", 1),
        ("magmap v1 2 2e0 0 0 1\n1 1\n1 1\n", 1),
        ("magmap v1 -1 0 0 0 1\n", 1),
        # A bad header placement wins over a bad body.
        ("magmap v1 2 2 0 0 0\n1 oops\n1 1\n", 1),
        ("magmap v1 1 2 0 0 1\n1\n1\n", 1),
        # A blank line keeps its place in the count.
        ("magmap v1 2 2 0 0 1\n\n1 oops\n1 1\n", 3),
        ("magmap v1 2 2 0 0 1\n1 1\n\n1 inf\n", 4),
        ("magmap v1 2 2 0 0 1\n1 1\n\n1 -3\n", 4),
        # A whitespace-only line in the grid is skipped and keeps its place too.
        ("magmap v1 2 2 0 0 1\n1 1\n \t \n1 0\n", 4),
    ],
)
def test_malformed_files_name_the_line(tmp_path, text: str, bad_line: int):
    path = tmp_path / "bad.magmap"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(MapFormatError) as exc:
        load_map(path)
    assert exc.value.line == bad_line
    assert str(bad_line) in str(exc.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.magmap"
    path.write_text("")
    with pytest.raises(MapFormatError):
        load_map(path)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_map(tmp_path / "nope.magmap")


@given(small_maps())
def test_round_trip_any_small_map(tmp_path_factory, m: MagMap):
    path = tmp_path_factory.mktemp("maps") / "p.magmap"
    save_map(m, path)
    back = load_map(path)
    assert np.array_equal(back.values, m.values)
    assert back.origin == m.origin and back.cell_size == m.cell_size
