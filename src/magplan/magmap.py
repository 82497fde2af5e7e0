"""Scalar magnetic-field maps over a 2D workspace.

A map is a rectangular grid of total-field intensities (nT), read by bilinear
interpolation between grid nodes: `lookup` for an array of points (one outside
the extent reads its nearest extent point) and its scalar twin `sample_point`
for one point inside. Maps are immutable and safe to share between readers.

File format (text, one map per file)::

    magmap v1 <width> <height> <origin_x> <origin_y> <cell_size>
    v v v ... v        (row 0, minimum y; `width` values)
    ...
    v v v ... v        (row height-1, maximum y)

Values are nT, written with round-trip precision. Cells follow the `textio`
number grammar (width and height are integers), blank lines are skipped and
errors name the file line. `load_map` reads the header with
`textio.head_line` and the grid with `textio.read_body`, one `np.loadtxt` on
the path; the file's lines are read only when that call fails, or when an
error must name a line of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio


class MapError(Exception):
    """Base error for map construction, queries, and I/O."""


class OutOfMapError(MapError):
    """A query point lies outside the map's rectangular extent."""


class MapFormatError(textio.TextError, MapError):
    """A map file could not be parsed; `line` is the 1-based file line at fault."""


def _check_placement(
    origin: tuple[float, float], cell_size: float, width: int, height: int
) -> None:
    """The rules of every map's placement; node (0, 0) sits at `origin`."""
    if not (cell_size > 0 and math.isfinite(cell_size)):
        raise MapError(f"cell_size must be finite and > 0, got {cell_size}")
    if width < 2 or height < 2:
        raise MapError(f"grid must be at least 2x2, got {width}x{height}")
    if not all(math.isfinite(c) for c in origin):
        raise MapError(f"origin must be finite, got {origin}")


@dataclass(frozen=True)
class MagMap:
    """Rasterized scalar field map.

    `values` has shape (height, width); row 0 is the minimum-y row. All
    intensities must be finite and strictly positive.
    """

    origin: tuple[float, float]
    cell_size: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise MapError(f"values must be a 2D grid, got ndim={vals.ndim}")
        height, width = vals.shape
        _check_placement(self.origin, self.cell_size, width, height)
        if not np.all(np.isfinite(vals)):
            raise MapError("map values must all be finite")
        if not np.all(vals > 0):
            raise MapError("map values must all be > 0")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the interpolatable rectangle."""
        x0, y0 = self.origin
        return (
            x0,
            x0 + self.cell_size * (self.width - 1),
            y0,
            y0 + self.cell_size * (self.height - 1),
        )


def lookup(grid: MagMap, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear field values and the boundary-inclusive inside mask at an (N, 2)
    point array; a point outside reads the map at its nearest extent point."""
    x_min, x_max, y_min, y_max = grid.extent()
    x, y = pts[:, 0], pts[:, 1]
    inside = (x >= x_min) & (x <= x_max) & (y >= y_min) & (y <= y_max)
    uv = np.maximum(pts, (x_min, y_min))
    np.minimum(uv, (x_max, y_max), out=uv)
    uv -= grid.origin
    uv /= grid.cell_size
    # Cell indices stay floats until the one cast, so uv - cell mixes no ints.
    cell = np.floor(uv)
    np.minimum(np.maximum(cell, 0.0, out=cell), (grid.width - 2, grid.height - 2), out=cell)
    f = uv - cell
    g = 1 - f
    fu, fv, gu, gv = f[:, 0], f[:, 1], g[:, 0], g[:, 1]
    # The cell's corners (i, j), (i+1, j), (i, j+1), (i+1, j+1): one flat index
    # k, gathered from the flat values shifted by each corner's offset.
    w = grid.width
    ij = cell.astype(np.intp)
    k = ij[:, 1] * w + ij[:, 0]
    flat = grid.values.ravel()
    z00, z10, z01, z11 = flat[k], flat[1:][k], flat[w:][k], flat[w + 1 :][k]
    return z00 * gu * gv + z10 * fu * gv + z01 * gu * fv + z11 * fu * fv, inside


def sample_point(grid: MagMap, x: float, y: float) -> float:
    """`lookup` at one position, in `math` scalars: the same float operations in
    the same order, so the value is bitwise the array form's. There is no
    nearest-point read: a position outside the extent raises OutOfMapError."""
    x_min, x_max, y_min, y_max = grid.extent()
    if not (x_min <= x <= x_max and y_min <= y <= y_max):
        raise OutOfMapError(f"point ({x:g}, {y:g}) outside map extent {grid.extent()}")
    u = (x - grid.origin[0]) / grid.cell_size
    v = (y - grid.origin[1]) / grid.cell_size
    i = min(math.floor(u), grid.width - 2)
    j = min(math.floor(v), grid.height - 2)
    fu, fv = u - i, v - j
    gu, gv = 1 - fu, 1 - fv
    vals = grid.values
    z00, z10 = vals.item(j, i), vals.item(j, i + 1)
    z01, z11 = vals.item(j + 1, i), vals.item(j + 1, i + 1)
    return z00 * gu * gv + z10 * fu * gv + z01 * gu * fv + z11 * fu * fv


@dataclass(frozen=True)
class SyntheticMapSpec:
    """Single Gaussian peak on a uniform background.

    `peak_sigma` is the spatial spread per axis in metres; pass equal
    components for an isotropic peak. `peak_amplitude` may be 0 for a
    uniform map.
    """

    base_field: float
    peak_center: tuple[float, float]
    peak_amplitude: float
    peak_sigma: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.base_field > 0 and math.isfinite(self.base_field)):
            raise MapError(f"base_field must be finite and > 0, got {self.base_field}")
        if not all(s > 0 and math.isfinite(s) for s in self.peak_sigma):
            raise MapError(f"peak_sigma must be finite and > 0, got {self.peak_sigma}")
        if not math.isfinite(self.peak_amplitude):
            raise MapError("peak_amplitude must be finite")


def generate_synthetic(
    spec: SyntheticMapSpec, origin: tuple[float, float], cell_size: float, width: int, height: int
) -> MagMap:
    """Evaluate the peak-on-background field on every node of a width x height
    grid whose node (0, 0) sits at `origin`."""
    xs = origin[0] + cell_size * np.arange(width)
    ys = origin[1] + cell_size * np.arange(height)
    xg, yg = np.meshgrid(xs, ys)
    sx, sy = spec.peak_sigma
    dx = xg - spec.peak_center[0]
    dy = yg - spec.peak_center[1]
    bump = np.exp(-(dx * dx / (2 * sx * sx) + dy * dy / (2 * sy * sy)))
    values = spec.base_field + spec.peak_amplitude * bump
    return MagMap(origin, cell_size, values)


def save_map(grid: MagMap, path: str) -> None:
    """Write the documented text format; load_map inverts it losslessly."""
    size = [textio.spell(n, integer=True) for n in (grid.width, grid.height)]
    place = map(textio.spell, (*grid.origin, grid.cell_size))
    textio.write_table(path, [" ".join(["magmap", "v1", *size, *place])], grid.values.tolist(), " ")


def load_map(path: str) -> MagMap:
    """Parse a map file; MapFormatError carries the offending line number."""
    header = textio.head_line(path).split()
    if len(header) != 7 or header[0] != "magmap" or header[1] != "v1":
        if not header and not textio.body_lines(path):
            raise MapFormatError("empty map file", line=1)
        raise MapFormatError(
            "expected header 'magmap v1 <width> <height> <origin_x> <origin_y> <cell_size>'",
            line=1,
        )
    try:
        width, height = (textio.parse_cell(f, int) for f in header[2:4])
        origin_x, origin_y, cell_size = (textio.parse_cell(f) for f in header[4:])
        # Checked before the body is read, so a bad header wins over a bad body.
        _check_placement((origin_x, origin_y), cell_size, width, height)
    except (textio.TextError, MapError) as exc:
        raise MapFormatError(str(exc), line=1) from None
    try:
        values = textio.read_body(path, None, (width,))
    except textio.TextError as exc:
        raise MapFormatError(exc.reason, exc.line) from None
    if len(values) != height:
        found = f"declared {height} rows but found {len(values)}"
        raise MapFormatError(found, line=(textio.body_lines(path) or [1])[-1])
    bad = ~((values > 0) & (values < np.inf)).all(axis=1)
    if bad.any():
        line = textio.body_lines(path)[np.argmax(bad)]
        raise MapFormatError("field values must be finite and > 0", line=line)
    return MagMap((origin_x, origin_y), cell_size, values)
