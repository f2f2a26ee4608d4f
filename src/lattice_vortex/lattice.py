"""Finite regions of the integer lattice and their one-step boundaries.

Points are plain integer tuples; two points are adjacent when their
coordinates differ by one in exactly one slot. A domain stores a finite
interior set together with the outer boundary layer (every exterior site
adjacent to the interior). Interior sites are indexed first, so problems
with zero boundary data reduce to a leading block of the index range.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

LatticePoint = tuple[int, ...]

_COORD_LIMIT = 2**63 - 2  # the largest interior |coordinate|: x - 1 and x + 1 fit in int64

__all__ = [
    "LatticePoint",
    "LatticeDomain",
    "make_box",
    "make_ball",
    "nested_index",
    "domain_from_json",
    "json_dimension",
    "json_integer",
    "json_point",
    "json_center",
    "json_real",
    "json_object",
]


class LatticeDomain:
    """A finite interior set with its derived boundary, held once as `coords`.

    The boundary is always computed from the interior (exterior sites with
    at least one interior neighbor), so the two sets are disjoint by
    construction. `coords` is the one site table, an (n_closure, dimension)
    int64 array: the interior block, then the boundary block, each sorted
    lexicographically and free of repeats. A site's closure index is its
    row, and `locate` finds rows by binary search over the two blocks,
    whose byte keys it encodes on its first call and then holds.
    `adjacency` is the one neighbor table, (n_closure, 2n) closure indices
    of the neighbors x + e_1, x - e_1, x + e_2, ..., with -1 for a neighbor
    outside the closure. Two tables derived from it are built on first use
    and then held: `interior_edges` for the band and the interpolation
    ratio, and `closure_pairs` for summation by parts.
    Instances are immutable by convention and safe to share across threads;
    the boxes of one shape share one read-only `adjacency` (`make_box`).

    `interior` is an iterable of points or an (n, dimension) integer array;
    non-integral and boolean coordinates raise ValueError, as do
    coordinates beyond +-(2**63 - 2), whose neighbors would wrap in int64.
    """

    def __init__(
        self,
        dimension: int,
        interior: Iterable[LatticePoint] | np.ndarray,
        *,
        kind: str = "points",
    ):
        dimension = json_dimension(dimension)
        points = _point_array(interior, dimension)
        if not len(points):
            raise ValueError("interior must be non-empty")

        two_n = 2 * dimension
        # The 2n unit steps +e_1, -e_1, +e_2, ..., the neighbor order.
        sign = np.tile([1, -1], dimension)[:, None]
        unit = np.repeat(np.eye(dimension, dtype=np.int64), 2, axis=0) * sign

        # np.unique returns the sorted distinct keys, which are each block's own keys.
        inner_keys, first = np.unique(_row_keys(points), return_index=True)
        inner = points[first]
        n = len(inner)
        steps = (inner[:, None, :] + unit).reshape(-1, dimension)
        inner_adjacent = _find_rows(inner_keys, steps)
        # The boundary: the distinct steps that leave the interior, sorted.
        off = inner_adjacent < 0
        outer_keys, first, rank = np.unique(
            _row_keys(steps[off]), return_index=True, return_inverse=True
        )
        inner_adjacent[off] = n + rank
        outer = steps[off][first]

        coords = np.concatenate([inner, outer])
        keys = np.concatenate([inner_keys, outer_keys])
        outer_adjacent = _closure_rows(keys, n, outer[:, None, :] + unit).reshape(-1, two_n)
        adjacency = np.concatenate([inner_adjacent.reshape(n, two_n), outer_adjacent])
        self._set_tables(dimension, kind, coords, n, adjacency)

    def _set_tables(self, dimension, kind, coords, n_interior, adjacency):
        """Set the tables; every constructor, `make_box`'s included, ends here.

        The one neighbor table `adjacency` has its columns in the order
        +e_1, -e_1, +e_2, ...: a boundary site's neighbor may lie outside
        the closure (-1), an interior site's never, so the interior rows
        are the (n_interior, 2n) view `interior_neighbors`.
        """
        self.dimension = dimension
        self.kind = kind
        self.n_interior = n_interior
        self.coords = coords
        self.n_closure = len(coords)
        self.adjacency = adjacency
        self.interior_neighbors = adjacency[:n_interior]

    def __repr__(self) -> str:
        return (
            f"LatticeDomain(dim={self.dimension}, kind={self.kind!r}, "
            f"interior={self.n_interior}, boundary={self.n_closure - self.n_interior})"
        )

    def is_interior(self, point: LatticePoint) -> bool:
        return bool(0 <= self.locate(point) < self.n_interior)

    def locate(self, points) -> np.ndarray:
        """Closure index of each point, -1 for a point outside the closure.

        `points` is one point or an array of them with the coordinates along
        the last axis; the result has the leading shape. A point of another
        dimension or with a non-integral coordinate lies outside.
        """
        rows = np.asarray(points)
        if rows.shape[-1:] != (self.dimension,):
            return np.full(rows.shape[:-1], -1, dtype=np.int64)
        big = rows.dtype == object  # Python ints beyond int64, which no site has
        with np.errstate(invalid="ignore"):
            keys = (np.clip(rows, -(2**63), 2**63 - 1) if big else rows).astype(np.int64)
        found = _closure_rows(self._site_keys, self.n_interior, keys).reshape(rows.shape[:-1])
        return np.where(np.all(keys == rows, axis=-1), found, -1)

    @functools.cached_property
    def _site_keys(self) -> np.ndarray:
        """`_row_keys` of `coords`: the sorted keys of the interior block, then of the boundary block."""
        return _row_keys(self.coords)

    @functools.cached_property
    def interior_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The interior edges and each interior site's number of neighbors off the interior.

        The edges are a (2, m) array: row 0 holds the lower end i and row 1
        the upper end j of each edge with both ends interior, i < j, in
        row-major order of `interior_neighbors`. The counts are 2n minus
        each site's interior neighbors. `linsolve.damped_band` (and so
        Newton's Jacobian and `verify`'s maximum-principle suite) and
        `calculus.gns_ratio` read them. The table is derived from the
        neighbor table on first use and then held, so a domain that is only
        solved on never holds it: neither the box inverse nor CG reads it.
        """
        nbr = self.interior_neighbors
        inside = nbr < self.n_interior
        i, k = np.nonzero(inside & (nbr > np.arange(self.n_interior)[:, None]))
        ends = np.stack([i, nbr[i, k]])
        return ends, 2 * self.dimension - inside.sum(axis=1)

    @functools.cached_property
    def closure_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ordered pair (x, y) of neighbors within the closure, as the closure indices (xs, ys).

        Row-major over `adjacency`, so each edge appears once from each
        end. `calculus.green_identity_defect` reads it; derived on first
        use and then held.
        """
        inside = self.adjacency >= 0
        xs = np.repeat(np.arange(self.n_closure), 2 * self.dimension)[inside.ravel()]
        return xs, self.adjacency[inside]


def make_box(dimension: int, half_width: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Axis-aligned box: all points within `half_width` of the center in every coordinate.

    The tables are those `LatticeDomain(dimension, interior)` builds, entry
    for entry, but come from `_box_tables`, built once per shape: each call
    adds the center to the grid offsets and shares the read-only
    neighbor table.
    """
    dimension = json_dimension(dimension)
    half_width = json_integer(half_width, "half_width")
    if half_width < 1:
        raise ValueError("half_width must be positive")
    c = json_center(center, dimension, half_width)
    grid, adjacency = _box_tables(dimension, half_width)
    # Within +-(2**63 - 1): json_center keeps the center half_width + 1 inside.
    coords = grid + np.array([ci - half_width - 1 for ci in c], dtype=np.int64)
    box = LatticeDomain.__new__(LatticeDomain)
    box._set_tables(dimension, "box", coords, (2 * half_width + 1) ** dimension, adjacency)
    return box


@functools.lru_cache(maxsize=8)
def _box_tables(dimension: int, half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid coordinates and the neighbor table of a box's closure, by index arithmetic.

    The box and its boundary layer fill a grid of side 2 half_width + 3:
    the interior is the sites with no coordinate on the layer, the
    boundary those with exactly one. C order on the grid is lexicographic
    order, so ranking the two blocks over the grid gives every closure
    index, and a neighbor is the rank one stride away. Both arrays are
    cached, so they are read-only.
    """
    side = 2 * half_width + 3
    shape = (side,) * dimension
    layer = np.zeros(side, dtype=np.int8)
    layer[[0, -1]] = 1
    on_layer = np.zeros(shape, dtype=np.int8)  # coordinates on the layer, per grid site
    for axis in range(dimension):
        on_layer += layer.reshape((side,) + (1,) * (dimension - 1 - axis))
    on_layer = on_layer.ravel()
    closure = np.concatenate([np.flatnonzero(on_layer == 0), np.flatnonzero(on_layer == 1)])
    rank = np.full(len(on_layer), -1, dtype=np.int64)
    rank[closure] = np.arange(len(closure))
    grid = np.column_stack(np.unravel_index(closure, shape)).astype(np.int64, copy=False)
    adjacency = np.empty((len(closure), 2 * dimension), dtype=np.int64)
    # A step off the grid is masked to -1; `clip` only keeps its index in range.
    for axis in range(dimension):
        stride, at = side ** (dimension - 1 - axis), grid[:, axis]
        adjacency[:, 2 * axis] = np.where(at < side - 1, rank.take(closure + stride, mode="clip"), -1)
        adjacency[:, 2 * axis + 1] = np.where(at > 0, rank.take(closure - stride, mode="clip"), -1)
    grid.flags.writeable = adjacency.flags.writeable = False
    return grid, adjacency


def make_ball(dimension: int, radius: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Graph-distance ball: all points within `radius` steps of the center."""
    dimension = json_dimension(dimension)
    radius = json_integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    c = json_center(center, dimension, radius)
    # Grow the ball one axis at a time: each offset so far extends by every
    # last coordinate its remaining l1 budget allows. Each intermediate is a
    # lower-dimensional ball, never larger than the result.
    offsets = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dimension):
        budget = radius - np.abs(offsets).sum(axis=1)
        counts = 2 * budget + 1
        start = np.repeat(np.cumsum(counts) - counts + budget, counts)
        last = np.arange(counts.sum()) - start
        offsets = np.column_stack([np.repeat(offsets, counts, axis=0), last])
    interior = offsets + np.array(c, dtype=np.int64)
    return LatticeDomain(dimension, interior, kind="ball")


def nested_index(inner: LatticeDomain, outer: LatticeDomain) -> np.ndarray:
    """Closure index in `outer` of each closure point of `inner`, in `inner`'s order.

    The map of a domain into the next one of a nested chain. It raises
    ValueError when the dimensions differ or `inner`'s interior is not
    inside `outer`'s interior, which would leave `inner`'s boundary outside
    `outer`'s closure.
    """
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    at = outer.locate(inner.coords)
    inside = at[: inner.n_interior]
    if not np.all((inside >= 0) & (inside < outer.n_interior)):
        raise ValueError("interior of the inner domain is not inside the outer interior")
    return at


def json_integer(value, name: str) -> int:
    """An integral number as an int; truncating 3.7 to 3 would describe another domain.

    Python and numpy integers and integral floats pass; booleans, fractions
    and non-finite values raise ValueError.
    """
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_point(value, dimension: int | None = None, name: str = "point") -> LatticePoint:
    """A lattice point as a tuple of ints, from a list, tuple or 1-D array of coordinates.

    It must hold `dimension` coordinates when that is given, each an
    integral number (see json_integer); any other shape raises ValueError
    naming `name` rather than failing inside the iteration over it.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or (dimension is not None and len(value) != dimension):
        count = "" if dimension is None else f"{dimension} "
        raise ValueError(f"{name} must be a list of {count}integers, got {value!r}")
    return tuple(json_integer(c, f"{name} coordinate") for c in value)


def json_real(value, name: str) -> float:
    """A finite real number as a float; a NaN would fail every comparison meant to check it.

    Python and numpy integers and floats pass; booleans, strings and
    non-finite values raise ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = np.inf
    if not np.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


def json_object(value, keys) -> dict:
    """A JSON object whose keys all lie in `keys`; a misspelt key would silently run a default.

    Anything but a dict, or a dict with another key, raises ValueError.
    """
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return value


def json_dimension(value) -> int:
    """A lattice dimension: an integral number of at least 2 (see json_integer)."""
    dimension = json_integer(value, "dimension")
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    return dimension


def json_center(value, dimension: int, reach: int) -> LatticePoint:
    """A domain center (see json_point), the origin when None.

    A domain reaching `reach` steps from it along each axis must keep its
    interior within +-(2**63 - 2) (see LatticeDomain), or ValueError.
    """
    center = (0,) * dimension if value is None else json_point(value, dimension, "center")
    if any(abs(c) > _COORD_LIMIT - reach for c in center):
        raise ValueError(f"center {center} +- {reach + 1} leaves the int64 range")
    return center


def _point_array(points, dimension: int) -> np.ndarray:
    """The points as an (n, dimension) int64 array, each coordinate checked."""
    if isinstance(points, np.ndarray) and points.dtype.kind == "i" and points.ndim == 2:
        if points.shape[1] != dimension:
            raise ValueError(f"points have dimension {points.shape[1]}, not {dimension}")
        rows = points
    elif isinstance(points, Iterable):
        # Python ints of any size, range-checked before int64 holds them.
        rows = [json_point(p, dimension, f"point {i}") for i, p in enumerate(points)]
        rows = np.array(rows, dtype=object).reshape(len(rows), dimension)
    else:
        raise ValueError(f"interior must be a list of points, got {points!r}")
    if rows.size and not -_COORD_LIMIT <= rows.min() <= rows.max() <= _COORD_LIMIT:
        raise ValueError("interior coordinates must lie within +-(2**63 - 2)")
    return rows.astype(np.int64, copy=False)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int64 row (last axis) as one byte string that sorts in lexicographic row order.

    With its sign bit flipped and written big-endian, an int64 orders as its
    bytes do, so no combined integer key can overflow.
    """
    flipped = (rows ^ np.int64(np.iinfo(np.int64).min)).astype(">i8")
    return flipped.view(f"V{8 * rows.shape[-1]}").ravel()


def _closure_rows(keys: np.ndarray, n_interior: int, rows: np.ndarray) -> np.ndarray:
    """Closure index of each int64 row (last axis), or -1; flat.

    `keys` are the `_row_keys` of the site table: the interior block's
    first n_interior, then the boundary block's.
    """
    inner, outer = _find_rows(keys[:n_interior], rows), _find_rows(keys[n_interior:], rows)
    return np.where(outer < 0, inner, n_interior + outer)


def _find_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each of `rows` in a block of distinct sorted rows by binary search, or -1.

    `keys` are the block's `_row_keys`, so only the probes are encoded.
    """
    probes = _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return np.where(keys[at] == probes, at, -1)


# The keys each kind of domain block reads.
_DOMAIN_KEYS = {
    "box": ("kind", "dimension", "size", "center"),
    "ball": ("kind", "dimension", "size", "center"),
    "points": ("kind", "dimension", "interior"),
}


def domain_from_json(obj, dimension: int | None = None) -> LatticeDomain:
    """A domain from its JSON form: a box or ball descriptor, or a list of interior points.

    Sizes, centers, dimensions and point coordinates must be integral
    numbers, and a block holds only the keys its kind reads; anything else
    raises ValueError.
    """
    if isinstance(obj, list):
        if not obj:
            raise ValueError("empty point list")
        dim = dimension if dimension is not None else len(json_point(obj[0], name="point 0"))
        return LatticeDomain(dim, obj)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object or a list of points, got {obj!r}")
    kind = obj.get("kind")
    if kind not in _DOMAIN_KEYS:
        raise ValueError(f"unknown domain kind: {kind!r}")
    json_object(obj, _DOMAIN_KEYS[kind])
    dim = json_integer(obj.get("dimension", dimension if dimension is not None else 0), "dimension")
    if dimension is not None and dim != dimension:
        raise ValueError(f"domain dimension {dim} conflicts with expected {dimension}")
    if kind == "points":
        return LatticeDomain(dim, obj["interior"])
    maker = make_box if kind == "box" else make_ball
    return maker(dim, json_integer(obj["size"], "size"), obj["center"])
