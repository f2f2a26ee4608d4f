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

__all__ = [
    "LatticePoint",
    "LatticeDomain",
    "l1_distance",
    "neighbors",
    "make_box",
    "make_ball",
    "nested_index",
    "is_nested",
    "domain_to_json",
    "domain_from_json",
    "json_integer",
    "json_real",
    "json_object",
]


def l1_distance(x: LatticePoint, y: LatticePoint) -> int:
    """Graph distance on the lattice: the sum of coordinate differences."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: point of length {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def neighbors(x: LatticePoint) -> list[LatticePoint]:
    """The 2n points one unit step from x (one coordinate changed by +-1)."""
    out = []
    for i in range(len(x)):
        out.append(x[:i] + (x[i] + 1,) + x[i + 1 :])
        out.append(x[:i] + (x[i] - 1,) + x[i + 1 :])
    return out


class LatticeDomain:
    """A finite interior set with its derived boundary, held once as `coords`.

    The boundary is always computed from the interior (exterior sites with
    at least one interior neighbor), so the two sets are disjoint by
    construction. `coords` is the one site table, an (n_closure, dimension)
    int64 array: the interior block, then the boundary block, each sorted
    lexicographically and free of repeats. A site's closure index is its
    row, and `locate` finds rows by binary search over the two blocks.
    `adjacency` is the one neighbor table, (n_closure, 2n) closure indices
    with -1 for a neighbor outside the closure.
    Instances are immutable by convention and safe to share across threads.

    `interior` is an iterable of points or an (n, dimension) integer array;
    non-integral and boolean coordinates raise ValueError.
    """

    def __init__(
        self,
        dimension: int,
        interior: Iterable[LatticePoint] | np.ndarray,
        *,
        kind: str = "points",
        center: LatticePoint | None = None,
        size: int | None = None,
    ):
        dimension = _dimension(dimension)
        points = _point_array(interior, dimension)
        if not len(points):
            raise ValueError("interior must be non-empty")

        self.dimension = dimension
        self.kind = kind
        self.center = None if center is None else _center(center, dimension)
        self.size = size

        two_n = 2 * dimension
        # The 2n unit steps +e_1, -e_1, +e_2, ..., the order of `neighbors()`.
        sign = np.tile([1, -1], dimension)[:, None]
        unit = np.repeat(np.eye(dimension, dtype=np.int64), 2, axis=0) * sign

        inner = points[np.unique(_row_keys(points), return_index=True)[1]]
        n = len(inner)
        steps = (inner[:, None, :] + unit).reshape(-1, dimension)
        inner_adjacent = _find_rows(inner, steps)
        # The boundary: the distinct steps that leave the interior, sorted.
        off = inner_adjacent < 0
        _, first, rank = np.unique(_row_keys(steps[off]), return_index=True, return_inverse=True)
        inner_adjacent[off] = n + rank
        outer = steps[off][first]

        self.n_interior = n
        self.coords = np.concatenate([inner, outer])
        self.n_closure = len(self.coords)
        # The one neighbor table, columns in the order of `neighbors()`: a
        # boundary site's neighbor may lie outside the closure (-1), an
        # interior site's never, so the interior rows are the (n_interior,
        # 2n) view `interior_neighbors`.
        self.adjacency = np.concatenate(
            [inner_adjacent.reshape(n, two_n), self.locate(outer[:, None, :] + unit)]
        )
        self.interior_neighbors = self.adjacency[:n]

    def __repr__(self) -> str:
        return (
            f"LatticeDomain(dim={self.dimension}, kind={self.kind!r}, "
            f"interior={self.n_interior}, boundary={self.n_closure - self.n_interior})"
        )

    def __contains__(self, point: LatticePoint) -> bool:
        return bool(self.locate(point) >= 0)

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
        inner, outer = (_find_rows(b, keys) for b in np.split(self.coords, [self.n_interior]))
        found = np.where(outer < 0, inner, self.n_interior + outer).reshape(rows.shape[:-1])
        return np.where(np.all(keys == rows, axis=-1), found, -1)

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Unordered closure edges as index pairs (i, j) with i < j, in row-major table order.

        Derived from `adjacency` on first use and then held, so a domain
        that is only solved on never holds it.
        """
        i, k = np.nonzero(self.adjacency > np.arange(self.n_closure)[:, None])
        return np.column_stack([i, self.adjacency[i, k]])


def make_box(dimension: int, half_width: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Axis-aligned box: all points within `half_width` of the center in every coordinate."""
    dimension = _dimension(dimension)
    half_width = json_integer(half_width, "half_width")
    if half_width < 1:
        raise ValueError("half_width must be positive")
    c = _center(center, dimension)
    axes = [np.arange(ci - half_width, ci + half_width + 1) for ci in c]
    interior = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dimension)
    return LatticeDomain(dimension, interior, kind="box", center=c, size=half_width)


def make_ball(dimension: int, radius: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Graph-distance ball: all points within `radius` steps of the center."""
    dimension = _dimension(dimension)
    radius = json_integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    c = _center(center, dimension)
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
    return LatticeDomain(dimension, interior, kind="ball", center=c, size=radius)


def nested_index(inner: LatticeDomain, outer: LatticeDomain) -> np.ndarray:
    """Closure index in `outer` of each closure point of `inner`, in `inner`'s order.

    The map of a domain into the next one of a nested chain. It raises
    ValueError when the dimensions differ or `inner`'s interior is not
    inside `outer`'s interior, which would leave `inner`'s boundary outside
    `outer`'s closure.
    """
    if not is_nested(inner, outer):
        raise ValueError("interior of the inner domain is not inside the outer interior")
    return outer.locate(inner.coords)


def is_nested(inner: LatticeDomain, outer: LatticeDomain) -> bool:
    """True when every interior point of `inner` is interior to `outer`."""
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    inside = outer.locate(inner.coords[: inner.n_interior])
    return bool(np.all((inside >= 0) & (inside < outer.n_interior)))


def domain_to_json(domain: LatticeDomain):
    """JSON form: compact descriptor for boxes and balls, point list otherwise."""
    if domain.kind in ("box", "ball") and domain.center is not None and domain.size is not None:
        return {
            "dimension": domain.dimension,
            "kind": domain.kind,
            "center": list(domain.center),
            "size": domain.size,
        }
    return domain.coords[: domain.n_interior].tolist()


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


def _dimension(value) -> int:
    dimension = json_integer(value, "dimension")
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    return dimension


def _center(center, dimension: int) -> LatticePoint:
    if center is None:
        return (0,) * dimension
    if not isinstance(center, Iterable):
        raise ValueError(f"center must be a list of coordinates, got {center!r}")
    c = tuple(json_integer(v, "center coordinate") for v in center)
    if len(c) != dimension:
        raise ValueError("center dimension mismatch")
    return c


def _point_array(points, dimension: int) -> np.ndarray:
    """The points as an (n, dimension) int64 array, each coordinate checked."""
    if isinstance(points, np.ndarray) and points.dtype.kind == "i" and points.ndim == 2:
        if points.shape[1] != dimension:
            raise ValueError(f"points have dimension {points.shape[1]}, not {dimension}")
        return points.astype(np.int64, copy=False)
    rows = [tuple(p) for p in points]
    for p in rows:
        if len(p) != dimension:
            raise ValueError(f"point {p} does not have dimension {dimension}")
    flat = [json_integer(c, "point coordinate") for p in rows for c in p]
    return np.array(flat, dtype=np.int64).reshape(len(rows), dimension)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int64 row (last axis) as one byte string that sorts in lexicographic row order.

    With its sign bit flipped and written big-endian, an int64 orders as its
    bytes do, so no combined integer key can overflow.
    """
    flipped = (rows ^ np.int64(np.iinfo(np.int64).min)).astype(">i8")
    return flipped.view(f"V{8 * rows.shape[-1]}").ravel()


def _find_rows(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each of `rows` in `block` (distinct, sorted rows) by binary search, or -1."""
    keys, probes = _row_keys(block), _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return np.where(keys[at] == probes, at, -1)


# The keys each kind of domain block reads.
_DOMAIN_KEYS = {
    "box": ("kind", "dimension", "size", "center"),
    "ball": ("kind", "dimension", "size", "center"),
    "points": ("kind", "dimension", "interior"),
}


def domain_from_json(obj, dimension: int | None = None) -> LatticeDomain:
    """Inverse of domain_to_json; bare lists are read as interior point lists.

    Sizes, centers, dimensions and point coordinates must be integral
    numbers, and a block holds only the keys its kind reads; anything else
    raises ValueError.
    """
    if isinstance(obj, list):
        if not obj:
            raise ValueError("empty point list")
        dim = dimension if dimension is not None else len(obj[0])
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
