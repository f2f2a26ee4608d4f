"""Finite regions of the integer lattice and their one-step boundaries.

Points are plain integer tuples; two points are adjacent when their
coordinates differ by one in exactly one slot. A domain stores a finite
interior set together with the outer boundary layer (every exterior site
adjacent to the interior). Interior sites are indexed first, so problems
with zero boundary data reduce to a leading block of the index range.
"""

from __future__ import annotations

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
    """A finite interior set with its derived boundary and dense index map.

    The boundary is always computed from the interior (exterior sites with
    at least one interior neighbor), so the two sets are disjoint by
    construction. Index order is interior first, then boundary, each block
    sorted lexicographically. Instances are immutable by convention and
    safe to share across threads.

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
        if dimension < 2:
            raise ValueError("lattice dimension must be at least 2")
        points = _point_array(interior, dimension)
        if not len(points):
            raise ValueError("interior must be non-empty")

        self.dimension = dimension
        self.kind = kind
        self.center = None if center is None else _center(center, dimension)
        self.size = size

        # Sites are found by the lexicographic rank of their coordinate rows,
        # so no key can overflow however far apart the points lie.
        two_n = 2 * dimension
        # The 2n unit steps +e_1, -e_1, +e_2, ..., the order of `neighbors()`.
        sign = np.tile([1, -1], dimension)[:, None]
        unit = np.repeat(np.eye(dimension, dtype=np.int64), 2, axis=0) * sign

        inner = points[_row_ranks(points)[1]]
        n = len(inner)
        rows = np.concatenate([inner, (inner[:, None, :] + unit).reshape(-1, dimension)])
        ranks, first = _row_ranks(rows)
        # Closure index of each distinct row: interior rows first, then the
        # rest (the boundary) in rank order, which is lexicographic order.
        index = np.full(len(first), -1, dtype=np.int64)
        index[ranks[:n]] = np.arange(n)
        outside = np.flatnonzero(index < 0)
        index[outside] = n + np.arange(len(outside))
        outer = rows[first[outside]]
        inner_adjacent = index[ranks[n:]]
        # Boundary neighbors may lie outside the closure; rank them together
        # with the closure to find those that do not.
        coords = np.concatenate([inner, outer])
        n_closure = len(coords)
        ranks, first = _row_ranks(
            np.concatenate([coords, (outer[:, None, :] + unit).reshape(-1, dimension)])
        )
        index = np.full(len(first), -1, dtype=np.int64)
        index[ranks[:n_closure]] = np.arange(n_closure)
        outer_adjacent = index[ranks[n_closure:]].reshape(len(outer), two_n)
        found = outer_adjacent >= 0

        self.n_interior = n
        self.n_closure = n_closure
        self.coords = coords
        self.closure: tuple[LatticePoint, ...] = tuple(map(tuple, coords.tolist()))
        self.interior: tuple[LatticePoint, ...] = self.closure[:n]
        self.boundary: tuple[LatticePoint, ...] = self.closure[n:]
        self.index_of: dict[LatticePoint, int] = dict(zip(self.closure, range(n_closure)))

        # Closure adjacency in CSR form, neighbors in the order of
        # `neighbors()`; rows for interior points are dense (every neighbor
        # of an interior site lies in the closure).
        counts = np.concatenate([np.full(n, two_n), found.sum(axis=1)])
        self.adj_indptr = np.concatenate([[0], np.cumsum(counts)])
        self.adj_indices = np.concatenate([inner_adjacent, outer_adjacent[found]])
        self.outside_degree = two_n - counts
        self.interior_neighbors = inner_adjacent.reshape(n, two_n)

        # Unordered edges inside the closure, as index pairs with i < j.
        src = np.repeat(np.arange(self.n_closure), np.diff(self.adj_indptr))
        keep = self.adj_indices > src
        self.edges = np.column_stack([src[keep], self.adj_indices[keep]])

    def __repr__(self) -> str:
        return (
            f"LatticeDomain(dim={self.dimension}, kind={self.kind!r}, "
            f"interior={self.n_interior}, boundary={self.n_closure - self.n_interior})"
        )

    def __contains__(self, point: LatticePoint) -> bool:
        return tuple(point) in self.index_of

    def is_interior(self, point: LatticePoint) -> bool:
        idx = self.index_of.get(tuple(point))
        return idx is not None and idx < self.n_interior

    def adjacency_row(self, index: int) -> np.ndarray:
        """Closure indices adjacent to the closure point at `index`."""
        return self.adj_indices[self.adj_indptr[index] : self.adj_indptr[index + 1]]


def make_box(dimension: int, half_width: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Axis-aligned box: all points within `half_width` of the center in every coordinate."""
    if dimension < 2:
        raise ValueError("lattice dimension must be at least 2")
    half_width = json_integer(half_width, "half_width")
    if half_width < 1:
        raise ValueError("half_width must be positive")
    c = _center(center, dimension)
    axes = [np.arange(ci - half_width, ci + half_width + 1) for ci in c]
    interior = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dimension)
    return LatticeDomain(dimension, interior, kind="box", center=c, size=half_width)


def make_ball(dimension: int, radius: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Graph-distance ball: all points within `radius` steps of the center."""
    if dimension < 2:
        raise ValueError("lattice dimension must be at least 2")
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
    `outer`'s closure. Sites are matched by row rank, as in `LatticeDomain`.
    """
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    ranks, first = _row_ranks(np.concatenate([outer.coords, inner.coords]))
    index = np.full(len(first), -1, dtype=np.int64)
    index[ranks[: outer.n_closure]] = np.arange(outer.n_closure)
    found = index[ranks[outer.n_closure :]]
    inside = found[: inner.n_interior]
    if np.any((inside < 0) | (inside >= outer.n_interior)):
        raise ValueError("interior of the inner domain is not inside the outer interior")
    return found


def is_nested(inner: LatticeDomain, outer: LatticeDomain) -> bool:
    """True when every interior point of `inner` is interior to `outer`."""
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    try:
        nested_index(inner, outer)
    except ValueError:
        return False
    return True


def domain_to_json(domain: LatticeDomain):
    """JSON form: compact descriptor for boxes and balls, point list otherwise."""
    if domain.kind in ("box", "ball") and domain.center is not None and domain.size is not None:
        return {
            "dimension": domain.dimension,
            "kind": domain.kind,
            "center": list(domain.center),
            "size": domain.size,
        }
    return [list(p) for p in domain.interior]


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


def _center(center, dimension: int) -> LatticePoint:
    if center is None:
        return (0,) * dimension
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


def _row_ranks(rows: np.ndarray):
    """Dense lexicographic rank of each row, and the index of one copy of each distinct row."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks, order[new]


def domain_from_json(obj, dimension: int | None = None) -> LatticeDomain:
    """Inverse of domain_to_json; bare lists are read as interior point lists.

    Sizes, centers, dimensions and point coordinates must be integral
    numbers; anything else raises ValueError.
    """
    if isinstance(obj, list):
        if not obj:
            raise ValueError("empty point list")
        dim = dimension if dimension is not None else len(obj[0])
        return LatticeDomain(dim, obj)
    kind = obj.get("kind")
    dim = json_integer(obj.get("dimension", dimension if dimension is not None else 0), "dimension")
    if dimension is not None and dim != dimension:
        raise ValueError(f"domain dimension {dim} conflicts with expected {dimension}")
    if kind == "box":
        return make_box(dim, json_integer(obj["size"], "size"), obj["center"])
    if kind == "ball":
        return make_ball(dim, json_integer(obj["size"], "size"), obj["center"])
    if kind == "points":
        return LatticeDomain(dim, obj["interior"])
    raise ValueError(f"unknown domain kind: {kind!r}")
