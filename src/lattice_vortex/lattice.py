"""Finite regions of the integer lattice and their one-step boundaries.

Points are plain integer tuples; two points are adjacent when their
coordinates differ by one in exactly one slot. A domain stores a finite
interior set together with the outer boundary layer (every exterior site
adjacent to the interior). Interior sites are indexed first, so problems
with zero boundary data reduce to a leading block of the index range.
"""

from __future__ import annotations

import itertools
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
    "is_nested",
    "is_connected",
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
    """

    def __init__(
        self,
        dimension: int,
        interior: Iterable[LatticePoint],
        *,
        kind: str = "points",
        center: LatticePoint | None = None,
        size: int | None = None,
    ):
        if dimension < 2:
            raise ValueError("lattice dimension must be at least 2")
        points = {tuple(int(c) for c in p) for p in interior}
        if not points:
            raise ValueError("interior must be non-empty")
        for p in points:
            if len(p) != dimension:
                raise ValueError(f"point {p} does not have dimension {dimension}")

        self.dimension = dimension
        self.kind = kind
        self.center = None if center is None else tuple(int(c) for c in center)
        self.size = size
        self.interior: tuple[LatticePoint, ...] = tuple(sorted(points))
        self.boundary: tuple[LatticePoint, ...] = tuple(
            sorted({y for x in points for y in neighbors(x) if y not in points})
        )
        self.closure: tuple[LatticePoint, ...] = self.interior + self.boundary
        self.n_interior = len(self.interior)
        self.n_closure = len(self.closure)
        self.index_of: dict[LatticePoint, int] = {p: i for i, p in enumerate(self.closure)}
        self.coords = np.array(self.closure, dtype=np.int64)

        # Closure adjacency in CSR form; rows for interior points are dense
        # (every neighbor of an interior site lies in the closure).
        two_n = 2 * dimension
        indptr = [0]
        indices: list[int] = []
        outside = np.zeros(self.n_closure, dtype=np.int64)
        for i, pt in enumerate(self.closure):
            row = [self.index_of[y] for y in neighbors(pt) if y in self.index_of]
            outside[i] = two_n - len(row)
            indices.extend(row)
            indptr.append(len(indices))
        self.adj_indptr = np.asarray(indptr, dtype=np.int64)
        self.adj_indices = np.asarray(indices, dtype=np.int64)
        self.outside_degree = outside
        self.interior_neighbors = self.adj_indices[: self.adj_indptr[self.n_interior]].reshape(
            self.n_interior, two_n
        )

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
    if half_width < 1:
        raise ValueError("half_width must be positive")
    c = tuple(0 for _ in range(dimension)) if center is None else tuple(int(v) for v in center)
    if len(c) != dimension:
        raise ValueError("center dimension mismatch")
    ranges = [range(ci - half_width, ci + half_width + 1) for ci in c]
    interior = itertools.product(*ranges)
    return LatticeDomain(dimension, interior, kind="box", center=c, size=half_width)


def make_ball(dimension: int, radius: int, center: LatticePoint | None = None) -> LatticeDomain:
    """Graph-distance ball: all points within `radius` steps of the center."""
    if dimension < 2:
        raise ValueError("lattice dimension must be at least 2")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    c = tuple(0 for _ in range(dimension)) if center is None else tuple(int(v) for v in center)
    if len(c) != dimension:
        raise ValueError("center dimension mismatch")
    offsets = itertools.product(range(-radius, radius + 1), repeat=dimension)
    interior = (
        tuple(ci + oi for ci, oi in zip(c, off))
        for off in offsets
        if sum(abs(o) for o in off) <= radius
    )
    return LatticeDomain(dimension, interior, kind="ball", center=c, size=radius)


def is_nested(inner: LatticeDomain, outer: LatticeDomain) -> bool:
    """True when every interior point of `inner` is interior to `outer`."""
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    outer_set = set(outer.interior)
    return all(p in outer_set for p in inner.interior)


def is_connected(domain: LatticeDomain) -> bool:
    """Breadth-first check that the interior is a single edge-connected piece."""
    interior = set(domain.interior)
    seen = {domain.interior[0]}
    queue = [domain.interior[0]]
    while queue:
        x = queue.pop()
        for y in neighbors(x):
            if y in interior and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(interior)


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
    """An integral JSON number; truncating 3.7 to 3 would describe another domain."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_point(values) -> LatticePoint:
    return tuple(json_integer(c, "point coordinate") for c in values)


def domain_from_json(obj, dimension: int | None = None) -> LatticeDomain:
    """Inverse of domain_to_json; bare lists are read as interior point lists.

    Sizes, centers, dimensions and point coordinates must be integral
    numbers; anything else raises ValueError.
    """
    if isinstance(obj, list):
        if not obj:
            raise ValueError("empty point list")
        points = [_json_point(p) for p in obj]
        dim = dimension if dimension is not None else len(points[0])
        return LatticeDomain(dim, points)
    kind = obj.get("kind")
    dim = json_integer(obj.get("dimension", dimension if dimension is not None else 0), "dimension")
    if dimension is not None and dim != dimension:
        raise ValueError(f"domain dimension {dim} conflicts with expected {dimension}")
    if kind == "box":
        return make_box(dim, json_integer(obj["size"], "size"), _json_point(obj["center"]))
    if kind == "ball":
        return make_ball(dim, json_integer(obj["size"], "size"), _json_point(obj["center"]))
    if kind == "points":
        return LatticeDomain(dim, [_json_point(p) for p in obj["interior"]])
    raise ValueError(f"unknown domain kind: {kind!r}")
