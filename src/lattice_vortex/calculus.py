"""Fields on lattice domains and the discrete calculus over them.

The summation-by-parts check uses only edges whose endpoints both lie in
the closure; the seminorm and the interpolation ratio treat the field as
zero outside the closure. All accumulations go through numpy's pairwise
summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeDomain

__all__ = [
    "LatticeField",
    "from_interior",
    "laplacian_interior",
    "green_identity_defect",
    "lq_norm",
    "seminorm_1q",
    "gns_ratio",
    "write_field_csv",
]


@dataclass
class LatticeField:
    """Real values attached to every closure point of a domain.

    `values` has shape (n_closure,), or (k, n_closure) for a stack of k
    fields on one domain. Every operator but `write_field_csv` works along
    the last axis and accepts stacks.
    """

    domain: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.domain.n_closure:
            raise ValueError(
                f"field shape {self.values.shape} does not match closure size {self.domain.n_closure}"
            )

    @property
    def interior(self) -> np.ndarray:
        return self.values[..., : self.domain.n_interior]

    @property
    def boundary_values(self) -> np.ndarray:
        return self.values[..., self.domain.n_interior :]

    def copy(self) -> "LatticeField":
        return LatticeField(self.domain, self.values.copy())


def from_interior(domain: LatticeDomain, interior_values) -> LatticeField:
    """Field with the given interior values and zero boundary; a (k, n_interior) array gives a stack."""
    vals = np.zeros(np.shape(interior_values)[:-1] + (domain.n_closure,))
    vals[..., : domain.n_interior] = interior_values
    return LatticeField(domain, vals)


def _require_same_domain(u: LatticeField, v: LatticeField):
    if u.domain is not v.domain:
        raise ValueError("fields live on different domains")


def _require_zero_boundary(u: LatticeField, name: str):
    """ValueError unless u is zero at every boundary site; `name` names u in the message."""
    if np.any(u.boundary_values != 0.0):
        raise ValueError(f"{name} must vanish on the boundary")


def laplacian_interior(u: LatticeField) -> np.ndarray:
    """Graph Laplacian of u at every interior point, as one vectorized gather.

    The gather is direction-major, one row per lattice direction, so the
    sum adds whole contiguous rows rather than 2n values per site. A stack
    of k fields gives a (k, n_interior) array whose rows are bitwise the
    Laplacians of the fields alone.
    """
    dom = u.domain
    nbr_sum = u.values.take(dom.interior_neighbors.T, axis=-1).sum(axis=-2)
    return nbr_sum - 2 * dom.dimension * u.interior


def green_identity_defect(
    u: LatticeField,
    v: LatticeField,
    laplacian_fn: Callable[[LatticeField], np.ndarray] = laplacian_interior,
) -> float:
    """Absolute defect of summation by parts for v vanishing on the boundary.

    The gradient-form sum over the closure must cancel the Laplacian sum
    against v over the interior. The left side is taken over every entry of
    the neighbor table `adjacency` that lies in the closure (`>= 0`), row by
    row, so each point meets its closure neighbors; the right side comes
    from `interior_neighbors`. Neither uses `edges`, so the check stays
    independent of the edge-array path of `seminorm_1q`. `laplacian_fn`
    maps a field to its interior
    Laplacian array (shape u.interior.shape); it exists so verification
    harnesses can inject a corrupted operator and confirm the check trips.

    Stacks of k pairs (u and v of shape (k, n_closure)) give an array of
    k defects, each bitwise the defect of that pair alone: every sum runs
    over the last axis of a row-major gather.
    """
    _require_same_domain(u, v)
    _require_zero_boundary(v, "v")
    dom = u.domain
    lap = np.asarray(laplacian_fn(u), dtype=np.float64)
    if lap.shape != u.interior.shape:
        raise ValueError(f"laplacian_fn returned shape {lap.shape}, expected {u.interior.shape}")
    # Every closure edge is seen from both ends, so the gradient-form sum
    # is half the sum of the difference products.
    inside = dom.adjacency >= 0
    src = np.repeat(np.arange(dom.n_closure), 2 * dom.dimension)[inside.ravel()]
    nbrs = dom.adjacency[inside]
    du = u.values.take(nbrs, axis=-1) - u.values.take(src, axis=-1)
    dv = v.values.take(nbrs, axis=-1) - v.values.take(src, axis=-1)
    lhs = 0.5 * np.sum(du * dv, axis=-1)
    rhs = np.sum(lap * v.interior, axis=-1)
    return _reduced(np.abs(lhs + rhs))


def _ipow(x, k: int):
    """x ** k for an integer k >= 0, by repeated multiplication.

    numpy sends `**` on float arrays through the general pow, which on
    negative bases costs tens of times more than k - 1 multiplies. Above
    _IPOW_MAX_Q the powers come by repeated squaring, so k costs about
    2 log2(k) multiplies, not k - 1; they agree with pow to rounding.
    """
    if k == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if k == 1:
        return x
    if k > _IPOW_MAX_Q:
        out = None
        while True:
            if k & 1:
                out = x if out is None else out * x
            k >>= 1
            if not k:
                return out
            x = x * x
    out = x * x
    for _ in range(k - 2):
        out *= x
    return out


# On non-negative bases numpy's pow costs about as much as 10 multiplies
# whatever the exponent (2-core Xeon, 25 x 150 stacks: q=4 8.7 vs 22 us,
# q=10 and 12 a tie, q=16 34 vs 22 us, q=1000 3.5 vs 0.3 ms), so `lq_norm`
# multiplies only up to the largest order `gns_ratio` takes (4p+4, p <= 2).
_IPOW_MAX_Q = 12


def _reduced(x):
    """A float for one field, the array of per-field values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def lq_norm(u: LatticeField, q: float):
    """The l^q norm of the field over the full closure."""
    vals = u.values
    if q == math.inf:
        return _reduced(np.abs(vals).max(axis=-1, initial=0.0))
    if q < 1:
        raise ValueError("q must be at least 1")
    mags = np.abs(vals)
    powers = _ipow(mags, int(q)) if q <= _IPOW_MAX_Q and float(q).is_integer() else mags**q
    return _reduced(np.sum(powers, axis=-1) ** (1.0 / q))


def seminorm_1q(u: LatticeField, q: float):
    """Difference seminorm of the zero-extended field over the whole lattice.

    Ordered neighbor pairs are counted on both sides of each edge; edges
    leaving the closure compare the field value against zero.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    dom = u.domain
    # take keeps a stack row-major; fancy indexing would return it
    # column-major, which is slower and sums each row in another order.
    ends = u.values.take(dom.edges[:, 0], axis=-1), u.values.take(dom.edges[:, 1], axis=-1)
    d = np.abs(ends[0] - ends[1])
    inner = 2.0 * np.sum(d**q, axis=-1)
    # Each site's neighbors outside the closure: 2n less its closure edges.
    # A bincount of the edge ends costs a third of a count over the table.
    outside_degree = 2 * dom.dimension - np.bincount(dom.edges.ravel(), minlength=dom.n_closure)
    outer = 2.0 * np.sum(outside_degree * np.abs(u.values) ** q, axis=-1)
    return _reduced((inner + outer) ** (1.0 / q))


def gns_ratio(u: LatticeField, p: int):
    """Measured constant in the interpolation bound for a zero-extended field.

    Ratio of the l^{4p+4} norm to |u|_{1,2}^{1/(2p+2)} times the l^{4p+2}
    norm to the power (2p+1)/(2p+2); scale-invariant by construction.
    For a stack of fields (values of shape (k, n_closure)) every norm
    reduces over the last axis and the k ratios come back as an array,
    each equal to the ratio of that field alone.
    """
    if p < 0 or int(p) != p:
        raise ValueError("p must be a non-negative integer")
    _require_zero_boundary(u, "field")
    if not np.all(np.any(u.values, axis=-1)):
        raise ValueError("ratio undefined for the zero field")
    m = 2 * p + 2
    num = lq_norm(u, 2 * m)
    grad = seminorm_1q(u, 2.0)
    low = lq_norm(u, 2 * m - 2)
    return num / (grad ** (1.0 / m) * low ** ((m - 1) / m))


def write_field_csv(u: LatticeField, path):
    """One row per closure point: the coordinates followed by the value.

    The bytes are those of csv.writer (CRLF rows) with values at 17
    significant digits. The coordinates and values, interleaved into one
    flat list, fill the row format repeated once per point, so the whole
    file is rendered by a single `%` and written at once.
    """
    dim = u.domain.dimension
    flat = [None] * (u.domain.n_closure * (dim + 1))
    for d in range(dim):
        flat[d :: dim + 1] = u.domain.coords[:, d].tolist()
    flat[dim :: dim + 1] = u.values.tolist()
    row = "%d," * dim + "%.17g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{i}" for i in range(dim)] + ["value"]) + "\r\n")
        fh.write((row * u.domain.n_closure) % tuple(flat))
