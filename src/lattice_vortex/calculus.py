"""Fields on lattice domains and the discrete calculus over them.

The summation-by-parts check uses only edges whose endpoints both lie in
the closure, from the domain's `closure_pairs`. The interpolation ratio
is defined for the zero extension of interior values, so it takes those
values as a plain array and reads the domain's `interior_edges` only.
Both tables are derived once per domain. All accumulations go through
numpy's pairwise summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeDomain

__all__ = [
    "LatticeField",
    "from_interior",
    "laplacian_interior",
    "green_identity_defect",
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
    if u.boundary_values.any():
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
    from `interior_neighbors`. Neither uses `interior_edges`, so the check
    stays independent of the edge-array path of `gns_ratio`'s seminorm.
    `laplacian_fn` maps a field to its interior Laplacian array (shape
    u.interior.shape); it exists so verification harnesses can inject a
    corrupted operator and confirm the check trips.

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
    src, nbrs = dom.closure_pairs
    du = u.values.take(nbrs, axis=-1) - u.values.take(src, axis=-1)
    dv = v.values.take(nbrs, axis=-1) - v.values.take(src, axis=-1)
    lhs = 0.5 * np.sum(du * dv, axis=-1)
    rhs = np.sum(lap * v.interior, axis=-1)
    return _reduced(np.abs(lhs + rhs))


def _ipow(x, k: int):
    """x ** k for an integer k >= 0, by repeated multiplication.

    k = 1 returns x itself, not a copy, so a caller never writes into the
    result. numpy sends `**` on float arrays through the general pow,
    which on negative bases costs tens of times more than k - 1
    multiplies. Above
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
# q=10 and 12 a tie, q=16 34 vs 22 us, q=1000 3.5 vs 0.3 ms), so `_ipow`
# multiplies up to order 12 and squares repeatedly above it.
_IPOW_MAX_Q = 12


def _reduced(x):
    """A float for one field, the array of per-field values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def gns_ratio(domain: LatticeDomain, values, p: int):
    """Measured constant in the interpolation bound for a zero-extended field.

    `values` are the field's interior values, of shape (n_interior,), or
    (k, n_interior) for a stack of k fields; the field is zero everywhere
    else on the lattice. The ratio is the l^{4p+4} norm over
    |u|_{1,2}^{1/(2p+2)} times the l^{4p+2} norm to the power
    (2p+1)/(2p+2); scale-invariant by construction. With m = 2p+2 it is
    (S_{2m} / (S_{2m-2} |u|_{1,2}^2))^{1/(2m)}, S_q the sum of x^q over
    the interior values x; S_{2m} reuses the powers of S_{2m-2}. Over
    ordered neighbor pairs of the whole lattice, |u|_{1,2}^2 is twice the
    sum of (x_i - x_j)^2 over interior edges plus twice the sum of x_i^2
    times the number of neighbors of site i off the interior, both read
    from the domain's `interior_edges`. A stack reduces every sum over the
    last axis and returns an array of k ratios, each equal to the ratio of
    that field alone. The values are read as one contiguous array, so the
    sums do not depend on the input's memory layout.
    """
    if p < 0 or int(p) != p:
        raise ValueError("p must be a non-negative integer")
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != domain.n_interior:
        raise ValueError(f"values of shape {x.shape} do not match interior size {domain.n_interior}")
    if not x.any(axis=-1).all():
        raise ValueError("ratio undefined for the zero field")
    (lower, upper), off_interior = domain.interior_edges
    m = 2 * p + 2
    sq = x * x
    # At p = 0 `low` is `sq` itself, so neither is written into.
    low = _ipow(sq, m - 1)
    # take keeps a stack row-major; fancy indexing would return it
    # column-major, which is slower and sums each row in another order.
    d = x.take(lower, axis=-1)
    d -= x.take(upper, axis=-1)
    # vecdot sums each product row without forming it.
    grad_sq = 2.0 * (np.vecdot(d, d) + np.vecdot(sq, off_interior))
    ratio = np.vecdot(low, sq) / (low.sum(axis=-1) * grad_sq)
    return _reduced(ratio ** (1.0 / (2 * m)))


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
