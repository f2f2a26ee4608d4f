"""Fields on lattice domains and the discrete calculus over them.

The summation-by-parts check uses only edges whose endpoints both lie in
the closure. The interpolation ratio requires a zero boundary and treats
the field as zero outside the interior, so it reads interior values and
interior edges only. All accumulations go through numpy's pairwise
summation.
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
    from `interior_neighbors`. Neither uses `edges`, so the check stays
    independent of the edge-array path of `gns_ratio`'s seminorm.
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


def gns_ratio(u: LatticeField, p: int):
    """Measured constant in the interpolation bound for a zero-extended field.

    Ratio of the l^{4p+4} norm to |u|_{1,2}^{1/(2p+2)} times the l^{4p+2}
    norm to the power (2p+1)/(2p+2); scale-invariant by construction.
    With m = 2p+2 it is (S_{2m} / (S_{2m-2} |u|_{1,2}^2))^{1/(2m)}, S_q
    the sum of x^q over the interior values x, since u vanishes elsewhere;
    S_{2m} reuses the powers of S_{2m-2}. Over ordered neighbor pairs of
    the whole lattice, |u|_{1,2}^2 is twice the sum of (x_i - x_j)^2 over
    interior edges plus twice the sum of x_i^2 times the number of
    neighbors of site i off the interior.
    For a stack of fields (values of shape (k, n_closure)) every sum
    reduces over the last axis and the k ratios come back as an array,
    each equal to the ratio of that field alone.
    """
    if p < 0 or int(p) != p:
        raise ValueError("p must be a non-negative integer")
    _require_zero_boundary(u, "field")
    x = u.interior
    if not x.any(axis=-1).all():
        raise ValueError("ratio undefined for the zero field")
    dom = u.domain
    m = 2 * p + 2
    sq = x * x
    # At p = 0 `low` is `sq` itself, so neither is written into.
    low = _ipow(sq, m - 1)
    s_high = (low * sq).sum(axis=-1)
    s_low = low.sum(axis=-1)
    # take keeps a stack row-major; fancy indexing would return it
    # column-major, which is slower and sums each row in another order.
    ends = x.take(dom.edges[dom.edges[:, 1] < dom.n_interior].T, axis=-1)
    d = ends[..., 0, :] - ends[..., 1, :]
    off_interior = 2 * dom.dimension - (dom.interior_neighbors < dom.n_interior).sum(axis=1)
    grad_sq = 2.0 * ((d * d).sum(axis=-1) + (off_interior * sq).sum(axis=-1))
    return _reduced((s_high / (s_low * grad_sq)) ** (1.0 / (2 * m)))


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
