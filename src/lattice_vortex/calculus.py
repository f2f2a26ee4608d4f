"""Fields on lattice domains and the discrete calculus over them.

Energy-type sums only ever use edges whose endpoints both lie in the
closure; sums tagged "extended" treat the field as zero outside the
closure. All accumulations go through numpy's pairwise summation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeDomain, LatticePoint

__all__ = [
    "LatticeField",
    "zeros",
    "constant",
    "from_interior",
    "laplacian",
    "laplacian_interior",
    "gradient_form",
    "dirichlet_energy",
    "bilinear_energy",
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
    fields on one domain. `lq_norm`, `seminorm_1q` and `gns_ratio` reduce
    over the last axis and accept stacks; every other operator takes a
    single field.
    """

    domain: LatticeDomain
    values: np.ndarray
    dirichlet_zero: bool = False

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.domain.n_closure:
            raise ValueError(
                f"field shape {self.values.shape} does not match closure size {self.domain.n_closure}"
            )
        if self.dirichlet_zero and np.any(self.boundary_values != 0.0):
            raise ValueError("dirichlet_zero field has nonzero boundary values")

    @property
    def interior(self) -> np.ndarray:
        return self.values[..., : self.domain.n_interior]

    @property
    def boundary_values(self) -> np.ndarray:
        return self.values[..., self.domain.n_interior :]

    def value_at(self, point: LatticePoint) -> float:
        idx = self.domain.locate(point)
        if idx < 0:
            raise KeyError(tuple(point))
        return float(self.values[idx])

    def copy(self) -> "LatticeField":
        return LatticeField(self.domain, self.values.copy(), self.dirichlet_zero)


def zeros(domain: LatticeDomain) -> LatticeField:
    return LatticeField(domain, np.zeros(domain.n_closure), dirichlet_zero=True)


def constant(domain: LatticeDomain, value: float) -> LatticeField:
    return LatticeField(domain, np.full(domain.n_closure, float(value)))


def from_interior(domain: LatticeDomain, interior_values) -> LatticeField:
    """Field with the given interior values and zero boundary; a (k, n_interior) array gives a stack."""
    vals = np.zeros(np.shape(interior_values)[:-1] + (domain.n_closure,))
    vals[..., : domain.n_interior] = interior_values
    return LatticeField(domain, vals, dirichlet_zero=True)


def _require_same_domain(u: LatticeField, v: LatticeField):
    if u.domain is not v.domain:
        raise ValueError("fields live on different domains")


def _interior_index(u: LatticeField, x: LatticePoint) -> int:
    idx = u.domain.locate(x)
    if not 0 <= idx < u.domain.n_interior:
        raise ValueError(f"point {tuple(x)} is not interior to the domain")
    return int(idx)


def laplacian(u: LatticeField, x: LatticePoint) -> float:
    """Graph Laplacian at an interior point: sum of u(y) - u(x) over the 2n neighbors."""
    i = _interior_index(u, x)
    nbrs = u.domain.interior_neighbors[i]
    return float(np.sum(u.values[nbrs] - u.values[i]))


def laplacian_interior(u: LatticeField) -> np.ndarray:
    """Graph Laplacian of u at every interior point, as one vectorized gather."""
    dom = u.domain
    nbr_sum = u.values[dom.interior_neighbors].sum(axis=1)
    return nbr_sum - 2 * dom.dimension * u.interior


def _gamma_at(u: LatticeField, v: LatticeField, index: int) -> float:
    # Neighbor pairs are restricted to the closure, so boundary points see
    # only their closure-side edges.
    row = u.domain.adjacency[index]
    nbrs = row[row >= 0]
    du = u.values[nbrs] - u.values[index]
    dv = v.values[nbrs] - v.values[index]
    return 0.5 * float(np.sum(du * dv))


def gradient_form(u: LatticeField, v: LatticeField, x: LatticePoint) -> float:
    """Pointwise gradient form: half the sum over neighbors of the two difference products."""
    _require_same_domain(u, v)
    return _gamma_at(u, v, _interior_index(u, x))


def dirichlet_energy(u: LatticeField) -> float:
    """Sum of squared differences over the unordered closure edges."""
    d = u.values[u.domain.edges[:, 0]] - u.values[u.domain.edges[:, 1]]
    return float(np.sum(d * d))


def bilinear_energy(u: LatticeField, v: LatticeField) -> float:
    """Edge-wise difference product; coincides with dirichlet_energy on the diagonal."""
    _require_same_domain(u, v)
    du = u.values[u.domain.edges[:, 0]] - u.values[u.domain.edges[:, 1]]
    dv = v.values[v.domain.edges[:, 0]] - v.values[v.domain.edges[:, 1]]
    return float(np.sum(du * dv))


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
    from `interior_neighbors`. Neither uses `edges` or the energy
    functions, so the check stays independent of the edge-array energy
    path. `laplacian_fn` maps a field to its interior
    Laplacian array (length n_interior); it exists so verification
    harnesses can inject a corrupted operator and confirm the check trips.
    """
    _require_same_domain(u, v)
    if np.any(v.boundary_values != 0.0):
        raise ValueError("v must vanish on the boundary")
    dom = u.domain
    lap = np.asarray(laplacian_fn(u), dtype=np.float64)
    if lap.shape != (dom.n_interior,):
        raise ValueError(f"laplacian_fn returned shape {lap.shape}, expected ({dom.n_interior},)")
    # Every closure edge is seen from both ends, so the gradient-form sum
    # is half the sum of the difference products.
    inside = dom.adjacency >= 0
    src = np.repeat(np.arange(dom.n_closure), 2 * dom.dimension)[inside.ravel()]
    nbrs = dom.adjacency[inside]
    du = u.values[nbrs] - u.values[src]
    dv = v.values[nbrs] - v.values[src]
    lhs = 0.5 * np.sum(du * dv)
    rhs = np.sum(lap * v.interior)
    return abs(float(lhs + rhs))


def _ipow(x, k: int):
    """x ** k for an integer k >= 0, by repeated multiplication.

    numpy sends `**` on float arrays through the general pow, which on
    negative bases costs tens of times more than k - 1 multiplies.
    """
    if k == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if k == 1:
        return x
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


def lq_norm(u: LatticeField, q: float, region: str = "interior"):
    """The l^q norm of the field over the interior or the full closure."""
    if region == "interior":
        vals = u.interior
    elif region == "closure":
        vals = u.values
    else:
        raise ValueError(f"unknown region {region!r}")
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
    if np.any(u.boundary_values != 0.0):
        raise ValueError("field must be supported on the interior")
    if not np.all(np.any(u.values, axis=-1)):
        raise ValueError("ratio undefined for the zero field")
    m = 2 * p + 2
    num = lq_norm(u, 2 * m, region="closure")
    grad = seminorm_1q(u, 2.0)
    low = lq_norm(u, 2 * m - 2, region="closure")
    return num / (grad ** (1.0 / m) * low ** ((m - 1) / m))


def write_field_csv(u: LatticeField, path):
    """One row per closure point: the coordinates followed by the value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(u.domain.dimension)] + ["value"])
        for point, value in zip(u.domain.coords.tolist(), u.values):
            writer.writerow(point + [format(value, ".17g")])
