"""Checks and constructors that only the tests use.

They build on the library's public operators; the naive references that
avoid the library's index arrays live in `brute.py`.
"""

import collections
import contextlib
import csv
import math

import numpy as np
import pytest

from lattice_vortex import chern_simons, exhaustion
from lattice_vortex.calculus import _IPOW_MAX_Q, LatticeField, _ipow, _reduced, from_interior
from lattice_vortex.chern_simons import jacobian, nonlinearity, residual, source_h
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.linsolve import damped_band, solve_interior

from brute import neighbors


def zeros(domain):
    return LatticeField(domain, np.zeros(domain.n_closure))


def closure_points(domain):
    """The closure points as tuples, in index order, read from `coords`."""
    return [tuple(p) for p in domain.coords.tolist()]


def interior_points(domain):
    return closure_points(domain)[: domain.n_interior]


def boundary_points(domain):
    return closure_points(domain)[domain.n_interior :]


def value_at(u, point):
    """The value of field u at a closure point; KeyError for a point outside the closure."""
    idx = u.domain.locate(point)
    if idx < 0:
        raise KeyError(tuple(point))
    return float(u.values[idx])


def from_function(domain, fn):
    """The field with value fn(p) at each closure point p."""
    return LatticeField(domain, np.array([fn(p) for p in closure_points(domain)], dtype=np.float64))


def read_field_csv(domain, path):
    """Inverse of `calculus.write_field_csv` on the same domain."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = list(reader)
    if len(rows) != domain.n_closure:
        raise ValueError(f"expected {domain.n_closure} rows, read {len(rows)}")
    at = domain.locate([[int(c) for c in row[:-1]] for row in rows])
    if np.any(at < 0):
        raise KeyError("row outside the domain")
    vals = np.zeros(domain.n_closure)
    vals[at] = [float(row[-1]) for row in rows]
    return LatticeField(domain, vals)


def is_connected(domain):
    """Breadth-first check that the interior is a single edge-connected piece."""
    points = interior_points(domain)
    interior = set(points)
    seen = {points[0]}
    queue = [points[0]]
    while queue:
        x = queue.pop()
        for y in neighbors(x):
            if y in interior and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(interior)


def lq_norm(u, q):
    """The l^q norm of the field over the full closure; a stack gives one norm per field."""
    vals = u.values
    if q == math.inf:
        return _reduced(np.abs(vals).max(axis=-1, initial=0.0))
    if q < 1:
        raise ValueError("q must be at least 1")
    mags = np.abs(vals)
    powers = _ipow(mags, int(q)) if q <= _IPOW_MAX_Q and float(q).is_integer() else mags**q
    return _reduced(np.sum(powers, axis=-1) ** (1.0 / q))


def closure_edges(domain):
    """Unordered closure edges as index pairs (i, j) with i < j, in row-major `adjacency` order."""
    i, k = np.nonzero(domain.adjacency > np.arange(domain.n_closure)[:, None])
    return np.column_stack([i, domain.adjacency[i, k]])


def seminorm_1q(u, q):
    """Difference seminorm of the zero-extended field over the whole lattice.

    Ordered neighbor pairs are counted on both sides of each edge; edges
    leaving the closure compare the field value against zero. It reads the
    closure edges and a bincount of their ends, not the interior tables
    `calculus.gns_ratio` reads, so the two are independent references.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    dom = u.domain
    edges = closure_edges(dom)
    ends = u.values.take(edges[:, 0], axis=-1), u.values.take(edges[:, 1], axis=-1)
    inner = 2.0 * np.sum(np.abs(ends[0] - ends[1]) ** q, axis=-1)
    outside_degree = 2 * dom.dimension - np.bincount(edges.ravel(), minlength=dom.n_closure)
    outer = 2.0 * np.sum(outside_degree * np.abs(u.values) ** q, axis=-1)
    return _reduced((inner + outer) ** (1.0 / q))


def dirichlet_energy(u):
    """Sum of squared differences over the unordered closure edges."""
    edges = closure_edges(u.domain)
    d = u.values[edges[:, 0]] - u.values[edges[:, 1]]
    return float(np.sum(d * d))


def functional_j(u, h, params):
    """The energy the scheme drives down, from its definition, for u vanishing on the boundary.

    Half the Dirichlet energy plus, over interior points, the potential
    well lam/(2p+2) * (e^u - 1)^(2p+2) and the source coupling h*u.
    """
    m = 2 * params.p + 2
    u_int = u.interior
    pot = (params.lam / m) * np.expm1(u_int) ** m
    return 0.5 * dirichlet_energy(u) + float(np.sum(pot + h.interior * u_int))


def scheme_step(u, h, params, system):
    """One damped step at the scalar shift: (Laplacian - shift) w = N(u) + h - shift*u."""
    rhs = nonlinearity(u.interior, params) + h.interior - params.shift * u.interior
    w, _ = solve_interior(system, rhs)
    return from_interior(u.domain, w)


def elimination_step(u, h, params, core=()):
    """One step of the scheme with zero shift on the sites `core`, by `band_elimination_solve`.

    The diagonal C is the shift off the core and 0 on it, and the step
    solves (Laplacian - C) w = N(u) + h - C*u.
    """
    diagonal = np.full(u.domain.n_interior, params.shift)
    diagonal[np.asarray(core, dtype=np.intp)] = 0.0
    rhs = nonlinearity(u.interior, params) + h.interior - diagonal * u.interior
    return from_interior(u.domain, band_elimination_solve(u.domain, diagonal, rhs))


# One observed step: ||w - x0||_2, the same norm over the step's zero-shift
# core alone, and a copy of that core's sites.
ObservedStep = collections.namedtuple("ObservedStep", "change core_change core")


@contextlib.contextmanager
def observe_steps(on_iterate=None):
    """Watch every step of the `solve_domain` runs inside the block.

    Wraps the loop's `chern_simons.solve_interior`, which each step calls
    once with the previous iterate as `x0`. Yields a list that receives an
    `ObservedStep` for each step's new iterate w, with the core read from
    the system at the solve, and passes w as a field to `on_iterate`, when
    given, as the step happens. The step's diagonal C is the shift off the
    core and 0 on it, so sum_x C(x) (w - x0)(x)^2 is
    shift * (change**2 - core_change**2).
    """
    real = chern_simons.solve_interior
    steps = []

    def observed(system, rhs, **kwargs):
        w, info = real(system, rhs, **kwargs)
        diff = w - kwargs["x0"]
        core = system.core.copy()
        steps.append(ObservedStep(float(np.linalg.norm(diff)), float(np.linalg.norm(diff[core])), core))
        if on_iterate is not None:
            on_iterate(from_interior(system.domain, w))
        return w, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chern_simons, "solve_interior", observed)
        yield steps


def band_elimination_solve(domain, diagonal, f):
    """(Laplacian - diag(C)) w = f by LAPACK `dpbsv` on the full `damped_band` of the domain.

    `diagonal` is C: a scalar shift, or one value per interior site. An
    elimination over every axis, with no transform: the reference the
    box inverse, its core correction and Jacobi-CG are checked against.
    """
    from scipy.linalg import lapack

    band = damped_band(domain)
    band[-1] = diagonal + 2 * domain.dimension
    _, w, info = lapack.dpbsv(band, -np.asarray(f, dtype=np.float64))
    assert info == 0, f"dpbsv failed (info {info})"
    return w


def decay_profile_by_shell(u, center):
    """`exhaustion.decay_profile` by one mask per shell: the sup of |u| over the sites at each distance."""
    dist = np.abs(u.domain.coords - np.asarray(center, dtype=np.int64)).sum(axis=1)
    mags = np.abs(u.values)
    return [(int(r), float(mags[dist == r].max())) for r in np.unique(dist)]


def tail_is_monotone(profile, *, fraction=0.5, slack=1e-9):
    """Non-increasing check over the outer `fraction` of the shells."""
    start = int(len(profile) * (1.0 - fraction))
    tail = [s for _, s in profile[start:]]
    return all(b <= a + slack for a, b in zip(tail, tail[1:]))


def verify_global_negativity(u):
    """True when the field never rises above rounding level."""
    return bool(np.all(u.values <= 1e-12))


def verify_subsolution_dominance(
    u_candidate, u_solution, h, params, *, tol=1e-8, hypothesis_slack=1e-9
):
    """Check that a verified subsolution stays below the computed solution.

    The candidate must satisfy Laplacian(U) >= nonlinearity(U) + h on the
    interior and U <= 0 on the boundary, both within `hypothesis_slack`;
    otherwise the comparison claim does not apply and the input is
    rejected. Returns True when the candidate is pointwise below the
    solution plus `tol`.
    """
    if u_candidate.domain is not u_solution.domain:
        raise ValueError("fields live on different domains")
    excess = residual(u_candidate, h, params).interior
    if float(excess.min()) < -hypothesis_slack:
        raise ValueError(
            f"candidate violates the subsolution inequality by {-float(excess.min()):.3e}"
        )
    if float(u_candidate.boundary_values.max(initial=-math.inf)) > hypothesis_slack:
        raise ValueError("candidate must be non-positive on the boundary")
    return bool(np.all(u_candidate.values <= u_solution.values + tol))


def nested_domain_pairs():
    """(inner, outer) pairs with `inner` nested in `outer`, of every kind the builders make."""
    scattered = [(0, 0), (1, 0), (5, 5), (-7, 3), (10**12, 0), (10**12, -4)]
    return [
        (make_box(2, 2, center=(3, -1)), make_box(2, 5, center=(1, 0))),
        (make_box(3, 1, center=(1, 2, -1)), make_box(3, 3, center=(0, 1, 0))),
        (make_ball(2, 3, center=(2, 1)), make_ball(2, 6, center=(1, 1))),
        (make_ball(3, 2, center=(0, 0, 1)), make_ball(3, 4, center=(1, 0, 0))),
        (make_box(2, 2, center=(1, -1)), make_ball(2, 7, center=(0, 0))),
        (make_box(2, 3), make_box(2, 3)),
        (
            LatticeDomain(2, scattered),
            LatticeDomain(2, scattered + [(2, 0), (5, 6), (10**12, 1), (-8, 3), (-3, -3)]),
        ),
    ]


def break_chain_ordering(monkeypatch):
    """Patch the chain's solver so every radius after the first returns the zero field.

    Zero lies above the previous radius's solution wherever a vortex pulls
    it below zero, so the chain's ordering check must trip.
    """
    real = exhaustion.solve_domain

    def solve(domain, vortices, params, *, u_init=None):
        u, trace = real(domain, vortices, params)
        return (u if u_init is None else zeros(domain)), trace

    monkeypatch.setattr(exhaustion, "solve_domain", solve)


def jacobian_fd_check(domain, vortices, params, u, *, step=1e-6):
    """Largest scaled entry error of `jacobian` against central differences of `residual`.

    Each column j is probed with u +- step*e_j; the error is scaled by
    1 + |entry| so exact zeros are compared absolutely.
    """
    h = source_h(domain, vortices)
    n = domain.n_interior
    analytic = banded_to_dense(jacobian(u, params))
    fd = np.empty((n, n))
    for j in range(n):
        bumped = []
        for sign in (1.0, -1.0):
            vals = u.values.copy()
            vals[j] += sign * step
            bumped.append(residual(LatticeField(domain, vals), h, params).interior)
        fd[:, j] = (bumped[0] - bumped[1]) / (2.0 * step)
    return float((np.abs(analytic - fd) / (1.0 + np.abs(analytic))).max())


def banded_to_dense(ab):
    """The square matrix in `scipy.linalg.solve_banded` storage `ab` with as many bands below as above.

    Entry (i, j) sits at ab[bw + i - j, j], so row bw - k holds diagonal k.
    """
    bw = len(ab) // 2
    n = ab.shape[1]
    return sum(np.diag(ab[bw - k, max(k, 0) : n + min(k, 0)], k) for k in range(-bw, bw + 1))
