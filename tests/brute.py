"""Naive dict-and-loop reference computations used as test oracles.

These deliberately avoid the library's precomputed index arrays; every
sum is spelled out from the definitions so they stay independent of the
code paths they check.
"""

import numpy as np


def neighbors(x):
    """The 2n points one unit step from x: x + e_1, x - e_1, x + e_2, ..."""
    out = []
    for i in range(len(x)):
        out.append(x[:i] + (x[i] + 1,) + x[i + 1 :])
        out.append(x[:i] + (x[i] - 1,) + x[i + 1 :])
    return out


def naive_boundary(interior_points):
    """Boundary by definition: exterior points adjacent to the interior."""
    interior = {tuple(p) for p in interior_points}
    out = set()
    for x in interior:
        for y in neighbors(x):
            if y not in interior:
                out.add(y)
    return out


def closure_index(dom):
    """The reference's own point -> closure index dict, read from the site table."""
    return {tuple(p): i for i, p in enumerate(dom.coords.tolist())}


def naive_dirichlet_energy(u):
    return naive_bilinear_energy(u, u)


def naive_bilinear_energy(u, v):
    index_of = closure_index(u.domain)
    total = 0.0
    seen = set()
    for x, i in index_of.items():
        for y in neighbors(x):
            if y in index_of and (y, x) not in seen:
                seen.add((x, y))
                j = index_of[y]
                total += (u.values[j] - u.values[i]) * (v.values[j] - v.values[i])
    return total


def naive_seminorm_q(u, q):
    """Ordered-pair difference sum of the zero-extended field, by definition."""
    index_of = closure_index(u.domain)
    total = 0.0
    for x, i in index_of.items():
        ux = u.values[i]
        for y in neighbors(x):
            uy = u.values[index_of[y]] if y in index_of else 0.0
            total += abs(uy - ux) ** q
            if y not in index_of:
                # the reversed pair, ordered from the exterior point
                total += abs(ux) ** q
    return total ** (1.0 / q)


def naive_laplacian(u, x):
    index_of = closure_index(u.domain)
    ux = u.values[index_of[tuple(x)]]
    return sum(u.values[index_of[y]] - ux for y in neighbors(tuple(x)))


def naive_interior_matrix(domain, shift):
    """shift*I - Laplacian on the interior sites as a CSR matrix, built point by point.

    A row has shift + 2n on its diagonal and -1 at each interior neighbor;
    boundary neighbors are pinned to zero and drop out. Each row's columns
    are sorted, so a product sums a row in ascending column order.
    """
    import scipy.sparse as sp

    n_int = domain.n_interior
    index_of = closure_index(domain)
    rows, cols, vals = [], [], []
    for x, i in list(index_of.items())[:n_int]:
        rows.append(i)
        cols.append(i)
        vals.append(shift + 2 * domain.dimension)
        for y in neighbors(x):
            if index_of[y] < n_int:
                rows.append(i)
                cols.append(index_of[y])
                vals.append(-1.0)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_int, n_int))
    matrix.sort_indices()
    return matrix


def naive_domain_arrays(interior_points):
    """Every derived structure of LatticeDomain, built site by site from the definitions."""
    points = {tuple(int(c) for c in p) for p in interior_points}
    interior = tuple(sorted(points))
    boundary = tuple(sorted({y for x in points for y in neighbors(x) if y not in points}))
    closure = interior + boundary
    index_of = {p: i for i, p in enumerate(closure)}
    adjacency = np.array(
        [[index_of.get(y, -1) for y in neighbors(pt)] for pt in closure], dtype=np.int64
    )
    n = len(interior)
    rows = adjacency.tolist()
    edges = [(i, j) for i, row in enumerate(rows) for j in row if j > i]
    inner_edges = [(i, j) for i, j in edges if j < n]
    pairs = [(i, j) for i, row in enumerate(rows) for j in row if j >= 0]
    return {
        "n_interior": n,
        "n_closure": len(closure),
        "coords": np.array(closure, dtype=np.int64),
        "adjacency": adjacency,
        "interior_neighbors": adjacency[:n],
        "closure_edges": np.array(edges, dtype=np.int64).reshape(-1, 2),
        "interior_edges": (
            np.array(inner_edges, dtype=np.int64).reshape(-1, 2).T,
            np.array([sum(1 for j in row if j >= n) for row in rows[:n]], dtype=np.int64),
        ),
        "closure_pairs": tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T),
    }


def naive_green_identity_defect(u, v, laplacian_fn=naive_laplacian):
    """Summation-by-parts defect point by point: `laplacian_fn(u, x)` at each interior x.

    The gradient form at a closure point halves the sum of difference
    products over its neighbors inside the closure.
    """
    index_of = closure_index(u.domain)
    lhs = 0.0
    for x, i in index_of.items():
        lhs += 0.5 * sum(
            (u.values[index_of[y]] - u.values[i]) * (v.values[index_of[y]] - v.values[i])
            for y in neighbors(x)
            if y in index_of
        )
    rhs = 0.0
    for x, i in list(index_of.items())[: u.domain.n_interior]:
        rhs += laplacian_fn(u, x) * v.values[i]
    return abs(lhs + rhs)


def naive_is_nested(inner, outer):
    """Every interior point of `inner` is interior to `outer`, by set membership."""
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    outer_set = set(map(tuple, outer.coords[: outer.n_interior].tolist()))
    return all(tuple(p) in outer_set for p in inner.coords[: inner.n_interior].tolist())


def naive_nested_index(inner, outer):
    """Closure index in `outer` of each closure point of `inner`, looked up point by point."""
    if not naive_is_nested(inner, outer):
        raise ValueError("inner domain is not nested in the outer domain")
    index_of = closure_index(outer)
    return np.array([index_of[p] for p in closure_index(inner)], dtype=np.int64)


def naive_null_extend(u, larger):
    """Zero extension of u into `larger`, site by site."""
    if not naive_is_nested(u.domain, larger):
        raise ValueError("field's domain is not nested in the target domain")
    index_of = closure_index(larger)
    vals = np.zeros(larger.n_closure)
    for point, value in zip(closure_index(u.domain), u.interior):
        vals[index_of[point]] = value
    return vals


def naive_restrict_field(u, smaller):
    """Values of u at the closure points of `smaller`, site by site."""
    if not naive_is_nested(smaller, u.domain):
        raise ValueError("target domain is not nested in the field's domain")
    index_of = closure_index(u.domain)
    return np.array([u.values[index_of[p]] for p in closure_index(smaller)])
