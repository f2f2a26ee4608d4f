"""Naive dict-and-loop reference computations used as test oracles.

These deliberately avoid the library's precomputed index arrays; every
sum is spelled out from the definitions so they stay independent of the
code paths they check.
"""

import numpy as np

from lattice_vortex.lattice import neighbors


def naive_boundary(interior_points):
    """Boundary by definition: exterior points adjacent to the interior."""
    interior = {tuple(p) for p in interior_points}
    out = set()
    for x in interior:
        for y in neighbors(x):
            if y not in interior:
                out.add(y)
    return out


def naive_dirichlet_energy(u):
    dom = u.domain
    total = 0.0
    seen = set()
    for x in dom.closure:
        for y in neighbors(x):
            if y in dom.index_of and (y, x) not in seen:
                seen.add((x, y))
                total += (u.value_at(y) - u.value_at(x)) ** 2
    return total


def naive_bilinear_energy(u, v):
    dom = u.domain
    total = 0.0
    seen = set()
    for x in dom.closure:
        for y in neighbors(x):
            if y in dom.index_of and (y, x) not in seen:
                seen.add((x, y))
                total += (u.value_at(y) - u.value_at(x)) * (v.value_at(y) - v.value_at(x))
    return total


def naive_seminorm_q(u, q):
    """Ordered-pair difference sum of the zero-extended field, by definition."""
    dom = u.domain
    total = 0.0
    for x in dom.closure:
        ux = u.value_at(x)
        for y in neighbors(x):
            uy = u.value_at(y) if y in dom.index_of else 0.0
            total += abs(uy - ux) ** q
            if y not in dom.index_of:
                # the reversed pair, ordered from the exterior point
                total += abs(ux) ** q
    return total ** (1.0 / q)


def naive_laplacian(u, x):
    return sum(u.value_at(y) - u.value_at(x) for y in neighbors(tuple(x)))


def naive_domain_arrays(dimension, interior_points):
    """Every derived structure of LatticeDomain, built site by site from the definitions."""
    points = {tuple(int(c) for c in p) for p in interior_points}
    interior = tuple(sorted(points))
    boundary = tuple(sorted({y for x in points for y in neighbors(x) if y not in points}))
    closure = interior + boundary
    index_of = {p: i for i, p in enumerate(closure)}
    two_n = 2 * dimension
    indptr = [0]
    indices = []
    outside = np.zeros(len(closure), dtype=np.int64)
    for i, pt in enumerate(closure):
        row = [index_of[y] for y in neighbors(pt) if y in index_of]
        outside[i] = two_n - len(row)
        indices.extend(row)
        indptr.append(len(indices))
    adj_indptr = np.asarray(indptr, dtype=np.int64)
    adj_indices = np.asarray(indices, dtype=np.int64)
    src = np.repeat(np.arange(len(closure)), np.diff(adj_indptr))
    keep = adj_indices > src
    return {
        "interior": interior,
        "boundary": boundary,
        "closure": closure,
        "index_of": index_of,
        "coords": np.array(closure, dtype=np.int64),
        "adj_indptr": adj_indptr,
        "adj_indices": adj_indices,
        "outside_degree": outside,
        "interior_neighbors": adj_indices[: adj_indptr[len(interior)]].reshape(-1, two_n),
        "edges": np.column_stack([src[keep], adj_indices[keep]]),
    }


def naive_green_identity_defect(u, v, laplacian_fn=naive_laplacian):
    """Summation-by-parts defect point by point: `laplacian_fn(u, x)` at each interior x.

    The gradient form at a closure point halves the sum of difference
    products over its neighbors inside the closure.
    """
    dom = u.domain
    lhs = 0.0
    for x in dom.closure:
        lhs += 0.5 * sum(
            (u.value_at(y) - u.value_at(x)) * (v.value_at(y) - v.value_at(x))
            for y in neighbors(x)
            if y in dom.index_of
        )
    rhs = 0.0
    for x in dom.interior:
        rhs += laplacian_fn(u, x) * v.value_at(x)
    return abs(lhs + rhs)


def naive_is_nested(inner, outer):
    """Every interior point of `inner` is interior to `outer`, by set membership."""
    if inner.dimension != outer.dimension:
        raise ValueError("dimension mismatch between domains")
    outer_set = set(outer.interior)
    return all(p in outer_set for p in inner.interior)


def naive_nested_index(inner, outer):
    """Closure index in `outer` of each closure point of `inner`, looked up point by point."""
    if not naive_is_nested(inner, outer):
        raise ValueError("inner domain is not nested in the outer domain")
    return np.array([outer.index_of[p] for p in inner.closure], dtype=np.int64)


def naive_null_extend(u, larger):
    """Zero extension of u into `larger`, site by site."""
    if not naive_is_nested(u.domain, larger):
        raise ValueError("field's domain is not nested in the target domain")
    vals = np.zeros(larger.n_closure)
    for point, value in zip(u.domain.interior, u.interior):
        vals[larger.index_of[point]] = value
    return vals


def naive_restrict_field(u, smaller):
    """Values of u at the closure points of `smaller`, site by site."""
    if not naive_is_nested(smaller, u.domain):
        raise ValueError("target domain is not nested in the field's domain")
    return np.array([u.values[u.domain.index_of[p]] for p in smaller.closure])
