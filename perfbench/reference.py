"""Independent reference for solutions written on a box.

Rebuilds the zero-boundary problem on a dense grid (Kronecker-sum
Laplacian, its own nonlinearity) without importing lattice_vortex, and
runs Newton from the written solution. The distance between the two is
the solution's error. Runs outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-11
MAX_STEPS = 6


class ReferenceFailure(RuntimeError):
    pass


def grid_laplacian(dimension: int, half_width: int) -> sp.csr_matrix:
    """Interior graph Laplacian of a box with zero boundary values."""
    m = 2 * half_width + 1
    second = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])
    eye = sp.identity(m)
    total = None
    for axis in range(dimension):
        term = second if axis == 0 else eye
        for other in range(1, dimension):
            term = sp.kron(term, second if other == axis else eye)
        total = term if total is None else total + term
    return total.tocsr()


def read_box_solution(path, dimension: int, half_width: int, center) -> np.ndarray:
    """Interior values in grid order; the boundary must be exactly zero."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    offsets = data[:, :dimension].astype(np.int64) - np.asarray(center, dtype=np.int64) + half_width
    values = data[:, dimension]
    m = 2 * half_width + 1
    inside = np.all((offsets >= 0) & (offsets < m), axis=1)
    if np.any(values[~inside] != 0.0):
        raise ReferenceFailure("solution is not zero on the boundary")
    if inside.sum() != m**dimension:
        raise ReferenceFailure(f"expected {m**dimension} interior rows, read {inside.sum()}")
    u = np.empty(m**dimension)
    u[np.ravel_multi_index(tuple(offsets[inside].T), (m,) * dimension)] = values[inside]
    return u


def sup_error(path, config: dict, box) -> float:
    """Sup-norm distance from the written solution to the Newton reference."""
    dimension, half_width, center = box
    lam, p = float(config["lambda"]), int(config.get("p", 0))
    u_written = read_box_solution(path, dimension, half_width, center)
    lap = grid_laplacian(dimension, half_width)
    m = 2 * half_width + 1
    h = np.zeros(m**dimension)
    for vortex in config["vortices"]:
        offset = np.asarray(vortex["point"]) - np.asarray(center) + half_width
        h[np.ravel_multi_index(tuple(offset), (m,) * dimension)] += 4.0 * math.pi * vortex["multiplicity"]
    u = u_written.copy()
    for _ in range(MAX_STEPS):
        eu, em1 = np.exp(u), np.expm1(u)
        even = em1 ** (2 * p)
        f = lap @ u - lam * eu * even * em1 - h
        if float(np.abs(f).max()) < RESIDUAL_TOL:
            return float(np.abs(u - u_written).max())
        jac = lap - sp.diags(lam * eu * even * ((2 * p + 2) * eu - 1.0))
        u = u + spla.splu(jac.tocsc()).solve(-f)
    raise ReferenceFailure(f"Newton residual above {RESIDUAL_TOL:g} after {MAX_STEPS} steps")
