"""Zero-boundary solves for the shift-damped lattice Laplacian.

The operator is assembled once per domain and shift as a sparse symmetric
positive definite matrix over interior sites; the boundary is eliminated
by the index ordering. Two backends share one contract: a cached sparse
LU factorization for reference-grade accuracy, and Jacobi-preconditioned
conjugate gradients for the matrix-friendly default.

Note that solutions do not restrict across nested domains: each domain
re-pins its own boundary to zero, so the same right-hand side solved on a
larger domain gives different interior values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import LatticeField, from_interior
from .lattice import LatticeDomain

__all__ = [
    "LinearSolveFailure",
    "LinearSolveInfo",
    "ShiftedLaplacianSystem",
    "interior_laplacian",
    "assemble",
    "solve",
    "solve_interior",
    "matrix_to_coo_text",
]

DEFAULT_TOL_LINEAR = 1e-12


class LinearSolveFailure(RuntimeError):
    """Raised when a backend cannot meet the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (attained residual {residual:.3e})")
        self.residual = residual


@dataclass
class LinearSolveInfo:
    backend: str
    iterations: int
    residual_inf: float


def interior_laplacian(domain: LatticeDomain) -> sp.csr_matrix:
    """Matrix of the graph Laplacian on interior sites with zero boundary data.

    Row for site x: diagonal -2n, +1 for every interior neighbor; boundary
    neighbors contribute nothing because their values are pinned to zero.
    """
    n_int = domain.n_interior
    nbr = domain.interior_neighbors
    keep = nbr < n_int
    rows = np.repeat(np.arange(n_int), keep.sum(axis=1))
    cols = nbr[keep]
    off = sp.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(n_int, n_int))
    diag = sp.diags(np.full(n_int, -2.0 * domain.dimension), format="csr")
    return (off + diag).tocsr()


class ShiftedLaplacianSystem:
    """Sparse form of shift*I - Laplacian on interior sites (SPD for shift > 0)."""

    def __init__(self, domain: LatticeDomain, shift: float, matrix: sp.csr_matrix):
        self.domain = domain
        self.shift = shift
        self.matrix = matrix
        self._lu = None
        self._diag_inv = None

    def lu(self):
        # The matrix is symmetric, so a minimum-degree ordering of A^T + A
        # keeps about half the fill of the default COLAMD column ordering.
        if self._lu is None:
            self._lu = spla.splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return self._lu

    def diag_inv(self) -> np.ndarray:
        """Inverse diagonal, the Jacobi preconditioner of the CG backend."""
        if self._diag_inv is None:
            self._diag_inv = 1.0 / self.matrix.diagonal()
        return self._diag_inv

    @property
    def size(self) -> int:
        return self.domain.n_interior


def assemble(domain: LatticeDomain, shift: float) -> ShiftedLaplacianSystem:
    """Build the interior system for the damped operator with the given positive shift."""
    if shift <= 0:
        raise ValueError("shift must be positive")
    n_int = domain.n_interior
    matrix = sp.diags(np.full(n_int, float(shift)), format="csr") - interior_laplacian(domain)
    return ShiftedLaplacianSystem(domain, float(shift), matrix.tocsr())


def _pcg(system, b, x0, tol_abs, max_iterations):
    """Jacobi-preconditioned conjugate gradients with an infinity-norm stop."""
    matrix = system.matrix
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matrix @ x
    iterations = 0
    if np.abs(r).max() <= tol_abs:
        return x, iterations
    diag_inv = system.diag_inv()
    z = diag_inv * r
    p = z.copy()
    rz = float(r @ z)
    for iterations in range(1, max_iterations + 1):
        mp = matrix @ p
        alpha = rz / float(p @ mp)
        x += alpha * p
        r -= alpha * mp
        if np.abs(r).max() <= tol_abs:
            break
        z = diag_inv * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, iterations


def solve_interior(
    system: ShiftedLaplacianSystem,
    f,
    *,
    backend: str = "cg",
    tol: float = DEFAULT_TOL_LINEAR,
    max_iterations: int | None = None,
    x0=None,
):
    """Solve (Laplacian - shift) w = f over interior values.

    Returns the interior solution array and solve statistics. The residual
    is certified in the infinity norm against tol * (1 + |f|_inf) for
    either backend; a miss raises LinearSolveFailure.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (system.size,):
        raise ValueError(f"rhs length {f.shape} does not match system size {system.size}")
    # The assembled matrix is -(Laplacian - shift), which is SPD.
    b = -f
    tol_abs = tol * (1.0 + float(np.abs(b).max()))
    if backend == "direct":
        x = system.lu().solve(b)
        iterations = 1
    elif backend == "cg":
        limit = max_iterations if max_iterations is not None else 10 * system.size
        # Target a quarter of the budget internally: the recurrence residual
        # drifts from the true one near convergence. Restart from the true
        # residual if certification still misses.
        x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64)
        iterations = 0
        for _ in range(3):
            x, done = _pcg(system, b, x, 0.25 * tol_abs, max(limit - iterations, 0))
            iterations += done
            if float(np.abs(b - system.matrix @ x).max()) <= tol_abs or iterations >= limit:
                break
    else:
        raise ValueError(f"unknown backend {backend!r}")
    attained = float(np.abs(b - system.matrix @ x).max())
    if attained > tol_abs:
        raise LinearSolveFailure(f"{backend} backend missed tolerance {tol_abs:.3e}", attained)
    return x, LinearSolveInfo(backend, iterations, attained)


def solve(
    system: ShiftedLaplacianSystem,
    rhs: LatticeField,
    *,
    backend: str = "cg",
    tol: float = DEFAULT_TOL_LINEAR,
    max_iterations: int | None = None,
) -> LatticeField:
    """Field-level wrapper around solve_interior; boundary values of rhs are ignored."""
    if rhs.domain is not system.domain:
        raise ValueError("rhs field lives on a different domain")
    w, _ = solve_interior(
        system, rhs.interior, backend=backend, tol=tol, max_iterations=max_iterations
    )
    return from_interior(system.domain, w)


def matrix_to_coo_text(system: ShiftedLaplacianSystem) -> str:
    """Coordinate dump, one '<row> <col> <value>' line per entry, zero-based."""
    coo = system.matrix.tocoo()
    lines = [
        f"{i} {j} {format(v, '.17g')}" for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    return "\n".join(lines) + "\n"
