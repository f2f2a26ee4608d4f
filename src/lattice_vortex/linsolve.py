"""Zero-boundary solves for the shift-damped lattice Laplacian.

The operator is assembled once per domain and shift as a sparse symmetric
positive definite matrix over interior sites; the boundary is eliminated
by the index ordering. Two backends share one contract: a cached sparse
LU factorization, the reference backend, and preconditioned conjugate
gradients, the default. When the interior fills an axis-aligned box, the
CG preconditioner is the exact inverse by fast diagonalization (Lynch,
Rice & Thomas, Numer. Math. 6, 1964), so a solve takes one iteration;
on any other interior it is the Jacobi diagonal.

Every solve is certified against one sparse product A x, which
`solve_interior` returns in `LinearSolveInfo.product`. A caller that
solves again from that x passes the product back as `ax0`, so CG starts
from b - A x0 without forming A x0 a second time.

Note that solutions do not restrict across nested domains: each domain
re-pins its own boundary to zero, so the same right-hand side solved on a
larger domain gives different interior values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import LatticeDomain

__all__ = [
    "LinearSolveFailure",
    "LinearSolveInfo",
    "ShiftedLaplacianSystem",
    "interior_laplacian",
    "assemble",
    "solve_interior",
    "matrix_to_coo_text",
]

DEFAULT_TOL_LINEAR = 1e-12

# The exact box preconditioner costs O(n * sum of sides) per apply and one
# dense side x side matrix per axis; a Jacobi-CG iteration costs O(n). In
# p=0 solves (BLAS at one thread) the box inverse was faster on every box
# with longest side up to 385 for squares and 257 for 5-wide strips, and
# slower on 385x5, 513x5 and 1025x5 strips; longer boxes keep Jacobi.
_BOX_MAX_SIDE = 320


class LinearSolveFailure(RuntimeError):
    """Raised when a backend cannot meet the requested residual."""

    kind = "linear_solve"

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (attained residual {residual:.3e})")
        self.residual = residual


@dataclass
class LinearSolveInfo:
    iterations: int
    residual_inf: float
    # A @ x, the product the residual was certified against.
    product: np.ndarray = field(repr=False)


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
        self._preconditioner = None

    def lu(self):
        # The matrix is symmetric, so a minimum-degree ordering of A^T + A
        # keeps about half the fill of the default COLAMD column ordering.
        if self._lu is None:
            self._lu = spla.splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return self._lu

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The CG preconditioner applied to r: exact on a full box, Jacobi otherwise."""
        if self._preconditioner is None:
            self._preconditioner = _box_inverse(self.domain, self.shift)
            if self._preconditioner is None:
                diag_inv = 1.0 / self.matrix.diagonal()
                self._preconditioner = lambda v: diag_inv * v
        return self._preconditioner(r)

    @property
    def size(self) -> int:
        return self.domain.n_interior


def assemble(domain: LatticeDomain, shift: float) -> ShiftedLaplacianSystem:
    """Build the interior system for the damped operator with the given positive shift."""
    # Written so that NaN fails too; an infinite shift has no system.
    if not 0 < shift < math.inf:
        raise ValueError(f"shift must be positive and finite, got {shift!r}")
    n_int = domain.n_interior
    matrix = sp.diags(np.full(n_int, float(shift)), format="csr") - interior_laplacian(domain)
    return ShiftedLaplacianSystem(domain, float(shift), matrix.tocsr())


def _box_inverse(domain: LatticeDomain, shift: float):
    """The exact inverse of shift*I - Laplacian on a full-box interior, else None.

    The interior is a full axis-aligned box exactly when its size equals the
    product of its coordinate extents. Interior sites are sorted
    lexicographically, so the interior vector is that grid in C order. The
    orthonormal, symmetric sine matrix of each axis diagonalizes the 1D
    Dirichlet Laplacian, so the operator's inverse is S (1/Lambda) S with
    S the tensor product of the axis sine matrices.
    """
    coords = domain.coords[: domain.n_interior]
    shape = [int(m) for m in coords.max(axis=0) - coords.min(axis=0) + 1]
    if math.prod(shape) != domain.n_interior or max(shape) > _BOX_MAX_SIDE:
        return None
    sines = []
    eig = np.float64(shift)
    for m in shape:
        k = np.arange(1, m + 1)
        sines.append(math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1)))
        eig = np.add.outer(eig, 2.0 - 2.0 * np.cos(np.pi * k / (m + 1)))
    eig_inv = 1.0 / eig.ravel()

    def transform(x):
        # Each matmul applies one axis's sine matrix to the leading axis and
        # rotates it to the back; after one pass per axis the order is restored.
        for s in sines:
            x = x.reshape(len(s), -1).T @ s
        return x.reshape(-1)

    return lambda r: transform(eig_inv * transform(r))


def _pcg(system, x, r, tol_abs, max_iterations):
    """Preconditioned conjugate gradients with an infinity-norm stop.

    Updates x and its residual r = b - A x in place.
    """
    matrix = system.matrix
    iterations = 0
    if np.abs(r).max() <= tol_abs:
        return iterations
    p = z = system.precondition(r)
    rz = float(r @ z)
    for iterations in range(1, max_iterations + 1):
        mp = matrix @ p
        alpha = rz / float(p @ mp)
        x += alpha * p
        r -= alpha * mp
        if np.abs(r).max() <= tol_abs:
            break
        z = system.precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return iterations


def solve_interior(
    system: ShiftedLaplacianSystem,
    f,
    *,
    backend: str = "cg",
    tol: float = DEFAULT_TOL_LINEAR,
    max_iterations: int | None = None,
    x0=None,
    ax0=None,
):
    """Solve (Laplacian - shift) w = f over interior values.

    Returns the interior solution array and solve statistics. The residual
    is certified in the infinity norm against tol * (1 + |f|_inf) for
    either backend; a miss raises LinearSolveFailure, as does a right-hand
    side or an attained residual that is not finite; its `residual` is
    then not finite either. `info.product` is the
    certifying product A w of the assembled matrix A = shift*I - Laplacian.
    `ax0`, when given, must be A @ x0, typically the product of the solve
    that returned x0; CG then starts without multiplying by A.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (system.size,):
        raise ValueError(f"rhs length {f.shape} does not match system size {system.size}")
    # The assembled matrix is -(Laplacian - shift), which is SPD.
    b = -f
    b_max = float(np.abs(b).max())
    # NaN and inf both propagate through max; a non-finite rhs has no
    # solution to certify, so no backend runs on it.
    if not math.isfinite(b_max):
        raise LinearSolveFailure(f"non-finite right-hand side (|f|_inf = {b_max})", math.nan)
    tol_abs = tol * (1.0 + b_max)
    if backend == "direct":
        x = system.lu().solve(b)
        iterations = 1
        ax = system.matrix @ x
        attained = float(np.abs(b - ax).max())
    elif backend == "cg":
        limit = max_iterations if max_iterations is not None else 10 * system.size
        # Target a quarter of the budget internally: the recurrence residual
        # drifts from the true one near convergence. Restart from the true
        # residual if certification still misses.
        if x0 is None:
            x = np.zeros_like(b)
            r = b.copy()
        else:
            x = np.array(x0, dtype=np.float64)
            r = b - (system.matrix @ x if ax0 is None else ax0)
        iterations = 0
        for _ in range(3):
            iterations += _pcg(system, x, r, 0.25 * tol_abs, max(limit - iterations, 0))
            ax = system.matrix @ x
            r = b - ax
            attained = float(np.abs(r).max())
            if attained <= tol_abs or iterations >= limit:
                break
    else:
        raise ValueError(f"unknown backend {backend!r}")
    # Written so that a NaN residual fails too.
    if not attained <= tol_abs:
        raise LinearSolveFailure(f"{backend} backend missed tolerance {tol_abs:.3e}", attained)
    return x, LinearSolveInfo(iterations, attained, ax)


def matrix_to_coo_text(system: ShiftedLaplacianSystem) -> str:
    """Coordinate dump, one '<row> <col> <value>' line per entry, zero-based."""
    coo = system.matrix.tocoo()
    lines = [
        f"{i} {j} {format(v, '.17g')}" for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    return "\n".join(lines) + "\n"
