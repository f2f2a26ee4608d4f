"""Damped-Newton reference solver for small instances.

Independent of the monotone scheme: it attacks the full nonlinear system
directly and is used to certify fixed points and to generate expected
values for tests. Dense-friendly sizes only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import LatticeField, from_interior
from .chern_simons import (
    ModelParams, VortexConfig, _start_interior, nonlinearity, nonlinearity_derivative, source_h
)
from .lattice import LatticeDomain
from .linsolve import interior_laplacian

__all__ = ["NewtonFailure", "newton_solve", "jacobian_fd_check"]

MAX_ORACLE_SIZE = 10_000
MIN_STEP = 2.0**-30


class NewtonFailure(RuntimeError):
    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


def _system(domain: LatticeDomain, vortices: VortexConfig):
    """The interior source values and the interior Laplacian matrix."""
    return source_h(domain, vortices).interior.copy(), interior_laplacian(domain)


def _nonlinear_residual(u_int, lap, h_int, params):
    return lap @ u_int - nonlinearity(u_int, params) - h_int


def _jacobian(u_int, lap, params):
    """Jacobian of the residual: the Laplacian minus diag(N'(u))."""
    return lap - sp.diags(nonlinearity_derivative(u_int, params))


def newton_solve(
    domain: LatticeDomain,
    vortices: VortexConfig,
    params: ModelParams,
    u_init: LatticeField | None = None,
    *,
    tol: float = 1e-12,
    max_iterations: int = 50,
) -> LatticeField:
    """Solve the zero-boundary vortex equation by damped Newton iteration.

    Steps solve the sparse Jacobian system (Laplacian stencil minus the
    diagonal nonlinearity derivative); a backtracking line search halves
    the step while the Euclidean residual fails to decrease. Plain Newton
    can overshoot into positive u where the nonlinearity grows violently,
    hence the damping.
    """
    if domain.n_interior > MAX_ORACLE_SIZE:
        raise ValueError(f"oracle limited to {MAX_ORACLE_SIZE} interior points")
    h_int, lap = _system(domain, vortices)
    u = np.zeros(domain.n_interior) if u_init is None else _start_interior(u_init, domain, "u_init")
    f_val = _nonlinear_residual(u, lap, h_int, params)
    for _ in range(max_iterations):
        if float(np.abs(f_val).max()) < tol:
            return from_interior(domain, u)
        jac = _jacobian(u, lap, params)
        try:
            step = spla.splu(jac.tocsc()).solve(-f_val)
        except RuntimeError as exc:
            raise NewtonFailure(f"singular Jacobian: {exc}", from_interior(domain, u))
        norm_old = float(np.linalg.norm(f_val))
        t = 1.0
        while t >= MIN_STEP:
            trial = u + t * step
            f_trial = _nonlinear_residual(trial, lap, h_int, params)
            if float(np.linalg.norm(f_trial)) < norm_old:
                u = trial
                f_val = f_trial
                break
            t *= 0.5
        else:
            raise NewtonFailure("line search exhausted", from_interior(domain, u))
    if float(np.abs(f_val).max()) < tol:
        return from_interior(domain, u)
    raise NewtonFailure(
        f"no convergence in {max_iterations} iterations "
        f"(residual {float(np.abs(f_val).max()):.3e})",
        from_interior(domain, u),
    )


def jacobian_fd_check(
    domain: LatticeDomain,
    vortices: VortexConfig,
    params: ModelParams,
    u: LatticeField,
    *,
    step: float = 1e-6,
) -> float:
    """Largest scaled entry error of the analytic Jacobian vs central differences.

    Each column j is probed with u +- step*e_j; the error is scaled by
    1 + |entry| so exact zeros are compared absolutely.
    """
    h_int, lap = _system(domain, vortices)
    n = domain.n_interior
    u_int = u.interior.copy()
    analytic = _jacobian(u_int, lap, params).toarray()
    fd = np.empty((n, n))
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = step
        f_plus = _nonlinear_residual(u_int + bump, lap, h_int, params)
        f_minus = _nonlinear_residual(u_int - bump, lap, h_int, params)
        fd[:, j] = (f_plus - f_minus) / (2.0 * step)
    return float((np.abs(analytic - fd) / (1.0 + np.abs(analytic))).max())
