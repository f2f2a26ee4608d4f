import math
import tracemalloc

import numpy as np
import pytest

from lattice_vortex import chern_simons
from lattice_vortex.calculus import from_interior
from lattice_vortex.chern_simons import (
    ModelParams, VortexConfig, jacobian, newton_solve, nonlinearity_derivative, residual, solve_domain,
    source_h,
)
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.linsolve import ShiftedLaplacianSystem

from brute import naive_interior_matrix
from helpers import banded_to_dense, jacobian_fd_check, lq_norm, scheme_step, zeros

RNG = np.random.default_rng(41)


def single_vortex(n=2):
    return VortexConfig(((tuple(0 for _ in range(n)), 1),))


def test_newton_trivial_problem():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    u = newton_solve(dom, VortexConfig(()), params)
    assert not u.values.any()


def test_newton_residual_tolerance():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0)
    u = newton_solve(dom, single_vortex(), params)
    h = source_h(dom, single_vortex())
    assert lq_norm(residual(u, h, params), math.inf) < 1e-12
    assert np.all(u.values <= 0.0)


@pytest.mark.parametrize("p,lam", [(0, 1.0), (1, 0.7), (2, 2.0)])
def test_newton_agrees_with_monotone_scheme(p, lam):
    dom = make_box(2, 3)
    params = ModelParams(lam=lam, p=p, tol_nonlinear=1e-12, tol_residual=1e-10)
    u_scheme, _ = solve_domain(dom, single_vortex(), params)
    u_newton = newton_solve(dom, single_vortex(), params)
    assert np.abs(u_scheme.values - u_newton.values).max() < 1e-7


def test_newton_solution_is_fixed_point_of_scheme_step():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=1)
    u = newton_solve(dom, single_vortex(), params)
    system = ShiftedLaplacianSystem(dom, params.shift)
    h = source_h(dom, single_vortex())
    stepped = scheme_step(u, h, params, system)
    assert np.abs(stepped.values - u.values).max() <= 10 * params.tol_nonlinear


def test_newton_guards():
    # A 2 x 5,000 strip ordered along its long side has bw 5,000: its LU
    # array would take 1.2 GB. The refusal comes before any allocation
    # near that size.
    strip = LatticeDomain(2, [(x, y) for x in (0, 1) for y in range(5000)])
    lu_bytes = (3 * 5000 + 1) * strip.n_interior * 8
    params = ModelParams(lam=1.0, p=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{lu_bytes} bytes"):
            newton_solve(strip, VortexConfig(()), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class _ReachedJacobian(Exception):
    pass


@pytest.mark.parametrize(
    "dom",
    [make_box(2, hw) for hw in range(2, 7)] + [make_box(3, hw) for hw in (1, 2, 5, 10)] + [make_box(4, 4)],
    ids=lambda dom: f"{dom.dimension}d-{dom.n_interior}",
)
def test_newton_admits_every_domain_it_solves(dom, monkeypatch):
    # The 2D boxes of half-width 2-6 and the 3D boxes of half-width 1, 2
    # and 5 are those the tests and `verify` solve by Newton; the 21^3 cube
    # and 4D hw 4 are the largest 3D and 4D boxes of up to 10,000 sites.
    def reached(u, params):
        raise _ReachedJacobian

    monkeypatch.setattr(chern_simons, "jacobian", reached)
    with pytest.raises(_ReachedJacobian):
        newton_solve(dom, single_vortex(dom.dimension), ModelParams(lam=1.0, p=1))


def test_jacobian_at_zero_matches_linear_part():
    # With p >= 1 the nonlinear diagonal vanishes at u = 0; with p = 0 it
    # contributes exactly lam.
    dom = make_box(2, 2)
    vort = single_vortex()
    u0 = zeros(dom)
    for p in (0, 1, 2):
        params = ModelParams(lam=1.3, p=p)
        assert jacobian_fd_check(dom, vort, params, u0) < 1e-8
    lap = -naive_interior_matrix(dom, 0.0).toarray()

    assert nonlinearity_derivative(0.0, ModelParams(lam=1.3, p=0)) == pytest.approx(1.3)
    assert nonlinearity_derivative(0.0, ModelParams(lam=1.3, p=1)) == 0.0
    assert lap[0, 0] == -4.0


@pytest.mark.parametrize("dom", [make_box(3, 1), make_ball(2, 3)], ids=["box-3d", "ball-2d"])
def test_jacobian_band_holds_laplacian_minus_derivative(dom):
    params = ModelParams(lam=0.9, p=1)
    u = from_interior(dom, -RNG.uniform(0.0, 2.0, dom.n_interior))
    jac = jacobian(u, params)
    want = -naive_interior_matrix(dom, 0.0).toarray() - np.diag(nonlinearity_derivative(u.interior, params))
    np.testing.assert_array_equal(banded_to_dense(jac), want)


def test_newton_converges_where_minus_jacobian_is_indefinite():
    # At lam = 30 and multiplicity 4, -J is indefinite at one Newton
    # iterate, so a Cholesky factor of -J would fail there; LU carries on.
    dom = make_box(2, 3)
    vortices = VortexConfig((((0, 0), 4),))
    params = ModelParams(lam=30.0, p=0, tol_nonlinear=1e-12, tol_residual=1e-10)
    u_newton = newton_solve(dom, vortices, params)
    u_scheme, _ = solve_domain(dom, vortices, params)
    assert np.abs(u_scheme.values - u_newton.values).max() < 1e-7


def test_newton_step_holds_one_lu_sized_array():
    # dgbsv factors in place the (3 bw + 1)-row array that `jacobian`
    # fills, so a step holds one LU-sized array and the upper band it was
    # filled from (1.4 LU sizes). solve_banded built a C-order LU array
    # beside the Jacobian and f2py made a Fortran-order copy of it (2.7).
    dom = make_box(3, 5)
    bw = (2 * 5 + 1) ** 2
    lu_bytes = (3 * bw + 1) * dom.n_interior * 8
    params = ModelParams(lam=1.0, p=1)
    newton_solve(dom, single_vortex(3), params)  # imports LAPACK before tracing
    tracemalloc.start()
    try:
        newton_solve(dom, single_vortex(3), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lu_bytes < peak < 2 * lu_bytes


@pytest.mark.parametrize("p", [0, 1, 2])
def test_jacobian_fd_random_states(p):
    dom = make_box(2, 2)
    vort = single_vortex()
    params = ModelParams(lam=1.1, p=p)
    for _ in range(5):
        u = from_interior(dom, -RNG.uniform(0.0, 2.0, dom.n_interior))
        assert jacobian_fd_check(dom, vort, params, u, step=1e-6) < 1e-6


def test_jacobian_fd_quadratic_step_convergence():
    dom = make_box(2, 2)
    vort = single_vortex()
    params = ModelParams(lam=1.3, p=1)
    u = from_interior(dom, -RNG.uniform(0.0, 2.0, dom.n_interior))
    errors = [jacobian_fd_check(dom, vort, params, u, step=s) for s in (1e-3, 5e-4, 2.5e-4)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for order in orders:
        assert 1.7 < order < 2.3
