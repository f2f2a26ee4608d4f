import math

import numpy as np
import pytest

from lattice_vortex.calculus import constant, from_interior, lq_norm, zeros
from lattice_vortex.chern_simons import ModelParams, VortexConfig, residual, solve_domain, source_h
from lattice_vortex.lattice import make_box
from lattice_vortex.linsolve import interior_laplacian
from lattice_vortex.oracle import jacobian_fd_check, newton_solve

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
    params = ModelParams(lam=1.0, p=0, shift=4.1)
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
    from lattice_vortex.chern_simons import iterate_step
    from lattice_vortex.linsolve import assemble

    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=1)
    u = newton_solve(dom, single_vortex(), params)
    system = assemble(dom, params.shift)
    h = source_h(dom, single_vortex())
    stepped = iterate_step(u, h, params, system)
    assert np.abs(stepped.values - u.values).max() <= 10 * params.tol_nonlinear


def test_newton_warm_start_from_first_iterate():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    cold = newton_solve(dom, single_vortex(), params)
    start = from_interior(dom, np.full(dom.n_interior, -0.5))
    warm = newton_solve(dom, single_vortex(), params, u_init=start)
    assert np.abs(cold.values - warm.values).max() < 1e-10


def test_newton_guards():
    params = ModelParams(lam=1.0, p=0)
    big = make_box(2, 55)  # 111^2 > 10000 interior sites
    with pytest.raises(ValueError):
        newton_solve(big, VortexConfig(()), params)
    dom = make_box(2, 2)
    other = make_box(2, 2)
    with pytest.raises(ValueError):
        newton_solve(dom, VortexConfig(()), params, u_init=zeros(other))
    # The start rule of the monotone scheme: non-positive, zero boundary.
    with pytest.raises(ValueError, match="non-positive"):
        newton_solve(dom, VortexConfig(()), params, u_init=from_interior(dom, np.ones(dom.n_interior)))
    with pytest.raises(ValueError, match="boundary"):
        newton_solve(dom, VortexConfig(()), params, u_init=constant(dom, -1.0))


def test_jacobian_at_zero_matches_linear_part():
    # With p >= 1 the nonlinear diagonal vanishes at u = 0; with p = 0 it
    # contributes exactly lam.
    dom = make_box(2, 2)
    vort = single_vortex()
    u0 = zeros(dom)
    for p in (0, 1, 2):
        params = ModelParams(lam=1.3, p=p)
        assert jacobian_fd_check(dom, vort, params, u0) < 1e-8
    lap = interior_laplacian(dom).toarray()
    from lattice_vortex.chern_simons import nonlinearity_derivative

    assert nonlinearity_derivative(0.0, ModelParams(lam=1.3, p=0)) == pytest.approx(1.3)
    assert nonlinearity_derivative(0.0, ModelParams(lam=1.3, p=1)) == 0.0
    assert lap[0, 0] == -4.0


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
