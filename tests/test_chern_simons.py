import math

import numpy as np
import pytest
import scipy.sparse as sp

from lattice_vortex import chern_simons

from lattice_vortex.calculus import (
    _ipow,
    LatticeField,
    dirichlet_energy,
    from_interior,
    lq_norm,
    seminorm_1q,
    zeros,
)
from lattice_vortex.chern_simons import (
    ENERGY_SLACK,
    ConvergenceFailure,
    ModelParams,
    MonotonicityBreakdown,
    NonFiniteBreakdown,
    VortexConfig,
    functional_j,
    iterate_step,
    max_principle_check,
    nonlinearity,
    nonlinearity_derivative,
    residual,
    solve_domain,
    source_h,
)
from lattice_vortex.exhaustion import restrict_field
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.linsolve import LinearSolveFailure, assemble, solve_interior
from lattice_vortex.oracle import newton_solve

from helpers import verify_subsolution_dominance

RNG = np.random.default_rng(99)


def single_vortex():
    return VortexConfig((((0, 0), 1),))


def test_model_params_defaults_and_validation():
    params = ModelParams(lam=1.0, p=0)
    assert params.shift == 4.0  # twice the strict bound
    assert ModelParams(lam=0.5, p=2).shift == 2 * 6 * 0.5
    with pytest.raises(ValueError):
        ModelParams(lam=0.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, p=-1)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, p=0, shift=2.0)  # not strictly above (2p+2)*lam
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, tol_nonlinear=0.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, max_outer_iterations=0)
    # Booleans and strings are not numbers; lam=True was stored as True.
    for kwargs in (
        {"lam": True},
        {"lam": "1.0"},
        {"lam": 1.0, "p": True},
        {"lam": 1.0, "shift": "4"},
        {"lam": 1.0, "tol_linear": True},
    ):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": math.nan},
        {"lam": math.inf},
        {"lam": 1.0, "shift": math.nan},
        {"lam": 1.0, "shift": math.inf},
        {"lam": 1.0, "tol_nonlinear": math.nan},
        {"lam": 1.0, "tol_residual": math.nan},
        {"lam": 1.0, "tol_linear": math.inf},
    ],
)
def test_model_params_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("limit", [math.nan, math.inf, 2.5, True])
def test_model_params_rejects_non_integral_max_outer_iterations(limit):
    with pytest.raises(ValueError, match="max_outer_iterations must be an integer"):
        ModelParams(lam=1.0, max_outer_iterations=limit)


def test_model_params_accepts_integral_float_max_outer_iterations():
    params = ModelParams(lam=1.0, max_outer_iterations=100.0)
    assert params.max_outer_iterations == 100
    assert type(params.max_outer_iterations) is int
    # Integral floats and numpy scalars are accepted and stored as Python numbers.
    params = ModelParams(
        lam=np.float32(0.5),
        p=2.0,
        shift=np.int64(7),
        tol_linear=np.float64(1e-12),
        max_outer_iterations=np.int64(100),
    )
    assert (params.lam, params.p, params.shift, params.tol_linear) == (0.5, 2, 7.0, 1e-12)
    assert params.max_outer_iterations == 100
    assert all(type(v) is float for v in (params.lam, params.shift, params.tol_linear))
    assert type(params.p) is int and type(params.max_outer_iterations) is int


def test_vortex_config_validation():
    with pytest.raises(ValueError):
        VortexConfig((((0, 0), 0),))
    with pytest.raises(ValueError):
        VortexConfig((((0, 0), 1), ((0, 0), 2)))
    cfg = VortexConfig((((0, 0), 1), ((1, 2), 2)))
    assert cfg.total_charge == pytest.approx(12.0 * math.pi)
    assert len(VortexConfig(())) == 0


@pytest.mark.parametrize(
    "vortex",
    [
        ((0.5, 1.7), 1),  # was truncated to ((0, 1), 1)
        ((0, 0.5), 1),
        ((True, 1), 1),  # was read as ((1, 1), 1)
        ((0, False), 1),
        ((0, 0), True),
        ((0, 0), 1.5),
        ((0, float("nan")), 1),
    ],
)
def test_vortex_config_rejects_non_integral_values(vortex):
    with pytest.raises(ValueError):
        VortexConfig((vortex,))


def test_vortex_config_accepts_integral_floats():
    cfg = VortexConfig((((2.0, -1.0), 2.0), ((np.int64(3), 0), np.int32(1))))
    assert cfg.vortices == (((2, -1), 2), ((3, 0), 1))
    assert all(type(c) is int for point in cfg.points for c in point)
    assert all(type(m) is int for m in cfg.multiplicities)


def test_source_h_values_and_mass():
    dom = make_box(2, 2)
    h = source_h(dom, single_vortex())
    assert h.value_at((0, 0)) == pytest.approx(4.0 * math.pi)
    assert float(h.values.sum()) == pytest.approx(4.0 * math.pi)
    two = VortexConfig((((0, 0), 1), ((1, 1), 2)))
    h2 = source_h(dom, two)
    assert float(h2.values.sum()) == pytest.approx(12.0 * math.pi)
    empty = source_h(dom, VortexConfig(()))
    assert not empty.values.any()


def test_source_h_rejects_exterior_vortex():
    dom = make_box(2, 2)
    with pytest.raises(ValueError):
        source_h(dom, VortexConfig((((3, 0), 1),)))  # boundary point
    with pytest.raises(ValueError):
        source_h(dom, VortexConfig((((9, 9), 1),)))


def test_nonlinearity_values():
    params = ModelParams(lam=1.0, p=0)
    assert nonlinearity(0.0, params) == 0.0
    # e^u = 1/2 gives (1/2)(1/2 - 1) = -1/4
    assert nonlinearity(-math.log(2.0), params) == pytest.approx(-0.25, abs=1e-15)
    for p in (0, 1, 2):
        prm = ModelParams(lam=2.0, p=p)
        for u in (-3.0, -0.5, -1e-6):
            assert nonlinearity(u, prm) < 0.0
    arr = nonlinearity(np.array([-1.0, 0.0]), params)
    assert arr[1] == 0.0


@pytest.mark.parametrize("k", range(8))
def test_ipow_matches_pow(k):
    rng = np.random.default_rng(k)
    arrays = (
        rng.uniform(-3.0, -1e-6, 200),
        rng.uniform(1e-6, 3.0, 200),
        np.concatenate([rng.uniform(-3.0, 3.0, 200), [0.0, -0.0, 1.0, -1.0]]),
    )
    for x in arrays:
        got, want = _ipow(x, k), x**k
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    for x in (-2.5, -0.3, 0.0, 0.7, 1.9):
        want = x**k
        assert abs(_ipow(x, k) - want) <= 1e-15 * abs(want)


def test_nonlinearity_derivative_formula():
    # At u = 0 with p = 0 the derivative equals lam.
    params = ModelParams(lam=1.7, p=0)
    assert nonlinearity_derivative(0.0, params) == pytest.approx(1.7)
    # finite-difference cross-check at scattered points
    for p in (0, 1, 2):
        prm = ModelParams(lam=0.9, p=p)
        for u in (-2.0, -0.7, -0.05):
            eps = 1e-6
            fd = (nonlinearity(u + eps, prm) - nonlinearity(u - eps, prm)) / (2 * eps)
            assert nonlinearity_derivative(u, prm) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_functional_j_zero_field():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    assert functional_j(zeros(dom), source_h(dom, single_vortex()), params) == 0.0


def test_functional_j_positive_without_source():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=1)
    u = from_interior(dom, -RNG.uniform(0.1, 1.0, dom.n_interior))
    h = source_h(dom, VortexConfig(()))
    assert functional_j(u, h, params) > 0.0


def test_functional_j_single_point_hand_value():
    # One interior site with value -1 and charge 4*pi; four unit edges give
    # energy 4, and the potential term is (1/2)(e^-1 - 1)^2.
    dom = make_ball(2, 0)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    u = from_interior(dom, np.array([-1.0]))
    h = source_h(dom, single_vortex())
    expected = 0.5 * 4.0 + 0.5 * math.expm1(-1.0) ** 2 + 4.0 * math.pi * (-1.0)
    assert functional_j(u, h, params) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_functional_j_bit_for_bit_with_separate_potential(p):
    # The potential lam/(2p+2) * (e^u - 1)^(2p+2) now comes from the solver's
    # _nonlinearity_parts; it must equal the formula written out on its own.
    dom = make_ball(2, 5)
    params = ModelParams(lam=1.3, p=p)
    h = source_h(dom, single_vortex())
    u = from_interior(dom, np.random.default_rng(p).uniform(-3.0, 0.0, dom.n_interior))
    m = 2 * p + 2
    u_int = u.interior
    pot = (params.lam / m) * _ipow(np.expm1(u_int), m)
    want = 0.5 * dirichlet_energy(u) + float(np.sum(pot + h.interior * u_int))
    assert functional_j(u, h, params) == want


def test_functional_j_rejects_nonzero_boundary():
    dom = make_box(2, 1)
    params = ModelParams(lam=1.0)
    bad = LatticeField(dom, np.ones(dom.n_closure))
    with pytest.raises(ValueError):
        functional_j(bad, zeros(dom), params)


def test_iterate_step_zero_fixed_point():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    system = assemble(dom, params.shift)
    h = source_h(dom, VortexConfig(()))
    u1 = iterate_step(zeros(dom), h, params, system)
    assert not u1.values.any()


def test_iterate_step_first_two_steps():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    system = assemble(dom, params.shift)
    h = source_h(dom, single_vortex())
    u1 = iterate_step(zeros(dom), h, params, system)
    # first step solves the pure damped-linear problem with rhs h
    direct, _ = solve_interior(system, h.interior, backend="direct")
    np.testing.assert_allclose(u1.interior, direct, atol=1e-11)
    assert np.all(u1.values <= 0.0)
    assert u1.value_at((0, 0)) < 0.0
    u2 = iterate_step(u1, h, params, system)
    assert np.all(u2.values <= u1.values + 1e-9)


def test_iterate_step_validation():
    dom = make_box(2, 1)
    params = ModelParams(lam=1.0, p=0)
    system = assemble(dom, params.shift)
    h = source_h(dom, VortexConfig(()))
    up = from_interior(dom, np.full(dom.n_interior, 0.5))
    with pytest.raises(ValueError):
        iterate_step(up, h, params, system)
    wrong_shift = assemble(dom, params.shift + 1.0)
    with pytest.raises(ValueError):
        iterate_step(zeros(dom), h, params, wrong_shift)


def test_iterate_step_flags_breakdown_from_incompatible_state():
    # A far-too-deep starting field rises near the boundary on the next
    # step; the step must refuse to continue silently.
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    system = assemble(dom, params.shift)
    h = source_h(dom, VortexConfig(()))
    deep = from_interior(dom, np.full(dom.n_interior, -10.0))
    with pytest.raises(MonotonicityBreakdown):
        iterate_step(deep, h, params, system)


def test_solve_domain_no_vortices_is_trivial():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    u, trace = solve_domain(dom, VortexConfig(()), params)
    assert trace.converged
    assert trace.iterations == 1
    assert not u.values.any()


@pytest.mark.parametrize("backend", ["cg", "direct"])
def test_solve_domain_single_vortex(backend):
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    u, trace = solve_domain(dom, single_vortex(), params, backend=backend)
    assert trace.converged
    assert trace.final.residual_inf < 1e-8
    assert u.value_at((0, 0)) < 0.0
    assert np.all(u.values <= 0.0)
    assert trace.all_monotone()
    assert trace.all_j_decreasing()
    u_newton = newton_solve(dom, single_vortex(), params)
    assert np.abs(u.values - u_newton.values).max() < 1e-7


def test_solve_domain_p1_case():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=1, shift=8.1)
    u, trace = solve_domain(dom, single_vortex(), params)
    assert trace.converged
    assert trace.final.l2p2_norm > 0.0
    assert trace.final.l2p2_norm == pytest.approx(lq_norm(u, 4.0), rel=1e-12)
    u_newton = newton_solve(dom, single_vortex(), params)
    assert np.abs(u.values - u_newton.values).max() < 1e-7


def test_solve_domain_trace_energy_inequalities():
    dom = make_box(2, 4)
    params = ModelParams(lam=2.0, p=0)
    _, trace = solve_domain(dom, single_vortex(), params)
    records = trace.records
    for prev, cur in zip(records, records[1:]):
        # sharpened decrease: the squared step size is paid for by the drop
        assert cur.j_value + 0.5 * params.shift * cur.l2_change**2 <= prev.j_value + 1e-8
    assert all(r.norm_chain_ok for r in records)


def test_seminorm_closed_form_matches_seminorm():
    rng = np.random.default_rng(12)
    irregular = LatticeDomain(2, [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 3), (5, 5)])
    for dom in (make_box(2, 4), make_ball(3, 3), irregular):
        for _ in range(5):
            zero_boundary = from_interior(dom, rng.uniform(-3.0, 0.0, dom.n_interior))
            general = LatticeField(dom, rng.uniform(-3.0, 3.0, dom.n_closure))
            for u in (zero_boundary, general):
                # Closure edges give twice the energy; edges leaving the
                # closure start only at boundary sites.
                b = u.boundary_values
                outside_degree = np.count_nonzero(dom.adjacency < 0, axis=1)
                outside = outside_degree[dom.n_interior :] @ (b * b)
                closed_form = 2.0 * dirichlet_energy(u) + 2.0 * outside
                assert closed_form == pytest.approx(seminorm_1q(u, 2.0) ** 2, rel=1e-12)


@pytest.mark.parametrize("p, iterations", [(1, 1398), (2, 2605)])
def test_solve_domain_outer_iteration_counts(p, iterations):
    # Regression counts: cheaper per-step arithmetic must not move the step
    # at which the stop rule fires.
    dom = make_box(2, 8)
    _, trace = solve_domain(dom, single_vortex(), ModelParams(lam=1.0, p=p))
    assert trace.iterations == iterations
    assert all(r.norm_chain_ok for r in trace.records)


class _CountingMatrix(sp.csr_matrix):
    """The assembled matrix, counting its products with vectors."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("backend, per_step", [("cg", 2), ("direct", 1)])
def test_solve_domain_sparse_products_per_step(monkeypatch, backend, per_step):
    systems = []

    def counting_assemble(domain, shift):
        system = assemble(domain, shift)
        system.matrix = _CountingMatrix(system.matrix)
        systems.append(system)
        return system

    monkeypatch.setattr(chern_simons, "assemble", counting_assemble)
    params = ModelParams(lam=1.0, p=1)
    _, trace = solve_domain(make_box(2, 6), single_vortex(), params, backend=backend)
    assert trace.converged
    if backend == "cg":
        # One CG iteration per step on a box; the first step also forms A u0.
        assert all(r.linear_iterations == 1 for r in trace.records)
        assert systems[0].matrix.products == per_step * trace.iterations + 1
    else:
        assert systems[0].matrix.products == per_step * trace.iterations


@pytest.mark.parametrize(
    "dom, lam, p",
    [
        (make_box(2, 5), 1.3, 1),
        (make_ball(2, 5), 1.3, 1),
        (make_box(2, 30), 1e6, 0),
        (make_box(2, 100), 1e-3, 0),
    ],
    ids=["box", "ball", "large-lam", "large-domain-small-lam"],
)
def test_final_j_value_matches_functional_j(dom, lam, p):
    # The solver sums the energy by parts from A w, whose rounding grows like
    # eps * (shift + 4d) * |w|^2; |w| shrinks like 1/lam, so the largest
    # drift is at small lam on large domains, where |w|^2 reaches ~6e5 here.
    vortices = VortexConfig((((0, 0), 2), ((1, -2), 1)))
    params = ModelParams(lam=lam, p=p)
    u, trace = solve_domain(dom, vortices, params)
    want = functional_j(u, source_h(dom, vortices), params)
    assert trace.final.j_value == pytest.approx(want, rel=1e-12)
    # The energy-decrease check keeps two decades of margin over rounding.
    j = np.array([r.j_value for r in trace.records])
    assert np.diff(j).max() <= 1e-2 * ENERGY_SLACK


def test_first_iterate_bounds():
    dom = make_box(2, 4)
    vort = VortexConfig((((0, 0), 2), ((2, -1), 1)))
    params = ModelParams(lam=1.5, p=1)
    system = assemble(dom, params.shift)
    h = source_h(dom, vort)
    u1 = iterate_step(zeros(dom), h, params, system)
    h_sq = float(np.sum(h.interior**2))
    assert float(np.sum(u1.interior**2)) <= h_sq / params.shift**2 + 1e-8
    n = dom.dimension
    assert dirichlet_energy(u1) <= 4.0 * n * float(np.sum(u1.interior**2)) + 1e-9


def test_fixed_point_consistency():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    u, _ = solve_domain(dom, single_vortex(), params)
    system = assemble(dom, params.shift)
    h = source_h(dom, single_vortex())
    again = iterate_step(u, h, params, system)
    assert np.abs(again.values - u.values).max() <= 10 * params.tol_nonlinear


def test_residual_cases():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    h0 = source_h(dom, VortexConfig(()))
    assert not residual(zeros(dom), h0, params).values.any()
    h = source_h(dom, single_vortex())
    r = residual(zeros(dom), h, params)
    assert lq_norm(r, math.inf) == pytest.approx(4.0 * math.pi)
    np.testing.assert_allclose(r.interior, -h.interior)
    u, trace = solve_domain(dom, single_vortex(), params)
    r_conv = residual(u, h, params)
    assert lq_norm(r_conv, math.inf) < params.tol_residual
    assert lq_norm(r_conv, math.inf) == pytest.approx(trace.final.residual_inf, rel=1e-9)


def test_solve_domain_iteration_cap():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0, max_outer_iterations=3)
    with pytest.raises(ConvergenceFailure) as err:
        solve_domain(dom, single_vortex(), params)
    assert err.value.trace is not None
    assert err.value.trace.iterations == 3


def test_subsolution_dominance_reflexive_and_restriction():
    small = make_box(2, 2)
    big = make_box(2, 4)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    h = source_h(small, single_vortex())
    u_small, _ = solve_domain(small, single_vortex(), params)
    assert verify_subsolution_dominance(u_small, u_small, h, params)
    # the big-domain solution restricted to the small closure is a valid
    # subsolution there and must sit below the small-domain solution
    u_big, _ = solve_domain(big, single_vortex(), params)
    cand = restrict_field(u_big, small)
    assert verify_subsolution_dominance(cand, u_small, h, params)


def test_subsolution_dominance_rejects_invalid_candidate():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    h = source_h(dom, single_vortex())
    u, _ = solve_domain(dom, single_vortex(), params)
    # constant fields fail the inequality at the vortex, where h dominates
    flat = from_interior(dom, np.full(dom.n_interior, -1.0))
    with pytest.raises(ValueError):
        verify_subsolution_dominance(flat, u, h, params)


def test_subsolution_dominance_shifted_solution_branch():
    # A uniform downward shift is only a subsolution while the source term
    # is monotone along the shift; verify the check classifies it honestly
    # and, when accepted, confirms dominance.
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0, shift=4.1)
    h = source_h(dom, single_vortex())
    u, _ = solve_domain(dom, single_vortex(), params)
    shifted = from_interior(dom, u.interior - 0.1)
    try:
        assert verify_subsolution_dominance(shifted, u, params=params, h=h)
    except ValueError:
        pass  # rejected: the inequality fails somewhere, claim does not apply


def test_max_principle_check_cases():
    dom = make_box(2, 2)
    g = LatticeField(dom, np.ones(dom.n_closure))
    assert max_principle_check(zeros(dom), g)
    # constant f = -1 with g = 1: damped operator equals +1 on the interior
    f_const = from_interior(dom, -np.ones(dom.n_interior))
    f_const.values[dom.n_interior :] = -1.0
    f_const = LatticeField(dom, f_const.values)
    assert max_principle_check(f_const, g)
    # solve the damped problem with a nonnegative source and check the sign
    params = ModelParams(lam=1.0, p=0)
    system = assemble(dom, params.shift)
    h = source_h(dom, single_vortex())
    w, _ = solve_interior(system, h.interior)
    g_shift = LatticeField(dom, np.full(dom.n_closure, params.shift))
    assert max_principle_check(from_interior(dom, w), g_shift)


def test_max_principle_check_rejects_bad_hypotheses():
    dom = make_box(2, 2)
    ones = LatticeField(dom, np.ones(dom.n_closure))
    with pytest.raises(ValueError):
        max_principle_check(zeros(dom), LatticeField(dom, np.zeros(dom.n_closure)))
    bad_boundary = np.zeros(dom.n_closure)
    bad_boundary[-1] = 0.5
    with pytest.raises(ValueError):
        max_principle_check(LatticeField(dom, bad_boundary), ones)
    # a positive interior bump breaks the damped-operator sign
    bump = np.zeros(dom.n_closure)
    bump[0] = 3.0
    with pytest.raises(ValueError):
        max_principle_check(LatticeField(dom, bump), ones)


@pytest.mark.parametrize("backend", ["direct", "cg"])
def test_nan_nonlinearity_is_non_finite_failure(monkeypatch, backend):
    monkeypatch.setattr(chern_simons, "nonlinearity", lambda u, params: np.full_like(u, np.nan))
    with pytest.raises(NonFiniteBreakdown) as err:
        solve_domain(make_box(2, 2), single_vortex(), ModelParams(lam=1.0), backend=backend)
    assert not isinstance(err.value, MonotonicityBreakdown)
    assert len(err.value.trace) == 1
    assert math.isnan(err.value.trace.final.sup_change)


def test_finite_linear_failure_propagates(monkeypatch):
    # Only a non-finite solve becomes NonFiniteBreakdown; a missed tolerance
    # stays a LinearSolveFailure (CLI kind linear_solve).
    def miss(*args, **kwargs):
        raise LinearSolveFailure("missed", 1.0)

    monkeypatch.setattr(chern_simons, "solve_interior", miss)
    with pytest.raises(LinearSolveFailure):
        solve_domain(make_box(2, 2), single_vortex(), ModelParams(lam=1.0))


def test_non_finite_failure_mid_run(monkeypatch):
    # NaN from the fourth nonlinearity evaluation on: steps 1-3 stay finite.
    parts = chern_simons._nonlinearity_parts
    calls = []

    def fail_late(u, params):
        calls.append(1)
        n_u, pot = parts(u, params)
        return (n_u + np.nan, pot) if len(calls) > 3 else (n_u, pot)

    monkeypatch.setattr(chern_simons, "_nonlinearity_parts", fail_late)
    with pytest.raises(NonFiniteBreakdown) as err:
        solve_domain(make_box(2, 2), single_vortex(), ModelParams(lam=1.0), backend="direct")
    trace = err.value.trace
    assert len(trace) == 4
    assert all(r.monotone_ok for r in trace.records[:3])
    assert not trace.final.monotone_ok
