import math

import numpy as np
import pytest

from lattice_vortex import chern_simons

from lattice_vortex.calculus import _IPOW_MAX_Q, _ipow, LatticeField, from_interior
from lattice_vortex.chern_simons import (
    MONOTONE_SLACK,
    ConvergenceFailure,
    ModelParams,
    MonotonicityBreakdown,
    NonFiniteBreakdown,
    VortexConfig,
    max_principle_check,
    newton_solve,
    nonlinearity,
    nonlinearity_derivative,
    residual,
    solve_domain,
    source_h,
)
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box, nested_index
from lattice_vortex.linsolve import LinearSolveFailure, ShiftedLaplacianSystem, solve_interior

from helpers import (
    dirichlet_energy, elimination_step, functional_j, lq_norm, observe_steps, scheme_step, seminorm_1q,
    value_at, verify_subsolution_dominance, zeros,
)

# Consecutive energies may rise by rounding only; J is recorded, not checked, by the solver.
ENERGY_SLACK = 1e-9

RNG = np.random.default_rng(99)


def single_vortex():
    return VortexConfig((((0, 0), 1),))


def test_model_params_defaults_and_validation():
    params = ModelParams(lam=1.0, p=0)
    assert params.shift == 1.1  # 1.1 times the strict bound kappa(0)*lam = 1
    assert ModelParams(lam=0.5, p=2).shift == 1.1 * (chern_simons.kappa(2) * 0.5)
    with pytest.raises(ValueError):
        ModelParams(lam=0.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, p=-1)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, tol_nonlinear=0.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, max_outer_iterations=0)
    # Booleans and strings are not numbers; lam=True was stored as True.
    for kwargs in (
        {"lam": True},
        {"lam": "1.0"},
        {"lam": 1.0, "p": True},
        {"lam": 1.0, "tol_residual": True},
    ):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


@pytest.mark.parametrize("p", range(4))
def test_kappa_is_the_slope_maximum(p):
    # kappa(p) = max over 0 < s <= 1 of s (1-s)^(2p) ((2p+2) s - 1), s = e^u.
    s = np.linspace(0.0, 1.0, 1_000_001)[1:]
    slope = s * (1.0 - s) ** (2 * p) * ((2 * p + 2) * s - 1.0)
    assert abs(chern_simons.kappa(p) - slope.max()) < 1e-10
    assert chern_simons.kappa(p) == pytest.approx((1.0, 0.13505, 0.07259, 0.04951)[p], abs=5e-6)


@pytest.mark.parametrize("p", range(4))
def test_model_params_shift_is_derived(p):
    lam = 3.0
    params = ModelParams(lam=lam, p=p)
    assert params.shift == 1.1 * (chern_simons.kappa(p) * lam)
    with pytest.raises(AttributeError):
        params.shift = 2.0
    # The shift and the linear tolerance are not inputs.
    for name in ("shift", "tol_linear"):
        with pytest.raises(TypeError):
            ModelParams(lam=lam, p=p, **{name: 2.0})


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_default_shift_keeps_every_step_certificate(p, lam):
    # At 1.1*kappa(p)*lam off the zero-shift core every step decreases
    # pointwise and pays for its squared size, weighted by the step's
    # diagonal C, with a drop in J (from J(0) = 0 at the first step).
    params = ModelParams(lam=lam, p=p)
    vortices = VortexConfig((((0, 0), 2), ((2, 0), 1)))
    with observe_steps() as steps:
        _, trace = solve_domain(make_box(2, 4), vortices, params)
    assert len(steps) == trace.iterations
    j_prev = 0.0
    for r, step in zip(trace.records, steps):
        assert r.j_value + 0.5 * params.shift * (step.change**2 - step.core_change**2) <= j_prev + 1e-8
        j_prev = r.j_value
    assert np.diff([r.j_value for r in trace.records]).max() <= ENERGY_SLACK


def test_large_lambda_converges_at_default_shift():
    # At the former default shift 2(2p+2)*lam this run spent all 50,000 steps.
    _, trace = solve_domain(make_box(2, 3), single_vortex(), ModelParams(lam=1000.0, p=1))
    assert trace.iterations < 5000
    assert np.diff([r.j_value for r in trace.records]).max() <= ENERGY_SLACK


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": math.nan},
        {"lam": math.inf},
        {"lam": -math.inf},
        {"lam": 1.0, "tol_nonlinear": math.nan},
        {"lam": 1.0, "tol_nonlinear": math.inf},
        {"lam": 1.0, "tol_residual": math.nan},
        {"lam": 1.0, "tol_residual": math.inf},
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
        tol_nonlinear=np.int64(1),
        tol_residual=np.float64(1e-12),
        max_outer_iterations=np.int64(100),
    )
    assert (params.lam, params.p, params.tol_nonlinear, params.tol_residual) == (0.5, 2, 1.0, 1e-12)
    assert params.max_outer_iterations == 100
    assert all(type(v) is float for v in (params.lam, params.tol_nonlinear, params.tol_residual))
    assert type(params.p) is int and type(params.max_outer_iterations) is int


def test_vortex_config_validation():
    with pytest.raises(ValueError):
        VortexConfig((((0, 0), 0),))
    with pytest.raises(ValueError):
        VortexConfig((((0, 0), 1), ((0, 0), 2)))
    cfg = VortexConfig((((0, 0), 1), ((1, 2), 2)))
    assert cfg.vortices == (((0, 0), 1), ((1, 2), 2))
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
        (5, 1),  # was a TypeError: "'int' object is not iterable"
        ("00", 1),
    ],
)
def test_vortex_config_rejects_non_integral_values(vortex):
    with pytest.raises(ValueError):
        VortexConfig((vortex,))


def test_vortex_config_accepts_integral_floats():
    cfg = VortexConfig((((2.0, -1.0), 2.0), ((np.int64(3), 0), np.int32(1))))
    assert cfg.vortices == (((2, -1), 2), ((3, 0), 1))
    assert all(type(c) is int for point in cfg.points for c in point)
    assert all(type(m) is int for _, m in cfg.vortices)


def test_source_h_values_and_mass():
    dom = make_box(2, 2)
    h = source_h(dom, single_vortex())
    assert value_at(h, (0, 0)) == pytest.approx(4.0 * math.pi)
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


@pytest.mark.parametrize("k", range(2, _IPOW_MAX_Q + 1))
def test_ipow_multiplies_in_sequence_up_to_the_threshold(k):
    # The solver's powers (k = 2p + 1 and 2p + 2 up to p = 5) keep their bits.
    x = np.random.default_rng(k).uniform(-3.0, 3.0, 500)
    want = x * x
    for _ in range(k - 2):
        want = want * x
    assert _ipow(x, k).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [_IPOW_MAX_Q + 1, 16, 17, 255, 2002, 10**6 + 1, 2 * 10**6 + 2])
def test_ipow_squares_above_the_threshold(k):
    # Each of at most 2 log2(k) roundings is raised to a power, and the
    # powers sum to at most k - 1, so the relative error stays under
    # (k - 1) * 2^-53 plus pow's own ulp.
    rng = np.random.default_rng(k)
    spread = min(0.5, 50.0 / k)  # keeps |x| ** k within about e^(+-60)
    mags = rng.uniform(1.0 - spread, 1.0 + spread, 600)
    x = np.concatenate([mags[:300], -mags[300:]])
    got, want = _ipow(x, k), np.power(x, k)
    bound = (k + 1) * np.finfo(np.float64).eps * np.abs(want)
    assert np.all(np.abs(got - want) <= bound)
    assert _ipow(-1.0, k) == (-1.0) ** k
    assert _ipow(0.5, k) == 0.5**k


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
    params = ModelParams(lam=1.0, p=0)
    u = from_interior(dom, np.array([-1.0]))
    h = source_h(dom, single_vortex())
    expected = 0.5 * 4.0 + 0.5 * math.expm1(-1.0) ** 2 + 4.0 * math.pi * (-1.0)
    assert functional_j(u, h, params) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_nonlinearity_parts_bit_for_bit_with_separate_formulas(p):
    # The loop takes N(u) and the potential's (e^u - 1)^(2p+2) from one
    # expm1; each must equal its formula written out on its own.
    dom = make_ball(2, 5)
    params = ModelParams(lam=1.3, p=p)
    u_int = np.random.default_rng(p).uniform(-3.0, 0.0, dom.n_interior)
    n_u, pot = chern_simons._nonlinearity_parts(u_int, params)
    em1 = np.expm1(u_int)
    assert n_u.tobytes() == (params.lam * np.exp(u_int) * _ipow(em1, 2 * p + 1)).tobytes()
    assert pot.tobytes() == _ipow(em1, 2 * p + 2).tobytes()


def test_solve_domain_first_two_steps():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0)
    system = ShiftedLaplacianSystem(dom, params.shift)
    h = source_h(dom, single_vortex())
    with observe_steps() as steps:
        _, trace = solve_domain(dom, single_vortex(), params)
    first, second = trace.records[:2]
    # the first step from zero solves the pure damped-linear problem with rhs h
    direct, _ = solve_interior(system, h.interior, backend="direct")
    assert np.all(direct <= 0.0)
    assert len(steps[0].core) == 0
    assert first.sup_change == pytest.approx(np.abs(direct).max(), rel=1e-11)
    assert steps[0].change == pytest.approx(np.linalg.norm(direct), rel=1e-11)
    assert first.j_value == pytest.approx(functional_j(from_interior(dom, direct), h, params), rel=1e-11)
    # the second drops the shift on the vortex and its four neighbors, the
    # sites at or below -ln 2, deepest first; it is one elimination step
    # from the first, and lies below it
    assert np.all(direct[steps[1].core] <= -math.log(2))
    assert sorted(steps[1].core) == sorted(np.flatnonzero(direct <= -math.log(2)))
    assert steps[1].core[0] == dom.locate((0, 0))
    u1 = from_interior(dom, direct)
    step = elimination_step(u1, h, params, steps[1].core).values - u1.values
    assert step.max() <= 0.0
    assert second.sup_change == pytest.approx(np.abs(step).max(), rel=1e-9)
    assert steps[1].change == pytest.approx(np.linalg.norm(step), rel=1e-9)


def test_solve_domain_flags_breakdown_from_incompatible_start():
    # A far-too-deep starting field rises near the boundary on the next
    # step; the loop must refuse to continue silently.
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    deep = from_interior(dom, np.full(dom.n_interior, -10.0))
    with observe_steps() as steps, pytest.raises(MonotonicityBreakdown) as err:
        solve_domain(dom, VortexConfig(()), params, u_init=deep)
    # The step that rose is recorded: the first, by a finite change. Every
    # site starts below -ln 2, so its core is full: the sum of the box sides.
    trace = err.value.trace
    assert trace.iterations == 1 and trace.final.k == 1
    assert len(steps[0].core) == 10
    w = elimination_step(deep, zeros(dom), params, steps[0].core)
    assert float((w.values - deep.values).max()) > MONOTONE_SLACK
    assert trace.final.sup_change == pytest.approx(np.abs(w.values - deep.values).max(), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_solve_domain_rejects_non_finite_start(bad):
    # A NaN start passes a non-positivity test and -inf passes it outright;
    # either must be refused before the first step, not end in a breakdown.
    dom = make_box(2, 3)
    values = np.full(dom.n_interior, -1.0)
    values[dom.n_interior // 2] = bad
    with pytest.raises(ValueError, match="u_init"):
        solve_domain(dom, single_vortex(), ModelParams(lam=1.0), u_init=from_interior(dom, values))


def test_solve_domain_no_vortices_is_trivial():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
    u, trace = solve_domain(dom, VortexConfig(()), params)
    assert trace.iterations == 1
    assert not u.values.any()


@pytest.mark.parametrize("backend", ["cg", "direct"])
def test_solve_domain_single_vortex(backend):
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0)
    u, trace = solve_domain(dom, single_vortex(), params, backend=backend)
    assert trace.final.residual_inf < 1e-8
    assert value_at(u, (0, 0)) < 0.0
    assert np.all(u.values <= 0.0)
    assert np.diff([r.j_value for r in trace.records]).max() <= ENERGY_SLACK
    u_newton = newton_solve(dom, single_vortex(), params)
    assert np.abs(u.values - u_newton.values).max() < 1e-7


def test_solve_domain_p1_case():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=1)
    u, trace = solve_domain(dom, single_vortex(), params)
    assert trace.final.l2p2_norm > 0.0
    assert trace.final.l2p2_norm == pytest.approx(lq_norm(u, 4.0), rel=1e-12)
    u_newton = newton_solve(dom, single_vortex(), params)
    assert np.abs(u.values - u_newton.values).max() < 1e-7


def test_solve_domain_trace_energy_inequalities():
    dom = make_box(2, 4)
    params = ModelParams(lam=2.0, p=0)
    chain = []

    def on_iterate(w):
        chain.append((seminorm_1q(w, 2.0) ** 2, 2.0 * dirichlet_energy(w)))

    with observe_steps(on_iterate) as steps:
        _, trace = solve_domain(dom, single_vortex(), params)
    records = trace.records
    for prev, cur, step in zip(records, records[1:], steps[1:]):
        # sharpened decrease: the squared step size, weighted by the step's
        # diagonal (0 on its core), is paid for by the drop
        drop = cur.j_value + 0.5 * params.shift * (step.change**2 - step.core_change**2)
        assert drop <= prev.j_value + 1e-8
    # norm chain: |w|_{1,2}^2 <= 2 E(w) on every iterate (zero boundary)
    assert len(chain) == trace.iterations
    for sem_sq, energy2 in chain:
        assert sem_sq <= energy2 + 1e-12 * (1.0 + energy2)


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


@pytest.mark.parametrize("p, iterations", [(1, 23), (2, 20)])
def test_solve_domain_outer_iteration_counts(p, iterations):
    # Regression counts: cheaper per-step arithmetic must not move the step
    # at which the stop rule fires.
    dom = make_box(2, 8)
    _, trace = solve_domain(dom, single_vortex(), ModelParams(lam=1.0, p=p))
    assert trace.iterations == iterations


class ScalarShiftSystem(ShiftedLaplacianSystem):
    """The system with no room for a zero-shift core: the scalar-shift scheme."""

    def __init__(self, domain, shift):
        super().__init__(domain, shift)
        self.core_capacity = 0


def test_core_free_run_takes_the_scalar_schemes_steps(monkeypatch):
    # At p = 0, lam 100, multiplicity 2 the maximal solution stays above
    # -0.47 > -ln 2, so no site ever joins the core, and the run must be
    # the scalar-shift scheme, bit for bit.
    dom = make_box(2, 8)
    vortices = VortexConfig((((0, 0), 2),))
    params = ModelParams(lam=100.0, p=0)
    with observe_steps() as steps:
        u, trace = solve_domain(dom, vortices, params)
    assert trace.iterations == 100
    assert all(len(step.core) == 0 for step in steps)
    monkeypatch.setattr(chern_simons, "ShiftedLaplacianSystem", ScalarShiftSystem)
    u_scalar, scalar = solve_domain(dom, vortices, params)
    assert trace.records == scalar.records
    assert u.values.tobytes() == u_scalar.values.tobytes()


@pytest.mark.parametrize(
    "dom, lam, multiplicity, full",
    [(make_box(2, 8), 1.0, 1, False), (make_box(2, 3), 1.0, 2, True), (make_box(3, 4), 2.0, 2, False)],
    ids=["2d", "2d-at-the-cap", "3d"],
)
def test_core_lies_below_the_level_never_shrinks_and_respects_the_cap(dom, lam, multiplicity, full):
    params = ModelParams(lam=lam, p=0)
    iterates = []
    with observe_steps(lambda w: iterates.append(w.interior)) as steps:
        solve_domain(dom, VortexConfig((((0,) * dom.dimension, multiplicity),)), params)
    capacity = ShiftedLaplacianSystem(dom, params.shift).core_capacity
    level = -math.log(2)
    prev_u, prev_core = np.zeros(dom.n_interior), steps[0].core
    for step, u in zip(steps, iterates):
        # Each step's core was chosen from the iterate it starts from.
        assert np.all(prev_u[step.core] <= level)
        np.testing.assert_array_equal(step.core[: len(prev_core)], prev_core)
        assert len(step.core) <= capacity
        new = step.core[len(prev_core) :]
        assert np.all(np.diff(prev_u[new]) >= 0)  # deepest first
        left = np.setdiff1d(np.flatnonzero(prev_u <= level - chern_simons._CORE_MARGIN), step.core)
        if len(left):
            # An eligible site stays out only when the core is full, and then
            # it lies no deeper than any site that joined.
            assert len(step.core) == capacity
            assert prev_u[left].min() >= prev_u[new].max(initial=-math.inf)
        prev_u, prev_core = u, step.core
    assert len(prev_core) == capacity if full else 0 < len(prev_core) < capacity


@pytest.mark.parametrize(
    "lam, multiplicity, hw, iterations",
    [(100.0, 10, 8, 68), (1000.0, 50, 16, 41)],
    ids=["lam100-mult10", "lam1000-mult50"],
)
def test_strong_coupling_converges_in_few_steps(lam, multiplicity, hw, iterations):
    # At the scalar shift these runs took 1,353 and 6,865 steps: the shift
    # 1.1 lam sat far above N' <= 0 across the wide vortex core.
    params = ModelParams(lam=lam, p=0)
    _, trace = solve_domain(make_box(2, hw), VortexConfig((((0, 0), multiplicity),)), params)
    assert trace.iterations == iterations
    assert trace.final.sup_change < params.tol_nonlinear
    assert trace.final.residual_inf < params.tol_residual


@pytest.mark.parametrize("backend", ["cg", "direct"])
def test_solve_domain_sparse_products_per_step(monkeypatch, backend):
    products = []
    passes = []

    class CountingSystem(ShiftedLaplacianSystem):
        def matvec(self, x):
            products.append(1)
            return super().matvec(x)

        def precondition(self, r):
            passes.append(1)
            return super().precondition(r)

    monkeypatch.setattr(chern_simons, "ShiftedLaplacianSystem", CountingSystem)
    params = ModelParams(lam=1.0, p=1)
    _, trace = solve_domain(make_box(2, 6), single_vortex(), params, backend=backend)
    # One pass of the box inverse and its certifying product per step,
    # whatever the backend; the first step also forms A u0.
    assert len(passes) == trace.iterations
    assert len(products) == trace.iterations + 1


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
    system = ShiftedLaplacianSystem(dom, params.shift)
    h = source_h(dom, vort)
    u1 = scheme_step(zeros(dom), h, params, system)
    h_sq = float(np.sum(h.interior**2))
    assert float(np.sum(u1.interior**2)) <= h_sq / params.shift**2 + 1e-8
    n = dom.dimension
    assert dirichlet_energy(u1) <= 4.0 * n * float(np.sum(u1.interior**2)) + 1e-9


def test_fixed_point_consistency():
    dom = make_box(2, 3)
    params = ModelParams(lam=1.0, p=0)
    u, _ = solve_domain(dom, single_vortex(), params)
    system = ShiftedLaplacianSystem(dom, params.shift)
    h = source_h(dom, single_vortex())
    again = scheme_step(u, h, params, system)
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
    params = ModelParams(lam=1.0, p=0)
    h = source_h(small, single_vortex())
    u_small, _ = solve_domain(small, single_vortex(), params)
    assert verify_subsolution_dominance(u_small, u_small, h, params)
    # the big-domain solution restricted to the small closure is a valid
    # subsolution there and must sit below the small-domain solution
    u_big, _ = solve_domain(big, single_vortex(), params)
    cand = LatticeField(small, u_big.values[nested_index(small, big)])
    assert verify_subsolution_dominance(cand, u_small, h, params)


def test_subsolution_dominance_rejects_invalid_candidate():
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=0)
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
    params = ModelParams(lam=1.0, p=0)
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
    system = ShiftedLaplacianSystem(dom, params.shift)
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
    assert err.value.trace.iterations == 1
    assert math.isnan(err.value.trace.final.sup_change)


def test_finite_linear_failure_propagates(monkeypatch):
    # Only a non-finite solve becomes NonFiniteBreakdown; a missed tolerance
    # stays a LinearSolveFailure (CLI kind linear_solve).
    def miss(*args, **kwargs):
        raise LinearSolveFailure("missed", 1.0)

    monkeypatch.setattr(chern_simons, "solve_interior", miss)
    with pytest.raises(LinearSolveFailure) as err:
        solve_domain(make_box(2, 2), single_vortex(), ModelParams(lam=1.0))
    assert err.value.trace is not None and err.value.trace.iterations == 0


@pytest.mark.parametrize("backend", ["cg", "direct"])
@pytest.mark.parametrize("failing_call", [2, 4])
def test_finite_linear_failure_mid_run_keeps_the_steps_taken(monkeypatch, backend, failing_call):
    # The trace carried by the failure is the unpatched run's prefix, record
    # for record, not an empty or a fresh trace.
    dom = make_box(2, 2)
    params = ModelParams(lam=1.0, p=1)
    _, full = solve_domain(dom, single_vortex(), params, backend=backend)
    assert full.iterations > failing_call
    real_solve = chern_simons.solve_interior
    calls = []

    def fail_late(system, rhs, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise LinearSolveFailure("missed", 1.0)
        return real_solve(system, rhs, **kwargs)

    monkeypatch.setattr(chern_simons, "solve_interior", fail_late)
    with pytest.raises(LinearSolveFailure) as err:
        solve_domain(dom, single_vortex(), params, backend=backend)
    assert err.value.residual == 1.0
    assert err.value.trace.records == full.records[: failing_call - 1]


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
    assert trace.iterations == 4 and trace.final.k == 4
    assert all(math.isfinite(r.sup_change) for r in trace.records[:3])
    assert math.isnan(trace.final.sup_change)
