import dataclasses
import functools

import numpy as np
import pytest

from lattice_vortex import exhaustion
from lattice_vortex.calculus import LatticeField, from_interior
from lattice_vortex.chern_simons import (
    ModelParams, VortexConfig, residual, solve_domain, source_h,
)
from lattice_vortex.exhaustion import (
    ExhaustionFailure,
    ExhaustionSchedule,
    decay_profile,
    report_dict,
    run_exhaustion,
    vortex_centroid,
)
from lattice_vortex.lattice import make_ball, make_box, nested_index

from brute import naive_null_extend, naive_restrict_field
from helpers import (
    break_chain_ordering,
    interior_points,
    lq_norm,
    nested_domain_pairs,
    tail_is_monotone,
    value_at,
    verify_global_negativity,
    zeros,
)

RNG = np.random.default_rng(5)


def null_extend(u, larger):
    """The chain's zero extension of u into `larger`."""
    return exhaustion._extend(u, larger, nested_index(u.domain, larger))


def restrict_field(u, smaller):
    """The chain's gather of u onto the closure of `smaller`."""
    return LatticeField(smaller, u.values[nested_index(smaller, u.domain)])


def single_vortex(n=2):
    return VortexConfig(((tuple(0 for _ in range(n)), 1),))


def test_vortex_centroid():
    assert vortex_centroid(VortexConfig(()), 2) == (0, 0)
    cfg = VortexConfig((((0, 0), 1), ((4, 2), 1), ((2, 2), 1)))
    assert vortex_centroid(cfg, 2) == (2, 2)
    # An even count rounds the half-integer median to even.
    halves = [([(0, 0), (1, 0)], (0, 0)), ([(1, 0), (2, 0)], (2, 0)), ([(-1, 0), (0, 0)], (0, 0))]
    for points, center in halves:
        assert vortex_centroid(VortexConfig(tuple((p, 1) for p in points)), 2) == center


def test_vortex_centroid_is_exact_beyond_float_precision():
    # Through float64 this centroid was 2**62, two steps outside radius 2
    # of the vortex, and the schedule was rejected.
    far = VortexConfig((((2**62 + 500, 0), 1),))
    assert vortex_centroid(far, 2) == (2**62 + 500, 0)
    sched = ExhaustionSchedule(dimension=2, shape="box", radii=(2, 4), vortices=far)
    assert sched.center == (2**62 + 500, 0)


def test_vortex_centroid_matches_float_median():
    # Below 2**53 the float median is exact, so both round the same value.
    rng = np.random.default_rng(3)
    for _ in range(300):
        bound = int(rng.choice([3, 2**40]))
        points = np.unique(rng.integers(-bound + 1, bound, size=(rng.integers(1, 8), 3)), axis=0)
        cfg = VortexConfig(tuple((tuple(p), 1) for p in points.tolist()))
        want = tuple(int(round(v)) for v in np.median(points.astype(float), axis=0))
        assert vortex_centroid(cfg, 3) == want


def test_schedule_validation():
    vort = single_vortex()
    with pytest.raises(ValueError):
        ExhaustionSchedule(dimension=2, shape="box", radii=(4, 4), vortices=vort)
    with pytest.raises(ValueError):
        ExhaustionSchedule(dimension=2, shape="box", radii=(8, 4), vortices=vort)
    with pytest.raises(ValueError):
        ExhaustionSchedule(dimension=2, shape="hex", radii=(2, 4), vortices=vort)
    with pytest.raises(ValueError):
        ExhaustionSchedule(dimension=2, shape="box", radii=(), vortices=vort)
    with pytest.raises(ValueError, match="radii must list at least two radii"):
        ExhaustionSchedule(dimension=2, shape="box", radii=(4,), vortices=vort)
    far = VortexConfig((((9, 9), 1),))
    with pytest.raises(ValueError):
        ExhaustionSchedule(
            dimension=2, shape="box", radii=(2, 4), vortices=far, center=(0, 0)
        )
    # default center comes from the vortex positions
    offset = VortexConfig((((5, 5), 1),))
    sched = ExhaustionSchedule(dimension=2, shape="box", radii=(2, 4), vortices=offset)
    assert sched.center == (5, 5)


@pytest.mark.parametrize(
    "overrides",
    [
        {"radii": (4.5, 8)},
        {"radii": (True, 8)},
        {"center": (0.4, 0)},
        {"center": (False, 0)},
        {"dimension": 2.5},
        {"dimension": True},
    ],
    ids=[
        "radius-fraction",
        "radius-bool",
        "center-fraction",
        "center-bool",
        "dimension-fraction",
        "dimension-bool",
    ],
)
def test_schedule_rejects_non_integral_values(overrides):
    args = dict(dimension=2, shape="box", radii=(4, 8), vortices=single_vortex(), center=(0, 0))
    with pytest.raises(ValueError, match="must be an integer"):
        ExhaustionSchedule(**(args | overrides))


def test_schedule_accepts_integral_floats():
    sched = ExhaustionSchedule(
        dimension=2.0,
        shape="box",
        radii=(4.0, np.float64(8.0)),
        vortices=single_vortex(),
        center=(np.float64(0.0), 0.0),
    )
    assert (sched.dimension, sched.radii, sched.center) == (2, (4, 8), (0, 0))
    assert all(type(v) is int for v in (sched.dimension, *sched.radii, *sched.center))


def test_null_extend_preserves_values_and_norms():
    small = make_box(2, 2)
    big = make_box(2, 4)
    u = from_interior(small, RNG.uniform(-1, 0, small.n_interior))
    ext = null_extend(u, big)
    for p in interior_points(small):
        assert value_at(ext, p) == value_at(u, p)
    for q in (1.0, 2.0, 4.0):
        assert lq_norm(ext, q) == pytest.approx(lq_norm(u, q), rel=1e-14)
    z = null_extend(zeros(small), big)
    assert not z.values.any()


def test_null_extend_rejects_non_nested():
    small = make_box(2, 2)
    with pytest.raises(ValueError):
        null_extend(zeros(make_box(2, 4)), small)


def test_null_extend_idempotent_through_chain():
    small, mid, big = make_box(2, 1), make_box(2, 3), make_box(2, 6)
    u = from_interior(small, RNG.uniform(-2, 0, small.n_interior))
    via_mid = null_extend(null_extend(u, mid), big)
    direct = null_extend(u, big)
    np.testing.assert_array_equal(via_mid.values, direct.values)


def test_restrict_round_trip():
    small = make_box(2, 2)
    big = make_box(2, 5)
    u = from_interior(small, RNG.uniform(-1, 0, small.n_interior))
    back = restrict_field(null_extend(u, big), small)
    np.testing.assert_array_equal(back.values, u.values)
    with pytest.raises(ValueError):
        restrict_field(u, big)


@pytest.mark.parametrize("inner, outer", nested_domain_pairs())
def test_null_extend_and_restrict_match_naive(inner, outer):
    rng = np.random.default_rng(inner.n_closure)
    u = from_interior(inner, rng.uniform(-1, 0, inner.n_interior))
    ext = null_extend(u, outer)
    np.testing.assert_array_equal(ext.values, naive_null_extend(u, outer))
    assert not ext.boundary_values.any()
    v = LatticeField(outer, rng.uniform(-1, 1, outer.n_closure))
    np.testing.assert_array_equal(
        restrict_field(v, inner).values, naive_restrict_field(v, inner)
    )


def test_null_extend_and_restrict_reject_dimension_mismatch():
    with pytest.raises(ValueError):
        null_extend(zeros(make_ball(2, 1)), make_ball(3, 2))
    with pytest.raises(ValueError):
        restrict_field(zeros(make_ball(3, 2)), make_ball(2, 1))


def test_decay_profile_zero_field():
    dom = make_box(2, 3)
    profile = decay_profile(zeros(dom), (0, 0))
    assert all(s == 0.0 for _, s in profile)
    assert [r for r, _ in profile] == sorted(r for r, _ in profile)


def test_decay_profile_single_vortex_peaks_at_center():
    dom = make_box(2, 4)
    params = ModelParams(lam=1.0, p=0)
    u, _ = solve_domain(dom, single_vortex(), params)
    profile = decay_profile(u, (0, 0))
    assert profile[0][0] == 0
    assert profile[0][1] == pytest.approx(abs(value_at(u, (0, 0))))
    assert profile[0][1] == max(s for _, s in profile)
    assert all(s >= 0.0 for _, s in profile)


def test_tail_is_monotone():
    good = [(0, 5.0), (1, 1.0), (2, 0.5), (3, 0.2), (4, 0.1)]
    assert tail_is_monotone(good)
    bad = [(0, 5.0), (1, 1.0), (2, 0.5), (3, 0.2), (4, 0.4)]
    assert not tail_is_monotone(bad)
    assert tail_is_monotone(bad, fraction=0.0) or True  # empty tail is fine


def test_verify_global_negativity():
    dom = make_box(2, 2)
    assert verify_global_negativity(zeros(dom))
    vals = np.zeros(dom.n_closure)
    vals[0] = 1e-6
    assert not verify_global_negativity(LatticeField(dom, vals))


def test_run_exhaustion_no_vortices():
    sched = ExhaustionSchedule(
        dimension=2, shape="box", radii=(2, 4), vortices=VortexConfig(())
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0))
    assert est.inter_domain_gaps == [0.0]
    assert est.boundary_shell_sup == 0.0
    assert est.success
    assert all(not u.values.any() for u in est.solutions)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol_global": float("nan")},
        {"tol_global": 0.0},
        {"decay_threshold": float("inf")},
        {"decay_threshold": -1e-4},
        {"decay_threshold": True},
    ],
)
def test_schedule_rejects_bad_chain_tolerances(kwargs):
    # A NaN threshold gave a run whose `success` was false whatever it computed.
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must"):
        ExhaustionSchedule(
            dimension=2, shape="box", radii=(2, 4), vortices=single_vortex(), **kwargs
        )


def test_schedule_thresholds_decide_success():
    kwargs = dict(dimension=2, shape="box", radii=(2, 4), vortices=single_vortex())
    default = ExhaustionSchedule(**kwargs)
    assert (default.tol_global, default.decay_threshold) == (1e-5, 1e-4)
    loose = ExhaustionSchedule(**kwargs, tol_global=1.0, decay_threshold=1.0)
    est = run_exhaustion(loose, ModelParams(lam=1.0, p=0))
    assert est.success
    assert (report_dict(est)["tol_global"], report_dict(est)["decay_threshold"]) == (1.0, 1.0)
    # The same run judged by the default thresholds: its final gap is far above 1e-5.
    assert est.final_gap > 1e-5
    assert not dataclasses.replace(est, schedule=default).success


def test_run_exhaustion_single_vortex_small():
    sched = ExhaustionSchedule(
        dimension=2, shape="box", radii=(3, 6, 12), vortices=single_vortex()
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0), backend="direct")
    assert len(est.inter_domain_gaps) == 2
    assert est.gaps_strictly_decreasing
    assert all(verify_global_negativity(u) for u in est.solutions)
    # consecutive zero extensions sit below their predecessors
    for small_u, big_u in zip(est.solutions, est.solutions[1:]):
        onto = restrict_field(big_u, small_u.domain)
        assert np.all(onto.values <= small_u.values + 1e-9)
    assert tail_is_monotone(est.decay)


def test_run_exhaustion_ball_shape():
    sched = ExhaustionSchedule(
        dimension=2, shape="ball", radii=(3, 6, 12), vortices=single_vortex()
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0), backend="direct")
    assert est.solutions[0].domain.kind == "ball"
    assert est.gaps_strictly_decreasing
    assert est.final_gap < 0.1


def test_chain_violation_names_both_radii(monkeypatch):
    break_chain_ordering(monkeypatch)
    sched = ExhaustionSchedule(dimension=2, shape="box", radii=(3, 6, 12), vortices=single_vortex())
    with pytest.raises(ExhaustionFailure, match=r"on radius 6 rises .* above radius 3") as err:
        run_exhaustion(sched, ModelParams(lam=1.0))
    assert err.value.kind == "chain_violation"


# Chains run by the warm-start tests: dimension, shape, radii, p, backend.
CHAINS = [
    (2, "box", (3, 6, 12), 0, "cg"),
    (2, "box", (3, 6, 12), 0, "direct"),
    (2, "box", (3, 6, 12), 1, "cg"),
    (2, "ball", (3, 6, 12), 0, "cg"),
    (3, "box", (2, 4, 6), 1, "cg"),
]
CHAIN_IDS = ["box-p0-cg", "box-p0-direct", "box-p1", "ball-p0", "box3d-p1"]


@functools.cache
def chain_run(dimension, shape, radii, p, backend):
    sched = ExhaustionSchedule(
        dimension=dimension, shape=shape, radii=radii, vortices=single_vortex(dimension)
    )
    return run_exhaustion(sched, ModelParams(lam=1.0, p=p), backend=backend)


@pytest.mark.parametrize("dimension, shape, radii, p, backend", CHAINS, ids=CHAIN_IDS)
def test_chain_matches_independent_solves(dimension, shape, radii, p, backend):
    # Each domain after the first starts from its predecessor's solution; a
    # zero-start solve of the same domain must find the same solution, in
    # at least as many steps.
    est = chain_run(dimension, shape, radii, p, backend)
    params = ModelParams(lam=1.0, p=p)
    for i, (u, trace) in enumerate(zip(est.solutions, est.traces)):
        cold, cold_trace = solve_domain(u.domain, single_vortex(dimension), params, backend=backend)
        assert np.abs(u.values - cold.values).max() < 1e-8
        if i > 0:
            assert trace.iterations <= cold_trace.iterations


@pytest.mark.parametrize("dimension, shape, radii, p, backend", CHAINS, ids=CHAIN_IDS)
def test_zero_extension_is_a_supersolution(dimension, shape, radii, p, backend):
    # The warm start is valid because the zero extension of each solution is
    # a supersolution on the next domain: its defect is non-positive there.
    est = chain_run(dimension, shape, radii, p, backend)
    params = ModelParams(lam=1.0, p=p)
    for u, later in zip(est.solutions, est.solutions[1:]):
        h = source_h(later.domain, single_vortex(dimension))
        v = LatticeField(later.domain, naive_null_extend(u, later.domain))
        assert residual(v, h, params).interior.max() <= 1e-11


@pytest.mark.parametrize("backend", ["cg", "direct"])
def test_chain_outer_iteration_counts(backend):
    # Regression counts; from zero every radius after the first takes 37.
    sched = ExhaustionSchedule(
        dimension=2, shape="box", radii=(4, 8, 16, 32), vortices=single_vortex()
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0), backend=backend)
    assert [t.iterations for t in est.traces] == [43, 30, 18, 4]


def test_solve_domain_rejects_bad_warm_start():
    from lattice_vortex.chern_simons import solve_domain as sd

    dom = make_box(2, 2)
    with pytest.raises(ValueError):
        sd(dom, single_vortex(), ModelParams(lam=1.0, p=0), u_init=zeros(make_box(2, 2)))
    bad = from_interior(dom, np.full(dom.n_interior, 0.5))
    with pytest.raises(ValueError):
        sd(dom, single_vortex(), ModelParams(lam=1.0, p=0), u_init=bad)


def test_run_exhaustion_3d():
    sched = ExhaustionSchedule(
        dimension=3, shape="box", radii=(2, 4), vortices=single_vortex(3)
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0), backend="direct")
    assert est.gaps_non_increasing
    assert verify_global_negativity(est.finest_field)


def test_report_dict_structure():
    sched = ExhaustionSchedule(
        dimension=2, shape="box", radii=(2, 4), vortices=single_vortex()
    )
    est = run_exhaustion(sched, ModelParams(lam=1.0, p=0))
    report = report_dict(est)
    assert report["radii"] == [2, 4]
    assert len(report["per_radius"]) == 2
    first, second = report["per_radius"]
    assert first["gap_to_previous"] is None
    assert second["gap_to_previous"] == est.inter_domain_gaps[0]
    for key in ("radius", "iterations", "J_final", "residual", "l2p2_norm"):
        assert key in first
    assert isinstance(report["success"], bool)
