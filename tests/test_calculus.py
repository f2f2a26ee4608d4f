import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_vortex.calculus import (
    LatticeField,
    from_interior,
    gns_ratio,
    green_identity_defect,
    laplacian_interior,
    write_field_csv,
)
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.verify import faulty_laplacian

from brute import (
    naive_dirichlet_energy,
    naive_green_identity_defect,
    naive_laplacian,
    naive_seminorm_q,
)
from helpers import (
    dirichlet_energy, from_function, interior_points, lq_norm, read_field_csv, seminorm_1q, value_at, zeros
)

RNG = np.random.default_rng(20240811)


def random_field(domain, rng=RNG, scale=1.0):
    return LatticeField(domain, rng.uniform(-scale, scale, size=domain.n_closure))


def random_interior_field(domain, rng=RNG, scale=1.0):
    return from_interior(domain, rng.uniform(-scale, scale, size=domain.n_interior))


def constant(domain, value):
    return LatticeField(domain, np.full(domain.n_closure, value))


def spike(domain, point, height=1.0):
    vals = np.zeros(domain.n_closure)
    vals[domain.locate(point)] = height
    return LatticeField(domain, vals)


def test_field_validation():
    dom = make_box(2, 1)
    with pytest.raises(ValueError):
        LatticeField(dom, np.zeros(3))


def test_laplacian_of_constant_vanishes():
    dom = make_box(2, 2)
    u = constant(dom, 3.7)
    assert not laplacian_interior(u).any()


def test_laplacian_of_quadratic():
    # Discrete second difference of x1^2 + x2^2 is 2 per axis.
    dom = make_box(2, 3)
    u = from_function(dom, lambda p: p[0] ** 2 + p[1] ** 2)
    vec = laplacian_interior(u)
    for i, x in enumerate(interior_points(dom)):
        assert vec[i] == pytest.approx(4.0, abs=1e-12)
        assert vec[i] == pytest.approx(naive_laplacian(u, x), abs=1e-12)


def test_laplacian_of_indicator():
    dom = make_box(3, 1)
    u = spike(dom, (0, 0, 0))
    assert laplacian_interior(u)[dom.locate((0, 0, 0))] == -6.0


def test_laplacian_interior_matches_pointwise():
    dom = make_ball(2, 3)
    u = random_field(dom)
    vec = laplacian_interior(u)
    for i, x in enumerate(interior_points(dom)):
        assert vec[i] == pytest.approx(naive_laplacian(u, x), abs=1e-13)


def test_dirichlet_energy_zero_field():
    assert dirichlet_energy(zeros(make_box(2, 2))) == 0.0


def test_dirichlet_energy_center_indicator():
    # The center of the 3x3 interior has 4 closure edges, each contributing 1.
    dom = make_box(2, 1)
    u = spike(dom, (0, 0))
    assert dirichlet_energy(u) == 4.0
    assert naive_dirichlet_energy(u) == 4.0


def test_dirichlet_energy_shift_invariance():
    dom = make_ball(2, 2)
    u = random_field(dom)
    shifted = LatticeField(dom, u.values + 11.25)
    assert dirichlet_energy(shifted) == pytest.approx(dirichlet_energy(u), rel=1e-13)


@pytest.mark.parametrize("dom", [make_box(2, 2), make_ball(2, 2), make_box(3, 1)])
def test_energy_matches_naive_enumeration(dom):
    u = random_field(dom)
    assert dirichlet_energy(u) == pytest.approx(naive_dirichlet_energy(u), rel=1e-12)


def test_green_identity_random_pairs():
    dom = make_box(2, 2)  # 5x5 interior
    for _ in range(20):
        u = random_field(dom)
        v = random_interior_field(dom)
        assert green_identity_defect(u, v) < 1e-10


def test_green_identity_trivial_cases():
    dom = make_box(2, 2)
    u = random_field(dom)
    assert green_identity_defect(u, zeros(dom)) == 0.0
    c = constant(dom, 4.2)
    v = random_interior_field(dom)
    assert green_identity_defect(c, v) < 1e-12


def test_green_identity_scaled_bound_for_large_fields():
    dom = make_box(2, 3)
    u = random_field(dom, scale=1e3)
    v = random_interior_field(dom, scale=1e3)
    bound = 1e-10 * (
        1.0 + lq_norm(u, math.inf) * lq_norm(v, math.inf) * dom.n_closure
    )
    assert green_identity_defect(u, v) < bound


def test_green_identity_rejects_boundary_supported_v():
    dom = make_box(2, 1)
    u = random_field(dom)
    v = constant(dom, 1.0)
    with pytest.raises(ValueError):
        green_identity_defect(u, v)


GREEN_DOMAINS = [
    make_box(2, 3, center=(2, -1)),
    make_box(3, 2),
    make_ball(2, 4),
    make_ball(3, 2, center=(0, 1, -1)),
    # An L-shaped set with a hole and a detached site: boundary points with
    # one to four closure neighbors.
    LatticeDomain(
        2,
        [(x, y) for x in range(5) for y in range(5) if not (x >= 3 and y >= 3) and (x, y) != (1, 1)]
        + [(9, 9)],
    ),
]


@pytest.mark.parametrize("dom", GREEN_DOMAINS, ids=repr)
def test_green_identity_matches_pointwise_reference(dom):
    rng = np.random.default_rng(dom.n_closure)
    u = random_field(dom, rng)  # non-zero boundary values
    v = random_interior_field(dom, rng)
    assert np.any(u.boundary_values != 0.0)
    # Summation by parts holds, so both defects are rounding noise.
    scale = lq_norm(u, math.inf) * lq_norm(v, math.inf) * dom.n_closure
    assert green_identity_defect(u, v) < 1e-13 * scale
    assert naive_green_identity_defect(u, v) < 1e-13 * scale
    # With u/2 added to the operator the defect is |sum u v| / 2, so the two
    # implementations are compared on a value far above the noise.
    vector = green_identity_defect(u, v, laplacian_fn=lambda w: laplacian_interior(w) + 0.5 * w.interior)
    pointwise = naive_green_identity_defect(
        u, v, laplacian_fn=lambda w, x: naive_laplacian(w, x) + 0.5 * value_at(w, x)
    )
    assert vector > 1e3 * 1e-13 * scale
    assert vector == pytest.approx(pointwise, rel=1e-12)


def test_green_identity_rejects_wrong_length_operator():
    dom = make_box(2, 2)
    u = random_field(dom)
    v = random_interior_field(dom)
    with pytest.raises(ValueError):
        green_identity_defect(u, v, laplacian_fn=lambda w: laplacian_interior(w)[:-1])


STACK_DOMAINS = [make_box(2, 3)] + GREEN_DOMAINS


def _stack_pairs(dom, k):
    """k fields u with boundary values and k zero-boundary fields v, rows scaled 1e-8 to 1e3."""
    rng = np.random.default_rng(dom.n_closure + k)
    scales = 10.0 ** rng.integers(-8, 4, size=(k, 1))
    u = LatticeField(dom, rng.uniform(-1, 1, size=(k, dom.n_closure)) * scales)
    v = from_interior(dom, rng.uniform(-1, 1, size=(k, dom.n_interior)) * scales)
    return u, v


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("dom", STACK_DOMAINS, ids=repr)
def test_stacked_laplacian_interior_equals_per_field_bitwise(dom, k):
    u, _ = _stack_pairs(dom, k)
    stacked = laplacian_interior(u)
    assert stacked.shape == (k, dom.n_interior)
    for row, values in zip(stacked, u.values):
        assert row.tobytes() == laplacian_interior(LatticeField(dom, values)).tobytes()


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("dom", STACK_DOMAINS, ids=repr)
@pytest.mark.parametrize("laplacian_fn", [laplacian_interior, faulty_laplacian])
def test_stacked_green_identity_defect_equals_per_pair_bitwise(dom, k, laplacian_fn):
    u, v = _stack_pairs(dom, k)
    stacked = green_identity_defect(u, v, laplacian_fn=laplacian_fn)
    assert stacked.shape == (k,)
    for i in range(k):
        single = green_identity_defect(
            LatticeField(dom, u.values[i]), LatticeField(dom, v.values[i]), laplacian_fn=laplacian_fn
        )
        assert isinstance(single, float)
        assert stacked[i].tobytes() == np.float64(single).tobytes()


def test_stacked_green_identity_rejects_wrong_shape_operator():
    u, v = _stack_pairs(make_box(2, 2), 3)
    for wrong in (lambda w: laplacian_interior(w)[0], lambda w: laplacian_interior(w)[:, :-1]):
        with pytest.raises(ValueError):
            green_identity_defect(u, v, laplacian_fn=wrong)


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (0, 1, 2)])
def test_gns_ratio_stack_equals_per_field(n, p):
    dom = make_box(n, 4 if n == 2 else 2)
    rng = np.random.default_rng(10 * n + p)
    values = rng.uniform(-1, 1, size=(50, dom.n_interior)) * rng.uniform(0.1, 10, size=(50, 1))
    stacked = gns_ratio(from_interior(dom, values), p)
    assert stacked.shape == (50,)
    singles = np.array([gns_ratio(from_interior(dom, row), p) for row in values])
    # Sums match row by row; numpy's array and scalar pow may round the
    # fractional roots differently in the last place, a few ulp in all.
    np.testing.assert_allclose(stacked, singles, rtol=8 * np.finfo(float).eps, atol=0)


def _closure_gns_ratio(u, p):
    """gns_ratio's definition, from closure-wide norms and the edge seminorm of the helpers."""
    m = 2 * p + 2
    return lq_norm(u, 2 * m) / (seminorm_1q(u, 2.0) ** (1.0 / m) * lq_norm(u, 2 * m - 2) ** ((m - 1) / m))


GNS_DOMAINS = {
    "box-2d": make_box(2, 4),
    "box-3d": make_box(3, 2),
    "ball-2d": make_ball(2, 5, center=(1, -2)),
    "scattered": LatticeDomain(2, [(0, 0), (1, 0), (5, 5), (-7, 3), (3, 3), (3, 4), (4, 4)]),
}


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("name", GNS_DOMAINS)
def test_gns_ratio_matches_closure_norms(name, p):
    # gns_ratio sums over the interior and reads interior edges; the
    # reference sums over the closure and reads every closure edge. p = 0
    # is the case where the low power is x^2 itself.
    dom = GNS_DOMAINS[name]
    values = np.random.default_rng(p).uniform(-1.0, 1.0, (6, dom.n_interior))
    for scale in (1e-3, 1.0, 1e3):
        stack = from_interior(dom, scale * values)
        before = stack.values.copy()
        want = _closure_gns_ratio(stack, p)
        np.testing.assert_allclose(gns_ratio(stack, p), want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(stack.values, before)
        for row, ratio in zip(scale * values, want):
            assert gns_ratio(from_interior(dom, row), p) == pytest.approx(ratio, rel=1e-12, abs=0)


def test_gns_ratio_stack_rejections():
    dom = make_box(2, 1)
    values = np.ones((3, dom.n_interior))
    values[1] = 0.0
    with pytest.raises(ValueError):
        gns_ratio(from_interior(dom, values), 0)  # one zero field in the stack
    vals = np.zeros((2, dom.n_closure))
    vals[:, 0] = 1.0
    vals[1, -1] = 1.0
    with pytest.raises(ValueError):
        gns_ratio(LatticeField(dom, vals), 0)  # one field not supported on the interior


def test_lq_norm_basics():
    dom = make_box(2, 2)
    z = zeros(dom)
    for q in (1.0, 2.0, 3.5, math.inf):
        assert lq_norm(z, q) == 0.0
    u = spike(dom, (1, 1), height=3.0)
    assert lq_norm(u, 2.0) == 3.0
    assert lq_norm(u, math.inf) == 3.0
    with pytest.raises(ValueError):
        lq_norm(u, 0.5)


def test_lq_norm_sums_the_closure():
    dom = make_box(2, 1)
    vals = np.ones(dom.n_closure)
    u = LatticeField(dom, vals)
    assert lq_norm(u, 1.0) == 21.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lq_norm_monotone_in_q(seed):
    dom = make_box(2, 2)
    u = random_field(dom, np.random.default_rng(seed), scale=3.0)
    qs = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0]
    norms = [lq_norm(u, q) for q in qs]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_seminorm_zero_field():
    assert seminorm_1q(zeros(make_box(2, 1)), 2.0) == 0.0


def test_seminorm_constant_has_boundary_contribution_only():
    dom = make_box(2, 1)
    c = constant(dom, 2.0)
    # interior differences vanish; only edges leaving the closure remain
    assert seminorm_1q(c, 2.0) > 0.0
    assert seminorm_1q(c, 2.0) == pytest.approx(naive_seminorm_q(c, 2.0), rel=1e-12)


def test_seminorm_spike_value():
    dom = make_box(2, 2)
    u = spike(dom, (0, 0))
    assert seminorm_1q(u, 2.0) == pytest.approx(math.sqrt(8.0), rel=1e-14)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_seminorm_matches_naive(q):
    dom = make_ball(2, 2)
    u = random_field(dom)
    assert seminorm_1q(u, q) == pytest.approx(naive_seminorm_q(u, q), rel=1e-12)


def test_seminorm_squared_vs_twice_energy_for_interior_support():
    dom = make_box(2, 3)
    u = random_interior_field(dom)
    lhs = seminorm_1q(u, 2.0) ** 2
    rhs = 2.0 * dirichlet_energy(u)
    assert lhs <= rhs + 1e-12 * (1.0 + rhs)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gns_ratio_spike_value():
    dom = make_box(2, 2)
    u = spike(dom, (0, 0))
    assert gns_ratio(u, 0) == pytest.approx(8.0 ** -0.25, rel=1e-13)


def test_gns_ratio_scale_invariant():
    dom = make_box(2, 3)
    u = random_interior_field(dom)
    r1 = gns_ratio(u, 1)
    r2 = gns_ratio(LatticeField(dom, 37.5 * u.values), 1)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_gns_ratio_rejections():
    dom = make_box(2, 1)
    with pytest.raises(ValueError):
        gns_ratio(zeros(dom), 0)
    with pytest.raises(ValueError):
        gns_ratio(constant(dom, 1.0), 0)
    with pytest.raises(ValueError):
        gns_ratio(spike(dom, (0, 0)), -1)


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (0, 1, 2)])
def test_gns_ratio_bounded_over_random_fields(n, p):
    # Boundedness is empirical: the maximum is recorded, not compared to a
    # theoretical constant.
    dom = make_box(n, 4 if n == 2 else 2)
    rng = np.random.default_rng(1000 * n + p)
    worst = 0.0
    for _ in range(1000):
        u = from_interior(dom, rng.uniform(-1, 1, size=dom.n_interior) * rng.uniform(0.1, 10))
        ratio = gns_ratio(u, p)
        assert np.isfinite(ratio) and ratio > 0.0
        worst = max(worst, ratio)
    assert worst < 10.0


@pytest.mark.parametrize("q", range(1, 17))
def test_lq_norm_integral_q_matches_pow(q):
    rng = np.random.default_rng(q)
    dom = make_ball(2, 4)
    single = LatticeField(dom, rng.uniform(-3.0, 3.0, dom.n_closure))
    stack = LatticeField(dom, rng.uniform(-3.0, 3.0, (7, dom.n_closure)))
    for u in (single, stack):
        want = np.sum(np.abs(u.values) ** q, axis=-1) ** (1.0 / q)
        for exponent in (q, float(q)):
            got = lq_norm(u, exponent)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert np.shape(got) == np.shape(want)


def test_field_csv_round_trip(tmp_path):
    dom = make_ball(2, 2)
    u = random_field(dom)
    path = tmp_path / "field.csv"
    write_field_csv(u, path)
    back = read_field_csv(dom, path)
    np.testing.assert_array_equal(back.values, u.values)



def test_field_csv_bytes_match_csv_writer(tmp_path):
    # A 3D box, a 2D ball, a 4D box and coordinates near +-2**62, each
    # against the rendering csv.writer gave the file.
    far = [(2**62 + 3 * i, -(2**62) + i) for i in range(5)] + [(-(2**62), 2**62)]
    domains = [
        make_box(3, 2, center=(-1, 0, 4)),
        make_ball(2, 5, center=(3, -2)),
        make_box(4, 1, center=(0, -7, 2, 1)),
        LatticeDomain(2, far),
    ]
    for k, dom in enumerate(domains):
        vals = np.random.default_rng(3).uniform(-1.0, 1.0, dom.n_closure)
        vals[:8] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -3.5e17, 2.0**60, math.pi]
        u = LatticeField(dom, vals)
        path = tmp_path / f"field{k}.csv"
        write_field_csv(u, path)
        ref = tmp_path / f"ref{k}.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(dom.dimension)] + ["value"])
            for point, value in zip(dom.coords.tolist(), u.values):
                writer.writerow(point + [format(value, ".17g")])
        assert path.read_bytes() == ref.read_bytes(), repr(dom)
