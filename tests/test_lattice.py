import collections
import functools
import itertools

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_vortex.calculus import LatticeField, from_interior, gns_ratio, green_identity_defect
from lattice_vortex.chern_simons import ModelParams, VortexConfig, newton_solve
from lattice_vortex.lattice import LatticeDomain, domain_from_json, make_ball, make_box, nested_index
from lattice_vortex.linsolve import ShiftedLaplacianSystem, damped_band, solve_interior

from brute import (
    closure_index,
    naive_boundary,
    naive_domain_arrays,
    naive_is_nested,
    naive_nested_index,
    neighbors,
)
from helpers import boundary_points, closure_edges, interior_points, is_connected, nested_domain_pairs


def l1_distance(x, y):
    return sum(abs(a - b) for a, b in zip(x, y, strict=True))


def test_neighbors_2d_origin():
    assert set(neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_neighbors_count_3d():
    assert len(neighbors((4, -2, 9))) == 6


def test_neighbors_consistent_with_distance():
    x = (5, 7)
    for y in neighbors(x):
        assert l1_distance(x, y) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=4),
)
def test_neighbors_property(coords):
    x = tuple(coords)
    nbrs = neighbors(x)
    assert len(nbrs) == 2 * len(x)
    assert len(set(nbrs)) == 2 * len(x)
    assert all(l1_distance(x, y) == 1 for y in nbrs)


def test_make_ball_radius_zero():
    dom = make_ball(2, 0)
    assert interior_points(dom) == [(0, 0)]
    assert set(boundary_points(dom)) == set(neighbors((0, 0)))


def test_make_ball_radius_one_classification():
    # Oracle: enumerate every point within two steps of the center and
    # classify it straight from the definitions.
    dom = make_ball(2, 1)
    candidates = [
        (i, j) for i in range(-2, 3) for j in range(-2, 3) if abs(i) + abs(j) <= 2
    ]
    interior = {p for p in candidates if abs(p[0]) + abs(p[1]) <= 1}
    assert set(interior_points(dom)) == interior
    assert set(boundary_points(dom)) == naive_boundary(interior)
    assert dom.n_interior == 5
    assert len(boundary_points(dom)) == 8


def test_make_ball_3d_radius_one():
    dom = make_ball(3, 1)
    assert dom.n_interior == 7


@pytest.mark.parametrize("dimension, radius", [(2, 7), (3, 5), (4, 3), (5, 2)])
def test_make_ball_matches_l1_definition(dimension, radius):
    center = tuple(range(-1, dimension - 1))
    cube = itertools.product(range(-radius, radius + 1), repeat=dimension)
    want = sorted(
        tuple(c + o for c, o in zip(center, off)) for off in cube if sum(map(abs, off)) <= radius
    )
    assert interior_points(make_ball(dimension, radius, center=center)) == want


def test_make_box_counts():
    assert make_box(2, 1).n_interior == 9
    assert make_box(2, 2).n_interior == 25


def test_make_box_boundary_derived():
    # Oracle: classify the full enclosing shell point by point.
    dom = make_box(2, 1)
    interior = set(itertools.product(range(-1, 2), repeat=2))
    assert set(boundary_points(dom)) == naive_boundary(interior)
    assert len(boundary_points(dom)) == 12


def test_make_box_off_center():
    dom = make_box(2, 1, center=(3, -2))
    assert dom.locate((3, -2)) >= 0
    assert dom.is_interior((4, -1))
    assert not dom.is_interior((5, -2))


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        make_box(1, 2)
    with pytest.raises(ValueError):
        make_ball(1, 2)
    with pytest.raises(ValueError):
        make_ball(2, -1)
    with pytest.raises(ValueError):
        make_box(2, 0)
    with pytest.raises(ValueError):
        LatticeDomain(2, [])
    with pytest.raises(ValueError):
        LatticeDomain(2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        make_box(2, 1, center=(0, 0, 0))


LIMIT = 2**63 - 2  # the largest interior |coordinate| whose neighbors fit in int64


@pytest.mark.parametrize(
    "points",
    [
        [(LIMIT + 1, 0)],
        [(0, -(LIMIT + 1))],
        [(0, 0), (2**64, 0)],  # beyond int64 itself
        np.array([[LIMIT + 1, 0]], dtype=np.int64),
        np.array([[0, -(2**63)]], dtype=np.int64),
    ],
    ids=["list-high", "list-low", "list-beyond", "array-high", "array-low"],
)
def test_domain_rejects_coordinates_whose_neighbors_leave_int64(points):
    # [2**63 - 1, 0] was built with a wrapped neighbor -2**63 in its boundary.
    with pytest.raises(ValueError, match="interior coordinates must lie within"):
        LatticeDomain(2, points)


@pytest.mark.parametrize("x", [LIMIT, -LIMIT])
def test_domain_at_the_int64_limit_keeps_exact_neighbors(x):
    dom = LatticeDomain(2, np.array([[x, 0]]))
    boundary = {tuple(int(c) for c in row) for row in dom.coords[1:]}
    assert boundary == {(x - 1, 0), (x + 1, 0), (x, 1), (x, -1)}


@pytest.mark.parametrize("maker", [make_box, make_ball])
def test_box_and_ball_check_their_reach_before_building(maker):
    # make_ball's offsets + center wrapped silently; make_box's arange left int64.
    assert maker(2, 3, center=(LIMIT - 3, -LIMIT + 3)).n_interior > 0
    for center in [(LIMIT - 2, 0), (0, -LIMIT + 2), (2**63 - 1, 0), (2**70, 0)]:
        with pytest.raises(ValueError, match=r"^center .* \+- 4 leaves the int64 range"):
            maker(2, 3, center=center)


@pytest.mark.parametrize(
    "dimension, half_width, center",
    [
        (2, 1, None),
        (2, 5, (7, -3)),
        (3, 1, None),
        (3, 4, (1, -2, 0)),
        (4, 2, None),
        (4, 1, (3, -1, 0, 2)),
        (2, 3, (LIMIT - 3, -(LIMIT - 3))),
        (3, 1, (-(LIMIT - 1), 0, LIMIT - 1)),
    ],
    ids=["2d-hw1", "2d-off-centre", "3d-hw1", "3d-off-centre", "4d", "4d-off-centre", "2d-limit", "3d-limit"],
)
def test_make_box_tables_equal_the_general_constructor(dimension, half_width, center):
    # make_box builds by index arithmetic what the general constructor
    # builds by sorting; the tables must agree entry for entry, dtype and
    # layout included, up to the int64 limit json_center allows.
    box = make_box(dimension, half_width, center)
    c = center or (0,) * dimension
    axes = [np.arange(ci - half_width, ci + half_width + 1, dtype=np.int64) for ci in c]
    interior = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dimension)
    general = LatticeDomain(dimension, interior, kind="box")
    assert vars(box).keys() == vars(general).keys()
    for name, value in vars(general).items():
        mine = getattr(box, name)
        assert type(mine) is type(value), name
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype and mine.flags.c_contiguous == value.flags.c_contiguous, name
            np.testing.assert_array_equal(mine, value, err_msg=name)
        else:
            assert mine == value, name
    assert np.shares_memory(box.interior_neighbors, box.adjacency)


@pytest.mark.parametrize(
    "dom",
    [make_box(2, 2), make_ball(2, 3), make_box(3, 1), make_ball(3, 2)],
    ids=["box2", "ball2", "box3", "ball3"],
)
def test_boundary_invariants_exhaustive(dom):
    interior = set(interior_points(dom))
    boundary = set(boundary_points(dom))
    assert not interior & boundary
    for y in boundary:
        assert y not in interior
        assert any(z in interior for z in neighbors(y))
    # dense bijective indexing, interior block first
    np.testing.assert_array_equal(dom.locate(dom.coords), np.arange(dom.n_closure))
    assert all(dom.is_interior(p) for p in interior)
    assert not any(dom.is_interior(p) for p in boundary)


@pytest.mark.parametrize("dom", [make_box(2, 3), make_ball(2, 4), make_ball(3, 2)])
def test_interior_connected(dom):
    assert is_connected(dom)


def test_outside_degree_and_edges_against_enumeration():
    dom = make_box(2, 2)
    outside_degree = np.count_nonzero(dom.adjacency < 0, axis=1)
    # interior sites never have exterior neighbors
    assert all(outside_degree[: dom.n_interior] == 0)
    index_of = closure_index(dom)
    for i, pt in enumerate(index_of):
        inside = sum(1 for y in neighbors(pt) if y in index_of)
        assert outside_degree[i] == 2 * dom.dimension - inside
    expected_edges = {
        tuple(sorted((index_of[x], index_of[y])))
        for x in index_of
        for y in neighbors(x)
        if y in index_of
    }
    got = {tuple(e) for e in closure_edges(dom).tolist()}
    assert got == expected_edges


def test_domain_derives_each_table_once(monkeypatch):
    # Every Newton step's band, Newton's memory check, the direct backend's
    # factor and each interpolation ratio read one edge table per domain;
    # summation by parts reads one pair table, and `locate` one set of keys.
    derived = collections.Counter()
    for name in ("interior_edges", "closure_pairs", "_site_keys"):
        real = vars(LatticeDomain)[name].func

        def counting(self, real=real, name=name):
            derived[name] += 1
            return real(self)

        table = functools.cached_property(counting)
        table.__set_name__(LatticeDomain, name)
        monkeypatch.setattr(LatticeDomain, name, table)
    rng = np.random.default_rng(0)
    for dom in (make_box(2, 3), make_ball(2, 3)):
        derived.clear()
        newton_solve(dom, VortexConfig((((0, 0), 2),)), ModelParams(lam=1.0, p=1))
        damped_band(dom)
        solve_interior(ShiftedLaplacianSystem(dom, 1.0), np.ones(dom.n_interior), backend="direct")
        for p in range(3):
            gns_ratio(dom, rng.uniform(-1, 1, (4, dom.n_interior)), p)
        u = LatticeField(dom, rng.uniform(-1, 1, dom.n_closure))
        for _ in range(2):
            green_identity_defect(u, from_interior(dom, rng.uniform(-1, 1, dom.n_interior)))
        for point in dom.coords[:: max(1, dom.n_closure // 5)]:
            assert dom.locate(point) >= 0
        assert derived == {"interior_edges": 1, "closure_pairs": 1, "_site_keys": 1}


def test_nested_index_on_balls():
    inner = make_ball(2, 1)
    outer = make_ball(2, 2)
    assert len(nested_index(inner, outer)) == inner.n_closure
    with pytest.raises(ValueError):
        nested_index(outer, inner)
    np.testing.assert_array_equal(nested_index(inner, make_ball(2, 1)), np.arange(inner.n_closure))
    with pytest.raises(ValueError):
        nested_index(make_ball(2, 1), make_ball(3, 2))


@pytest.mark.parametrize("inner, outer", nested_domain_pairs())
def test_nested_index_matches_naive(inner, outer):
    at = nested_index(inner, outer)
    assert at.dtype == np.int64
    np.testing.assert_array_equal(at, naive_nested_index(inner, outer))
    # the reversed pair is nested only between equal interiors
    if not naive_is_nested(outer, inner):
        with pytest.raises(ValueError):
            nested_index(outer, inner)


@pytest.mark.parametrize(
    "inner, outer",
    [
        # inner interior reaches the outer boundary
        (make_box(2, 3), make_box(2, 2)),
        # overlapping boxes, one interior row outside the other closure
        (make_box(2, 2), make_box(2, 2, center=(3, 0))),
        # disjoint
        (make_ball(3, 1, center=(10, 0, 0)), make_ball(3, 2)),
        (LatticeDomain(2, [(0, 0), (10**12, 0)]), LatticeDomain(2, [(0, 0), (10**12, 1)])),
    ],
)
def test_nested_index_rejects_non_nested(inner, outer):
    assert not naive_is_nested(inner, outer)
    with pytest.raises(ValueError):
        nested_index(inner, outer)


@pytest.mark.parametrize(
    "inner, outer, reason",
    [
        (make_ball(2, 1), make_ball(3, 2), "dimension mismatch"),
        # the inner interior reaches the outer boundary
        (make_box(2, 3), make_box(2, 2), "not inside the outer interior"),
        # the inner interior leaves the outer closure
        (make_ball(3, 1, center=(10, 0, 0)), make_ball(3, 2), "not inside the outer interior"),
    ],
)
def test_nested_index_names_its_reason(inner, outer, reason):
    with pytest.raises(ValueError, match=reason):
        nested_index(inner, outer)


def test_nested_index_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        nested_index(make_ball(2, 1), make_ball(3, 2))
    with pytest.raises(ValueError):
        nested_index(make_box(3, 1), make_box(2, 4))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=25),
            st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=25),
        )
    )
)
def test_nested_index_matches_naive_on_random_point_sets(case):
    dimension, a, b = case
    inner = LatticeDomain(dimension, a)
    for outer in (LatticeDomain(dimension, a + b), LatticeDomain(dimension, b)):
        for x, y in ((inner, outer), (outer, inner)):
            if naive_is_nested(x, y):
                np.testing.assert_array_equal(nested_index(x, y), naive_nested_index(x, y))
            else:
                with pytest.raises(ValueError):
                    nested_index(x, y)


def test_domain_from_json_box_and_ball():
    for dom, obj in (
        (make_box(2, 2, center=(1, 1)), {"kind": "box", "dimension": 2, "center": [1, 1], "size": 2}),
        (make_ball(3, 2), {"kind": "ball", "dimension": 3, "center": [0, 0, 0], "size": 2}),
    ):
        back = domain_from_json(obj)
        np.testing.assert_array_equal(back.coords, dom.coords)
        assert back.n_interior == dom.n_interior


def test_domain_from_json_point_list():
    points = [[0, 0], [1, 0], [2, 0]]
    want = LatticeDomain(2, [(0, 0), (1, 0), (2, 0)])
    for obj in (points, {"kind": "points", "dimension": 2, "interior": points}):
        back = domain_from_json(obj)
        assert back.dimension == 2
        np.testing.assert_array_equal(back.coords, want.coords)
        assert back.n_interior == 3
    with pytest.raises(ValueError):
        domain_from_json(points, dimension=3)


def test_json_dimension_conflict_rejected():
    with pytest.raises(ValueError):
        domain_from_json({"kind": "box", "dimension": 3, "center": [0, 0, 0], "size": 1}, dimension=2)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "box", "dimension": 2, "size": 3.7, "center": [0, 0]},
        {"kind": "box", "dimension": 2, "size": True, "center": [0, 0]},
        {"kind": "ball", "dimension": 2, "size": 2, "center": [0.4, 0]},
        {"kind": "box", "dimension": 2, "size": 2, "center": [False, 0]},
        {"kind": "box", "dimension": 2.5, "size": 2, "center": [0, 0]},
        {"kind": "box", "dimension": True, "size": 2, "center": [0, 0]},
        {"kind": "points", "dimension": 2, "interior": [[0, 0], [1.5, 0]]},
        [[0, 0], [0, 1.2]],
        [[0, 0], [True, 0]],
    ],
    ids=[
        "size-fraction",
        "size-bool",
        "center-fraction",
        "center-bool",
        "dimension-fraction",
        "dimension-bool",
        "points-coordinate",
        "list-coordinate",
        "list-bool",
    ],
)
def test_json_rejects_non_integral_values(obj):
    with pytest.raises(ValueError, match="must be an integer"):
        domain_from_json(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "box", "dimension": 2, "size": 2, "center": [0, 0], "centre": [1, 0]}, "'centre'"),
        ({"kind": "ball", "dimension": 2, "size": 2, "center": [0, 0], "interior": []}, "'interior'"),
        ({"kind": "points", "dimension": 2, "interior": [[0, 0]], "size": 1}, "'size'"),
        ({"kind": "box", "dimension": 2, "size": 2, "center": 3}, "center must be a list"),
        (5, "expected a JSON object"),
        ([[0, 0], 5], "point 1 must be a list of 2 integers, got 5"),
        ([5], "point 0 must be a list of integers, got 5"),
        ({"kind": "points", "dimension": 2, "interior": 5}, "interior must be a list of points"),
        ({"kind": "points", "dimension": 2, "interior": [[0, 0], [1]]}, "point 1 must be a list of 2"),
    ],
    ids=[
        "box-centre", "ball-interior", "points-size", "center-int", "not-an-object",
        "list-point-int", "list-first-point-int", "interior-int", "points-short",
    ],
)
def test_json_rejects_keys_and_shapes_it_does_not_read(obj, message):
    with pytest.raises(ValueError, match=message):
        domain_from_json(obj)


def test_json_accepts_integral_floats():
    dom = domain_from_json({"kind": "box", "dimension": 2.0, "size": 8.0, "center": [1.0, -2.0]})
    assert interior_points(dom) == interior_points(make_box(2, 8, center=(1, -2)))
    points = domain_from_json([[0.0, 0.0], [1.0, 0.0]])
    assert interior_points(points) == [(0, 0), (1, 0)]


def _assert_matches_naive(dom, points):
    want = naive_domain_arrays(points)
    for name, expected in want.items():
        got = closure_edges(dom) if name == "closure_edges" else getattr(dom, name)
        if isinstance(expected, tuple):  # a table of several arrays
            assert isinstance(got, tuple) and len(got) == len(expected), name
            pairs = zip(got, expected)
        else:
            pairs = [(got, expected)]
        for got, expected in pairs:
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype, name
                np.testing.assert_array_equal(got, expected, err_msg=name)
            else:
                assert got == expected, name
    # `coords` is the naive closure, so each naive closure point locates to
    # its naive index, and every site just outside the closure to -1.
    closure = want["coords"]
    np.testing.assert_array_equal(dom.locate(closure), np.arange(len(closure)))
    for i in {0, dom.n_interior, len(closure) - 1}:  # one point from each block
        assert dom.locate(closure[i]) == i and dom.locate(tuple(closure[i].tolist())) == i
    sites = set(map(tuple, closure.tolist()))
    outside = {y for x in sites for y in neighbors(x)} - sites
    assert outside and set(dom.locate(sorted(outside)).tolist()) == {-1}
    assert dom.locate(tuple(closure[-1])) >= 0 and dom.locate(min(outside)) == -1
    for wrong in ((0,) * (dom.dimension - 1), (0,) * (dom.dimension + 1)):
        assert dom.locate([wrong]).tolist() == [-1]
        assert dom.locate(wrong) == -1
    # coordinates no site can have: a fraction, NaN, and integers past int64
    first = closure[0].tolist()
    for c in (0.5, float("nan"), 2**63, -(2**63) - 1, 10**20):
        assert dom.locate([first[:-1] + [c], first]).tolist() == [-1, 0]
        assert dom.locate(first[:-1] + [c]) == -1


@pytest.mark.parametrize(
    "dom",
    [
        make_box(2, 1),
        make_box(2, 5, center=(7, -3)),
        make_box(3, 3, center=(-2, 4, 1)),
        make_box(3, 8),
        make_ball(2, 6, center=(-5, 2)),
        make_ball(3, 4, center=(1, 1, -9)),
        make_ball(2, 0, center=(3, 3)),
        make_ball(4, 2),
    ],
    ids=lambda d: repr(d),
)
def test_domain_build_matches_naive_on_boxes_and_balls(dom):
    _assert_matches_naive(dom, interior_points(dom))


@pytest.mark.parametrize(
    "dimension, points",
    [
        (2, [(0, 0)]),
        (3, [(4, -4, 4)]),
        (2, [(0, 0), (3, 0), (0, 3), (10, 10)]),
        (2, [(0, 0), (2, 0), (4, 0), (0, 2)]),
        (2, [(0, 0), (5, 0), (6, 0), (-7, 4)]),
        (2, [(0, 0), (10**12, -(10**12))]),
        (3, [(0, 0, 0), (1, 0, 0), (1, 0, 0), (-3, 2, 1)]),
        # 400 distinct values on each of 6 axes: no mixed-radix key over the
        # occupied coordinates fits in 64 bits.
        (6, np.random.default_rng(7).integers(-(10**6), 10**6, (400, 6)).tolist()),
    ],
    ids=[
        "single-2d",
        "single-3d",
        "scattered",
        "gap-2",
        "gaps-5-6",
        "far-apart",
        "duplicates",
        "scattered-6d",
    ],
)
def test_domain_build_matches_naive_on_point_sets(dimension, points):
    _assert_matches_naive(LatticeDomain(dimension, points), points)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=40),
        )
    )
)
def test_domain_build_matches_naive_on_random_point_sets(case):
    dimension, points = case
    _assert_matches_naive(LatticeDomain(dimension, points), points)


def test_integer_array_interior_matches_point_list():
    points = [(2, 1), (0, 0), (1, 0), (2, 1)]
    from_array = LatticeDomain(2, np.array(points))
    _assert_matches_naive(from_array, points)
    np.testing.assert_array_equal(from_array.coords, LatticeDomain(2, points).coords)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LatticeDomain(2, [(0.5, 0), (1.7, 0)]),
        lambda: LatticeDomain(2, [(0, 0), (True, 0)]),
        lambda: LatticeDomain(2, np.array([[0.5, 0.0]])),
        lambda: make_box(2, 2, center=(0.6, 0)),
        lambda: make_box(2, 2, center=(False, 0)),
        lambda: make_box(2, 2.5),
        lambda: make_ball(2, 2, center=(0, 1.2)),
        lambda: make_ball(2, 2, center=(0, float("nan"))),
        lambda: make_ball(2, 1.5),
        lambda: LatticeDomain(2.5, [(0, 0)]),
        lambda: LatticeDomain(True, [(0, 0)]),
        lambda: make_box(3.5, 1),
        lambda: make_box(True, 1),
        lambda: make_ball(2.5, 1),
        lambda: make_ball(True, 1),
    ],
    ids=[
        "points-fraction",
        "points-bool",
        "array-fraction",
        "box-center-fraction",
        "box-center-bool",
        "box-half-width",
        "ball-center-fraction",
        "ball-center-nan",
        "ball-radius",
        "domain-dimension-fraction",
        "domain-dimension-bool",
        "box-dimension-fraction",
        "box-dimension-bool",
        "ball-dimension-fraction",
        "ball-dimension-bool",
    ],
)
def test_library_builders_reject_non_integral_values(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_library_builders_accept_integral_floats():
    assert interior_points(LatticeDomain(2, [(0.0, 1.0), (np.int64(2), 0)])) == [(0, 1), (2, 0)]
    box = make_box(2, 2.0, center=(1.0, -2.0))
    np.testing.assert_array_equal(box.coords, make_box(2, 2, center=(1, -2)).coords)
    ball = make_ball(2, 2, center=(np.float64(3.0), 0))
    np.testing.assert_array_equal(ball.coords, make_ball(2, 2, center=(3, 0)).coords)
    points = LatticeDomain(np.float64(2.0), [(0, 1), (2, 0)])
    assert type(points.dimension) is int
    np.testing.assert_array_equal(points.coords, LatticeDomain(2, [(0, 1), (2, 0)]).coords)
    np.testing.assert_array_equal(make_box(2.0, 2).coords, make_box(2, 2).coords)
    np.testing.assert_array_equal(make_ball(3.0, 2).coords, make_ball(3, 2).coords)
