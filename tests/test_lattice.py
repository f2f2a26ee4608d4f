import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_vortex.lattice import (
    LatticeDomain,
    domain_from_json,
    domain_to_json,
    is_connected,
    is_nested,
    l1_distance,
    make_ball,
    make_box,
    neighbors,
)

from brute import naive_boundary


def test_l1_distance_basic():
    assert l1_distance((0, 0), (0, 0)) == 0
    assert l1_distance((0, 0), (1, 0)) == 1
    assert l1_distance((2, -1, 3), (0, 0, 0)) == 6


def test_l1_distance_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        l1_distance((0, 0), (0, 0, 0))


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
    assert dom.interior == ((0, 0),)
    assert set(dom.boundary) == set(neighbors((0, 0)))


def test_make_ball_radius_one_classification():
    # Oracle: enumerate every point within two steps of the center and
    # classify it straight from the definitions.
    dom = make_ball(2, 1)
    candidates = [
        (i, j) for i in range(-2, 3) for j in range(-2, 3) if abs(i) + abs(j) <= 2
    ]
    interior = {p for p in candidates if abs(p[0]) + abs(p[1]) <= 1}
    assert set(dom.interior) == interior
    assert set(dom.boundary) == naive_boundary(interior)
    assert dom.n_interior == 5
    assert len(dom.boundary) == 8


def test_make_ball_3d_radius_one():
    dom = make_ball(3, 1)
    assert dom.n_interior == 7


def test_make_box_counts():
    assert make_box(2, 1).n_interior == 9
    assert make_box(2, 2).n_interior == 25


def test_make_box_boundary_derived():
    # Oracle: classify the full enclosing shell point by point.
    dom = make_box(2, 1)
    interior = set(itertools.product(range(-1, 2), repeat=2))
    assert set(dom.boundary) == naive_boundary(interior)
    assert len(dom.boundary) == 12


def test_make_box_off_center():
    dom = make_box(2, 1, center=(3, -2))
    assert (3, -2) in dom
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


@pytest.mark.parametrize(
    "dom",
    [make_box(2, 2), make_ball(2, 3), make_box(3, 1), make_ball(3, 2)],
    ids=["box2", "ball2", "box3", "ball3"],
)
def test_boundary_invariants_exhaustive(dom):
    interior = set(dom.interior)
    boundary = set(dom.boundary)
    assert not interior & boundary
    for y in boundary:
        assert y not in interior
        assert any(z in interior for z in neighbors(y))
    # dense bijective indexing, interior block first
    assert sorted(dom.index_of.values()) == list(range(dom.n_closure))
    assert all(dom.index_of[p] < dom.n_interior for p in dom.interior)
    assert all(dom.index_of[p] >= dom.n_interior for p in dom.boundary)


@pytest.mark.parametrize("dom", [make_box(2, 3), make_ball(2, 4), make_ball(3, 2)])
def test_interior_connected(dom):
    assert is_connected(dom)


def test_outside_degree_and_edges_against_enumeration():
    dom = make_box(2, 2)
    # interior sites never have exterior neighbors
    assert all(dom.outside_degree[: dom.n_interior] == 0)
    for i, pt in enumerate(dom.closure):
        inside = sum(1 for y in neighbors(pt) if y in dom.index_of)
        assert dom.outside_degree[i] == 2 * dom.dimension - inside
    expected_edges = {
        tuple(sorted((dom.index_of[x], dom.index_of[y])))
        for x in dom.closure
        for y in neighbors(x)
        if y in dom.index_of
    }
    got = {tuple(e) for e in dom.edges.tolist()}
    assert got == expected_edges


def test_is_nested():
    inner = make_ball(2, 1)
    outer = make_ball(2, 2)
    assert is_nested(inner, outer)
    assert not is_nested(outer, inner)
    assert is_nested(inner, make_ball(2, 1))
    with pytest.raises(ValueError):
        is_nested(make_ball(2, 1), make_ball(3, 2))


def test_json_round_trip_box_and_ball():
    for dom in (make_box(2, 2, center=(1, 1)), make_ball(3, 2)):
        obj = domain_to_json(dom)
        back = domain_from_json(obj)
        assert back.interior == dom.interior
        assert back.boundary == dom.boundary


def test_json_round_trip_irregular():
    dom = LatticeDomain(2, [(0, 0), (1, 0), (2, 0)])
    obj = domain_to_json(dom)
    assert obj == [[0, 0], [1, 0], [2, 0]]
    back = domain_from_json(obj)
    assert back.interior == dom.interior


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


def test_json_accepts_integral_floats():
    dom = domain_from_json({"kind": "box", "dimension": 2.0, "size": 8.0, "center": [1.0, -2.0]})
    assert dom.interior == make_box(2, 8, center=(1, -2)).interior
    points = domain_from_json([[0.0, 0.0], [1.0, 0.0]])
    assert points.interior == ((0, 0), (1, 0))
