import itertools

import numpy as np
import pytest

from lattice_vortex.calculus import from_interior, laplacian, zeros
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.linsolve import (
    _BOX_MAX_SIDE,
    LinearSolveFailure,
    assemble,
    interior_laplacian,
    matrix_to_coo_text,
    solve,
    solve_interior,
)

RNG = np.random.default_rng(7)


def test_assemble_single_point():
    dom = make_ball(2, 0)
    system = assemble(dom, 1.5)
    assert system.matrix.shape == (1, 1)
    np.testing.assert_allclose(system.matrix.toarray(), [[4.0 + 1.5]])


def test_assemble_rejects_nonpositive_shift():
    with pytest.raises(ValueError):
        assemble(make_box(2, 1), 0.0)
    with pytest.raises(ValueError):
        assemble(make_box(2, 1), -1.0)


def test_assemble_3x3_structure():
    dom = make_box(2, 1)
    shift = 2.0
    system = assemble(dom, shift)
    dense = system.matrix.toarray()
    assert dense.shape == (9, 9)
    center = dom.index_of[(0, 0)]
    row = dense[center]
    assert row[center] == 4.0 + shift
    off = np.delete(row, center)
    assert sorted(off.tolist()) == [-1.0, -1.0, -1.0, -1.0] + [0.0] * 4
    # a fully interior site: operator applied to the all-ones vector gives the shift
    ones = np.ones(dom.n_interior)
    assert (system.matrix @ ones)[center] == pytest.approx(shift)


def test_matrix_symmetric_and_positive_definite():
    dom = make_ball(2, 3)
    system = assemble(dom, 0.7)
    diff = system.matrix - system.matrix.T
    assert diff.nnz == 0
    for _ in range(100):
        v = RNG.standard_normal(dom.n_interior)
        assert v @ (system.matrix @ v) > 0.0


def test_interior_laplacian_matches_pointwise_operator():
    dom = make_box(2, 2)
    u = from_interior(dom, RNG.uniform(-1, 1, dom.n_interior))
    lap = interior_laplacian(dom) @ u.interior
    for i, x in enumerate(dom.interior):
        assert lap[i] == pytest.approx(laplacian(u, x), abs=1e-13)


def test_solve_zero_rhs():
    dom = make_box(2, 2)
    system = assemble(dom, 3.0)
    w = solve(system, zeros(dom))
    assert np.all(w.values == 0.0)
    assert w.dirichlet_zero


def test_solve_single_point_by_hand():
    # (laplacian - 1) w = -5 on one site with zero neighbors: -5 w = -5.
    dom = make_ball(2, 0)
    system = assemble(dom, 1.0)
    w, info = solve_interior(system, np.array([-5.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert info.iterations >= 1


def test_cg_single_point_in_one_iteration():
    dom = make_ball(2, 0)
    system = assemble(dom, 2.0)
    _, info = solve_interior(system, np.array([3.0]), backend="cg")
    assert info.iterations == 1


@pytest.mark.parametrize("backend", ["direct", "cg"])
def test_solve_residual_pointwise(backend):
    # Cross-check the solve against the pointwise Laplacian operator.
    dom = make_box(2, 3)
    shift = 2.5
    system = assemble(dom, shift)
    f = RNG.uniform(-1, 1, dom.n_interior)
    w, _ = solve_interior(system, f, backend=backend)
    w_field = from_interior(dom, w)
    for i, x in enumerate(dom.interior):
        assert laplacian(w_field, x) - shift * w[i] == pytest.approx(f[i], abs=1e-10)


def test_backends_agree():
    dom = make_box(2, 7)  # 15x15 interior
    system = assemble(dom, 1.3)
    f = RNG.uniform(-2, 2, dom.n_interior)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert np.abs(wd - wc).max() < 1e-8
    assert info.iterations >= 1


def test_backends_agree_3d():
    # 4,913 unknowns, where the fill-reducing LU ordering matters; the
    # bound is the cross-backend criterion of the acceptance gate.
    dom = make_box(3, 8)
    system = assemble(dom, 4.0)
    f = np.random.default_rng(8).uniform(-2, 2, dom.n_interior)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, _ = solve_interior(system, f, backend="cg")
    assert np.abs(wd - wc).max() < 1e-8


def test_nonnegative_rhs_gives_nonpositive_solution():
    # Comparison-principle consequence of the M-matrix structure.
    for dom in (make_box(2, 3), make_ball(3, 2)):
        system = assemble(dom, 0.9)
        for _ in range(10):
            f = RNG.uniform(0, 1, dom.n_interior)
            w, _ = solve_interior(system, f)
            assert np.all(w <= 1e-13)


def test_solve_rejects_bad_inputs():
    dom = make_box(2, 1)
    system = assemble(dom, 1.0)
    with pytest.raises(ValueError):
        solve_interior(system, np.zeros(5))
    with pytest.raises(ValueError):
        solve_interior(system, np.zeros(dom.n_interior), backend="qr")
    other = zeros(make_box(2, 1))
    with pytest.raises(ValueError):
        solve(system, other)


def _box_minus_one_site():
    box = make_box(2, 4)
    return LatticeDomain(2, [p for p in box.interior if p != (1, 2)])


def _strip_longer_than_box_cap():
    return LatticeDomain(2, itertools.product(range(_BOX_MAX_SIDE + 1), range(2)))


@pytest.mark.parametrize(
    "dom",
    [
        make_box(2, 7, center=(3, -2)),
        make_box(3, 4, center=(1, 2, -1)),
        LatticeDomain(2, itertools.product(range(2, 9), range(-3, 1))),
    ],
    ids=["box-2d", "box-3d", "rectangle-points"],
)
def test_cg_exact_on_boxes(dom):
    # On a full box the preconditioner is the exact inverse, so CG converges
    # in one iteration whatever the center or the domain kind.
    system = assemble(dom, 1.3)
    v = RNG.uniform(-1, 1, dom.n_interior)
    assert np.abs(system.precondition(system.matrix @ v) - v).max() < 1e-13
    f = RNG.uniform(-2, 2, dom.n_interior)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert info.iterations == 1
    assert np.abs(wd - wc).max() < 1e-12


@pytest.mark.parametrize(
    "dom",
    [make_ball(2, 6), _box_minus_one_site(), _strip_longer_than_box_cap()],
    ids=["ball", "box-with-hole", "long-strip"],
)
def test_cg_jacobi_fallback(dom):
    system = assemble(dom, 1.3)
    f = RNG.uniform(-2, 2, dom.n_interior)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert info.iterations > 1
    assert np.abs(wd - wc).max() < 1e-8


def test_cg_failure_reports_residual():
    # A ball, not a box: one Jacobi iteration cannot meet the tolerance.
    dom = make_ball(2, 12)
    system = assemble(dom, 0.5)
    f = RNG.uniform(-1, 1, dom.n_interior)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, f, backend="cg", max_iterations=1)
    assert err.value.residual > 0.0


def test_coo_dump_round_trip():
    dom = make_box(2, 1)
    system = assemble(dom, 2.25)
    text = matrix_to_coo_text(system)
    dense = np.zeros((9, 9))
    for line in text.strip().splitlines():
        i, j, v = line.split()
        dense[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(dense, system.matrix.toarray())
