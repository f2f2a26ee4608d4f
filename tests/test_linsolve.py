import itertools
import math

import numpy as np
import pytest

from lattice_vortex import linsolve
from lattice_vortex.calculus import from_interior
from lattice_vortex.chern_simons import kappa
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box
from lattice_vortex.linsolve import (
    _BOX_MAX_SIDE,
    DEFAULT_TOL_LINEAR,
    LinearSolveFailure,
    ShiftedLaplacianSystem,
    damped_band,
    matrix_to_coo_text,
    solve_interior,
)

from brute import naive_interior_matrix, naive_laplacian
from helpers import band_elimination_solve, interior_points

RNG = np.random.default_rng(7)


def _dense(system):
    """The matrix of `system.matvec`, column by column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.size)])


def test_system_single_point():
    dom = make_ball(2, 0)
    system = ShiftedLaplacianSystem(dom, 1.5)
    np.testing.assert_array_equal(_dense(system), [[4.0 + 1.5]])
    assert matrix_to_coo_text(system) == "0 0 5.5\n"


def test_system_rejects_nonpositive_shift():
    # NaN built an all-NaN matrix, and inf made CG divide by zero.
    for shift in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ShiftedLaplacianSystem(make_box(2, 1), shift)


def test_system_3x3_structure():
    dom = make_box(2, 1)
    shift = 2.0
    system = ShiftedLaplacianSystem(dom, shift)
    dense = _dense(system)
    assert dense.shape == (9, 9)
    center = int(dom.locate((0, 0)))
    row = dense[center]
    assert row[center] == 4.0 + shift
    off = np.delete(row, center)
    assert sorted(off.tolist()) == [-1.0, -1.0, -1.0, -1.0] + [0.0] * 4
    # a fully interior site: operator applied to the all-ones vector gives the shift
    ones = np.ones(dom.n_interior)
    assert system.matvec(ones)[center] == pytest.approx(shift)


def test_matrix_symmetric_and_positive_definite():
    dom = make_ball(2, 3)
    system = ShiftedLaplacianSystem(dom, 0.7)
    dense = _dense(system)
    np.testing.assert_array_equal(dense, dense.T)
    for _ in range(100):
        v = RNG.standard_normal(dom.n_interior)
        assert v @ system.matvec(v) > 0.0


def _product_inputs(n, seed):
    """Zero of either sign, then uniform and one-signed draws at three scales."""
    rng = np.random.default_rng(seed)
    zero = np.zeros(n)
    xs = [zero, -zero]
    for scale in (1e-8, 1.0, 1e3):
        xs += [rng.uniform(-scale, scale, n), -scale * rng.random(n)]
    return xs


def _box_minus_one_site():
    box = make_box(2, 4)
    return LatticeDomain(2, [p for p in interior_points(box) if p != (1, 2)])


def _strip_longer_than_box_cap():
    return LatticeDomain(2, itertools.product(range(_BOX_MAX_SIDE + 1), range(2)))


@pytest.mark.parametrize(
    "dom",
    [
        make_box(2, 4),
        make_box(2, 6, center=(3, -7)),
        make_box(3, 3),
        make_box(3, 2, center=(1, 2, -1)),
        _strip_longer_than_box_cap(),
    ],
    ids=["2d", "2d-off-center", "3d", "3d-off-center", "long-strip"],
)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_box_product_equals_csr_bitwise(dom, p):
    # The numpy product adds each row's terms in CSR's column order, so it
    # must reproduce the CSR product bit for bit, the sign of zero included.
    # A box with a side over the cap keeps the box product.
    system = ShiftedLaplacianSystem(dom, 1.1 * (kappa(p) * 1.0))
    assert system._product.func is linsolve._box_product
    reference = naive_interior_matrix(dom, system.shift)
    for x in _product_inputs(dom.n_interior, p):
        assert system.matvec(x).tobytes() == (reference @ x).tobytes()


@pytest.mark.parametrize(
    "dom",
    [make_ball(2, 6), make_ball(3, 3), _box_minus_one_site(), LatticeDomain(2, [(4, -1)])],
    ids=["ball-2d", "ball-3d", "box-with-hole", "single-site"],
)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_gather_product_equals_csr_bitwise(dom, p):
    # The gather through the neighbor table sums each row in the same
    # column order, so it too gives the CSR product's bits. It is the
    # product of every interior but a full box; a single site is a 1x1 box.
    system = ShiftedLaplacianSystem(dom, 1.1 * (kappa(p) * 1.0))
    assert (system._product.func is linsolve._gather_product) == (dom.n_interior > 1)
    index = linsolve._gather_index(dom)
    reference = naive_interior_matrix(dom, system.shift)
    for x in _product_inputs(dom.n_interior, p):
        want = (reference @ x).tobytes()
        assert linsolve._gather_product(index, system.shift + 2 * dom.dimension, x).tobytes() == want
        assert system.matvec(x).tobytes() == want


def test_jacobi_diagonal_is_shift_plus_2n():
    for dom in (make_ball(2, 6), make_ball(3, 3), _box_minus_one_site(), _strip_longer_than_box_cap()):
        system = ShiftedLaplacianSystem(dom, 1.1 * kappa(1))
        assert system._box is None
        diagonal = naive_interior_matrix(dom, system.shift).diagonal()
        assert np.array_equal(diagonal, np.full(dom.n_interior, system.shift + 2 * dom.dimension))
        r = RNG.uniform(-1, 1, dom.n_interior)
        assert np.array_equal(system.precondition(r), (1.0 / diagonal) * r)


@pytest.mark.parametrize("dom", [make_box(2, 2), make_ball(3, 2)], ids=["box", "ball"])
def test_matvec_matches_pointwise_operator(dom):
    # A u = shift u - Laplacian u for a zero-boundary u, in the package's
    # product and in the test reference alike.
    shift = 0.6
    u = from_interior(dom, RNG.uniform(-1, 1, dom.n_interior))
    lap = shift * u.interior - ShiftedLaplacianSystem(dom, shift).matvec(u.interior)
    lap_reference = shift * u.interior - naive_interior_matrix(dom, shift) @ u.interior
    for i, x in enumerate(interior_points(dom)):
        assert lap[i] == pytest.approx(naive_laplacian(u, x), abs=1e-13)
        assert lap_reference[i] == pytest.approx(naive_laplacian(u, x), abs=1e-13)


def test_solve_zero_rhs():
    dom = make_box(2, 2)
    system = ShiftedLaplacianSystem(dom, 3.0)
    w, _ = solve_interior(system, np.zeros(dom.n_interior))
    assert np.all(w == 0.0)


def test_solve_single_point_by_hand():
    # (laplacian - 1) w = -5 on one site with zero neighbors: -5 w = -5.
    dom = make_ball(2, 0)
    system = ShiftedLaplacianSystem(dom, 1.0)
    w, info = solve_interior(system, np.array([-5.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert info.iterations >= 1


def test_cg_single_point_in_one_iteration():
    dom = make_ball(2, 0)
    system = ShiftedLaplacianSystem(dom, 2.0)
    _, info = solve_interior(system, np.array([3.0]), backend="cg")
    assert info.iterations == 1


@pytest.mark.parametrize("backend", ["direct", "cg"])
def test_solve_residual_pointwise(backend):
    # Cross-check the solve against the pointwise Laplacian operator.
    dom = make_box(2, 3)
    shift = 2.5
    system = ShiftedLaplacianSystem(dom, shift)
    f = RNG.uniform(-1, 1, dom.n_interior)
    w, _ = solve_interior(system, f, backend=backend)
    w_field = from_interior(dom, w)
    for i, x in enumerate(interior_points(dom)):
        assert naive_laplacian(w_field, x) - shift * w[i] == pytest.approx(f[i], abs=1e-10)


def test_backends_agree():
    # On a box both backends take the box inverse, so each is checked
    # against the test-owned elimination over every axis.
    dom = make_box(2, 7)  # 15x15 interior
    system = ShiftedLaplacianSystem(dom, 1.3)
    f = RNG.uniform(-2, 2, dom.n_interior)
    ref = band_elimination_solve(dom, 1.3, f)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert np.abs(wd - ref).max() < 1e-8
    assert np.abs(wc - ref).max() < 1e-8
    assert info.iterations >= 1


def test_backends_agree_3d():
    # 4,913 unknowns; the bound is the cross-backend criterion of the
    # acceptance gate, against the full-band elimination of 290 rows.
    dom = make_box(3, 8)
    system = ShiftedLaplacianSystem(dom, 4.0)
    f = np.random.default_rng(8).uniform(-2, 2, dom.n_interior)
    ref = band_elimination_solve(dom, 4.0, f)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, _ = solve_interior(system, f, backend="cg")
    assert np.abs(wd - ref).max() < 1e-8
    assert np.abs(wc - ref).max() < 1e-8


def test_nonnegative_rhs_gives_nonpositive_solution():
    # Comparison-principle consequence of the M-matrix structure.
    for dom in (make_box(2, 3), make_ball(3, 2)):
        system = ShiftedLaplacianSystem(dom, 0.9)
        for _ in range(10):
            f = RNG.uniform(0, 1, dom.n_interior)
            w, _ = solve_interior(system, f)
            assert np.all(w <= 1e-13)


def test_solve_rejects_bad_inputs():
    dom = make_box(2, 1)
    system = ShiftedLaplacianSystem(dom, 1.0)
    with pytest.raises(ValueError):
        solve_interior(system, np.zeros(5))
    with pytest.raises(ValueError):
        solve_interior(system, np.zeros(dom.n_interior), backend="qr")


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
    # On a full box the preconditioner is the exact inverse, so a solve takes
    # one pass whatever the center, the domain kind or the backend.
    system = ShiftedLaplacianSystem(dom, 1.3)
    v = RNG.uniform(-1, 1, dom.n_interior)
    assert np.abs(system.precondition(naive_interior_matrix(dom, 1.3) @ v) - v).max() < 1e-13
    f = RNG.uniform(-2, 2, dom.n_interior)
    wd, direct = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert info.iterations == direct.iterations == 1
    assert np.abs(wd - wc).max() < 1e-12


@pytest.mark.parametrize(
    "dom",
    [make_ball(2, 6), _box_minus_one_site(), _strip_longer_than_box_cap()],
    ids=["ball", "box-with-hole", "long-strip"],
)
def test_cg_jacobi_fallback(dom):
    system = ShiftedLaplacianSystem(dom, 1.3)
    f = RNG.uniform(-2, 2, dom.n_interior)
    wd, _ = solve_interior(system, f, backend="direct")
    wc, info = solve_interior(system, f, backend="cg")
    assert info.iterations > 1
    assert np.abs(wd - wc).max() < 1e-8


def test_cg_failure_reports_residual():
    # A ball, not a box: Jacobi-CG, whose attained residual cannot reach 1e-300.
    # On this draw r.z underflows to 0 while p.Ap stays positive.
    dom = make_ball(2, 12)
    system = ShiftedLaplacianSystem(dom, 0.5)
    f = np.random.default_rng(7).uniform(-1, 1, dom.n_interior)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, f, backend="cg", tol=1e-300)
    assert err.value.residual > 0.0


def test_solve_interior_failure_carries_no_trace():
    # Only solve_domain attaches the steps taken; a direct call has none.
    system = ShiftedLaplacianSystem(make_ball(2, 12), 0.5)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, np.ones(system.size), backend="cg", tol=1e-300)
    assert err.value.trace is None
    assert LinearSolveFailure("missed", 1.0).trace is None


@pytest.mark.parametrize("dom", [make_ball(2, 12), make_ball(3, 4)], ids=["ball2d", "ball3d"])
def test_cg_budget_is_ten_times_interior_size(monkeypatch, dom):
    # A tolerance no iterate meets: the three passes share one budget.
    real_pcg = linsolve._pcg
    budgets, spent = [], []

    def counting(system, x, r, tol_abs, max_iterations):
        budgets.append(max_iterations)
        spent.append(real_pcg(system, x, r, tol_abs, max_iterations))
        return spent[-1]

    monkeypatch.setattr(linsolve, "_pcg", counting)
    system = ShiftedLaplacianSystem(dom, 0.5)
    rng = np.random.default_rng(dom.n_interior)
    with pytest.raises(LinearSolveFailure):
        solve_interior(system, rng.uniform(-1, 1, system.size), backend="cg", tol=1e-300)
    assert len(budgets) == 3
    assert budgets[0] == 10 * dom.n_interior
    assert all(b == budgets[0] - sum(spent[:i]) for i, b in enumerate(budgets))
    assert sum(spent) <= 10 * dom.n_interior


@pytest.mark.parametrize(
    "dom",
    [make_box(2, 1), make_ball(2, 4, center=(1, -3)), make_ball(3, 2), _box_minus_one_site()],
    ids=["box", "ball-2d", "ball-3d", "box-with-hole"],
)
def test_coo_dump_matches_reference_line_for_line(dom):
    # Rows ascending and columns sorted within a row, as the CSR reference
    # lists its entries; a shift with 17 significant digits.
    shift = 2.25 + 1e-15
    reference = naive_interior_matrix(dom, shift).tocoo()
    want = [f"{i} {j} {format(v, '.17g')}" for i, j, v in zip(reference.row, reference.col, reference.data)]
    text = matrix_to_coo_text(ShiftedLaplacianSystem(dom, shift))
    assert text.endswith("\n")
    assert text.splitlines() == want


@pytest.mark.parametrize(
    "dom, backend",
    [(make_box(2, 6, center=(2, -1)), "cg"), (make_ball(2, 7), "cg"), (make_box(2, 6), "direct")],
    ids=["cg-box", "cg-ball", "direct"],
)
def test_seeded_product_gives_identical_solve(dom, backend):
    # Passing back the certifying product of the previous solve as A x0
    # must not change a single bit of the next one.
    system = ShiftedLaplacianSystem(dom, 1.3)
    f1 = RNG.uniform(-2, 2, dom.n_interior)
    f2 = f1 + RNG.uniform(-0.1, 0.1, dom.n_interior)
    x1, info1 = solve_interior(system, f1, backend=backend)
    reference = naive_interior_matrix(dom, 1.3)
    assert np.array_equal(info1.product, reference @ x1)
    plain_x, plain = solve_interior(system, f2, backend=backend, x0=x1)
    seeded_x, seeded = solve_interior(system, f2, backend=backend, x0=x1, ax0=info1.product)
    assert np.array_equal(seeded_x, plain_x)
    assert seeded.iterations == plain.iterations
    assert np.array_equal(seeded.product, plain.product)
    assert np.array_equal(seeded.product, reference @ seeded_x)
    if dom.kind == "ball":
        assert plain.iterations > 1


def _counting(monkeypatch, system):
    """Count the preconditioner applies and the products of `system`, in call order."""
    calls = []
    for name in ("precondition", "matvec"):
        method = getattr(system, name)
        monkeypatch.setattr(system, name, lambda x, name=name, method=method: calls.append(name) or method(x))
    return calls


@pytest.mark.parametrize("backend", ["direct", "cg"])
@pytest.mark.parametrize("bad", ["all_nan", "one_inf", "one_minus_inf"])
@pytest.mark.parametrize("dom", [make_box(2, 2), make_ball(2, 3)], ids=["box", "ball"])
def test_non_finite_rhs_rejected_before_solving(monkeypatch, dom, backend, bad):
    system = ShiftedLaplacianSystem(dom, 4.0)
    rhs = np.ones(system.size)
    if bad == "all_nan":
        rhs[:] = math.nan
    else:
        rhs[3] = math.inf if bad == "one_inf" else -math.inf
    calls = _counting(monkeypatch, system)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, rhs, backend=backend, x0=np.zeros(system.size))
    assert math.isnan(err.value.residual)
    # no box pass, no CG iteration, no product of the start and no
    # factorization was spent on it
    assert calls == []
    assert system._cholesky is None


def test_non_finite_attained_residual_rejected(monkeypatch):
    # A ball: a box solve never reads the Cholesky factor.
    system = ShiftedLaplacianSystem(make_ball(2, 3), 4.0)

    nan_factor = np.full((2, system.size), math.nan, order="F")
    monkeypatch.setattr(system, "cholesky", lambda: nan_factor)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, np.ones(system.size), backend="direct")
    assert math.isnan(err.value.residual)



BAND_DOMAINS = [
    make_box(2, 4),
    make_box(2, 5, center=(3, -2)),
    make_box(3, 3),
    make_ball(2, 6),
    LatticeDomain(2, [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2), (5, 5), (5, 6)]),
]
BAND_IDS = ["box-2d", "box-2d-off-center", "box-3d", "ball-2d", "point-set"]


@pytest.mark.parametrize("dom", BAND_DOMAINS, ids=BAND_IDS)
def test_damped_band_stores_the_matrix(dom):
    system = ShiftedLaplacianSystem(dom, 1.3)
    band = damped_band(dom)
    assert band.flags.f_contiguous
    bw = band.shape[0] - 1
    assert band.shape == (bw + 1, dom.n_interior)
    assert not band[-1].any()
    band[-1] = system.shift + 2 * dom.dimension
    # the symmetric matrix the band stores, entry for entry
    upper = sum(np.diag(band[bw - k, k:], k) for k in range(bw + 1))
    np.testing.assert_array_equal(upper + np.triu(upper, 1).T, naive_interior_matrix(dom, 1.3).toarray())


@pytest.mark.parametrize("dom", BAND_DOMAINS, ids=BAND_IDS)
def test_direct_solve_certified_and_agrees_with_cg(dom):
    system = ShiftedLaplacianSystem(dom, 1.3)
    f = np.random.default_rng(dom.n_interior).uniform(-2, 2, dom.n_interior)
    wd, info = solve_interior(system, f, backend="direct")
    # the attained residual, from the certifying product: A w = -f
    assert np.abs(info.product + f).max() <= DEFAULT_TOL_LINEAR * (1.0 + np.abs(f).max())
    assert np.array_equal(info.product, naive_interior_matrix(dom, 1.3) @ wd)
    wc, _ = solve_interior(system, f, backend="cg")
    # A is diagonally dominant with row sums at least the shift, so
    # |A^-1|_inf <= 1/1.3 and the two certified solves differ by under 1e-11.
    assert np.abs(wd - wc).max() <= 1e-11


def test_failed_cholesky_raises_linear_solve_failure():
    # The constructor rejects a non-positive shift; set afterwards, before
    # `cholesky` first reads it, A is indefinite and LAPACK reports it
    # instead of returning a NaN factor.
    # A ball: a box solve never factors.
    system = ShiftedLaplacianSystem(make_ball(2, 3), 1.0)
    system.shift = -10.0
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, np.ones(system.size), backend="direct")
    assert math.isnan(err.value.residual)
    assert system._cholesky is None


BOX_DOMAINS = [
    make_box(2, 7),
    make_box(2, 5, center=(3, -2)),
    LatticeDomain(2, itertools.product(range(9), range(-3, 1))),
    make_box(3, 4),
    make_box(3, 3, center=(2, -1, 5)),
    LatticeDomain(3, itertools.product(range(3), range(5), range(7))),
    make_box(4, 2),
]
BOX_IDS = ["box-2d", "box-2d-off-center", "rectangle-9x4", "box-3d", "box-3d-off-center", "box-3x5x7", "box-4d"]


@pytest.mark.parametrize("dom", BOX_DOMAINS, ids=BOX_IDS)
def test_box_direct_matches_full_band_elimination(dom):
    # On a box the direct backend refines with the box inverse, sine
    # transforms along every axis; the test's reference eliminates over all
    # axes with no transform.
    for shift in (0.2, 1.3, 7.0):
        system = ShiftedLaplacianSystem(dom, shift)
        f = np.random.default_rng(dom.n_interior).uniform(-2, 2, dom.n_interior)
        wd, _ = solve_interior(system, f, backend="direct")
        ref = band_elimination_solve(dom, shift, f)
        assert np.abs(wd - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("backend", ["cg", "direct"])
def test_box_solve_stops_after_three_passes(monkeypatch, backend):
    # No iterate meets 1e-300: each pass corrects from the true residual and
    # certifies with one product, and the third miss raises with that residual.
    system = ShiftedLaplacianSystem(make_box(2, 6), 1.3)
    calls = _counting(monkeypatch, system)
    with pytest.raises(LinearSolveFailure) as err:
        solve_interior(system, RNG.uniform(-2, 2, system.size), backend=backend, tol=1e-300)
    assert 0.0 < err.value.residual < 1e-12
    assert calls == ["precondition", "matvec"] * 3
    assert system._cholesky is None


@pytest.mark.parametrize("backend", ["cg", "direct"])
@pytest.mark.parametrize("dom", [make_box(2, 6), make_ball(2, 6)], ids=["box", "ball"])
def test_solve_leaves_its_start_unchanged(dom, backend):
    system = ShiftedLaplacianSystem(dom, 1.3)
    x0 = RNG.uniform(-1, 1, system.size)
    ax0 = system.matvec(x0)
    x0_kept, ax0_kept = x0.copy(), ax0.copy()
    x, info = solve_interior(system, RNG.uniform(-2, 2, system.size), backend=backend, x0=x0, ax0=ax0)
    np.testing.assert_array_equal(x0, x0_kept)
    np.testing.assert_array_equal(ax0, ax0_kept)
    assert x is not x0 and info.product is not ax0
    if dom.kind == "box":
        # One apply of the box inverse and one certifying product.
        assert info.iterations == 1


def _vortex_neighbourhood(dom, radius):
    """Interior sites within l1 distance `radius` of the box's center, nearest first."""
    dist = np.abs(dom.coords[: dom.n_interior] - dom.coords[: dom.n_interior].mean(axis=0)).sum(axis=1)
    order = np.argsort(dist, kind="stable")
    return order[: np.count_nonzero(dist <= radius)]


CORE_BOXES = [make_box(2, 5, center=(3, -2)), make_box(3, 3), LatticeDomain(2, itertools.product(range(9), range(-3, 1)))]
CORE_BOX_IDS = ["box-2d", "box-3d", "rectangle-9x4"]


def _cores(dom):
    """A single site, a vortex neighbourhood, and a core at the capacity, scattered over the box."""
    capacity = ShiftedLaplacianSystem(dom, 1.0).core_capacity
    scattered = np.random.default_rng(dom.n_interior).permutation(dom.n_interior)[:capacity]
    return {
        "one-site": _vortex_neighbourhood(dom, 0),
        "neighbourhood": _vortex_neighbourhood(dom, 2)[:capacity],
        "capacity": scattered,
    }


@pytest.mark.parametrize("dense", [True, False], ids=["rows-whole", "sub-grid"])
@pytest.mark.parametrize("backend", ["cg", "direct"])
@pytest.mark.parametrize("dom", CORE_BOXES, ids=CORE_BOX_IDS)
def test_core_solve_matches_band_elimination(monkeypatch, dom, backend, dense):
    # With a zero-shift core the box solve is the Woodbury-corrected box
    # inverse, by either form of the correction; the reference eliminates
    # diag(C) - Laplacian with no transform.
    if not dense:
        monkeypatch.setattr(linsolve, "_DENSE_CORE_VALUES", 0)
    for name, core in _cores(dom).items():
        for shift in (0.2, 1.3, 110.0):
            system = ShiftedLaplacianSystem(dom, shift)
            # Grown in two parts, as the solver grows it.
            system.grow_core(core[: len(core) // 2])
            system.grow_core(core[len(core) // 2 :])
            np.testing.assert_array_equal(system.core, core)
            diagonal = np.full(dom.n_interior, shift)
            diagonal[core] = 0.0
            f = np.random.default_rng(len(core)).uniform(-2, 2, dom.n_interior)
            w, info = solve_interior(system, f, backend=backend)
            ref = band_elimination_solve(dom, diagonal, f)
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max(), (name, shift)
            assert info.iterations == 1, (name, shift)
            # The product is M's: the naive matrix with the shift dropped on the core.
            matrix = naive_interior_matrix(dom, shift).toarray()
            matrix[core, core] -= shift
            x = RNG.uniform(-1, 1, dom.n_interior)
            assert np.abs(system.matvec(x) - matrix @ x).max() <= 1e-13


@pytest.mark.parametrize("dom", CORE_BOXES + [make_box(4, 2)], ids=CORE_BOX_IDS + ["box-4d"])
def test_closed_form_columns_equal_box_inverse_columns(dom):
    # P[i, j] in closed form from the axis sine rows, and P e_j from S e_j in
    # closed form, against P e_j from the two sine transforms of the box inverse.
    system = ShiftedLaplacianSystem(dom, 0.7)
    sines, eig_inv = system._spectral()
    sites = np.arange(dom.n_interior)
    columns = RNG.choice(sites, 5, replace=False)
    entries = linsolve._inverse_entries(sines, eig_inv, system._box, sites, columns)
    rows = linsolve._sine_rows(sines, system._box, columns)
    for col, j in enumerate(columns):
        unit = np.zeros(dom.n_interior)
        unit[j] = 1.0
        column = system.precondition(unit)
        assert np.abs(entries[:, col] - column).max() <= 1e-15
        # S e_j in closed form, then the second transform: the column again.
        assert np.abs(linsolve._sine_transform(sines, eig_inv * rows[col]) - column).max() <= 1e-15


def test_grow_core_rejects_what_it_cannot_hold():
    system = ShiftedLaplacianSystem(make_box(2, 3), 1.1)
    assert system.core_capacity == 14
    system.grow_core([24, 25])
    for sites in ([25], [3, 3], [-1], [system.size], list(range(30, 43))):
        with pytest.raises(ValueError):
            system.grow_core(sites)
    np.testing.assert_array_equal(system.core, [24, 25])
    # Off a box there is no box inverse to correct, so no core.
    ball = ShiftedLaplacianSystem(make_ball(2, 3), 1.1)
    assert ball.core_capacity == 0
    with pytest.raises(ValueError):
        ball.grow_core([0])
