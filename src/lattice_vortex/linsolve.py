"""Zero-boundary solves for the shift-damped lattice Laplacian.

The operator A = shift*I - Laplacian acts on interior sites; the boundary
is eliminated by the index ordering, and A is symmetric positive definite.
It is stored two ways, both read from the domain's neighbor table: as the
table itself, for the product A x, and as a LAPACK band, for the
Cholesky factor and for the Newton Jacobian (`damped_band`). On a full
axis-aligned box numpy forms A x from shifted slices of the box grid;
elsewhere it gathers each site's neighbors through the table.

On a box with no side over _BOX_MAX_SIDE the package holds A's exact
inverse P, by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
1964), and a solve takes one path whatever the backend: x = x0 +
P(b - A x0), or P(b) with no start, certified by one product A x. A miss
repeats the correction from the true residual, three passes in all.
Elsewhere the backends differ: `cg`, the default, runs conjugate
gradients preconditioned by the Jacobi diagonal, and `direct` factors A's
own band once by banded Cholesky, loading `scipy.linalg` for LAPACK. No
box solve loads scipy. Acceptance criterion 7 checks the e^(-mR) tail of
the solutions on a 2D chain of boxes (radii 4 to 32) against twice a
frozen outer-shell value of 6.1e-20; with the box inverse it reads
5.890e-20, as it did with CG and with either Cholesky factor. That bound
lies far below the solver's accuracy, so it tracks the iteration's path
rather than the solution: a zero-start solve of the last domain reads
6.1e-20, and the two solutions differ by 2.3e-10.

On such a box the shift can also be dropped on a zero-shift core S of
interior sites (`ShiftedLaplacianSystem.grow_core`, which
`chern_simons.solve_domain` drives). The operator becomes
M = A - shift E_S E_S^T, and the solve keeps its one exact path: M's
inverse is the Woodbury correction of P, built from P's entries on S in
closed form, and one product M x certifies it. `matrix_to_coo_text`
writes A at the scalar shift.

Every solve is certified against one product A x, which `solve_interior`
returns in `LinearSolveInfo.product`. A caller that solves again from
that x passes the product back as `ax0`, so the solve starts from
b - A x0 without forming A x0 a second time.

Note that solutions do not restrict across nested domains: each domain
re-pins its own boundary to zero, so the same right-hand side solved on a
larger domain gives different interior values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeDomain

__all__ = [
    "LinearSolveFailure",
    "LinearSolveInfo",
    "ShiftedLaplacianSystem",
    "damped_band",
    "solve_interior",
    "matrix_to_coo_text",
]

DEFAULT_TOL_LINEAR = 1e-12

# The sine transforms of the box inverse hold one dense side x side matrix
# per axis and cost O(n * sum of sides) per apply; a Jacobi-CG iteration
# costs O(n). In p=0 solves (BLAS at one thread) the box inverse was faster
# on every box with longest side up to 385 for squares and 257 for 5-wide
# strips, and slower on 385x5, 513x5 and 1025x5 strips; boxes with a longer
# side keep the backends' own solves. The product A x takes the box grid on
# any full box.
_BOX_MAX_SIDE = 320
# Terms per batch in `_inverse_entries`: 8 MB of partial sums.
_GATHER_VALUES = 2**20
# A box whose largest core, times its sites, is at most this many values
# (512 kB) holds the core's rows of S whole. In process, two matvecs per
# apply and one matmul per growth cost less than the sub-grid transforms
# and the closed-form entries on a 17 x 17 box, and more on the 17^3 box
# (435 against 292 us a step).
_DENSE_CORE_VALUES = 2**16


class LinearSolveFailure(RuntimeError):
    """Raised when a backend cannot meet the requested residual.

    `solve_domain` sets `trace` to the steps taken before the failing solve.
    """

    kind = "linear_solve"
    trace = None

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (attained residual {residual:.3e})")
        self.residual = residual


@dataclass
class LinearSolveInfo:
    iterations: int
    # A @ x, the product the residual was certified against.
    product: np.ndarray = field(repr=False)


def damped_band(domain: LatticeDomain) -> np.ndarray:
    """diag(d) - Laplacian on the interior in LAPACK upper band storage, the diagonal d unset.

    Entry (i, j), i <= j, sits at [bw + i - j, j], where the band width bw
    is the largest j - i of an interior edge (the first-axis stride on a
    box), so the last row, row bw, is the diagonal; it is left zero.
    Writing d + 2n there gives diag(d) - Laplacian exactly, since the
    Laplacian's diagonal is -2n. The band has shape (bw + 1, n_interior)
    in Fortran order, LAPACK's own layout, and holds
    (bw + 1) * n_interior * 8 bytes. The edges come from the domain's
    `interior_edges`, derived once per domain.
    """
    lower, upper = domain.interior_edges[0]
    bw = _band_width(domain)
    band = np.zeros((bw + 1, domain.n_interior), order="F")
    band[bw - (upper - lower), upper] = -1.0
    return band


def _band_width(domain: LatticeDomain) -> int:
    """The band width bw of `damped_band`: the largest j - i of an interior edge (i, j), i < j."""
    lower, upper = domain.interior_edges[0]
    return int((upper - lower).max(initial=0))


class ShiftedLaplacianSystem:
    """shift*I - Laplacian on interior sites (SPD for shift > 0): product, preconditioner, factor.

    Whether the interior is a full box (`_box_shape`) picks the product:
    shifted slices of the box grid (`_box_product`) on a box, a gather
    through the neighbor table (`_gather_product`) elsewhere. A box whose
    sides are all up to _BOX_MAX_SIDE (`_box`) also takes the exact
    inverse as its preconditioner; any other interior takes the Jacobi
    diagonal, and the direct backend factors A's own band there
    (`cholesky`). A shift that is not positive and finite raises
    ValueError.

    On a `_box` the shift can be dropped on a zero-shift core S of interior
    sites (`grow_core`). The operator is then M = A - shift E_S E_S^T,
    diagonal 2n on S and shift + 2n elsewhere, still SPD, and `matvec` and
    `precondition` are M's product and M's exact inverse, the Woodbury
    correction of the box inverse P:

        M^-1 r = P r + Z K^-1 (P r)_S,  Z = P E_S,  K = I/shift - Z_S.

    K is k x k and SPD, because M is. P = S Lambda^-1 S (`_box_spectrum`),
    so with T the k rows S e_j, j in S, Z = S Lambda^-1 T^T and the
    correction runs between P's two sine transforms: y = Lambda^-1 S r,
    then y += Lambda^-1 T^T K^-1 T y, then S y. A small box (at most
    _DENSE_CORE_VALUES in k n at the capacity) holds T whole, in closed
    form (`_sine_rows`). Any other box stores no n x k array: T y and
    T^T c are S restricted to the bounding sub-grid of S and expanded from
    it, axis by axis, at most the cost of the transforms, and the new
    entries of Z_S come in closed form (`_inverse_entries`) as S grows.
    S holds at most `core_capacity` sites, the sum of the box sides, which
    bounds K and its k^3 inversion. Off a `_box` the capacity is 0 and S
    stays empty.
    """

    def __init__(self, domain: LatticeDomain, shift: float):
        if not 0 < shift < math.inf:  # NaN fails too; an infinite shift has no system
            raise ValueError(f"shift must be positive and finite, got {shift!r}")
        self.domain = domain
        self.shift = float(shift)
        self._cholesky = None
        self._spectrum = None
        grid = _box_shape(domain)
        if grid is None:
            self._product = functools.partial(_gather_product, _gather_index(domain))
        else:
            self._product = functools.partial(_box_product, _padded_layout(grid))
        # The diagonal `_product` takes: shift + 2n, or with a core M's diagonal
        # on the zero-padded grid of `_box_product`.
        self._diagonal = self.shift + 2 * domain.dimension
        self._box = grid if grid is not None and max(grid) <= _BOX_MAX_SIDE else None
        self.core = np.empty(0, dtype=np.intp)
        self.core_capacity = 0 if self._box is None else sum(self._box)
        # Z_S on the sub-grid path, and the correction y += Lambda^-1 T^T K^-1 T y
        # that `precondition` applies in place; None while S is empty.
        self._core_block = self._core_correction = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x, each row summed in ascending column order (`_gather_index`); M @ x with a core.

        Both products add a row's terms in the order a sorted-column CSR
        product does, so they give its bits, the sign of zero included.
        """
        return self._product(self._diagonal, x)

    def grow_core(self, sites: np.ndarray) -> None:
        """Add interior sites to the zero-shift core S: their entries of Z_S, then K^-1 anew.

        Raises ValueError for a site already in S or outside the interior,
        and for a core past `core_capacity`, which is 0 off a `_box`.
        """
        old, sites = len(self.core), np.asarray(sites, dtype=np.intp)
        if not len(sites):
            return
        core = np.concatenate([self.core, sites])
        if len(core) > self.core_capacity:
            raise ValueError(f"a core of {len(core)} sites exceeds the capacity {self.core_capacity}")
        ordered = np.sort(core)
        if not (0 <= ordered[0] and ordered[-1] < self.size and (np.diff(ordered) > 0).all()):
            raise ValueError("core sites must be distinct interior sites")
        diagonal = np.full(self.size, self.shift + 2 * self.domain.dimension)
        diagonal[core] = 2 * self.domain.dimension
        shape, padded, grid, _ = self._product.args[0]
        self._diagonal = np.zeros(math.prod(padded))
        self._diagonal.reshape(padded)[grid] = diagonal.reshape(shape)
        sines, eig_inv = self._spectral()
        if self.core_capacity * self.size <= _DENSE_CORE_VALUES:
            # A small box holds T whole and rebuilds Z_S from it.
            rows = _sine_rows(sines, self._box, core)
            scaled = eig_inv * rows
            k_inverse = np.linalg.inv(np.eye(len(core)) / self.shift - scaled @ rows.T)
            self.core = core
            self._core_correction = functools.partial(_dense_correction, k_inverse @ rows, scaled)
            return
        # The core's bounding sub-grid, the axis sine rows there, and the
        # core's places in the sub-grid.
        coords = np.array(np.unravel_index(core, self._box))
        low, high = coords.min(axis=1), coords.max(axis=1) + 1
        expand = [s[lo:hi] for s, lo, hi in zip(sines, low, high)]
        restrict = [np.ascontiguousarray(e.T) for e in expand]
        sub = high - low
        at = np.ravel_multi_index(coords - low[:, None], sub)
        # Row j of the new block is column j of P restricted to S.
        new = _inverse_entries(sines, eig_inv, self._box, sites, core)
        block = np.empty((len(core), len(core)))
        if old:
            block[:old, :old] = self._core_block
        block[old:] = new
        block[:old, old:] = new[:, :old].T
        self.core, self._core_block = core, block
        k_inverse = np.linalg.inv(np.eye(len(core)) / self.shift - block)
        self._core_correction = functools.partial(
            _subgrid_correction, restrict, expand, at, np.zeros(sub.prod()), k_inverse, eig_inv
        )

    def _spectral(self):
        """`_box_spectrum` of the `_box`, built on first use."""
        if self._spectrum is None:
            self._spectrum = _box_spectrum(self._box, self.shift)
        return self._spectrum

    def cholesky(self) -> np.ndarray:
        """The upper Cholesky factor of A's `damped_band`, by LAPACK `dpbtrf` on first use.

        Raises LinearSolveFailure when LAPACK finds the band not positive
        definite.
        """
        if self._cholesky is None:
            from scipy.linalg import lapack

            band = damped_band(self.domain)
            band[-1] = self.shift + 2 * self.domain.dimension
            # The band is already in Fortran order, so LAPACK factors it in place.
            factor, info = lapack.dpbtrf(band, overwrite_ab=1)
            if info != 0:
                raise LinearSolveFailure(
                    f"banded Cholesky factorization failed (info {info})", math.nan
                )
            self._cholesky = factor
        return self._cholesky

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The preconditioner applied to r: the exact inverse on a `_box`, Jacobi otherwise."""
        if self._box is None:
            # Every diagonal entry of A is shift + 2n.
            return (1.0 / (self.shift + 2 * self.domain.dimension)) * r
        sines, eig_inv = self._spectral()
        y = eig_inv * _sine_transform(sines, r)
        if self._core_correction is not None:
            self._core_correction(y)
        return _sine_transform(sines, y)

    @property
    def size(self) -> int:
        return self.domain.n_interior


def _box_shape(domain: LatticeDomain) -> list[int] | None:
    """The grid shape of a full-box interior, else None.

    The interior is a full axis-aligned box exactly when its size equals the
    product of its coordinate extents. Interior sites are sorted
    lexicographically, so the interior vector is that grid in C order.
    """
    coords = domain.coords[: domain.n_interior]
    shape = [int(m) for m in coords.max(axis=0) - coords.min(axis=0) + 1]
    if math.prod(shape) != domain.n_interior:
        return None
    return shape


def _padded_layout(shape: list[int]):
    """The zero-padded buffer layout of `_box_product` for a box grid of the given shape.

    Every axis but the first gets one trailing zero slot, and a band of
    zeros one first-axis stride long goes before and after. A step of -1
    or +1 along axis k is then a shift by that axis's stride which, from
    the grid's edge, lands on a zero, so each neighbor term of A x is a
    contiguous slice of the buffer. Returns the grid shape, the padded
    shape, the grid's index within it and the padded axis strides.
    """
    padded = (shape[0], *(m + 1 for m in shape[1:]))
    strides = [math.prod(padded[k + 1 :]) for k in range(len(shape))]
    grid = (slice(None),) + (slice(None, -1),) * (len(shape) - 1)
    return tuple(shape), padded, grid, strides


def _gather_index(domain: LatticeDomain) -> np.ndarray:
    """The interior neighbors as a (2n, n_interior) array, rows -e1, ..., -en, +en, ..., +e1.

    That is ascending index order: interior sites are sorted
    lexicographically, so x - e1 < ... < x - en < x < x + en < ... < x + e1,
    and A's diagonal entry goes between the two halves. The table's
    columns are +e1, -e1, +e2, ..., so -ek is column 2k - 1 and +ek column
    2k - 2. A boundary neighbor becomes n_interior, the slot past the
    interior values that `_gather_product` fills with zero.
    """
    minus = [2 * k + 1 for k in range(domain.dimension)]
    columns = domain.interior_neighbors[:, minus + [c - 1 for c in reversed(minus)]]
    return np.ascontiguousarray(np.minimum(columns, domain.n_interior).T)


def _gather_product(index: np.ndarray, diagonal: float, x: np.ndarray) -> np.ndarray:
    """A @ x on any interior; `index` is its `_gather_index`, `diagonal` shift + 2n.

    The terms of a row are summed in ascending column order, as in
    `_box_product`: x at the neighbors before the site, minus diagonal *
    x, then x at the neighbors after it, each boundary neighbor reading
    the zero slot. The sum is formed negated and subtracted from +0.0.
    """
    padded = np.append(x, 0.0)
    half = len(index) // 2
    acc = padded[index[0]]
    for rows in index[1:half]:
        acc += padded[rows]
    acc -= diagonal * x
    for rows in index[half:]:
        acc += padded[rows]
    return np.subtract(0.0, acc)


def _box_product(layout, diagonal: float, x: np.ndarray) -> np.ndarray:
    """A @ x on a full-box interior; `layout` is `_padded_layout` of its grid.

    `diagonal` is shift + 2n, or an array of the diagonal on the padded grid.

    A CSR product with sorted columns sums a row in ascending column
    order, which on the lexicographic grid is -x at the -e1, ..., -en
    neighbors, diagonal * x, then -x at the +en, ..., +e1 neighbors,
    skipping boundary neighbors. Here each term is a shifted slice of x in
    the zero-padded layout, so a boundary neighbor adds zero and whole
    arrays are summed in that order. The sum is formed negated, which
    gives the same bits since rounding is symmetric, and subtracting it
    from +0.0 gives CSR's +0.0 where a row sums to zero.
    """
    shape, padded, grid, strides = layout
    band = strides[0]
    size = band * padded[0]
    buf = np.zeros(size + 2 * band)

    def shifted(step):
        return buf[band + step : band + step + size]

    center = shifted(0)
    center.reshape(padded)[grid] = x.reshape(shape)
    acc = shifted(-strides[0]) + shifted(-strides[1])
    for step in strides[2:]:
        acc += shifted(-step)
    acc -= diagonal * center
    for step in reversed(strides):
        acc += shifted(step)
    return np.subtract(0.0, acc.reshape(padded)[grid]).reshape(-1)


@functools.lru_cache(maxsize=8)
def _axis_sines(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The sine matrix S and the eigenvalues mu of the 1D Dirichlet Laplacian on m sites.

    S[j, k] = sqrt(2 / (m + 1)) sin(pi j k / (m + 1)) is orthonormal and
    symmetric, and S T S = diag(mu) with mu_k = 2 - 2 cos(pi k / (m + 1)),
    T = tridiag(-1, 2, -1). Both arrays are cached, so they are read-only.
    """
    k = np.arange(1, m + 1)
    sines = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    mu = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    sines.flags.writeable = mu.flags.writeable = False
    return sines, mu


def _box_spectrum(shape: list[int], shift: float):
    """The axis sine matrices of a box grid and 1 / the eigenvalues of shift*I - Laplacian on it.

    The orthonormal, symmetric sine matrix of each axis diagonalizes the 1D
    Dirichlet Laplacian (`_axis_sines`), so the operator's inverse is
    S (1/Lambda) S with S the tensor product of the axis sine matrices.
    """
    sines = []
    eig = np.float64(shift)
    for m in shape:
        s, mu = _axis_sines(m)
        sines.append(s)
        eig = np.add.outer(eig, mu)
    return sines, 1.0 / eig.ravel()


def _sine_transform(sines, x: np.ndarray) -> np.ndarray:
    """S x for a grid vector x, S the tensor product of the axis matrices `sines`, flattened.

    Each matmul applies one axis's matrix to the leading axis and rotates
    it to the back; after one pass per axis the order is restored. An axis
    matrix of shape (a, m) maps that axis from a to m points, so rows of
    the sine matrices restrict S to a sub-grid or expand from one.
    """
    for s in sines:
        x = x.reshape(len(s), -1).T @ s
    return x.reshape(-1)


def _sine_rows(sines, shape: list[int], sites: np.ndarray) -> np.ndarray:
    """S e_j for the interior sites j of a full box, as the rows of a (len(sites), n) array.

    S is the tensor product of the symmetric axis sine matrices, so S e_j
    is the tensor product of their rows at j's grid coordinates: a closed
    form, with no transform.
    """
    coords = np.unravel_index(sites, shape)
    rows = sines[0][coords[0]]
    for s, c in zip(sines[1:], coords[1:]):
        rows = (rows[:, :, None] * s[c][:, None, :]).reshape(len(sites), -1)
    return rows


def _dense_correction(v: np.ndarray, w: np.ndarray, y: np.ndarray) -> None:
    """y += Lambda^-1 T^T K^-1 T y, from V = K^-1 T and W = Lambda^-1 T held whole."""
    y += (v @ y) @ w


def _subgrid_correction(restrict, expand, at, sub, k_inverse, eig_inv, y: np.ndarray) -> None:
    """y += Lambda^-1 T^T K^-1 T y, with T y and T^T c through the core's bounding sub-grid.

    `restrict` and `expand` hold the axis sine rows at the sub-grid's
    coordinates, `at` the core's places in it; `sub`, a sub-grid buffer,
    is zero off those places, which alone are written.
    """
    sub[at] = k_inverse @ _sine_transform(restrict, y)[at]
    correction = _sine_transform(expand, sub)
    correction *= eig_inv
    y += correction


def _inverse_entries(sines, eig_inv: np.ndarray, shape: list[int], rows, cols) -> np.ndarray:
    """P[i, j] for the interior sites i in `rows` and j in `cols` of a full box, as a 2D array.

    P = S Lambda^-1 S (`_box_spectrum`), and S is the tensor product of the
    symmetric axis sine matrices, so in closed form

        P[i, j] = sum over modes q of Lambda^-1[q] prod_a S_a[i_a, q_a] S_a[j_a, q_a].

    The sum over the last axis is taken once per distinct pair (i_last,
    j_last), by one matmul; the other axes' n / m_last terms of each entry
    follow, for at most _GATHER_VALUES terms at a time.
    """
    *head, last = sines
    ci = [np.repeat(c, len(cols)) for c in np.unravel_index(rows, shape)]
    cj = [np.tile(c, len(rows)) for c in np.unravel_index(cols, shape)]
    pairs, which = np.unique(ci[-1] * len(last) + cj[-1], return_inverse=True)
    v, w = np.divmod(pairs, len(last))
    partial = (eig_inv.reshape(-1, len(last)) @ (last[v] * last[w]).T).T
    entries = np.empty(len(which))
    step = max(1, _GATHER_VALUES // partial.shape[1])
    for lo in range(0, len(which), step):
        at = slice(lo, lo + step)
        terms = partial[which[at]]
        for s, a, b in zip(reversed(head), reversed(ci[:-1]), reversed(cj[:-1])):
            # Contract the last remaining axis, batched over the entries.
            factor = s[a[at]] * s[b[at]]
            terms = np.matmul(terms.reshape(len(factor), -1, len(s)), factor[:, :, None])
        entries[at] = terms.reshape(-1)
    return entries.reshape(len(rows), len(cols))


def _pcg(system, x, r, tol_abs, max_iterations):
    """Preconditioned conjugate gradients with an infinity-norm stop.

    Updates x and its residual r = b - A x in place.
    """
    iterations = 0
    if np.abs(r).max() <= tol_abs:
        return iterations
    p = z = system.precondition(r)
    rz = float(r @ z)
    for iterations in range(1, max_iterations + 1):
        mp = system.matvec(p)
        pmp = float(p @ mp)
        # p.Ap leaves (0, inf) only once the recurrence residual has underflowed;
        # this pass moved nothing, and certification reports the residual.
        if not 0.0 < pmp < math.inf:
            return iterations - 1
        alpha = rz / pmp
        x += alpha * p
        r -= alpha * mp
        if np.abs(r).max() <= tol_abs:
            break
        z = system.precondition(r)
        rz_next = float(r @ z)
        # r.z underflows to 0 only with the recurrence residual; no direction
        # follows, and certification reports the true residual.
        if rz_next == 0.0:
            return iterations
        p = z + (rz_next / rz) * p
        rz = rz_next
    return iterations


def solve_interior(
    system: ShiftedLaplacianSystem,
    f,
    *,
    backend: str = "cg",
    atol: float = math.inf,
    x0=None,
    ax0=None,
):
    """Solve (Laplacian - shift) w = f over interior values.

    Returns the interior solution array and solve statistics. The residual
    is certified in the infinity norm against
    min(DEFAULT_TOL_LINEAR * (1 + |f|_inf), atol) on every path: the box
    inverse takes at most three passes, CG at most 10 * n_interior
    iterations. A miss raises LinearSolveFailure, as does
    a right-hand side or an attained residual that is not finite; its
    `residual` is then not finite either. `info.iterations` counts box
    passes or CG iterations, and is 1 for a Cholesky solve.
    `info.product` is the certifying product A w, A = shift*I - Laplacian.
    `ax0`, when given, must be A @ x0, typically the product of the solve
    that returned x0; the solve then starts without multiplying by A.
    `x0` and `ax0` are never modified.
    """
    if backend not in ("cg", "direct"):
        raise ValueError(f"unknown backend {backend!r}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (system.size,):
        raise ValueError(f"rhs length {f.shape} does not match system size {system.size}")
    # A is -(Laplacian - shift), which is SPD.
    b = -f
    b_max = float(np.abs(b).max())
    # NaN and inf both propagate through max; a non-finite rhs has no
    # solution to certify, so no backend runs on it.
    if not math.isfinite(b_max):
        raise LinearSolveFailure(f"non-finite right-hand side (|f|_inf = {b_max})", math.nan)
    tol_abs = min(DEFAULT_TOL_LINEAR * (1.0 + b_max), atol)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
    if system._box is not None:
        # P is exact up to rounding, so each pass corrects x by P applied to
        # its true residual and one product certifies the result.
        x = x0
        r = b if x0 is None else b - (system.matvec(x0) if ax0 is None else ax0)
        for iterations in range(1, 4):
            step = system.precondition(r)
            x = step if x is None else x + step
            ax = system.matvec(x)
            r = b - ax
            attained = float(np.abs(r).max())
            # Written so that a NaN residual stops too.
            if not attained > tol_abs:
                break
    elif backend == "direct":
        from scipy.linalg import lapack

        x, info = lapack.dpbtrs(system.cholesky(), b)
        if info != 0:
            raise LinearSolveFailure(f"banded Cholesky solve failed (info {info})", math.nan)
        iterations = 1
        ax = system.matvec(x)
        attained = float(np.abs(b - ax).max())
    else:
        limit = 10 * system.size
        # Target a quarter of the budget internally: the recurrence residual
        # drifts from the true one near convergence. Restart from the true
        # residual if certification still misses.
        if x0 is None:
            x = np.zeros_like(b)
            r = b.copy()
        else:
            x = x0.copy()
            r = b - (system.matvec(x) if ax0 is None else ax0)
        iterations = 0
        for _ in range(3):
            iterations += _pcg(system, x, r, 0.25 * tol_abs, max(limit - iterations, 0))
            ax = system.matvec(x)
            r = b - ax
            attained = float(np.abs(r).max())
            if attained <= tol_abs or iterations >= limit:
                break
    # Written so that a NaN residual fails too.
    if not attained <= tol_abs:
        raise LinearSolveFailure(f"{backend} backend missed tolerance {tol_abs:.3e}", attained)
    return x, LinearSolveInfo(iterations, ax)


def matrix_to_coo_text(system: ShiftedLaplacianSystem) -> str:
    """Coordinate dump of A, one '<row> <col> <value>' line per entry, zero-based.

    Rows ascend, and so do the columns within a row. An edge enters as -1
    and the diagonal as shift + 2n, written to 17 significant digits.
    """
    domain = system.domain
    n_int = domain.n_interior
    index = _gather_index(domain)
    half = domain.dimension
    table = np.concatenate([index[:half], np.arange(n_int)[None], index[half:]]).T
    diagonal = format(system.shift + 2 * domain.dimension, ".17g")
    lines = [
        f"{i} {j} {diagonal if i == j else -1}"
        for i, row in enumerate(table.tolist())
        for j in row
        if j < n_int
    ]
    return "\n".join(lines) + "\n"
