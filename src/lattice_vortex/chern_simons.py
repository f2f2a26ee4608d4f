"""Vortex model on a finite lattice domain and its monotone solution scheme.

The equation couples the graph Laplacian to the stiff source term
lam * e^u (e^u - 1)^(2p+1) plus point charges of strength 4*pi*n_j. With the
damping shift 1.1*kappa(p)*lam, above the supremum kappa(p)*lam of the
nonlinearity's slope over u <= 0, repeatedly solving the linear problem

    (Laplacian - C) u_new = nonlinearity(u_old) + h - C * u_old

from u = 0, or from a supersolution, produces iterates that decrease
pointwise and drive an energy functional downward, converging to the
maximal zero-boundary solution. The diagonal C is the shift, except on a
zero-shift core: on a box, sites deep in a vortex where the slope is
negative below the iterate, so no damping is needed (`solve_domain`).
The loop enforces the pointwise decrease: a step that rises aborts the run.
Each step's energy, step change, residual and l^(2p+2) norm are recorded,
the row `trace.csv` writes, so the energy decrease can be audited after
the fact. `newton_solve`, damped Newton on the one `residual` and its one
`jacobian`, witnesses on small instances that the scheme's fixed point
solves the equation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .calculus import (
    LatticeField, _ipow, _require_same_domain, _require_zero_boundary, from_interior, laplacian_interior
)
from .lattice import LatticeDomain, LatticePoint, json_integer, json_point, json_real
from .linsolve import (
    LinearSolveFailure, ShiftedLaplacianSystem, _band_width, damped_band,
    solve_interior,
)

__all__ = [
    "FOUR_PI",
    "MONOTONE_SLACK",
    "kappa",
    "ModelParams",
    "VortexConfig",
    "TraceRecord",
    "IterationTrace",
    "SolveFailure",
    "ConvergenceFailure",
    "StagnationFailure",
    "MonotonicityBreakdown",
    "NonFiniteBreakdown",
    "NewtonFailure",
    "source_h",
    "nonlinearity",
    "nonlinearity_derivative",
    "solve_domain",
    "residual",
    "jacobian",
    "newton_solve",
    "max_principle_check",
]

FOUR_PI = 4.0 * math.pi

# Pointwise decrease holds exactly in exact arithmetic; this slack absorbs
# rounding only. A larger rise aborts the run.
MONOTONE_SLACK = 1e-9
# A site joins the zero-shift core once it lies this far below -ln(2p+2),
# a thousand times the rise MONOTONE_SLACK lets a step make, so rounding
# cannot carry a core site above the level where N' changes sign.
_CORE_MARGIN = 1e-6
# Bytes of the (3 bw + 1)-row array that `jacobian` fills and each Newton
# step LU-factors in place; the step peaks at 4/3 of it, with the upper
# band it is filled from. The budget admits every box of up to 10,000
# sites in up to seven dimensions: the 21^3 cube (bw 441) needs 98 MB and
# the 4D box of half-width 4 (6,561 sites, bw 729) 115 MB. A 2 x 5,000
# strip (bw 5,000) would need 1.2 GB, the 8D box of half-width 1 344 MB.
_NEWTON_MAX_BYTES = 2**27
_NEWTON_TOL = 1e-12  # sup-norm residual at which newton_solve returns
_NEWTON_MAX_ITERATIONS = 50
# max_principle_check's rounding allowance on its hypotheses and its conclusion.
_MAX_PRINCIPLE_SLACK = 1e-12


class SolveFailure(RuntimeError):
    """Base class for nonlinear-solve failures; carries the trace so far and its CLI `kind`."""

    kind = "solver"

    def __init__(self, message: str, trace: "IterationTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class ConvergenceFailure(SolveFailure):
    kind = "max_iterations"


class StagnationFailure(ConvergenceFailure):
    """A step left the iterate exactly unchanged while the residual was above tolerance."""

    kind = "stagnated"


class MonotonicityBreakdown(SolveFailure):
    kind = "monotonicity"


class NonFiniteBreakdown(SolveFailure):
    """The iteration met NaN or inf, so no ordering or stop test means anything."""

    kind = "non_finite"


class NewtonFailure(SolveFailure):
    """`newton_solve` met a singular Jacobian, an exhausted line search or its step budget."""


def kappa(p: int) -> float:
    """Supremum over u <= 0 of the nonlinearity's slope, per unit lam.

    The damped step keeps its ordering when nonlinearity(u) - shift*u does
    not increase on the iterate range u <= 0, that is when shift is at
    least sup_{u<=0} nonlinearity_derivative(u) = kappa(p)*lam. With
    s = e^u in (0, 1],

        kappa_p = max_{0<s<=1} s (1-s)^(2p) ((2p+2) s - 1).

    The factor is negative below s = 1/(2p+2) and vanishes at s = 1 when
    p >= 1. Setting the logarithmic derivative to zero gives
    (2p+2)^2 s^2 - (6p+5) s + 1 = 0, whose larger root

        s* = (6p+5 + sqrt(20p^2 + 28p + 9)) / (8(p+1)^2)

    is the maximizer: kappa_1 = 0.13505, kappa_2 = 0.07259 and
    kappa_3 = 0.04951. At p = 0 the root is the endpoint s* = 1, where
    s (2s - 1) is largest, so kappa_0 = 1.
    """
    s = (6 * p + 5 + math.sqrt(20 * p * p + 28 * p + 9)) / (8 * (p + 1) ** 2)
    return s * (1.0 - s) ** (2 * p) * ((2 * p + 2) * s - 1.0)


@dataclass
class ModelParams:
    """Model and solver parameters.

    The damping `shift` is not an input: it is 1.1 times kappa(p)*lam, the
    slope bound the per-step comparison argument needs. The error
    contracts by about shift/(shift + mu) per step, mu the lowest
    eigenvalue of -Laplacian + N'(u*), so the step count grows with the
    shift. The 10% margin keeps it near the bound yet clear of it: over
    p <= 3 and lam from 1e-2 to 1e3, every step of shifts 1.0001 to 2
    times the bound stayed monotone and energy-decreasing.
    Each ValueError message begins with the field it rejects.
    """

    lam: float
    p: int = 0
    tol_nonlinear: float = 1e-10
    tol_residual: float = 1e-8
    max_outer_iterations: int = 50_000

    def __post_init__(self):
        # Booleans, strings, NaN and inf are rejected before any comparison.
        for name in ("lam", "tol_nonlinear", "tol_residual"):
            setattr(self, name, json_real(getattr(self, name), name))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.p = json_integer(self.p, "p")
        if self.p < 0:
            raise ValueError("p must be a non-negative integer")
        try:
            shift = self.shift
        except OverflowError:  # kappa's sqrt(20 p^2) leaves the float range above p ~ 3e153
            raise ValueError("p is too large: kappa(p) overflows a float") from None
        if not 0 < shift < math.inf:  # lam over- or underflows the shift
            raise ValueError(f"lam {self.lam!r} gives shift {shift!r}, not positive and finite")
        self.max_outer_iterations = json_integer(self.max_outer_iterations, "max_outer_iterations")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")

    @property
    def shift(self) -> float:
        """The damping shift, 1.1 * kappa(p)*lam."""
        return 1.1 * (kappa(self.p) * self.lam)


@dataclass(frozen=True)
class VortexConfig:
    """Point charges: locations with positive integer multiplicities.

    Each point must be a list of integral coordinates and each
    multiplicity an integral number (integral floats are accepted) with
    a finite charge 4*pi*n; other shapes, fractions, booleans and larger
    numbers raise ValueError rather than being truncated to another vortex.
    """

    vortices: tuple[tuple[LatticePoint, int], ...]

    def __post_init__(self):
        normalized = []
        seen = set()
        for point, multiplicity in self.vortices:
            pt = json_point(point, name="vortex point")
            n = json_integer(multiplicity, f"multiplicity at {pt}")
            if n < 1:
                raise ValueError(f"multiplicity at {pt} must be a positive integer")
            # 4*pi*2**1023 is already inf, and a larger int cannot convert to float.
            if not math.isfinite(FOUR_PI * min(n, 2**1023)):
                raise ValueError(f"multiplicity at {pt} must have a finite charge 4*pi*n")
            if pt in seen:
                raise ValueError(f"duplicate vortex point {pt}")
            seen.add(pt)
            normalized.append((pt, n))
        object.__setattr__(self, "vortices", tuple(normalized))

    def __len__(self) -> int:
        return len(self.vortices)

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return tuple(p for p, _ in self.vortices)


@dataclass
class TraceRecord:
    """One step of the outer iteration: a row of `trace.csv`."""

    k: int
    j_value: float
    sup_change: float
    residual_inf: float
    l2p2_norm: float


class IterationTrace:
    """Per-step audit log of the outer iteration."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def write_csv(self, path):
        """One row per step: the bytes of csv.writer (CRLF rows), values at 17 significant digits.

        The steps' fields, flattened into one list, fill the row format
        repeated once per step, so the file is rendered by a single `%`.
        """
        flat = [
            v for r in self.records for v in (r.k, r.j_value, r.sup_change, r.residual_inf, r.l2p2_norm)
        ]
        with open(path, "w", newline="") as fh:
            fh.write("k,J,sup_change,residual,l2p2_norm\r\n")
            fh.write(("%d" + ",%.17g" * 4 + "\r\n") * len(self.records) % tuple(flat))


def source_h(domain: LatticeDomain, vortices: VortexConfig) -> LatticeField:
    """Point-charge field: 4*pi*multiplicity at each vortex, zero elsewhere."""
    vals = np.zeros(domain.n_closure)
    for point, multiplicity in vortices.vortices:
        idx = domain.locate(point)
        if not 0 <= idx < domain.n_interior:
            raise ValueError(f"vortex point {point} is not interior to the domain")
        vals[idx] = FOUR_PI * multiplicity
    return LatticeField(domain, vals)


def _nonlinearity_parts(u, params: ModelParams):
    """N(u) and (e^u - 1)^(2p+2), the latter for the potential of J, from one expm1."""
    em1 = np.expm1(u)
    odd = _ipow(em1, 2 * params.p + 1)
    return params.lam * np.exp(u) * odd, odd * em1


def nonlinearity(u, params: ModelParams):
    """lam * e^u (e^u - 1)^(2p+1); accepts scalars or arrays.

    e^u - 1 goes through expm1 so the far field (u near zero) keeps full
    relative accuracy. Non-positive u gives a non-positive value; large
    positive u overflows, which the solver never produces.
    """
    return _nonlinearity_parts(u, params)[0]


def nonlinearity_derivative(u, params: ModelParams):
    """Derivative in u: lam * e^u (e^u - 1)^(2p) * ((2p+2) e^u - 1)."""
    eu = np.exp(u)
    em1 = np.expm1(u)
    return params.lam * eu * _ipow(em1, 2 * params.p) * ((2 * params.p + 2) * eu - 1.0)


# The smallest positive normal float.
_NORMAL_MIN = sys.float_info.min


def _even_norm(w: np.ndarray, m: int) -> float:
    """The l^m norm of w for an even m (so w ** m is |w| ** m).

    Where the plain sum of w ** m leaves the normal floats (past 1.8e308
    once |w| > 1.43 at p = 1000, or below 2.2e-308), it is taken as
    M |w / M|_m with M = max |w|, whose terms are at most 1. The caller
    silences the overflow warning of the plain sum.
    """
    total = _ipow(w, m).sum()
    if _NORMAL_MIN <= total < math.inf:
        return float(total ** (1.0 / m))
    big = float(np.abs(w).max())
    if not 0.0 < big < math.inf:
        # A zero or non-finite field, which scaling cannot help.
        return float(total ** (1.0 / m))
    return big * float(_ipow(w / big, m).sum() ** (1.0 / m))


def _start_interior(u: LatticeField, domain: LatticeDomain, name: str) -> np.ndarray:
    """A copy of the interior of a start field: on `domain`, zero boundary, finite, non-positive."""
    if u.domain is not domain:
        raise ValueError(f"{name} lives on a different domain")
    _require_zero_boundary(u, name)
    if not np.isfinite(u.values).all() or float(u.values.max()) > MONOTONE_SLACK:
        raise ValueError(f"{name} must be finite and non-positive")
    return u.interior.copy()


def _core_candidates(u: np.ndarray, level: float, system: ShiftedLaplacianSystem):
    """Sites off the core with u <= level, deepest first, as many as the core has room for.

    Also returns the least u over the sites that stay off the core.
    """
    outside = u.copy()
    outside[system.core] = math.inf
    new = np.flatnonzero(outside <= level)
    new = new[np.argsort(u[new], kind="stable")[: system.core_capacity - len(system.core)]]
    outside[new] = math.inf
    return new, float(outside.min(initial=math.inf))


def solve_domain(
    domain: LatticeDomain,
    vortices: VortexConfig,
    params: ModelParams,
    *,
    u_init: LatticeField | None = None,
) -> tuple[LatticeField, IterationTrace]:
    """Run the monotone scheme from zero, or from `u_init`, until both stop criteria hold.

    Stops when the sup-norm step change falls below tol_nonlinear and the
    equation defect falls below tol_residual; either alone can flatter a
    stalled run. Returns the solution field (zero boundary, non-positive
    interior) and the full per-step trace.

    Step k solves (Laplacian - C_k) u_k = N(u_{k-1}) + h - C_k u_{k-1}. Its
    diagonal C_k is the shift, except on a zero-shift core S where it is 0
    (`ShiftedLaplacianSystem.grow_core`). On a box, before each step
    every site off S with u_{k-1} <= -ln(2p+2) - _CORE_MARGIN joins
    S, deepest first, until S holds the system's `core_capacity`; S never
    shrinks, and off a box the capacity is 0. The level is where
    N'(xi) = lam e^xi (e^xi - 1)^(2p) ((2p+2) e^xi - 1) changes sign:
    N' <= 0 for every xi <= -ln(2p+2). The scheme's two arguments hold for
    this C_k as for the scalar shift:
    - Order. Let u* <= 0 be a solution with u* <= u_{k-1}. The step map T_k
      is order-preserving on [u*, u_{k-1}] when C_k >= N' there: off S by
      the shift's bound kappa(p) lam, on S because N' <= 0 below
      u_{k-1} <= -ln(2p+2). So u_k = T_k(u_{k-1}) >= T_k(u*) = u*.
    - Decrease. By the mean value theorem the residual
      R(u) = Laplacian(u) - N(u) - h of the new iterate is
      R(u_k) = -(u_{k-1} - u_k)(C_k - N'(eta)), eta between u_k and u_{k-1},
      so R(u_k) <= 0 once u_k <= u_{k-1}. Then
      (Laplacian - C_{k+1})(u_{k+1} - u_k) = -R(u_k) >= 0, and the maximum
      principle (C_{k+1} >= 0) gives u_{k+1} <= u_k. A site of S stays
      below the level, since the iterates decrease.
    So the iterates decrease and stay above every solution below the
    start; S stops growing after finitely many steps, and the limit is a
    fixed point of the last step map, hence the maximal solution.
    The energy J of `functional_j` then drops by at least half the step
    weighted by C_k: with d = u_k - u_{k-1} and E the Dirichlet energy,
    J(u_k) - J(u_{k-1}) = -sum C_k d^2 - E(d)/2 + sum N'(eta) d^2 / 2
    <= -sum_x C_k(x) d(x)^2 / 2, since E(d) >= 0 and N'(eta) <= C_k. With
    no core that is the scalar bound shift |d|^2 / 2.

    Each step costs one linear solve and one nonlinearity evaluation. The
    domain fixes the solve (`solve_interior`): the exact box inverse on a
    box with no side over 320, Jacobi-CG elsewhere. The
    solve's certifying product C_k w - Laplacian(w) also gives the step's
    residual, its Dirichlet energy (by summation by parts, since w
    vanishes on the boundary) and the next solve's start, so a step on a box
    takes one apply of the box inverse and one product.

    A step that rises above its predecessor by more than MONOTONE_SLACK
    raises MonotonicityBreakdown. The energy decrease is recorded only: J
    of every step goes into the trace, and nothing in the loop acts on a
    rise. Every rise measured was rounding in the sums that form J (up to
    1.3e-13 of |J| at lam 1000, multiplicity 50), which an absolute slack
    cannot tell from a real rise.

    `u_init` replaces the zero start; it must be finite and non-positive
    with zero boundary, and a supersolution for the iterates to decrease
    from it (`exhaustion.run_exhaustion` starts each domain from one).

    A step whose linear solve meets NaN or inf (a non-finite right-hand
    side or residual) raises NonFiniteBreakdown with that step in the
    trace, as does a step whose change is not finite. A linear solve that
    misses its tolerance with a finite residual raises its
    LinearSolveFailure, carrying the steps taken before it as `trace`.
    """
    h = source_h(domain, vortices)
    system = ShiftedLaplacianSystem(domain, params.shift)
    h_int = h.interior.copy()
    n_int = domain.n_interior
    m = 2 * params.p + 2
    u = np.zeros(n_int) if u_init is None else _start_interior(u_init, domain, "u_init")
    n_u = nonlinearity(u, params)
    au = None
    # The step's diagonal C: the shift, until a core forms; then shift off
    # the core and 0 on it. cu is C * u.
    damping = system.shift
    cu = damping * u
    # A site at or below this level has N' <= 0 everywhere below its value.
    core_level = -math.log(m) - _CORE_MARGIN
    # A lower bound on u off the core, lowered by each step's largest fall: no
    # step scans for new core sites while it lies above core_level.
    floor = float(u.min(initial=0.0))
    trace = IterationTrace()
    # Only the l^(2p+2) sum in `_even_norm` can overflow, and it rescales
    # when it does; the warning is silenced once for the whole loop.
    with np.errstate(over="ignore"):
        for k in range(1, params.max_outer_iterations + 1):
            if floor <= core_level and len(system.core) < system.core_capacity:
                new, floor = _core_candidates(u, core_level, system)
                if len(new):
                    system.grow_core(new)
                    damping = np.full(n_int, system.shift)
                    damping[system.core] = 0.0
                    cu[new] = 0.0
                    if au is not None:
                        # M u for the grown core, from the product of the last step.
                        au[new] -= system.shift * u[new]
            rhs = n_u + h_int - cu
            try:
                # The linear noise floor bounds the reachable equation defect; keep it a
                # decade under tol_residual or the residual stop can become unreachable.
                w, info = solve_interior(system, rhs, atol=params.tol_residual / 10.0, x0=u, ax0=au)
                aw = info.product
            except LinearSolveFailure as exc:
                if math.isfinite(exc.residual):
                    exc.trace = trace
                    raise
                # The step met NaN or inf: record it as all-NaN, so the
                # breakdown below reports it with the trace.
                w = aw = np.full(n_int, math.nan)
            diff = w - u
            rise = float(diff.max())
            fall = float(diff.min())
            # w - u is +0.0 where they are equal; with rise first, an all-zero
            # change reads +0.0 as max |diff| did.
            sup_change = max(rise, -fall)
            # Laplacian of the zero-boundary iterate from the certifying product
            # C w - Laplacian(w); summing w * Laplacian(w) by parts gives minus
            # the Dirichlet energy.
            cw = damping * w
            lap = cw - aw
            energy = -float(w @ lap)
            # N(w) is both this step's residual term and the next step's rhs.
            n_w, pot = _nonlinearity_parts(w, params)
            j_val = 0.5 * energy + float(((params.lam / m) * pot + h_int * w).sum())
            res = lap - n_w - h_int
            residual_inf = max(float(res.max()), -float(res.min()))
            trace.records.append(TraceRecord(k, j_val, sup_change, residual_inf, _even_norm(w, m)))
            # Written so that a NaN rise fails the test too.
            if not rise <= MONOTONE_SLACK:
                if not (math.isfinite(rise) and math.isfinite(sup_change)):
                    raise NonFiniteBreakdown(
                        f"step {k} produced non-finite values (step change {sup_change:.3e})", trace
                    )
                raise MonotonicityBreakdown(
                    f"step {k} rose by {rise:.3e} above its predecessor", trace
                )
            u = w
            n_u = n_w
            au = aw
            cu = cw
            floor += fall
            if sup_change < params.tol_nonlinear and residual_inf < params.tol_residual:
                return from_interior(domain, u), trace
            if sup_change == 0.0:
                # The numerical map is exactly stationary here; repeating the
                # deterministic step cannot improve the residual.
                raise StagnationFailure(
                    f"stagnated at step {k} with residual {residual_inf:.3e} "
                    f"above tol_residual {params.tol_residual:.3e}",
                    trace,
                )
    raise ConvergenceFailure(
        f"no convergence within {params.max_outer_iterations} iterations "
        f"(last step change {trace.final.sup_change:.3e})",
        trace,
    )


def residual(u: LatticeField, h: LatticeField, params: ModelParams) -> LatticeField:
    """Equation defect Laplacian(u) - nonlinearity(u) - h on the interior."""
    _require_same_domain(u, h)
    vals = np.zeros(u.domain.n_closure)
    vals[: u.domain.n_interior] = (
        laplacian_interior(u) - nonlinearity(u.interior, params) - h.interior
    )
    return LatticeField(u.domain, vals)


def jacobian(u: LatticeField, params: ModelParams) -> np.ndarray:
    """Derivative of `residual` in u's interior values: interior Laplacian minus diag N'(u).

    J is returned in `scipy.linalg.solve_banded` storage of shape
    (2 bw + 1, n_interior), bw being `damped_band`'s width: entry (i, j)
    sits at [bw + i - j, j]. J is symmetric, so each lower row is an upper
    row shifted left by its distance from the diagonal. The array is the
    view of rows bw: of its base, a zeroed Fortran-order (3 bw + 1,
    n_interior) array: LAPACK's banded LU (`dgbsv`) takes that base as it
    is and fills its top bw rows, so `newton_solve` factors J in place.
    """
    domain = u.domain
    upper = damped_band(domain)
    bw = len(upper) - 1
    jac = np.zeros((3 * bw + 1, domain.n_interior), order="F")[bw:]
    np.negative(upper[:bw], out=jac[:bw])
    for k in range(1, bw + 1):
        jac[bw + k, :-k] = jac[bw - k, k:]
    jac[bw] = -2.0 * domain.dimension - nonlinearity_derivative(u.interior, params)
    return jac


def newton_solve(domain: LatticeDomain, vortices: VortexConfig, params: ModelParams) -> LatticeField:
    """Solve the zero-boundary vortex equation by damped Newton iteration from zero.

    Each step solves the banded `jacobian` system for the `residual` by
    LAPACK's banded LU (`dgbsv`, in place on the Jacobian's base array),
    then halves the step, at most 30 times, until the Euclidean residual
    falls: plain Newton can overshoot into positive u, where the
    nonlinearity grows violently. -J is not positive definite at every
    iterate (on `make_box(2, 3)` at p = 0, lam = 30 with one vortex of
    multiplicity 4 it is indefinite at one step), so the factor is LU, not
    Cholesky. Returns once the sup-norm residual is below `_NEWTON_TOL`
    (1e-12). Raises NewtonFailure after `_NEWTON_MAX_ITERATIONS` (50)
    steps, on a singular Jacobian, or when the line search runs out, and
    ValueError, before it allocates or imports anything, when the LU array
    of the Jacobian would exceed `_NEWTON_MAX_BYTES`.
    """
    lu_bytes = (3 * _band_width(domain) + 1) * domain.n_interior * 8
    if lu_bytes > _NEWTON_MAX_BYTES:
        raise ValueError(f"newton_solve's Jacobian LU needs {lu_bytes} bytes, over {_NEWTON_MAX_BYTES}")
    from scipy.linalg.lapack import dgbsv

    h = source_h(domain, vortices)
    u = from_interior(domain, np.zeros(domain.n_interior))
    f_val = residual(u, h, params).interior
    for iterations in range(_NEWTON_MAX_ITERATIONS + 1):
        if float(np.abs(f_val).max()) < _NEWTON_TOL:
            return u
        if iterations == _NEWTON_MAX_ITERATIONS:
            raise NewtonFailure(
                f"no convergence in {_NEWTON_MAX_ITERATIONS} iterations "
                f"(residual {float(np.abs(f_val).max()):.3e})"
            )
        jac = jacobian(u, params)
        bw = len(jac) // 2
        # The LU overwrites jac's base; dropping jac frees it before the next
        # step. dgbsv is what solve_banded called for bw > 1, with the same
        # bits; at bw = 1 (a point set whose interior edges all join
        # consecutive sites, never a box) it took the tridiagonal gtsv,
        # which rounds differently in the last digits.
        step, info = dgbsv(bw, bw, jac.base, -f_val, overwrite_ab=True, overwrite_b=True)[2:]
        del jac
        if info:
            raise NewtonFailure(f"singular Jacobian: zero pivot in column {info}")
        norm_old = float(np.linalg.norm(f_val))
        for t in 2.0 ** -np.arange(31):
            trial = from_interior(domain, u.interior + t * step)
            f_trial = residual(trial, h, params).interior
            if float(np.linalg.norm(f_trial)) < norm_old:
                break
        else:
            raise NewtonFailure("line search exhausted")
        u, f_val = trial, f_trial


def max_principle_check(f: LatticeField, g: LatticeField) -> bool:
    """Assert the damped comparison principle on a concrete instance.

    Hypotheses checked numerically: g > 0 on the closure, f <= 0 on the
    boundary, and Laplacian(f) - g*f >= 0 on the interior (within 1e-12).
    Inputs failing them are rejected. Returns True when f <= 1e-12
    everywhere, which the hypotheses force. Stacks of k instances (f and g
    of shape (k, n_closure)) are checked at once: a rejection or False
    means some instance in the stack has it.
    """
    _require_same_domain(f, g)
    if float(g.values.min()) <= 0.0:
        raise ValueError("g must be strictly positive on the closure")
    if float(f.boundary_values.max(initial=-math.inf)) > _MAX_PRINCIPLE_SLACK:
        raise ValueError("f must be non-positive on the boundary")
    damped = laplacian_interior(f) - g.interior * f.interior
    if float(damped.min()) < -_MAX_PRINCIPLE_SLACK:
        raise ValueError("(Laplacian - g) f must be non-negative on the interior")
    return bool(np.all(f.values <= _MAX_PRINCIPLE_SLACK))
