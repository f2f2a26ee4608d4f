"""Vortex model on a finite lattice domain and its monotone solution scheme.

The equation couples the graph Laplacian to the stiff source term
lam * e^u (e^u - 1)^(2p+1) plus point charges of strength 4*pi*n_j. With a
damping shift strictly above (2p+2)*lam, repeatedly solving the linear
problem

    (Laplacian - shift) u_new = nonlinearity(u_old) + h - shift * u_old

from u = 0 produces iterates that decrease pointwise and drive an energy
functional downward, converging to the maximal zero-boundary solution.
Every step is recorded so the monotonicity and energy-decrease claims can
be audited after the fact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import calculus
from .calculus import LatticeField, _ipow, _require_same_domain, from_interior, laplacian_interior
from .lattice import LatticeDomain, LatticePoint, json_integer, json_real
from .linsolve import (
    LinearSolveFailure,
    LinearSolveInfo,
    ShiftedLaplacianSystem,
    assemble,
    solve_interior,
)

__all__ = [
    "FOUR_PI",
    "MONOTONE_SLACK",
    "ENERGY_SLACK",
    "ModelParams",
    "VortexConfig",
    "TraceRecord",
    "IterationTrace",
    "SolveFailure",
    "ConvergenceFailure",
    "StagnationFailure",
    "MonotonicityBreakdown",
    "NonFiniteBreakdown",
    "source_h",
    "nonlinearity",
    "nonlinearity_derivative",
    "functional_j",
    "iterate_step",
    "solve_domain",
    "residual",
    "max_principle_check",
]

FOUR_PI = 4.0 * math.pi

# Pointwise decrease and energy decrease hold exactly in exact arithmetic;
# these slacks absorb rounding only. Larger violations abort the run.
MONOTONE_SLACK = 1e-9
ENERGY_SLACK = 1e-9


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


@dataclass
class ModelParams:
    """Model and solver parameters.

    `shift` defaults to twice the strict lower bound (2p+2)*lam, a margin
    that keeps the per-step comparison argument comfortably inside its
    hypothesis while the linear systems stay well conditioned.
    Each ValueError message begins with the field it rejects.
    """

    lam: float
    p: int = 0
    shift: float | None = None
    tol_nonlinear: float = 1e-10
    tol_residual: float = 1e-8
    tol_linear: float = 1e-12
    max_outer_iterations: int = 50_000

    def __post_init__(self):
        # Booleans, strings, NaN and inf are rejected before any comparison.
        for name in ("lam", "tol_nonlinear", "tol_residual", "tol_linear"):
            setattr(self, name, json_real(getattr(self, name), name))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.p = json_integer(self.p, "p")
        if self.p < 0:
            raise ValueError("p must be a non-negative integer")
        bound = (2 * self.p + 2) * self.lam
        self.shift = 2.0 * bound if self.shift is None else json_real(self.shift, "shift")
        if self.shift <= bound:
            raise ValueError(f"shift must exceed (2p+2)*lam = {bound}")
        self.max_outer_iterations = json_integer(self.max_outer_iterations, "max_outer_iterations")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class VortexConfig:
    """Point charges: locations with positive integer multiplicities.

    Coordinates and multiplicities must be integral numbers (integral
    floats are accepted); fractions and booleans raise ValueError rather
    than being truncated to another vortex.
    """

    vortices: tuple[tuple[LatticePoint, int], ...]

    def __post_init__(self):
        normalized = []
        seen = set()
        for point, multiplicity in self.vortices:
            pt = tuple(json_integer(c, "vortex coordinate") for c in point)
            if json_integer(multiplicity, f"multiplicity at {pt}") < 1:
                raise ValueError(f"multiplicity at {pt} must be a positive integer")
            if pt in seen:
                raise ValueError(f"duplicate vortex point {pt}")
            seen.add(pt)
            normalized.append((pt, int(multiplicity)))
        object.__setattr__(self, "vortices", tuple(normalized))

    def __len__(self) -> int:
        return len(self.vortices)

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return tuple(p for p, _ in self.vortices)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.vortices)

    @property
    def total_charge(self) -> float:
        """Total source mass, 4*pi times the multiplicity sum."""
        return FOUR_PI * sum(self.multiplicities)


@dataclass
class TraceRecord:
    k: int
    j_value: float
    sup_change: float
    residual_inf: float
    l2p2_norm: float
    l2_change: float
    monotone_ok: bool
    j_decrease_ok: bool
    norm_chain_ok: bool
    linear_iterations: int


class IterationTrace:
    """Per-step audit log of the outer iteration."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.converged = False

    def append(self, record: TraceRecord):
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def all_monotone(self) -> bool:
        return all(r.monotone_ok for r in self.records)

    def all_j_decreasing(self) -> bool:
        return all(r.j_decrease_ok for r in self.records)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "J", "sup_change", "residual", "l2p2_norm"])
            for r in self.records:
                writer.writerow(
                    [r.k]
                    + [
                        format(v, ".17g")
                        for v in (r.j_value, r.sup_change, r.residual_inf, r.l2p2_norm)
                    ]
                )


def source_h(domain: LatticeDomain, vortices: VortexConfig) -> LatticeField:
    """Point-charge field: 4*pi*multiplicity at each vortex, zero elsewhere."""
    vals = np.zeros(domain.n_closure)
    for point, multiplicity in vortices.vortices:
        idx = domain.locate(point)
        if not 0 <= idx < domain.n_interior:
            raise ValueError(f"vortex point {point} is not interior to the domain")
        vals[idx] = FOUR_PI * multiplicity
    return LatticeField(domain, vals, dirichlet_zero=True)


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


def _require_zero_boundary(u: LatticeField, name: str):
    if np.any(u.boundary_values != 0.0):
        raise ValueError(f"{name} must vanish on the boundary")


def _start_interior(u: LatticeField, domain: LatticeDomain, name: str) -> np.ndarray:
    """A copy of the interior of a start field: on `domain`, zero boundary, non-positive."""
    if u.domain is not domain:
        raise ValueError(f"{name} lives on a different domain")
    _require_zero_boundary(u, name)
    if float(u.values.max()) > MONOTONE_SLACK:
        raise ValueError(f"{name} must be non-positive")
    return u.interior.copy()


def functional_j(u: LatticeField, h: LatticeField, params: ModelParams) -> float:
    """Energy functional driving the scheme.

    Half the Dirichlet energy plus, over interior points, the potential
    well lam/(2p+2) * (e^u - 1)^(2p+2) and the source coupling h*u.
    """
    _require_same_domain(u, h)
    _require_zero_boundary(u, "u")
    energy = calculus.dirichlet_energy(u)
    u_int = u.interior
    pot = (params.lam / (2 * params.p + 2)) * _nonlinearity_parts(u_int, params)[1]
    return 0.5 * energy + float(np.sum(pot + h.interior * u_int))


def _step_arrays(u_int, n_u, h_int, params: ModelParams, system, backend: str, au=None):
    """One linear solve; `n_u` is nonlinearity(u_int) and `au` the product A u_int, if held."""
    rhs = n_u + h_int - params.shift * u_int
    # The linear noise floor bounds the reachable equation defect; keep it a
    # decade under tol_residual or the residual stop can become unreachable.
    scale = 1.0 + float(np.abs(rhs).max())
    tol = min(params.tol_linear, params.tol_residual / (10.0 * scale))
    return solve_interior(system, rhs, backend=backend, tol=tol, x0=u_int, ax0=au)


def iterate_step(
    u_prev: LatticeField,
    h: LatticeField,
    params: ModelParams,
    system: ShiftedLaplacianSystem,
    *,
    backend: str = "cg",
) -> LatticeField:
    """One damped linear step; the result never rises above u_prev.

    A pointwise increase beyond the rounding slack means the arithmetic has
    broken the scheme's ordering and is reported as a breakdown rather than
    silently continued.
    """
    _require_same_domain(u_prev, h)
    if abs(system.shift - params.shift) > 0:
        raise ValueError("system shift does not match params.shift")
    u_int = _start_interior(u_prev, system.domain, "u_prev")
    w, _ = _step_arrays(u_int, nonlinearity(u_int, params), h.interior, params, system, backend)
    rise = float((w - u_int).max())
    if rise > MONOTONE_SLACK:
        raise MonotonicityBreakdown(f"iterate rose by {rise:.3e} above its predecessor")
    return from_interior(u_prev.domain, w)


def solve_domain(
    domain: LatticeDomain,
    vortices: VortexConfig,
    params: ModelParams,
    *,
    backend: str = "cg",
    u_init: LatticeField | None = None,
) -> tuple[LatticeField, IterationTrace]:
    """Run the monotone scheme from zero until both stop criteria hold.

    Stops when the sup-norm step change falls below tol_nonlinear and the
    equation defect falls below tol_residual; either alone can flatter a
    stalled run. Returns the solution field (zero boundary, non-positive
    interior) and the full per-step trace.

    Each step costs one linear solve and one nonlinearity evaluation. The
    solve's certifying product A w (A = shift*I - Laplacian) also gives the
    step's residual, its Dirichlet energy (by summation by parts, since w
    vanishes on the boundary) and the next solve's CG start, so a CG step on
    a box takes one preconditioner apply and two sparse products, and a
    direct step one.

    `u_init` replaces the zero start; it must be non-positive with zero
    boundary. Non-zero starts are an unverified optimization: the
    pointwise-decrease guarantee is proven only from zero, so the per-step
    monotonicity checks do the verifying at run time.

    A step whose linear solve meets NaN or inf (a non-finite right-hand
    side or residual) raises NonFiniteBreakdown with that step in the
    trace, as does a step whose change is not finite.
    """
    h = source_h(domain, vortices)
    system = assemble(domain, params.shift)
    h_int = h.interior.copy()
    n_int = domain.n_interior
    m = 2 * params.p + 2
    u = np.zeros(n_int) if u_init is None else _start_interior(u_init, domain, "u_init")
    n_u = nonlinearity(u, params)
    au = None
    j_prev = math.inf
    trace = IterationTrace()
    for k in range(1, params.max_outer_iterations + 1):
        try:
            w, info = _step_arrays(u, n_u, h_int, params, system, backend, au)
        except LinearSolveFailure as exc:
            if math.isfinite(exc.residual):
                raise
            # The step met NaN or inf: record it as all-NaN, so the
            # breakdown below reports it with the trace.
            w = np.full(n_int, math.nan)
            info = LinearSolveInfo(0, exc.residual, w)
        diff = w - u
        rise = float(diff.max())
        sup_change = float(np.abs(diff).max())
        l2_change = float(np.sqrt(np.sum(diff * diff)))
        # Laplacian of the zero-boundary iterate from the certifying product;
        # summing w * Laplacian(w) by parts gives minus the Dirichlet energy.
        aw = info.product
        lap = params.shift * w - aw
        energy = -float(w @ lap)
        # N(w) is both this step's residual term and the next step's rhs.
        n_w, pot = _nonlinearity_parts(w, params)
        j_val = 0.5 * energy + float(np.sum((params.lam / m) * pot + h_int * w))
        res = lap - n_w - h_int
        residual_inf = float(np.abs(res).max())
        # m is even, so w ** m is |w| ** m.
        l2p2 = float(np.sum(_ipow(w, m)) ** (1.0 / m))
        # With a zero boundary no edge leaves the closure with a non-zero
        # difference, so the squared seminorm is exactly twice the energy.
        sem_sq = 2.0 * energy
        norm_chain_ok = sem_sq <= 2.0 * energy + 1e-12 * (1.0 + 2.0 * energy)
        record = TraceRecord(
            k=k,
            j_value=j_val,
            sup_change=sup_change,
            residual_inf=residual_inf,
            l2p2_norm=l2p2,
            l2_change=l2_change,
            monotone_ok=rise <= MONOTONE_SLACK,
            j_decrease_ok=(k == 1) or (j_val <= j_prev + ENERGY_SLACK),
            norm_chain_ok=norm_chain_ok,
            linear_iterations=info.iterations,
        )
        trace.append(record)
        if not record.monotone_ok:
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
        j_prev = j_val
        if sup_change < params.tol_nonlinear and residual_inf < params.tol_residual:
            trace.converged = True
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
    return LatticeField(u.domain, vals, dirichlet_zero=True)


def max_principle_check(
    f: LatticeField, g: LatticeField, *, slack: float = 1e-12
) -> bool:
    """Assert the damped comparison principle on a concrete instance.

    Hypotheses checked numerically: g > 0 on the closure, f <= 0 on the
    boundary, and Laplacian(f) - g*f >= 0 on the interior (within `slack`).
    Inputs failing them are rejected. Returns True when f <= 1e-12
    everywhere, which the hypotheses force.
    """
    _require_same_domain(f, g)
    if float(g.values.min()) <= 0.0:
        raise ValueError("g must be strictly positive on the closure")
    if float(f.boundary_values.max(initial=-math.inf)) > slack:
        raise ValueError("f must be non-positive on the boundary")
    damped = laplacian_interior(f) - g.interior * f.interior
    if float(damped.min()) < -slack:
        raise ValueError("(Laplacian - g) f must be non-negative on the interior")
    return bool(np.all(f.values <= 1e-12))
