"""Global solution estimates by solving over a growing chain of domains.

Each domain in the chain is solved independently from zero; the zero
extension of every solution must sit below its predecessor pointwise,
the gap between consecutive extensions must shrink, and the outermost
values of the final solution must be small. Those three finite checks
stand in for the pointwise limit over an infinite chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .calculus import LatticeField
from .chern_simons import IterationTrace, ModelParams, VortexConfig, solve_domain
from .lattice import (
    LatticeDomain, LatticePoint, json_integer, json_real, make_ball, make_box, nested_index
)

__all__ = [
    "ExhaustionFailure",
    "ExhaustionSchedule",
    "GlobalSolutionEstimate",
    "vortex_centroid",
    "null_extend",
    "restrict_field",
    "decay_profile",
    "chain_tolerance",
    "run_exhaustion",
    "report_dict",
]

CHAIN_SLACK = 1e-9


class ExhaustionFailure(RuntimeError):
    """Raised when the inter-domain ordering breaks between two radii."""

    kind = "chain_violation"

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


def vortex_centroid(vortices: VortexConfig, dimension: int) -> LatticePoint:
    """Coordinate-wise median of the vortex points, rounded to the lattice."""
    if len(vortices) == 0:
        return tuple(0 for _ in range(dimension))
    pts = np.array(vortices.points, dtype=float)
    return tuple(int(round(v)) for v in np.median(pts, axis=0))


@dataclass
class ExhaustionSchedule:
    """Chain of domains: shape, strictly increasing integer radii, integer center, charges.

    Each ValueError message begins with the field it rejects.
    """

    dimension: int
    shape: str
    radii: tuple[int, ...]
    vortices: VortexConfig
    center: LatticePoint | None = None

    def __post_init__(self):
        if self.shape not in ("box", "ball"):
            raise ValueError(f"shape must be 'box' or 'ball', got {self.shape!r}")
        self.dimension = json_integer(self.dimension, "dimension")
        if not isinstance(self.radii, Iterable):
            raise ValueError(f"radii must be a list of integers, got {self.radii!r}")
        self.radii = tuple(json_integer(r, "radii entry") for r in self.radii)
        if not self.radii:
            raise ValueError("radii must list at least one radius")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.center is None:
            self.center = vortex_centroid(self.vortices, self.dimension)
        smallest = self.build_domain(self.radii[0])
        # The builder checks the center; keep the integer tuple it made.
        self.center = smallest.center
        for pt in self.vortices.points:
            if not smallest.is_interior(pt):
                raise ValueError(f"vortices must lie inside the smallest domain; {pt} does not")

    def build_domain(self, radius: int) -> LatticeDomain:
        maker = make_box if self.shape == "box" else make_ball
        return maker(self.dimension, radius, self.center)


@dataclass
class GlobalSolutionEstimate:
    """Everything the chain run produced, plus the three finite certificates."""

    schedule: ExhaustionSchedule
    domains: list[LatticeDomain]
    solutions: list[LatticeField]
    traces: list[IterationTrace]
    inter_domain_gaps: list[float]
    decay: list[tuple[int, float]]
    gaps_strictly_decreasing: bool
    final_gap: float
    boundary_shell_sup: float
    tol_global: float
    decay_threshold: float
    chain_violation: float = 0.0

    @property
    def finest_field(self) -> LatticeField:
        return self.solutions[-1]

    @property
    def gaps_non_increasing(self) -> bool:
        return all(b <= a for a, b in zip(self.inter_domain_gaps, self.inter_domain_gaps[1:]))

    @property
    def success(self) -> bool:
        return (
            all(t.converged for t in self.traces)
            and self.gaps_non_increasing
            and self.final_gap < self.tol_global
            and self.boundary_shell_sup < self.decay_threshold
        )


def null_extend(u: LatticeField, larger: LatticeDomain) -> LatticeField:
    """Zero extension into `larger`; ValueError unless u's domain is nested in it."""
    return _extend(u, larger, nested_index(u.domain, larger))


def _extend(u: LatticeField, larger: LatticeDomain, at: np.ndarray) -> LatticeField:
    """`null_extend` through `at` = nested_index(u.domain, larger); the boundary stays zero."""
    vals = np.zeros(larger.n_closure)
    vals[at[: u.domain.n_interior]] = u.interior
    return LatticeField(larger, vals, dirichlet_zero=True)


def restrict_field(u: LatticeField, smaller: LatticeDomain) -> LatticeField:
    """Values of u on the closure of `smaller`; ValueError unless it is nested in u's domain."""
    return LatticeField(smaller, u.values[nested_index(smaller, u.domain)])


def decay_profile(u: LatticeField, center: LatticePoint) -> list[tuple[int, float]]:
    """Per-shell sup of |u|, shells indexed by graph distance from the center."""
    center_arr = np.asarray(center, dtype=np.int64)
    dist = np.abs(u.domain.coords - center_arr).sum(axis=1)
    mags = np.abs(u.values)
    return [(int(r), float(mags[dist == r].max())) for r in np.unique(dist)]


def chain_tolerance(value, name: str) -> float:
    """A chain certificate threshold as a float; ValueError unless finite and positive."""
    value = json_real(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def run_exhaustion(
    schedule: ExhaustionSchedule,
    params: ModelParams,
    *,
    backend: str = "cg",
    tol_global: float = 1e-5,
    decay_threshold: float = 1e-4,
    warm_start: bool = False,
) -> GlobalSolutionEstimate:
    """Solve the chain in order and assemble the global estimate.

    Per-domain solver failures propagate unchanged. A rise of one zero-
    extended solution above its predecessor (beyond rounding slack) aborts
    with the offending radius pair, since it falsifies the ordering the
    whole construction rests on.

    Each consecutive pair forms one `nested_index` map, which checks the
    nesting and gathers the new solution onto the previous closure.

    `warm_start` seeds each solve with the zero extension of the previous
    solution instead of zero. It is off by default and unverified: the
    decrease guarantee is proven from the zero start only, so warm runs
    rely entirely on the per-step monotonicity checks.

    `tol_global` and `decay_threshold` must be finite and positive
    (`chain_tolerance`); a NaN would make `success` false on every run.
    """
    tol_global = chain_tolerance(tol_global, "tol_global")
    decay_threshold = chain_tolerance(decay_threshold, "decay_threshold")
    domains: list[LatticeDomain] = []
    solutions: list[LatticeField] = []
    traces: list[IterationTrace] = []
    gaps: list[float] = []
    worst_rise = -np.inf
    for radius in schedule.radii:
        dom = schedule.build_domain(radius)
        u_init = None
        if domains:
            try:
                at = nested_index(domains[-1], dom)
            except ValueError:
                raise ExhaustionFailure(
                    f"domain of radius {radius} does not contain its predecessor"
                ) from None
            if warm_start:
                u_init = _extend(solutions[-1], dom, at)
        u, trace = solve_domain(dom, schedule.vortices, params, backend=backend, u_init=u_init)
        if domains:
            prev_dom, prev_u = domains[-1], solutions[-1]
            on_prev = u.values[at]
            rise = float((on_prev - prev_u.values).max())
            worst_rise = max(worst_rise, rise)
            if rise > CHAIN_SLACK:
                raise ExhaustionFailure(
                    f"solution on radius {radius} rises {rise:.3e} above radius "
                    f"{schedule.radii[len(domains) - 1]}",
                    pair=(schedule.radii[len(domains) - 1], radius),
                )
            gaps.append(
                float(np.abs(on_prev[: prev_dom.n_interior] - prev_u.interior).max())
            )
        domains.append(dom)
        solutions.append(u)
        traces.append(trace)
    profile = decay_profile(solutions[-1], schedule.center)
    # The very last shells of the closure hold boundary sites pinned to
    # zero; the decay certificate reads the outermost shell that still
    # contains interior sites.
    last = domains[-1]
    center_arr = np.asarray(schedule.center, dtype=np.int64)
    interior_dist = np.abs(last.coords[: last.n_interior] - center_arr).sum(axis=1)
    edge_radius = int(interior_dist.max())
    edge_sup = next(s for r, s in profile if r == edge_radius)
    strict = all(b < a for a, b in zip(gaps, gaps[1:]))
    return GlobalSolutionEstimate(
        schedule=schedule,
        domains=domains,
        solutions=solutions,
        traces=traces,
        inter_domain_gaps=gaps,
        decay=profile,
        gaps_strictly_decreasing=strict,
        final_gap=gaps[-1] if gaps else 0.0,
        boundary_shell_sup=edge_sup,
        tol_global=tol_global,
        decay_threshold=decay_threshold,
        chain_violation=max(worst_rise, 0.0) if len(schedule.radii) > 1 else 0.0,
    )


def report_dict(estimate: GlobalSolutionEstimate) -> dict:
    """Plain-data report mirroring the per-radius results and certificates."""
    per_radius = []
    for i, (radius, trace) in enumerate(zip(estimate.schedule.radii, estimate.traces)):
        per_radius.append(
            {
                "radius": radius,
                "iterations": trace.iterations,
                "J_final": trace.final.j_value,
                "residual": trace.final.residual_inf,
                "l2p2_norm": trace.final.l2p2_norm,
                "gap_to_previous": estimate.inter_domain_gaps[i - 1] if i > 0 else None,
            }
        )
    return {
        "shape": estimate.schedule.shape,
        "dimension": estimate.schedule.dimension,
        "radii": list(estimate.schedule.radii),
        "per_radius": per_radius,
        "final_gap": estimate.final_gap,
        "gaps_strictly_decreasing": estimate.gaps_strictly_decreasing,
        "boundary_shell_sup": estimate.boundary_shell_sup,
        "tol_global": estimate.tol_global,
        "decay_threshold": estimate.decay_threshold,
        "success": estimate.success,
    }
