"""Global solution estimates by solving over a growing chain of domains.

The first domain is solved from zero and each later one from the zero
extension of its predecessor's solution, which the new solution must not
exceed anywhere. The gap between consecutive solutions must shrink, and
the outermost values of the final solution must be small. Those three
finite checks stand in for the pointwise limit over an infinite chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .calculus import LatticeField
from .chern_simons import IterationTrace, ModelParams, VortexConfig, solve_domain
from .lattice import (
    LatticeDomain, LatticePoint, json_center, json_dimension, json_integer, json_real, make_ball,
    make_box, nested_index,
)

__all__ = [
    "ExhaustionFailure",
    "ExhaustionSchedule",
    "GlobalSolutionEstimate",
    "vortex_centroid",
    "decay_profile",
    "run_exhaustion",
    "report_dict",
]

CHAIN_SLACK = 1e-9


class ExhaustionFailure(RuntimeError):
    """Raised when the inter-domain ordering breaks between two radii; the message names both."""

    kind = "chain_violation"


def vortex_centroid(vortices: VortexConfig, dimension: int) -> LatticePoint:
    """Coordinate-wise median of the vortex points, rounded half to even onto the lattice.

    The median is taken in integers, so coordinates beyond 2**53 stay exact.
    """
    n = len(vortices)
    if n == 0:
        return tuple(0 for _ in range(dimension))
    columns = (sorted(axis) for axis in zip(*vortices.points))
    return tuple(round(Fraction(c[(n - 1) // 2] + c[n // 2], 2)) for c in columns)


@dataclass
class ExhaustionSchedule:
    """Chain of domains: shape, two or more strictly increasing integer radii, center, charges.

    A run succeeds when its final gap is below `tol_global` and its outer
    shell sup below `decay_threshold`. Both must be finite and positive; a
    NaN would make `success` false on every run. Each ValueError message
    begins with the field it rejects.
    """

    dimension: int
    shape: str
    radii: tuple[int, ...]
    vortices: VortexConfig
    center: LatticePoint | None = None
    tol_global: float = 1e-5
    decay_threshold: float = 1e-4

    def __post_init__(self):
        for name in ("tol_global", "decay_threshold"):
            setattr(self, name, json_real(getattr(self, name), name))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.shape not in ("box", "ball"):
            raise ValueError(f"shape must be 'box' or 'ball', got {self.shape!r}")
        self.dimension = json_dimension(self.dimension)
        if not isinstance(self.radii, Iterable):
            raise ValueError(f"radii must be a list of integers, got {self.radii!r}")
        self.radii = tuple(json_integer(r, "radii entry") for r in self.radii)
        # One radius measures no gap, so it certifies nothing.
        if len(self.radii) < 2:
            raise ValueError("radii must list at least two radii")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.center is None:
            self.center = vortex_centroid(self.vortices, self.dimension)
        # Checked against the largest domain now, not when the run reaches it.
        self.center = json_center(self.center, self.dimension, self.radii[-1])
        smallest = self.build_domain(self.radii[0])
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
    solutions: list[LatticeField]
    traces: list[IterationTrace]
    inter_domain_gaps: list[float]
    decay: list[tuple[int, float]]
    gaps_strictly_decreasing: bool
    final_gap: float
    boundary_shell_sup: float

    @property
    def finest_field(self) -> LatticeField:
        return self.solutions[-1]

    @property
    def gaps_non_increasing(self) -> bool:
        return all(b <= a for a, b in zip(self.inter_domain_gaps, self.inter_domain_gaps[1:]))

    @property
    def success(self) -> bool:
        return (
            self.gaps_non_increasing
            and self.final_gap < self.schedule.tol_global
            and self.boundary_shell_sup < self.schedule.decay_threshold
        )


def _extend(u: LatticeField, larger: LatticeDomain, at: np.ndarray) -> LatticeField:
    """Zero extension of u into `larger` through `at` = nested_index(u.domain, larger).

    Only u's interior is carried over, so the extension vanishes on
    `larger`'s boundary.
    """
    vals = np.zeros(larger.n_closure)
    vals[at[: u.domain.n_interior]] = u.interior
    return LatticeField(larger, vals)


def decay_profile(u: LatticeField, center: LatticePoint) -> list[tuple[int, float]]:
    """Per-shell sup of |u|, shells indexed by graph distance from the center."""
    center_arr = np.asarray(center, dtype=np.int64)
    dist = np.abs(u.domain.coords - center_arr).sum(axis=1)
    mags = np.abs(u.values)
    return [(int(r), float(mags[dist == r].max())) for r in np.unique(dist)]


def run_exhaustion(
    schedule: ExhaustionSchedule, params: ModelParams, *, backend: str = "cg"
) -> GlobalSolutionEstimate:
    """Solve the chain in order and build the global estimate.

    Per-domain solver failures propagate unchanged. A rise of one zero-
    extended solution above its predecessor (beyond rounding slack) aborts
    with the offending radius pair, since it falsifies the ordering the
    whole construction rests on.

    Each consecutive pair forms one `nested_index` map. It checks the
    nesting, extends the previous solution u_R by zero to v, the start of
    the new solve, and gathers the new solution onto the previous closure.
    v is a valid start for the monotone scheme:
    - every iterate satisfies Laplacian(u) - N(u) - h <= 0, up to the
      linear-solve error, because each step's diagonal C is at least N'
      between consecutive iterates and the iterates decrease
      (`solve_domain`); so the converged u_R is a supersolution on its
      domain;
    - outside that domain v, h and N(v) are 0 while Laplacian(v) <= 0;
    - so v is a supersolution on the new domain, above its maximal
      solution, and the scheme decreases from v to that solution. The
      first step rises by at most max(residual(v)+) times the largest row
      sum of (C - Laplacian)^-1, which is 1 / shift while no site has
      joined the zero-shift core.
    """
    dom = schedule.build_domain(schedule.radii[0])
    u, trace = solve_domain(dom, schedule.vortices, params, backend=backend)
    solutions, traces, gaps = [u], [trace], []
    for prev_radius, radius in zip(schedule.radii, schedule.radii[1:]):
        prev_dom, prev_u = dom, u
        dom = schedule.build_domain(radius)
        at = nested_index(prev_dom, dom)
        u_init = _extend(prev_u, dom, at)
        u, trace = solve_domain(dom, schedule.vortices, params, backend=backend, u_init=u_init)
        on_prev = u.values[at]
        rise = float((on_prev - prev_u.values).max())
        if rise > CHAIN_SLACK:
            raise ExhaustionFailure(
                f"solution on radius {radius} rises {rise:.3e} above radius {prev_radius}"
            )
        gaps.append(float(np.abs(on_prev[: prev_dom.n_interior] - prev_u.interior).max()))
        solutions.append(u)
        traces.append(trace)
    profile = decay_profile(solutions[-1], schedule.center)
    # The very last shells of the closure hold boundary sites pinned to
    # zero; the decay certificate reads the outermost shell that still
    # contains interior sites.
    center_arr = np.asarray(schedule.center, dtype=np.int64)
    interior_dist = np.abs(dom.coords[: dom.n_interior] - center_arr).sum(axis=1)
    edge_radius = int(interior_dist.max())
    edge_sup = next(s for r, s in profile if r == edge_radius)
    strict = all(b < a for a, b in zip(gaps, gaps[1:]))
    return GlobalSolutionEstimate(
        schedule=schedule,
        solutions=solutions,
        traces=traces,
        inter_domain_gaps=gaps,
        decay=profile,
        gaps_strictly_decreasing=strict,
        final_gap=gaps[-1],
        boundary_shell_sup=edge_sup,
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
        "tol_global": estimate.schedule.tol_global,
        "decay_threshold": estimate.schedule.decay_threshold,
        "success": estimate.success,
    }
