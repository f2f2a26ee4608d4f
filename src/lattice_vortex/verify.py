"""Randomized verification suites behind the `verify` CLI command.

Each suite builds its own instances from a seeded generator, so a run is
reproducible given (seed, sizes). Suites return a result record instead
of raising, and support deliberate fault injection where noted, so the
checks themselves can be shown to catch defects. `oracle_equivalence`
checks the scheme against `chern_simons.newton_solve` on the same `residual`.

The suites run as array kernels without changing a draw. Each suite
draws its instances in blocks of `rng.random` doubles, mapped the way
`Generator.uniform` maps them, so the values and the generator's state
are those of single draws. The maximum-principle instances are one block:
each is one banded Cholesky solve on a band built once per domain, and
each domain's instances are checked by one stacked call. Summation-by-parts
pairs and interpolation-ratio fields are drawn and evaluated in stacks;
the ratios take plain arrays of interior values. The tables the kernels
read (interior edges, closure neighbor pairs) are derived once per domain
and held by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .calculus import LatticeField, from_interior, green_identity_defect, laplacian_interior
from .chern_simons import ModelParams, VortexConfig, max_principle_check, newton_solve, solve_domain
from .lattice import make_box
from .linsolve import damped_band

__all__ = ["SuiteResult", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_max_principle_instance(rng, domain, band):
    """Random (f, g, slack) satisfying the comparison-principle hypotheses.

    g is a positive closure field; the damped-operator slack on the
    interior and the boundary data of f are drawn non-negative and
    non-positive respectively, and f is recovered by solving
    (diag(g) - Laplacian) f = boundary coupling - slack. `band` is the
    domain's `damped_band`, whose diagonal the call overwrites. The draws
    are one row of `_max_principle_instances`.
    """
    f, g, slack = _max_principle_instances(rng.random((1, 2 * domain.n_closure)), domain, band)
    return LatticeField(domain, f[0]), LatticeField(domain, g[0]), slack[0]


def _max_principle_instances(draws, domain, band):
    """Stacks (f, g, slack) of the instances whose draws are the rows of `draws`.

    A row holds 2 n_closure doubles d from `rng.random`, mapped the way
    `Generator.uniform` maps each draw, low + (high - low) * d: g =
    uniform(0.1, 4.0, n_closure), then slack = uniform(0.0, 1.0,
    n_interior), then the boundary data of f, -uniform(0.0, 1.0,
    n_closure - n_interior). So a row gives the values and leaves the
    generator where `random_max_principle_instance`'s uniform draws would.
    Each instance is one LAPACK `dpbsv` call, which factors and solves
    the SPD band system with g's interior on the diagonal of `band`,
    ordering nothing and skipping the argument checks of `solveh_banded`.
    """
    from scipy.linalg import lapack

    n_int, n_closure = domain.n_interior, domain.n_closure
    g = 0.1 + (4.0 - 0.1) * draws[:, :n_closure]
    slack = draws[:, n_closure : n_closure + n_int]
    f = np.zeros((len(draws), n_closure))
    f[:, n_int:] = -draws[:, n_closure + n_int :]
    rhs = f.take(domain.interior_neighbors, axis=-1).sum(axis=-1) - slack
    for row in range(len(draws)):
        band[-1] = g[row, :n_int] + 2 * domain.dimension
        _, f[row, :n_int], info = lapack.dpbsv(band, rhs[row])
        if info != 0:
            raise np.linalg.LinAlgError(f"banded Cholesky solve failed with info {info} on {domain!r}")
    return f, g, slack


def _max_principle_stacks(rng, domains, bands, instances):
    """The suite's first `instances` instances as one stack (f, g, slack) per domain.

    Instance i lies on domain i % len(domains), and its 2 n_closure draws
    follow instance i - 1's in one `rng.random` block, so the stacks hold
    the values of `instances` calls of `random_max_principle_instance` in
    turn and leave the generator in the same state. Row r of domain j's
    stack is instance j + r len(domains).
    """
    widths = [2 * domains[i % len(domains)].n_closure for i in range(instances)]
    starts = np.cumsum([0] + widths[:-1])
    draws = rng.random(sum(widths))
    return [
        _max_principle_instances(
            draws[starts[j :: len(domains), None] + np.arange(2 * domain.n_closure)], domain, band
        )
        for j, (domain, band) in enumerate(zip(domains, bands))
    ]


def max_principle_suite(rng, domains) -> SuiteResult:
    """Solve hypothesis-satisfying instances and assert non-positivity.

    The instances are drawn in one block and checked with one stacked
    `max_principle_check` per domain. When a stack fails or raises, every
    instance is re-checked alone, in instance order, so a failure names
    its own instance and a hypothesis violation raises the ValueError of
    the first instance that has one, as checking each instance as it is
    drawn would. Also injects hypothesis violations (a positive bump
    exceeding the damped-operator slack) and requires the checker to
    reject them. Instance i lies on domains[i % len(domains)].
    """
    bands = [damped_band(domain) for domain in domains]
    instances, probes = 100, 5
    stacks = _max_principle_stacks(rng, domains, bands, instances)

    def check(j, rows=slice(None)):
        f, g, _ = stacks[j]
        return max_principle_check(LatticeField(domains[j], f[rows]), LatticeField(domains[j], g[rows]))

    try:
        held = all([check(j) for j in range(len(domains))])
    except ValueError:
        held = False
    failures = [] if held else [
        f"instance {i}: positive value escaped"
        for i in range(instances)
        if not check(i % len(domains), i // len(domains))
    ]
    detected = 0
    for i in range(probes):
        j = i % len(domains)
        f, g, slack = random_max_principle_instance(rng, domains[j], bands[j])
        corrupt = f.copy()
        corrupt.values[rng.integers(0, domains[j].n_interior)] += float(slack.max()) + 2.0
        try:
            max_principle_check(corrupt, g)
        except ValueError:
            detected += 1
    if detected != probes:
        failures.append(f"only {detected}/{probes} injected violations detected")
    detail = f"{instances} instances, {probes} fault probes"
    return SuiteResult("maximum_principle", not failures, "; ".join(failures) or detail)


# Pairs per stacked green_identity_defect call. The suite took 4.4-4.5,
# 3.3-3.4, 4.0, 4.7, 4.5 and 4.6 ms in stacks of 5, 10, 15, 20, 25 and 50
# pairs, with a peak resident memory of 35.5-35.6, 35.7, 36.1, 36.2, 36.8
# and 37.8 MB (medians over seeds 5-24, two runs, 2-core Xeon).
_GREEN_BLOCK = 10


def _green_identity_domain(rng, domain, pairs, laplacian_fn):
    """Defects of `pairs` random pairs on one domain, checked in draw order.

    Returns the worst defect up to and including the first one >= 1e-10,
    and that defect or None. Each pair is u = uniform(-1, 1, n_closure)
    then v's interior = uniform(-1, 1, n_interior), so a block of pairs is
    one `rng.random` array mapped as -1 + 2d, bit for bit. After a failing
    pair the generator is rewound to its block's start and redrawn through
    that pair, so it ends where a per-pair loop stopping there would.
    """
    n_closure = domain.n_closure
    width = n_closure + domain.n_interior
    worst = 0.0
    for start in range(0, pairs, _GREEN_BLOCK):
        state = rng.bit_generator.state
        d = -1.0 + 2.0 * rng.random((min(_GREEN_BLOCK, pairs - start), width))
        u = LatticeField(domain, d[:, :n_closure])
        v = from_interior(domain, d[:, n_closure:])
        for i, defect in enumerate(green_identity_defect(u, v, laplacian_fn=laplacian_fn).tolist()):
            worst = max(worst, defect)
            if defect >= 1e-10:
                rng.bit_generator.state = state
                rng.random((i + 1, width))
                return worst, defect
    return worst, None


def green_identity_suite(rng, domains, pairs=100, laplacian_fn=laplacian_interior) -> SuiteResult:
    """Summation-by-parts defect below 1e-10 on random pairs per domain, the domains in turn.

    A domain stops at its first failing pair. Pairs are evaluated in
    stacks of _GREEN_BLOCK, with the draws of a per-pair loop.
    """
    worst = 0.0
    failures = []
    for domain in domains:
        domain_worst, failed = _green_identity_domain(rng, domain, pairs, laplacian_fn)
        worst = max(worst, domain_worst)
        if failed is not None:
            failures.append(f"defect {failed:.3e} on {domain!r}")
    detail = f"{pairs} pairs x {len(domains)} domains, worst defect {worst:.3e}"
    return SuiteResult("green_identity", not failures, "; ".join(failures) or detail)


# Fields per stacked gns_ratio call. On plain interior rows the suite took
# 12.2-12.4, 10.3-10.6, 10.0, 9.6, 12.3-12.4, 12.3 and 14.5 ms in stacks
# of 25, 40, 50, 60, 75, 100 and 1000 fields, and the peak resident memory
# of the process read 36.0-36.2 MB up to stacks of 60, 36.4 at 75, 36.6
# at 100 and 45.2-45.3 at 1000 (medians over seeds 5-24, two runs, 2-core Xeon). 50
# stays clear of the step between 60 and 75.
_GNS_BLOCK = 50


def _scaled_uniform_rows(rng, rows, n):
    """`rows` fields of n values, each drawn as uniform(-s, s, n) after its scale s = uniform(0.1, 10).

    One block of doubles mapped as `Generator.uniform` maps each draw d,
    low + (high - low) * d, gives the per-field draws bit for bit and
    leaves the generator in the same state.
    """
    d = rng.random((rows, n + 1))
    scale = 0.1 + (10.0 - 0.1) * d[:, :1]
    return -scale + (scale - -scale) * d[:, 1:]


def gns_ratio_suite(rng, fields=1000) -> SuiteResult:
    """Interpolation-ratio boundedness over random zero-extended fields.

    Each (n, p) combination draws and evaluates its fields in stacks of
    _GNS_BLOCK fields, in the order the per-field draws would come. The
    three values of p share one box per dimension n, and so its edge table.
    """
    maxima = []
    failures = []
    for n in (2, 3):
        domain = make_box(n, 4 if n == 2 else 2)
        for p in (0, 1, 2):
            blocks = []
            for start in range(0, fields, _GNS_BLOCK):
                rows = _scaled_uniform_rows(rng, min(_GNS_BLOCK, fields - start), domain.n_interior)
                blocks.append(calculus.gns_ratio(domain, rows, p))
            ratios = np.concatenate(blocks)
            bad = np.flatnonzero(~np.isfinite(ratios) | (ratios <= 0.0))
            if len(bad):
                failures.append(f"degenerate ratio {ratios[bad[0]]} at n={n}, p={p}")
            maxima.append(f"n={n},p={p}: {float(ratios.max()):.4f}")
    detail = f"{fields} fields per combo; max ratios " + ", ".join(maxima)
    return SuiteResult("gns_ratio", not failures, "; ".join(failures) or detail)


def oracle_equivalence_suite(rng) -> SuiteResult:
    """Monotone scheme vs `chern_simons.newton_solve` on three small random instances."""
    failures = []
    worst = 0.0
    instances = 3
    for i in range(instances):
        n = 2 if i % 2 == 0 else 3
        hw = 3 if n == 2 else 1
        domain = make_box(n, hw)
        point = tuple(int(rng.integers(-(hw - 1), hw)) for _ in range(n)) if hw > 1 else tuple(
            0 for _ in range(n)
        )
        vortices = VortexConfig(((point, int(rng.integers(1, 3))),))
        params = ModelParams(
            lam=float(rng.uniform(0.5, 2.0)),
            p=int(rng.integers(0, 2)),
            tol_nonlinear=1e-12,
            tol_residual=1e-10,
        )
        u_scheme, _ = solve_domain(domain, vortices, params)
        u_newton = newton_solve(domain, vortices, params)
        diff = float(np.abs(u_scheme.values - u_newton.values).max())
        worst = max(worst, diff)
        if diff >= 1e-7:
            failures.append(f"instance {i}: disagreement {diff:.3e}")
    detail = f"{instances} instances, worst disagreement {worst:.3e}"
    return SuiteResult("oracle_equivalence", not failures, "; ".join(failures) or detail)


def faulty_laplacian(u: LatticeField) -> np.ndarray:
    """The corrupted operator of `--inject-fault green_identity`: the defect check must trip."""
    return laplacian_interior(u) + 1e-6


def run_suites(seed: int, sizes, inject_fault: str | None = None) -> list[SuiteResult]:
    """Run all suites with one seeded generator; `inject_fault` corrupts a
    named suite's inputs to demonstrate the check trips.

    The maximum-principle and summation-by-parts suites share one set of
    boxes: a 2D box of each half-width in `sizes`, then the 3D box of
    half-width 2.
    """
    rng = np.random.default_rng(seed)
    domains = [make_box(2, hw) for hw in sizes] + [make_box(3, 2)]
    results = [max_principle_suite(rng, domains)]
    if inject_fault == "green_identity":
        results.append(green_identity_suite(rng, domains, laplacian_fn=faulty_laplacian))
    else:
        results.append(green_identity_suite(rng, domains))
    results.append(gns_ratio_suite(rng))
    results.append(oracle_equivalence_suite(rng))
    return results
