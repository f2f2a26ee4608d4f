"""Randomized verification suites behind the `verify` CLI command.

Each suite builds its own instances from a seeded generator, so a run is
reproducible given (seed, sizes). Suites return a result record instead
of raising, and support deliberate fault injection where noted, so the
checks themselves can be shown to catch defects. `oracle_equivalence`
checks the scheme against `chern_simons.newton_solve` on the same `residual`.

The suites batch their per-instance work without changing a draw: each
maximum-principle instance is one banded Cholesky solve on a band built
once per domain, and summation-by-parts pairs and interpolation-ratio
fields are drawn and evaluated in stacks, in the order single draws
would come.
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
    domain's `damped_band`, whose diagonal the call overwrites; one LAPACK
    `dpbsv` call factors and solves that SPD band system, ordering nothing
    and skipping the argument checks of `solveh_banded`.
    """
    from scipy.linalg import lapack

    n_int = domain.n_interior
    g_vals = rng.uniform(0.1, 4.0, size=domain.n_closure)
    slack = rng.uniform(0.0, 1.0, size=n_int)
    b_vals = -rng.uniform(0.0, 1.0, size=domain.n_closure - n_int)
    full_b = np.zeros(domain.n_closure)
    full_b[n_int:] = b_vals
    coupling = full_b[domain.interior_neighbors].sum(axis=1)
    band[-1] = g_vals[:n_int] + 2 * domain.dimension
    _, f_int, info = lapack.dpbsv(band, coupling - slack)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky solve failed with info {info} on {domain!r}")
    f_vals = np.concatenate([f_int, b_vals])
    return LatticeField(domain, f_vals), LatticeField(domain, g_vals), slack


def max_principle_suite(rng, sizes) -> SuiteResult:
    """Solve hypothesis-satisfying instances and assert non-positivity.

    Also injects hypothesis violations (a positive bump exceeding the
    damped-operator slack) and requires the checker to reject them.
    """
    domains = [make_box(2, hw) for hw in sizes] + [make_box(3, 2)]
    bands = [damped_band(domain) for domain in domains]
    instances, probes = 100, 5
    failures = []
    for i in range(instances):
        j = i % len(domains)
        f, g, slack = random_max_principle_instance(rng, domains[j], bands[j])
        if not max_principle_check(f, g):
            failures.append(f"instance {i}: positive value escaped")
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


# Pairs per stacked green_identity_defect call. Over one pair at a time,
# blocks of 25 raised the peak resident memory of a verify process by
# about 1 MB (the gathered edge differences); blocks of 10 by under 0.2 MB.
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


def green_identity_suite(rng, sizes, pairs=100, laplacian_fn=laplacian_interior) -> SuiteResult:
    """Summation-by-parts defect below 1e-10 on random pairs per domain.

    A domain stops at its first failing pair. Pairs are evaluated in
    stacks of _GREEN_BLOCK, with the draws of a per-pair loop.
    """
    domains = [make_box(2, hw) for hw in sizes] + [make_box(3, 2)]
    worst = 0.0
    failures = []
    for domain in domains:
        domain_worst, failed = _green_identity_domain(rng, domain, pairs, laplacian_fn)
        worst = max(worst, domain_worst)
        if failed is not None:
            failures.append(f"defect {failed:.3e} on {domain!r}")
    detail = f"{pairs} pairs x {len(domains)} domains, worst defect {worst:.3e}"
    return SuiteResult("green_identity", not failures, "; ".join(failures) or detail)


# Fields per stacked gns_ratio call. One 1000-field stack raised the peak
# resident memory of a verify command by about 10 MB (the squares, their
# powers and the edge differences); stacks of 25 and of 100 stay within
# 0.3 MB of one field at a time, and the suite ran about 10% slower in
# stacks of 100 than in stacks of 25 (2-core Xeon, seeds 0-4).
_GNS_BLOCK = 25


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
    _GNS_BLOCK fields, in the order the per-field draws would come.
    """
    combos = [(n, p) for n in (2, 3) for p in (0, 1, 2)]
    maxima = []
    failures = []
    for n, p in combos:
        domain = make_box(n, 4 if n == 2 else 2)
        blocks = []
        for start in range(0, fields, _GNS_BLOCK):
            rows = _scaled_uniform_rows(rng, min(_GNS_BLOCK, fields - start), domain.n_interior)
            blocks.append(calculus.gns_ratio(from_interior(domain, rows), p))
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
    named suite's inputs to demonstrate the check trips."""
    rng = np.random.default_rng(seed)
    results = [max_principle_suite(rng, sizes)]
    if inject_fault == "green_identity":
        results.append(green_identity_suite(rng, sizes, laplacian_fn=faulty_laplacian))
    else:
        results.append(green_identity_suite(rng, sizes))
    results.append(gns_ratio_suite(rng))
    results.append(oracle_equivalence_suite(rng))
    return results
