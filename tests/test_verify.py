import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lattice_vortex import verify
from lattice_vortex.calculus import LatticeField, from_interior, gns_ratio, green_identity_defect
from lattice_vortex.lattice import make_ball, make_box
from lattice_vortex.linsolve import damped_band
from lattice_vortex.verify import (
    _scaled_uniform_rows,
    faulty_laplacian,
    gns_ratio_suite,
    green_identity_suite,
    max_principle_suite,
    random_max_principle_instance,
    run_suites,
)

from brute import naive_interior_matrix, naive_laplacian

# Recorded by run_suites(11, [1, 2]). The gns_ratio line comes from the
# per-field suites that preceded the stacked ones, whose draws are
# unchanged; the oracle_equivalence line from solves at the default shift
# 1.1*kappa(p)*lam, dropped on the zero-shift core. The
# maximum_principle and green_identity lines come from the per-instance
# suites (one sparse solve per instance, one call per pair) that preceded
# the banded and stacked ones.
RECORDED_SEED_11 = {
    "maximum_principle": "100 instances, 5 fault probes",
    "green_identity": "100 pairs x 3 domains, worst defect 2.132e-14",
    "gns_ratio": (
        "1000 fields per combo; max ratios n=2,p=0: 0.2497, n=2,p=1: 0.5214, "
        "n=2,p=2: 0.6555, n=3,p=0: 0.1980, n=3,p=1: 0.4612, n=3,p=2: 0.6024"
    ),
    "oracle_equivalence": "3 instances, worst disagreement 9.592e-13",
}


def test_run_suites_details_match_recorded_values():
    results = {r.name: r for r in run_suites(11, [1, 2])}
    assert all(r.passed for r in results.values())
    for name, detail in RECORDED_SEED_11.items():
        assert results[name].detail == detail


def test_run_suites_seed_0_gns_ratio_row():
    # The row `verify --seed 0 --sizes 1,3,7` prints, recorded before the
    # ratio was computed from interior values alone.
    result = {r.name: r for r in run_suites(0, [1, 3, 7])}["gns_ratio"]
    assert result.passed
    assert result.detail == (
        "1000 fields per combo; max ratios n=2,p=0: 0.2577, n=2,p=1: 0.5244, "
        "n=2,p=2: 0.6500, n=3,p=0: 0.1970, n=3,p=1: 0.4676, n=3,p=2: 0.6054"
    )


def test_scaled_uniform_rows_reproduce_per_field_draws():
    for n in (9, 125):
        block_rng = np.random.default_rng(n)
        loop_rng = np.random.default_rng(n)
        block = _scaled_uniform_rows(block_rng, 200, n)
        rows = []
        for _ in range(200):
            s = loop_rng.uniform(0.1, 10.0)
            rows.append(loop_rng.uniform(-s, s, size=n))
        np.testing.assert_array_equal(block, np.array(rows))
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_gns_ratio_suite_matches_per_field_loop():
    fields = 70  # not a multiple of the stack size
    rng = np.random.default_rng(8)
    result = gns_ratio_suite(rng, fields=fields)
    ref_rng = np.random.default_rng(8)
    maxima = []
    for n in (2, 3):
        for p in (0, 1, 2):
            domain = make_box(n, 4 if n == 2 else 2)
            worst = 0.0
            for _ in range(fields):
                s = ref_rng.uniform(0.1, 10.0)
                worst = max(worst, gns_ratio(domain, ref_rng.uniform(-s, s, size=domain.n_interior), p))
            maxima.append(f"n={n},p={p}: {worst:.4f}")
    assert result.passed
    assert result.detail == f"{fields} fields per combo; max ratios " + ", ".join(maxima)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("sizes", [[hw] for hw in range(1, 8)])
def test_injected_green_fault_detected_on_every_domain(sizes):
    result = green_identity_suite(np.random.default_rng(sizes[0]), sizes, laplacian_fn=faulty_laplacian)
    assert not result.passed
    # One failure per domain: the 2D box of this half-width and the 3D box.
    assert result.detail.count("defect") == 2
    assert f"interior={(2 * sizes[0] + 1) ** 2}," in result.detail
    assert "dim=3" in result.detail


def test_max_principle_suite_builds_each_operator_once(monkeypatch):
    built = []
    band = verify.damped_band

    def counting(domain):
        built.append(domain)
        return band(domain)

    monkeypatch.setattr(verify, "damped_band", counting)
    assert max_principle_suite(np.random.default_rng(0), [1, 2]).passed
    assert len(built) == 3


def _suite_domains(sizes):
    domains = [make_box(2, hw) for hw in sizes] + [make_box(3, 2)]
    return domains, [damped_band(domain) for domain in domains]


@pytest.mark.parametrize("instances", [100, 7])
def test_max_principle_stacks_equal_per_instance_draws(instances):
    # 7 instances give the first domain one row more than the other two.
    domains, bands = _suite_domains([1, 3])
    rng = np.random.default_rng(21)
    stacks = verify._max_principle_stacks(rng, domains, bands, instances)
    ref_rng = np.random.default_rng(21)
    for i in range(instances):
        j = i % len(domains)
        f, g, slack = random_max_principle_instance(ref_rng, domains[j], bands[j])
        for got, want in zip(stacks[j], (f.values, g.values, slack)):
            np.testing.assert_array_equal(got[i // len(domains)], want)
    assert [len(f) for f, _, _ in stacks] == [len(range(j, instances, 3)) for j in range(3)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _check_failing_on(rows):
    """`max_principle_check` that also fails any stack or instance holding one of the f rows `rows`."""
    real = verify.max_principle_check

    def check(f, g):
        held = real(f, g)
        values = np.atleast_2d(f.values)
        return held and not any(
            len(row) == values.shape[1] and (values == row).all(axis=1).any() for row in rows
        )

    return check


def test_max_principle_failures_named_by_their_own_instance(monkeypatch):
    sizes = [1, 2]
    domains, bands = _suite_domains(sizes)
    stacks = verify._max_principle_stacks(np.random.default_rng(3), domains, bands, 100)
    # instance 37 lies on domain 1 and instance 6 on domain 0
    rows = [stacks[37 % 3][0][37 // 3], stacks[6 % 3][0][6 // 3]]
    monkeypatch.setattr(verify, "max_principle_check", _check_failing_on(rows))
    result = max_principle_suite(np.random.default_rng(3), sizes)
    assert not result.passed
    assert result.detail == "instance 6: positive value escaped; instance 37: positive value escaped"


def test_max_principle_hypothesis_violation_raises(monkeypatch):
    # Instance 37 (domain 1) gets a positive boundary value and instance 5
    # (domain 2) a zero g. The stack of domain 1 is checked first, but an
    # instance-by-instance check meets instance 5 first, and so must the
    # suite: it raises instance 5's error.
    real = verify._max_principle_stacks

    def corrupt(rng, domains, bands, instances):
        stacks = real(rng, domains, bands, instances)
        stacks[37 % 3][0][37 // 3, -1] = 1.0
        stacks[5 % 3][1][5 // 3, 0] = 0.0
        return stacks

    monkeypatch.setattr(verify, "_max_principle_stacks", corrupt)
    with pytest.raises(ValueError, match="g must be strictly positive"):
        max_principle_suite(np.random.default_rng(3), [1, 2])


@pytest.mark.parametrize(
    "domain", [make_box(2, 1), make_box(2, 3, center=(1, -2)), make_box(3, 2), make_ball(2, 4)]
)
def test_max_principle_operator_equals_assembled_difference(domain):
    n_int = domain.n_interior
    # -Laplacian on the interior
    minus_lap = naive_interior_matrix(domain, 0.0)
    band = damped_band(domain)
    bw = band.shape[0] - 1
    rng = np.random.default_rng(n_int)
    for _ in range(3):
        f, g, slack = random_max_principle_instance(rng, domain, band)
        # the symmetric matrix the band stores, entry for entry
        upper = sp.diags([band[bw - k, k:] for k in range(bw + 1)], range(bw + 1))
        got = (sp.triu(upper, 1).T + upper).toarray()
        want = (sp.diags(g.values[:n_int]) + minus_lap).toarray()
        np.testing.assert_array_equal(got, want)
    # the public instance solves that difference to rounding
    f, g, slack = random_max_principle_instance(np.random.default_rng(5), domain, damped_band(domain))
    full_b = np.concatenate([np.zeros(n_int), f.boundary_values])
    rhs = full_b[domain.interior_neighbors].sum(axis=1) - slack
    operator = (sp.diags(g.values[:n_int]) + minus_lap).tocsc()
    bound = 1e-12 * (1.0 + np.abs(f.interior).max())
    assert np.abs(f.interior - spla.spsolve(operator, rhs)).max() <= bound
    assert np.abs(operator @ f.interior - rhs).max() <= bound


@pytest.mark.parametrize(
    "domain", [make_box(2, 1), make_box(3, 2), make_ball(2, 3)], ids=["box2d", "box3d", "ball2d"]
)
def test_random_max_principle_instance_meets_the_hypotheses(domain):
    # Checked site by site with the enumerated Laplacian, not the package's.
    rng = np.random.default_rng(domain.n_closure)
    for _ in range(3):
        f, g, slack = random_max_principle_instance(rng, domain, damped_band(domain))
        assert g.values.min() > 0.0
        assert slack.min() >= 0.0
        assert f.boundary_values.max() <= 0.0
        damped = [
            naive_laplacian(f, x) - g.values[i] * f.values[i]
            for i, x in enumerate(map(tuple, domain.coords[: domain.n_interior]))
        ]
        bound = 1e-12 * (1.0 + np.abs(f.values).max())
        np.testing.assert_allclose(damped, slack, rtol=0.0, atol=bound)
        # the comparison principle's conclusion
        assert f.values.max() <= 0.0


def _faulty_where_first_value_high(u):
    """Faulty only for fields whose first value exceeds 0.9: with seed 4 and
    sizes [1, 2] the first domain passes, the second fails at pair 14
    (mid-block) and the third at pair 0."""
    return verify.laplacian_interior(u) + 1e-6 * (u.values[..., :1] > 0.9)


def test_green_identity_suite_matches_per_pair_loop():
    pairs = 23  # not a multiple of the block
    sizes = [1, 2]
    for laplacian_fn in (verify.laplacian_interior, faulty_laplacian, _faulty_where_first_value_high):
        rng = np.random.default_rng(4)
        result = green_identity_suite(rng, sizes, pairs=pairs, laplacian_fn=laplacian_fn)
        ref_rng = np.random.default_rng(4)
        domains = [make_box(2, hw) for hw in sizes] + [make_box(3, 2)]
        worst = 0.0
        failures = []
        for domain in domains:
            for _ in range(pairs):
                u = LatticeField(domain, ref_rng.uniform(-1, 1, size=domain.n_closure))
                v = from_interior(domain, ref_rng.uniform(-1, 1, size=domain.n_interior))
                defect = green_identity_defect(u, v, laplacian_fn=laplacian_fn)
                worst = max(worst, defect)
                if defect >= 1e-10:
                    failures.append(f"defect {defect:.3e} on {domain!r}")
                    break
        detail = f"{pairs} pairs x {len(domains)} domains, worst defect {worst:.3e}"
        assert result.passed == (not failures)
        assert result.detail == ("; ".join(failures) or detail)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_verify_suites_pass_at_sizes_1_3_7():
    assert all(r.passed for r in run_suites(0, [1, 3, 7]))
