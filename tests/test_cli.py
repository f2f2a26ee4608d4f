import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattice_vortex
from lattice_vortex import chern_simons, cli
from lattice_vortex.chern_simons import ModelParams, VortexConfig
from lattice_vortex.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, ConfigError, main, render_json
from lattice_vortex.exhaustion import ExhaustionSchedule
from lattice_vortex.linsolve import LinearSolveFailure, LinearSolveInfo

from helpers import break_chain_ordering

SUITE_NAMES = ("maximum_principle", "green_identity", "gns_ratio", "oracle_equivalence")


def write_config(path, **overrides):
    cfg = {
        "dimension": 2,
        "domain": {"kind": "box", "size": 3, "center": [0, 0]},
        "vortices": [{"point": [0, 0], "multiplicity": 1}],
        "lambda": 1.0,
        "p": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def write_exhaust_config(path, **overrides):
    cfg = {
        "dimension": 2,
        "shape": "box",
        "radii": [4, 8, 16],
        "vortices": [{"point": [0, 0], "multiplicity": 1}],
        "lambda": 1.0,
        "p": 0,
        "tolerances": {"global": 1e-3, "decay": 1e-4},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_render_json_fixed_format():
    text = render_json({"b": 1.5, "a": [True, None, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert "1.5" in text
    assert "true" in text and "null" in text


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), np.float64("inf")])
def test_render_json_refuses_non_finite_floats(value):
    # JSON has no such token; Python would write `inf`, which json.load rejects.
    with pytest.raises(ValueError, match="non-finite"):
        render_json({"ok": 1.0, "nested": [{"bad": value}]})


@pytest.mark.parametrize("p", [1000, 10**6])
def test_large_p_solve_writes_parseable_finite_summary(tmp_path, p):
    # A 5x5 box at p = 1000: w ** 2002 passes 1.8e308 and the unscaled
    # l2p2_norm read inf. At p = 10**6 each power took 2 * 10**6 multiplies.
    cfg = write_config(tmp_path / "run.json", p=p, domain={"kind": "box", "size": 2, "center": [0, 0]})
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    # The l^m norm of m = 2p + 2 lies between the sup norm and 25^(1/m) times it.
    sup = -summary["min_value"]
    assert sup <= summary["l2p2_norm"] <= sup * 25.0 ** (1.0 / (2 * p + 2))


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] >= 1
    assert summary["residual_inf"] < 1e-8
    assert (out / "solution.csv").exists()
    assert (out / "trace.csv").exists()
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "k,J,sup_change,residual,l2p2_norm"
    # trace.csv is the whole per-step record: one column per TraceRecord field.
    assert len(header.split(",")) == len(dataclasses.fields(chern_simons.TraceRecord))


def test_solve_deterministic_summary(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_solve_empty_vortex_list(tmp_path):
    cfg = write_config(tmp_path / "run.json", vortices=[])
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] == 1
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    assert all(float(r.rsplit(",", 1)[1]) == 0.0 for r in rows)


def test_solve_vortex_outside_domain_is_usage_error(tmp_path):
    cfg = write_config(
        tmp_path / "run.json", vortices=[{"point": [9, 9], "multiplicity": 1}]
    )
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()  # no partial output


def test_solve_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dimension": 2}))
    assert main(["solve", str(missing), "--out", str(tmp_path / "o2")]) == EXIT_USAGE


def test_solve_failure_reports_reason(tmp_path):
    cfg = write_config(tmp_path / "run.json", max_outer_iterations=2)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["kind"] == "max_iterations"


def test_solve_unreachable_residual_reports_linear_solve(tmp_path):
    # A residual tolerance of 1e-300 becomes a linear target no CG iterate
    # can meet; p.Ap underflows to zero and the pass ends instead of dividing.
    cfg = write_config(
        tmp_path / "run.json",
        domain={"kind": "box", "size": 4, "center": [0, 0]},
        tolerances={"residual": 1e-300},
    )
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["kind"] == "linear_solve"


def test_solve_stagnation_reports_its_kind(tmp_path, monkeypatch):
    # From step 2 on the solve returns its start: the change is exactly zero
    # while the residual is still far above tolerance.
    real_solve = chern_simons.solve_interior
    calls = []

    def stalled_solve(system, rhs, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return real_solve(system, rhs, **kwargs)
        x0 = kwargs["x0"]
        return x0.copy(), LinearSolveInfo(0, system.matvec(x0))

    monkeypatch.setattr(chern_simons, "solve_interior", stalled_solve)
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["kind"] == "stagnated"
    assert summary["iterations"] == 2


def test_solve_linear_failure_keeps_its_trace(tmp_path, monkeypatch):
    # The third linear solve misses its tolerance with a finite residual:
    # the two steps already taken are still reported.
    real_solve = chern_simons.solve_interior
    calls = []

    def fail_third(system, rhs, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise LinearSolveFailure("missed", 1.0)
        return real_solve(system, rhs, **kwargs)

    monkeypatch.setattr(chern_simons, "solve_interior", fail_third)
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["kind"] == "linear_solve"
    assert summary["iterations"] == 2
    rows = (out / "trace.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["k", "1", "2"]


def test_exhaust_chain_violation_is_reported(tmp_path, monkeypatch):
    break_chain_ordering(monkeypatch)
    cfg = write_exhaust_config(tmp_path / "chain.json")
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False
    assert report["failure"]["kind"] == "chain_violation"
    assert re.search(r"on radius 8 rises .* above radius 4", report["failure"]["message"])


def test_solve_dump_matrix(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--dump-matrix"]) == EXIT_OK
    lines = (out / "matrix.coo").read_text().strip().splitlines()
    i, j, v = lines[0].split()
    int(i), int(j), float(v)
    assert len(lines) >= 49  # 7x7 interior diagonal alone


def assert_solve_usage_error(tmp_path, **overrides):
    cfg = write_config(tmp_path / "run.json", **overrides)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_solve_rejects_non_integral_p(tmp_path):
    assert_solve_usage_error(tmp_path, p=1.5)


def test_solve_rejects_non_integral_multiplicity(tmp_path):
    assert_solve_usage_error(tmp_path, vortices=[{"point": [0, 0], "multiplicity": 1.7}])


def test_solve_rejects_nan_lambda(tmp_path):
    assert_solve_usage_error(tmp_path, **{"lambda": float("nan")})


@pytest.mark.parametrize("key", ["nonlinear", "residual"])
def test_solve_rejects_infinite_tolerance(tmp_path, key):
    assert_solve_usage_error(tmp_path, tolerances={key: float("inf")})


def test_solve_rejects_non_integral_domain(tmp_path):
    # int() would have run a half-width-3 box centered at the origin.
    assert_solve_usage_error(
        tmp_path, domain={"kind": "box", "size": 3.7, "center": [0.4, 0]}
    )


def test_solve_large_lambda_converges_at_default_shift(tmp_path):
    # The former default shift 2(2p+2)*lam ran out of its 50,000 steps here.
    cfg = write_config(tmp_path / "run.json", p=1, **{"lambda": 1000.0})
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["shift"] == 1.1 * (chern_simons.kappa(1) * 1000.0)


def test_solve_accepts_integral_floats(tmp_path):
    cfg = write_config(tmp_path / "run.json", p=0.0, **{"lambda": 1})
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_exhaust_rejects_non_integral_radii(tmp_path):
    cfg = write_exhaust_config(tmp_path / "chain.json", radii=[4, 8.5, 16])
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [{"radii": [True, 8]}, {"center": [0.4, 0]}, {"center": [0, False]}],
    ids=["radius-bool", "center-fraction", "center-bool"],
)
def test_exhaust_non_integral_schedule_is_usage_error(tmp_path, capsys, overrides):
    cfg = write_exhaust_config(tmp_path / "chain.json", **overrides)
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "must be an integer" in capsys.readouterr().err


def test_exhaust_accepts_integral_float_radii_and_center(tmp_path):
    cfg = write_exhaust_config(tmp_path / "chain.json", radii=[4.0, 8.0, 16.0], center=[0.0, 0.0])
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out), "--backend", "direct"]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["radii"] == [4, 8, 16]


@pytest.mark.parametrize("key", ["global", "decay"])
def test_exhaust_rejects_non_finite_chain_tolerance(tmp_path, key):
    tolerances = {"global": 1e-3, "decay": 1e-4, key: float("nan")}
    cfg = write_exhaust_config(tmp_path / "chain.json", tolerances=tolerances)
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


# Config shapes, values and keys the model does not define, each with the
# text that names its key in the error line; each once crashed with a
# traceback, was read as another model or ran the defaults.
MALFORMED = {
    "tolerances-int": ({"tolerances": 5}, "tolerances:"),
    "tolerances-list": ({"tolerances": [1]}, "tolerances:"),
    "vortices-int": ({"vortices": 5}, "vortices:"),
    "vortex-list": ({"vortices": [[0, 0]]}, "vortices[0]:"),
    "vortex-without-point": ({"vortices": [{"multiplicity": 1}]}, "vortices[0].point"),
    "vortex-point-int": (
        {"vortices": [{"point": 5}]},
        "vortices[0]: point must be a list of 2 integers, got 5",
    ),
    "vortex-point-3d": (
        {"vortices": [{"point": [0, 0, 0]}]},
        "vortices[0]: point must be a list of 2 integers, got [0, 0, 0]",
    ),
    # The top-level key, not the domain block that reads it.
    "dimension-string": ({"dimension": "2"}, "config error: dimension must be an integer"),
    "dimension-one": ({"dimension": 1}, "config error: dimension must be at least 2"),
    "vortex-unknown-key": (
        {"vortices": [{"point": [0, 0], "multiplicty": 2}]},
        "vortices[0]: unknown key 'multiplicty'",
    ),
    "unknown-key": ({"lambada": 2.0}, "'lambada'"),
    "lambda-bool": ({"lambda": True}, "lambda must"),
    "lambda-string": ({"lambda": "1.0"}, "lambda must"),
    "p-bool": ({"p": True}, "p must"),
    # The damping shift and the linear tolerance are fixed, not inputs.
    "shift": ({"shift": 4.0}, "config error: unknown key 'shift'"),
    "tolerance-linear": (
        {"tolerances": {"linear": 1e-12}},
        "config error: tolerances: unknown key 'linear'",
    ),
    "tolerance-inf": ({"tolerances": {"nonlinear": float("inf")}}, "tolerances.nonlinear must"),
    # The shift 1.1*kappa_p*lam overflows to inf or underflows to 0.
    "lambda-shift-inf": ({"lambda": 1.7e308}, "config error: lambda 1.7e+308 gives shift inf"),
    "lambda-shift-zero": ({"lambda": 1e-323, "p": 1}, "config error: lambda 1e-323 gives shift 0.0"),
    # 4*pi*n is inf, or n does not even convert to a float.
    "multiplicity-charge-inf": (
        {"vortices": [{"point": [0, 0], "multiplicity": 1e308}]},
        "config error: vortices: multiplicity at (0, 0) must have a finite charge",
    ),
    # kappa(p) takes sqrt(20 p^2), which overflowed into a traceback.
    "p-kappa-overflow": ({"p": 10**200}, "config error: p is too large: kappa(p) overflows a float"),
    "multiplicity-beyond-float": (
        {"vortices": [{"point": [0, 0], "multiplicity": 10**400}]},
        "config error: vortices: multiplicity at (0, 0) must have a finite charge",
    ),
}
MALFORMED_FOR = {
    "solve": {
        "domain-int": ({"domain": 5}, "domain:"),
        "domain-unknown-key": (
            {"domain": {"kind": "box", "size": 3, "center": [0, 0], "centre": [1, 0]}},
            "domain: unknown key 'centre'",
        ),
        "domain-without-size": ({"domain": {"kind": "box", "center": [0, 0]}}, "domain.size"),
        "domain-point-int": (
            {"domain": [[0, 0], 5]},
            "domain: point 1 must be a list of 2 integers, got 5",
        ),
        "domain-interior-int": (
            {"domain": {"kind": "points", "interior": 5}},
            "domain: interior must be a list of points",
        ),
        "chain-key": ({"radii": 5}, "'radii'"),
        "chain-tolerance": ({"tolerances": {"global": 1e-3}}, "tolerances: unknown key 'global'"),
        # Sites, or their neighbors, outside int64: each domain was built with
        # wrapped coordinates or raised OverflowError after --out was created.
        "domain-points-int64": (
            {"domain": [[2**63 - 1, 0]], "vortices": []},
            "config error: domain: interior coordinates must lie within",
        ),
        "domain-ball-int64": (
            {"domain": {"kind": "ball", "size": 2, "center": [2**63 - 2, 0]}, "vortices": []},
            "config error: domain: center (9223372036854775806, 0) +- 3 leaves the int64 range",
        ),
        "domain-box-int64": (
            {"domain": {"kind": "box", "size": 3, "center": [2**63 - 1, 0]}, "vortices": []},
            "config error: domain: center (9223372036854775807, 0) +- 4 leaves the int64 range",
        ),
    },
    "exhaust": {
        "radii-int": ({"radii": 5}, "radii must"),
        # One domain measures no gap, yet reported success with final gap 0.
        "radii-one": ({"radii": [16]}, "config error: radii must list at least two radii"),
        "center-int": ({"center": 3}, "center must"),
        "domain-key": ({"domain": {"kind": "box", "size": 3, "center": [0, 0]}}, "'domain'"),
        # The smallest domain fits; the largest does not.
        "center-box-int64": (
            {"center": [2**63 - 12, 0], "radii": [2, 12], "vortices": []},
            "config error: center (9223372036854775796, 0) +- 13 leaves the int64 range",
        ),
        "center-ball-int64": (
            {"shape": "ball", "center": [2**63 - 12, 0], "radii": [2, 12], "vortices": []},
            "config error: center (9223372036854775796, 0) +- 13 leaves the int64 range",
        ),
    },
}


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        pytest.param(command, overrides, key, id=f"{command}-{name}")
        for command, own in MALFORMED_FOR.items()
        for name, (overrides, key) in {**MALFORMED, **own}.items()
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, command, overrides, key):
    write = write_config if command == "solve" else write_exhaust_config
    cfg = write(tmp_path / "run.json", **overrides)
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and key in line
    assert not out.exists()


def test_solve_box_far_from_the_origin(tmp_path):
    # Coordinates near 2**62 stay exact: no site or neighbor leaves int64.
    far = 2**62
    cfg = write_config(
        tmp_path / "run.json",
        domain={"kind": "box", "size": 3, "center": [far, 0]},
        vortices=[{"point": [far, 0], "multiplicity": 1}],
    )
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    xs = {int(row.split(",")[0]) for row in rows}
    assert xs == set(range(far - 4, far + 5))


# For each field of ModelParams and ExhaustionSchedule, which a config sets
# one for one, bad values and the config key the CLI reads the field from.
FIELD_CASES = {
    ModelParams: {
        "lam": [(float("nan"), "lambda"), (1.7e308, "lambda")],
        "p": [(-1, "p")],
        "tol_nonlinear": [(0.0, "tolerances.nonlinear")],
        "tol_residual": [(float("inf"), "tolerances.residual")],
        "max_outer_iterations": [(0, "max_outer_iterations")],
    },
    ExhaustionSchedule: {
        "dimension": [(1, "dimension")],
        "shape": [("hex", "shape")],
        "radii": [([4], "radii"), ([4, 2], "radii")],
        "vortices": [(VortexConfig((((9, 9), 1),)), "vortices")],
        "center": [([0.5, 0], "center"), ([2**63 - 12, 0], "center")],
        "tol_global": [(float("nan"), "tolerances.global")],
        "decay_threshold": [(0.0, "tolerances.decay")],
    },
}
VALID_FIELDS = {
    ModelParams: {"lam": 1.0},
    ExhaustionSchedule: {
        "dimension": 2,
        "shape": "box",
        "radii": [2, 12],
        "vortices": VortexConfig((((0, 0), 1),)),
        "center": [0, 0],
    },
}


def test_field_cases_cover_every_field():
    # A field added to either owner needs a case, and so a config key.
    for owner, cases in FIELD_CASES.items():
        assert set(cases) == {f.name for f in dataclasses.fields(owner)}


@pytest.mark.parametrize(
    "owner, field, bad, key",
    [
        pytest.param(owner, field, bad, key, id=f"{owner.__name__}.{field}-{i}")
        for owner, cases in FIELD_CASES.items()
        for field, values in cases.items()
        for i, (bad, key) in enumerate(values)
    ],
)
def test_config_error_begins_with_the_config_key(owner, field, bad, key):
    with pytest.raises(ConfigError) as err, cli._at(""):
        owner(**{**VALID_FIELDS[owner], field: bad})
    assert str(err.value).startswith(f"{key} ")


def test_solve_and_exhaust_never_load_scipy(tmp_path):
    # A fresh interpreter runs solves and chains on boxes and balls, a ball
    # solve with its COO dump, each with either --backend, and no scipy
    # module is loaded: the domain fixes the solve, the box inverse on a box
    # and CG elsewhere. verify and newton_solve then load LAPACK through
    # scipy.linalg, but not scipy.sparse.
    solve = write_config(tmp_path / "box.json", p=1)
    chain = write_exhaust_config(tmp_path / "chain.json")
    ball = write_config(tmp_path / "ball.json", domain={"kind": "ball", "size": 5, "center": [0, 0]})
    ball_chain = write_exhaust_config(
        tmp_path / "ball_chain.json", shape="ball", radii=[4, 8, 12], **{"lambda": 2.0}
    )
    probe = (
        "import sys\n"
        "from lattice_vortex.chern_simons import ModelParams, VortexConfig, newton_solve\n"
        "from lattice_vortex.cli import main\n"
        "from lattice_vortex.lattice import make_box\n"
        "def run(*argv):\n"
        "    code = main(list(argv))\n"
        "    assert code == 0, (argv, code)\n"
        f"out = {str(tmp_path)!r}\n"
        "for backend in ('cg', 'direct'):\n"
        "    flag = ('--backend', backend)\n"
        f"    run('solve', {str(solve)!r}, '--out', out + '/box_' + backend, *flag)\n"
        f"    run('exhaust', {str(chain)!r}, '--out', out + '/chain_' + backend, *flag)\n"
        f"    run('solve', {str(ball)!r}, '--out', out + '/ball_' + backend, '--dump-matrix', *flag)\n"
        f"    run('exhaust', {str(ball_chain)!r}, '--out', out + '/ball_chain_' + backend, *flag)\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
        "run('verify', '--sizes', '1')\n"
        "newton_solve(make_box(2, 3), VortexConfig((((0, 0), 1),)), ModelParams(lam=1.0))\n"
        "assert 'scipy.linalg' in sys.modules, 'verify and newton_solve loaded no LAPACK'\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy.sparse' or m.startswith('scipy.sparse.'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lattice_vortex.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# Each command with a box and a ball input, and the files it writes, its
# JSON summary last.
FLAG_RUNS = {
    "solve-box": ("solve", lambda path: write_config(path, p=1), ("solution.csv", "trace.csv", "summary.json")),
    "solve-ball": (
        "solve",
        lambda path: write_config(path, domain={"kind": "ball", "size": 7, "center": [0, 0]}, p=1),
        ("solution.csv", "trace.csv", "summary.json"),
    ),
    "exhaust-box": ("exhaust", write_exhaust_config, ("decay.csv", "solution.csv", "report.json")),
    "exhaust-ball": (
        "exhaust",
        lambda path: write_exhaust_config(path, shape="ball", radii=[4, 8, 12], **{"lambda": 2.0}),
        ("decay.csv", "solution.csv", "report.json"),
    ),
}


@pytest.mark.parametrize("run", FLAG_RUNS)
def test_backend_flag_changes_no_output(tmp_path, run):
    # --backend is accepted and ignored: off a box, where the two values once
    # ran different solves, and on a box alike, both write the same bytes,
    # and the summary or report does not name a backend.
    command, write, names = FLAG_RUNS[run]
    cfg = write(tmp_path / "cfg.json")
    outputs = {}
    for backend in ("cg", "direct"):
        out = tmp_path / backend
        assert main([command, str(cfg), "--out", str(out), "--backend", backend]) == EXIT_OK
        outputs[backend] = {name: (out / name).read_bytes() for name in names}
    assert outputs["cg"] == outputs["direct"]
    assert "backend" not in json.loads(outputs["cg"][names[-1]])


@pytest.mark.parametrize("command", ["solve", "exhaust"])
def test_backend_flag_keeps_its_choices(tmp_path, command):
    # A misspelt value is still a usage error.
    cfg = (write_config if command == "solve" else write_exhaust_config)(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as exc:
        main([command, str(cfg), "--out", str(tmp_path / "lu"), "--backend", "lu"])
    assert exc.value.code == EXIT_USAGE


def test_solve_commands_never_factor(tmp_path, monkeypatch):
    # A solve reads no band: the box inverse and Jacobi-CG work from the
    # neighbor table, on boxes and balls alike, with either --backend.
    from lattice_vortex import linsolve

    def refuse(*args, **kwargs):
        raise AssertionError("a solve command built a band")

    monkeypatch.setattr(linsolve, "damped_band", refuse)
    monkeypatch.setattr(chern_simons, "damped_band", refuse)
    box = write_config(tmp_path / "box.json", p=1)
    box3d = write_config(
        tmp_path / "box3d.json",
        dimension=3,
        domain={"kind": "box", "size": 4, "center": [1, -2, 0]},
        vortices=[{"point": [1, -2, 0], "multiplicity": 1}],
    )
    ball = write_config(tmp_path / "ball.json", domain={"kind": "ball", "size": 5, "center": [0, 0]})
    chain = write_exhaust_config(tmp_path / "chain.json")
    for backend in ("cg", "direct"):
        for cfg in (box, box3d, ball):
            out = tmp_path / f"{cfg.stem}_{backend}"
            assert main(["solve", str(cfg), "--out", str(out), "--backend", backend]) == EXIT_OK
        out = tmp_path / f"chain_{backend}"
        assert main(["exhaust", str(chain), "--out", str(out), "--backend", backend]) == EXIT_OK


def test_box_builds_never_search_rows(tmp_path, monkeypatch):
    # make_box lays its tables out by index arithmetic on the grid of the
    # box; the sorted-row search of the general constructor is left to
    # balls and point sets. A box solve searches only to locate its vortex
    # points, one point (a 1-D row) per call.
    from lattice_vortex import lattice

    search = lattice._find_rows

    def refuse(block, rows):
        raise AssertionError("_find_rows called")

    def one_point(block, rows):
        assert rows.ndim == 1, f"_find_rows called on {rows.shape[0]} rows"
        return search(block, rows)

    monkeypatch.setattr(lattice, "_find_rows", refuse)
    for dimension, half_width in ((2, 6), (3, 3), (4, 2)):
        box = lattice.make_box(dimension, half_width, tuple(range(1, dimension + 1)))
        assert box.n_interior == (2 * half_width + 1) ** dimension
    monkeypatch.setattr(lattice, "_find_rows", one_point)
    box3d = write_config(
        tmp_path / "box3d.json",
        dimension=3,
        domain={"kind": "box", "size": 4, "center": [1, -2, 0]},
        vortices=[{"point": [1, -2, 0], "multiplicity": 1}],
    )
    for cfg, backend in ((write_config(tmp_path / "box.json", p=1), "cg"), (box3d, "direct")):
        out = tmp_path / cfg.stem
        assert main(["solve", str(cfg), "--out", str(out), "--backend", backend]) == EXIT_OK
        assert (out / "solution.csv").exists()


def test_exhaust_success(tmp_path):
    cfg = write_exhaust_config(tmp_path / "chain.json")
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out), "--backend", "direct"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is True
    assert report["gaps_strictly_decreasing"] is True
    gaps = [e["gap_to_previous"] for e in report["per_radius"][1:]]
    assert gaps == sorted(gaps, reverse=True)
    decay_lines = (out / "decay.csv").read_text().splitlines()
    assert decay_lines[0] == "shell_radius,sup_abs"
    assert (out / "solution.csv").exists()


def test_exhaust_starts_each_radius_from_its_predecessor(tmp_path):
    # From zero every radius after the first takes 37 steps; started from
    # the previous solution the later radii need fewer and fewer.
    cfg = write_exhaust_config(tmp_path / "chain.json", radii=[4, 8, 16, 32])
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [e["iterations"] for e in report["per_radius"]] == [43, 30, 18, 4]


def test_exhaust_no_vortices(tmp_path):
    cfg = write_exhaust_config(tmp_path / "chain.json", vortices=[], radii=[2, 4])
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["per_radius"][1]["gap_to_previous"] == 0.0


def test_exhaust_non_nested_radii_is_usage_error(tmp_path):
    cfg = write_exhaust_config(tmp_path / "chain.json", radii=[8, 4])
    assert main(["exhaust", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    cfg2 = write_exhaust_config(tmp_path / "chain2.json", radii=[4, 4])
    assert main(["exhaust", str(cfg2), "--out", str(tmp_path / "o2")]) == EXIT_USAGE


def test_exhaust_incomplete_certificates_fail(tmp_path):
    # short chain cannot meet the default gap tolerance
    cfg = write_exhaust_config(
        tmp_path / "chain.json", radii=[2, 4], tolerances={"global": 1e-9}
    )
    out = tmp_path / "out"
    assert main(["exhaust", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "3", "--sizes", "1,2"]) == EXIT_OK
    output = capsys.readouterr().out
    assert output.count("PASS") == 4


def test_verify_fault_injection_detected(capsys):
    assert main(["verify", "--seed", "3", "--sizes", "1", "--inject-fault", "green_identity"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "green_identity      FAIL" in captured.out or "FAIL" in captured.out
    assert "green_identity" in captured.err


def test_verify_empty_sizes_is_usage_error():
    assert main(["verify", "--sizes", ""]) == EXIT_USAGE


def test_verify_zero_size_is_usage_error(capsys):
    assert main(["verify", "--sizes", "0"]) == EXIT_USAGE
    assert "positive" in capsys.readouterr().err


def test_verify_negative_size_is_usage_error(capsys):
    assert main(["verify", "--sizes", "-3"]) == EXIT_USAGE
    assert "positive" in capsys.readouterr().err


def test_verify_negative_seed_is_usage_error(capsys):
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_verify_output_rows_parse(capsys):
    # The row format that scripts read from verify's output: one PASS row
    # per suite and a float after "worst disagreement".
    assert main(["verify", "--seed", "5", "--sizes", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in SUITE_NAMES:
        assert len(re.findall(rf"^{name}\s+PASS", out, re.MULTILINE)) == 1
    found = re.search(
        r"^oracle_equivalence\s+\S+\s.*worst disagreement (\S+)", out, re.MULTILINE
    )
    assert found is not None
    assert 0.0 <= float(found.group(1)) < 1e-7


def recorded_verify_runs():
    """(argv, exit code, stdout) of each record in `verify_sizes_1_3_7.txt`."""
    text = (Path(__file__).parent / "verify_sizes_1_3_7.txt").read_text()
    runs = []
    for record in re.split(r"^\$ ", text, flags=re.MULTILINE)[1:]:
        command, code, out = record.split("\n", 2)
        runs.append(pytest.param(command.split(), int(code.removeprefix("exit ")), out, id=command))
    return runs


@pytest.mark.parametrize("argv,code,out", recorded_verify_runs())
def test_verify_output_matches_recording(argv, code, out, capsys):
    # Recorded before the suites drew and checked their instances as
    # stacks: the draws, the checks and every printed digit are unchanged.
    assert main(argv) == code
    assert capsys.readouterr().out == out


def test_solve_reports_non_finite_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(chern_simons, "nonlinearity", lambda u, params: np.full_like(u, np.nan))
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--backend", "direct"]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["kind"] == "non_finite"
    assert summary["iterations"] == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
