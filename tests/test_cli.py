import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattice_vortex
from lattice_vortex import chern_simons
from lattice_vortex.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main, render_json
from lattice_vortex.linsolve import LinearSolveInfo
from lattice_vortex.verify import SUITE_NAMES


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


def test_solve_stagnation_reports_its_kind(tmp_path, monkeypatch):
    # From step 2 on the step returns its start: the change is exactly zero
    # while the residual is still far above tolerance.
    real_step = chern_simons._step_arrays
    calls = []

    def stalled_step(u_int, n_u, h_int, params, system, backend, au=None):
        calls.append(u_int)
        if len(calls) == 1:
            return real_step(u_int, n_u, h_int, params, system, backend, au)
        return u_int.copy(), LinearSolveInfo(0, 0.0, system.matrix @ u_int)

    monkeypatch.setattr(chern_simons, "_step_arrays", stalled_step)
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["failure"]["kind"] == "stagnated"
    assert summary["iterations"] == 2


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


@pytest.mark.parametrize("shift", [float("inf"), float("nan")])
def test_solve_rejects_non_finite_shift(tmp_path, shift):
    assert_solve_usage_error(tmp_path, shift=shift)


@pytest.mark.parametrize("key", ["nonlinear", "residual", "linear"])
def test_solve_rejects_infinite_tolerance(tmp_path, key):
    assert_solve_usage_error(tmp_path, tolerances={key: float("inf")})


def test_solve_rejects_non_integral_domain(tmp_path):
    # int() would have run a half-width-3 box centered at the origin.
    assert_solve_usage_error(
        tmp_path, domain={"kind": "box", "size": 3.7, "center": [0.4, 0]}
    )


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
    "vortex-unknown-key": (
        {"vortices": [{"point": [0, 0], "multiplicty": 2}]},
        "vortices[0]: unknown key 'multiplicty'",
    ),
    "unknown-key": ({"lambada": 2.0}, "'lambada'"),
    "lambda-bool": ({"lambda": True}, "lambda must"),
    "lambda-string": ({"lambda": "1.0"}, "lambda must"),
    "p-bool": ({"p": True}, "p must"),
    "shift-bool": ({"shift": True}, "shift must"),
    "tolerance-inf": ({"tolerances": {"nonlinear": float("inf")}}, "tolerances.nonlinear must"),
}
MALFORMED_FOR = {
    "solve": {
        "domain-int": ({"domain": 5}, "domain:"),
        "domain-unknown-key": (
            {"domain": {"kind": "box", "size": 3, "center": [0, 0], "centre": [1, 0]}},
            "domain: unknown key 'centre'",
        ),
        "domain-without-size": ({"domain": {"kind": "box", "center": [0, 0]}}, "domain.size"),
        "chain-key": ({"radii": 5}, "'radii'"),
        "chain-tolerance": ({"tolerances": {"global": 1e-3}}, "tolerances: unknown key 'global'"),
    },
    "exhaust": {
        "radii-int": ({"radii": 5}, "radii must"),
        "center-int": ({"center": 3}, "center must"),
        "domain-key": ({"domain": {"kind": "box", "size": 3, "center": [0, 0]}}, "'domain'"),
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


def test_thread_cap_applies_before_numpy_loads():
    # Record OPENBLAS_NUM_THREADS at the moment numpy is first imported.
    probe = (
        "import os, sys\n"
        "seen = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import lattice_vortex\n"
        "print(seen[0], os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["LATTICE_VORTEX_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "2"  # set already: left as it is
    env["PYTHONPATH"] = str(Path(lattice_vortex.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "2"]


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
