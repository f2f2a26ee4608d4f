"""Command-line front end: domain solves, exhaustion chains, verification.

Exit codes: 0 on success, 1 when a solver or verification suite fails,
2 for malformed configurations or usage errors. The library constructors
check every config value, every JSON object in a config may hold only the
keys its reader reads, and `_build_inputs` turns these errors into exit 2
with the key path they concern.
Summary and report JSON use a fixed rendering (sorted keys, 17
significant digits) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calculus import write_field_csv
from .chern_simons import ModelParams, SolveFailure, VortexConfig, solve_domain
from .exhaustion import ExhaustionFailure, ExhaustionSchedule, report_dict, run_exhaustion
from .lattice import domain_from_json, json_dimension, json_object, json_point
from .linsolve import LinearSolveFailure, ShiftedLaplacianSystem, matrix_to_coo_text
from .verify import run_suites

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    JSON has no token for NaN or an infinity, so a non-finite float
    raises ValueError instead of writing a file that no parser reads.
    """

    def render(x, pad):
        if isinstance(x, dict):
            if not x:
                return "{}"
            inner = ",\n".join(
                f'{pad}  {json.dumps(str(k))}: {render(v, pad + "  ")}'
                for k, v in sorted(x.items())
            )
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            return "[" + ", ".join(render(v, pad) for v in x) + "]"
        if isinstance(x, bool):
            return "true" if x else "false"
        if x is None:
            return "null"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            if not math.isfinite(x):
                raise ValueError(f"cannot render the non-finite float {float(x)!r} as JSON")
            return format(float(x), ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        raise TypeError(f"cannot render {type(x)!r}")

    return render(obj, "") + "\n"


def _write_json(obj, path):
    text = render_json(obj)
    with open(path, "w") as fh:
        fh.write(text)


def _build_inputs(path, build):
    """Read the JSON config at `path` and return `build(config)`.

    The one place where a bad value or JSON shape met while building
    becomes ConfigError, and every message names its config key (see
    `_at`). A solve or chain run is outside it, so a fault there still
    shows its traceback.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    with _at(""):
        return build(cfg)


# Config key of each ModelParams and ExhaustionSchedule field whose name differs from it.
_FIELD_KEYS = {
    "lam": "lambda",
    "tol_nonlinear": "tolerances.nonlinear",
    "tol_residual": "tolerances.residual",
    "tol_global": "tolerances.global",
    "decay_threshold": "tolerances.decay",
}
# Top-level keys that both commands read.
_SHARED_KEYS = ("dimension", "vortices", "lambda", "p", "tolerances", "max_outer_iterations")
# The fields of ModelParams and of ExhaustionSchedule that the tolerances block sets.
_SOLVER_TOLERANCES = ("tol_nonlinear", "tol_residual")
_CHAIN_TOLERANCES = ("tol_global", "decay_threshold")


@contextlib.contextmanager
def _at(path: str):
    """Turn an error raised while building the value at key `path` into a ConfigError naming it.

    At the top (`path` ""), ModelParams and ExhaustionSchedule take several
    keys and begin each message with the field they reject, so that field
    is replaced by its key; other top-level messages name their key already.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        key = f"{path}.{exc.args[0]}" if path else exc.args[0]
        raise ConfigError(f"config must define {key}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        message = str(exc)
        if path:
            raise ConfigError(f"{path}: {message}") from None
        field = message.split(" ", 1)[0]
        raise ConfigError(_FIELD_KEYS.get(field, field) + message[len(field) :]) from None


def _tolerances(cfg, fields) -> dict:
    """The values the tolerances block sets for `fields`, keyed by field name."""
    keys = {_FIELD_KEYS[name].split(".")[1]: name for name in fields}
    with _at("tolerances"):
        return {keys[key]: v for key, v in json_object(cfg.get("tolerances", {}), keys).items()}


def _vortices(cfg, dimension: int) -> VortexConfig:
    with _at("vortices"):
        entries = cfg.get("vortices", [])
        if not isinstance(entries, list):
            raise ValueError(f"expected a list, got {entries!r}")
        pairs = []
        for i, entry in enumerate(entries):
            with _at(f"vortices[{i}]"):
                json_object(entry, ("point", "multiplicity"))
                point = json_point(entry["point"], dimension, "point")
                pairs.append((point, entry.get("multiplicity", 1)))
        return VortexConfig(tuple(pairs))


def _params(cfg, tols) -> ModelParams:
    kwargs = {name: tols[name] for name in _SOLVER_TOLERANCES if name in tols}
    for key in ("p", "max_outer_iterations"):
        if key in cfg:
            kwargs[key] = cfg[key]
    return ModelParams(lam=cfg["lambda"], **kwargs)


def _solve_inputs(cfg):
    json_object(cfg, _SHARED_KEYS + ("domain",))
    block, dimension = cfg["domain"], json_dimension(cfg["dimension"])
    with _at("domain"):
        domain = domain_from_json(block, dimension=dimension)
    vortices = _vortices(cfg, dimension)
    for i, point in enumerate(vortices.points):
        if not domain.is_interior(point):
            raise ValueError(f"vortices[{i}].point {point} is not interior to the domain")
    return domain, vortices, _params(cfg, _tolerances(cfg, _SOLVER_TOLERANCES))


def _exhaust_inputs(cfg):
    json_object(cfg, _SHARED_KEYS + ("shape", "radii", "center"))
    dimension = json_dimension(cfg["dimension"])
    tols = _tolerances(cfg, _SOLVER_TOLERANCES + _CHAIN_TOLERANCES)
    schedule = ExhaustionSchedule(
        dimension=dimension,
        shape=cfg.get("shape", "box"),
        radii=cfg["radii"],
        vortices=_vortices(cfg, dimension),
        center=cfg.get("center"),
        **{name: tols[name] for name in _CHAIN_TOLERANCES if name in tols},
    )
    return schedule, _params(cfg, tols)


def cmd_solve(args) -> int:
    domain, vortices, params = _build_inputs(args.config, _solve_inputs)

    os.makedirs(args.out, exist_ok=True)
    summary = {
        "dimension": domain.dimension,
        "interior_size": domain.n_interior,
        "lambda": params.lam,
        "p": params.p,
        "shift": params.shift,
        "vortex_count": len(vortices),
    }
    try:
        u, trace = solve_domain(domain, vortices, params)
    except (SolveFailure, LinearSolveFailure) as exc:
        summary.update(
            {
                "converged": False,
                "failure": {"kind": exc.kind, "message": str(exc)},
            }
        )
        trace = exc.trace
        if trace is not None and trace.iterations:
            trace.write_csv(os.path.join(args.out, "trace.csv"))
            summary["iterations"] = trace.iterations
        _write_json(summary, os.path.join(args.out, "summary.json"))
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    final = trace.final
    summary.update(
        {
            "converged": True,
            "failure": None,
            "iterations": trace.iterations,
            "j_final": final.j_value,
            "sup_change": final.sup_change,
            "residual_inf": final.residual_inf,
            "l2p2_norm": final.l2p2_norm,
            "min_value": float(u.values.min()),
        }
    )
    write_field_csv(u, os.path.join(args.out, "solution.csv"))
    trace.write_csv(os.path.join(args.out, "trace.csv"))
    _write_json(summary, os.path.join(args.out, "summary.json"))
    if args.dump_matrix:
        with open(os.path.join(args.out, "matrix.coo"), "w") as fh:
            fh.write(matrix_to_coo_text(ShiftedLaplacianSystem(domain, params.shift)))
    print(
        f"converged in {trace.iterations} iterations, "
        f"residual {final.residual_inf:.3e}, J {final.j_value:.6f}"
    )
    return EXIT_OK


def cmd_exhaust(args) -> int:
    schedule, params = _build_inputs(args.config, _exhaust_inputs)

    os.makedirs(args.out, exist_ok=True)
    try:
        estimate = run_exhaustion(schedule, params)
    except (SolveFailure, LinearSolveFailure, ExhaustionFailure) as exc:
        _write_json(
            {"success": False, "failure": {"kind": exc.kind, "message": str(exc)}},
            os.path.join(args.out, "report.json"),
        )
        print(f"exhaustion failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_json(report_dict(estimate), os.path.join(args.out, "report.json"))
    with open(os.path.join(args.out, "decay.csv"), "w") as fh:
        fh.write("shell_radius,sup_abs\n")
        for radius, sup in estimate.decay:
            fh.write(f"{radius},{format(sup, '.17g')}\n")
    write_field_csv(estimate.finest_field, os.path.join(args.out, "solution.csv"))
    status = "success" if estimate.success else "incomplete"
    print(
        f"exhaustion {status}: final gap {estimate.final_gap:.3e}, "
        f"outer shell sup {estimate.boundary_shell_sup:.3e}"
    )
    if not estimate.success:
        print("exhaustion certificates not met", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes: {exc}")
    if not sizes:
        raise ConfigError("--sizes must list at least one half-width")
    if min(sizes) < 1:
        raise ConfigError(f"--sizes half-widths must be positive, got {min(sizes)}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    results = run_suites(args.seed, sizes, inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# Built once per process, since `main` may run many commands in one.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-vortex",
        description="Monotone-iteration solver for a vortex equation on integer lattices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve on one finite domain from a JSON config")
    p_solve.add_argument("config", help="path to the run configuration JSON")
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.add_argument(
        "--backend", choices=("cg", "direct"), default="cg", help="ignored: the domain fixes the linear solve"
    )
    p_solve.add_argument(
        "--dump-matrix", action="store_true", help="write the damped operator in COO text"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_ex = sub.add_parser("exhaust", help="solve a nested chain of domains from a JSON config")
    p_ex.add_argument("config", help="path to the chain configuration JSON")
    p_ex.add_argument("--out", default=".", help="output directory")
    p_ex.add_argument(
        "--backend", choices=("cg", "direct"), default="cg", help="ignored: the domain fixes the linear solve"
    )
    p_ex.set_defaults(func=cmd_exhaust)

    p_ver = sub.add_parser("verify", help="run the randomized verification suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--sizes", default="1,3,7", help="comma-separated box half-widths")
    p_ver.add_argument(
        "--inject-fault",
        choices=("green_identity",),
        default=None,
        help="corrupt a suite's operator to demonstrate detection",
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
