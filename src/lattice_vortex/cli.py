"""Command-line front end: domain solves, exhaustion chains, verification.

Exit codes: 0 on success, 1 when a solver or verification suite fails,
2 for malformed configurations or usage errors. Summary and report JSON
use a fixed rendering (sorted keys, 17 significant digits) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calculus import write_field_csv
from .chern_simons import (
    ConvergenceFailure,
    ModelParams,
    MonotonicityBreakdown,
    SolveFailure,
    VortexConfig,
    solve_domain,
)
from .exhaustion import ExhaustionFailure, ExhaustionSchedule, report_dict, run_exhaustion
from .lattice import domain_from_json, json_integer
from .linsolve import LinearSolveFailure, assemble, matrix_to_coo_text
from .verify import run_suites

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _integer(value, name) -> int:
    """An integral JSON number; truncating 1.5 to 1 would run a different model."""
    try:
        return json_integer(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _real(value, name) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""

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
            return format(float(x), ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        raise TypeError(f"cannot render {type(x)!r}")

    return render(obj, "") + "\n"


def _write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(render_json(obj))


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _parse_vortices(cfg, dimension) -> VortexConfig:
    entries = cfg.get("vortices", [])
    vortices = []
    for entry in entries:
        try:
            point = tuple(_integer(c, "vortex coordinate") for c in entry["point"])
            multiplicity = _integer(entry.get("multiplicity", 1), "multiplicity")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad vortex entry {entry!r}: {exc}")
        if len(point) != dimension:
            raise ConfigError(f"vortex {point} has wrong dimension")
        vortices.append((point, multiplicity))
    try:
        return VortexConfig(tuple(vortices))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_params(cfg) -> ModelParams:
    if "lambda" not in cfg:
        raise ConfigError("config must define 'lambda'")
    tols = cfg.get("tolerances", {})
    kwargs = {
        "lam": _real(cfg["lambda"], "lambda"),
        "p": _integer(cfg.get("p", 0), "p"),
        "shift": _real(cfg["shift"], "shift") if "shift" in cfg else None,
    }
    for key in ("nonlinear", "residual", "linear"):
        if key in tols:
            kwargs[f"tol_{key}"] = _real(tols[key], f"tolerances.{key}")
    if "max_outer_iterations" in cfg:
        kwargs["max_outer_iterations"] = _integer(
            cfg["max_outer_iterations"], "max_outer_iterations"
        )
    try:
        return ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _failure_kind(exc: Exception) -> str:
    if isinstance(exc, MonotonicityBreakdown):
        return "monotonicity"
    if isinstance(exc, ConvergenceFailure):
        return "max_iterations"
    if isinstance(exc, (LinearSolveFailure,)):
        return "linear_solve"
    if isinstance(exc, ExhaustionFailure):
        return "chain_violation"
    return "solver"


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    if "dimension" not in cfg or "domain" not in cfg:
        raise ConfigError("config must define 'dimension' and 'domain'")
    dimension = _integer(cfg["dimension"], "dimension")
    try:
        domain = domain_from_json(cfg["domain"], dimension=dimension)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad domain: {exc}")
    vortices = _parse_vortices(cfg, dimension)
    params = _parse_params(cfg)
    for point in vortices.points:
        if not domain.is_interior(point):
            raise ConfigError(f"vortex {point} is not interior to the domain")

    os.makedirs(args.out, exist_ok=True)
    summary = {
        "dimension": dimension,
        "interior_size": domain.n_interior,
        "lambda": params.lam,
        "p": params.p,
        "shift": params.shift,
        "backend": args.backend,
        "vortex_count": len(vortices),
    }
    try:
        u, trace = solve_domain(domain, vortices, params, backend=args.backend)
    except (SolveFailure, LinearSolveFailure) as exc:
        summary.update(
            {
                "converged": False,
                "failure": {"kind": _failure_kind(exc), "message": str(exc)},
            }
        )
        trace = getattr(exc, "trace", None)
        if trace is not None and len(trace):
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
            fh.write(matrix_to_coo_text(assemble(domain, params.shift)))
    print(
        f"converged in {trace.iterations} iterations, "
        f"residual {final.residual_inf:.3e}, J {final.j_value:.6f}"
    )
    return EXIT_OK


def cmd_exhaust(args) -> int:
    cfg = _load_config(args.config)
    for key in ("dimension", "radii"):
        if key not in cfg:
            raise ConfigError(f"config must define '{key}'")
    dimension = _integer(cfg["dimension"], "dimension")
    vortices = _parse_vortices(cfg, dimension)
    params = _parse_params(cfg)
    tols = cfg.get("tolerances", {})
    tol_global = _real(tols.get("global", 1e-5), "tolerances.global")
    decay_threshold = _real(tols.get("decay", 1e-4), "tolerances.decay")
    try:
        schedule = ExhaustionSchedule(
            dimension=dimension,
            shape=cfg.get("shape", "box"),
            radii=tuple(_integer(r, "radius") for r in cfg["radii"]),
            vortices=vortices,
            center=(
                tuple(_integer(c, "center coordinate") for c in cfg["center"])
                if "center" in cfg
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    os.makedirs(args.out, exist_ok=True)
    try:
        estimate = run_exhaustion(
            schedule,
            params,
            backend=args.backend,
            tol_global=tol_global,
            decay_threshold=decay_threshold,
        )
    except (SolveFailure, LinearSolveFailure, ExhaustionFailure) as exc:
        _write_json(
            {"success": False, "failure": {"kind": _failure_kind(exc), "message": str(exc)}},
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
    results = run_suites(args.seed, sizes, inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


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
    p_solve.add_argument("--backend", choices=("cg", "direct"), default="cg")
    p_solve.add_argument(
        "--dump-matrix", action="store_true", help="write the assembled operator in COO text"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_ex = sub.add_parser("exhaust", help="solve a nested chain of domains from a JSON config")
    p_ex.add_argument("config", help="path to the chain configuration JSON")
    p_ex.add_argument("--out", default=".", help="output directory")
    p_ex.add_argument("--backend", choices=("cg", "direct"), default="cg")
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
