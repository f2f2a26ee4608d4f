"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-mix --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. The run

1. times fresh interpreters importing lattice_vortex (setup_s),
2. starts the workload process (loop.py), which drives `cli.main` in a
   closed loop for --seconds,
3. checks every written solution against an independent Newton reference,
4. prints a readable report, then one JSON line: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.

Exit code 0 with a result line; 2 without one when the checkout holds no
package or the workload process fails.
"""

import os

# Pin BLAS before numpy loads anywhere: here, in the workload process and
# in the setup probes. cli._apply_thread_cap sets these only after numpy
# is imported, so LATTICE_VORTEX_THREADS cannot do it.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKLOAD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lattice_vortex; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env) -> list[float]:
    """Import time of lattice_vortex (numpy and scipy included) in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "git_commit": git_commit(ROOT),
        "blas_pin": BLAS_PIN,
        "blas_pin_note": "set before the interpreter starts; LATTICE_VORTEX_THREADS is "
        "applied by cli after numpy loads and has no effect",
    }


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_references(run_dir: Path, instances, records) -> dict:
    """Sup error of every distinct written solution; failures as infinity."""
    import reference

    errors = {}
    for name in sorted({r["solution"] for r in records if r["solution"]}):
        k = int(name.split("_")[1])
        try:
            errors[name] = reference.sup_error(run_dir / name, instances[k].config, instances[k].box)
        except reference.ReferenceFailure as exc:
            print(f"reference failed for {name}: {exc}")
            errors[name] = float("inf")
    return errors


def gate(records, errors) -> list[float]:
    """Apply the err_sup limit; return the error of every checked command."""
    measured = []
    for r in records:
        err = errors.get(r["solution"]) if r["solution"] else r["disagreement"]
        if err is None:
            continue
        measured.append(err)
        if r["failure"] is None and not err <= workloads.ERR_LIMIT:
            r["failure"] = f"err_sup {err:.3e} above limit {workloads.ERR_LIMIT:g}"
    return measured


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lattice_vortex CLI benchmark, one run")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lattice_vortex" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'lattice_vortex'}: run from a source checkout",
              file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()

    try:
        setup = [] if args.trace else setup_seconds(env)
        subprocess.run(
            [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run-dir", str(run_dir)] + (["--tiny"] if args.tiny else []),
            env=env, cwd=ROOT, timeout=WORKLOAD_TIMEOUT_S, check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    result = json.loads((run_dir / "result.json").read_text())
    records = result["records"]
    instances = workloads.generate(args.workload, args.seed, args.tiny)
    errors = gate(records, check_references(run_dir, instances, records))
    failed = [r for r in records if r["failure"] is not None]

    info = manifest()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, tiny=args.tiny)
    (run_dir / "manifest.json").write_text(json.dumps(info, indent=1))
    print("manifest " + json.dumps(info))
    for r in failed:
        print(f"FAILED command on instance {r['instance']}: {r['failure']}")
        if r.get("stderr"):
            print("  stderr: " + r["stderr"].strip().replace("\n", "\n  "))

    tts = [r["tts_s"] for r in records]
    if args.trace:
        metrics = {name: metric(m["value"], m["unit"]) for name, m in result["layers"].items()}
        print(f"{args.workload}: {len(records)} commands, half traced, {result['spans']} spans")
        for name, reason in sorted(result["not_applicable"].items()):
            print(f"  n/a {name}: {reason}")
    else:
        tail_value, percentile = tail(tts)
        print(f"{args.workload}: {len(records)} commands; tts_tail_s is p{percentile:.1f} "
              f"of {len(tts)} samples; fail_frac {len(failed) / len(records):.4g}")
        if any(inst.box for inst in instances):
            # With no finite error every command failed; 1.0 keeps the line valid JSON.
            err_sup = max((e for e in errors if math.isfinite(e)), default=1.0)
        else:
            # No solution.csv to check, so err_sup does not apply; report the
            # limit. The program's own disagreements still go through the gate.
            err_sup = workloads.ERR_LIMIT
            print(f"  n/a err_sup: no solution is written; reported as the limit {err_sup:g}; "
                  f"worst disagreement verify printed: {max(errors, default=float('nan')):.4g}")
        metrics = {
            "tts_s": metric(statistics.fmean(tts), "s"),
            "tts_tail_s": metric(tail_value, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "err_sup": metric(err_sup, "1"),
            "pass_frac": metric(1.0 - len(failed) / len(records), "ratio"),
        }
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<30} {value} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
