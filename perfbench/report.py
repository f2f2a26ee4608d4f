"""Run every workload, print every metric by name and unit, and check the output.

    python3 perfbench/report.py            # full size, seed 0, run_seconds per run
    python3 perfbench/report.py --tiny     # self-test: tiny instances, 1 s runs

For each workload it runs run.py untraced and traced, then checks that the
last line is the result object, that it names exactly the end-to-end
(untraced) or per-layer (traced) metrics of BENCHMARK.json with their
units, and that no command failed. The self-test also runs the benchmark
in a directory that holds only BENCHMARK.json and the benchmark files and
requires it to exit non-zero without a result. Exit code 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, seconds: int, trace: int, tiny: bool):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def problems(result, expected: dict) -> list[str]:
    if result is None:
        return ["no result object on the last line"]
    found = []
    if set(result) != RESULT_KEYS:
        found.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                     f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        found.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != expected.get(name, m.get("unit")):
            found.append(f"{name}: unit {m.get('unit')!r}, expected {expected[name]!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name}: value {value!r} is not a finite number")
    return found


def empty_checkout_problems(spec: dict) -> list[str]:
    """The benchmark must refuse, without a result, where the package is absent."""
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 1, 0, True)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_line(done.stdout) is not None:
        return [f"bare checkout: exit {done.returncode}, result printed"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="self-test on tiny instances")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.tiny else spec["run_seconds"]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, seconds, trace, args.tiny)
            result = result_line(done.stdout)
            found = problems(result, expected[trace]) if done.returncode == 0 else [
                f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"
            ]
            print(f"== {workload} trace={trace}")
            if result is not None:
                print(f"   attempted {result['attempted']}, failed {result['failed']}, "
                      f"fail_frac {result['failed'] / max(result['attempted'], 1):.4g} ratio")
                for name, m in result["metrics"].items():
                    print(f"   {name:<30} {m['value']:.6g} {m['unit']}")
            for problem in found:
                print(f"   PROBLEM {problem}")
            failures += [f"{workload} trace={trace}: {p}" for p in found]
    if args.tiny:
        found = empty_checkout_problems(spec)
        print("== bare checkout: " + ("; ".join(found) or "refused without a result, as required"))
        failures += found
    print(f"{len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
