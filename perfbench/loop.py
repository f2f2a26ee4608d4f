"""Workload process: one client issuing CLI commands back to back, in process.

Started by run.py with BLAS already pinned in its environment. It writes
each instance's config JSON, calls `lattice_vortex.cli.main` on it until
the measuring time is spent, checks every command's outputs outside the
timed region, and leaves `result.json` (plus `spans.csv` when tracing) in
the run directory.

With --trace 1 every instance runs twice in a row, once traced and once
not, alternating which goes first, so the tracing overhead is measured on
the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_COMMANDS = 11  # the tail percentile needs ten samples beyond it
HARD_STOP_S = 120.0  # stop issuing commands here even if minimums are not met

FAIL_ROW = re.compile(r"^\S+\s+FAIL\b", re.MULTILINE)
DISAGREEMENT = re.compile(r"^oracle_equivalence\s+\S+\s.*worst disagreement (\S+)", re.MULTILINE)


def check_outputs(inst: workloads.Instance, code, out_dir: Path, stdout: str):
    """Reason the command failed the correctness gate, or None.

    Also returns the verify command's own scheme-vs-Newton disagreement.
    """
    if code != 0:
        return f"exit code {code}", None
    if inst.command == "solve":
        if json.loads((out_dir / "summary.json").read_text()).get("converged") is not True:
            return "summary.json: converged is not true", None
    elif inst.command == "exhaust":
        if json.loads((out_dir / "report.json").read_text()).get("success") is not True:
            return "report.json: success is not true", None
    else:
        if FAIL_ROW.search(stdout):
            return "verify printed a FAIL row", None
        found = DISAGREEMENT.search(stdout)
        if found is None:
            return "verify printed no oracle_equivalence disagreement", None
        return None, float(found.group(1))
    return None, None


def bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


class Client:
    def __init__(self, cli, instances, run_dir: Path, trace: tracer.Tracer | None):
        self.cli = cli
        self.instances = instances
        self.run_dir = run_dir
        self.trace = trace
        self.records: list[dict] = []
        self.saved: dict[tuple[int, str], str] = {}
        self.config_paths = []
        for k, inst in enumerate(instances):
            path = run_dir / f"config_{k}.json"
            if inst.config is not None:
                path.write_text(json.dumps(inst.config, indent=1))
            self.config_paths.append(str(path))

    def run(self, k: int, traced: bool):
        """Issue one command for instance k, time it, then check its outputs."""
        inst = self.instances[k]
        command_id = len(self.records)
        out_dir = self.run_dir / f"cmd_{command_id}"
        argv = inst.argv(self.config_paths[k], str(out_dir))
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.trace.command = command_id
            self.trace.install()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed command, not a dead benchmark
                code, error = None, f"raised {exc!r}"
            tts = perf_counter() - start
        if traced:
            self.trace.uninstall()
        reason, disagreement = (error, None) if error else check_outputs(inst, code, out_dir, out.getvalue())
        record = {
            "instance": k,
            "traced": traced,
            "tts_s": tts,
            "failure": reason,
            "bytes": bytes_under(out_dir),
            "disagreement": disagreement,
            "solution": None,
        }
        solution = out_dir / "solution.csv"
        if reason is None and inst.box is not None:
            digest = hashlib.sha256(solution.read_bytes()).hexdigest()
            if (k, digest) not in self.saved:
                kept = self.run_dir / f"solution_{k}_{len(self.saved)}.csv"
                shutil.copyfile(solution, kept)
                self.saved[(k, digest)] = kept.name
            record["solution"] = self.saved[(k, digest)]
        if reason is not None:
            record["stderr"] = err.getvalue()[-2000:]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.records.append(record)


def closed_loop(client: Client, seconds: float, traced_run: bool):
    """Back-to-back commands until `seconds` have passed.

    At least one full pass over the instances runs, and untraced runs
    collect enough commands for the tail percentile.
    """
    count = len(client.instances)
    start = perf_counter()
    step = 0
    while True:
        k = step % count
        if traced_run:
            for traced in ((False, True) if step % 2 == 0 else (True, False)):
                client.run(k, traced)
        else:
            client.run(k, False)
        step += 1
        elapsed = perf_counter() - start
        enough = step >= count and (traced_run or step >= MIN_COMMANDS)
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and enough):
            return


def summarize_trace(client: Client) -> dict:
    records = client.records
    traced_ids = [i for i, r in enumerate(records) if r["traced"]]
    first_pass = set(traced_ids[: len(client.instances)])
    values, not_applicable = tracer.layer_metrics(
        client.trace.spans, len(traced_ids), first_pass, client.trace.missing
    )
    written = sum(records[i]["bytes"] for i in first_pass)
    values["cli.bytes_written"] = (written, "bytes")
    if not written:
        not_applicable["cli.bytes_written"] = "the workload's command writes no files"
    overhead = statistics.fmean(r["tts_s"] for r in records if r["traced"]) - statistics.fmean(
        r["tts_s"] for r in records if not r["traced"]
    )
    values["trace.overhead_s"] = (overhead, "s")
    return {
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        "not_applicable": not_applicable,
        "spans": len(client.trace.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from lattice_vortex import cli

    run_dir = Path(args.run_dir)
    instances = workloads.generate(args.workload, args.seed, args.tiny)
    client = Client(cli, instances, run_dir, tracer.Tracer() if args.trace else None)
    closed_loop(client, args.seconds, bool(args.trace))
    result = {
        "records": client.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result.update(summarize_trace(client))
        client.trace.write_csv(run_dir / "spans.csv")
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
