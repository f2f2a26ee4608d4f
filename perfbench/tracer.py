"""Span tracing around the public functions of each lattice_vortex module.

The tracer wraps functions from outside the package: `install` swaps every
module-level binding of a target function (including `from x import y`
copies in other modules) for a recording wrapper, and `uninstall` puts
the originals back. Spans are kept in memory as
[name, start, end, parent index, command id, count, raised] and written
out once the run ends.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter

# (module, attribute, span name, count taken from the return value)
TARGETS = [
    ("lattice", "make_box", "lattice.make_box", lambda d: d.n_interior),
    ("lattice", "make_ball", "lattice.make_ball", lambda d: d.n_interior),
    ("lattice", "domain_from_json", "lattice.domain_from_json", lambda d: d.n_interior),
    ("linsolve", "assemble", "linsolve.assemble", None),
    ("linsolve", "solve_interior", "linsolve.solve_interior", lambda r: r[1].iterations),
    ("chern_simons", "solve_domain", "chern_simons.solve_domain", lambda r: r[1].iterations),
    ("chern_simons", "nonlinearity", "chern_simons.nonlinearity", None),
    ("calculus", "dirichlet_energy", "calculus.dirichlet_energy", None),
    ("calculus", "seminorm_1q", "calculus.seminorm_1q", None),
    ("calculus", "green_identity_defect", "calculus.green_identity_defect", None),
    ("calculus", "gns_ratio", "calculus.gns_ratio", None),
    ("exhaustion", "run_exhaustion", "exhaustion.run_exhaustion", None),
    ("oracle", "newton_solve", "oracle.newton_solve", None),
    ("verify", "max_principle_suite", "verify.max_principle_suite", None),
    ("verify", "green_identity_suite", "verify.green_identity_suite", None),
    ("verify", "gns_ratio_suite", "verify.gns_ratio_suite", None),
    ("verify", "oracle_equivalence_suite", "verify.oracle_equivalence_suite", None),
    ("cli", "main", "cli.main", None),
]

FACTOR_SPAN = "linsolve.factor"
PACKAGE = "lattice_vortex"

NAME, START, END, PARENT, COMMAND, COUNT, RAISED = range(7)


def _failure_count(exc) -> int:
    """Outer iterations carried by a solver failure, 0 when it has none."""
    trace = getattr(exc, "trace", None)
    return trace.iterations if trace is not None else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._factored = weakref.WeakSet()

    def _record(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[RAISED] = True
                span[COUNT] = _failure_count(exc)
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    def _factor_wrapper(self, lu):
        """Span only the first `lu()` of each system, which factors it."""
        factored = self._factored
        first = self._record(FACTOR_SPAN, lu, lambda f: f.L.nnz + f.U.nnz)

        @functools.wraps(lu)
        def traced_lu(system):
            if system in factored:
                return lu(system)
            factored.add(system)
            return first(system)

        return traced_lu

    def _swap(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        self.missing = []
        for module_name, attr, span_name, count in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(span_name)
                continue
            self._swap(original, self._record(span_name, original, count))
        system_cls = getattr(sys.modules.get(f"{PACKAGE}.linsolve"), "ShiftedLaplacianSystem", None)
        if system_cls is None or not hasattr(system_cls, "lu"):
            self.missing.append(FACTOR_SPAN)
        else:
            original = system_cls.lu
            system_cls.lu = self._factor_wrapper(original)
            self._patched.append((system_cls, "lu", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,command,count,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                    f"{s[COMMAND]},{s[COUNT]},{int(s[RAISED])}\n"
                )


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Per-layer metrics: (name, unit, statistic, span name or "module." prefix).
# Times are seconds per traced command; counts are totals over one pass of
# the workload's instances, so they repeat exactly for a given seed.
#   time   summed span durations
#   outer  summed durations of spans not nested in a span of the same module
#   self   summed durations minus direct children
#   count  summed span counts (first pass)
#   outer_count  count of spans as for `outer` (first pass)
#   calls  number of spans (first pass)
#   raised number of spans that raised (first pass)
LAYER_METRICS = [
    ("lattice.build_s", "s", "outer", "lattice."),
    ("lattice.sites", "count", "outer_count", "lattice."),
    ("linsolve.assemble_s", "s", "time", "linsolve.assemble"),
    ("linsolve.factor_s", "s", "time", FACTOR_SPAN),
    ("linsolve.factor_nnz", "count", "count", FACTOR_SPAN),
    ("linsolve.solve_s", "s", "self", "linsolve.solve_interior"),
    ("linsolve.calls", "count", "calls", "linsolve.solve_interior"),
    ("linsolve.iters", "count", "count", "linsolve.solve_interior"),
    ("linsolve.failures", "count", "raised", "linsolve.solve_interior"),
    ("chern_simons.outer_iters", "count", "count", "chern_simons.solve_domain"),
    ("chern_simons.nonlinearity_s", "s", "time", "chern_simons.nonlinearity"),
    ("chern_simons.self_s", "s", "self", "chern_simons.solve_domain"),
    ("calculus.energy_s", "s", "outer", "calculus.dirichlet_energy"),
    ("calculus.seminorm_s", "s", "outer", "calculus.seminorm_1q"),
    ("calculus.green_identity_s", "s", "outer", "calculus.green_identity_defect"),
    ("calculus.gns_ratio_s", "s", "outer", "calculus.gns_ratio"),
    ("exhaustion.self_s", "s", "self", "exhaustion.run_exhaustion"),
    ("oracle.newton_s", "s", "time", "oracle.newton_solve"),
    ("oracle.calls", "count", "calls", "oracle.newton_solve"),
    ("verify.maximum_principle_s", "s", "time", "verify.max_principle_suite"),
    ("verify.green_identity_s", "s", "time", "verify.green_identity_suite"),
    ("verify.gns_ratio_s", "s", "time", "verify.gns_ratio_suite"),
    ("verify.oracle_equivalence_s", "s", "time", "verify.oracle_equivalence_suite"),
    ("cli.self_s", "s", "self", "cli.main"),
]


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans, commands: int, first_pass: set[int], missing=()):
    """Per-layer values plus a reason for each metric the workload never reaches."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    values, not_applicable = {}, {}
    for name, unit, stat, target in LAYER_METRICS:
        match = [
            i
            for span_name, indices in by_name.items()
            if (span_name.startswith(target) if target.endswith(".") else span_name == target)
            for i in indices
        ]
        if stat in ("outer", "outer_count"):
            match = [
                i for i in match
                if spans[i][PARENT] < 0 or _module(spans[spans[i][PARENT]][NAME]) != _module(target)
            ]
        first = [i for i in match if spans[i][COMMAND] in first_pass]
        if stat in ("time", "outer"):
            value = sum(spans[i][END] - spans[i][START] for i in match) / commands
        elif stat == "self":
            value = sum(own[i] for i in match) / commands
        elif stat in ("count", "outer_count"):
            value = sum(spans[i][COUNT] for i in first)
        elif stat == "calls":
            value = len(first)
        else:
            value = sum(1 for i in first if spans[i][RAISED])
        values[name] = (value, unit)
        if not match:
            where = target.rstrip(".")
            not_applicable[name] = (
                f"{where} is not in this version of the package"
                if where in missing
                else f"the workload never calls {where}"
            )
    solves = [spans[i] for i in by_name.get("chern_simons.solve_domain", [])]
    solve_time = sum(s[END] - s[START] for s in solves)
    iters = sum(s[COUNT] for s in solves)
    values["chern_simons.us_per_iter"] = (1e6 * solve_time / iters if iters else 0.0, "us")
    if not iters:
        not_applicable["chern_simons.us_per_iter"] = "the workload never calls chern_simons.solve_domain"
    return values, not_applicable
