"""Benchmark for the hessquot Dirichlet solver.

    python3 bench/run.py --workload solve3d --seed 1 --seconds 25 --trace 0

Runs one workload (see bench/README.md) from the root of a checkout,
importing the package from ``src/``.  The workload's fixed set of solves
is repeated, one after another in this one process, until ``--seconds``
is used (at least three passes); ``solve_s`` is the fastest pass.  Every
pass's outputs are checked.  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones from a traced run
(bench/spans.py), which also writes its span table to bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
TRACED_PASSES = 2


def cap_threads():
    """Set BLAS/OpenMP pools to the usable core count, whatever the caller's
    environment says; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(nproc)


def import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def probe_setup(name, seed):
    """Child-process entry: time importing the package and building the
    workload, print the seconds."""
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.make(name, seed)
    print(repr(time.perf_counter() - start))


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    print(f"setup times (s): {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
    # Fastest probe, for the same reason as solve_s: slower probes measure
    # other load on the host (and a cold file cache), not the imports.
    return min(times)


class Passes:
    """Repeated passes over one workload with their checks and tallies.

    ``run`` performs one pass of solves (by default the workload's own);
    only it is timed, the output check runs after it.
    """

    def __init__(self, workload, run=None):
        self.workload = workload
        self.run = run or workload.run
        self.attempted = 0
        self.failures = []
        self.last = None

    def one(self):
        start = time.perf_counter()
        outputs = self.run()
        elapsed = time.perf_counter() - start
        res = self.workload.check(outputs)
        self.attempted += res.attempted
        self.failures += res.failures
        self.last = res
        return elapsed

    def repeat(self, seconds, min_passes):
        """Run passes until the next one would end past ``seconds``, and
        at least ``min_passes``; return the pass times."""
        start = time.perf_counter()
        times = []
        while True:
            times.append(self.one())
            left = seconds - (time.perf_counter() - start)
            if len(times) >= min_passes and left < statistics.median(times):
                return times


def validate_inputs(workload):
    """Every drawn problem must pass the library's load-time checks."""
    from hessquot.errors import ProblemSpecError
    from hessquot.solver import validate_problem

    failures = []
    for prob in workload.problems():
        try:
            validate_problem(prob)
        except ProblemSpecError as err:
            failures.append(f"input rejected by validate_problem: {err}")
    return failures


def end_to_end(workloads, name, seed, seconds):
    setup_s = measure_setup(name, seed)
    workload = workloads.make(name, seed)
    failures = validate_inputs(workload)
    passes = Passes(workload)
    times = passes.repeat(seconds, MIN_PASSES)
    failures += passes.failures
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"pass times (s): {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
    # Fastest pass: on a shared host the slower passes measure other
    # tenants' load, which drifts over minutes; the median drifts with it.
    metrics = {
        "solve_s": (min(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return failures, passes.attempted, metrics


# per-layer self times: metric -> span names whose self time it sums
LAYER_SELF = {
    "solver.linsolve_s": ("solver.linear_solve",),
    "spectral.jacobi_s": ("spectral._jacobi",),
    "symfun.sigma_table_s": ("symfun._sigma_table",),
    "symfun.deleted_tables_s": ("symfun._deleted_tables",),
    "symfun.gradient_core_s": ("symfun._quotient_gradient_core",),
    "grid.operator_fields_s": ("grid._operator_fields",),
    "grid.assemble_s": ("grid.assemble_jacobian",),
    "grid.hessians_s": ("grid.interior_hessians",),
    "grid.gradients_s": ("grid.interior_gradients",),
    "expr.psi_terms_s": ("expr.psi_terms",),
    "solver.validate_s": ("solver.validate_problem",),
    "solver.psi0_s": ("solver.homotopy_rhs_field",),
    "verify.diagnostics_s": ("verify.run_diagnostics",),
    "verify.manufactured_s": ("verify.manufactured_problem",),
    "solver.controller_self_s": (
        "solver.solve_dirichlet", "solver._newton", "solver._residual_state", "solver._step",
    ),
}

# counters that must repeat exactly between traced passes of one seed
DETERMINISTIC = (
    "solver.linsolve_calls",
    "solver.linsolve_unknowns",
    "spectral.jacobi_matrices",
    "grid.operator_fields_calls",
    "grid.inadmissible_trials",
    "grid.assemble_calls",
    "grid.jacobian_nnz",
    "expr.psi_terms_calls",
    "solver.stage_attempts",
    "solver.stages_rejected",
    "solver.newton_iters",
    "solver.newton_iters_accepted",
    "solver.linesearch_trials",
    "solver.linesearch_backtracks",
)


def layer_counters(table):
    def row(name):
        return table.get(name, {"calls": 0, "raised": {}, "info": []})

    def info(name, key):
        return [i[key] for i in row(name)["info"]]

    def ratio(a, b):
        return a / b if b else 0.0

    solves = row("solver.linear_solve")
    stages = row("solver._newton")
    trials = row("solver._step")["calls"]
    accepted_steps = (
        solves["calls"] - sum(solves["raised"].values())
        - stages["raised"].get("LineSearchError", 0)
    )
    attempts = stages["calls"]
    rejected = sum(stages["raised"].values())
    return {
        "solver.linsolve_calls": solves["calls"],
        "solver.linsolve_unknowns": max(info("solver.linear_solve", "unknowns"), default=0),
        "solver.linsolve_relres_max": max(info("solver.linear_solve", "relres"), default=0.0),
        "spectral.jacobi_matrices": sum(info("spectral._jacobi", "matrices")),
        "grid.operator_fields_calls": row("grid._operator_fields")["calls"],
        "grid.inadmissible_trials": row("grid._operator_fields")["raised"].get(
            "NotAdmissibleError", 0
        ),
        "grid.assemble_calls": row("grid.assemble_jacobian")["calls"],
        "grid.jacobian_nnz": max(info("grid.assemble_jacobian", "nnz"), default=0),
        "expr.psi_terms_calls": row("expr.psi_terms")["calls"],
        "solver.stage_attempts": attempts,
        "solver.stages_rejected": rejected,
        "solver.stage_accept_ratio": ratio(attempts - rejected, attempts),
        "solver.newton_iters": solves["calls"],
        "solver.newton_iters_accepted": sum(info("solver._newton", "iters")),
        "solver.linesearch_trials": trials,
        "solver.linesearch_backtracks": trials - accepted_steps,
        "solver.linesearch_accept_ratio": ratio(accepted_steps, trials),
    }


def layer_times(table, pass_s):
    def self_s(names):
        return sum(table[n]["self_s"] for n in names if n in table)

    out = {metric: self_s(names) for metric, names in LAYER_SELF.items()}
    out["trace.unaccounted_frac"] = (pass_s - sum(out.values())) / pass_s
    return out


def traced(workloads, name, seed, seconds):
    from spans import Tracer, summarize

    workload = workloads.make(name, seed)
    failures = validate_inputs(workload)
    passes = Passes(workload)
    # the first pass pays one-off allocation costs; keep it out of the
    # untraced baseline that trace.overhead_frac compares against
    passes.one()
    plain = passes.repeat(seconds / 3.0, 1)

    tracer = Tracer()
    tables = []

    def run_traced():
        tracer.active = True
        root = tracer.open("bench.pass")
        try:
            return workload.run()
        finally:
            tracer.close(root)
            tracer.active = False
            tables.append(summarize(tracer.take()))

    tracer.install()
    try:
        traced_passes = Passes(workload, run=run_traced)
        traced_passes.repeat(seconds * 2.0 / 3.0, TRACED_PASSES)
    finally:
        tracer.uninstall()
    failures += passes.failures + traced_passes.failures
    traced_times = [t["bench.pass"]["total_s"] for t in tables]

    counters = [layer_counters(t) for t in tables]
    for i, c in enumerate(counters[1:], start=2):
        for key in DETERMINISTIC:
            if c[key] != counters[0][key]:
                failures.append(
                    f"counter {key} changed between traced passes: "
                    f"{counters[0][key]} in pass 1, {c[key]} in pass {i}"
                )
    times = [layer_times(t, s) for t, s in zip(tables, traced_times)]
    plain_s = statistics.median(plain)
    traced_s = statistics.median(traced_times)
    values = dict(counters[0])
    values.update({key: statistics.median(t[key] for t in times) for key in times[0]})
    values.update({
        "trace.solve_s": traced_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "trace.missing_spans": len(tracer.missing),
        "verify.error_inf": traced_passes.last.error_inf,
        "verify.conv_order": traced_passes.last.conv_order,
    })
    for span in tracer.missing:
        print(f"missing span: {span}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "missing_spans": tracer.missing,
            "untraced_pass_s": plain, "traced_pass_s": traced_times,
            "spans_by_name": [
                {span: {k: v for k, v in row.items() if k != "info"} for span, row in t.items()}
                for t in tables
            ],
            "metrics": values,
        }, fh, indent=1, default=str)
    return failures, passes.attempted + traced_passes.attempted, values


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hessquot" / "__init__.py").is_file():
        print(f"no hessquot package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cap_threads()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        units = per_layer_units()
        failures, attempted, values = traced(workloads, args.workload, args.seed, args.seconds)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        failures, attempted, measured = end_to_end(workloads, args.workload, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "amplitude": workloads.amplitude(args.workload, args.seed),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
