"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module-level functions of the ``hessquot`` package
with timing wrappers, at every name their callers look up at call time
(``grid._jacobi`` and ``verify._jacobi`` as well as ``spectral._jacobi``),
and restores them afterwards.  Nothing inside ``src/`` changes.  Each
call records a span (name, start, end, parent, info) while the tracer is
active; a span's self time is its duration minus the time its direct
child spans cover.  A target a refactor has removed is listed in
``missing`` instead of failing the run.
"""

import functools
import importlib
import math
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


def _matrices(args, out):
    return {"matrices": int(math.prod(np.shape(args[0])[:-2]))}


def _linsolve(args, out):
    system = args[0]
    bnorm = float(np.linalg.norm(system.rhs))
    resid = float(np.linalg.norm(system.matrix @ out - system.rhs))
    return {"unknowns": int(system.rhs.shape[0]), "relres": resid / bnorm if bnorm > 0 else 0.0}


def _nnz(args, out):
    return {"nnz": int(out.matrix.nnz)}


def _stage(args, out):
    return {"iters": int(out[1].newton_iters)}


# (module, attribute path, span name, probe of (args, result) -> info)
TARGETS = (
    ("hessquot.solver", "solve_dirichlet", "solver.solve_dirichlet", None),
    ("hessquot.verify", "solve_dirichlet", "solver.solve_dirichlet", None),
    ("hessquot.solver", "validate_problem", "solver.validate_problem", None),
    ("hessquot.solver", "homotopy_rhs_field", "solver.homotopy_rhs_field", None),
    ("hessquot.solver", "_newton", "solver._newton", _stage),
    ("hessquot.solver", "_residual_state", "solver._residual_state", None),
    ("hessquot.solver", "_step", "solver._step", None),
    ("hessquot.solver", "linear_solve", "solver.linear_solve", _linsolve),
    ("hessquot.solver", "ProblemSpec.psi_terms", "expr.psi_terms", None),
    ("hessquot.solver", "_jacobi", "spectral._jacobi", _matrices),
    ("hessquot.grid", "_jacobi", "spectral._jacobi", _matrices),
    ("hessquot.verify", "_jacobi", "spectral._jacobi", _matrices),
    ("hessquot.spectral", "_jacobi", "spectral._jacobi", _matrices),
    ("hessquot.symfun", "_sigma_table", "symfun._sigma_table", None),
    ("hessquot.symfun", "_deleted_tables", "symfun._deleted_tables", None),
    ("hessquot.symfun", "_quotient_gradient_core", "symfun._quotient_gradient_core", None),
    ("hessquot.grid", "_operator_fields", "grid._operator_fields", None),
    ("hessquot.grid", "assemble_jacobian", "grid.assemble_jacobian", _nnz),
    ("hessquot.grid", "interior_hessians", "grid.interior_hessians", None),
    ("hessquot.grid", "interior_gradients", "grid.interior_gradients", None),
    ("hessquot.verify", "run_diagnostics", "verify.run_diagnostics", None),
    ("hessquot.verify", "manufactured_problem", "verify.manufactured_problem", None),
    ("hessquot.verify", "convergence_order", "verify.convergence_order", None),
)

PROBE_SPAN = "trace.probe"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.active = False
        self._stack = []
        self._saved = []

    def install(self, targets=TARGETS):
        for module_name, path, span_name, probe in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = functools.reduce(
                    getattr, owner_path, importlib.import_module(module_name)
                )
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name, probe))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                span.info = {"raised": type(err).__name__}
                raise
            finally:
                tracer.close(span)
            if probe is not None:
                # the probe's own cost goes to a sibling span, not the caller
                check = tracer.open(PROBE_SPAN)
                try:
                    span.info = probe(args, out)
                finally:
                    tracer.close(check)
            return out

        return traced

    def take(self):
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: calls, total and self seconds, raised exception
    counts, and the probe info of every call that returned."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    table = {}
    for i, span in enumerate(spans):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": {}, "info": []}
        )
        dur = span.end - span.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        if span.info and "raised" in span.info:
            kind = span.info["raised"]
            row["raised"][kind] = row["raised"].get(kind, 0) + 1
        elif span.info:
            row["info"].append(span.info)
    return table
