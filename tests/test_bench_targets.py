"""The benchmark's tracer wraps package functions by name
(bench/spans.py ``TARGETS``); a rename in ``src/`` silently drops a span.
Resolve every target the way ``Tracer.install`` does, without installing
the tracer."""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# _jacobi left grid.py and solver.py when the eigen-free kernel landed,
# and spectral.py and verify.py when sym_eig moved to LAPACK
STALE = {
    "hessquot.solver._jacobi",
    "hessquot.grid._jacobi",
    "hessquot.verify._jacobi",
    "hessquot.spectral._jacobi",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    missing = []
    for module_name, path, _, _ in _load_spans().TARGETS:
        *owner_path, attr = path.split(".")
        try:
            owner = functools.reduce(
                getattr, owner_path, importlib.import_module(module_name)
            )
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        assert callable(fn), f"{module_name}.{path}"
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
