"""Batch front end: load a problem configuration, solve or verify, write
the solution grid as CSV and the run report as JSON.

Exit codes: 0 converged with clean diagnostics, 2 converged with
diagnostic warnings, 1 solver failure, 64 malformed configuration or
expressions.  Outputs are written atomically (temp file + rename) and a
fixed config and seed reproduce byte-identical outputs except for the
wall_time report field.

The config is one JSON object, read once per run.  Its keys, and where
the default of a key left out comes from:

  version     integer, required; must be 1
  mode        "solve" (default), "manufactured" or "selftest"
  seed        integer, default 0: seeds the selftest, echoed in reports
  verbosity   "debug", "info", "warning" or "error"; anything else is info
  n, k, l     integers, required; tau, a number (QuotientSpec)
  domain      object, required: lo and hi, lists of n numbers, and the
              integer resolution (Grid)
  newton      object: the number tol and the integer max_iters
              (NewtonParams tol_residual and max_iters)
  homotopy    object: the numbers dt and dt_min (HomotopyParams dt_init
              and dt_min)
  psi, phi, subsolution
              expression strings, required.  Manufactured mode reads only
              subsolution: it is the exact solution and the start of the
              continuation, so the path spans only the O(h^2) gap between
              the operator on stencil and on exact Hessians, and newton
              and homotopy act on that gap alone
  out         object: grid (CSV) and report (JSON) paths, or null for no
              output.  Before any solve, neither may name an existing
              directory, and its directory must exist or be creatable.

Selftest mode reads only seed, verbosity and out.  The value rule: an
integer is a JSON integer, a number is a JSON integer or float, neither
is a bool or a string, and every entry of domain.lo and domain.hi is a
number.  A value that breaks the rule, or that its dataclass rejects,
exits 64 with error "config".  --mode, --seed, --resolution, --t-step
and --tol override mode, seed, domain.resolution, homotopy.dt and
newton.tol; --out PREFIX sets out to PREFIX.csv and PREFIX.json.  The
log level is warning under --quiet, else HESSQUOT_LOG, else verbosity.
"""

import argparse
import json
import logging
import os
import platform
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np
import scipy

from . import __version__
from . import expr as expr_mod
from . import grid as grid_mod
from .errors import ConfigError, NotAdmissibleError, ProblemSpecError, SolverError
from .grid import Grid
from .solver import HomotopyParams, NewtonParams, ProblemSpec, solve_dirichlet
from .symfun import QuotientSpec

log = logging.getLogger("hessquot.cli")

_MODES = ("solve", "manufactured", "selftest")
# psi may fault at the start state though validation probed exact gradients
_PROBLEM_ERRORS = (ProblemSpecError, NotAdmissibleError, expr_mod.DomainFaultError)
_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
           "warning": logging.WARNING, "error": logging.ERROR}

# the value rule: the JSON types of each kind of value; a bool is none
_INTEGER, _NUMBER, _STRING = "an integer", "a number", "a string"
_OBJECT, _LIST, _PATH = "an object", "a list", "a path or null"
_KINDS = {_INTEGER: int, _NUMBER: (int, float), _STRING: str,
          _OBJECT: dict, _LIST: list, _PATH: (str, type(None))}
_REQUIRED = object()
# (flag, config section or None for the top level, key)
_OVERRIDES = (("mode", None, "mode"), ("seed", None, "seed"),
              ("resolution", "domain", "resolution"),
              ("t_step", "homotopy", "dt"), ("tol", "newton", "tol"))


def _check(value, kind, name):
    """``value`` when it is of ``kind`` under the value rule; a kind
    ``[k]`` is a list whose every entry is of kind k."""
    if isinstance(kind, list):
        return [_check(v, kind[0], f"an entry of {name}")
                for v in _check(value, _LIST, name)]
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{name} must be {kind}, got {type(value).__name__}")
    return value


def _value(section, key, kind, where="config", default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing {where} key '{key}'")
        return default
    return _check(section[key], kind, f"{where} key '{key}'")


def _set_keys(section, where, **params):
    """Arguments for the parameters in ``params`` (parameter -> (key, kind))
    whose key ``section`` sets; the others keep their dataclass default."""
    return {param: _value(section, key, kind, where)
            for param, (key, kind) in params.items() if key in section}


def _make(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as err:  # the dataclass rejected a value
        raise ConfigError(str(err)) from err


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except ValueError as err:  # not JSON, or not UTF-8
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if _value(_check(cfg, _OBJECT, "the config"), "version", _INTEGER) != 1:
        raise ConfigError(f"unsupported config version {cfg['version']}")
    # sections must have their shape before overrides write into them
    for key in ("domain", "newton", "homotopy", "out"):
        _value(cfg, key, _OBJECT, default=None)
    return cfg


def _apply_overrides(cfg, args):
    for flag, section, key in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            (cfg.setdefault(section, {}) if section else cfg)[key] = value
    if args.out is not None:
        cfg["out"] = {"grid": args.out + ".csv", "report": args.out + ".json"}
    return cfg


def _output_paths(cfg):
    """{key: path} of the outputs the config asks for, each checked so
    that writing it cannot fail on its path after a solve."""
    out = _value(cfg, "out", _OBJECT, default={})
    paths = {}
    for key in ("grid", "report"):
        path = _value(out, key, _PATH, "out", default=None)
        if not path:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"out.{key} {path!r} is an existing directory")
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        except OSError as err:
            raise ConfigError(f"out.{key} {path!r}: {err}") from err
        paths[key] = path
    return paths


def _build_problem(cfg, mode):
    n, k, l = (_value(cfg, key, _INTEGER) for key in ("n", "k", "l"))
    quotient = _make(QuotientSpec, n=n, k=k, l=l,
                     **_set_keys(cfg, "config", tau=("tau", _NUMBER)))

    domain = _value(cfg, "domain", _OBJECT)
    lo, hi = (tuple(_value(domain, key, [_NUMBER], "domain")) for key in ("lo", "hi"))
    g = _make(Grid, n=n, lo=lo, hi=hi,
              res=_value(domain, "resolution", _INTEGER, "domain"))
    newton = _make(NewtonParams, **_set_keys(
        cfg.get("newton", {}), "newton",
        tol_residual=("tol", _NUMBER), max_iters=("max_iters", _INTEGER)))
    homotopy = _make(HomotopyParams, **_set_keys(
        cfg.get("homotopy", {}), "homotopy",
        dt_init=("dt", _NUMBER), dt_min=("dt_min", _NUMBER)))

    def parse_field(key):
        return expr_mod.parse(_value(cfg, key, _STRING), n)

    if mode == "manufactured":
        from .verify import manufactured_problem

        prob, exact = manufactured_problem(parse_field("subsolution"), g, quotient)
        return replace(prob, newton=newton, homotopy=homotopy), exact
    fields = {key: parse_field(key) for key in ("psi", "phi", "subsolution")}
    return ProblemSpec(g, quotient, **fields, newton=newton, homotopy=homotopy), None


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hessquot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path, record):
    _atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _record(cfg, mode, **fields):
    """The shared report header (a solve's carries its spec) plus fields."""
    versions = {"hessquot": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__, "python": platform.python_version()}
    record = {"version": 1, "mode": mode, "versions": versions}
    if mode != "selftest":
        keys = ("n", "k", "l", "tau", "domain", "psi", "phi", "subsolution",
                "newton", "homotopy", "seed")
        record["spec"] = {key: cfg[key] for key in keys if key in cfg}
        record["spec"]["mode"] = mode
    record.update(fields)
    return record


def _emit_error(args, kind, message, **extra):
    """Log the error and write its record to stderr; returns the record."""
    _setup_logging(args, None)  # a no-op once a read config has set it up
    log.error("%s", message)
    record = {"error": kind, "message": message, **extra}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def _selftest(cfg, seed, out):
    from .verify import selftest

    checks = selftest(seed)
    for c in checks:
        log.info("%-45s %s %s", c.name, "PASS" if c.passed else "FAIL", c.detail)
    all_passed = all(c.passed for c in checks)
    if "report" in out:
        _write_report(out["report"], _record(
            cfg, "selftest", seed=seed, checks=[asdict(c) for c in checks],
            all_passed=all_passed))
    return 0 if all_passed else 1


def run(config_path, args):
    """Execute one run; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        _setup_logging(args, cfg.get("verbosity"))
        cfg = _apply_overrides(cfg, args)
        mode = _value(cfg, "mode", _STRING, default="solve")
        if mode not in _MODES:
            raise ConfigError(f"unknown mode {mode!r} (expected one of {_MODES})")
        seed = _value(cfg, "seed", _INTEGER, default=0)
        out = _output_paths(cfg)
        if mode == "selftest":
            return _selftest(cfg, seed, out)
        prob, exact = _build_problem(cfg, mode)
        u, report = solve_dirichlet(prob)
    except expr_mod.ParseError as err:
        _emit_error(args, "parse", str(err), offset=err.offset)
        return 64
    except ConfigError as err:
        _emit_error(args, "config", str(err))
        return 64
    except _PROBLEM_ERRORS as err:
        _emit_error(args, "problem", str(err))
        return 64
    except SolverError as err:
        error = _emit_error(args, "solver", str(err))
        if "report" in out and err.report is not None:
            _write_report(out["report"], _record(
                cfg, mode, error=error, **err.report.as_dict()))
        return 1

    record = _record(cfg, mode, **report.as_dict())
    if exact is not None:
        record["error_inf"] = float(np.abs(u.values - exact.values).max())
    if "grid" in out:
        _atomic_write(out["grid"], "\n".join(grid_mod.csv_lines(u)) + "\n")
    if "report" in out:
        _write_report(out["report"], record)

    clean = report.diagnostics.all_ok() and not report.warnings
    stage = report.stages[-1]
    log.info(
        "converged=%s stages=%d final_residual=%.3e diagnostics=%s",
        report.converged, len(report.stages), stage.final_residual_inf,
        "clean" if clean else "warnings",
    )
    return 0 if clean else 2


def _setup_logging(args, cfg_verbosity):
    if args.quiet:
        level = logging.WARNING
    else:
        env = os.environ.get("HESSQUOT_LOG", "").lower()
        if env in _LEVELS:
            level = _LEVELS[env]
        elif isinstance(cfg_verbosity, str) and cfg_verbosity.lower() in _LEVELS:
            level = _LEVELS[cfg_verbosity.lower()]
        else:
            level = logging.INFO
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hessquot",
        description="Solve Dirichlet problems for the trace-transformed "
        "sigma-quotient operator by continuation from a subsolution.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON problem config")
    parser.add_argument("--mode", choices=_MODES, help="override the config mode")
    parser.add_argument("--out", help="output path prefix (writes PREFIX.csv and PREFIX.json)")
    parser.add_argument("--resolution", type=int, help="override nodes per axis")
    parser.add_argument("--t-step", dest="t_step", type=float, help="override initial continuation step")
    parser.add_argument("--tol", type=float, help="override Newton residual tolerance")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--quiet", action="store_true", help="log warnings and errors only")
    args = parser.parse_args(argv)
    return run(args.config, args)


if __name__ == "__main__":
    sys.exit(main())
