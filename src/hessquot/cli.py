"""Batch front end: load a problem configuration, solve or verify, write
the solution grid as CSV and the run report as JSON.

Exit codes: 0 converged with clean diagnostics, 2 converged with
diagnostic warnings, 1 solver failure, 64 malformed configuration or
expressions.  Outputs are written atomically (temp file + rename) and a
fixed config and seed reproduce byte-identical outputs except for the
wall_time report field.
"""

import argparse
import json
import logging
import os
import platform
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from . import expr as expr_mod
from . import grid as grid_mod
from .errors import ConfigError, NotAdmissibleError, ProblemSpecError, SolverError
from .grid import Grid
from .solver import (
    HomotopyParams,
    NewtonParams,
    ProblemSpec,
    solve_dirichlet,
)
from .symfun import QuotientSpec

log = logging.getLogger("hessquot.cli")

_MODES = ("solve", "manufactured", "selftest")
# psi may fault at the start state though validation probed exact gradients
_PROBLEM_ERRORS = (ProblemSpecError, NotAdmissibleError, expr_mod.DomainFaultError)
_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
           "warning": logging.WARNING, "error": logging.ERROR}


def _require(cfg, key, types, where="config"):
    if key not in cfg:
        raise ConfigError(f"missing {where} key '{key}'")
    value = cfg[key]
    if not isinstance(value, types):
        raise ConfigError(f"{where} key '{key}' has wrong type {type(value).__name__}")
    return value


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if _require(cfg, "version", int) != 1:
        raise ConfigError(f"unsupported config version {cfg['version']}")
    # sections must have their shape before overrides write into them
    for key in ("domain", "newton", "homotopy", "out"):
        if key in cfg:
            _require(cfg, key, dict)
    return cfg


def _apply_overrides(cfg, args):
    if args.mode is not None:
        cfg["mode"] = args.mode
    if args.resolution is not None:
        cfg.setdefault("domain", {})["resolution"] = args.resolution
    if args.t_step is not None:
        cfg.setdefault("homotopy", {})["dt"] = args.t_step
    if args.tol is not None:
        cfg.setdefault("newton", {})["tol"] = args.tol
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = {"grid": args.out + ".csv", "report": args.out + ".json"}
    return cfg


def _build_problem(cfg, mode):
    n = _require(cfg, "n", int)
    k = _require(cfg, "k", int)
    l = _require(cfg, "l", int)
    try:
        quotient = QuotientSpec(n=n, k=k, l=l, tau=float(cfg.get("tau", 1.0)))
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err

    domain = _require(cfg, "domain", dict)
    lo = _require(domain, "lo", list, "domain")
    hi = _require(domain, "hi", list, "domain")
    res = _require(domain, "resolution", int, "domain")
    try:
        g = Grid(n=n, lo=tuple(lo), hi=tuple(hi), res=res)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err

    newton_cfg = cfg.get("newton", {})
    homotopy_cfg = cfg.get("homotopy", {})
    try:
        newton = NewtonParams(
            tol_residual=float(newton_cfg.get("tol", 1e-9)),
            max_iters=int(newton_cfg.get("max_iters", 50)),
        )
        homotopy = HomotopyParams(
            dt_init=float(homotopy_cfg.get("dt", 0.1)),
            dt_min=float(homotopy_cfg.get("dt_min", 1e-4)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err

    def parse_field(key):
        text = _require(cfg, key, str)
        return expr_mod.parse(text, n)

    if mode == "manufactured":
        # the subsolution entry doubles as the exact solution: the
        # manufactured construction derives forcing and boundary data from
        # it and starts the continuation there, on the sampled exact
        # solution.  The path therefore spans only the gap between the
        # operator on stencil Hessians and on exact Hessians, which is
        # O(h^2); Newton budgets and dt in a manufactured config act on
        # that gap alone
        from .verify import manufactured_problem

        ustar = parse_field("subsolution")
        prob, exact = manufactured_problem(ustar, g, quotient)
        prob.newton = newton
        prob.homotopy = homotopy
        return prob, exact
    prob = ProblemSpec(
        grid=g,
        quotient=quotient,
        psi=parse_field("psi"),
        phi=parse_field("phi"),
        subsolution=parse_field("subsolution"),
        newton=newton,
        homotopy=homotopy,
    )
    return prob, None


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


def _write_grid(path, u):
    _atomic_write(path, "\n".join(grid_mod.csv_lines(u)) + "\n")


def _write_report(path, record):
    _atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _versions():
    return {
        "hessquot": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _spec_section(cfg, mode):
    keys = ("n", "k", "l", "tau", "domain", "psi", "phi", "subsolution",
            "newton", "homotopy", "seed")
    section = {key: cfg[key] for key in keys if key in cfg}
    section["mode"] = mode
    return section


def _error_record(kind, message, **extra):
    record = {"error": kind, "message": message}
    record.update(extra)
    return record


def _emit_error(kind, message, **extra):
    log.error("%s", message)
    sys.stderr.write(json.dumps(_error_record(kind, message, **extra),
                                sort_keys=True) + "\n")


def run(config_path, args):
    """Execute one run; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        cfg = _apply_overrides(cfg, args)
        mode = cfg.get("mode", "solve")
        if mode not in _MODES:
            raise ConfigError(f"unknown mode {mode!r} (expected one of {_MODES})")
        try:
            seed = int(cfg.get("seed", 0))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"seed: {err}") from err
        out = cfg.get("out", {})
        for key in ("grid", "report"):  # output directories exist before any solve
            if out.get(key) is not None:
                path = _require(out, key, str, "out")
                try:
                    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
                except OSError as err:
                    raise ConfigError(f"out.{key} {path!r}: {err}") from err

        if mode == "selftest":
            from .verify import selftest

            checks = selftest(seed)
            for c in checks:
                log.info("%-45s %s %s", c.name, "PASS" if c.passed else "FAIL", c.detail)
            all_passed = all(c.passed for c in checks)
            record = {
                "version": 1,
                "mode": mode,
                "seed": seed,
                "checks": [asdict(c) for c in checks],
                "all_passed": all_passed,
                "versions": _versions(),
            }
            if out.get("report"):
                _write_report(out["report"], record)
            return 0 if all_passed else 1

        prob, exact = _build_problem(cfg, mode)
    except expr_mod.ParseError as err:
        _emit_error("parse", str(err), offset=err.offset)
        return 64
    except ConfigError as err:
        _emit_error("config", str(err))
        return 64
    except _PROBLEM_ERRORS as err:
        _emit_error("problem", str(err))
        return 64

    try:
        u, report = solve_dirichlet(prob)
    except _PROBLEM_ERRORS as err:
        _emit_error("problem", str(err))
        return 64
    except SolverError as err:
        _emit_error("solver", str(err))
        if out.get("report") and err.report is not None:
            record = {
                "version": 1,
                "mode": mode,
                "spec": _spec_section(cfg, mode),
                "error": _error_record("solver", str(err)),
                "versions": _versions(),
            }
            record.update(err.report.as_dict())
            _write_report(out["report"], record)
        return 1

    record = {
        "version": 1,
        "mode": mode,
        "spec": _spec_section(cfg, mode),
        "converged": report.converged,
        "versions": _versions(),
    }
    record.update(report.as_dict())
    if exact is not None:
        record["error_inf"] = float(np.abs(u.values - exact.values).max())
    if out.get("grid"):
        _write_grid(out["grid"], u)
    if out.get("report"):
        _write_report(out["report"], record)

    diag = report.diagnostics
    clean = diag is not None and diag.all_ok() and not report.warnings
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

    verbosity = None
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            verbosity = json.load(fh).get("verbosity")
    except Exception:
        pass  # the real loader reports the error with a proper exit code
    _setup_logging(args, verbosity)
    code = run(args.config, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
