import json
import math
import os

import numpy as np
import pytest

from hessquot import cli

QUAD = "(x1^2 + x2^2 + x3^2)/2"
BUMP = "x1*(1-x1)*x2*(1-x2)*x3*(1-x3)"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_config(tmp_path, **extra):
    cfg = {
        "version": 1,
        "mode": "solve",
        "n": 3,
        "k": 3,
        "l": 1,
        "tau": 1.0,
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1], "resolution": 7},
        "psi": f"sqrt(4/3) + 0.5*(u - {QUAD})",
        "phi": QUAD,
        "subsolution": f"{QUAD} - 0.4*{BUMP}",
        "seed": 1,
        "out": {
            "grid": str(tmp_path / "out.csv"),
            "report": str(tmp_path / "out.json"),
        },
    }
    cfg.update(extra)
    return cfg


def _run(config_path, *flags):
    return cli.main(["--config", config_path, "--quiet", *flags])


def test_clean_solve_exits_zero(tmp_path):
    path = _write(tmp_path, "cfg.json", _base_config(tmp_path))
    assert _run(path) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["converged"] is True
    assert report["diagnostics"]["max_principle_ok"] is True
    assert report["stages"][-1]["t"] == 1.0
    assert report["stages"][-1]["final_residual_inf"] <= 1e-9
    assert set(report) >= {"spec", "stages", "diagnostics", "converged", "versions"}
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header == "i,j,k,x1,x2,x3,u"


def test_diagnostic_warning_exits_two(tmp_path):
    # constant psi has psi_z == 0, which downgrades to a warning
    cfg = _base_config(tmp_path, psi="sqrt(4/3)", subsolution=QUAD)
    path = _write(tmp_path, "cfg.json", cfg)
    assert _run(path) == 2
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["converged"] is True
    assert any("psi_z" in w for w in report["warnings"])


def test_manufactured_mode_quadratic(tmp_path):
    cfg = {
        "version": 1,
        "mode": "manufactured",
        "n": 3,
        "k": 3,
        "l": 1,
        "tau": 1.0,
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1], "resolution": 9},
        "subsolution": QUAD,
        "out": {"report": str(tmp_path / "m.json")},
        "seed": 0,
    }
    path = _write(tmp_path, "m.cfg", cfg)
    assert _run(path) == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["stages"][-1]["final_residual_inf"] <= 1e-9
    assert report["error_inf"] <= 1e-9


def test_selftest_mode(tmp_path):
    cfg = {"version": 1, "mode": "selftest", "seed": 4,
           "out": {"report": str(tmp_path / "s.json")}}
    path = _write(tmp_path, "s.cfg", cfg)
    assert _run(path) == 0
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["all_passed"] is True


def test_malformed_expression_exits_64(tmp_path, capsys):
    cfg = _base_config(tmp_path, psi="sqrt(4/3) + (")
    path = _write(tmp_path, "bad.cfg", cfg)
    assert _run(path) == 64
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "parse"
    assert isinstance(record["offset"], int)


def test_missing_config_exits_64(tmp_path):
    assert _run(str(tmp_path / "nope.json")) == 64


def test_wrong_version_exits_64(tmp_path):
    path = _write(tmp_path, "v.cfg", {"version": 2})
    assert _run(path) == 64


def test_unknown_mode_exits_64(tmp_path):
    path = _write(tmp_path, "m.cfg", _base_config(tmp_path, mode="turbo"))
    assert _run(path) == 64


def test_invalid_problem_exits_64(tmp_path):
    cfg = _base_config(tmp_path, psi="50")  # subsolution inequality fails
    path = _write(tmp_path, "p.cfg", cfg)
    assert _run(path) == 64


@pytest.mark.parametrize(
    "newton",
    [
        {"tol": math.nan},
        {"tol": math.inf},
        {"tol": 0.0},
        {"tol": -1.0},
        {"max_iters": 0},
    ],
)
def test_invalid_newton_params_exit_64(tmp_path, capsys, newton):
    # json.load accepts NaN and Infinity; a NaN tolerance once ended every
    # stage at once and reported convergence
    path = _write(tmp_path, "n.cfg", _base_config(tmp_path, newton=newton))
    assert _run(path) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert not (tmp_path / "out.json").exists()


def test_solver_failure_exits_one(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mode": "manufactured",
        "n": 3,
        "k": 3,
        "l": 1,
        "tau": 1.0,
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1], "resolution": 9},
        "subsolution": f"exp((x1^2 + x2^2 + x3^2)/4) - 0.5*{BUMP}",
        "newton": {"tol": 1e-9, "max_iters": 1},
        "homotopy": {"dt": 1.0, "dt_min": 0.5},
        "out": {"report": str(tmp_path / "f.json")},
    }
    # In manufactured mode the subsolution text is also the exact solution,
    # so the continuation starts on it and only has to close the O(h^2) gap
    # between the operator on stencil and on exact Hessians (3e-3 here).
    # Newton is quadratic on that gap: a stage of size dt leaves about
    # 0.28*(3e-3*dt)^2 after one iteration, so small steps always pass.
    # With dt in {1, 0.5} one iteration leaves 2.5e-6 and 6.2e-7, far above
    # tol, and the next halving drops below dt_min: the path stalls at t=0.
    path = _write(tmp_path, "f.cfg", cfg)
    assert _run(path) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "solver"
    report = json.loads((tmp_path / "f.json").read_text())
    assert report["converged"] is False
    assert report["error"]["error"] == "solver"
    assert report["spec"]["mode"] == "manufactured"
    assert report["stages"]
    assert report["stages"][-1]["t"] < 1.0


def test_flag_overrides(tmp_path):
    cfg = _base_config(tmp_path)
    del cfg["out"]
    path = _write(tmp_path, "o.cfg", cfg)
    prefix = str(tmp_path / "ovr")
    assert _run(path, "--out", prefix, "--resolution", "9", "--tol", "1e-8") == 0
    report = json.loads((tmp_path / "ovr.json").read_text())
    assert report["spec"]["domain"]["resolution"] == 9
    rows = (tmp_path / "ovr.csv").read_text().splitlines()
    assert len(rows) == 1 + 9**3


def test_no_stray_temp_files(tmp_path):
    path = _write(tmp_path, "cfg.json", _base_config(tmp_path))
    assert _run(path) == 0
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_determinism_byte_identical(tmp_path):
    cfg = _base_config(tmp_path)
    del cfg["out"]
    path = _write(tmp_path, "d.cfg", cfg)
    assert _run(path, "--out", str(tmp_path / "a")) == 0
    assert _run(path, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ra = json.loads((tmp_path / "a.json").read_text())
    rb = json.loads((tmp_path / "b.json").read_text())
    ra.pop("wall_time")
    rb.pop("wall_time")
    assert ra == rb
