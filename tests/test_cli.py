import json
import math
import os
import warnings

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
        {"max_iters": None},
        {"tol": "1e-8"},
        {"max_iters": 2.5},
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


@pytest.mark.parametrize(
    "extra, flags",
    [
        ({"newton": 5}, ()),
        ({"homotopy": [1]}, ()),
        ({"domain": [1, 2]}, ("--resolution", "9")),
        ({"homotopy": 5}, ("--t-step", "0.2")),
        ({"newton": "x"}, ("--tol", "1e-8")),
        ({"out": {"report": 5}}, ()),
        ({"out": {"grid": ["g.csv"]}}, ()),
    ],
)
def test_config_sections_of_wrong_type_exit_64(tmp_path, capsys, extra, flags):
    # each ended in an uncaught AttributeError or TypeError: from .get on
    # the section, from an override writing into it, or from the output
    # writer after the solve had run
    path = _write(tmp_path, "s.cfg", _base_config(tmp_path, **extra))
    assert _run(path, *flags) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "extra",
    [
        {"tau": math.inf},
        {"tau": math.nan},
        {"domain": {"lo": [0, 0, 0], "hi": [1, 1, math.inf], "resolution": 7}},
        {"domain": {"lo": [-math.inf, 0, 0], "hi": [1, 1, 1], "resolution": 7}},
        {"domain": {"lo": [0, math.nan, 0], "hi": [1, 1, 1], "resolution": 7}},
        {"tau": "abc"},
        {"domain": {"lo": [0, None, 0], "hi": [1, 1, 1], "resolution": 7}},
        {"seed": "x"},
        {"version": True},
        {"l": False},
        {"seed": True},
        {"domain": {"lo": [0, "0", 0], "hi": [1, 1, 1], "resolution": 7}},
    ],
)
def test_non_finite_problem_data_exit_64(tmp_path, capsys, extra):
    # an infinite tau or box edge used to pass construction and end in an
    # uncaught "NaN or Inf" ValueError from deep inside the solve; a string
    # or null where a number belongs ended in an uncaught ValueError or
    # TypeError from float() or int(); a bool passed as an integer, and
    # "l": false crashed inside the kernel
    path = _write(tmp_path, "f.cfg", _base_config(tmp_path, **extra))
    assert _run(path) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"phi": "exp(1000*x1)", "subsolution": "exp(1000*x1)"}, "phi"),
        ({"tau": 1e308}, "tau*tr(H)*I - H"),
        ({"psi": "1", "phi": f"1e200*{QUAD}", "subsolution": f"1e200*{QUAD}"},
         "subsolution is not admissible at node (1, 1, 1) (sigma_2 overflows)"),
        ({"k": 2, "l": 0, "psi": "1", "phi": f"1e200*{QUAD}",
          "subsolution": f"1e200*{QUAD}"},
         "subsolution is not admissible at node (1, 1, 1) (sigma_2 overflows)"),
        ({"mode": "manufactured", "subsolution": f"1e200*{QUAD}"},
         "not admissible at node (1, 1, 1): sigma_2 overflows"),
        ({"mode": "manufactured", "subsolution": f"{QUAD} + exp(1000*(1-x1))"},
         "not admissible at node (1, 1, 1): tau*tr(H)*I - H is not finite"),
        ({"mode": "manufactured", "subsolution": f"{QUAD} + 1e-300*exp(710*x1)"},
         "phi cannot be sampled on the grid"),
        ({"psi": f"sqrt(4/3) + 0.5*(u - {QUAD}) + 0*exp(1000*u)"},
         "NaN value in '((sqrt((4.0/3.0))+(0.5*(u-((((x1^2.0)+(x2^2.0))+(x3^2.0))/2.0))))"
         "+(0.0*exp((1000.0*u))))'"),
        ({"psi": "sqrt(4/3) - exp(1000*x1)"},
         "psi is -inf at the subsolution state at node (5, 1, 1)"),
    ],
    ids=["phi", "tau", "sigma", "sigma-k2", "sigma-manufactured",
         "manufactured-hessian", "manufactured-sample", "psi-nan", "psi-neg-inf"],
)
def test_overflowing_problem_data_exit_64(tmp_path, capsys, extra, named):
    # finite inputs whose samples or transformed Hessians overflow ended in
    # an uncaught "NaN or Inf" ValueError, exit 1, from inside validation;
    # a finite U whose sigma table overflows was reported as sigma_3 <= 0,
    # or, with (k, l) = (2, 0), passed validation (sigma_2 = +inf > 0) and
    # failed the first kernel call of the solve as sigma_2 <= 0; the numpy
    # over/invalid warnings of the sigma recurrences reached stderr; in
    # manufactured mode a non-finite exact Hessian or sample ended in an
    # uncaught ValueError, exit 1; a psi that is NaN where exp overflows
    # (0*inf) passed validation, and every stage "converged" after 0
    # Newton iterations at residual NaN, exit 2; a psi that is -inf where
    # exp overflows passed validation with warnings and the solve failed,
    # exit 1, after numpy over/invalid warnings
    path = _write(tmp_path, "f.cfg", _base_config(tmp_path, **extra))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(path) == 64
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "problem"
    assert named in record["message"]
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "key, parts",
    [
        ("grid", ("afile", "sub", "x")),
        ("report", ("afile", "sub", "x")),
        ("grid", ()),
        ("report", ()),
    ],
    ids=["grid", "report", "grid-existing-dir", "report-existing-dir"],
)
def test_output_path_under_a_file_exits_64_before_solving(
    tmp_path, capsys, monkeypatch, key, parts
):
    # the solve used to run in full before the write failed with an
    # uncaught FileExistsError, or IsADirectoryError for a path naming an
    # existing directory, exit 1
    (tmp_path / "afile").write_text("")
    cfg = _base_config(tmp_path)
    cfg["out"][key] = str(tmp_path.joinpath(*parts))
    path = _write(tmp_path, "o.cfg", cfg)
    solved = []
    monkeypatch.setattr(cli, "solve_dirichlet", lambda prob: solved.append(prob))
    assert _run(path) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert cfg["out"][key] in record["message"]
    assert solved == []
    assert sorted(os.listdir(tmp_path)) == ["afile", "o.cfg"]


def test_config_is_read_once(tmp_path, monkeypatch):
    # the log level once came from a second, unchecked read of the file
    path = _write(tmp_path, "cfg.json", _base_config(tmp_path, verbosity="debug"))
    opened = []
    real_open = open

    def spy(file, *a, **kw):
        opened.append(str(file))
        return real_open(file, *a, **kw)

    monkeypatch.setattr("builtins.open", spy)
    assert _run(path) == 0
    assert opened.count(path) == 1


def test_config_not_utf8_exits_64(tmp_path, capsys):
    # a UnicodeDecodeError from the read ended in an uncaught traceback
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe{")
    assert _run(str(path)) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"


def test_psi_fault_at_the_start_state_exits_64(tmp_path, capsys):
    # validation probes psi at the exact gradient, where its log argument
    # is 0.001; the central difference of -0.1*x1^3 lowers p1 by 0.1*h^2
    # (h = 1/8), so the solve's first evaluation takes log of a negative
    sub = "(x1^2 + x2^2)/2 - 0.1*x1^3"
    cfg = _base_config(
        tmp_path, n=2, k=2, l=0,
        domain={"lo": [0, 0], "hi": [1, 1], "resolution": 9},
        psi="log(p1 - x1 + 0.3*x1^2 + 0.001)", phi=sub, subsolution=sub,
    )
    path = _write(tmp_path, "d.cfg", cfg)
    assert _run(path) == 64
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "problem"
    assert "log" in record["message"]
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


def test_coarse_sampling_fault_falls_back_to_the_target_grid(tmp_path, capsys):
    # exp overflows to +inf only where x1 = 0.5: no node of the res-48 grid,
    # but a node of its res-25 and res-13 coarse grids
    data = "(x1^2 + x2^2)/2 + exp(10000000*(0.0001 - (x1 - 0.5)^2))"
    cfg = _base_config(
        tmp_path, n=2, k=2, l=0, psi="0.5", phi=data, subsolution=data,
        domain={"lo": [0, 0], "hi": [1, 1], "resolution": 48},
    )
    path = _write(tmp_path, "c.cfg", cfg)
    assert _run(path) == 2  # psi_z = 0 is a warning
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["converged"] is True
    assert report["levels"] == [{"res": 48, "fallback": "ProblemSpecError"}]
    assert {s["res"] for s in report["stages"]} == {48}


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


def _two_runs_agree(tmp_path, cfg):
    # byte-identical grids and reports except wall_time; returns the report
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
    return ra


def test_determinism_byte_identical(tmp_path):
    _two_runs_agree(tmp_path, _base_config(tmp_path))


def test_determinism_byte_identical_sequenced(tmp_path):
    # res 25 is solved from res 13 (res 7 above has no coarse level)
    quad = "(x1^2 + x2^2)/2"
    cfg = _base_config(
        tmp_path, n=2, k=2, l=0,
        domain={"lo": [0, 0], "hi": [1, 1], "resolution": 25},
        psi=f"0.5 + 0.5*(u - {quad}) + 0.1*(p1^2 + p2^2)", phi=quad, subsolution=quad,
    )
    report = _two_runs_agree(tmp_path, cfg)
    assert report["levels"] == [
        {"res": 13, "fallback": None},
        {"res": 25, "fallback": None},
    ]
    assert [s["res"] for s in report["stages"]][-2:] == [13, 25]
