import logging
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from hessquot import expr as expr_mod
from hessquot import grid as grid_mod
from hessquot import solver as solver_mod
from hessquot.errors import (
    HomotopyStallError,
    NewtonDivergenceError,
    NotAdmissibleError,
    ProblemSpecError,
    SingularSystemError,
)
from hessquot.grid import (
    Grid,
    SparseSystem,
    assemble_jacobian,
    assemble_residual,
    sample_expression,
)
from hessquot.solver import (
    HomotopyParams,
    NewtonParams,
    ProblemSpec,
    SolveReport,
    homotopy_rhs_field,
    linear_solve,
    solve_dirichlet,
    validate_problem,
)
from hessquot.symfun import QuotientSpec
from hessquot.verify import manufactured_problem

QUAD = "(x1^2 + x2^2 + x3^2)/2"
BUMP = "x1*(1-x1)*x2*(1-x2)*x3*(1-x3)"


def _grid3(res=9):
    return Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=res)


def _spec31():
    return QuotientSpec(3, 3, 1, tau=1.0)


def _continuation2d(res, c=0.1):
    # 2-D (2,0) with a gradient-dependent psi; the subsolution is phi
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=res)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    psi = expr_mod.parse(f"0.5 + 0.5*(u - (x1^2 + x2^2)/2) + {c}*(p1^2 + p2^2)", 2)
    return ProblemSpec(
        grid=g, quotient=QuotientSpec(2, 2, 0, tau=1.0), psi=psi, phi=quad,
        subsolution=quad,
    )


def _solve_single_grid(prob):
    # the continuation alone on prob.grid; solve_dirichlet walks it only on
    # its coarsest grid level, and these tests pin its path at res 33 and 97
    stages = []
    u = solver_mod._continuation(prob, stages)
    return u, SolveReport(stages, True, None, 0.0, [])


def _start_records(caplog):
    # the start label of every stage attempt, in order
    return [
        r.getMessage().split("start=")[1].split()[0]
        for r in caplog.records
        if r.name == "hessquot.solver" and "start=" in r.getMessage()
    ]


def test_quadratic_with_trivial_subsolution_is_immediate():
    prob, exact = manufactured_problem(expr_mod.parse(QUAD, 3), _grid3(), _spec31())
    u, report = solve_dirichlet(prob)
    assert report.converged
    assert len(report.stages) == 1 and report.stages[0].t == 1.0
    assert report.stages[0].newton_iters == 0
    assert np.abs(u.values - exact.values).max() <= 1e-12


def test_quadratic_with_nontrivial_subsolution():
    ustar = expr_mod.parse(QUAD, 3)
    sub = expr_mod.parse(f"{QUAD} - 0.4*{BUMP}", 3)
    prob, exact = manufactured_problem(ustar, _grid3(), _spec31(), subsolution=sub)
    u, report = solve_dirichlet(prob)
    assert report.converged
    assert report.stages[-1].t == 1.0
    assert report.stages[-1].final_residual_inf <= prob.newton.tol_residual
    # the discrete operator is exact on quadratics, so Newton is nearly exact
    assert max(s.newton_iters for s in report.stages) <= 3
    assert np.abs(u.values - exact.values).max() <= 1e-8


def test_stages_monotone_and_admissible():
    ustar = expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4)", 3)
    sub = expr_mod.parse(f"exp((x1^2 + x2^2 + x3^2)/4) - 0.5*{BUMP}", 3)
    prob, _ = manufactured_problem(ustar, _grid3(9), _spec31(), subsolution=sub)
    u, report = solve_dirichlet(prob)
    assert report.converged
    ts = [s.t for s in report.stages]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[-1] == 1.0
    assert all(s.min_admissibility_margin > 0 for s in report.stages)


def test_solution_independent_of_subsolution():
    ustar = expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4)", 3)
    g = _grid3(9)
    prob1, exact = manufactured_problem(ustar, g, _spec31())
    sub = expr_mod.parse(f"exp((x1^2 + x2^2 + x3^2)/4) - 0.5*{BUMP}", 3)
    prob2, _ = manufactured_problem(ustar, g, _spec31(), subsolution=sub)
    u1, r1 = solve_dirichlet(prob1)
    u2, r2 = solve_dirichlet(prob2)
    assert r1.converged and r2.converged
    disc = np.abs(u1.values - exact.values).max()
    assert np.abs(u1.values - u2.values).max() <= 10 * disc


def test_comparison_and_maximum_principle_with_increasing_forcing():
    g = _grid3(9)
    psi = expr_mod.parse(f"sqrt(4/3) + 0.5*(u - {QUAD})", 3)
    phi = expr_mod.parse(QUAD, 3)
    sub = expr_mod.parse(f"{QUAD} - 0.4*{BUMP}", 3)
    prob = ProblemSpec(grid=g, quotient=_spec31(), psi=psi, phi=phi, subsolution=sub)
    u, report = solve_dirichlet(prob)
    assert report.converged
    assert report.warnings == []
    d = report.diagnostics
    assert d.psi_z_positive is True
    assert d.max_principle_ok and d.comparison_ok
    assert d.laplacian_min > 0
    assert d.admissibility_min_margin > 0
    # the quadratic solves this exactly in the discrete sense
    exact = sample_expression(phi, g)
    assert np.abs(u.values - exact.values).max() <= 1e-10
    sub_vals = sample_expression(sub, g).values
    assert np.all(u.values >= sub_vals - 1e-6 * (1 + np.abs(u.values).max()))


def test_newton_stage_zero_iterations_when_converged():
    prob, _ = manufactured_problem(expr_mod.parse(QUAD, 3), _grid3(7), _spec31())
    u0 = sample_expression(prob.subsolution, prob.grid)
    out = solver_mod._newton(u0, 1.0, prob, homotopy_rhs_field(prob))[0]
    assert out is u0


def test_homotopy_stall_carries_partial_report():
    ustar = expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4)", 3)
    prob, _ = manufactured_problem(
        ustar,
        _grid3(9),
        _spec31(),
        subsolution=expr_mod.parse(f"exp((x1^2 + x2^2 + x3^2)/4) - 0.5*{BUMP}", 3),
    )
    # one Newton iteration per stage cannot reach 1e-9 here, and halving
    # from 0.02 hits the floor quickly
    prob.newton = NewtonParams(tol_residual=1e-9, max_iters=1)
    prob.homotopy = HomotopyParams(dt_init=0.02, dt_min=0.01)
    with pytest.raises(HomotopyStallError) as err:
        solve_dirichlet(prob)
    assert err.value.report is not None
    assert not err.value.report.converged
    assert err.value.iterate is not None


def test_easy_stages_do_not_churn(caplog):
    # Subsolution = exact solution, so the path is only the O(h^2) gap
    # between the operator on stencil and on exact Hessians.  One Newton
    # iteration from the last solution passes at dt 0.02 and fails at
    # 0.04, so starting there the controller doubled and halved forever
    # (100 accepted and 99 rejected attempts).  From the secant
    # prediction one iteration passes at every size up to the 0.25 cap.
    prob, _ = manufactured_problem(
        expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4)", 3), _grid3(9), _spec31()
    )
    prob.newton = NewtonParams(tol_residual=1e-9, max_iters=1)
    prob.homotopy = HomotopyParams(dt_init=0.02, dt_min=0.01)
    caplog.set_level(logging.INFO, logger="hessquot.solver")
    _, report = solve_dirichlet(prob)
    assert report.converged and report.stages[-1].t == 1.0
    assert len(report.stages) - 1 <= 10
    failed = [r for r in caplog.records if "failed" in r.getMessage()]
    assert len(failed) <= 2


def test_gradient_dependent_path_2d(caplog):
    prob = _continuation2d(33)
    caplog.set_level(logging.INFO, logger="hessquot.solver")
    u, report = _solve_single_grid(prob)
    assert report.converged
    ts = [s.t for s in report.stages]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(s.min_admissibility_margin > 0 for s in report.stages)
    bmask = prob.grid.boundary_mask()
    phi = sample_expression(prob.phi, prob.grid)
    assert np.array_equal(u.values[bmask], phi.values[bmask])
    r = assemble_residual(u, prob, 1.0, np.zeros(prob.grid.num_interior))
    assert np.abs(r).max() <= prob.newton.tol_residual
    # starting every stage at the last solution took 23
    assert sum(s.newton_iters for s in report.stages) <= 18
    # no stage failed, so every attempt after the first is predicted
    starts = _start_records(caplog)
    assert starts == ["unpredicted"] + ["predicted"] * (len(ts) - 2)


_FAULTS = pytest.mark.parametrize(
    "fault",
    [
        lambda: NotAdmissibleError(np.zeros(2), 1),
        lambda: expr_mod.DomainFaultError(
            "sqrt of negative value", expr_mod.parse("u", 2), -1.0
        ),
    ],
    ids=["not_admissible", "domain_fault"],
)


def _faulting_predictions(monkeypatch, fault, count=None):
    # the first ``count`` secant predictions (all when None) raise ``fault``
    # when evaluated; returns the (u_prev, t_prev, u, t, t_next) of every
    # prediction made
    made, faulty = [], []
    real_secant, real_state = solver_mod._secant, solver_mod._residual_state

    def secant(*args):
        made.append(args)
        out = real_secant(*args)
        if count is None or len(made) <= count:
            faulty.append(out)
        return out

    def residual_state(u, *args):
        if any(u is p for p in faulty):
            raise fault()
        return real_state(u, *args)

    monkeypatch.setattr(solver_mod, "_secant", secant)
    monkeypatch.setattr(solver_mod, "_residual_state", residual_state)
    return made


@_FAULTS
def test_failed_prediction_halves_the_step(fault, monkeypatch, caplog):
    # a prediction that is not admissible, or makes psi fault, fails its
    # attempt like a failed Newton solve: dt halves and the next attempt
    # starts on a shorter prediction
    prob = _continuation2d(33)
    ref, _ = _solve_single_grid(prob)
    made = _faulting_predictions(monkeypatch, fault, count=2)
    caplog.set_level(logging.INFO, logger="hessquot.solver")
    u, report = _solve_single_grid(prob)
    assert report.converged
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert [m.split()[1] for m in failed] == ["t=0.3", "t=0.2"]
    assert [s.t for s in report.stages] == pytest.approx(
        [0.0, 0.1, 0.15, 0.25, 0.45, 0.7, 0.95, 1.0], rel=0, abs=1e-12
    )
    assert _start_records(caplog) == ["unpredicted"] + ["predicted"] * len(made)
    assert np.abs(u.values - ref.values).max() <= 1e-10


@_FAULTS
def test_failing_predictions_stall_on_the_last_solution(fault, monkeypatch):
    prob = _continuation2d(33)
    made = _faulting_predictions(monkeypatch, fault)
    with pytest.raises(HomotopyStallError) as err:
        _solve_single_grid(prob)
    # every prediction extrapolated from the one accepted stage, t = 0.1
    assert {args[3] for args in made} == {0.1}
    assert err.value.iterate is made[-1][2]
    assert isinstance(err.value.__cause__, type(fault()))


def test_newton_solves_with_the_stage_residual(monkeypatch):
    # _newton hands the residual it holds to the linear solve: the
    # right-hand side is bit-identical to the one assembly would compute.
    # psi is evaluated once per state: assembly reads psi_z and psi_p from
    # the state it is handed, and the only other evaluations are one in
    # validate_problem and one in run_diagnostics
    prob = _continuation2d(17)
    psi0 = homotopy_rhs_field(prob)
    psi_calls = []
    states = []
    real_terms = ProblemSpec.psi_terms
    real_state = solver_mod._residual_state
    real_assemble, real_solve = grid_mod.assemble_jacobian, solver_mod.linear_solve
    seen = []

    def psi_terms(self, *args):
        psi_calls.append(1)
        return real_terms(self, *args)

    def residual_state(u, prob_, t, psi0_):
        out = real_state(u, prob_, t, psi0_)
        states.append((t, u, out[1]))
        return out

    def assemble(prob_, t, state):
        before = len(psi_calls)
        out = real_assemble(prob_, t, state)
        # the iterate whose state this is
        u = next(u for _, u, fields in states if fields is state[1])
        seen.append([u, t, len(psi_calls) - before])
        return out

    def solve(sys_):
        seen[-1].append(sys_.rhs.copy())
        return real_solve(sys_)

    monkeypatch.setattr(ProblemSpec, "psi_terms", psi_terms)
    monkeypatch.setattr(solver_mod, "_residual_state", residual_state)
    monkeypatch.setattr(grid_mod, "assemble_jacobian", assemble)
    monkeypatch.setattr(solver_mod, "linear_solve", solve)
    solve_dirichlet(prob)
    assert all(t > 0.0 for t, _, _ in states)
    assert len(psi_calls) == len(states) + 2
    assert seen
    for u, t, psi_evals, rhs in seen:
        assert t > 0.0 and psi_evals == 0
        state = grid_mod._residual_state(u, prob, t, psi0)
        assert np.array_equal(rhs, real_assemble(prob, t, state).rhs)


def test_validate_rejects_boundary_mismatch():
    g = _grid3(7)
    prob = ProblemSpec(
        grid=g,
        quotient=_spec31(),
        psi=expr_mod.parse("1", 3),
        phi=expr_mod.parse(QUAD, 3),
        subsolution=expr_mod.parse(f"{QUAD} + 0.5", 3),
    )
    with pytest.raises(ProblemSpecError, match="boundary"):
        validate_problem(prob)


def test_validate_rejects_insufficient_subsolution():
    g = _grid3(7)
    prob = ProblemSpec(
        grid=g,
        quotient=_spec31(),
        psi=expr_mod.parse("10", 3),  # far above what the quadratic supplies
        phi=expr_mod.parse(QUAD, 3),
        subsolution=expr_mod.parse(QUAD, 3),
    )
    with pytest.raises(ProblemSpecError, match="inequality"):
        validate_problem(prob)


def test_validate_rejects_inadmissible_subsolution():
    g = _grid3(7)
    prob = ProblemSpec(
        grid=g,
        quotient=_spec31(),
        psi=expr_mod.parse("1", 3),
        phi=expr_mod.parse("x1^2 - x2^2", 3),
        subsolution=expr_mod.parse("x1^2 - x2^2", 3),
    )
    with pytest.raises(ProblemSpecError, match="admissible"):
        validate_problem(prob)


def test_validate_rejects_overflowing_subsolution():
    # every eigenvalue of U is 2e200 > 0, but sigma_2 = 1.2e401 overflows:
    # with (k, l) = (2, 0) the +inf passed validation, and the first kernel
    # call of the solve then reported it as sigma_2 <= 0
    big = expr_mod.parse(f"1e200*{QUAD}", 3)
    prob = ProblemSpec(
        grid=_grid3(7),
        quotient=QuotientSpec(3, 2, 0),
        psi=expr_mod.parse("1", 3),
        phi=big,
        subsolution=big,
    )
    with pytest.raises(ProblemSpecError) as err:
        validate_problem(prob)
    assert "subsolution is not admissible at node (1, 1, 1) (sigma_2 overflows)" in str(
        err.value
    )


def test_validate_warns_on_nonpositive_psi_z():
    g = _grid3(7)
    prob = ProblemSpec(
        grid=g,
        quotient=_spec31(),
        psi=expr_mod.parse("sqrt(4/3)", 3),
        phi=expr_mod.parse(QUAD, 3),
        subsolution=expr_mod.parse(QUAD, 3),
    )
    warnings = validate_problem(prob)
    assert any("psi_z" in w for w in warnings)


def test_problem_rejects_phi_depending_on_u():
    g = _grid3(7)
    with pytest.raises(ProblemSpecError):
        ProblemSpec(
            grid=g,
            quotient=_spec31(),
            psi=expr_mod.parse("1", 3),
            phi=expr_mod.parse("u + x1", 3),
            subsolution=expr_mod.parse("x1", 3),
        )


def test_homotopy_rhs_field_quadratic_closed_form():
    prob, _ = manufactured_problem(expr_mod.parse(QUAD, 3), _grid3(7), _spec31())
    psi0 = homotopy_rhs_field(prob)
    assert np.allclose(psi0, np.sqrt(4 / 3), rtol=1e-14)


def _quad_problem(subsolution):
    # 3-D (3,1) at res 9 with exact solution QUAD and an increasing psi
    return ProblemSpec(
        grid=_grid3(9), quotient=_spec31(),
        psi=expr_mod.parse(f"sqrt(4/3) + 0.5*(u - {QUAD})", 3),
        phi=expr_mod.parse(QUAD, 3), subsolution=expr_mod.parse(subsolution, 3),
    )


def test_homotopy_rhs_field_is_the_solvers_t0_forcing(monkeypatch):
    # the subsolution misses phi by up to 5e-11 on the boundary, which
    # validation allows; homotopy_rhs_field read the raw subsolution there
    # and differed from the solver's forcing by 3.4e-9, above the tolerance
    prob = _quad_problem(f"{QUAD} - 0.4*{BUMP} + 5e-11*x1")
    calls = []
    newton = solver_mod._newton

    def record(u, t, p, psi0):
        calls.append((u, psi0))
        return newton(u, t, p, psi0)

    monkeypatch.setattr(solver_mod, "_newton", record)
    _, report = solve_dirichlet(prob)
    assert report.converged
    start, psi0 = calls[0]  # the first attempt starts on the start iterate
    assert homotopy_rhs_field(prob).tobytes() == psi0.tobytes()
    out = newton(start, 0.0, prob, homotopy_rhs_field(prob))[0]
    assert np.array_equal(out.values, start.values)


def test_psi_derivatives_follow_a_reassigned_psi():
    prob = _continuation2d(9)
    prob.psi = expr_mod.parse("1 + u^2 + p1", 2)
    g = prob.grid
    u = np.resize([0.5, 1.0, 2.0], g.interior_shape)
    psi, psi_z, psi_p = prob.psi_terms(u, np.zeros((2, g.num_interior)))
    u = u.reshape(-1)
    assert np.array_equal(psi, 1.0 + u**2)
    assert np.array_equal(psi_z, 2.0 * u)
    assert np.array_equal(psi_p.T, [[1.0, 0.0]] * g.num_interior)


def test_validate_builds_each_exact_derivative_once(monkeypatch):
    # 3 first and 6 second derivatives of a subsolution not seen before
    # (the process-wide cache is emptied, whatever ran earlier); the
    # gradient and Hessian samplers each built the first ones, 12 calls in
    # all.  An equal tree parsed again is differentiated no more.
    text = f"{QUAD} - 0.4*{BUMP}"
    prob = _quad_problem(text)
    calls = []
    differentiate = expr_mod.differentiate

    def count(e, var):
        calls.append(var)
        return differentiate(e, var)

    monkeypatch.setattr(expr_mod, "differentiate", count)
    grid_mod._derivative_program.cache_clear()
    validate_problem(prob)
    assert len(calls) == 9
    again = replace(prob, subsolution=expr_mod.parse(text, 3))
    assert again.subsolution is not prob.subsolution
    calls.clear()
    validate_problem(again)
    assert calls == []


def test_validate_rejects_a_nan_forcing():
    # 0*exp(1000*u) is NaN where exp overflows; every comparison with NaN
    # is false, so validation passed
    prob = replace(
        _quad_problem(f"{QUAD} - 0.4*{BUMP}"),
        psi=expr_mod.parse(f"sqrt(4/3) + 0.5*(u - {QUAD}) + 0*exp(1000*u)", 3),
    )
    with pytest.raises(expr_mod.DomainFaultError, match="NaN value"):
        validate_problem(prob)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_validate_rejects_a_non_finite_field_forcing(bad):
    # both checks read false on NaN, and fvals - (-inf) passes the
    # inequality, so such a forcing passed and the solve stalled
    prob, _ = manufactured_problem(
        expr_mod.parse(SMOOTH3, 3), _grid3(9), QuotientSpec(3, 3, 1),
        subsolution=expr_mod.parse(f"{SMOOTH3} - 0.55*{BUMP}", 3),
    )
    values = prob.psi.values.copy()
    values[np.ravel_multi_index((1, 2, 3), prob.grid.interior_shape)] = bad  # node (2, 3, 4)
    prob.psi = solver_mod.PsiField(values)
    with pytest.raises(ProblemSpecError, match=r"psi is .* at node \(2, 3, 4\)"):
        validate_problem(prob)


def test_nan_start_residual_ends_the_stage(monkeypatch):
    # `while rinf > tol` is false for NaN, so a stage that started at
    # residual NaN returned its start and a record after 0 iterations
    prob = _quad_problem(f"{QUAD} - 0.4*{BUMP}")
    u, psi0 = solver_mod._start(prob), homotopy_rhs_field(prob)
    state = solver_mod._residual_state

    def nan_residual(*args):
        r, fields = state(*args)
        return np.full_like(r, np.nan), fields

    monkeypatch.setattr(solver_mod, "_residual_state", nan_residual)
    with pytest.raises(NewtonDivergenceError) as err:
        solver_mod._newton(u, 0.5, prob, psi0)
    assert err.value.iterate is u


def test_line_search_halves_an_overflowing_trial(monkeypatch):
    # a trial with a node at 1.7e308 made the kernel's witness raise an
    # untyped ValueError that escaped the line search and the solve
    prob = _quad_problem(f"{QUAD} - 0.4*{BUMP}")
    steps = []
    step = solver_mod._step

    def poisoned(u, delta, s):
        out = step(u, delta, s)
        if not steps:
            out.values[4, 4, 4] = 1.7e308
        steps.append(s)
        return out

    monkeypatch.setattr(solver_mod, "_step", poisoned)
    _, report = solve_dirichlet(prob)
    assert report.converged
    assert steps[:2] == [1.0, 0.5]
    # trials minus accepted Newton steps: the poisoned trial is a backtrack
    assert len(steps) - sum(s.newton_iters for s in report.stages) >= 1


def test_import_leaves_the_lu_module_unloaded():
    # scipy.sparse.linalg is imported by the LU fallback when it is reached;
    # older scipy releases import it with scipy.sparse itself
    code = (
        "import sys, scipy.sparse; before = 'scipy.sparse.linalg' in sys.modules; "
        "import hessquot; print(before, 'scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    before, after = out.stdout.split()
    assert after == before


def test_linear_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    sys_ = SparseSystem(matrix=sparse.eye(3, format="csr"), rhs=b)
    assert np.array_equal(linear_solve(sys_), b)


def test_linear_solve_random_spd(rng):
    for size in (10, 40):
        A = rng.normal(size=(size, size))
        A = A @ A.T + size * np.eye(size)
        b = rng.normal(size=size)
        sys_ = SparseSystem(matrix=sparse.csr_matrix(A), rhs=b)
        delta = linear_solve(sys_)
        assert np.linalg.norm(A @ delta - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_poisson_chain_exact():
    # classic tridiagonal second-difference system with known inverse action
    size = 30
    h = 1.0 / (size + 1)
    main = np.full(size, -2.0) / h**2
    off = np.full(size - 1, 1.0) / h**2
    A = sparse.diags([off, main, off], [-1, 0, 1], format="csr")
    x = np.linspace(h, 1 - h, size)
    exact = x * (1 - x) / 2
    rhs = A @ exact
    delta = linear_solve(SparseSystem(matrix=A, rhs=rhs))
    assert np.abs(delta - exact).max() <= 1e-12


def test_linear_solve_flags_singular():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        linear_solve(SparseSystem(matrix=A, rhs=np.array([1.0, 1.0])))


def _jacobian(u, prob, t):
    # the stage Jacobian at u, assembled from u's stage state
    state = grid_mod._residual_state(u, prob, t, homotopy_rhs_field(prob))
    return assemble_jacobian(prob, t, state)


def _bump_system_3d():
    # 3-D (3,1), Jacobian at a bump-perturbed subsolution halfway along
    sub = expr_mod.parse(f"{QUAD} - 0.4*{BUMP}", 3)
    prob, _ = manufactured_problem(
        expr_mod.parse(QUAD, 3), _grid3(11), _spec31(), subsolution=sub
    )
    u = sample_expression(prob.subsolution, prob.grid)
    return _jacobian(u, prob, 0.5)


def _gradient_system_2d():
    # 2-D (2,0) with a gradient-dependent psi at t = 1: nonsymmetric
    prob = _continuation2d(17)
    u = sample_expression(prob.subsolution, prob.grid)
    return _jacobian(u, prob, 1.0)


def _unequal_box_system_3d():
    # spacing differs on every axis: h = (0.1, 0.05, 0.2)
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 0.5, 2), res=11)
    quad = expr_mod.parse(QUAD, 3)
    bump = "x1*(1-x1)*x2*(0.5-x2)*x3*(2-x3)"
    psi = expr_mod.parse(f"sqrt(4/3) + 0.5*(u - {QUAD}) + 0.1*p2", 3)
    prob = ProblemSpec(
        grid=g, quotient=_spec31(), psi=psi, phi=quad,
        subsolution=expr_mod.parse(f"{QUAD} - {bump}", 3),
    )
    u = sample_expression(prob.subsolution, g)
    return _jacobian(u, prob, 1.0)


def _forbid_lu(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("grid system fell back to sparse LU")

    monkeypatch.setattr(sparse_linalg, "spsolve", fail)


@pytest.mark.parametrize(
    "make", [_bump_system_3d, _gradient_system_2d, _unequal_box_system_3d]
)
def test_krylov_path_agrees_with_superlu(make, monkeypatch):
    sys_ = make()
    assert sys_.grid is not None
    ref = sparse_linalg.spsolve(sys_.matrix.tocsc(), sys_.rhs)
    with monkeypatch.context() as m:
        _forbid_lu(m)
        delta = linear_solve(sys_)
        again = linear_solve(sys_)
    bnorm = np.linalg.norm(sys_.rhs)
    assert bnorm > 0
    assert np.linalg.norm(sys_.matrix @ delta - sys_.rhs) <= 1e-10 * bnorm
    assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)
    assert delta.tobytes() == again.tobytes()


def _sine_precond(sys_):
    # the preconditioner of the Krylov path: M^{-1} r = L^{-1}(r / d)
    g = sys_.grid
    d = sys_.matrix.diagonal() / g.laplacian_diagonal
    return lambda r: g.laplacian_solve(r / d)


@pytest.mark.parametrize("make", [_bump_system_3d, _gradient_system_2d])
def test_gmres_meets_rtol_on_the_true_residual(make):
    sys_ = make()
    A, b = sys_.matrix, sys_.rhs
    precond = _sine_precond(sys_)
    tol = 1e-12 * np.linalg.norm(b)
    x = solver_mod._gmres(A, b, precond)
    assert np.linalg.norm(b - A @ x) <= tol
    assert x.tobytes() == solver_mod._gmres(A, b, precond).tobytes()
    # one cycle gets there: it stops on the Arnoldi estimate, which is the
    # true residual while the Givens rotations are right and the basis
    # stays orthonormal
    calls = []

    def counted(r):
        calls.append(1)
        return precond(r)

    V = np.empty((solver_mod._GMRES_RESTART + 1, b.shape[0]))
    dx = solver_mod._gmres_cycle(A, b, counted, tol, V)
    assert np.linalg.norm(b - A @ dx) <= tol
    basis = V[: len(calls) - 1]  # one application per step, one for dx
    assert np.abs(basis @ basis.T - np.eye(basis.shape[0])).max() <= 1e-12
    # duplicated row: no cycle reaches rtol, so no iterate is returned
    mid = b.shape[0] // 2
    singular = _with_row(sys_, mid, source=mid + 1)
    assert solver_mod._gmres(singular.matrix, b, _sine_precond(singular)) is None


def test_continuation_never_falls_back_to_lu(monkeypatch):
    # 2-D (2,0), res 97, gradient-dependent psi: at this amplitude two
    # Newton systems end their first GMRES cycle on the Arnoldi estimate
    # with the true residual just above rtol (1.01x and 1.25x) and need a
    # one-step second cycle.  No system comes near the cap of four cycles,
    # which only bounds the work on a (nearly) singular system before the
    # LU path decides it.
    prob = _continuation2d(97, c=0.092)
    _forbid_lu(monkeypatch)
    cycles = []  # GMRES restart cycles per system
    gmres, cycle = solver_mod._gmres, solver_mod._gmres_cycle

    def spy(*args):
        cycles.append(0)
        return gmres(*args)

    def count(*args):
        cycles[-1] += 1
        return cycle(*args)

    monkeypatch.setattr(solver_mod, "_gmres", spy)
    monkeypatch.setattr(solver_mod, "_gmres_cycle", count)
    _, report = _solve_single_grid(prob)
    assert report.converged and report.stages[-1].t == 1.0
    # otherwise the path no longer reaches the restart this test guards
    assert max(cycles) > 1


def test_gradient_system_is_nonsymmetric():
    A = _gradient_system_2d().matrix.tocsr()
    assert abs(A - A.T).max() > 1e-3 * abs(A).max()


def _with_row(sys_, target, source=None):
    # copy of the system with row ``target`` zeroed, or replaced by row
    # ``source``; either makes the matrix singular
    A = sys_.matrix.tolil()
    A[target, :] = 0.0 if source is None else A[source, :]
    return SparseSystem(matrix=A.tocsr(), rhs=sys_.rhs, grid=sys_.grid)


def test_singular_grid_system_still_raises(monkeypatch):
    sys_ = _bump_system_3d()
    mid = sys_.rhs.shape[0] // 2
    with pytest.raises(SingularSystemError):
        linear_solve(_with_row(sys_, mid))
    # duplicated row: the scaling diagonal stays nonzero, so GMRES runs,
    # fails to converge, and the LU path reports the singular system
    results = []
    gmres = solver_mod._gmres

    def spy(*args):
        out = gmres(*args)
        results.append(out)
        return out

    monkeypatch.setattr(solver_mod, "_gmres", spy)
    with pytest.raises(SingularSystemError):
        linear_solve(_with_row(sys_, mid, source=mid + 1))
    assert len(results) == 1 and results[0] is None


@pytest.mark.parametrize(
    "fake",
    [
        lambda x: x + 1e-3 * np.abs(x).max(),  # claims success, wrong
        lambda x: np.full_like(x, np.nan),  # claims success, non-finite
        lambda x: None,  # reports no convergence
    ],
)
def test_unchecked_gmres_result_is_never_returned(fake, monkeypatch):
    sys_ = _bump_system_3d()
    ref = sparse_linalg.spsolve(sys_.matrix.tocsc(), sys_.rhs)
    lu_calls = []
    spsolve = sparse_linalg.spsolve

    def spy(*args, **kwargs):
        lu_calls.append(1)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_gmres", lambda A, b, precond: fake(ref.copy()))
    monkeypatch.setattr(sparse_linalg, "spsolve", spy)
    delta = linear_solve(sys_)
    assert lu_calls == [1]
    assert np.array_equal(delta, ref)
    # and on a singular system the LU gate still decides
    mid = sys_.rhs.shape[0] // 2
    with pytest.raises(SingularSystemError):
        linear_solve(_with_row(sys_, mid, source=mid + 1))
    assert lu_calls == [1, 1]


# grid sequencing: the continuation on the coarsest level, one t = 1 Newton
# solve per finer level

SMOOTH3 = "exp((x1^2 + x2^2 + x3^2)/4)"


def _levels(report):
    return [(v.res, v.fallback) for v in report.levels]


def _newton_failing_on(res):
    # _newton that fails every solve on grids with res nodes per axis
    real = solver_mod._newton

    def newton(u0, t, prob, *args, **kwargs):
        if prob.grid.res == res:
            raise NewtonDivergenceError("forced", iterate=u0)
        return real(u0, t, prob, *args, **kwargs)

    return newton


@pytest.mark.parametrize(
    "res, coarse", [(97, 49), (25, 13), (24, 13), (23, None), (21, None)]
)
def test_coarse_level_condition(res, coarse):
    # res // 2 + 1 >= 13, at any parity
    found = solver_mod._coarse_problem(_continuation2d(res))
    assert (None if found is None else found.grid.res) == coarse


@pytest.mark.parametrize(
    "ustar, lo, hi",
    [
        ("x1^3 - 2*x1^2*x2 + x2^3 + x1*x2", (0, 0), (1, 1)),
        ("x1^3*x2^2*x3 - x2^3 + x1*x3^2", (-1, 0, 0.5), (1, 2, 1)),
    ],
)
def test_prolongation_is_exact_on_per_axis_cubics(ustar, lo, hi):
    n = len(lo)
    e = expr_mod.parse(ustar, n)
    coarse = sample_expression(e, Grid(n=n, lo=lo, hi=hi, res=13))
    fine = sample_expression(e, Grid(n=n, lo=lo, hi=hi, res=25))
    out = solver_mod._transfer(coarse.values, 25)
    assert np.abs(out - fine.values).max() <= 1e-13 * np.abs(fine.values).max()


def test_nested_transfer_has_the_midpoint_stencils():
    # the 13 -> 25 matrix, one column per coarse unit vector (read along an
    # axis where it is constant): coarse nodes keep their values, and each
    # midpoint takes the cubic (-1, 9, 9, -1)/16 of its four neighbours, or
    # the one-sided (5, 15, -5, 1)/16 next to the boundary
    expected = np.zeros((25, 13))
    expected[::2] = np.eye(13)
    for i in range(1, 11):
        expected[2 * i + 1, i - 1:i + 3] = np.array([-1, 9, 9, -1]) / 16
    expected[1, :4] = np.array([5, 15, -5, 1]) / 16
    expected[-2, -4:] = np.array([1, -5, 15, 5]) / 16
    columns = [solver_mod._transfer(np.outer(e, np.ones(13)), 25)[:, 0] for e in np.eye(13)]
    assert np.array_equal(np.stack(columns, axis=1), expected)


@pytest.mark.parametrize(
    "n, res, spec",
    [(2, 97, QuotientSpec(2, 2, 0)), (3, 25, QuotientSpec(3, 3, 1))],
)
def test_field_forcing_restricts_by_injection(n, res, spec):
    ustar = expr_mod.parse(SMOOTH3 if n == 3 else "exp((x1^2 + x2^2)/4)", n)
    box = {"n": n, "lo": (0,) * n, "hi": (1,) * n}
    fine, _ = manufactured_problem(ustar, Grid(res=res, **box), spec)
    coarse = solver_mod._coarse_problem(fine)
    direct, _ = manufactured_problem(ustar, coarse.grid, spec)
    assert coarse.grid == Grid(res=(res + 1) // 2, **box)
    np.testing.assert_allclose(coarse.psi.values, direct.psi.values, rtol=1e-14, atol=0)
    # at odd res the transfer is the injection at every other fine node, bit for bit
    # grid nodes 2, 4, ..., res - 3 per axis: interior indices 1, 3, ..., res - 4
    injected = fine.psi.values.reshape(fine.grid.interior_shape)[(slice(1, -1, 2),) * n]
    injected = injected.reshape(-1)
    assert np.array_equal(coarse.psi.values, injected)


def test_sequenced_solve_matches_single_grid_2d():
    prob = _continuation2d(97)
    u, report = solve_dirichlet(prob)
    ref, _ = _solve_single_grid(prob)
    assert np.abs(u.values - ref.values).max() <= 1e-10
    assert _levels(report) == [(13, None), (25, None), (49, None), (97, None)]
    # the path is walked on the coarsest grid only
    assert {s.res for s in report.stages if s.t < 1.0} == {13}
    assert [(s.res, s.t) for s in report.stages[-3:]] == [(25, 1.0), (49, 1.0), (97, 1.0)]
    assert report.stages[-1].newton_iters <= 3


@pytest.mark.parametrize("k, l", [(3, 1), (2, 0)])
def test_sequenced_solve_matches_single_grid_3d(k, l):
    prob, _ = manufactured_problem(
        expr_mod.parse(SMOOTH3, 3), _grid3(25), QuotientSpec(3, k, l),
        subsolution=expr_mod.parse(f"{SMOOTH3} - 0.55*{BUMP}", 3),
    )
    u, report = solve_dirichlet(prob)
    ref, _ = _solve_single_grid(prob)
    assert np.abs(u.values - ref.values).max() <= 1e-10
    assert _levels(report) == [(13, None), (25, None)]


@pytest.mark.parametrize(
    "res_from, res_to, inner",
    [(13, 24, 0), (14, 26, 0), (25, 13, 1), (26, 14, 1)],
    ids=["up-13-24", "up-14-26", "down-nested", "down-26-14"],
)
@pytest.mark.parametrize("ustar, lo, hi", [
    ("x1^3 - 2*x1^2*x2 + x2^3 + x1*x2", (0, 0), (1, 1)),
    ("x1^3*x2^2*x3 - x2^3 + x1*x3^2", (-1, 0, 0.5), (1, 2, 1)),
])
def test_transfer_is_exact_on_per_axis_cubics(ustar, lo, hi, res_from, res_to, inner):
    # coarse to fine on every node (the nested step is the test above), and
    # fine interior to coarse interior, across nested and non-nested steps
    n = len(lo)
    e = expr_mod.parse(ustar, n)
    src, dst = (sample_expression(e, Grid(n=n, lo=lo, hi=hi, res=r)).values
                for r in (res_from, res_to))
    core = (slice(inner, res_to - inner),) * n
    out = solver_mod._transfer(src[(slice(inner, res_from - inner),) * n], res_to, inner)
    assert np.abs(out - dst[core]).max() <= 1e-13 * np.abs(dst).max()


@pytest.mark.parametrize("make, levels", [
    (lambda: _continuation2d(24), [(13, None), (24, None)]),
    (lambda: manufactured_problem(
        expr_mod.parse(SMOOTH3, 3), _grid3(26), QuotientSpec(3, 3, 1),
        subsolution=expr_mod.parse(f"{SMOOTH3} - 0.55*{BUMP}", 3),
    )[0], [(14, None), (26, None)]),
], ids=["2d-24", "3d-26"])
def test_even_resolution_is_sequenced_to_the_single_grid_answer(make, levels):
    # 24 -> 13 and 26 -> 14 are non-nested steps
    prob = make()
    u, report = solve_dirichlet(prob)
    ref, _ = _solve_single_grid(prob)
    assert np.abs(u.values - ref.values).max() <= 1e-10
    assert _levels(report) == levels
    assert {s.res for s in report.stages if s.t < 1.0} == {levels[0][0]}


def test_failure_at_even_resolution_carries_target_iterate(monkeypatch):
    # Newton fails on the target grid from the transferred start and on
    # every stage of the fallback continuation
    prob = _continuation2d(24)
    monkeypatch.setattr(solver_mod, "_newton", _newton_failing_on(24))
    with pytest.raises(HomotopyStallError) as err:
        solve_dirichlet(prob)
    assert err.value.iterate.grid == prob.grid
    report = err.value.report
    assert _levels(report) == [(13, None), (24, "NewtonDivergenceError")]
    assert report.stages[-1].res == 24


def test_inadmissible_prolongation_falls_back(monkeypatch):
    prob = _continuation2d(25)
    real = solver_mod._transfer
    # the negated convex solution leaves the cone at every interior node
    monkeypatch.setattr(solver_mod, "_transfer", lambda values, res: -real(values, res))
    u, report = solve_dirichlet(prob)
    assert report.converged
    assert report.as_dict()["levels"] == [
        {"res": 13, "fallback": None},
        {"res": 25, "fallback": "NotAdmissibleError"},
    ]
    # the level walked the whole path on its own grid, from t = 0
    assert [s.t for s in report.stages if s.res == 25][0] == 0.0
    ref, _ = _solve_single_grid(prob)
    assert np.array_equal(u.values, ref.values)


def test_coarse_stall_falls_back_and_converges(monkeypatch):
    prob = _continuation2d(49)
    monkeypatch.setattr(solver_mod, "_newton", _newton_failing_on(13))
    u, report = solve_dirichlet(prob)
    assert report.converged
    # the coarse stall sends the solve straight to the target grid
    assert _levels(report) == [(49, "HomotopyStallError")]
    r = assemble_residual(u, prob, 1.0, np.zeros(prob.grid.num_interior))
    assert np.abs(r).max() <= prob.newton.tol_residual
    ref, _ = _solve_single_grid(prob)
    assert np.abs(u.values - ref.values).max() <= 1e-10


def test_failed_t1_newton_falls_back(monkeypatch):
    prob = _continuation2d(25)
    real = solver_mod._newton
    calls = []

    def newton(u0, t, prob_, *args, **kwargs):
        # the first solve on the target grid is the one from the prolonged start
        if prob_.grid.res == 25 and not calls:
            calls.append(t)
            raise NewtonDivergenceError("forced", iterate=u0)
        return real(u0, t, prob_, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_newton", newton)
    u, report = solve_dirichlet(prob)
    assert report.converged and calls == [1.0]
    assert _levels(report) == [(13, None), (25, "NewtonDivergenceError")]


def test_sequenced_failure_carries_target_iterate(monkeypatch):
    # Newton fails on the target grid, from the prolonged start and on
    # every stage of the fallback continuation: the caller sees that stall
    prob = _continuation2d(25)
    monkeypatch.setattr(solver_mod, "_newton", _newton_failing_on(25))
    with pytest.raises(HomotopyStallError) as err:
        solve_dirichlet(prob)
    assert err.value.iterate.grid == prob.grid
    report = err.value.report
    assert report is not None and not report.converged
    assert _levels(report) == [(13, None), (25, "NewtonDivergenceError")]
    assert report.stages[-1].res == 25


def test_stall_on_every_grid_walks_two_grids():
    # the continuation stalls on every grid: it is walked on the coarsest
    # grid and once on the target grid, not on every level in between
    prob = _continuation2d(97)
    prob.newton = NewtonParams(max_iters=2)
    prob.homotopy = HomotopyParams(0.1, 0.05)
    with pytest.raises(HomotopyStallError) as err:
        solve_dirichlet(prob)
    report = err.value.report
    assert {s.res for s in report.stages} == {13, 97}
    assert _levels(report) == [(97, "HomotopyStallError")]
    assert err.value.iterate.grid == prob.grid


def test_coarse_grids_are_built_once(monkeypatch):
    prob = _continuation2d(49)
    assert solver_mod._coarse_problem(prob).grid is prob.grid.coarse
    solve_dirichlet(prob)
    built = []
    real = grid_mod.Grid.__post_init__

    def post_init(self):
        built.append(self.res)
        real(self)

    monkeypatch.setattr(grid_mod.Grid, "__post_init__", post_init)
    _, report = solve_dirichlet(prob)
    assert _levels(report) == [(13, None), (25, None), (49, None)]
    assert built == []


def test_a_repeated_solve_differentiates_nothing(monkeypatch):
    # the coarse problems share psi's compiled program, and the exact
    # derivatives of the subsolution are cached: solving the same problem
    # again compiles no derivative on any of its three levels
    prob = _continuation2d(49)
    solve_dirichlet(prob)
    calls = []
    differentiate = expr_mod.differentiate

    def count(e, var):
        calls.append(var)
        return differentiate(e, var)

    monkeypatch.setattr(expr_mod, "differentiate", count)
    _, report = solve_dirichlet(prob)
    assert _levels(report) == [(13, None), (25, None), (49, None)]
    assert calls == []
    coarse = solver_mod._coarse_problem(prob)
    assert coarse._psi_program is prob._psi_program and coarse.psi is prob.psi


def test_field_forcing_partials_share_one_zero_row():
    field = solver_mod.PsiField(np.arange(6.0))
    u, p = np.ones((2, 3)), np.ones((2, 6))
    first, second = field.terms(u, p), field.terms(u, p)
    for a, b in zip(first[1:], second[1:]):
        assert np.shares_memory(a, b)
    assert np.shares_memory(first[1], first[2])
    assert first[1].shape == (6,) and first[2].shape == (2, 6)
    assert not first[1].any() and not first[2].any()
    assert not first[1].flags.writeable and not first[2].flags.writeable
