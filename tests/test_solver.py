import logging

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from hessquot import expr as expr_mod
from hessquot import grid as grid_mod
from hessquot import solver as solver_mod
from hessquot.errors import (
    HomotopyStallError,
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
    homotopy_rhs_field,
    linear_solve,
    newton_stage,
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
    out = newton_stage(u0, 1.0, prob)
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
    u, report = solve_dirichlet(prob)
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


@pytest.mark.parametrize(
    "fault",
    [
        lambda: NotAdmissibleError(np.zeros(2), 1),
        lambda: expr_mod.DomainFaultError(
            "sqrt of negative value", expr_mod.parse("u", 2), -1.0
        ),
    ],
)
def test_inadmissible_prediction_falls_back_to_last_solution(fault, monkeypatch, caplog):
    prob = _continuation2d(33)
    predicted = []
    real_secant, real_state = solver_mod._secant, solver_mod._residual_state

    def secant(*args):
        predicted.append(real_secant(*args))
        return predicted[-1]

    def residual_state(u, *args):
        if any(u is p for p in predicted):
            raise fault()
        return real_state(u, *args)

    monkeypatch.setattr(solver_mod, "_secant", secant)
    monkeypatch.setattr(solver_mod, "_residual_state", residual_state)
    caplog.set_level(logging.INFO, logger="hessquot.solver")
    _, report = solve_dirichlet(prob)
    assert report.converged
    assert report.stages[-1].final_residual_inf <= prob.newton.tol_residual
    # every attempt started from the last solution, so the path is the
    # one taken without a predictor
    assert predicted
    assert _start_records(caplog) == ["unpredicted"] + ["fallback"] * len(predicted)
    assert [s.t for s in report.stages] == pytest.approx(
        [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0], rel=0, abs=1e-12
    )
    assert [s.newton_iters for s in report.stages] == [0, 3, 4, 4, 4, 4, 4]


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
        states.append(t)
        return out

    def assemble(u, prob_, t, **kwargs):
        before = len(psi_calls)
        out = real_assemble(u, prob_, t, **kwargs)
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
    assert all(t > 0.0 for t in states)
    assert len(psi_calls) == len(states) + 2
    assert seen
    for u, t, psi_evals, rhs in seen:
        assert t > 0.0 and psi_evals == 0
        assert np.array_equal(rhs, real_assemble(u, prob, t, psi0=psi0).rhs)


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


def _bump_system_3d():
    # 3-D (3,1), Jacobian at a bump-perturbed subsolution halfway along
    sub = expr_mod.parse(f"{QUAD} - 0.4*{BUMP}", 3)
    prob, _ = manufactured_problem(
        expr_mod.parse(QUAD, 3), _grid3(11), _spec31(), subsolution=sub
    )
    u = sample_expression(prob.subsolution, prob.grid)
    return assemble_jacobian(u, prob, 0.5, psi0=homotopy_rhs_field(prob))


def _gradient_system_2d():
    # 2-D (2,0) with a gradient-dependent psi at t = 1: nonsymmetric
    prob = _continuation2d(17)
    u = sample_expression(prob.subsolution, prob.grid)
    return assemble_jacobian(u, prob, 1.0, psi0=homotopy_rhs_field(prob))


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
    return assemble_jacobian(u, prob, 1.0, psi0=homotopy_rhs_field(prob))


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


def test_continuation_never_falls_back_to_lu(monkeypatch):
    # 2-D (2,0), res 97, gradient-dependent psi: at this amplitude (and
    # across 0.090-0.094) one Newton system's GMRES ends its second restart
    # cycle just above rtol and needs a third
    prob = _continuation2d(97, c=0.092)
    _forbid_lu(monkeypatch)
    _, report = solve_dirichlet(prob)
    assert report.converged and report.stages[-1].t == 1.0


def test_gradient_system_is_nonsymmetric():
    A = _gradient_system_2d().matrix
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
    infos = []
    gmres = sparse_linalg.gmres

    def spy(*args, **kwargs):
        out = gmres(*args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(sparse_linalg, "gmres", spy)
    with pytest.raises(SingularSystemError):
        linear_solve(_with_row(sys_, mid, source=mid + 1))
    assert len(infos) == 1 and infos[0] != 0


@pytest.mark.parametrize(
    "fake",
    [
        lambda x: (x + 1e-3 * np.abs(x).max(), 0),  # claims success, wrong
        lambda x: (np.full_like(x, np.nan), 0),  # claims success, non-finite
        lambda x: (x, 1),  # right answer, but reports no convergence
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

    monkeypatch.setattr(sparse_linalg, "gmres", lambda A, b, **kw: fake(ref.copy()))
    monkeypatch.setattr(sparse_linalg, "spsolve", spy)
    delta = linear_solve(sys_)
    assert lu_calls == [1]
    assert np.array_equal(delta, ref)
    # and on a singular system the LU gate still decides
    mid = sys_.rhs.shape[0] // 2
    with pytest.raises(SingularSystemError):
        linear_solve(_with_row(sys_, mid, source=mid + 1))
    assert lu_calls == [1, 1]
