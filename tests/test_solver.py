import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from hessquot import expr as expr_mod
from hessquot.errors import (
    HomotopyStallError,
    ProblemSpecError,
    SingularSystemError,
)
from hessquot.grid import Grid, SparseSystem, assemble_jacobian, sample_expression
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
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=17)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    psi = expr_mod.parse("0.5 + 0.5*(u - (x1^2 + x2^2)/2) + 0.1*(p1^2 + p2^2)", 2)
    prob = ProblemSpec(
        grid=g, quotient=QuotientSpec(2, 2, 0, tau=1.0), psi=psi, phi=quad,
        subsolution=quad,
    )
    u = sample_expression(quad, g)
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
    # 2-D (2,0), res 97, gradient-dependent psi: at this amplitude one
    # Newton system's GMRES ends its second restart cycle with relative
    # residual 1.0002e-12, just above rtol, and needs a third
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=97)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    psi = expr_mod.parse(
        "0.5 + 0.5*(u - (x1^2 + x2^2)/2) + 0.095690*(p1^2 + p2^2)", 2
    )
    prob = ProblemSpec(
        grid=g, quotient=QuotientSpec(2, 2, 0, tau=1.0), psi=psi, phi=quad,
        subsolution=quad,
    )
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
