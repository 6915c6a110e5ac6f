"""The eigen-free operator kernel (grid.sigma_tensors / grid.hessian_fields)
against the eigenvalue route, and uniform failure reporting by its callers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquot import expr as expr_mod
from hessquot import grid as grid_mod
from hessquot import symfun
from hessquot.errors import NotAdmissibleError, ProblemSpecError
from hessquot.grid import Grid, assemble_residual, sample_expression
from hessquot.solver import ProblemSpec, validate_problem
from hessquot.spectral import eta_transform, operator_gradient
from hessquot.symfun import QuotientSpec
from hessquot.verify import manufactured_problem, sigma_bruteforce

from conftest import OVERFLOW_OCTIC, inverse_eta, random_orthogonal, valid_triples

# Margins, as |sigma_j| / rho(U)^j, beyond which the cone decision and the
# gradient are well conditioned on both routes.
CLEAR = 1e-9
GRADIENT_CLEAR = 1e-3


def _boundary_point(inside, outside, k):
    # Bisect the segment inside -> outside for the order-k cone boundary;
    # the cone is convex, so the segment crosses it once.
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if symfun.in_gamma_k(inside + mid * (outside - inside), k):
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def cases(draw):
    """(spec, eigenvalues of U, H with tau*tr(H)*I - H = U), U a randomly
    rotated diagonal; half the spectra lie within 1e-9..1e-1 (along a
    random segment) of the cone boundary, on either side."""
    n, k, l = draw(st.sampled_from(valid_triples(3)))
    tau = draw(st.floats(1.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = symfun.sample_cone(rng, n, k, 1)[0] * draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        rho = np.abs(lam).max()
        outside = lam - draw(st.floats(1.0, 5.0)) * rho + rng.normal(0.0, 0.3 * rho, n)
        t = _boundary_point(lam, outside, k)
        offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-9.0, -1.0))
        lam = lam + min(max(t + offset, 0.0), 1.0) * (outside - lam)
    q = random_orthogonal(rng, n)
    U = (q * lam) @ q.T
    return QuotientSpec(n, k, l, tau=tau), lam, inverse_eta(U, tau)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(cases())
def test_kernel_matches_eigen_route(case):
    spec, lam, H = case
    n, k = spec.n, spec.k
    tables, _ = grid_mod.sigma_tensors(H[None], spec)
    ref = np.array([sigma_bruteforce(lam, j) for j in range(k + 1)])
    scale = np.abs(lam).max() ** np.arange(k + 1)
    assert np.all(np.abs(tables[0] - ref) <= 1e-12 * scale)

    eigen_j = kernel_j = None
    try:
        symfun.quotient_value(lam, spec)
    except NotAdmissibleError as err:
        eigen_j = err.failing_index
    try:
        fields = grid_mod.hessian_fields(H[None], Grid(n, (0,) * n, (1,) * n, 5), spec)
    except NotAdmissibleError as err:
        kernel_j = err.failing_index
        assert len(err.lam) == n and err.node == (1,) * n
    margin = np.min(np.abs(ref[1:]) / scale[1:])
    if margin > CLEAR:
        assert kernel_j == eigen_j
    if kernel_j is None and eigen_j is None and margin > GRADIENT_CLEAR:
        G = fields.gradient(spec)[0]
        G_ref = operator_gradient(eta_transform(H, spec.tau), spec)
        assert np.abs(G - G_ref).max() <= 1e-11 * np.abs(G_ref).max()


def test_inadmissible_node_reported_alike_by_every_caller():
    # u_11 = 1 - 6 x1 turns negative past x1 = 1/6, so with h = 1/8 the
    # first interior node in row-major order to leave the cone is (2, 1),
    # where sigma_1 = 0.5 > 0 and sigma_2 = -0.5 <= 0
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=9)
    spec = QuotientSpec(2, 2, 0)
    ustar = expr_mod.parse("(x1^2 + x2^2)/2 - x1^3", 2)
    prob = ProblemSpec(
        grid=g, quotient=spec, psi=expr_mod.parse("1", 2), phi=ustar, subsolution=ustar
    )
    u = sample_expression(ustar, g)

    with pytest.raises(NotAdmissibleError) as residual_err:
        assemble_residual(u, prob, 0.0, np.zeros(g.num_interior))
    with pytest.raises(NotAdmissibleError) as manufactured_err:
        manufactured_problem(ustar, g, spec)
    with pytest.raises(ProblemSpecError) as validate_err:
        validate_problem(prob)

    for err in (residual_err.value, manufactured_err.value):
        assert err.node == (2, 1)
        assert err.failing_index == 2
        assert len(err.lam) == 2
        assert np.allclose(err.lam, [-0.5, 1.0], rtol=0.0, atol=1e-12)
    assert "at node (2, 1) (sigma_2 <= 0)" in str(validate_err.value)


def test_overflowing_node_reported_alike_by_every_caller():
    # the +inf sigma_2 at (7, 7) used to pass every cone test
    g = Grid(n=2, lo=(0, 0), hi=(2, 2), res=9)
    spec = QuotientSpec(2, 2, 0)
    ustar = expr_mod.parse(OVERFLOW_OCTIC, 2)
    prob = ProblemSpec(
        grid=g, quotient=spec, psi=expr_mod.parse("1", 2), phi=ustar, subsolution=ustar
    )
    u = sample_expression(ustar, g)

    with pytest.raises(NotAdmissibleError) as residual_err:
        assemble_residual(u, prob, 0.0, np.zeros(g.num_interior))
    with pytest.raises(NotAdmissibleError) as manufactured_err:
        manufactured_problem(ustar, g, spec)
    with pytest.raises(ProblemSpecError) as validate_err:
        validate_problem(prob)

    for err in (residual_err.value, manufactured_err.value):
        assert err.node == (7, 7)
        assert err.failing_index == 2
        assert err.overflow
        assert np.all(np.isfinite(err.lam)) and min(err.lam) > 0.0
    assert "at node (7, 7) (sigma_2 overflows)" in str(validate_err.value)


def _quad2_prob(g, spec):
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    return ProblemSpec(
        grid=g, quotient=spec, psi=expr_mod.parse("1", 2), phi=quad, subsolution=quad
    )


def test_non_finite_transformed_hessian_is_reported_by_the_kernel():
    # one node at 1.7e308 makes the cross stencil at (3, 3) overflow; the
    # witness called sym_eig on that U and raised an untyped ValueError
    # ("matrix contains NaN or Inf"), and the stencils warned on overflow
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=9)
    prob = _quad2_prob(g, QuotientSpec(2, 2, 0))
    u = sample_expression(prob.phi, g)
    u.values[4, 4] = 1.7e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotAdmissibleError) as err:
            assemble_residual(u, prob, 0.0, np.zeros(g.num_interior))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.value.node == (3, 3)
    assert err.value.overflow
    assert len(err.value.lam) == 2 and np.all(np.isnan(err.value.lam))
    assert err.value.reason == "tau*tr(H)*I - H is not finite"
    assert "at node (3, 3): tau*tr(H)*I - H is not finite" in str(err.value)


def test_manufactured_problem_rejects_a_non_finite_exact_hessian():
    # exp(1000*(1 - x1)) overflows on the grid: the exact Hessian is not
    # finite, which ended in an untyped ValueError from sym_eig
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotAdmissibleError) as err:
            manufactured_problem(
                expr_mod.parse("x1^2 + exp(1000*(1-x1))", 2), g, QuotientSpec(2, 2, 0)
            )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.value.node == (1, 1)
    assert err.value.reason == "tau*tr(H)*I - H is not finite"


def test_sigma_table_stays_finite_where_only_the_trace_overflows():
    # sigma_2 = a^2 = 1.2e308 is finite, but the trace 2 sigma_2 is not:
    # the kernel's table read [1, 2.19e154, inf]
    a = np.sqrt(1.2e308)
    spec = QuotientSpec(2, 2, 0)
    H = inverse_eta(np.diag([a, a]), spec.tau)[None]
    tables, _ = grid_mod.sigma_tensors(H, spec)
    assert np.isfinite(tables).all()
    assert np.allclose(tables[0], symfun.sigma_all([a, a]), rtol=1e-14, atol=0.0)


def test_kernel_accepts_a_finite_sigma_table_near_overflow():
    # sigma_2 at (7, 7) lies in (0.9e308, 1.8e308): the kernel rejected
    # that node as an overflow while the eigenvalue route accepted it
    g = Grid(n=2, lo=(0, 0), hi=(2, 2), res=9)
    spec = QuotientSpec(2, 2, 0)
    u = sample_expression(expr_mod.parse("3.3e153*(x1^4 + x2^4)/12", 2), g)
    H = grid_mod.interior_hessians(u.values, g)
    fields = grid_mod.hessian_fields(H, g, spec)
    lam = np.linalg.eigvalsh(eta_transform(H, spec.tau))
    assert symfun.in_gamma_k(lam, spec.k).all()
    assert np.isfinite(fields.values).all()
    assert np.allclose(fields.tables, symfun.sigma_all(lam), rtol=1e-12, atol=0.0)
