"""The eigen-free closed-form operator kernel (grid.operator_tensors /
grid.hessian_fields) against the eigenvalue route, and uniform failure
reporting by its callers."""

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
from hessquot.spectral import eta_transform, operator_gradient, sym_eig
from hessquot.symfun import QuotientSpec
from hessquot.verify import manufactured_problem, sigma_bruteforce

from conftest import (
    OVERFLOW_OCTIC,
    admissible_matrix,
    inverse_eta,
    random_orthogonal,
    to_components,
    to_stack,
    valid_triples,
)

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
    _, tables, _ = grid_mod.operator_tensors(to_components(H[None]), spec)
    ref = np.array([sigma_bruteforce(lam, j) for j in range(k + 1)])
    scale = np.abs(lam).max() ** np.arange(k + 1)
    assert np.all(np.abs(tables[0] - ref) <= 1e-12 * scale)

    eigen_j = kernel_j = None
    try:
        symfun.quotient_value(lam, spec)
    except NotAdmissibleError as err:
        eigen_j = err.failing_index
    try:
        fields = grid_mod.hessian_fields(
            to_components(H[None]), Grid(n, (0,) * n, (1,) * n, 5), spec)
    except NotAdmissibleError as err:
        kernel_j = err.failing_index
        assert len(err.lam) == n and err.node == (1,) * n
    margin = np.min(np.abs(ref[1:]) / scale[1:])
    if margin > CLEAR:
        assert kernel_j == eigen_j
    if kernel_j is None and eigen_j is None and margin > GRADIENT_CLEAR:
        G = to_stack(fields.gradient(spec), n)[0]
        G_ref = operator_gradient(eta_transform(H, spec.tau), spec)
        assert np.abs(G - G_ref).max() <= 1e-11 * np.abs(G_ref).max()


@pytest.mark.parametrize("tau", [1.0, 1.5])
@pytest.mark.parametrize("n, k, l", [(2, 2, 0), (3, 2, 0), (3, 3, 0), (3, 3, 1)])
def test_gradient_matches_a_stored_lower_tensor_bit_for_bit(rng, n, k, l, tau):
    # the reference multiplies sigma_k into T_{l-1} = d sigma_l / dU held
    # as its explicit component array, 0 for l = 0 and I for l = 1
    spec = QuotientSpec(n, k, l, tau=tau)
    H = np.stack([inverse_eta(admissible_matrix(rng, spec), tau) for _ in range(64)])
    fields = grid_mod.hessian_fields(to_components(H), Grid(n, (0,) * n, (1,) * n, 5), spec)
    m = spec.degree_gap
    sk, sl = fields.tables[:, k], fields.tables[:, l]
    d_l = np.zeros((len(fields.d_k), 1))
    d_l[:n] = l
    ref = sl * fields.d_k
    ref -= sk * d_l
    ref *= fields.values ** (1 - m) / (m * sl**2)
    assert fields.gradient(spec).tobytes() == ref.tobytes()


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
    _, tables, _ = grid_mod.operator_tensors(to_components(H), spec)
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
    lam = np.linalg.eigvalsh(eta_transform(to_stack(H, 2), spec.tau))
    assert symfun.in_gamma_k(lam, spec.k).all()
    assert np.isfinite(fields.values).all()
    assert np.allclose(fields.tables, symfun.sigma_all(lam), rtol=1e-12, atol=0.0)


def _poked_quad(g):
    # the quadratic with one node at 1.7e308: U is not finite at (3, 3)
    u = sample_expression(expr_mod.parse("(x1^2 + x2^2)/2", 2), g)
    u.values[4, 4] = 1.7e308
    return u


@pytest.mark.parametrize(
    "hi, state",
    [
        (1, lambda g: sample_expression(expr_mod.parse("(x1^2 + x2^2)/2 - x1^3", 2), g)),
        (2, lambda g: sample_expression(expr_mod.parse(OVERFLOW_OCTIC, 2), g)),
        (1, _poked_quad),
    ],
    ids=["outside", "overflow", "not-finite"],
)
def test_margin_decided_cone_failure_is_the_exact_rules(hi, state):
    # hessian_fields decides the cone from its margins; where one fails it
    # must raise what require_cone raises on the same table
    g = Grid(n=2, lo=(0, 0), hi=(hi, hi), res=9)
    spec = QuotientSpec(2, 2, 0)
    H = grid_mod.interior_hessians(state(g).values, g)
    with pytest.raises(NotAdmissibleError) as err:
        grid_mod.hessian_fields(H, g, spec)

    U, tables, _ = grid_mod.operator_tensors(H, spec)

    def eigenvalues(row):
        M = to_stack(U[:, row : row + 1], spec.n)[0]
        return sym_eig(M).values if np.isfinite(M).all() else np.full(spec.n, np.nan)

    with pytest.raises(NotAdmissibleError) as ref:
        symfun.require_cone(tables, spec.k, eigenvalues, g.interior_node)
    got, want = err.value, ref.value
    assert (got.node, got.failing_index, got.overflow) == (want.node, want.failing_index, want.overflow)
    assert np.array_equal(got.lam, want.lam, equal_nan=True)
    assert str(got) == str(want)


def test_margin_underflow_inside_the_cone_does_not_raise(monkeypatch):
    # U = 2^-511 [[1, 1 - 2^-53, 1], [1 - 2^-53, 1, 1], [1, 1, 1]]: sigma_1
    # and sigma_2 = 2^-1074 are > 0, so every node is in Gamma_2, but the
    # margin sigma_2 / 3 underflows to 0 and fails cone_holds; the exact
    # rule then runs once, and admits the nodes
    spec = QuotientSpec(3, 2, 0)
    g = Grid(3, (0, 0, 0), (1, 1, 1), 5)
    h, x = 2.0**-512, np.nextafter(2.0**-511, 0.0)
    H = np.repeat([[h], [h], [h], [-x], [-2 * h], [-2 * h]], g.num_interior, axis=1)
    calls = []
    require_cone = symfun.require_cone

    def count(*args):
        calls.append(1)
        return require_cone(*args)

    monkeypatch.setattr(symfun, "require_cone", count)
    fields = grid_mod.hessian_fields(H, g, spec)
    assert calls == [1]
    assert np.all(fields.tables[:, 2] == 2.0**-1074)
    assert symfun.cone_holds(fields.tables[:, 1:]).all()
    assert fields.margin == 0.0
    # where every margin passes, the exact rule does not run
    grid_mod.hessian_fields(np.repeat([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]], 27, axis=1), g, spec)
    assert calls == [1]
