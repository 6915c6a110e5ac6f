import math

import numpy as np
import pytest
from scipy import sparse

from hessquot import expr as expr_mod
from hessquot import grid as grid_mod
from hessquot import solver as solver_mod
from hessquot import symfun
from hessquot.errors import NotAdmissibleError
from hessquot.grid import (
    Grid,
    GridFunction,
    assemble_jacobian,
    assemble_residual,
    fd_gradient,
    fd_hessian,
    interior_gradients,
    interior_hessians,
    sample_expression,
)
from hessquot.solver import ProblemSpec, PsiField, homotopy_rhs_field
from hessquot.spectral import eta_transform, operator_gradient, sym_eig
from hessquot.symfun import QuotientSpec

from conftest import points, to_stack


def _grid3(res=9):
    return Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=res)


def _grid2(res=9):
    return Grid(n=2, lo=(0, 0), hi=(1, 1), res=res)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n=4, lo=(0,) * 4, hi=(1,) * 4, res=9)
    with pytest.raises(ValueError):
        Grid(n=2, lo=(0, 0), hi=(1, 1), res=4)
    with pytest.raises(ValueError):
        Grid(n=2, lo=(0, 1), hi=(1, 1), res=9)


@pytest.mark.parametrize("field, n, res", [("res", 2, 9.0), ("n", 2.0, 9), ("res", 2, "9")])
def test_grid_rejects_non_integer_fields(field, n, res):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Grid(n, (0, 0), (1, 1), res)


def test_grid_takes_numpy_integers():
    g = Grid(np.int64(2), (0, 0), (1, 1), np.int32(9))
    assert (type(g.n), type(g.res)) == (int, int)
    assert g == _grid2(9) and g.boundary_mask().shape == (9, 9)


def test_gradient_exact_on_linear():
    g = _grid3()
    u = sample_expression(expr_mod.parse("x1", 3), g)
    assert np.array_equal(fd_gradient(u, (3, 4, 5)), [1.0, 0.0, 0.0])


def test_gradient_exact_on_quadratic():
    g = _grid3()
    u = sample_expression(expr_mod.parse("x1^2 + x2^2 + x3^2", 3), g)
    node = (2, 5, 7)
    x = points(g.axes()).reshape(g.shape + (3,))[node]
    assert np.allclose(fd_gradient(u, node), 2 * x, rtol=1e-13)


def test_gradient_second_order_convergence():
    errs = []
    for res in (17, 33):
        g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=res)
        u = sample_expression(expr_mod.parse("sin(x1)", 2), g)
        exact = np.cos(points(g.axes(interior=True))[:, 0])
        got = interior_gradients(u.values, g)[0]
        errs.append(np.abs(got - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_hessian_exact_on_quadratics():
    g = _grid3(7)
    u = sample_expression(expr_mod.parse("(x1^2 + x2^2 + x3^2)/2", 3), g)
    for node in [(1, 1, 1), (3, 2, 4), (5, 5, 5)]:
        assert np.allclose(fd_hessian(u, node), np.eye(3), atol=1e-14)
    v = sample_expression(expr_mod.parse("x1*x2", 3), g)
    H = fd_hessian(v, (3, 3, 3))
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.allclose(H, expected, atol=1e-14)


def test_hessian_second_order_convergence():
    errs = []
    for res in (17, 33):
        g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=res)
        u = sample_expression(expr_mod.parse("sin(x1)*sin(x2)", 2), g)
        H = to_stack(interior_hessians(u.values, g), 2)
        x = points(g.axes(interior=True))
        exact = np.empty_like(H)
        s1, s2 = np.sin(x[:, 0]), np.sin(x[:, 1])
        c1, c2 = np.cos(x[:, 0]), np.cos(x[:, 1])
        exact[:, 0, 0] = exact[:, 1, 1] = -s1 * s2
        exact[:, 0, 1] = exact[:, 1, 0] = c1 * c2
        errs.append(np.abs(H - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_interior_index_selects_the_interior_block(rng):
    for g in (_grid2(7), _grid3(6), Grid(3, *UNEQUAL_BOX, 7)):
        padded = np.pad(np.zeros(g.interior_shape, dtype=bool), 1, constant_values=True)
        assert np.array_equal(g.boundary_mask(), padded)
        # the interior index picks exactly the nodes with every index in
        # [1, res - 2], in row-major order
        labels = np.arange(math.prod(g.shape)).reshape(g.shape)
        nodes = np.stack(np.unravel_index(labels[g.interior].reshape(-1), g.shape), axis=-1)
        assert len(nodes) == g.num_interior
        assert np.all((nodes >= 1) & (nodes <= g.res - 2))
        assert [tuple(v) for v in nodes] == [g.interior_node(r) for r in range(g.num_interior)]
        # a Newton step through the interior view, against a boolean mask
        u = GridFunction(g, rng.standard_normal(g.shape))
        delta = rng.standard_normal(g.num_interior)
        for s in (1.0, 0.5, 2.0**-7):
            ref = u.values.copy()
            ref[~padded] += s * delta
            got = solver_mod._step(u, delta, s)
            assert got.values.tobytes() == ref.tobytes()
            assert np.array_equal(got.values[padded], u.values[padded])


def test_stencil_ops_reject_boundary_nodes():
    g = _grid3()
    u = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        fd_gradient(u, (0, 3, 3))
    with pytest.raises(ValueError):
        fd_hessian(u, (3, 8, 3))


# a different spacing on every axis, so a stencil that mixes up h_a and
# h_b gives a different answer
UNEQUAL_BOX = ((0, -1, 0), (1, 1, 0.5))


def test_pointwise_and_vectorized_stencils_agree(rng):
    for g, nodes in [
        (_grid2(7), [(1, 1), (3, 4), (5, 5)]),
        (Grid(3, *UNEQUAL_BOX, 7), [(1, 1, 1), (3, 4, 2), (5, 1, 5)]),
    ]:
        u = GridFunction(g, rng.normal(size=g.shape))
        H = to_stack(interior_hessians(u.values, g), g.n)
        P = interior_gradients(u.values, g)
        for node in nodes:
            row = np.ravel_multi_index(tuple(i - 1 for i in node), g.interior_shape)
            assert np.array_equal(fd_hessian(u, node), H[row])
            assert np.array_equal(fd_gradient(u, node), P[:, row])


@pytest.mark.parametrize("k, l, tau", [(3, 1, 1.0), (2, 0, 1.5)])
def test_closed_form_kernel_matches_eigen_route_at_every_node(k, l, tau):
    # unequal spacing and nonzero cross derivatives, so every component of
    # U, adj U and Q is exercised
    g = Grid(3, *UNEQUAL_BOX, 7)
    spec = QuotientSpec(3, k, l, tau=tau)
    u = sample_expression(
        expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4) + 0.2*x1*x2 - 0.1*x2*x3", 3), g)
    fields = grid_mod._operator_fields(u.values, g, spec)
    Q = to_stack(grid_mod.eta_components(fields.gradient(spec), tau, 3), 3)

    U = eta_transform(to_stack(interior_hessians(u.values, g), 3), tau)
    lam = sym_eig(U).values
    scale = np.abs(lam).max(axis=1, keepdims=True) ** np.arange(k + 1)
    Q_ref = eta_transform(operator_gradient(U, spec), tau)
    assert np.all(np.abs(fields.tables - symfun.sigma_all(lam)[:, : k + 1]) <= 1e-12 * scale)
    assert np.allclose(fields.values, symfun.quotient_value(lam, spec), rtol=1e-13, atol=0.0)
    assert np.all(np.abs(Q - Q_ref).max(axis=(1, 2)) <= 1e-11 * np.abs(Q_ref).max(axis=(1, 2)))


def _quadratic_problem(res=9):
    g = _grid3(res)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    quad = expr_mod.parse("(x1^2 + x2^2 + x3^2)/2", 3)
    psi = expr_mod.parse("sqrt(4/3)", 3)
    return ProblemSpec(grid=g, quotient=spec, psi=psi, phi=quad, subsolution=quad)


def _gradient_problem_2d(res=9):
    # psi depends on u and p, so the +/-e_a neighbors of every row receive
    # both a second-difference and a gradient weight
    g = _grid2(res)
    spec = QuotientSpec(2, 2, 0, tau=1.0)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    psi = expr_mod.parse("0.5 + 0.5*(u - (x1^2 + x2^2)/2) + 0.1*(p1^2 + p2^2)", 2)
    return ProblemSpec(grid=g, quotient=spec, psi=psi, phi=quad, subsolution=quad)


def _first_order_problem_3d(res=9, box=((0, 0, 0), (1, 1, 1))):
    g = Grid(3, *box, res)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    quad = expr_mod.parse("(x1^2 + x2^2 + x3^2)/2", 3)
    psi = expr_mod.parse("sqrt(4/3) + 0.25*u + 0.125*p1 - 0.05*p3", 3)
    return ProblemSpec(grid=g, quotient=spec, psi=psi, phi=quad, subsolution=quad)


def _jacobian(u, prob, t, psi0):
    # the stage Jacobian at u, assembled from u's stage state
    return assemble_jacobian(prob, t, grid_mod._residual_state(u, prob, t, psi0))


def _perturbed_subsolution(prob, rng, scale=1e-4):
    g = prob.grid
    u = sample_expression(prob.subsolution, g)
    noise = scale * rng.normal(size=g.shape)
    noise[g.boundary_mask()] = 0.0
    u.values += noise
    return u


def test_residual_zero_at_start_of_continuation():
    prob = _quadratic_problem()
    u = sample_expression(prob.subsolution, prob.grid)
    psi0 = homotopy_rhs_field(prob)
    r = assemble_residual(u, prob, 0.0, psi0)
    assert np.abs(r).max() == 0.0


def test_residual_zero_for_exact_quadratic_at_target():
    # U is 2I at every interior node, and psi is exactly its operator value
    prob = _quadratic_problem()
    u = sample_expression(prob.subsolution, prob.grid)
    psi0 = homotopy_rhs_field(prob)
    r = assemble_residual(u, prob, 1.0, psi0)
    assert np.abs(r).max() <= 1e-15


def test_residual_locality(rng):
    prob = _quadratic_problem(7)
    g = prob.grid
    u = sample_expression(prob.subsolution, g)
    psi0 = homotopy_rhs_field(prob)
    r0 = assemble_residual(u, prob, 0.5, psi0)
    bumped = u.copy()
    bumped.values[3, 3, 3] += 1e-3
    r1 = assemble_residual(bumped, prob, 0.5, psi0)
    changed = np.flatnonzero(r1 != r0)
    nodes = np.stack(np.unravel_index(changed, g.interior_shape), axis=-1) + 1
    assert len(changed) > 0
    assert np.all(np.abs(nodes - 3).max(axis=1) <= 1)


def test_residual_reports_offending_node():
    prob = _quadratic_problem(7)
    u = sample_expression(prob.subsolution, prob.grid)
    psi0 = homotopy_rhs_field(prob)
    bad = u.copy()
    bad.values[2, 2, 2] += 1.0  # destroys admissibility nearby
    with pytest.raises(NotAdmissibleError) as err:
        assemble_residual(bad, prob, 0.0, psi0)
    assert err.value.node is not None
    assert all(1 <= c <= prob.grid.res - 2 for c in err.value.node)


def test_jacobian_matches_directional_differences(rng):
    for maker, n in [(_quadratic_problem, 3), (_gradient_problem_2d, 2)]:
        prob = maker(7)
        g = prob.grid
        u = _perturbed_subsolution(prob, rng)
        psi0 = homotopy_rhs_field(prob)
        for t in (0.0, 0.6, 1.0):
            sys_ = _jacobian(u, prob, t, psi0)
            base = assemble_residual(u, prob, t, psi0)
            assert np.allclose(sys_.rhs, -base)
            core = (slice(1, -1),) * n
            for _ in range(8):
                delta = np.zeros(g.num_interior)
                idx = rng.choice(g.num_interior, size=6, replace=False)
                delta[idx] = rng.normal(size=6)
                eps = 1e-6
                up, dn = u.copy(), u.copy()
                up.values[core] += eps * delta.reshape(g.interior_shape)
                dn.values[core] -= eps * delta.reshape(g.interior_shape)
                fd = (
                    assemble_residual(up, prob, t, psi0)
                    - assemble_residual(dn, prob, t, psi0)
                ) / (2 * eps)
                jd = sys_.matrix @ delta
                assert np.abs(fd - jd).max() <= 1e-5 * max(1.0, np.abs(jd).max())


def test_jacobian_first_order_terms_respond_to_psi(rng):
    # a psi with u and gradient dependence shifts the diagonal and the
    # +/- axis neighbors relative to the pure second-order part
    g = _grid3(7)
    spec = QuotientSpec(3, 3, 1)
    quad = expr_mod.parse("(x1^2 + x2^2 + x3^2)/2", 3)
    psi = expr_mod.parse("sqrt(4/3) + 0.25*u + 0.125*p1", 3)
    prob = ProblemSpec(grid=g, quotient=spec, psi=psi, phi=quad, subsolution=quad)
    u = sample_expression(quad, g)
    psi0 = homotopy_rhs_field(prob)
    j0 = _jacobian(u, prob, 0.0, psi0).matrix
    j1 = _jacobian(u, prob, 1.0, psi0).matrix
    diff = (j1 - j0).toarray()
    row = np.ravel_multi_index((2, 2, 2), g.interior_shape)
    h = g.h[0]
    assert diff[row, row] == pytest.approx(-0.25)
    up = np.ravel_multi_index((3, 2, 2), g.interior_shape)
    dn = np.ravel_multi_index((1, 2, 2), g.interior_shape)
    assert diff[row, up] == pytest.approx(-0.125 / (2 * h))
    assert diff[row, dn] == pytest.approx(+0.125 / (2 * h))


def _reference_jacobian(u, prob, t):
    """Masked-gather COO assembly of the Jacobian, converted to CSR.

    The reference the diagonal assembly is compared against: every
    stencil weight is scattered with explicit row/column index arrays and
    duplicates are summed by the COO -> CSR conversion.
    """
    grid = prob.grid
    spec = prob.quotient
    n = grid.n
    h = grid.h
    # G from the production helper: this reference checks the CSR
    # pattern and the scatter, not the operator gradient
    G = to_stack(grid_mod._operator_fields(u.values, grid, spec).gradient(spec), n)
    trG = np.trace(G, axis1=-2, axis2=-1)
    Q = spec.tau * trG[..., None, None] * np.eye(n) - G

    nint = grid.num_interior
    ids = np.arange(nint)
    multi = np.stack(np.unravel_index(ids, grid.interior_shape), axis=-1) + 1
    rows, cols, data = [], [], []

    def add(offset, weights):
        nb = multi + np.asarray(offset)
        ok = np.all((nb >= 1) & (nb <= grid.res - 2), axis=-1)
        if not np.any(ok):
            return
        flat = np.ravel_multi_index((nb[ok] - 1).T, grid.interior_shape)
        rows.append(ids[ok])
        cols.append(flat)
        data.append(np.asarray(weights)[ok])

    center = np.zeros(nint)
    for a in range(n):
        w = Q[:, a, a] / h[a] ** 2
        center -= 2.0 * w
        for s in (1, -1):
            o = [0] * n
            o[a] = s
            add(o, w)
    for a in range(n):
        for b in range(a + 1, n):
            qab = 2.0 * Q[:, a, b]
            for sa in (1, -1):
                for sb in (1, -1):
                    o = [0] * n
                    o[a] = sa
                    o[b] = sb
                    add(o, qab * sa * sb / (4.0 * h[a] * h[b]))
    if t != 0.0:
        core = (slice(1, -1),) * n
        p = interior_gradients(u.values, grid)
        _, psi_z, psi_p = prob.psi_terms(u.values[core], p)
        center -= t * np.broadcast_to(psi_z, (nint,))
        if np.any(np.asarray(psi_p) != 0.0):
            psi_p = np.broadcast_to(psi_p, (n, nint))
            for a in range(n):
                for s in (1, -1):
                    o = [0] * n
                    o[a] = s
                    add(o, -t * psi_p[a] * s / (2.0 * h[a]))
    rows.append(ids)
    cols.append(ids)
    data.append(center)
    return sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nint, nint),
    ).tocsr()


def _assembly_problems():
    # at res 5 every interior node but the centre touches the boundary
    return (
        _gradient_problem_2d(5),
        _gradient_problem_2d(7),
        _first_order_problem_3d(5),
        _first_order_problem_3d(7),
        _first_order_problem_3d(7, UNEQUAL_BOX),
    )


def test_fixed_pattern_assembly_matches_reference(rng):
    for prob in _assembly_problems():
        u = _perturbed_subsolution(prob, rng)
        psi0 = homotopy_rhs_field(prob)
        for t in (0.0, 1.0):
            got = _jacobian(u, prob, t, psi0).matrix
            ref = _reference_jacobian(u, prob, t)
            # dense, so every entry off the stencil, a wrapped boundary
            # weight's position included, must be exactly zero
            assert np.allclose(got.toarray(), ref.toarray(), rtol=1e-14, atol=0.0)


def test_jacobian_diagonals_keep_row_sum_order(rng):
    # The stored diagonals are the stencil offsets, flattened and ascending,
    # so a product adds each row's terms in the CSR row sum's column order;
    # no stored weight lies off the stencil (a boundary weight wrapped onto
    # another row would).
    for prob in _assembly_problems():
        g = prob.grid
        m, n = g.res - 2, g.n
        used = [*g.stencils.hessian.values(), *g.stencils.gradient]
        offsets = {o for _, terms in used for o, _ in terms}
        u = _perturbed_subsolution(prob, rng)
        J = _jacobian(u, prob, 1.0, homotopy_rhs_field(prob)).matrix
        strides = m ** np.arange(n - 1, -1, -1)
        assert J.offsets.tolist() == sorted(int(np.dot(o, strides)) for o in offsets)
        x = rng.standard_normal(g.num_interior)
        assert np.array_equal(J @ x, J.tocsr() @ x)

        ids = np.arange(g.num_interior)
        multi = np.stack(np.unravel_index(ids, g.interior_shape), axis=-1)
        stencil = np.zeros(J.shape, dtype=bool)
        for o in offsets:
            nb = multi + np.asarray(o)
            ok = np.all((nb >= 0) & (nb < m), axis=-1)
            stencil[ids[ok], np.ravel_multi_index(nb[ok].T, g.interior_shape)] = True
        assert not J.toarray()[~stencil].any()


def test_jacobian_row_sparsity():
    prob = _quadratic_problem(7)
    u = sample_expression(prob.subsolution, prob.grid)
    sys_ = _jacobian(u, prob, 1.0, homotopy_rhs_field(prob))
    assert sys_.matrix.shape == (prob.grid.num_interior, prob.grid.num_interior)
    assert np.diff(sys_.matrix.tocsr().indptr).max() <= 3**3


def test_field_forcing_path():
    g = _grid2(7)
    spec = QuotientSpec(2, 2, 0, tau=1.0)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    psi0_const = np.full(g.num_interior, 1.0)
    prob = ProblemSpec(
        grid=g, quotient=spec, psi=PsiField(psi0_const), phi=quad, subsolution=quad
    )
    u = sample_expression(quad, g)
    r = assemble_residual(u, prob, 1.0, psi0_const)
    # determinant of the identity Hessian is 1, so the residual vanishes
    assert np.abs(r).max() <= 1e-14


def test_csv_lines_layout():
    g = _grid2(5)
    u = sample_expression(expr_mod.parse("x1 + 10*x2", 2), g)
    lines = list(grid_mod.csv_lines(u))
    assert lines[0] == "i,j,x1,x2,u"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    # row-major: the second row advances the last index
    second = lines[2].split(",")
    assert second[:2] == ["0", "1"]
    g3 = _grid3(5)
    lines3 = list(grid_mod.csv_lines(sample_expression(expr_mod.parse("x3", 3), g3)))
    assert lines3[0] == "i,j,k,x1,x2,x3,u"


def _csv_reference(u):
    # the grid CSV rows formatted node by node from the point array
    g = u.grid
    coords = points(g.axes())
    flat = u.values.reshape(-1)
    for row, idx in enumerate(np.ndindex(g.shape)):
        parts = [str(i) for i in idx] + [repr(float(c)) for c in coords[row]]
        yield ",".join(parts + [repr(float(flat[row]))])


@pytest.mark.parametrize(
    "g, e",
    [
        (_grid2(6), "exp(x1)*x2 - 1/3"),
        (Grid(3, *UNEQUAL_BOX, 5), "x1 - x2/3 + exp(x3)"),
    ],
    ids=["2d", "3d-unequal"],
)
def test_csv_lines_match_a_per_node_reference(g, e):
    u = sample_expression(expr_mod.parse(e, g.n), g)
    lines = list(grid_mod.csv_lines(u))
    assert lines[1:] == list(_csv_reference(u))


def test_exact_derivative_sampling():
    g = _grid2(7)
    e = expr_mod.parse("exp((x1^2 + x2^2)/4)", 2)
    x = points(g.axes(interior=True))
    vals = np.exp((x**2).sum(axis=1) / 4)
    P, H = grid_mod.exact_derivatives(e, g)
    P, H = P.T, to_stack(H, 2)
    assert np.allclose(P, 0.5 * x * vals[:, None], rtol=1e-12)
    expected = vals[:, None, None] * (
        0.5 * np.eye(2) + 0.25 * np.einsum("ni,nj->nij", x, x)
    )
    assert np.allclose(H, expected, rtol=1e-12)


def test_exact_derivatives_tell_signed_zero_literals_apart():
    # equal trees under == (0.0 == -0.0) whose first derivatives differ in
    # the sign of zero: the second is not served the first's program
    g = _grid2(5)
    plus, minus = (grid_mod.exact_derivatives(expr_mod.parse(t, 2), g)[0][0]
                   for t in ("x1*(0*x2)", "x1*(-0*x2)"))
    assert not np.signbit(plus).any() and np.signbit(minus).all()


def _meshgrid_points(g, interior=False):
    # the (N, n) point array of the grid's nodes, row-major, built with
    # np.meshgrid: the point sampling the axis samplers must reproduce
    cut = slice(1, -1) if interior else slice(None)
    axes = [np.linspace(lo, hi, g.res)[cut] for lo, hi in zip(g.lo, g.hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.n)


def _on_points(e, x, u=None, p=None):
    # e at the points x (N, n): the strided columns x[:, a] as x_a
    value = expr_mod.evaluate(e, expr_mod.EvalEnv(x=x.T, u=u, p=p))
    return np.broadcast_to(value, x.shape[:1])


_AXIS_GRIDS = [_grid2(7), Grid(3, *UNEQUAL_BOX, 7)]


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=["2d", "3d-unequal"])
def test_axes_are_built_once_and_read_only(g):
    for interior in (False, True):
        axes = g.axes(interior=interior)
        assert all(a is b for a, b in zip(axes, g.axes(interior=interior)))
        assert not any(x.flags.writeable for x in axes)
        assert np.array_equal(points(axes), _meshgrid_points(g, interior))


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=["2d", "3d-unequal"])
@pytest.mark.parametrize(
    "text", ["sin(x2)", "2.5", "exp((x1^2 + x2^2)/4) - 0.3*x1*(1 - x1)*x2*(1 - x2)*cos(x{n})"]
)
def test_axis_sampling_equals_point_sampling(g, text):
    e = expr_mod.parse(text.format(n=g.n), g.n)
    u = sample_expression(e, g)
    assert u.values.shape == g.shape and u.values.flags.writeable
    assert np.array_equal(u.values.reshape(-1), _on_points(e, _meshgrid_points(g)))

    x = _meshgrid_points(g, interior=True)
    P, H = grid_mod.exact_derivatives(e, g)
    for a in range(g.n):
        da = expr_mod.differentiate(e, f"x{a + 1}")
        assert np.array_equal(P[a], _on_points(da, x))
        for c, (i, j) in enumerate(grid_mod._pairs(g.n)):
            if i == a:
                dab = expr_mod.differentiate(da, f"x{j + 1}")
                assert np.array_equal(H[c], _on_points(dab, x))


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=["2d", "3d-unequal"])
@pytest.mark.parametrize("text", [
    "0.5 + sin(x2)*exp(u - x1) + p1*p{n}*cos(x{n}) + sqrt(1 + x1^2 + p2^2)*log(2 + u^2)",
    "sin(x2)",
    "2.5",
])
def test_psi_terms_on_axes_equal_point_sampling(g, text, rng):
    quad = expr_mod.parse(" + ".join(f"x{a + 1}^2" for a in range(g.n)), g.n)
    prob = ProblemSpec(g, QuotientSpec(g.n, 2, 0), expr_mod.parse(text.format(n=g.n), g.n),
                       quad, quad)
    u = rng.normal(size=g.shape)
    block = u[(slice(1, -1),) * g.n]
    p = rng.normal(size=(g.n, g.num_interior))
    psi, psi_z, psi_p = prob.psi_terms(block, p)
    N = g.num_interior
    assert (psi.shape, psi_z.shape, psi_p.shape) == ((N,), (N,), (g.n, N))
    x, flat = _meshgrid_points(g, interior=True), block.reshape(-1)
    assert np.array_equal(psi, _on_points(prob.psi, x, flat, p))
    assert np.array_equal(psi_z, _on_points(expr_mod.differentiate(prob.psi, "u"), x, flat, p))
    for a in range(g.n):
        da = expr_mod.differentiate(prob.psi, f"p{a + 1}")
        assert np.array_equal(psi_p[a], _on_points(da, x, flat, p))


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=["2d", "3d-unequal"])
@pytest.mark.parametrize("text", ["log(x1 - 0.5)", "sqrt(x2*x1 - 0.1)", "(x1 - 2)^x2"])
def test_axis_sampling_reports_the_point_sampling_fault(g, text):
    e = expr_mod.parse(text, g.n)
    with pytest.raises(expr_mod.DomainFaultError) as ref:
        _on_points(e, _meshgrid_points(g))
    with pytest.raises(expr_mod.DomainFaultError) as err:
        sample_expression(e, g)
    assert (str(err.value), err.value.value) == (str(ref.value), ref.value.value)


def test_domain_fault_witness_is_the_first_node():
    with pytest.raises(expr_mod.DomainFaultError) as err:
        sample_expression(expr_mod.parse("log(x1 - 0.5)", 2), _grid2(9))
    assert str(err.value) == "log of non-positive value in 'log((x1-0.5))' (value -0.5)"
    # a constant negative base under a fractional power of x
    with pytest.raises(expr_mod.DomainFaultError, match="fractional power") as err:
        sample_expression(expr_mod.parse("(0 - 2)^x1", 2), _grid2(9))
    assert err.value.value == -2.0


def test_laplacian_solve_inverts_dirichlet_laplacian(rng):
    for g in (
        Grid(n=2, lo=(0, 0), hi=(1, 3), res=9),
        Grid(n=3, lo=(0, -1, 0), hi=(1, 1, 0.5), res=7),
    ):
        m = g.res - 2
        d2 = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
        L = sparse.csr_matrix((g.num_interior, g.num_interior))
        for a in range(g.n):
            factors = [sparse.eye(m)] * g.n
            factors[a] = d2 / g.h[a] ** 2
            term = factors[0]
            for f in factors[1:]:
                term = sparse.kron(term, f)
            L = L + term
        assert np.allclose(L.diagonal(), g.laplacian_diagonal, rtol=1e-14)
        v = rng.normal(size=g.num_interior)
        assert np.allclose(g.laplacian_solve(L @ v), v, rtol=0, atol=1e-12)
