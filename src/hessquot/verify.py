"""Independent oracles and solution diagnostics.

The checks here deliberately take different routes than the production
code: sigma values by literal subset enumeration, derivatives by central
finite differences, solver accuracy by manufactured solutions with exact
symbolic forcing.  Diagnostics inspect a computed solution for the
discrete analogues of the maximum principle (interior values cannot beat
the boundary data), the subsolution comparison, admissibility margins,
and positivity of the forcing; they never abort, because their output has
to survive partial failures to be useful.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from . import grid as grid_mod
from . import spectral, symfun
from .errors import OracleScaleError
from .grid import Grid, GridFunction
from .solver import ProblemSpec, PsiField, _sample_data, solve_dirichlet
from .spectral import sym_eig

_MAX_ORACLE_DIM = 8


def sigma_bruteforce(lam, k):
    """sigma_k by explicit enumeration of k-subsets; the oracle for the
    recurrence in ``symfun.sigma_all``.  Guarded to n <= 8."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if lam.ndim != 1:
        raise ValueError("brute-force oracle takes a single eigenvalue vector")
    if n > _MAX_ORACLE_DIM:
        raise OracleScaleError(f"brute-force sigma limited to n <= {_MAX_ORACLE_DIM}")
    if k < 0 or k > n:
        return 0.0
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def central_difference(func, x, i, scale=1.0):
    """Central difference of func in coordinate i with the step rule
    h = 1e-6 * (1 + |x_i|) * scale."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + abs(float(x[i]))) * scale
    xp = x.copy()
    xm = x.copy()
    xp[i] += h
    xm[i] -= h
    return (func(xp) - func(xm)) / (2.0 * h)


def manufactured_problem(ustar, grid, spec, subsolution=None):
    """Build a problem whose exact solution is the expression ``ustar``.

    The forcing is the operator applied to the exact symbolic second
    derivatives of ustar, sampled at interior nodes as a PsiField (there
    is no closed form for an eigenvalue function in the expression
    grammar), so it has no u or gradient dependence.  Boundary data is
    ustar itself and so, by default, is the subsolution; passing a
    different ``subsolution`` expression starts the continuation elsewhere
    on the same problem.  Returns the problem and the exact nodal values.
    """
    _, H = grid_mod.exact_derivatives(ustar, grid.interior_coords())
    psi = PsiField(grid_mod.hessian_fields(H, grid, spec).values)
    prob = ProblemSpec(
        grid=grid,
        quotient=spec,
        psi=psi,
        phi=ustar,
        subsolution=subsolution if subsolution is not None else ustar,
    )
    return prob, _sample_data(prob, "phi")


@dataclass
class ConvergenceStudy:
    resolutions: list
    errors: list
    orders: list
    order: float
    exact: bool
    suspect: bool


def convergence_order(ustar, box_lo, box_hi, base_res, spec, levels=3, subsolution=None):
    """Solve the same manufactured problem on grids with h, h/2, h/4 and
    measure the observed order log2(e_h / e_{h/2}) averaged over levels.

    Round-off-level errors (quadratic data) are reported as exact; a
    measured order below 1 is flagged as a discretization-bug signal.
    Solver failures propagate.
    """
    resolutions = [base_res]
    for _ in range(levels - 1):
        resolutions.append(2 * resolutions[-1] - 1)
    errors = []
    for res in resolutions:
        g = Grid(n=spec.n, lo=box_lo, hi=box_hi, res=res)
        prob, exact = manufactured_problem(ustar, g, spec, subsolution=subsolution)
        u, report = solve_dirichlet(prob)
        if not report.converged:
            raise RuntimeError(f"manufactured solve at res={res} did not converge")
        errors.append(float(np.abs(u.values - exact.values).max()))
    scale = max(1.0, float(np.abs(errors[0])))
    exact_flag = all(e <= 1e-10 * scale for e in errors)
    if exact_flag:
        return ConvergenceStudy(resolutions, errors, [], math.inf, True, False)
    orders = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    order = sum(orders) / len(orders)
    return ConvergenceStudy(resolutions, errors, orders, order, False, order < 1.0)


@dataclass
class DiagnosticsReport:
    """Post-solve checks; every verdict carries its witnessing node/value.

    comparison_ok and psi_z_positive are None when the forcing has no
    u-dependence to compare with (field forcing, or psi_z not positive,
    where the ordering argument does not apply)."""

    max_principle_ok: bool
    max_principle_node: tuple
    max_principle_excess: float
    comparison_ok: object
    comparison_node: object
    comparison_deficit: object
    admissibility_min_margin: float
    admissibility_node: tuple
    laplacian_min: float
    laplacian_node: tuple
    psi_positive: bool
    psi_min: float
    psi_node: tuple
    psi_z_positive: object

    def all_ok(self):
        checks = [
            self.max_principle_ok,
            self.psi_positive,
            symfun.cone_holds(self.admissibility_min_margin),
            self.laplacian_min > 0.0,
        ]
        if self.comparison_ok is not None:
            checks.append(self.comparison_ok)
        return all(checks)


def run_diagnostics(u, prob):
    """Fill a DiagnosticsReport for a boundary-correct iterate.

    Tolerances: interior maximum may exceed the boundary maximum by
    1e-8 * (1 + |u|_inf); the solution may undershoot the subsolution by
    1e-6 * (1 + |u|_inf).  The comparison check runs only when psi has a
    strictly positive u-derivative at the probed states, which is the
    hypothesis the ordering argument actually needs.
    """
    g = prob.grid
    spec = prob.quotient
    uinf = float(np.abs(u.values).max())

    bmax = float(u.values[g.boundary_mask()].max())
    worst_flat = int(np.argmax(u.values))
    worst = tuple(int(i) for i in np.unravel_index(worst_flat, g.shape))
    excess = float(u.values.max() - bmax)
    max_ok = excess <= 1e-8 * (1.0 + uinf)

    # interior sigma table (never aborts: margins may come back negative or NaN)
    H = grid_mod.interior_hessians(u.values, g)
    _, tables, _, _ = grid_mod.operator_tensors(H, spec)
    margins = symfun.cone_margins(tables, spec.n)
    marg_row = int(np.argmin(margins))

    with np.errstate(invalid="ignore"):  # +inf and -inf on one diagonal
        lap = H[: g.n].sum(axis=0)
    lap_row = int(np.argmin(lap))

    p = grid_mod.interior_gradients(u.values, g)
    psi, psi_z, _ = prob.psi_terms(g.interior_coords(), u.interior(), p)
    psi_row = int(np.argmin(psi))
    psi_min = float(psi[psi_row])

    if prob.field_psi:
        psi_z_positive = None
    else:
        psi_z_positive = bool(np.min(psi_z) > 0.0)

    if psi_z_positive:
        diff = u.values - _sample_data(prob, "subsolution").values
        comp_flat = int(np.argmin(diff))
        comparison_node = tuple(int(i) for i in np.unravel_index(comp_flat, g.shape))
        comparison_deficit = float(diff.reshape(-1)[comp_flat])
        comparison_ok = comparison_deficit >= -1e-6 * (1.0 + uinf)
    else:
        comparison_ok = None
        comparison_node = None
        comparison_deficit = None

    return DiagnosticsReport(
        max_principle_ok=bool(max_ok),
        max_principle_node=worst,
        max_principle_excess=excess,
        comparison_ok=comparison_ok,
        comparison_node=comparison_node,
        comparison_deficit=comparison_deficit,
        admissibility_min_margin=float(margins[marg_row]),
        admissibility_node=g.interior_node(marg_row),
        laplacian_min=float(lap[lap_row]),
        laplacian_node=g.interior_node(lap_row),
        psi_positive=bool(psi_min > 0.0),
        psi_min=psi_min,
        psi_node=g.interior_node(psi_row),
        psi_z_positive=psi_z_positive,
    )


# ---------------------------------------------------------------------------
# self-test battery (used by the CLI selftest mode)

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def selftest(seed=0):
    """Quick battery over the algebra/derivative/identity properties.

    Smaller sample counts than the acceptance suite, same routes; returns
    one CheckResult per property group.
    """
    rng = np.random.default_rng(seed)
    results = []

    def check(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))

    # sigma recurrence vs brute force
    worst = 0.0
    for n in range(2, 9):
        lams = rng.normal(1.0, 1.0, size=(40, n))
        tables = symfun.sigma_all(lams)
        for lam, table in zip(lams, tables):
            for k in range(n + 1):
                ref = sigma_bruteforce(lam, k)
                worst = max(worst, abs(table[k] - ref) / max(1.0, abs(ref)))
    check("sigma recurrence vs subset enumeration", worst <= 1e-12, f"max rel err {worst:.2e}")

    # deletion identity sigma_k = sigma_k(lam|i) + lam_i sigma_{k-1}(lam|i),
    # read through the shipped partials sigma_{j-1}(lam|i)
    worst = 0.0
    for n in range(2, 7):
        lams = symfun.sample_cone(rng, n, 1, 200)
        tables = symfun.sigma_all(lams)
        for k in range(1, n + 1):
            for i in range(n):
                ski = symfun.sigma_partial(lams, k + 1, i) if k < n else 0.0
                rec = ski + lams[:, i] * symfun.sigma_partial(lams, k, i)
                worst = max(
                    worst,
                    float(np.max(np.abs(rec - tables[:, k]) / np.maximum(1.0, np.abs(tables[:, k])))),
                )
    check("sigma deletion identity", worst <= 1e-12, f"max rel err {worst:.2e}")

    # Newton-MacLaurin
    ok = True
    for n in range(2, 7):
        for m in range(1, n + 1):
            lams = symfun.sample_cone(rng, n, m, 300)
            for l in range(m):
                for r in range(1, m + 1):
                    for s in range(0, min(l, r - 1) + 1):
                        if not symfun.newton_maclaurin_holds(lams, m, l, r, s):
                            ok = False
    check("Newton-MacLaurin inequality", ok)

    # gradient/hessian against finite differences
    worst_g = worst_h = 0.0
    for n, k, l in [(3, 3, 1), (3, 2, 0), (4, 4, 2), (5, 3, 0)]:
        spec = symfun.QuotientSpec(n=n, k=k, l=l)
        lams = symfun.sample_cone(rng, n, k, 10)
        for lam in lams:
            gx = symfun.quotient_gradient(lam, spec)
            hx = symfun.quotient_hessian(lam, spec)
            for i in range(n):
                fd = central_difference(lambda v: symfun.quotient_value(v, spec), lam, i)
                worst_g = max(worst_g, abs(fd - gx[i]) / max(1.0, abs(gx[i])))
                fdh = central_difference(lambda v: symfun.quotient_gradient(v, spec), lam, i)
                worst_h = max(worst_h, float(np.max(np.abs(fdh - hx[:, i]))) / max(1.0, float(np.max(np.abs(hx)))))
    check("quotient gradient vs finite differences", worst_g <= 1e-6, f"max rel err {worst_g:.2e}")
    check("quotient hessian vs finite differences", worst_h <= 1e-5, f"max rel err {worst_h:.2e}")

    # closed-form grid kernel vs the eigenvalue route, on rotated spectra
    # whose sigma_j / rho^j all exceed 1e-3 (well conditioned on both routes)
    worst = 0.0
    for n, k, l in [(2, 2, 0), (3, 2, 0), (3, 3, 0), (3, 3, 1)]:
        spec = symfun.QuotientSpec(n, k, l, tau=1.5)
        lams = symfun.sample_cone(rng, n, k, 40)
        rho = np.abs(lams).max(axis=1, keepdims=True)
        table = symfun.sigma_all(lams)[:, : k + 1]
        keep = np.all(table[:, 1:] / rho ** np.arange(1, k + 1) > 1e-3, axis=1)
        lams, table, rho = lams[keep], table[keep], rho[keep]
        q = np.stack([np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in lams])
        U = np.einsum("bip,bp,bjp->bij", q, lams, q)
        U = 0.5 * (U + np.swapaxes(U, 1, 2))
        trace_h = np.trace(U, axis1=1, axis2=2) / (spec.tau * n - 1.0)
        H = spec.tau * trace_h[:, None, None] * np.eye(n) - U
        pairs = grid_mod._pairs(n)
        fields = grid_mod.hessian_fields(
            np.stack([H[:, a, b] for a, b in pairs]), Grid(n, (0,) * n, (1,) * n, 5), spec)
        G = np.empty_like(U)
        for g, (a, b) in zip(fields.gradient(spec), pairs):
            G[:, a, b] = G[:, b, a] = g
        G_ref = spectral.operator_gradient(U, spec)
        values = symfun.quotient_value(lams, spec)
        worst = max(
            worst,
            float(np.max(np.abs(fields.values - values) / values)),
            float(np.max(np.abs(fields.tables - table) / rho ** np.arange(k + 1))),
            float(np.max(np.abs(G - G_ref).max(axis=(1, 2)) / np.abs(G_ref).max(axis=(1, 2)))),
        )
    check("operator kernel vs eigenvalue route", worst <= 1e-10, f"max rel err {worst:.2e}")

    # eigen reconstruction
    worst = 0.0
    for n in range(2, 9):
        B = rng.normal(size=(30, n, n))
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
        pair = sym_eig(B)
        rec = np.einsum("bip,bp,bjp->bij", pair.vectors, pair.values, pair.vectors)
        worst = max(worst, float(np.abs(rec - B).max()))
    check("eigendecomposition reconstruction", worst <= 1e-10, f"max abs err {worst:.2e}")

    # expression derivative vs finite differences
    texts = [
        "x1^2*u + p1/x2",
        "exp(u*x1) + log(p1 + x2)",
        "sqrt(u^2 + p2^2)*sin(x1)",
        "cos(x2)/(1 + u^2)",
    ]

    def env(v):  # a state v = (x1, x2, u, p1, p2)
        return expr_mod.EvalEnv(x=v[:2], u=v[2], p=v[3:])

    worst = 0.0
    for text in texts:
        tree = expr_mod.parse(text, 2)
        for _ in range(5):
            v = rng.uniform(0.5, 1.5, 5)
            for var, i in (("x1", 0), ("u", 2), ("p1", 3)):
                exact = float(expr_mod.evaluate(expr_mod.differentiate(tree, var), env(v)))
                fd = central_difference(lambda w: float(expr_mod.evaluate(tree, env(w))), v, i)
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    check("expression derivatives vs finite differences", worst <= 1e-6, f"max rel err {worst:.2e}")

    # parser round trip
    ok = True
    for text in texts:
        tree = expr_mod.parse(text, 2)
        if expr_mod.parse(expr_mod.to_string(tree), 2) != tree:
            ok = False
        d = expr_mod.differentiate(tree, "u")
        if expr_mod.parse(expr_mod.to_string(d), 2) != d:
            ok = False
    check("parser round trip", ok)

    return results
