import math
import warnings

import numpy as np
import pytest

from hessquot import expr as expr_mod
from hessquot import symfun
from hessquot.errors import NotAdmissibleError, OracleScaleError
from hessquot.grid import Grid, sample_expression
from hessquot.solver import ProblemSpec
from hessquot.symfun import QuotientSpec
from hessquot.verify import (
    convergence_order,
    manufactured_problem,
    run_diagnostics,
    selftest,
    sigma_bruteforce,
)
from hessquot.solver import solve_dirichlet

from conftest import OVERFLOW_OCTIC

QUAD3 = "(x1^2 + x2^2 + x3^2)/2"


def test_bruteforce_examples():
    assert sigma_bruteforce([1, 2, 3], 2) == 11.0
    assert sigma_bruteforce([1, 1, 1, 1], 3) == 4.0
    assert sigma_bruteforce([5, 7], 0) == 1.0
    assert sigma_bruteforce([5, 7], 3) == 0.0


def test_bruteforce_scale_guard():
    with pytest.raises(OracleScaleError):
        sigma_bruteforce(np.ones(9), 2)


def test_recurrence_matches_bruteforce(rng):
    for n in range(2, 9):
        lams = rng.normal(1.0, 1.0, size=(100, n))
        tables = symfun.sigma_all(lams)
        for lam, table in zip(lams, tables):
            for k in range(n + 1):
                ref = sigma_bruteforce(lam, k)
                assert abs(table[k] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_manufactured_quadratic_constant_forcing():
    for tau, n, k, l in [(1.0, 3, 3, 1), (1.5, 3, 3, 0), (1.0, 2, 2, 0)]:
        spec = QuotientSpec(n, k, l, tau=tau)
        g = Grid(n=n, lo=(0,) * n, hi=(1,) * n, res=7)
        ustar = expr_mod.parse(
            QUAD3 if n == 3 else "(x1^2 + x2^2)/2", n
        )
        prob, exact = manufactured_problem(ustar, g, spec)
        expected = spec.trace_lower_bound() * (tau * n - 1)
        assert np.allclose(prob.psi.values, expected, rtol=1e-13)
        x = g.coords().reshape(-1, n)
        assert np.allclose(
            exact.values.reshape(-1), 0.5 * (x**2).sum(axis=1), rtol=1e-14
        )


def test_manufactured_rejects_inadmissible_solution():
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=7)
    spec = QuotientSpec(2, 2, 0, tau=1.0)
    with pytest.raises(NotAdmissibleError) as err:
        manufactured_problem(expr_mod.parse("x1^2 - x2^2", 2), g, spec)
    assert err.value.node is not None


def test_manufactured_smooth_case_is_admissible():
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=9)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    prob, _ = manufactured_problem(
        expr_mod.parse("exp((x1^2 + x2^2 + x3^2)/4)", 3), g, spec
    )
    assert np.all(prob.psi.values > 0)


def test_convergence_order_exact_on_quadratic():
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    study = convergence_order(
        expr_mod.parse(QUAD3, 3), (0, 0, 0), (1, 1, 1), 5, spec, levels=3
    )
    assert study.exact
    assert study.order == math.inf
    assert not study.suspect
    assert study.resolutions == [5, 9, 17]


def test_convergence_order_second_order_on_smooth():
    spec = QuotientSpec(2, 2, 0, tau=1.0)
    study = convergence_order(
        expr_mod.parse("exp((x1^2 + x2^2)/4)", 2), (0, 0), (1, 1), 9, spec, levels=3
    )
    assert not study.exact
    assert 1.7 <= study.order <= 2.3
    assert not study.suspect


def test_diagnostics_on_clean_solve():
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=7)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    prob, _ = manufactured_problem(expr_mod.parse(QUAD3, 3), g, spec)
    u, report = solve_dirichlet(prob)
    d = report.diagnostics
    assert d.max_principle_ok
    assert d.comparison_ok is None  # field forcing has no u-dependence
    assert d.psi_z_positive is None
    assert d.laplacian_min == pytest.approx(3.0, rel=1e-12)
    assert d.psi_positive
    assert d.all_ok()


def test_diagnostics_flags_injected_maximum_violation():
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=7)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    prob, _ = manufactured_problem(expr_mod.parse(QUAD3, 3), g, spec)
    u, _ = solve_dirichlet(prob)
    bad = u.copy()
    bad.values[3, 3, 3] = bad.values.max() + 1.0
    d = run_diagnostics(bad, prob)
    assert not d.max_principle_ok
    assert d.max_principle_node == (3, 3, 3)
    assert d.max_principle_excess > 0.5


def test_diagnostics_flags_comparison_violation():
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=7)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    psi = expr_mod.parse(f"sqrt(4/3) + 0.5*(u - {QUAD3})", 3)
    phi = expr_mod.parse(QUAD3, 3)
    prob = ProblemSpec(grid=g, quotient=spec, psi=psi, phi=phi, subsolution=phi)
    u, report = solve_dirichlet(prob)
    assert report.diagnostics.comparison_ok is True
    bad = u.copy()
    bad.values[2, 2, 2] -= 0.05  # push below the subsolution
    d = run_diagnostics(bad, prob)
    assert d.comparison_ok is False
    assert d.comparison_node == (2, 2, 2)


def test_diagnostics_never_aborts_on_inadmissible_state():
    g = Grid(n=3, lo=(0, 0, 0), hi=(1, 1, 1), res=7)
    spec = QuotientSpec(3, 3, 1, tau=1.0)
    prob, _ = manufactured_problem(expr_mod.parse(QUAD3, 3), g, spec)
    u, _ = solve_dirichlet(prob)
    wrecked = u.copy()
    wrecked.values[3, 3, 3] -= 5.0  # admissibility collapses nearby
    d = run_diagnostics(wrecked, prob)
    assert d.admissibility_min_margin <= 0.0
    assert not d.all_ok()


def test_diagnostics_flag_an_overflowed_sigma_table():
    # sigma_2 = +inf at (7, 7) alone gave that node a finite positive margin,
    # so all_ok() held; every other check passes on this iterate
    g = Grid(n=2, lo=(0, 0), hi=(2, 2), res=9)
    ustar = expr_mod.parse(OVERFLOW_OCTIC, 2)
    prob = ProblemSpec(
        grid=g, quotient=QuotientSpec(2, 2, 0), psi=expr_mod.parse("1", 2),
        phi=ustar, subsolution=ustar,
    )
    d = run_diagnostics(sample_expression(ustar, g), prob)
    assert d.admissibility_node == (7, 7)
    assert math.isnan(d.admissibility_min_margin)
    assert d.max_principle_ok and d.psi_positive and d.laplacian_min > 0.0
    assert d.all_ok() is False


@pytest.mark.parametrize(
    "spikes", [{(4, 4): 1.7e308}, {(4, 4): 1.7e308, (5, 5): -1.7e308}],
    ids=["one", "opposite"],
)
def test_diagnostics_on_a_non_finite_hessian_do_not_warn(spikes):
    # one node at 1.7e308: the stencils and the sigma recurrence warned on
    # overflow; with a -1.7e308 beside it, the Laplacian at (4, 5) adds
    # +inf and -inf; the NaN margin must still fail all_ok()
    g = Grid(n=2, lo=(0, 0), hi=(1, 1), res=9)
    quad = expr_mod.parse("(x1^2 + x2^2)/2", 2)
    prob = ProblemSpec(
        grid=g, quotient=QuotientSpec(2, 2, 0), psi=expr_mod.parse("1", 2),
        phi=quad, subsolution=quad,
    )
    u = sample_expression(quad, g)
    for node, value in spikes.items():
        u.values[node] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = run_diagnostics(u, prob)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert d.all_ok() is False


def test_selftest_battery_passes():
    results = selftest(seed=123)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert len(results) >= 7
