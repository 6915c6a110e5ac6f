import math

import numpy as np
import pytest

from hessquot import symfun
from hessquot.errors import NotAdmissibleError, SamplerExhaustedError
from hessquot.symfun import QuotientSpec

from conftest import cone_samples, valid_triples


def test_sigma_all_binomial_point():
    assert np.array_equal(symfun.sigma_all([1, 1, 1]), [1, 3, 3, 1])


def test_sigma_all_mixed_point():
    table = symfun.sigma_all([1, 2, 3])
    assert table[2] == 11.0
    assert np.array_equal(table, [1, 6, 11, 6])


def test_sigma_all_zero_point():
    table = symfun.sigma_all([0.0, 0.0, 0.0, 0.0])
    assert table[0] == 1.0
    assert np.all(table[1:] == 0.0)


def test_sigma_all_batched_matches_single(rng):
    lams = rng.normal(size=(40, 5))
    tables = symfun.sigma_all(lams)
    for lam, table in zip(lams, tables):
        assert np.allclose(table, symfun.sigma_all(lam), rtol=0, atol=0)


def test_sigma_partial_examples():
    assert symfun.sigma_partial([1, 2, 3], 2, 0) == 5.0
    assert symfun.sigma_partial([1, 2, 3], 3, 1) == 3.0


def test_sigma_partial_symmetric_point():
    n, k, c = 5, 3, 1.7
    lam = np.full(n, c)
    expected = math.comb(n - 1, k - 1) * c ** (k - 1)
    for i in range(n):
        assert symfun.sigma_partial(lam, k, i) == pytest.approx(expected, rel=1e-14)


def test_sigma_second_partial_examples():
    assert symfun.sigma_second_partial([1, 2, 3], 2, 0, 1) == 1.0
    assert symfun.sigma_second_partial([1, 2, 3], 3, 0, 2) == 2.0
    assert symfun.sigma_second_partial([1, 1, 1, 1], 3, 0, 1) == 2.0


def test_sigma_second_partial_rejects_equal_indices():
    with pytest.raises(ValueError):
        symfun.sigma_second_partial([1, 2, 3], 2, 1, 1)


def test_cone_membership():
    assert not symfun.in_gamma_k([3, 1, -1], 2)
    assert symfun.in_gamma_k([3, 1, -1], 1)
    for k in range(1, 5):
        assert symfun.in_gamma_k([1, 1, 1, 1], k)


def test_overflowed_sigma_is_outside_cone():
    # every eigenvalue is positive, but sigma_2 = 3e400 overflows to +inf,
    # which used to pass the > 0 test and make the quotient +inf
    assert not symfun.in_gamma_k([1e200] * 3, 3)
    with pytest.raises(NotAdmissibleError) as err:
        symfun.quotient_value([1e200] * 3, QuotientSpec(3, 3, 1))
    assert err.value.failing_index == 2 and err.value.overflow
    assert str(err.value).endswith(": sigma_2 overflows")


def test_cone_boundary_is_outside():
    # sigma_2 = 0 exactly: open cone, zero tolerance
    assert not symfun.in_gamma_k([1.0, 0.0, 0.0], 2)


def test_quotient_value_examples():
    assert symfun.quotient_value([2, 2, 2], QuotientSpec(3, 3, 1)) == pytest.approx(
        math.sqrt(4 / 3), rel=1e-15
    )
    assert symfun.quotient_value([1, 2, 3], QuotientSpec(3, 2, 0)) == pytest.approx(
        math.sqrt(11), rel=1e-15
    )


def test_quotient_value_homogeneous_at_symmetric_point():
    for n, k, l in [(4, 3, 1), (5, 4, 0), (3, 2, 0)]:
        spec = QuotientSpec(n, k, l)
        for c in (0.3, 1.0, 7.5):
            expected = spec.trace_lower_bound() * c
            got = symfun.quotient_value(np.full(n, c), spec)
            assert got == pytest.approx(expected, rel=1e-13)


def test_quotient_value_rejects_outside_cone():
    with pytest.raises(NotAdmissibleError) as err:
        symfun.quotient_value([3, 1, -1], QuotientSpec(3, 2, 0))
    assert err.value.failing_index == 2


def test_quotient_gradient_example():
    g = symfun.quotient_gradient([1, 2, 3], QuotientSpec(3, 3, 1))
    assert np.allclose(g, [5 / 12, 1 / 6, 1 / 12], rtol=1e-14)


def test_quotient_gradient_symmetric_point():
    for n, k, l in [(3, 3, 1), (4, 2, 0), (6, 5, 2)]:
        spec = QuotientSpec(n, k, l)
        g = symfun.quotient_gradient(np.full(n, 2.3), spec)
        expected = spec.trace_lower_bound() / n
        assert np.allclose(g, expected, rtol=1e-13)


def test_quotient_gradient_square_root_case():
    g = symfun.quotient_gradient([1, 1, 1], QuotientSpec(3, 2, 0))
    assert np.allclose(g, 1 / math.sqrt(3), rtol=1e-14)


def test_quotient_gradient_positive_and_bounded_below(rng):
    for n, k, l in valid_triples(5):
        spec = QuotientSpec(n, k, l)
        lams = cone_samples(rng, n, k, 50)
        g = symfun.quotient_gradient(lams, spec)
        assert np.all(g > 0.0)
        assert np.all(g.sum(axis=1) >= spec.trace_lower_bound() - 1e-10)


def test_quotient_gradient_matches_finite_differences(rng):
    for n, k, l in [(3, 3, 1), (4, 4, 2), (5, 3, 0), (6, 4, 1)]:
        spec = QuotientSpec(n, k, l)
        for lam in cone_samples(rng, n, k, 8):
            g = symfun.quotient_gradient(lam, spec)
            for i in range(n):
                h = 1e-6 * (1 + abs(lam[i]))
                lp, lm = lam.copy(), lam.copy()
                lp[i] += h
                lm[i] -= h
                fd = (
                    symfun.quotient_value(lp, spec) - symfun.quotient_value(lm, spec)
                ) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


def test_quotient_gradient_zero_homogeneous(rng):
    spec = QuotientSpec(4, 3, 1)
    lam = cone_samples(rng, 4, 3, 1)[0]
    g1 = symfun.quotient_gradient(lam, spec)
    g2 = symfun.quotient_gradient(3.7 * lam, spec)
    assert np.allclose(g1, g2, rtol=1e-12)


def test_quotient_one_homogeneous(rng):
    spec = QuotientSpec(5, 4, 1)
    lam = cone_samples(rng, 5, 4, 1)[0]
    for c in (0.25, 2.0, 11.0):
        assert symfun.quotient_value(c * lam, spec) == pytest.approx(
            c * symfun.quotient_value(lam, spec), rel=1e-12
        )


def test_quotient_hessian_annihilates_lambda():
    # 1-homogeneity differentiated: the Hessian maps lam to zero, so at a
    # symmetric point every row sums to zero
    spec = QuotientSpec(4, 3, 0)
    lam = np.full(4, 1.9)
    H = symfun.quotient_hessian(lam, spec)
    assert np.allclose(H @ lam, 0.0, atol=1e-13)
    assert np.allclose(H.sum(axis=1), 0.0, atol=1e-13)


def test_quotient_hessian_matches_finite_differences(rng):
    spec = QuotientSpec(3, 3, 1)
    for lam in cone_samples(rng, 3, 3, 10):
        H = symfun.quotient_hessian(lam, spec)
        fd = np.zeros((3, 3))
        for j in range(3):
            h = 1e-6 * (1 + abs(lam[j]))
            lp, lm = lam.copy(), lam.copy()
            lp[j] += h
            lm[j] -= h
            fd[:, j] = (
                symfun.quotient_gradient(lp, spec) - symfun.quotient_gradient(lm, spec)
            ) / (2 * h)
        assert np.abs(H - fd).max() <= 1e-5 * max(1.0, np.abs(H).max())


def test_quotient_hessian_negative_semidefinite(rng):
    for n, k, l in [(3, 3, 1), (4, 2, 0), (5, 5, 3), (6, 4, 2)]:
        spec = QuotientSpec(n, k, l)
        lams = cone_samples(rng, n, k, 40)
        H = symfun.quotient_hessian(lams, spec)
        top = np.linalg.eigvalsh(H)[:, -1]
        assert np.all(top <= 1e-9)


def test_quotient_concavity_on_segments(rng):
    for n, k, l in [(3, 3, 1), (5, 4, 1)]:
        spec = QuotientSpec(n, k, l)
        a = cone_samples(rng, n, k, 200)
        b = cone_samples(rng, n, k, 200)
        theta = rng.uniform(0, 1, size=(200, 1))
        mid = theta * a + (1 - theta) * b
        lhs = symfun.quotient_value(mid, spec)
        rhs = theta[:, 0] * symfun.quotient_value(a, spec) + (
            1 - theta[:, 0]
        ) * symfun.quotient_value(b, spec)
        assert np.all(lhs >= rhs - 1e-10)


def test_deletion_identity_property(rng):
    for n in range(2, 7):
        lams = rng.normal(1.0, 1.0, size=(300, n))
        tables = symfun.sigma_all(lams)
        for k in range(1, n + 1):
            for i in range(n):
                sub = np.delete(lams, i, axis=1)
                subtab = symfun._sigma_table(sub)
                with_i = (subtab[:, k] if k <= n - 1 else 0.0) + lams[:, i] * subtab[:, k - 1]
                err = np.abs(with_i - tables[:, k]) / np.maximum(1.0, np.abs(tables[:, k]))
                assert err.max() <= 1e-12


def test_partial_sum_identity_property(rng):
    # sum_i sigma_{k-1}(lam|i) = (n - k + 1) sigma_{k-1}(lam)
    for n in range(2, 7):
        lams = rng.normal(1.0, 1.0, size=(200, n))
        tables = symfun.sigma_all(lams)
        deleted = symfun._deleted_tables(lams)
        for k in range(1, n + 1):
            total = deleted[..., k - 1].sum(axis=-1)
            expected = (n - k + 1) * tables[:, k - 1]
            err = np.abs(total - expected) / np.maximum(1.0, np.abs(expected))
            assert err.max() <= 1e-12


def test_cone_nesting_property(rng):
    for n in range(2, 7):
        lams = cone_samples(rng, n, n, 100)
        for j in range(1, n + 1):
            assert np.all(symfun.in_gamma_k(lams, j))


def test_partials_positive_in_cone(rng):
    for n in range(2, 7):
        for k in range(1, n + 1):
            lams = cone_samples(rng, n, k, 100)
            deleted = symfun._deleted_tables(lams)
            assert np.all(deleted[..., k - 1] > -1e-10)


def test_sorted_partials_monotone(rng):
    # descending eigenvalues give ascending deleted sigmas
    for n, k in [(3, 2), (4, 3), (6, 4)]:
        lams = np.sort(cone_samples(rng, n, k, 200), axis=1)[:, ::-1]
        deleted = symfun._deleted_tables(lams)
        part = deleted[..., k - 1]
        assert np.all(np.diff(part, axis=1) >= -1e-10)


def test_newton_maclaurin_examples():
    assert symfun.newton_maclaurin_holds([1, 1, 1], 3, 1, 2, 0)
    lhs = math.sqrt((6 / 1) / (6 / 3))
    rhs = math.sqrt(11 / 3)
    assert lhs <= rhs
    assert symfun.newton_maclaurin_holds([1, 2, 3], 3, 1, 2, 0)


def test_newton_maclaurin_rejects_bad_tuple():
    with pytest.raises(ValueError):
        symfun.newton_maclaurin_holds([1, 1, 1], 1, 2, 1, 0)


def test_newton_maclaurin_property(rng):
    for n in range(2, 6):
        for m in range(1, n + 1):
            lams = cone_samples(rng, n, m, 300)
            for l in range(m):
                for r in range(1, m + 1):
                    for s in range(0, min(l, r - 1) + 1):
                        assert symfun.newton_maclaurin_holds(lams, m, l, r, s)


def test_sampler_deterministic_and_inside():
    a = symfun.sample_gamma_k(3, 3, 17)
    b = symfun.sample_gamma_k(3, 3, 17)
    assert np.array_equal(a, b)
    assert symfun.in_gamma_k(a, 3)
    c = symfun.sample_gamma_k(3, 1, 17)
    assert symfun.in_gamma_k(c, 1)
    assert not np.array_equal(a, symfun.sample_gamma_k(3, 3, 18))


def test_sampler_gives_up_after_its_draw_budget():
    class Negative:
        # every draw lies outside every cone; stops a sampler without a budget
        calls = 0

        def normal(self, loc, scale, size):
            self.calls += 1
            assert self.calls < 50_000
            return -np.ones(size)

    with pytest.raises(SamplerExhaustedError):
        symfun.sample_cone(Negative(), 3, 1, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuotientSpec(3, 3, 2)  # k - l < 2
    with pytest.raises(ValueError):
        QuotientSpec(3, 4, 1)  # k > n
    with pytest.raises(ValueError):
        QuotientSpec(3, 3, 1, tau=0.5)
    with pytest.raises(ValueError):
        symfun.sigma_all([1.0, np.nan, 2.0])
