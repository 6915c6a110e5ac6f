import math

import numpy as np
import pytest

from hessquot import spectral, symfun
from hessquot.errors import EigenFailureError, NotAdmissibleError
from hessquot.spectral import (
    eta_operator_gradient,
    eta_transform,
    gradient_divided_difference,
    operator_gradient,
    operator_value,
    sym_eig,
)
from hessquot.symfun import QuotientSpec

from conftest import admissible_matrix, cone_samples, inverse_eta, random_orthogonal


def test_eta_transform_identity():
    assert np.allclose(eta_transform(np.eye(3), 1.0), 2 * np.eye(3))


def test_eta_transform_diagonal_swap():
    A = np.diag([1.0, 2.0, 5.0])
    assert np.allclose(eta_transform(A, 1.0), np.diag([7.0, 6.0, 3.0]))


def test_eta_transform_zero_and_linearity(rng):
    assert np.all(eta_transform(np.zeros((3, 3)), 1.5) == 0.0)
    A = admissible_matrix(rng, QuotientSpec(4, 3, 1))
    B = admissible_matrix(rng, QuotientSpec(4, 3, 1))
    assert np.allclose(
        eta_transform(2 * A + B, 1.3),
        2 * eta_transform(A, 1.3) + eta_transform(B, 1.3),
        rtol=1e-14,
    )


def test_sym_eig_diagonal_input():
    pair = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(pair.values, [1, 2, 3])
    assert np.allclose(np.abs(pair.vectors), np.eye(3)[:, [1, 2, 0]])


def test_sym_eig_two_by_two():
    pair = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pair.values, [-1.0, 1.0])


def test_sym_eig_invariants(rng):
    for n in range(2, 9):
        B = rng.normal(size=(n, n))
        B = 0.5 * (B + B.T)
        pair = sym_eig(B)
        assert np.abs(pair.vectors @ pair.vectors.T - np.eye(n)).max() <= 1e-12
        scale = 1.0 + np.abs(B).max()
        for p in range(n):
            resid = B @ pair.vectors[:, p] - pair.values[p] * pair.vectors[:, p]
            assert np.linalg.norm(resid) <= 1e-10 * scale
        rec = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        assert np.abs(rec - B).max() <= 1e-10 * scale
        assert np.all(np.diff(pair.values) >= 0)


def test_sym_eig_deterministic(rng):
    B = rng.normal(size=(5, 5))
    B = 0.5 * (B + B.T)
    p1 = sym_eig(B)
    p2 = sym_eig(B.copy())
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.vectors, p2.vectors)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eig(np.eye(9))
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_reports_lapack_failure(monkeypatch):
    def eigh(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(EigenFailureError, match="did not converge"):
        sym_eig(np.eye(3))


def test_operator_value_examples():
    spec31 = QuotientSpec(3, 3, 1)
    assert operator_value(2 * np.eye(3), spec31) == pytest.approx(math.sqrt(4 / 3))
    spec20 = QuotientSpec(3, 2, 0)
    assert operator_value(np.diag([1.0, 2.0, 3.0]), spec20) == pytest.approx(
        math.sqrt(11)
    )


def test_operator_value_rotation_invariant(rng):
    spec = QuotientSpec(4, 3, 1)
    U = admissible_matrix(rng, spec)
    base = operator_value(U, spec)
    for _ in range(10):
        R = random_orthogonal(rng, 4)
        assert abs(operator_value(R @ U @ R.T, spec) - base) <= 1e-10 * (1 + abs(base))


def test_operator_value_not_admissible_carries_eigenvalues():
    spec = QuotientSpec(3, 2, 0)
    with pytest.raises(NotAdmissibleError) as err:
        operator_value(np.diag([3.0, 1.0, -1.0]), spec)
    assert err.value.failing_index == 2
    assert len(err.value.lam) == 3


def test_operator_gradient_diagonal_example():
    G = operator_gradient(np.diag([1.0, 2.0, 3.0]), QuotientSpec(3, 3, 1))
    assert np.allclose(G, np.diag([5 / 12, 1 / 6, 1 / 12]), atol=1e-14)


def test_operator_gradient_symmetric_point():
    spec = QuotientSpec(4, 3, 1)
    G = operator_gradient(2.0 * np.eye(4), spec)
    assert np.allclose(G, (spec.trace_lower_bound() / 4) * np.eye(4), rtol=1e-13)


def test_operator_gradient_directional_derivative(rng):
    for n, k, l in [(3, 3, 1), (4, 2, 0), (5, 4, 2)]:
        spec = QuotientSpec(n, k, l)
        for _ in range(4):
            U = admissible_matrix(rng, spec)
            G = operator_gradient(U, spec)
            for _ in range(10):
                E = rng.normal(size=(n, n))
                E = 0.5 * (E + E.T)
                h = 1e-6
                fd = (operator_value(U + h * E, spec) - operator_value(U - h * E, spec)) / (2 * h)
                pairing = float(np.sum(G * E))
                assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


def test_operator_gradient_positive_definite_and_trace_bound(rng):
    for n, k, l in [(3, 3, 1), (4, 4, 0), (6, 4, 2)]:
        spec = QuotientSpec(n, k, l)
        for _ in range(20):
            U = admissible_matrix(rng, spec)
            G = operator_gradient(U, spec)
            assert np.linalg.eigvalsh(G)[0] > 0.0
            assert np.trace(G) >= spec.trace_lower_bound() - 1e-10


def test_eta_operator_gradient_example():
    # the transformed matrix is diag(1,2,3) when A = diag(2,1,0) at tau=1
    spec = QuotientSpec(3, 3, 1)
    A = np.diag([2.0, 1.0, 0.0])
    assert np.allclose(eta_transform(A, 1.0), np.diag([1.0, 2.0, 3.0]))
    Q = eta_operator_gradient(A, spec)
    assert np.allclose(Q, np.diag([1 / 4, 1 / 2, 7 / 12]), atol=1e-14)


def test_eta_operator_gradient_trace_identity(rng):
    # <Q, A> equals the operator value by 1-homogeneity
    for n, k, l in [(3, 3, 1), (4, 3, 0)]:
        spec = QuotientSpec(n, k, l)
        for _ in range(10):
            U = admissible_matrix(rng, spec)
            A = inverse_eta(U, spec.tau)
            Q = eta_operator_gradient(A, spec)
            val = operator_value(U, spec)
            assert float(np.sum(Q * A)) == pytest.approx(val, rel=1e-10)
            assert float(np.sum(operator_gradient(U, spec) * U)) == pytest.approx(
                val, rel=1e-10
            )


def test_eta_operator_gradient_positive_definite(rng):
    spec = QuotientSpec(4, 4, 1, tau=1.5)
    for _ in range(20):
        U = admissible_matrix(rng, spec)
        A = inverse_eta(U, spec.tau)
        Q = eta_operator_gradient(A, spec)
        assert np.linalg.eigvalsh(Q)[0] > 0.0


def test_operator_concavity_midpoint(rng):
    spec = QuotientSpec(4, 3, 1)
    for _ in range(50):
        U = admissible_matrix(rng, spec)
        W = admissible_matrix(rng, spec)
        mid = operator_value(0.5 * U + 0.5 * W, spec)
        assert mid >= 0.5 * operator_value(U, spec) + 0.5 * operator_value(W, spec) - 1e-10


def test_divided_difference_example():
    dd = gradient_divided_difference(np.diag([1.0, 2.0, 3.0]), QuotientSpec(3, 3, 1), 0, 1)
    assert dd == pytest.approx(0.25, rel=1e-13)


def test_divided_difference_identity(rng):
    # matches (f_i - f_j) / (lam_j - lam_i) whenever the gap is resolvable
    for n, k, l in [(3, 3, 1), (4, 4, 2), (5, 3, 0)]:
        spec = QuotientSpec(n, k, l)
        for _ in range(10):
            lam = cone_samples(rng, n, k, 1)[0]
            if np.min(np.abs(np.subtract.outer(lam, lam)) + np.eye(n)) <= 1e-4:
                continue
            f = symfun.quotient_gradient(lam, spec)
            U = np.diag(lam)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    dd = gradient_divided_difference(U, spec, i, j)
                    ref = (f[i] - f[j]) / (lam[j] - lam[i])
                    assert abs(dd - ref) <= 1e-10 * (1 + abs(ref))
                    assert dd >= -1e-12  # concavity makes it nonnegative


def test_divided_difference_repeated_eigenvalue_branch():
    spec = QuotientSpec(3, 3, 1)
    U = 2.0 * np.eye(3)
    H = symfun.quotient_hessian(np.array([2.0, 2.0, 2.0]), spec)
    limit = H[0, 1] - H[0, 0]
    assert gradient_divided_difference(U, spec, 0, 1) == pytest.approx(limit, rel=1e-12)
    # the branch is continuous: a tiny gap lands next to the limit value
    # of the matching base point
    base = np.array([2.0, 2.0, 2.3])
    Hb = symfun.quotient_hessian(base, spec)
    limit_b = Hb[0, 1] - Hb[0, 0]
    close = gradient_divided_difference(np.diag([2.0, 2.0 + 1e-7, 2.3]), spec, 0, 1)
    assert abs(close - limit_b) <= 1e-6


def test_divided_difference_second_derivative_oracle(rng):
    # the negated off-diagonal second derivative of the operator:
    # d^2/dh^2 F(U + h (E_ij + E_ji)) = -2 * dd(i, j)
    spec = QuotientSpec(4, 4, 1)
    count = 0
    while count < 10:
        lam = cone_samples(rng, 4, 4, 1)[0]
        if np.min(np.abs(np.subtract.outer(lam, lam)) + 10 * np.eye(4)) < 0.1:
            continue
        count += 1
        U = np.diag(lam)
        i, j = rng.integers(0, 4), rng.integers(0, 4)
        while i == j:
            j = rng.integers(0, 4)
        dd = gradient_divided_difference(U, spec, int(i), int(j))
        E = np.zeros((4, 4))
        E[i, j] = E[j, i] = 1.0
        h = 1e-4 * (1 + np.abs(lam).max())
        d2 = (
            operator_value(U + h * E, spec)
            - 2 * operator_value(U, spec)
            + operator_value(U - h * E, spec)
        ) / h**2
        assert abs(d2 + 2 * dd) <= 1e-4 * (1 + abs(d2))


def test_divided_difference_rejects_bad_input():
    spec = QuotientSpec(3, 3, 1)
    with pytest.raises(ValueError):
        gradient_divided_difference(np.diag([1.0, 2.0, 3.0]), spec, 1, 1)
    with pytest.raises(ValueError):
        gradient_divided_difference(np.full((3, 3), 1.0), spec, 0, 1)
