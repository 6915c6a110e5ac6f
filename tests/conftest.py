"""Shared helpers for the test suite: batched cone sampling, admissible
matrix construction, the list of valid operator parameter triples, and an
iterate whose sigma table overflows at one node."""

import numpy as np
import pytest

from hessquot import symfun
from hessquot.symfun import QuotientSpec


cone_samples = symfun.sample_cone

# Finite data whose sigma_2 overflows to +inf at the single node (7, 7)
# (x1 = x2 = 1.75) of a res-9 grid on [0, 2]^2, for (n, k, l) = (2, 2, 0):
# U = c diag(x2^6, x1^6), c = 4.8e152, has finite positive eigenvalues
# everywhere, and sigma_2 = c^2 (x1 x2)^6 exceeds 1.8e308 only there, at
# most half of that elsewhere, on finite-difference and exact Hessians alike
OVERFLOW_OCTIC = "4.8e152*(x1^8 + x2^8)/56"


def valid_triples(n_max=6):
    """All (n, k, l) with 0 <= l and l + 2 <= k <= n <= n_max."""
    out = []
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for l in range(0, k - 1):
                out.append((n, k, l))
    return out


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def admissible_matrix(rng, spec):
    """Symmetric matrix whose spectrum lies in the order-k cone."""
    lam = cone_samples(rng, spec.n, spec.k, 1)[0]
    q = random_orthogonal(rng, spec.n)
    return (q * lam) @ q.T


def inverse_eta(U, tau):
    """The matrix A with tau*tr(A)*I - A = U."""
    n = U.shape[-1]
    tr_a = np.trace(U) / (tau * n - 1.0)
    return tau * tr_a * np.eye(n) - U


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
