"""Elementary symmetric polynomial algebra on eigenvalue vectors.

Everything here is a plain function of an eigenvalue vector ``lam`` of
length n >= 2.  All functions broadcast over leading axes, so ``lam`` may
be a single vector of shape (n,) or a batch of shape (..., n); the grid
assembly uses the eigen-free ``grid.sigma_tensors`` instead.

Conventions: sigma_0 = 1, sigma_j = 0 for j < 0 or j > (number of
entries).  The Garding cone of order k is the open set where
sigma_1, ..., sigma_k are all strictly positive; membership is tested
with zero tolerance because the cone is open and every downstream
argument needs strict positivity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAdmissibleError, SamplerExhaustedError


@dataclass(frozen=True)
class QuotientSpec:
    """The (n, k, l) triple plus the trace weight tau defining the operator
    (sigma_k / sigma_l)^(1/(k-l)) composed with A -> tau*tr(A)*I - A.

    Requires 0 <= l, l + 2 <= k <= n and a finite tau >= 1.
    """

    n: int
    k: int
    l: int
    tau: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if not (0 <= self.l and self.l + 2 <= self.k <= self.n):
            raise ValueError(
                f"need 0 <= l and l + 2 <= k <= n, got k={self.k}, l={self.l}, n={self.n}"
            )
        if not (1.0 <= self.tau < math.inf):
            raise ValueError(f"tau must be finite and >= 1, got {self.tau}")

    @property
    def degree_gap(self):
        return self.k - self.l

    def trace_lower_bound(self):
        """Lower bound (C(n,k)/C(n,l))^(1/(k-l)) for the gradient trace."""
        return (math.comb(self.n, self.k) / math.comb(self.n, self.l)) ** (
            1.0 / self.degree_gap
        )


def _as_lambda(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] < 2:
        raise ValueError("eigenvalue vector must have length >= 2")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue vector contains NaN or Inf")
    return lam


def sigma_all(lam):
    """All elementary symmetric polynomials [sigma_0, ..., sigma_n] of lam.

    Computed by the coefficient recurrence e_j <- e_j + lam_m * e_{j-1}
    (expansion of prod_i (1 + lam_i t)): O(n^2), stable for mixed-sign
    input, and exact for integer input within machine range.  Shape
    (..., n) -> (..., n + 1).
    """
    lam = _as_lambda(lam)
    return _sigma_table(lam)


def _sigma_table(lam):
    # Recurrence core without validation; lam (..., m) -> (..., m + 1).
    m = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (m + 1,), dtype=float)
    out[..., 0] = 1.0
    for i in range(m):
        top = i + 1
        out[..., 1 : top + 1] = out[..., 1 : top + 1] + lam[..., i, None] * out[..., 0:top]
    return out


def _table_entry(table, j):
    # sigma_j from a table, honoring the sigma_j = 0 convention outside range.
    if j < 0 or j >= table.shape[-1]:
        return np.zeros(table.shape[:-1])
    return table[..., j]


def _deleted_tables(lam):
    """Sigma tables of lam with one entry removed, for every entry.

    Shape (..., n) -> (..., n, n): entry [..., i, j] is sigma_j(lam | i).
    """
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (n, n), dtype=float)
    for i in range(n):
        sub = np.delete(lam, i, axis=-1)
        out[..., i, :] = _sigma_table(sub)
    return out


def sigma_partial(lam, k, i):
    """sigma_{k-1}(lam | i), the derivative of sigma_k in entry i.

    Equals sigma_{k-1} of lam with entry i deleted, and satisfies
    sigma_k(lam) = sigma_k(lam|i) + lam_i * sigma_{k-1}(lam|i).
    """
    lam = _as_lambda(lam)
    n = lam.shape[-1]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not (0 <= i < n):
        raise ValueError(f"entry index {i} out of range for n={n}")
    sub = np.delete(lam, i, axis=-1)
    return _table_entry(_sigma_table(sub), k - 1)


def sigma_second_partial(lam, k, i, j):
    """sigma_{k-2}(lam | ij), the mixed second derivative of sigma_k.

    Requires i != j: the pure second derivative of sigma_k in a single
    entry is identically zero, and callers are expected to use 0 directly.
    """
    lam = _as_lambda(lam)
    n = lam.shape[-1]
    if i == j:
        raise ValueError("second partial requires distinct entries (diagonal is 0)")
    if not (2 <= k <= n):
        raise ValueError(f"need 2 <= k <= n, got k={k}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"entry indices ({i}, {j}) out of range for n={n}")
    sub = np.delete(lam, (i, j), axis=-1)
    return _table_entry(_sigma_table(sub), k - 2)


def in_gamma_k(lam, k):
    """Strict Garding-cone membership: sigma_j(lam) > 0 for all 1 <= j <= k.

    Zero tolerance: the cone is open, and points on its boundary count as
    outside.  Returns a bool for a single vector, a bool array for a batch.
    """
    lam = _as_lambda(lam)
    n = lam.shape[-1]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    table = _sigma_table(lam)
    return np.all(table[..., 1 : k + 1] > 0.0, axis=-1)


def _first_failing_index(table, k):
    # Smallest j <= k with sigma_j not > 0 (NaN fails) in the first failing row.
    bad = ~(table[..., 1 : k + 1] > 0.0)
    flat = bad.reshape(-1, k)
    rows = np.flatnonzero(flat.any(axis=1))
    if rows.size == 0:
        return None, None
    row = int(rows[0])
    j = int(np.argmax(flat[row])) + 1
    return row, j


def _require_admissible(lam, table, k, node=None):
    row, j = _first_failing_index(table, k)
    if row is not None:
        flat_lam = lam.reshape(-1, lam.shape[-1])
        raise NotAdmissibleError(flat_lam[row], j, node=node)


def _quotient_from_table(table, k, l):
    ratio = table[..., k] / table[..., l]
    return ratio ** (1.0 / (k - l))


def quotient_value(lam, spec):
    """(sigma_k/sigma_l)^(1/(k-l)) at lam, positive on the order-k cone.

    Raises NotAdmissibleError (with the first failing sigma index) when lam
    is outside; inside, sigma_l > 0 is automatic so the ratio is safe.
    """
    lam = _as_lambda(lam)
    _check_dim(lam, spec)
    table = _sigma_table(lam)
    _require_admissible(lam, table, spec.k)
    return _quotient_from_table(table, spec.k, spec.l)


def _check_dim(lam, spec):
    if lam.shape[-1] != spec.n:
        raise ValueError(f"eigenvalue vector length {lam.shape[-1]} != spec n={spec.n}")


def _quotient_gradient_core(lam, table, deleted, k, l):
    # f_i = (1/(k-l)) f^(1-(k-l)) (sigma_{k-1}(:|i) sigma_l - sigma_k sigma_{l-1}(:|i)) / sigma_l^2
    m = k - l
    f = _quotient_from_table(table, k, l)
    sk = table[..., k]
    sl = table[..., l]
    dk = _table_entry(deleted, k - 1)
    dl = _table_entry(deleted, l - 1)
    numer = dk * sl[..., None] - sk[..., None] * dl
    return (1.0 / m) * f[..., None] ** (1 - m) * numer / (sl[..., None] ** 2)


def quotient_gradient(lam, spec):
    """Gradient of the sigma-quotient root in each eigenvalue, closed form.

    All components are strictly positive on the cone and their sum is at
    least (C(n,k)/C(n,l))^(1/(k-l)).  Shape (..., n) -> (..., n).
    """
    lam = _as_lambda(lam)
    _check_dim(lam, spec)
    table = _sigma_table(lam)
    _require_admissible(lam, table, spec.k)
    deleted = _deleted_tables(lam)
    return _quotient_gradient_core(lam, table, deleted, spec.k, spec.l)


def _table_entry_pairs(lam, j):
    """sigma_j of lam with two distinct entries removed, all ordered pairs.

    Shape (..., n) -> (..., n, n) with zeros on the diagonal (the pure
    second derivative of any sigma in one entry vanishes).
    """
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (n, n), dtype=float)
    if j < 0 or j > n - 2:
        return out
    for a in range(n):
        for b in range(a + 1, n):
            sub = np.delete(lam, (a, b), axis=-1)
            val = _table_entry(_sigma_table(sub), j)
            out[..., a, b] = val
            out[..., b, a] = val
    return out


def quotient_hessian(lam, spec):
    """Symmetric matrix of second derivatives of the quotient root.

    Assembled from the sigma tables with one and two entries deleted; on
    the cone it is negative semi-definite (the operator is concave) and
    annihilates lam itself (1-homogeneity).  Shape (..., n) -> (..., n, n).
    """
    lam = _as_lambda(lam)
    _check_dim(lam, spec)
    k, l = spec.k, spec.l
    m = k - l
    table = _sigma_table(lam)
    _require_admissible(lam, table, spec.k)
    deleted = _deleted_tables(lam)

    sk = table[..., k, None]
    sl = table[..., l, None]
    dki = _table_entry(deleted, k - 1)
    dli = _table_entry(deleted, l - 1)
    skij = _table_entry_pairs(lam, k - 2)
    slij = _table_entry_pairs(lam, l - 2)

    g = (sk / sl)[..., 0]
    gi = (dki * sl - sk * dli) / sl**2
    # d/dlam_j of gi: product/quotient rule on (sigma_k,i sigma_l - sigma_k sigma_l,i)/sigma_l^2
    sl2 = sl[..., None]
    dn = (
        skij * sl2
        + dki[..., :, None] * dli[..., None, :]
        - dki[..., None, :] * dli[..., :, None]
        - sk[..., None] * slij
    )
    gij = dn / sl2**2 - 2.0 * gi[..., :, None] * dli[..., None, :] / sl2
    inv = 1.0 / m
    hess = (
        inv * (inv - 1.0) * g[..., None, None] ** (inv - 2.0)
        * gi[..., :, None] * gi[..., None, :]
        + inv * g[..., None, None] ** (inv - 1.0) * gij
    )
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def newton_maclaurin_holds(lam, m, l, r, s):
    """Generalized Newton-MacLaurin comparison of normalized quotient means.

    For lam in the order-m cone and exponent tuples with m > l >= 0,
    r > s >= 0, m >= r, l >= s, checks

        [ (sigma_m/C(n,m)) / (sigma_l/C(n,l)) ]^(1/(m-l))
            <= [ (sigma_r/C(n,r)) / (sigma_s/C(n,s)) ]^(1/(r-s))

    with 1e-12 additive slack.  Precondition violations raise ValueError.
    """
    lam = _as_lambda(lam)
    n = lam.shape[-1]
    if not (m > l >= 0 and r > s >= 0 and m >= r and l >= s and m <= n):
        raise ValueError(f"invalid exponent tuple (m,l,r,s)=({m},{l},{r},{s}) for n={n}")
    table = _sigma_table(lam)
    _require_admissible(lam, table, m)
    lhs = _normalized_mean(table, n, m, l)
    rhs = _normalized_mean(table, n, r, s)
    return np.all(lhs <= rhs + 1e-12) if lam.ndim > 1 else bool(lhs <= rhs + 1e-12)


def _normalized_mean(table, n, a, b):
    num = table[..., a] / math.comb(n, a)
    den = table[..., b] / math.comb(n, b)
    return (num / den) ** (1.0 / (a - b))


def sample_gamma_k(n, k, seed):
    """Deterministic rejection sampler for the order-k cone.

    Draws entries from a normal distribution with mean 1 and standard
    deviation 1 and rejects until the cone test passes; the cone contains
    the positive orthant so acceptance is quick.  Fails with
    SamplerExhaustedError after 10^5 rejected draws.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        lam = rng.normal(1.0, 1.0, size=n)
        if bool(in_gamma_k(lam, k)):
            return lam
    raise SamplerExhaustedError(f"no point of the order-{k} cone found in 1e5 draws")


def sample_cone(rng, n, k, count):
    """``count`` points of the order-k cone, from batched N(1, 1) draws of ``rng``."""
    out = np.empty((count, n))
    have = 0
    while have < count:
        draw = rng.normal(1.0, 1.0, size=(4 * (count - have) + 16, n))
        keep = draw[in_gamma_k(draw, k)]
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out
