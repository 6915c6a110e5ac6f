"""Elementary symmetric polynomial algebra on eigenvalue vectors.

Everything here is a plain function of an eigenvalue vector ``lam`` of
length n >= 2.  All functions broadcast over leading axes, so ``lam`` may
be a single vector of shape (n,) or a batch of shape (..., n); the grid
assembly uses the eigen-free ``grid.sigma_tensors`` instead.

Conventions: sigma_0 = 1, sigma_j = 0 for j < 0 or j > (number of
entries).  The Garding cone of order k is the open set where
sigma_1, ..., sigma_k are all finite and strictly positive; membership is
tested with zero tolerance because the cone is open and every downstream
argument needs strict positivity.  ``cone_holds`` states that rule once;
every cone test in the package, the grid kernel's included, goes through it.
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


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
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
    return _deleted_tables(lam)[..., i, k - 1]


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
    return _table_entry_pairs(lam, k - 2)[..., i, j]


def cone_holds(values):
    """The cone rule on sigma values or margins, elementwise: finite and
    strictly positive, so NaN and +-inf fail."""
    return np.isfinite(values) & (values > 0.0)


def require_cone(table, k, eigenvalues, node=None):
    """Raise NotAdmissibleError at the first row (C order) of a sigma table
    [sigma_0, sigma_1, ...] outside the order-k cone.  The error names the
    row's smallest failing j, whether sigma_j overflowed rather than being
    <= 0, the row's ``eigenvalues(row)`` and, given ``node``, ``node(row)``."""
    flat = table.reshape(-1, table.shape[-1])
    # column by column: a strided (N, k) view is several times slower
    inside = np.logical_and.reduce([cone_holds(flat[:, j]) for j in range(1, k + 1)])
    if not inside.all():
        row = int(np.argmin(inside))
        j = int(np.argmin(cone_holds(flat[row, 1 : k + 1]))) + 1
        raise NotAdmissibleError(eigenvalues(row), j, node(row) if node else None,
                                 overflow=not np.isfinite(flat[row, j]))


def cone_margins(table, n):
    """Per-row minimum of sigma_j / C(n, j), 1 <= j <= k, over a sigma table
    [sigma_0..sigma_k] of n eigenvalues; NaN where some sigma_j is not finite,
    so a margin passes ``cone_holds`` exactly where its row is in the cone."""
    cols = [table[..., j] / math.comb(n, j) for j in range(1, table.shape[-1])]
    return np.where(np.isfinite(cols).all(axis=0), np.minimum.reduce(cols), np.nan)


def in_gamma_k(lam, k):
    """Strict Garding-cone membership: sigma_j(lam) finite and > 0, 1 <= j <= k.

    Zero tolerance: the cone is open, and points on its boundary count as
    outside.  Returns a bool for a single vector, a bool array for a batch.
    """
    lam = _as_lambda(lam)
    n = lam.shape[-1]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    return np.all(cone_holds(_sigma_table(lam)[..., 1 : k + 1]), axis=-1)


def _admissible_table(lam, k, n):
    """lam (length n) as a float array and its sigma table; raises
    NotAdmissibleError with the first vector outside the order-k cone."""
    lam = _as_lambda(lam)
    if lam.shape[-1] != n:
        raise ValueError(f"eigenvalue vector length {lam.shape[-1]} != spec n={n}")
    table = _sigma_table(lam)
    require_cone(table, k, lambda row: lam.reshape(-1, n)[row])
    return lam, table


def _quotient_from_table(table, k, l):
    ratio = table[..., k] / table[..., l]
    return ratio ** (1.0 / (k - l))


def quotient_value(lam, spec):
    """(sigma_k/sigma_l)^(1/(k-l)) at lam, positive on the order-k cone.

    Raises NotAdmissibleError (with the first failing sigma index) when lam
    is outside; inside, sigma_l > 0 is automatic so the ratio is safe.
    """
    _, table = _admissible_table(lam, spec.k, spec.n)
    return _quotient_from_table(table, spec.k, spec.l)


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
    lam, table = _admissible_table(lam, spec.k, spec.n)
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
    lam, table = _admissible_table(lam, spec.k, spec.n)
    k, l = spec.k, spec.l
    m = k - l
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
    lam, table = _admissible_table(lam, m, n)
    lhs = _normalized_mean(table, n, m, l)
    rhs = _normalized_mean(table, n, r, s)
    return np.all(lhs <= rhs + 1e-12) if lam.ndim > 1 else bool(lhs <= rhs + 1e-12)


def _normalized_mean(table, n, a, b):
    num = table[..., a] / math.comb(n, a)
    den = table[..., b] / math.comb(n, b)
    return (num / den) ** (1.0 / (a - b))


def sample_gamma_k(n, k, seed):
    """One point of the order-k cone, ``sample_cone`` with the generator
    seeded by ``seed``: deterministic per seed."""
    return sample_cone(np.random.default_rng(seed), n, k, 1)[0]


def sample_cone(rng, n, k, count):
    """``count`` points of the order-k cone by rejection from batched N(1, 1)
    draws of ``rng`` (a batch's rows are the draws one at a time would give).
    Fails with SamplerExhaustedError after 10^5 draws per point."""
    out = np.empty((count, n))
    have = drawn = 0
    while have < count:
        if drawn >= 100_000 * count:
            raise SamplerExhaustedError(
                f"order-{k} cone: {have} of {count} points in {drawn} draws")
        draw = rng.normal(1.0, 1.0, size=(4 * (count - have) + 16, n))
        drawn += draw.shape[0]
        keep = draw[in_gamma_k(draw, k)]
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out
