"""Symmetric-matrix layer over the sigma-quotient algebra.

Holds the stencil-scale eigendecomposition (LAPACK ``eigh``, n <= 8), the
trace transform A -> tau*tr(A)*I - A, the matrix operator built from the
sigma-quotient root of the transformed eigenvalues, its first derivative
matrices, and the divided-difference form of its off-diagonal second
derivative.  Everything broadcasts over leading batch axes; the grid
assembly uses the eigen-free closed form ``grid.hessian_fields`` instead,
and this module is its test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EigenFailureError, NotAdmissibleError
from . import symfun
from .symfun import QuotientSpec

_MAX_DIM = 8


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues in ascending order and the orthogonal matrix whose
    columns are the matching eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def _as_symmetric(A):
    # Symmetry is enforced on construction: round-off asymmetry (QR or
    # product residue) is mirrored away, genuine asymmetry is an error.
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[-1]
    if n < 2 or n > _MAX_DIM:
        raise ValueError(f"matrix dimension must be in [2, {_MAX_DIM}], got {n}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf")
    skew = np.abs(A - np.swapaxes(A, -1, -2)).max()
    if skew > 0.0:
        if skew > 1e-12 * (1.0 + np.abs(A).max()):
            raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
    return A


def eta_transform(A, tau):
    """tau * tr(A) * I - A, the linear map feeding the operator.

    With tau = 1 this swaps each eigenvalue for the sum of the others.
    """
    A = np.asarray(A, dtype=float)
    if not tau >= 1.0:
        raise ValueError(f"tau must be >= 1, got {tau}")
    n = A.shape[-1]
    tr = np.einsum("...ii->...", A)
    return tau * tr[..., None, None] * np.eye(n) - A


def sym_eig(A):
    """Eigendecomposition of one symmetric matrix or a batch of them.

    LAPACK ``eigh``: deterministic for a fixed LAPACK build."""
    A = _as_symmetric(A)
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as err:
        raise EigenFailureError(f"eigh did not converge: {err}") from err
    return EigenPair(values=values, vectors=vectors)


def operator_value(U, spec):
    """Value of the sigma-quotient root on the eigenvalues of U.

    Invariant under orthogonal conjugation; raises NotAdmissibleError with
    the offending eigenvalue list when the spectrum leaves the cone.
    """
    U = _as_symmetric(U)
    _check_spec_dim(U, spec)
    return symfun.quotient_value(sym_eig(U).values, spec)


def operator_gradient(U, spec):
    """Derivative matrix of the operator in the entries of U.

    Assembled spectrally as V diag(f) V^T from the eigenvalue gradient f,
    then symmetrized to kill rotation round-off.  Well defined for repeated
    eigenvalues because f is a symmetric function; positive definite on
    admissible input, with trace bounded below by spec.trace_lower_bound().
    """
    U = _as_symmetric(U)
    _check_spec_dim(U, spec)
    pair = sym_eig(U)
    f = symfun.quotient_gradient(pair.values, spec)
    G = np.einsum("...ip,...p,...jp->...ij", pair.vectors, f, pair.vectors)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def eta_operator_gradient(A, spec):
    """Derivative of the composition (operator after trace transform) at A.

    With G the operator gradient at the transformed matrix, the chain rule
    through tau*tr(.)*I - (.) gives tau*tr(G)*I - G.  Positive definite:
    its eigenvalues are tau*sum(f) - f_p and at least two of the f's are
    positive whenever k >= 2.
    """
    A = _as_symmetric(A)
    G = operator_gradient(eta_transform(A, spec.tau), spec)
    return eta_transform(G, spec.tau)


def gradient_divided_difference(U, spec, i, j):
    """Divided difference (f_i - f_j)/(lam_j - lam_i) of the eigenvalue
    gradient of a diagonal admissible U across entries i != j.

    This is the negated second derivative of the operator along the
    symmetric off-diagonal perturbation of entries (i, j), and it is
    nonnegative by concavity.  When the two eigenvalues are closer than
    1e-8 * (1 + max|lam|) the continuous limit H[i, j] - H[i, i] from the
    eigenvalue Hessian is returned instead.
    """
    U = _as_symmetric(U)
    if U.ndim != 2:
        raise ValueError("divided difference expects a single matrix")
    _check_spec_dim(U, spec)
    n = U.shape[-1]
    if i == j:
        raise ValueError("divided difference requires distinct indices")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for n={n}")
    offdiag = U - np.diag(np.diagonal(U))
    if np.any(offdiag != 0.0):
        raise ValueError("divided difference is defined for diagonal matrices")
    lam = np.diagonal(U).copy()
    gap = lam[i] - lam[j]
    if abs(gap) <= 1e-8 * (1.0 + np.max(np.abs(lam))):
        H = symfun.quotient_hessian(lam, spec)
        return float(H[i, j] - H[i, i])
    f = symfun.quotient_gradient(lam, spec)
    return float(-(f[i] - f[j]) / gap)


def _check_spec_dim(U, spec):
    if U.shape[-1] != spec.n:
        raise ValueError(f"matrix dimension {U.shape[-1]} != spec n={spec.n}")
