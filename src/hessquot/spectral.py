"""Symmetric-matrix layer over the sigma-quotient algebra.

Holds the stencil-scale eigendecomposition (cyclic Jacobi, n <= 8), the
trace transform A -> tau*tr(A)*I - A, the matrix operator built from the
sigma-quotient root of the transformed eigenvalues, its first derivative
matrices, and the divided-difference form of its off-diagonal second
derivative.  Everything broadcasts over leading batch axes; the grid
assembly uses the eigen-free ``grid.hessian_fields`` instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EigenFailureError, NotAdmissibleError
from . import symfun
from .symfun import QuotientSpec

_MAX_DIM = 8
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues in ascending order and the orthogonal matrix whose
    columns are the matching eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def _as_symmetric(A, what="matrix"):
    # Symmetry is enforced on construction: round-off asymmetry (QR or
    # product residue) is mirrored away, genuine asymmetry is an error.
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    n = A.shape[-1]
    if n < 2 or n > _MAX_DIM:
        raise ValueError(f"{what} dimension must be in [2, {_MAX_DIM}], got {n}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{what} contains NaN or Inf")
    skew = np.abs(A - np.swapaxes(A, -1, -2)).max()
    if skew > 0.0:
        if skew > 1e-12 * (1.0 + np.abs(A).max()):
            raise ValueError(f"{what} is not symmetric (max asymmetry {skew:.3e})")
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
    return A


def symmetrize(A):
    """Average a nearly-symmetric matrix with its transpose."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def eta_transform(A, tau):
    """tau * tr(A) * I - A, the linear map feeding the operator.

    With tau = 1 this swaps each eigenvalue for the sum of the others.
    """
    A = np.asarray(A, dtype=float)
    if not tau >= 1.0:
        raise ValueError(f"tau must be >= 1, got {tau}")
    n = A.shape[-1]
    tr = np.trace(A, axis1=-2, axis2=-1)
    return tau * tr[..., None, None] * np.eye(n) - A


def _jacobi(A):
    """Batched cyclic Jacobi diagonalization of symmetric matrices.

    Sweeps the strict upper triangle in a fixed (row, column) order, which
    makes the result deterministic.  Converges when the off-diagonal
    Frobenius norm of every matrix in the batch is <= 1e-14 times its norm.
    Returns (eigenvalues ascending, orthogonal eigenvector columns).
    """
    A = np.array(A, dtype=float)
    n = A.shape[-1]
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    scale = np.sqrt(np.sum(A * A, axis=(-2, -1)))
    iu, ju = np.triu_indices(n, 1)

    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(2.0 * np.sum(A[..., iu, ju] ** 2, axis=-1))
        converged = off <= 1e-14 * scale
        if np.all(converged):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[..., p, q]
                # freeze converged batch elements so each matrix follows
                # exactly the trajectory it would take on its own
                active = (np.abs(apq) > 0.0) & ~converged
                if not np.any(active):
                    continue
                app = A[..., p, p]
                aqq = A[..., q, q]
                safe_apq = np.where(active, apq, 1.0)
                with np.errstate(over="ignore"):
                    # theta may overflow for denormal pivots; t then
                    # underflows to 0, which is the right rotation limit
                    theta = 0.5 * (aqq - app) / safe_apq
                    t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta == 0.0, 1.0, t)  # sign(0) = 0 would stall
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                c = np.where(active, c, 1.0)
                s = np.where(active, s, 0.0)
                # A <- J^T A J with J the rotation in the (p, q) plane
                rp = A[..., p, :].copy()
                rq = A[..., q, :].copy()
                A[..., p, :] = c[..., None] * rp - s[..., None] * rq
                A[..., q, :] = s[..., None] * rp + c[..., None] * rq
                cp = A[..., :, p].copy()
                cq = A[..., :, q].copy()
                A[..., :, p] = c[..., None] * cp - s[..., None] * cq
                A[..., :, q] = s[..., None] * cp + c[..., None] * cq
                vp = V[..., :, p].copy()
                vq = V[..., :, q].copy()
                V[..., :, p] = c[..., None] * vp - s[..., None] * vq
                V[..., :, q] = s[..., None] * vp + c[..., None] * vq
    else:
        raise EigenFailureError(
            f"Jacobi sweeps did not converge in {_MAX_SWEEPS} passes"
        )

    diag = np.diagonal(A, axis1=-2, axis2=-1).copy()
    order = np.argsort(diag, axis=-1, kind="stable")
    values = np.take_along_axis(diag, order, axis=-1)
    vectors = np.take_along_axis(V, order[..., None, :], axis=-1)
    return values, vectors


def sym_eig(A):
    """Eigendecomposition of one symmetric matrix or a batch of them."""
    A = _as_symmetric(A)
    values, vectors = _jacobi(A)
    return EigenPair(values=values, vectors=vectors)


def operator_value(U, spec):
    """Value of the sigma-quotient root on the eigenvalues of U.

    Invariant under orthogonal conjugation; raises NotAdmissibleError with
    the offending eigenvalue list when the spectrum leaves the cone.
    """
    U = _as_symmetric(U)
    _check_spec_dim(U, spec)
    lam, _ = _jacobi(U)
    return symfun.quotient_value(lam, spec)


def operator_gradient(U, spec):
    """Derivative matrix of the operator in the entries of U.

    Assembled spectrally as V diag(f) V^T from the eigenvalue gradient f,
    then symmetrized to kill rotation round-off.  Well defined for repeated
    eigenvalues because f is a symmetric function; positive definite on
    admissible input, with trace bounded below by spec.trace_lower_bound().
    """
    U = _as_symmetric(U)
    _check_spec_dim(U, spec)
    lam, vec = _jacobi(U)
    f = symfun.quotient_gradient(lam, spec)
    G = np.einsum("...ip,...p,...jp->...ij", vec, f, vec)
    return symmetrize(G)


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
