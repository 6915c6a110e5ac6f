"""Uniform box-grid discretization and residual/Jacobian assembly.

The grid is a tensor product of ``res`` equally spaced nodes per axis,
boundary layers included, so every interior stencil reads only grid nodes
and one-sided differences never appear.  Interior nodes are the ones with
all indices in [1, res-2]; they are enumerated row-major (C order), and
that ordering is the row ordering of the assembled sparse systems.

Second derivatives use the 3-point second difference on the diagonal and
the 4-point cross for mixed terms, both exact on quadratics; gradients
use central differences.  Assembly is vectorized over interior nodes:
node-level work shares no state.  Each grid builds its Jacobian sparsity
pattern once (row pointers, column indices and the data slot of every
stencil offset at every node); assembly accumulates per-offset weight
arrays and fills the matrix data with one gather through that pattern.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import expr as expr_mod
from . import symfun
from .errors import NotAdmissibleError
from .spectral import eta_transform, sym_eig


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box [lo, hi] sampled with ``res`` nodes per axis."""

    n: int
    lo: tuple
    hi: tuple
    res: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {self.n}")
        if len(self.lo) != self.n or len(self.hi) != self.n:
            raise ValueError("lo/hi length must match the dimension")
        if self.res < 5:
            raise ValueError(f"resolution must be >= 5, got {self.res}")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if not all(b > a for a, b in zip(self.lo, self.hi)):
            raise ValueError("need hi > lo on every axis")

    @property
    def shape(self):
        return (self.res,) * self.n

    @property
    def h(self):
        """Node spacing per axis."""
        return (np.array(self.hi) - np.array(self.lo)) / (self.res - 1)

    @property
    def interior_shape(self):
        return (self.res - 2,) * self.n

    @property
    def num_interior(self):
        return (self.res - 2) ** self.n

    def axis_coords(self, i):
        return np.linspace(self.lo[i], self.hi[i], self.res)

    def coords(self):
        """Coordinates of every node, shape grid.shape + (n,)."""
        axes = [self.axis_coords(i) for i in range(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def interior_coords(self):
        """Coordinates of interior nodes, row-major, shape (N_int, n)."""
        core = (slice(1, -1),) * self.n
        return self.coords()[core].reshape(-1, self.n)

    def boundary_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.n):
            idx = [slice(None)] * self.n
            idx[axis] = 0
            mask[tuple(idx)] = True
            idx[axis] = self.res - 1
            mask[tuple(idx)] = True
        return mask

    def is_interior(self, node):
        return all(1 <= i <= self.res - 2 for i in node)

    def interior_node(self, row):
        """Grid multi-index of the interior node in row-major row ``row``."""
        return tuple(int(i) + 1 for i in np.unravel_index(row, self.interior_shape))

    def node_coord(self, node):
        return np.array(
            [self.lo[a] + self.h[a] * node[a] for a in range(self.n)]
        )

    @cached_property
    def jacobian_pattern(self):
        """CSR structure shared by every Jacobian assembled on this grid."""
        return _StencilPattern(self.n, self.res - 2)

    @cached_property
    def sine_basis(self):
        """Orthonormal, symmetric sine matrix S (m x m, m = res - 2) with
        S[j, k] = sqrt(2/(m+1)) sin(pi (j+1) (k+1) / (m+1)).

        Its columns are the eigenvectors of the 1-D Dirichlet second
        difference on m interior nodes, so S @ S = I.  Every axis has m
        interior nodes, so one matrix serves all axes.
        """
        m = self.res - 2
        k = np.arange(1, m + 1)
        return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))

    @cached_property
    def laplacian_eigenvalues(self):
        """Eigenvalues of the interior Dirichlet Laplacian L (sum over axes of
        the 3-point second difference / h_a^2), shape interior_shape, in the
        basis that applies sine_basis along every axis."""
        m = self.res - 2
        k = np.arange(1, m + 1)
        mu = -4.0 * np.sin(np.pi * k / (2.0 * (m + 1))) ** 2
        out = np.zeros(self.interior_shape)
        for a, ha in enumerate(self.h):
            shape = [1] * self.n
            shape[a] = m
            out = out + (mu / ha**2).reshape(shape)
        return out

    @property
    def laplacian_diagonal(self):
        """The (constant) diagonal entry of L, -2 * sum_a 1/h_a^2."""
        return -2.0 * float(np.sum(1.0 / self.h**2))

    def laplacian_solve(self, v):
        """L^{-1} v for a flat row-major interior vector v.

        Exact up to rounding: transform to the sine basis, divide by the
        eigenvalues, transform back.
        """
        S = self.sine_basis
        w = _sine_transform(v, S, self.n)
        w = w / self.laplacian_eigenvalues.reshape(-1)
        return _sine_transform(w, S, self.n)


def _sine_transform(v, S, n):
    # Apply the symmetric m x m matrix S along every axis of the flat
    # row-major (m,)*n array v.  Each step transforms the last axis and
    # rotates it to the front (the transpose); after n steps every axis is
    # transformed once and the axes are back in their original order.
    m = S.shape[0]
    for _ in range(n):
        v = (v.reshape(-1, m) @ S).T
    return v.reshape(-1)


class _StencilPattern:
    """Fixed CSR pattern of the interior Jacobian on an n-D grid with m
    interior nodes per axis.

    The stencil offsets are every o in {-1, 0, 1}^n with at most two
    nonzero entries (9 in 2-D, 19 in 3-D), in lexicographic order, which
    is also increasing column order within a row.  Assembly accumulates
    one weight array per offset into a (len(offsets), N_int) block W;
    ``W.reshape(-1)[gather]`` is then the CSR data.  Weights whose
    neighbor is a boundary node have no slot and are not gathered.
    """

    def __init__(self, n, m):
        self.offsets = [
            o for o in itertools.product((-1, 0, 1), repeat=n)
            if sum(map(abs, o)) <= 2
        ]
        self.slot = {o: k for k, o in enumerate(self.offsets)}
        nint = m**n
        node = np.indices((m,) * n).reshape(n, -1)
        strides = m ** np.arange(n - 1, -1, -1)
        off = np.array(self.offsets).T[:, :, None]  # (n, K, 1)
        valid = np.all((node[:, None, :] + off >= 0) & (node[:, None, :] + off < m), axis=0)
        row_ptr = np.concatenate(([0], np.cumsum(valid.sum(axis=0))))
        nnz = int(row_ptr[-1])
        dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        k_idx, row = np.nonzero(valid)
        # rank of each valid offset within its row, in offset order
        rank = (np.cumsum(valid, axis=0) - 1)[k_idx, row]
        pos = row_ptr[row] + rank
        self.indptr = row_ptr.astype(dtype)
        self.indices = np.empty(nnz, dtype=dtype)
        self.indices[pos] = row + (strides @ off[:, :, 0])[k_idx]
        self.gather = np.empty(nnz, dtype=np.intp)
        self.gather[pos] = k_idx * nint + row
        for arr in (self.indptr, self.indices, self.gather):
            arr.flags.writeable = False


@dataclass
class GridFunction:
    """Real values on every node of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains NaN or Inf")

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def interior(self):
        core = (slice(1, -1),) * self.grid.n
        return self.values[core].reshape(-1)


@dataclass
class SparseSystem:
    """Row-compressed Jacobian over interior nodes plus right-hand side.

    ``grid`` is the grid whose interior nodes the rows enumerate, when the
    system was assembled on one (``assemble_jacobian`` sets it); it lets
    the linear solve use the grid's Laplacian as a preconditioner.  None
    for systems that carry no grid structure.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    grid: Grid | None = None


def sample_expression(e, grid, u=None, p=None):
    """Evaluate an expression of x (and optionally u, p) at every node."""
    coords = grid.coords().reshape(-1, grid.n)
    env = expr_mod.EvalEnv(x=coords, u=u, p=p)
    values = np.broadcast_to(expr_mod.evaluate(e, env), (coords.shape[0],))
    return GridFunction(grid, values.reshape(grid.shape).copy())


def _require_interior(grid, node):
    node = tuple(int(i) for i in node)
    if len(node) != grid.n or not grid.is_interior(node):
        raise ValueError(f"node {node} is not an interior node")
    return node


def fd_gradient(u, node):
    """Central-difference gradient at one interior node; second order,
    exact on quadratics."""
    grid = u.grid
    node = _require_interior(grid, node)
    h = grid.h
    out = np.empty(grid.n)
    for a in range(grid.n):
        up = list(node)
        dn = list(node)
        up[a] += 1
        dn[a] -= 1
        out[a] = (u.values[tuple(up)] - u.values[tuple(dn)]) / (2.0 * h[a])
    return out


def fd_hessian(u, node):
    """Finite-difference Hessian at one interior node.

    3-point second differences on the diagonal, the 4-point cross for
    mixed entries; exact on quadratics.
    """
    grid = u.grid
    node = _require_interior(grid, node)
    h = grid.h
    n = grid.n
    H = np.empty((n, n))
    c = u.values[node]
    for a in range(n):
        up = list(node)
        dn = list(node)
        up[a] += 1
        dn[a] -= 1
        H[a, a] = (u.values[tuple(up)] - 2.0 * c + u.values[tuple(dn)]) / h[a] ** 2
    for a in range(n):
        for b in range(a + 1, n):
            acc = 0.0
            for sa in (1, -1):
                for sb in (1, -1):
                    q = list(node)
                    q[a] += sa
                    q[b] += sb
                    acc += sa * sb * u.values[tuple(q)]
            H[a, b] = H[b, a] = acc / (4.0 * h[a] * h[b])
    return H


def _shifted(values, n, offset):
    # View of the interior block displaced by ``offset`` (entries in {-1,0,1}).
    res = values.shape[0]
    idx = tuple(slice(1 + o, res - 1 + o) for o in offset)
    return values[idx]


def interior_gradients(values, grid):
    """Central-difference gradients at all interior nodes, shape (N_int, n)."""
    n = grid.n
    h = grid.h
    cols = []
    for a in range(n):
        o = [0] * n
        o[a] = 1
        up = _shifted(values, n, o)
        o[a] = -1
        dn = _shifted(values, n, o)
        cols.append((up - dn) / (2.0 * h[a]))
    return np.stack([c.reshape(-1) for c in cols], axis=-1)


def interior_hessians(values, grid):
    """Stencil Hessians at all interior nodes, shape (N_int, n, n)."""
    n = grid.n
    h = grid.h
    core = _shifted(values, n, [0] * n)
    H = np.empty(core.shape + (n, n))
    for a in range(n):
        o = [0] * n
        o[a] = 1
        up = _shifted(values, n, o)
        o[a] = -1
        dn = _shifted(values, n, o)
        H[..., a, a] = (up - 2.0 * core + dn) / h[a] ** 2
    for a in range(n):
        for b in range(a + 1, n):
            acc = np.zeros_like(core)
            for sa in (1, -1):
                for sb in (1, -1):
                    o = [0] * n
                    o[a] = sa
                    o[b] = sb
                    acc = acc + sa * sb * _shifted(values, n, o)
            H[..., a, b] = H[..., b, a] = acc / (4.0 * h[a] * h[b])
    return H.reshape(-1, n, n)


def admissibility_margins(tables, n):
    """Per-node minimum of sigma_j / C(n, j), 1 <= j <= k, over a sigma table."""
    cols = [tables[:, j] / math.comb(n, j) for j in range(1, tables.shape[-1])]
    return np.minimum.reduce(cols)


@dataclass(slots=True)
class _OperatorFields:
    """Per-node operator data shared by residual and Jacobian assembly;
    ``_residual_state`` adds psi_z and psi_p at its state when t > 0."""

    values: np.ndarray
    margin: float
    tables: np.ndarray
    d_k: np.ndarray
    d_l: np.ndarray
    psi_z: object = None
    psi_p: object = None

    def gradient(self, spec):
        """d operator / dU = (1/m) f^(1-m) (sigma_l d_k - sigma_k d_l) / sigma_l^2
        at every node, m = k - l, d_j = d sigma_j / dU; symmetrized."""
        m = spec.degree_gap
        sk, sl = self.tables[:, spec.k, None, None], self.tables[:, spec.l, None, None]
        scale = self.values[:, None, None] ** (1 - m) / (m * sl**2)
        G = scale * (sl * self.d_k - sk * self.d_l)
        return 0.5 * (G + np.swapaxes(G, -1, -2))


def sigma_tensors(H, spec):
    """Eigen-free sigma table of U = tau*tr(H)*I - H for a stack H (N, n, n).

    The Faddeev-LeVerrier recurrence T_0 = I, sigma_j = tr(U T_{j-1}) / j,
    T_j = sigma_j I - U T_{j-1} (j = 1..k) gives the characteristic
    polynomial coefficients sigma_j, the elementary symmetric polynomials
    of the eigenvalues, and their derivatives d sigma_j / dU = T_{j-1}
    (Newton transformations, Reilly 1973).  Never raises.  Returns the
    table [sigma_0..sigma_k] (N, k + 1) and grads = [0, T_0..T_{k-1}].
    """
    U = eta_transform(H, spec.tau)
    eye = np.eye(U.shape[-1])
    tables = np.ones(U.shape[:-2] + (spec.k + 1,))
    grads = [np.zeros_like(eye), eye]
    M = U  # U T_{j-1}
    for j in range(1, spec.k + 1):
        tables[:, j] = np.trace(M, axis1=-2, axis2=-1) / j
        if j < spec.k:
            grads.append(tables[:, j, None, None] * eye - M)
            M = U @ grads[-1]
    return tables, grads


def hessian_fields(H, grid, spec):
    """Operator fields at the interior Hessians H (N_int, n, n) of grid.

    The first node where some sigma_j, 1 <= j <= k, is not positive raises
    NotAdmissibleError with the node, that j and the eigenvalues of its U."""
    tables, grads = sigma_tensors(H, spec)
    row, j = symfun._first_failing_index(tables, spec.k)
    if row is not None:
        lam = sym_eig(eta_transform(H[row], spec.tau)).values
        raise NotAdmissibleError(lam, j, node=grid.interior_node(row))
    values = symfun._quotient_from_table(tables, spec.k, spec.l)
    margin = float(np.min(admissibility_margins(tables, spec.n)))
    return _OperatorFields(values, margin, tables, grads[spec.k], grads[spec.l])


def _operator_fields(values, grid, spec):
    return hessian_fields(interior_hessians(values, grid), grid, spec)


def _residual_state(u, prob, t, psi0):
    """Stage residual at parameter t and the operator fields of u.

    The one evaluation of psi at this state: at t > 0 its psi_z and psi_p
    go into the fields for assembly; at t = 0 psi is not needed."""
    grid = prob.grid
    fields = _operator_fields(u.values, grid, prob.quotient)
    forcing = np.asarray(psi0, dtype=float)
    if t != 0.0:
        p = interior_gradients(u.values, grid)
        psi, fields.psi_z, fields.psi_p = prob.psi_terms(
            grid.interior_coords(), u.interior(), p
        )
        forcing = t * psi + (1.0 - t) * forcing
    return fields.values - forcing, fields


def assemble_residual(u, prob, t, psi0):
    """Residual of the continuation stage at parameter t on interior nodes.

    R_p = operator(transformed stencil Hessian at p)
          - [ t * psi(x_p, u_p, grad u_p) + (1 - t) * psi0_p ],

    returned as a flat row-major vector.  Fails with NotAdmissibleError
    naming the first node whose transformed Hessian leaves the cone;
    boundary values of u are taken as given (the caller pins them to the
    boundary data).
    """
    return _residual_state(u, prob, t, psi0)[0]


def assemble_jacobian(u, prob, t, psi0=None, fields=None):
    """Sparse Jacobian of the stage residual with respect to interior values.

    Row p holds  sum_ij Q_ij(p) * (Hessian stencil weight of u_q in H_ij(p))
    minus t * psi_z(p) on the diagonal and t * psi_p(p) times the gradient
    stencil weights.  Stencil neighbors on the boundary carry no unknowns;
    their pinned values already live in the residual, which is returned
    negated as the right-hand side when psi0 is provided.  Given the
    ``fields`` of u's ``_residual_state`` at t, it evaluates nothing at u
    and the right-hand side is zero: the caller holds the residual.
    """
    grid = prob.grid
    spec = prob.quotient
    n = grid.n
    h = grid.h
    nint = grid.num_interior
    rhs = np.zeros(nint)
    if fields is None:
        r, fields = _residual_state(u, prob, t, 0.0 if psi0 is None else psi0)
        if psi0 is not None:
            rhs = -r
    # chain rule through the self-adjoint map U = tau*tr(H)*I - H
    Q = eta_transform(fields.gradient(spec), spec.tau)

    pattern = grid.jacobian_pattern
    W = np.zeros((len(pattern.offsets), nint))

    def add(offset, weights):
        W[pattern.slot[tuple(offset)]] += weights

    # second-difference diagonal blocks
    center = np.zeros(nint)
    for a in range(n):
        qaa = Q[:, a, a]
        w = qaa / h[a] ** 2
        center -= 2.0 * w
        for s in (1, -1):
            o = [0] * n
            o[a] = s
            add(o, w)
    # 4-point crosses; H_ab appears twice in the trace pairing
    for a in range(n):
        for b in range(a + 1, n):
            qab = 2.0 * Q[:, a, b]
            for sa in (1, -1):
                for sb in (1, -1):
                    o = [0] * n
                    o[a] = sa
                    o[b] = sb
                    add(o, qab * sa * sb / (4.0 * h[a] * h[b]))
    # first-order terms from psi(x, u, grad u)
    if t != 0.0:
        center -= t * np.broadcast_to(fields.psi_z, (nint,))
        if np.any(np.asarray(fields.psi_p) != 0.0):
            psi_p = np.broadcast_to(fields.psi_p, (nint, n))
            for a in range(n):
                for s in (1, -1):
                    o = [0] * n
                    o[a] = s
                    add(o, -t * psi_p[:, a] * s / (2.0 * h[a]))
    add([0] * n, center)

    matrix = sparse.csr_matrix(
        (W.reshape(-1)[pattern.gather], pattern.indices, pattern.indptr),
        shape=(nint, nint),
    )
    return SparseSystem(matrix=matrix, rhs=rhs, grid=grid)


def exact_interior_gradients(e, grid):
    """Symbolic gradient of an expression of x, sampled at interior nodes."""
    x = grid.interior_coords()
    env = expr_mod.EvalEnv(x=x)
    cols = []
    for a in range(grid.n):
        d = expr_mod.differentiate(e, f"x{a + 1}")
        cols.append(np.broadcast_to(expr_mod.evaluate(d, env), (x.shape[0],)))
    return np.stack(cols, axis=-1)


def exact_interior_hessians(e, grid):
    """Symbolic Hessian of an expression of x, sampled at interior nodes."""
    x = grid.interior_coords()
    env = expr_mod.EvalEnv(x=x)
    n = grid.n
    H = np.empty((x.shape[0], n, n))
    for a in range(n):
        da = expr_mod.differentiate(e, f"x{a + 1}")
        for b in range(a, n):
            dab = expr_mod.differentiate(da, f"x{b + 1}")
            vals = np.broadcast_to(expr_mod.evaluate(dab, env), (x.shape[0],))
            H[:, a, b] = H[:, b, a] = vals
    return H


def csv_lines(u):
    """Rows of the grid CSV: indices, coordinates, value; row-major order."""
    grid = u.grid
    if grid.n == 2:
        yield "i,j,x1,x2,u"
    else:
        yield "i,j,k,x1,x2,x3,u"
    coords = grid.coords().reshape(-1, grid.n)
    flat = u.values.reshape(-1)
    for row, idx in enumerate(np.ndindex(grid.shape)):
        parts = [str(i) for i in idx]
        parts += [repr(float(c)) for c in coords[row]]
        parts.append(repr(float(flat[row])))
        yield ",".join(parts)
