"""Uniform box-grid discretization and residual/Jacobian assembly.

The grid is a tensor product of ``res`` equally spaced nodes per axis,
boundary layers included, so every interior stencil reads only grid nodes
and one-sided differences never appear.  ``Grid.rows`` labels each
interior node (all indices in [1, res-2]) with its row in the assembled
sparse systems, row-major (C order), and each boundary node with -1.

The discretization is stated once, in ``Grid.stencils``: the 3-point
second difference on the Hessian diagonal and the 4-point cross off it
(both exact on quadratics), and central differences for the gradient.
Stencil Hessians, gradients, the Jacobian and its sparsity pattern all
read that table; only the pointwise ``fd_*`` reference keeps its own
copy.  Each grid builds its Jacobian pattern once (row pointers, column
indices and the data slot of every stencil offset at every node);
assembly accumulates per-offset weight arrays and fills the matrix data
with one gather through that pattern.

The operator kernel, ``hessian_fields``, is total: on any Hessian stack
it returns the operator fields or raises NotAdmissibleError at the first
node outside the cone, also where tau*tr(H)*I - H is not finite.  Stencils
and sigma tables pass an overflow on silently, for the cone rule to report.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import expr as expr_mod
from . import symfun
from .spectral import eta_transform, sym_eig


class Stencils(NamedTuple):
    """Stencils (divisor, [(offset, coefficient), ...]); applied to u at a
    node: sum(coefficient * u[node + offset]), in order, / divisor."""

    hessian: dict  # (a, b), a <= b, diagonal first -> stencil of H_ab
    gradient: list  # a -> stencil of du/dx_a


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
        if not all(map(math.isfinite, self.lo + self.hi)):
            raise ValueError("lo/hi must be finite")
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

    @cached_property
    def rows(self):
        """Each interior node's row in the assembled systems (row-major), -1
        on the boundary; shape grid.shape, read-only."""
        rows = np.full(self.shape, -1, np.int32 if self.num_interior < 2**31 else np.int64)
        rows[(slice(1, -1),) * self.n].flat = np.arange(self.num_interior)
        rows.flags.writeable = False
        return rows

    def boundary_mask(self):
        return self.rows < 0

    def interior_node(self, row):
        """Grid multi-index of the interior node in row-major row ``row``."""
        return tuple(int(i) + 1 for i in np.unravel_index(row, self.interior_shape))

    def node_coord(self, node):
        return np.array(
            [self.lo[a] + self.h[a] * node[a] for a in range(self.n)]
        )

    @cached_property
    def coarse(self):
        """The grid of every other node, (res + 1) / 2 per axis, or None
        when res - 1 is odd or that grid would have fewer than 13 nodes
        per axis.  Cached, so its own cached data outlives a solve."""
        res = (self.res + 1) // 2
        if (self.res - 1) % 2 or res < 13:
            return None
        return replace(self, res=res)

    @cached_property
    def stencils(self):
        """The difference stencils of this grid (see the module docstring)."""
        n, h = self.n, self.h

        def offset(*steps):  # steps: (axis, +1 or -1) pairs
            o = [0] * n
            for a, s in steps:
                o[a] = s
            return tuple(o)

        hessian = {
            (a, a): (h[a] ** 2, [(offset((a, 1)), 1.0), (offset(), -2.0),
                                 (offset((a, -1)), 1.0)])
            for a in range(n)
        }
        for a in range(n):
            for b in range(a + 1, n):
                hessian[a, b] = (4.0 * h[a] * h[b], [
                    (offset((a, sa), (b, sb)), float(sa * sb))
                    for sa in (1, -1) for sb in (1, -1)
                ])
        gradient = [
            (2.0 * h[a], [(offset((a, 1)), 1.0), (offset((a, -1)), -1.0)])
            for a in range(n)
        ]
        return Stencils(hessian, gradient)

    @cached_property
    def jacobian_pattern(self):
        """CSR structure shared by every Jacobian assembled on this grid."""
        used = [*self.stencils.hessian.values(), *self.stencils.gradient]
        offsets = sorted({o for _, terms in used for o, _ in terms})
        return _StencilPattern(offsets, self.rows)

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
    """Fixed CSR pattern of the interior Jacobian, read off ``Grid.rows``.

    ``offsets`` are the ones ``Grid.stencils`` uses (9 in 2-D, 19 in 3-D),
    sorted, so columns increase within a row.  Column k of ``cols``
    (N_int, K) holds the neighbour rows ``_shifted(rows, offsets[k])``; its
    entries >= 0, in row-major order, are the CSR entries.  Assembly
    accumulates one weight array per offset into a (K, N_int) block W;
    ``W.reshape(-1)[gather]`` is then the CSR data.  Weights whose
    neighbor is a boundary node have no slot and are not gathered.
    """

    def __init__(self, offsets, rows):
        self.offsets = offsets
        self.slot = {o: k for k, o in enumerate(self.offsets)}
        cols = np.stack([_shifted(rows, o).reshape(-1) for o in offsets], axis=-1)
        valid = cols >= 0
        row, k_idx = np.nonzero(valid)
        dtype = np.int32 if row.size < 2**31 else np.int64
        self.indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1)))).astype(dtype)
        self.indices = cols[valid].astype(dtype, copy=False)
        self.gather = k_idx * len(cols) + row
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


def sample_expression(e, grid):
    """Evaluate an expression of x at every node."""
    coords = grid.coords().reshape(-1, grid.n)
    env = expr_mod.EvalEnv(x=coords)
    values = np.broadcast_to(expr_mod.evaluate(e, env), (coords.shape[0],))
    return GridFunction(grid, values.reshape(grid.shape).copy())


def _require_interior(grid, node):
    node = tuple(int(i) for i in node)
    if len(node) != grid.n or not all(1 <= i <= grid.res - 2 for i in node):
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


def _shifted(values, offset):
    # View of the interior block displaced by ``offset`` (entries in {-1,0,1}).
    res = values.shape[0]
    idx = tuple(slice(1 + o, res - 1 + o) for o in offset)
    return values[idx]


def _apply(values, stencil):
    """One ``Grid.stencils`` entry at every interior node, interior_shape."""
    divisor, terms = stencil
    (o, c), *rest = terms
    acc = c * _shifted(values, o)
    for o, c in rest:
        view = _shifted(values, o)
        if c == 1.0:  # the bits of c * view, without the multiply
            acc += view
        elif c == -1.0:
            acc -= view
        else:
            acc += c * view
    return acc / divisor


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
def interior_gradients(values, grid):
    """Central-difference gradients at all interior nodes, shape (N_int, n)."""
    cols = [_apply(values, s).reshape(-1) for s in grid.stencils.gradient]
    return np.stack(cols, axis=-1)


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
def interior_hessians(values, grid):
    """Stencil Hessians at all interior nodes, shape (N_int, n, n)."""
    n = grid.n
    H = np.empty(grid.interior_shape + (n, n))
    for (a, b), stencil in grid.stencils.hessian.items():
        H[..., a, b] = H[..., b, a] = _apply(values, stencil)
    return H.reshape(-1, n, n)


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


@np.errstate(over="ignore", invalid="ignore")
def sigma_tensors(H, spec):
    """Eigen-free sigma table of U = tau*tr(H)*I - H for a stack H (N, n, n).

    The Faddeev-LeVerrier recurrence T_0 = I, sigma_j = tr(U T_{j-1}) / j,
    T_j = sigma_j I - U T_{j-1} (j = 1..k) gives the characteristic
    polynomial coefficients sigma_j, the elementary symmetric polynomials
    of the eigenvalues, and their derivatives d sigma_j / dU = T_{j-1}
    (Newton transformations, Reilly 1973); sigma_j = tr(U T_{j-1} / j)
    where the trace overflows.  Never raises or warns: an overflow stays in
    the table for the cone rule to report.  Returns the table
    [sigma_0..sigma_k] (N, k + 1) and grads = [0, T_0..T_{k-1}].
    """
    U = eta_transform(H, spec.tau)
    eye = np.eye(U.shape[-1])
    tables = np.ones(U.shape[:-2] + (spec.k + 1,))
    grads = [np.zeros_like(eye), eye]
    M = U  # U T_{j-1}
    for j in range(1, spec.k + 1):
        tables[:, j] = np.trace(M, axis1=-2, axis2=-1) / j
        big = ~np.isfinite(tables[:, j])
        if big.any():
            tables[big, j] = np.trace(M[big] / j, axis1=-2, axis2=-1)
        if j < spec.k:
            grads.append(tables[:, j, None, None] * eye - M)
            M = U @ grads[-1]
    return tables, grads


def hessian_fields(H, grid, spec):
    """Operator fields at the interior Hessians H (N_int, n, n) of grid.

    The first node outside the order-k cone, finite or not, raises
    NotAdmissibleError (``symfun.require_cone``) with the node and the
    eigenvalues of its U, n NaN where U is not finite."""
    tables, grads = sigma_tensors(H, spec)

    def eigenvalues(row):
        with np.errstate(over="ignore", invalid="ignore"):
            U = eta_transform(H[row], spec.tau)
        return sym_eig(U).values if np.isfinite(U).all() else np.full(spec.n, np.nan)
    symfun.require_cone(tables, spec.k, eigenvalues, grid.interior_node)
    values = symfun._quotient_from_table(tables, spec.k, spec.l)
    margin = float(np.min(symfun.cone_margins(tables, spec.n)))
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


def assemble_jacobian(u, prob, t, psi0=None, state=None):
    """Sparse Jacobian of the stage residual with respect to interior values.

    Each ``Grid.stencils`` entry (offset, coef) of a stencil with divisor
    d puts q * coef / d in row p, column p + offset: q is Q_aa(p) for H_aa,
    2 Q_ab(p) for H_ab, a < b (Q = d operator / dH), and -t * psi_p(p)_a
    for the gradient along a; -t * psi_z(p) goes on the diagonal.  Stencil
    neighbors on the boundary carry no unknowns; their pinned values
    already live in the residual, which is returned negated as the
    right-hand side.  Given ``state``, the (residual, fields) of u's
    ``_residual_state`` at t, it evaluates nothing at u; otherwise it
    evaluates that state with the t = 0 forcing psi0.
    """
    grid = prob.grid
    spec = prob.quotient
    nint = grid.num_interior
    if state is None:
        if psi0 is None:
            raise TypeError("assemble_jacobian needs psi0 or the state at u")
        state = _residual_state(u, prob, t, psi0)
    r, fields = state
    # chain rule through the self-adjoint map U = tau*tr(H)*I - H
    Q = eta_transform(fields.gradient(spec), spec.tau)

    pattern = grid.jacobian_pattern
    W = np.zeros((len(pattern.offsets), nint))

    def add(q, stencil):
        divisor, terms = stencil
        for offset, coef in terms:
            W[pattern.slot[offset]] += q * coef / divisor

    for (a, b), stencil in grid.stencils.hessian.items():
        add(Q[:, a, b] if a == b else 2.0 * Q[:, a, b], stencil)
    if t != 0.0:
        W[pattern.slot[(0,) * grid.n]] -= t * fields.psi_z
        if np.any(np.asarray(fields.psi_p) != 0.0):
            psi_p = np.broadcast_to(fields.psi_p, (nint, grid.n))
            for a, stencil in enumerate(grid.stencils.gradient):
                add(-t * psi_p[:, a], stencil)

    matrix = sparse.csr_matrix(
        (W.reshape(-1)[pattern.gather], pattern.indices, pattern.indptr),
        shape=(nint, nint),
    )
    return SparseSystem(matrix=matrix, rhs=-r, grid=grid)


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
