"""Uniform box-grid discretization and residual/Jacobian assembly.

The grid is a tensor product of ``res`` equally spaced nodes per axis,
boundary layers included, so every interior stencil reads only grid nodes
and one-sided differences never appear.  The interior nodes, all indices
in [1, res-2], are the block ``Grid.interior`` slices out of a nodal
array; the assembled sparse systems number them row-major (C order).

The discretization is stated once, in ``Grid.stencils``: the 3-point
second difference on the Hessian diagonal and the 4-point cross off it
(both exact on quadratics), and central differences for the gradient.
Stencil Hessians, gradients and the Jacobian all read that table; only
the pointwise ``fd_*`` reference keeps its own copy.  The Jacobian is its
stencil diagonals: assembly accumulates one weight array per stencil
offset and stores each, shifted by its flat row-major offset, as one
diagonal of a scipy DIA matrix.

Problem expressions are sampled through ``expr.Program`` on the cached
node axes of ``Grid.axes``, the one coordinate representation: at every
node by ``sample_expression``, and with exact symbolic first and second
derivatives at the interior nodes by ``exact_derivatives``, the one
exact sampler.  Gradients are component first, (n, N), like Hessians.

Hessians are held as structure of arrays: the n(n+1)/2 unique components
H_ab, a <= b, each a contiguous length-N row of a (C, N) array, in the
order of ``_pairs`` (the diagonal first), which is also the key order of
``Grid.stencils.hessian``.  The operator kernel works on that layout in
closed form, which n in {2, 3} allows: with U = tau*tr(H)*I - H,
sigma_1 = tr U, sigma_2 is the sum of the principal 2 x 2 minors and
sigma_3 = det U; the Newton tensors T_j = d sigma_{j+1} / dU (Reilly
1973) are T_0 = I, T_1 = sigma_1*I - U and, for n = 3, T_2 = adj U
(Cayley-Hamilton).  ``operator_tensors`` is the kernel's non-raising
half.  ``hessian_fields`` is total: on any Hessian components it returns
the operator fields or raises NotAdmissibleError at the first node outside
the cone, also where tau*tr(H)*I - H is not finite.  Stencils and sigma
tables pass an overflow on silently, for the cone rule to report.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import expr as expr_mod
from . import symfun
from .spectral import sym_eig


def _pairs(n):
    """The index pairs (a, b), a <= b, of the unique entries of a symmetric
    n x n matrix: the diagonal first, then the upper triangle row by row.
    The component order of every Hessian, U, G and Q in this module."""
    return [(a, a) for a in range(n)] + [(a, b) for a in range(n) for b in range(a + 1, n)]


class Stencils(NamedTuple):
    """Stencils (divisor, [(offset, coefficient), ...]); applied to u at a
    node: sum(coefficient * u[node + offset]), in order, / divisor."""

    hessian: dict  # (a, b) in _pairs order -> stencil of H_ab
    gradient: list  # a -> stencil of du/dx_a


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box [lo, hi] sampled with ``res`` nodes per axis."""

    n: int
    lo: tuple
    hi: tuple
    res: int

    def __post_init__(self):
        for name in ("n", "res"):  # numpy integers pass, 9.0 does not
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
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

    def axes(self, interior=False):
        """The node coordinates x_1..x_n, x_a shaped to broadcast along
        dimension a: (res, 1, 1), (1, res, 1), ... in 3-D; with
        ``interior``, res - 2 nodes per axis, broadcasting to interior_shape.
        A tuple of read-only arrays, built once per grid."""
        return self._axes[bool(interior)]

    @cached_property
    def _axes(self):
        full = []
        for a, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            x = np.linspace(lo, hi, self.res).reshape((1,) * a + (-1,) + (1,) * (self.n - 1 - a))
            x.flags.writeable = False
            full.append(x)
        inner = (x[(slice(None),) * a + (slice(1, -1),)] for a, x in enumerate(full))
        return tuple(full), tuple(inner)

    @property
    def interior(self):
        """Index of the interior block of a nodal array: slice(1, -1) per axis."""
        return (slice(1, -1),) * self.n

    def boundary_mask(self):
        """True at the boundary nodes; shape grid.shape."""
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        return mask

    def interior_node(self, row):
        """Grid multi-index of the interior node in row-major row ``row``."""
        return tuple(int(i) + 1 for i in np.unravel_index(row, self.interior_shape))

    @cached_property
    def coarse(self):
        """The grid of the same box with res // 2 + 1 nodes per axis (every
        other node when res is odd), or None when that is fewer than 13.
        Cached, so its own cached data outlives a solve."""
        res = self.res // 2 + 1
        return replace(self, res=res) if res >= 13 else None

    @cached_property
    def stencils(self):
        """The difference stencils of this grid (see the module docstring)."""
        n, h = self.n, self.h

        def offset(*steps):  # steps: (axis, +1 or -1) pairs
            o = [0] * n
            for a, s in steps:
                o[a] = s
            return tuple(o)

        def second(a, b):
            if a == b:
                return (h[a] ** 2, [(offset((a, 1)), 1.0), (offset(), -2.0),
                                    (offset((a, -1)), 1.0)])
            return (4.0 * h[a] * h[b], [
                (offset((a, sa), (b, sb)), float(sa * sb))
                for sa in (1, -1) for sb in (1, -1)
            ])

        hessian = {pair: second(*pair) for pair in _pairs(n)}
        gradient = [
            (2.0 * h[a], [(offset((a, 1)), 1.0), (offset((a, -1)), -1.0)])
            for a in range(n)
        ]
        return Stencils(hessian, gradient)

    @cached_property
    def jacobian_offsets(self):
        """The Jacobian's diagonals: each offset ``stencils`` uses (9 in 2-D,
        19 in 3-D) with its flat row-major offset on the interior nodes,
        sorted, so the flat offsets ascend too."""
        used = [*self.stencils.hessian.values(), *self.stencils.gradient]
        strides = [(self.res - 2) ** (self.n - 1 - a) for a in range(self.n)]
        return tuple((o, sum(map(operator.mul, o, strides)))
                     for o in sorted({o for _, terms in used for o, _ in terms}))

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
        """The values at the interior nodes (``Grid.interior``); a view."""
        return self.values[self.grid.interior]


@dataclass
class SparseSystem:
    """Jacobian over interior nodes plus right-hand side.

    ``grid`` is the grid whose interior nodes the rows enumerate, when the
    system was assembled on one (``assemble_jacobian`` sets it); it lets
    the linear solve use the grid's Laplacian as a preconditioner.  None
    for systems that carry no grid structure.
    """

    matrix: sparse.spmatrix
    rhs: np.ndarray
    grid: Grid | None = None


def sample_expression(e, grid):
    """Evaluate an expression of x at every node."""
    values = np.empty(grid.shape)
    expr_mod.Program([e]).run(expr_mod.EvalEnv(x=grid.axes()), [values])
    return GridFunction(grid, values)


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


def _apply(values, stencil, out=None):
    """One ``Grid.stencils`` entry at every interior node, interior_shape;
    written into ``out`` when given."""
    divisor, terms = stencil
    (o, c), *rest = terms
    acc = np.multiply(c, _shifted(values, o), out=out)
    for o, c in rest:
        view = _shifted(values, o)
        if c == 1.0:  # the bits of c * view, without the multiply
            acc += view
        elif c == -1.0:
            acc -= view
        else:
            acc += c * view
    acc /= divisor
    return acc


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
def interior_gradients(values, grid):
    """Central-difference gradients at all interior nodes, shape (n, N_int):
    row a is du/dx_a."""
    P = np.empty((grid.n, grid.num_interior))
    for row, stencil in zip(P, grid.stencils.gradient):
        _apply(values, stencil, out=row.reshape(grid.interior_shape))
    return P


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
def interior_hessians(values, grid):
    """Stencil Hessian components at all interior nodes, shape (C, N_int):
    row c is H_ab for the c-th key (a, b) of ``Grid.stencils.hessian``."""
    H = np.empty((len(grid.stencils.hessian), grid.num_interior))
    for row, stencil in zip(H, grid.stencils.hessian.values()):
        _apply(values, stencil, out=row.reshape(grid.interior_shape))
    return H


@np.errstate(over="ignore", invalid="ignore")  # the cone rule reports overflow
def eta_components(A, tau, n):
    """tau*tr(A)*I - A for symmetric n x n matrices given by their
    components A (C, N) in ``_pairs`` order, in the same layout."""
    out = np.negative(A)
    out[:n] += tau * A[:n].sum(axis=0)
    return out


@dataclass(slots=True)
class _OperatorFields:
    """Per-node operator data shared by residual and Jacobian assembly;
    ``_residual_state`` adds psi_z and psi_p at its state when t > 0.
    d_k = d sigma_k / dU (C, N) and d_l = d sigma_l / dU (C, 1), 0 or I,
    are components in ``_pairs`` order."""

    values: np.ndarray
    margin: float
    tables: np.ndarray
    d_k: np.ndarray
    d_l: np.ndarray
    psi_z: object = None
    psi_p: object = None

    def gradient(self, spec):
        """d operator / dU = (1/m) f^(1-m) (sigma_l d_k - sigma_k d_l) / sigma_l^2
        at every node, m = k - l; components (C, N)."""
        m = spec.degree_gap
        sk, sl = self.tables[:, spec.k], self.tables[:, spec.l]
        scale = self.values ** (1 - m) / (m * sl**2)
        G = sl * self.d_k
        G -= sk * self.d_l
        G *= scale
        return G


@np.errstate(over="ignore", invalid="ignore")
def operator_tensors(H, spec):
    """U = tau*tr(H)*I - H, its sigma table and its Newton tensors, in
    closed form, at the Hessian components H (C, N) of n x n matrices,
    n in {2, 3} (see the module docstring).

    Never raises or warns: an overflow stays in the table for the cone
    rule to report.  Returns U (C, N), the table [sigma_0..sigma_k]
    (N, k + 1), d_k = T_{k-1} (C, N) and d_l = T_{l-1} (C, 1), which is
    0 or I because l <= k - 2 <= 1.
    """
    n, k, l = spec.n, spec.k, spec.l
    if n not in (2, 3):
        raise ValueError(f"the closed-form kernel needs n in {{2, 3}}, got {n}")
    U = eta_components(H, spec.tau, n)
    # built (k + 1, N) so that each sigma_j is a contiguous row
    table = np.empty((k + 1, U.shape[1]))
    table[0] = 1.0
    U[:n].sum(axis=0, out=table[1])
    if n == 2:
        u0, u1, u01 = U
        np.subtract(u0 * u1, u01 * u01, out=table[2])
    else:
        u0, u1, u2, u01, u02, u12 = U
        # adj U: its diagonal holds the principal 2 x 2 minors
        adj = np.empty_like(U)
        np.subtract(u1 * u2, u12 * u12, out=adj[0])
        np.subtract(u0 * u2, u02 * u02, out=adj[1])
        np.subtract(u0 * u1, u01 * u01, out=adj[2])
        adj[:3].sum(axis=0, out=table[2])
        if k == 3:
            np.subtract(u02 * u12, u01 * u2, out=adj[3])
            np.subtract(u01 * u12, u02 * u1, out=adj[4])
            np.subtract(u01 * u02, u0 * u12, out=adj[5])
            # det U, expanded along the first row
            np.add(u0 * adj[0] + u01 * adj[3], u02 * adj[4], out=table[3])
    if k == 2:
        d_k = np.negative(U)  # T_1 = sigma_1*I - U
        d_k[:n] += table[1]
    else:
        d_k = adj  # T_2
    d_l = np.zeros((len(U), 1))  # T_{l-1}: 0 for l = 0, I for l = 1
    d_l[:n] = l
    return U, table.T, d_k, d_l


def hessian_fields(H, grid, spec):
    """Operator fields at the interior Hessian components H (C, N_int) of
    grid.

    The first node outside the order-k cone, finite or not, raises
    NotAdmissibleError (``symfun.require_cone``) with the node and the
    eigenvalues of its U, n NaN where U is not finite."""
    U, tables, d_k, d_l = operator_tensors(H, spec)

    def eigenvalues(row):
        M = np.empty((spec.n, spec.n))
        for (a, b), value in zip(_pairs(spec.n), U[:, row]):
            M[a, b] = M[b, a] = value
        return sym_eig(M).values if np.isfinite(M).all() else np.full(spec.n, np.nan)
    symfun.require_cone(tables, spec.k, eigenvalues, grid.interior_node)
    values = symfun._quotient_from_table(tables, spec.k, spec.l)
    margin = float(np.min(symfun.cone_margins(tables, spec.n)))
    return _OperatorFields(values, margin, tables, d_k, d_l)


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
        psi, fields.psi_z, fields.psi_p = prob.psi_terms(u.interior(), p)
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


def assemble_jacobian(prob, t, state):
    """Sparse Jacobian of the stage residual at parameter t with respect to
    interior values, at the iterate whose ``_residual_state`` at t is
    ``state``, its (residual, fields); it evaluates nothing at the iterate.

    Each ``Grid.stencils`` entry (offset, coef) of a stencil with divisor
    d puts q * coef / d in row p, column p + offset: q is Q_aa(p) for H_aa,
    2 Q_ab(p) for H_ab, a < b (Q = d operator / dH), and -t * psi_p(p)_a
    for the gradient along a; -t * psi_z(p) goes on the diagonal.  Stencil
    neighbors on the boundary carry no unknowns; their pinned values
    already live in the residual, which is returned negated as the
    right-hand side.  The matrix is a ``scipy.sparse.dia_matrix`` with one
    diagonal per ``Grid.jacobian_offsets`` entry, in ascending order, so a
    product adds each row's terms in column order, as a CSR row sum does.
    """
    grid = prob.grid
    spec = prob.quotient
    nint = grid.num_interior
    r, fields = state
    # chain rule through the self-adjoint map U = tau*tr(H)*I - H
    Q = eta_components(fields.gradient(spec), spec.tau, grid.n)

    # DIA stores A[p, p + f] at data[k, p + f], for the k-th flat offset f.
    # W[o], the weights of offset o, is the length-N window of buf that
    # starts at data[k, f], so W[o][p] is A[p, p + f] and each weight is
    # written in place.  A window reaches at most F = max |f| cells past
    # either end of data[k, :N], into cells DIA ignores: each data row ends
    # in 2F spare columns, and buf holds F cells before data.
    diagonals = grid.jacobian_offsets
    spare = max(abs(f) for _, f in diagonals)
    width = nint + 2 * spare
    buf = np.zeros(spare + len(diagonals) * width)
    W = {o: buf[spare + k * width + f:][:nint] for k, (o, f) in enumerate(diagonals)}

    def add(q, stencil):
        # q / d scaled by coef: the bits of q * coef / d, since every
        # coefficient is +-1 or -2 and scaling by a power of two commutes
        # with rounding
        divisor, terms = stencil
        w = q / divisor
        for offset, coef in terms:
            row = W[offset]
            if coef == 1.0:
                row += w
            elif coef == -1.0:
                row -= w
            else:
                row += coef * w

    for q, ((a, b), stencil) in zip(Q, grid.stencils.hessian.items()):
        add(q if a == b else 2.0 * q, stencil)
    if t != 0.0:
        W[(0,) * grid.n] -= t * fields.psi_z
        if fields.psi_p.any():
            for a, stencil in enumerate(grid.stencils.gradient):
                add(-t * fields.psi_p[a], stencil)

    # Zero each weight whose neighbour is a boundary node: it has no column,
    # and its cell is a spare one or another node's (a wrap-around).
    for o, row in W.items():
        row = row.reshape(grid.interior_shape)
        for a, s in enumerate(o):
            if s:
                row[(slice(None),) * a + (-1 if s > 0 else 0,)] = 0.0
    data = buf[spare:].reshape(len(diagonals), width)
    matrix = sparse.dia_matrix((data, [f for _, f in diagonals]), shape=(nint, nint))
    return SparseSystem(matrix=matrix, rhs=-r, grid=grid)


@cache
def _derivative_program(e, n, text):
    """The derivative program of an expression of x in n dimensions, with
    the row of each of its trees in the stack of the n gradient rows and
    the C Hessian rows (``_pairs`` order).  The trees are each first
    derivative d_a followed by its Hessian row d_ab, b >= a, which
    differentiates d_a again: d_1, d_11, ..., d_1n, d_2, d_22, ...

    ``text`` is ``to_string(e)``, read only as part of the cache key: it
    tells apart trees that == does not, whose literals differ only in the
    sign of a zero."""
    slot = {pair: n + c for c, pair in enumerate(_pairs(n))}
    trees, rows = [], []
    for a in range(n):
        da = expr_mod.differentiate(e, f"x{a + 1}")
        trees.append(da)
        rows.append(a)
        for b in range(a, n):
            trees.append(expr_mod.differentiate(da, f"x{b + 1}"))
            rows.append(slot[a, b])
    return expr_mod.Program(trees), rows


def exact_derivatives(e, grid):
    """Symbolic gradient (n, N) and Hessian components (C, N), in
    ``_pairs`` order, of an expression of x at the N interior nodes of
    grid.

    The n + C derivative trees of (e, n) are compiled into one
    ``expr.Program`` and kept in a process-wide cache keyed by the printed
    tree and n (unbounded, one entry per distinct expression), so each
    distinct expression is differentiated once per process.  The first
    derivatives are subtrees of the second, and the program computes each
    shared subexpression once.  It writes every derivative into its row
    as soon as it is complete and releases each intermediate after its
    last use, so the intermediates alive at once are those it still
    reads.  A fault or a NaN raises as evaluating the trees one after
    another would, in the order d_1, d_11, ..., d_1n, d_2, ..."""
    n, shape = grid.n, grid.interior_shape
    program, rows = _derivative_program(e, n, expr_mod.to_string(e))
    P = np.empty((n, *shape))
    H = np.empty((n * (n + 1) // 2, *shape))
    dst = [*P, *H]
    program.run(expr_mod.EvalEnv(x=grid.axes(interior=True)), [dst[r] for r in rows])
    return P.reshape(n, -1), H.reshape(len(H), -1)


def csv_lines(u):
    """Rows of the grid CSV: indices, coordinates, value; row-major order.

    Each axis's index and coordinate strings (those of ``Grid.axes``)
    are formatted once; a line of nodes along the last axis shares the
    prefix of the leading axes."""
    grid = u.grid
    n, res = grid.n, grid.res
    yield ",".join([*"ijk"[:n], *(f"x{a + 1}" for a in range(n)), "u"])
    index = [f"{i}," for i in range(res)]
    axes = [[f"{c!r}," for c in x.ravel().tolist()] for x in grid.axes()]
    heads, coords = [""], [""]
    for axis in axes[:-1]:
        heads = [h + i for h in heads for i in index]
        coords = [c + x for c in coords for x in axis]
    for head, coord, row in zip(heads, coords, u.values.reshape(-1, res).tolist()):
        for i, x, v in zip(index, axes[-1], row):
            yield f"{head}{i}{coord}{x}{v!r}"
