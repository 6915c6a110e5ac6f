"""Continuity-method driver for the Dirichlet problem.

The continuation family interpolates the forcing between the value of the
operator at the subsolution (t = 0, where the subsolution solves exactly)
and the target right-hand side (t = 1):

    operator(U[u]) = t * psi(x, u, grad u) + (1 - t) * operator(U[subsolution]).

Each stage is solved by damped Newton whose line search only accepts
iterates that stay admissible at every interior node; t advances
adaptively and never decreases.  The subsolution is both the starting
iterate and the anchor of the path, mirroring how the existence proof
walks the same family.

Once two stages are accepted, each stage's Newton starts on the secant
through them, extrapolated to the new t (a first-order predictor,
Allgower & Georg, *Numerical Continuation Methods*, ch. 2), instead of at
the last solution.  Both stages share the boundary data, so the
prediction is boundary-correct.  A prediction that leaves the cone, or
where psi faults, fails its attempt like a failed Newton solve: the step
halves, and the next attempt starts on a shorter prediction.

That walk is needed once, on the coarsest grid (grid sequencing, or
nested iteration: Newton iteration counts are asymptotically
mesh-independent, Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer.
Anal. 1986).  ``Grid.coarse`` has res // 2 + 1 nodes per axis while that
leaves at least 121 interior nodes (res 13 in 2-D, 7 in 3-D: what a level
saves grows with its unknowns); the continuation runs on the coarsest grid
of that chain, and each finer grid runs one Newton solve at t = 1 from
the ``_transfer`` of the solution below, boundary reset to phi.  Any
failure on the way up makes the solver walk the continuation once more,
from the subsolution on the target grid, so a failed solve always reports
an iterate on the target grid.
"""

import copy
import logging
import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expr as expr_mod
from . import grid as grid_mod
from .errors import (
    HomotopyStallError,
    LineSearchError,
    NewtonDivergenceError,
    NotAdmissibleError,
    ProblemSpecError,
    SingularSystemError,
    SolverError,
)
from .grid import Grid, GridFunction, _residual_state
from .symfun import QuotientSpec, require_integers

log = logging.getLogger("hessquot.solver")

_MIN_STEP = 2.0 ** -30
# what fails a stage attempt or a grid level: a typed solver failure, a
# start that is not admissible or where psi faults, or data that cannot be
# sampled on the level's grid
_FAILURES = (SolverError, NotAdmissibleError, expr_mod.DomainFaultError, ProblemSpecError)


@dataclass(frozen=True)
class NewtonParams:
    tol_residual: float = 1e-9
    max_iters: int = 50

    def __post_init__(self):
        # written so that NaN fails: Newton stops once `rinf <= tol`, which a
        # NaN tolerance never makes true; from 1e-100 up, linear_solve's norms cannot underflow
        if not (1e-100 <= self.tol_residual < math.inf):
            raise ValueError(
                f"tol_residual must be finite and >= 1e-100, got {self.tol_residual}"
            )
        require_integers(self, "max_iters")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class HomotopyParams:
    dt_init: float = 0.1
    dt_min: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.dt_init <= 1.0):
            raise ValueError(f"dt_init must be in (0, 1], got {self.dt_init}")
        if not (0.0 < self.dt_min <= self.dt_init):
            raise ValueError("need 0 < dt_min <= dt_init")


class PsiField:
    """Right-hand side given as precomputed values on interior nodes.

    Used by manufactured problems, where the forcing comes from composing
    the operator with exact second derivatives and has no closed form in
    the expression grammar.  It carries no u or gradient dependence, so
    its partials are one read-only zero row, allocated once, and views of it.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("field forcing must be a flat interior vector")
        self._zero = np.zeros(self.values.shape[0])
        self._zero.flags.writeable = False


@dataclass
class ProblemSpec:
    """Everything one Dirichlet solve needs.

    psi may be an expression of (x, u, p) or a PsiField with one value per
    interior node; ``reads_gradient``, set with psi, is whether psi reads some
    p_a.  phi and the subsolution are expressions of x alone.  The subsolution
    must match phi on the boundary and satisfy operator(U[subsolution]) >= psi
    at every interior node (checked with exact derivatives at load time).
    """

    grid: Grid
    quotient: QuotientSpec
    psi: object
    phi: object
    subsolution: object
    newton: NewtonParams = field(default_factory=NewtonParams)
    homotopy: HomotopyParams = field(default_factory=HomotopyParams)

    def __setattr__(self, name, value):
        # psi's contract, checked before psi is set; an expression psi and
        # its partials are compiled into one program once per assignment
        if name == "psi":
            is_field = isinstance(value, PsiField)
            if is_field and value.values.shape[0] != self.grid.num_interior:
                raise ProblemSpecError(
                    f"field forcing has {value.values.shape[0]} values for "
                    f"{self.grid.num_interior} interior nodes"
                )
            reads = set() if is_field else expr_mod.variables(value)
            if bad := reads - {"u", *(f"{c}{i+1}" for c in "xp" for i in range(self.grid.n))}:
                raise ProblemSpecError(f"psi may depend on x, u and p only, found {sorted(bad)}")
            if not is_field:
                super().__setattr__("_psi_program", expr_mod.Program([
                    value,
                    expr_mod.differentiate(value, "u"),
                    *(expr_mod.differentiate(value, f"p{i+1}") for i in range(self.grid.n)),
                ]))
            super().__setattr__("reads_gradient", any(v.startswith("p") for v in reads))
        super().__setattr__(name, value)

    def __post_init__(self):
        if self.grid.n != self.quotient.n:
            raise ValueError("grid dimension and operator dimension disagree")
        for name in ("phi", "subsolution"):
            e = getattr(self, name)
            bad = expr_mod.variables(e) - {f"x{i+1}" for i in range(self.grid.n)}
            if bad:
                raise ProblemSpecError(
                    f"{name} may depend on coordinates only, found {sorted(bad)}"
                )

    @property
    def field_psi(self):
        return isinstance(self.psi, PsiField)

    @property
    def degenerate_2d(self):
        """The admitted n = 2, (k, l) = (2, 0) family (flagged in reports)."""
        q = self.quotient
        return q.n == 2 and (q.k, q.l) == (2, 0)

    def psi_terms(self, u, p):
        """(psi, d psi/du, d psi/dp) at the N interior nodes of the grid,
        given u there as the interior block (interior_shape) and the
        gradients p (n, N); x is read from the grid.

        The shapes are (N,), (N,) and (n, N), for an expression and a
        PsiField alike; an expression that faults or gives NaN raises
        DomainFaultError; p may be None for a psi that reads no p.  A
        PsiField's terms are its values, its read-only zero row and a view of it."""
        if self.field_psi:
            field = self.psi
            return field.values, field._zero, np.broadcast_to(field._zero, (self.grid.n, u.size))
        shape = self.grid.interior_shape
        p = None if p is None else p.reshape(-1, *shape)
        env = expr_mod.EvalEnv(x=self.grid.axes(interior=True), u=u, p=p)
        psi, psi_z, psi_p = np.empty(u.size), np.empty(u.size), np.empty((self.grid.n, u.size))
        self._psi_program.run(env, [psi.reshape(shape), psi_z.reshape(shape), *psi_p.reshape(-1, *shape)])
        return psi, psi_z, psi_p


@dataclass
class StageRecord:
    """One accepted Newton solve at parameter t on the grid with res nodes
    per axis."""

    t: float
    newton_iters: int
    final_residual_inf: float
    min_admissibility_margin: float
    res: int


@dataclass
class LevelRecord:
    """One solved grid level; ``fallback`` names the failure that made it
    walk the continuation on its own grid, None when it did not."""

    res: int
    fallback: str | None = None


@dataclass
class SolveReport:
    stages: list
    converged: bool
    diagnostics: object
    wall_time: float
    warnings: list
    degenerate_2d: bool = False
    levels: list = field(default_factory=list)

    def as_dict(self):
        """The report as plain data (records become dicts) for JSON."""
        return asdict(self)


def _sample_data(prob, name):
    """prob.<name> at every node of prob.grid; ProblemSpecError where it is
    not finite or faults."""
    try:
        return grid_mod.sample_expression(getattr(prob, name), prob.grid)
    except ValueError as err:  # NaN or Inf, or a domain fault
        raise ProblemSpecError(f"{name} cannot be sampled on the grid: {err}") from err


def validate_problem(prob):
    """Load-time invariants; returns warning strings for the report.

    Hard failures (non-finite data or psi, boundary mismatch, inadmissible
    or insufficient subsolution) raise ProblemSpecError; psi or an exact
    derivative that faults or gives NaN raises DomainFaultError.
    Positivity of psi and of its u-derivative are probed at the
    subsolution state and demoted to warnings, since enforcing them would
    bar exploratory inputs.
    """
    g = prob.grid
    warnings_out = []

    phi_gf, sub_gf = (_sample_data(prob, name) for name in ("phi", "subsolution"))
    bmask = g.boundary_mask()
    gap = np.abs(phi_gf.values[bmask] - sub_gf.values[bmask]).max()
    if gap > 1e-10:
        raise ProblemSpecError(
            f"subsolution differs from boundary data by {gap:.3e} on the boundary"
        )

    # exact symbolic derivatives of the subsolution, not stencils: the
    # inequality is a statement about the function, and stencil error
    # would swamp the 1e-8 slack on coarse grids
    pb, H = grid_mod.exact_derivatives(prob.subsolution, g)
    try:
        fvals = grid_mod.hessian_fields(H, g, prob.quotient).values
    except NotAdmissibleError as err:
        raise ProblemSpecError(
            f"subsolution is not admissible at node {err.node} ({err.reason})"
        ) from err

    psi, psi_z, _ = prob.psi_terms(sub_gf.interior(), pb)
    # the checks below pass a NaN (every comparison is false) and a -inf
    if not np.all(np.isfinite(psi)):
        row = int(np.argmin(np.isfinite(psi)))
        raise ProblemSpecError(
            f"psi is {psi[row]} at the subsolution state at node {g.interior_node(row)}"
        )
    deficit = np.min(fvals - psi)
    if deficit < -1e-8:
        node = g.interior_node(int(np.argmin(fvals - psi)))
        raise ProblemSpecError(
            f"subsolution inequality fails by {-deficit:.3e} at node {node}"
        )

    if np.min(psi) <= 0.0:
        warnings_out.append("psi is not strictly positive at the subsolution state")
    if not prob.field_psi and np.min(psi_z) <= 0.0:
        warnings_out.append(
            "psi_z is not strictly positive; comparison-principle diagnostic "
            "will be skipped"
        )
    return warnings_out


def _start(prob):
    """The continuation's start iterate: the subsolution, boundary set to phi."""
    return _with_boundary_data(_sample_data(prob, "subsolution").values, prob)


def homotopy_rhs_field(prob):
    """operator(U[start]) on interior nodes, by the stencil Hessian of the
    continuation's start iterate ``_start``: the solver's t = 0 forcing, so
    the path starts exactly in the discrete sense.  A start outside the
    cone raises NotAdmissibleError."""
    return grid_mod._operator_fields(_start(prob).values, prob.grid, prob.quotient).values


_RELRES_GATE = 1e-10
_GMRES_RTOL = 1e-12
# GMRES(50) with at most four restart cycles.  A cycle stops on its
# Arnoldi estimate of the true residual, so almost every solve takes one
# cycle; a few end it just above rtol by rounding (1.01x and 1.25x on two
# of the 23 systems of the res-97 continuation at c = 0.092) and take a
# one-step second.  Admissible Jacobians never come near four cycles, so
# hitting the cap means the system is (nearly) singular and the LU path
# should decide.
_GMRES_RESTART = 50
_GMRES_CYCLES = 4


def linear_solve(sys):
    """Solve the Newton correction J delta = rhs.

    A system that carries its grid is solved by GMRES preconditioned with
    the grid's Dirichlet Laplacian L scaled by d = diag(J) / diag(L), i.e.
    M^{-1} r = L^{-1}(r / d).  J is a uniformly elliptic Q:D^2 operator
    plus first-order terms, but the scaled Laplacian ignores the
    anisotropy and cross terms of Q, so the iteration count grows with
    resolution: about 24 / 31 / 37 / 42 Arnoldi steps per t = 1 system of
    the 2-D gradient-dependent benchmark problem at res 49 / 97 / 193 /
    385, in one cycle or with a one-step second (see _GMRES_CYCLES).
    Systems without a grid, and grid systems whose GMRES result misses
    the gate, go to sparse LU.  One gate takes either result: the residual
    norm its path computed (GMRES for its own stop test) must be at most
    1e-10 ||rhs||.  An LU result that misses it is a singular system,
    which in practice means the admissibility margin collapsed.
    """
    bnorm = np.linalg.norm(sys.rhs)
    krylov = sys.grid is not None and bnorm > 0.0
    for solve in (_krylov_solve, _lu_solve) if krylov else (_lu_solve,):
        result = solve(sys)
        # a NaN residual (from a non-finite delta) fails the gate
        if result is not None and result[1] <= _RELRES_GATE * bnorm:
            return result[0]
    raise SingularSystemError(
        f"linear solve residual {result[1]:.3e} exceeds 1e-10 * ||rhs|| = "
        f"{_RELRES_GATE * bnorm:.3e} (probable admissibility-margin collapse)"
    )


def _lu_solve(sys):
    """(delta, ||rhs - matrix delta||) by sparse LU (SuperLU), the norm NaN
    where delta is not finite, even in columns the matrix stores nothing in."""
    from scipy.sparse import linalg as sparse_linalg  # GMRES solves almost every system

    matrix = sys.matrix.tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sparse_linalg.MatrixRankWarning)
        delta = np.asarray(sparse_linalg.spsolve(matrix, sys.rhs), dtype=float)
    rnorm = np.linalg.norm(matrix @ delta - sys.rhs) if np.isfinite(delta).all() else math.nan
    return delta, rnorm


def _krylov_solve(sys):
    """Sine-preconditioned GMRES on a grid system: _gmres's (x, ||rhs -
    matrix x||), or None when the scaling diagonal has a zero or
    non-finite entry or GMRES does not converge."""
    grid = sys.grid
    matrix = sys.matrix
    d = matrix.diagonal() / grid.laplacian_diagonal
    if not np.all(np.isfinite(d) & (d != 0.0)):
        return None
    return _gmres(matrix, sys.rhs, lambda r: grid.laplacian_solve(r / d))


def _gmres(matrix, b, precond):
    """(x, ||b - matrix x||) with ||b - matrix x|| <= _GMRES_RTOL ||b|| by
    right-preconditioned GMRES(_GMRES_RESTART) (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 1986), with M^{-1} = precond; None when
    _GMRES_CYCLES cycles (see _gmres_cycle) do not reach it.  b must be
    nonzero.

    Every cycle restarts from the true residual b - matrix x, and x is
    returned only once that true residual is within the tolerance, never
    on the Arnoldi estimate alone; its norm, the one that stop test read,
    is returned with it.
    """
    tol = _GMRES_RTOL * np.linalg.norm(b)
    # one basis for every cycle, and no preconditioned basis: each cycle
    # applies M^{-1} once more, to V^T y
    V = np.empty((_GMRES_RESTART + 1, b.shape[0]))
    x = np.zeros_like(b)
    r = b
    for _ in range(_GMRES_CYCLES):
        dx = _gmres_cycle(matrix, r, precond, tol, V)
        if dx is None:
            return None
        x += dx
        r = b - matrix @ x
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:  # a NaN residual fails
            return x, rnorm
    return None


def _gmres_cycle(matrix, r, precond, tol, V):
    """One GMRES cycle on matrix dx = r from dx = 0, in the basis rows V;
    None where the reduced Hessenberg matrix is singular or not finite.

    Arnoldi builds an orthonormal basis V of the Krylov space of
    matrix M^{-1}.  Each step orthogonalises by classical Gram-Schmidt
    applied twice ("twice is enough", Giraud, Langou & Rozloznik, 2005),
    two BLAS matrix-vector products a pass.  Givens rotations reduce each
    Hessenberg column to R, so |g[j + 1]| is the residual norm of the
    least-squares solution y; with right preconditioning that is the true
    residual up to rounding.  The cycle stops once it reaches tol (as a
    breakdown does) or the basis is full, and returns M^{-1} V^T y.
    """
    beta = float(np.linalg.norm(r))
    if not beta < math.inf:
        return None
    R = np.zeros((_GMRES_RESTART, _GMRES_RESTART))
    V[0] = r / beta
    g, cs, sn = [beta], [], []
    for j in range(_GMRES_RESTART):
        w = matrix @ precond(V[j])
        basis = V[: j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        col = (h + h2).tolist()
        below = float(np.linalg.norm(w))
        for i in range(j):
            col[i], col[i + 1] = (
                cs[i] * col[i] + sn[i] * col[i + 1],
                cs[i] * col[i + 1] - sn[i] * col[i],
            )
        rho = math.hypot(col[j], below)
        if not 0.0 < rho < math.inf:
            return None
        cs.append(col[j] / rho)
        sn.append(below / rho)
        col[j] = rho
        R[: j + 1, j] = col
        g.append(-sn[j] * g[j])
        g[j] *= cs[j]
        if abs(g[j + 1]) <= tol:
            break
        V[j + 1] = w / below
    k = len(cs)
    return precond(np.linalg.solve(R[:k, :k], g[:k]) @ V[:k])


def _step(u, delta, s):
    """u with s * delta (flat, row-major) added on its interior block."""
    out = u.values.copy()
    out[u.grid.interior] += (s * delta).reshape(u.grid.interior_shape)
    return GridFunction(u.grid, out)


def _newton(u, t, prob, psi0):
    """Damped Newton on one continuation stage.

    Accepts the largest step s in {1, 1/2, 1/4, ...} that keeps every
    interior node admissible and shrinks the residual infinity norm by the
    factor (1 - s/4); stops once the norm reaches the tolerance.  A start
    that is not admissible, or where psi faults, raises that error, and a
    NaN residual ends the stage as NewtonDivergenceError.
    """
    tol = prob.newton.tol_residual
    r, fields = _residual_state(u, prob, t, psi0)
    rinf = float(np.abs(r).max())
    log.info("stage t=%.6g residual_inf=%.6e", t, rinf)
    iters = 0
    while not rinf <= tol:  # a NaN residual is never converged
        if iters >= prob.newton.max_iters or math.isnan(rinf):
            raise NewtonDivergenceError(
                f"stage t={t:g} still at residual {rinf:.3e} after "
                f"{iters} iterations",
                iterate=u,
            )
        # the state is already at hand: assembly evaluates nothing at u; the
        # system is released once solved, before the next one is assembled
        delta = linear_solve(grid_mod.assemble_jacobian(prob, t, (r, fields)))
        s = 1.0
        while True:
            try:
                trial = _step(u, delta, s)
                r_new, fields_new = _residual_state(trial, prob, t, psi0)
            except (NotAdmissibleError, expr_mod.DomainFaultError):
                r_new = None
            if r_new is not None:
                rinf_new = float(np.abs(r_new).max())
                if rinf_new <= (1.0 - 0.25 * s) * rinf:
                    break
            s *= 0.5
            if s < _MIN_STEP:
                raise LineSearchError(
                    f"no admissible decreasing step at stage t={t:g} "
                    f"(residual {rinf:.3e})",
                    iterate=u,
                )
        u, r, fields, rinf = trial, r_new, fields_new, rinf_new
        iters += 1
        log.info(
            "t=%.6g iter=%d residual_inf=%.6e step=%.5g margin=%.6e",
            t, iters, rinf, s, fields.margin,
        )
    return u, StageRecord(t, iters, rinf, fields.margin, prob.grid.res)


def _secant(u_prev, t_prev, u, t, t_next):
    """The line through the accepted stages (t_prev, u_prev), (t, u) at
    t_next; boundary values are those of u."""
    w = (t_next - t) / (t - t_prev)
    return GridFunction(u.grid, u.values + w * (u.values - u_prev.values))


def _with_boundary_data(values, prob):
    """Grid function of the nodal array ``values`` with its boundary nodes
    set to phi, in place."""
    u = GridFunction(prob.grid, values)
    bmask = prob.grid.boundary_mask()
    u.values[bmask] = _sample_data(prob, "phi").values[bmask]
    return u


def _continuation(prob, stages):
    """March the continuation on prob.grid from the subsolution to t = 1.

    Appends one record per accepted stage to ``stages`` and returns the
    t = 1 solution.  The t = 0 forcing is the operator at the start
    iterate.  Every attempt after the first accepted stage starts Newton
    on the secant through the last two accepted stages, and logs its start
    at INFO.  t advances adaptively: halving on a failed attempt (see
    _FAILURES), doubling after stages of at most three Newton iterations
    up to 0.25, never decreasing.  Fails with HomotopyStallError if the
    step control collapses below its floor.
    """
    g = prob.grid
    u = _start(prob)

    # the operator fields do not depend on t, and at t = 1 the t = 0
    # forcing carries no weight
    r1, fields1 = _residual_state(u, prob, 1.0, 0.0)
    rinf1 = float(np.abs(r1).max())
    if rinf1 <= prob.newton.tol_residual:
        # degenerate input: the subsolution already solves the target problem
        stages.append(StageRecord(1.0, 0, rinf1, fields1.margin, g.res))
        log.info("subsolution already solves the target problem (residual %.3e)", rinf1)
        return u
    psi0 = fields1.values
    stages.append(StageRecord(0.0, 0, 0.0, fields1.margin, g.res))

    t = 0.0
    u_prev = t_prev = None
    dt = prob.homotopy.dt_init
    while t < 1.0:
        t_try = min(1.0, t + dt)
        if u_prev is None:
            u_start, start = u, "unpredicted"
        else:
            u_start, start = _secant(u_prev, t_prev, u, t, t_try), "predicted"
        log.info("stage t=%.6g start=%s", t_try, start)
        try:
            u_new, record = _newton(u_start, t_try, prob, psi0)
        except _FAILURES as err:
            dt *= 0.5
            log.info("stage t=%.6g failed (%s); dt -> %.3e", t_try, type(err).__name__, dt)
            if dt < prob.homotopy.dt_min:
                raise HomotopyStallError(
                    f"continuation stalled at t={t:g} with dt={dt:.3e} "
                    f"< dt_min={prob.homotopy.dt_min:g}",
                    iterate=getattr(err, "iterate", None) or u,
                ) from err
            continue
        u_prev, t_prev = u, t
        u, t = u_new, t_try
        stages.append(record)
        if record.newton_iters <= 3:
            dt = min(2.0 * dt, 0.25)
    return u


def _coarse_problem(prob):
    """prob on prob.grid.coarse, or None where the grid has none; a field
    forcing is transferred to the coarse interior.  A shallow copy: an
    expression psi keeps its compiled program, which depends on n alone."""
    g = prob.grid
    if g.coarse is None:
        return None
    coarse = copy.copy(prob)
    coarse.grid = g.coarse
    if prob.field_psi:
        fine = prob.psi.values.reshape(g.interior_shape)
        coarse.psi = PsiField(_transfer(fine, g.coarse.res, 1).ravel())
    return coarse


def _transfer(values, res, inner=0):
    """Nodal values of a box grid, less ``inner`` node layers at both ends
    of each axis, interpolated to the same nodes of the grid of that box
    with res nodes per axis.

    Per axis, each node takes the cubic through the four nearest source
    nodes (one-sided at the ends) at its fractional source index, so a
    node of both grids has the weights (0, 1, 0, 0) and keeps its value."""
    for axis in range(values.ndim):
        v = np.moveaxis(values, axis, 0)
        s = np.arange(inner, res - inner) * (v.shape[0] + 2 * inner - 1) / (res - 1) - inner
        j = np.clip(np.floor(s).astype(int) - 1, 0, v.shape[0] - 4)
        # Lagrange weights of the source nodes j .. j + 3 at x
        x = (s - j).reshape((-1,) + (1,) * (v.ndim - 1))
        out = (-(x - 1) * (x - 2) * (x - 3) / 6 * v[j] + x * (x - 2) * (x - 3) / 2 * v[j + 1]
               - x * (x - 1) * (x - 3) / 2 * v[j + 2] + x * (x - 1) * (x - 2) / 6 * v[j + 3])
        values = np.moveaxis(out, 0, axis)
    return values


def _solve_levels(prob, stages, levels):
    """Solve prob by grid sequencing, appending to ``stages`` the record
    of every Newton solve and to ``levels`` one record per solved level.

    The continuation runs on the coarsest problem of the chain; each finer
    level starts Newton at t = 1 from the transferred solution of the level
    below, its boundary reset to phi.  Any failure on the way up (see
    _FAILURES) is followed by one continuation from the subsolution on
    the target grid.  With a single level the failure propagates.
    """
    chain = [prob]
    while (coarse := _coarse_problem(chain[-1])) is not None:
        chain.append(coarse)
    try:
        u = _continuation(chain[-1], stages)
        levels.append(LevelRecord(chain[-1].grid.res))
        for fine in reversed(chain[:-1]):
            log.info("level res=%d starts from the res=%d solution", fine.grid.res, u.grid.res)
            u0 = _with_boundary_data(_transfer(u.values, fine.grid.res), fine)
            # at t = 1 the t = 0 forcing carries no weight
            u, record = _newton(u0, 1.0, fine, 0.0)
            stages.append(record)
            levels.append(LevelRecord(fine.grid.res))
    except _FAILURES as err:
        if len(chain) == 1:
            raise
        fallback = type(err).__name__
        log.info("level res=%d falls back to the continuation (%s)", prob.grid.res, fallback)
        # recorded before the walk, so a failed walk's report shows it
        levels.append(LevelRecord(prob.grid.res, fallback))
        u = _continuation(prob, stages)
    return u


def solve_dirichlet(prob):
    """Solve the target problem by grid sequencing over the continuation.

    The continuation (see _continuation) runs on the coarsest level, the
    last grid of the chain prob.grid, prob.grid.coarse, ...  Each finer
    level runs Newton at t = 1 from the cubic ``_transfer`` of the level
    below.  When any of that fails, the continuation runs once more on the
    target grid, from the subsolution.  Problems validate and solutions
    are diagnosed on the target grid only.

    Returns the discrete solution and a report with one record per Newton
    solve (with the res it ran on), one record per solved level (coarsest
    first; a target level that walked the continuation after a failure
    names that failure), the diagnostics of the final iterate, and any
    load-time warnings.  A failure carries the partial report and an
    iterate on prob.grid.
    """
    start = time.perf_counter()
    warnings_out = validate_problem(prob)
    stages, levels = [], []

    def report(converged, diagnostics=None):
        return SolveReport(
            stages=stages,
            converged=converged,
            diagnostics=diagnostics,
            wall_time=time.perf_counter() - start,
            warnings=warnings_out,
            degenerate_2d=prob.degenerate_2d,
            levels=levels,
        )

    try:
        u = _solve_levels(prob, stages, levels)
    except SolverError as err:
        err.report = report(False)
        raise
    from .verify import run_diagnostics

    return u, report(True, run_diagnostics(u, prob))
