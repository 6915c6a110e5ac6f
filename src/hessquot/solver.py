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
where psi faults, is dropped and that attempt starts from the last
solution.  The step controller does not look at the predictor.
"""

import logging
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import linalg as sparse_linalg

from . import expr as expr_mod
from . import grid as grid_mod
from .errors import (
    HomotopyStallError,
    LineSearchError,
    NewtonDivergenceError,
    NotAdmissibleError,
    ProblemSpecError,
    SingularSystemError,
)
from .grid import Grid, GridFunction, _residual_state
from .symfun import QuotientSpec

log = logging.getLogger("hessquot.solver")

_MIN_STEP = 2.0 ** -30


@dataclass(frozen=True)
class NewtonParams:
    tol_residual: float = 1e-9
    max_iters: int = 50

    def __post_init__(self):
        # written so that NaN fails: Newton stops once `rinf > tol` is
        # false, which a NaN tolerance makes true of every start
        if not (0.0 < self.tol_residual < math.inf):
            raise ValueError(
                f"tol_residual must be finite and > 0, got {self.tol_residual}"
            )
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
    its partials are identically zero.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("field forcing must be a flat interior vector")

    def terms(self, x, u, p):
        if self.values.shape[0] != x.shape[0]:
            raise ValueError("field forcing length does not match interior size")
        return self.values, 0.0, 0.0


@dataclass
class ProblemSpec:
    """Everything one Dirichlet solve needs.

    psi may be an expression of (x, u, p) or a PsiField; phi and the
    subsolution are expressions of x alone.  The subsolution must match
    phi on the boundary and satisfy the operator inequality
    operator(U[subsolution]) >= psi at every interior node (checked with
    exact symbolic derivatives at load time).
    """

    grid: Grid
    quotient: QuotientSpec
    psi: object
    phi: object
    subsolution: object
    newton: NewtonParams = field(default_factory=NewtonParams)
    homotopy: HomotopyParams = field(default_factory=HomotopyParams)

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
        if not isinstance(self.psi, PsiField):
            self._psi_z = expr_mod.differentiate(self.psi, "u")
            self._psi_p = [
                expr_mod.differentiate(self.psi, f"p{i+1}") for i in range(self.grid.n)
            ]

    @property
    def field_psi(self):
        return isinstance(self.psi, PsiField)

    @property
    def degenerate_2d(self):
        """The admitted n = 2, (k, l) = (2, 0) family (flagged in reports)."""
        q = self.quotient
        return q.n == 2 and (q.k, q.l) == (2, 0)

    def psi_terms(self, x, u, p):
        """(psi, d psi/du, d psi/dp) evaluated at batched states."""
        if self.field_psi:
            return self.psi.terms(x, u, p)
        env = expr_mod.EvalEnv(x=x, u=u, p=p)
        count = x.shape[0]
        psi = np.broadcast_to(expr_mod.evaluate(self.psi, env), (count,))
        psi_z = np.broadcast_to(expr_mod.evaluate(self._psi_z, env), (count,))
        psi_p = np.stack(
            [
                np.broadcast_to(expr_mod.evaluate(d, env), (count,))
                for d in self._psi_p
            ],
            axis=-1,
        )
        return psi, psi_z, psi_p


@dataclass
class StageRecord:
    t: float
    newton_iters: int
    final_residual_inf: float
    min_admissibility_margin: float

    def as_dict(self):
        return {
            "t": self.t,
            "newton_iters": self.newton_iters,
            "final_residual_inf": self.final_residual_inf,
            "min_admissibility_margin": self.min_admissibility_margin,
        }


@dataclass
class SolveReport:
    stages: list
    converged: bool
    diagnostics: object
    wall_time: float
    warnings: list
    degenerate_2d: bool = False

    def as_dict(self):
        return {
            "stages": [s.as_dict() for s in self.stages],
            "converged": self.converged,
            "diagnostics": self.diagnostics.as_dict() if self.diagnostics else None,
            "wall_time": self.wall_time,
            "warnings": list(self.warnings),
            "degenerate_2d": self.degenerate_2d,
        }


def validate_problem(prob):
    """Load-time invariants; returns warning strings for the report.

    Hard failures (boundary mismatch, inadmissible subsolution, violated
    subsolution inequality) raise ProblemSpecError.  Positivity of psi and
    of its u-derivative are probed at the subsolution state and demoted to
    warnings, since enforcing them would bar exploratory inputs.
    """
    g = prob.grid
    warnings_out = []

    phi_gf = grid_mod.sample_expression(prob.phi, g)
    sub_gf = grid_mod.sample_expression(prob.subsolution, g)
    bmask = g.boundary_mask()
    gap = np.abs(phi_gf.values[bmask] - sub_gf.values[bmask]).max()
    if gap > 1e-10:
        raise ProblemSpecError(
            f"subsolution differs from boundary data by {gap:.3e} on the boundary"
        )

    # exact symbolic derivatives of the subsolution, not stencils: the
    # inequality is a statement about the function, and stencil error
    # would swamp the 1e-8 slack on coarse grids
    H = grid_mod.exact_interior_hessians(prob.subsolution, g)
    try:
        fvals = grid_mod.hessian_fields(H, g, prob.quotient).values
    except NotAdmissibleError as err:
        raise ProblemSpecError(
            f"subsolution is not admissible at node {err.node} "
            f"(sigma_{err.failing_index} <= 0)"
        ) from err

    x = g.interior_coords()
    ub = sub_gf.interior()
    pb = grid_mod.exact_interior_gradients(prob.subsolution, g)
    psi, psi_z, _ = prob.psi_terms(x, ub, pb)
    deficit = np.min(fvals - psi)
    if deficit < -1e-8:
        node = g.interior_node(int(np.argmin(fvals - psi)))
        raise ProblemSpecError(
            f"subsolution inequality fails by {-deficit:.3e} at node {node}"
        )

    if np.min(np.broadcast_to(psi, ub.shape)) <= 0.0:
        warnings_out.append("psi is not strictly positive at the subsolution state")
    if not prob.field_psi and np.min(np.broadcast_to(psi_z, ub.shape)) <= 0.0:
        warnings_out.append(
            "psi_z is not strictly positive; comparison-principle diagnostic "
            "will be skipped"
        )
    return warnings_out


def homotopy_rhs_field(prob):
    """operator(U[subsolution]) on interior nodes, the t = 0 forcing.

    Uses the stencil Hessian of the sampled subsolution so the start of
    the continuation is exact in the discrete sense; inadmissibility of
    the discretized subsolution is an error.
    """
    sub = grid_mod.sample_expression(prob.subsolution, prob.grid)
    fields = grid_mod._operator_fields(sub.values, prob.grid, prob.quotient)
    return fields.values


_RELRES_GATE = 1e-10
_GMRES_RTOL = 1e-12
# GMRES(50) with at most four restart cycles.  A cycle stops on the
# preconditioned residual, so most solves need a short second cycle to
# bring the true residual under rtol, and some end that cycle just above
# it (1.0002e-12 on one continuation system) and need a third.  Admissible
# Jacobians never come near four cycles, so hitting the cap means the
# system is (nearly) singular and the LU path should decide.
_GMRES_RESTART = 50
_GMRES_CYCLES = 4


def linear_solve(sys):
    """Solve the Newton correction J delta = rhs.

    A system that carries its grid is solved by GMRES preconditioned with
    the grid's Dirichlet Laplacian L scaled by d = diag(J) / diag(L), i.e.
    M^{-1} r = L^{-1}(r / d).  J is a uniformly elliptic Q:D^2 operator
    plus first-order terms, but the scaled Laplacian ignores the
    anisotropy and cross terms of Q, so the iteration count grows with
    resolution: about 25 / 32 / 38 / 44 per t = 1 system of the 2-D
    gradient-dependent benchmark problem at res 49 / 97 / 193 / 385.
    Systems without a grid, and grid systems whose GMRES result misses
    the gate below, are solved by sparse LU.  The relative residual must
    come back below 1e-10; anything else is reported as a singular system,
    which in practice means the admissibility margin collapsed.
    """
    rhs = sys.rhs
    bnorm = np.linalg.norm(rhs)
    if sys.grid is not None and bnorm > 0.0:
        delta = _krylov_solve(sys)
        if delta is not None and _relres(sys.matrix, delta, rhs, bnorm) <= _RELRES_GATE:
            return delta
    matrix = sys.matrix.tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sparse_linalg.MatrixRankWarning)
        delta = sparse_linalg.spsolve(matrix, rhs)
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise SingularSystemError(
            "sparse LU produced non-finite correction "
            "(probable admissibility-margin collapse)"
        )
    if bnorm > 0.0:
        rel = _relres(matrix, delta, rhs, bnorm)
        if rel > _RELRES_GATE:
            raise SingularSystemError(
                f"linear solve residual {rel:.3e} exceeds 1e-10 "
                "(probable admissibility-margin collapse)"
            )
    return delta


def _relres(matrix, delta, rhs, bnorm):
    # NaN (from a non-finite delta) compares false against any gate.
    return np.linalg.norm(matrix @ delta - rhs) / bnorm


def _krylov_solve(sys):
    """Sine-preconditioned GMRES on a grid system; None when the scaling
    diagonal has a zero or non-finite entry or GMRES does not converge."""
    grid = sys.grid
    matrix = sys.matrix
    d = matrix.diagonal() / grid.laplacian_diagonal
    if not np.all(np.isfinite(d) & (d != 0.0)):
        return None
    precond = sparse_linalg.LinearOperator(
        matrix.shape, matvec=lambda r: grid.laplacian_solve(r / d), dtype=float
    )
    delta, info = sparse_linalg.gmres(
        matrix, sys.rhs, rtol=_GMRES_RTOL, restart=_GMRES_RESTART,
        maxiter=_GMRES_CYCLES, M=precond,
    )
    return delta if info == 0 else None


def _step(u, delta, s):
    out = u.values.copy()
    core = (slice(1, -1),) * u.grid.n
    out[core] += s * delta.reshape(u.grid.interior_shape)
    return GridFunction(u.grid, out)


def _newton(u0, t, prob, psi0, fallback=None):
    """Damped Newton on one continuation stage.

    Accepts the largest step s in {1, 1/2, 1/4, ...} that keeps every
    interior node admissible and shrinks the residual infinity norm by the
    factor (1 - s/4); stops once the norm reaches the tolerance.

    With a fallback, u0 is a predicted start: if it is not admissible or
    psi faults there, Newton starts from the fallback instead.  The first
    residual evaluation is that probe, so no start is evaluated twice.
    """
    tol = prob.newton.tol_residual
    u, start = u0, "unpredicted" if fallback is None else "predicted"
    try:
        r, fields = _residual_state(u, prob, t, psi0)
    except (NotAdmissibleError, expr_mod.DomainFaultError):
        if fallback is None:
            raise
        u, start = fallback, "fallback"
        r, fields = _residual_state(u, prob, t, psi0)
    rinf = float(np.abs(r).max())
    log.info("stage t=%.6g start=%s residual_inf=%.6e", t, start, rinf)
    iters = 0
    while rinf > tol:
        if iters >= prob.newton.max_iters:
            raise NewtonDivergenceError(
                f"stage t={t:g} still at residual {rinf:.3e} after "
                f"{prob.newton.max_iters} iterations",
                iterate=u,
            )
        # the residual is already at hand: assemble the matrix only
        sys = grid_mod.assemble_jacobian(u, prob, t, fields=fields)
        delta = linear_solve(replace(sys, rhs=-r))
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
    return u, StageRecord(t, iters, rinf, fields.margin)


def newton_stage(u0, t, prob, psi0=None):
    """Solve one continuation stage; the iterate must start admissible and
    boundary-correct."""
    if psi0 is None:
        psi0 = homotopy_rhs_field(prob)
    u, _ = _newton(u0, t, prob, psi0)
    return u


def _secant(u_prev, t_prev, u, t, t_next):
    """The line through the accepted stages (t_prev, u_prev), (t, u) at
    t_next; boundary values are those of u."""
    w = (t_next - t) / (t - t_prev)
    return GridFunction(u.grid, u.values + w * (u.values - u_prev.values))


def solve_dirichlet(prob):
    """March the continuation from the subsolution to the target problem.

    Returns the discrete solution and a report with one record per stage,
    the diagnostics of the final iterate, and any load-time warnings.  The
    continuation starts at t = 0 where the subsolution is exact, advances
    t adaptively (halving on stage failure, doubling after stages of at
    most three Newton iterations up to 0.25, never decreasing), and fails
    with HomotopyStallError if the step control collapses below its floor.
    Every attempt after the first accepted stage starts Newton from the
    secant prediction through the last two accepted stages, or from the
    last solution when the prediction is not admissible; each attempt logs
    its start at INFO.
    """
    start = time.perf_counter()
    warnings_out = validate_problem(prob)
    g = prob.grid

    u = grid_mod.sample_expression(prob.subsolution, g)
    phi_gf = grid_mod.sample_expression(prob.phi, g)
    bmask = g.boundary_mask()
    u.values[bmask] = phi_gf.values[bmask]

    psi0 = homotopy_rhs_field(prob)
    stages = []

    def finish(u_final):
        from .verify import run_diagnostics

        diag = run_diagnostics(u_final, prob)
        report = SolveReport(
            stages=stages,
            converged=True,
            diagnostics=diag,
            wall_time=time.perf_counter() - start,
            warnings=warnings_out,
            degenerate_2d=prob.degenerate_2d,
        )
        return u_final, report

    def partial_report():
        return SolveReport(
            stages=stages,
            converged=False,
            diagnostics=None,
            wall_time=time.perf_counter() - start,
            warnings=warnings_out,
            degenerate_2d=prob.degenerate_2d,
        )

    # degenerate input: the subsolution already solves the target problem
    r1, fields1 = _residual_state(u, prob, 1.0, psi0)
    rinf1 = float(np.abs(r1).max())
    if rinf1 <= prob.newton.tol_residual:
        stages.append(StageRecord(1.0, 0, rinf1, fields1.margin))
        log.info("subsolution already solves the target problem (residual %.3e)", rinf1)
        return finish(u)

    # the operator fields do not depend on t
    r0 = fields1.values - psi0
    stages.append(StageRecord(0.0, 0, float(np.abs(r0).max()), fields1.margin))

    t = 0.0
    u_prev = t_prev = None
    dt = prob.homotopy.dt_init
    while t < 1.0:
        t_try = min(1.0, t + dt)
        if u_prev is None:
            u_start, fallback = u, None
        else:
            u_start, fallback = _secant(u_prev, t_prev, u, t, t_try), u
        try:
            u_new, record = _newton(u_start, t_try, prob, psi0, fallback=fallback)
        except (NewtonDivergenceError, LineSearchError, SingularSystemError) as err:
            dt *= 0.5
            log.info("stage t=%.6g failed (%s); dt -> %.3e", t_try, type(err).__name__, dt)
            if dt < prob.homotopy.dt_min:
                raise HomotopyStallError(
                    f"continuation stalled at t={t:g} with dt={dt:.3e} "
                    f"< dt_min={prob.homotopy.dt_min:g}",
                    iterate=err.iterate if err.iterate is not None else u,
                    report=partial_report(),
                ) from err
            continue
        u_prev, t_prev = u, t
        u, t = u_new, t_try
        stages.append(record)
        if record.newton_iters <= 3:
            dt = min(2.0 * dt, 0.25)
    return finish(u)
