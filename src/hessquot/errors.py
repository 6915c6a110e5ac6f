"""Exception types shared across the package."""


class NotAdmissibleError(ValueError):
    """Eigenvalues left the Garding cone where the quotient operator lives.

    Carries the offending eigenvalue list, the first sigma index j that
    failed the cone rule (sigma_j finite and > 0), whether sigma_j overflowed
    to +-inf or NaN rather than being <= 0, and (when raised during grid
    assembly) the multi-index of the offending node.  NaN eigenvalues mean
    tau*tr(H)*I - H was not finite, also an overflow.  ``reason`` reads
    "sigma_j <= 0", "sigma_j overflows" or "tau*tr(H)*I - H is not finite".
    """

    def __init__(self, lam, failing_index, node=None, overflow=False):
        self.lam = tuple(float(v) for v in lam)
        self.failing_index = int(failing_index)
        self.node = tuple(int(i) for i in node) if node is not None else None
        nan = any(v != v for v in self.lam)
        self.overflow = bool(overflow) or nan
        self.reason = "tau*tr(H)*I - H is not finite" if nan else (
            f"sigma_{self.failing_index} " + ("overflows" if self.overflow else "<= 0"))
        where = f" at node {self.node}" if self.node is not None else ""
        super().__init__(f"eigenvalues {self.lam} not admissible{where}: {self.reason}")


class SamplerExhaustedError(RuntimeError):
    """Rejection sampler hit its retry budget without landing in the cone."""


class EigenFailureError(RuntimeError):
    """LAPACK eigh did not converge; on finite symmetric input with n <= 8
    this indicates a broken LAPACK build."""


class OracleScaleError(ValueError):
    """Brute-force oracle invoked beyond its combinatorial size guard."""


class ProblemSpecError(ValueError):
    """Problem data violates a load-time invariant (boundary mismatch,
    inadmissible or insufficient subsolution)."""


class SolverError(RuntimeError):
    """Base class for solver failures; carries the last iterate and the
    partial report so callers can inspect where the continuation died."""

    def __init__(self, message, iterate=None, report=None):
        super().__init__(message)
        self.iterate = iterate
        self.report = report


class NewtonDivergenceError(SolverError):
    """A continuation stage exceeded its Newton iteration budget."""


class LineSearchError(SolverError):
    """Damped Newton could not find an admissible decreasing step."""


class HomotopyStallError(SolverError):
    """Step control shrank the continuation step below its floor."""


class SingularSystemError(SolverError):
    """Sparse solve failed or left a large residual.  While the linearized
    operator stays positive definite this should not happen; it usually
    signals an admissibility-margin collapse."""


class ConfigError(ValueError):
    """Malformed configuration file or CLI override."""
