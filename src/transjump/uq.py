"""Monte Carlo error assessment for trans-dimensional chains.

Pipeline: ergodic averages -> batch-means asymptotic covariance -> delta
method -> noise injection -> simultaneous confidence intervals whose common
half-width multiplier solves a multivariate normal rectangle equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NumericError,
    ParameterError,
    SingularCovarianceError,
    TraceParseError,
)
from .mvnprob import solve_rectangle_quantile
from .rng import RngStream, cholesky_lower, std_normal_quantile
from .spectral import FiniteTransChain, l20_operator_norm

__all__ = [
    "Trace",
    "BatchMeansEstimate",
    "DeltaSpec",
    "SimCIReport",
    "ergodic_average",
    "batch_size_rule",
    "batch_means_cov",
    "exact_asymptotic_cov_finite",
    "delta_cov",
    "identity_spec",
    "ar_h_spec",
    "inject_noise",
    "simultaneous_cis",
    "save_trace",
    "load_trace",
    "save_report",
    "load_report",
]

_FD_REL_TOL = 1e-6


@dataclass
class Trace:
    """Time-ordered record of evaluated test functions f(X(t)).

    ``f_values`` has one row per MCMC step; ``meta`` carries sampler id, seed
    and configuration hash for reproducibility.
    """

    f_values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.f_values = np.atleast_2d(np.asarray(self.f_values, dtype=float))
        if self.f_values.shape[0] < 1 or self.f_values.shape[1] < 1:
            raise ParameterError("trace requires n >= 1 rows and d >= 1 columns")
        if not np.all(np.isfinite(self.f_values)):
            raise ParameterError("trace contains non-finite values")

    @property
    def n(self) -> int:
        return self.f_values.shape[0]

    @property
    def d(self) -> int:
        return self.f_values.shape[1]


@dataclass
class BatchMeansEstimate:
    sigma: np.ndarray
    a_n: int
    b_n: int
    mean: np.ndarray


@dataclass
class DeltaSpec:
    """Differentiable feature map H with its analytic Jacobian.

    The Jacobian is validated against central finite differences at every
    evaluation point it is used at.
    """

    h: callable
    jacobian: callable


@dataclass
class SimCIReport:
    h_point: np.ndarray
    g_noise: np.ndarray
    v_diag: np.ndarray
    xi: float
    intervals: np.ndarray
    alpha: float
    epsilon: float
    n: int

    def __post_init__(self):
        m = self.h_point.shape[0]
        if self.intervals.shape != (m, 2):
            raise ParameterError("intervals must be an (m, 2) array")
        if np.any(self.intervals[:, 0] > self.intervals[:, 1]):
            raise ParameterError("interval lower bounds exceed upper bounds")
        lo_q = float(std_normal_quantile(1.0 - self.alpha / 2.0))
        hi_q = float(std_normal_quantile(1.0 - self.alpha / (2.0 * m)))
        if not lo_q - 1e-12 <= self.xi <= hi_q + 1e-12:
            raise ParameterError(
                f"xi={self.xi} outside its bracket [{lo_q}, {hi_q}]"
            )
        widths = self.intervals[:, 1] - self.intervals[:, 0]
        expected = 2.0 * self.xi * np.sqrt(self.v_diag / self.n)
        if np.any(np.abs(widths - expected) > 1e-9 * np.maximum(1.0, expected)):
            raise ParameterError("interval widths break the half-width formula")


def ergodic_average(trace: Trace) -> np.ndarray:
    """Column means of the trace, via block-compensated (Kahan) summation."""
    x = trace.f_values
    total = np.zeros(x.shape[1])
    comp = np.zeros(x.shape[1])
    for start in range(0, x.shape[0], 65536):
        v = x[start : start + 65536].sum(axis=0)
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / x.shape[0]


def batch_size_rule(n: int, v: float = 0.6) -> tuple[int, int]:
    """Batch geometry (a_n, b_n) with b_n = floor(n^v).

    ``v`` must lie in (0, 1); values above 0.5 keep the batch-size growth
    condition satisfied for the moment bounds used here (default 0.6).
    Trailing observations beyond a_n * b_n are not batched.
    """
    if not 0.0 < v < 1.0:
        raise ParameterError("batch exponent v must lie in (0, 1)")
    if n < 1:
        raise ParameterError("n must be positive")
    b = int(np.floor(n**v + 1e-9))
    b = max(b, 1)
    a = n // b
    return a, b


def batch_means_cov(trace: Trace, a_n: int, b_n: int) -> BatchMeansEstimate:
    """Batch means estimate of the asymptotic covariance of sqrt(n) * mean.

    Consecutive non-overlapping batches of length b_n from the start of the
    trace; centering uses the full-trace ergodic mean (trailing unbatched
    observations contribute to the mean, not to any batch).
    """
    if a_n < 2:
        raise ParameterError("batch means requires at least two batches")
    if a_n * b_n > trace.n:
        raise ParameterError("a_n * b_n exceeds the trace length")
    center = ergodic_average(trace)
    span = trace.f_values[: a_n * b_n]
    batch_means = span.reshape(a_n, b_n, trace.d).mean(axis=1)
    dev = batch_means - center
    sigma = (b_n / (a_n - 1)) * dev.T @ dev
    sigma = 0.5 * (sigma + sigma.T)
    return BatchMeansEstimate(sigma=sigma, a_n=a_n, b_n=b_n, mean=center)


def exact_asymptotic_cov_finite(
    chain: FiniteTransChain, f_matrix: np.ndarray
) -> np.ndarray:
    """Exact asymptotic covariance of ergodic averages on a finite chain.

    Evaluates the autocovariance series in closed form through the
    fundamental matrix (I - P + 1 pi^T)^{-1} instead of truncating it; the
    chain must mix (norm of P on L2_0 strictly below one).
    """
    f = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    if f.shape[0] != chain.n_states:
        f = f.T
    if f.shape[0] != chain.n_states:
        raise ParameterError("f_matrix must have one row per state")
    P = chain.transition
    pi = chain.stationary
    norm = l20_operator_norm(P, pi)
    if norm >= 1.0 - 1e-12:
        raise NumericError(
            f"chain does not mix on L2_0 (norm {norm:.12f}); series diverges"
        )
    fbar = f - pi @ f
    n = chain.n_states
    Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), pi))
    D = pi[:, None]
    base = fbar.T @ (D * fbar)
    tail = fbar.T @ (D * ((Z - np.eye(n)) @ fbar))
    sigma = base + tail + tail.T
    return 0.5 * (sigma + sigma.T)


def _check_jacobian(spec: DeltaSpec, at: np.ndarray) -> np.ndarray:
    at = np.asarray(at, dtype=float)
    J = np.atleast_2d(np.asarray(spec.jacobian(at), dtype=float))
    if not np.all(np.isfinite(J)):
        raise NumericError("jacobian has non-finite entries at the evaluation point")
    d = at.shape[0]
    fd = np.zeros_like(J)
    for j in range(d):
        h = 1e-6 * max(1.0, abs(at[j]))
        e = np.zeros(d)
        e[j] = h
        fd[:, j] = (np.asarray(spec.h(at + e)) - np.asarray(spec.h(at - e))) / (2 * h)
    scale = np.maximum(np.abs(J), np.maximum(np.abs(fd), 1.0))
    if np.any(np.abs(J - fd) > _FD_REL_TOL * scale):
        raise NumericError(
            "analytic jacobian disagrees with central finite differences"
        )
    return J


def delta_cov(sigma: np.ndarray, spec: DeltaSpec, at: np.ndarray) -> np.ndarray:
    """Delta-method covariance J Sigma J^T with J validated at ``at``."""
    J = _check_jacobian(spec, np.asarray(at, dtype=float))
    out = J @ np.asarray(sigma, dtype=float) @ J.T
    return 0.5 * (out + out.T)


def identity_spec(m: int) -> DeltaSpec:
    """H = identity on R^m."""
    return DeltaSpec(h=lambda eta: np.asarray(eta, dtype=float), jacobian=lambda eta: np.eye(m))


def ar_h_spec() -> DeltaSpec:
    """Feature map for the autoregression toy study.

    Input eta = (E[1{k=1}], E[a 1{k=1}], E[a^2 1{k=1}]); output
    (P(K=0), P(K=1), E[A | K=1], SD[A | K=1]) with its analytic 4x3 Jacobian.
    """

    def h(eta):
        e1, e2, e3 = np.asarray(eta, dtype=float)
        if not 0.0 < e1 < 1.0:
            raise ParameterError("model-1 probability must lie in (0, 1)")
        var = e3 / e1 - (e2 / e1) ** 2
        if var <= 0.0:
            raise ParameterError(
                "conditional variance argument is non-positive (degenerate)"
            )
        return np.array([1.0 - e1, e1, e2 / e1, np.sqrt(var)])

    def jacobian(eta):
        e1, e2, e3 = np.asarray(eta, dtype=float)
        if not 0.0 < e1 < 1.0:
            raise ParameterError("model-1 probability must lie in (0, 1)")
        var = e3 / e1 - (e2 / e1) ** 2
        if var <= 0.0:
            raise ParameterError(
                "conditional variance argument is non-positive (degenerate)"
            )
        s = np.sqrt(var)
        return np.array(
            [
                [-1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [-e2 / e1**2, 1.0 / e1, 0.0],
                [
                    (-e3 / e1**2 + 2.0 * e2**2 / e1**3) / (2.0 * s),
                    (-2.0 * e2 / e1**2) / (2.0 * s),
                    (1.0 / e1) / (2.0 * s),
                ],
            ]
        )

    return DeltaSpec(h=h, jacobian=jacobian)


def inject_noise(
    m: int, epsilon: float, v_star: np.ndarray, n: int, rng: RngStream
) -> np.ndarray:
    """One draw of the injected noise term epsilon * G_n.

    G_n is the average of n iid N(0, V*) vectors, so epsilon * G_n is drawn
    directly from its exact law N(0, epsilon^2 V* / n).
    """
    if epsilon < 0:
        raise ParameterError("epsilon must be non-negative")
    if epsilon == 0.0:
        return np.zeros(m)
    v_star = np.asarray(v_star, dtype=float)
    L = cholesky_lower(v_star)
    z = rng.gen.standard_normal(m)
    return epsilon * (L @ z) / np.sqrt(n)


def simultaneous_cis(
    trace: Trace,
    spec: DeltaSpec,
    alpha: float,
    epsilon: float,
    rng: RngStream,
    v_star: np.ndarray | None = None,
    v: float = 0.6,
    xi_tol: float = 1e-3,
    qmc_points: int = 4096,
) -> SimCIReport:
    """Simultaneous confidence intervals for H(Pi f) at joint level 1 - alpha.

    Runs the full pipeline: batch-means covariance of the trace, delta
    method through ``spec``, injection of N(0, epsilon^2 V*/n) noise, and the
    rectangle-quantile solve for the common multiplier xi. With epsilon = 0 a
    singular covariance is an explicit error (inject noise), not a warning.
    """
    n = trace.n
    a_n, b_n = batch_size_rule(n, v)
    if a_n < 2:
        raise ParameterError("trace too short for batch means (a_n < 2)")
    est = batch_means_cov(trace, a_n, b_n)
    h_point = np.asarray(spec.h(est.mean), dtype=float)
    m = h_point.shape[0]
    if v_star is None:
        v_star = np.eye(m)
    v_star = np.asarray(v_star, dtype=float)
    v_n = delta_cov(est.sigma, spec, est.mean)
    v_tot = v_n + epsilon**2 * v_star
    v_tot = 0.5 * (v_tot + v_tot.T)
    if epsilon == 0.0:
        eig_min = float(np.linalg.eigvalsh(v_tot)[0])
        if eig_min <= 1e-12 * max(1.0, float(np.trace(v_tot))):
            raise SingularCovarianceError(
                "delta-method covariance is singular with epsilon=0; "
                "inject noise (epsilon > 0) to obtain valid simultaneous intervals"
            )
    v_diag = np.diag(v_tot).copy()
    xi = solve_rectangle_quantile(
        alpha,
        v_diag,
        v_tot,
        tol=xi_tol,
        n_points=qmc_points,
        seed=int(trace.meta.get("seed", 0)) + 7_919,
    )
    g = inject_noise(m, epsilon, v_star, n, rng)
    center = h_point + g
    half = xi * np.sqrt(v_diag / n)
    intervals = np.column_stack([center - half, center + half])
    return SimCIReport(
        h_point=h_point,
        g_noise=g,
        v_diag=v_diag,
        xi=xi,
        intervals=intervals,
        alpha=alpha,
        epsilon=epsilon,
        n=n,
    )


def save_trace(trace: Trace, path):
    """Persist a trace: header 'n d sampler_id seed', then tab-separated rows."""
    sampler = str(trace.meta.get("sampler_id", "unknown")).replace(" ", "_")
    seed = int(trace.meta.get("seed", 0))
    with open(path, "w", encoding="utf-8") as fh:
        if "config_hash" in trace.meta:
            fh.write(f"# config {trace.meta['config_hash']}\n")
        fh.write(f"{trace.n} {trace.d} {sampler} {seed}\n")
        for row in trace.f_values:
            fh.write("\t".join(f"{x:.17g}" for x in row) + "\n")


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = {}
    body = []
    for i, ln in enumerate(lines):
        if ln.startswith("#"):
            parts = ln[1:].split()
            if len(parts) == 2 and parts[0] == "config":
                meta["config_hash"] = parts[1]
            continue
        if ln.strip():
            body.append((i + 1, ln))
    if not body:
        raise TraceParseError("empty trace file")
    lineno, header = body[0]
    parts = header.split()
    if len(parts) != 4:
        raise TraceParseError("expected header 'n d sampler_id seed'", line=lineno)
    try:
        n, d = int(parts[0]), int(parts[1])
        meta["sampler_id"] = parts[2]
        meta["seed"] = int(parts[3])
    except ValueError:
        raise TraceParseError("malformed header", line=lineno)
    if len(body) != n + 1:
        raise TraceParseError(f"expected {n} rows, found {len(body) - 1}")
    rows = np.zeros((n, d))
    for r, (lineno, ln) in enumerate(body[1:]):
        vals = ln.split("\t")
        if len(vals) != d:
            raise TraceParseError(f"expected {d} values", line=lineno)
        try:
            rows[r] = [float(v) for v in vals]
        except ValueError:
            raise TraceParseError("non-numeric trace value", line=lineno)
    return Trace(f_values=rows, meta=meta)


def load_report(path) -> SimCIReport:
    """Read a report written by :func:`save_report`."""
    keys = {}
    table = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    in_table = False
    for lineno, ln in enumerate(lines, start=1):
        if ln.startswith("#") or not ln.strip():
            continue
        parts = ln.split("\t")
        if not in_table:
            if parts[0] == "index":
                in_table = True
                continue
            if len(parts) != 2:
                raise TraceParseError("expected 'key<TAB>value'", line=lineno)
            keys[parts[0]] = parts[1]
        else:
            if len(parts) != 6:
                raise TraceParseError("expected 6 table columns", line=lineno)
            table.append([float(v) for v in parts])
    for req in ("alpha", "epsilon", "n", "m", "xi"):
        if req not in keys:
            raise TraceParseError(f"missing key {req!r}")
    if len(table) != int(keys["m"]):
        raise TraceParseError(f"expected {keys['m']} table rows, found {len(table)}")
    tbl = np.array(table)
    return SimCIReport(
        h_point=tbl[:, 1],
        g_noise=tbl[:, 2] - tbl[:, 1],
        v_diag=tbl[:, 5],
        xi=float(keys["xi"]),
        intervals=tbl[:, 3:5],
        alpha=float(keys["alpha"]),
        epsilon=float(keys["epsilon"]),
        n=int(keys["n"]),
    )


def save_report(report: SimCIReport, path, config_hash: str | None = None):
    """Flat key-value block followed by the per-quantity interval table."""
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config {config_hash}\n")
        fh.write(f"alpha\t{report.alpha:.17g}\n")
        fh.write(f"epsilon\t{report.epsilon:.17g}\n")
        fh.write(f"n\t{report.n}\n")
        fh.write(f"m\t{report.h_point.shape[0]}\n")
        fh.write(f"xi\t{report.xi:.17g}\n")
        fh.write("\n")
        fh.write("index\tpoint\tnoisy_center\tlower\tupper\tv_diag\n")
        for i in range(report.h_point.shape[0]):
            center = report.h_point[i] + report.g_noise[i]
            fh.write(
                f"{i}\t{report.h_point[i]:.17g}\t{center:.17g}\t"
                f"{report.intervals[i, 0]:.17g}\t{report.intervals[i, 1]:.17g}\t"
                f"{report.v_diag[i]:.17g}\n"
            )
