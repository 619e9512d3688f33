"""Quasi-Monte Carlo estimation of multivariate normal rectangle probabilities.

The covariance is first split into the connected components of its nonzero
pattern. Coordinates in different components are independent, so the
rectangle probability is the product of the per-component probabilities. A
component of one coordinate (for example a quantity that is constant over the
chain, whose covariance is only the injected noise) is a univariate normal
interval and is exact. Every larger component uses the separation-of-variables
transform of Genz: its probability is mapped to an integral over the unit
cube, variables are reordered for numerical stability (smallest conditional
interval first), and the cube integral is averaged over a randomized
low-discrepancy point set. Randomization over independent shifts provides a
standard-error estimate, which the rectangle-quantile solver uses when it
checks its bracket.

The rectangle quantile (the common interval multiplier xi) is found by a
bracketed Illinois regula falsi on the probit scale, ndtri(p(xi)), where the
probability is close to linear in xi. Every trial xi reuses the same
randomized point set, so the estimated p(xi) is monotone in xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtr, ndtri

from .errors import NumericError, ParameterError, SolverError, require_finite
from .rng import RngStream, std_normal_quantile

__all__ = [
    "RectProbRequest",
    "RectProbResult",
    "mvn_rectangle_prob",
    "solve_rectangle_quantile",
]

_JITTER_REL = 1e-10  # max diagonal jitter, relative to trace
_MIN_SHIFTS = 8

_P_FLOOR = 2.0**-52  # keeps ndtri(p) finite when an estimate hits 0 or 1
_MAX_ITER = 80  # regula falsi steps inside the bracket


def _primes(count: int) -> np.ndarray:
    """The first ``count`` primes, whose square roots drive the Richtmyer
    (Kronecker) low-discrepancy sequence."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        found = np.flatnonzero(sieve)
        if found.shape[0] >= count:
            return found[:count].astype(float)
        limit *= 2


@dataclass
class RectProbRequest:
    """Rectangle probability query for an m-variate normal distribution."""

    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    n_points: int = 4096
    seed: int = 0
    n_shifts: int = _MIN_SHIFTS

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        m = self.lower.shape[0]
        if self.upper.shape != (m,) or self.mean.shape != (m,):
            raise ParameterError("lower, upper, mean must share length")
        if self.covariance.shape != (m, m):
            raise ParameterError(
                f"covariance must be {m}x{m}, got {self.covariance.shape}"
            )
        # infinite bounds give half-open or unbounded sides; NaN has no meaning
        require_finite("lower", np.where(np.isinf(self.lower), 0.0, self.lower))
        require_finite("upper", np.where(np.isinf(self.upper), 0.0, self.upper))
        require_finite("mean", self.mean)
        require_finite("covariance", self.covariance)
        if np.any(self.lower > self.upper):
            raise ParameterError("requires lower[i] <= upper[i]")
        if self.n_shifts < _MIN_SHIFTS:
            raise ParameterError(f"n_shifts must be >= {_MIN_SHIFTS}")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass
class RectProbResult:
    probability: float
    mc_error: float


def _factor_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Covariance made factorizable by at most 1e-10*trace of diagonal jitter."""
    _, info = lapack.dpotrf(cov, lower=1)
    if info == 0:
        return cov
    jitter = _JITTER_REL * np.trace(cov)
    if jitter <= 0:
        jitter = _JITTER_REL
    bumped = cov + jitter * np.eye(cov.shape[0])
    _, info = lapack.dpotrf(bumped, lower=1)
    if info != 0:
        raise NumericError(
            "covariance not positive definite even after maximal jitter; "
            "inject noise explicitly before requesting rectangle probabilities"
        )
    return bumped


def _ordered_cholesky(cov, a, b):
    """Pivoted Cholesky with Genz variable ordering.

    At each stage the remaining variable with the smallest conditional
    interval probability (evaluated at the truncated-normal plug-in for the
    earlier coordinates) is processed next. Returns (L, a, b) in the new order.
    """
    m = cov.shape[0]
    C = cov.copy()
    a = a.copy()
    b = b.copy()
    L = np.zeros((m, m))
    y = np.zeros(m)
    order = np.arange(m)
    tiny = np.finfo(float).tiny
    for j in range(m):
        # choose the next variable: smallest conditional probability content
        best, best_p = j, np.inf
        for i in range(j, m):
            s2 = C[i, i] - L[i, :j] @ L[i, :j]
            s = np.sqrt(max(s2, tiny))
            mu = L[i, :j] @ y[:j]
            p = ndtr((b[i] - mu) / s) - ndtr((a[i] - mu) / s)
            if p < best_p:
                best, best_p = i, p
        if best != j:
            for arr in (a, b, order, y):
                arr[[j, best]] = arr[[best, j]]
            C[[j, best], :] = C[[best, j], :]
            C[:, [j, best]] = C[:, [best, j]]
            L[[j, best], :j] = L[[best, j], :j]
        s2 = C[j, j] - L[j, :j] @ L[j, :j]
        L[j, j] = np.sqrt(max(s2, tiny))
        if j + 1 < m:
            L[j + 1 :, j] = (C[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
        # plug-in value: mean of the standard normal truncated to [at, bt]
        mu = L[j, :j] @ y[:j]
        at = (a[j] - mu) / L[j, j]
        bt = (b[j] - mu) / L[j, j]
        lo, hi = ndtr(at), ndtr(bt)
        phi_a = np.exp(-0.5 * at * at) / np.sqrt(2 * np.pi) if np.isfinite(at) else 0.0
        phi_b = np.exp(-0.5 * bt * bt) / np.sqrt(2 * np.pi) if np.isfinite(bt) else 0.0
        y[j] = (phi_a - phi_b) / max(hi - lo, tiny)
    return L, a, b


def _cube_integrand(L, a, b, w):
    """Genz recursive integrand on the unit cube, vectorized over QMC points."""
    m = L.shape[0]
    npts = w.shape[0]
    tiny = np.finfo(float).tiny
    d = np.full(npts, ndtr(a[0] / L[0, 0]))
    e = np.full(npts, ndtr(b[0] / L[0, 0]))
    f = e - d
    y = np.zeros((npts, m - 1))
    for j in range(1, m):
        u = d + w[:, j - 1] * (e - d)
        np.clip(u, tiny, 1.0 - 1e-16, out=u)
        y[:, j - 1] = ndtri(u)
        mu = y[:, :j] @ L[j, :j]
        d = ndtr((a[j] - mu) / L[j, j])
        e = ndtr((b[j] - mu) / L[j, j])
        f = f * (e - d)
    return f


def _components(cov: np.ndarray) -> np.ndarray:
    """Label of each coordinate's connected component in the nonzero pattern
    of ``cov``: the smallest index in it, spread one link per sweep (a
    factorizable covariance has a nonzero diagonal, so each coordinate keeps
    its own label in the minimum). Coordinates with different labels are
    independent."""
    linked = (cov != 0) | (cov.T != 0)
    labels = np.arange(cov.shape[0])
    while True:
        spread = np.where(linked, labels, labels.shape[0]).min(axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def mvn_rectangle_prob(req: RectProbRequest) -> RectProbResult:
    """Probability that an N(mean, covariance) vector lies in [lower, upper].

    The probability is the product over the independent blocks of the
    covariance. A single coordinate is exact. Larger blocks use randomized
    QMC (Richtmyer sequence with independent uniform shifts): each shift is
    one draw of m - 1 uniforms, of which every block takes its own disjoint
    slice. The returned ``mc_error`` is the standard error of the product
    across shift replicates, 0 when every block is a single coordinate.
    """
    m = req.dim
    a = req.lower - req.mean
    b = req.upper - req.mean
    cov = _factor_with_jitter(req.covariance)
    labels = _components(cov)
    sizes = np.bincount(labels, minlength=m)
    alone = sizes[labels] == 1
    sd = np.sqrt(np.diag(cov)[alone])
    exact = float(np.prod(ndtr(b[alone] / sd) - ndtr(a[alone] / sd)))
    factors = []
    for label in np.flatnonzero(sizes > 1):
        block = np.flatnonzero(labels == label)
        factors.append(_ordered_cholesky(cov[np.ix_(block, block)], a[block], b[block]))
    if not factors:
        return RectProbResult(probability=exact, mc_error=0.0)
    widest = max(L.shape[0] for L, _, _ in factors)
    roots = np.sqrt(_primes(widest - 1))
    idx = np.arange(1, req.n_points + 1)[:, None]
    base = idx * roots[None, :]  # frac() applied after shifting
    estimates = np.full(req.n_shifts, exact)
    for r in range(req.n_shifts):
        shift_rng = RngStream(req.seed, stream_id=r)
        shift = shift_rng.gen.random(m - 1)
        start = 0
        for L, a_blk, b_blk in factors:
            dim = L.shape[0] - 1
            w = np.modf(base[:, :dim] + shift[start : start + dim])[0]
            estimates[r] *= np.mean(_cube_integrand(L, a_blk, b_blk, w))
            start += dim
    prob = float(np.mean(estimates))
    err = float(np.std(estimates, ddof=1) / np.sqrt(req.n_shifts))
    prob = min(max(prob, 0.0), 1.0)
    return RectProbResult(probability=prob, mc_error=err)


def solve_rectangle_quantile(
    alpha: float,
    v_diag: np.ndarray,
    covariance: np.ndarray,
    tol: float = 1e-3,
    n_points: int = 4096,
    seed: int = 0,
) -> float:
    """Solve for xi with N_m(prod_i [-xi sqrt(v_i), xi sqrt(v_i)]; 0, cov) = 1 - alpha.

    The bracket [z*_{1-alpha/2}, z*_{1-alpha/(2m)}] always contains the
    solution: its ends solve the equation under perfect correlation and
    under the Bonferroni bound. Both endpoints are evaluated first. If they
    do not straddle 1 - alpha beyond the QMC error, ``SolverError`` is
    raised; an endpoint that already reaches the target is returned as is.

    Inside the bracket, an Illinois regula falsi finds the root of
    g(xi) = ndtri(p(xi)) - ndtri(1 - alpha). On the probit scale g is nearly
    linear in xi, so one interpolation step usually lands within ``tol``.
    Each step keeps the root bracketed, halves the stale endpoint's g when
    the same side is kept twice, and falls back to the midpoint when the
    interpolant leaves the bracket. It stops once |p - (1 - alpha)| <= tol,
    the bracket is narrower than 1e-12, or after 80 steps. The same
    QMC point set is reused at every xi, so the evaluated probability is
    monotone in xi.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    v_diag = np.asarray(v_diag, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    m = v_diag.shape[0]
    if covariance.shape != (m, m):
        raise ParameterError("covariance shape does not match v_diag")
    require_finite("v_diag", v_diag)
    require_finite("covariance", covariance)
    if np.any(v_diag <= 0):
        raise ParameterError("v_diag entries must be positive")
    rel = np.abs(np.diag(covariance) - v_diag) / np.maximum(np.abs(v_diag), 1e-300)
    if np.any(rel > 1e-9):
        raise ParameterError("covariance diagonal inconsistent with v_diag")

    lo = float(std_normal_quantile(1.0 - alpha / 2.0))
    hi = float(std_normal_quantile(1.0 - alpha / (2.0 * m)))
    if m == 1:
        return lo
    sqrt_v = np.sqrt(v_diag)
    target = 1.0 - alpha

    def prob_at(xi):
        req = RectProbRequest(
            lower=-xi * sqrt_v,
            upper=xi * sqrt_v,
            mean=np.zeros(m),
            covariance=covariance,
            n_points=n_points,
            seed=seed,
        )
        return mvn_rectangle_prob(req)

    res_lo = prob_at(lo)
    res_hi = prob_at(hi)
    slack = max(tol, 4.0 * max(res_lo.mc_error, res_hi.mc_error))
    if res_lo.probability > target + slack or res_hi.probability < target - slack:
        raise SolverError(
            "bracket endpoints do not straddle the target probability: "
            f"p({lo:.6f})={res_lo.probability:.6f}, "
            f"p({hi:.6f})={res_hi.probability:.6f}, target={target:.6f}"
        )
    if res_lo.probability >= target:
        return lo
    if res_hi.probability <= target:
        return hi

    z_target = float(ndtri(target))

    def g(p):
        return float(ndtri(min(max(p, _P_FLOOR), 1.0 - _P_FLOOR))) - z_target

    g_lo, g_hi = g(res_lo.probability), g(res_hi.probability)
    kept = 0  # +1 after lo was kept, -1 after hi was kept
    xi = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        xi = hi - g_hi * (hi - lo) / (g_hi - g_lo) if g_hi > g_lo else np.nan
        if not lo < xi < hi:
            xi = 0.5 * (lo + hi)
        p = prob_at(xi).probability
        if abs(p - target) <= tol or hi - lo < 1e-12:
            return xi
        g_xi = g(p)
        if g_xi < 0.0:
            lo, g_lo = xi, g_xi
            if kept < 0:
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = xi, g_xi
            if kept > 0:
                g_lo *= 0.5
            kept = 1
    return xi
