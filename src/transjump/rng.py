"""Seedable random streams and the exact distribution samplers the MCMC kernels need.

Streams are counter-based (Philox) and keyed by ``(seed, stream_id)``, so that
replications running in parallel get reproducible, statistically independent
randomness: the same key always replays the same draw sequence, regardless of
thread or process layout.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtr, ndtri

from .errors import NumericError, ParameterError

__all__ = [
    "RngStream",
    "sample_inverse_gaussian",
    "sample_truncated_normal_onesided",
    "sample_inverse_gamma",
    "std_normal_quantile",
    "cholesky_lower",
    "precision_solve",
    "precision_noise",
]

# Beyond this many standard deviations from the mean, inverse-CDF sampling of a
# one-sided truncated normal loses precision; switch to exponential rejection.
_TRUNC_TAIL_SWITCH = 4.0


class RngStream:
    """A deterministic random stream identified by ``(seed, stream_id)``.

    Distinct ``stream_id`` values under the same seed yield independent
    streams (Philox counter-based keying). A stream is stateful and must not
    be shared across concurrent callers; give each chain its own.
    """

    __slots__ = ("seed", "stream_id", "gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ParameterError("seed and stream_id must be non-negative integers")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def cholesky_lower(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NumericError naming the failing leading minor."""
    cov = np.asarray(cov, dtype=float)
    c, info = lapack.dpotrf(cov, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NumericError(
            f"covariance is not positive definite: leading minor {info} failed"
        )
    if info < 0:
        raise NumericError(f"cholesky: illegal argument {-info}")
    return c


def precision_solve(prec: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a precision matrix M = L L' once and solve M x = b; returns (L, x).

    A matrix that is not positive definite raises as in ``cholesky_lower``.
    """
    L = cholesky_lower(prec)
    x, _ = lapack.dpotrs(L, b, lower=1)
    return L, x


def precision_noise(L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """L'^{-1} z: a N(0, M^{-1}) deviate from standard normals z, where M = L L'."""
    x, _ = lapack.dtrtrs(L, z, lower=1, trans=1)
    return x


def sample_inverse_gaussian(mu, lam, rng: RngStream):
    """Draw from the inverse Gaussian law with mean ``mu`` and shape ``lam``.

    Density ∝ u^{-3/2} exp(-lam (u - mu)^2 / (2 mu^2 u)) on (0, ∞). Uses the
    two-root chi-square transformation (exact, no rejection loop). ``mu`` may
    be an array; ``lam`` broadcasts against it.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(mu <= 0) or np.any(lam <= 0):
        raise ParameterError("inverse Gaussian requires mu > 0 and lam > 0")
    scalar = mu.ndim == 0 and lam.ndim == 0
    mu, lam = np.broadcast_arrays(np.atleast_1d(mu), np.atleast_1d(lam))
    out = _ig_draws(mu, lam, rng.gen)
    return float(out[0]) if scalar else out


def _ig_draws(mu, lam, gen) -> np.ndarray:
    """Unchecked vectorized inverse-Gaussian core (hot path)."""
    nu = gen.standard_normal(mu.shape)
    y = nu * nu
    with np.errstate(over="ignore"):
        w = mu * y / lam
    # larger root (no cancellation), smaller root via the product identity x1*x2 = mu^2
    huge = w > 1e15
    if huge.any():
        w_safe = np.where(huge, 1.0, w)
        t = 1.0 + 0.5 * (w_safe + np.sqrt(w_safe * (4.0 + w_safe)))
        x1 = np.where(huge, lam / y, mu / t)  # mu -> inf limit: Levy(lam) = lam/chi2_1
        x2 = np.where(huge, mu, mu * t)
    else:
        t = 1.0 + 0.5 * (w + np.sqrt(w * (4.0 + w)))
        x1 = mu / t
        x2 = mu * t
    pick_first = gen.random(mu.shape) <= mu / (mu + x1)
    return np.where(pick_first, x1, x2)


def sample_truncated_normal_onesided(mean, sd, positive_side, rng: RngStream):
    """Exact draw from N(mean, sd^2) restricted to (0, ∞) or (-∞, 0).

    ``positive_side`` selects the support. Vectorized over ``mean`` and
    ``positive_side``. Mild truncation uses the inverse CDF of the retained
    tail; when the truncation point lies more than 4 sd into the tail an
    exponential-proposal rejection sampler is used instead.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if np.any(sd <= 0):
        raise ParameterError("sd must be positive")
    scalar = mean.ndim == 0 and sd.ndim == 0 and np.ndim(positive_side) == 0
    positive = np.atleast_1d(np.asarray(positive_side, dtype=bool))
    mean, sd, positive = np.broadcast_arrays(
        np.atleast_1d(mean), np.atleast_1d(sd), positive
    )
    # reduce to standard-normal lower truncation at a: draw Z | Z > a
    sign = np.where(positive, 1.0, -1.0)
    a = -sign * mean / sd
    z = np.empty(a.shape)
    deep = a > _TRUNC_TAIL_SWITCH
    mild = ~deep
    if np.any(mild):
        am = a[mild]
        tail = ndtr(-am)  # P(Z > a), accurate for a <= 4
        u = rng.gen.random(am.shape)
        while np.any(u == 0.0):  # keep the support open
            u[u == 0.0] = rng.gen.random(int((u == 0.0).sum()))
        z[mild] = -ndtri(u * tail)
    if np.any(deep):
        z[deep] = _robert_tail(a[deep], rng)
    out = sign * z * sd + mean
    return float(out[0]) if scalar else out


def _robert_tail(a: np.ndarray, rng: RngStream) -> np.ndarray:
    """Z | Z > a for large a via shifted-exponential rejection (Robert 1995)."""
    alpha = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty(a.shape)
    todo = np.ones(a.shape, dtype=bool)
    while np.any(todo):
        m = int(todo.sum())
        aa = a[todo]
        al = alpha[todo]
        z = aa + rng.gen.exponential(1.0, size=m) / al
        accept = (rng.gen.random(m) <= np.exp(-0.5 * (z - al) ** 2)) & (z > aa)
        idx = np.flatnonzero(todo)[accept]
        out.flat[idx] = z[accept]
        todo.flat[idx] = False
    return out


def sample_inverse_gamma(shape, scale, rng: RngStream):
    """Draw X with 1/X ~ Gamma(shape, rate=scale); density ∝ x^{-shape-1} e^{-scale/x}."""
    if np.any(np.asarray(shape) <= 0) or np.any(np.asarray(scale) <= 0):
        raise ParameterError("inverse gamma requires shape > 0 and scale > 0")
    g = rng.gen.gamma(shape, 1.0 / np.asarray(scale, dtype=float))
    return 1.0 / g


def std_normal_quantile(p):
    """Standard normal quantile for p in (0,1); rational approximation plus one Newton step."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ParameterError("quantile requires p in (0, 1)")
    x = ndtri(p_arr)
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    # one monotone-safe Newton refinement; skip where the density underflows
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(pdf > 1e-300, (ndtr(x) - p_arr) / pdf, 0.0)
    return x - step
