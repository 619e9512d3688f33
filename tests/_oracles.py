"""Independent reference computations used by the tests.

Everything here is deliberately dumb and slow: quadrature of densities,
truncated series, tensor-grid integration, brute-force Gaussian
conditioning. None of it shares code with the sampled/closed-form paths it
checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import log_ndtr


def quadrature_cdf(density, lo: float, hi: float, n_grid: int = 200_001):
    """Normalized CDF of a density on [lo, hi] via fine trapezoid integration.

    Returns a callable interpolating the CDF; accuracy is limited by the
    grid, which is ample for Kolmogorov-Smirnov use.
    """
    xs = np.linspace(lo, hi, n_grid)
    ys = density(xs)
    cum = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) * 0.5 * np.diff(xs))])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(x, xs, cum)

    return cdf


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| against a callable CDF."""
    s = np.sort(sample)
    n = s.shape[0]
    f = cdf(s)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return max(d_plus, d_minus)


def inverse_gaussian_density(mu: float, lam: float):
    def density(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        out[pos] = np.sqrt(lam / (2 * np.pi * up**3)) * np.exp(
            -lam * (up - mu) ** 2 / (2 * mu**2 * up)
        )
        return out

    return density


def onesided_truncnorm_density(mean: float, sd: float, positive: bool):
    def density(z):
        z = np.asarray(z, dtype=float)
        out = np.exp(-0.5 * ((z - mean) / sd) ** 2)
        if positive:
            out = np.where(z > 0, out, 0.0)
        else:
            out = np.where(z < 0, out, 0.0)
        return out

    return density


def inverse_gamma_density(shape: float, scale: float):
    def density(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = xp ** (-shape - 1.0) * np.exp(-scale / xp)
        return out

    return density


def mvn_rectangle_grid(lower, upper, cov, n_grid: int = 161) -> float:
    """Tensor-grid trapezoid integration of the MVN density over a rectangle."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    cov = np.asarray(cov, dtype=float)
    m = lower.shape[0]
    inv = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2 * np.pi) ** m * np.linalg.det(cov))
    axes = [np.linspace(lower[i], upper[i], n_grid) for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    vals = norm * np.exp(-0.5 * np.einsum("ij,jk,ik->i", pts, inv, pts))
    vals = vals.reshape([n_grid] * m)
    for i in range(m):
        h = (upper[i] - lower[i]) / (n_grid - 1)
        w = np.full(n_grid, h)
        w[0] = w[-1] = h / 2
        vals = np.tensordot(vals, w, axes=([0], [0]))
    return float(vals)


def truncated_autocov_series(P, pi, f, t_max: int = 10_000) -> np.ndarray:
    """Asymptotic covariance by direct summation of the autocovariance series."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape[0] != P.shape[0]:
        f = f.T
    fbar = f - pi @ f
    d = fbar.shape[1]
    sigma = fbar.T @ (pi[:, None] * fbar)
    pt_f = fbar.copy()
    for _ in range(t_max):
        pt_f = P @ pt_f
        cross = fbar.T @ (pi[:, None] * pt_f)
        sigma = sigma + cross + cross.T
    return sigma


def ar_design(data, k: int) -> np.ndarray:
    """N x (p+k) AR design with rows (x_i, y_{i-1}, ..., y_{i-k}), built row by row."""
    series = list(data.y_start) + list(data.y)  # series[k_max + i] is y_i
    rows = [
        list(data.x[i]) + [series[data.k_max + i - j] for j in range(1, k + 1)]
        for i in range(data.n_obs)
    ]
    return np.array(rows, dtype=float).reshape(data.n_obs, data.p + k)


def sinh_panel_gauss_legendre(lo, hi, cuts, per_panel, center, scale, order=16):
    """Composite Gauss-Legendre rule in t, x = center + scale sinh(t), one sub-panel at a time."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    edges = [math.asinh((v - center) / scale) for v in [lo, *sorted(c for c in cuts if lo < c < hi), hi]]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, per_panel + 1)
        for aa, bb in zip(sub[:-1], sub[1:]):
            t = 0.5 * (bb - aa) * pts + 0.5 * (aa + bb)
            nodes.append(center + scale * np.sinh(t))
            weights.append(0.5 * (bb - aa) * wts * scale * np.cosh(t))
    return np.concatenate(nodes), np.concatenate(weights)


def gaussian_conditional_1d(mean, cov, index: int, values_rest):
    """Mean/variance of one coordinate of a Gaussian given all the others."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = mean.shape[0]
    rest = [i for i in range(d) if i != index]
    s_rr = cov[np.ix_(rest, rest)]
    s_ir = cov[index, rest]
    dev = np.asarray(values_rest, dtype=float) - mean[rest]
    sol = np.linalg.solve(s_rr, dev)
    cond_mean = mean[index] + float(s_ir @ sol)
    cond_var = cov[index, index] - float(s_ir @ np.linalg.solve(s_rr, s_ir))
    return cond_mean, cond_var


def probit_model_log_evidence(data, k, nodes: int = 24) -> float:
    """Log integral of the spike-and-slab probit density over a model's block.

    Mode-centered adapted tensor Gauss-Hermite; the integrand is log-concave
    so the Newton mode search converges and the quadrature is rapidly exact.
    """
    k = np.asarray(k, dtype=np.int8)
    d = int(k.sum()) + 1
    cols = np.concatenate([[0], np.flatnonzero(k) + 1])
    x_design = data._x_full[:, cols]
    sign = np.where(data.y == 1, 1.0, -1.0)
    x_signed = x_design * sign[:, None]
    prior_prec = 1.0 / data.sigma**2
    size = int(k.sum())
    log_prior_const = size * math.log(data.p_slab) - (size + 1) * (
        0.5 * math.log(2 * math.pi) + math.log(data.sigma)
    )

    def logpost(z):
        t = x_signed @ z
        return float(log_ndtr(t).sum()) + log_prior_const - float(z @ z) * prior_prec / 2

    def grad_hess(z):
        t = x_signed @ z
        lp = -0.5 * (math.log(2 * math.pi) + t * t)
        inv_mills = np.exp(lp - log_ndtr(t))
        g = x_signed.T @ inv_mills - prior_prec * z
        w = inv_mills * (inv_mills + t)
        hess = -(x_signed * w[:, None]).T @ x_signed - prior_prec * np.eye(d)
        return g, hess

    z = np.zeros(d)
    for _ in range(100):
        g, hess = grad_hess(z)
        z = z + np.linalg.solve(hess, -g)
        if np.abs(g).max() < 1e-11:
            break
    _, hess = grad_hess(z)
    cov = np.linalg.inv(-hess)
    a_factor = np.linalg.cholesky(cov)
    xg, wg = np.polynomial.hermite.hermgauss(nodes)
    idx = np.array(list(itertools.product(*[range(nodes)] * d)))
    grids = xg[idx]
    logw = np.log(wg)[idx].sum(axis=1)
    pts = z[None, :] + math.sqrt(2.0) * (grids @ a_factor.T)
    vals = np.array([logpost(p) for p in pts])
    expo = vals + (grids * grids).sum(axis=1) + logw
    mx = expo.max()
    total = math.log(np.exp(expo - mx).sum()) + mx
    return total + d * 0.5 * math.log(2.0) + math.log(np.linalg.det(a_factor))


def probit_model_posterior(data, nodes: int = 24) -> dict:
    """Posterior probability of every inclusion pattern via evidence quadrature."""
    r = data.r
    models = list(itertools.product([0, 1], repeat=r))
    log_ev = np.array(
        [probit_model_log_evidence(data, np.array(m), nodes=nodes) for m in models]
    )
    w = np.exp(log_ev - log_ev.max())
    w /= w.sum()
    return {m: w[i] for i, m in enumerate(models)}


def probit_log_posterior_reference(data, k, z) -> float:
    """The spike-and-slab probit log posterior with log_ndtr on both branches.

    A verbatim copy of the original ``probit.log_unnorm_posterior``: it
    evaluates log Phi(mu) and log Phi(-mu) everywhere and picks by response.
    """
    k = np.asarray(k)
    size = int(k.sum())
    cols = np.concatenate([[0], np.flatnonzero(k) + 1])
    mu = data._x_full[:, cols] @ z
    loglik = float(np.where(data.y == 1, log_ndtr(mu), log_ndtr(-mu)).sum())
    log_prior = (
        size * math.log(data.p_slab)
        - (size + 1) * (0.5 * math.log(2.0 * math.pi) + math.log(data.sigma))
        - float(z @ z) / (2.0 * data.sigma**2)
    )
    return loglik + log_prior


def probit_mode_reference(data, k_new, z_partial, j: int) -> tuple[float, float]:
    """Laplace (mode, variance) for coefficient j, as originally computed.

    A verbatim copy of the original ``probit.mode_and_curvature``: the
    linear predictor runs over the zero-padded full design, the sign flip is
    applied inside every derivative evaluation, and the converged point is
    evaluated once more for its curvature.
    """
    k_new = np.asarray(k_new)
    cols = np.concatenate([[0], np.flatnonzero(k_new) + 1])
    pos = int(np.searchsorted(np.flatnonzero(k_new), j)) + 1
    z_full = np.zeros(data.r + 1)
    z_full[np.delete(cols, pos)] = z_partial
    base = data._x_full @ z_full
    xj = data._x_full[:, j + 1]
    sign = np.where(data.y == 1, 1.0, -1.0)
    xs = xj * sign
    prior_prec = 1.0 / data.sigma**2
    log_2pi = math.log(2.0 * math.pi)

    def derivs(b):
        t = sign * (base + xj * b)
        log_phi = -0.5 * (log_2pi + t * t)
        inv_mills = np.exp(log_phi - log_ndtr(t))
        grad = float(xs @ inv_mills) - b * prior_prec
        curv = -float((xs * xs) @ (inv_mills * (inv_mills + t))) - prior_prec
        return grad, curv

    def bisect():
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if derivs(lo)[0] > 0 and derivs(hi)[0] < 0:
                break
            lo *= 2.0
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = derivs(mid)[0]
            if abs(g) < 1e-10:
                return mid
            if g > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    b = 0.0
    for _ in range(50):
        grad, curv = derivs(b)
        if abs(grad) < 1e-10:
            break
        step = -grad / curv
        b = b + step
        if not np.isfinite(b):
            b = bisect()
            break
    else:
        b = bisect()
    grad, curv = derivs(b)
    return float(b), float(-1.0 / curv)


def ar_gibbs_reference(data, state, rng):
    """The d = p + k > 2 sweep of ``ar_laplace.gibbs_update`` as first written.

    Its linear algebra is verbatim: ``np.linalg.cholesky`` and one
    ``np.linalg.solve`` per triangular system. The auxiliary scales come from
    the same ``rng._ig_draws``, because only the Gaussian step is under test.
    Returns (u, tau, theta) with theta = (beta, alpha).
    """
    from transjump.rng import _ig_draws

    n, p, k = data.n_obs, data.p, state.k
    d = p + k
    W = ar_design(data, k)
    theta = np.concatenate([state.beta, state.alpha])
    r = data.y - W @ theta
    abs_r = np.maximum(np.abs(r), 1e-300)
    mu = math.sqrt(state.tau) / (2.0 * abs_r)
    u = _ig_draws(mu, 0.25, rng.gen)

    prior_prec = 1.0 / data.sigma**2
    uy = u * data.y
    yqy = float(data.y @ uy)
    wq = W.T * u
    M = wq @ W
    M[np.arange(d), np.arange(d)] += prior_prec
    L = np.linalg.cholesky(M)
    wqy = wq @ data.y
    half = np.linalg.solve(L, wqy)
    mean = np.linalg.solve(L.T, half)
    scale = 0.5 * max(yqy - float(wqy @ mean), 1e-300)
    tau = 1.0 / rng.gen.gamma(0.5 * n, 1.0 / scale)
    z = rng.gen.standard_normal(d)
    dev = np.linalg.solve(L.T, z)
    theta_new = mean + math.sqrt(tau) * dev
    return u, float(tau), theta_new


def probit_da_reference(data, k, z, rng):
    """``probit.da_update`` as first written, with its ``np.linalg`` solves verbatim.

    The latent draw uses the same ``rng.sample_truncated_normal_onesided``,
    because only the Gaussian step is under test. Returns the new block z.
    """
    from transjump.rng import sample_truncated_normal_onesided

    cols = np.concatenate([[0], np.flatnonzero(k) + 1])
    x_k = data._x_full[:, cols]
    mu = x_k @ z
    u = sample_truncated_normal_onesided(mu, 1.0, data.y == 1, rng)
    d = cols.shape[0]
    M = data._gram[np.ix_(cols, cols)].copy()
    M[np.arange(d), np.arange(d)] += 1.0 / data.sigma**2
    L = np.linalg.cholesky(M)
    b = x_k.T @ u
    mean = np.linalg.solve(L.T, np.linalg.solve(L, b))
    return mean + np.linalg.solve(L.T, rng.gen.standard_normal(d))


def ig_draws_reference(mu, lam, gen) -> np.ndarray:
    """``rng._ig_draws`` as first written: a copy of x1, then fancy-indexed fills.

    A verbatim copy of the original core, kept to check the vectorized
    ``np.where`` form bit for bit.
    """
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
    else:
        t = 1.0 + 0.5 * (w + np.sqrt(w * (4.0 + w)))
        x1 = mu / t
    pick_first = gen.random(mu.shape) <= mu / (mu + x1)
    big = ~pick_first
    if big.any():
        out = x1.copy()
        out[big] = np.where(huge[big], mu[big], mu[big] * t[big])
        return out
    return x1


def ar_rj_step_reference(data, state, probs, rng):
    """``ar_laplace.rj_step`` as first written: the jump ratio from two full posteriors.

    Same draws in the same order (move uniform, the new coefficient's normal,
    acceptance uniform); the log acceptance ratio is the difference of the
    augmented log posteriors plus the move-selection and proposal terms.
    """
    from transjump.ar_laplace import ARState, birth_proposal_params, gibbs_update
    from transjump.ar_laplace import log_unnorm_posterior as log_post

    def log_normal_pdf(x, mean, var):
        return -0.5 * (math.log(2.0 * math.pi) + math.log(var)) - 0.5 * (x - mean) ** 2 / var

    k = state.k
    move = rng.gen.random()
    if move < probs.q_u[k]:
        return gibbs_update(data, state, rng)
    if move < probs.q_u[k] + probs.q_b[k]:
        mean, var = birth_proposal_params(data, state)
        a_new = mean + math.sqrt(var) * rng.gen.standard_normal()
        proposal = ARState(k=k + 1, alpha=np.append(state.alpha, a_new), beta=state.beta,
                           tau=state.tau, u=state.u)
        log_q = math.log(probs.q_d[k + 1]) - math.log(probs.q_b[k])
        log_q -= log_normal_pdf(a_new, mean, var)
    else:
        proposal = ARState(k=k - 1, alpha=state.alpha[:-1], beta=state.beta, tau=state.tau,
                           u=state.u)
        mean, var = birth_proposal_params(data, proposal)
        log_q = math.log(probs.q_b[k - 1]) - math.log(probs.q_d[k])
        log_q += log_normal_pdf(float(state.alpha[-1]), mean, var)
    log_ratio = log_post(data, proposal) - log_post(data, state) + log_q
    return proposal if math.log(rng.gen.random()) < log_ratio else state
