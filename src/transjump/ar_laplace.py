"""Reversible jump sampler for Bayesian autoregression with Laplace errors.

The model order k ranges over {0..k_max}; conditional on k the augmented
posterior (auxiliary inverse-Gaussian scales u_i) admits a two-block Gibbs
sweep, and birth/death moves append or delete the highest-lag coefficient
with a proposal equal to its exact Gaussian full conditional. Their log
acceptance ratio is then the closed-form ratio of the marginals with that
coefficient integrated out.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rj, textio
from .errors import GenerationError, NumericError, ParameterError, TraceParseError, require_finite
from .rng import RngStream, _ig_draws, precision_noise, precision_solve
from .uq import Trace

__all__ = [
    "ARData",
    "ARState",
    "ARMoveProbs",
    "ARSimConfig",
    "ToyPosterior",
    "check_p1",
    "log_unnorm_posterior",
    "gibbs_update",
    "move_probs_green",
    "birth_proposal_params",
    "propose_birth",
    "propose_death",
    "rj_step",
    "simulate_ar_dataset",
    "toy_quadrature_oracle",
    "truncated_poisson_pmf",
    "toy_test_values",
    "model_indicator_values",
    "initial_state",
    "run_ar_chain",
    "save_ar_dataset",
    "load_ar_dataset",
]

_RESID_CLAMP = 1e-300  # measure-zero exact-zero residuals, keeps mu_i finite
_TOY_REL_TOL = 1e-6
_TOY_MAX_LEVEL = 4


@dataclass
class ARData:
    """Observed series, predictors, starting lags and prior settings.

    ``y_start`` holds (y_{-k_max+1}, ..., y_0) in chronological order. The
    full-rank and non-containment condition on every design W(k) is checked
    at construction; it guarantees a proper posterior.
    """

    y: np.ndarray
    x: np.ndarray
    y_start: np.ndarray
    k_max: int
    sigma: float
    f_k: np.ndarray
    _design_full: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y_start = np.asarray(self.y_start, dtype=float)
        self.f_k = np.asarray(self.f_k, dtype=float)
        n = self.y.shape[0]
        if self.x.shape[0] != n:
            raise ParameterError("x must have one row per observation")
        if self.k_max < 0:
            raise ParameterError("k_max must be non-negative")
        if self.y_start.shape != (self.k_max,):
            raise ParameterError(f"y_start must have length k_max={self.k_max}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("prior scale sigma must be positive and finite")
        if self.f_k.shape != (self.k_max + 1,) or np.any(self.f_k <= 0):
            raise ParameterError("f_k must be positive on 0..k_max")
        if abs(self.f_k.sum() - 1.0) > 1e-9:
            raise ParameterError("f_k must sum to 1")
        for name in ("y", "x", "y_start"):
            require_finite(name, getattr(self, name))
        lagged = np.concatenate([self.y_start, self.y])
        lags = (
            np.column_stack(
                [lagged[self.k_max - j : self.k_max - j + n] for j in range(1, self.k_max + 1)]
            )
            if self.k_max > 0
            else np.zeros((n, 0))
        )
        self._design_full = np.column_stack([self.x, lags])
        check_p1(self)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def check_p1(data: ARData):
    """Full column rank of every W(k), with y outside its column space.

    Each W(k) and [W(k), y] is a column subset of [W(k_max), y], so one rank
    test decides every order; the loop runs only to name the failing order.
    """
    full = np.column_stack([data._design_full, data.y])
    if np.linalg.matrix_rank(full) == full.shape[1]:
        return
    for k in range(data.k_max + 1):
        W = data._design_full[:, : data.p + k]
        cols = W.shape[1]
        if np.linalg.matrix_rank(W) < cols:
            raise ParameterError(f"W({k}) is column-rank deficient")
        if np.linalg.matrix_rank(np.column_stack([W, data.y])) <= cols:
            raise ParameterError(f"y lies in the column space of W({k})")


@dataclass
class ARState:
    """Sampler state (k, alpha, beta, tau, u); treat as immutable."""

    k: int
    alpha: np.ndarray
    beta: np.ndarray
    tau: float
    u: np.ndarray

    def validate(self):
        if np.asarray(self.alpha).shape != (self.k,):
            raise ParameterError("alpha length must equal the model order k")
        if self.tau <= 0 or np.any(np.asarray(self.u) <= 0):
            raise ParameterError("tau and every u_i must be positive")
        return self


@dataclass
class ARMoveProbs:
    q_u: np.ndarray
    q_b: np.ndarray
    q_d: np.ndarray

    def __post_init__(self):
        for name in ("q_u", "q_b", "q_d"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        s = self.q_u + self.q_b + self.q_d
        if np.any(np.abs(s - 1.0) > 1e-12):
            raise ParameterError("move probabilities must sum to one per model")
        if self.q_b[-1] != 0.0 or self.q_d[0] != 0.0:
            raise ParameterError("birth at k_max and death at 0 must have probability 0")
        if np.any(self.q_u <= 0.0):
            raise ParameterError("update probability must be positive for every k")


def move_probs_green(f_k: np.ndarray) -> ARMoveProbs:
    """Birth/death selection probabilities (1/3) min{1, prior ratio}.

    Satisfies f_k(k+1) q_d(k+1) / (f_k(k) q_b(k)) = 1 for every interior k,
    which cancels the prior-times-selection factor in the acceptance ratios.
    """
    f_k = np.asarray(f_k, dtype=float)
    if np.any(f_k <= 0):
        raise ParameterError("f_k must be positive")
    kk = f_k.shape[0]
    q_b = np.zeros(kk)
    q_d = np.zeros(kk)
    if kk > 1:
        q_b[: kk - 1] = np.minimum(1.0, f_k[1:] / f_k[: kk - 1]) / 3.0
        q_d[1:] = np.minimum(1.0, f_k[: kk - 1] / f_k[1:]) / 3.0
    return ARMoveProbs(q_u=1.0 - q_b - q_d, q_b=q_b, q_d=q_d)


def truncated_poisson_pmf(mean: float, k_max: int) -> np.ndarray:
    """Poisson(mean) restricted to {0..k_max} and renormalized."""
    if mean <= 0:
        raise ParameterError("poisson mean must be positive")
    logs = np.array([k * math.log(mean) - math.lgamma(k + 1) for k in range(k_max + 1)])
    w = np.exp(logs - logs.max())
    return w / w.sum()


def log_unnorm_posterior(data: ARData, state: ARState) -> float:
    """Log of the augmented posterior density, up to the global constant."""
    if state.tau <= 0 or np.any(state.u <= 0):
        return -np.inf
    n, p, k = data.n_obs, data.p, state.k
    tau, u = state.tau, state.u
    W = data._design_full[:, : p + k]
    theta = np.concatenate([state.beta, state.alpha])
    r = data.y - W @ theta
    abs_r = np.abs(r)
    sqrt_tau = math.sqrt(tau)
    sum_abs_r = float(abs_r.sum())
    log_fu = (
        -0.5 * n * math.log(8.0 * math.pi)
        - 1.5 * float(np.log(u).sum())
        - float(u @ (r * r)) / (2.0 * tau)
        + sum_abs_r / (2.0 * sqrt_tau)
        - 0.125 * float((1.0 / u).sum())
    )
    log_lik = -n * math.log(4.0) - 0.5 * n * math.log(tau) - sum_abs_r / (2.0 * sqrt_tau)
    log_prior = math.log(data.f_k[k]) - math.log(tau)
    ss = float(theta @ theta)
    dims = p + k
    log_prior += -0.5 * dims * (rj.LOG_2PI + 2.0 * math.log(data.sigma) + math.log(tau)) - ss / (
        2.0 * data.sigma**2 * tau
    )
    return log_fu + log_lik + log_prior


def gibbs_update(data: ARData, state: ARState, rng: RngStream) -> ARState:
    """One sweep of the two-block Gibbs kernel at fixed order k.

    Step 1 refreshes the inverse-Gaussian auxiliaries (mean sqrt(tau)/(2|r_i|),
    shape 1/4); step 2 draws the dispersion from its inverse gamma conditional;
    step 3 draws the coefficient block from its Gaussian conditional. One
    symmetric factorization of W'QW + I/sigma^2 serves the scale, the mean,
    and the covariance draw.
    """
    n, p, k = data.n_obs, data.p, state.k
    d = p + k
    W = data._design_full[:, :d]
    theta = np.concatenate([state.beta, state.alpha])
    r = data.y - W @ theta
    abs_r = np.maximum(np.abs(r), _RESID_CLAMP)
    mu = math.sqrt(state.tau) / (2.0 * abs_r)
    u = _ig_draws(mu, 0.25, rng.gen)

    prior_prec = 1.0 / data.sigma**2
    uy = u * data.y
    yqy = float(data.y @ uy)
    if d == 1:
        w0 = W[:, 0]
        m00 = float(w0 @ (u * w0)) + prior_prec
        b0 = float(w0 @ uy)
        mean0 = b0 / m00
        scale = 0.5 * max(yqy - b0 * mean0, 1e-300)
        tau = 1.0 / rng.gen.gamma(0.5 * n, 1.0 / scale)
        theta_new = np.array([mean0 + math.sqrt(tau / m00) * rng.gen.standard_normal()])
    elif d == 2:
        w0, w1 = W[:, 0], W[:, 1]
        uw0 = u * w0
        m00 = float(w0 @ uw0) + prior_prec
        m01 = float(w1 @ uw0)
        m11 = float(w1 @ (u * w1)) + prior_prec
        b0 = float(w0 @ uy)
        b1 = float(w1 @ uy)
        # 2x2 Cholesky: L = [[l0,0],[l1,l2]]
        l0 = math.sqrt(m00)
        l1 = m01 / l0
        l2 = math.sqrt(m11 - l1 * l1)
        # solve M mean = b
        c0 = b0 / l0
        c1 = (b1 - l1 * c0) / l2
        mean1 = c1 / l2
        mean0 = (c0 - l1 * mean1) / l0
        scale = 0.5 * max(yqy - (b0 * mean0 + b1 * mean1), 1e-300)
        tau = 1.0 / rng.gen.gamma(0.5 * n, 1.0 / scale)
        z = rng.gen.standard_normal(2)
        # dev = L^{-T} z
        dev1 = z[1] / l2
        dev0 = (z[0] - l1 * dev1) / l0
        st = math.sqrt(tau)
        theta_new = np.array([mean0 + st * dev0, mean1 + st * dev1])
    else:
        wq = W.T * u
        M = wq @ W
        M.flat[:: d + 1] += prior_prec
        wqy = wq @ data.y
        L, mean = precision_solve(M, wqy)
        scale = 0.5 * max(yqy - float(wqy @ mean), 1e-300)
        tau = 1.0 / rng.gen.gamma(0.5 * n, 1.0 / scale)
        dev = precision_noise(L, rng.gen.standard_normal(d))
        theta_new = mean + math.sqrt(tau) * dev
    return ARState(k=k, alpha=theta_new[p:], beta=theta_new[:p], tau=float(tau), u=u)


def birth_proposal_params(data: ARData, state: ARState) -> tuple[float, float]:
    """Gaussian full conditional of the appended coefficient a_{k+1}.

    Conditions the model-(k+1) coefficient block on the current values of
    (beta, alpha) and the current (tau, u); returns (mean, variance).
    """
    if state.k >= data.k_max:
        raise ParameterError("no birth move available at k = k_max")
    p, k = data.p, state.k
    W1 = data._design_full[:, : p + k + 1]
    u = state.u
    last = W1[:, -1]
    ulast = u * last
    m_last_last = float(last @ ulast) + 1.0 / data.sigma**2
    theta = np.concatenate([state.beta, state.alpha])
    m_last_rest = ulast @ W1[:, :-1]
    proj = float(ulast @ data.y)
    mean = (proj - float(m_last_rest @ theta)) / m_last_last
    var = state.tau / m_last_last
    return mean, var


def _birth_log_ratio(data: ARData, probs: ARMoveProbs, k: int, mean, var, tau) -> float:
    """Log acceptance ratio of a birth from order k, with a_{k+1} ~ N(mean, var).

    At fixed (tau, u) it does not depend on the drawn a_{k+1}: the |r_i| and
    u terms cancel, leaving the ratio of the two orders' marginals with
    a_{k+1} integrated out (Green 1995; Troughton & Godsill 1998). A death to
    order k has its negative.
    """
    return (
        math.log(data.f_k[k + 1]) - math.log(data.f_k[k])
        + math.log(probs.q_d[k + 1]) - math.log(probs.q_b[k])
        - math.log(data.sigma) - 0.5 * math.log(tau / var) + mean * mean / (2.0 * var)
    )


def propose_birth(data: ARData, state: ARState, rng: RngStream, probs: ARMoveProbs):
    """Append a_{k+1} drawn from its full conditional; returns (proposal, log_ratio)."""
    k = state.k
    mean, var = birth_proposal_params(data, state)
    a_new = mean + math.sqrt(var) * rng.gen.standard_normal()
    proposal = ARState(
        k=k + 1, alpha=np.append(state.alpha, a_new), beta=state.beta, tau=state.tau, u=state.u
    )
    return proposal, _birth_log_ratio(data, probs, k, mean, var, state.tau)


def propose_death(data: ARData, state: ARState, rng: RngStream, probs: ARMoveProbs):
    """Delete a_k, the reverse of :func:`propose_birth`; returns (proposal, log_ratio)."""
    k = state.k
    proposal = ARState(k=k - 1, alpha=state.alpha[:-1], beta=state.beta, tau=state.tau, u=state.u)
    mean, var = birth_proposal_params(data, proposal)
    return proposal, -_birth_log_ratio(data, probs, k - 1, mean, var, state.tau)


def rj_step(data: ARData, state: ARState, probs: ARMoveProbs, rng: RngStream) -> ARState:
    """One reversible jump transition: update (Gibbs), birth, or death."""
    k = state.k
    return rj.step(data, state, rng, probs.q_u[k], probs.q_b[k], gibbs_update,
                   propose_birth, propose_death, probs)


@dataclass
class ARSimConfig:
    """Settings for synthetic dataset generation."""

    n_obs: int
    p: int
    k_max: int
    k_true: int
    alpha_true: np.ndarray
    beta_true: np.ndarray
    tau_true: float
    sigma: float = 1.0
    prior: str = "uniform"  # or "poisson"
    poisson_mean: float = 2.0
    x_scale: float = 1.0


def simulate_ar_dataset(config: ARSimConfig, rng: RngStream) -> ARData:
    """Simulate from the autoregression with Laplace errors (variance 8 tau).

    Errors are drawn as scaled differences of exponentials matching the
    density exp(-|e|/2)/4. The design validity condition is checked on the
    output; predictors are re-drawn on failure, up to 10 attempts.
    """
    if config.tau_true <= 0:
        raise ParameterError("tau_true must be positive")
    if not 0 <= config.k_true <= config.k_max:
        raise ParameterError("k_true must lie in 0..k_max")
    alpha = np.asarray(config.alpha_true, dtype=float)
    beta = np.asarray(config.beta_true, dtype=float)
    if alpha.shape != (config.k_true,) or beta.shape != (config.p,):
        raise ParameterError("alpha_true/beta_true lengths must match k_true/p")
    if config.prior == "uniform":
        f_k = np.full(config.k_max + 1, 1.0 / (config.k_max + 1))
    elif config.prior == "poisson":
        f_k = truncated_poisson_pmf(config.poisson_mean, config.k_max)
    else:
        raise ParameterError(f"unknown prior {config.prior!r}")

    last_err = None
    for _ in range(10):
        x = config.x_scale * rng.gen.standard_normal((config.n_obs, config.p))
        y_start = rng.gen.standard_normal(config.k_max) if config.k_max else np.zeros(0)
        eps = 2.0 * (
            rng.gen.exponential(1.0, config.n_obs) - rng.gen.exponential(1.0, config.n_obs)
        )
        hist = list(y_start[config.k_max - config.k_true :]) if config.k_true else []
        y = np.zeros(config.n_obs)
        for i in range(config.n_obs):
            ar_term = 0.0
            for j in range(config.k_true):
                ar_term += alpha[j] * hist[-1 - j]
            y[i] = ar_term + float(x[i] @ beta) + math.sqrt(config.tau_true) * eps[i]
            if config.k_true:
                hist.append(y[i])
        try:
            return ARData(
                y=y, x=x, y_start=y_start, k_max=config.k_max, sigma=config.sigma, f_k=f_k
            )
        except ParameterError as exc:
            last_err = exc
    raise GenerationError(f"design validity failed after 10 attempts: {last_err}")


@dataclass
class ToyPosterior:
    """Quadrature truth for the k_max = p = 1 toy configuration."""

    p_k0: float
    p_k1: float
    a_mean: float
    a_sd: float
    achieved_tol: float

    def as_h_vector(self) -> np.ndarray:
        return np.array([self.p_k0, self.p_k1, self.a_mean, self.a_sd])


def toy_quadrature_oracle(data: ARData) -> ToyPosterior:
    """Tensor-quadrature evaluation of the un-augmented toy posterior.

    Integrates the original (auxiliary-free) Laplace-likelihood posterior per
    model over (coefficients, log tau). The coefficient integrals use
    Gauss-Legendre panels split exactly at the absolute-residual kink lines,
    so refinement converges fast despite the non-smooth likelihood. Levels
    double the node counts until all four outputs stabilize below 1e-6;
    failure to converge raises, reporting the achieved tolerance.
    """
    if data.k_max != 1 or data.p != 1 or data.n_obs > 5:
        raise ParameterError("oracle supports k_max = p = 1 and N <= 5 only")
    n = data.n_obs
    xcol = np.asarray(data._design_full[:, 0])
    wcol = np.asarray(data._design_full[:, 1])
    y = data.y
    sig2 = data.sigma**2

    # model 0: integrand over (beta, s): N log-likelihood + normal prior + flat log-tau
    def neg0(v):
        beta, s = v
        d = float(np.abs(y - xcol * beta).sum())
        return -(
            -0.5 * n * s
            - 0.5 * math.exp(-0.5 * s) * d
            - 0.5 * (rj.LOG_2PI + math.log(sig2) + s)
            - beta * beta * math.exp(-s) / (2.0 * sig2)
        )

    def neg1(v):
        a, b, s = v
        d = float(np.abs(y - wcol * a - xcol * b).sum())
        return -(
            -0.5 * n * s
            - 0.5 * math.exp(-0.5 * s) * d
            - (rj.LOG_2PI + math.log(sig2) + s)
            - (a * a + b * b) * math.exp(-s) / (2.0 * sig2)
        )

    region0 = _posterior_box(neg0, _toy_start(data, 0))
    region1 = _posterior_box(neg1, _toy_start(data, 1))

    prev = None
    achieved = np.inf
    for level in range(_TOY_MAX_LEVEL + 1):
        log_i0 = _toy_integral_k0(data, region0, level)
        log_i1, a_mean, a_sd = _toy_integral_k1(data, region1, level)
        log_i0 += math.log(data.f_k[0])
        log_i1 += math.log(data.f_k[1])
        p1 = 1.0 / (1.0 + math.exp(log_i0 - log_i1))
        out = np.array([1.0 - p1, p1, a_mean, a_sd])
        if prev is not None:
            achieved = float(np.max(np.abs(out - prev) / np.maximum(np.abs(prev), 1e-3)))
            if achieved < _TOY_REL_TOL:
                return ToyPosterior(
                    p_k0=out[0], p_k1=out[1], a_mean=out[2], a_sd=out[3], achieved_tol=achieved
                )
        prev = out
    raise NumericError(
        f"toy quadrature did not converge: achieved {achieved:.2e} > {_TOY_REL_TOL:.2e}"
    )


def _toy_start(data: ARData, k: int) -> np.ndarray:
    W = data._design_full[:, : 1 + k]
    theta, *_ = np.linalg.lstsq(W, data.y, rcond=None)
    resid = data.y - W @ theta
    s0 = math.log(max(float(np.mean(resid**2)) / 8.0, 1e-4))
    if k == 0:
        return np.array([theta[0], s0])
    return np.array([theta[1], theta[0], s0])


@dataclass
class _MassRegion:
    """Mode-centered integration box with per-axis location/scale."""

    box: list
    mode: np.ndarray
    sds: np.ndarray


def _posterior_box(neg_log_f, x0) -> _MassRegion:
    """Integration region covering the posterior mass.

    Marginal spreads come from the inverse Hessian at the mode (axis
    curvatures alone underestimate the spread of correlated coordinates);
    each face is then pushed outward until the log density there sits at
    least 35 below the peak. Wide tails are fine: downstream quadrature
    grades its panels away from the mode.
    """
    # imported here: scipy.optimize slows every CLI start, and only the toy oracle uses it
    from scipy.optimize import minimize

    res = minimize(
        neg_log_f, x0, method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
    )
    mode = res.x
    d = mode.shape[0]
    f0 = neg_log_f(mode)
    H = np.zeros((d, d))
    hs = [1e-3 * max(1.0, abs(mode[j])) for j in range(d)]
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = hs[i]
        H[i, i] = (neg_log_f(mode + ei) + neg_log_f(mode - ei) - 2.0 * f0) / hs[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = hs[j]
            H[i, j] = H[j, i] = (
                neg_log_f(mode + ei + ej)
                - neg_log_f(mode + ei - ej)
                - neg_log_f(mode - ei + ej)
                + neg_log_f(mode - ei - ej)
            ) / (4.0 * hs[i] * hs[j])
    try:
        cov = np.linalg.inv(H)
        sds = np.sqrt(np.maximum(np.diag(cov), 1e-4))
    except np.linalg.LinAlgError:
        sds = np.array([1.0 / math.sqrt(max(H[j, j], 1e-4)) for j in range(d)])
    lo = [mode[j] - 10.0 * sds[j] - 2.0 for j in range(d)]
    hi = [mode[j] + 10.0 * sds[j] + 2.0 for j in range(d)]
    # expand any face whose density is not yet negligible relative to the peak
    for _ in range(16):
        grew = False
        for j in range(d):
            for side in (0, 1):
                edge = lo[j] if side == 0 else hi[j]
                worst = _max_on_face(neg_log_f, lo, hi, j, edge)
                if worst < f0 + 35.0:
                    pad = 0.5 * (hi[j] - lo[j])
                    if side == 0:
                        lo[j] -= pad
                    else:
                        hi[j] += pad
                    grew = True
        if not grew:
            break
    return _MassRegion(box=list(zip(lo, hi)), mode=mode, sds=sds)


def _max_on_face(neg_log_f, lo, hi, axis, edge, grid: int = 9):
    """Smallest neg-log value (= largest density) on one box face."""
    d = len(lo)
    axes = [np.linspace(lo[j], hi[j], grid) for j in range(d)]
    axes[axis] = np.array([edge])
    best = np.inf
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    for v in pts:
        best = min(best, neg_log_f(v))
    return best


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_gl(lo: float, hi: float, cuts, per_panel: int, center: float, scale: float):
    """16-point Gauss-Legendre nodes/weights on [lo,hi] split at interior cut points.

    The axis is mapped through x = c + s sinh(t) and panels are laid out
    uniformly in t: resolution stays fine near the mode while wide tails cost
    only logarithmically many panels. Cut points (integrand kinks) remain
    panel boundaries, and each panel is split into ``per_panel`` equal parts.
    """
    s = max(scale, 1e-8)
    inner = sorted(c for c in cuts if lo < c < hi)
    edges = np.arcsinh((np.array([lo, *inner, hi]) - center) / s)
    frac = np.arange(per_panel) / per_panel
    sub = np.append((edges[:-1, None] + np.outer(np.diff(edges), frac)).ravel(), edges[-1])
    half = 0.5 * np.diff(sub)[:, None]
    t = (half * _GL_NODES + (sub[:-1, None] + half)).ravel()
    return center + s * np.sinh(t), (half * _GL_WEIGHTS).ravel() * s * np.cosh(t)


def _simpson_nodes(lo: float, hi: float, npts: int):
    xs = np.linspace(lo, hi, npts)
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (hi - lo) / (npts - 1) / 3.0


def _toy_integral_k0(data: ARData, region: _MassRegion, level: int) -> float:
    n = data.n_obs
    xcol = data._design_full[:, 0]
    y = data.y
    sig2 = data.sigma**2
    (b_lo, b_hi), (s_lo, s_hi) = region.box
    cuts = [y[i] / xcol[i] for i in range(n) if abs(xcol[i]) > 1e-12]
    bn, bw = _panel_gl(
        b_lo, b_hi, cuts, per_panel=2 ** (level + 1),
        center=region.mode[0], scale=region.sds[0],
    )
    sn, sw = _simpson_nodes(s_lo, s_hi, 2 ** (level + 7) + 1)
    d_vec = np.abs(y[:, None] - np.outer(xcol, bn)).sum(axis=0)
    q_vec = bn * bn / (2.0 * sig2)
    const = -n * math.log(4.0) - 0.5 * (rj.LOG_2PI + math.log(sig2))
    shift, sums = _scale_mixture_sums(sn, sw, 0.5 * (n + 1), d_vec, q_vec, bw[:, None])
    return const + shift + math.log(sums[0])


def _toy_integral_k1(data: ARData, region: _MassRegion, level: int):
    n = data.n_obs
    xcol = data._design_full[:, 0]
    wcol = data._design_full[:, 1]
    y = data.y
    sig2 = data.sigma**2
    (a_lo, a_hi), (b_lo, b_hi), (s_lo, s_hi) = region.box
    # The alpha-marginal is kinked in beta wherever two residual kink lines
    # w_i a + x_i b = y_i cross; a line with w_i = 0 is itself such a beta,
    # met by every line not parallel to it. Between crossings it is smooth.
    outer_cuts = []
    for i, j in itertools.combinations(range(n), 2):
        det = wcol[i] * xcol[j] - wcol[j] * xcol[i]
        if abs(det) > 1e-12:  # parallel lines never cross
            outer_cuts.append((wcol[i] * y[j] - wcol[j] * y[i]) / det)
    bn, bw = _panel_gl(
        b_lo, b_hi, outer_cuts, per_panel=2 ** (level + 1),
        center=region.mode[1], scale=region.sds[1],
    )
    # per beta column, alpha kinks sit at (y_i - beta x_i)/w_i; panel counts
    # vary per column, so keep everything flat
    kinked = [i for i in range(n) if abs(wcol[i]) > 1e-12]
    columns = [
        _panel_gl(
            a_lo, a_hi, [(y[i] - b * xcol[i]) / wcol[i] for i in kinked],
            per_panel=2 ** (level + 1), center=region.mode[0], scale=region.sds[0],
        )
        for b in bn
    ]
    a_nodes = np.concatenate([an for an, _ in columns])
    a_weights = np.concatenate([aw for _, aw in columns])
    sizes = [an.size for an, _ in columns]
    b_flat = np.repeat(bn, sizes)
    bw_flat = np.repeat(bw, sizes)
    sn, sw = _simpson_nodes(s_lo, s_hi, 2 ** (level + 7) + 1)

    d_grid = np.zeros_like(a_nodes)
    for i in range(n):
        d_grid += np.abs(y[i] - wcol[i] * a_nodes - xcol[i] * b_flat)
    q_grid = (a_nodes**2 + b_flat**2) / (2.0 * sig2)
    const = -n * math.log(4.0) - (rj.LOG_2PI + math.log(sig2))
    col_w = a_weights * bw_flat
    weights = np.stack([col_w, col_w * a_nodes, col_w * a_nodes * a_nodes], axis=1)
    shift, (mass, m1, m2) = _scale_mixture_sums(sn, sw, 0.5 * (n + 2), d_grid, q_grid, weights)
    a_mean = m1 / mass
    a_var = m2 / mass - a_mean * a_mean
    return const + shift + math.log(mass), a_mean, math.sqrt(max(a_var, 0.0))


def _scale_mixture_sums(s_nodes, s_weights, power, d, q, weights):
    """Weighted sums of the toy integrand over log-scale nodes and a coefficient grid.

    Returns ``(shift, sums)`` with ``sums[c]`` equal to exp(-shift) times the
    sum over nodes s and grid points j of
    s_weights[s] * weights[j, c] * exp(-power s - e^{-s/2} d[j] / 2 - e^{-s} q[j]).
    The (node, point) plane is swept in tiles of 8 nodes x 8192 points
    that stay in cache. Each node keeps the running minimum of
    e^{-s/2} d / 2 + e^{-s} q, which marks its largest term so far, and
    rescales its partial sums when that minimum drops, so no term overflows.
    Terms below e^-700 of their node's largest term are raised to e^-700:
    that changes no sum beyond rounding and keeps exp off subnormal numbers.
    """
    rows, cols = 8, 8192
    n_nodes, n_pts = s_nodes.shape[0], d.shape[0]
    half_rate = 0.5 * np.exp(-0.5 * s_nodes)
    rate = np.exp(-s_nodes)
    sums = np.zeros((n_nodes, weights.shape[1]))
    row_log = np.empty(n_nodes)
    e_buf = np.empty((rows, cols))
    t_buf = np.empty((rows, cols))
    for r0 in range(0, n_nodes, rows):
        r1 = min(n_nodes, r0 + rows)
        hr, rt = half_rate[r0:r1, None], rate[r0:r1, None]
        acc = sums[r0:r1]
        low = np.full(r1 - r0, np.inf)
        for c0 in range(0, n_pts, cols):
            c1 = min(n_pts, c0 + cols)
            e, t = e_buf[: r1 - r0, : c1 - c0], t_buf[: r1 - r0, : c1 - c0]
            np.multiply(hr, d[None, c0:c1], out=e)
            np.multiply(rt, q[None, c0:c1], out=t)
            e += t
            new_low = np.minimum(low, e.min(axis=1))
            acc *= np.exp(new_low - low)[:, None]
            low = new_low
            np.subtract(low[:, None], e, out=e)
            np.maximum(e, -700.0, out=e)
            np.exp(e, out=e)
            acc += e @ weights[c0:c1]
        row_log[r0:r1] = np.log(s_weights[r0:r1]) - power * s_nodes[r0:r1] - low
    shift = float(row_log.max())
    return shift, np.exp(row_log - shift) @ sums


def toy_test_values(state: ARState) -> np.ndarray:
    """(1{k=1}, a 1{k=1}, a^2 1{k=1}) for the toy study."""
    if state.k == 1:
        a = float(state.alpha[0])
        return np.array([1.0, a, a * a])
    return np.zeros(3)


def model_indicator_values(state: ARState, k_max: int) -> np.ndarray:
    out = np.zeros(k_max + 1)
    out[state.k] = 1.0
    return out


def initial_state(data: ARData) -> ARState:
    return ARState(
        k=0, alpha=np.zeros(0), beta=np.zeros(data.p), tau=1.0, u=np.ones(data.n_obs)
    )


def run_ar_chain(
    data: ARData, n: int, rng: RngStream, burn_in: int = 0, functions: str = "toy"
) -> Trace:
    """Run the reversible jump chain and record test-function evaluations.

    ``functions`` selects what is logged per step: 'toy' records the three
    toy-study functions, 'model' records the (k_max+1) model indicators.
    """
    if functions == "toy":
        record, d = toy_test_values, 3
    elif functions == "model":
        record, d = functools.partial(model_indicator_values, k_max=data.k_max), data.k_max + 1
    else:
        raise ParameterError(f"unknown function set {functions!r}")
    probs = move_probs_green(data.f_k)
    f_values = rj.run_chain(
        lambda state: rj_step(data, state, probs, rng),
        initial_state(data).validate(), n, burn_in, record, d,
    )
    meta = {"sampler_id": f"ar_laplace_{functions}", "seed": rng.seed}
    return Trace(f_values=f_values, meta=meta)


def save_ar_dataset(data: ARData, path, config_hash: str | None = None):
    """Header 'N p k_max sigma', y_start line, N observation rows, f_k line."""
    lines = [
        f"{data.n_obs} {data.p} {data.k_max} {textio.full(data.sigma)}",
        textio.row(data.y_start),
        *map(textio.row, np.column_stack([data.y, data.x])),
        textio.row(data.f_k),
    ]
    textio.write_text(path, lines, config_hash)


def load_ar_dataset(path) -> ARData:
    _, records = textio.read_records(path)
    if not records:
        raise TraceParseError("empty dataset file")
    lineno, header = records[0]
    parts = header.split()
    if len(parts) != 4:
        raise TraceParseError("expected header 'N p k_max sigma'", line=lineno)
    n, p, k_max = textio.counts(parts[:3], lineno, "header count")
    (sigma,) = textio.floats(parts[3:], lineno, "prior scale")
    # the starting-lag line is blank, so not a record, when k_max = 0
    lag_lines = 1 if k_max else 0
    if len(records) != n + 2 + lag_lines:
        raise TraceParseError(
            f"expected {n + 2 + lag_lines} content lines, found {len(records)}"
        )
    y_start = textio.table(records[1 : 1 + lag_lines], k_max, "starting lag").reshape(-1)
    rows = textio.table(records[1 + lag_lines : -1], p + 1, "observation")
    f_k = textio.table(records[-1:], k_max + 1, "prior weight")[0]
    # contiguous copies: BLAS products on strided views round differently
    return ARData(y=rows[:, 0].copy(), x=rows[:, 1:].copy(), y_start=y_start,
                  k_max=k_max, sigma=sigma, f_k=f_k)
