"""Reversible jump sampler for probit regression with spike-and-slab selection.

A model is an inclusion vector k over the r predictors; its parameter block
is the intercept followed by the included coefficients in increasing index
order. The within-model move is the classic truncated-normal data
augmentation sweep; birth/death moves flip one inclusion indicator with a
1-D Laplace-approximation normal proposal for the new coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from . import rj, textio
from .errors import ParameterError, TraceParseError, require_finite
from .rng import RngStream, precision_noise, precision_solve, sample_truncated_normal_onesided
from .uq import Trace

__all__ = [
    "ProbitData",
    "ProbitState",
    "log_unnorm_posterior",
    "da_update",
    "mode_and_curvature",
    "move_probs_spike_slab",
    "propose_birth",
    "propose_death",
    "rj_step",
    "load_spambase",
    "initial_state",
    "run_probit_chain",
]

@dataclass
class ProbitData:
    """Binary responses, predictors and the spike-and-slab hyperparameters."""

    y: np.ndarray
    x: np.ndarray
    sigma: float
    p_slab: float
    _x_full: np.ndarray = field(init=False, repr=False)
    _positive: np.ndarray = field(init=False, repr=False)
    _sign: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise ParameterError("y must pair with the rows of x")
        if not np.all(np.isin(self.y, (0, 1))):
            raise ParameterError("responses must be 0/1")
        require_finite("x", self.x)
        if self.y.shape[0] < 1 or self.x.shape[1] < 1:
            raise ParameterError("need at least one observation and one predictor")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("prior scale sigma must be positive and finite")
        if not 0.0 < self.p_slab < 1.0:
            raise ParameterError("spike-and-slab weight must lie in (0, 1)")
        self.y = self.y.astype(np.int8)
        self._positive = self.y == 1
        # +1 / -1 by response: the likelihood is sum_i log Phi(sign_i * mu_i)
        self._sign = np.where(self._positive, 1.0, -1.0)
        # design with intercept column; model designs are column subsets,
        # stored column-major so that taking them copies contiguous columns
        self._x_full = np.asfortranarray(np.column_stack([np.ones(self.x.shape[0]), self.x]))
        self._gram = self._x_full.T @ self._x_full

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def r(self) -> int:
        return self.x.shape[1]


@dataclass
class ProbitState:
    """Inclusion vector k and coefficient block z = (intercept, included coefs).

    Included coefficients are stored in increasing predictor-index order;
    ``logpost`` caches the log posterior of this exact state, filled lazily.
    """

    k: np.ndarray
    z: np.ndarray
    logpost: float | None = field(default=None, repr=False, compare=False)

    def validate(self):
        k = np.asarray(self.k)
        if not np.all(np.isin(k, (0, 1))):
            raise ParameterError("inclusion indicators must be 0/1")
        if np.asarray(self.z).shape != (int(k.sum()) + 1,):
            raise ParameterError("z must hold the intercept plus one value per inclusion")
        return self

    @property
    def size(self) -> int:
        return int(self.k.sum())


def _columns(state_k: np.ndarray) -> np.ndarray:
    """Design column indices for a model: intercept, then included predictors."""
    return np.concatenate([[0], np.flatnonzero(state_k) + 1])


def log_unnorm_posterior(data: ProbitData, state: ProbitState) -> float:
    """Log spike-and-slab posterior density of (k, z), up to the constant."""
    size = state.size
    cols = _columns(state.k)
    mu = data._x_full[:, cols] @ state.z
    loglik = float(log_ndtr(data._sign * mu).sum())
    log_prior = (
        size * math.log(data.p_slab)
        - (size + 1) * (0.5 * rj.LOG_2PI + math.log(data.sigma))
        - float(state.z @ state.z) / (2.0 * data.sigma**2)
    )
    return loglik + log_prior


def da_update(data: ProbitData, state: ProbitState, rng: RngStream) -> ProbitState:
    """One truncated-normal data augmentation sweep at fixed model k.

    Latent u_i ~ N(x_i*(k)' z, 1) truncated to the side dictated by y_i,
    then z' from its Gaussian conditional with precision X(k)'X(k) +
    I/sigma^2.
    """
    cols = _columns(state.k)
    x_k = data._x_full[:, cols]
    mu = x_k @ state.z
    u = sample_truncated_normal_onesided(mu, 1.0, data._positive, rng)
    d = cols.shape[0]
    M = data._gram[np.ix_(cols, cols)]  # fancy indexing copies
    M.flat[:: d + 1] += 1.0 / data.sigma**2
    L, mean = precision_solve(M, x_k.T @ u)
    z_new = mean + precision_noise(L, rng.gen.standard_normal(d))
    return ProbitState(k=state.k, z=z_new)


def mode_and_curvature(
    data: ProbitData, k_new: np.ndarray, z_partial: np.ndarray, j: int
) -> tuple[float, float]:
    """Laplace-approximation parameters of the proposal for coefficient j.

    Maximizes the log posterior of model ``k_new`` over the single
    coefficient ``j`` with every other coordinate held at ``z_partial``
    (Newton with analytic derivatives; the objective is strictly concave).
    Returns (mode, variance) with variance the inverse negative curvature
    at the mode.
    """
    k_new = np.asarray(k_new)
    if k_new[j] != 1:
        raise ParameterError("index j must be included in k_new")
    cols = _columns(k_new)
    pos = int(np.searchsorted(np.flatnonzero(k_new), j)) + 1
    base = data._x_full[:, np.delete(cols, pos)] @ z_partial
    # sign-flipped predictors: t = sign * (base + xj * b), exactly
    sbase = data._sign * base
    xs = data._sign * data._x_full[:, j + 1]
    xs2 = xs * xs
    prior_prec = 1.0 / data.sigma**2

    def derivs(b):
        t = sbase + xs * b
        log_phi = -0.5 * (rj.LOG_2PI + t * t)
        inv_mills = np.exp(log_phi - log_ndtr(t))
        grad = float(xs @ inv_mills) - b * prior_prec
        curv = -float(xs2 @ (inv_mills * (inv_mills + t))) - prior_prec
        return grad, curv

    b = 0.0
    for _ in range(50):
        grad, curv = derivs(b)
        if abs(grad) < 1e-10:
            # converged: the curvature at b is already in hand
            return float(b), float(-1.0 / curv)
        b = b + (-grad / curv)
        if not np.isfinite(b):
            break
    b = _bisect_gradient(derivs)
    curv = derivs(b)[1]
    return float(b), float(-1.0 / curv)


def _bisect_gradient(derivs, span: float = 1.0) -> float:
    """Fallback root bracket and bisection on the concave gradient."""
    lo, hi = -span, span
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


def move_probs_spike_slab(p_slab: float, r: int, size: int) -> tuple[float, float, float]:
    """(q_u, q_b, q_d) for a model with ``size`` included predictors."""
    if not 0 <= size <= r:
        raise ParameterError("size must lie in 0..r")
    q_b = min(1.0, p_slab * (r - size) / (size + 1)) / 3.0
    q_d = min(1.0, size / (p_slab * (r - size + 1))) / 3.0
    return 1.0 - q_b - q_d, q_b, q_d


def propose_birth(data: ProbitData, state: ProbitState, rng: RngStream):
    """Include a uniformly chosen excluded predictor; returns (proposal, log_q)."""
    r, size = data.r, state.size
    excluded = np.flatnonzero(state.k == 0)
    j = int(excluded[rng.gen.integers(excluded.shape[0])])
    k_new = _flip(state.k, j, 1)
    mean, var = mode_and_curvature(data, k_new, state.z, j)
    b = mean + math.sqrt(var) * rng.gen.standard_normal()
    pos = int(np.searchsorted(np.flatnonzero(k_new), j)) + 1
    proposal = ProbitState(k=k_new, z=np.insert(state.z, pos, b))
    q_b = move_probs_spike_slab(data.p_slab, r, size)[1]
    q_d_new = move_probs_spike_slab(data.p_slab, r, size + 1)[2]
    log_q = math.log(q_d_new) - math.log(size + 1) - math.log(q_b) + math.log(r - size)
    return proposal, log_q - rj.log_normal_pdf(b, mean, var)


def propose_death(data: ProbitData, state: ProbitState, rng: RngStream):
    """Exclude a uniformly chosen included predictor; returns (proposal, log_q)."""
    r, size = data.r, state.size
    included = np.flatnonzero(state.k == 1)
    j = int(included[rng.gen.integers(included.shape[0])])
    pos = int(np.searchsorted(included, j)) + 1
    proposal = ProbitState(k=_flip(state.k, j, 0), z=np.delete(state.z, pos))
    mean, var = mode_and_curvature(data, state.k, proposal.z, j)
    q_b_new = move_probs_spike_slab(data.p_slab, r, size - 1)[1]
    q_d = move_probs_spike_slab(data.p_slab, r, size)[2]
    log_q = math.log(q_b_new) - math.log(r - size + 1) - math.log(q_d) + math.log(size)
    return proposal, log_q + rj.log_normal_pdf(float(state.z[pos]), mean, var)


def rj_step(data: ProbitData, state: ProbitState, rng: RngStream) -> ProbitState:
    """One reversible jump transition: update, birth, or death."""
    q_u, q_b, _ = move_probs_spike_slab(data.p_slab, data.r, state.size)
    return rj.step(
        data, state, rng, q_u, q_b, da_update, propose_birth, propose_death, log_unnorm_posterior
    )


def _flip(k: np.ndarray, j: int, value: int) -> np.ndarray:
    out = k.copy()
    out[j] = value
    return out


def initial_state(data: ProbitData) -> ProbitState:
    return ProbitState(k=np.zeros(data.r, dtype=np.int8), z=np.zeros(1))


def run_probit_chain(data: ProbitData, n: int, rng: RngStream, burn_in: int = 0) -> Trace:
    """Run the reversible jump chain recording the r inclusion indicators."""
    f_values = rj.run_chain(
        lambda state: rj_step(data, state, rng),
        initial_state(data).validate(), n, burn_in, lambda state: state.k, data.r,
    )
    return Trace(f_values=f_values, meta={"sampler_id": "probit_rj", "seed": rng.seed})


def load_spambase(
    path, sigma: float = 1.0, p_slab: float = 0.5, standardize: bool = True
) -> ProbitData:
    """Parse the 57-feature comma-separated spam dataset (label last).

    ``standardize`` (default on) centers every feature column and scales it
    to unit variance; the raw attribute scales differ by orders of
    magnitude. Ragged rows, non-finite fields or non-binary labels raise with
    the line number.
    """
    _, records = textio.read_records(path)
    if not records:
        raise TraceParseError("empty dataset file")
    width = records[0][1].count(",") + 1
    if width < 2:
        raise TraceParseError("need at least one feature and a label", line=records[0][0])
    rows = textio.table(records, width, "feature", ",")
    labels = rows[:, -1]
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise TraceParseError(f"non-binary label {labels[bad[0]]:g}", line=records[bad[0]][0])
    y = labels.astype(int)
    x = rows[:, :-1].copy()
    if standardize:
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
        if np.any(sd == 0):
            bad = int(np.flatnonzero(sd == 0)[0])
            raise TraceParseError(f"feature column {bad} is constant; cannot standardize")
        x = (x - mean) / sd
    return ProbitData(y=y, x=x, sigma=sigma, p_slab=p_slab)
