"""Exact linear-algebra checks of trans-dimensional convergence bounds on finite chains.

A finite trans-dimensional chain is a row-stochastic matrix over an enumerated
state space partitioned into models. This module computes the quantities the
decomposition bound is built from: operator norms on the mean-zero subspace
L2_0(pi), the model-reachability matrix Gamma, the two-step model-jump chain
M_P with its second eigenvalue, and runs the bound inequalities themselves on
concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import NumericError, ParameterError, StructureError, TraceParseError, require_finite
from .rng import RngStream

__all__ = [
    "FiniteTransChain",
    "WithinKernelSet",
    "BoundReport",
    "H2StepResult",
    "stationary_distribution",
    "l20_operator_norm",
    "build_gamma",
    "check_h2_via_gamma",
    "check_h2_via_s_step",
    "build_model_jump_matrix",
    "lambda1",
    "theorem2_bound_check",
    "decomposition_inequality_check",
    "random_decomposed_chain",
    "read_chain_file",
    "write_chain_file",
]

_ROW_SUM_TOL = 1e-12
_STAT_TOL = 1e-10
_BOUND_SLACK = 1e-9


@dataclass
class FiniteTransChain:
    """Stochastic matrix over enumerated states partitioned into models.

    ``model_of[i]`` gives the model index of state ``i``; model labels must be
    0..n_models-1 with every model non-empty. ``stationary`` is the chain's
    stationary probability vector (computed if not supplied).
    """

    transition: np.ndarray
    model_of: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.model_of = np.asarray(self.model_of, dtype=int)
        self.stationary = np.asarray(self.stationary, dtype=float)
        require_finite("transition", self.transition)
        require_finite("stationary", self.stationary)
        n = self.transition.shape[0]
        if self.transition.shape != (n, n):
            raise ParameterError("transition matrix must be square")
        if self.model_of.shape != (n,):
            raise ParameterError("model_of must assign one model per state")
        if np.any(self.transition < 0):
            raise ParameterError("transition probabilities must be non-negative")
        row_err = np.abs(self.transition.sum(axis=1) - 1.0).max()
        if row_err > _ROW_SUM_TOL * max(1.0, n):
            raise ParameterError(f"rows must sum to 1 (max error {row_err:.3e})")
        m = self.n_models
        if sorted(set(self.model_of.tolist())) != list(range(m)):
            raise ParameterError("model labels must be contiguous 0..m-1")
        stat_err = np.abs(self.stationary @ self.transition - self.stationary).sum()
        if stat_err > _STAT_TOL:
            raise ParameterError(f"stationary vector fails pi P = pi ({stat_err:.3e})")
        if np.any(self.model_masses() <= 0):
            raise ParameterError("every model must carry positive stationary mass")

    @classmethod
    def from_transition(cls, transition, model_of, stationary=None):
        transition = np.asarray(transition, dtype=float)
        if stationary is None:
            stationary = stationary_distribution(transition)
        return cls(transition=transition, model_of=model_of, stationary=stationary)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_models(self) -> int:
        return int(self.model_of.max()) + 1

    def states_of_model(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.model_of == k)

    def model_masses(self) -> np.ndarray:
        m = int(self.model_of.max()) + 1
        return np.bincount(self.model_of, weights=self.stationary, minlength=m)

    def conditional_within(self, k: int) -> np.ndarray:
        """Stationary distribution restricted to model k, normalized (Phi_k)."""
        idx = self.states_of_model(k)
        w = self.stationary[idx]
        return w / w.sum()


@dataclass
class WithinKernelSet:
    """Per-model kernels P_k with their domination constants c_k."""

    kernels: list
    c: np.ndarray

    def __post_init__(self):
        self.kernels = [np.asarray(K, dtype=float) for K in self.kernels]
        self.c = np.asarray(self.c, dtype=float)
        if len(self.kernels) != self.c.shape[0]:
            raise ParameterError("one constant c_k per kernel required")
        if np.any(self.c < 0) or np.any(self.c > 1):
            raise ParameterError("constants c_k must lie in [0, 1]")


@dataclass
class BoundReport:
    lhs: float
    rhs: float
    holds: bool
    detail: dict


@dataclass
class H2StepResult:
    holds: bool
    gamma_holds: bool
    model_mass: np.ndarray


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix (GTH elimination).

    GTH is subtraction-free, so the result is entrywise accurate; the residual
    ||pi P - pi||_1 is verified below 1e-12. Reducible inputs raise a
    StructureError listing the unreachable strata.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ParameterError("transition matrix must be square")
    # imported here: scipy.sparse slows every CLI start, and only this check uses it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(csr_matrix(P > 0), connection="strong")
    if ncomp > 1:
        strata = [np.flatnonzero(labels == c).tolist() for c in range(ncomp)]
        raise StructureError(f"transition matrix is reducible; strata: {strata}")
    if n == 1:
        return np.array([1.0])
    A = P.copy()
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    pi /= pi.sum()
    resid = np.abs(pi @ P - pi).sum()
    if resid > 1e-12:
        raise NumericError(f"GTH residual too large: {resid:.3e}")
    return pi


def l20_operator_norm(P: np.ndarray, pi: np.ndarray) -> float:
    """Operator norm of P on L2_0(pi).

    Computed as the largest singular value of the similarity transform
    D^{1/2} P D^{-1/2} after deflating the constant direction through the
    projection I - sqrt(pi) sqrt(pi)^T.
    """
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    root = np.sqrt(pi)
    A = (root[:, None] * P) / root[None, :]
    A0 = A - np.outer(root, root @ A)
    s = np.linalg.svd(A0, compute_uv=False)[0]
    return float(min(max(s, 0.0), 1.0))


def build_gamma(chain: FiniteTransChain) -> np.ndarray:
    """0/1 model-reachability matrix: Gamma[k,k'] = 1 iff mass flows k -> k' in one step."""
    m = chain.n_models
    B = _model_aggregate(chain.transition, chain.model_of, m)
    mass = np.zeros((m, m))
    for k in range(m):
        idx = chain.states_of_model(k)
        mass[k] = chain.stationary[idx] @ B[idx]
    return (mass > 0.0).astype(int)


def check_h2_via_gamma(gamma: np.ndarray, s: int) -> bool:
    """True iff every entry of gamma^s (ordinary matrix power) is positive."""
    if s < 1:
        raise ParameterError("s must be a positive integer")
    G = np.asarray(gamma, dtype=float)
    return bool(np.all(np.linalg.matrix_power(G, s) > 0))


def check_h2_via_s_step(chain: FiniteTransChain, s: int) -> H2StepResult:
    """s-step mass test between every model pair, with the reachability implication.

    Whenever the s-step test passes, every entry of Gamma^s must be positive
    as well; a violation would indicate an implementation bug and raises.
    """
    if s < 1:
        raise ParameterError("s must be a positive integer")
    m = chain.n_models
    Ps = np.linalg.matrix_power(chain.transition, s)
    B = _model_aggregate(Ps, chain.model_of, m)
    mass = np.zeros((m, m))
    for k in range(m):
        idx = chain.states_of_model(k)
        mass[k] = chain.stationary[idx] @ B[idx]
    holds = bool(np.all(mass > 0.0))
    gamma_holds = check_h2_via_gamma(build_gamma(chain), s)
    if holds and not gamma_holds:
        raise NumericError(
            "s-step positivity holds but Gamma^s has a zero entry; "
            "this contradicts the reachability lemma and flags a bug"
        )
    return H2StepResult(holds=holds, gamma_holds=gamma_holds, model_mass=mass)


def _model_aggregate(P: np.ndarray, model_of: np.ndarray, m: int) -> np.ndarray:
    """B[z, k] = P(z, model k): transition mass from each state into each model."""
    n = P.shape[0]
    B = np.zeros((n, m))
    for k in range(m):
        B[:, k] = P[:, model_of == k].sum(axis=1)
    return B


def build_model_jump_matrix(chain: FiniteTransChain) -> np.ndarray:
    """Two-step model-jump chain over models.

    M[k,k'] = (1/pibar_k) sum_z pi(z) P(z, model k) P(z, model k'); rows sum
    to one and the matrix is PSD after the diag(pibar)^{1/2} similarity.
    """
    m = chain.n_models
    B = _model_aggregate(chain.transition, chain.model_of, m)
    pibar = chain.model_masses()
    M = (B.T * chain.stationary) @ B / pibar[:, None]
    return M


def lambda1(m_p: np.ndarray, model_masses: np.ndarray) -> float:
    """Second largest eigenvalue of the model-jump matrix.

    Eigenvalues are computed on the symmetrized form diag(w)^{1/2} M
    diag(w)^{-1/2}; all must be non-negative (the model-jump chain is PSD),
    and a clearly negative one flags a construction bug.
    """
    M = np.asarray(m_p, dtype=float)
    m = M.shape[0]
    if m == 1:
        return 0.0
    w = np.asarray(model_masses, dtype=float)
    root = np.sqrt(w)
    S = (root[:, None] * M) / root[None, :]
    S = 0.5 * (S + S.T)
    vals = np.linalg.eigvalsh(S)
    if vals[0] < -1e-8:
        raise NumericError(
            f"model-jump matrix has eigenvalue {vals[0]:.3e} < 0; construction bug"
        )
    lam = float(vals[-2])
    return min(max(lam, 0.0), 1.0)


def _validate_kernels(chain: FiniteTransChain, kernels: WithinKernelSet):
    m = chain.n_models
    if len(kernels.kernels) != m:
        raise ParameterError(f"expected {m} within-model kernels")
    for k in range(m):
        idx = chain.states_of_model(k)
        Pk = kernels.kernels[k]
        if Pk.shape != (idx.size, idx.size):
            raise ParameterError(f"kernel {k} has wrong shape {Pk.shape}")
        if np.any(Pk < 0) or np.abs(Pk.sum(axis=1) - 1.0).max() > 1e-10:
            raise ParameterError(f"kernel {k} is not row-stochastic")
        phi = chain.conditional_within(k)
        if np.abs(phi @ Pk - phi).sum() > _STAT_TOL:
            raise ParameterError(f"kernel {k} does not preserve Phi_{k}")
        block = chain.transition[np.ix_(idx, idx)]
        if np.any(block - kernels.c[k] * Pk < -1e-12):
            raise ParameterError(
                f"domination P >= c_k P_k fails on model {k} (c_k={kernels.c[k]})"
            )


def theorem2_bound_check(
    chain: FiniteTransChain, kernels: WithinKernelSet, t: int
) -> BoundReport:
    """Quantitative decomposition bound at step count t.

    lhs = 1 - ||P^t||^4 on L2_0(pi); rhs = (min_k c_k^t)^2
    (1 - max_k ||P_k^t||^2) (1 - lambda_1(M_P)). Valid inputs must satisfy
    lhs >= rhs (up to 1e-9 slack); input violations raise instead of
    reporting a bound failure.
    """
    if t < 1:
        raise ParameterError("t must be a positive integer")
    _validate_kernels(chain, kernels)
    Pt = np.linalg.matrix_power(chain.transition, t)
    norm_pt = l20_operator_norm(Pt, chain.stationary)
    within = np.array(
        [
            l20_operator_norm(
                np.linalg.matrix_power(kernels.kernels[k], t),
                chain.conditional_within(k),
            )
            for k in range(chain.n_models)
        ]
    )
    M = build_model_jump_matrix(chain)
    lam = lambda1(M, chain.model_masses())
    lhs = 1.0 - norm_pt**4
    rhs = (kernels.c.min() ** t) ** 2 * (1.0 - within.max() ** 2) * (1.0 - lam)
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs >= rhs - _BOUND_SLACK),
        detail={"norm_pt": norm_pt, "within_norms": within, "lambda1": lam, "t": t},
    )


def decomposition_inequality_check(
    T: np.ndarray,
    S: np.ndarray,
    kernels: WithinKernelSet,
    c: float,
    pi: np.ndarray,
    model_of: np.ndarray,
) -> BoundReport:
    """Two-kernel decomposition inequality on a finite space.

    Checks 1 - ||T S*||^2 >= c^2 (1 - sup_k ||T_k||^2)(1 - ||Sbar||), where
    S* is the pi-adjoint D^{-1} S^T D and Sbar the model-jump chain built
    from S. Both T and S must preserve pi, and T must dominate c T_k on each
    model block.
    """
    T = np.asarray(T, dtype=float)
    S = np.asarray(S, dtype=float)
    pi = np.asarray(pi, dtype=float)
    model_of = np.asarray(model_of, dtype=int)
    for name, K in (("T", T), ("S", S)):
        if np.abs(pi @ K - pi).sum() > _STAT_TOL:
            raise ParameterError(f"{name} does not preserve the target distribution")
    chain_t = FiniteTransChain(transition=T, model_of=model_of, stationary=pi)
    kset = WithinKernelSet(kernels=kernels.kernels, c=np.full(len(kernels.kernels), c))
    _validate_kernels(chain_t, kset)
    chain_s = FiniteTransChain(transition=S, model_of=model_of, stationary=pi)

    s_star = (S.T * pi[None, :]) / pi[:, None]
    lhs = 1.0 - l20_operator_norm(T @ s_star, pi) ** 2
    within = np.array(
        [
            l20_operator_norm(kernels.kernels[k], chain_t.conditional_within(k))
            for k in range(chain_t.n_models)
        ]
    )
    sbar_norm = lambda1(build_model_jump_matrix(chain_s), chain_s.model_masses())
    rhs = c**2 * (1.0 - within.max() ** 2) * (1.0 - sbar_norm)
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs >= rhs - _BOUND_SLACK),
        detail={"within_norms": within, "sbar_norm": sbar_norm},
    )


def random_decomposed_chain(
    rng: RngStream,
    n_models: int | None = None,
    max_states: int = 60,
    structure: str | None = None,
):
    """Random trans-dimensional chain built by the decomposition recipe.

    Each state's row is c_k P_k(z, .) on its own model plus a (1 - c_k)
    model-jump component chosen to preserve the target exactly: either a
    global weighted independence jump ('full') or a Metropolized jump to
    adjacent models ('banded', birth/death reachability structure). Returns
    (FiniteTransChain, WithinKernelSet); the construction guarantees the
    domination condition by design, so bound checks exercise the theorem
    rather than input validity.
    """
    gen = rng.gen
    if n_models is None:
        n_models = int(gen.integers(2, 5))
    if structure is None:
        structure = "full" if gen.random() < 0.5 else "banded"
    max_per = max(2, max_states // n_models)
    sizes = gen.integers(2, max_per + 1, size=n_models)
    n = int(sizes.sum())
    model_of = np.repeat(np.arange(n_models), sizes)
    # target distribution bounded away from zero for conditioning
    pi = gen.random(n) + 0.15
    pi /= pi.sum()
    c = 0.25 + 0.65 * gen.random(n_models)

    kernels = []
    P = np.zeros((n, n))
    for k in range(n_models):
        idx = np.flatnonzero(model_of == k)
        phi = pi[idx] / pi[idx].sum()
        Pk = _random_reversible_kernel(gen, phi)
        kernels.append(Pk)
        P[np.ix_(idx, idx)] += c[k] * Pk

    if structure == "full":
        weight = (1.0 - c[model_of]) * pi
        jump = weight / weight.sum()
        P += np.outer(1.0 - c[model_of], jump)
    elif structure == "banded":
        for z in range(n):
            k = model_of[z]
            neighbors = [kk for kk in (k - 1, k + 1) if 0 <= kk < n_models]
            targets = np.flatnonzero(np.isin(model_of, neighbors))
            q = np.zeros(n)
            q[targets] = 1.0 / targets.size
            # fold (1-c) into the flow so detailed balance holds state-by-state
            for zp in targets:
                kp = model_of[zp]
                tq = [kk for kk in (kp - 1, kp + 1) if 0 <= kk < n_models]
                back = 1.0 / np.isin(model_of, tq).sum()
                flow = min(
                    (1.0 - c[k]) * q[zp], pi[zp] * (1.0 - c[kp]) * back / pi[z]
                )
                P[z, zp] += flow
            P[z, z] += 1.0 - P[z].sum()
    else:
        raise ParameterError(f"unknown structure {structure!r}")

    chain = FiniteTransChain(transition=P, model_of=model_of, stationary=pi)
    return chain, WithinKernelSet(kernels=kernels, c=c)


def _random_reversible_kernel(gen, phi: np.ndarray) -> np.ndarray:
    """Random Phi-reversible kernel: uniform-proposal Metropolis, optionally
    mixed with the independence sampler."""
    nk = phi.shape[0]
    if nk == 1:
        return np.ones((1, 1))
    q = 1.0 / nk
    ratio = np.minimum(1.0, phi[None, :] / phi[:, None])
    K = q * ratio
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    mix = gen.random() * 0.7
    K = (1.0 - mix) * K + mix * np.tile(phi, (nk, 1))
    return K


def read_chain_file(path) -> FiniteTransChain:
    """Parse the plain-text chain format: 'n m', n probability rows, model indices."""
    _, records = textio.read_records(path)
    if not records:
        raise TraceParseError("empty chain file")
    lineno, header = records[0]
    parts = header.split()
    if len(parts) != 2:
        raise TraceParseError("expected header 'n m'", line=lineno)
    n, m = textio.counts(parts, lineno, "header count")
    if len(records) != n + 2:
        raise TraceParseError(
            f"expected {n} matrix rows plus one model line after the header"
        )
    P = textio.table(records[1 : n + 1], n, "probability")
    lineno, row = records[n + 1]
    model_of = np.array(textio.counts(row.split(), lineno, "model index"), dtype=int)
    if model_of.shape != (n,):
        raise TraceParseError(f"expected {n} model indices", line=lineno)
    if model_of.max() + 1 != m:
        raise TraceParseError(
            f"model indices must cover 0..{m - 1} per the header", line=lineno
        )
    bad = np.flatnonzero(np.abs(P.sum(axis=1) - 1.0) > 1e-10)
    if bad.size:
        raise TraceParseError(f"row {bad[0]} does not sum to 1", line=records[1 + bad[0]][0])
    try:
        return FiniteTransChain.from_transition(P, model_of)
    except (ParameterError, StructureError) as exc:
        raise TraceParseError(str(exc))


def write_chain_file(chain: FiniteTransChain, path):
    lines = [f"{chain.n_states} {chain.n_models}", *map(textio.row, chain.transition),
             " ".join(map(str, chain.model_of.tolist()))]
    textio.write_text(path, lines)
