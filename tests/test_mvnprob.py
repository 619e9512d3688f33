import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from transjump import mvnprob
from transjump.errors import NumericError, ParameterError, SolverError
from transjump.mvnprob import (
    RectProbRequest,
    RectProbResult,
    mvn_rectangle_prob,
    solve_rectangle_quantile,
)

from _oracles import mvn_rectangle_grid


def test_diagonal_covariance_product_rule():
    # independent coordinates: probability factorizes into univariate normals
    v = np.array([1.7, 1.7, 1.7])
    req = RectProbRequest(
        lower=-2.0 * np.sqrt(v), upper=2.0 * np.sqrt(v),
        mean=np.zeros(3), covariance=np.diag(v),
    )
    res = mvn_rectangle_prob(req)
    exact = (2.0 * ndtr(2.0) - 1.0) ** 3
    assert abs(exact - 0.8696158) < 1e-7  # frozen from the product of Phi values
    assert abs(res.probability - exact) < 5e-4


def test_univariate_interval():
    res = mvn_rectangle_prob(
        RectProbRequest(lower=[-1.96], upper=[1.96], mean=[0.0], covariance=[[1.0]])
    )
    assert abs(res.probability - (2.0 * ndtr(1.96) - 1.0)) < 1e-12
    assert res.mc_error == 0.0


def test_perfect_correlation_collapses_to_common_factor():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = mvn_rectangle_prob(
        RectProbRequest(lower=[-1.5, -1.5], upper=[1.5, 1.5], mean=[0.0, 0.0], covariance=cov)
    )
    assert abs(res.probability - (2.0 * ndtr(1.5) - 1.0)) < 1e-3


def test_matches_tensor_grid_quadrature():
    gen = np.random.default_rng(21)
    for trial in range(20):
        m = int(gen.integers(2, 4))
        a = gen.standard_normal((m, m))
        cov = a @ a.T + 0.5 * np.eye(m)
        lower = -gen.random(m) * 2 - 0.2
        upper = gen.random(m) * 2 + 0.2
        res = mvn_rectangle_prob(
            RectProbRequest(lower=lower, upper=upper, mean=np.zeros(m),
                            covariance=cov, n_points=8192, seed=trial)
        )
        ref = mvn_rectangle_grid(lower, upper, cov, n_grid=201 if m == 2 else 121)
        assert abs(res.probability - ref) < 1e-3, (trial, res.probability, ref)


def test_doubling_points_reduces_error():
    gen = np.random.default_rng(22)
    ratios = []
    for trial in range(20):
        a = gen.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        kw = dict(lower=-np.ones(3), upper=2 * np.ones(3), mean=np.zeros(3), covariance=cov)
        small = mvn_rectangle_prob(RectProbRequest(n_points=1024, seed=trial, **kw))
        big = mvn_rectangle_prob(RectProbRequest(n_points=2048, seed=trial, **kw))
        ratios.append(big.mc_error / max(small.mc_error, 1e-300))
    assert np.median(ratios) < 1.0


def test_monotone_in_xi():
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    probs = []
    for xi in np.linspace(0.5, 3.5, 13):
        res = mvn_rectangle_prob(
            RectProbRequest(lower=-xi * np.sqrt(np.diag(cov)), upper=xi * np.sqrt(np.diag(cov)),
                            mean=np.zeros(2), covariance=cov, seed=3)
        )
        probs.append(res.probability)
    assert np.all(np.diff(probs) >= 0)


@pytest.mark.parametrize("m", [67, 100])
def test_dimension_beyond_66_identity_closed_form(m):
    # independent coordinates: the Genz integrand is constant, so the QMC
    # estimate equals (2 Phi(c) - 1)^m up to rounding
    c = 3.0
    res = mvn_rectangle_prob(
        RectProbRequest(lower=-c * np.ones(m), upper=c * np.ones(m),
                        mean=np.zeros(m), covariance=np.eye(m), n_points=256)
    )
    assert abs(res.probability - (2.0 * ndtr(c) - 1.0) ** m) < 1e-9


def test_richtmyer_primes():
    primes = mvnprob._primes(100).astype(int)
    assert primes[65] == 317  # the 66th prime: dimensions up to 67 keep their roots
    assert np.all(np.diff(primes) > 0)
    for q in primes:
        assert all(q % d for d in range(2, int(q**0.5) + 1))
    assert primes[0] == 2 and primes[-1] == 541


def test_dimension_mismatch():
    with pytest.raises(ParameterError):
        RectProbRequest(lower=[0.0, 0.0], upper=[1.0], mean=[0.0, 0.0], covariance=np.eye(2))


def test_hard_singularity_rejected():
    # rank-1 covariance stays unfactorizable beyond the jitter cap when the
    # off-diagonal exceeds what 1e-10*trace can repair... construct an
    # indefinite matrix instead, which no jitter of that size fixes
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericError):
        mvn_rectangle_prob(
            RectProbRequest(lower=[-1.0, -1.0], upper=[1.0, 1.0], mean=[0.0, 0.0], covariance=bad)
        )


class TestQuantileSolver:
    def test_univariate_equals_normal_quantile(self):
        xi = solve_rectangle_quantile(0.05, np.ones(1), np.eye(1))
        assert abs(xi - ndtri(0.975)) < 1e-12

    def test_independence_closed_form(self):
        # xi solves (2 Phi(xi) - 1)^4 = 0.95
        xi = solve_rectangle_quantile(0.05, np.ones(4), np.eye(4), tol=5e-5, n_points=8192)
        closed = ndtri((1.0 + 0.95**0.25) / 2.0)
        assert abs(closed - 2.4909151) < 1e-7  # frozen reference value
        assert abs(xi - closed) < 1e-3

    def test_bracket_contract(self):
        gen = np.random.default_rng(23)
        for trial in range(5):
            m = int(gen.integers(2, 6))
            a = gen.standard_normal((m, m))
            cov = a @ a.T + 0.3 * np.eye(m)
            alpha = float(gen.uniform(0.01, 0.2))
            xi = solve_rectangle_quantile(alpha, np.diag(cov).copy(), cov, seed=trial)
            lo = ndtri(1.0 - alpha / 2.0)
            hi = ndtri(1.0 - alpha / (2.0 * m))
            assert lo - 1e-12 <= xi <= hi + 1e-12

    def test_diagonal_consistency_checked(self):
        with pytest.raises(ParameterError):
            solve_rectangle_quantile(0.05, np.array([1.0, 2.0]), np.eye(2))

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            solve_rectangle_quantile(1.5, np.ones(2), np.eye(2))


def _criterion5_cases():
    """The random covariances and levels of acceptance criterion 5."""
    gen = np.random.default_rng(1003)
    cases = []
    for trial in range(10):
        m = int(gen.integers(2, 7))
        a = gen.standard_normal((m, m))
        cov = a @ a.T + 0.3 * np.eye(m)
        alpha = float(gen.uniform(0.01, 0.2))
        cases.append((trial, alpha, cov))
    return cases


@pytest.fixture()
def count_evaluations(monkeypatch):
    """Counts the rectangle probabilities the solver requests."""
    calls = []

    def counted(req):
        calls.append(req)
        return mvn_rectangle_prob(req)

    monkeypatch.setattr(mvnprob, "mvn_rectangle_prob", counted)
    return calls


class TestSecantSolver:
    def test_stops_within_tol_or_at_an_endpoint(self):
        tol, n_points = 1e-3, 4096
        for trial, alpha, cov in _criterion5_cases():
            v = np.diag(cov).copy()
            xi = solve_rectangle_quantile(alpha, v, cov, tol=tol, n_points=n_points, seed=trial)
            lo = ndtri(1.0 - alpha / 2.0)
            hi = ndtri(1.0 - alpha / (2.0 * v.shape[0]))
            p = mvn_rectangle_prob(
                RectProbRequest(lower=-xi * np.sqrt(v), upper=xi * np.sqrt(v),
                                mean=np.zeros(v.shape[0]), covariance=cov,
                                n_points=n_points, seed=trial)
            ).probability
            assert abs(p - (1.0 - alpha)) <= tol or xi in (lo, hi), (trial, xi, p)

    def test_identity_m4_needs_at_most_four_evaluations(self, count_evaluations):
        solve_rectangle_quantile(0.05, np.ones(4), np.eye(4))
        assert len(count_evaluations) <= 4

    def test_random_covariances_need_at_most_five_evaluations(self, count_evaluations):
        for trial, alpha, cov in _criterion5_cases():
            count_evaluations.clear()
            solve_rectangle_quantile(alpha, np.diag(cov).copy(), cov, seed=trial)
            assert len(count_evaluations) <= 5, (trial, len(count_evaluations))

    def test_every_evaluation_shares_the_seed_and_points(self, count_evaluations):
        solve_rectangle_quantile(0.1, np.ones(3), np.eye(3), n_points=1024, seed=7)
        assert {(req.seed, req.n_points) for req in count_evaluations} == {(7, 1024)}

    def test_flat_probability_fails_the_straddle_check(self, monkeypatch):
        monkeypatch.setattr(
            mvnprob, "mvn_rectangle_prob",
            lambda req: RectProbResult(probability=0.5, mc_error=0.0),
        )
        with pytest.raises(SolverError, match="do not straddle"):
            solve_rectangle_quantile(0.05, np.ones(3), np.eye(3))
