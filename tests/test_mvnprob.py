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
    # independent coordinates: every block is one coordinate, so the result
    # is the product (2 Phi(c) - 1)^m up to rounding
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


class TestIndependentBlocks:
    def test_interleaved_blocks_match_product_of_grids(self):
        # a dense 3x3 block on coordinates (5, 0, 3), a 2x2 block on (1, 6)
        # and the singletons 2 and 4
        blocks = [
            ([5, 0, 3], np.array([[1.2, 0.5, -0.3], [0.5, 0.9, 0.2], [-0.3, 0.2, 1.5]])),
            ([1, 6], np.array([[2.0, -0.9], [-0.9, 0.7]])),
            ([2], np.array([[0.4]])),
            ([4], np.array([[3.0]])),
        ]
        cov = np.zeros((7, 7))
        for idx, sub in blocks:
            cov[np.ix_(idx, idx)] = sub
        lower = np.array([-1.0, -2.0, -0.5, -1.5, -np.inf, -0.8, -1.2])
        upper = np.array([1.5, 1.0, 0.9, 2.0, 1.1, 1.3, 0.6])
        res = mvn_rectangle_prob(
            RectProbRequest(lower=lower, upper=upper, mean=np.zeros(7), covariance=cov, seed=4)
        )
        ref = 1.0
        for idx, sub in blocks:
            # the grid needs finite bounds; 12 sd stands in for -inf
            lo = np.maximum(lower[idx], -12.0 * np.sqrt(np.diag(sub)))
            ref *= mvn_rectangle_grid(lo, upper[idx], sub, n_grid=121 if len(idx) == 3 else 401)
        assert abs(res.probability - ref) < 1e-3, (res.probability, ref)
        assert res.mc_error > 0.0

    def test_blocks_take_disjoint_shift_slices(self, monkeypatch):
        # two identical blocks: with a shared slice of the shift they would
        # see the same points and the per-shift products would be squares
        points = []
        integrand = mvnprob._cube_integrand

        def recorded(L, a, b, w):
            points.append(w.copy())
            return integrand(L, a, b, w)

        monkeypatch.setattr(mvnprob, "_cube_integrand", recorded)
        sub = np.array([[1.0, 0.5], [0.5, 1.0]])
        cov = np.zeros((4, 4))
        cov[:2, :2] = cov[2:, 2:] = sub
        kw = dict(n_points=1024, seed=9)
        res = mvn_rectangle_prob(
            RectProbRequest(lower=-np.ones(4), upper=np.ones(4), mean=np.zeros(4),
                            covariance=cov, **kw)
        )
        assert len(points) == 2 * 8
        for first, second in zip(points[::2], points[1::2]):
            assert not np.array_equal(first, second)
        half = mvn_rectangle_prob(
            RectProbRequest(lower=-np.ones(2), upper=np.ones(2), mean=np.zeros(2),
                            covariance=sub, **kw)
        )
        assert abs(res.probability - half.probability**2) < 1e-3

    def test_components_follow_a_long_chain(self):
        # a tridiagonal pattern on a shuffled order: the smallest index must
        # travel five links to reach the far end of the chain
        order = [4, 0, 6, 2, 5, 1]
        cov = np.eye(7)
        for i, j in zip(order[:-1], order[1:]):
            cov[i, j] = cov[j, i] = 0.3
        labels = mvnprob._components(cov)
        assert labels.tolist() == [0, 0, 0, 3, 0, 0, 0]

    def test_diagonal_m57_is_exact_without_qmc(self, monkeypatch):
        calls = []
        integrand = mvnprob._cube_integrand

        def counted(*args):
            calls.append(args)
            return integrand(*args)

        monkeypatch.setattr(mvnprob, "_cube_integrand", counted)
        c = 2.7
        v = np.linspace(0.01, 4.0, 57)
        res = mvn_rectangle_prob(
            RectProbRequest(lower=-c * np.sqrt(v), upper=c * np.sqrt(v),
                            mean=np.zeros(57), covariance=np.diag(v))
        )
        assert abs(res.probability - (2.0 * ndtr(c) - 1.0) ** 57) < 1e-12
        assert res.mc_error == 0.0
        assert calls == []

    def test_single_dense_block_regression_anchor(self):
        # Regression anchor only: the value was frozen from the unsplit QMC
        # code at this seed. A covariance with no zero entry is one block, so
        # the arithmetic must stay exactly the same; this checks no accuracy.
        cov = np.array([[2.0, 0.6, -0.3, 0.2], [0.6, 1.5, 0.4, -0.1],
                        [-0.3, 0.4, 1.0, 0.25], [0.2, -0.1, 0.25, 0.8]])
        res = mvn_rectangle_prob(
            RectProbRequest(lower=[-2.0, -1.5, -np.inf, -1.0], upper=[1.8, 2.2, 1.1, np.inf],
                            mean=[0.1, -0.2, 0.0, 0.3], covariance=cov, n_points=1024, seed=5)
        )
        assert res.probability == 0.5334196179177757
        assert res.mc_error == 0.00014082150007921297


class TestNonFiniteInput:
    def _request(self, **changes):
        kw = dict(lower=-np.ones(3), upper=np.ones(3), mean=np.zeros(3), covariance=np.eye(3))
        kw.update(changes)
        return RectProbRequest(**kw)

    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_nan_bound_rejected(self, name):
        bound = np.array([-1.0, np.nan, -1.0]) if name == "lower" else np.array([1.0, 1.0, np.nan])
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            self._request(**{name: bound})

    def test_infinite_bounds_allowed(self):
        res = mvn_rectangle_prob(self._request(lower=[-np.inf, -1.0, -np.inf],
                                               upper=[np.inf, 1.0, 0.0]))
        assert abs(res.probability - 0.5 * (2.0 * ndtr(1.0) - 1.0)) < 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ParameterError, match="mean must be finite; entry 1"):
            self._request(mean=np.array([0.0, bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        cov = np.eye(3)
        cov[2, 0] = bad
        with pytest.raises(ParameterError, match="covariance must be finite; row 2, column 0"):
            self._request(covariance=cov)

    def test_solver_rejects_nan_off_diagonal(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = np.nan
        with pytest.raises(ParameterError, match="covariance must be finite"):
            solve_rectangle_quantile(0.05, np.ones(3), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_rejects_non_finite_v_diag(self, bad):
        v = np.array([1.0, bad, 1.0])
        with pytest.raises(ParameterError, match="v_diag must be finite"):
            solve_rectangle_quantile(0.05, v, np.diag(v))


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

    def test_noise_only_m57_needs_at_most_four_evaluations(self, count_evaluations):
        # every quantity constant over the chain: the covariance is eps^2 I
        tol, eps2 = 1e-3, 0.3**2
        xi = solve_rectangle_quantile(0.05, np.full(57, eps2), eps2 * np.eye(57), tol=tol)
        assert len(count_evaluations) <= 4
        assert abs((2.0 * ndtr(xi) - 1.0) ** 57 - 0.95) <= tol

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
