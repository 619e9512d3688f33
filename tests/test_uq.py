import math

import numpy as np
import pytest

from transjump.errors import (
    NumericError,
    ParameterError,
    SingularCovarianceError,
    TraceParseError,
)
from transjump.rng import RngStream, std_normal_quantile
from transjump.spectral import FiniteTransChain, stationary_distribution
from transjump.uq import (
    BatchMeansEstimate,
    DeltaSpec,
    SimCIReport,
    Trace,
    ar_h_spec,
    batch_means_cov,
    batch_size_rule,
    delta_cov,
    ergodic_average,
    exact_asymptotic_cov_finite,
    identity_spec,
    inject_noise,
    load_report,
    load_trace,
    save_report,
    save_trace,
    simultaneous_cis,
)

from _oracles import truncated_autocov_series


class TestErgodicAverage:
    def test_constant_rows(self):
        tr = Trace(np.tile([2.5, -1.0], (64, 1)))
        assert np.array_equal(ergodic_average(tr), [2.5, -1.0])

    def test_alternating_cancels(self):
        vals = np.empty((1000, 1))
        vals[::2] = 1.0
        vals[1::2] = -1.0
        assert ergodic_average(Trace(vals))[0] == 0.0

    def test_indicator_partition_sums_to_one(self):
        gen = np.random.default_rng(3)
        ks = gen.integers(0, 4, size=5000)
        vals = np.zeros((5000, 4))
        vals[np.arange(5000), ks] = 1.0
        avg = ergodic_average(Trace(vals))
        assert abs(avg.sum() - 1.0) < 1e-15


class TestBatchRule:
    def test_exact_powers(self):
        assert batch_size_rule(10**4, 0.5) == (100, 100)
        assert batch_size_rule(10**5, 0.6) == (100, 1000)

    def test_monotone_in_n(self):
        prev_a, prev_b = 0, 0
        for n in [10**3, 10**4, 10**5, 10**6]:
            a, b = batch_size_rule(n, 0.6)
            assert a >= prev_a and b >= prev_b
            prev_a, prev_b = a, b

    def test_domain(self):
        with pytest.raises(ParameterError):
            batch_size_rule(100, 0.0)
        with pytest.raises(ParameterError):
            batch_size_rule(100, 1.0)


class TestBatchMeans:
    def test_iid_recovers_marginal_covariance(self):
        gen = RngStream(11).gen
        x = gen.standard_normal((10**6, 2))
        a, b = batch_size_rule(10**6, 0.5)
        est = batch_means_cov(Trace(x), a, b)
        rel = np.linalg.norm(est.sigma - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert rel < 0.10

    def test_constant_trace_zero(self):
        est = batch_means_cov(Trace(np.ones((1000, 2))), 10, 100)
        assert np.abs(est.sigma).max() == 0.0

    def test_needs_two_batches(self):
        with pytest.raises(ParameterError):
            batch_means_cov(Trace(np.ones((10, 1))), 1, 10)


class TestExactAsymptoticCov:
    def test_independence_kernel_gives_marginal_covariance(self):
        pi = np.array([0.2, 0.3, 0.5])
        P = np.tile(pi, (3, 1))
        chain = FiniteTransChain(transition=P, model_of=np.array([0, 1, 2]), stationary=pi)
        f = np.column_stack([np.eye(3)[:, 0], np.array([1.0, -1.0, 2.0])])
        sigma = exact_asymptotic_cov_finite(chain, f)
        fbar = f - pi @ f
        expected = fbar.T @ (pi[:, None] * fbar)
        assert np.abs(sigma - expected).max() < 1e-14

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        P = np.array([[1 - a, a], [b, 1 - b]])
        pi = stationary_distribution(P)
        chain = FiniteTransChain(transition=P, model_of=np.array([0, 1]), stationary=pi)
        sigma = exact_asymptotic_cov_finite(chain, np.array([[1.0], [0.0]]))
        closed = pi[0] * pi[1] * (2 - a - b) / (a + b)
        assert abs(sigma[0, 0] - closed) < 1e-12

    def test_matches_truncated_series(self):
        gen = np.random.default_rng(17)
        for trial in range(5):
            n = int(gen.integers(3, 8))
            P = gen.random((n, n)) + 0.05
            P /= P.sum(axis=1, keepdims=True)
            pi = stationary_distribution(P)
            chain = FiniteTransChain(transition=P, model_of=np.arange(n), stationary=pi)
            f = gen.standard_normal((n, 2))
            exact = exact_asymptotic_cov_finite(chain, f)
            series = truncated_autocov_series(P, pi, f, t_max=10_000)
            assert np.abs(exact - series).max() < 1e-10

    def test_periodic_chain_rejected(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = FiniteTransChain(
            transition=P, model_of=np.array([0, 1]), stationary=np.array([0.5, 0.5])
        )
        with pytest.raises(NumericError):
            exact_asymptotic_cov_finite(chain, np.array([[1.0], [0.0]]))


class TestDelta:
    def test_identity_map(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = delta_cov(sigma, identity_spec(2), np.array([0.5, 0.5]))
        assert np.array_equal(out, sigma)

    def test_rank_one_singular_case(self):
        spec = DeltaSpec(
            h=lambda e: np.array([1.0 - e[0], e[0]]),
            jacobian=lambda e: np.array([[-1.0], [1.0]]),
        )
        out = delta_cov(np.array([[0.7]]), spec, np.array([0.4]))
        assert np.abs(out - np.array([[0.7, -0.7], [-0.7, 0.7]])).max() < 1e-15
        assert np.linalg.matrix_rank(out) == 1

    def test_broken_jacobian_rejected(self):
        spec = DeltaSpec(
            h=lambda e: np.array([e[0] ** 2]),
            jacobian=lambda e: np.array([[3.0 * e[0]]]),  # wrong by 50%
        )
        with pytest.raises(NumericError):
            delta_cov(np.eye(1), spec, np.array([1.0]))


class TestArHSpec:
    def test_symmetric_case(self):
        spec = ar_h_spec()
        assert np.allclose(spec.h(np.array([0.5, 0.0, 0.5])), [0.5, 0.5, 0.0, 1.0])

    def test_probabilities_sum_to_one(self):
        spec = ar_h_spec()
        gen = np.random.default_rng(4)
        for _ in range(20):
            e1 = gen.uniform(0.05, 0.95)
            e2 = gen.uniform(-0.5, 0.5) * e1
            var = gen.uniform(0.1, 2.0)
            e3 = (var + (e2 / e1) ** 2) * e1
            h = spec.h(np.array([e1, e2, e3]))
            assert abs(h[0] + h[1] - 1.0) < 1e-15

    def test_jacobian_matches_finite_differences(self):
        spec = ar_h_spec()
        gen = np.random.default_rng(5)
        for _ in range(20):
            e1 = gen.uniform(0.1, 0.9)
            e2 = gen.uniform(-0.4, 0.4) * e1
            var = gen.uniform(0.2, 2.0)
            eta = np.array([e1, e2, (var + (e2 / e1) ** 2) * e1])
            delta_cov(np.eye(3), spec, eta)  # raises if analytic != FD at 1e-6

    def test_degenerate_variance_rejected(self):
        spec = ar_h_spec()
        with pytest.raises(ParameterError):
            spec.h(np.array([0.5, 0.5, 0.5]))  # variance argument zero


class TestInjectNoise:
    def test_zero_epsilon(self):
        assert np.array_equal(inject_noise(3, 0.0, np.eye(3), 100, RngStream(1)), np.zeros(3))

    def test_variance_scale(self):
        draws = np.array(
            [inject_noise(2, 1.0, np.eye(2), 10**4, RngStream(2, i)) for i in range(100_000)]
        )
        sd = draws.std(axis=0)
        assert np.abs(sd - 0.01).max() < 3 * 0.01 / math.sqrt(2 * 100_000) * 3

    def test_determinism(self):
        a = inject_noise(4, 0.5, np.eye(4), 50, RngStream(9, 3))
        b = inject_noise(4, 0.5, np.eye(4), 50, RngStream(9, 3))
        assert np.array_equal(a, b)


class TestSimultaneousCIs:
    def test_m1_reduces_to_classic_interval(self):
        gen = RngStream(5).gen
        x = gen.standard_normal((20_000, 1)) * 2.0 + 3.0
        rep = simultaneous_cis(Trace(x, meta={"seed": 1}), identity_spec(1), 0.05, 0.0, RngStream(9))
        assert abs(rep.xi - std_normal_quantile(0.975)) < 1e-12

    def test_singular_with_zero_epsilon_raises(self):
        gen = RngStream(5).gen
        x = gen.standard_normal((20_000, 1))
        both = np.column_stack([x[:, 0], x[:, 0]])
        with pytest.raises(SingularCovarianceError, match="inject noise"):
            simultaneous_cis(Trace(both, meta={"seed": 1}), identity_spec(2), 0.05, 0.0, RngStream(9))

    def test_noise_restores_positive_definiteness(self):
        gen = RngStream(6).gen
        x = gen.standard_normal((20_000, 1))
        both = np.column_stack([x[:, 0], x[:, 0]])
        eps = 0.3
        rep = simultaneous_cis(
            Trace(both, meta={"seed": 1}), identity_spec(2), 0.05, eps, RngStream(9)
        )
        lo = std_normal_quantile(0.975)
        hi = std_normal_quantile(1 - 0.05 / 4)
        assert lo - 1e-12 <= rep.xi <= hi + 1e-12
        # half-width formula
        widths = rep.intervals[:, 1] - rep.intervals[:, 0]
        assert np.allclose(widths, 2 * rep.xi * np.sqrt(rep.v_diag / rep.n))

    def test_large_epsilon_width_dominated_by_noise(self):
        gen = RngStream(7).gen
        n = 10_000
        x = gen.standard_normal((n, 2)) * 0.1
        eps = 10.0
        rep = simultaneous_cis(Trace(x, meta={"seed": 2}), identity_spec(2), 0.05, eps, RngStream(3))
        expected_half = rep.xi * eps / math.sqrt(n)
        widths = rep.intervals[:, 1] - rep.intervals[:, 0]
        assert np.abs(widths / 2.0 - expected_half).max() < 0.01 * expected_half

    def test_half_widths_shrink_with_n(self):
        gen = RngStream(8).gen
        widths = []
        for n in (4_000, 16_000, 64_000):
            x = gen.standard_normal((n, 2))
            rep = simultaneous_cis(
                Trace(x, meta={"seed": 3}), identity_spec(2), 0.05, 0.01, RngStream(4)
            )
            widths.append(float(np.median(rep.intervals[:, 1] - rep.intervals[:, 0])))
        assert widths[0] > widths[1] > widths[2]


class TestPersistence:
    def test_trace_round_trip(self, tmp_path):
        gen = RngStream(10).gen
        tr = Trace(gen.standard_normal((50, 3)),
                   meta={"sampler_id": "test", "seed": 42, "config_hash": "f00d"})
        path = tmp_path / "trace.txt"
        save_trace(tr, path)
        back = load_trace(path)
        assert np.array_equal(tr.f_values, back.f_values)
        assert back.meta == tr.meta
        save_trace(back, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_report_round_trip(self, tmp_path):
        gen = RngStream(11).gen
        x = gen.standard_normal((10_000, 2))
        rep = simultaneous_cis(Trace(x, meta={"seed": 5}), identity_spec(2), 0.1, 0.2, RngStream(6))
        path = tmp_path / "report.txt"
        save_report(rep, path, config_hash="cafe")
        back = load_report(path)
        assert abs(back.xi - rep.xi) < 1e-15
        assert np.abs(back.intervals - rep.intervals).max() < 1e-12
        assert back.alpha == rep.alpha and back.n == rep.n
        save_report(back, tmp_path / "again.txt", config_hash="cafe")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_non_positive_variance_rejected(self, tmp_path):
        # the other row is consistent, so only the variance of row 0 is at fault
        path = tmp_path / "report.txt"
        path.write_text("alpha\t0.05\nepsilon\t0.1\nn\t100\nm\t2\nxi\t2.1\n\n"
                        "index\tpoint\tnoisy_center\tlower\tupper\tv_diag\n"
                        "0\t0.5\t0.5\t0.4\t0.6\t-1\n1\t0.5\t0.5\t0.29\t0.71\t1\n")
        with pytest.raises(ParameterError, match="v_diag must be positive"):
            load_report(path)

    def test_report_without_quantities_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("alpha\t0.05\nepsilon\t0.1\nn\t100\nm\t0\nxi\t2.1\n")
        with pytest.raises(TraceParseError, match="^line 4: a report needs m >= 1"):
            load_report(path)

    def test_truncated_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 2 test 1\n1.0\t2.0\n")
        with pytest.raises(TraceParseError):
            load_trace(path)
