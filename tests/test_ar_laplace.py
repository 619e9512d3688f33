import math

import numpy as np
import pytest

from transjump.ar_laplace import (
    ARData,
    ARMoveProbs,
    ARSimConfig,
    ARState,
    birth_proposal_params,
    gibbs_update,
    initial_state,
    load_ar_dataset,
    log_unnorm_posterior,
    model_indicator_values,
    move_probs_green,
    rj_step,
    run_ar_chain,
    save_ar_dataset,
    simulate_ar_dataset,
    toy_quadrature_oracle,
    toy_test_values,
    truncated_poisson_pmf,
)
from transjump import ar_laplace
from transjump.errors import GenerationError, ParameterError, TraceParseError
from transjump.rng import RngStream

from _oracles import (
    ar_design,
    ar_gibbs_reference,
    gaussian_conditional_1d,
    sinh_panel_gauss_legendre,
)


def small_data():
    return ARData(
        y=np.array([5.0, 6.0, 2.0]),
        x=np.array([[1.1], [2.2], [0.5]]),
        y_start=np.array([4.0]),
        k_max=1,
        sigma=1.0,
        f_k=np.array([0.5, 0.5]),
    )


def _lag_data(y, x, y_start, k_max):
    return ARData(y=y, x=x, y_start=y_start, k_max=k_max, sigma=1.0,
                  f_k=np.full(k_max + 1, 1.0 / (k_max + 1)))


class TestDesign:
    def test_k0_is_x(self, toy_ar_data):
        assert np.array_equal(toy_ar_data._design_full[:, : toy_ar_data.p], toy_ar_data.x)

    def test_lag_bookkeeping(self):
        W = small_data()._design_full
        assert np.array_equal(W, np.array([[1.1, 4.0], [2.2, 5.0], [0.5, 6.0]]))

    def test_column_count(self, toy_ar_data):
        data = toy_ar_data
        assert data._design_full.shape == (data.n_obs, data.p + data.k_max)
        for k in range(data.k_max + 1):
            assert np.array_equal(data._design_full[:, : data.p + k], ar_design(data, k))

    def test_p1_checked_at_load(self):
        # y inside the column space: N = p + k_max columns span everything
        with pytest.raises(ParameterError, match="column space"):
            ARData(
                y=np.array([1.0, 2.0]), x=np.array([[1.0], [0.5]]),
                y_start=np.array([3.0]), k_max=1, sigma=1.0, f_k=np.array([0.5, 0.5]),
            )


    def test_p1_one_rank_test_when_valid(self, scenario2_data, monkeypatch):
        calls = [0]
        original = np.linalg.matrix_rank

        def counting(a, *args, **kwargs):
            calls[0] += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counting)
        ar_laplace.check_p1(scenario2_data)
        assert calls[0] == 1

    def test_p1_names_interior_rank_deficient_order(self):
        # x_t = y_{t-1}: W(1) repeats its first column, W(0) and [W(0), y] are fine
        gen = np.random.default_rng(31)
        series = gen.standard_normal(13)  # y_{-2}, ..., y_9
        y = series[3:]
        with pytest.raises(ParameterError, match=r"^W\(1\) is column-rank deficient$"):
            _lag_data(y, series[2:-1, None], series[:3], k_max=3)

    def test_p1_names_order_whose_span_holds_y(self):
        # y_t = x_t + 0.5 y_{t-1} exactly: y is in the span of W(1), not of W(0)
        gen = np.random.default_rng(32)
        x = gen.standard_normal(10)
        y_start = gen.standard_normal(3)
        y = np.zeros(10)
        prev = y_start[-1]
        for t in range(10):
            y[t] = prev = x[t] + 0.5 * prev
        with pytest.raises(ParameterError, match=r"^y lies in the column space of W\(1\)$"):
            _lag_data(y, x[:, None], y_start, k_max=3)


class TestLogPosterior:
    def test_tau_scaling_matches_analytic_form(self, toy_ar_data):
        gen = np.random.default_rng(5)
        u = np.abs(gen.standard_normal(5)) + 0.3
        st1 = ARState(k=1, alpha=np.array([0.2]), beta=np.array([0.9]), tau=0.7, u=u)
        st2 = ARState(k=1, alpha=np.array([0.2]), beta=np.array([0.9]), tau=1.4, u=u)
        lp1 = log_unnorm_posterior(toy_ar_data, st1)
        lp2 = log_unnorm_posterior(toy_ar_data, st2)
        W = ar_design(toy_ar_data, 1)
        theta = np.array([0.9, 0.2])
        r = toy_ar_data.y - W @ theta
        n, p, k, sig2 = 5, 1, 1, 1.0
        expected = (
            float(u @ (r * r)) / (4 * 0.7)
            + float(theta @ theta) / (4 * sig2 * 0.7)
            - ((n + p + k) / 2 + 1) * math.log(2)
        )
        assert abs((lp2 - lp1) - expected) < 1e-12

    def test_off_support(self, toy_ar_data):
        st = ARState(k=0, alpha=np.zeros(0), beta=np.zeros(1), tau=-1.0, u=np.ones(5))
        assert log_unnorm_posterior(toy_ar_data, st) == -np.inf

    def test_u_boundary_diverges(self, toy_ar_data):
        vals = []
        for u0 in (1e-2, 1e-4, 1e-6):
            u = np.ones(5)
            u[0] = u0
            st = ARState(k=0, alpha=np.zeros(0), beta=np.zeros(1), tau=1.0, u=u)
            vals.append(log_unnorm_posterior(toy_ar_data, st))
        assert vals[0] > vals[1] > vals[2]

    def test_extreme_tau_stays_finite(self, toy_ar_data):
        for tau in (1e-12, 1e12):
            st = ARState(k=1, alpha=np.array([0.1]), beta=np.array([0.5]), tau=tau, u=np.ones(5))
            assert np.isfinite(log_unnorm_posterior(toy_ar_data, st))


class TestInverseGaussianConditional:
    def test_density_match_l1(self):
        # the printed auxiliary conditional equals the inverse Gaussian with
        # mean sqrt(tau)/(2|r|) and shape 1/4: L1 distance by quadrature
        for r_abs, tau in [(0.8, 0.5), (2.0, 1.3), (0.1, 4.0)]:
            mu = math.sqrt(tau) / (2 * r_abs)
            # log grid covers the u^{-3/2} head and the exp(-lam u / (2 mu^2))
            # tail (decay length 8 mu^2) in one sweep
            hi = 200.0 * max(mu, 8.0 * mu * mu) + 100.0
            ts = np.linspace(math.log(1e-10), math.log(hi), 2_000_001)
            us = np.exp(ts)
            printed = (1.0 / np.sqrt(8 * np.pi * us**3)) * np.exp(
                -us * r_abs**2 / (2 * tau) + r_abs / (2 * math.sqrt(tau)) - 1.0 / (8 * us)
            )
            ig = np.sqrt(0.25 / (2 * np.pi * us**3)) * np.exp(
                -0.25 * (us - mu) ** 2 / (2 * mu**2 * us)
            )
            l1 = np.trapezoid(np.abs(printed - ig) * us, ts)
            assert l1 < 1e-8
            # both are proper densities
            assert abs(np.trapezoid(printed * us, ts) - 1.0) < 1e-6


class TestMoveProbs:
    def test_uniform_prior_interior_thirds(self):
        probs = move_probs_green(np.full(4, 0.25))
        assert np.allclose(probs.q_b[:-1], 1.0 / 3.0)
        assert np.allclose(probs.q_d[1:], 1.0 / 3.0)
        assert probs.q_b[-1] == 0.0 and probs.q_d[0] == 0.0

    def test_detailed_balance_identity(self):
        f_k = truncated_poisson_pmf(2.0, 6)
        probs = move_probs_green(f_k)
        for k in range(6):
            ratio = f_k[k + 1] * probs.q_d[k + 1] / (f_k[k] * probs.q_b[k])
            assert abs(ratio - 1.0) < 1e-14

    def test_poisson_prior_monotone_births(self):
        f_k = truncated_poisson_pmf(2.0, 6)
        probs = move_probs_green(f_k)
        # ratios f(k+1)/f(k) = 2/(k+1) decrease, so q_b is nonincreasing
        assert np.all(np.diff(probs.q_b[:-1]) <= 1e-15)

    def test_update_probability_positive(self):
        with pytest.raises(ParameterError):
            ARMoveProbs(q_u=np.array([0.0, 1.0]), q_b=np.array([1.0, 0.0]), q_d=np.array([0.0, 0.0]))


class TestBirthProposal:
    def test_matches_brute_force_gaussian_conditioning(self, toy_ar_data):
        gen = np.random.default_rng(7)
        for _ in range(10):
            u = np.abs(gen.standard_normal(5)) + 0.2
            tau = float(np.exp(gen.standard_normal()))
            beta = gen.standard_normal(1)
            state = ARState(k=0, alpha=np.zeros(0), beta=beta, tau=tau, u=u)
            mean, var = birth_proposal_params(toy_ar_data, state)
            # reference: condition the full (beta, a1) Gaussian on beta
            W1 = ar_design(toy_ar_data, 1)
            M = W1.T @ (u[:, None] * W1) + np.eye(2)
            cov = tau * np.linalg.inv(M)
            mvn_mean = np.linalg.solve(M, W1.T @ (u * toy_ar_data.y))
            ref_mean, ref_var = gaussian_conditional_1d(mvn_mean, cov, 1, beta)
            assert abs(mean - ref_mean) < 1e-8 * max(1.0, abs(ref_mean))
            assert abs(var - ref_var) < 1e-8 * ref_var

    def test_ols_limit(self):
        # huge prior scale and unit u reduce to the least-squares conditional
        data = ARData(
            y=np.array([5.0, 6.0, 2.0, 1.0]),
            x=np.array([[1.1], [2.2], [0.5], [0.3]]),
            y_start=np.array([4.0]),
            k_max=1, sigma=1e8, f_k=np.array([0.5, 0.5]),
        )
        state = ARState(k=0, alpha=np.zeros(0), beta=np.array([0.7]), tau=1.0, u=np.ones(4))
        mean, var = birth_proposal_params(data, state)
        W1 = ar_design(data, 1)
        last = W1[:, 1]
        resid = data.y - W1[:, 0] * 0.7
        ols_mean = float(last @ resid) / float(last @ last)
        ols_var = 1.0 / float(last @ last)
        assert abs(mean - ols_mean) < 1e-6
        assert abs(var - ols_var) < 1e-6

    def test_density_integrates_to_one(self, toy_ar_data):
        state = initial_state(toy_ar_data)
        mean, var = birth_proposal_params(toy_ar_data, state)
        xs = np.linspace(mean - 12 * math.sqrt(var), mean + 12 * math.sqrt(var), 200_001)
        dens = np.exp(-0.5 * (xs - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        assert abs(np.trapezoid(dens, xs) - 1.0) < 1e-9


class TestRJStep:
    def test_acceptance_ratio_antisymmetry(self, toy_ar_data):
        from transjump.rj import log_normal_pdf as _log_normal_pdf

        probs = move_probs_green(toy_ar_data.f_k)
        gen = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            beta = gen.standard_normal(1)
            tau = float(np.exp(gen.standard_normal()))
            u = np.abs(gen.standard_normal(5)) + 0.1
            low = ARState(k=0, alpha=np.zeros(0), beta=beta, tau=tau, u=u)
            mean, var = birth_proposal_params(toy_ar_data, low)
            a = mean + math.sqrt(var) * gen.standard_normal()
            high = ARState(k=1, alpha=np.array([a]), beta=beta, tau=tau, u=u)
            lr_birth = (
                log_unnorm_posterior(toy_ar_data, high) + math.log(probs.q_d[1])
                - log_unnorm_posterior(toy_ar_data, low) - math.log(probs.q_b[0])
                - _log_normal_pdf(a, mean, var)
            )
            lr_death = (
                log_unnorm_posterior(toy_ar_data, low) + math.log(probs.q_b[0])
                + _log_normal_pdf(a, mean, var)
                - log_unnorm_posterior(toy_ar_data, high) - math.log(probs.q_d[1])
            )
            worst = max(worst, abs(lr_birth + lr_death))
        assert worst < 1e-12

    def test_forced_reject_keeps_state(self, toy_ar_data, monkeypatch):
        import transjump.ar_laplace as mod

        probs = move_probs_green(toy_ar_data.f_k)
        state = initial_state(toy_ar_data)
        real = mod.propose_birth

        def veto_birth(*args):
            proposal, _ = real(*args)
            return proposal, -np.inf

        monkeypatch.setattr(mod, "propose_birth", veto_birth)
        rng = RngStream(23)
        for _ in range(200):
            state = mod.rj_step(toy_ar_data, state, probs, rng)
            assert state.k == 0

    def test_one_step_model_moves_are_local(self):
        cfg = ARSimConfig(
            n_obs=12, p=1, k_max=4, k_true=2, alpha_true=np.array([0.3, 0.1]),
            beta_true=np.array([0.8]), tau_true=0.4,
        )
        data = simulate_ar_dataset(cfg, RngStream(77))
        probs = move_probs_green(data.f_k)
        rng = RngStream(78)
        state = initial_state(data)
        prev = state.k
        for _ in range(4000):
            state = rj_step(data, state, probs, rng)
            assert abs(state.k - prev) <= 1
            prev = state.k

    def test_birth_death_flow_balance(self, toy_ar_data):
        # stationarity: empirical 0->1 and 1->0 transition counts agree
        probs = move_probs_green(toy_ar_data.f_k)
        rng = RngStream(79)
        state = initial_state(toy_ar_data)
        for _ in range(2000):
            state = rj_step(toy_ar_data, state, probs, rng)
        up = down = 0
        prev = state.k
        n = 150_000
        for _ in range(n):
            state = rj_step(toy_ar_data, state, probs, rng)
            if state.k > prev:
                up += 1
            elif state.k < prev:
                down += 1
            prev = state.k
        assert abs(up - down) <= 1  # paths alternate; counts differ by at most 1
        assert up > n // 100  # sanity: the chain actually jumps

    def test_reproducible_under_fixed_stream(self, toy_ar_data):
        probs = move_probs_green(toy_ar_data.f_k)
        outs = []
        for _ in range(2):
            rng = RngStream(80, 4)
            st = initial_state(toy_ar_data)
            ks = []
            for _ in range(500):
                st = rj_step(toy_ar_data, st, probs, rng)
                ks.append(st.k)
            outs.append(ks)
        assert outs[0] == outs[1]


class TestGibbs:
    def test_reproducibility(self, toy_ar_data):
        a = gibbs_update(toy_ar_data, initial_state(toy_ar_data), RngStream(81, 2))
        b = gibbs_update(toy_ar_data, initial_state(toy_ar_data), RngStream(81, 2))
        assert a.tau == b.tau and np.array_equal(a.u, b.u) and np.array_equal(a.beta, b.beta)

    def test_fixed_k_matches_oracle_conditional(self, toy_ar_data, toy_oracle):
        rng = RngStream(82)
        state = ARState(k=1, alpha=np.array([0.3]), beta=np.array([0.5]), tau=1.0,
                        u=np.ones(5))
        n = 120_000
        draws = np.zeros(n)
        for t in range(n):
            state = gibbs_update(toy_ar_data, state, rng)
            draws[t] = state.alpha[0]
        draws = draws[5000:]
        assert abs(draws.mean() - toy_oracle.a_mean) < 0.02
        assert abs(draws.std() - toy_oracle.a_sd) < 0.02


    @pytest.mark.parametrize("k", [0, 3, 10])
    def test_cholesky_sweep_matches_np_linalg_form(self, scenario2_data, k):
        _check_gibbs_against_reference(scenario2_data, k)

    def test_cholesky_sweep_matches_np_linalg_form_small_p(self):
        cfg = ARSimConfig(n_obs=30, p=1, k_max=2, k_true=2, alpha_true=np.array([0.4, -0.2]),
                          beta_true=np.array([1.0]), tau_true=0.5)
        _check_gibbs_against_reference(simulate_ar_dataset(cfg, RngStream(8)), 2)


def _check_gibbs_against_reference(data, k):
    """Same stream, same draws: u is bitwise equal, tau and theta equal to rounding."""
    gen = np.random.default_rng(k)
    fit, *_ = np.linalg.lstsq(ar_design(data, k), data.y, rcond=None)
    for rep in range(3):
        theta0 = fit + 0.05 * gen.standard_normal(fit.shape[0])
        state = ARState(k=k, alpha=theta0[data.p:], beta=theta0[: data.p],
                        tau=float(gen.uniform(0.5, 2.0)), u=np.ones(data.n_obs))
        got = gibbs_update(data, state, RngStream(90, rep))
        u, tau, theta = ar_gibbs_reference(data, state, RngStream(90, rep))
        assert np.array_equal(got.u, u)
        assert abs(got.tau - tau) <= 1e-11 * tau
        got_theta = np.concatenate([got.beta, got.alpha])
        assert np.abs(got_theta - theta).max() <= 1e-11 * np.abs(theta).max()


class TestSimulate:
    def test_zero_tau_rejected(self):
        cfg = ARSimConfig(n_obs=5, p=1, k_max=1, k_true=0, alpha_true=np.zeros(0),
                          beta_true=np.ones(1), tau_true=0.0)
        with pytest.raises(ParameterError):
            simulate_ar_dataset(cfg, RngStream(1))

    def test_k_true_zero_pure_regression(self):
        cfg = ARSimConfig(n_obs=20, p=2, k_max=3, k_true=0, alpha_true=np.zeros(0),
                          beta_true=np.array([1.0, -0.5]), tau_true=0.5)
        data = simulate_ar_dataset(cfg, RngStream(2))
        assert data.n_obs == 20 and data.p == 2

    def test_k_true_above_k_max_rejected(self):
        cfg = ARSimConfig(n_obs=20, p=1, k_max=2, k_true=3, alpha_true=np.zeros(3),
                          beta_true=np.ones(1), tau_true=1.0)
        with pytest.raises(ParameterError):
            simulate_ar_dataset(cfg, RngStream(3))

    def test_paper_scale_scenario(self):
        cfg = ARSimConfig(
            n_obs=100, p=50, k_max=10, k_true=4,
            alpha_true=np.array([0.3, 0.05, 0.05, 0.05]),
            beta_true=RngStream(4).gen.standard_normal(50),
            tau_true=1.0, prior="poisson", poisson_mean=2.0,
        )
        data = simulate_ar_dataset(cfg, RngStream(5))
        assert data.n_obs == 100 and data.p == 50 and data.k_max == 10

    def test_laplace_error_variance(self):
        cfg = ARSimConfig(n_obs=20_000, p=1, k_max=1, k_true=0, alpha_true=np.zeros(0),
                          beta_true=np.zeros(1), tau_true=1.0)
        data = simulate_ar_dataset(cfg, RngStream(6))
        # with beta = 0 the responses are pure Laplace noise: variance 8 tau
        assert abs(data.y.var() - 8.0) < 0.4


def _sign_flip_data():
    cfg = ARSimConfig(n_obs=5, p=1, k_max=1, k_true=1, alpha_true=np.array([0.3]),
                      beta_true=np.array([0.7]), tau_true=0.4)
    return simulate_ar_dataset(cfg, RngStream(7))


def _toy_data(seed, tau):
    cfg = ARSimConfig(n_obs=5, p=1, k_max=1, k_true=1, alpha_true=np.array([0.4]),
                      beta_true=np.array([1.0]), tau_true=tau, sigma=1.0)
    return simulate_ar_dataset(cfg, RngStream(seed))


class TestToyOracle:
    def test_refinement_converged(self, toy_oracle):
        assert toy_oracle.achieved_tol < 1e-6

    def test_probabilities_sum_to_one(self, toy_oracle):
        assert abs(toy_oracle.p_k0 + toy_oracle.p_k1 - 1.0) < 1e-12

    @pytest.mark.parametrize("which", ["conftest", "sign_flip", "seed3_tau0.1", "seed99_tau1"])
    def test_stops_at_level_one(self, which, toy_ar_data, monkeypatch):
        # with the beta panels cut where kink lines cross, levels 0 and 1
        # already agree far inside the default rel_tol
        data = {
            "conftest": lambda: toy_ar_data,
            "sign_flip": _sign_flip_data,
            "seed3_tau0.1": lambda: _toy_data(3, 0.1),
            "seed99_tau1": lambda: _toy_data(99, 1.0),
        }[which]()
        levels = []
        k1 = ar_laplace._toy_integral_k1
        monkeypatch.setattr(
            ar_laplace, "_toy_integral_k1",
            lambda data, region, level: levels.append(level) or k1(data, region, level),
        )
        oracle = toy_quadrature_oracle(data)
        assert levels == [0, 1]
        assert oracle.achieved_tol < 1e-8

    def test_matches_recorded_truth(self, toy_oracle):
        # Regression anchor: the values the oracle gave before the crossing
        # cuts, when it refined to level 3 (achieved_tol 4.0e-7). The
        # independent check of the truth is the chain against quadrature in
        # the acceptance tests.
        recorded = dict(p_k1=0.6217167580009672, a_mean=0.42119474637622895,
                        a_sd=0.3208882110555745)
        for name, value in recorded.items():
            assert abs(getattr(toy_oracle, name) - value) < 1e-6 * abs(value)

    def test_panel_rule_matches_loop_reference(self):
        args = (-3.0, 5.0, [-4.0, 0.3, -0.2, 4.9, 7.0], 4, 0.5, 0.8)
        nodes, weights = ar_laplace._panel_gl(*args)
        ref_nodes, ref_weights = sinh_panel_gauss_legendre(*args)
        assert np.allclose(nodes, ref_nodes, rtol=1e-13, atol=1e-13)
        assert np.allclose(weights, ref_weights, rtol=1e-13, atol=1e-13)
        # the rule integrates a smooth function across the cuts
        assert abs(weights @ np.exp(-nodes * nodes) - math.sqrt(math.pi) * 0.5
                   * (math.erf(5.0) + math.erf(3.0))) < 1e-13

    def test_sign_flip_symmetry(self):
        # flipping y and the starting lags negates the conditional mean of A...
        # (the AR lag columns flip with y, so alpha's posterior is sign-symmetric
        # when x flips too)
        data = _sign_flip_data()
        flipped = ARData(
            y=-data.y, x=-data.x, y_start=-data.y_start, k_max=1, sigma=data.sigma,
            f_k=data.f_k,
        )
        a = toy_quadrature_oracle(data)
        b = toy_quadrature_oracle(flipped)
        assert abs(a.p_k1 - b.p_k1) < 1e-12
        assert abs(a.a_mean - b.a_mean) < 1e-12  # alpha multiplies flipped lags
        assert abs(a.a_sd - b.a_sd) < 1e-12

    def test_wrong_shape_rejected(self):
        cfg = ARSimConfig(n_obs=12, p=1, k_max=2, k_true=1, alpha_true=np.array([0.3]),
                          beta_true=np.ones(1), tau_true=1.0)
        data = simulate_ar_dataset(cfg, RngStream(8))
        with pytest.raises(ParameterError):
            toy_quadrature_oracle(data)


class TestTraceFunctions:
    def test_toy_values(self):
        st = ARState(k=1, alpha=np.array([0.5]), beta=np.zeros(1), tau=1.0, u=np.ones(5))
        assert np.allclose(toy_test_values(st), [1.0, 0.5, 0.25])
        st0 = ARState(k=0, alpha=np.zeros(0), beta=np.zeros(1), tau=1.0, u=np.ones(5))
        assert np.array_equal(toy_test_values(st0), np.zeros(3))

    def test_model_indicators(self):
        st = ARState(k=2, alpha=np.zeros(2), beta=np.zeros(1), tau=1.0, u=np.ones(5))
        vals = model_indicator_values(st, 4)
        assert vals[2] == 1.0 and vals.sum() == 1.0

    def test_run_chain_emits_trace(self, toy_ar_data):
        tr = run_ar_chain(toy_ar_data, 200, RngStream(9), burn_in=10)
        assert tr.f_values.shape == (200, 3)
        assert tr.meta["sampler_id"] == "ar_laplace_toy"


class TestDatasetIO:
    def test_round_trip(self, toy_ar_data, tmp_path):
        path = tmp_path / "data.txt"
        save_ar_dataset(toy_ar_data, path, config_hash="beef")
        back = load_ar_dataset(path)
        assert np.array_equal(back.y, toy_ar_data.y)
        assert np.array_equal(back.x, toy_ar_data.x)
        assert np.array_equal(back.y_start, toy_ar_data.y_start)
        assert np.array_equal(back.f_k, toy_ar_data.f_k)
        save_ar_dataset(back, tmp_path / "again.txt", config_hash="beef")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "row, col", [(0, 3), (1, 0), (2, 0), (3, 1), (7, 1)],
        ids=["sigma", "y_start", "y", "x", "f_k"],
    )
    def test_non_finite_value_rejected(self, toy_ar_data, tmp_path, row, col):
        path = tmp_path / "data.txt"
        save_ar_dataset(toy_ar_data, path)
        lines = path.read_text().splitlines()
        vals = lines[row].split()
        vals[col] = "nan"
        lines[row] = " ".join(vals)
        path.write_text("\n".join(lines) + "\n")
        field = col + 1 if row else 1  # the header's one float field is sigma
        message = f"^line {row + 1}: .* field {field} must be finite"
        with pytest.raises(TraceParseError, match=message):
            load_ar_dataset(path)

    @pytest.mark.parametrize("row, what", [(1, "starting lag"), (7, "prior weight")])
    def test_non_numeric_value_rejected(self, toy_ar_data, tmp_path, row, what):
        path = tmp_path / "data.txt"
        save_ar_dataset(toy_ar_data, path)
        lines = path.read_text().splitlines()
        lines[row] = "abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match=f"^line {row + 1}: non-numeric {what}"):
            load_ar_dataset(path)

    def test_non_finite_array_named(self, toy_ar_data):
        x = toy_ar_data.x.copy()
        x[3, 0] = np.inf
        message = r"x must be finite; row 3, column 0 \(from 0\) is inf"
        with pytest.raises(ParameterError, match=message):
            ARData(y=toy_ar_data.y, x=x, y_start=toy_ar_data.y_start, k_max=1,
                   sigma=1.0, f_k=toy_ar_data.f_k)
        y = toy_ar_data.y.copy()
        y[2] = np.nan
        with pytest.raises(ParameterError, match="y must be finite; entry 2"):
            ARData(y=y, x=toy_ar_data.x, y_start=toy_ar_data.y_start, k_max=1,
                   sigma=1.0, f_k=toy_ar_data.f_k)
        with pytest.raises(ParameterError, match="sigma must be positive and finite"):
            ARData(y=toy_ar_data.y, x=toy_ar_data.x, y_start=toy_ar_data.y_start, k_max=1,
                   sigma=np.nan, f_k=toy_ar_data.f_k)

    def test_k_max_zero_round_trip(self, tmp_path):
        cfg = ARSimConfig(n_obs=10, p=1, k_max=0, k_true=0, alpha_true=np.zeros(0),
                          beta_true=np.ones(1), tau_true=1.0)
        data = simulate_ar_dataset(cfg, RngStream(10))
        path = tmp_path / "data.txt"
        save_ar_dataset(data, path)
        back = load_ar_dataset(path)
        assert back.k_max == 0 and np.array_equal(back.y, data.y)
        save_ar_dataset(back, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
