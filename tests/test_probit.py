import copy
import math

import numpy as np
import pytest

import mpmath

from transjump import probit
from transjump.errors import NumericError, ParameterError, TraceParseError
from transjump.probit import (
    ProbitData,
    ProbitState,
    da_update,
    initial_state,
    load_spambase,
    log_unnorm_posterior,
    mode_and_curvature,
    move_probs_spike_slab,
    rj_step,
    run_probit_chain,
)
from transjump.rng import RngStream

import _oracles
from _oracles import probit_log_posterior_reference, probit_model_posterior, probit_mode_reference


@pytest.fixture(scope="module")
def spam_like():
    # the 4601x57 synthetic of acceptance criterion 11, standardized in memory
    gen = np.random.default_rng(20240)
    n, r = 4601, 57
    x = np.round(np.abs(gen.standard_normal((n, r))) * gen.uniform(0.05, 20.0, r), 4)
    coef = np.zeros(r)
    hot = gen.choice(r, size=6, replace=False)
    coef[hot] = gen.normal(0.0, 0.8, 6)
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    prob = 0.5 * (1.0 + np.vectorize(math.erf)((xs @ coef - 0.3) / math.sqrt(2)))
    y = (gen.random(n) < prob).astype(int)
    return ProbitData(y=y, x=xs, sigma=1.0, p_slab=0.5)


def _random_jumps(data, seed, count, max_size=6):
    """(k_new, z_partial, j) triples: a model of at most max_size predictors plus j."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(gen.integers(1, min(max_size, data.r) + 1))
        k_new = np.zeros(data.r, dtype=np.int8)
        k_new[gen.choice(data.r, size=size, replace=False)] = 1
        j = int(gen.choice(np.flatnonzero(k_new)))
        z_partial = gen.standard_normal(size) * gen.choice([0.3, 1.0, 3.0])
        out.append((k_new, z_partial, j))
    return out


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _close(a, b, rel=1e-12):
    # the sign flip and the reused Newton evaluation are exact; products over
    # the model's columns, not the zero-padded design, round differently
    return abs(a - b) <= rel * abs(b)


class TestLogPosterior:
    def test_empty_model_closed_form(self, probit_small):
        state = initial_state(probit_small)
        lp = log_unnorm_posterior(probit_small, state)
        n = probit_small.n_obs
        expected = -math.log(math.sqrt(2 * math.pi) * probit_small.sigma) + n * math.log(0.5)
        assert abs(lp - expected) < 1e-12

    def test_length_mismatch_rejected(self, probit_small):
        bad = ProbitState(k=np.array([1, 0, 0], dtype=np.int8), z=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ParameterError):
            bad.validate()

    def test_matches_extended_precision(self, probit_small):
        # evaluate the same formula with mpmath's 50-digit normal cdf
        mpmath.mp.dps = 50
        gen = np.random.default_rng(31)
        for _ in range(20):
            k = (gen.random(3) < 0.5).astype(np.int8)
            z = gen.standard_normal(int(k.sum()) + 1) * 2.0
            state = ProbitState(k=k, z=z)
            lp = log_unnorm_posterior(probit_small, state)
            cols = np.concatenate([[0], np.flatnonzero(k) + 1])
            mu = probit_small._x_full[:, cols] @ z
            acc = mpmath.mpf(0)
            for mui, yi in zip(mu, probit_small.y):
                p = mpmath.ncdf(mpmath.mpf(float(mui)))
                acc += mpmath.log(p) if yi == 1 else mpmath.log(1 - p)
            size = int(k.sum())
            acc += size * mpmath.log(mpmath.mpf("0.5"))
            acc -= (size + 1) * mpmath.log(mpmath.sqrt(2 * mpmath.pi) * 1.0)
            acc -= mpmath.mpf(float(z @ z)) / 2
            assert abs(lp - float(acc)) < 1e-10 * max(1.0, abs(float(acc)))

    def test_deep_tail_stability(self, probit_small):
        state = ProbitState(k=np.array([1, 0, 0], dtype=np.int8), z=np.array([30.0, -25.0]))
        lp = log_unnorm_posterior(probit_small, state)
        assert np.isfinite(lp)


class TestDaUpdate:
    def test_reproducible(self, probit_small):
        a = da_update(probit_small, initial_state(probit_small), RngStream(3, 7))
        b = da_update(probit_small, initial_state(probit_small), RngStream(3, 7))
        assert np.array_equal(a.z, b.z)

    def test_keeps_model(self, probit_small):
        state = ProbitState(k=np.array([1, 1, 0], dtype=np.int8), z=np.zeros(3))
        out = da_update(probit_small, state, RngStream(4))
        assert np.array_equal(out.k, state.k)
        assert out.z.shape == (3,)

    @pytest.mark.parametrize("name", ["probit_small", "spam_like"])
    def test_matches_np_linalg_form(self, name, request):
        # same stream, same draws: only the rounding of the Gaussian step differs
        data = request.getfixturevalue(name)
        for t, (k, z_partial, _) in enumerate(_random_jumps(data, 44, 12)):
            z = np.append(0.2, z_partial)
            got = da_update(data, ProbitState(k=k, z=z), RngStream(45, t)).z
            ref = _oracles.probit_da_reference(data, k, z, RngStream(45, t))
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_non_positive_definite_precision_named(self, probit_small):
        data = copy.copy(probit_small)
        data._gram = -probit_small._gram
        with pytest.raises(NumericError, match="leading minor 1 failed"):
            da_update(data, initial_state(data), RngStream(6))

    def test_intercept_column_is_ones(self, probit_small):
        assert np.array_equal(probit_small._x_full[:, 0], np.ones(probit_small.n_obs))

    def test_fixed_model_stationarity(self, probit_small):
        # long-run mean/sd of the intercept under the full model vs a dense
        # Gauss-Hermite quadrature of the same conditional posterior
        import itertools
        from scipy.special import log_ndtr

        k = np.ones(3, dtype=np.int8)
        state = ProbitState(k=k, z=np.zeros(4))
        rng = RngStream(5)
        n = 60_000
        draws = np.zeros((n, 4))
        for t in range(n):
            state = da_update(probit_small, state, rng)
            draws[t] = state.z
        draws = draws[4000:]

        X = probit_small._x_full
        sign = np.where(probit_small.y == 1, 1.0, -1.0)
        Xs = X * sign[:, None]

        def logpost(z):
            return float(log_ndtr(Xs @ z).sum()) - float(z @ z) / 2.0

        # adapted GH grid moments
        from _oracles import probit_model_log_evidence  # noqa: F401  (mode logic inline below)

        z = np.zeros(4)
        for _ in range(50):
            t = Xs @ z
            lp = -0.5 * (math.log(2 * math.pi) + t * t)
            im = np.exp(lp - log_ndtr(t))
            g = Xs.T @ im - z
            w = im * (im + t)
            H = -(Xs * w[:, None]).T @ Xs - np.eye(4)
            z = z + np.linalg.solve(H, -g)
            if np.abs(g).max() < 1e-11:
                break
        cov = np.linalg.inv(-H)
        A = np.linalg.cholesky(cov)
        xg, wg = np.polynomial.hermite.hermgauss(24)
        idx = np.array(list(itertools.product(*[range(24)] * 4)))
        grids = xg[idx]
        logw = np.log(wg)[idx].sum(axis=1)
        pts = z[None, :] + math.sqrt(2.0) * (grids @ A.T)
        vals = np.array([logpost(p) for p in pts]) + (grids * grids).sum(axis=1) + logw
        wts = np.exp(vals - vals.max())
        mean0 = float((wts * pts[:, 0]).sum() / wts.sum())
        sd0 = math.sqrt(float((wts * pts[:, 0] ** 2).sum() / wts.sum()) - mean0**2)
        assert abs(draws[:, 0].mean() - mean0) < 0.02
        assert abs(draws[:, 0].std() - sd0) < 0.02


class TestModeAndCurvature:
    def test_prior_only_when_feature_is_orthogonal(self):
        # a feature that never appears in the likelihood: mode 0, variance sigma^2
        x = np.zeros((4, 2))
        x[:, 0] = [1.0, -1.0, 2.0, -2.0]
        data = ProbitData(y=np.array([1, 0, 1, 0]), x=x, sigma=1.5, p_slab=0.5)
        k_new = np.array([0, 1], dtype=np.int8)
        mode, var = mode_and_curvature(data, k_new, np.zeros(1), 1)
        assert abs(mode) < 1e-12
        assert abs(var - 1.5**2) < 1e-10

    def test_quadratic_objective_single_newton_step(self, probit_small):
        # with a nearly flat likelihood contribution the prior dominates;
        # Newton converges immediately to ~0
        mode, var = mode_and_curvature(
            probit_small, np.array([0, 0, 1], dtype=np.int8), np.array([0.0]), 2
        )
        assert np.isfinite(mode) and var > 0

    def test_mode_matches_grid_argmax(self, probit_small):
        gen = np.random.default_rng(32)
        for _ in range(5):
            k_new = np.array([1, 0, 1], dtype=np.int8)
            z_partial = gen.standard_normal(2)
            mode, var = mode_and_curvature(probit_small, k_new, z_partial, 0)
            grid = np.linspace(mode - 1.0, mode + 1.0, 20001)
            best = -np.inf
            best_b = None
            for b in grid:
                z = np.insert(z_partial, 1, b)
                lp = log_unnorm_posterior(probit_small, ProbitState(k=k_new, z=z))
                if lp > best:
                    best, best_b = lp, b
            assert abs(mode - best_b) < 1e-4 + 1e-4  # grid resolution limited
            assert var > 0

    def test_rejects_excluded_index(self, probit_small):
        with pytest.raises(ParameterError):
            mode_and_curvature(probit_small, np.zeros(3, dtype=np.int8), np.zeros(1), 1)


class TestAgainstOriginalKernels:
    """The kernels against verbatim copies of their original implementations."""

    @pytest.mark.parametrize("name", ["probit_small", "spam_like"])
    def test_posterior_matches_two_branch_form(self, name, request):
        data = request.getfixturevalue(name)
        for k_new, z_partial, j in _random_jumps(data, 41, 40):
            z = np.append(z_partial, 0.5)
            got = log_unnorm_posterior(data, ProbitState(k=k_new, z=z))
            assert _close(got, probit_log_posterior_reference(data, k_new, z))

    @pytest.mark.parametrize("name", ["probit_small", "spam_like"])
    def test_mode_matches_original_search(self, name, request):
        data = request.getfixturevalue(name)
        for k_new, z_partial, j in _random_jumps(data, 42, 40):
            mode, var = mode_and_curvature(data, k_new, z_partial, j)
            ref_mode, ref_var = probit_mode_reference(data, k_new, z_partial, j)
            assert _close(mode, ref_mode) and _close(var, ref_var)

    def test_one_log_ndtr_pass_per_posterior(self, spam_like, monkeypatch):
        calls = _count_calls(monkeypatch, probit, "log_ndtr")
        k = np.zeros(spam_like.r, dtype=np.int8)
        k[[3, 17]] = 1
        log_unnorm_posterior(spam_like, ProbitState(k=k, z=np.array([0.1, 0.4, -0.2])))
        assert calls[0] == 1

    def test_newton_reuses_its_last_evaluation(self, spam_like, monkeypatch):
        # k Newton steps take k + 1 derivative evaluations; the original k + 2
        calls = _count_calls(monkeypatch, probit, "log_ndtr")
        ref_calls = _count_calls(monkeypatch, _oracles, "log_ndtr")
        for k_new, z_partial, j in _random_jumps(spam_like, 43, 10):
            calls[0] = ref_calls[0] = 0
            mode_and_curvature(spam_like, k_new, z_partial, j)
            probit_mode_reference(spam_like, k_new, z_partial, j)
            assert ref_calls[0] >= 3
            assert calls[0] == ref_calls[0] - 1

    @pytest.mark.parametrize("name", ["probit_small", "spam_like"])
    def test_bisection_fallback(self, name, request, monkeypatch):
        # a NaN from the first derivative evaluation makes the Newton iterate
        # non-finite, which hands the search to the bracketing bisection
        data = request.getfixturevalue(name)
        k_new, z_partial, j = _random_jumps(data, 44, 1)[0]
        newton_mode, newton_var = mode_and_curvature(data, k_new, z_partial, j)
        for module in (probit, _oracles):
            original = module.log_ndtr
            first = [True]

            def poisoned(t, original=original, first=first):
                if first[0]:
                    first[0] = False
                    return np.full_like(t, np.nan)
                return original(t)

            monkeypatch.setattr(module, "log_ndtr", poisoned)
        mode, var = mode_and_curvature(data, k_new, z_partial, j)
        ref_mode, ref_var = probit_mode_reference(data, k_new, z_partial, j)
        assert np.isfinite(mode) and var > 0
        assert _close(mode, ref_mode) and _close(var, ref_var)
        # bisection stops at |gradient| < 1e-10, close to the Newton root
        assert abs(mode - newton_mode) < 1e-10 * newton_var * 10
        assert abs(var - newton_var) < 1e-6 * newton_var


class TestMoveProbs:
    def test_boundaries(self):
        q_u, q_b, q_d = move_probs_spike_slab(0.5, 5, 0)
        assert q_d == 0.0
        q_u, q_b, q_d = move_probs_spike_slab(0.5, 5, 5)
        assert q_b == 0.0

    def test_printed_arithmetic(self):
        q_u, q_b, q_d = move_probs_spike_slab(0.5, 57, 28)
        assert abs(q_b - 1.0 / 6.0) < 1e-15
        assert abs(q_d - 1.0 / 3.0) < 1e-15

    def test_prior_times_selection_identity(self):
        # f_K(k') q_D(k') (|I|+1)^{-1} / [f_K(k) q_B(k) (r-|I|)^{-1}] = 1
        p, r = 0.37, 9
        for size in range(r):
            q_b = move_probs_spike_slab(p, r, size)[1]
            q_d_next = move_probs_spike_slab(p, r, size + 1)[2]
            ratio = (p * q_d_next / (size + 1)) / (q_b / (r - size))
            assert abs(ratio - 1.0) < 1e-13

    def test_single_flip_prior_ratio(self, probit_small):
        # prior mass ratio between neighbors is p^{+-1}
        p = probit_small.p_slab
        state_small = initial_state(probit_small)
        k_big = np.array([1, 0, 0], dtype=np.int8)
        state_big = ProbitState(k=k_big, z=np.array([0.0, 0.0]))
        lp_small = log_unnorm_posterior(probit_small, state_small)
        lp_big = log_unnorm_posterior(probit_small, state_big)
        # at z = 0 the likelihood terms coincide; the remaining factors are
        # the prior normalizers and p
        diff = lp_big - lp_small
        expected = math.log(p) - 0.5 * math.log(2 * math.pi) - math.log(probit_small.sigma)
        assert abs(diff - expected) < 1e-12


class TestRJStep:
    def test_antisymmetry(self, probit_small):
        from transjump.probit import _flip
        from transjump.rj import log_normal_pdf as _log_normal_pdf

        gen = np.random.default_rng(33)
        worst = 0.0
        r = probit_small.r
        for _ in range(1000):
            k = (gen.random(r) < 0.5).astype(np.int8)
            size = int(k.sum())
            if size == r:
                continue
            z = gen.standard_normal(size + 1)
            state = ProbitState(k=k, z=z)
            excluded = np.flatnonzero(k == 0)
            j = int(excluded[gen.integers(excluded.shape[0])])
            k_new = _flip(k, j, 1)
            mean, var = mode_and_curvature(probit_small, k_new, z, j)
            b = mean + math.sqrt(var) * gen.standard_normal()
            pos = int(np.searchsorted(np.flatnonzero(k_new), j)) + 1
            z_new = np.insert(z, pos, b)
            up = ProbitState(k=k_new, z=z_new)
            q_b = move_probs_spike_slab(0.5, r, size)[1]
            q_d_next = move_probs_spike_slab(0.5, r, size + 1)[2]
            lr_birth = (
                log_unnorm_posterior(probit_small, up) + math.log(q_d_next)
                - math.log(size + 1)
                - log_unnorm_posterior(probit_small, state) - math.log(q_b)
                + math.log(r - size) - _log_normal_pdf(b, mean, var)
            )
            mean2, var2 = mode_and_curvature(probit_small, up.k, z, j)
            lr_death = (
                log_unnorm_posterior(probit_small, state) + math.log(q_b)
                - math.log(r - size) + _log_normal_pdf(b, mean2, var2)
                - log_unnorm_posterior(probit_small, up) - math.log(q_d_next)
                + math.log(size + 1)
            )
            worst = max(worst, abs(lr_birth + lr_death))
        assert worst < 1e-12

    def test_insert_delete_round_trip(self, probit_small):
        from transjump.probit import _flip

        gen = np.random.default_rng(34)
        k = np.array([1, 0, 1], dtype=np.int8)
        z = gen.standard_normal(3)
        j = 1
        k_up = _flip(k, j, 1)
        pos = int(np.searchsorted(np.flatnonzero(k_up), j)) + 1
        z_up = np.insert(z, pos, 0.77)
        back_pos = int(np.searchsorted(np.flatnonzero(k_up), j)) + 1
        z_back = np.delete(z_up, back_pos)
        assert np.array_equal(np.asarray(_flip(k_up, j, 0)), k)
        assert np.array_equal(z_back, z)

    def test_model_reach_within_r_steps(self, probit_small):
        # every model is reachable: run and confirm all 8 patterns appear
        rng = RngStream(35)
        state = initial_state(probit_small)
        seen = set()
        for _ in range(30_000):
            state = rj_step(probit_small, state, rng)
            seen.add(tuple(int(v) for v in state.k))
        assert len(seen) == 8

    def test_desk_scale_stationarity_short(self, probit_small):
        # coarse check here; the tight one runs in the acceptance suite
        oracle = probit_model_posterior(probit_small, nodes=16)
        tr = run_probit_chain(probit_small, 150_000, RngStream(36), burn_in=5_000)
        ids = (tr.f_values.astype(int) * np.array([1, 2, 4])).sum(axis=1)
        freq = np.bincount(ids, minlength=8) / tr.n
        for m, target in oracle.items():
            got = freq[m[0] + 2 * m[1] + 4 * m[2]]
            assert abs(got - target) < 0.02, (m, got, target)


class TestSpambaseLoader:
    def _write(self, tmp_path, rows):
        path = tmp_path / "spam.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_loads_and_standardizes(self, tmp_path):
        gen = np.random.default_rng(37)
        rows = []
        for i in range(50):
            feats = np.abs(gen.standard_normal(5)) * [1, 10, 100, 0.01, 1]
            label = int(gen.random() < 0.5)
            rows.append(",".join(f"{v:.6f}" for v in feats) + f",{label}")
        data = load_spambase(self._write(tmp_path, rows))
        assert data.n_obs == 50 and data.r == 5
        assert np.abs(data.x.mean(axis=0)).max() < 1e-12
        assert np.abs(data.x.std(axis=0) - 1.0).max() < 1e-12

    def test_raw_mode(self, tmp_path):
        rows = ["1.0,2.0,1", "2.0,4.0,0", "0.5,1.0,1"]
        data = load_spambase(self._write(tmp_path, rows), standardize=False)
        assert np.array_equal(data.x[:, 0], [1.0, 2.0, 0.5])

    def test_ragged_row_reports_line(self, tmp_path):
        rows = ["1.0,2.0,1", "2.0,0"]
        with pytest.raises(TraceParseError, match="line 2"):
            load_spambase(self._write(tmp_path, rows))

    def test_non_binary_label(self, tmp_path):
        rows = ["1.0,2.0,1", "2.0,3.0,2"]
        with pytest.raises(TraceParseError, match="line 2"):
            load_spambase(self._write(tmp_path, rows))

    @pytest.mark.parametrize("standardize", [True, False])
    def test_non_finite_feature_rejected(self, tmp_path, standardize):
        # found before standardizing spreads the nan over its whole column
        rows = ["1.0,2.0,1", "2.0,4.0,0", "0.5,inf,1", "nan,3.0,0"]
        with pytest.raises(TraceParseError, match="^line 3: feature field 2 must be finite"):
            load_spambase(self._write(tmp_path, rows), standardize=standardize)

    def test_non_finite_design_named(self):
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        with pytest.raises(ParameterError, match=r"x must be finite; row 2, column 1 \(from 0\)"):
            ProbitData(y=np.array([0, 1, 0, 1]), x=x, sigma=1.0, p_slab=0.5)

    def test_non_finite_response_rejected(self):
        with pytest.raises(ParameterError):
            ProbitData(y=np.array([1.0, np.nan]), x=np.ones((2, 1)), sigma=1.0, p_slab=0.5)
