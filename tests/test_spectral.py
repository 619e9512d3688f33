import numpy as np
import pytest

from transjump.errors import ParameterError, StructureError, TraceParseError
from transjump.rng import RngStream
from transjump.spectral import (
    FiniteTransChain,
    WithinKernelSet,
    build_gamma,
    build_model_jump_matrix,
    check_h2_via_gamma,
    check_h2_via_s_step,
    decomposition_inequality_check,
    l20_operator_norm,
    lambda1,
    random_decomposed_chain,
    read_chain_file,
    stationary_distribution,
    theorem2_bound_check,
    write_chain_file,
)


def two_state(a=0.3, b=0.1):
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


class TestStationary:
    def test_two_state_closed_form(self):
        pi = stationary_distribution(two_state())
        # pi = (b, a)/(a+b)
        assert np.abs(pi - np.array([0.25, 0.75])).max() < 1e-14

    def test_doubly_stochastic_uniform(self):
        P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        pi = stationary_distribution(P)
        assert np.abs(pi - 1.0 / 3.0).max() < 1e-14

    def test_residual_tolerance(self):
        gen = np.random.default_rng(1)
        P = gen.random((40, 40)) + 1e-3
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_distribution(P)
        assert np.abs(pi @ P - pi).sum() <= 1e-12

    def test_reducible_reports_strata(self):
        with pytest.raises(StructureError, match="strata"):
            stationary_distribution(np.eye(3))


class TestOperatorNorm:
    def test_independence_kernel_is_zero(self):
        pi = np.array([0.25, 0.75])
        P = np.tile(pi, (2, 1))
        assert l20_operator_norm(P, pi) < 1e-12

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        P = two_state(a, b)
        pi = stationary_distribution(P)
        assert abs(l20_operator_norm(P, pi) - abs(1 - a - b)) < 1e-12

    def test_identity_is_one(self):
        assert l20_operator_norm(np.eye(3), np.full(3, 1 / 3)) == 1.0

    def test_powers_nonincreasing(self):
        chain, _ = random_decomposed_chain(RngStream(40, 2))
        norms = [
            l20_operator_norm(np.linalg.matrix_power(chain.transition, t), chain.stationary)
            for t in range(1, 6)
        ]
        assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(4))


class TestGamma:
    def test_birth_death_band(self):
        chain, _ = random_decomposed_chain(RngStream(41, 0), n_models=4, structure="banded")
        gamma = build_gamma(chain)
        expected = np.zeros((4, 4), dtype=int)
        for i in range(4):
            for j in range(4):
                if abs(i - j) <= 1:
                    expected[i, j] = 1
        assert np.array_equal(gamma, expected)

    def test_single_model(self):
        P = two_state()
        chain = FiniteTransChain.from_transition(P, np.array([0, 0]))
        assert np.array_equal(build_gamma(chain), np.array([[1]]))

    def test_never_communicating_blocks(self):
        P = np.zeros((4, 4))
        P[:2, :2] = two_state()
        P[2:, 2:] = two_state(0.2, 0.4)
        pi = np.zeros(4)
        pi[:2] = 0.5 * stationary_distribution(two_state())
        pi[2:] = 0.5 * stationary_distribution(two_state(0.2, 0.4))
        chain = FiniteTransChain(transition=P, model_of=np.array([0, 0, 1, 1]), stationary=pi)
        gamma = build_gamma(chain)
        assert gamma[0, 1] == 0 and gamma[1, 0] == 0


class TestH2:
    def test_tridiagonal_power(self):
        k_max = 5
        gamma = np.zeros((k_max + 1, k_max + 1), dtype=int)
        for i in range(k_max + 1):
            for j in range(k_max + 1):
                if abs(i - j) <= 1:
                    gamma[i, j] = 1
        assert check_h2_via_gamma(gamma, k_max)
        assert not check_h2_via_gamma(gamma, k_max - 1) or k_max == 1

    def test_identity_gamma_false(self):
        assert not check_h2_via_gamma(np.eye(3), 7)

    def test_full_ones(self):
        assert check_h2_via_gamma(np.ones((3, 3)), 1)

    def test_s_step_banded_needs_enough_hops(self):
        chain, _ = random_decomposed_chain(RngStream(42, 5), n_models=3, structure="banded")
        assert not check_h2_via_s_step(chain, 1).holds
        res = check_h2_via_s_step(chain, 2)
        assert res.holds and res.gamma_holds

    def test_implication_on_ensemble(self):
        # reachability lemma: s-step positivity forces Gamma^s positivity;
        # check_h2_via_s_step raises internally on any counterexample
        for i in range(100):
            chain, _ = random_decomposed_chain(RngStream(43, i), max_states=30)
            s = max(chain.n_models - 1, 1)
            res = check_h2_via_s_step(chain, s)
            if res.holds:
                assert res.gamma_holds


class TestModelJump:
    def test_state_independent_jump_closed_form(self):
        q = 0.3
        P = two_state(q, q)
        chain = FiniteTransChain(
            transition=P, model_of=np.array([0, 1]), stationary=np.array([0.5, 0.5])
        )
        M = build_model_jump_matrix(chain)
        qq = 2 * q * (1 - q)
        assert np.abs(M - np.array([[1 - qq, qq], [qq, 1 - qq]])).max() < 1e-14
        assert abs(lambda1(M, chain.model_masses()) - (1 - 2 * qq)) < 1e-12

    def test_never_leaving_gives_identity(self):
        P = np.eye(4)
        chain = FiniteTransChain(
            transition=P, model_of=np.array([0, 0, 1, 1]), stationary=np.full(4, 0.25)
        )
        M = build_model_jump_matrix(chain)
        assert np.allclose(M, np.eye(2))
        assert lambda1(M, chain.model_masses()) == 1.0

    def test_reversible_two_step_interpretation(self):
        # for reversible P, M[k,k'] is the Phi_k-average two-step jump probability
        chain, _ = random_decomposed_chain(RngStream(44, 1), n_models=3, structure="full")
        P = chain.transition
        pi = chain.stationary
        assert np.abs(pi[:, None] * P - (pi[:, None] * P).T).max() < 1e-12  # reversible
        M = build_model_jump_matrix(chain)
        P2 = P @ P
        for k in range(3):
            idx = chain.states_of_model(k)
            phi = chain.conditional_within(k)
            for kp in range(3):
                jdx = chain.states_of_model(kp)
                direct = float(phi @ P2[np.ix_(idx, jdx)].sum(axis=1))
                assert abs(M[k, kp] - direct) < 1e-12

    def test_row_sums_and_psd(self):
        for i in range(20):
            chain, _ = random_decomposed_chain(RngStream(45, i))
            M = build_model_jump_matrix(chain)
            assert np.abs(M.sum(axis=1) - 1.0).max() < 1e-12
            lam = lambda1(M, chain.model_masses())
            assert 0.0 <= lam <= 1.0

    def test_rank_one_lambda_zero(self):
        pibar = np.array([0.4, 0.6])
        assert lambda1(np.tile(pibar, (2, 1)), pibar) == 0.0


class TestBounds:
    def test_theorem2_holds_on_ensemble(self):
        for i in range(60):
            chain, kernels = random_decomposed_chain(RngStream(46, i))
            for t in (1, 2, 3):
                rep = theorem2_bound_check(chain, kernels, t)
                assert rep.holds, (i, t, rep.lhs, rep.rhs)

    def test_zero_c_trivially_holds(self):
        chain, kernels = random_decomposed_chain(RngStream(47, 0), n_models=2)
        kernels = WithinKernelSet(kernels=kernels.kernels, c=np.zeros(2))
        rep = theorem2_bound_check(chain, kernels, 1)
        assert rep.rhs == 0.0 and rep.holds

    def test_independence_within_kernels(self):
        # P_k = independence sampler has norm zero; rhs = (min c)^2 (1 - lambda1)
        chain, kernels = random_decomposed_chain(RngStream(48, 3), structure="full")
        indep = [np.tile(chain.conditional_within(k), (chain.states_of_model(k).size, 1))
                 for k in range(chain.n_models)]
        # domination c_k P_k <= P must still hold; use a safely small c
        c = np.full(chain.n_models, 1e-3)
        ks = WithinKernelSet(kernels=indep, c=c)
        rep = theorem2_bound_check(chain, ks, 1)
        M = build_model_jump_matrix(chain)
        lam = lambda1(M, chain.model_masses())
        assert abs(rep.rhs - (1e-3) ** 2 * (1.0 - lam)) < 1e-12
        assert rep.holds

    def test_domination_violation_is_input_error(self):
        chain, kernels = random_decomposed_chain(RngStream(49, 0))
        bad = WithinKernelSet(kernels=kernels.kernels, c=np.ones(chain.n_models))
        with pytest.raises(ParameterError):
            theorem2_bound_check(chain, bad, 1)

    def test_decomposition_inequality_ensemble(self):
        for i in range(40):
            chain, kernels = random_decomposed_chain(RngStream(50, i), max_states=40)
            rep = decomposition_inequality_check(
                chain.transition, chain.transition, kernels, float(kernels.c.min()),
                chain.stationary, chain.model_of,
            )
            assert rep.holds, (i, rep.lhs, rep.rhs)

    def test_reversible_t_equals_s_identity(self):
        # with T = S reversible, ||T S*|| = ||T||^2, so lhs = 1 - ||T||^4
        chain, kernels = random_decomposed_chain(RngStream(51, 2), structure="full")
        rep = decomposition_inequality_check(
            chain.transition, chain.transition, kernels, float(kernels.c.min()),
            chain.stationary, chain.model_of,
        )
        norm = l20_operator_norm(chain.transition, chain.stationary)
        assert abs(rep.lhs - (1.0 - norm**4)) < 1e-10

    def test_zero_c_vacuous(self):
        chain, kernels = random_decomposed_chain(RngStream(52, 0))
        rep = decomposition_inequality_check(
            chain.transition, chain.transition, kernels, 0.0,
            chain.stationary, chain.model_of,
        )
        assert rep.rhs == 0.0 and rep.holds


class TestChainFile:
    def test_round_trip(self, tmp_path):
        chain, _ = random_decomposed_chain(RngStream(53, 0))
        path = tmp_path / "chain.txt"
        write_chain_file(chain, path)
        loaded = read_chain_file(path)
        assert np.abs(loaded.transition - chain.transition).max() < 1e-15
        assert np.array_equal(loaded.model_of, chain.model_of)
        write_chain_file(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_bad_row_sum(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.5 0.4\n0.5 0.5\n0 0\n")
        with pytest.raises(TraceParseError):
            read_chain_file(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("two models\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_chain_file(path)


@pytest.mark.parametrize("which", ["transition", "stationary"])
def test_chain_validation_rejects_non_finite(which):
    P = np.full((3, 3), 1.0 / 3.0)
    parts = {"transition": P, "stationary": np.full(3, 1.0 / 3.0)}
    parts[which] = parts[which].copy()
    parts[which].flat[1] = np.nan
    with pytest.raises(ParameterError, match=f"^{which} must be finite; (row 0, column|entry) 1"):
        FiniteTransChain(model_of=np.array([0, 0, 1]), **parts)


def test_from_transition_rejects_non_finite():
    P = np.full((3, 3), 1.0 / 3.0)
    P[0, 1] = np.nan
    with pytest.raises(ParameterError, match="^transition must be finite; row 0, column 1"):
        FiniteTransChain.from_transition(P, np.array([0, 0, 1]))


def test_chain_validation_rejects_bad_stationary():
    with pytest.raises(ParameterError):
        FiniteTransChain(
            transition=two_state(), model_of=np.array([0, 1]),
            stationary=np.array([0.5, 0.5]),
        )
