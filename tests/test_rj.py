"""The birth/death moves the chains run, against the closed-form log ratios.

Each proposal returns its state with its whole log acceptance ratio. The
autoregression's is the ratio of the marginals with the new coefficient
integrated out; the probit's adds the posterior ratio to its proposal terms.
Both are checked against the difference of full log posteriors plus the
proposal and move-selection terms, the form of acceptance criterion 9.
"""

import itertools
import math

import numpy as np
import pytest

from transjump import ar_laplace, probit, rj
from transjump.ar_laplace import ARState, birth_proposal_params, move_probs_green
from transjump.probit import ProbitState, mode_and_curvature, move_probs_spike_slab
from transjump.rng import RngStream

from _oracles import ar_rj_step_reference


def posterior_log_ratio(log_post, data, state, proposal, log_q):
    """Log acceptance ratio from two full log posteriors and the other terms log_q."""
    return log_post(data, proposal) - log_post(data, state) + log_q


def _ar_ratio_errors(data, n_states, seed):
    """Worst |ratio - full-posterior form|, |birth + death| and |logpost| over random jumps."""
    lp = ar_laplace.log_unnorm_posterior
    probs = move_probs_green(data.f_k)
    gen = np.random.default_rng(seed)
    worst_form = worst_sum = largest = 0.0
    for i in range(n_states):
        k = int(gen.integers(data.k_max))
        beta = gen.standard_normal(data.p)
        alpha = 0.1 * gen.standard_normal(k)
        tau = float(np.exp(gen.standard_normal()))
        u = np.abs(gen.standard_normal(data.n_obs)) + 0.1
        low = ARState(k=k, alpha=alpha, beta=beta, tau=tau, u=u)
        high, lr_birth = ar_laplace.propose_birth(data, low, RngStream(51, i), probs)
        a = float(high.alpha[-1])
        mean, var = birth_proposal_params(data, low)
        log_q = (math.log(probs.q_d[k + 1]) - math.log(probs.q_b[k])
                 - rj.log_normal_pdf(a, mean, var))
        closed = posterior_log_ratio(lp, data, low, high, log_q)
        back, lr_death = ar_laplace.propose_death(data, high, RngStream(52, i), probs)
        assert back.k == k and np.array_equal(back.alpha, alpha) and back.tau == tau
        worst_form = max(worst_form, abs(lr_birth - closed))
        worst_sum = max(worst_sum, abs(lr_birth + lr_death))
        largest = max(largest, abs(lp(data, low)), abs(lp(data, high)))
    return worst_form, worst_sum, largest


def test_ar_log_ratios_match_closed_form(toy_ar_data):
    worst_form, worst_sum, _ = _ar_ratio_errors(toy_ar_data, 1000, 1007)
    assert worst_form < 1e-12
    assert worst_sum < 1e-12


def test_ar_log_ratios_match_closed_form_scenario2(scenario2_data):
    # the full-posterior difference cancels terms of size |logpost|
    worst_form, worst_sum, largest = _ar_ratio_errors(scenario2_data, 300, 1009)
    assert worst_form < 1e-14 * largest
    assert worst_sum < 1e-12


def test_probit_log_ratios_match_closed_form(probit_small):
    data, lp = probit_small, probit.log_unnorm_posterior
    r = data.r
    gen = np.random.default_rng(1008)
    worst_form = worst_sum = 0.0
    count = 0
    while count < 1000:
        k = (gen.random(r) < 0.5).astype(np.int8)
        size = int(k.sum())
        if size == r:
            continue
        count += 1
        state = ProbitState(k=k, z=gen.standard_normal(size + 1))
        up, lr_birth = probit.propose_birth(data, state, RngStream(53, count))
        j = int(np.flatnonzero(up.k != k)[0])
        pos = int(np.searchsorted(np.flatnonzero(up.k), j)) + 1
        b = float(up.z[pos])
        mean, var, _ = mode_and_curvature(data, up.k, state.z, j)
        q_b = move_probs_spike_slab(data.p_slab, r, size)[1]
        q_d_next = move_probs_spike_slab(data.p_slab, r, size + 1)[2]
        log_q = (math.log(q_d_next) - math.log(size + 1) - math.log(q_b) + math.log(r - size)
                 - rj.log_normal_pdf(b, mean, var))
        closed = posterior_log_ratio(lp, data, state, up, log_q)
        # the matching death drops j again: try streams until one picks it
        for s in itertools.count():
            back, lr_death = probit.propose_death(data, up, RngStream(54, s))
            if np.array_equal(back.k, k):
                break
        assert np.array_equal(back.z, state.z)
        worst_form = max(worst_form, abs(lr_birth - closed))
        worst_sum = max(worst_sum, abs(lr_birth + lr_death))
    assert worst_form < 1e-12
    assert worst_sum < 1e-12


@pytest.mark.parametrize("name, n", [("toy_ar_data", 4000), ("scenario2_data", 3000)])
def test_ar_chain_matches_full_posterior_reference(name, n, request):
    """Same stream, same states: the closed-form ratio decides every jump as before."""
    data = request.getfixturevalue(name)
    probs = move_probs_green(data.f_k)
    rng, ref_rng = RngStream(56), RngStream(56)
    state = ref = ar_laplace.initial_state(data)
    jumps = 0
    for _ in range(n):
        state = ar_laplace.rj_step(data, state, probs, rng)
        new_ref = ar_rj_step_reference(data, ref, probs, ref_rng)
        jumps += new_ref.k != ref.k
        ref = new_ref
        assert state.k == ref.k and state.tau == ref.tau
        for field in ("alpha", "beta", "u"):
            assert np.array_equal(getattr(state, field), getattr(ref, field)), field
    assert jumps > n // 100  # the chain actually jumps


def test_rejected_jump_returns_the_same_state(toy_ar_data):
    probs = move_probs_green(toy_ar_data.f_k)
    state = ar_laplace.initial_state(toy_ar_data)

    def vetoed(move):
        def propose(*args):
            proposal, _ = move(*args)
            return proposal, -np.inf
        return propose

    def never(data, st, rng):
        raise AssertionError("the within-model kernel was chosen")

    for i in range(50):
        out = rj.step(toy_ar_data, state, RngStream(55, i), 0.0, 1.0, never,
                      vetoed(ar_laplace.propose_birth), vetoed(ar_laplace.propose_death), probs)
        assert out is state


def test_run_chain_records_each_state_after_burn_in():
    f_values = rj.run_chain(lambda s: s + 1, 0, 4, 3, lambda s: [s, -s], 2)
    assert np.array_equal(f_values, [[4, -4], [5, -5], [6, -6], [7, -7]])
