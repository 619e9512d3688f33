"""The birth/death moves the chains run, against the closed-form log ratios.

Each proposal returns its state with log_q, every term of the log acceptance
ratio but the posterior ratio, which ``rj.step`` adds. The closed forms are
those of acceptance criterion 9.
"""

import itertools
import math

import numpy as np

from transjump import ar_laplace, probit, rj
from transjump.ar_laplace import ARState, birth_proposal_params, move_probs_green
from transjump.probit import ProbitState, mode_and_curvature, move_probs_spike_slab
from transjump.rng import RngStream


def kernel_log_ratio(log_post, data, state, proposal, log_q):
    """The log acceptance ratio as ``rj.step`` assembles it."""
    new, old = (rj.cached_logpost(log_post, data, s) for s in (proposal, state))
    return new - old + log_q


def test_ar_log_ratios_match_closed_form(toy_ar_data):
    data, lp = toy_ar_data, ar_laplace.log_unnorm_posterior
    probs = move_probs_green(data.f_k)
    gen = np.random.default_rng(1007)
    worst_form = worst_sum = 0.0
    for i in range(1000):
        beta = gen.standard_normal(1)
        tau = float(np.exp(gen.standard_normal()))
        u = np.abs(gen.standard_normal(5)) + 0.1
        low = ARState(k=0, alpha=np.zeros(0), beta=beta, tau=tau, u=u)
        high, log_q = ar_laplace.propose_birth(data, low, RngStream(51, i), probs)
        lr_birth = kernel_log_ratio(lp, data, low, high, log_q)
        a = float(high.alpha[0])
        mean, var = birth_proposal_params(data, low)
        closed = (lp(data, high) + math.log(probs.q_d[1])
                  - lp(data, low) - math.log(probs.q_b[0])
                  - rj.log_normal_pdf(a, mean, var))
        back, log_q = ar_laplace.propose_death(data, high, RngStream(52, i), probs)
        assert back.k == 0 and np.array_equal(back.beta, beta) and back.tau == tau
        lr_death = kernel_log_ratio(lp, data, high, back, log_q)
        worst_form = max(worst_form, abs(lr_birth - closed))
        worst_sum = max(worst_sum, abs(lr_birth + lr_death))
    assert worst_form < 1e-12
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
        up, log_q = probit.propose_birth(data, state, RngStream(53, count))
        lr_birth = kernel_log_ratio(lp, data, state, up, log_q)
        j = int(np.flatnonzero(up.k != k)[0])
        pos = int(np.searchsorted(np.flatnonzero(up.k), j)) + 1
        b = float(up.z[pos])
        mean, var, _ = mode_and_curvature(data, up.k, state.z, j)
        q_b = move_probs_spike_slab(data.p_slab, r, size)[1]
        q_d_next = move_probs_spike_slab(data.p_slab, r, size + 1)[2]
        closed = (lp(data, up) + math.log(q_d_next) - math.log(size + 1)
                  - lp(data, state) - math.log(q_b) + math.log(r - size)
                  - rj.log_normal_pdf(b, mean, var))
        # the matching death drops j again: try streams until one picks it
        for s in itertools.count():
            back, log_q = probit.propose_death(data, up, RngStream(54, s))
            if np.array_equal(back.k, k):
                break
        assert np.array_equal(back.z, state.z)
        lr_death = kernel_log_ratio(lp, data, up, back, log_q)
        worst_form = max(worst_form, abs(lr_birth - closed))
        worst_sum = max(worst_sum, abs(lr_birth + lr_death))
    assert worst_form < 1e-12
    assert worst_sum < 1e-12


def test_rejected_jump_returns_the_same_state(toy_ar_data):
    probs = move_probs_green(toy_ar_data.f_k)
    state = ar_laplace.initial_state(toy_ar_data)

    def veto(data, st):
        return -np.inf if st is not state else 0.0

    def never(data, st, rng):
        raise AssertionError("the within-model kernel was chosen")

    for i in range(50):
        out = rj.step(toy_ar_data, state, RngStream(55, i), 0.0, 1.0, never,
                      ar_laplace.propose_birth, ar_laplace.propose_death, veto, probs)
        assert out is state


def test_run_chain_records_each_state_after_burn_in():
    f_values = rj.run_chain(lambda s: s + 1, 0, 4, 3, lambda s: [s, -s], 2)
    assert np.array_equal(f_values, [[4, -4], [5, -5], [6, -6], [7, -7]])
