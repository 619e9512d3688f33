"""Reversible jump skeleton shared by the autoregression and probit samplers.

A model supplies its move probabilities, its within-model kernel, and birth
and death proposals that return the proposed state with the log of their
proposal and move-selection factors. This module picks the move, adds the
posterior ratio, accepts or rejects (Green 1995), and runs the chain.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def log_normal_pdf(x: float, mean: float, var: float) -> float:
    """Log density of N(mean, var) at x."""
    return -0.5 * (LOG_2PI + math.log(var)) - 0.5 * (x - mean) ** 2 / var


def cached_logpost(log_post, data, state) -> float:
    """``log_post(data, state)``, computed once and kept in ``state.logpost``."""
    if state.logpost is None:
        state.logpost = log_post(data, state)
    return state.logpost


def step(data, state, rng, q_u, q_b, within, birth, death, log_post, *args):
    """One transition: ``within`` with probability q_u, birth with q_b, else death.

    ``birth(data, state, rng, *args)`` and ``death(...)`` return
    ``(proposal, log_q)``, where log_q holds every term of the log acceptance
    ratio except the posterior ratio. A rejected jump returns ``state`` itself.
    """
    move = rng.gen.random()
    if move < q_u:
        return within(data, state, rng)
    proposal, log_q = (birth if move < q_u + q_b else death)(data, state, rng, *args)
    log_ratio = (
        cached_logpost(log_post, data, proposal) - cached_logpost(log_post, data, state) + log_q
    )
    if math.log(rng.gen.random()) < log_ratio:
        return proposal
    return state


def run_chain(transition, state, n: int, burn_in: int, record, d: int) -> np.ndarray:
    """Burn in, then take n steps; row t holds ``record`` of the state after step t."""
    for _ in range(burn_in):
        state = transition(state)
    f_values = np.zeros((n, d))
    for t in range(n):
        state = transition(state)
        f_values[t] = record(state)
    return f_values
