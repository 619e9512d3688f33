"""Reversible jump skeleton shared by the autoregression and probit samplers.

A model supplies its move probabilities, its within-model kernel, and birth
and death proposals that return the proposed state with its whole log
acceptance ratio. This module picks the move, accepts or rejects (Green 1995),
and runs the chain.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def log_normal_pdf(x: float, mean: float, var: float) -> float:
    """Log density of N(mean, var) at x."""
    return -0.5 * (LOG_2PI + math.log(var)) - 0.5 * (x - mean) ** 2 / var


def step(data, state, rng, q_u, q_b, within, birth, death, *args):
    """One transition: ``within`` with probability q_u, birth with q_b, else death.

    ``birth(data, state, rng, *args)`` and ``death(...)`` return
    ``(proposal, log_ratio)``, the log acceptance ratio of moving to the
    proposal. A rejected jump returns ``state`` itself.
    """
    move = rng.gen.random()
    if move < q_u:
        return within(data, state, rng)
    proposal, log_ratio = (birth if move < q_u + q_b else death)(data, state, rng, *args)
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
