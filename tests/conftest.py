import math

import numpy as np
import pytest

from transjump.ar_laplace import ARSimConfig, simulate_ar_dataset, toy_quadrature_oracle
from transjump.probit import ProbitData
from transjump.rng import RngStream

TOY_SEED = 2024


@pytest.fixture(scope="session")
def toy_ar_data():
    cfg = ARSimConfig(
        n_obs=5, p=1, k_max=1, k_true=1,
        alpha_true=np.array([0.4]), beta_true=np.array([1.0]),
        tau_true=0.3, sigma=1.0,
    )
    return simulate_ar_dataset(cfg, RngStream(TOY_SEED))


@pytest.fixture(scope="session")
def toy_oracle(toy_ar_data):
    return toy_quadrature_oracle(toy_ar_data)


@pytest.fixture(scope="session")
def scenario2_data():
    # the settings of `simulate-ar --preset scenario2 --seed 7`
    cfg = ARSimConfig(
        n_obs=100, p=50, k_max=10, k_true=4,
        alpha_true=np.array([0.3, 0.05, 0.05, 0.05]),
        beta_true=RngStream(7, 999).gen.standard_normal(50),
        tau_true=1.0, prior="poisson", poisson_mean=2.0,
    )
    return simulate_ar_dataset(cfg, RngStream(7))


@pytest.fixture(scope="session")
def probit_small():
    gen = np.random.default_rng(5)
    n, r = 30, 3
    x = gen.standard_normal((n, r))
    truth = np.array([0.8, 0.0, -1.2])
    prob = 0.5 * (1.0 + np.vectorize(math.erf)((0.3 + x @ truth) / math.sqrt(2)))
    y = (gen.random(n) < prob).astype(int)
    return ProbitData(y=y, x=x, sigma=1.0, p_slab=0.5)
