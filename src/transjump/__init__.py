"""Trans-dimensional MCMC engine with error assessment and spectral verification.

Modules:

- ``rng``: seedable random streams and exact distribution samplers
- ``mvnprob``: QMC multivariate normal rectangle probabilities and the
  simultaneous-interval quantile solver
- ``spectral``: finite-chain verification of the decomposition convergence bounds
- ``uq``: ergodic averages, batch-means covariance, noise-injected
  simultaneous confidence intervals
- ``rj``: the reversible jump step and chain loop both samplers share
- ``ar_laplace``: reversible jump sampler for Laplace-error autoregression
  order selection
- ``probit``: reversible jump sampler for probit variable selection
- ``cli``: the ``transjump`` command-line interface
"""

__version__ = "0.1.0"

from .mvnprob import RectProbRequest, RectProbResult, mvn_rectangle_prob, solve_rectangle_quantile  # noqa: F401
from .rng import RngStream  # noqa: F401
from .spectral import FiniteTransChain, WithinKernelSet  # noqa: F401
from .uq import SimCIReport, Trace, simultaneous_cis  # noqa: F401
