"""Which configs `ExperimentConfig` accepts, and how it rejects the rest.

Every (regime x normalization x comparison x grid_n x sigma) config is built,
and the outcome is checked against the paper's table per regime, written
out here by regime name:

- nlrr is a NormalReference (or "none") normalization: it has no limit law
  to sample;
- scalar NLRR rates exist for Ergodic, OppositeSign, DistinctPositive,
  PositiveDouble and LargerRootZero (theta1 only); UnstableOscillation's
  random normalization is the matrix form only;
- the limit laws of the four zero-root and unit-circle regimes are
  functionals of Brownian motion, drawn on a grid of at least 1,000 steps;
- the Cauchy-type and unstable-oscillation laws scale with sigma, so sigma
  = 0 leaves them undefined.

The rules apply in that order.  The grid also covers `car2 experiment` and
`car2 convergence`, which build every config through `ExperimentConfig`.
"""

import itertools

import pytest

from car2 import ExperimentConfig, ModelParams
from car2.montecarlo import NormalReference
from car2.regimes import NoNlrrError

from conftest import REGIME_POINTS

SCALAR_NLRR_REGIMES = {"Ergodic", "OppositeSign", "DistinctPositive", "PositiveDouble",
                       "LargerRootZero"}
GRID_LAW_REGIMES = {"LargerRootZero", "SmallerRootZero", "ZeroDouble", "Harmonic"}
SIGMA_LAW_REGIMES = {"DistinctPositive", "PositiveDouble", "UnstableOscillation"}

NORMAL = NormalReference(mean1=0.0, var1=1.0, mean2=0.0, var2=1.0)
COMPARISONS = {"limit_sampler": "limit_sampler", "none": "none", "normal": NORMAL}
CASES = list(itertools.product(sorted(REGIME_POINTS),
                               ("deterministic_rate", "nlrr", "matrix"),
                               COMPARISONS, (999, 1000), (0.0, 1.0)))


def expected_outcome(name, normalization, comparison, grid_n, sigma):
    """None for an accepted config, else (exception class, message)."""
    if normalization == "nlrr" and comparison == "limit_sampler":
        return ValueError, "nlrr normalization needs a NormalReference (or 'none') comparison"
    if normalization == "nlrr" and name not in SCALAR_NLRR_REGIMES:
        return NoNlrrError, f"regime {name} has no NLRR normalization in scalar form"
    if comparison == "limit_sampler" and name in GRID_LAW_REGIMES and grid_n < 1000:
        return ValueError, f"grid_n >= 1000 required for functional regime {name}"
    if comparison == "limit_sampler" and name in SIGMA_LAW_REGIMES and sigma == 0.0:
        return ValueError, f"sigma = 0: limit law of {name} undefined"
    return None


def test_the_grid_holds_every_outcome():
    outcomes = {expected_outcome(*case) for case in CASES}
    assert len(CASES) == 9 * 3 * 3 * 2 * 2
    assert None in outcomes and {o[0] for o in outcomes - {None}} == {ValueError, NoNlrrError}


@pytest.mark.parametrize("name,normalization,comparison,grid_n,sigma", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_config_is_accepted_or_rejected_by_the_regime_table(name, normalization, comparison,
                                                            grid_n, sigma):
    t1, t2, horizon = REGIME_POINTS[name]
    build = lambda: ExperimentConfig(
        params=ModelParams(theta1=t1, theta2=t2, sigma=sigma), horizons=(horizon,), n_reps=2,
        seed=0, normalization=normalization, comparison=COMPARISONS[comparison],
        grid_n=grid_n)
    expected = expected_outcome(name, normalization, comparison, grid_n, sigma)
    if expected is None:
        assert build().regime.tag.value == name
        return
    with pytest.raises(Exception) as info:
        build()
    assert (type(info.value), str(info.value)) == expected
