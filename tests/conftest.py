"""Shared builders for the test suite.

The discrete-table setup used throughout: two tables on {0, 1} with
unnormalized masses (1, 1) and (3, 1), so the normalizing constants are
2 and 4 and the true ratio is exactly 2.  Exhaustive summation over the
two states gives exact truth for every estimand.
"""

import numpy as np
import pytest

from genis.densities import TargetFamily, discrete_table_density, t_density
from genis.importance import estimate_family
from genis.samplers import ChainSample, SampleSet, derive_seed, discrete_mh

TABLE_1 = (1.0, 1.0)
TABLE_2 = (3.0, 1.0)
TRUE_D = 2.0  # (3+1)/(1+1)


@pytest.fixture(scope="session")
def table_refs():
    return [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]


def exact_proportion_chain(table, copies, density_id):
    """States visiting each point in exact proportion to its table mass.

    Masses must be integers; the block of states is tiled `copies`
    times.  Sample averages then equal population expectations exactly,
    so score equations hold at the true parameter.
    """
    block = []
    for state, mass in enumerate(table):
        m = int(mass)
        if m != mass:
            raise ValueError("exact-proportion chains need integer masses")
        block.extend([float(state)] * m)
    states = np.tile(block, copies)
    return ChainSample(density_id=density_id, states=states, kind="iid", seed=0)


@pytest.fixture(scope="session")
def exact_table_samples():
    """Stage-1 set solving the population score equations at d = 2."""
    chains = (
        exact_proportion_chain(TABLE_1, 120, "flat"),
        exact_proportion_chain(TABLE_2, 60, "tilted"),
    )
    return SampleSet(chains=chains, stage=1)


def table_mh_samples(n_per, master_seed, rep=0, stage=1, with_regen=True):
    """MH chains targeting the two fixture tables; n_per broadcasts."""
    if np.isscalar(n_per):
        n_per = (n_per, n_per)
    refs = [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]
    chains = tuple(
        discrete_mh(
            ref,
            n,
            derive_seed(master_seed, stage, i, rep),
            with_regen=with_regen,
        )
        for i, (ref, n) in enumerate(zip(refs, n_per))
    )
    return SampleSet(chains=chains, stage=stage)


def stage2_row(samples, target, refs, a, d_hat, f=None, cov=None, q=0.0):
    """estimate_family row of a one-target family; by default the stage-1
    term is switched off (zero covariance, q = 0)."""
    km1 = len(refs) - 1
    cov = np.zeros((km1, km1)) if cov is None else cov
    (row,) = estimate_family(
        samples, TargetFamily((target,)), refs, d_hat, cov, q, f=f, a=a
    )
    return row


@pytest.fixture(scope="session")
def toy_refs():
    return [t_density(5, 1.0), t_density(5, 0.0)]
