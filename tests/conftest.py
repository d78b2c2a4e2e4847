"""Shared builders for the test suite.

The discrete chains built here are the enumeration-oracle vehicles: small
enough to enumerate exactly, awkward enough (random tables, a likelihood
factor on the middle submodel) to exercise the samplers properly.
"""

import numpy as np
import pytest
from hypothesis import settings

from chainmeld import UnitFactorization, builtin_discrete_chain

# Property tests replay the same examples on every run and never fail on
# wall-clock time, which varies on a shared machine.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def random_table(rng, shape, spread=0.5):
    t = np.exp(spread * rng.standard_normal(shape))
    return t / t.sum()


def make_discrete_chain(seed=7, factorized_ends=True, with_units=True):
    """Seeded 3-submodel discrete chain: 2+2 binary shared coords, binary
    2-D psi2, middle-submodel likelihood folded in.  64 joint states.

    The ends declare one unit per shared coordinate only when their tables
    factorize across those units (``factorized_ends``)."""
    rng = np.random.default_rng(seed)
    if factorized_ends:
        def end_table():
            a = random_table(rng, 2)
            b = random_table(rng, 2)
            return np.multiply.outer(a, b)
        p1, p3 = end_table(), end_table()
    else:
        p1 = random_table(rng, (2, 2))
        p3 = random_table(rng, (2, 2))
    p2 = random_table(rng, (2, 2, 2, 2, 2, 2))
    lik2 = np.exp(0.3 * rng.standard_normal((2, 2, 2, 2, 2, 2)))
    units = (None, None, None)
    if with_units and factorized_ends:
        uf = UnitFactorization(((0,), (1,)), ((), ()))
        units = (uf, None, uf)
    return builtin_discrete_chain(
        p1, p2, p3,
        phi_cards=((2, 2), (2, 2)),
        psi_cards=((), (2, 2), ()),
        likelihoods=(None, lik2, None),
        units=units,
    )


def discrete_cli_params(seed=7):
    """The 64-state discrete test chain (units on both ends) as CLI params."""
    rng = np.random.default_rng(seed)
    p1 = np.multiply.outer(random_table(rng, 2), random_table(rng, 2))
    p3 = np.multiply.outer(random_table(rng, 2), random_table(rng, 2))
    p2 = random_table(rng, (2, 2, 2, 2, 2, 2))
    lik2 = np.exp(0.3 * rng.standard_normal((2, 2, 2, 2, 2, 2)))
    unit = {"phi_indices": [[0], [1]], "psi_indices": [[], []]}
    return {
        "prior1": p1.tolist(),
        "prior2": p2.tolist(),
        "prior3": p3.tolist(),
        "phi_cards": [[2, 2], [2, 2]],
        "psi_cards": [[], [2, 2], []],
        "likelihoods": [None, lik2.tolist(), None],
        "units": [unit, None, unit],
    }


def make_long_chain(M, seed=0):
    """Seeded M-submodel discrete chain: one binary coordinate per shared
    block, a binary psi on submodel 1, random tables and a likelihood on
    every even submodel.  2^M joint states."""
    rng = np.random.default_rng(seed)
    psi_cards = [()] * M
    psi_cards[1] = (2,)
    priors, likelihoods = [], []
    for m in range(M):
        shape = (2,) * ((m > 0) + (m < M - 1)) + psi_cards[m]
        priors.append(random_table(rng, shape, spread=1.0))
        likelihoods.append(np.exp(0.5 * rng.standard_normal(shape)) if m % 2 == 0 else None)
    return builtin_discrete_chain(*priors, phi_cards=((2,),) * (M - 1), psi_cards=psi_cards,
                                  likelihoods=likelihoods)


@pytest.fixture
def discrete_chain():
    return make_discrete_chain()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
