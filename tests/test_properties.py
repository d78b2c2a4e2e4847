"""Property tests: pooled-prior term lists, the stage targets, the stage plan
for chains of any length, the cached Gaussian factor, the batched log-joint
contract, the CSV artifact format and the CLI's handling of any config."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from chainmeld import cli
from chainmeld import (
    ChainModel,
    ConfigError,
    GaussianDensity,
    GridTable,
    MeldedChainOutput,
    ModelInconsistencyError,
    NumericalFailureError,
    PhiBlock,
    StructureError,
    SubmodelSpec,
    UnitFactorization,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    dictatorial_complete,
    dictatorial_partial,
    enumerate_melded_posterior,
    enumerate_pooled_prior,
    factorize_for_sampler,
    linear_pooling,
    log_melded_density,
    log_pooling,
    poe_pooling,
    real_coords,
    submodel_log_ratio,
    unit_additivity_gap,
)
from chainmeld.diagnostics import _doubled_ranks, _rank_normalize, _tail_cuts, ess, ess_tail
from chainmeld.normal_approx import _distinct_rows
from chainmeld.pooling import merge_term, sum_terms
from chainmeld.samplers import _StageTarget

from conftest import make_discrete_chain, make_long_chain

BUILT = builtin_gaussian_chain(rho=0.6)

weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0))
coord = st.floats(-4.0, 4.0)


@st.composite
def pools(draw):
    """Any pooling method over the Gaussian chain, with weights that include 0 and 1."""
    model, marginals = BUILT.model, BUILT.boundary_marginals
    method = draw(st.sampled_from(["logarithmic", "linear", "partial", "complete"]))
    if method == "logarithmic":
        lam = draw(st.lists(weight, min_size=3, max_size=3))
        assume(max(lam) > 0)
        return log_pooling(model, lam)
    if method == "linear":
        lam = draw(st.lists(st.lists(weight, min_size=2, max_size=2), min_size=2, max_size=2))
        assume(all(sum(row) > 0 for row in lam))
        return linear_pooling(model, lam, marginals)
    if method == "partial":
        return dictatorial_partial(
            model, draw(st.integers(0, 2)),
            side_weights=draw(st.lists(weight, min_size=3, max_size=3)),
            boundary_marginals=marginals,
        )
    choices = [draw(st.sampled_from([0, 1])), draw(st.sampled_from([1, 2]))]
    return dictatorial_complete(model, choices, marginals)


@given(pool=pools(), x=st.lists(coord, min_size=2, max_size=2),
       mode=st.sampled_from(["flat-ends", "subprior-ends"]))
def test_factors_sum_to_pool(pool, x, mode):
    factor = factorize_for_sampler(pool, mode)
    phi = [np.array([x[0]]), np.array([x[1]])]
    assert float(factor.log_density(phi)) == pytest.approx(
        float(pool.log_density(phi)), rel=1e-12, abs=1e-12
    )
    batch = [np.array([[x[0]], [x[1]], [0.0]]), np.array([[x[1]], [0.0], [x[0]]])]
    np.testing.assert_allclose(
        factor.log_density(batch), pool.log_density(batch), rtol=1e-12, atol=1e-12
    )


@given(pool=pools())
def test_no_term_has_zero_coefficient(pool):
    for mode in ("flat-ends", "subprior-ends"):
        factor = factorize_for_sampler(pool, mode)
        assert all(t.coef != 0 for terms in factor.terms for t in terms)
    assert all(t.coef != 0 for t in pool.terms)


@st.composite
def spd_problems(draw):
    d = draw(st.integers(1, 5))
    a = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    mean = draw(arrays(float, d, elements=st.floats(-3.0, 3.0)))
    x = draw(arrays(float, (4, d), elements=st.floats(-5.0, 5.0)))
    return mean, a @ a.T + 0.5 * np.eye(d), x


def _fresh_logpdf(mean, cov, x):
    cho = scipy.linalg.cho_factor(cov, lower=True)
    diff = np.atleast_2d(x) - mean
    quad = np.einsum("ij,ji->i", diff, scipy.linalg.cho_solve(cho, diff.T))
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    return -0.5 * (mean.size * math.log(2.0 * math.pi) + logdet + quad)


@given(problem=spd_problems())
def test_cached_logpdf_matches_fresh_cholesky(problem):
    mean, cov, x = problem
    g = GaussianDensity(mean, cov)
    expected = _fresh_logpdf(mean, cov, x)
    np.testing.assert_allclose(g.logpdf(x), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g.logpdf(x.reshape(2, 2, -1)), expected.reshape(2, 2),
                               rtol=1e-12, atol=1e-12)
    for k in range(x.shape[0]):
        value = g.logpdf(x[k])
        assert isinstance(value, float)
        assert value == pytest.approx(expected[k], rel=1e-12, abs=1e-12)


def _half_line(x):
    """log N(x; 0, 1) restricted to x >= 0 (unnormalized), batched."""
    x = np.asarray(x, dtype=float)[..., 0]
    with np.errstate(invalid="ignore"):
        return np.where(x >= 0.0, -0.5 * x * x, -np.inf)


def _quad(x):
    return -0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def _flat_joint(phi, psi):
    return np.zeros(np.shape(phi)[:-1])


def _middle_joint(phi, psi):
    """0 where phi23 >= -3, -inf below, inside the middle prior's support."""
    return np.where(np.asarray(phi, dtype=float)[..., 1] >= -3.0, 0.0, -np.inf)


# End 0's joint is finite where its prior is -inf: a model inconsistency.
HALF_LINE_CHAIN = ChainModel(
    submodels=(
        SubmodelSpec(0, _flat_joint, _half_line),
        SubmodelSpec(1, _middle_joint, _quad),
        SubmodelSpec(2, _flat_joint, _quad),
    ),
    phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("b", real_coords(1))),
)


@given(lam1=st.floats(0.01, 3.0), lam=st.lists(weight, min_size=2, max_size=2),
       x0=st.floats(-4.0, -0.01), x1=coord)
def test_neg_inf_term_with_positive_weight_dominates(lam1, lam, x0, x1):
    pool = log_pooling(HALF_LINE_CHAIN, [lam1, lam[0], lam[1]])
    phi = [np.array([x0]), np.array([x1])]
    assert pool.log_density(phi) == -math.inf
    for mode in ("flat-ends", "subprior-ends"):
        assert float(factorize_for_sampler(pool, mode).log_density(phi)) == -math.inf
    batch = [np.array([[x0], [1.0]]), np.array([[x1], [x1]])]
    out = pool.log_density(batch)
    assert out[0] == -math.inf and np.isfinite(out[1])


@given(lam1=st.floats(0.01, 3.0), lam=st.lists(weight, min_size=2, max_size=2),
       x0=coord, x1=coord)
def test_melded_density_is_neg_inf_where_the_pool_is(lam1, lam, x0, x1):
    # End 0's joint is finite where its prior is -inf (x0 < 0), but the pool
    # is -inf there too, so the state has zero density instead of raising.
    pool = log_pooling(HALF_LINE_CHAIN, [lam1, lam[0], lam[1]])
    phi = [np.array([[x0], [abs(x0)]]), np.array([[x1], [x1]])]
    out = log_melded_density(HALF_LINE_CHAIN, pool, phi, [np.empty((2, 0))] * 3)
    assert out[0] == -math.inf if x0 < 0 or x1 < -3 else np.isfinite(out[0])
    assert np.isfinite(out[1]) == (x1 >= -3)


@given(lam=st.lists(st.floats(0.01, 3.0), min_size=2, max_size=2),
       x0=st.floats(-4.0, -0.01), x1=coord)
def test_neg_inf_end_with_zero_weight_raises(lam, x0, x1):
    pool = log_pooling(HALF_LINE_CHAIN, [0.0, lam[0], lam[1]])
    factor = factorize_for_sampler(pool, "subprior-ends")
    assert np.isfinite(pool.log_density([np.array([x0]), np.array([x1])]))
    with pytest.raises(NumericalFailureError):
        factor.pool2(np.array([x0]), np.array([x1]))
    with pytest.raises(NumericalFailureError):
        factor.pool2(np.array([[x0], [1.0]]), np.array([[x1], [x1]]))


# -- stage targets -------------------------------------------------------------


def _stage_reference(chain, factor, m, phi, psi):
    """Stage-m log target from the public functions: its pool factor plus
    ``submodel_log_ratio``, -inf without evaluating the factor where the
    joint is -inf."""
    ratio = submodel_log_ratio(chain.submodels[m], phi, psi)
    if ratio == -math.inf:
        return ratio
    if m == 1:
        d12 = chain.phi_blocks[0].dim
        return factor.pool2(phi[:d12], phi[d12:]) + ratio
    return (factor.pool1 if m == 0 else factor.pool3)(phi) + ratio


def _stage_value(target, z):
    """Log target of each row of z, evaluated from scratch as the samplers do."""
    with np.errstate(invalid="ignore"):
        terms = target.initial(z)
        return terms if terms.ndim == 1 else terms[0]


def _check_stage_targets(chain, factor, x):
    """Every stage target at one state equals the reference, or raises as it does."""
    for m in range(3):
        target = _StageTarget(chain, factor, m)
        phi = np.concatenate([x[b] for b in chain.blocks_of(m)])
        psi = np.zeros(chain.submodels[m].psi_dim)
        z = np.concatenate([phi, psi])[None, :]
        try:
            expected = _stage_reference(chain, factor, m, phi, psi)
        except (ModelInconsistencyError, NumericalFailureError) as exc:
            with pytest.raises(type(exc)):
                _stage_value(target, z)
            continue
        assert _stage_value(target, z)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(pool=pools(), x=st.lists(coord, min_size=2, max_size=2),
       mode=st.sampled_from(["flat-ends", "subprior-ends"]))
def test_stage_targets_match_reference(pool, x, mode):
    _check_stage_targets(BUILT.model, factorize_for_sampler(pool, mode),
                         [np.array([x[0]]), np.array([x[1]])])


@given(lam=st.lists(weight, min_size=3, max_size=3), x=st.lists(coord, min_size=2, max_size=2),
       mode=st.sampled_from(["flat-ends", "subprior-ends"]))
def test_stage_targets_raise_where_reference_raises(lam, x, mode):
    assume(max(lam) > 0)
    factor = factorize_for_sampler(log_pooling(HALF_LINE_CHAIN, lam), mode)
    _check_stage_targets(HALF_LINE_CHAIN, factor, [np.array([x[0]]), np.array([x[1]])])


def test_stage_two_stray_end_raises_unless_middle_joint_is_neg_inf():
    # log p1 is -inf at phi12 = -1 and has pool weight 0, so pool2 raises.  The
    # stage-two target raises too, except at phi23 = -3.5, where the middle
    # joint is -inf and so is the target.
    factor = factorize_for_sampler(log_pooling(HALF_LINE_CHAIN, [0.0, 1.0, 1.0]),
                                   "subprior-ends")
    target = _StageTarget(HALF_LINE_CHAIN, factor, 1)
    for phi23 in (0.0, -3.5):
        with pytest.raises(NumericalFailureError):
            factor.pool2(np.array([-1.0]), np.array([phi23]))
    with pytest.raises(NumericalFailureError):
        _stage_value(target, np.array([[-1.0, 0.0]]))
    assert _stage_value(target, np.array([[-1.0, -3.5]]))[0] == -math.inf


# -- stage plan for chains of any length ----------------------------------------

LONG_CHAINS = {M: make_long_chain(M, seed=M) for M in range(2, 6)}


@st.composite
def long_pools(draw, built=None):
    """Any pooling method over ``built``, or over a discrete chain of 2 to 5 submodels."""
    if built is None:
        built = LONG_CHAINS[draw(st.integers(2, 5))]
    model, marginals = built.model, built.boundary_marginals
    M = model.n_submodels
    method = draw(st.sampled_from(["logarithmic", "poe", "linear", "partial", "complete"]))
    if method == "logarithmic":
        lam = draw(st.lists(weight, min_size=M, max_size=M))
        assume(max(lam) > 0)
        return log_pooling(model, lam)
    if method == "poe":
        return poe_pooling(model)
    if method == "linear":
        lam = draw(st.lists(st.lists(weight, min_size=2, max_size=2),
                            min_size=M - 1, max_size=M - 1))
        assume(all(sum(row) > 0 for row in lam))
        return linear_pooling(model, lam, marginals)
    if method == "partial":
        return dictatorial_partial(
            model, draw(st.integers(0, M - 1)),
            side_weights=draw(st.lists(weight, min_size=M, max_size=M)),
            boundary_marginals=marginals,
        )
    choices = [draw(st.sampled_from([b, b + 1])) for b in range(M - 1)]
    return dictatorial_complete(model, choices, marginals)


@given(pool=long_pools(), mode=st.sampled_from(["flat-ends", "subprior-ends"]))
def test_stage_plan_sums_to_pool_and_stays_local(pool, mode):
    chain = pool.chain
    M = chain.n_submodels
    factor = factorize_for_sampler(pool, mode)
    assert len(factor.terms) == M
    for m, terms in enumerate(factor.terms):
        assert all(set(t.blocks) <= set(chain.blocks_of(m)) for t in terms)
    # every state of the binary blocks, batched
    states = np.indices((2,) * (M - 1)).reshape(M - 1, -1).T.astype(float)
    phi = [states[:, b : b + 1] for b in range(M - 1)]
    total = sum(sum_terms(terms, phi) for terms in factor.terms)
    np.testing.assert_allclose(total, pool.log_density(phi), rtol=1e-12, atol=1e-12)
    if M == 3:
        p0, p2 = (chain.submodels[e].eval_log_prior for e in (0, 2))
        middle = pool.terms if mode == "flat-ends" else merge_term(
            merge_term(pool.terms, -1.0, p0, (0,)), -1.0, p2, (1,))
        assert factor.terms[1] == middle


@st.composite
def random_chains(draw):
    """A discrete chain of 2 to 4 submodels without data: one coordinate of 2 or 3
    categories per block, 0 or 1 psi coordinates per submodel, strictly positive
    random tables."""
    M = draw(st.integers(2, 4))
    phi_cards = [(draw(st.integers(2, 3)),) for _ in range(M - 1)]
    psi_cards = [tuple(draw(st.lists(st.integers(2, 3), max_size=1))) for _ in range(M)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    priors = []
    for m in range(M):
        shape = sum((phi_cards[b] for b in (m - 1, m) if 0 <= b < M - 1), ()) + psi_cards[m]
        table = 0.2 + rng.random(shape)
        priors.append(table / table.sum())
    return builtin_discrete_chain(*priors, phi_cards=phi_cards, psi_cards=psi_cards)


@settings(max_examples=60)
@given(data=st.data())
def test_melded_phi_marginal_is_the_pooled_prior_on_random_tables(data):
    """Acceptance 8 on random tables: without data, summing psi out of the melded
    posterior leaves the pooled prior over the blocks, for every pooling method."""
    built = data.draw(random_chains())
    pool = data.draw(long_pools(built))
    melded = enumerate_melded_posterior(built, pool)
    pooled = enumerate_pooled_prior(built, pool)
    phi = melded.marginal(melded.group_columns(*(b.label for b in built.model.phi_blocks)))
    assert np.array_equal(phi.states, pooled.states)
    assert np.abs(phi.probs - pooled.probs).max() <= 1e-12


# -- batched log_joint contract ------------------------------------------------

GAUSS_DATA = builtin_gaussian_chain(rho=0.3, y1=[-2.0, -1.0], y3=[2.0], y2=[0.5, 1.5],
                                    s2=2.0, tau=1.0)
DISCRETE = make_discrete_chain()


@st.composite
def joint_batches(draw, built, discrete):
    """(spec, phi, psi) with a random batch shape for one submodel of ``built``."""
    m = draw(st.integers(0, 2))
    spec = built.model.submodels[m]
    d_phi = sum(built.model.phi_blocks[b].dim for b in built.model.blocks_of(m))
    batch = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    if discrete:
        phi = draw(arrays(float, batch + (d_phi,), elements=st.sampled_from([0.0, 1.0])))
        psi = draw(arrays(float, batch + (spec.psi_dim,), elements=st.sampled_from([0.0, 1.0])))
    else:
        phi = draw(arrays(float, batch + (d_phi,), elements=coord))
        psi = draw(arrays(float, batch + (spec.psi_dim,), elements=coord))
    return spec, phi, psi


def _row_by_row(spec, phi, psi):
    out = np.empty(phi.shape[:-1])
    for idx in np.ndindex(out.shape):
        value = spec.eval_log_joint(phi[idx], psi[idx])
        assert isinstance(value, float)
        out[idx] = value
    return out


@given(case=joint_batches(DISCRETE, discrete=True))
def test_discrete_batched_joint_equals_rows(case):
    spec, phi, psi = case
    batched = spec.eval_log_joint(phi, psi)
    assert batched.shape == phi.shape[:-1]
    np.testing.assert_array_equal(batched, _row_by_row(spec, phi, psi))


@given(case=joint_batches(GAUSS_DATA, discrete=False))
def test_gaussian_batched_joint_equals_rows(case):
    spec, phi, psi = case
    batched = spec.eval_log_joint(phi, psi)
    assert batched.shape == phi.shape[:-1]
    np.testing.assert_allclose(batched, _row_by_row(spec, phi, psi), rtol=1e-12, atol=1e-12)


# -- single-block pool terms, batched ------------------------------------------
#
# A stage-two index move that replaces a whole block evaluates each pool term
# of that block alone for all of the stage's proposals in one call, so such a
# term must give each row the bits it gives in the small batches a move
# evaluates (one row per chain).


def _single_block_terms():
    """(name, evaluator, block) of every one-block term the builtins' pools use:
    the end prior marginals, the middle submodel's boundary marginals and the
    linear pool's mixtures of them."""
    out = []
    for name, built in (("gaussian", GAUSS_DATA), ("discrete", DISCRETE)):
        model, marginals = built.model, built.boundary_marginals
        out += [(f"{name}-end{m}", model.submodels[m].eval_log_prior, model.blocks_of(m)[0])
                for m in (0, model.n_submodels - 1)]
        out += [(f"{name}-boundary{key}", fn, key[1]) for key, fn in marginals.items()]
        for lam in ([[0.3, 0.7], [0.6, 0.4]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
            out += [(f"{name}-linear{lam}-{b}", t.fn, b)
                    for b, t in enumerate(linear_pooling(model, lam, marginals).terms)]
    return out


SINGLE_BLOCK_TERMS = _single_block_terms()


@settings(max_examples=60)
@given(term=st.sampled_from(SINGLE_BLOCK_TERMS), n=st.integers(1, 10**4),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1.0, 30.0, 1e155]))
def test_single_block_term_gives_a_row_the_same_bits_in_any_batch(term, n, seed, spread):
    name, fn, b = term
    built = GAUSS_DATA if name.startswith("gaussian") else DISCRETE
    dim = built.model.phi_blocks[b].dim
    rng = np.random.default_rng(seed)
    if built is DISCRETE:
        rows = rng.integers(2, size=(n, dim)).astype(float)
    else:
        rows = spread * rng.standard_normal((n, dim))
    with np.errstate(over="ignore"):  # a log density beyond the float range is -inf
        whole = np.asarray(fn(rows), dtype=float)
        for size in (1, 2, 8):
            parts = np.concatenate([np.asarray(fn(rows[i : i + size]), dtype=float)
                                    for i in range(0, n, size)])
            assert parts.tobytes() == whole.tobytes(), (name, size)


# -- unit factorizations of the discrete builtin --------------------------------


@st.composite
def unit_layouts(draw):
    """One end's two or three units: per unit, the cardinalities of its phi and psi
    coordinates, at most four phi coordinates in all.

    The block's coordinates are dealt to the units in a random order."""
    units = draw(st.lists(st.tuples(st.lists(st.integers(2, 3), min_size=1, max_size=2),
                                    st.lists(st.integers(2, 3), max_size=1)),
                          min_size=2, max_size=3)
                 .filter(lambda units: sum(len(phi) for phi, _ in units) <= 4))
    n_phi = sum(len(phi) for phi, _ in units)
    order = draw(st.permutations(range(n_phi)))
    return units, order


def _end_tables(units, order, rng, product):
    """(cards of the block, psi cards, unit factorization, table) of one end.

    The table is the product of one random factor per unit, or with
    ``product`` False a random table over the same axes."""
    phi_idx, psi_idx, k, j = [], [], 0, 0
    for phi, psi in units:
        phi_idx.append(tuple(order[k:k + len(phi)]))
        psi_idx.append(tuple(range(j, j + len(psi))))
        k, j = k + len(phi), j + len(psi)
    phi_cards = [0] * k
    for idx, (phi, _) in zip(phi_idx, units):
        for i, c in zip(idx, phi):
            phi_cards[i] = c
    psi_cards = [c for _, psi in units for c in psi]
    shape = tuple(phi_cards + psi_cards)
    table = np.ones(shape)
    if product:
        for pi, si in zip(phi_idx, psi_idx):
            axes = [*pi, *(k + i for i in si)]
            factor_shape = [shape[a] if a in axes else 1 for a in range(len(shape))]
            table = table * (0.2 + rng.random(factor_shape))
    else:
        table = 0.2 + rng.random(shape)
    uf = UnitFactorization(tuple(phi_idx), tuple(psi_idx))
    return tuple(phi_cards), tuple(psi_cards), uf, table / table.sum()


@settings(max_examples=60)
@given(end1=unit_layouts(), end3=unit_layouts(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_unit_additivity_on_random_factorized_tables(end1, end3, seed, data):
    """Product tables pass with their units, additive to 1e-12 at random states;
    a random table over the same units names ``units``."""
    rng = np.random.default_rng(seed)
    (c1, s1, uf1, p1), (c3, s3, uf3, p3) = (_end_tables(*end, rng, True) for end in (end1, end3))
    lik1 = _end_tables(*end1, rng, True)[3]
    p2 = 0.2 + rng.random(c1 + c3)
    kwargs = dict(phi_cards=(c1, c3), psi_cards=(s1, (), s3), units=(uf1, None, uf3))
    built = builtin_discrete_chain(p1, p2 / p2.sum(), p3, likelihoods=(lik1, None, None),
                                   **kwargs)
    for m, cards, psi_cards in ((0, c1, s1), (2, c3, s3)):
        spec = built.model.submodels[m]
        a, b = ([np.array([data.draw(st.integers(0, c - 1)) for c in cs], dtype=float)
                 for cs in (cards, psi_cards)] for _ in range(2))
        assert unit_additivity_gap(spec, a[0], a[1], b[0], b[1]) <= 1e-12

    mixed = _end_tables(*end1, rng, False)[3]
    with pytest.raises(ConfigError, match="units"):
        builtin_discrete_chain(mixed, p2 / p2.sum(), p3, **kwargs)


def test_scalar_only_joint_is_rejected():
    spec = SubmodelSpec(4, lambda p, s: 0.0, _quad)
    assert spec.eval_log_joint(np.zeros(1), np.empty(0)) == 0.0
    with pytest.raises(StructureError, match="submodel 4"):
        spec.eval_log_joint(np.zeros((3, 1)), np.empty((3, 0)))
    with pytest.raises(StructureError, match="submodel 4"):
        spec.eval_log_joint(np.zeros((1, 1)), np.empty((1, 0)))


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1e16]
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
csv_text = st.text(st.characters(blacklist_categories=("Cs",)))  # utf-8 encodable


def _reference_field(value) -> str:
    """The row-by-row writer's rule: text as is, integers in decimal, else repr(float)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@st.composite
def csv_tables(draw):
    """A header and 2-5 equal-length int, float or text columns."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["int64", "int32", "float64", "float32", "text"]),
                          min_size=2, max_size=5))
    columns = []
    for kind in kinds:
        if kind.startswith("int"):
            columns.append(draw(arrays(np.dtype(kind), n)))
        elif kind == "float64":
            columns.append(draw(arrays(np.float64, n, elements=any_float)))
        elif kind == "float32":
            columns.append(draw(arrays(np.float32, n, elements=st.floats(width=32))))
        else:
            columns.append(draw(st.lists(csv_text, min_size=n, max_size=n)))
    header = draw(st.lists(csv_text, min_size=len(kinds), max_size=len(kinds)))
    return header, columns


@given(table=csv_tables())
def test_csv_rows_match_csv_writer(table):
    header, columns = table
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_reference_field(v) for v in row])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, cli._csv_rows(columns))
        with path.open(newline="") as handle:
            assert handle.read() == expected.getvalue()


def _csv_writer_text(header, rows) -> str:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue()


def _written_text(write) -> str:
    """The text that ``write(directory)`` leaves in the one file it writes there."""
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        (path,) = Path(tmp).iterdir()
        with path.open(newline="") as handle:
            return handle.read()


@st.composite
def grid_tables(draw):
    """A GridTable over 1-3 axes of unequal lengths, with any float centers and densities."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    centers = tuple(draw(arrays(np.float64, n, elements=any_float)) for n in lengths)
    return GridTable(centers, draw(arrays(np.float64, tuple(lengths), elements=any_float)), 1.0)


@given(grid_tables())
def test_grid_writer_matches_csv_writer_over_the_mesh_columns(table):
    header = [f"x{i}" for i in range(len(table.centers))] + ["density"]
    rows = ([repr(v) for v in row] for row in zip(*(c.tolist() for c in table.columns())))
    expected = _csv_writer_text(header, rows)
    assert _written_text(lambda tmp: cli._write_grid(tmp / "pooled_grid.csv", table)) == expected


@given(chains=st.integers(1, 3), kept=st.integers(0, 5), data=st.data())
def test_sample_writer_matches_csv_writer_row_by_row(chains, kept, data):
    chain = make_discrete_chain().model  # two-coordinate blocks and psi2, empty end psi
    draw = lambda dim: data.draw(arrays(np.float64, (chains, kept, dim), elements=any_float))
    phi, psi2 = (draw(2), draw(2)), draw(2)
    empty = np.zeros((chains, kept, 0))
    output = MeldedChainOutput(phi, (empty, psi2, empty), np.zeros((chains, kept, 0), dtype=int),
                               {}, {})
    header = ["chain", "iteration"] + [f"{name}_{i}" for name in ("phi12", "phi23", "psi2")
                                       for i in range(2)]
    rows = ([str(c), str(t), *(repr(float(v)) for part in (*phi, psi2) for v in part[c, t])]
            for c in range(chains) for t in range(kept))
    expected = _csv_writer_text(header, rows)
    assert _written_text(lambda tmp: cli._write_samples(tmp, output, chain)) == expected


@given(
    chains=st.integers(1, 3),
    draws=st.integers(1, 6),
    params=st.integers(1, 3),
    interleave=st.booleans(),
    data=st.data(),
)
def test_sample_reader_returns_written_floats_bit_for_bit(chains, draws, params, interleave, data):
    values = data.draw(arrays(np.float64, (params, chains, draws), elements=any_float))
    c, t = np.meshgrid(np.arange(chains), np.arange(draws), indexing="ij")
    if interleave:  # rows of the chains alternate; each chain keeps its order
        c, t, values = c.T, t.T, values.transpose(0, 2, 1)
    columns = [c.ravel(), t.ravel(), *(v.ravel() for v in values)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "melded_samples.csv"
        header = ["chain", "iteration"] + [f"theta_{j}" for j in range(params)]
        cli._write_csv(path, header, cli._csv_rows(columns))
        read_header, traces = cli._read_samples(path)
        got = np.stack(list(traces))
    assert read_header == header
    assert got.shape == (params, chains, draws)
    expected = values.transpose(0, 2, 1) if interleave else values
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))


def _mergesort_average_ranks(flat):
    order = np.argsort(flat, kind="mergesort")
    ordered = flat[order]
    new_run = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], flat.size)
    ranks = np.empty(flat.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new_run) - 1]
    return ranks


@given(arrays(np.float64, st.integers(1, 400),
              elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, math.inf])))
def test_average_ranks_match_stable_sort_on_ties(flat):
    np.testing.assert_array_equal(0.5 * _doubled_ranks(flat), _mergesort_average_ranks(flat))


@st.composite
def rank_inputs(draw):
    """Traces that are continuous, tied, 0/1 indicators or rounded to one decimal."""
    elements = draw(st.sampled_from([
        st.floats(-1e6, 1e6),
        st.sampled_from([-1.0, 0.0, 2.5, 7.0]),
        st.sampled_from([0.0, 1.0]),
        st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    ]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(8, 80)))
    return draw(arrays(np.float64, shape, elements=elements))


@given(rank_inputs())
def test_rank_normalize_matches_scipy(arr):
    import scipy.stats

    ranks = scipy.stats.rankdata(arr.reshape(-1), method="average")
    expected = scipy.stats.norm.ppf((ranks - 0.375) / (arr.size + 0.25))
    assert np.array_equal(_rank_normalize(arr), expected.reshape(arr.shape))


@given(rank_inputs())
def test_ess_tail_matches_ranking_the_indicators(arr):
    """Counting the zeros of each tail indicator ranks it as a full sort does."""
    expected = []
    for q in (0.05, 0.95):
        indicator = (arr <= np.quantile(arr, q)).astype(float)
        if np.all(indicator == indicator.reshape(-1)[0]):
            expected.append(float(arr.size))
        else:
            expected.append(ess(_rank_normalize(indicator)).value)
    assert ess_tail(arr).value == min(expected)


@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(8, 120)))
def test_tail_cuts_equal_numpy_quantile(data, shape):
    """ess_tail's cut points are np.quantile's, bit for bit, also on heavy ties,
    zeros of either sign, infinities and NaN."""
    elements = data.draw(st.sampled_from([
        st.sampled_from([-0.0, 0.0, 1.0]),
        st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 2.5, math.inf]),
        st.one_of(st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]), st.floats()),
        st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    ]))
    arr = data.draw(arrays(np.float64, shape, elements=elements))
    with np.errstate(all="ignore"):  # inf - inf and overflow, in both
        got, want = _tail_cuts(arr), np.quantile(arr, (0.05, 0.95))
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


@given(arrays(np.float64, st.tuples(st.integers(1, 80), st.integers(1, 3)),
              elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, math.inf])))
def test_distinct_rows_match_numpy_unique(x):
    """The normal-approx fit counts distinct rows as np.unique does, zeros of
    either sign as one value."""
    assert _distinct_rows(x) == np.unique(x, axis=0).shape[0]


# The README's example config on a 10 x 10 grid, and a small discrete chain
# that sets every sampler key, with the fewest iterations a stage may run.
README_CONFIG = {
    "model": {
        "name": "gaussian-chain",
        "params": {"rho": 0.2, "y1": [-2.0], "y3": [2.0], "y2": [0.5], "s2": 2.0, "tau": 1.0},
    },
    "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
    "sampler": {"kind": "parallel", "seed": 42, "chains": 2,
                "iterations": {"stage_one": 5000, "stage_two": 5000}},
    "outputs": {"directory": "out"},
    "grid": {"axes": [[-6, 6, 10], [-6, 6, 10]]},
}
UNIT = {"phi_indices": [[0]], "psi_indices": [[]]}
DISCRETE_CONFIG = {
    "model": {
        "name": "discrete-chain",
        "params": {
            "prior1": [0.3, 0.7], "prior2": [[0.1, 0.2], [0.3, 0.4]], "prior3": [0.6, 0.4],
            "phi_cards": [[2], [2]], "psi_cards": [[], [], []],
            "likelihoods": [None, [[1.0, 0.5], [0.5, 1.0]], None],
            "units": [UNIT, None, UNIT], "normalized": True,
        },
    },
    "pooling": {"method": "dictatorial-complete", "choices": [1, 1]},
    "sampler": {"kind": "parallel-unitwise", "seed": 3, "chains": 2,
                "iterations": {"stage_one": 100, "stage_two": 100},
                "scales": {"stage_one": 0.5, "stage_two": 1.0}, "warmup_frac": 0.2,
                "factorization": "flat-ends"},
    "outputs": {"directory": "out"},
    "grid": {"axes": [[0, 1, 2], [0, 1, 2]]},
}


def _node_paths(node, path=()):
    """The path of every value below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [path + (key,), *_node_paths(child, path + (key,))]]


# Integers stay at most 10 (a grid axis of at most 10 cells) or are too large
# for any array; strings hold no "/", so a directory stays below the working one.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.just(2**70), st.floats(),
    st.text(alphabet="a.-\0", max_size=3),
    st.sampled_from(["linear", "poe", "normal-approx", "flat-ends", "gaussian-chain",
                     "discrete-chain", "stage_one"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)


@settings(max_examples=300)
@given(base=st.sampled_from([README_CONFIG, DISCRETE_CONFIG]), data=st.data())
def test_no_config_mutation_ends_in_a_traceback(base, data):
    """``validate`` and ``pool-grid`` exit 0, 1 or 2 whatever one value of a config holds,
    and so do ``sample`` and ``oracle`` on the small discrete chain."""
    path = data.draw(st.sampled_from(_node_paths(base)))
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        (work / "run.json").write_text(json.dumps(cfg))
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                commands = ["validate", "pool-grid"]
                if base is DISCRETE_CONFIG:
                    commands += ["sample", "oracle"]
                codes = [cli.main([command, "--config", "run.json"]) for command in commands]
        finally:
            os.chdir(cwd)
    assert set(codes) <= {0, 1, 2}
