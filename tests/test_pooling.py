import math

import numpy as np
import pytest

from chainmeld import (
    ChainModel,
    GaussianDensity,
    GridSpec,
    NumericalFailureError,
    PhiBlock,
    PoolingConfigError,
    StructureError,
    SubmodelSpec,
    UnsupportedConfigError,
    builtin_gaussian_chain,
    dictatorial_complete,
    dictatorial_partial,
    discrete_coords,
    factorize_for_sampler,
    grid_normalize,
    linear_pooling,
    log_pooling,
    poe_pooling,
    real_coords,
)
from chainmeld.pooling import PoolTerm
from conftest import make_discrete_chain, make_long_chain


@pytest.fixture
def gaussian_chain():
    return builtin_gaussian_chain()


def _random_phi(rng, n=12):
    return [
        [rng.standard_normal(1), rng.standard_normal(1)] for _ in range(n)
    ]


class TestLogarithmicPooling:
    def test_poe_equals_all_ones(self, gaussian_chain, rng):
        model = gaussian_chain.model
        poe = poe_pooling(model)
        ones = log_pooling(model, [1.0, 1.0, 1.0])
        for phi in _random_phi(rng):
            assert poe.log_density(phi) == pytest.approx(
                ones.log_density(phi), abs=1e-12
            )

    def test_weighted_sum_identity(self, gaussian_chain, rng):
        model = gaussian_chain.model
        lam = (0.2, 0.3, 0.5)
        pool = log_pooling(model, lam)
        for phi in _random_phi(rng):
            expected = sum(
                w * float(np.asarray(spec.eval_log_prior(model.phi_m(m, phi))))
                for m, (w, spec) in enumerate(zip(lam, model.submodels))
            )
            assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_skips_submodel(self, gaussian_chain, rng):
        model = gaussian_chain.model
        pool = log_pooling(model, [0.0, 1.0, 0.0])
        phi = [np.array([0.3]), np.array([-0.2])]
        expected = float(model.submodels[1].eval_log_prior(np.array([0.3, -0.2])))
        assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_all_zero_weights_rejected(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            log_pooling(gaussian_chain.model, [0.0, 0.0, 0.0])

    def test_negative_weights_rejected(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            log_pooling(gaussian_chain.model, [0.5, -0.5, 0.5])

    def test_batched_evaluation(self, gaussian_chain):
        pool = log_pooling(gaussian_chain.model, [0.5, 0.5, 0.5])
        phi = [np.zeros((4, 5, 1)), np.zeros((4, 5, 1))]
        assert np.asarray(pool.log_density(phi)).shape == (4, 5)


class TestLinearPooling:
    def test_mixture_value(self, gaussian_chain):
        built = gaussian_chain
        pool = linear_pooling(
            built.model, [[0.3, 0.7], [0.6, 0.4]], built.boundary_marginals
        )
        phi = [np.array([0.5]), np.array([-1.0])]
        m = built.model.submodels

        def one(m_idx, b, x):
            if m_idx in (0, 2):
                return float(np.asarray(m[m_idx].eval_log_prior(x)))
            return float(np.asarray(built.boundary_marginals[(1, b)](x)))

        expected = np.logaddexp(
            math.log(0.3) + one(0, 0, phi[0]), math.log(0.7) + one(1, 0, phi[0])
        ) + np.logaddexp(
            math.log(0.6) + one(1, 1, phi[1]), math.log(0.4) + one(2, 1, phi[1])
        )
        assert pool.log_density(phi) == pytest.approx(float(expected), abs=1e-12)

    def test_inter_block_independence(self, gaussian_chain, rng):
        # separability: f(a0,a1) + f(b0,b1) == f(a0,b1) + f(b0,a1)
        built = gaussian_chain
        pool = linear_pooling(
            built.model, [[0.5, 0.5], [0.5, 0.5]], built.boundary_marginals
        )
        a0, a1 = rng.standard_normal((2, 1))
        b0, b1 = rng.standard_normal((2, 1))
        lhs = pool.log_density([a0, a1]) + pool.log_density([b0, b1])
        rhs = pool.log_density([a0, b1]) + pool.log_density([b0, a1])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_missing_marginal_fails_at_construction(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            linear_pooling(gaussian_chain.model, [[0.5, 0.5], [0.5, 0.5]], {})

    def test_bad_weight_shape(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            linear_pooling(gaussian_chain.model, [0.5, 0.5], gaussian_chain.boundary_marginals)


class TestDictatorialPooling:
    def test_partial_middle_reduces_to_p2(self, gaussian_chain, rng):
        built = gaussian_chain
        pool = dictatorial_partial(built.model, 1)
        for phi in _random_phi(rng):
            expected = float(
                np.asarray(
                    built.model.submodels[1].eval_log_prior(
                        np.concatenate([np.asarray(p) for p in phi])
                    )
                )
            )
            assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_partial_end_authoritative_pools_other_side(self, gaussian_chain, rng):
        built = gaussian_chain
        pool = dictatorial_partial(
            built.model, 0, side_weights=[1.0, 1.0, 1.0],
            boundary_marginals=built.boundary_marginals,
        )
        phi = [np.array([0.4]), np.array([0.6])]
        m = built.model.submodels
        expected = (
            float(np.asarray(m[0].eval_log_prior(phi[0])))
            + float(np.asarray(built.boundary_marginals[(1, 1)](phi[1])))
            + float(np.asarray(m[2].eval_log_prior(phi[1])))
        )
        assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_partial_needs_valid_index(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            dictatorial_partial(gaussian_chain.model, 5)

    def test_complete_choice_validation(self, gaussian_chain):
        with pytest.raises(PoolingConfigError):
            dictatorial_complete(gaussian_chain.model, [0, 0])

    def test_complete_basic(self, gaussian_chain, rng):
        built = gaussian_chain
        pool = dictatorial_complete(built.model, [0, 2])
        phi = [np.array([0.1]), np.array([0.9])]
        m = built.model.submodels
        expected = float(np.asarray(m[0].eval_log_prior(phi[0]))) + float(
            np.asarray(m[2].eval_log_prior(phi[1]))
        )
        assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_complete_preserves_middle_dependence_m5(self):
        # five submodels, boundaries assigned (1, 3, 3, 5): the two middle
        # boundaries owned by the same submodel use its joint marginal
        def quad(c):
            def f(x):
                x = np.asarray(x, dtype=float)
                return -0.5 * c * np.sum(x * x, axis=-1) + 0.1 * np.prod(x, axis=-1)
            return f

        marginals = {m: quad(m + 1) for m in range(5)}
        specs = []
        for m in range(5):
            specs.append(SubmodelSpec(m, lambda p, s: 0.0, marginals[m]))
        model = ChainModel(
            submodels=tuple(specs),
            phi_blocks=tuple(PhiBlock(f"b{b}", real_coords(1)) for b in range(4)),
        )
        pool = dictatorial_complete(model, [0, 2, 2, 4])
        phi = [np.array([v]) for v in (0.3, -0.4, 0.8, 1.2)]
        expected = (
            float(marginals[0](phi[0]))
            + float(marginals[2](np.concatenate([phi[1], phi[2]])))
            + float(marginals[4](phi[3]))
        )
        assert pool.log_density(phi) == pytest.approx(expected, abs=1e-12)

    def test_complete_missing_marginal(self, gaussian_chain):
        # boundary 0 assigned to the middle submodel needs its one-block marginal
        with pytest.raises(PoolingConfigError):
            dictatorial_complete(gaussian_chain.model, [1, 2], boundary_marginals={})


# Expected term lists: (coef, evaluator, blocks), every term pooled.  An
# evaluator is ("prior", m), submodel m's prior marginal, ("one", m, b), the
# supplied one-block marginal of submodel m over block b, or ("mix", parts),
# the log of a mixture of (weight, evaluator) parts.
M3_TERM_CASES = {
    "log": (lambda c, bm: log_pooling(c, [0.5, 0.5, 0.5]),
            [(0.5, ("prior", 0), (0,)), (0.5, ("prior", 1), (0, 1)), (0.5, ("prior", 2), (1,))]),
    "log-middle-only": (lambda c, bm: log_pooling(c, [0, 1, 0]), [(1.0, ("prior", 1), (0, 1))]),
    "log-zero-middle": (lambda c, bm: log_pooling(c, [0.2, 0, 0.3]),
                        [(0.2, ("prior", 0), (0,)), (0.3, ("prior", 2), (1,))]),
    "poe": (lambda c, bm: poe_pooling(c),
            [(1.0, ("prior", 0), (0,)), (1.0, ("prior", 1), (0, 1)), (1.0, ("prior", 2), (1,))]),
    "linear": (lambda c, bm: linear_pooling(c, [[0.3, 0.7], [0.6, 0.4]], bm),
               [(1.0, ("mix", ((0.3, ("prior", 0)), (0.7, ("one", 1, 0)))), (0,)),
                (1.0, ("mix", ((0.6, ("one", 1, 1)), (0.4, ("prior", 2)))), (1,))]),
    "linear-ends-only": (lambda c, bm: linear_pooling(c, [[1, 0], [0, 1]]),
                         [(1.0, ("mix", ((1.0, ("prior", 0)),)), (0,)),
                          (1.0, ("mix", ((1.0, ("prior", 2)),)), (1,))]),
    "linear-middle-only": (lambda c, bm: linear_pooling(c, [[0, 2], [3, 0]], bm),
                           [(1.0, ("mix", ((2.0, ("one", 1, 0)),)), (0,)),
                            (1.0, ("mix", ((3.0, ("one", 1, 1)),)), (1,))]),
    "partial-middle": (lambda c, bm: dictatorial_partial(c, 1, boundary_marginals=bm),
                       [(1.0, ("prior", 1), (0, 1))]),
    "partial-first": (lambda c, bm: dictatorial_partial(c, 0, boundary_marginals=bm),
                      [(1.0, ("prior", 0), (0,)), (1.0, ("one", 1, 1), (1,)),
                       (1.0, ("prior", 2), (1,))]),
    "partial-first-weighted": (
        lambda c, bm: dictatorial_partial(c, 0, [1, 0.5, 2], boundary_marginals=bm),
        [(1.0, ("prior", 0), (0,)), (0.5, ("one", 1, 1), (1,)), (2.0, ("prior", 2), (1,))]),
    "partial-last-zero-middle": (lambda c, bm: dictatorial_partial(c, 2, [1, 0, 3]),
                                 [(1.0, ("prior", 2), (1,)), (1.0, ("prior", 0), (0,))]),
    "complete-11": (lambda c, bm: dictatorial_complete(c, [1, 1], bm), [(1.0, ("prior", 1), (0, 1))]),
    "complete-02": (lambda c, bm: dictatorial_complete(c, [0, 2]),
                    [(1.0, ("prior", 0), (0,)), (1.0, ("prior", 2), (1,))]),
    "complete-12": (lambda c, bm: dictatorial_complete(c, [1, 2], bm),
                    [(1.0, ("one", 1, 0), (0,)), (1.0, ("prior", 2), (1,))]),
    "complete-01": (lambda c, bm: dictatorial_complete(c, [0, 1], bm),
                    [(1.0, ("prior", 0), (0,)), (1.0, ("one", 1, 1), (1,))]),
}
M4_TERM_CASES = {
    "log": (lambda c, bm: log_pooling(c, [1, 0.5, 0, 2]),
            [(1.0, ("prior", 0), (0,)), (0.5, ("prior", 1), (0, 1)), (2.0, ("prior", 3), (2,))]),
    "poe": (lambda c, bm: poe_pooling(c),
            [(1.0, ("prior", 0), (0,)), (1.0, ("prior", 1), (0, 1)),
             (1.0, ("prior", 2), (1, 2)), (1.0, ("prior", 3), (2,))]),
    "linear": (lambda c, bm: linear_pooling(c, [[0.5, 0.5], [0, 1], [1, 0]], bm),
               [(1.0, ("mix", ((0.5, ("prior", 0)), (0.5, ("one", 1, 0)))), (0,)),
                (1.0, ("mix", ((1.0, ("one", 2, 1)),)), (1,)),
                (1.0, ("mix", ((1.0, ("one", 2, 2)),)), (2,))]),
    "partial-second": (lambda c, bm: dictatorial_partial(c, 1, boundary_marginals=bm),
                       [(1.0, ("prior", 1), (0, 1)), (1.0, ("one", 2, 2), (2,)),
                        (1.0, ("prior", 3), (2,))]),
    "partial-last": (lambda c, bm: dictatorial_partial(c, 3, [0, 1, 1, 1], bm),
                     [(1.0, ("prior", 3), (2,)), (1.0, ("prior", 1), (0, 1)),
                      (1.0, ("one", 2, 1), (1,))]),
    "complete-112": (lambda c, bm: dictatorial_complete(c, [1, 1, 2], bm),
                     [(1.0, ("prior", 1), (0, 1)), (1.0, ("one", 2, 2), (2,))]),
    "complete-122": (lambda c, bm: dictatorial_complete(c, [1, 2, 2], bm),
                     [(1.0, ("one", 1, 0), (0,)), (1.0, ("prior", 2), (1, 2))]),
    "complete-013": (lambda c, bm: dictatorial_complete(c, [0, 1, 3], bm),
                     [(1.0, ("prior", 0), (0,)), (1.0, ("one", 1, 1), (1,)),
                      (1.0, ("prior", 3), (2,))]),
}
TERM_CASES = (
    [("gaussian", name) for name in M3_TERM_CASES]
    + [("discrete", name) for name in M3_TERM_CASES]
    + [("long4", name) for name in M4_TERM_CASES]
)


def _term_chain(which):
    if which == "gaussian":
        return builtin_gaussian_chain()
    return make_discrete_chain() if which == "discrete" else make_long_chain(4, seed=4)


def _block_points(chain, b):
    """Every state of a discrete block, or a few draws of a continuous one."""
    coords = chain.phi_blocks[b].coords
    if all(c.kind == "discrete" for c in coords):
        return np.indices([c.cardinality for c in coords]).reshape(len(coords), -1).T.astype(float)
    return np.random.default_rng(b).standard_normal((5, len(coords)))


class TestTermLists:
    """Each factory's term list, pinned term by term."""

    @pytest.mark.parametrize("which,name", TERM_CASES)
    def test_factory_terms(self, which, name):
        built = _term_chain(which)
        chain, marginals = built.model, built.boundary_marginals
        factory, expected = (M4_TERM_CASES if which == "long4" else M3_TERM_CASES)[name]
        pool = factory(chain, marginals)

        def evaluator(source):
            if source[0] == "prior":
                return chain.submodels[source[1]].eval_log_prior
            return marginals[source[1:]]

        assert len(pool.terms) == len(expected)
        for term, (coef, source, blocks) in zip(pool.terms, expected):
            assert (term.coef, term.blocks, term.pooled) == (coef, blocks, True)
            if source[0] != "mix":
                assert term.fn == evaluator(source)
                continue
            x = _block_points(chain, blocks[0])
            parts = [math.log(w) + np.asarray(evaluator(src)(x)) for w, src in source[1]]
            mixture = parts[0] if len(parts) == 1 else np.logaddexp(*parts)
            np.testing.assert_array_equal(term.fn(x), mixture)


class TestFactorization:
    def test_factors_sum_to_pool(self, gaussian_chain, rng):
        pool = log_pooling(gaussian_chain.model, [0.4, 0.4, 0.4])
        for mode in ("flat-ends", "subprior-ends"):
            factor = factorize_for_sampler(pool, mode)
            diffs = [
                float(factor.log_density(phi)) - pool.log_density(phi)
                for phi in _random_phi(rng)
            ]
            np.testing.assert_allclose(diffs, diffs[0], atol=1e-10)

    def test_subprior_ends_targets_end_priors(self, gaussian_chain):
        pool = log_pooling(gaussian_chain.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        x = np.array([0.7])
        assert float(factor.pool1(x)) == pytest.approx(
            float(np.asarray(gaussian_chain.model.submodels[0].eval_log_prior(x))),
            abs=1e-12,
        )

    def test_flat_ends_are_zero(self, gaussian_chain):
        pool = log_pooling(gaussian_chain.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "flat-ends")
        assert float(factor.pool1(np.array([1.0]))) == 0.0
        assert float(factor.pool3(np.array([1.0]))) == 0.0

    def test_unknown_mode(self, gaussian_chain):
        pool = poe_pooling(gaussian_chain.model)
        with pytest.raises(UnsupportedConfigError):
            factorize_for_sampler(pool, "mystery-ends")

    def test_two_submodels_pool_in_the_last_factor(self):
        def marg(x):
            return 0.0

        model = ChainModel(
            submodels=(
                SubmodelSpec(0, lambda p, s: 0.0, marg),
                SubmodelSpec(1, lambda p, s: 0.0, lambda x: 1.0),
            ),
            phi_blocks=(PhiBlock("a", real_coords(1)),),
        )
        pool = poe_pooling(model)
        p0, p1 = (spec.eval_log_prior for spec in model.submodels)
        flat = factorize_for_sampler(pool, "flat-ends")
        assert flat.terms == ((), pool.terms)
        # p0 moves to the first factor; the last end's own prior stays pooled.
        sub = factorize_for_sampler(pool, "subprior-ends")
        assert sub.terms == ((PoolTerm(1.0, p0, (0,)),), (PoolTerm(1.0, p1, (0,)),))
        x = np.array([0.3])
        assert sub.log_density([x]) == flat.log_density([x]) == pool.log_density([x])

    def test_subprior_ends_inconsistent_end_marginal(self, discrete_chain):
        # an end marginal with a zero where the pooled prior keeps mass
        built = discrete_chain
        model = built.model
        zero_marg = lambda x: -math.inf

        spec0 = model.submodels[0]
        patched = SubmodelSpec(
            0, spec0.log_joint, zero_marg,
            psi_coords=spec0.psi_coords,
        )
        patched_model = ChainModel((patched,) + model.submodels[1:], model.phi_blocks)
        pool = log_pooling(patched_model, [0.0, 1.0, 0.0])
        factor = factorize_for_sampler(pool, "subprior-ends")
        with pytest.raises(NumericalFailureError):
            factor.pool2(np.array([0.0, 0.0]), np.array([0.0, 0.0]))


class TestGridNormalize:
    def test_mass_and_moments(self, gaussian_chain):
        pool = log_pooling(gaussian_chain.model, [0.0, 1.0, 0.0])
        table = grid_normalize(pool, GridSpec(((-6, 6, 120), (-6, 6, 120))))
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)
        mean, cov = table.moments()
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=0.01)
        assert table.correlation() == pytest.approx(0.8, abs=0.01)

    def test_discrete_blocks_rejected(self, discrete_chain):
        pool = poe_pooling(discrete_chain.model)
        with pytest.raises(UnsupportedConfigError):
            grid_normalize(pool, GridSpec(((-1, 1, 4),) * 4))

    def test_axis_count_checked(self, gaussian_chain):
        pool = poe_pooling(gaussian_chain.model)
        with pytest.raises(PoolingConfigError):
            grid_normalize(pool, GridSpec(((-6, 6, 10),)))

    def test_point_budget(self, gaussian_chain):
        pool = poe_pooling(gaussian_chain.model)
        with pytest.raises(PoolingConfigError):
            grid_normalize(pool, GridSpec(((-6, 6, 4000), (-6, 6, 4000))))

    def test_collapsed_pool_term_fails_loudly(self, gaussian_chain):
        # Under dictatorial-complete [1, 2] the middle's one-block marginal over
        # phi12 is itself a term of the pooled prior; one row for a grid raises.
        marginal = gaussian_chain.boundary_marginals[(1, 0)]
        pool = dictatorial_complete(gaussian_chain.model, [1, 2],
                                    {(1, 0): lambda x: marginal(x)[:1]})
        with pytest.raises(StructureError, match=r"pool: term over blocks \(0,\) returned shape "
                                                 r"\(1, 200\) for batch shape \(200, 200\)"):
            grid_normalize(pool, GridSpec(((-6, 6, 200), (-6, 6, 200))))

    def test_columns_are_c_order(self, gaussian_chain):
        pool = poe_pooling(gaussian_chain.model)
        table = grid_normalize(pool, GridSpec(((-3, 3, 5), (-2, 2, 4))))
        x0, x1, density = table.columns()
        assert x0.shape == x1.shape == density.shape == (20,)
        assert np.array_equal(x0, np.repeat(table.centers[0], 4))
        assert np.array_equal(x1, np.tile(table.centers[1], 5))
        assert np.array_equal(density, table.density.ravel())
