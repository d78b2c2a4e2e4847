import itertools

import numpy as np
import pytest

from chainmeld import (
    GaussianDensity,
    NumericalFailureError,
    SampleStore,
    StructureError,
    UnsupportedConfigError,
    build_normal_approx_target,
    builtin_gaussian_chain,
    dictatorial_complete,
    dictatorial_partial,
    factorize_for_sampler,
    fit_gaussian_moments,
    linear_pooling,
    log_melded_density,
    log_pooling,
    moment_diagnostics,
    poe_pooling,
)
from chainmeld.chain import discrete_coords, real_coords
from chainmeld.normal_approx import check_proper_ratio


def _store(phi, psi=None, phi_coords=None):
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    psi = np.zeros((phi.shape[0], 0)) if psi is None else np.asarray(psi, dtype=float)
    return SampleStore(phi=phi, psi=psi, phi_coords=phi_coords or real_coords(phi.shape[1]))


class TestFitMoments:
    def test_recovers_normal_moments(self, rng):
        store = _store(2.0 + np.sqrt(3.0) * rng.standard_normal(100_000))
        g = fit_gaussian_moments(store)
        assert g.mean[0] == pytest.approx(2.0, abs=0.05)
        assert g.cov[0, 0] == pytest.approx(3.0, abs=0.1)

    def test_recovers_correlation(self, rng):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        draws = rng.multivariate_normal([0.0, 0.0], cov, size=100_000)
        g = fit_gaussian_moments(_store(draws))
        corr = g.cov[0, 1] / np.sqrt(g.cov[0, 0] * g.cov[1, 1])
        assert corr == pytest.approx(0.8, abs=0.02)

    def test_degenerate_draws_rejected(self):
        store = _store(np.ones(50))
        with pytest.raises(NumericalFailureError):
            fit_gaussian_moments(store)

    @pytest.mark.parametrize("distinct", [2, 3], ids=["d-distinct", "d+1-distinct"])
    def test_distinct_rows_are_sought_to_the_last_row(self, distinct):
        # 1,000 rows of (0, 0) but the first and, for d + 1 distinct rows, the
        # last: the prefixes checked (64, 128, ..., 1,024) must reach row 999.
        phi = np.zeros((1_000, 2))
        phi[0] = [1.0, 0.0]
        if distinct == 3:
            phi[-1] = [0.0, 1.0]
            g = fit_gaussian_moments(_store(phi))
            assert np.array_equal(g.mean, phi.mean(axis=0))
        else:
            with pytest.raises(NumericalFailureError, match="need at least 3 distinct draws"):
                fit_gaussian_moments(_store(phi))

    def test_discrete_coordinates_rejected(self):
        store = _store(
            np.array([0.0, 1.0, 0.0, 1.0]), phi_coords=discrete_coords([2])
        )
        with pytest.raises(UnsupportedConfigError):
            fit_gaussian_moments(store)

    def test_fits_phi_columns_only(self, rng):
        phi = rng.standard_normal((500, 1))
        psi = 5.0 + rng.standard_normal((500, 1))
        store = _store(phi, psi)
        g = fit_gaussian_moments(store)
        assert g.dim == 1
        assert g.mean[0] == pytest.approx(0.0, abs=0.2)

    def test_shape_diagnostics(self, rng):
        store = _store(rng.exponential(size=20_000))
        diag = moment_diagnostics(store)
        assert diag.skewness[0] == pytest.approx(2.0, abs=0.3)

    # scipy's reference warns on the constant column; the package does not.
    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    def test_shape_diagnostics_match_scipy(self, rng):
        import scipy.stats

        data = np.column_stack(
            [rng.exponential(size=500), rng.standard_normal(500), np.full(500, 0.5)]
        )
        diag = moment_diagnostics(_store(data))
        np.testing.assert_allclose(diag.skewness, scipy.stats.skew(data), rtol=1e-12)
        np.testing.assert_allclose(
            diag.excess_kurtosis, scipy.stats.kurtosis(data), rtol=1e-12
        )
        assert np.isnan(diag.skewness[2]) and np.isnan(diag.excess_kurtosis[2])


def _middle_pool(built):
    return dictatorial_complete(built.model, [1, 1], boundary_marginals=built.boundary_marginals)


def _target(built, pool, g1, g3, factorization="subprior-ends"):
    return build_normal_approx_target(
        built.model, factorize_for_sampler(pool, factorization), g1, g3
    )


def _rows(a, b):
    """States (phi12, phi23) of the psi-free Gaussian chain, one row per pair."""
    return np.column_stack([np.ravel(a), np.ravel(b)]).astype(float)


class TestBuildTarget:
    def test_scalar_worked_case(self):
        # posterior N(1, 0.5) over prior N(0, 1) contributes a N(2, 1) factor
        built = builtin_gaussian_chain(mu1=0.0, mu3=0.0)
        target = _target(built, _middle_pool(built), GaussianDensity([1.0], [[0.5]]),
                         GaussianDensity([0.0], [[0.5]]))
        z = _rows(*np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7)))
        factor = target(z) - built.model.submodels[1].eval_log_joint(z, np.empty((len(z), 0)))
        expected = GaussianDensity([2.0, 0.0], np.eye(2)).logpdf(z)
        diffs = factor - expected
        assert diffs.max() - diffs.min() < 1e-10

    def test_improper_ratio_names_block(self):
        built = builtin_gaussian_chain()
        check_proper_ratio(GaussianDensity([0.0], [[0.5]]), GaussianDensity([0.0], [[1.0]]),
                           built.model.phi_blocks[0])
        with pytest.raises(NumericalFailureError, match="phi23"):
            check_proper_ratio(
                GaussianDensity([0.0], [[2.0]]),  # wider than its prior
                GaussianDensity([0.0], [[1.0]]),
                built.model.phi_blocks[1],
            )

    def test_no_data_flags_improper_but_flat_prior_mode_works(self):
        # posterior summaries equal to priors: the ratio is flat
        built = builtin_gaussian_chain()
        prior1, prior3 = built.meta["prior1"], built.meta["prior3"]
        with pytest.raises(NumericalFailureError):
            check_proper_ratio(prior1, prior1, built.model.phi_blocks[0])
        # flat-ends leaves the end priors in the pool, so the fits enter as they are
        target = _target(built, _middle_pool(built), prior1, prior3, "flat-ends")
        phi12, phi23 = np.array([-2.5]), np.array([2.5])
        expected = (
            float(prior1.logpdf(phi12))
            + float(prior3.logpdf(phi23))
            + built.model.submodels[1].eval_log_joint(
                np.array([-2.5, 2.5]), np.empty(0)
            )
        )
        assert target(_rows(phi12, phi23))[0] == pytest.approx(expected, abs=1e-10)

    def test_mode_consistency_with_diffuse_prior(self, rng):
        # the factorizations differ by the end priors subprior-ends divides out
        built = builtin_gaussian_chain(sigma1=1e3, sigma3=1e3)
        g1 = GaussianDensity([0.6], [[0.4]])
        g3 = GaussianDensity([-0.2], [[0.3]])
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        ratio = _target(built, pool, g1, g3, "subprior-ends")
        flat = _target(built, pool, g1, g3, "flat-ends")
        z = rng.normal(0.0, 3.0, size=(50, 2))
        ends = built.meta["prior1"].logpdf(z[:, :1]) + built.meta["prior3"].logpdf(z[:, 1:])
        np.testing.assert_allclose(ratio(z), flat(z) - ends, rtol=0, atol=1e-10)
        diffs = ratio(z) - flat(z)
        assert diffs.max() - diffs.min() < 1e-4

    def test_exact_on_gaussian_chain(self):
        # with the exact stage-one summaries the approximate target equals the
        # melded posterior of any pool, under either factorization, up to one
        # additive constant
        y1, y3 = [-2.0, -3.0], [2.0]
        built = builtin_gaussian_chain(y1=y1, s1=1.0, y3=y3, s3=1.0)
        model, marginals = built.model, built.boundary_marginals
        pools = [
            _middle_pool(built),
            dictatorial_complete(model, [0, 2], boundary_marginals=marginals),
            dictatorial_partial(model, 0, boundary_marginals=marginals),
            log_pooling(model, [0.5, 0.5, 0.5]),
            poe_pooling(model),
            linear_pooling(model, [[0.3, 0.7], [0.6, 0.4]], marginals),
        ]
        grid = np.linspace(-4, 4, 15)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        for pool, factorization in itertools.product(pools, ["subprior-ends", "flat-ends"]):
            # stage one samples the conjugate subposteriors under subprior-ends
            # and the end likelihoods under flat-ends (unit prior precision)
            prior = 1.0 if factorization == "subprior-ends" else 0.0
            v1 = 1.0 / (prior + len(y1))
            m1 = v1 * (prior * -2.5 + sum(y1))
            v3 = 1.0 / (prior + len(y3))
            m3 = v3 * (prior * 2.5 + sum(y3))
            target = _target(built, pool, GaussianDensity([m1], [[v1]]),
                             GaussianDensity([m3], [[v3]]), factorization)
            exact = np.array([
                log_melded_density(model, pool, [np.array([x]), np.array([y])],
                                   [np.empty(0), np.empty(0), np.empty(0)])
                for x, y in zip(a.ravel(), b.ravel())
            ])
            diffs = target(_rows(a, b)) - exact
            assert diffs.max() - diffs.min() < 1e-8, (pool.method, factorization)

    def test_collapsed_one_block_marginal_fails_loudly(self):
        # Under dictatorial-complete [1, 2] the middle's one-block marginal over
        # phi12 is a term of the target, checked like the submodel evaluators.
        built = builtin_gaussian_chain(mu1=0.0, mu3=0.0)
        marginal = built.boundary_marginals[(1, 0)]
        pool = dictatorial_complete(built.model, [1, 2], {(1, 0): lambda x: marginal(x)[:1]})
        g = GaussianDensity([0.0], [[1.0]])
        target = _target(built, pool, g, g)
        with pytest.raises(StructureError, match=r"submodel 1: pool term over blocks \(0,\) "
                                                 r"returned shape \(1,\) for batch shape \(3,\)"):
            target(_rows([0.1, 0.2, 0.3], [0.0, 0.5, 1.0]))

    def test_factorization_of_another_chain_rejected(self):
        built = builtin_gaussian_chain(mu1=0.0, mu3=0.0)
        other = builtin_gaussian_chain(mu1=3.0, mu3=0.0)
        g = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(UnsupportedConfigError, match="built on another chain"):
            _target(built, _middle_pool(other), g, g)

    def test_discrete_blocks_rejected(self, discrete_chain):
        g = GaussianDensity([0.0, 0.0], np.eye(2))
        factor = factorize_for_sampler(log_pooling(discrete_chain.model, [0.5, 0.5, 0.5]),
                                       "flat-ends")
        with pytest.raises(UnsupportedConfigError):
            build_normal_approx_target(discrete_chain.model, factor, g, g)
