import numpy as np
import pytest

from chainmeld import (
    GaussianDensity,
    NumericalFailureError,
    SampleStore,
    UnsupportedConfigError,
    build_normal_approx_target,
    builtin_gaussian_chain,
    fit_gaussian_moments,
    moment_diagnostics,
)
from chainmeld.chain import discrete_coords, real_coords


def _store(phi, psi=None, phi_coords=None, psi_coords=()):
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    psi = np.zeros((phi.shape[0], 0)) if psi is None else np.asarray(psi, dtype=float)
    return SampleStore(
        phi=phi,
        psi=psi,
        log_density=np.zeros(phi.shape[0]),
        chain_id=np.zeros(phi.shape[0], dtype=int),
        iteration=np.arange(phi.shape[0]),
        phi_coords=phi_coords or real_coords(phi.shape[1]),
        psi_coords=psi_coords,
    )


class TestFitMoments:
    def test_recovers_normal_moments(self, rng):
        store = _store(2.0 + np.sqrt(3.0) * rng.standard_normal(100_000))
        g = fit_gaussian_moments(store, "phi")
        assert g.mean[0] == pytest.approx(2.0, abs=0.05)
        assert g.cov[0, 0] == pytest.approx(3.0, abs=0.1)

    def test_recovers_correlation(self, rng):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        draws = rng.multivariate_normal([0.0, 0.0], cov, size=100_000)
        g = fit_gaussian_moments(_store(draws), "phi")
        corr = g.cov[0, 1] / np.sqrt(g.cov[0, 0] * g.cov[1, 1])
        assert corr == pytest.approx(0.8, abs=0.02)

    def test_degenerate_draws_rejected(self):
        store = _store(np.ones(50))
        with pytest.raises(NumericalFailureError):
            fit_gaussian_moments(store, "phi")

    def test_discrete_coordinates_rejected(self):
        store = _store(
            np.array([0.0, 1.0, 0.0, 1.0]), phi_coords=discrete_coords([2])
        )
        with pytest.raises(UnsupportedConfigError):
            fit_gaussian_moments(store, "phi")

    def test_column_selector(self, rng):
        phi = rng.standard_normal((500, 1))
        psi = 5.0 + rng.standard_normal((500, 1))
        store = _store(phi, psi, psi_coords=real_coords(1))
        g = fit_gaussian_moments(store, [1])
        assert g.mean[0] == pytest.approx(5.0, abs=0.2)

    def test_shape_diagnostics(self, rng):
        store = _store(rng.exponential(size=20_000))
        diag = moment_diagnostics(store, "phi")
        assert diag.skewness[0] == pytest.approx(2.0, abs=0.3)

    def test_shape_diagnostics_match_scipy(self, rng):
        import scipy.stats

        data = np.column_stack(
            [rng.exponential(size=500), rng.standard_normal(500), np.full(500, 0.5)]
        )
        diag = moment_diagnostics(_store(data), "phi")
        np.testing.assert_allclose(diag.skewness, scipy.stats.skew(data), rtol=1e-12)
        np.testing.assert_allclose(
            diag.excess_kurtosis, scipy.stats.kurtosis(data), rtol=1e-12
        )
        assert np.isnan(diag.skewness[2]) and np.isnan(diag.excess_kurtosis[2])


class TestBuildTarget:
    def test_scalar_worked_case(self):
        # posterior N(1, 0.5) over prior N(0, 1) contributes a N(2, 1) factor
        built = builtin_gaussian_chain()
        target = build_normal_approx_target(
            built.model,
            GaussianDensity([1.0], [[0.5]]),
            GaussianDensity([0.0], [[1.0]]),
            GaussianDensity([0.0], [[0.5]]),
            GaussianDensity([0.0], [[1.0]]),
            mode="ratio",
        )
        factor = target.gaussian_factor
        np.testing.assert_allclose(factor.mean, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(factor.cov, np.eye(2), atol=1e-12)

    def test_improper_ratio_names_block(self):
        built = builtin_gaussian_chain()
        with pytest.raises(NumericalFailureError, match="phi23"):
            build_normal_approx_target(
                built.model,
                GaussianDensity([0.0], [[0.5]]),
                GaussianDensity([0.0], [[1.0]]),
                GaussianDensity([0.0], [[2.0]]),  # wider than its prior
                GaussianDensity([0.0], [[1.0]]),
                mode="ratio",
            )

    def test_no_data_flags_improper_but_flat_prior_mode_works(self):
        # posterior summaries equal to priors: the ratio is flat
        built = builtin_gaussian_chain()
        prior1, prior3 = built.meta["prior1"], built.meta["prior3"]
        with pytest.raises(NumericalFailureError):
            build_normal_approx_target(
                built.model, prior1, prior1, prior3, prior3, mode="ratio"
            )
        target = build_normal_approx_target(
            built.model, prior1, prior1, prior3, prior3, mode="poe-flat-prior"
        )
        # poe-flat-prior keeps the prior-weighted Gaussian factor
        phi12, phi23 = np.array([-2.5]), np.array([2.5])
        expected = (
            float(prior1.logpdf(phi12))
            + float(prior3.logpdf(phi23))
            + built.model.submodels[1].eval_log_joint(
                np.array([-2.5, 2.5]), np.empty(0)
            )
        )
        assert target(phi12, phi23, np.empty(0)) == pytest.approx(expected, abs=1e-10)

    def test_mode_consistency_with_diffuse_prior(self, rng):
        built = builtin_gaussian_chain()
        g1 = GaussianDensity([0.6], [[0.4]])
        g3 = GaussianDensity([-0.2], [[0.3]])
        diffuse = GaussianDensity([0.0], [[1e6]])
        ratio = build_normal_approx_target(
            built.model, g1, diffuse, g3, diffuse, mode="ratio"
        )
        flat = build_normal_approx_target(
            built.model, g1, diffuse, g3, diffuse, mode="poe-flat-prior"
        )
        assert np.abs(
            ratio.gaussian_factor.mean - flat.gaussian_factor.mean
        ).max() < 1e-3

    def test_exact_on_gaussian_chain(self):
        # with exact conjugate summaries the approximate target equals
        # p2(phi) * lik1(phi12) * lik3(phi23) up to one additive constant
        y1, y3 = [-2.0, -3.0], [2.0]
        built = builtin_gaussian_chain(y1=y1, s1=1.0, y3=y3, s3=1.0)
        # conjugate posteriors, derived with plain precision arithmetic
        v1 = 1.0 / (1.0 + len(y1))
        m1 = v1 * (-2.5 + sum(y1))
        v3 = 1.0 / (1.0 + len(y3))
        m3 = v3 * (2.5 + sum(y3))
        target = build_normal_approx_target(
            built.model,
            GaussianDensity([m1], [[v1]]),
            built.meta["prior1"],
            GaussianDensity([m3], [[v3]]),
            built.meta["prior3"],
            mode="ratio",
        )

        def exact(phi12, phi23):
            out = built.model.submodels[1].eval_log_joint(
                np.array([phi12, phi23]), np.empty(0)
            )
            out += sum(-0.5 * (y - phi12) ** 2 for y in y1)
            out += sum(-0.5 * (y - phi23) ** 2 for y in y3)
            return out

        grid = np.linspace(-4, 4, 15)
        diffs = np.array(
            [
                target(np.array([a]), np.array([b]), np.empty(0)) - exact(a, b)
                for a in grid
                for b in grid
            ]
        )
        assert diffs.max() - diffs.min() < 1e-8

    def test_discrete_blocks_rejected(self, discrete_chain):
        g = GaussianDensity([0.0, 0.0], np.eye(2))
        with pytest.raises(UnsupportedConfigError):
            build_normal_approx_target(discrete_chain.model, g, g, g, g)

    def test_unknown_mode(self):
        built = builtin_gaussian_chain()
        g = GaussianDensity([0.0], [[1.0]])
        wider = GaussianDensity([0.0], [[2.0]])
        with pytest.raises(UnsupportedConfigError):
            build_normal_approx_target(built.model, g, wider, g, wider, mode="exact")
