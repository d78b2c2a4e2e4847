import numpy as np
import pytest
import scipy.stats

from chainmeld import (
    GaussianDensity,
    NumericalFailureError,
    StructureError,
    block_diag_stack,
    log_pool_gaussian_chain,
)
from chainmeld.gaussian import ratio_is_improper


def _random_gaussian(rng, d):
    a = rng.standard_normal((d, d))
    return GaussianDensity(rng.standard_normal(d), a @ a.T + d * np.eye(d))


class TestGaussianDensity:
    def test_logpdf_matches_scipy(self, rng):
        g = _random_gaussian(rng, 3)
        ref = scipy.stats.multivariate_normal(g.mean, g.cov)
        x = rng.standard_normal((7, 3))
        np.testing.assert_allclose(g.logpdf(x), ref.logpdf(x), atol=1e-10)
        assert g.logpdf(x[0]) == pytest.approx(ref.logpdf(x[0]), abs=1e-10)

    def test_logpdf_batch_shapes(self, rng):
        g = _random_gaussian(rng, 2)
        x = rng.standard_normal((4, 5, 2))
        assert g.logpdf(x).shape == (4, 5)

    @pytest.mark.parametrize("x", [np.zeros((3, 1)), np.float64(0.0)], ids=["n-by-1", "0-d"])
    def test_logpdf_rejects_a_wrong_last_axis(self, x):
        # A (3, 1) batch would broadcast against the 2-d mean without the check.
        g = GaussianDensity([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]])
        with pytest.raises(StructureError, match=r"points of shape \(\.\.\., 2\)"):
            g.logpdf(x)

    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            GaussianDensity([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(StructureError):
            GaussianDensity([0.0, 0.0], [[1.0]])


class TestRatioIsImproper:
    def test_ratio_improper(self):
        wide = GaussianDensity([0.0], [[4.0]])
        narrow = GaussianDensity([0.0], [[1.0]])
        assert ratio_is_improper(wide, narrow)
        assert not ratio_is_improper(narrow, wide)

    def test_condition_limit(self):
        cov = np.diag([1.0, 1e-14])
        with pytest.raises(NumericalFailureError):
            ratio_is_improper(GaussianDensity([0, 0], cov), GaussianDensity([0, 0], np.eye(2)))


class TestBlockDiagStack:
    def test_logpdf_is_sum(self, rng):
        a = _random_gaussian(rng, 1)
        b = _random_gaussian(rng, 2)
        stacked = block_diag_stack([a, b])
        x = rng.standard_normal((10, 3))
        np.testing.assert_allclose(
            stacked.logpdf(x), a.logpdf(x[:, :1]) + b.logpdf(x[:, 1:]), atol=1e-10
        )

    def test_needs_parts(self):
        with pytest.raises(StructureError):
            block_diag_stack([])


class TestLogPoolChain:
    def _paper_config(self):
        g1 = GaussianDensity([-2.5], [[1.0]])
        g3 = GaussianDensity([2.5], [[1.0]])
        g2 = GaussianDensity([0.0, 0.0], [[1.0, 0.8], [0.8, 1.0]])
        return g1, g2, g3

    def test_pointwise_identity(self, rng):
        # pooled density must equal the weighted product up to a constant
        g1, g2, g3 = self._paper_config()
        lam = (0.2, 0.5, 0.3)
        pooled = log_pool_gaussian_chain(g1, g2, g3, lam)
        x = rng.standard_normal((30, 2))
        raw = (
            lam[0] * g1.logpdf(x[:, :1])
            + lam[1] * g2.logpdf(x)
            + lam[2] * g3.logpdf(x[:, 1:])
        )
        diffs = raw - pooled.logpdf(x)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-9)

    def test_correlation_endpoints(self):
        g1, g2, g3 = self._paper_config()
        full = log_pool_gaussian_chain(g1, g2, g3, (0.0, 1.0, 0.0))
        corr = full.cov[0, 1] / np.sqrt(full.cov[0, 0] * full.cov[1, 1])
        assert corr == pytest.approx(0.8, abs=1e-9)
        ends = log_pool_gaussian_chain(g1, g2, g3, (0.5, 0.0, 0.5))
        assert abs(ends.cov[0, 1]) < 1e-12

    def test_correlation_decreases(self):
        g1, g2, g3 = self._paper_config()
        corrs = []
        for lam1 in (0.0, 0.125, 0.25, 0.375, 0.5):
            pooled = log_pool_gaussian_chain(
                g1, g2, g3, (lam1, 1.0 - 2 * lam1, lam1)
            )
            corrs.append(pooled.cov[0, 1] / np.sqrt(pooled.cov[0, 0] * pooled.cov[1, 1]))
        assert corrs[0] == pytest.approx(0.8, abs=1e-9)
        assert abs(corrs[-1]) < 1e-9
        assert all(a > b for a, b in zip(corrs, corrs[1:]))

    def test_zero_everything_fails(self):
        g1, g2, g3 = self._paper_config()
        with pytest.raises(ValueError):
            log_pool_gaussian_chain(g1, g2, g3, (0.0, -0.1, 0.0))

    def test_dim_mismatch(self):
        g1 = GaussianDensity([0.0], [[1.0]])
        g2 = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(StructureError):
            log_pool_gaussian_chain(g1, g2, g1, (1.0, 1.0, 1.0))
