import math
import tracemalloc

import numpy as np
import pytest

from chainmeld import StructureError, ess, ess_bulk, ess_tail, split_rhat
from chainmeld.diagnostics import _ndtri, _normal_scores


class TestSplitRhat:
    def test_iid_chains_near_one(self, rng):
        traces = rng.standard_normal((4, 10_000))
        r = split_rhat(traces)
        assert r.value < 1.01
        assert not r.zero_variance

    def test_distinct_constants_flagged(self):
        traces = np.stack([np.zeros(100), np.ones(100)])
        r = split_rhat(traces)
        assert r.value > 1.1
        assert r.zero_variance

    def test_all_constant_is_one(self):
        r = split_rhat(np.ones((3, 50)))
        assert r.value == 1.0
        assert r.zero_variance

    def test_constant_with_inexact_mean_is_one(self):
        # np.full(3, 0.1).mean() is not 0.1, so a variance test sees spread here.
        r = split_rhat(np.full((2, 6), 0.1))
        assert r.value == 1.0
        assert r.zero_variance

    def test_draws_near_the_float_limit(self, rng):
        # Their squares overflow; a RuntimeWarning would fail the test.
        traces = 1e308 * rng.uniform(-1.0, 1.0, (2, 8))
        r = split_rhat(traces)
        assert np.isfinite(r.value) and not r.zero_variance

    def test_single_chain_rejected(self):
        with pytest.raises(StructureError):
            split_rhat(np.zeros((1, 100)))

    def test_too_few_draws_rejected(self):
        with pytest.raises(StructureError):
            split_rhat(np.zeros((2, 3)))

    def test_monotone_invariance(self, rng):
        traces = rng.standard_normal((3, 500))
        a = split_rhat(traces).value
        b = split_rhat(np.exp(traces)).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_detects_poor_mixing(self, rng):
        shifted = np.stack([rng.standard_normal(500), 5 + rng.standard_normal(500)])
        assert split_rhat(shifted).value > 1.5


class TestEss:
    def test_iid_range(self, rng):
        traces = rng.standard_normal((1, 10_000))
        e = ess(traces)
        assert 8_000 <= e.value <= 10_500

    def test_antithetic_capped(self):
        traces = np.tile([1.0, -1.0], 500)[None, :]
        e = ess(traces)
        assert e.capped
        assert e.value == 1000.0

    def test_ar1_analytic(self, rng):
        # AR(1) with coefficient rho has ESS factor (1 - rho) / (1 + rho)
        rho, n = 0.9, 50_000
        noise = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for t in range(1, n):
            x[t] = rho * x[t - 1] + np.sqrt(1 - rho**2) * noise[t]
        e = ess(x[None, :])
        expected = n * (1 - rho) / (1 + rho)
        assert expected / 1.5 <= e.value <= expected * 1.5

    def test_never_exceeds_total_without_cap(self, rng):
        for _ in range(5):
            traces = rng.standard_normal((2, 512))
            e = ess(traces)
            assert e.value <= traces.size

    def test_constant_trace(self):
        e = ess(np.ones((1, 64)))
        assert e.capped

    def test_too_short_rejected(self):
        with pytest.raises(StructureError):
            ess(np.zeros((1, 4)))


class TestBulkTail:
    def test_bulk_close_to_plain_for_iid(self, rng):
        traces = rng.standard_normal((4, 5_000))
        b = ess_bulk(traces)
        assert 0.8 * traces.size <= b.value <= 1.05 * traces.size

    def test_tail_returns_minimum_quantile_ess(self, rng):
        traces = rng.standard_normal((2, 5_000))
        t = ess_tail(traces)
        assert 0 < t.value <= traces.size

    def test_bulk_handles_constant(self):
        assert ess_bulk(np.zeros((2, 100))).capped


class TestRankNormalize:
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_matches_scipy_exactly(self, rng, kind):
        import scipy.stats

        from chainmeld.diagnostics import _rank_normalize

        if kind == "tied":
            arr = rng.integers(0, 6, size=(3, 400)).astype(float)
        else:
            arr = rng.standard_normal((3, 400))
        flat = arr.reshape(-1)
        ranks = scipy.stats.rankdata(flat, method="average")
        expected = scipy.stats.norm.ppf((ranks - 0.375) / (flat.size + 0.25))
        assert np.array_equal(_rank_normalize(arr), expected.reshape(arr.shape))

    def test_nan_propagates(self):
        from chainmeld.diagnostics import _rank_normalize

        assert np.isnan(_rank_normalize(np.array([[1.0, np.nan, 2.0]]))).all()


def _ndtri_probes() -> np.ndarray:
    rng = np.random.default_rng(2021)
    edges = [0.0, 1.0, -0.1, 1.1, np.nan, 5e-324]
    for branch in (math.exp(-2.0), 1.0 - math.exp(-2.0)):
        edges += [branch, np.nextafter(branch, 0.0), np.nextafter(branch, 1.0)]
    rank_grids = [(np.arange(2 * n + 1) / 2 - 0.375) / (n + 0.25)
                  for n in (1, 2, 7, 400, 1_200, 50_000)]
    return np.concatenate([
        rng.random(400_000),
        10.0 ** -rng.uniform(0.0, 300.0, 300_000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 300_000),
        *rank_grids,
        edges,
    ])


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy.special import ndtri

    probes = _ndtri_probes()
    assert probes.size >= 1_000_000
    got, want = _ndtri(probes), ndtri(probes)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("n", [1, 1_023, 1_024, 5_000])
def test_score_table_equals_one_ndtri_call(n):
    # 2n + 1 entries: within the first 2,048-entry fill chunk, one past it, several.
    _normal_scores.cache_clear()
    want = _ndtri((0.5 * np.arange(2 * n + 1) - 0.375) / (n + 0.25))
    assert np.array_equal(_normal_scores(n).view(np.int64), want.view(np.int64))


def _peak_mb(fn, *args) -> float:
    """Peak traced allocation, in MB, of one call of ``fn``."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Peaks on a 4 x 12,500 trace (0.4 MB); the table for 50,000 draws is 0.8 MB."""

    def test_score_table_is_filled_in_chunks(self):
        _normal_scores.cache_clear()
        assert _peak_mb(_normal_scores, 50_000) <= 1.3  # 6.22 whole-grid

    # The bound on ess is its figure before the ranks were reworked (1.19 MB),
    # which it does not use; ess_tail peaks at 1.64 MB.
    @pytest.mark.parametrize("fn, bound",
                             [(split_rhat, 2.5), (ess_bulk, 2.5), (ess_tail, 1.7), (ess, 1.2)],
                             ids=["split_rhat", "ess_bulk", "ess_tail", "ess"])
    def test_diagnostic_peak(self, fn, bound):
        traces = np.random.default_rng(11).standard_normal((4, 12_500))
        fn(traces)  # builds the score table and numpy's FFT plans
        assert _peak_mb(fn, traces) <= bound


def test_cli_import_skips_scipy_stats(tmp_path):
    """Neither the import nor a normal-approx sample and a diag load scipy's submodules."""
    import json
    import subprocess
    import sys

    config = {
        "model": {"name": "gaussian-chain",
                  "params": {"rho": 0.2, "y1": [-2.0], "y3": [2.0], "y2": [0.5], "tau": 1.0}},
        "pooling": {"method": "dictatorial-complete", "choices": [1, 1]},
        "sampler": {"kind": "normal-approx", "seed": 3, "chains": 2,
                    "iterations": {"stage_one": 200, "stage_two": 200}},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = (
        "import sys, chainmeld.cli as cli\n"
        "banned = ('scipy.stats', 'scipy.linalg', 'scipy.special', 'scipy._lib._array_api')\n"
        "print([m for m in banned if m in sys.modules])\n"
        f"assert cli.main(['sample', '--config', {str(path)!r}]) == 0\n"
        f"assert cli.main(['diag', '--config', {str(path)!r}]) == 0\n"
        "print([m for m in banned if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    lines = out.stdout.splitlines()
    assert [lines[0], lines[-1]] == ["[]", "[]"]
