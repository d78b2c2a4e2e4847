"""Convergence diagnostics: rank-normalized split R-hat and autocorrelation ESS.

Pure functions over read-only trace arrays of shape (chains, draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import StructureError

__all__ = ["RhatResult", "EssResult", "split_rhat", "ess", "ess_bulk", "ess_tail"]


@dataclass(frozen=True)
class RhatResult:
    value: float
    zero_variance: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class EssResult:
    value: float
    capped: bool = False

    def __float__(self) -> float:
        return self.value


def _as_traces(traces, min_draws: int) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(traces, dtype=float))
    if arr.ndim != 2:
        raise StructureError(f"expected (chains, draws) traces, got shape {arr.shape}")
    if arr.shape[1] < min_draws:
        raise StructureError(f"need at least {min_draws} draws, got {arr.shape[1]}")
    return arr


def _average_ranks(flat: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their average rank; all NaN if any is NaN.

    Every member of a tie gets the same rank, so the sort need not be stable.
    """
    if np.isnan(flat).any():
        return np.full(flat.shape, np.nan)
    order = np.argsort(flat)
    ordered = flat[order]
    new_run = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], flat.size)
    ranks = np.empty(flat.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new_run) - 1]
    return ranks


def _rank_normalize(arr: np.ndarray) -> np.ndarray:
    """Average ranks mapped through the normal quantile with offset 3/8."""
    flat = arr.reshape(-1)
    z = ndtri((_average_ranks(flat) - 0.375) / (flat.size + 0.25))
    return z.reshape(arr.shape)


def _rhat_raw(arr: np.ndarray) -> float:
    chains, n = arr.shape
    means = arr.mean(axis=1)
    w = arr.var(axis=1, ddof=1).mean()
    b = n * means.var(ddof=1)
    if w == 0.0:
        return np.inf
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def split_rhat(traces) -> RhatResult:
    """Rank-normalized split R-hat over per-chain traces.

    Requires at least two chains of at least four draws.  A trace that is
    constant within every split half is reported as 1.0 with the
    zero-variance flag set; two chains stuck at different constants also
    set the flag but report a large value.
    """
    arr = _as_traces(traces, 4)
    if arr.shape[0] < 2:
        raise StructureError("split R-hat needs at least two chains")
    half = arr.shape[1] // 2
    split = np.concatenate([arr[:, :half], arr[:, half : 2 * half]], axis=0)
    zero_within = bool(np.all(split.var(axis=1) == 0.0))
    if zero_within and np.all(split == split.reshape(split.shape[0], -1)[0, 0]):
        return RhatResult(1.0, zero_variance=True)
    value = _rhat_raw(_rank_normalize(split))
    if not np.isfinite(value):
        # Distinct constants: within-variance is zero but chains disagree.
        return RhatResult(float(split.shape[1]), zero_variance=True)
    return RhatResult(max(value, 0.99), zero_variance=zero_within)


def ess(traces) -> EssResult:
    """Effective sample size from pooled autocorrelations.

    Uses the initial-positive-sequence truncation: lag autocorrelations are
    summed in consecutive pairs and summation stops at the first negative
    pair.  Antithetic chains can exceed the draw count; the estimate is
    then capped at the total count with the ``capped`` flag set.
    """
    arr = _as_traces(traces, 8)
    chains, n = arr.shape
    total = chains * n
    w = arr.var(axis=1, ddof=1).mean()
    if w == 0.0:
        return EssResult(float(total), capped=True)
    var_plus = (n - 1) / n * w + (arr.mean(axis=1).var(ddof=1) if chains > 1 else 0.0)
    acov = np.stack([_autocov(arr[c]) for c in range(chains)]).mean(axis=0)
    rho = 1.0 - (w - acov) / var_plus
    # Geyer paired sums rho[2k] + rho[2k+1]; stop at the first negative
    # pair.  tau = -1 + 2 * sum(pairs) can dip below 1 for antithetic
    # chains, in which case the estimate exceeds the draw count and is
    # capped with a flag.
    pairs = 0.0
    k = 0
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair < 0.0:
            break
        pairs += pair
        k += 2
    tau = -1.0 + 2.0 * pairs
    if tau <= 0.0:
        return EssResult(float(total), capped=True)
    out = total / tau
    if out > total:
        return EssResult(float(total), capped=True)
    return EssResult(float(out))


def _autocov(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    centered = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    return acov


def ess_bulk(traces) -> EssResult:
    """ESS of the rank-normalized traces (bulk mixing)."""
    arr = _as_traces(traces, 8)
    if np.all(arr == arr.reshape(-1)[0]):
        return EssResult(float(arr.size), capped=True)
    return ess(_rank_normalize(arr))


def ess_tail(traces) -> EssResult:
    """Minimum ESS of the 5% and 95% quantile indicator traces."""
    arr = _as_traces(traces, 8)
    results = []
    for q in (0.05, 0.95):
        indicator = (arr <= np.quantile(arr, q)).astype(float)
        if np.all(indicator == indicator.reshape(-1)[0]):
            results.append(EssResult(float(arr.size), capped=True))
        else:
            results.append(ess(_rank_normalize(indicator)))
    return min(results, key=lambda r: r.value)
