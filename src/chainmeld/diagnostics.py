"""Convergence diagnostics: rank-normalized split R-hat and autocorrelation ESS.

Pure functions over read-only trace arrays of shape (chains, draws).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# Loaded here, not on first use: ``np.fft`` is reached by ``ess`` and
# ``numpy.ma`` by ``np.quantile`` (through ``np.unique``), and a lazy import
# would land inside the first diagnostics call.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401

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


# Coefficients of the cephes ``ndtri`` that scipy.special uses, highest power
# first; each Q is monic with its leading 1 left out.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# z >= 8: y below exp(-32).
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189


def _horner(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """cephes ``polevl`` (or ``p1evl`` when ``monic``), in its order of operations."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, as in scipy; numpy's SIMD log can
    # differ from it in the last bit.
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile, bit-identical to ``scipy.special.ndtri``.

    A vectorized port of cephes ``ndtri``: one rational approximation in
    the centre, two in the tails of z = sqrt(-2 log y).  0 and 1 map to
    -inf and inf; NaN and values outside [0, 1] map to NaN.
    """
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.full(p.shape, np.nan)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    ratio = y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, monic=True)
    out[central] = (yc + yc * ratio) * _SQRT_2PI
    tail = ~central & (p > 0.0) & (p < 1.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _horner(z, _NDTRI_P1) / _horner(z, _NDTRI_Q1, monic=True),
        z * _horner(z, _NDTRI_P2) / _horner(z, _NDTRI_Q2, monic=True),
    )
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out


# Score-table entries filled per ``_ndtri`` call.  Its temporaries (the
# tails' Python floats among them) take many times the entries' size, so
# filling the table in chunks keeps them near 0.2 MB for any n.
_SCORE_CHUNK = 2048


@functools.lru_cache(maxsize=8)
def _normal_scores(n: int) -> np.ndarray:
    """Read-only table: entry k is the rank-normalized value of average rank k / 2
    among n draws, ndtri((k/2 - 3/8) / (n + 1/4)), for k = 0..2n."""
    table = np.empty(2 * n + 1)
    for start in range(0, table.size, _SCORE_CHUNK):
        k = np.arange(start, min(start + _SCORE_CHUNK, table.size))
        table[start : start + k.size] = _ndtri((0.5 * k - 0.375) / (n + 0.25))
    table.flags.writeable = False
    return table


def _doubled_ranks(flat: np.ndarray) -> np.ndarray:
    """Twice the 1-based ranks, ties given their average rank: integers in [2, 2n].

    Every member of a tie gets the same rank, so the sort need not be stable.
    Temporaries are freed once used: at most four trace-sized integer arrays
    are alive at once.
    """
    n = flat.size
    order = np.argsort(flat)
    ordered = flat[order]
    new_run = np.empty(n + 1, dtype=bool)  # run starts, then a last True at n
    new_run[0] = new_run[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:n])
    del ordered
    # A run over sorted positions [s, e) has doubled rank s + e + 1.
    bounds = np.flatnonzero(new_run)
    bounds[:-1] += bounds[1:]
    bounds += 1
    run = np.cumsum(new_run[:n])
    del new_run
    run -= 1
    run = bounds[run]
    doubled = np.empty(n, dtype=np.intp)
    doubled[order] = run
    return doubled


def _rank_normalize(arr: np.ndarray) -> np.ndarray:
    """Average ranks mapped through the normal quantile with offset 3/8; all NaN if any is NaN."""
    flat = arr.reshape(-1)
    if np.isnan(flat).any():
        return np.full(arr.shape, np.nan)
    return _normal_scores(flat.size)[_doubled_ranks(flat)].reshape(arr.shape)


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
    # Constant halves found by comparison: a variance would square raw draws
    # (overflowing above about 1e154) and can be nonzero for a constant.
    lo, hi = split.min(axis=1), split.max(axis=1)
    zero_within = bool(np.all(lo == hi))
    if zero_within and np.all(lo == lo[0]):
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
    for cut in np.quantile(arr, (0.05, 0.95)):  # one sort for both tails
        below = arr <= cut
        zeros = arr.size - int(np.count_nonzero(below))
        if zeros in (0, arr.size):
            results.append(EssResult(float(arr.size), capped=True))
        else:
            # Ranks of the 0/1 indicator: the zeros tie at (zeros + 1) / 2,
            # the ones at (zeros + 1 + n) / 2.
            doubled = np.where(below, zeros + 1 + arr.size, zeros + 1)
            results.append(ess(_normal_scores(arr.size)[doubled]))
    return min(results, key=lambda r: r.value)
