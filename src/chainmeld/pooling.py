"""Pooled priors over the shared quantities of a chain.

Supports logarithmic pooling (with product-of-experts as the all-ones
special case), two-step linear pooling, and the partial and complete
dictatorial rules.  Linear and complete dictatorial pooling need
one-block marginals of the middle submodels, which cannot be derived from
the chain's two-block marginals numerically; callers supply them as
evaluators keyed by (submodel index, boundary index).

All evaluation is in log space and unnormalized: normalization constants
cancel in MCMC, and the grid oracle normalizes explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .chain import ChainModel, LogDensity, block_values, checked
from .errors import NumericalFailureError, PoolingConfigError, UnsupportedConfigError

__all__ = [
    "PooledPrior",
    "PoolTerm",
    "PoolFactorization",
    "GridSpec",
    "GridTable",
    "log_pooling",
    "poe_pooling",
    "linear_pooling",
    "dictatorial_partial",
    "dictatorial_complete",
    "factorize_for_sampler",
    "grid_normalize",
]

FACTORIZATIONS = ("flat-ends", "subprior-ends")


@dataclass(frozen=True)
class PoolTerm:
    """One weighted log-marginal term, ``coef * fn(phi[blocks])``.

    ``pooled`` is False for a term that only divides an end prior out of
    the pool: such a term at -inf where the pool is finite is an error, not
    a zero of the density.
    """

    coef: float
    fn: LogDensity
    blocks: tuple[int, ...]
    pooled: bool = True

    def evaluates(self, fn: LogDensity, blocks: tuple[int, ...]) -> bool:
        return self.fn == fn and self.blocks == blocks


_STRAY_END = (
    "subprior-ends factorization: an end prior marginal is -inf where the "
    "pooled prior is finite"
)


def neg_inf_policy(terms: Sequence[PoolTerm], values, total, zero=np.False_) -> np.ndarray:
    """``total`` where the pooled density is positive, -inf where it is zero.

    ``values[k]`` holds the value of ``terms[k]``, batched like ``total``.  A
    pooled term at -inf is a zero of the density, as is ``zero``; an unpooled
    term at -inf where the density is not otherwise zero raises
    ``NumericalFailureError``.
    """
    stray = np.False_
    for t, value in zip(terms, values):
        off = np.isneginf(value)
        if t.pooled:
            zero = zero | off
        else:
            stray = stray | off
    if np.any(stray & ~zero):
        raise NumericalFailureError(_STRAY_END)
    return np.where(zero, -np.inf, total)


def sum_terms(terms: Sequence[PoolTerm], phi: Sequence[np.ndarray]):
    """Sum of weighted log terms under ``neg_inf_policy``; blocks may be batched.

    A float for unbatched blocks.
    """
    values = [np.asarray(t.fn(block_values(phi, t.blocks)), dtype=float) for t in terms]
    total = 0.0
    with np.errstate(invalid="ignore"):
        for t, value in zip(terms, values):
            total = total + t.coef * value
    out = neg_inf_policy(terms, values, total)
    return float(out) if out.ndim == 0 else out


def merge_term(terms: Sequence[PoolTerm], coef: float, fn: LogDensity,
               blocks: tuple[int, ...]) -> tuple[PoolTerm, ...]:
    """Add ``coef * fn(phi[blocks])`` to a term list, merging like terms.

    A new term is unpooled; terms whose coefficient cancels to 0 are dropped.
    """
    out, merged = [], False
    for t in terms:
        if t.evaluates(fn, blocks):
            t = PoolTerm(t.coef + coef, t.fn, t.blocks, t.pooled)
            merged = True
        if t.coef != 0:
            out.append(t)
    if not merged and coef != 0:
        out.append(PoolTerm(coef, fn, blocks, pooled=False))
    return tuple(out)


def split_term(terms: Sequence[PoolTerm], fn: LogDensity,
               blocks: tuple[int, ...]) -> tuple[float, tuple[PoolTerm, ...]]:
    """Coefficient of ``fn(phi[blocks])`` in a term list, and the other terms."""
    coef = sum(t.coef for t in terms if t.evaluates(fn, blocks))
    return coef, tuple(t for t in terms if not t.evaluates(fn, blocks))


@dataclass(frozen=True)
class PooledPrior:
    """A pooling method's name and its term list over a chain.

    ``terms`` is a list of weighted log-marginal terms whose sum is the
    unnormalized log pooled density; the factories below build it.
    """

    method: str
    chain: ChainModel
    terms: tuple[PoolTerm, ...]

    def log_density(self, phi: Sequence[np.ndarray]):
        """Unnormalized log pooled density; block values may be batched."""
        return sum_terms(self.terms, phi)


def _weights(lam, shape: tuple[int, ...], message: str) -> np.ndarray:
    """``lam`` as floats of ``shape``, each finite and >= 0 (NaN fails)."""
    w = np.asarray(lam, dtype=float)
    if w.shape != shape or not ((w >= 0) & np.isfinite(w)).all():
        raise PoolingConfigError(message)
    return w


def _one_block(chain: ChainModel, marginals, m: int, b: int) -> LogDensity:
    """One-block marginal p_m(phi_b); native for end submodels."""
    if chain.blocks_of(m) == (b,):
        return chain.submodels[m].eval_log_prior
    fn = (marginals or {}).get((m, b))
    if fn is None:
        raise PoolingConfigError(f"missing one-block marginal for submodel {m} over boundary {b}")
    return fn


def _prior_term(chain: ChainModel, coef: float, m: int) -> PoolTerm:
    """``coef * log p_m`` over all the blocks submodel m touches."""
    return PoolTerm(float(coef), chain.submodels[m].eval_log_prior, chain.blocks_of(m))


def _log_mixture(parts: tuple[tuple[float, LogDensity], ...]) -> LogDensity:
    """log sum_k w_k f_k(x) for one or two (log w_k, f_k) components."""

    def log_mix(x):
        values = [lw + np.asarray(fn(x)) for lw, fn in parts]
        return values[0] if len(values) == 1 else np.logaddexp(values[0], values[1])

    return log_mix


def log_pooling(chain: ChainModel, lam: Sequence[float]) -> PooledPrior:
    """Weighted geometric pool: ``sum_m lam[m] * log p_m``."""
    M = chain.n_submodels
    w = _weights(lam, (M,), f"logarithmic pooling needs {M} nonnegative weights")
    if not (w > 0).any():
        raise PoolingConfigError("all-zero pooling weights")
    terms = tuple(_prior_term(chain, c, m) for m, c in enumerate(w) if c != 0)
    return PooledPrior("logarithmic", chain, terms)


def poe_pooling(chain: ChainModel) -> PooledPrior:
    """Product of experts: logarithmic pooling with every weight 1."""
    return PooledPrior("poe", chain, log_pooling(chain, np.ones(chain.n_submodels)).terms)


def linear_pooling(
    chain: ChainModel,
    lam: Sequence[Sequence[float]],
    boundary_marginals: Optional[Mapping[tuple[int, int], LogDensity]] = None,
) -> PooledPrior:
    """One term per boundary b: the log of the mixture of p_b and p_{b+1} by ``lam[b]``."""
    M = chain.n_submodels
    w = _weights(lam, (M - 1, 2), f"linear pooling needs ({M - 1}, 2) nonnegative weights")
    if (w.sum(axis=1) == 0).any():
        raise PoolingConfigError("a boundary has all-zero linear weights")
    terms = []
    for b in range(M - 1):
        parts = tuple(
            (math.log(c), checked(_one_block(chain, boundary_marginals, m, b), m,
                                  f"one-block marginal over boundary {b}"))
            for c, m in zip(w[b], (b, b + 1))
            if c > 0
        )
        terms.append(PoolTerm(1.0, _log_mixture(parts), (b,)))
    return PooledPrior("linear", chain, tuple(terms))


def dictatorial_partial(
    chain: ChainModel,
    authoritative: int,
    side_weights: Optional[Sequence[float]] = None,
    boundary_marginals: Optional[Mapping[tuple[int, int], LogDensity]] = None,
) -> PooledPrior:
    """Submodel ``authoritative``'s prior on its blocks, times weighted marginals elsewhere."""
    M = chain.n_submodels
    w = np.ones(M) if side_weights is None else np.asarray(side_weights, dtype=float)
    if authoritative is None or not 0 <= authoritative < M:
        raise PoolingConfigError("partial dictatorial pooling needs a submodel index")
    w = _weights(w, (M,), f"partial dictatorial pooling needs {M} nonnegative side weights")
    terms = [_prior_term(chain, 1.0, authoritative)]
    covered = set(chain.blocks_of(authoritative))
    for m in range(M):
        free = [b for b in chain.blocks_of(m) if b not in covered]
        if not free or w[m] == 0:
            continue
        if free == list(chain.blocks_of(m)):
            terms.append(_prior_term(chain, w[m], m))
        else:
            # Adjacent to the authoritative submodel: only the outer
            # block is free, so its one-block marginal is pooled.
            fn = _one_block(chain, boundary_marginals, m, free[0])
            terms.append(PoolTerm(float(w[m]), fn, (free[0],)))
    return PooledPrior("dictatorial-partial", chain, tuple(terms))


def dictatorial_complete(
    chain: ChainModel,
    choices: Sequence[int],
    boundary_marginals: Optional[Mapping[tuple[int, int], LogDensity]] = None,
) -> PooledPrior:
    """Boundary b's marginal from submodel ``choices[b]``.

    A consecutive pair of boundaries owned by the same middle submodel
    uses its two-block marginal (the dependence preservation rule);
    every other boundary uses its owner's one-block marginal.
    """
    choices = tuple(int(c) for c in choices)
    n_b = chain.n_submodels - 1
    if len(choices) != n_b:
        raise PoolingConfigError(f"complete dictatorial pooling needs {n_b} per-boundary choices")
    for b, c in enumerate(choices):
        if c not in (b, b + 1):
            raise PoolingConfigError(
                f"boundary {b} must be assigned to submodel {b} or {b + 1}, got {c}"
            )
    terms, b = [], 0
    while b < n_b:
        m = choices[b]
        if m == b + 1 and b + 1 < n_b and choices[b + 1] == m:
            terms.append(_prior_term(chain, 1.0, m))
            b += 2
        else:
            terms.append(PoolTerm(1.0, _one_block(chain, boundary_marginals, m, b), (b,)))
            b += 1
    return PooledPrior("dictatorial-complete", chain, tuple(terms))


@dataclass(frozen=True)
class PoolFactorization:
    """Split of a pooled prior into one factor per submodel, for the multi-stage samplers.

    ``terms[m]`` is submodel m's factor as weighted log-marginal terms; it
    reads only the blocks submodel m touches, and the factors sum to the
    pooled log density.  The samplers evaluate ``terms``.  ``pool1`` and
    ``pool3`` evaluate the first and last factor on the end blocks, and
    ``pool2(*blocks)`` the middle factors together on every block.
    """

    terms: tuple[tuple[PoolTerm, ...], ...]
    pool1: LogDensity
    pool2: Callable[..., np.ndarray]
    pool3: LogDensity

    def log_density(self, phi: Sequence[np.ndarray]):
        return (
            np.asarray(self.pool1(phi[0]))
            + np.asarray(self.pool2(*phi))
            + np.asarray(self.pool3(phi[-1]))
        )


def factorize_for_sampler(pool: PooledPrior, mode: str) -> PoolFactorization:
    """Split a pooled prior into one factor per submodel of its chain.

    Each pool term goes to the first submodel m >= 1 whose blocks hold all
    of its blocks.  "flat-ends" stops there, so the end factors are empty
    unless M = 2.  "subprior-ends" gives each end submodel e its own prior
    marginal, 1 * log p_e, so stage one targets the plain subposterior, and
    subtracts log p_e from the factor the same rule picks for e's block.
    """
    if mode not in FACTORIZATIONS:
        raise UnsupportedConfigError(f"unknown factorization mode {mode!r}")
    chain = pool.chain
    M = chain.n_submodels

    def owner(blocks):
        return next(m for m in range(1, M) if set(blocks) <= set(chain.blocks_of(m)))

    terms = [()] * M
    for t in pool.terms:
        terms[owner(t.blocks)] += (t,)
    if mode == "subprior-ends":
        for e in (0, M - 1):
            fn, blocks = chain.submodels[e].eval_log_prior, chain.blocks_of(e)
            m = owner(blocks)
            if m != e:  # at M = 2 the last end's +1 and -1 cancel
                terms[e] += (PoolTerm(1.0, fn, blocks),)
                terms[m] = merge_term(terms[m], -1.0, fn, blocks)
    terms, middle, pad = tuple(terms), sum(terms[1:-1], ()), (None,) * (M - 2)
    return PoolFactorization(
        terms,
        pool1=lambda x: sum_terms(terms[0], (x,)),
        pool2=lambda *blocks: sum_terms(middle, blocks),
        pool3=lambda x: sum_terms(terms[-1], pad + (x,)),
    )


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid: (lo, hi, n) per continuous coordinate."""

    axes: tuple[tuple[float, float, int], ...]

    def centers(self) -> list[np.ndarray]:
        out = []
        for lo, hi, n in self.axes:
            step = (hi - lo) / n
            out.append(lo + step * (np.arange(n) + 0.5))
        return out

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for lo, hi, n in self.axes:
            vol *= (hi - lo) / n
        return vol

    @property
    def n_points(self) -> int:
        n = 1
        for _, _, k in self.axes:
            n *= k
        return n


@dataclass(frozen=True)
class GridTable:
    """Normalized density table over a rectangular grid of cell centers."""

    centers: tuple[np.ndarray, ...]
    density: np.ndarray
    cell_volume: float

    def total_mass(self) -> float:
        return float(self.density.sum() * self.cell_volume)

    def columns(self) -> list[np.ndarray]:
        """Coordinate columns, then the density column, over the cells in C order."""
        mesh = np.meshgrid(*self.centers, indexing="ij")
        return [m.ravel() for m in mesh] + [self.density.ravel()]

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean vector and covariance matrix of the grid distribution."""
        *coords, dens = self.columns()
        pts = np.stack(coords, axis=1)
        w = dens * self.cell_volume
        mean = w @ pts
        diff = pts - mean
        cov = (diff * w[:, None]).T @ diff
        return mean, cov

    def correlation(self, i: int = 0, j: int = 1) -> float:
        """Correlation of coordinates i and j; an axis whose mass lies in one cell is an error."""
        _, cov = self.moments()
        for axis in (i, j):
            if not cov[axis, axis] > 0:
                raise PoolingConfigError(
                    f"axis {axis} holds no spread: the grid puts all of the density's mass "
                    f"in one cell along it, so the correlation is undefined"
                )
        return float(cov[i, j] / (math.sqrt(cov[i, i]) * math.sqrt(cov[j, j])))


def grid_normalize(pool: PooledPrior, grid: GridSpec) -> GridTable:
    """Exactly normalized pooled density on a grid (continuous blocks only)."""
    chain = pool.chain
    dims = [b.dim for b in chain.phi_blocks]
    for block in chain.phi_blocks:
        if any(c.kind == "discrete" for c in block.coords):
            raise UnsupportedConfigError(
                f"grid normalization supports continuous blocks only; "
                f"block {block.label!r} has discrete coordinates"
            )
    if len(grid.axes) != sum(dims):
        raise PoolingConfigError(
            f"grid needs {sum(dims)} axes, got {len(grid.axes)}"
        )
    if grid.n_points > 10**7:
        raise PoolingConfigError(f"grid has {grid.n_points} points, limit is 1e7")
    vol = grid.cell_volume
    if not (0 < vol < math.inf and 1 / vol < math.inf):  # so every density is a finite float
        raise PoolingConfigError(f"grid cell volume {vol!r} is beyond the float range")
    centers = grid.centers()
    mesh = np.meshgrid(*centers, indexing="ij")
    stacked = np.stack(mesh, axis=-1)  # (..., total_dim)
    blocks = []
    offset = 0
    for d in dims:
        blocks.append(stacked[..., offset : offset + d])
        offset += d
    with np.errstate(over="ignore"):  # a log density beyond the float range is -inf
        logd = np.asarray(pool.log_density(blocks), dtype=float)
    if np.isnan(logd).any() or np.isposinf(logd).any():
        raise NumericalFailureError("pooled log density is non-finite on the grid")
    peak = logd.max()
    if not np.isfinite(peak):  # -inf: every cell lies too far out for a float log density
        raise PoolingConfigError("the pooled density has no mass on the grid")
    w = np.exp(logd - peak)
    total = w.sum() * vol
    if not np.isfinite(total) or total <= 0:
        raise NumericalFailureError("pooled density mass on the grid is not finite")
    return GridTable(tuple(centers), w / total, grid.cell_volume)
