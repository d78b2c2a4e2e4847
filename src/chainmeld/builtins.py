"""Built-in example chains and the exact enumeration oracle.

Two families are provided: a fully Gaussian M = 3 chain whose pooled
priors and melded posteriors have closed forms, and a small discrete chain
with explicit probability tables whose melded posterior can be computed
exactly by enumeration.  Both expose the one-block marginals of the middle
submodel that linear and dictatorial pooling need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import (
    ChainModel,
    Coord,
    PhiBlock,
    SubmodelSpec,
    UnitFactorization,
    discrete_coords,
    log_melded_density,
    real_coords,
)
from .errors import ConfigError, UnsupportedConfigError
from .gaussian import GaussianDensity

__all__ = [
    "BuiltChain",
    "DiscreteTable",
    "builtin_gaussian_chain",
    "builtin_discrete_chain",
    "enumerate_melded_posterior",
    "enumerate_pooled_prior",
    "tv_distance",
    "empirical_table",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BuiltChain:
    """A ready-to-use chain plus the extras the pooling rules may need.

    ``boundary_marginals`` maps (submodel, boundary) to the submodel's
    one-block prior marginal over that boundary; ``supports`` lists every
    coordinate's value set for discrete chains (None for continuous ones).
    """

    model: ChainModel
    boundary_marginals: dict = field(default_factory=dict)
    supports: Optional[tuple[tuple[float, ...], ...]] = None
    meta: dict = field(default_factory=dict)


# A Gaussian log factor in one scalar x is a quadratic c + k (x - a)^2, held
# as (a, k, c); products of factors are sums of quadratics.


def _normal(mean: float, sd: float) -> tuple[float, float, float]:
    """log N(x; mean, sd^2)."""
    return mean, -0.5 / sd**2, -math.log(sd) - 0.5 * _LOG_2PI


def _data(y: Optional[np.ndarray], s: float) -> tuple[tuple[float, float, float], ...]:
    """Log likelihood of observations y ~ N(x, s^2) as a function of x."""
    if y is None:
        return ()
    ybar = float(y.mean())
    spread = float(((y - ybar) ** 2).sum())
    return ((ybar, -0.5 * y.size / s**2, y.size * _normal(0.0, s)[2] - 0.5 * spread / s**2),)


def _quadratic(*factors: tuple[float, float, float]):
    """Batched x -> sum of the factors' quadratics, as one quadratic."""
    k = sum(f[1] for f in factors)
    a = sum(f[1] * f[0] for f in factors) / k
    c = sum(f[2] + f[1] * f[0] ** 2 for f in factors) - k * a * a

    def log_factor(x):
        d = x - a
        return c + k * d * d

    return log_factor


def builtin_gaussian_chain(
    mu1: float = -2.5,
    sigma1: float = 1.0,
    mu3: float = 2.5,
    sigma3: float = 1.0,
    mu2: Sequence[float] = (0.0, 0.0),
    sigma2: Sequence[float] = (1.0, 1.0),
    rho: float = 0.8,
    y1: Optional[Sequence[float]] = None,
    s1: float = 1.0,
    y3: Optional[Sequence[float]] = None,
    s3: float = 1.0,
    y2: Optional[Sequence[float]] = None,
    s2: float = 1.0,
    tau: Optional[float] = None,
) -> BuiltChain:
    """All-Gaussian M = 3 chain with scalar shared blocks.

    Submodels 1 and 3 put N(mu1, sigma1^2) and N(mu3, sigma3^2) priors on
    their shared quantity, with optional N(phi, s^2) observations.  The
    middle submodel's prior over both shared quantities is bivariate
    Gaussian with correlation ``rho``; when ``tau`` is given it carries a
    nuisance parameter psi2 ~ N(0, tau^2), and optional observations
    y2 ~ N(phi12 + phi23 + psi2, s2^2).  All prior marginals are exact.
    """
    for name, value in (("sigma1", sigma1), ("sigma3", sigma3), ("s1", s1),
                        ("s3", s3), ("s2", s2)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    sigma2 = tuple(float(s) for s in sigma2)
    if len(sigma2) != 2 or min(sigma2) <= 0:
        raise ConfigError(f"sigma2 must be two positive scales, got {sigma2}")
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"correlation must satisfy |rho| < 1, got {rho}")
    if tau is not None and tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if y2 is not None and tau is None:
        raise ConfigError("middle-submodel data y2 requires tau (psi2 scale)")
    mu2 = np.asarray(mu2, dtype=float)
    y1 = None if y1 is None else np.asarray(y1, dtype=float)
    y3 = None if y3 is None else np.asarray(y3, dtype=float)
    y2 = None if y2 is None else np.asarray(y2, dtype=float)

    cov2 = np.array(
        [
            [sigma2[0] ** 2, rho * sigma2[0] * sigma2[1]],
            [rho * sigma2[0] * sigma2[1], sigma2[1] ** 2],
        ]
    )
    prior2 = GaussianDensity(mu2, cov2)
    end1, end3 = _normal(mu1, sigma1), _normal(mu3, sigma3)
    prior1, post1 = _quadratic(end1), _quadratic(end1, *_data(y1, s1))
    prior3, post3 = _quadratic(end3), _quadratic(end3, *_data(y3, s3))
    psi_prior = None if tau is None else _quadratic(_normal(0.0, tau))
    data2 = None if y2 is None else _quadratic(*_data(y2, s2))

    def lm1(x):
        return prior1(np.asarray(x, dtype=float)[..., 0])

    def lj1(phi_m, psi_m):
        return post1(np.asarray(phi_m, dtype=float)[..., 0])

    def lm3(x):
        return prior3(np.asarray(x, dtype=float)[..., 0])

    def lj3(phi_m, psi_m):
        return post3(np.asarray(phi_m, dtype=float)[..., 0])

    def lm2(x):
        return prior2.logpdf(np.asarray(x, dtype=float))

    def lj2(phi_m, psi_m):
        phi = np.asarray(phi_m, dtype=float)
        out = prior2.logpdf(phi)
        if psi_prior is not None:
            psi = np.asarray(psi_m, dtype=float)[..., 0]
            out = out + psi_prior(psi)
            if data2 is not None:
                out = out + data2(phi[..., 0] + phi[..., 1] + psi)
        return out

    model = ChainModel(
        submodels=(
            SubmodelSpec(0, None, "phi12", lj1, lm1),
            SubmodelSpec(
                1, "phi12", "phi23", lj2, lm2,
                psi_coords=real_coords(0 if tau is None else 1),
            ),
            SubmodelSpec(2, "phi23", None, lj3, lm3),
        ),
        phi_blocks=(
            PhiBlock("phi12", real_coords(1)),
            PhiBlock("phi23", real_coords(1)),
        ),
    )
    one_block = [_quadratic(_normal(mu2[b], sigma2[b])) for b in (0, 1)]
    boundary = {
        (1, b): lambda x, _f=one_block[b]: _f(np.asarray(x, dtype=float)[..., 0])
        for b in (0, 1)
    }
    meta = {
        "prior1": GaussianDensity([mu1], [[sigma1**2]]),
        "prior2": prior2,
        "prior3": GaussianDensity([mu3], [[sigma3**2]]),
        "tau": tau,
        "data": {"y1": y1, "s1": s1, "y2": y2, "s2": s2, "y3": y3, "s3": s3},
    }
    return BuiltChain(model=model, boundary_marginals=boundary, meta=meta)


# ---------------------------------------------------------------------------
# discrete chain
# ---------------------------------------------------------------------------


def _check_table(name: str, table: np.ndarray, normalized: bool) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if (table < 0).any():
        raise ConfigError(f"{name}: probability table has negative entries")
    if normalized and abs(table.sum() - 1.0) > 1e-9:
        raise ConfigError(
            f"{name}: table sums to {table.sum()!r}, expected 1 within 1e-9"
        )
    return table


def _flat_weights(shape: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Row-major strides, in elements, of table axes ``start:stop``."""
    strides = np.cumprod((shape + (1,))[:0:-1])[::-1]
    return strides[start:stop].astype(float)


def _table_lookup(table: np.ndarray, log_table: np.ndarray):
    """Batched log lookup: last-axis coordinates index the table axes.

    Coordinates must hold exact category values (as the samplers and the
    enumeration produce); each row maps to one flat index, so a batch is one
    gather.
    """
    flat = log_table.ravel()
    weights = _flat_weights(log_table.shape, 0, log_table.ndim)

    def lookup(x):
        return flat[np.asarray(x).dot(weights).astype(np.intp)]

    return lookup


def _with_log(table: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(table)


def builtin_discrete_chain(
    prior1: np.ndarray,
    prior2: np.ndarray,
    prior3: np.ndarray,
    phi_cards: Sequence[Sequence[int]],
    psi_cards: Sequence[Sequence[int]] = ((), (), ()),
    likelihoods: Sequence[Optional[np.ndarray]] = (None, None, None),
    units: Sequence[Optional[UnitFactorization]] = (None, None, None),
    normalized: bool = True,
) -> BuiltChain:
    """M = 3 chain over finite supports with explicit probability tables.

    ``prior1`` has one axis per (phi12, psi1) coordinate, ``prior2`` per
    (phi12, phi23, psi2) coordinate, ``prior3`` per (phi23, psi3)
    coordinate, with axis lengths from ``phi_cards`` / ``psi_cards``.
    Optional ``likelihoods`` are positive factors of the same shapes with
    the data folded in.  Prior marginals and the middle submodel's
    one-block marginals are computed by exact summation.
    """
    if len(phi_cards) != 2:
        raise ConfigError(f"need cardinalities for 2 shared blocks, got {len(phi_cards)}")
    if len(psi_cards) != 3:
        raise ConfigError(f"need psi cardinalities for 3 submodels, got {len(psi_cards)}")
    cards12 = tuple(int(c) for c in phi_cards[0])
    cards23 = tuple(int(c) for c in phi_cards[1])
    psi_cards = tuple(tuple(int(c) for c in p) for p in psi_cards)
    shapes = (
        cards12 + psi_cards[0],
        cards12 + cards23 + psi_cards[1],
        cards23 + psi_cards[2],
    )
    priors = []
    for m, (raw, shape) in enumerate(zip((prior1, prior2, prior3), shapes)):
        table = _check_table(f"submodel {m} prior", raw, normalized)
        if table.shape != shape:
            raise ConfigError(
                f"submodel {m} prior has shape {table.shape}, expected {shape}"
            )
        priors.append(table)
    liks = []
    for m, raw in enumerate(likelihoods):
        if raw is None:
            liks.append(None)
            continue
        table = _check_table(f"submodel {m} likelihood", raw, normalized=False)
        if table.shape != shapes[m]:
            raise ConfigError(
                f"submodel {m} likelihood has shape {table.shape}, expected {shapes[m]}"
            )
        liks.append(table)

    n_phi_axes = (len(cards12), len(cards12) + len(cards23), len(cards23))
    specs = []
    marginal_tables = []
    for m in range(3):
        joint = priors[m] if liks[m] is None else priors[m] * liks[m]
        log_joint_table = _with_log(joint)
        psi_axes = tuple(range(n_phi_axes[m], joint.ndim))
        marg = priors[m].sum(axis=psi_axes) if psi_axes else priors[m]
        marginal_tables.append(marg)
        lm = _table_lookup(marg, _with_log(marg))
        n_phi = n_phi_axes[m]

        def lj(phi_m, psi_m, _t=log_joint_table.ravel(),
               _wphi=_flat_weights(joint.shape, 0, n_phi),
               _wpsi=_flat_weights(joint.shape, n_phi, joint.ndim)):
            flat = np.asarray(phi_m).dot(_wphi)
            if _wpsi.size:
                flat += np.asarray(psi_m).dot(_wpsi)
            return _t[flat.astype(np.intp)]

        left = "phi12" if m > 0 else None
        right = None if m > 1 else ("phi12" if m == 0 else "phi23")
        if m == 2:
            left = "phi23"
        specs.append(
            SubmodelSpec(
                m, left, right, lj, lm,
                psi_coords=discrete_coords(psi_cards[m]),
                unit_factorization=units[m],
            )
        )

    # One-block marginals of the middle submodel over each boundary.
    marg2 = marginal_tables[1]
    m2_12 = marg2.sum(axis=tuple(range(len(cards12), marg2.ndim)))
    m2_23 = marg2.sum(axis=tuple(range(len(cards12))))
    boundary = {
        (1, 0): _table_lookup(m2_12, _with_log(m2_12)),
        (1, 1): _table_lookup(m2_23, _with_log(m2_23)),
    }
    model = ChainModel(
        submodels=tuple(specs),
        phi_blocks=(
            PhiBlock("phi12", discrete_coords(cards12)),
            PhiBlock("phi23", discrete_coords(cards23)),
        ),
    )
    all_cards = cards12 + cards23 + psi_cards[0] + psi_cards[1] + psi_cards[2]
    supports = tuple(tuple(float(v) for v in range(c)) for c in all_cards)
    meta = {
        "phi_cards": (cards12, cards23),
        "psi_cards": psi_cards,
        "prior_tables": tuple(priors),
        "likelihood_tables": tuple(liks),
        "marginal_tables": tuple(marginal_tables),
    }
    return BuiltChain(model=model, boundary_marginals=boundary, supports=supports, meta=meta)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteTable:
    """Exact discrete distribution over enumerated states.

    ``states`` holds one row per state in the fixed column order
    (phi12, phi23, psi1, psi2, psi3); ``column_groups`` gives the column
    index ranges of those five groups.
    """

    states: np.ndarray
    probs: np.ndarray
    column_groups: dict[str, tuple[int, int]]

    def marginal(self, columns: Sequence[int]) -> "DiscreteTable":
        cols = list(columns)
        sub = self.states[:, cols]
        uniq, inverse = np.unique(sub, axis=0, return_inverse=True)
        probs = np.zeros(uniq.shape[0])
        np.add.at(probs, inverse, self.probs)
        return DiscreteTable(uniq, probs, {"all": (0, len(cols))})

    def group_columns(self, *names: str) -> list[int]:
        cols: list[int] = []
        for name in names:
            lo, hi = self.column_groups[name]
            cols.extend(range(lo, hi))
        return cols


def _state_layout(built: BuiltChain):
    cards12, cards23 = built.meta["phi_cards"]
    psi_cards = built.meta["psi_cards"]
    sizes = {
        "phi12": len(cards12),
        "phi23": len(cards23),
        "psi1": len(psi_cards[0]),
        "psi2": len(psi_cards[1]),
        "psi3": len(psi_cards[2]),
    }
    groups = {}
    offset = 0
    for name in ("phi12", "phi23", "psi1", "psi2", "psi3"):
        groups[name] = (offset, offset + sizes[name])
        offset += sizes[name]
    return groups, offset


def _log_weights(built: BuiltChain, log_state_density) -> DiscreteTable:
    if built.supports is None:
        raise UnsupportedConfigError("enumeration requires a discrete chain")
    n_states = 1
    for sup in built.supports:
        n_states *= len(sup)
    if n_states > 10**6:
        raise UnsupportedConfigError(f"state space has {n_states} states, limit is 1e6")
    groups, total_dim = _state_layout(built)
    states = np.array(list(itertools.product(*built.supports)), dtype=float)
    states = states.reshape(n_states, total_dim)
    logw = np.array([log_state_density(states[k]) for k in range(n_states)])
    peak = logw.max()
    if peak == -math.inf:
        raise UnsupportedConfigError("density is zero on every enumerated state")
    w = np.exp(logw - peak)
    return DiscreteTable(states, w / w.sum(), groups)


def enumerate_melded_posterior(built: BuiltChain, pool) -> DiscreteTable:
    """Exact melded posterior over all discrete states by direct summation."""
    if built.supports is None:
        raise UnsupportedConfigError("enumeration requires a discrete chain")
    groups, _ = _state_layout(built)

    def log_state(row):
        phi = [
            row[slice(*groups["phi12"])],
            row[slice(*groups["phi23"])],
        ]
        psi = [
            row[slice(*groups["psi1"])],
            row[slice(*groups["psi2"])],
            row[slice(*groups["psi3"])],
        ]
        return log_melded_density(built.model, pool, phi, psi)

    return _log_weights(built, log_state)


def enumerate_pooled_prior(built: BuiltChain, pool) -> DiscreteTable:
    """Exact normalized pooled prior over the discrete shared-block states."""
    if built.supports is None:
        raise UnsupportedConfigError("enumeration requires a discrete chain")
    groups, _ = _state_layout(built)
    d12 = groups["phi12"][1] - groups["phi12"][0]
    d23 = groups["phi23"][1] - groups["phi23"][0]
    supports = built.supports[: d12 + d23]
    n_states = 1
    for sup in supports:
        n_states *= len(sup)
    states = np.array(list(itertools.product(*supports)), dtype=float)
    states = states.reshape(n_states, d12 + d23)
    logw = np.array(
        [float(pool.log_density([row[:d12], row[d12:]])) for row in states]
    )
    w = np.exp(logw - logw.max())
    return DiscreteTable(
        states, w / w.sum(), {"phi12": (0, d12), "phi23": (d12, d12 + d23)}
    )


def tv_distance(p: DiscreteTable, q: DiscreteTable) -> float:
    """Total variation distance between tables over the same state order."""
    if p.states.shape != q.states.shape or not np.array_equal(p.states, q.states):
        raise UnsupportedConfigError("tables enumerate different state spaces")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def empirical_table(draws: np.ndarray, reference: DiscreteTable) -> DiscreteTable:
    """Empirical distribution of sampler draws on the reference state space.

    ``draws`` has one row per retained iteration, columns in the reference
    column order.
    """
    draws = np.asarray(draws, dtype=float).reshape(-1, reference.states.shape[1])
    keys = {tuple(row): k for k, row in enumerate(reference.states)}
    probs = np.zeros(reference.probs.shape[0])
    for row in np.round(draws):
        probs[keys[tuple(row)]] += 1.0
    return DiscreteTable(reference.states, probs / probs.sum(), reference.column_groups)
