"""Built-in example chains and the exact enumeration oracle.

Two families are provided: a fully Gaussian M = 3 chain whose pooled
priors and melded posteriors have closed forms, and small discrete chains
of any length M >= 2 with explicit probability tables, whose melded
posterior can be computed exactly by enumeration.  Both expose the
one-block marginals of the middle submodels that linear and dictatorial
pooling need.
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
from .errors import ConfigError, StructureError, UnsupportedConfigError
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


def _check_scale(name: str, sd: float) -> None:
    """A scale must be positive, and its square and inverse square floats (not 0 or inf)."""
    if sd <= 0:
        raise ConfigError(f"{name}: must be positive, got {sd}")
    try:
        sd**2, sd**-2
    except OverflowError:
        raise ConfigError(f"{name}: scale {sd} is beyond the float range when squared") from None


def _normal(mean: float, sd: float) -> tuple[float, float, float]:
    """log N(x; mean, sd^2)."""
    return mean, -0.5 / sd**2, -math.log(sd) - 0.5 * _LOG_2PI


def _data(name: str, y: Optional[np.ndarray], s: float) -> tuple[tuple[float, float, float], ...]:
    """Log likelihood of the observations ``name``, y ~ N(x, s^2), as a function of x."""
    if y is None:
        return ()
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite coefficient, rejected below
        ybar = float(y.mean())
        spread = float(((y - ybar) ** 2).sum())
    factor = (ybar, -0.5 * y.size / s**2, y.size * _normal(0.0, s)[2] - 0.5 * spread / s**2)
    if not all(map(math.isfinite, factor)):
        raise ConfigError(f"{name}: values too large for the builtin's arithmetic")
    return (factor,)


def _quadratic(*factors: tuple[float, float, float]):
    """Batched x -> sum of the factors' quadratics, as one quadratic.

    Coefficients beyond the float range raise OverflowError.
    """
    with np.errstate(all="ignore"):  # numpy scalar factors (mu2) overflow without raising
        k = sum(f[1] for f in factors)
        a = sum(f[1] * f[0] for f in factors) / k
        c = sum(f[2] + f[1] * f[0] ** 2 for f in factors) - k * a * a
    if not all(map(math.isfinite, (k, a, c))):
        raise OverflowError("quadratic coefficients beyond the float range")

    def log_factor(x):
        d = x - a
        return c + k * d * d

    return log_factor


def _of_scalar(q):
    """Batched evaluator ``x -> q(x[..., 0])`` of a scalar block.

    Further arguments are ignored, so it also serves as an end submodel's
    joint, whose psi is empty.
    """
    return lambda x, *_: q(np.asarray(x, dtype=float)[..., 0])


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
        _check_scale(name, value)
    sigma2, mu2 = np.asarray(sigma2, dtype=float), np.asarray(mu2, dtype=float)
    if sigma2.shape != (2,) or not (sigma2 > 0).all():
        raise ConfigError(f"sigma2: must be two positive scales, got {sigma2.tolist()}")
    sigma2 = tuple(sigma2.tolist())
    for value in sigma2:
        _check_scale("sigma2", value)
    if mu2.shape != (2,):
        raise ConfigError(f"mu2: must be two means, got {mu2.tolist()}")
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"rho: correlation must satisfy |rho| < 1, got {rho}")
    if tau is not None:
        _check_scale("tau", tau)
    if y2 is not None and tau is None:
        raise ConfigError("y2: middle-submodel data requires tau (the psi2 scale)")
    # No observations, as None or as an empty list, leave a submodel without data.
    y1, y2, y3 = (None if y is None or np.size(y) == 0 else np.asarray(y, dtype=float)
                  for y in (y1, y2, y3))

    cov2 = np.array(
        [
            [sigma2[0] ** 2, rho * sigma2[0] * sigma2[1]],
            [rho * sigma2[0] * sigma2[1], sigma2[1] ** 2],
        ]
    )
    prior2 = GaussianDensity(mu2, cov2)
    end1, end3 = _normal(mu1, sigma1), _normal(mu3, sigma3)
    prior1, post1 = _quadratic(end1), _quadratic(end1, *_data("y1", y1, s1))
    prior3, post3 = _quadratic(end3), _quadratic(end3, *_data("y3", y3, s3))
    psi_prior = None if tau is None else _quadratic(_normal(0.0, tau))
    data2 = None if y2 is None else _quadratic(*_data("y2", y2, s2))

    lm1, lj1, lm3, lj3 = map(_of_scalar, (prior1, post1, prior3, post3))
    lm2 = prior2.logpdf

    def lj2(phi_m, psi_m):
        phi = np.asarray(phi_m, dtype=float)
        out = lm2(phi)
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
    boundary = {(1, b): _of_scalar(_quadratic(_normal(mu2[b], sigma2[b]))) for b in (0, 1)}
    meta = {
        "prior1": GaussianDensity([mu1], [[sigma1**2]]),
        "prior2": prior2,
        "prior3": GaussianDensity([mu3], [[sigma3**2]]),
    }
    return BuiltChain(model=model, boundary_marginals=boundary, meta=meta)


# ---------------------------------------------------------------------------
# discrete chain
# ---------------------------------------------------------------------------


def _check_table(name: str, table, shape: tuple[int, ...], normalized: bool):
    """``table`` as a float array of ``shape``, or None for None."""
    if table is None:
        return None
    table = np.asarray(table, dtype=float)
    if table.shape != shape:
        raise ConfigError(f"{name}: shape {table.shape}, expected {shape}")
    if (table < 0).any():
        raise ConfigError(f"{name}: probability table has negative entries")
    if normalized and abs(table.sum() - 1.0) > 1e-9:
        raise ConfigError(
            f"{name}: table sums to {float(table.sum())!r}, expected 1 within 1e-9"
        )
    return table


def _table_lookup(table: np.ndarray, n_phi: Optional[int] = None):
    """Batched log lookup ``(phi, psi) -> log table[phi..., psi...]``.

    The first ``n_phi`` table axes (all of them by default) are indexed by
    phi's last-axis coordinates and the rest by psi's; a lookup over all axes
    needs no psi.  Coordinates must hold exact category values (as the
    samplers and the enumeration produce); each row maps to one flat index,
    so a batch is one gather.
    """
    with np.errstate(divide="ignore"):
        flat = np.log(table).ravel()
    strides = np.cumprod((table.shape + (1,))[:0:-1])[::-1].astype(float)
    w_phi, w_psi = np.split(strides, [table.ndim if n_phi is None else n_phi])

    def lookup(phi, psi=None):
        at = np.asarray(phi).dot(w_phi)
        if w_psi.size:
            at += np.asarray(psi).dot(w_psi)
        return flat[at.astype(np.intp)]

    return lookup


def _factorization_gap(table: np.ndarray, units: Sequence[Sequence[int]]) -> float:
    """Largest gap between a table and the product of its marginals over ``units``
    (groups of table axes), both scaled to total mass 1; 0 when the table is a
    product of per-unit factors."""
    total = table.sum()
    if total == 0:
        return 0.0
    product = np.ones(table.shape)
    for axes in units:
        others = tuple(a for a in range(table.ndim) if a not in axes)
        product = product * (table.sum(axis=others, keepdims=True) / total)
    return float(np.abs(table / total - product).max())


def builtin_discrete_chain(
    *priors: np.ndarray,
    phi_cards: Sequence[Sequence[int]],
    psi_cards: Optional[Sequence[Sequence[int]]] = None,
    likelihoods: Optional[Sequence[Optional[np.ndarray]]] = None,
    units: Optional[Sequence[Optional[UnitFactorization]]] = None,
    normalized: bool = True,
) -> BuiltChain:
    """Chain of M = len(priors) submodels over finite supports, from probability tables.

    Block b is shared by submodels b and b + 1, is labelled
    ``phi{b+1}{b+2}`` and has the cardinalities ``phi_cards[b]``.
    ``priors[m]`` has one axis per coordinate of the blocks submodel m
    touches, then one per coordinate of psi_m (cardinalities
    ``psi_cards[m]``, default none).  Optional ``likelihoods`` are
    positive factors of the same shapes with the data folded in.  Prior
    marginals and the middle submodels' one-block marginals are computed by
    exact summation.  A declared unit factorization must split its
    submodel's joint and prior-marginal tables into per-unit factors, to
    1e-12 on tables scaled to mass 1.
    """
    M = len(priors)
    if M < 2:
        raise ConfigError(f"priors: a chain needs at least 2 submodel tables, got {M}")
    psi_cards = psi_cards or ((),) * M
    likelihoods = likelihoods or (None,) * M
    units = units or (None,) * M
    for key, value, n in (("phi_cards", phi_cards, M - 1), ("psi_cards", psi_cards, M),
                          ("likelihoods", likelihoods, M), ("units", units, M)):
        if len(value) != n:
            raise ConfigError(f"{key}: need {n} entries for {M} submodels, got {len(value)}")
    phi_cards = tuple(tuple(int(c) for c in p) for p in phi_cards)
    psi_cards = tuple(tuple(int(c) for c in p) for p in psi_cards)
    for key, cards in (("phi_cards", phi_cards), ("psi_cards", psi_cards)):
        low = [c for p in cards for c in p if c < 2]
        if low:
            raise ConfigError(f"{key}: discrete coordinates need cardinality >= 2, got {low[0]}")
    if not all(phi_cards):
        raise ConfigError("phi_cards: every shared block needs at least one coordinate")
    labels = [f"phi{b + 1}{b + 2}" for b in range(M - 1)]
    phi_shapes = [sum((phi_cards[b] for b in (m - 1, m) if 0 <= b < M - 1), ())
                  for m in range(M)]
    shapes = [phi + psi for phi, psi in zip(phi_shapes, psi_cards)]
    priors = [_check_table(f"prior{m + 1}", t, shapes[m], normalized) for m, t in enumerate(priors)]
    liks = [_check_table(f"likelihoods[{m}]", t, shapes[m], False)
            for m, t in enumerate(likelihoods)]

    specs = []
    marginal_tables = []
    for m, (prior, lik, uf) in enumerate(zip(priors, liks, units)):
        joint = prior if lik is None else prior * lik
        n_phi = len(phi_shapes[m])
        marg = prior.sum(axis=tuple(range(n_phi, prior.ndim))) if psi_cards[m] else prior
        if uf is not None:
            try:
                uf.check_partition(m, n_phi, len(psi_cards[m]))
            except StructureError as exc:
                raise ConfigError(f"units: {exc}") from None
            joint_units = [(*phi, *(n_phi + i for i in psi))
                           for phi, psi in zip(uf.phi_indices, uf.psi_indices)]
            gap = max(_factorization_gap(joint, joint_units),
                      _factorization_gap(marg, uf.phi_indices))
            if gap > 1e-12:
                raise ConfigError(f"units: submodel {m}'s tables are not products of "
                                  f"per-unit factors (largest gap {gap:.3g} > 1e-12)")
        specs.append(
            SubmodelSpec(
                m,
                labels[m - 1] if m > 0 else None,
                labels[m] if m < M - 1 else None,
                _table_lookup(joint, n_phi),
                _table_lookup(marg),
                psi_coords=discrete_coords(psi_cards[m]),
                unit_factorization=uf,
            )
        )
        marginal_tables.append(marg)

    # One-block marginals of each middle submodel over its two boundaries.
    boundary = {}
    for m in range(1, M - 1):
        marg, n_left = marginal_tables[m], len(phi_cards[m - 1])
        left = marg.sum(axis=tuple(range(n_left, marg.ndim)))
        right = marg.sum(axis=tuple(range(n_left)))
        boundary[(m, m - 1)] = _table_lookup(left)
        boundary[(m, m)] = _table_lookup(right)
    model = ChainModel(
        submodels=tuple(specs),
        phi_blocks=tuple(
            PhiBlock(label, discrete_coords(cards)) for label, cards in zip(labels, phi_cards)
        ),
    )
    all_cards = sum(phi_cards, ()) + sum(psi_cards, ())
    supports = tuple(tuple(float(v) for v in range(c)) for c in all_cards)
    meta = {
        "phi_cards": phi_cards,
        "psi_cards": psi_cards,
        "prior_tables": tuple(priors),
        "likelihood_tables": tuple(liks),
    }
    return BuiltChain(model=model, boundary_marginals=boundary, supports=supports, meta=meta)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteTable:
    """Exact discrete distribution over enumerated states.

    ``states`` holds one row per state, its columns in the chain's state
    order (``ChainModel.state_groups``: the blocks by label, then psi1 ..
    psiM); ``column_groups`` maps each group name to its column range.
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


def _enumerate(built: BuiltChain, n_groups: int, log_density) -> DiscreteTable:
    """Normalized exp(log_density) over every state of the first ``n_groups`` state groups.

    ``log_density`` maps the groups' values, each ``(n_states, width)``, to
    the states' log weights in one batched call.
    """
    if built.supports is None:
        raise UnsupportedConfigError("enumeration requires a discrete chain")
    groups = built.model.state_groups()[:n_groups]
    edges = np.cumsum([0] + [width for _, width in groups]).tolist()
    supports = built.supports[: edges[-1]]
    n_states = math.prod(len(sup) for sup in supports)
    if n_states > 10**6:
        raise UnsupportedConfigError(f"state space has {n_states} states, limit is 1e6")
    states = np.array(list(itertools.product(*supports)), dtype=float)
    states = states.reshape(n_states, edges[-1])
    logw = log_density([states[:, lo:hi] for lo, hi in zip(edges, edges[1:])])
    peak = logw.max()
    if peak == -math.inf:
        raise UnsupportedConfigError("density is zero on every enumerated state")
    w = np.exp(logw - peak)
    column_groups = {name: (lo, hi) for (name, _), lo, hi in zip(groups, edges, edges[1:])}
    return DiscreteTable(states, w / w.sum(), column_groups)


def enumerate_melded_posterior(built: BuiltChain, pool) -> DiscreteTable:
    """Exact melded posterior over all discrete states by direct summation."""
    model = built.model
    B = len(model.phi_blocks)
    return _enumerate(built, B + model.n_submodels,
                      lambda parts: log_melded_density(model, pool, parts[:B], parts[B:]))


def enumerate_pooled_prior(built: BuiltChain, pool) -> DiscreteTable:
    """Exact normalized pooled prior over the discrete shared-block states."""
    return _enumerate(built, len(built.model.phi_blocks), pool.log_density)


def tv_distance(p: DiscreteTable, q: DiscreteTable) -> float:
    """Total variation distance between tables over the same state order."""
    if p.states.shape != q.states.shape or not np.array_equal(p.states, q.states):
        raise UnsupportedConfigError("tables enumerate different state spaces")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def empirical_table(draws: np.ndarray, reference: DiscreteTable) -> DiscreteTable:
    """Empirical distribution of sampler draws on the reference state space.

    ``draws`` has one row per retained iteration, columns in the reference
    column order.  The reference states must be a full product space of
    categories 0..c-1 in C order, as the enumeration produces; a draw
    outside it raises ``UnsupportedConfigError``.
    """
    states = reference.states
    draws = np.round(np.asarray(draws, dtype=float).reshape(-1, states.shape[1]))
    dims = tuple(states.max(axis=0).astype(np.intp) + 1)
    if not np.array_equal(np.indices(dims).reshape(len(dims), -1).T, states):
        raise UnsupportedConfigError("reference states are not a full product space in C order")
    off = ~((draws >= 0) & (draws < dims)).all(axis=1)
    if off.any():
        raise UnsupportedConfigError(
            f"draw {draws[off][0].tolist()} is not a state of the reference table"
        )
    flat = np.ravel_multi_index(tuple(draws.T.astype(np.intp)), dims)
    probs = np.bincount(flat, minlength=states.shape[0]).astype(float)
    return DiscreteTable(states, probs / probs.sum(), reference.column_groups)
