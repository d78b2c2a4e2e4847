"""Chain of submodels with overlapping shared-quantity blocks.

A chain of M submodels shares M-1 blocks of quantities: submodel m and
submodel m+1 both place a prior on block m.  The melded model replaces the
individual prior marginals over the shared blocks with a single pooled
prior, and multiplies in each submodel's conditional given its shared
quantities.

Conventions used throughout the package:

- ``phi`` is a list of ``M - 1`` 1-D float arrays, one per shared block.
- ``psi`` is a list of ``M`` 1-D float arrays, one per submodel (may be
  empty arrays).
- A submodel's position m in the chain is all that wires it: its own
  shared quantities ``phi_m`` are the values of blocks m-1 and m (those
  that exist), concatenated in chain order.
- Log-density evaluators return ``-inf`` exactly off-support and never
  NaN.  Every evaluator a chain supplies is batched and returns its input's
  batch shape, constants included: ``log_prior_marginal`` and a one-block
  marginal map ``(..., d_phi)`` to ``(...)`` and ``log_joint`` maps
  ``(..., d_phi)`` and ``(..., d_psi)`` to ``(...)``, a 1-D input giving a
  scalar.  Batching is what makes grid evaluation of pooled priors cheap
  and lets the samplers advance all their chains (``chains``, a positive
  integer, is the batch size) in one call per move.
  ``SubmodelSpec.eval_log_joint`` and ``SubmodelSpec.eval_log_prior`` are
  the one checked path to a submodel's densities, for initial states and
  every move alike: each counts its calls and passes its result through
  ``check_result``, which rejects a result of another shape or a NaN.
  ``checked`` applies the same check to any other evaluator: every pool
  term, wherever a pooled density is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ModelInconsistencyError, StructureError, UnsupportedConfigError

__all__ = [
    "Coord",
    "PhiBlock",
    "SubmodelSpec",
    "UnitFactorization",
    "ChainModel",
    "CallCounter",
    "real_coords",
    "positive_coords",
    "discrete_coords",
    "log_melded_density",
    "markov_combination_density",
    "submodel_log_ratio",
    "unit_additivity_gap",
]

LogDensity = Callable[[np.ndarray], float]


def block_values(phi: Sequence[np.ndarray], blocks: Sequence[int]) -> np.ndarray:
    """Concatenated values of ``phi[b]`` for b in ``blocks``; batched ``(..., dim_b)`` allowed."""
    parts = [np.asarray(phi[b], dtype=float) for b in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


@dataclass(frozen=True)
class Coord:
    """Support descriptor for a single coordinate."""

    kind: str  # "real" | "positive" | "discrete"
    cardinality: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("real", "positive", "discrete"):
            raise StructureError(f"unknown coordinate kind {self.kind!r}")
        if self.kind == "discrete":
            if self.cardinality is None or self.cardinality < 2:
                raise StructureError("discrete coordinates need cardinality >= 2")
        elif self.cardinality is not None:
            raise StructureError("cardinality only applies to discrete coordinates")


def real_coords(dim: int) -> tuple[Coord, ...]:
    return tuple(Coord("real") for _ in range(dim))


def positive_coords(dim: int) -> tuple[Coord, ...]:
    return tuple(Coord("positive") for _ in range(dim))


def discrete_coords(cardinalities: Sequence[int]) -> tuple[Coord, ...]:
    return tuple(Coord("discrete", int(c)) for c in cardinalities)


@dataclass(frozen=True)
class PhiBlock:
    """One shared-quantity block, common to two adjacent submodels."""

    label: str
    coords: tuple[Coord, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise StructureError(f"block {self.label!r} must have dim >= 1")

    @property
    def dim(self) -> int:
        return len(self.coords)


class CallCounter:
    """Mutable call counter attached to immutable specs."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __repr__(self):
        return f"CallCounter({self.count})"


@dataclass(frozen=True)
class UnitFactorization:
    """Partition of a submodel's (phi_m, psi_m) into independent units.

    ``phi_indices[u]`` / ``psi_indices[u]`` give the coordinate positions
    within the submodel's shared-block vector / psi vector that belong to
    unit ``u``.  Together they must partition all coordinates, and the
    submodel's log densities must be sums of per-unit terms.
    """

    phi_indices: tuple[tuple[int, ...], ...]
    psi_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.phi_indices) != len(self.psi_indices):
            raise StructureError("phi_indices and psi_indices must align per unit")
        if len(self.phi_indices) < 1:
            raise StructureError("unit factorization needs >= 1 unit")

    @property
    def n_units(self) -> int:
        return len(self.phi_indices)

    def check_partition(self, m: int, phi_dim: int, psi_dim: int) -> None:
        """Raise unless the units split submodel m's phi and psi coordinates exactly,
        by integer index."""
        for kind, units, n in (("phi", self.phi_indices, phi_dim),
                               ("psi", self.psi_indices, psi_dim)):
            flat = [i for unit in units for i in unit]
            odd = [i for i in flat if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
            if odd:
                raise StructureError(
                    f"submodel {m}: unit {kind} indices must be integers, got {odd!r}")
            if sorted(flat) != list(range(n)):
                raise StructureError(
                    f"submodel {m}: unit {kind} indices {[list(u) for u in units]} do not "
                    f"partition its {kind} coordinates ({f'0..{n - 1}' if n else 'it has none'})")


def check_result(value, batch: tuple, source, name: str):
    """``value``, what evaluator ``name`` of ``source`` (a submodel, or a string
    such as ``"pool"``; formatted only into an error) returned for inputs of
    batch shape ``batch``, checked: floats of that shape, or a float when
    ``batch`` is ().  A list is read as floats; another shape raises
    ``StructureError`` and a NaN ``ModelInconsistencyError``."""
    try:
        shape = value.shape
    except AttributeError:  # a list, or a Python float
        if not isinstance(value, float):
            value = np.asarray(value, dtype=float)
        shape = np.shape(value)
    if shape != batch:
        raise StructureError(f"{source}: {name} returned shape {shape} "
                             f"for batch shape {batch}; {name} must be batched")
    if batch:
        # The sum of squares is NaN exactly when some value is: (+-inf)^2 is +inf.
        flat = value if len(batch) == 1 else value.ravel()
        probe = flat.dot(flat)
    else:
        probe = value = float(value)
    if math.isnan(probe):
        raise ModelInconsistencyError(f"{source}: {name} returned NaN")
    return value


@dataclass(frozen=True)
class SubmodelSpec:
    """One submodel with its data already bound into the evaluators.

    ``log_joint(phi_m, psi_m)`` evaluates log p_m(phi_m, psi_m, Y_m) and
    ``log_prior_marginal(phi_m)`` evaluates the prior marginal over the
    submodel's shared quantities.  Both are unnormalized for MCMC use and
    batched over leading dimensions (see the module docstring).  ``index``
    is the submodel's position in its chain, which names it in errors.
    """

    index: int
    log_joint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    log_prior_marginal: LogDensity
    psi_coords: tuple[Coord, ...] = ()
    unit_factorization: Optional[UnitFactorization] = None
    joint_calls: CallCounter = field(default_factory=CallCounter, compare=False)
    marginal_calls: CallCounter = field(default_factory=CallCounter, compare=False)

    def __str__(self) -> str:
        return f"submodel {self.index}"

    @property
    def psi_dim(self) -> int:
        return len(self.psi_coords)

    def eval_log_joint(self, phi_m: np.ndarray, psi_m: np.ndarray):
        """Log joint with the batch shape of its inputs; a float for 1-D inputs."""
        self.joint_calls.count += 1
        value = self.log_joint(phi_m, psi_m)
        try:
            batch, psi_batch = phi_m.shape[:-1], psi_m.shape[:-1]
        except AttributeError:  # lists
            batch, psi_batch = np.shape(phi_m)[:-1], np.shape(psi_m)[:-1]
        if psi_batch != batch:
            batch = np.broadcast_shapes(batch, psi_batch)
        return check_result(value, batch, self, "log_joint")

    def eval_log_prior(self, phi_m: np.ndarray):
        """Prior marginal with the batch shape of its input; a float for a 1-D input."""
        self.marginal_calls.count += 1
        value = self.log_prior_marginal(phi_m)
        try:
            batch = phi_m.shape[:-1]
        except AttributeError:  # a list
            batch = np.shape(phi_m)[:-1]
        return check_result(value, batch, self, "log_prior_marginal")


def checked(fn: LogDensity, source, name: str) -> LogDensity:
    """``fn`` with every result checked by ``check_result``; ``fn`` itself if it
    is a submodel's method (its ``eval_log_prior``), which checks its own."""
    if isinstance(getattr(fn, "__self__", None), SubmodelSpec):
        return fn
    return lambda x: check_result(fn(x), np.shape(x)[:-1], source, name)


@dataclass(frozen=True)
class ChainModel:
    """An ordered chain of submodels and the blocks they share.

    Position alone wires the chain: submodel m touches block m-1 on its
    left and block m on its right (where those exist).  M = 2 is permitted
    and degenerates to classic two-model melding with a single shared
    block.  A chain whose spec at position m has another index, or whose
    unit factorizations do not partition their submodel's coordinates,
    raises ``StructureError`` when built.
    """

    submodels: tuple[SubmodelSpec, ...]
    phi_blocks: tuple[PhiBlock, ...]

    def __post_init__(self):
        M, labels = len(self.submodels), [b.label for b in self.phi_blocks]
        if M < 2 or len(labels) != M - 1:
            raise StructureError(f"a chain needs M >= 2 submodels and M - 1 phi blocks, got "
                                 f"{M} submodels and {len(labels)} phi blocks")
        if len(set(labels)) != M - 1:
            raise StructureError(f"phi block labels are not unique: {labels}")
        for m, spec in enumerate(self.submodels):
            if spec.index != m:
                raise StructureError(f"submodel at position {m} has index {spec.index}")
            if not (callable(spec.log_joint) and callable(spec.log_prior_marginal)):
                raise StructureError(
                    f"submodel {m}: log_joint and log_prior_marginal must be callable")
            if spec.unit_factorization is not None:
                phi_dim = sum(self.phi_blocks[b].dim for b in self.blocks_of(m))
                spec.unit_factorization.check_partition(m, phi_dim, spec.psi_dim)

    @property
    def n_submodels(self) -> int:
        return len(self.submodels)

    def blocks_of(self, m: int) -> tuple[int, ...]:
        """Indices of the blocks touched by submodel m, in chain order: m-1 and m."""
        return tuple(b for b in (m - 1, m) if 0 <= b < len(self.phi_blocks))

    def state_groups(self) -> list[tuple[str, int]]:
        """(name, width) of each part of a state: the blocks by label, then psi1 .. psiM."""
        return [(b.label, b.dim) for b in self.phi_blocks] + [
            (f"psi{m + 1}", spec.psi_dim) for m, spec in enumerate(self.submodels)
        ]

    def check_built_on(self, pool, what: str) -> None:
        """Raise ``UnsupportedConfigError`` unless ``pool.chain`` is this chain."""
        if pool.chain is not self:
            raise UnsupportedConfigError(f"{what} was built on another chain")

    def phi_m(self, m: int, phi: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenated shared-block values seen by submodel m (``block_values``)."""
        return block_values(phi, self.blocks_of(m))

    def check_dims(self, phi: Sequence[np.ndarray], psi: Sequence[np.ndarray]) -> None:
        if len(phi) != len(self.phi_blocks):
            raise StructureError(
                f"expected {len(self.phi_blocks)} phi blocks, got {len(phi)}"
            )
        for b, block in enumerate(self.phi_blocks):
            if np.shape(phi[b])[-1] != block.dim:
                raise StructureError(
                    f"block {block.label!r} expects dim {block.dim}, "
                    f"got {np.shape(phi[b])[-1]}"
                )
        if len(psi) != self.n_submodels:
            raise StructureError(
                f"expected {self.n_submodels} psi vectors, got {len(psi)}"
            )
        for m, spec in enumerate(self.submodels):
            dim = np.shape(psi[m])[-1:]
            if dim != (spec.psi_dim,):
                raise StructureError(
                    f"submodel {m}: psi dim {dim} != declared {spec.psi_dim}"
                )

    def reset_counters(self) -> None:
        for spec in self.submodels:
            spec.joint_calls.count = 0
            spec.marginal_calls.count = 0


def check_consistent(spec: SubmodelSpec, lj, lm, phi_m) -> None:
    """Raise for the first state whose joint is finite where its prior marginal is -inf."""
    bad = (lj > -math.inf) & (lm == -math.inf)
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise ModelInconsistencyError(
            f"submodel {spec.index}: joint is finite but prior marginal is -inf "
            f"at phi_m={np.asarray(phi_m)[first]}"
        )


def submodel_log_ratio(spec: SubmodelSpec, phi_m: np.ndarray, psi_m: np.ndarray) -> float:
    """log p_m(phi_m, psi_m, Y_m) - log p_m(phi_m) under the -inf policy.

    A -inf joint makes the whole term -inf regardless of the marginal.  A
    -inf marginal with a finite joint is a model inconsistency (a joint
    cannot have mass where its own marginal has none) and raises.
    """
    lj = spec.eval_log_joint(phi_m, psi_m)
    if lj == -math.inf:
        return -math.inf
    lm = spec.eval_log_prior(phi_m)
    check_consistent(spec, lj, lm, phi_m)
    return lj - lm


def log_melded_density(model: ChainModel, pool, phi, psi):
    """Unnormalized log density of the chained melded model; states may be batched.

    ``pool`` is anything with a ``log_density(phi_blocks)`` method (a
    ``PooledPrior`` or ``PoolFactorization``) whose ``chain`` is ``model``.
    A state is -inf where the pool is, or where a submodel's joint is -inf;
    otherwise a finite joint whose prior marginal is -inf, checked in
    submodel order, raises.  A float for unbatched states.
    """
    model.check_built_on(pool, "pool")
    model.check_dims(phi, psi)
    total = np.asarray(pool.log_density(phi), dtype=float)
    zero = total == -math.inf
    for m, spec in enumerate(model.submodels):
        phi_m = model.phi_m(m, phi)
        lj = spec.eval_log_joint(phi_m, np.asarray(psi[m], dtype=float))
        lm = spec.eval_log_prior(phi_m)
        check_consistent(spec, np.where(zero, -math.inf, lj), lm, phi_m)
        zero = zero | (lj == -math.inf)
        with np.errstate(invalid="ignore"):
            total = total + (lj - lm)
    out = np.where(zero, -math.inf, total)
    return float(out) if out.ndim == 0 else out


def markov_combination_density(
    model: ChainModel,
    boundary_priors: Sequence[LogDensity],
    phi,
    psi,
) -> float:
    """Log density of the chained Markov combination.

    Valid when all submodels sharing a block declare identical prior
    marginals for it; ``boundary_priors[b]`` is that common log marginal
    for block b.  Serves as the oracle for dictatorial-pooling
    equivalences:  sum_m log p_m - sum_b log p(phi_b).
    """
    model.check_dims(phi, psi)
    if len(boundary_priors) != len(model.phi_blocks):
        raise StructureError("need one shared prior per boundary")
    total = 0.0
    for m, spec in enumerate(model.submodels):
        lj = spec.eval_log_joint(model.phi_m(m, phi), np.asarray(psi[m], dtype=float))
        if lj == -math.inf:
            return -math.inf
        total += lj
    for b, prior in enumerate(boundary_priors):
        lp = float(prior(np.asarray(phi[b], dtype=float)))
        if lp == -math.inf:
            raise ModelInconsistencyError(
                f"shared prior at boundary {b} is -inf where submodel joints are finite"
            )
        total -= lp
    return total


def unit_additivity_gap(
    spec: SubmodelSpec,
    phi_a: np.ndarray,
    psi_a: np.ndarray,
    phi_b: np.ndarray,
    psi_b: np.ndarray,
) -> float:
    """How far log_joint is from being a sum of per-unit terms.

    For an additive evaluator, replacing unit u of state b with the
    corresponding slice of state a changes the value by a per-unit
    increment, so summing over u gives f(a) + (n-1) f(b).  Returns the
    absolute deviation from that identity (0 for true factorizations).
    """
    uf = spec.unit_factorization
    if uf is None:
        raise StructureError(f"submodel {spec.index} declares no unit factorization")
    f_a = spec.eval_log_joint(phi_a, psi_a)
    f_b = spec.eval_log_joint(phi_b, psi_b)
    mixed_sum = 0.0
    for u in range(uf.n_units):
        phi_mix = np.array(phi_b, dtype=float)
        psi_mix = np.array(psi_b, dtype=float)
        pi = list(uf.phi_indices[u])
        si = list(uf.psi_indices[u])
        phi_mix[pi] = np.asarray(phi_a, dtype=float)[pi]
        psi_mix[si] = np.asarray(psi_a, dtype=float)[si]
        mixed_sum += spec.eval_log_joint(phi_mix, psi_mix)
    return abs(mixed_sum - (f_a + (uf.n_units - 1) * f_b))
