"""Multi-stage MCMC for the chained melded posterior (M = 3).

Stage one samples the two end submodels independently; stage two reuses
those draws as Metropolis proposals inside a Gibbs sweep over the middle
submodel.  The acceptance ratios involve only middle-submodel terms and
the middle pool factor, so the end submodels are never re-evaluated in
stage two.  A sequential three-stage variant folds the submodels in one
at a time, and a unitwise variant updates independent units of the end
submodels one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .chain import ChainModel, Coord, SubmodelSpec, submodel_log_ratio
from .errors import InitializationError, StructureError, UnsupportedConfigError
from .pooling import PoolFactorization, split_term, sum_terms

__all__ = [
    "MHKernelConfig",
    "SampleStore",
    "MeldedChainOutput",
    "mh_step",
    "run_stage_one",
    "run_stage_one_pair",
    "run_parallel_stage_two",
    "run_parallel_stage_two_unitwise",
    "run_sequential",
]

_INIT_RETRIES = 100


@dataclass(frozen=True)
class MHKernelConfig:
    """Proposal configuration for generic MH updates.

    Continuous coordinates take Gaussian random-walk steps (on the log
    scale for positive coordinates, with the Jacobian folded into the
    proposal ratio); discrete coordinates are redrawn uniformly over their
    categories.  ``scales`` broadcasts per coordinate.
    """

    proposal: str = "random-walk"
    scales: Union[float, np.ndarray] = 0.1

    def __post_init__(self):
        if self.proposal not in ("random-walk", "discrete-flip"):
            raise UnsupportedConfigError(f"unknown proposal kind {self.proposal!r}")
        if np.any(np.asarray(self.scales, dtype=float) < 0):
            raise UnsupportedConfigError("proposal scales must be >= 0")

    def per_coord(self, n: int) -> tuple[float, ...]:
        """``scales`` broadcast to ``n`` coordinates, cached per ``n``."""
        cache = self.__dict__.setdefault("_per_coord", {})
        if n not in cache:
            scales = np.broadcast_to(np.asarray(self.scales, dtype=float), (n,))
            cache[n] = tuple(scales.tolist())
        return cache[n]


@dataclass(frozen=True)
class SampleStore:
    """Post-warmup stage-one draws with cached log densities."""

    phi: np.ndarray
    psi: np.ndarray
    log_density: np.ndarray
    chain_id: np.ndarray
    iteration: np.ndarray
    phi_coords: tuple[Coord, ...]
    psi_coords: tuple[Coord, ...]

    def __post_init__(self):
        if self.phi.shape[0] < 1:
            raise StructureError("sample store must hold at least one draw")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def draws(self) -> np.ndarray:
        return np.concatenate([self.phi, self.psi], axis=1)


@dataclass(frozen=True)
class MeldedChainOutput:
    """Per-iteration melded states plus index provenance and seed record."""

    phi12: np.ndarray  # (chains, n, d12)
    phi23: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    indices: np.ndarray  # (chains, n, k) accepted stage-one/-two indices
    accept_counts: dict[str, int]
    proposal_counts: dict[str, int]
    seed: int
    coord_info: dict[str, tuple[Coord, ...]] = field(default_factory=dict)

    def acceptance_rates(self) -> dict[str, float]:
        return {
            k: self.accept_counts[k] / max(1, self.proposal_counts[k])
            for k in sorted(self.proposal_counts)
        }

    def state_matrix(self) -> np.ndarray:
        """All retained draws flattened to rows (phi12, phi23, psi1, psi2, psi3)."""
        parts = [self.phi12, self.phi23, self.psi1, self.psi2, self.psi3]
        rows = self.phi12.shape[0] * self.phi12.shape[1]
        return np.concatenate([p.reshape(rows, p.shape[2]) for p in parts], axis=1)


def _default_value(c: Coord) -> float:
    return 1.0 if c.kind == "positive" else 0.0


def _jitter(state: np.ndarray, coords: Sequence[Coord], rng) -> np.ndarray:
    out = state.copy()
    for i, c in enumerate(coords):
        if c.kind == "real":
            out[i] += rng.standard_normal()
        elif c.kind == "positive":
            out[i] *= math.exp(rng.standard_normal())
        else:
            out[i] = rng.integers(c.cardinality)
    return out


def _init_state(coords, log_target, rng, init=None):
    state = (
        np.asarray(init, dtype=float).copy()
        if init is not None
        else np.array([_default_value(c) for c in coords])
    )
    for _ in range(_INIT_RETRIES):
        value = log_target(state)
        if value > -math.inf:
            return state, value
        state = _jitter(state, coords, rng)
    raise InitializationError(
        f"no finite-density initial state after {_INIT_RETRIES} attempts"
    )


def _propose(state: np.ndarray, coords: Sequence[Coord], scales, rng):
    """Random-walk / uniform-flip proposal; returns (proposal, log q ratio).

    ``scales`` holds one step size per coordinate (``MHKernelConfig.per_coord``).
    """
    prop = state.copy()
    log_q = 0.0
    for i, c in enumerate(coords):
        if c.kind == "real":
            prop[i] = state[i] + scales[i] * rng.standard_normal()
        elif c.kind == "positive":
            prop[i] = state[i] * math.exp(scales[i] * rng.standard_normal())
            log_q += math.log(prop[i]) - math.log(state[i])
        else:
            prop[i] = rng.integers(c.cardinality)
    return prop, log_q


def _accept(rng, log_alpha: float) -> bool:
    # Always consumes one uniform so chains with different update variants
    # stay seed-comparable.
    u = rng.random()
    return math.log(u) < log_alpha


def mh_step(state, log_p, log_target, coords, kernel: MHKernelConfig, rng):
    """One generic Metropolis-Hastings step.

    Returns (state, log density, accepted).  ``log_p`` must be the target
    value at ``state`` (finite).
    """
    prop, log_q = _propose(state, coords, kernel.per_coord(len(coords)), rng)
    lp_prop = log_target(prop)
    if lp_prop == -math.inf:
        _accept(rng, -math.inf)
        return state, log_p, False
    if _accept(rng, lp_prop - log_p + log_q):
        return prop, lp_prop, True
    return state, log_p, False


def split_warmup(n_iter: int, warmup_frac: float) -> tuple[int, int]:
    """(warmup, kept) iteration counts; needs 0 <= warmup_frac < 1 and >= 1 kept."""
    if not 0.0 <= warmup_frac < 1.0:
        raise UnsupportedConfigError(
            f"warmup_frac must satisfy 0 <= warmup_frac < 1, got {warmup_frac!r}"
        )
    warmup = int(warmup_frac * n_iter)
    if warmup >= n_iter:
        raise UnsupportedConfigError("warmup leaves no post-warmup iterations")
    return warmup, n_iter - warmup


def _end_pieces(chain: ChainModel, factor: PoolFactorization, end: int):
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("stage-one targets are defined for M = 3 chains")
    if end == 0:
        return chain.submodels[0], chain.phi_blocks[0], factor.pool1
    if end == 2:
        return chain.submodels[2], chain.phi_blocks[1], factor.pool3
    raise UnsupportedConfigError(f"stage one targets submodel 0 or 2, got {end}")


def run_stage_one(
    chain: ChainModel,
    end: int,
    factor: PoolFactorization,
    kernel: MHKernelConfig,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
    init: Optional[np.ndarray] = None,
) -> SampleStore:
    """MH chain targeting one end submodel's stage-one density.

    The target is pool_k(phi) * p_k(phi, psi, Y) / p_k(phi); with the
    subprior-ends factorization pool_k is p_k(phi) itself, evaluated once,
    and the target is exactly the subposterior.
    """
    spec, block, pool_k = _end_pieces(chain, factor, end)
    d_phi = block.dim
    coords = tuple(block.coords) + tuple(spec.psi_coords)
    warmup, kept = split_warmup(n_iter, warmup_frac)

    subprior = factor.mode == "subprior-ends"

    def log_target(state):
        phi = state[:d_phi]
        psi = state[d_phi:]
        lm = float(spec.eval_log_prior(phi))
        # Under subprior-ends pool_k is p_k(phi) itself: reuse it.
        base = lm if subprior else float(np.asarray(pool_k(phi)))
        if base == -math.inf:
            return -math.inf
        lj = spec.eval_log_joint(phi, psi)
        if lj == -math.inf:
            return -math.inf
        if lm == -math.inf:
            submodel_log_ratio(spec, phi, psi)  # raises: joint finite, marginal -inf
        return base + (lj - lm)

    phi_out = np.empty((chains * kept, d_phi))
    psi_out = np.empty((chains * kept, spec.psi_dim))
    logd_out = np.empty(chains * kept)
    chain_out = np.empty(chains * kept, dtype=int)
    iter_out = np.empty(chains * kept, dtype=int)

    for c, ss in enumerate(np.random.SeedSequence(seed).spawn(chains)):
        rng = np.random.default_rng(ss)
        state, log_p = _init_state(coords, log_target, rng, init)
        row = c * kept
        for t in range(n_iter):
            state, log_p, _ = mh_step(state, log_p, log_target, coords, kernel, rng)
            if t >= warmup:
                phi_out[row, :] = state[:d_phi]
                psi_out[row, :] = state[d_phi:]
                logd_out[row] = log_p
                chain_out[row] = c
                iter_out[row] = t
                row += 1
    return SampleStore(
        phi=phi_out,
        psi=psi_out,
        log_density=logd_out,
        chain_id=chain_out,
        iteration=iter_out,
        phi_coords=tuple(block.coords),
        psi_coords=tuple(spec.psi_coords),
    )


def run_stage_one_pair(
    chain: ChainModel,
    factor: PoolFactorization,
    kernel1: MHKernelConfig,
    kernel3: MHKernelConfig,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> tuple[SampleStore, SampleStore]:
    """Run both stage-one samplers on independent RNG streams."""
    ss1, ss3 = np.random.SeedSequence(seed).spawn(2)
    return (
        run_stage_one(chain, 0, factor, kernel1, n_iter, chains, ss1.entropy, warmup_frac),
        run_stage_one(chain, 2, factor, kernel3, n_iter, chains, ss3.entropy, warmup_frac),
    )


class _MiddleTarget:
    """Middle-submodel terms of the stage-two target.

    For a shared-block move these are the middle log joint and
    pool2 - log p2(phi), one sum of weighted log-marginal terms in which
    the middle marginal is evaluated once.
    """

    __slots__ = ("spec", "coef", "rest")

    def __init__(self, spec2: SubmodelSpec, factor: PoolFactorization):
        self.spec = spec2
        coef, self.rest = split_term(factor.terms2, spec2.eval_log_prior, (0, 1))
        self.coef = coef - 1.0

    def evaluate(self, phi12, phi23, psi2):
        """(log joint, pool2 - log p2), or None where the target is -inf."""
        phi_m = np.concatenate([phi12, phi23])
        lj2 = self.spec.eval_log_joint(phi_m, psi2)
        if lj2 == -math.inf:
            return None
        lm2 = float(self.spec.eval_log_prior(phi_m))
        if lm2 == -math.inf:
            # Surface the inconsistency rather than silently rejecting.
            submodel_log_ratio(self.spec, phi_m, psi2)
        rest = sum_terms(self.rest, (phi12, phi23))
        if rest == -math.inf:
            return None
        return lj2, rest + self.coef * lm2


class _MiddleState:
    """Mutable stage-two state for one chain: middle submodel caches."""

    __slots__ = ("phi12", "phi23", "psi2", "lj2", "lr2")

    def __init__(self, target: _MiddleTarget, phi12, phi23, psi2):
        self.phi12 = phi12
        self.phi23 = phi23
        self.psi2 = psi2
        self.lj2, self.lr2 = target.evaluate(phi12, phi23, psi2) or (-math.inf, -math.inf)

    def finite(self) -> bool:
        return self.lj2 > -math.inf and self.lr2 > -math.inf


def _middle_ratio(target: _MiddleTarget, phi12, phi23, psi2, cur: _MiddleState):
    """Log acceptance ratio for a shared-block move against the middle submodel.

    Only middle-submodel terms and the middle pool factor appear: pooled
    ratio x joint ratio x inverse prior-marginal ratio.
    """
    new = target.evaluate(phi12, phi23, psi2)
    if new is None:
        return -math.inf, None
    return (new[1] - cur.lr2) + (new[0] - cur.lj2), new


def _stage_two_init(target, store1, store3, psi2_coords, rng):
    for _ in range(_INIT_RETRIES):
        i1 = int(rng.integers(store1.n))
        i3 = int(rng.integers(store3.n))
        psi2 = np.array([_default_value(c) for c in psi2_coords])
        state = _MiddleState(target, store1.phi[i1].copy(), store3.phi[i3].copy(), psi2)
        if state.finite():
            return i1, i3, state
        psi2 = _jitter(psi2, psi2_coords, rng)
        state = _MiddleState(target, store1.phi[i1].copy(), store3.phi[i3].copy(), psi2)
        if state.finite():
            return i1, i3, state
    raise InitializationError("stage two: no finite-density initial state")


def run_parallel_stage_two(
    chain: ChainModel,
    factor: PoolFactorization,
    store1: SampleStore,
    store3: SampleStore,
    kernel2: MHKernelConfig,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """Metropolis-within-Gibbs targeting the melded posterior.

    Each iteration: (i) propose (phi12, psi1) by index resampling from
    store1, (ii) likewise (phi23, psi3) from store3, (iii) generic MH on
    psi2.  Stage-one draws are proposed uniformly with replacement.
    """
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("parallel stage two requires M = 3")
    spec2 = chain.submodels[1]
    target = _MiddleTarget(spec2, factor)
    psi2_coords = tuple(spec2.psi_coords)
    scales2 = kernel2.per_coord(len(psi2_coords))
    warmup, kept = split_warmup(n_iter, warmup_frac)

    d12, d23 = store1.phi.shape[1], store3.phi.shape[1]
    out = _allocate_output(chains, kept, d12, d23, store1, store3, spec2, n_index=2)
    accept = {"phi1": 0, "phi3": 0, "psi2": 0}
    propose = {"phi1": 0, "phi3": 0, "psi2": 0}

    for c, ss in enumerate(np.random.SeedSequence(seed).spawn(chains)):
        rng = np.random.default_rng(ss)
        i1, i3, cur = _stage_two_init(target, store1, store3, psi2_coords, rng)
        for t in range(n_iter):
            # (i) shared block 1 + psi1 via index resampling
            n1 = int(rng.integers(store1.n))
            log_alpha, new = _middle_ratio(
                target, store1.phi[n1], cur.phi23, cur.psi2, cur
            )
            propose["phi1"] += 1
            if _accept(rng, log_alpha):
                accept["phi1"] += 1
                i1 = n1
                cur.phi12 = store1.phi[n1].copy()
                cur.lj2, cur.lr2 = new
            # (ii) shared block 2 + psi3
            n3 = int(rng.integers(store3.n))
            log_alpha, new = _middle_ratio(
                target, cur.phi12, store3.phi[n3], cur.psi2, cur
            )
            propose["phi3"] += 1
            if _accept(rng, log_alpha):
                accept["phi3"] += 1
                i3 = n3
                cur.phi23 = store3.phi[n3].copy()
                cur.lj2, cur.lr2 = new
            # (iii) psi2 via generic MH
            if psi2_coords:
                prop, log_q = _propose(cur.psi2, psi2_coords, scales2, rng)
                lj2 = spec2.eval_log_joint(
                    np.concatenate([cur.phi12, cur.phi23]), prop
                )
                propose["psi2"] += 1
                if lj2 == -math.inf:
                    _accept(rng, -math.inf)
                elif _accept(rng, lj2 - cur.lj2 + log_q):
                    accept["psi2"] += 1
                    cur.psi2 = prop
                    cur.lj2 = lj2
            if t >= warmup:
                k = t - warmup
                _record(out, c, k, cur, store1, store3, i1, i3, (i1, i3))
    return MeldedChainOutput(
        **out,
        accept_counts=accept,
        proposal_counts=propose,
        seed=seed,
        coord_info=_coord_info(chain, store1, store3),
    )


def run_parallel_stage_two_unitwise(
    chain: ChainModel,
    factor: PoolFactorization,
    store1: SampleStore,
    store3: SampleStore,
    kernel2: MHKernelConfig,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """Stage two with individual-at-a-time updates of the end submodels.

    Requires unit factorizations on submodels 1 and 3.  Units are visited
    in a fresh random order each iteration; each unit's slice is proposed
    from its own stage-one empirical marginal and accepted against the
    middle-submodel terms with the other units held at their current
    values.  With a single unit this reduces exactly to the blocked
    sampler (same seeds give the same chain).
    """
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("unitwise stage two requires M = 3")
    spec1, spec2, spec3 = chain.submodels
    uf1, uf3 = spec1.unit_factorization, spec3.unit_factorization
    if uf1 is None or uf3 is None:
        raise UnsupportedConfigError(
            "unitwise updates need unit factorizations on submodels 0 and 2"
        )
    target = _MiddleTarget(spec2, factor)
    psi2_coords = tuple(spec2.psi_coords)
    scales2 = kernel2.per_coord(len(psi2_coords))
    warmup, kept = split_warmup(n_iter, warmup_frac)

    d12, d23 = store1.phi.shape[1], store3.phi.shape[1]
    n_index = uf1.n_units + uf3.n_units
    out = _allocate_output(chains, kept, d12, d23, store1, store3, spec2, n_index)
    accept = {"phi1": 0, "phi3": 0, "psi2": 0}
    propose = {"phi1": 0, "phi3": 0, "psi2": 0}

    for c, ss in enumerate(np.random.SeedSequence(seed).spawn(chains)):
        rng = np.random.default_rng(ss)
        i1, i3, cur = _stage_two_init(target, store1, store3, psi2_coords, rng)
        units1 = np.full(uf1.n_units, i1, dtype=int)
        units3 = np.full(uf3.n_units, i3, dtype=int)
        psi1 = store1.psi[i1].copy()
        psi3 = store3.psi[i3].copy()
        for t in range(n_iter):
            order1 = rng.permutation(uf1.n_units) if uf1.n_units > 1 else (0,)
            for u in order1:
                k1 = int(rng.integers(store1.n))
                phi_prop = cur.phi12.copy()
                idx = list(uf1.phi_indices[u])
                phi_prop[idx] = store1.phi[k1][idx]
                log_alpha, new = _middle_ratio(
                    target, phi_prop, cur.phi23, cur.psi2, cur
                )
                propose["phi1"] += 1
                if _accept(rng, log_alpha):
                    accept["phi1"] += 1
                    cur.phi12 = phi_prop
                    cur.lj2, cur.lr2 = new
                    units1[u] = k1
                    sidx = list(uf1.psi_indices[u])
                    psi1[sidx] = store1.psi[k1][sidx]
            order3 = rng.permutation(uf3.n_units) if uf3.n_units > 1 else (0,)
            for u in order3:
                k3 = int(rng.integers(store3.n))
                phi_prop = cur.phi23.copy()
                idx = list(uf3.phi_indices[u])
                phi_prop[idx] = store3.phi[k3][idx]
                log_alpha, new = _middle_ratio(
                    target, cur.phi12, phi_prop, cur.psi2, cur
                )
                propose["phi3"] += 1
                if _accept(rng, log_alpha):
                    accept["phi3"] += 1
                    cur.phi23 = phi_prop
                    cur.lj2, cur.lr2 = new
                    units3[u] = k3
                    sidx = list(uf3.psi_indices[u])
                    psi3[sidx] = store3.psi[k3][sidx]
            if psi2_coords:
                prop, log_q = _propose(cur.psi2, psi2_coords, scales2, rng)
                lj2 = spec2.eval_log_joint(
                    np.concatenate([cur.phi12, cur.phi23]), prop
                )
                propose["psi2"] += 1
                if lj2 == -math.inf:
                    _accept(rng, -math.inf)
                elif _accept(rng, lj2 - cur.lj2 + log_q):
                    accept["psi2"] += 1
                    cur.psi2 = prop
                    cur.lj2 = lj2
            if t >= warmup:
                k = t - warmup
                indices = tuple(units1) + tuple(units3)
                out["phi12"][c, k] = cur.phi12
                out["phi23"][c, k] = cur.phi23
                out["psi1"][c, k] = psi1
                out["psi2"][c, k] = cur.psi2
                out["psi3"][c, k] = psi3
                out["indices"][c, k] = indices
    return MeldedChainOutput(
        **out,
        accept_counts=accept,
        proposal_counts=propose,
        seed=seed,
        coord_info=_coord_info(chain, store1, store3),
    )


def run_sequential(
    chain: ChainModel,
    factor: PoolFactorization,
    kernel1: MHKernelConfig,
    kernel2: MHKernelConfig,
    kernel3: MHKernelConfig,
    n_iter: Union[int, tuple[int, int, int]],
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """Three-stage sequential sampler.

    Stage one targets the first end submodel; stage two folds in the
    middle submodel, reusing stage-one draws as shared-block proposals;
    stage three folds in the remaining end submodel, reusing stage-two
    draws.  Acceptance ratios in stages two and three contain no
    first-submodel terms.
    """
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("sequential sampler requires M = 3")
    if isinstance(n_iter, int):
        n_iter = (n_iter, n_iter, n_iter)
    n1, n2, n3 = n_iter
    spec1, spec2, spec3 = chain.submodels
    target = _MiddleTarget(spec2, factor)
    pool3 = factor.pool3
    subprior = factor.mode == "subprior-ends"
    psi2_coords = tuple(spec2.psi_coords)
    psi3_coords = tuple(spec3.psi_coords)
    block23 = chain.phi_blocks[1]

    ss1, ss2, ss3 = np.random.SeedSequence(seed).spawn(3)
    store1 = run_stage_one(chain, 0, factor, kernel1, n1, chains, ss1.entropy, warmup_frac)

    # ---- stage two: (phi12 by index, phi23 + psi2 by random walk) ----
    warmup2, kept2 = split_warmup(n2, warmup_frac)
    rows_phi12 = np.empty((chains * kept2, store1.phi.shape[1]))
    rows_phi23 = np.empty((chains * kept2, block23.dim))
    rows_psi2 = np.empty((chains * kept2, spec2.psi_dim))
    rows_i1 = np.empty(chains * kept2, dtype=int)
    move_coords = tuple(block23.coords) + psi2_coords
    scales2 = kernel2.per_coord(len(move_coords))
    scales3 = kernel3.per_coord(len(psi3_coords))
    accept = {"s2_phi1": 0, "s2_move": 0, "s3_index": 0, "s3_psi3": 0}
    propose = {"s2_phi1": 0, "s2_move": 0, "s3_index": 0, "s3_psi3": 0}

    for c, ss in enumerate(np.random.SeedSequence(ss2.entropy).spawn(chains)):
        rng = np.random.default_rng(ss)
        i1, cur = None, None
        for _ in range(_INIT_RETRIES):
            i1 = int(rng.integers(store1.n))
            phi23 = np.array([_default_value(cc) for cc in block23.coords])
            psi2 = np.array([_default_value(cc) for cc in psi2_coords])
            cur = _MiddleState(target, store1.phi[i1].copy(), phi23, psi2)
            if cur.finite():
                break
            phi23 = _jitter(phi23, block23.coords, rng)
            cur = _MiddleState(target, store1.phi[i1].copy(), phi23, psi2)
            if cur.finite():
                break
        else:
            raise InitializationError("sequential stage two: no finite initial state")
        row = c * kept2
        for t in range(n2):
            n1_star = int(rng.integers(store1.n))
            log_alpha, new = _middle_ratio(
                target, store1.phi[n1_star], cur.phi23, cur.psi2, cur
            )
            propose["s2_phi1"] += 1
            if _accept(rng, log_alpha):
                accept["s2_phi1"] += 1
                i1 = n1_star
                cur.phi12 = store1.phi[n1_star].copy()
                cur.lj2, cur.lr2 = new
            move = np.concatenate([cur.phi23, cur.psi2])
            prop, log_q = _propose(move, move_coords, scales2, rng)
            phi23_p = prop[: block23.dim]
            psi2_p = prop[block23.dim :]
            log_alpha, new = _middle_ratio(target, cur.phi12, phi23_p, psi2_p, cur)
            propose["s2_move"] += 1
            if _accept(rng, log_alpha + log_q):
                accept["s2_move"] += 1
                cur.phi23 = phi23_p
                cur.psi2 = psi2_p
                cur.lj2, cur.lr2 = new
            if t >= warmup2:
                rows_phi12[row] = cur.phi12
                rows_phi23[row] = cur.phi23
                rows_psi2[row] = cur.psi2
                rows_i1[row] = i1
                row += 1

    # ---- stage three: (whole stage-two state by index, psi3 by walk) ----
    warmup3, kept3 = split_warmup(n3, warmup_frac)
    n_rows = rows_phi12.shape[0]
    out = {
        "phi12": np.empty((chains, kept3, rows_phi12.shape[1])),
        "phi23": np.empty((chains, kept3, rows_phi23.shape[1])),
        "psi1": np.empty((chains, kept3, store1.psi.shape[1])),
        "psi2": np.empty((chains, kept3, rows_psi2.shape[1])),
        "psi3": np.empty((chains, kept3, spec3.psi_dim)),
        "indices": np.empty((chains, kept3, 2), dtype=int),
    }

    def _stage3_terms(phi23, psi3):
        lj3 = spec3.eval_log_joint(phi23, psi3)
        if lj3 == -math.inf:
            return None
        lm3 = float(np.asarray(spec3.eval_log_prior(phi23)))
        if lm3 == -math.inf:
            submodel_log_ratio(spec3, phi23, psi3)
        # Under subprior-ends pool3 is p3(phi23) itself: reuse it.
        lp3 = lm3 if subprior else float(np.asarray(pool3(phi23)))
        if lp3 == -math.inf:
            return None
        return lj3, lm3, lp3

    for c, ss in enumerate(np.random.SeedSequence(ss3.entropy).spawn(chains)):
        rng = np.random.default_rng(ss)
        terms = None
        for _ in range(_INIT_RETRIES):
            j = int(rng.integers(n_rows))
            psi3 = np.array([_default_value(cc) for cc in psi3_coords])
            terms = _stage3_terms(rows_phi23[j], psi3)
            if terms is not None:
                break
            psi3 = _jitter(psi3, psi3_coords, rng)
            terms = _stage3_terms(rows_phi23[j], psi3)
            if terms is not None:
                break
        else:
            raise InitializationError("sequential stage three: no finite initial state")
        lj3, lm3, lp3 = terms
        for t in range(n3):
            j_star = int(rng.integers(n_rows))
            new = _stage3_terms(rows_phi23[j_star], psi3)
            propose["s3_index"] += 1
            if new is None:
                _accept(rng, -math.inf)
            else:
                log_alpha = (new[2] - lp3) + (new[0] - lj3) + (lm3 - new[1])
                if _accept(rng, log_alpha):
                    accept["s3_index"] += 1
                    j = j_star
                    lj3, lm3, lp3 = new
            if psi3_coords:
                prop, log_q = _propose(psi3, psi3_coords, scales3, rng)
                lj3_p = spec3.eval_log_joint(rows_phi23[j], prop)
                propose["s3_psi3"] += 1
                if lj3_p == -math.inf:
                    _accept(rng, -math.inf)
                elif _accept(rng, lj3_p - lj3 + log_q):
                    accept["s3_psi3"] += 1
                    psi3 = prop
                    lj3 = lj3_p
            if t >= warmup3:
                k = t - warmup3
                out["phi12"][c, k] = rows_phi12[j]
                out["phi23"][c, k] = rows_phi23[j]
                out["psi1"][c, k] = store1.psi[rows_i1[j]]
                out["psi2"][c, k] = rows_psi2[j]
                out["psi3"][c, k] = psi3
                out["indices"][c, k] = (j, rows_i1[j])
    return MeldedChainOutput(
        **out,
        accept_counts=accept,
        proposal_counts=propose,
        seed=seed,
        coord_info={
            "phi12": tuple(chain.phi_blocks[0].coords),
            "phi23": tuple(chain.phi_blocks[1].coords),
            "psi1": tuple(spec1.psi_coords),
            "psi2": tuple(spec2.psi_coords),
            "psi3": tuple(spec3.psi_coords),
        },
    )


def _allocate_output(chains, kept, d12, d23, store1, store3, spec2, n_index):
    return {
        "phi12": np.empty((chains, kept, d12)),
        "phi23": np.empty((chains, kept, d23)),
        "psi1": np.empty((chains, kept, store1.psi.shape[1])),
        "psi2": np.empty((chains, kept, spec2.psi_dim)),
        "psi3": np.empty((chains, kept, store3.psi.shape[1])),
        "indices": np.empty((chains, kept, n_index), dtype=int),
    }


def _record(out, c, k, cur: _MiddleState, store1, store3, i1, i3, indices):
    out["phi12"][c, k] = cur.phi12
    out["phi23"][c, k] = cur.phi23
    out["psi1"][c, k] = store1.psi[i1]
    out["psi2"][c, k] = cur.psi2
    out["psi3"][c, k] = store3.psi[i3]
    out["indices"][c, k] = indices


def _coord_info(chain: ChainModel, store1: SampleStore, store3: SampleStore):
    return {
        "phi12": tuple(chain.phi_blocks[0].coords),
        "phi23": tuple(chain.phi_blocks[1].coords),
        "psi1": tuple(store1.psi_coords),
        "psi2": tuple(chain.submodels[1].psi_coords),
        "psi3": tuple(store3.psi_coords),
    }
