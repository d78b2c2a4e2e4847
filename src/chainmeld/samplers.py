"""Multi-stage MCMC for the chained melded posterior.

The stage of submodel m targets its joint over its own prior marginal,
times its factor ``factor.terms[m]`` of the pooled prior, and reuses
earlier stages' draws as index-resampling proposals, so no stage
re-evaluates an earlier stage's submodel.  The sequential sampler folds in
the submodels of a chain of any length one at a time.  The parallel
sampler (M = 3) samples both ends in stage one and reuses both stores in a
Gibbs sweep over the middle submodel; its unitwise variant updates
independent units of the ends one at a time.

Every stage advances all of its chains in lockstep.  The chains' states
are the rows of one ``(chains, d)`` array; each move proposes for every
chain, evaluates all proposals in one batched call and accepts with a
mask.  Each chain has its own generator, spawned from the stage's seed.
Once the chain is initialized, it draws the whole stage's stage-one
indices, proposal noise, unit orders and uniforms in blocks, and every
move consumes one uniform.  A chain's draws therefore depend on its own
generator only: with evaluators that give each row of a batch the value
they give that row alone, chain c of a run is the same whatever the
number of chains beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .chain import ChainModel, Coord, SubmodelSpec, UnitFactorization, check_consistent
from .errors import (
    InitializationError,
    StructureError,
    UnsupportedConfigError,
)
from .pooling import PoolFactorization, neg_inf_policy, split_term

__all__ = [
    "MHKernelConfig",
    "SampleStore",
    "MeldedChainOutput",
    "run_random_walk",
    "run_stage_one",
    "run_stage_one_pair",
    "run_parallel_stage_two",
    "run_parallel_stage_two_unitwise",
    "run_sequential",
]

_INIT_RETRIES = 100
_NEG_INF = -math.inf


@dataclass(frozen=True)
class MHKernelConfig:
    """Proposal configuration for generic MH updates.

    Continuous coordinates take Gaussian random-walk steps (on the log
    scale for positive coordinates, with the Jacobian folded into the
    proposal ratio); discrete coordinates are redrawn uniformly over their
    categories.  ``scales`` broadcasts per coordinate.
    """

    scales: Union[float, np.ndarray] = 0.1

    def __post_init__(self):
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
    """Per-iteration melded states plus index provenance.

    ``phi[b]`` holds block b's draws and ``psi[m]`` submodel m's, each
    ``(chains, n, dim)``.
    """

    phi: tuple[np.ndarray, ...]
    psi: tuple[np.ndarray, ...]
    indices: np.ndarray  # (chains, n, k) accepted indices into earlier stages' draws
    accept_counts: dict[str, int]
    proposal_counts: dict[str, int]

    def acceptance_rates(self) -> dict[str, float]:
        return {
            k: self.accept_counts[k] / max(1, self.proposal_counts[k])
            for k in sorted(self.proposal_counts)
        }

    def state_matrix(self) -> np.ndarray:
        """All retained draws flattened to rows: every block, then psi of every submodel."""
        parts = [*self.phi, *self.psi]
        rows = parts[0].shape[0] * parts[0].shape[1]
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


def _per_chain(rngs, draw, axis: int = 1) -> np.ndarray:
    """``draw(rng)`` for every chain's generator, stacked along ``axis``."""
    return np.stack([draw(rng) for rng in rngs], axis=axis)


def _walk_draw(rng, n: int, coords, scales):
    """``n`` random-walk proposals for one chain: (mult, step, log q).

    A proposal is ``x * mult + step``.  Real coordinates step by
    scale * N(0, 1); positive ones are multiplied by exp(scale * N(0, 1)),
    whose Jacobian is log q; discrete ones are redrawn uniformly over their
    categories.  ``mult`` and ``log_q`` are None when no coordinate needs
    them.
    """
    kinds = [c.kind for c in coords]
    cont = [i for i, k in enumerate(kinds) if k != "discrete"]
    disc = [i for i, k in enumerate(kinds) if k == "discrete"]
    pos = [i for i, k in enumerate(kinds) if k == "positive"]
    scale = np.asarray(scales, dtype=float)[cont]
    step = np.empty((n, len(coords)))
    step[:, cont] = scale * rng.standard_normal((n, len(cont)))
    if disc:
        step[:, disc] = rng.integers([coords[i].cardinality for i in disc], size=(n, len(disc)))
    if not (pos or disc):
        return None, step, None
    log_q = step[:, pos].sum(axis=1) if pos else None
    mult = np.ones_like(step)
    mult[:, pos] = np.exp(step[:, pos])
    mult[:, disc] = 0.0
    step[:, pos] = 0.0
    return mult, step, log_q


class _Walk:
    """``_walk_draw`` for ``n`` iterations of every chain, (iteration, chain, ...)."""

    def __init__(self, coords: Sequence[Coord], scales, rngs, n: int):
        draws = [_walk_draw(rng, n, coords, scales) for rng in rngs]
        self.mult, self.step, self.log_q = (
            None if part[0] is None else np.stack(part, axis=1) for part in zip(*draws)
        )

    def propose(self, x: np.ndarray, t: int) -> np.ndarray:
        if self.mult is None:
            return x + self.step[t]
        return x * self.mult[t] + self.step[t]


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


# ---------------------------------------------------------------------------
# batched targets
# ---------------------------------------------------------------------------
#
# A target evaluates the proposals of every chain at once.  Its cached
# terms are the rows of one (terms, chains) array whose row 0 is the log
# target (-inf off the target's support).  ``plan(lo, hi)`` says which terms
# a move of state columns lo:hi changes, and ``evaluate(z, plan, cur)``
# returns the terms of every row of z, copying the unchanged ones from cur.
# Off-support values are rare, so the -inf policy runs only where some term
# is -inf.


def _has_inf(terms: np.ndarray) -> bool:
    if terms.size > 256:
        return not np.isfinite(terms).all()
    # Cheapest for small batches: the sum of squares is finite when every
    # term is (and does not overflow; if it does, the -inf policy runs for
    # nothing).
    terms = terms.ravel()
    return not math.isfinite(terms.dot(terms))


class _StageTarget:
    """One submodel's stage target, log p_m(phi, psi, Y) - log p_m(phi) + its pool factor.

    The state is the submodel's shared blocks, in chain order, then psi_m.
    ``terms`` is the stage's factor of the pooled prior as weighted
    log-marginal terms over chain blocks, and ``widths`` maps each of the
    submodel's blocks to its width.  The coefficient c of log p_m among the
    terms merges with the divided-out marginal, so the target is the log
    joint + (c - 1) log p_m + the other terms, and with c = 1 and no other
    term it is exactly the subposterior.  Terms: log target, log joint,
    (c - 1) log p_m + the other terms, log p_m, then each other term.  A move
    re-evaluates only the terms that read a block it changes.
    """

    def __init__(self, spec: SubmodelSpec, terms, widths: dict[int, int]):
        self.spec = spec
        coef, self.rest = split_term(terms, spec.eval_log_prior, tuple(widths))
        self.coefs = np.array([coef - 1.0] + [t.coef for t in self.rest])[:, None]
        self.subposterior = coef == 1.0 and not self.rest
        edges = np.cumsum([0, *widths.values()]).tolist()
        self.bounds = {b: (edges[i], edges[i + 1]) for i, b in enumerate(widths)}
        self.d = edges[-1]
        self.cols = tuple(
            slice(self.bounds[t.blocks[0]][0], self.bounds[t.blocks[-1]][1])
            for t in self.rest
        )

    def plan(self, lo: int, hi: int):
        """(does phi move, indices of the other terms to re-evaluate)."""
        moved = {b for b, (a, e) in self.bounds.items() if a < hi and lo < e}
        return bool(moved), tuple(
            k for k, t in enumerate(self.rest) if moved.intersection(t.blocks)
        )

    def evaluate(self, z, plan, cur):
        phi_moved, which = plan
        spec, d = self.spec, self.d
        new = np.zeros((4 + len(self.rest), len(z))) if cur is None else cur.copy()
        phi = z[:, :d]
        new[1] = spec.eval_log_joint(phi, z[:, d:])
        if phi_moved:
            new[3] = spec.eval_log_prior(phi)
            values = new[4:]
            for k in which:
                values[k] = self.rest[k].fn(z[:, self.cols[k]])
            # A subposterior's weighted sum is 0; skipping it keeps stage one fast.
            if not self.subposterior:
                weighted = self.coefs * new[3:]
                lr = weighted[0]
                for row in weighted[1:]:
                    lr = lr + row
                new[2] = lr
            if _has_inf(new[3:]):
                # Surface the inconsistency rather than silently rejecting.
                check_consistent(spec, new[1], new[3], phi)
                new[0] = neg_inf_policy(self.rest, values, new[1] + new[2],
                                        np.isneginf(new[1]))
                return new
        new[0] = new[1] + new[2]
        return new


def _stage_target(chain: ChainModel, factor: PoolFactorization, m: int) -> _StageTarget:
    """Stage target of submodel m, with its factor ``factor.terms[m]`` of the pool."""
    if len(factor.terms) != chain.n_submodels:
        raise UnsupportedConfigError(f"{len(factor.terms)} pool factors for a chain of "
                                     f"{chain.n_submodels} submodels")
    return _StageTarget(chain.submodels[m], factor.terms[m],
                        {b: chain.phi_blocks[b].dim for b in chain.blocks_of(m)})


class _FunctionTarget:
    """A batched log target ``fn(z)``, its only term."""

    def __init__(self, fn):
        self.fn = fn

    def plan(self, lo: int, hi: int):
        return None

    def evaluate(self, z, plan, cur):
        new = np.empty((1, len(z)))
        new[0] = self.fn(z)
        return new


# ---------------------------------------------------------------------------
# lockstep state, moves and sweep
# ---------------------------------------------------------------------------


class _Lockstep:
    """Every chain's state as one row of ``z``, with the target's terms."""

    __slots__ = ("target", "z", "terms")

    def __init__(self, target, z: np.ndarray):
        self.target = target
        self.z = z
        self.terms = target.evaluate(z, target.plan(0, z.shape[1]), None)

    @property
    def lp(self) -> np.ndarray:
        return self.terms[0]

    def move(self, prop: np.ndarray, plan, log_u: np.ndarray, log_q=None) -> np.ndarray:
        """Accept or reject every chain's proposal; returns the acceptance mask."""
        new = self.target.evaluate(prop, plan, self.terms)
        log_alpha = new[0] - self.terms[0]
        if log_q is not None:
            log_alpha += log_q
        acc = log_u < log_alpha
        np.copyto(self.z, prop, where=acc[:, None])
        np.copyto(self.terms, new, where=acc)
        return acc


def _initialize(target, sources, walk_coords, rngs, start=None):
    """Lockstep state with a finite target for every chain.

    A chain starts from one uniformly drawn row of each source followed by
    its walked coordinates at ``start`` (default: each coordinate's default
    value).  A chain whose target is -inf redraws its rows and jitters its
    walked coordinates with its own generator, up to ``_INIT_RETRIES``
    evaluations.  Returns the state and every chain's source rows.
    """
    chains = len(rngs)
    walk = np.empty((chains, len(walk_coords)))
    walk[:] = [_default_value(c) for c in walk_coords] if start is None else start
    rows = np.zeros((chains, len(sources)), dtype=int)
    redo = range(chains)
    for attempt in range(_INIT_RETRIES):
        for c in redo:
            rows[c] = [rngs[c].integers(len(s)) for s in sources]
            if attempt:
                walk[c] = _jitter(walk[c], walk_coords, rngs[c])
        parts = [s[rows[:, i]] for i, s in enumerate(sources)]
        state = _Lockstep(target, np.concatenate(parts + [walk], axis=1))
        redo = np.flatnonzero(state.lp == _NEG_INF)
        if not redo.size:
            return state, rows
    raise InitializationError(
        f"no finite-density initial state after {_INIT_RETRIES} attempts"
    )


def _stage_two_init(target, sources, walk_coords, rngs, start=None):
    """``_initialize`` for stage two, as its own function so that a trace can
    tell initial evaluations from proposals."""
    return _initialize(target, sources, walk_coords, rngs, start)


class _IndexMove:
    """Index resampling of state columns ``lo:lo + d`` from rows of ``source``.

    The block is updated unit by unit: each chain visits the units in its
    own random order every iteration and proposes each unit's columns from
    a uniformly drawn row.  Per-step arrays are laid out (iteration, step,
    chain) so that one step reads contiguous rows.
    """

    def __init__(self, state: _Lockstep, source, lo, units, rngs, n_iter, log_u):
        d = source.shape[1]
        self.state, self.cols, self.log_u = state, slice(lo, lo + d), log_u
        self.plan = state.target.plan(lo, lo + d)
        self.n_units = n = len(units)
        self.draws = _per_chain(
            rngs, lambda r: r.integers(len(source), size=(n_iter, n)), axis=-1
        )
        self.proposals = source[self.draws]
        self.order = self.where = None
        if n > 1:
            self.order = _per_chain(
                rngs, lambda r: r.permuted(np.tile(np.arange(n), (n_iter, 1)), axis=1),
                axis=-1,
            )
            masks = np.zeros((n, d), dtype=bool)
            for u, cols in enumerate(units):
                masks[u, list(cols)] = True
            self.where = masks[self.order]
        self.accepted = np.empty(self.draws.shape, dtype=bool)

    def __call__(self, t: int) -> None:
        state = self.state
        for j in range(self.n_units):
            prop = state.z.copy()
            if self.where is None:
                prop[:, self.cols] = self.proposals[t, j]
            else:
                np.copyto(prop[:, self.cols], self.proposals[t, j], where=self.where[t, j])
            self.accepted[t, j] = state.move(prop, self.plan, self.log_u[t, j])

    def rows(self, start: np.ndarray) -> np.ndarray:
        """Every chain's source row per unit after each iteration, (n_iter, chains, units).

        ``start`` holds each chain's initial row; a unit's row is the draw
        of its last accepted proposal.
        """
        n_iter, n, chains = self.draws.shape
        draws = self.draws.reshape(n_iter * n, chains)
        step = np.arange(n_iter * n).reshape(n_iter, n, 1)
        out = np.empty((n_iter, chains, n), dtype=int)
        for u in range(n):
            hit = self.accepted if self.order is None else self.accepted & (self.order == u)
            last = np.where(hit, step, -1).reshape(n_iter * n, chains)
            last = np.maximum.accumulate(last, axis=0)[n - 1 :: n]
            found = np.take_along_axis(draws, np.maximum(last, 0), axis=0)
            out[..., u] = np.where(last >= 0, found, start)
        return out


class _WalkMove:
    """Random walk on the state columns from ``lo`` on."""

    n_units = 1

    def __init__(self, state: _Lockstep, lo, coords, scales, rngs, n_iter, log_u):
        self.state, self.lo, self.log_u = state, lo, log_u
        self.walk = _Walk(coords, scales, rngs, n_iter)
        self.plan = state.target.plan(lo, state.z.shape[1])
        self.accepted = np.empty((n_iter, 1, len(rngs)), dtype=bool)

    def __call__(self, t: int) -> None:
        state, lo, walk = self.state, self.lo, self.walk
        if lo:
            prop = state.z.copy()
            prop[:, lo:] = walk.propose(state.z[:, lo:], t)
        else:
            prop = walk.propose(state.z, t)
        log_q = None if walk.log_q is None else walk.log_q[t]
        self.accepted[t, 0] = state.move(prop, self.plan, self.log_u[t, 0], log_q)


@dataclass(frozen=True)
class _Run:
    """Kept lockstep draws: states and log targets (chains, kept, ...), source
    rows per unit, and accept/proposal counts per move (index moves, then
    the walk)."""

    z: np.ndarray
    lp: np.ndarray
    rows: np.ndarray
    accepted: list
    proposed: list


def _run_chains(target, sources, units, walk_coords, kernel: MHKernelConfig, n_iter,
                chains, seed, warmup_frac, start=None, init=_initialize) -> _Run:
    """Lockstep Metropolis-within-Gibbs over ``chains`` chains.

    The state is one block per source, updated by index resampling in the
    units ``units[i]`` (column tuples within the block), followed by the
    walked coordinates, updated by one random-walk move.
    """
    if isinstance(chains, bool) or not isinstance(chains, (int, np.integer)) or chains < 1:
        raise UnsupportedConfigError(f"chains must be a positive integer, got {chains!r}")
    warmup, kept = split_warmup(n_iter, warmup_frac)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    scales = kernel.per_coord(len(walk_coords))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        state, start_rows = init(target, sources, walk_coords, rngs, start)
        # One uniform per move and chain-iteration, drawn in one block per chain.
        edges = np.cumsum([0] + [len(u) for u in units] + [1 if walk_coords else 0]).tolist()
        log_u = np.log(_per_chain(rngs, lambda r: r.random((n_iter, edges[-1])), axis=-1))
        moves, lo = [], 0
        for i, source in enumerate(sources):
            moves.append(_IndexMove(state, source, lo, units[i], rngs, n_iter,
                                    log_u[:, edges[i] : edges[i + 1]]))
            lo += source.shape[1]
        if walk_coords:
            moves.append(_WalkMove(state, lo, walk_coords, scales, rngs, n_iter,
                                   log_u[:, edges[-2] :]))
        z = np.empty((chains, kept, state.z.shape[1]))
        lp = np.empty((chains, kept))
        for t in range(n_iter):
            for move in moves:
                move(t)
            if t >= warmup:
                z[:, t - warmup] = state.z
                lp[:, t - warmup] = state.lp
    index_moves = moves[: len(sources)]
    rows = [m.rows(start_rows[:, i])[warmup:] for i, m in enumerate(index_moves)]
    rows = np.concatenate(rows, axis=-1) if rows else np.empty((kept, chains, 0), dtype=int)
    accepted = [int(m.accepted.sum()) for m in index_moves]
    accepted.append(int(moves[-1].accepted.sum()) if walk_coords else 0)
    proposed = [chains * n_iter * m.n_units for m in index_moves]
    proposed.append(chains * n_iter if walk_coords else 0)
    return _Run(z, lp, rows.transpose(1, 0, 2), accepted, proposed)


def _unit_gather(values: np.ndarray, rows: np.ndarray, units) -> np.ndarray:
    """For each unit u, the columns ``units[u]`` of ``values[rows[..., u]]``."""
    out = np.empty(rows.shape[:-1] + values.shape[1:])
    for u, cols in enumerate(units):
        cols = list(cols)
        out[..., cols] = values[rows[..., u]][..., cols]
    return out


def _one_unit(dim: int) -> tuple[tuple[int, ...]]:
    return (tuple(range(dim)),)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


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
    """MH chains targeting one end submodel's stage-one density.

    The target is p_k(phi, psi, Y) / p_k(phi) times the end's pool factor;
    with the subprior-ends factorization that factor is p_k(phi) itself,
    evaluated once, and the target is exactly the subposterior.
    """
    last = chain.n_submodels - 1
    if end not in (0, last):
        raise UnsupportedConfigError(f"stage one targets submodel 0 or {last}, got {end}")
    spec, block = chain.submodels[end], chain.phi_blocks[chain.blocks_of(end)[0]]
    coords = tuple(block.coords) + tuple(spec.psi_coords)
    run = _run_chains(_stage_target(chain, factor, end), (), (), coords, kernel, n_iter,
                      chains, seed, warmup_frac, start=init)
    kept = run.z.shape[1]
    draws = run.z.reshape(chains * kept, len(coords))
    return SampleStore(
        phi=draws[:, : block.dim].copy(),
        psi=draws[:, block.dim :].copy(),
        log_density=run.lp.reshape(-1),
        chain_id=np.repeat(np.arange(chains), kept),
        iteration=np.tile(np.arange(n_iter - kept, n_iter), chains),
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
    """Run the stage-one samplers of both ends, each from its own seed derived from ``seed``."""
    seed1, seed3 = np.random.SeedSequence(seed).generate_state(2).tolist()
    last = chain.n_submodels - 1
    return (
        run_stage_one(chain, 0, factor, kernel1, n_iter, chains, seed1, warmup_frac),
        run_stage_one(chain, last, factor, kernel3, n_iter, chains, seed3, warmup_frac),
    )


def run_random_walk(
    log_target,
    coords: Sequence[Coord],
    kernel: MHKernelConfig,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
    init: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int]:
    """Lockstep random-walk Metropolis on a batched log target.

    ``log_target`` maps states ``(chains, d)`` to ``(chains,)``.  Returns
    the kept draws ``(chains, kept, d)`` and the number of accepted moves.
    """
    run = _run_chains(_FunctionTarget(log_target), (), (), tuple(coords), kernel, n_iter,
                      chains, seed, warmup_frac, start=init)
    return run.z, run.accepted[0]


def _parallel_stage_two(chain, factor, store1, store3, kernel2, n_iter, chains, seed,
                        warmup_frac, uf1: UnitFactorization, uf3: UnitFactorization):
    spec2 = chain.submodels[1]
    d12, d23 = store1.phi.shape[1], store3.phi.shape[1]
    run = _run_chains(
        _stage_target(chain, factor, 1),
        (store1.phi, store3.phi),
        (uf1.phi_indices, uf3.phi_indices),
        tuple(spec2.psi_coords),
        kernel2,
        n_iter,
        chains,
        seed,
        warmup_frac,
        init=_stage_two_init,
    )
    n1, d = uf1.n_units, d12 + d23
    moves = ("phi1", "phi3", "psi2")
    return MeldedChainOutput(
        phi=(run.z[..., :d12], run.z[..., d12:d]),
        psi=(
            _unit_gather(store1.psi, run.rows[..., :n1], uf1.psi_indices),
            run.z[..., d:],
            _unit_gather(store3.psi, run.rows[..., n1:], uf3.psi_indices),
        ),
        indices=run.rows,
        accept_counts=dict(zip(moves, run.accepted)),
        proposal_counts=dict(zip(moves, run.proposed)),
    )


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
    """Metropolis-within-Gibbs targeting the melded posterior of an M = 3 chain.

    Each iteration: (i) propose (phi12, psi1) by index resampling from
    store1, (ii) likewise (phi23, psi3) from store3, (iii) generic MH on
    psi2.  Stage-one draws are proposed uniformly with replacement.
    """
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("parallel stage two requires M = 3")
    whole1 = UnitFactorization(_one_unit(store1.phi.shape[1]), _one_unit(store1.psi.shape[1]))
    whole3 = UnitFactorization(_one_unit(store3.phi.shape[1]), _one_unit(store3.psi.shape[1]))
    return _parallel_stage_two(chain, factor, store1, store3, kernel2, n_iter, chains,
                               seed, warmup_frac, whole1, whole3)


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
    """Stage two with individual-at-a-time updates of the end submodels (M = 3).

    Requires unit factorizations on submodels 1 and 3.  Units are visited
    in a fresh random order each iteration; each unit's slice is proposed
    from its own stage-one empirical marginal and accepted against the
    middle-submodel terms with the other units held at their current
    values.  With a single unit this is exactly the blocked sampler (same
    seeds give the same chain).
    """
    if chain.n_submodels != 3:
        raise UnsupportedConfigError("unitwise stage two requires M = 3")
    uf1, uf3 = chain.submodels[0].unit_factorization, chain.submodels[2].unit_factorization
    if uf1 is None or uf3 is None:
        raise UnsupportedConfigError(
            "unitwise updates need unit factorizations on submodels 0 and 2"
        )
    return _parallel_stage_two(chain, factor, store1, store3, kernel2, n_iter, chains,
                               seed, warmup_frac, uf1, uf3)


def run_sequential(
    chain: ChainModel,
    factor: PoolFactorization,
    kernels: Sequence[MHKernelConfig],
    n_iter: Union[int, Sequence[int]],
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """M-stage sequential sampler, one stage per submodel.

    Stage one targets the first submodel.  Stage s + 1 folds in submodel s:
    it index-resamples block s - 1 from stage s's kept draws and walks
    block s (except in the last stage) and psi_s.  ``kernels`` and
    ``n_iter`` (an int for every stage) hold one entry per stage.  Stage
    k's index move is ``s{k}_phi1`` when it draws from the stage-one store
    and ``s{k}_index`` otherwise; its walk is ``s{k}_psi{k}`` when it moves
    only psi and ``s{k}_move`` otherwise.
    """
    M = chain.n_submodels
    n_iter = (n_iter,) * M if isinstance(n_iter, int) else tuple(n_iter)
    kernels = tuple(kernels)
    if len(n_iter) != M or len(kernels) != M:
        raise UnsupportedConfigError(f"a chain of {M} submodels needs {M} kernels and "
                                     f"iteration counts, got {len(kernels)} and {len(n_iter)}")
    seeds = np.random.SeedSequence(seed).generate_state(M).tolist()
    store = run_stage_one(chain, 0, factor, kernels[0], n_iter[0], chains, seeds[0],
                          warmup_frac)
    draws, links = [store.draws], [None]  # per stage: kept draws and their source rows
    accept_counts, proposal_counts = {}, {}
    source = store.phi
    for s in range(1, M):
        spec, left = chain.submodels[s], chain.phi_blocks[s - 1]
        walk = () if s == M - 1 else tuple(chain.phi_blocks[s].coords)
        run = _run_chains(
            _stage_target(chain, factor, s), (source,), (_one_unit(left.dim),),
            walk + tuple(spec.psi_coords), kernels[s], n_iter[s], chains, seeds[s],
            warmup_frac, init=_stage_two_init,
        )
        k = s + 1
        moves = (f"s{k}_phi1" if s == 1 else f"s{k}_index",
                 f"s{k}_psi{k}" if not walk else f"s{k}_move")
        accept_counts.update(zip(moves, run.accepted))
        proposal_counts.update(zip(moves, run.proposed))
        draws.append(run.z.reshape(-1, run.z.shape[2]))
        links.append(run.rows.reshape(-1))
        source = np.ascontiguousarray(draws[s][:, left.dim : left.dim + len(walk)])
    # Trace every kept draw of the last stage back through the earlier stages.
    at = [None] * M
    at[-1] = np.arange(draws[-1].shape[0]).reshape(chains, -1)
    for s in range(M - 1, 0, -1):
        at[s - 1] = links[s][at[s]]
    return MeldedChainOutput(
        phi=tuple(draws[b + 1][at[b + 1], : block.dim]
                  for b, block in enumerate(chain.phi_blocks)),
        psi=tuple(draws[m][at[m], draws[m].shape[1] - spec.psi_dim :]
                  for m, spec in enumerate(chain.submodels)),
        indices=np.stack(at[-2::-1], axis=-1),
        accept_counts=accept_counts,
        proposal_counts=proposal_counts,
    )
