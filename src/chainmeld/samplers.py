"""Multi-stage MCMC for the chained melded posterior.

The stage of submodel m targets its joint over its own prior marginal,
times its factor ``factor.terms[m]`` of the pooled prior, and reuses
earlier stages' draws as index-resampling proposals, so no stage
re-evaluates an earlier stage's submodel.  The sequential sampler folds in
the submodels of a chain of any length one at a time
(``run_sequential(chain, factor, scales, n_iter, ...)``, one step scale and
iteration count per stage).  The parallel sampler (M = 3) samples both ends
in stage one and reuses both stores in a Gibbs sweep over the middle
submodel; its unitwise variant updates independent units of the ends one at
a time.  A stage-one ``SampleStore`` holds what later stages read: the
end's kept draws of its block and of its psi, chain by chain, and the
block's coordinates.  Every runner takes the step scale of its random walk
as a float >= 0.

Every stage advances all of its chains in lockstep.  The chains' states
are the rows of one ``(chains, d)`` array; each move proposes for every
chain, evaluates all proposals in one batched call and accepts with a
mask.  Each chain has its own generator, spawned from the stage's seed.
Once the chain is initialized, it draws the whole stage's stage-one
indices, proposal noise, unit orders and uniforms in blocks, and every
move consumes one uniform.  A chain's draws therefore depend on its own
generator only: with evaluators that give each row of a batch the value
they give that row alone, chain c of one stage over fixed stage-one stores
is the same whatever the number of chains beside it.  A whole run keeps
that only while its stores do not pool chains: every ``run_sequential``
stage after the first, and a parallel stage two over stores that hold
every chain's kept draws (as the CLI's do), index-resample from all
chains' draws, so the store length, and with it every index draw, changes
with the number of chains.

Moves are evaluated per state or per move.  A stage whose state columns
are all discrete and whose state space has no more states than the stage
has move evaluations (chains x iterations x moves per iteration) evaluates
its log target at every state once, when it starts: every term of every
state, enumerated in row-major order, in one batched call.  Each move then
looks its proposals up with one gather at their flat indices, and the
chains' states cache the log target alone.  If the call raises (a NaN, or
a finite joint at a -inf prior marginal, at a state the run may never
visit), or a stage-one store holds a value that is not a category, the
stage evaluates its moves as a continuous one does.  With evaluators that
give each row of a batch the value they give that row alone, the draws
are the same either way.

Otherwise every move evaluates per move, for all chains in one call: the
joint, and, when it changes phi, the prior marginal log p_m and each other
pool term that reads a block it changes.  A move whose proposals are fixed
before the stage starts (a whole-block index move: both ends of the
parallel stage two and every sequential index move; the walk of a stage
one whose coordinates are all discrete) evaluates each pool term that
reads only the blocks it replaces for the whole stage in one call instead.
A unitwise move mixes rows, so its terms are per move.  A batched call
that raises is redone move by move, so a run raises the first error that
evaluating every move raises.  Initial states and moves alike call the
submodel's joint and prior marginal through ``SubmodelSpec.eval_log_joint``
and ``eval_log_prior``, and every other pool term as the factor holds it;
each submodel evaluator counts every call, and every result, of those and of
the other pool terms, is checked for its batch shape and for NaN.

A subposterior target (under ``subprior-ends``, stage one and the last
sequential stage) reads no log p_m in its moves.  A table checks that a
finite joint never meets a -inf prior marginal at every state; otherwise
the check runs in one batched call per ``_CHECK_BATCH`` (1024) moves, as
the moves run and once at the end of the stage.  An inconsistent submodel
therefore fails at most one batch later, with the error a check of every
move would raise first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import numpy.random  # noqa: F401  (loaded at import, not inside the first run)

from .chain import (ChainModel, Coord, SubmodelSpec, UnitFactorization, check_consistent,
                    checked, unit_additivity_gap)
from .errors import (
    InitializationError,
    StructureError,
    UnsupportedConfigError,
)
from .pooling import PoolFactorization, neg_inf_policy, split_term

__all__ = [
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
_CHECK_BATCH = 1024  # moves whose prior marginal one deferred check evaluates
_PROBE_ROWS = 8  # distinct stage-one draws whose pairs probe an end's unit additivity
_ADDITIVITY_TOL = 1e-8  # largest unit additivity gap of an end's log joint
_NEG_INF = -math.inf


@dataclass(frozen=True)
class SampleStore:
    """An end's kept stage-one draws of its block (``phi``, with its coordinates
    ``phi_coords``) and of its psi, one row per draw, chain by chain."""

    phi: np.ndarray
    psi: np.ndarray
    phi_coords: tuple[Coord, ...]

    def __post_init__(self):
        if self.phi.shape[0] < 1:
            raise StructureError("sample store must hold at least one draw")

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
        """Accepts over proposals of every move that made a proposal."""
        return {k: self.accept_counts[k] / n
                for k, n in sorted(self.proposal_counts.items()) if n}

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
# A target evaluates the proposals of every chain at once.  A state caches
# its terms: the log target of every chain (-inf off the target's support),
# or the rows of one (terms, chains) array: the log target, the weighted sum
# of the marginal terms, then each marginal term.  ``initial(z)`` evaluates
# them for every row of z.  ``kernel(lo, hi, proposals)`` binds, once per
# stage, the move of state columns lo:hi: a function ``(z, cur, t) -> new``
# that gives the terms of every row of z at iteration t, re-evaluating the
# joint and the terms the move changes and copying the others from cur, or
# reading them from the terms of the stage's ``proposals`` when those were
# evaluated when the stage started.
# Off-support values are rare, so the -inf policy runs only where some term
# is -inf.


def _tabulate(fn, proposals: np.ndarray):
    """``fn`` of every proposal (iterations, chains, width) in one call, as
    (iterations, chains) floats; None if the call raises."""
    try:
        flat = proposals.reshape(-1, proposals.shape[-1])
        return np.array(fn(flat), dtype=float).reshape(proposals.shape[:2])
    except Exception:
        return None


class _StageTarget:
    """One submodel's stage target, log p_m(phi, psi, Y) - log p_m(phi) + its pool factor.

    The state is the submodel's shared blocks, in chain order, then psi_m.
    ``terms`` is the stage's factor of the pooled prior as weighted
    log-marginal terms over chain blocks, and ``widths`` maps each of the
    submodel's blocks to its width.  The coefficient c of log p_m among the
    terms merges with the divided-out marginal, so the target is the log
    joint + (c - 1) log p_m + the other terms, and with c = 1 and no other
    term it is exactly the subposterior.  Terms: log target, (c - 1) log p_m
    + the other terms, then the marginal terms: log p_m and each other term.
    A move evaluates the joint and only the marginal terms that read a block
    it changes.  A subposterior's state keeps only the log target, and its
    moves defer log p_m to ``check_pending``.

    Initial states and moves evaluate the submodel through ``eval_log_joint``
    and ``eval_log_prior``, and every other term with its results checked
    the same way (``checked``), or, when every state column has a
    cardinality in ``cards`` (None for a continuous column), moves read the
    log target from a table of every state (``tabulate``).
    """

    def __init__(self, spec: SubmodelSpec, terms, widths: dict[int, int], cards):
        self.spec = spec
        self.cards = cards if all(cards) else None
        self.table = None
        coef, self.rest = split_term(terms, spec.eval_log_prior, tuple(widths))
        self.coefs = np.array([coef - 1.0] + [t.coef for t in self.rest])[:, None]
        self.subposterior = coef == 1.0 and not self.rest
        edges = np.cumsum([0, *widths.values()]).tolist()
        self.bounds = {b: (edges[i], edges[i + 1]) for i, b in enumerate(widths)}
        self.d = edges[-1]
        self.width = self.d + spec.psi_dim
        self.joint = spec.eval_log_joint
        # Each marginal term's row in the terms, evaluator, blocks and state
        # columns (None for all of phi).
        self.marginals = [(2, spec.eval_log_prior, tuple(widths), None)]
        for i, t in enumerate(self.rest):
            a, e = self.bounds[t.blocks[0]][0], self.bounds[t.blocks[-1]][1]
            cols = None if (a, e) == (0, self.d) else slice(a, e)
            fn = checked(t.fn, spec.index, f"pool term over blocks {t.blocks}")
            self.marginals.append((3 + i, fn, t.blocks, cols))
        self._phi = self._lj = None  # deferred checks' states and joints
        self._pending = 0

    def initial(self, z):
        """The terms of every row of z, all evaluated."""
        new = self._every(z)
        return new[0] if self.subposterior else new

    def _every(self, z):
        """Every term of every row of z."""
        every = [(row, fn, cols) for row, fn, _, cols in self.marginals]
        return self._fill(z, np.zeros((2 + len(every), len(z))), every, (), None)

    def tabulate(self, state: _Lockstep, sources, evaluations: int) -> None:
        """Evaluate the log target of every state once, when that costs no more
        than the stage's ``evaluations`` move evaluations.

        Applies when every state column is discrete and the sources hold only
        category values.  States are enumerated in row-major order, every term
        of them in one batched call, and each move reads its log target from
        the table with one gather; ``state`` then caches the log target alone.
        If the call raises (a NaN, or a finite joint at a -inf prior marginal,
        at a state the run may never visit), the moves evaluate as they go.
        """
        cards = self.cards
        if cards is None or math.prod(cards) > evaluations:
            return
        lo = 0
        for source in sources:
            c = np.array(cards[lo : lo + source.shape[1]])
            if not ((source >= 0) & (source < c) & (source == np.floor(source))).all():
                return
            lo += source.shape[1]
        states = np.indices(cards, dtype=float).reshape(len(cards), -1).T.copy()
        try:
            self.table = self._every(states)[0].copy()
        except Exception:
            return
        self.strides = np.array([math.prod(cards[i + 1 :]) for i in range(len(cards))],
                                dtype=float)
        if state.terms.ndim > 1:
            state.terms = state.terms[0]

    def kernel(self, lo: int, hi: int, proposals=None):
        """The move of state columns lo:hi.

        With a table of every state, the move looks up its proposals' log
        target.  ``proposals`` (iterations, chains, hi - lo) holds every
        proposal of a move whose proposals are fixed before the stage starts.
        With a table, a move that writes the whole state looks all of them up
        at once, and the move at iteration t reads row t.  Without one, each
        marginal term that reads only the moved blocks is evaluated for all of
        them in one batched call; if that call raises, the move evaluates the
        term move by move instead, so the first error raised is the one a run
        that evaluates every move raises.
        """
        if self.table is not None:
            table, strides = self.table, self.strides
            if proposals is not None and hi - lo == self.width:
                values = table[proposals.dot(strides).astype(np.intp)]
                return lambda z, cur, t: values[t]
            return lambda z, cur, t: table[z.dot(strides).astype(np.intp)]
        moved = {b for b, (a, e) in self.bounds.items() if a < hi and lo < e}
        joint, d = self.joint, self.d
        if self.subposterior:
            defer = self._defer_check if moved else None

            def log_target(z, cur, t):
                # The joint is the log target; only the consistency check reads
                # log p_m, and it runs in batches.
                phi = z[:, :d]
                lj = joint(phi, z[:, d:])
                if defer is not None:
                    defer(phi, lj)
                return lj.astype(float)

            return log_target
        live, tables = [], []
        for row, fn, blocks, cols in self.marginals:
            if moved.isdisjoint(blocks):
                continue
            values = None
            if proposals is not None and moved.issuperset(blocks):
                a, e = self.bounds[blocks[0]][0] - lo, self.bounds[blocks[-1]][1] - lo
                values = _tabulate(fn, proposals[..., a:e])
            if values is None:
                live.append((row, fn, cols))
            else:
                tables.append((row, values))
        fill = self._fill
        return lambda z, cur, t: fill(z, cur.copy(), live, tables, t)

    def _fill(self, z, new, live, tables, t):
        """``new`` with the marginal terms ``live`` (row, evaluator, columns)
        of z, the terms ``tables`` (row, values) of iteration t, their weighted
        sum, and the log target: the joint of z plus that sum."""
        d = self.d
        phi = z[:, :d]
        lj = new[0]  # the joint, until the weighted sum is added in place
        lj[:] = self.joint(phi, z[:, d:])
        for row, fn, cols in live:
            new[row] = fn(phi if cols is None else z[:, cols])
        for row, values in tables:
            new[row] = values[t]
        lr, odd = new[1], False  # a move of psi alone keeps the current state's sum
        if self.subposterior:
            # Its weighted sum is 0 (only initial states and tables get here).
            odd = not np.isfinite(new[2]).all()
        elif live or tables:
            # Row by row, in order (an accumulation never pairs).  The sum is
            # finite exactly when every term is, and so is its sum of squares,
            # unless one overflows, which only takes the slower path below.
            new[1] = lr = np.add.accumulate(self.coefs * new[2:])[-1]
            odd = not math.isfinite(lr.dot(lr))
        if odd:
            # Surface the inconsistency rather than silently rejecting.
            check_consistent(self.spec, lj, new[2], phi)
            new[0] = neg_inf_policy(self.rest, new[3:], lj + lr, np.isneginf(lj))
        else:
            lj += lr
        return new

    def _defer_check(self, phi, lj):
        if self._phi is None:
            self._phi = np.empty((_CHECK_BATCH, *phi.shape))
            self._lj = np.empty((_CHECK_BATCH, len(lj)))
        self._phi[self._pending] = phi
        self._lj[self._pending] = lj
        self._pending += 1
        if self._pending == _CHECK_BATCH:
            self.check_pending()

    def check_pending(self):
        """Run the deferred consistency checks: the moves' states phi (moves,
        chains, d) against their joints, in one batched prior marginal call.

        If that call raises, the moves are checked again one by one, so the
        error raised is the first one that checking every move as it was
        proposed would raise.
        """
        n, self._pending = self._pending, 0
        if not n:
            return
        spec, phi, lj = self.spec, self._phi[:n], self._lj[:n]
        try:
            flat = phi.reshape(-1, phi.shape[-1])
            check_consistent(spec, lj.reshape(-1), spec.eval_log_prior(flat), flat)
        except Exception:
            for p, j in zip(phi, lj):
                check_consistent(spec, j, spec.eval_log_prior(p), p)
            raise


def _stage_target(chain: ChainModel, factor: PoolFactorization, m: int) -> _StageTarget:
    """Stage target of submodel m, with its factor ``factor.terms[m]`` of the pool."""
    if len(factor.terms) != chain.n_submodels:
        raise UnsupportedConfigError(f"{len(factor.terms)} pool factors for a chain of "
                                     f"{chain.n_submodels} submodels")
    spec, blocks = chain.submodels[m], chain.blocks_of(m)
    coords = [c for b in blocks for c in chain.phi_blocks[b].coords] + list(spec.psi_coords)
    return _StageTarget(spec, factor.terms[m], {b: chain.phi_blocks[b].dim for b in blocks},
                        [c.cardinality for c in coords])


class _FunctionTarget:
    """A batched log target ``fn(z)``, its only term."""

    def __init__(self, fn):
        self.fn = fn

    def initial(self, z):
        new = np.empty(len(z))
        new[:] = self.fn(z)
        return new

    def tabulate(self, state, sources, evaluations: int) -> None:
        pass

    def kernel(self, lo: int, hi: int, proposals=None):
        initial = self.initial
        return lambda z, cur, t: initial(z)

    def check_pending(self):
        pass


# ---------------------------------------------------------------------------
# lockstep state, moves and sweep
# ---------------------------------------------------------------------------


class _Lockstep:
    """Every chain's state as one row of ``z``, with its cached target terms."""

    __slots__ = ("z", "terms")

    def __init__(self, z: np.ndarray, terms: np.ndarray):
        self.z, self.terms = z, terms

    def accept(self, prop: np.ndarray, new: np.ndarray, log_u: np.ndarray,
               log_q=None) -> np.ndarray:
        """Accept or reject every chain's proposal, whose terms are ``new``;
        returns the acceptance mask."""
        log_alpha = new - self.terms if new.ndim == 1 else new[0] - self.terms[0]
        if log_q is not None:
            log_alpha += log_q
        acc = log_u < log_alpha
        n_acc = np.count_nonzero(acc)
        if n_acc == len(acc):
            self.z, self.terms = prop, new
        elif n_acc:
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
        z = np.concatenate(parts + [walk], axis=1)
        terms = target.initial(z)
        redo = np.flatnonzero((terms if terms.ndim == 1 else terms[0]) == _NEG_INF)
        state = _Lockstep(z, terms)
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
    chain) so that one step reads contiguous rows.  A move of the whole
    block (one unit) hands the target all of its proposals: a table of
    every state looks them all up at once when the block is the whole
    state, and otherwise each term of the block alone is evaluated once per
    stage.  ``step(t)`` makes iteration t's moves.
    """

    def __init__(self, state: _Lockstep, target, source, lo, units, rngs, n_iter, log_u):
        d = source.shape[1]
        cols = slice(lo, lo + d)
        n = len(units)
        self.draws = _per_chain(
            rngs, lambda r: r.integers(len(source), size=(n_iter, n)), axis=-1
        )
        proposals = source[self.draws]
        self.order = where = None
        if n > 1:
            self.order = _per_chain(
                rngs, lambda r: r.permuted(np.tile(np.arange(n), (n_iter, 1)), axis=1),
                axis=-1,
            )
            masks = np.zeros((n, d), dtype=bool)
            for u, unit_cols in enumerate(units):
                masks[u, list(unit_cols)] = True
            where = masks[self.order]
        self.accepted = accepted = np.empty(self.draws.shape, dtype=bool)
        kernel = target.kernel(lo, lo + d, proposals[:, 0] if n == 1 else None)
        accept = state.accept

        if n == 1:
            whole = d == state.z.shape[1]

            def step(t):
                if whole:  # the proposal is the drawn row
                    prop = proposals[t, 0]
                else:
                    prop = state.z.copy()
                    prop[:, cols] = proposals[t, 0]
                accepted[t, 0] = accept(prop, kernel(prop, state.terms, t), log_u[t, 0])
        else:
            def step(t):
                props, masks, us, acc = proposals[t], where[t], log_u[t], accepted[t]
                for j in range(n):
                    prop = state.z.copy()
                    np.copyto(prop[:, cols], props[j], where=masks[j])
                    acc[j] = accept(prop, kernel(prop, state.terms, t), us[j])

        self.step = step

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
    """Random walk on the state columns from ``lo`` on.

    A proposal is ``x * mult + step``.  Real coordinates step by
    scale * N(0, 1); positive ones are multiplied by exp(scale * N(0, 1)),
    whose Jacobian is log q; discrete ones are redrawn uniformly over their
    categories.  ``mult`` and ``log_q`` are None when no coordinate needs
    them; when every coordinate is discrete, the proposal is the step
    itself.  Each chain draws its steps for every iteration in one block; the
    arrays are laid out (iteration, chain, ...).  ``step(t)`` makes
    iteration t's move.
    """

    def __init__(self, state: _Lockstep, target, lo, coords, scale, rngs, n_iter, log_u):
        self.accepted = np.empty((n_iter, 1, len(rngs)), dtype=bool)
        kinds = [c.kind for c in coords]
        cont = [i for i, k in enumerate(kinds) if k != "discrete"]
        disc = [i for i, k in enumerate(kinds) if k == "discrete"]
        pos = [i for i, k in enumerate(kinds) if k == "positive"]
        cards = [coords[i].cardinality for i in disc]

        def draw(rng):
            step = np.empty((n_iter, len(coords)))
            step[:, cont] = scale * rng.standard_normal((n_iter, len(cont)))
            if disc:
                step[:, disc] = rng.integers(cards, size=(n_iter, len(disc)))
            return step

        steps = _per_chain(rngs, draw)
        # With every coordinate redrawn, the proposal is the step itself, fixed
        # before the stage starts; a walk of the whole state then hands the
        # target all of its proposals, for its table or its pool terms.
        redrawn = not cont
        mult = log_q = None
        if pos:
            log_q = steps[..., pos].sum(axis=-1)
        if pos or disc and not redrawn:
            mult = np.ones_like(steps)
            mult[..., pos] = np.exp(steps[..., pos])
            mult[..., disc] = 0.0
            steps[..., pos] = 0.0
        kernel = target.kernel(lo, state.z.shape[1], steps if redrawn and not lo else None)
        accept, accepted, log_u = state.accept, self.accepted[:, 0], log_u[:, 0]

        def step(t):
            z = state.z
            if redrawn:
                x = steps[t]
            else:
                x = z[:, lo:] if lo else z
                x = x + steps[t] if mult is None else x * mult[t] + steps[t]
            if lo:
                prop = z.copy()
                prop[:, lo:] = x
            else:
                prop = x
            accepted[t] = accept(prop, kernel(prop, state.terms, t), log_u[t],
                                 None if log_q is None else log_q[t])

        self.step = step


@dataclass(frozen=True)
class _Run:
    """Kept lockstep states (chains, kept, d), source rows per unit, and
    accept/proposal counts per move (index moves, then the walk)."""

    z: np.ndarray
    rows: np.ndarray
    accepted: list
    proposed: list


def _run_chains(target, sources, units, walk_coords, scale: float, n_iter, chains, seed,
                warmup_frac, start=None) -> _Run:
    """Lockstep Metropolis-within-Gibbs over ``chains`` chains.

    The state is one block per source, updated by index resampling in the
    units ``units[i]`` (column tuples within the block), followed by the
    walked coordinates, updated by one random-walk move with step ``scale``.
    """
    if isinstance(chains, bool) or not isinstance(chains, (int, np.integer)) or chains < 1:
        raise UnsupportedConfigError(f"chains must be a positive integer, got {chains!r}")
    if not scale >= 0:  # NaN fails too
        raise UnsupportedConfigError(f"proposal scale must be >= 0, got {scale!r}")
    warmup, kept = split_warmup(n_iter, warmup_frac)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        init = _stage_two_init if sources else _initialize
        state, start_rows = init(target, sources, walk_coords, rngs, start)
        # One uniform per move and chain-iteration, drawn in one block per chain.
        edges = np.cumsum([0] + [len(u) for u in units] + [1 if walk_coords else 0]).tolist()
        target.tabulate(state, sources, chains * n_iter * edges[-1])
        log_u = np.log(_per_chain(rngs, lambda r: r.random((n_iter, edges[-1])), axis=-1))
        moves, lo = [], 0
        for i, source in enumerate(sources):
            moves.append(_IndexMove(state, target, source, lo, units[i], rngs, n_iter,
                                    log_u[:, edges[i] : edges[i + 1]]))
            lo += source.shape[1]
        if walk_coords:
            moves.append(_WalkMove(state, target, lo, walk_coords, scale, rngs, n_iter,
                                   log_u[:, edges[-2] :]))
        z = np.empty((chains, kept, state.z.shape[1]))
        steps = [move.step for move in moves]
        try:
            for t in range(n_iter):
                for step in steps:
                    step(t)
                if t >= warmup:
                    z[:, t - warmup] = state.z
        finally:
            # Also when a move raises: an earlier inconsistency is the first error.
            target.check_pending()
    rows = [m.rows(start_rows[:, i])[warmup:] for i, m in enumerate(moves[: len(sources)])]
    rows = np.concatenate(rows, axis=-1) if rows else np.empty((kept, chains, 0), dtype=int)
    accepted = [int(m.accepted.sum()) for m in moves]
    proposed = [m.accepted.size for m in moves]
    if not walk_coords:
        accepted.append(0)
        proposed.append(0)
    return _Run(z, rows.transpose(1, 0, 2), accepted, proposed)


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
    scale: float,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
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
    run = _run_chains(_stage_target(chain, factor, end), (), (), coords, scale, n_iter,
                      chains, seed, warmup_frac)
    draws = run.z.reshape(-1, len(coords))
    return SampleStore(draws[:, : block.dim].copy(), draws[:, block.dim :].copy(),
                       tuple(block.coords))


def run_stage_one_pair(
    chain: ChainModel,
    factor: PoolFactorization,
    scale: float,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> tuple[SampleStore, SampleStore]:
    """Run the stage-one samplers of both ends with step ``scale``, each from its own
    seed derived from ``seed``."""
    seed1, seed3 = np.random.SeedSequence(seed).generate_state(2).tolist()
    last = chain.n_submodels - 1
    return (
        run_stage_one(chain, 0, factor, scale, n_iter, chains, seed1, warmup_frac),
        run_stage_one(chain, last, factor, scale, n_iter, chains, seed3, warmup_frac),
    )


def run_random_walk(
    log_target,
    coords: Sequence[Coord],
    scale: float,
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
    run = _run_chains(_FunctionTarget(log_target), (), (), tuple(coords), scale, n_iter,
                      chains, seed, warmup_frac, start=init)
    return run.z, run.accepted[0]


def _parallel_stage_two(chain, factor, store1, store3, scale, n_iter, chains, seed,
                        warmup_frac, uf1: UnitFactorization, uf3: UnitFactorization):
    spec2 = chain.submodels[1]
    d12, d23 = store1.phi.shape[1], store3.phi.shape[1]
    run = _run_chains(
        _stage_target(chain, factor, 1),
        (store1.phi, store3.phi),
        (uf1.phi_indices, uf3.phi_indices),
        tuple(spec2.psi_coords),
        scale,
        n_iter,
        chains,
        seed,
        warmup_frac,
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
    scale: float,
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
    return _parallel_stage_two(chain, factor, store1, store3, scale, n_iter, chains,
                               seed, warmup_frac, whole1, whole3)


def _check_units_additive(spec: SubmodelSpec, store: SampleStore) -> None:
    """Raise ``StructureError`` unless the end's log joint is a sum of per-unit
    terms at every pair of up to ``_PROBE_ROWS`` distinct rows of its store.

    The rows are the first distinct ones among 64 evenly spaced store rows,
    so the probe draws no random numbers.  A gap above ``_ADDITIVITY_TOL``
    means the units do not factorize the joint, and unitwise proposals from
    the store's per-unit marginals would target the wrong posterior.
    """
    if spec.unit_factorization.n_units < 2:
        return
    at = np.linspace(0, len(store.phi) - 1, 64).round().astype(int)
    _, first = np.unique(np.concatenate([store.phi[at], store.psi[at]], axis=1), axis=0,
                         return_index=True)
    for a, b in itertools.combinations(at[np.sort(first)[:_PROBE_ROWS]], 2):
        gap = unit_additivity_gap(spec, store.phi[a], store.psi[a], store.phi[b], store.psi[b])
        if not gap <= _ADDITIVITY_TOL:
            raise StructureError(
                f"submodel {spec.index}: its units do not factorize log_joint (unit "
                f"additivity gap {gap:.3g} > {_ADDITIVITY_TOL:g} between stage-one draws "
                f"{a} and {b}); unitwise updates need a joint that is a sum of per-unit terms")


def run_parallel_stage_two_unitwise(
    chain: ChainModel,
    factor: PoolFactorization,
    store1: SampleStore,
    store3: SampleStore,
    scale: float,
    n_iter: int,
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """Stage two with individual-at-a-time updates of the end submodels (M = 3).

    Requires unit factorizations on submodels 0 and 2 that factorize their
    log joints; a probe at pairs of stored draws (``_check_units_additive``)
    raises ``StructureError`` before sampling when they do not.  Units are visited
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
    _check_units_additive(chain.submodels[0], store1)
    _check_units_additive(chain.submodels[2], store3)
    return _parallel_stage_two(chain, factor, store1, store3, scale, n_iter, chains,
                               seed, warmup_frac, uf1, uf3)


def run_sequential(
    chain: ChainModel,
    factor: PoolFactorization,
    scales: Sequence[float],
    n_iter: Union[int, Sequence[int]],
    chains: int = 1,
    seed: int = 0,
    warmup_frac: float = 0.1,
) -> MeldedChainOutput:
    """M-stage sequential sampler, one stage per submodel.

    Stage one targets the first submodel.  Stage s + 1 folds in submodel s:
    it index-resamples block s - 1 from stage s's kept draws and walks
    block s (except in the last stage) and psi_s.  ``scales`` (the step
    scale of each stage's walk) and ``n_iter`` (an int for every stage) hold
    one entry per stage.  Stage
    k's index move is ``s{k}_phi1`` when it draws from the stage-one store
    and ``s{k}_index`` otherwise; its walk is ``s{k}_psi{k}`` when it moves
    only psi and ``s{k}_move`` otherwise.
    """
    M = chain.n_submodels
    n_iter = (n_iter,) * M if isinstance(n_iter, int) else tuple(n_iter)
    scales = tuple(scales)
    if len(n_iter) != M or len(scales) != M:
        raise UnsupportedConfigError(f"a chain of {M} submodels needs {M} scales and "
                                     f"iteration counts, got {len(scales)} and {len(n_iter)}")
    seeds = np.random.SeedSequence(seed).generate_state(M).tolist()
    store = run_stage_one(chain, 0, factor, scales[0], n_iter[0], chains, seeds[0],
                          warmup_frac)
    draws, links = [store.draws], [None]  # per stage: kept draws and their source rows
    accept_counts, proposal_counts = {}, {}
    source = store.phi
    for s in range(1, M):
        spec, left = chain.submodels[s], chain.phi_blocks[s - 1]
        walk = () if s == M - 1 else tuple(chain.phi_blocks[s].coords)
        run = _run_chains(
            _stage_target(chain, factor, s), (source,), (_one_unit(left.dim),),
            walk + tuple(spec.psi_coords), scales[s], n_iter[s], chains, seeds[s],
            warmup_frac,
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
