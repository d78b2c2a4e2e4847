import dataclasses
import itertools
import math

import numpy as np
import pytest

from chainmeld import (
    ChainModel,
    Coord,
    InitializationError,
    ModelInconsistencyError,
    StructureError,
    SubmodelSpec,
    UnitFactorization,
    UnsupportedConfigError,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    empirical_table,
    enumerate_melded_posterior,
    factorize_for_sampler,
    log_pooling,
    run_parallel_stage_two,
    run_parallel_stage_two_unitwise,
    run_random_walk,
    run_sequential,
    run_stage_one,
    run_stage_one_pair,
    tv_distance,
)
from chainmeld.chain import real_coords
from chainmeld.pooling import PoolTerm

from conftest import make_discrete_chain, make_long_chain, random_table


SCALE = 0.8
SCALES = (SCALE,) * 3


def _gaussian_setup(seed=0, **params):
    built = builtin_gaussian_chain(**params)
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    factor = factorize_for_sampler(pool, "subprior-ends")
    return built, pool, factor


class TestMHStep:
    """The random-walk Metropolis-Hastings kernel alone, on one chain."""

    def test_standard_normal_target(self):
        draws, _ = run_random_walk(lambda z: -0.5 * z[:, 0] ** 2, real_coords(1), SCALE,
                                   20000, seed=1)
        draws = draws[0, :, 0]
        assert abs(draws.mean()) < 0.05
        assert draws.var() == pytest.approx(1.0, abs=0.1)

    def test_positive_coordinate_stays_positive(self):
        # Exponential(1), density on x > 0
        draws, _ = run_random_walk(lambda z: -z[:, 0], (Coord("positive"),), SCALE, 30000,
                                   seed=2)
        draws = draws[0, :, 0]
        assert (draws > 0).all()
        assert draws.mean() == pytest.approx(1.0, abs=0.1)

    def test_discrete_coordinate_resampled_uniformly(self):
        log_w = np.log(np.array([0.2, 0.5, 0.3]))
        draws, _ = run_random_walk(lambda z: log_w[z[:, 0].astype(int)],
                                   (Coord("discrete", 3),), SCALE, 30000, seed=3)
        freq = np.bincount(draws[0, :, 0].astype(int), minlength=3) / draws.shape[1]
        np.testing.assert_allclose(freq, np.exp(log_w), atol=0.02)

    def test_kernel_validation(self):
        # Every public runner rejects a bad scale, also for a stage that walks
        # nothing: without tau, the Gaussian chain's parallel stage two and
        # sequential stage three have no coordinate to walk.
        built, _, factor = _gaussian_setup()
        model = built.model
        assert not model.submodels[1].psi_coords and not model.submodels[2].psi_coords
        s1, s3 = run_stage_one_pair(model, factor, SCALE, 200, seed=1)
        units = make_discrete_chain()
        unit_factor = factorize_for_sampler(log_pooling(units.model, [0.5] * 3), "subprior-ends")
        u1, u3 = run_stage_one_pair(units.model, unit_factor, SCALE, 200, seed=1)
        for scale in (-0.1, math.nan):
            runs = [
                lambda: run_random_walk(lambda z: -z[:, 0] ** 2, real_coords(1), scale, 200),
                lambda: run_stage_one(model, 0, factor, scale, 200),
                lambda: run_stage_one_pair(model, factor, scale, 200),
                lambda: run_parallel_stage_two(model, factor, s1, s3, scale, 200),
                lambda: run_parallel_stage_two_unitwise(units.model, unit_factor, u1, u3,
                                                        scale, 200),
                lambda: run_sequential(model, factor, (SCALE, SCALE, scale), 200),
            ]
            for run in runs:
                with pytest.raises(UnsupportedConfigError, match="scale must be >= 0"):
                    run()


class TestStageOne:
    def test_targets_subposterior(self):
        # prior N(0,1), one observation y=1 with unit noise: posterior N(0.5, 0.5)
        built, _, factor = _gaussian_setup(mu1=0.0, y1=[1.0], s1=1.0)
        store = run_stage_one(built.model, 0, factor, SCALE, 40000, chains=2, seed=5)
        assert store.phi.mean() == pytest.approx(0.5, abs=0.03)
        assert store.phi.var() == pytest.approx(0.5, abs=0.05)

    def test_seed_determinism(self):
        built, _, factor = _gaussian_setup()
        a = run_stage_one(built.model, 0, factor, SCALE, 2000, seed=9)
        b = run_stage_one(built.model, 0, factor, SCALE, 2000, seed=9)
        c = run_stage_one(built.model, 0, factor, SCALE, 2000, seed=10)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert not np.array_equal(a.phi, c.phi)

    def test_chain_bookkeeping(self):
        built, _, factor = _gaussian_setup()
        store = run_stage_one(built.model, 0, factor, SCALE, 1000, chains=3, seed=1)
        # the kept 900 draws of each chain (chain-major: see TestLockstep)
        assert store.phi.shape == (3 * 900, 1) and store.psi.shape == (3 * 900, 0)
        assert store.phi_coords == built.model.phi_blocks[0].coords

    def test_invalid_end(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError):
            run_stage_one(built.model, 1, factor, SCALE, 1000, seed=0)

    def test_initialization_failure(self):
        built, pool, _ = _gaussian_setup()
        factor = factorize_for_sampler(pool, "flat-ends")
        nowhere = (PoolTerm(1.0, lambda x: np.full(len(x), -math.inf), (0,)),)
        doomed = dataclasses.replace(factor, terms=(nowhere,) + factor.terms[1:])
        with pytest.raises(InitializationError):
            run_stage_one(built.model, 0, doomed, SCALE, 1000, seed=0)

    def test_warmup_must_leave_draws(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError):
            run_stage_one(built.model, 0, factor, SCALE, 10, warmup_frac=1.0, seed=0)

    def test_pair_runs_both_ends(self):
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 4000, seed=3)
        # ends sit near their prior means -2.5 and 2.5
        assert s1.phi.mean() == pytest.approx(-2.5, abs=0.2)
        assert s3.phi.mean() == pytest.approx(2.5, abs=0.2)

    def test_pair_ends_draw_independent_streams(self):
        # Identical end tables: only the random streams can set the two runs apart.
        rng = np.random.default_rng(8)
        end = random_table(rng, 2)
        built = builtin_discrete_chain(end, random_table(rng, (2, 2)), end,
                                       phi_cards=((2,), (2,)))
        factor = factorize_for_sampler(log_pooling(built.model, [1, 1, 1]), "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 200, chains=2, seed=14)
        assert not np.array_equal(s1.draws, s3.draws)


class TestParallelStageTwo:
    def _run(self, n_two=4000, seed=21, unitwise=False, built=None):
        built = built or make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 4000, seed=seed)
        runner = run_parallel_stage_two_unitwise if unitwise else run_parallel_stage_two
        out = runner(built.model, factor, s1, s3, SCALE, n_two, seed=seed + 1)
        return built, out

    def test_output_shapes_and_indices(self):
        built, out = self._run()
        assert out.phi[0].shape == (1, 3600, 2)
        assert out.psi[1].shape == (1, 3600, 2)
        assert out.indices.shape == (1, 3600, 2)
        assert out.indices.min() >= 0
        assert set(out.acceptance_rates()) == {"phi1", "phi3", "psi2"}

    def test_indices_resolve_psi(self):
        # recorded indices must reproduce the stored psi draws
        built, out = self._run()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, _ = run_stage_one_pair(built.model, factor, SCALE, 4000, seed=21)
        np.testing.assert_array_equal(out.psi[0][0], s1.psi[out.indices[0, :, 0]])

    def test_stage_locality(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 2000, seed=4)
        built.model.reset_counters()
        run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 2000, seed=5)
        assert built.model.submodels[0].joint_calls.count == 0
        assert built.model.submodels[2].joint_calls.count == 0
        assert built.model.submodels[1].joint_calls.count > 0

    def test_determinism(self):
        _, a = self._run(seed=33)
        _, b = self._run(seed=33)
        np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())

    def test_unitwise_needs_factorization(self):
        built = make_discrete_chain(with_units=False)
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 1000, seed=2)
        with pytest.raises(UnsupportedConfigError):
            run_parallel_stage_two_unitwise(built.model, factor, s1, s3, SCALE, 500, seed=3)

    def test_single_unit_degenerates_to_blocked(self):
        from chainmeld import UnitFactorization, builtin_discrete_chain
        from conftest import random_table

        rng = np.random.default_rng(12)
        p1 = random_table(rng, (2, 2))
        p3 = random_table(rng, (2, 2))
        p2 = random_table(rng, (2, 2, 2, 2, 2, 2))
        uf = UnitFactorization(((0, 1),), ((),))
        built = builtin_discrete_chain(
            p1, p2, p3, phi_cards=((2, 2), (2, 2)), psi_cards=((), (2, 2), ()),
            units=(uf, None, uf),
        )
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 2000, seed=6)
        blocked = run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 1500, seed=7)
        unitwise = run_parallel_stage_two_unitwise(
            built.model, factor, s1, s3, SCALE, 1500, seed=7
        )
        np.testing.assert_array_equal(blocked.state_matrix(), unitwise.state_matrix())
        np.testing.assert_array_equal(blocked.indices, unitwise.indices)


class TestSequential:
    def test_runs_and_is_deterministic(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        a = run_sequential(built.model, factor, SCALES, (2000, 2000, 2000), seed=8)
        b = run_sequential(built.model, factor, SCALES, (2000, 2000, 2000), seed=8)
        np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())

    def test_stage_locality(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        built.model.reset_counters()
        run_sequential(built.model, factor, SCALES, (1000, 2000, 2000), seed=9)
        spec1 = built.model.submodels[0]
        # submodel-1 joints are evaluated only in its own stage-one chain
        # (1000 MH steps + initialization retries); any stage-two or
        # stage-three evaluation would add thousands more
        assert spec1.joint_calls.count <= 1000 + 110

    def test_int_iterations_broadcast(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        out = run_sequential(built.model, factor, SCALES, 1000, seed=10)
        assert out.phi[0].shape[1] == 900

    @pytest.mark.parametrize("M, mode", [(2, "flat-ends"), (4, "subprior-ends"),
                                         (5, "subprior-ends")])
    def test_matches_enumeration_for_any_length(self, M, mode):
        built = make_long_chain(M, seed=M)
        pool = log_pooling(built.model, np.linspace(0.3, 0.8, M))
        oracle = enumerate_melded_posterior(built, pool)
        factor = factorize_for_sampler(pool, mode)
        out = run_sequential(built.model, factor, (SCALE,) * M, 20_000, chains=8, seed=M + 100)
        assert (len(out.phi), len(out.psi)) == (M - 1, M)
        assert tv_distance(empirical_table(out.state_matrix(), oracle), oracle) < 0.02
        moves = {"s2_phi1", f"s{M}_psi{M}"}
        moves.update(f"s{k}_index" for k in range(3, M + 1))
        moves.update(f"s{k}_move" for k in range(2, M))
        assert set(out.proposal_counts) == moves

    def test_factorization_must_match_chain_length(self):
        from chainmeld import ChainModel, PhiBlock, SubmodelSpec

        _, _, factor = _gaussian_setup()
        model = ChainModel(
            submodels=(
                SubmodelSpec(0, None, "a", lambda p, s: 0.0, lambda p: 0.0),
                SubmodelSpec(1, "a", None, lambda p, s: 0.0, lambda p: 0.0),
            ),
            phi_blocks=(PhiBlock("a", real_coords(1)),),
        )
        with pytest.raises(UnsupportedConfigError):
            run_sequential(model, factor, SCALES[:2], 1000, seed=0)

    def test_needs_one_kernel_per_stage(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError, match="3 scales"):
            run_sequential(built.model, factor, SCALES[:2], 1000, seed=0)


class TestWarmupFrac:
    @pytest.mark.parametrize("warmup", [-0.5, 1.0, float("nan")])
    def test_every_runner_rejects_out_of_range(self, warmup):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 200, seed=1)
        model = built.model
        runs = [
            lambda: run_stage_one(model, 0, factor, SCALE, 200, warmup_frac=warmup),
            lambda: run_stage_one_pair(model, factor, SCALE, 200,
                                       warmup_frac=warmup),
            lambda: run_parallel_stage_two(model, factor, s1, s3, SCALE, 200,
                                           warmup_frac=warmup),
            lambda: run_parallel_stage_two_unitwise(model, factor, s1, s3, SCALE, 200,
                                                    warmup_frac=warmup),
            lambda: run_sequential(model, factor, SCALES, 200,
                                   warmup_frac=warmup),
        ]
        for run in runs:
            with pytest.raises(UnsupportedConfigError, match="warmup"):
                run()


class TestEvaluationCounts:
    def test_pair_matches_two_single_runs(self):
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, chains=2, seed=3)
        seed1, seed3 = np.random.SeedSequence(3).generate_state(2).tolist()
        a = run_stage_one(built.model, 0, factor, SCALE, 500, chains=2, seed=seed1)
        b = run_stage_one(built.model, 2, factor, SCALE, 500, chains=2, seed=seed3)
        np.testing.assert_array_equal(s1.draws, a.draws)
        np.testing.assert_array_equal(s3.draws, b.draws)

    def test_stage_one_checks_end_marginal_in_batches(self):
        built, _, factor = _gaussian_setup()
        spec1 = built.model.submodels[0]
        built.model.reset_counters()
        run_stage_one(built.model, 0, factor, SCALE, 300, seed=2)
        # one initial evaluation (the default state is finite) plus one per step
        assert spec1.joint_calls.count == 301
        # the initial state, then one batched consistency check per 1024 steps
        assert spec1.marginal_calls.count == 1 + math.ceil(300 / 1024)

    def test_phi_proposal_makes_one_marginal_call(self):
        # log pool with lambda = 0.5: pool2 - log p2 is
        # -0.5 log p1 - 0.5 log p2 - 0.5 log p3.  A block-1 proposal changes
        # the log p1 and log p2 terms, a block-2 proposal log p2 and log p3.
        # Each end's term reads only the block its index move replaces, so it
        # is evaluated for all of the stage's proposals in one call; log p2 is
        # evaluated once per proposal.
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, seed=4)
        built.model.reset_counters()
        n = 200
        out = run_parallel_stage_two(built.model, factor, s1, s3, SCALE, n, seed=5)
        phi_proposals = out.proposal_counts["phi1"] + out.proposal_counts["phi3"]
        assert phi_proposals == 2 * n
        # the initial state adds one evaluation of each term
        spec1, spec2, spec3 = built.model.submodels
        assert spec1.marginal_calls.count == 2
        assert spec3.marginal_calls.count == 2
        assert spec2.marginal_calls.count == phi_proposals + 1
        assert spec2.joint_calls.count == phi_proposals + 1

    def test_unitwise_moves_evaluate_end_terms_per_move(self):
        # A unit proposal mixes rows, so the end terms are evaluated move by move.
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, seed=4)
        built.model.reset_counters()
        n = 200
        out = run_parallel_stage_two_unitwise(built.model, factor, s1, s3, SCALE, n, seed=5)
        spec1, spec2, spec3 = built.model.submodels
        assert out.proposal_counts["phi1"] == out.proposal_counts["phi3"] == 2 * n
        assert spec1.marginal_calls.count == spec3.marginal_calls.count == 2 * n + 1
        assert spec2.marginal_calls.count == 4 * n + 1

    @staticmethod
    def _with_end_term(factor, fn):
        """``factor`` with fn in place of the block-1 end term of the middle factor."""
        end = next(t for t in factor.terms[1] if t.blocks == (0,))
        middle = tuple(dataclasses.replace(t, fn=fn) if t is end else t
                       for t in factor.terms[1])
        return dataclasses.replace(factor, terms=(factor.terms[0], middle, factor.terms[2])), end

    def test_failing_batched_term_is_evaluated_per_move(self):
        # An end term whose batched call raises, though no single move's call
        # does: the stage falls back to one call per move, with the same draws.
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, seed=4)
        calls = []

        def small_batches_only(x):
            calls.append(len(x))
            if len(x) > 1:
                raise MemoryError("batch too large")
            return end.fn(x)

        fussy, end = self._with_end_term(factor, small_batches_only)
        a = run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 200, seed=5)
        b = run_parallel_stage_two(built.model, fussy, s1, s3, SCALE, 200, seed=5)
        np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())
        np.testing.assert_array_equal(a.indices, b.indices)
        # the initial state, the batched call that raised, then one call per move
        assert calls == [1, 200] + [1] * 200

    @pytest.mark.parametrize("nan_joint", [False, True])
    def test_batched_term_error_is_the_first_move_by_move_error(self, nan_joint):
        # The end term raises on every call after the initial state's.  Checked
        # move by move, the first move raises it, unless the middle joint, which
        # each move evaluates first, is NaN there.
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, seed=4)
        model = built.model
        spec2 = model.submodels[1]
        joint, joint_calls, term_calls = spec2.log_joint, itertools.count(), itertools.count()

        def nan_after_init(phi, psi):
            return np.full(len(phi), math.nan) if next(joint_calls) else joint(phi, psi)

        def raising_end(x):
            if next(term_calls):
                raise ModelInconsistencyError("end term raised")
            return end.fn(x)

        bad_factor, end = self._with_end_term(factor, raising_end)
        if nan_joint:
            spec2 = dataclasses.replace(spec2, log_joint=nan_after_init)
            model = ChainModel((model.submodels[0], spec2, model.submodels[2]),
                               model.phi_blocks)
        message = "log_joint returned NaN" if nan_joint else "end term raised"
        with pytest.raises(ModelInconsistencyError, match=message):
            run_parallel_stage_two(model, bad_factor, s1, s3, SCALE, 200, seed=5)


class TestWholeStateMoves:
    """A move whose fixed proposals write the whole state (a discrete stage one's
    walk, the index move of a last sequential stage with no psi) evaluates
    every proposal's terms in one batched call when its stage starts."""

    @staticmethod
    def _patched(built, m, **fields):
        """``built``'s chain with submodel m's evaluators replaced."""
        specs = list(built.model.submodels)
        specs[m] = dataclasses.replace(specs[m], **fields)
        return ChainModel(tuple(specs), built.model.phi_blocks)

    @staticmethod
    def _small_batches_only(fn, chains):
        """``fn`` that raises on batches larger than ``chains`` rows."""
        def joint(phi, psi):
            if len(phi) > chains:
                raise MemoryError("batch too large")
            return fn(phi, psi)
        return joint

    @pytest.mark.parametrize("mode", ["subprior-ends", "flat-ends"])
    def test_stage_one_matches_move_by_move(self, mode):
        built = make_discrete_chain()
        fussy = self._patched(built, 0, log_joint=self._small_batches_only(
            built.model.submodels[0].log_joint, 3))
        runs = []
        for model in (built.model, fussy):
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), mode)
            runs.append(run_stage_one(model, 0, factor, SCALE, 2500, chains=3, seed=4))
        np.testing.assert_array_equal(runs[0].draws, runs[1].draws)

    @pytest.mark.parametrize("mode", ["subprior-ends", "flat-ends"])
    def test_last_sequential_stage_matches_move_by_move(self, mode):
        built = make_long_chain(4, seed=4)
        assert built.model.submodels[-1].psi_dim == 0
        fussy = self._patched(built, 3, log_joint=self._small_batches_only(
            built.model.submodels[3].log_joint, 2))
        runs = []
        for model in (built.model, fussy):
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 4), mode)
            runs.append(run_sequential(model, factor, (SCALE,) * 4, 1500, chains=2, seed=6))
        a, b = runs
        np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.accept_counts == b.accept_counts

    def test_discrete_stage_one_counts(self):
        # One initial joint call and one batched call for every proposal; the
        # initial prior marginal, then one consistency check per 1024 moves.
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        spec1 = built.model.submodels[0]
        built.model.reset_counters()
        run_stage_one(built.model, 0, factor, SCALE, 2500, chains=3, seed=2)
        assert spec1.joint_calls.count == 2
        assert spec1.marginal_calls.count == 1 + math.ceil(2500 / 1024)

    @pytest.mark.parametrize("end", [0, 2])
    @pytest.mark.parametrize("seed, phi", [(1, "[1. 0.]"), (2, "[1. 1.]")])
    def test_inconsistent_end_raises_the_first_move_by_move_error(self, end, seed, phi):
        # The end's prior marginal is -inf wherever phi_m[0] = 1, its joint is
        # finite there; the first such proposal in move order is named.
        built = make_discrete_chain()
        marginal = built.model.submodels[end].log_prior_marginal

        def holey(x):
            x = np.asarray(x, dtype=float)
            return np.where(x[..., 0] == 1.0, -math.inf, marginal(x))

        model = self._patched(built, end, log_prior_marginal=holey)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        with pytest.raises(ModelInconsistencyError) as err:
            run_stage_one(model, end, factor, SCALE, 3000, chains=2, seed=seed)
        assert str(err.value) == (
            f"submodel {end}: joint is finite but prior marginal is -inf at phi_m={phi}")

    @pytest.mark.parametrize("stage", ["stage one", "last sequential stage"])
    def test_nan_joint_names_its_submodel(self, stage):
        built = make_long_chain(3, seed=5)
        m = 0 if stage == "stage one" else 2
        joint = built.model.submodels[m].log_joint

        def nan_at_one(phi, psi):
            return np.where(phi[..., 0] == 1.0, math.nan, joint(phi, psi))

        model = self._patched(built, m, log_joint=nan_at_one)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        with pytest.raises(ModelInconsistencyError, match=f"submodel {m}: log_joint returned NaN"):
            run_sequential(model, factor, SCALES, 500, chains=2, seed=8)


class TestUnitwiseProbe:
    """Unitwise stage two checks that each end's units factorize its joint."""

    def test_coupled_ends_raise(self):
        # The ends' tables are not products across their two units; sampling
        # them unitwise gave TV 0.107 to enumeration, against 0.023 blocked.
        built = make_discrete_chain(seed=7, factorized_ends=False)
        uf = UnitFactorization(((0,), (1,)), ((), ()))
        m = built.model
        model = ChainModel((dataclasses.replace(m.submodels[0], unit_factorization=uf),
                            m.submodels[1],
                            dataclasses.replace(m.submodels[2], unit_factorization=uf)),
                           m.phi_blocks)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        s1, s3 = run_stage_one_pair(model, factor, SCALE, 2000, chains=2, seed=11)
        with pytest.raises(StructureError, match="submodel 0: its units do not factorize"):
            run_parallel_stage_two_unitwise(model, factor, s1, s3, SCALE, 200, seed=1)

    def test_probe_evaluates_pairs_of_stored_states(self):
        # Each end's store holds the 4 states of its two binary units; the probe
        # evaluates the joint at each of the 6 pairs: both states and one
        # mixed state per unit.  No move of stage two evaluates an end's joint.
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 1000, seed=2)
        built.model.reset_counters()
        run_parallel_stage_two_unitwise(built.model, factor, s1, s3, SCALE, 300, seed=3)
        for end in (0, 2):
            assert built.model.submodels[end].joint_calls.count == 6 * (2 + 2)


class TestDeferredConsistencyCheck:
    """Stage one checks subposterior consistency in batches, raising what a
    check of every move as it is proposed would raise first."""

    README = dict(rho=0.2, s2=2.0, tau=1.0, y1=[-2.0], y2=[0.5], y3=[2.0])
    MESSAGE = "submodel 0: joint is finite but prior marginal is -inf at phi_m=[1.8070849]"

    def _run(self, cut=1.5, prior_off=-math.inf, nan_above=math.inf, nan_joint_from=None,
             n_iter=5000):
        # Submodel 0's prior marginal is prior_off where phi12 > cut and NaN
        # where phi12 > nan_above; its joint is NaN from call nan_joint_from on.
        model = builtin_gaussian_chain(**self.README).model
        spec = model.submodels[0]
        calls = itertools.count()

        def joint(phi, psi):
            if nan_joint_from is not None and next(calls) >= nan_joint_from:
                return np.full(np.shape(phi)[:-1], math.nan)
            return spec.log_joint(phi, psi)

        def marginal(phi):
            phi = np.asarray(phi, dtype=float)
            value = np.where(phi[..., 0] > cut, prior_off, spec.log_prior_marginal(phi))
            return np.where(phi[..., 0] > nan_above, math.nan, value)

        patched = dataclasses.replace(spec, log_joint=joint, log_prior_marginal=marginal)
        model = ChainModel((patched,) + model.submodels[1:], model.phi_blocks)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        run_stage_one(model, 0, factor, 0.5, n_iter, chains=3, seed=1)

    @pytest.mark.parametrize("nan_above", [math.inf, 1.9])
    def test_inconsistency_past_the_first_batch(self, nan_above):
        # Checked move by move, the first state with phi12 > 1.5 is proposed at move
        # 3257, in the fourth batch of 1024; states above 1.9 follow in the same batch.
        with pytest.raises(ModelInconsistencyError) as err:
            self._run(nan_above=nan_above)
        assert str(err.value) == self.MESSAGE

    def test_inconsistency_in_the_last_partial_batch(self):
        # 300 moves never fill a batch: only the check at the end of the stage sees move 3.
        with pytest.raises(ModelInconsistencyError) as err:
            self._run(cut=0.5, n_iter=300)
        assert str(err.value) == self.MESSAGE.replace("1.8070849", "1.01149952")

    def test_nan_marginal_mid_stage(self):
        with pytest.raises(ModelInconsistencyError, match="log_prior_marginal returned NaN"):
            self._run(prior_off=math.nan)

    def test_pending_inconsistency_precedes_a_later_nan_joint(self):
        with pytest.raises(ModelInconsistencyError) as err:
            self._run(nan_joint_from=3500)
        assert str(err.value) == self.MESSAGE
        with pytest.raises(ModelInconsistencyError, match="log_joint returned NaN"):
            self._run(prior_off=0.0, nan_joint_from=3500)


class TestLockstep:
    """Chains advance together, but each one only reads its own generator."""

    def _setup(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        return built, factor

    def test_stage_one_chain_zero_ignores_other_chains(self):
        built, factor = self._setup()
        one = run_stage_one(built.model, 0, factor, SCALE, 600, chains=1, seed=5)
        four = run_stage_one(built.model, 0, factor, SCALE, 600, chains=4, seed=5)
        # the store is chain-major: chain 0's kept draws come first
        kept = one.draws.shape[0]
        assert four.draws.shape[0] == 4 * kept
        np.testing.assert_array_equal(four.draws[:kept], one.draws)
        assert not np.array_equal(four.draws[kept : 2 * kept], one.draws)

    @pytest.mark.parametrize("runner", [run_parallel_stage_two, run_parallel_stage_two_unitwise])
    def test_stage_two_chain_zero_ignores_other_chains(self, runner):
        built, factor = self._setup()
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 1000, chains=2, seed=6)
        one = runner(built.model, factor, s1, s3, SCALE, 600, chains=1, seed=7)
        four = runner(built.model, factor, s1, s3, SCALE, 600, chains=4, seed=7)
        for a, b in zip((*four.phi, *four.psi, four.indices), (*one.phi, *one.psi, one.indices)):
            np.testing.assert_array_equal(a[:1], b)
        assert not np.array_equal(four.indices[0], four.indices[1])

    def test_scalar_only_joint_fails_loudly(self):
        built, factor = self._setup()
        spec = built.model.submodels[0]
        scalar = SubmodelSpec(
            0, spec.left_block, spec.right_block,
            lambda phi, psi: float(spec.log_joint(phi[0], psi[0])),  # reads row 0 only
            spec.log_prior_marginal,
        )
        model = ChainModel((scalar,) + built.model.submodels[1:], built.model.phi_blocks)
        with pytest.raises(StructureError, match="submodel 0"):
            run_stage_one(model, 0, factor, SCALE, 200, chains=1, seed=1)

    @pytest.mark.parametrize("chains", [0, -2, 1.5, True])
    def test_chains_must_be_positive_integer(self, chains):
        built, factor = self._setup()
        with pytest.raises(UnsupportedConfigError, match="chains"):
            run_stage_one(built.model, 0, factor, SCALE, 200, chains=chains, seed=1)
