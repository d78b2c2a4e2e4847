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
    SampleStore,
    StructureError,
    SubmodelSpec,
    UnitFactorization,
    UnsupportedConfigError,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    dictatorial_complete,
    empirical_table,
    enumerate_melded_posterior,
    factorize_for_sampler,
    linear_pooling,
    log_melded_density,
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
from chainmeld.samplers import _Lockstep, _StageTarget

from conftest import make_discrete_chain, make_long_chain, random_table


SCALE = 0.8
SCALES = (SCALE,) * 3
README = dict(rho=0.2, s2=2.0, tau=1.0, y1=[-2.0], y2=[0.5], y3=[2.0])


def _gaussian_setup(seed=0, **params):
    built = builtin_gaussian_chain(**params)
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    factor = factorize_for_sampler(pool, "subprior-ends")
    return built, pool, factor


class TestRandomWalk:
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

    @pytest.mark.parametrize("log_target", [
        lambda z: -0.5 * z[:1, 0] ** 2,          # one value for two chains
        lambda z: float(-0.5 * z[0, 0] ** 2),    # a float, unbatched
        lambda z: -0.5 * z ** 2,                 # (chains, 1)
    ], ids=["length-1", "float", "column"])
    def test_unbatched_target_fails_loudly(self, log_target):
        # Each was broadcast over the chains: the length-1 target gave variance 37.
        with pytest.raises(StructureError, match="log_target must be batched"):
            run_random_walk(log_target, real_coords(1), SCALE, 200, chains=2)

    def test_nan_target_fails_loudly(self):
        with pytest.raises(ModelInconsistencyError, match="log_target returned NaN"):
            run_random_walk(lambda z: np.where(z[:, 0] > 0.5, np.nan, -z[:, 0] ** 2),
                            real_coords(1), SCALE, 200, chains=2)

    def test_target_may_reuse_its_buffer(self):
        buf = np.empty(2)

        def log_target(z):
            buf[:] = -0.5 * z[:, 0] ** 2
            return buf

        draws, _ = run_random_walk(log_target, real_coords(1), SCALE, 20000, chains=2, seed=1)
        assert draws.var() == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("init", [[5.0], [5.0, 1.0], np.zeros((2, 3))],
                             ids=["one", "two", "per-chain"])
    def test_init_needs_one_value_per_coordinate(self, init):
        with pytest.raises(StructureError, match=r"expected one value per coordinate, \(3,\)"):
            run_random_walk(lambda z: -0.5 * (z * z).sum(axis=1), real_coords(3), SCALE, 200,
                            chains=2, init=init)

    def test_runners_reject_bad_scale(self):
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
                SubmodelSpec(0, lambda p, s: 0.0, lambda p: 0.0),
                SubmodelSpec(1, lambda p, s: 0.0, lambda p: 0.0),
            ),
            phi_blocks=(PhiBlock("a", real_coords(1)),),
        )
        with pytest.raises(UnsupportedConfigError):
            run_sequential(model, factor, SCALES[:2], 1000, seed=0)

    @pytest.mark.parametrize("run", [
        lambda model, factor, s1, s3: run_stage_one_pair(model, factor, SCALE, 200),
        lambda model, factor, s1, s3: run_parallel_stage_two(model, factor, s1, s3, SCALE, 200),
        lambda model, factor, s1, s3: run_sequential(model, factor, SCALES, 200),
    ], ids=["stage-one", "parallel-stage-two", "sequential"])
    def test_factorization_of_another_chain_rejected(self, run):
        # The same wiring with another end mean: sampling with its factor
        # would meld the other chain's pool into this one.
        built, _, factor = _gaussian_setup(**README)
        _, _, other = _gaussian_setup(**README, mu1=3.0)
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 200, seed=1)
        with pytest.raises(UnsupportedConfigError, match="built on another chain"):
            run(built.model, other, s1, s3)

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

    @pytest.mark.parametrize("mode", ["subprior-ends", "flat-ends"])
    def test_last_sequential_stage_evaluates_its_joint_per_move(self, mode):
        # The README chain's last stage is continuous and has no psi: its index
        # move evaluates the joint for the initial states, then once per move.
        built, _, _ = _gaussian_setup(rho=0.2, y1=[-2.0], y3=[2.0], y2=[0.5], s2=2.0, tau=1.0)
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), mode)
        n = 300
        built.model.reset_counters()
        run_sequential(built.model, factor, SCALES, n, chains=2, seed=3)
        assert built.model.submodels[2].joint_calls.count == 1 + n

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

    def test_psi_move_evaluates_the_joint_alone(self):
        # With tau = 1 the middle submodel has psi2.  Each iteration's two phi
        # moves evaluate its joint and log p2; its psi2 walk changes no block,
        # so it evaluates the joint alone.  The initial state adds one of each.
        built, _, factor = _gaussian_setup(**README)
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 500, seed=4)
        built.model.reset_counters()
        n = 200
        run_parallel_stage_two(built.model, factor, s1, s3, SCALE, n, seed=5)
        spec2 = built.model.submodels[1]
        assert spec2.joint_calls.count == 3 * n + 1
        assert spec2.marginal_calls.count == 2 * n + 1

    def test_unitwise_moves_evaluate_end_terms_per_move(self):
        # The stage's 64 states are tabulated: every term is evaluated for the
        # initial state, then once for every state.  Without the table (a
        # middle joint that raises on the table's batch), a unit proposal mixes
        # rows, so the end terms are evaluated move by move.
        built = make_discrete_chain()
        fussy = TestPerMoveFallback._patched(built, 1, log_joint=(
            TestPerMoveFallback._small_batches_only(built.model.submodels[1].log_joint, 1)))
        spec1, spec2, spec3 = built.model.submodels
        n = 200
        for model, per_move in ((built.model, False), (fussy, True)):
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
            s1, s3 = run_stage_one_pair(model, factor, SCALE, 500, seed=4)
            model.reset_counters()
            out = run_parallel_stage_two_unitwise(model, factor, s1, s3, SCALE, n, seed=5)
            assert out.proposal_counts["phi1"] == out.proposal_counts["phi3"] == 2 * n
            if per_move:
                assert spec1.marginal_calls.count == spec3.marginal_calls.count == 2 * n + 1
                assert spec2.marginal_calls.count == 4 * n + 1
                # the initial state, the table's call that raised, then one per move
                assert spec2.joint_calls.count == 2 + 5 * n
            else:
                assert spec1.marginal_calls.count == spec3.marginal_calls.count == 2
                assert spec2.marginal_calls.count == spec2.joint_calls.count == 2

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

        if nan_joint:
            spec2 = dataclasses.replace(spec2, log_joint=nan_after_init)
            model = ChainModel((model.submodels[0], spec2, model.submodels[2]),
                               model.phi_blocks)
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        bad_factor, end = self._with_end_term(factor, raising_end)
        message = "log_joint returned NaN" if nan_joint else "end term raised"
        with pytest.raises(ModelInconsistencyError, match=message):
            run_parallel_stage_two(model, bad_factor, s1, s3, SCALE, 200, seed=5)


class TestPerMoveFallback:
    """A stage with no table of its states evaluates its moves one by one (a
    pool term that reads only the blocks of a move's fixed proposals once
    per stage), with the table's draws and the first error that checking
    every move raises."""

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

    def test_discrete_stage_one_counts(self):
        # With a table of the end's 4 states: the initial joint and prior
        # marginal, then one call of each for every state, which also checks
        # consistency.  Without one (a joint that raises on every batch larger
        # than the 3 chains): the initial joint, the table's call, then one
        # call per move; the initial prior marginal, then one consistency check
        # per 1024 moves, or, under flat-ends, where the prior marginal is a
        # term of the target, one batched call for every proposal.  Both draw
        # the same.
        built = make_discrete_chain()
        joint = built.model.submodels[0].log_joint
        for mode in ("subprior-ends", "flat-ends"):
            checks = 1 + math.ceil(2500 / 1024) if mode == "subprior-ends" else 2
            draws = []
            for fn, joint_calls, marginal_calls in (
                    (joint, 2, 2), (self._small_batches_only(joint, 3), 2 + 2500, checks)):
                model = self._patched(built, 0, log_joint=fn)
                factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), mode)
                model.reset_counters()
                draws.append(run_stage_one(model, 0, factor, SCALE, 2500, chains=3, seed=2).draws)
                assert model.submodels[0].joint_calls.count == joint_calls
                assert model.submodels[0].marginal_calls.count == marginal_calls
            np.testing.assert_array_equal(draws[0], draws[1])

    def test_end_with_psi_evaluates_its_prior_marginal_per_stage(self):
        # A walk of phi12 and psi1 under flat-ends, where the prior marginal of
        # phi12 is a term of the target.  After the initial state's call, the
        # table evaluates it at every state, and without a table it is
        # evaluated at the phi12 columns of every proposal, in one call each.
        rng = np.random.default_rng(3)
        built = builtin_discrete_chain(
            random_table(rng, (2, 2)), random_table(rng, (2, 2)), random_table(rng, 2),
            phi_cards=((2,), (2,)), psi_cards=((2,), (), ()))
        fussy = self._patched(built, 0, log_joint=self._small_batches_only(
            built.model.submodels[0].log_joint, 3))
        draws = []
        for model in (built.model, fussy):
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "flat-ends")
            model.reset_counters()
            draws.append(run_stage_one(model, 0, factor, SCALE, 500, chains=3, seed=2).draws)
            assert model.submodels[0].marginal_calls.count == 2
        np.testing.assert_array_equal(draws[0], draws[1])

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


class TestStateSpaceTable:
    """An all-discrete stage with no more states than move evaluations reads
    its log target from a table of every state, evaluated when it starts,
    with the draws of a run that evaluates every move."""

    CHAINS = {"discrete": make_discrete_chain(), "long": make_long_chain(4)}

    @staticmethod
    def _chain_batches_only(model, chains):
        """``model`` with joints that raise on batches of other than ``chains``
        rows, so that no stage can be tabulated (nor evaluated per stage)."""
        def fussy(fn):
            def joint(phi, psi):
                if np.ndim(phi) == 2 and len(phi) != chains:
                    raise MemoryError("only batches of one row per chain")
                return fn(phi, psi)
            return joint
        return ChainModel(tuple(dataclasses.replace(s, log_joint=fussy(s.log_joint))
                                for s in model.submodels), model.phi_blocks)

    @staticmethod
    def _factor(built, model, method, mode):
        M = model.n_submodels
        if method == "log":
            pool = log_pooling(model, [0.5] * M)
        else:
            pool = linear_pooling(model, [[0.3, 0.7]] * (M - 1), built.boundary_marginals)
        return factorize_for_sampler(pool, mode)

    @staticmethod
    def _run(kind, model, factor, chains, stores):
        """The run's draws, chain-major, and its indices and accept counts; a
        parallel stage two reuses the stage-one ``stores``."""
        if kind == "stage one":
            store = run_stage_one(model, model.n_submodels - 1, factor, SCALE, 300,
                                  chains=chains, seed=3)
            return (store.draws.reshape(chains, -1, store.draws.shape[1]),), {}
        if kind == "sequential":
            out = run_sequential(model, factor, (SCALE,) * model.n_submodels, 300,
                                 chains=chains, seed=4)
        else:
            runner = (run_parallel_stage_two if kind == "parallel"
                      else run_parallel_stage_two_unitwise)
            out = runner(model, factor, *stores, SCALE, 300, chains=chains, seed=6)
        return (*out.phi, *out.psi, out.indices), out.accept_counts

    @pytest.mark.parametrize("mode", ["subprior-ends", "flat-ends"])
    @pytest.mark.parametrize("method", ["log", "linear"])
    @pytest.mark.parametrize("chain, kind", [
        ("discrete", "stage one"), ("discrete", "parallel"),
        ("discrete", "parallel-unitwise"), ("discrete", "sequential"),
        ("long", "stage one"), ("long", "sequential"),
    ])
    def test_matches_move_by_move(self, chain, kind, method, mode):
        # 3 chains: no stage of these chains has 3 states.
        built = self.CHAINS[chain]
        factor = self._factor(built, built.model, method, mode)
        stores = None
        if kind.startswith("parallel"):
            stores = run_stage_one_pair(built.model, factor, SCALE, 400, chains=2, seed=5)
        runs, calls = {}, {}
        for fallback in (False, True):
            model = self._chain_batches_only(built.model, 3) if fallback else built.model
            model.reset_counters()
            runs[fallback] = self._run(kind, model, self._factor(built, model, method, mode),
                                       3, stores)
            calls[fallback] = sum(s.joint_calls.count for s in model.submodels)
        (table, accepted), (moves, moves_accepted) = runs[False], runs[True]
        for a, b in zip(table, moves):
            np.testing.assert_array_equal(a, b)
        assert accepted == moves_accepted
        assert calls[False] < calls[True]
        if kind == "sequential":
            return  # a later stage draws from every chain's kept draws
        for chains in (1, 8):
            other, _ = self._run(kind, built.model, factor, chains, stores)
            for a, b in zip(table, other):
                np.testing.assert_array_equal(a[:1], b[:1])

    @staticmethod
    def _stores(built, factor):
        """Stage-one stores; the first holds phi12 = (0, 0), (0, 1) and (1, 0) only."""
        _, s3 = run_stage_one_pair(built.model, factor, SCALE, 400, chains=2, seed=5)
        phi = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], (50, 1))
        return SampleStore(phi, np.empty((len(phi), 0)), s3.phi_coords), s3

    def _middle_run(self, at, **fields):
        """Parallel stage two whose middle submodel has ``fields``'s evaluators,
        with and without the table; both raise the same, or return the same."""
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        s1, s3 = self._stores(built, factor)
        spec = built.model.submodels[1]
        patched = {k: fn(getattr(spec, k), at) for k, fn in fields.items()}
        model = TestPerMoveFallback._patched(built, 1, **patched)
        outcomes = []
        for m in (model, self._chain_batches_only(model, 4)):
            factor = factorize_for_sampler(log_pooling(m, [0.5] * 3), "subprior-ends")
            try:
                out = run_parallel_stage_two(m, factor, s1, s3, SCALE, 400, chains=4, seed=7)
                outcomes.append(out.state_matrix())
            except ModelInconsistencyError as exc:
                outcomes.append(str(exc))
        table, moves = outcomes
        if isinstance(table, str):
            assert table == moves
        else:
            np.testing.assert_array_equal(table, moves)
        return table

    @staticmethod
    def _nan_joint(fn, at):
        def joint(phi, psi):
            hit = (phi[..., 0] == at[0]) & (phi[..., 1] == at[1])
            return np.where(hit, math.nan, fn(phi, psi))
        return joint

    @staticmethod
    def _holey_marginal(fn, at):
        def marginal(phi):
            phi = np.asarray(phi, dtype=float)
            hit = (phi[..., 0] == at[0]) & (phi[..., 1] == at[1])
            return np.where(hit, -math.inf, fn(phi))
        return marginal

    def test_nan_joint_at_an_unvisited_state_does_not_raise(self):
        self._middle_run((1.0, 1.0), log_joint=self._nan_joint)

    def test_nan_joint_at_a_visited_state_raises(self):
        assert self._middle_run((1.0, 0.0), log_joint=self._nan_joint) == (
            "submodel 1: log_joint returned NaN")

    def test_inconsistent_marginal_at_an_unvisited_state_does_not_raise(self):
        self._middle_run((1.0, 1.0), log_prior_marginal=self._holey_marginal)

    def test_inconsistent_marginal_at_a_visited_state_raises(self):
        assert self._middle_run((1.0, 0.0), log_prior_marginal=self._holey_marginal) == (
            "submodel 1: joint is finite but prior marginal is -inf at phi_m=[1. 0. 0. 0.]")

    @pytest.mark.parametrize("n_iter, tabulated", [(31, False), (32, True)])
    def test_more_states_than_moves_evaluate_per_move(self, n_iter, tabulated):
        # Sequential stage two has 64 states and 2 moves per iteration; at one
        # chain, 32 iterations make 64 move evaluations.
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        built.model.reset_counters()
        run_sequential(built.model, factor, SCALES, (400, n_iter, 400), seed=6)
        joint_calls = built.model.submodels[1].joint_calls.count
        assert joint_calls == (2 if tabulated else 1 + 2 * n_iter)

    def test_store_off_the_categories_evaluates_per_move(self):
        built = make_discrete_chain()
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        s1, s3 = self._stores(built, factor)
        phi = s1.phi.copy()
        phi[0, 1] = 0.5
        s1 = SampleStore(phi, s1.psi, s1.phi_coords)
        built.model.reset_counters()
        run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 100, seed=6)
        assert built.model.submodels[1].joint_calls.count == 1 + 3 * 100


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


class TestStageTargetKernel:
    """A move's terms, from the terms the state caches, are the terms its
    proposal gets when every term is evaluated, bit for bit."""

    @staticmethod
    def _draw(coords, rng, chains=3):
        """A value of every coordinate for every chain."""
        return np.stack([rng.integers(c.cardinality, size=chains).astype(float)
                         if c.kind == "discrete" else rng.standard_normal(chains)
                         for c in coords], axis=1)

    @pytest.mark.parametrize("mode", ["subprior-ends", "flat-ends"])
    @pytest.mark.parametrize("chain, tabulate", [
        ("readme", False), ("discrete", False), ("discrete", True),
    ])
    def test_move_gives_the_terms_of_its_proposal(self, chain, tabulate, mode):
        # Every stage's moves: each block as an index move whose proposals are
        # fixed (so each term of that block alone is evaluated once per stage),
        # psi as a walk, and the whole state as a walk, whose proposals are
        # fixed when every coordinate is discrete.  Under subprior-ends the
        # README chain's stage one is a subposterior; with ``tabulate`` every
        # move reads a table of every state.
        built = make_discrete_chain() if chain == "discrete" else builtin_gaussian_chain(**README)
        model = built.model
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), mode)
        rng = np.random.default_rng(11)
        for m, spec in enumerate(model.submodels):
            target = _StageTarget(model, factor, m)
            coords = [c for b in model.blocks_of(m) for c in model.phi_blocks[b].coords]
            coords += spec.psi_coords
            z = self._draw(coords, rng)
            state = _Lockstep(z, target.initial(z))
            if tabulate:
                target.tabulate(state, (), 1 << 20)
                assert target.table is not None
            edges = np.cumsum([0] + [model.phi_blocks[b].dim
                                     for b in model.blocks_of(m)]).tolist()
            moves = [(lo, hi, True) for lo, hi in zip(edges, edges[1:])]
            if spec.psi_dim:
                moves.append((target.d, target.width, False))
            moves.append((0, target.width, chain == "discrete"))
            for lo, hi, fixed in moves:
                values = self._draw(coords[lo:hi], rng)
                kernel = target.kernel(lo, hi, values[None] if fixed else None)
                prop = z.copy()
                prop[:, lo:hi] = values
                new, every = kernel(prop, state.terms, 0), target.initial(prop)
                if new.ndim < every.ndim:  # a table's log target
                    every = every[0]
                assert new.tobytes() == every.tobytes(), (m, lo, hi)


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
            0,
            lambda phi, psi: float(spec.log_joint(phi[0], psi[0])),  # reads row 0 only
            spec.log_prior_marginal,
        )
        model = ChainModel((scalar,) + built.model.submodels[1:], built.model.phi_blocks)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        with pytest.raises(StructureError, match="submodel 0"):
            run_stage_one(model, 0, factor, SCALE, 200, chains=1, seed=1)

    @pytest.mark.parametrize("collapse", [lambda v: v[:1], lambda v: v.sum()],
                             ids=["one-row-slice", "scalar-sum"])
    @pytest.mark.parametrize("m", [0, 1], ids=["stage-one", "middle"])
    def test_collapsed_joint_on_a_move_fails_loudly(self, m, collapse):
        # The joint has the batch shape for the initial states only, so only
        # a check on every move can catch it: stage one's subposterior moves
        # (end 0) and stage two's moves of the middle submodel.
        built = builtin_gaussian_chain(**README)
        joint, calls = built.model.submodels[m].log_joint, []

        def first_call_batched(phi, psi):
            calls.append(len(phi))
            value = joint(phi, psi)
            return value if len(calls) == 1 else collapse(value)

        specs = list(built.model.submodels)
        specs[m] = dataclasses.replace(specs[m], log_joint=first_call_batched)
        model = ChainModel(tuple(specs), built.model.phi_blocks)
        factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
        with pytest.raises(StructureError, match=f"submodel {m}: log_joint returned shape"):
            if m == 0:
                run_stage_one(model, 0, factor, SCALE, 50, chains=3, seed=1)
            else:
                s1, s3 = run_stage_one_pair(model, factor, SCALE, 50, chains=3, seed=1)
                run_parallel_stage_two(model, factor, s1, s3, SCALE, 50, chains=3, seed=2)
        assert calls == [3, 3]

    @pytest.mark.parametrize("collapse", [lambda v: v[:1], lambda v: v.sum()],
                             ids=["one-row-slice", "scalar-sum"])
    @pytest.mark.parametrize("path", ["moves", "table", "melded-density"])
    def test_collapsed_prior_marginal_fails_loudly(self, path, collapse):
        # The middle prior marginal has the batch shape for its first call only:
        # the README chain's stage two evaluates it on every phi move, the
        # discrete chain's stage two tries its table of all 64 states first, and
        # log_melded_density evaluates it in the pool and again in the ratio.
        built = make_discrete_chain() if path != "moves" else builtin_gaussian_chain(**README)
        marginal, calls = built.model.submodels[1].log_prior_marginal, []

        def first_call_batched(phi):
            calls.append(len(phi))
            value = marginal(phi)
            return value if len(calls) == 1 else collapse(value)

        specs = list(built.model.submodels)
        specs[1] = dataclasses.replace(specs[1], log_prior_marginal=first_call_batched)
        model = ChainModel(tuple(specs), built.model.phi_blocks)
        pool = log_pooling(model, [0.5] * 3)
        factor = factorize_for_sampler(pool, "subprior-ends")
        with pytest.raises(StructureError, match=r"submodel 1: log_prior_marginal returned "
                                                 r"shape \(1?,?\) for batch shape \(\d+,\)"):
            if path == "melded-density":
                states = np.indices((2,) * 6).reshape(6, -1).T[::9].astype(float)
                phi = [states[:, :2], states[:, 2:4]]
                psi = [states[:, :0], states[:, 4:], states[:, :0]]
                log_melded_density(model, pool, phi, psi)
            else:
                s1, s3 = run_stage_one_pair(model, factor, SCALE, 50, chains=3, seed=1)
                run_parallel_stage_two(model, factor, s1, s3, SCALE, 50, chains=3, seed=2)
        assert calls == {"moves": [3, 3], "table": [3, 64, 3], "melded-density": [8, 8]}[path]

    @pytest.mark.parametrize("collapse", [lambda v: v[:1], lambda v: v.sum()],
                             ids=["one-row-slice", "scalar-sum"])
    @pytest.mark.parametrize("method", ["linear", "dictatorial"])
    def test_collapsed_boundary_marginal_fails_loudly(self, method, collapse):
        # The middle submodel's one-block marginal over phi12 is a pool term of
        # stage two's target under both pools, alone or inside the mixture.
        built = builtin_gaussian_chain(**README)
        marginal, calls = built.boundary_marginals[(1, 0)], []

        def first_call_batched(phi):
            calls.append(len(phi))
            value = marginal(phi)
            return value if len(calls) == 1 else collapse(value)

        marginals = {**built.boundary_marginals, (1, 0): first_call_batched}
        if method == "linear":
            pool = linear_pooling(built.model, [[0.5, 0.5], [0.5, 0.5]], marginals)
        else:
            pool = dictatorial_complete(built.model, [1, 2], marginals)
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 50, chains=3, seed=1)
        assert calls == []
        with pytest.raises(StructureError, match=r"submodel 1: .+ returned shape \(1?,?\) "
                                                 r"for batch shape \(\d+,\)"):
            run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 50, chains=3, seed=2)
        assert calls[0] == 3

    def test_joint_returning_a_list_is_read_as_an_array(self):
        # A list has no .shape, so it takes the shape check's fallback; it must
        # reach the NaN check and the sampler as the array it stands for.
        built = builtin_gaussian_chain(**README)
        joint = built.model.submodels[0].log_joint

        def end_zero(log_joint):
            specs = list(built.model.submodels)
            specs[0] = dataclasses.replace(specs[0], log_joint=log_joint)
            model = ChainModel(tuple(specs), built.model.phi_blocks)
            factor = factorize_for_sampler(log_pooling(model, [0.5] * 3), "subprior-ends")
            return run_stage_one(model, 0, factor, SCALE, 50, chains=3, seed=1)

        want, got = end_zero(joint), end_zero(lambda phi, psi: list(joint(phi, psi)))
        assert np.array_equal(got.phi, want.phi) and np.array_equal(got.psi, want.psi)
        with pytest.raises(ModelInconsistencyError, match="submodel 0: log_joint returned NaN"):
            end_zero(lambda phi, psi: [math.nan] * len(phi))

    def test_eval_methods_see_every_evaluation(self, monkeypatch):
        # Wrapped at class level, as a tracer does: initial states and every
        # move reach the wrappers, so they count what the CallCounters count.
        seen = dict.fromkeys(("eval_log_joint", "eval_log_prior"), 0)
        for name in seen:
            def counted(self, *args, _name=name, _method=getattr(SubmodelSpec, name)):
                seen[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(SubmodelSpec, name, counted)
        built = builtin_gaussian_chain(**README)
        factor = factorize_for_sampler(log_pooling(built.model, [0.5] * 3), "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 300, chains=2, seed=3)
        run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 300, chains=2, seed=4)
        specs = built.model.submodels
        assert seen == {"eval_log_joint": sum(s.joint_calls.count for s in specs),
                        "eval_log_prior": sum(s.marginal_calls.count for s in specs)}
        assert seen["eval_log_joint"] > 3 * 300

    @pytest.mark.parametrize("chains", [0, -2, 1.5, True])
    def test_chains_must_be_positive_integer(self, chains):
        built, factor = self._setup()
        with pytest.raises(UnsupportedConfigError, match="chains"):
            run_stage_one(built.model, 0, factor, SCALE, 200, chains=chains, seed=1)
