import dataclasses
import math

import numpy as np
import pytest

from chainmeld import (
    ChainModel,
    Coord,
    InitializationError,
    MHKernelConfig,
    StructureError,
    SubmodelSpec,
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


KERNEL = MHKernelConfig(scales=0.8)
KERNELS = (KERNEL,) * 3


def _gaussian_setup(seed=0, **params):
    built = builtin_gaussian_chain(**params)
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    factor = factorize_for_sampler(pool, "subprior-ends")
    return built, pool, factor


class TestMHStep:
    """The random-walk Metropolis-Hastings kernel alone, on one chain."""

    def test_standard_normal_target(self):
        draws, _ = run_random_walk(lambda z: -0.5 * z[:, 0] ** 2, real_coords(1), KERNEL,
                                   20000, seed=1)
        draws = draws[0, :, 0]
        assert abs(draws.mean()) < 0.05
        assert draws.var() == pytest.approx(1.0, abs=0.1)

    def test_positive_coordinate_stays_positive(self):
        # Exponential(1), density on x > 0
        draws, _ = run_random_walk(lambda z: -z[:, 0], (Coord("positive"),), KERNEL, 30000,
                                   seed=2)
        draws = draws[0, :, 0]
        assert (draws > 0).all()
        assert draws.mean() == pytest.approx(1.0, abs=0.1)

    def test_discrete_coordinate_resampled_uniformly(self):
        log_w = np.log(np.array([0.2, 0.5, 0.3]))
        draws, _ = run_random_walk(lambda z: log_w[z[:, 0].astype(int)],
                                   (Coord("discrete", 3),), KERNEL, 30000, seed=3)
        freq = np.bincount(draws[0, :, 0].astype(int), minlength=3) / draws.shape[1]
        np.testing.assert_allclose(freq, np.exp(log_w), atol=0.02)

    def test_kernel_validation(self):
        with pytest.raises(UnsupportedConfigError):
            MHKernelConfig(scales=-0.1)


class TestStageOne:
    def test_targets_subposterior(self):
        # prior N(0,1), one observation y=1 with unit noise: posterior N(0.5, 0.5)
        built, _, factor = _gaussian_setup(mu1=0.0, y1=[1.0], s1=1.0)
        store = run_stage_one(built.model, 0, factor, KERNEL, 40000, chains=2, seed=5)
        assert store.phi.mean() == pytest.approx(0.5, abs=0.03)
        assert store.phi.var() == pytest.approx(0.5, abs=0.05)

    def test_seed_determinism(self):
        built, _, factor = _gaussian_setup()
        a = run_stage_one(built.model, 0, factor, KERNEL, 2000, seed=9)
        b = run_stage_one(built.model, 0, factor, KERNEL, 2000, seed=9)
        c = run_stage_one(built.model, 0, factor, KERNEL, 2000, seed=10)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert not np.array_equal(a.phi, c.phi)

    def test_chain_bookkeeping(self):
        built, _, factor = _gaussian_setup()
        store = run_stage_one(built.model, 0, factor, KERNEL, 1000, chains=3, seed=1)
        assert store.n == 3 * 900
        assert set(store.chain_id) == {0, 1, 2}
        assert store.iteration.min() == 100

    def test_invalid_end(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError):
            run_stage_one(built.model, 1, factor, KERNEL, 1000, seed=0)

    def test_initialization_failure(self):
        built, pool, _ = _gaussian_setup()
        factor = factorize_for_sampler(pool, "flat-ends")
        nowhere = (PoolTerm(1.0, lambda x: np.full(len(x), -math.inf), (0,)),)
        doomed = dataclasses.replace(factor, terms=(nowhere,) + factor.terms[1:])
        with pytest.raises(InitializationError):
            run_stage_one(built.model, 0, doomed, KERNEL, 1000, seed=0)

    def test_warmup_must_leave_draws(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError):
            run_stage_one(built.model, 0, factor, KERNEL, 10, warmup_frac=1.0, seed=0)

    def test_pair_runs_both_ends(self):
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 4000, seed=3)
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
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 200, chains=2, seed=14)
        assert not np.array_equal(s1.draws, s3.draws)


class TestParallelStageTwo:
    def _run(self, n_two=4000, seed=21, unitwise=False, built=None):
        built = built or make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 4000, seed=seed)
        runner = run_parallel_stage_two_unitwise if unitwise else run_parallel_stage_two
        out = runner(built.model, factor, s1, s3, KERNEL, n_two, seed=seed + 1)
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
        s1, _ = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 4000, seed=21)
        np.testing.assert_array_equal(out.psi[0][0], s1.psi[out.indices[0, :, 0]])

    def test_stage_locality(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 2000, seed=4)
        built.model.reset_counters()
        run_parallel_stage_two(built.model, factor, s1, s3, KERNEL, 2000, seed=5)
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
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 1000, seed=2)
        with pytest.raises(UnsupportedConfigError):
            run_parallel_stage_two_unitwise(built.model, factor, s1, s3, KERNEL, 500, seed=3)

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
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 2000, seed=6)
        blocked = run_parallel_stage_two(built.model, factor, s1, s3, KERNEL, 1500, seed=7)
        unitwise = run_parallel_stage_two_unitwise(
            built.model, factor, s1, s3, KERNEL, 1500, seed=7
        )
        np.testing.assert_array_equal(blocked.state_matrix(), unitwise.state_matrix())
        np.testing.assert_array_equal(blocked.indices, unitwise.indices)


class TestSequential:
    def test_runs_and_is_deterministic(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        a = run_sequential(built.model, factor, KERNELS, (2000, 2000, 2000), seed=8)
        b = run_sequential(built.model, factor, KERNELS, (2000, 2000, 2000), seed=8)
        np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())

    def test_stage_locality(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        built.model.reset_counters()
        run_sequential(built.model, factor, KERNELS, (1000, 2000, 2000), seed=9)
        spec1 = built.model.submodels[0]
        # submodel-1 joints are evaluated only in its own stage-one chain
        # (1000 MH steps + initialization retries); any stage-two or
        # stage-three evaluation would add thousands more
        assert spec1.joint_calls.count <= 1000 + 110

    def test_int_iterations_broadcast(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        out = run_sequential(built.model, factor, KERNELS, 1000, seed=10)
        assert out.phi[0].shape[1] == 900

    @pytest.mark.parametrize("M, mode", [(2, "flat-ends"), (4, "subprior-ends"),
                                         (5, "subprior-ends")])
    def test_matches_enumeration_for_any_length(self, M, mode):
        built = make_long_chain(M, seed=M)
        pool = log_pooling(built.model, np.linspace(0.3, 0.8, M))
        oracle = enumerate_melded_posterior(built, pool)
        factor = factorize_for_sampler(pool, mode)
        out = run_sequential(built.model, factor, (KERNEL,) * M, 20_000, chains=8, seed=M + 100)
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
            run_sequential(model, factor, KERNELS[:2], 1000, seed=0)

    def test_needs_one_kernel_per_stage(self):
        built, _, factor = _gaussian_setup()
        with pytest.raises(UnsupportedConfigError, match="3 kernels"):
            run_sequential(built.model, factor, KERNELS[:2], 1000, seed=0)


class TestWarmupFrac:
    @pytest.mark.parametrize("warmup", [-0.5, 1.0, float("nan")])
    def test_every_runner_rejects_out_of_range(self, warmup):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 200, seed=1)
        model = built.model
        runs = [
            lambda: run_stage_one(model, 0, factor, KERNEL, 200, warmup_frac=warmup),
            lambda: run_stage_one_pair(model, factor, KERNEL, KERNEL, 200,
                                       warmup_frac=warmup),
            lambda: run_parallel_stage_two(model, factor, s1, s3, KERNEL, 200,
                                           warmup_frac=warmup),
            lambda: run_parallel_stage_two_unitwise(model, factor, s1, s3, KERNEL, 200,
                                                    warmup_frac=warmup),
            lambda: run_sequential(model, factor, KERNELS, 200,
                                   warmup_frac=warmup),
        ]
        for run in runs:
            with pytest.raises(UnsupportedConfigError, match="warmup"):
                run()


class TestEvaluationCounts:
    def test_pair_matches_two_single_runs(self):
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 500, chains=2, seed=3)
        seed1, seed3 = np.random.SeedSequence(3).generate_state(2).tolist()
        a = run_stage_one(built.model, 0, factor, KERNEL, 500, chains=2, seed=seed1)
        b = run_stage_one(built.model, 2, factor, KERNEL, 500, chains=2, seed=seed3)
        np.testing.assert_array_equal(s1.draws, a.draws)
        np.testing.assert_array_equal(s3.draws, b.draws)

    def test_stage_one_evaluates_end_marginal_once_per_step(self):
        built, _, factor = _gaussian_setup()
        spec1 = built.model.submodels[0]
        built.model.reset_counters()
        run_stage_one(built.model, 0, factor, KERNEL, 300, seed=2)
        # one initial evaluation (the default state is finite) plus one per step
        assert spec1.marginal_calls.count == 301
        assert spec1.joint_calls.count == 301

    def test_phi_proposal_makes_two_marginal_calls(self):
        # log pool with lambda = 0.5: pool2 - log p2 is
        # -0.5 log p1 - 0.5 log p2 - 0.5 log p3.  A block-1 proposal changes
        # only the log p1 and log p2 terms, a block-2 proposal only log p2
        # and log p3: two marginal calls, the other end's term is reused.
        built, _, factor = _gaussian_setup()
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 500, seed=4)
        built.model.reset_counters()
        n = 200
        out = run_parallel_stage_two(built.model, factor, s1, s3, KERNEL, n, seed=5)
        phi_proposals = out.proposal_counts["phi1"] + out.proposal_counts["phi3"]
        assert phi_proposals == 2 * n
        # the initial state adds one evaluation of each term
        spec1, spec2, spec3 = built.model.submodels
        assert spec1.marginal_calls.count == n + 1
        assert spec3.marginal_calls.count == n + 1
        assert spec2.marginal_calls.count == phi_proposals + 1
        total = sum(spec.marginal_calls.count for spec in built.model.submodels)
        assert total == 2 * phi_proposals + 3
        assert spec2.joint_calls.count == phi_proposals + 1


class TestLockstep:
    """Chains advance together, but each one only reads its own generator."""

    def _setup(self):
        built = make_discrete_chain()
        pool = log_pooling(built.model, [0.5, 0.5, 0.5])
        factor = factorize_for_sampler(pool, "subprior-ends")
        return built, factor

    def test_stage_one_chain_zero_ignores_other_chains(self):
        built, factor = self._setup()
        one = run_stage_one(built.model, 0, factor, KERNEL, 600, chains=1, seed=5)
        four = run_stage_one(built.model, 0, factor, KERNEL, 600, chains=4, seed=5)
        first = four.chain_id == 0
        np.testing.assert_array_equal(four.draws[first], one.draws)
        np.testing.assert_array_equal(four.log_density[first], one.log_density)
        np.testing.assert_array_equal(four.iteration[first], one.iteration)

    @pytest.mark.parametrize("runner", [run_parallel_stage_two, run_parallel_stage_two_unitwise])
    def test_stage_two_chain_zero_ignores_other_chains(self, runner):
        built, factor = self._setup()
        s1, s3 = run_stage_one_pair(built.model, factor, KERNEL, KERNEL, 1000, chains=2, seed=6)
        one = runner(built.model, factor, s1, s3, KERNEL, 600, chains=1, seed=7)
        four = runner(built.model, factor, s1, s3, KERNEL, 600, chains=4, seed=7)
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
            run_stage_one(model, 0, factor, KERNEL, 200, chains=1, seed=1)

    @pytest.mark.parametrize("chains", [0, -2, 1.5, True])
    def test_chains_must_be_positive_integer(self, chains):
        built, factor = self._setup()
        with pytest.raises(UnsupportedConfigError, match="chains"):
            run_stage_one(built.model, 0, factor, KERNEL, 200, chains=chains, seed=1)
