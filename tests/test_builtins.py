import numpy as np
import pytest
import scipy.stats

from chainmeld import (
    ConfigError,
    ModelInconsistencyError,
    StructureError,
    SubmodelSpec,
    UnitFactorization,
    UnsupportedConfigError,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    dictatorial_complete,
    empirical_table,
    enumerate_melded_posterior,
    enumerate_pooled_prior,
    linear_pooling,
    log_pooling,
    poe_pooling,
    submodel_log_ratio,
    tv_distance,
)
from chainmeld.builtins import BuiltChain
from chainmeld.chain import ChainModel

from conftest import discrete_cli_params, make_discrete_chain, make_long_chain, random_table


class TestGaussianChain:
    def test_validates(self):
        built = builtin_gaussian_chain()
        assert built.model.n_submodels == 3 and len(built.model.phi_blocks) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 1.0},
            {"rho": -1.0},
            {"sigma1": 0.0},
            {"sigma2": (1.0, -1.0)},
            {"tau": -2.0},
            {"y2": [1.0]},  # data without a psi2 scale
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            builtin_gaussian_chain(**kwargs)

    def test_middle_marginal_matches_scipy(self, rng):
        built = builtin_gaussian_chain(rho=0.6)
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        ref = scipy.stats.multivariate_normal([0.0, 0.0], cov)
        x = rng.standard_normal((40, 2))
        np.testing.assert_allclose(
            built.model.submodels[1].eval_log_prior(x), ref.logpdf(x), atol=1e-10
        )

    def test_end_marginal_batched(self, rng):
        built = builtin_gaussian_chain()
        x = rng.standard_normal((3, 4, 1))
        out = built.model.submodels[0].eval_log_prior(x)
        assert np.asarray(out).shape == (3, 4)
        ref = scipy.stats.norm(-2.5, 1.0).logpdf(x[..., 0])
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_likelihood_enters_joint(self):
        built = builtin_gaussian_chain(y1=[0.0], s1=2.0)
        phi = np.array([1.0])
        with_data = built.model.submodels[0].eval_log_joint(phi, np.empty(0))
        no_data = builtin_gaussian_chain().model.submodels[0].eval_log_joint(
            phi, np.empty(0)
        )
        expected = scipy.stats.norm(1.0, 2.0).logpdf(0.0)
        assert with_data - no_data == pytest.approx(expected, abs=1e-10)

    def test_empty_observations_are_no_data(self):
        phi = np.array([1.0])
        joints = [builtin_gaussian_chain(**data).model.submodels[0].eval_log_joint(phi, np.empty(0))
                  for data in ({}, {"y1": []})]
        assert joints[0] == joints[1]

    def test_rho_zero_prior_factorizes(self, rng):
        built = builtin_gaussian_chain(rho=0.0)
        spec2 = built.model.submodels[1]
        a, b = rng.standard_normal(2)
        joint = float(np.asarray(spec2.eval_log_prior(np.array([a, b]))))
        split = float(np.asarray(built.boundary_marginals[(1, 0)](np.array([a])))) + float(
            np.asarray(built.boundary_marginals[(1, 1)](np.array([b])))
        )
        assert joint == pytest.approx(split, abs=1e-10)


class TestDiscreteChain:
    def test_validates(self, discrete_chain):
        model = discrete_chain.model
        assert [spec.unit_factorization is not None for spec in model.submodels] == [
            True, False, True]

    def test_unnormalized_table_rejected(self):
        bad = np.ones((2, 2))  # sums to 4
        good = random_table(np.random.default_rng(0), (2, 2, 2, 2))
        with pytest.raises(ConfigError):
            builtin_discrete_chain(
                bad, good, bad, phi_cards=((2,), (2,)), psi_cards=((2,), (2,), (2,))
            )

    @staticmethod
    def _scaled_chain(scale, normalized):
        """The test discrete chain with every prior table scaled by ``scale``."""
        params, unit = discrete_cli_params(), UnitFactorization(((0,), (1,)), ((), ()))
        return builtin_discrete_chain(
            *(scale * np.array(params[f"prior{m}"]) for m in (1, 2, 3)),
            phi_cards=params["phi_cards"], psi_cards=params["psi_cards"],
            likelihoods=[None if t is None else np.array(t) for t in params["likelihoods"]],
            units=(unit, None, unit), normalized=normalized,
        )

    @pytest.mark.parametrize("method", ["log", "linear"])
    def test_unnormalized_tables_meld_as_normalized_ones(self, discrete_chain, method):
        def melded(built):
            model = built.model
            if method == "log":
                pool = log_pooling(model, [0.4, 0.7, 1.0])
            else:
                pool = linear_pooling(model, [[0.3, 0.7], [0.6, 0.4]], built.boundary_marginals)
            return enumerate_melded_posterior(built, pool)

        want, got = melded(discrete_chain), melded(self._scaled_chain(3.0, normalized=False))
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-15)
        with pytest.raises(ConfigError, match="prior1"):
            self._scaled_chain(3.0, normalized=True)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            builtin_discrete_chain(
                random_table(rng, (2, 2)),
                random_table(rng, (2, 2)),
                random_table(rng, (2, 2)),
                phi_cards=((2, 2), (2, 2)),
            )

    def test_negative_entries_rejected(self):
        t = np.array([[0.7, 0.5], [-0.1, -0.1]])
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            builtin_discrete_chain(
                t, random_table(rng, (2, 2)), random_table(rng, (2,) * 2),
                phi_cards=((2,), (2,)), psi_cards=((2,), (), ()),
            )

    def test_units_must_factorize_the_tables(self):
        # the end tables are random over both shared coordinates
        meta = make_discrete_chain(seed=7, factorized_ends=False).meta
        uf = UnitFactorization(((0,), (1,)), ((), ()))
        with pytest.raises(ConfigError, match="units"):
            builtin_discrete_chain(
                *meta["prior_tables"], phi_cards=meta["phi_cards"],
                psi_cards=meta["psi_cards"], likelihoods=meta["likelihood_tables"],
                units=(uf, None, uf),
            )

    def test_units_must_factorize_the_likelihood_too(self, discrete_chain):
        meta = discrete_chain.meta
        lik1 = np.exp(np.random.default_rng(1).standard_normal((2, 2)))
        with pytest.raises(ConfigError, match="units"):
            builtin_discrete_chain(
                *meta["prior_tables"], phi_cards=meta["phi_cards"],
                psi_cards=meta["psi_cards"],
                likelihoods=(lik1,) + meta["likelihood_tables"][1:],
                units=[spec.unit_factorization for spec in discrete_chain.model.submodels],
            )

    @pytest.mark.parametrize("phi, psi, match", [
        (((0,), (1, 5)), ((), ()), "phi indices"),
        (((0, 1), (1,)), ((), ()), "phi indices"),  # a product table; the overlap is named
        (((0,), (1,)), ((0,), ()), "psi indices"),
    ])
    def test_units_must_partition_the_coordinates(self, discrete_chain, phi, psi, match):
        meta = discrete_chain.meta
        uf = UnitFactorization(phi, psi)
        with pytest.raises(ConfigError, match=f"^units: submodel 0: unit {match} .* partition"):
            builtin_discrete_chain(
                *meta["prior_tables"], phi_cards=meta["phi_cards"],
                psi_cards=meta["psi_cards"], likelihoods=meta["likelihood_tables"],
                units=(uf, None, discrete_chain.model.submodels[2].unit_factorization),
            )

    def test_marginals_sum_correctly(self, discrete_chain):
        p2 = discrete_chain.meta["prior_tables"][1]
        spec2 = discrete_chain.model.submodels[1]
        manual = p2.sum(axis=(4, 5))
        state = np.array([1.0, 0.0, 0.0, 1.0])
        assert spec2.eval_log_prior(state) == pytest.approx(
            np.log(manual[1, 0, 0, 1]), abs=1e-12
        )

    def test_boundary_marginals(self, discrete_chain):
        p2 = discrete_chain.meta["prior_tables"][1]
        m12 = p2.sum(axis=(2, 3, 4, 5))
        value = discrete_chain.boundary_marginals[(1, 0)](np.array([0.0, 1.0]))
        assert value == pytest.approx(np.log(m12[0, 1]), abs=1e-12)


class TestEnumeration:
    def test_uniform_tables_give_uniform_posterior(self):
        u = lambda shape: np.full(shape, 1.0 / np.prod(shape))
        built = builtin_discrete_chain(
            u((2, 2)), u((2, 2)), u((2, 2)),
            phi_cards=((2,), (2,)), psi_cards=((2,), (), (2,)),
        )
        oracle = enumerate_melded_posterior(built, poe_pooling(built.model))
        np.testing.assert_allclose(oracle.probs, 1.0 / len(oracle.probs), atol=1e-12)

    def test_poe_proportional_to_joint_product(self, discrete_chain):
        # independent oracle: direct table arithmetic
        built = discrete_chain
        oracle = enumerate_melded_posterior(built, poe_pooling(built.model))
        p1, p2, p3 = built.meta["prior_tables"]
        lik2 = built.meta["likelihood_tables"][1]
        expected = np.zeros(len(oracle.probs))
        for k, row in enumerate(oracle.states.astype(int)):
            a, b, c, d, e, f = row  # phi12 (2), phi23 (2), psi2 (2)
            expected[k] = p1[a, b] * p2[a, b, c, d, e, f] * lik2[a, b, c, d, e, f] * p3[c, d]
        expected /= expected.sum()
        np.testing.assert_allclose(oracle.probs, expected, atol=1e-12)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    @pytest.mark.parametrize("linear", [False, True])
    def test_batched_enumeration_equals_state_by_state(self, M, linear):
        built = make_long_chain(M, seed=M)
        model = built.model
        if linear:
            pool = linear_pooling(model, [[0.3, 0.7]] * (M - 1), built.boundary_marginals)
        else:
            pool = log_pooling(model, np.linspace(0.2, 0.9, M))
        oracle = enumerate_melded_posterior(built, pool)
        names = [name for name, _ in model.state_groups()]
        assert list(oracle.column_groups) == names
        assert names[: M - 1] == [f"phi{b + 1}{b + 2}" for b in range(M - 1)]

        def log_state(row):  # one state at a time, from the public functions
            parts = [row[slice(*oracle.column_groups[n])] for n in names]
            phi, psi = parts[: M - 1], parts[M - 1 :]
            total = float(pool.log_density(phi))
            for m, spec in enumerate(model.submodels):
                total += submodel_log_ratio(spec, model.phi_m(m, phi), psi[m])
            return total

        logw = np.array([log_state(row) for row in oracle.states])
        w = np.exp(logw - logw.max())
        np.testing.assert_allclose(oracle.probs, w / w.sum(), rtol=0, atol=1e-15)
        prior = enumerate_pooled_prior(built, pool)
        assert list(prior.column_groups) == names[: M - 1]

    def test_state_space_limit(self):
        u = lambda shape: np.full(shape, 1.0 / np.prod(shape))
        built = builtin_discrete_chain(
            u((5, 5)), u((5,) * 7), u((5, 5)),
            phi_cards=((5,), (5,)), psi_cards=((5,), (5,) * 5, (5,)),
        )
        with pytest.raises(UnsupportedConfigError):
            enumerate_melded_posterior(built, poe_pooling(built.model))

    def test_requires_discrete(self):
        built = builtin_gaussian_chain()
        with pytest.raises(UnsupportedConfigError):
            enumerate_melded_posterior(built, poe_pooling(built.model))

    def test_inconsistency_surfaced(self, discrete_chain):
        # a middle submodel whose marginal is zero where its joint is not
        model = discrete_chain.model
        spec2 = model.submodels[1]
        bad2 = SubmodelSpec(
            1, spec2.log_joint,
            lambda x: np.full(x.shape[:-1], -np.inf),
            psi_coords=spec2.psi_coords,
        )
        patched = BuiltChain(
            model=ChainModel(
                (model.submodels[0], bad2, model.submodels[2]), model.phi_blocks
            ),
            boundary_marginals=discrete_chain.boundary_marginals,
            supports=discrete_chain.supports,
            meta=discrete_chain.meta,
        )
        pool = log_pooling(patched.model, [1.0, 0.0, 1.0])
        with pytest.raises(ModelInconsistencyError):
            enumerate_melded_posterior(patched, pool)

    def test_collapsed_pool_term_fails_loudly(self, discrete_chain):
        # Under dictatorial-complete [1, 2] the middle's one-block marginal over
        # phi12 is itself a term of the pooled prior; one row for a batch raises.
        marginal = discrete_chain.boundary_marginals[(1, 0)]
        pool = dictatorial_complete(discrete_chain.model, [1, 2],
                                    {(1, 0): lambda x: marginal(x)[:1]})
        with pytest.raises(StructureError, match=r"pool: term over blocks \(0,\) returned shape "
                                                 r"\(1,\) for batch shape \(64,\)"):
            enumerate_melded_posterior(discrete_chain, pool)

    def test_pooled_prior_enumeration_mass(self, discrete_chain):
        pool = log_pooling(discrete_chain.model, [0.5, 0.5, 0.5])
        table = enumerate_pooled_prior(discrete_chain, pool)
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert table.states.shape == (16, 4)


class TestTables:
    def test_tv_distance_bounds(self, discrete_chain):
        pool = poe_pooling(discrete_chain.model)
        oracle = enumerate_melded_posterior(discrete_chain, pool)
        assert tv_distance(oracle, oracle) == 0.0

    def test_tv_requires_same_states(self, discrete_chain):
        pool = poe_pooling(discrete_chain.model)
        oracle = enumerate_melded_posterior(discrete_chain, pool)
        other = oracle.marginal([0, 1])
        with pytest.raises(UnsupportedConfigError):
            tv_distance(oracle, other)

    def test_empirical_table_counts(self, discrete_chain):
        pool = poe_pooling(discrete_chain.model)
        oracle = enumerate_melded_posterior(discrete_chain, pool)
        draws = np.vstack([oracle.states[3]] * 3 + [oracle.states[10]])
        emp = empirical_table(draws, oracle)
        assert emp.probs[3] == pytest.approx(0.75)
        assert emp.probs[10] == pytest.approx(0.25)

    def test_empirical_table_equals_row_by_row_count(self, discrete_chain):
        oracle = enumerate_melded_posterior(discrete_chain, poe_pooling(discrete_chain.model))
        rng = np.random.default_rng(5)
        draws = oracle.states[rng.integers(0, 64, 5000)] + rng.uniform(-0.4, 0.4, (5000, 6))
        keys = {tuple(row): k for k, row in enumerate(oracle.states)}
        counts = np.zeros(64)
        for row in np.round(draws):
            counts[keys[tuple(row)]] += 1.0
        emp = empirical_table(draws, oracle)
        np.testing.assert_array_equal(emp.probs, counts / counts.sum())
        assert emp.states is oracle.states

    @pytest.mark.parametrize("value", [2.0, -1.0, np.nan, np.inf])
    def test_empirical_table_rejects_draws_off_the_reference(self, discrete_chain, value):
        oracle = enumerate_melded_posterior(discrete_chain, poe_pooling(discrete_chain.model))
        draws = np.vstack([oracle.states[3], oracle.states[3]])
        draws[1, 4] = value
        with pytest.raises(UnsupportedConfigError, match="not a state of the reference"):
            empirical_table(draws, oracle)

    def test_marginal_sums(self, discrete_chain):
        pool = poe_pooling(discrete_chain.model)
        oracle = enumerate_melded_posterior(discrete_chain, pool)
        marg = oracle.marginal(oracle.group_columns("phi12"))
        assert marg.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert marg.states.shape[0] == 4
