import itertools
import math

import numpy as np
import pytest

from chainmeld import (
    ChainModel,
    Coord,
    ModelInconsistencyError,
    PhiBlock,
    StructureError,
    SubmodelSpec,
    UnitFactorization,
    UnsupportedConfigError,
    builtin_discrete_chain,
    dictatorial_complete,
    dictatorial_partial,
    discrete_coords,
    log_melded_density,
    log_pooling,
    markov_combination_density,
    poe_pooling,
    real_coords,
    submodel_log_ratio,
    unit_additivity_gap,
)

from conftest import make_discrete_chain, random_table


def _flat_spec(index, phi_dim, psi_dim=0, joint=None, marginal=None):
    return SubmodelSpec(
        index,
        joint or (lambda phi, psi: 0.0),
        marginal or (lambda phi: np.zeros(np.shape(phi)[:-1]) if np.ndim(phi) > 1 else 0.0),
        psi_coords=real_coords(psi_dim),
    )


def _three_chain(spec_overrides=None):
    specs = [
        _flat_spec(0, 1),
        _flat_spec(1, 2, psi_dim=1),
        _flat_spec(2, 1),
    ]
    for k, v in (spec_overrides or {}).items():
        specs[k] = v
    return ChainModel(
        submodels=tuple(specs),
        phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("b", real_coords(1))),
    )


class TestCoord:
    def test_kinds(self):
        assert Coord("real").cardinality is None
        assert Coord("discrete", 3).cardinality == 3

    def test_bad_kind(self):
        with pytest.raises(StructureError):
            Coord("complex")

    def test_discrete_needs_cardinality(self):
        with pytest.raises(StructureError):
            Coord("discrete")
        with pytest.raises(StructureError):
            Coord("real", cardinality=2)


class TestValidateChain:
    """A chain is checked when it is built: a mis-wired one raises StructureError."""

    def test_valid(self):
        assert _three_chain().n_submodels == 3

    def test_too_few_submodels(self):
        with pytest.raises(StructureError, match="M >= 2"):
            ChainModel(submodels=(_flat_spec(0, 1),), phi_blocks=())

    def test_block_count_mismatch(self):
        with pytest.raises(StructureError, match="got 2 submodels and 2 phi blocks"):
            ChainModel(
                submodels=(_flat_spec(0, 1), _flat_spec(1, 1)),
                phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("b", real_coords(1))),
            )

    @pytest.mark.parametrize("spec, match", [
        # Position alone wires a submodel, so its index is all there is to check.
        (_flat_spec(2, 2), r"submodel at position 1 has index 2"),
        (_flat_spec(0, 2), r"submodel at position 1 has index 0"),
        (SubmodelSpec(1, None, lambda phi: 0.0), "submodel 1: .* must be callable"),
        (SubmodelSpec(1, lambda phi, psi: 0.0, 0.0), "submodel 1: .* must be callable"),
    ])
    def test_bad_spec(self, spec, match):
        with pytest.raises(StructureError, match=match):
            _three_chain({1: spec})

    def test_duplicate_labels(self):
        with pytest.raises(StructureError, match="not unique"):
            ChainModel(
                submodels=(
                    _flat_spec(0, 1),
                    _flat_spec(1, 2),
                    _flat_spec(2, 1),
                ),
                phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("a", real_coords(1))),
            )

    def test_bad_unit_partition(self):
        spec = SubmodelSpec(
            0,
            lambda phi, psi: 0.0,
            lambda phi: 0.0,
            unit_factorization=UnitFactorization(((0, 0),), ((),)),
        )
        with pytest.raises(StructureError, match="partition"):
            _three_chain({0: spec})

    @pytest.mark.parametrize("phi, psi, match", [
        (((0,), (1, 5)), ((), ()), r"phi indices \[\[0\], \[1, 5\]\] do not partition its phi "
                                   r"coordinates \(0\.\.1\)"),
        (((0, 1), (1,)), ((), ()), r"phi indices \[\[0, 1\], \[1\]\]"),
        (((0,), (1,)), ((0,), ()), r"psi indices \[\[0\], \[\]\] do not partition its psi "
                                   r"coordinates \(it has none\)"),
        # Equal by value, but not indices: a unitwise stage two would fail on them.
        (((0.0,), (1.0,)), ((), ()), r"phi indices must be integers, got \[0\.0, 1\.0\]"),
        (((0,), (True,)), ((), ()), r"phi indices must be integers, got \[True\]"),
        (((0, 1),), ((np.float64(0),),), r"psi indices must be integers"),
    ])
    def test_unit_partition_message(self, phi, psi, match):
        spec = SubmodelSpec(0, lambda phi, psi: 0.0, lambda phi: 0.0,
                            unit_factorization=UnitFactorization(phi, psi))
        with pytest.raises(StructureError, match="submodel 0: unit " + match):
            ChainModel((spec, _flat_spec(1, 2)),
                       (PhiBlock("a", real_coords(2)),))


class TestPhiConcat:
    def test_phi_m_per_submodel(self):
        model = _three_chain()
        phi = [np.array([1.0]), np.array([2.0])]
        assert model.phi_m(0, phi).tolist() == [1.0]
        assert model.phi_m(1, phi).tolist() == [1.0, 2.0]
        assert model.phi_m(2, phi).tolist() == [2.0]

    def test_phi_m_batched(self):
        model = _three_chain()
        phi = [np.ones((5, 1)), 2 * np.ones((5, 1))]
        assert model.phi_m(1, phi).shape == (5, 2)

    def test_check_dims_rejects_bad_block(self):
        model = _three_chain()
        with pytest.raises(StructureError):
            model.check_dims([np.ones(2), np.ones(1)], [np.empty(0), np.ones(1), np.empty(0)])

    def test_check_dims_rejects_bad_psi(self):
        model = _three_chain()
        with pytest.raises(StructureError):
            model.check_dims([np.ones(1), np.ones(1)], [np.empty(0), np.empty(0), np.empty(0)])


class TestSubmodelLogRatio:
    def test_plain_difference(self):
        spec = _flat_spec(0, 1, joint=lambda p, s: -1.5, marginal=lambda p: -0.5)
        assert submodel_log_ratio(spec, np.zeros(1), np.empty(0)) == -1.0

    def test_neg_inf_joint_dominates(self):
        spec = _flat_spec(
            0, 1,
            joint=lambda p, s: -math.inf,
            marginal=lambda p: -math.inf,
        )
        assert submodel_log_ratio(spec, np.zeros(1), np.empty(0)) == -math.inf

    def test_inconsistent_marginal_raises(self):
        spec = _flat_spec(
            0, 1,
            joint=lambda p, s: 0.0,
            marginal=lambda p: -math.inf,
        )
        with pytest.raises(ModelInconsistencyError):
            submodel_log_ratio(spec, np.zeros(1), np.empty(0))

    def test_nan_joint_raises(self):
        spec = _flat_spec(0, 1, joint=lambda p, s: math.nan)
        with pytest.raises(ModelInconsistencyError):
            spec.eval_log_joint(np.zeros(1), np.empty(0))

    def test_counters_increment(self):
        spec = _flat_spec(0, 1)
        spec.eval_log_joint(np.zeros(1), np.empty(0))
        spec.eval_log_joint(np.zeros(1), np.empty(0))
        spec.eval_log_prior(np.zeros(1))
        assert spec.joint_calls.count == 2
        assert spec.marginal_calls.count == 1


class TestMeldedDensity:
    def test_manual_sum(self, discrete_chain):
        model = discrete_chain.model
        pool = poe_pooling(model)
        phi = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        psi = [np.empty(0), np.array([1.0, 0.0]), np.empty(0)]
        value = log_melded_density(model, pool, phi, psi)
        expected = float(pool.log_density(phi))
        for m, spec in enumerate(model.submodels):
            expected += submodel_log_ratio(
                spec, model.phi_m(m, phi), np.asarray(psi[m])
            )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_pool_of_another_chain_rejected(self, discrete_chain):
        pool = poe_pooling(make_discrete_chain().model)
        phi = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        psi = [np.empty(0), np.array([1.0, 0.0]), np.empty(0)]
        with pytest.raises(UnsupportedConfigError, match="built on another chain"):
            log_melded_density(discrete_chain.model, pool, phi, psi)

    def test_markov_combination_matches_poe_for_shared_priors(self):
        # When all submodels declare the same marginal for each boundary,
        # the Markov combination equals product of joints over shared priors.
        table = np.array([0.25, 0.75])
        log_t = np.log(table)

        def marg(x):
            return log_t[int(round(float(np.asarray(x).reshape(-1)[0])))]

        def joint(bias):
            def f(phi, psi):
                return marg(phi[:1]) + (-0.1 * bias * phi[0])
            return f

        model = ChainModel(
            submodels=(
                SubmodelSpec(0, joint(1.0), marg),
                SubmodelSpec(1, joint(2.0), lambda x: marg(np.asarray(x)[..., :1])),
            ),
            phi_blocks=(PhiBlock("a", discrete_coords([2])),),
        )
        phi = [np.array([1.0])]
        psi = [np.empty(0), np.empty(0)]
        value = markov_combination_density(model, [marg], phi, psi)
        expected = joint(1.0)(phi[0], None) + joint(2.0)(phi[0], None) - marg(phi[0])
        assert value == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _shared_marginal_chain(agree):
        # The 64-state chain: 2 + 2 binary shared coordinates and a 2-D binary
        # psi2, a likelihood on every submodel.  The end priors are the middle
        # prior's one-block marginals, or end 1's is another table.
        rng = np.random.default_rng(11)
        p2 = random_table(rng, (2,) * 6)
        p1 = p2.sum(axis=(2, 3, 4, 5)) if agree else random_table(rng, (2, 2))
        p3 = p2.sum(axis=(0, 1, 4, 5))
        liks = [np.exp(0.3 * rng.standard_normal(t.shape)) for t in (p1, p2, p3)]
        return builtin_discrete_chain(p1, p2, p3, phi_cards=((2, 2), (2, 2)),
                                      psi_cards=((), (2, 2), ()), likelihoods=liks)

    def _gaps(self, built):
        # |melded - Markov combination| at every state, under each pool that is
        # the middle submodel's prior, with the middle's one-block marginals as
        # the boundary priors.
        model = built.model
        shared = [built.boundary_marginals[(1, 0)], built.boundary_marginals[(1, 1)]]
        pools = [dictatorial_complete(model, [1, 1], built.boundary_marginals),
                 dictatorial_partial(model, 1), log_pooling(model, [0, 1, 0])]
        gaps = []
        for state in itertools.product((0.0, 1.0), repeat=6):
            phi = [np.array(state[:2]), np.array(state[2:4])]
            psi = [np.empty(0), np.array(state[4:]), np.empty(0)]
            combined = markov_combination_density(model, shared, phi, psi)
            gaps.append([abs(log_melded_density(model, pool, phi, psi) - combined)
                         for pool in pools])
        return np.array(gaps)

    def test_markov_combination_is_dictatorial_melding(self):
        built = self._shared_marginal_chain(agree=True)
        model = built.model
        phi = np.array(list(itertools.product((0.0, 1.0), repeat=2)))
        # The boundary priors are the ends' prior marginals.
        for b, end in ((0, model.submodels[0]), (1, model.submodels[2])):
            np.testing.assert_allclose(built.boundary_marginals[(1, b)](phi),
                                       end.eval_log_prior(phi), atol=1e-12)
        gaps = self._gaps(built)
        assert gaps.shape == (64, 3)
        assert gaps.max() < 1e-12

    def test_markov_combination_needs_shared_marginals(self):
        # Control: when end 1's prior marginal is not the middle's, melding
        # divides by a different prior, and the densities differ.
        assert (self._gaps(self._shared_marginal_chain(agree=False)).min(axis=0) > 1e-3).all()

    def test_markov_combination_needs_all_priors(self, discrete_chain):
        with pytest.raises(StructureError):
            markov_combination_density(
                discrete_chain.model,
                [lambda x: 0.0],
                [np.zeros(2), np.zeros(2)],
                [np.empty(0), np.zeros(2), np.empty(0)],
            )


class TestUnitAdditivity:
    def test_zero_gap_for_additive(self, discrete_chain):
        spec = discrete_chain.model.submodels[0]
        gap = unit_additivity_gap(
            spec, np.array([0.0, 1.0]), np.empty(0), np.array([1.0, 0.0]), np.empty(0)
        )
        assert gap < 1e-12

    def test_nonzero_gap_for_coupled(self):
        # xor coupling breaks per-unit additivity
        spec = SubmodelSpec(
            0,
            lambda phi, psi: float(phi[0]) * float(phi[1]),
            lambda phi: 0.0,
            unit_factorization=UnitFactorization(((0,), (1,)), ((), ())),
        )
        gap = unit_additivity_gap(
            spec, np.array([1.0, 1.0]), np.empty(0), np.array([0.0, 0.0]), np.empty(0)
        )
        assert gap > 0.5

    def test_requires_factorization(self):
        spec = _flat_spec(0, 1)
        with pytest.raises(StructureError):
            unit_additivity_gap(spec, np.zeros(1), np.empty(0), np.ones(1), np.empty(0))
