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
    discrete_coords,
    log_melded_density,
    markov_combination_density,
    poe_pooling,
    real_coords,
    submodel_log_ratio,
    unit_additivity_gap,
)


def _flat_spec(index, left, right, phi_dim, psi_dim=0, joint=None, marginal=None):
    return SubmodelSpec(
        index,
        left,
        right,
        joint or (lambda phi, psi: 0.0),
        marginal or (lambda phi: np.zeros(np.shape(phi)[:-1]) if np.ndim(phi) > 1 else 0.0),
        psi_coords=real_coords(psi_dim),
    )


def _three_chain(spec_overrides=None):
    specs = [
        _flat_spec(0, None, "a", 1),
        _flat_spec(1, "a", "b", 2, psi_dim=1),
        _flat_spec(2, "b", None, 1),
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
            ChainModel(submodels=(_flat_spec(0, None, "a", 1),), phi_blocks=())

    def test_block_count_mismatch(self):
        with pytest.raises(StructureError, match="got 2 submodels and 2 phi blocks"):
            ChainModel(
                submodels=(_flat_spec(0, None, "a", 1), _flat_spec(1, "a", None, 1)),
                phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("b", real_coords(1))),
            )

    def test_bad_wiring(self):
        with pytest.raises(StructureError, match=r"position 1: \(index, left_block, "
                           r"right_block\) is \(1, 'b', 'a'\), expected \(1, 'a', 'b'\)"):
            _three_chain({1: _flat_spec(1, "b", "a", 2, psi_dim=1)})

    @pytest.mark.parametrize("spec, match", [
        (_flat_spec(2, "a", "b", 2), r"is \(2, 'a', 'b'\), expected \(1, 'a', 'b'\)"),
        (_flat_spec(1, "a", None, 2), r"is \(1, 'a', None\), expected \(1, 'a', 'b'\)"),
        (SubmodelSpec(1, "a", "b", None, lambda phi: 0.0), "submodel 1: .* must be callable"),
        (SubmodelSpec(1, "a", "b", lambda phi, psi: 0.0, 0.0), "submodel 1: .* must be callable"),
    ])
    def test_bad_spec(self, spec, match):
        with pytest.raises(StructureError, match=match):
            _three_chain({1: spec})

    def test_duplicate_labels(self):
        with pytest.raises(StructureError, match="not unique"):
            ChainModel(
                submodels=(
                    _flat_spec(0, None, "a", 1),
                    _flat_spec(1, "a", "a", 2),
                    _flat_spec(2, "a", None, 1),
                ),
                phi_blocks=(PhiBlock("a", real_coords(1)), PhiBlock("a", real_coords(1))),
            )

    def test_bad_unit_partition(self):
        spec = SubmodelSpec(
            0, None, "a",
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
        spec = SubmodelSpec(0, None, "a", lambda phi, psi: 0.0, lambda phi: 0.0,
                            unit_factorization=UnitFactorization(phi, psi))
        with pytest.raises(StructureError, match="submodel 0: unit " + match):
            ChainModel((spec, _flat_spec(1, "a", None, 2)),
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
        spec = _flat_spec(0, None, "a", 1, joint=lambda p, s: -1.5, marginal=lambda p: -0.5)
        assert submodel_log_ratio(spec, np.zeros(1), np.empty(0)) == -1.0

    def test_neg_inf_joint_dominates(self):
        spec = _flat_spec(
            0, None, "a", 1,
            joint=lambda p, s: -math.inf,
            marginal=lambda p: -math.inf,
        )
        assert submodel_log_ratio(spec, np.zeros(1), np.empty(0)) == -math.inf

    def test_inconsistent_marginal_raises(self):
        spec = _flat_spec(
            0, None, "a", 1,
            joint=lambda p, s: 0.0,
            marginal=lambda p: -math.inf,
        )
        with pytest.raises(ModelInconsistencyError):
            submodel_log_ratio(spec, np.zeros(1), np.empty(0))

    def test_nan_joint_raises(self):
        spec = _flat_spec(0, None, "a", 1, joint=lambda p, s: math.nan)
        with pytest.raises(ModelInconsistencyError):
            spec.eval_log_joint(np.zeros(1), np.empty(0))

    def test_counters_increment(self):
        spec = _flat_spec(0, None, "a", 1)
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
                SubmodelSpec(0, None, "a", joint(1.0), marg),
                SubmodelSpec(1, "a", None, joint(2.0), lambda x: marg(np.asarray(x)[..., :1])),
            ),
            phi_blocks=(PhiBlock("a", discrete_coords([2])),),
        )
        phi = [np.array([1.0])]
        psi = [np.empty(0), np.empty(0)]
        value = markov_combination_density(model, [marg], phi, psi)
        expected = joint(1.0)(phi[0], None) + joint(2.0)(phi[0], None) - marg(phi[0])
        assert value == pytest.approx(expected, abs=1e-12)

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
            0, None, "a",
            lambda phi, psi: float(phi[0]) * float(phi[1]),
            lambda phi: 0.0,
            unit_factorization=UnitFactorization(((0,), (1,)), ((), ())),
        )
        gap = unit_additivity_gap(
            spec, np.array([1.0, 1.0]), np.empty(0), np.array([0.0, 0.0]), np.empty(0)
        )
        assert gap > 0.5

    def test_requires_factorization(self):
        spec = _flat_spec(0, None, "a", 1)
        with pytest.raises(StructureError):
            unit_additivity_gap(spec, np.zeros(1), np.empty(0), np.ones(1), np.empty(0))
