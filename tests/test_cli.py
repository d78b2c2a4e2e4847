import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chainmeld import builtin_gaussian_chain, log_pool_gaussian_chain
from chainmeld.cli import main

from conftest import discrete_cli_params, random_table


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _gaussian_config(tmp_path, **overrides):
    cfg = {
        "model": {
            "name": "gaussian-chain",
            "params": {
                "rho": 0.2,
                "y1": [-2.0],
                "y3": [2.0],
                "y2": [0.5],
                "s2": 2.0,
                "tau": 1.0,
            },
        },
        "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
        "sampler": {
            "kind": "parallel",
            "seed": 42,
            "chains": 2,
            "iterations": {"stage_one": 500, "stage_two": 500},
            "scales": {"stage_one": 0.8, "stage_two": 1.0},
        },
        "outputs": {"directory": str(tmp_path / "out")},
        "grid": {"axes": [[-6, 6, 40], [-6, 6, 40]]},
    }
    cfg.update(overrides)
    return cfg


def _discrete_config(tmp_path):
    rng = np.random.default_rng(5)
    return {
        "model": {
            "name": "discrete-chain",
            "params": {
                "prior1": random_table(rng, (2,)).tolist(),
                "prior2": random_table(rng, (2, 2)).tolist(),
                "prior3": random_table(rng, (2,)).tolist(),
                "phi_cards": [[2], [2]],
                "psi_cards": [[], [], []],
            },
        },
        "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
        "sampler": {
            "kind": "parallel",
            "seed": 9,
            "iterations": {"stage_one": 2000, "stage_two": 4000},
        },
        "outputs": {"directory": str(tmp_path / "out")},
    }


def _unitwise_config(tmp_path):
    """The 64-state discrete test chain, units on both ends, for ``parallel-unitwise``."""
    return {
        "model": {"name": "discrete-chain", "params": discrete_cli_params(3)},
        "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
        "sampler": {
            "kind": "parallel-unitwise",
            "seed": 1,
            "chains": 2,
            "iterations": {"stage_one": 100, "stage_two": 100},
        },
        "outputs": {"directory": str(tmp_path / "out")},
    }


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: importing the CLI loads none of it."""
    code = ("import sys, chainmeld.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_missing_seed(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        del cfg["sampler"]["seed"]
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert "sampler.seed" in capsys.readouterr().err

    def test_low_iterations(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["iterations"]["stage_one"] = 50
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert "iterations" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["model"]["name"] = "quantum-chain"
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1

    @pytest.mark.parametrize("section, flag", [("sampler", "--seed"), ("outputs", "--out-dir")])
    def test_override_needs_an_object(self, tmp_path, capsys, section, flag):
        path = _write_config(tmp_path, _gaussian_config(tmp_path, **{section: 5}))
        assert main(["validate", "--config", path, flag, "7"]) == 1
        assert f"config error: {section}:" in capsys.readouterr().err

    def test_unreadable_config(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 1


class TestSections:
    """A misspelt section or key exits 1 naming it, rather than falling back to defaults."""

    @pytest.mark.parametrize("section, value, name", [
        ("model", {"name": "gaussian-chain", "parms": {"rho": 0.99}}, "model.parms"),
        ("sampeler", {"kind": "parallel", "seed": 1, "iterations": {}}, "sampeler"),
        ("outputs", {"directory": "out", "dir": "elsewhere"}, "outputs.dir"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, section, value, name):
        cfg = _gaussian_config(tmp_path)
        cfg[section] = value
        path = _write_config(tmp_path, cfg)
        for command in ("validate", "pool-grid"):
            assert main([command, "--config", path, "--out-dir", str(tmp_path / "out")]) == 1
            assert f"config error: {name}: unknown" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSamplerKeys:
    """Bad sampler keys exit 1 and name the key path, for validate and sample."""

    def _rejects(self, tmp_path, capsys, cfg, path_name):
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert main(["sample", "--config", path]) == 1
        assert path_name in capsys.readouterr().err
        assert not (tmp_path / "out" / "melded_samples.csv").exists()

    def test_unknown_iterations_key(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["iterations"]["stage_1"] = 500
        self._rejects(tmp_path, capsys, cfg, "sampler.iterations.stage_1")

    @pytest.mark.parametrize("scale", ["big", None, [0.5], -0.1, True, math.nan, math.inf])
    def test_bad_scale(self, tmp_path, capsys, scale):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["scales"]["stage_one"] = scale
        self._rejects(tmp_path, capsys, cfg, "sampler.scales.stage_one")

    def test_unknown_scales_key(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["scales"]["stage_2"] = 0.5
        self._rejects(tmp_path, capsys, cfg, "sampler.scales.stage_2")

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "7", math.nan])
    def test_bad_seed(self, tmp_path, capsys, seed):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["seed"] = seed
        self._rejects(tmp_path, capsys, cfg, "sampler.seed")

    @pytest.mark.parametrize("chains", [0, -1, 2.5, "2", True])
    def test_chains_must_be_positive_int(self, tmp_path, capsys, chains):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["chains"] = chains
        self._rejects(tmp_path, capsys, cfg, "sampler.chains")

    def test_unknown_sampler_key(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["warmup_fraction"] = 0.9  # warmup_frac misspelt
        self._rejects(tmp_path, capsys, cfg, "sampler.warmup_fraction")

    def test_unknown_factorization(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["factorization"] = "bogus"
        self._rejects(tmp_path, capsys, cfg, "sampler.factorization")

    @pytest.mark.parametrize("key", ["chains", "iterations"])
    def test_more_draws_than_a_stage_may_keep(self, tmp_path, capsys, key):
        # each key passes its own check; their product is beyond any array
        cfg = _gaussian_config(tmp_path)
        if key == "chains":
            cfg["sampler"]["chains"] = 2**70
        else:
            cfg["sampler"]["iterations"]["stage_two"] = 2**70
        self._rejects(tmp_path, capsys, cfg, "sampler.chains x sampler.iterations.stage_")

    def test_unknown_normal_approx_mode(self, tmp_path, capsys):
        # A retired key: poe-flat-prior under subprior-ends sampled the poe
        # pool's melded posterior, not the configured pool's.
        cfg = _gaussian_config(tmp_path)
        cfg["pooling"] = {"method": "dictatorial-complete", "choices": [1, 1]}
        cfg["sampler"]["kind"] = "normal-approx"
        cfg["sampler"]["normal_approx_mode"] = "poe-flat-prior"
        self._rejects(tmp_path, capsys, cfg, "sampler.normal_approx_mode: unknown key")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["parallel", "parallel-unitwise", "normal-approx"])
    @pytest.mark.parametrize("key", ["iterations", "scales"])
    def test_stage_three_only_where_a_stage_three_runs(self, tmp_path, capsys, kind, key):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["kind"] = kind
        cfg["sampler"][key]["stage_three"] = 500 if key == "iterations" else 0.5
        self._rejects(tmp_path, capsys, cfg, f"sampler.{key}.stage_three: unknown key")

    @pytest.mark.parametrize("kind", ["parallel", "sequential"])
    def test_draw_limit_covers_the_stages_that_run(self, tmp_path, capsys, kind):
        # 2**22 chains x 100 iterations fit; the default 1000 of a stage three do not.
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"].update(kind=kind, chains=2**22,
                              iterations={"stage_one": 100, "stage_two": 100})
        path = _write_config(tmp_path, cfg)
        if kind == "sequential":
            self._rejects(tmp_path, capsys, cfg, "sampler.chains x sampler.iterations.stage_three")
        else:
            assert main(["validate", "--config", path]) == 0

    @pytest.mark.parametrize("key, value", [("factorization", "flat-ends"),
                                            ("kind", "normal-approx")])
    def test_documented_keys_validate(self, tmp_path, capsys, key, value):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"][key] = value
        assert main(["validate", "--config", _write_config(tmp_path, cfg)]) == 0


class TestModelParams:
    """A misspelt, mistyped or unfactorized ``model.params`` key exits 1 and names it."""

    def _rejects(self, tmp_path, capsys, cfg, path_name):
        path = _write_config(tmp_path, cfg)
        for command in ("validate", "sample", "oracle"):
            assert main([command, "--config", path]) == 1
            err = capsys.readouterr().err
            assert path_name in err and "Traceback" not in err
        assert not (tmp_path / "out" / "melded_samples.csv").exists()
        return err

    @pytest.mark.parametrize("key, value", [("prior_1", "prior1"), ("mu_1", None)])
    def test_unknown_key_lists_accepted_keys(self, tmp_path, capsys, key, value):
        cfg = _gaussian_config(tmp_path) if value is None else _discrete_config(tmp_path)
        params = cfg["model"]["params"]
        params[key] = 0.0 if value is None else params.pop(value)
        err = self._rejects(tmp_path, capsys, cfg, f"model.params.{key}")
        assert ("prior1" if value else "mu1") in err

    @pytest.mark.parametrize("key, value, discrete", [
        ("sigma1", "x", False),
        ("mu2", 3.0, False),
        ("y1", ["a"], False),
        ("phi_cards", 3, True),
        ("psi_cards", [[2.5], [], []], True),
        ("prior2", [[0.5, "a"], [0.2, 0.3]], True),
        ("units", [{"phi_indices": [[0]]}, None, None], True),
        ("normalized", "yes", True),
        ("tau", math.nan, False),
        ("sigma1", math.nan, False),
        ("mu1", math.inf, False),
        ("mu2", [math.nan, 0], False),
        ("sigma2", [1, True], False),
        ("prior2", [[0.5, -math.inf], [0.2, 0.3]], True),
    ])
    def test_mistyped_value(self, tmp_path, capsys, key, value, discrete):
        cfg = _discrete_config(tmp_path) if discrete else _gaussian_config(tmp_path)
        cfg["model"]["params"][key] = value
        self._rejects(tmp_path, capsys, cfg, f"model.params.{key}")

    @pytest.mark.parametrize("key, value", [("s2", 1e200), ("y1", [1e200])])
    def test_overflowing_value(self, tmp_path, capsys, key, value):
        cfg = _gaussian_config(tmp_path)
        cfg["model"]["params"][key] = value
        self._rejects(tmp_path, capsys, cfg, "model.params")

    @pytest.mark.parametrize("key, value", [
        ("y1", [0, 2.68e154]),  # the data's spread overflows
        ("sigma1", 1e-200),  # the squares of these scales underflow
        ("s2", 1e-200),
        ("tau", 1e-200),
        ("sigma2", [1e-200, 1.0]),
    ])
    def test_value_beyond_the_float_range_names_its_key(self, tmp_path, capsys, key, value):
        cfg = _gaussian_config(tmp_path)
        cfg["model"]["params"][key] = value
        path = _write_config(tmp_path, cfg)
        for command in ("validate", "pool-grid", "sample"):
            assert main([command, "--config", path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: model.params.{key}:") and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_table(self, tmp_path, capsys):
        cfg = _discrete_config(tmp_path)
        del cfg["model"]["params"]["prior3"]
        self._rejects(tmp_path, capsys, cfg, "model.params.prior3")

    def test_table_sum_is_printed_as_a_number(self, tmp_path, capsys):
        cfg = _discrete_config(tmp_path)
        cfg["model"]["params"]["prior1"] = [1.0, 1.0]
        assert main(["validate", "--config", _write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: model.params.prior1: table sums to 2.0, expected 1 within 1e-9\n")

    def test_params_must_be_an_object(self, tmp_path, capsys):
        cfg = _gaussian_config(tmp_path)
        cfg["model"]["params"] = [1, 2]
        self._rejects(tmp_path, capsys, cfg, "model.params")

    def test_units_must_factorize_the_tables(self, tmp_path, capsys):
        # random end tables over two shared coordinates, one unit per coordinate
        cfg = _discrete_config(tmp_path)
        rng = np.random.default_rng(7)
        params = cfg["model"]["params"]
        params.update({
            "prior1": random_table(rng, (2, 2)).tolist(),
            "prior2": random_table(rng, (2, 2, 2)).tolist(),
            "prior3": random_table(rng, (2,)).tolist(),
            "phi_cards": [[2, 2], [2]],
            "units": [{"phi_indices": [[0], [1]], "psi_indices": [[], []]}, None, None],
        })
        self._rejects(tmp_path, capsys, cfg, "model.params.units")
        params["prior1"] = np.multiply.outer(random_table(rng, 2), random_table(rng, 2)).tolist()
        assert main(["validate", "--config", _write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("end, message", [
        ({"phi_indices": [[0], [1, 5]], "psi_indices": [[], []]},
         "unit phi indices [[0], [1, 5]] do not partition its phi coordinates (0..1)"),
        ({"phi_indices": [[0], [1]], "psi_indices": [[0], []]},
         "unit psi indices [[0], []] do not partition its psi coordinates (it has none)"),
    ])
    def test_units_must_partition_the_coordinates(self, tmp_path, capsys, end, message):
        cfg = _unitwise_config(tmp_path)
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 0
        capsys.readouterr()
        cfg["model"]["params"]["units"][0] = end
        path = _write_config(tmp_path, cfg)
        for command in ("validate", "sample", "oracle"):
            assert main([command, "--config", path]) == 1
            err = capsys.readouterr().err
            assert err == f"config error: model.params.units: submodel 0: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, cards, shape", [
        ("psi_cards", [[], [2, 1], []], (2,) * 5 + (1,)),
        ("phi_cards", [[2, 2], [2, 0]], (2,) * 6),
        ("phi_cards", [[], [2, 2]], (2,) * 4),
    ])
    def test_cardinalities_name_their_key(self, tmp_path, capsys, key, cards, shape):
        cfg = _unitwise_config(tmp_path)
        params = cfg["model"]["params"]
        del params["likelihoods"], params["units"]
        params["prior2"] = random_table(np.random.default_rng(0), shape).tolist()
        params[key] = cards
        path = _write_config(tmp_path, cfg)
        for command in ("validate", "sample", "oracle"):
            assert main([command, "--config", path]) == 1
            assert capsys.readouterr().err.startswith(f"config error: model.params.{key}: ")
        assert not (tmp_path / "out").exists()


class TestPoolingKeys:
    @pytest.mark.parametrize(
        "pooling, key",
        [
            ({"method": "logarithmic", "lambda": [0.5, -1, 0.5]}, "pooling.lambda"),
            ({"method": "logarithmic", "lambda": [0.5, 0.5]}, "pooling.lambda"),
            ({"method": "logarithmic", "lambda": ["a", 1, 1]}, "pooling.lambda"),
            ({"method": "linear", "lambda": [[0.5, -0.5], [0.5, 0.5]]}, "pooling.lambda"),
            ({"method": "dictatorial-partial", "authoritative": 1,
              "lambda": [1, -1, 1]}, "pooling.lambda"),
            ({"method": "dictatorial-partial", "authoritative": "1"},
             "pooling.authoritative"),
            ({"method": "dictatorial-complete", "choices": [2, 1]}, "pooling.choices"),
            ({"method": "logarithmic", "lambda": [True, 1, 1]}, "pooling.lambda"),
            ({"method": "dictatorial-complete", "choices": [1.5, 1]}, "pooling.choices"),
            # a key the method does not read, and an index beyond the chain
            ({"method": "poe", "lambda": [1, 1, 1]}, "pooling.lambda: unknown key"),
            ({"method": "dictatorial-complete", "choices": [1, 1], "lambda": [1, 1, 1]},
             "pooling.lambda: unknown key"),
            ({"method": "dictatorial-partial", "authoritative": 7}, "pooling.authoritative"),
        ],
    )
    def test_invalid_pool_is_config_error(self, tmp_path, capsys, pooling, key):
        path = _write_config(tmp_path, _gaussian_config(tmp_path, pooling=pooling))
        assert main(["validate", "--config", path]) == 1
        assert main(["sample", "--config", path]) == 1
        assert key in capsys.readouterr().err


class TestSample:
    def test_writes_expected_artifacts(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["sample", "--config", path]) == 0
        out = tmp_path / "out"
        with (out / "melded_samples.csv").open() as handle:
            header = next(csv.reader(handle))
        assert header == ["chain", "iteration", "phi12", "phi23", "psi2"]
        with (out / "diagnostics.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["parameter", "rhat", "ess_bulk", "ess_tail", "acceptance_rate"]
        assert {r[0] for r in rows[1:]} == {"phi12", "phi23", "psi2"}
        manifest = (out / "manifest.txt").read_text()
        assert "seed: 42" in manifest
        assert "config_sha256:" in manifest
        assert "scipy" not in manifest

    def test_seed_override_changes_output(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        main(["sample", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["sample", "--config", path, "--out-dir", str(tmp_path / "b"), "--seed", "7"])
        a = (tmp_path / "a" / "melded_samples.csv").read_text()
        b = (tmp_path / "b" / "melded_samples.csv").read_text()
        assert a != b

    def test_byte_identical_reruns(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        main(["sample", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["sample", "--config", path, "--out-dir", str(tmp_path / "b")])
        for name in ("melded_samples.csv", "diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sequential_kind(self, tmp_path):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["kind"] = "sequential"
        cfg["sampler"]["iterations"]["stage_three"] = 500
        path = _write_config(tmp_path, cfg)
        assert main(["sample", "--config", path]) == 0

    def test_moves_without_proposals_have_no_acceptance_rate(self, tmp_path):
        # The README chain's last end has no psi, so sequential's s3_psi3 walk
        # makes no proposals: it has no rate, and the mean is over real moves.
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["kind"] = "sequential"
        cfg["sampler"]["iterations"]["stage_three"] = 500
        assert main(["sample", "--config", _write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        rates = {}
        for line in (out / "manifest.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            if key.startswith("acceptance_rate."):
                rates[key.removeprefix("acceptance_rate.")] = float(value)
        assert set(rates) == {"s2_phi1", "s2_move", "s3_index"}
        assert all(rate > 0.0 for rate in rates.values())
        with (out / "diagnostics.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        mean = sum(rates.values()) / len(rates)
        assert [float(r["acceptance_rate"]) for r in rows] == pytest.approx([mean] * len(rows))

    def test_normal_approx_kind(self, tmp_path):
        cfg = _gaussian_config(
            tmp_path, pooling={"method": "dictatorial-complete", "choices": [1, 1]}
        )
        cfg["sampler"]["kind"] = "normal-approx"
        path = _write_config(tmp_path, cfg)
        assert main(["sample", "--config", path]) == 0
        assert (tmp_path / "out" / "melded_samples.csv").exists()

    @pytest.mark.parametrize(
        "pooling",
        [
            {"method": "dictatorial-partial", "authoritative": 1},
            {"method": "logarithmic", "lambda": [0.0, 1.0, 0.0]},
        ],
    )
    def test_normal_approx_accepts_middle_pools(self, tmp_path, pooling):
        cfg = _gaussian_config(tmp_path, pooling=pooling)
        cfg["sampler"]["kind"] = "normal-approx"
        assert main(["sample", "--config", _write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("factorization", ["subprior-ends", "flat-ends"])
    @pytest.mark.parametrize("pooling, lam", [
        ({"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]}, [0.5, 0.5, 0.5]),
        ({"method": "logarithmic", "lambda": [1, 1, 1]}, [1, 1, 1]),
        ({"method": "dictatorial-complete", "choices": [1, 1]}, [0, 1, 0]),
    ], ids=["log-half", "log-one", "dictatorial-middle"])
    def test_normal_approx_matches_analytic_posterior(self, tmp_path, pooling, lam,
                                                      factorization):
        """Every pool's melded posterior, by acceptance 5's 3-SE rule on each moment."""
        cfg = _gaussian_config(tmp_path, pooling=pooling)
        cfg["sampler"].update(kind="normal-approx", seed=11, chains=4,
                              factorization=factorization,
                              iterations={"stage_one": 20_000, "stage_two": 10_000})
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 0
        assert main(["sample", "--config", path]) == 0

        # closed form: the pooled prior times every conjugate data term
        p = cfg["model"]["params"]
        built = builtin_gaussian_chain(**p)
        pooled = log_pool_gaussian_chain(built.meta["prior1"], built.meta["prior2"],
                                         built.meta["prior3"], lam)
        prec = np.zeros((3, 3))
        prec[:2, :2] = np.linalg.inv(pooled.cov)
        shift = np.zeros(3)
        shift[:2] = prec[:2, :2] @ pooled.mean
        prec[0, 0] += len(p["y1"])
        shift[0] += sum(p["y1"])
        prec[1, 1] += len(p["y3"])
        shift[1] += sum(p["y3"])
        prec[2, 2] += 1.0 / p["tau"] ** 2
        a = np.ones(3)
        for y in p["y2"]:
            prec += np.outer(a, a) / p["s2"] ** 2
            shift += y * a / p["s2"] ** 2
        cov = np.linalg.inv(prec)
        mean = cov @ shift

        out = tmp_path / "out"
        with (out / "diagnostics.csv").open() as handle:
            diag = {row["parameter"]: row for row in csv.DictReader(handle)}
        data = np.loadtxt(out / "melded_samples.csv", delimiter=",", skiprows=1)
        for j, name in enumerate(("phi12", "phi23", "psi2")):
            e, v, x = float(diag[name]["ess_bulk"]), cov[j, j], data[:, 2 + j]
            assert float(diag[name]["rhat"]) < 1.01 and e > 1000
            assert abs(x.mean() - mean[j]) < 3 * math.sqrt(v / e)
            assert abs(x.var() - v) < 3 * v * math.sqrt(2.0 / e)

    def test_normal_approx_rejects_discrete_chains(self, tmp_path, capsys):
        cfg = _discrete_config(tmp_path)
        cfg["pooling"] = {"method": "dictatorial-complete", "choices": [1, 1]}
        cfg["sampler"]["kind"] = "normal-approx"
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert main(["sample", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: sampler.kind:") == 2
        assert not (tmp_path / "out" / "melded_samples.csv").exists()

    def test_normal_approx_improper_ratio_exits_2(self, tmp_path, capsys):
        """A stage-one fit no more precise than its subprior stops the run before stage two."""
        # Without data each end's subposterior is its prior, so each fit is
        # wider than the prior about half the time; at this seed phi12's is.
        cfg = _gaussian_config(tmp_path)
        cfg["model"]["params"].update(y1=[], y3=[])
        cfg["sampler"]["kind"] = "normal-approx"
        path = _write_config(tmp_path, cfg)
        assert main(["sample", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "subposterior/subprior ratio for shared block 'phi12' is improper" in err
        assert not (tmp_path / "out" / "melded_samples.csv").exists()

    @pytest.mark.parametrize("model", ["gaussian", "discrete"])
    def test_unitwise_needs_unit_factorizations(self, tmp_path, capsys, model):
        cfg = _gaussian_config(tmp_path) if model == "gaussian" else _discrete_config(tmp_path)
        cfg["sampler"]["kind"] = "parallel-unitwise"
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert main(["sample", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: sampler.kind:") == 2
        assert err.count("model.params.units") == 2
        assert not (tmp_path / "out" / "melded_samples.csv").exists()

    def test_normal_approx_poe_flat_prior_accepts_flat_ends(self, tmp_path):
        """The ends enter flat-ends stage two as fits to their likelihoods alone, the
        product of experts under flat end priors."""
        cfg = _gaussian_config(
            tmp_path, pooling={"method": "dictatorial-complete", "choices": [1, 1]}
        )
        cfg["sampler"].update(kind="normal-approx", factorization="flat-ends")
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 0
        assert main(["sample", "--config", path]) == 0

    @pytest.mark.parametrize("warmup", [-0.5, 1.0, 1.5, "0.1", True])
    def test_warmup_frac_out_of_range(self, tmp_path, capsys, warmup):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["warmup_frac"] = warmup
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 1
        assert main(["sample", "--config", path]) == 1
        assert "sampler.warmup_frac" in capsys.readouterr().err
        assert not (tmp_path / "out" / "melded_samples.csv").exists()

    @pytest.mark.parametrize("command", ["sample", "pool-grid"])
    @pytest.mark.parametrize("where", ["under a file", "nul byte"])
    def test_unusable_directory(self, tmp_path, capsys, command, where):
        (tmp_path / "file").write_text("")
        directory = tmp_path / "file" / "out" if where == "under a file" else f"{tmp_path}/o\0ut"
        cfg = _gaussian_config(tmp_path, outputs={"directory": str(directory)})
        assert main([command, "--config", _write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error: outputs.directory:" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]

    def test_warmup_frac_zero_keeps_every_draw(self, tmp_path):
        cfg = _gaussian_config(tmp_path)
        cfg["sampler"]["warmup_frac"] = 0
        assert main(["sample", "--config", _write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "melded_samples.csv").open() as handle:
            assert sum(1 for _ in handle) == 1 + 2 * 500


class TestPoolGrid:
    def test_writes_grid(self, tmp_path, capsys):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["pool-grid", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "grid mass" in out
        with (tmp_path / "out" / "pooled_grid.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x0", "x1", "density"]
        assert len(rows) == 1 + 40 * 40

    def test_grid_requires_axes(self, tmp_path):
        cfg = _gaussian_config(tmp_path)
        del cfg["grid"]
        path = _write_config(tmp_path, cfg)
        assert main(["pool-grid", "--config", path]) == 1

    @pytest.mark.parametrize("grid, key", [
        ({"axes": [[0, 1]]}, "grid.axes"),
        ({"axes": [["a", 1, 3], [-6, 6, 4]]}, "grid.axes"),
        ({"axes": [[0, 1, 0], [-6, 6, 4]]}, "grid.axes"),
        ({"axes": [[1, 0, 3], [-6, 6, 4]]}, "grid.axes"),
        ({"axes": [[0, math.nan, 3], [-6, 6, 4]]}, "grid.axes"),
        ({"axes": [[0, 1, 2.5], [-6, 6, 4]]}, "grid.axes"),
        ({"axes": [[0, 1, 3]]}, "grid.axes"),
        ({"axes": [[0, 1, 5000], [0, 1, 5000]]}, "grid.axes"),
        ({"axes": [[-1e200, 1e200, 3], [-1e200, 1e200, 3]]}, "grid.axes"),  # cell volume inf
        ({"axes": [[0, 1e-155, 1], [0, 1e-155, 1]]}, "grid.axes"),  # 1 / cell volume inf
        ({"axes": [[-1e300, 1e300, 10], [-6, 6, 4]]}, "grid.axes"),  # no cell near the mass
        ({"axes": [[-6, 6, 1], [-6, 6, 4]]}, "grid.axes"),  # one cell: no spread
        ({"axes": 5}, "grid.axes"),
        (5, "grid"),
        ({"axes": [[-6, 6, 40], [-6, 6, 40]], "axis": [[-6, 6, 40]]}, "grid.axis"),
        ("discrete", "model.name"),
    ])
    def test_bad_input_names_its_key(self, tmp_path, capsys, grid, key):
        if grid == "discrete":
            cfg = _discrete_config(tmp_path)
            cfg["grid"] = {"axes": [[0, 1, 2], [0, 1, 2]]}
        else:
            cfg = _gaussian_config(tmp_path, grid=grid)
        assert main(["pool-grid", "--config", _write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("grid, lam", [
        ([[-6, 7.6e76, 10], [-6, 6, 10]], [0.5, 0.5, 0.5]),  # the mass fills one cell of axis 0
        ([[-6, 6, 200], [-6, 6, 200]], [2**70, 0.5, 0.5]),  # a pool too peaked for the cells
    ])
    def test_axis_without_spread_is_named(self, tmp_path, capsys, grid, lam):
        cfg = _gaussian_config(tmp_path, grid={"axes": grid})
        cfg["pooling"]["lambda"] = lam
        assert main(["pool-grid", "--config", _write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.axes: axis 0 holds no spread")
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()


class TestOracle:
    def test_oracle_with_sampler_tv(self, tmp_path, capsys):
        path = _write_config(tmp_path, _discrete_config(tmp_path))
        assert main(["oracle", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "sampler TV" in out
        with (tmp_path / "out" / "oracle_posterior.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "probability"
        probs = [float(r[-1]) for r in rows[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_rejects_continuous(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["oracle", "--config", path]) == 1

    @pytest.mark.parametrize("key, value", [("kind", "bogus"), ("warmup_frac", 2)])
    def test_bad_sampler_is_rejected_before_enumeration(self, tmp_path, capsys, key, value):
        cfg = _discrete_config(tmp_path)
        cfg["sampler"][key] = value
        assert main(["oracle", "--config", _write_config(tmp_path, cfg)]) == 1
        assert f"config error: sampler.{key}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDiag:
    def test_recomputes_from_csv(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        main(["sample", "--config", path])
        assert main(["diag", "--config", path]) == 0
        with (tmp_path / "out" / "diagnostics.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert {r[0] for r in rows[1:]} == {"phi12", "phi23", "psi2"}

    def test_missing_samples_is_runtime_error(self, tmp_path):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["diag", "--config", path]) == 2

    def test_unequal_chain_lengths_is_runtime_error(self, tmp_path, capsys):
        path = _write_config(tmp_path, _gaussian_config(tmp_path))
        assert main(["sample", "--config", path]) == 0
        samples = tmp_path / "out" / "melded_samples.csv"
        lines = samples.read_text().splitlines()
        samples.write_text("\n".join(lines[:-1]) + "\n")  # drop chain 1's last row
        assert main(["diag", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "chain 0: 450 rows" in err and "chain 1: 449 rows" in err


def _samples_lines(chains=2, draws=8):
    """Lines of a valid melded_samples.csv with two parameter columns."""
    rng = np.random.default_rng(3)
    lines = ["chain,iteration,theta_0,theta_1"]
    for c in range(chains):
        for t in range(draws):
            a, b = rng.standard_normal(2).tolist()
            lines.append(f"{c},{t},{a!r},{b!r}")
    return lines


def _diag_on(tmp_path, text):
    """Write ``text`` as the sample file of a diag config and run diag on it."""
    path = _write_config(tmp_path, _gaussian_config(tmp_path))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "melded_samples.csv").write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's warning on an empty body
        return main(["diag", "--config", path])


class TestDiagInput:
    @pytest.mark.parametrize("chain_id", ["1.7", "1e12", "-0.5", "nan"])
    def test_chain_ids_must_be_0_to_c_minus_1(self, tmp_path, capsys, chain_id):
        lines = _samples_lines()
        lines[9:] = [chain_id + line[1:] for line in lines[9:]]  # every chain-1 row
        assert _diag_on(tmp_path, "\n".join(lines) + "\n") == 2
        err = capsys.readouterr().err
        assert "chain ids" in err and "melded_samples.csv" in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "case",
        [
            "truncated last line",
            "non-numeric cell",
            "extra field",
            "missing field",
            "extra field in every row",
            "header only",
            "empty file",
        ],
    )
    def test_malformed_file_is_runtime_error(self, tmp_path, capsys, case, newline):
        lines = _samples_lines()
        end = newline
        if case == "truncated last line":
            lines[-1] = lines[-1][: lines[-1].index(",", 2)]
            end = ""
        elif case == "non-numeric cell":
            lines[5] = lines[5].rsplit(",", 1)[0] + ",abc"
        elif case == "extra field":
            lines[5] += ",0.5"
        elif case == "missing field":
            lines[5] = lines[5].rsplit(",", 1)[0]
        elif case == "extra field in every row":
            lines[1:] = [line + ",0.5" for line in lines[1:]]
        elif case == "header only":
            lines = lines[:1]
        else:
            lines, end = [], ""
        assert _diag_on(tmp_path, newline.join(lines) + end) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_draw_is_runtime_error(self, tmp_path, capsys, value):
        lines = _samples_lines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
        # _diag_on turns every warning into an error, numpy's RuntimeWarning too.
        assert _diag_on(tmp_path, "\n".join(lines) + "\n") == 2
        err = capsys.readouterr().err
        assert "melded_samples.csv" in err and "'theta_1'" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    def test_draws_near_the_float_limit_are_diagnosed(self, tmp_path):
        # Squares of such draws overflow; _diag_on turns numpy's RuntimeWarning
        # into an error, so diag must never square them.
        lines = _samples_lines()
        rng = np.random.default_rng(8)
        lines[1:] = [
            line.rsplit(",", 1)[0] + "," + repr(float(x))
            for line, x in zip(lines[1:], 1e308 * rng.uniform(-1.0, 1.0, len(lines) - 1))
        ]
        assert _diag_on(tmp_path, "\n".join(lines) + "\n") == 0
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as fh:
            rows = {row["parameter"]: row for row in csv.DictReader(fh)}
        assert math.isfinite(float(rows["theta_1"]["rhat"]))

    def test_line_endings_and_blank_lines_do_not_change_diagnostics(self, tmp_path):
        lines = _samples_lines()
        results = []
        for k, text in enumerate(
            [
                "\n".join(lines) + "\n",
                "\r\n".join(lines) + "\r\n",
                "\n".join(lines),
                "\r\n".join(lines) + "\r\n\r\n",
                "\n".join(lines[:5] + [""] + lines[5:]) + "\n\n",
            ]
        ):
            run = tmp_path / str(k)
            run.mkdir()
            assert _diag_on(run, text) == 0
            results.append((run / "out" / "diagnostics.csv").read_bytes())
        assert results[0].count(b"\r\n") == 3
        assert all(r == results[0] for r in results)
