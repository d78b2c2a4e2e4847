"""End-to-end acceptance suite.

Each test prints one pass/fail line so the whole gate can be read off the
pytest output at a glance.  Reference values come from sources independent
of the code paths under test: closed-form Gaussian algebra, exact
enumeration of small discrete chains, raw precision arithmetic for the
conjugate chain, and byte comparison for determinism.
"""

import json
import math
import time

import numpy as np
import pytest

from chainmeld import (
    GaussianDensity,
    GridSpec,
    NumericalFailureError,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    build_normal_approx_target,
    dictatorial_complete,
    empirical_table,
    enumerate_melded_posterior,
    enumerate_pooled_prior,
    ess_bulk,
    factorize_for_sampler,
    grid_normalize,
    linear_pooling,
    log_melded_density,
    log_pool_gaussian_chain,
    log_pooling,
    run_parallel_stage_two,
    run_parallel_stage_two_unitwise,
    run_sequential,
    run_stage_one,
    run_stage_one_pair,
    split_rhat,
    tv_distance,
)
from chainmeld.builtins import DiscreteTable
from chainmeld.cli import main
from chainmeld.normal_approx import check_proper_ratio

from conftest import discrete_cli_params, make_discrete_chain, random_table

SCALE = 0.8


def _report(number, name, passed):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def _grid_density_of(gauss, table):
    """Closed-form density renormalized over the same grid cells."""
    mesh = np.meshgrid(*table.centers, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    dens = np.exp(gauss.logpdf(pts)).reshape(table.density.shape)
    return dens / (dens.sum() * table.cell_volume)


def test_acceptance_1_closed_form_vs_grid_pooling():
    built = builtin_gaussian_chain()  # mu1=-2.5, mu3=2.5, rho=0.8 defaults
    g1, g2, g3 = (built.meta[k] for k in ("prior1", "prior2", "prior3"))
    spec = GridSpec(((-6.0, 6.0, 200), (-6.0, 6.0, 200)))
    start = time.perf_counter()
    max_err = 0.0
    corrs = {}
    for lam1 in (0.0, 0.125, 0.25, 0.375, 0.5):
        lam = (lam1, 1.0 - 2.0 * lam1, lam1)
        table = grid_normalize(log_pooling(built.model, lam), spec)
        exact = log_pool_gaussian_chain(g1, g2, g3, lam)
        max_err = max(max_err, np.abs(_grid_density_of(exact, table) - table.density).max())
        corrs[lam1] = table.correlation()
    elapsed = time.perf_counter() - start
    ok = (
        max_err < 1e-6
        and elapsed < 5.0
        and abs(corrs[0.0] - 0.8) < 0.01
        and abs(corrs[0.5]) < 1e-6
    )
    _report(1, "closed-form vs grid pooling", ok)


def test_acceptance_2_linear_pooling_independence():
    built = builtin_gaussian_chain()
    spec = GridSpec(((-6.0, 6.0, 150), (-6.0, 6.0, 150)))
    ok = True
    for w in ((0.5, 0.5), (0.2, 0.8), (0.9, 0.1), (1.0, 0.0)):
        pool = linear_pooling(built.model, [w, w[::-1]], built.boundary_marginals)
        table = grid_normalize(pool, spec)
        ok = ok and abs(table.correlation()) < 1e-6
        ok = ok and abs(table.total_mass() - 1.0) < 1e-3
    _report(2, "linear-pooling inter-block independence", ok)


def test_acceptance_3_enumeration_oracle_equivalence():
    built = make_discrete_chain(seed=7)
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    oracle = enumerate_melded_posterior(built, pool)
    factor = factorize_for_sampler(pool, "subprior-ends")
    s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 50_000, seed=11)
    n_iter = 222_222  # 10% warmup leaves 2e5 retained iterations

    results = {}
    start = time.perf_counter()
    out = run_parallel_stage_two(built.model, factor, s1, s3, SCALE, n_iter, seed=12)
    results["parallel"] = (
        tv_distance(empirical_table(out.state_matrix(), oracle), oracle),
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    out = run_parallel_stage_two_unitwise(
        built.model, factor, s1, s3, SCALE, n_iter, seed=13
    )
    results["unitwise"] = (
        tv_distance(empirical_table(out.state_matrix(), oracle), oracle),
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    out = run_sequential(
        built.model, factor, (SCALE,) * 3, (50_000, n_iter, n_iter), seed=14
    )
    results["sequential"] = (
        tv_distance(empirical_table(out.state_matrix(), oracle), oracle),
        time.perf_counter() - start,
    )

    ok = all(tv < 0.02 and elapsed < 120.0 for tv, elapsed in results.values())
    assert out.phi[0].shape[1] == 200_000  # warmup arithmetic sanity
    _report(3, "enumeration-oracle equivalence (TV < 0.02)", ok)


def _split_joint_discrete(seed=3):
    """A joint model split into a 3-chain with identical shared priors and
    independent blocks, so half-weight logarithmic pooling restores it."""
    rng = np.random.default_rng(seed)
    q12 = random_table(rng, (2, 2))
    q23 = random_table(rng, (2, 2))
    p2 = np.einsum("ab,cd->abcd", q12, q23)
    lik1 = np.exp(0.4 * rng.standard_normal((2, 2)))
    lik3 = np.exp(0.4 * rng.standard_normal((2, 2)))
    built = builtin_discrete_chain(
        q12, p2, q23,
        phi_cards=((2, 2), (2, 2)),
        likelihoods=(lik1, None, lik3),
    )
    # the joint model's posterior, computed by direct table arithmetic
    joint = np.einsum("ab,cd,ab,cd->abcd", q12, q23, lik1, lik3)
    joint = joint / joint.sum()
    states = np.array(
        [[a, b, c, d] for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)],
        dtype=float,
    )
    probs = np.array([joint[tuple(s.astype(int))] for s in states])
    groups = {"phi12": (0, 2), "phi23": (2, 4), "psi1": (4, 4), "psi2": (4, 4), "psi3": (4, 4)}
    return built, DiscreteTable(states, probs, groups)


def test_acceptance_4_joint_model_identity():
    # discrete: enumeration equality to 1e-12 and sampler TV < 0.02
    built, joint_table = _split_joint_discrete()
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    oracle = enumerate_melded_posterior(built, pool)
    discrete_ok = np.abs(oracle.probs - joint_table.probs).max() < 1e-12

    factor = factorize_for_sampler(pool, "subprior-ends")
    s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 30_000, seed=21)
    out = run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 60_000, seed=22)
    tv = tv_distance(empirical_table(out.state_matrix(), oracle), joint_table)
    sampler_ok = tv < 0.02

    # all-Gaussian: split joint has rho=0 and shared priors equal to the
    # middle marginals; melded log density must match the joint log density
    # up to one additive constant on a grid
    gb = builtin_gaussian_chain(
        mu1=0.0, sigma1=1.0, mu3=0.0, sigma3=1.0, mu2=(0.0, 0.0), rho=0.0,
        y1=[0.6, -0.2], y3=[1.1],
    )
    gpool = log_pooling(gb.model, [0.5, 0.5, 0.5])

    def joint_log(a, b):
        out = -0.5 * a * a - 0.5 * b * b  # shared N(0,1) priors
        out += sum(-0.5 * (y - a) ** 2 for y in (0.6, -0.2))
        out += -0.5 * (1.1 - b) ** 2
        return out

    grid = np.linspace(-3, 3, 21)
    diffs = np.array(
        [
            log_melded_density(
                gb.model, gpool, [np.array([a]), np.array([b])],
                [np.empty(0), np.empty(0), np.empty(0)],
            )
            - joint_log(a, b)
            for a in grid
            for b in grid
        ]
    )
    gaussian_ok = diffs.max() - diffs.min() < 1e-8
    _report(4, "joint-model identity under half-weight pooling",
            discrete_ok and sampler_ok and gaussian_ok)


def test_acceptance_5_conjugate_gaussian_chain():
    y1, y3, y2 = [-2.0, -1.5], [2.2], [0.5]
    lam = (0.5, 0.5, 0.5)
    built = builtin_gaussian_chain(
        rho=0.2, y1=y1, s1=1.0, y3=y3, s3=1.0, y2=y2, s2=2.0, tau=1.0
    )
    pool = log_pooling(built.model, lam)
    factor = factorize_for_sampler(pool, "subprior-ends")
    s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 30_000, chains=2, seed=3)
    out = run_parallel_stage_two(
        built.model, factor, s1, s3, 1.0, 10_000, chains=5, seed=4
    )

    # analytic melded posterior over (phi12, phi23, psi2): accumulate the
    # pooled-prior precision and every likelihood contribution directly
    prec = np.zeros((3, 3))
    shift = np.zeros(3)
    prec[0, 0] += lam[0] * 1.0 + len(y1)
    shift[0] += lam[0] * (-2.5) + sum(y1)
    prec[1, 1] += lam[2] * 1.0 + len(y3)
    shift[1] += lam[2] * 2.5 + sum(y3)
    prec[:2, :2] += lam[1] * np.linalg.inv([[1.0, 0.2], [0.2, 1.0]])
    prec[2, 2] += 1.0  # psi2 ~ N(0, 1)
    a = np.ones(3)
    for y in y2:
        prec += np.outer(a, a) / 4.0
        shift += y * a / 4.0
    cov = np.linalg.inv(prec)
    mean = cov @ shift

    draws = out.state_matrix()  # columns: phi12, phi23, psi2
    ok = True
    for j, traces in enumerate((out.phi[0][:, :, 0], out.phi[1][:, :, 0], out.psi[1][:, :, 0])):
        e = ess_bulk(traces).value
        r = split_rhat(traces).value
        se_mean = math.sqrt(cov[j, j] / e)
        se_var = cov[j, j] * math.sqrt(2.0 / e)
        ok = ok and abs(draws[:, j].mean() - mean[j]) < 3 * se_mean
        ok = ok and abs(draws[:, j].var() - cov[j, j]) < 3 * se_var
        ok = ok and r < 1.01 and e > 1000
    _report(5, "conjugate Gaussian melded posterior", ok)


def test_acceptance_6_stage_locality():
    built = make_discrete_chain(seed=9)
    pool = log_pooling(built.model, [0.5, 0.5, 0.5])
    factor = factorize_for_sampler(pool, "subprior-ends")

    s1, s3 = run_stage_one_pair(built.model, factor, SCALE, 5_000, seed=31)
    built.model.reset_counters()
    run_parallel_stage_two(built.model, factor, s1, s3, SCALE, 5_000, seed=32)
    parallel_ok = (
        built.model.submodels[0].joint_calls.count == 0
        and built.model.submodels[2].joint_calls.count == 0
    )

    # sequential: submodel-1 joint evaluations must all come from its own
    # stage-one chain; replaying that chain alone gives the exact count
    seed, n1 = 33, 2_000
    ss1 = np.random.SeedSequence(seed).spawn(3)[0]
    built.model.reset_counters()
    run_stage_one(built.model, 0, factor, SCALE, n1, chains=1, seed=ss1.entropy)
    stage_one_calls = built.model.submodels[0].joint_calls.count
    built.model.reset_counters()
    run_sequential(
        built.model, factor, (SCALE,) * 3, (n1, 3_000, 3_000), seed=seed
    )
    sequential_ok = built.model.submodels[0].joint_calls.count == stage_one_calls
    _report(6, "stage-locality call counters", parallel_ok and sequential_ok)


def test_acceptance_7_normal_approximation_path():
    y1, y3 = [-2.0, -3.0], [2.0]
    built = builtin_gaussian_chain(y1=y1, s1=1.0, y3=y3, s3=1.0)
    v1 = 1.0 / (1.0 + len(y1))
    m1 = v1 * (-2.5 + sum(y1))
    v3 = 1.0 / (1.0 + len(y3))
    m3 = v3 * (2.5 + sum(y3))
    # exact melded target under middle-authoritative pooling:
    # p2 prior times both end likelihoods
    pool = dictatorial_complete(
        built.model, [1, 1], boundary_marginals=built.boundary_marginals
    )
    target = build_normal_approx_target(
        built.model,
        factorize_for_sampler(pool, "subprior-ends"),
        GaussianDensity([m1], [[v1]]),
        GaussianDensity([m3], [[v3]]),
    )

    def exact(a, b):
        value = log_melded_density(
            built.model, pool, [np.array([a]), np.array([b])],
            [np.empty(0), np.empty(0), np.empty(0)],
        )
        return value

    grid = np.linspace(-4.0, 4.0, 17)
    diffs = np.array(
        [
            target(np.array([[a, b]]))[0] - exact(a, b)
            for a in grid
            for b in grid
        ]
    )
    grid_ok = diffs.max() - diffs.min() < 1e-8

    named_error = False
    try:
        check_proper_ratio(
            GaussianDensity([0.0], [[4.0]]),  # wider than its prior
            built.meta["prior3"],
            built.model.phi_blocks[1],
        )
    except NumericalFailureError as exc:
        named_error = "phi23" in str(exc)
    _report(7, "normal-approximation target", grid_ok and named_error)


def test_acceptance_8_marginal_replacement():
    # no data: the melded model's phi_m marginal equals the pooled marginal
    built = make_discrete_chain(seed=17)
    no_data = builtin_discrete_chain(
        built.meta["prior_tables"][0],
        built.meta["prior_tables"][1],
        built.meta["prior_tables"][2],
        phi_cards=built.meta["phi_cards"],
        psi_cards=built.meta["psi_cards"],
    )
    pool = log_pooling(no_data.model, [0.4, 0.7, 0.3])
    melded = enumerate_melded_posterior(no_data, pool)
    pooled = enumerate_pooled_prior(no_data, pool)
    ok = True
    for m, groups in enumerate((("phi12",), ("phi12", "phi23"), ("phi23",))):
        cols = melded.group_columns(*groups)
        a = melded.marginal(cols)
        b = pooled.marginal(
            [c for g in groups for c in range(*pooled.column_groups[g])]
        )
        ok = ok and np.array_equal(a.states, b.states)
        ok = ok and np.abs(a.probs - b.probs).max() < 1e-12
    _report(8, "marginal replacement (pooled marginals preserved)", ok)


def test_acceptance_9_determinism(tmp_path):
    gaussian = {"name": "gaussian-chain",
                "params": {"rho": 0.2, "y1": [-2.0], "y3": [2.0], "y2": [0.5], "s2": 2.0,
                           "tau": 1.0}}
    discrete = {"name": "discrete-chain", "params": discrete_cli_params()}
    log_pool = {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]}
    middle_pool = {"method": "dictatorial-complete", "choices": [1, 1]}
    iterations = {"stage_one": 800, "stage_two": 800}
    # every sampler kind, each with several lockstep chains
    runs = [
        ("parallel", gaussian, log_pool, 2),
        ("parallel-unitwise", discrete, log_pool, 3),
        ("sequential", discrete, log_pool, 3),
        ("normal-approx", gaussian, middle_pool, 2),
    ]
    sample_artifacts = ("melded_samples.csv", "diagnostics.csv", "manifest.txt")
    ok = True
    for kind, model, pooling, chains in runs:
        cfg = {
            "model": model,
            "pooling": pooling,
            "sampler": {"kind": kind, "seed": 314, "chains": chains, "iterations": iterations},
            "outputs": {"directory": str(tmp_path / "run")},
            "grid": {"axes": [[-6, 6, 60], [-6, 6, 60]]},
        }
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(cfg, indent=1))
        commands = [("sample", sample_artifacts)]
        if kind == "parallel":
            commands.append(("pool-grid", ("pooled_grid.csv",)))
        for command, artifacts in commands:
            blobs = []
            for run_dir in ("a", "b"):
                out = str(tmp_path / kind / run_dir)
                assert main([command, "--config", str(path), "--out-dir", out]) == 0
                blobs.append(
                    tuple((tmp_path / kind / run_dir / name).read_bytes() for name in artifacts)
                )
            ok = ok and blobs[0] == blobs[1]
    _report(9, "byte-identical reruns", ok)
