"""Seeded workload generator.

Every input a workload feeds to the ``chainmeld`` CLI is made here from the
workload seed alone: JSON configs, discrete probability tables and the AR(1)
samples CSV.  The same seed always gives byte-identical files.  The program
sees the seed only through these files (``sampler.seed`` in a config, the
tables, the CSV).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The README example: Gaussian chain, rho 0.2, y1/y2/y3, tau 1, 2 chains.
README_PARAMS = {"rho": 0.2, "y1": [-2.0], "y3": [2.0], "y2": [0.5], "s2": 2.0, "tau": 1.0}
README_LAMBDA = [0.5, 0.5, 0.5]
README_GRID = [[-6, 6, 200], [-6, 6, 200]]
README_STAGE_ONE = 5000

GAUSS_CHAINS = 2
GAUSS_STAGE_TWO = 1500
DISCRETE_CHAINS = 8
DISCRETE_STAGE_ONE = 2000
DISCRETE_STAGE_TWO = 1000
AR1_COEFFS = (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9)
AR1_CHAINS = 4
AR1_ROWS_PER_CHAIN = 12_500

WORKLOADS = ("gauss-readme", "discrete-oracle", "analysis")


@dataclass(frozen=True)
class Op:
    """One ``chainmeld`` command of a workload.

    ``name`` is the op's metric suffix (the sampler kind for ``sample``);
    ``check`` names the oracle that judges the op's artifacts; ``reps`` is
    how many times one process runs the command, so that each process
    measures a few seconds after paying its import once.
    """

    name: str
    command: str
    config: str
    out_dir: str
    check: str
    reps: int


def _sampler_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return str(path)


def _random_table(rng, shape, spread=0.5):
    t = np.exp(spread * rng.standard_normal(shape))
    return t / t.sum()


def discrete_params(seed: int) -> dict:
    """Seeded 64-state discrete chain as ``discrete-chain`` CLI params.

    Same recipe as the test suite's discrete chain: factorized binary end
    priors with unit factorizations, a random 6-axis middle table and a
    middle likelihood folded in.
    """
    rng = np.random.default_rng(seed)

    def end_table():
        a = _random_table(rng, 2)
        b = _random_table(rng, 2)
        return np.multiply.outer(a, b)

    p1, p3 = end_table(), end_table()
    p2 = _random_table(rng, (2, 2, 2, 2, 2, 2))
    lik2 = np.exp(0.3 * rng.standard_normal((2, 2, 2, 2, 2, 2)))
    unit = {"phi_indices": [[0], [1]], "psi_indices": [[], []]}
    return {
        "prior1": p1.tolist(),
        "prior2": p2.tolist(),
        "prior3": p3.tolist(),
        "phi_cards": [[2, 2], [2, 2]],
        "psi_cards": [[], [2, 2], []],
        "likelihoods": [None, lik2.tolist(), None],
        "units": [unit, None, unit],
    }


def write_ar1_samples(path: Path, seed: int) -> None:
    """``melded_samples.csv`` of AR(1) traces with known coefficients.

    Column j holds a stationary unit-variance AR(1) process with
    coefficient ``AR1_COEFFS[j]``, independently for each chain, so its
    bulk ESS is close to N (1 - a) / (1 + a).
    """
    rng = np.random.default_rng([seed, 3])
    n, k = AR1_ROWS_PER_CHAIN, len(AR1_COEFFS)
    a = np.asarray(AR1_COEFFS)
    noise = rng.standard_normal((AR1_CHAINS, n, k)) * np.sqrt(1.0 - a * a)
    x = np.empty_like(noise)
    x[:, 0] = rng.standard_normal((AR1_CHAINS, k))
    for t in range(1, n):
        x[:, t] = a * x[:, t - 1] + noise[:, t]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["chain", "iteration"] + [f"theta_{j}" for j in range(k)])
        for c in range(AR1_CHAINS):
            for t in range(n):
                writer.writerow([c, t] + [repr(float(v)) for v in x[c, t]])


def _gauss_readme(root: Path, seed: int) -> list[Op]:
    # Why: users copy this config, and its stage two is bound by evaluator
    # cost (GaussianDensity.logpdf), so changes to gaussian, pooling and
    # chain show here first.  normal-approx runs only under
    # dictatorial-complete [1, 1], the one pool its target is exact for.
    ops = []
    for kind, pooling, salt, reps in (
        ("parallel", {"method": "logarithmic", "lambda": README_LAMBDA}, 1, 2),
        ("normal-approx", {"method": "dictatorial-complete", "choices": [1, 1]}, 2, 3),
    ):
        out = root / kind
        cfg = {
            "model": {"name": "gaussian-chain", "params": README_PARAMS},
            "pooling": pooling,
            "sampler": {
                "kind": kind,
                "seed": _sampler_seed(seed, salt),
                "chains": GAUSS_CHAINS,
                "iterations": {"stage_one": README_STAGE_ONE, "stage_two": GAUSS_STAGE_TWO},
            },
            "outputs": {"directory": str(out)},
        }
        path = _write_json(root / f"{kind}.json", cfg)
        ops.append(Op(kind, "sample", path, str(out), "gaussian-moments", reps))
    return ops


def _discrete_oracle(root: Path, seed: int) -> list[Op]:
    # Why: table-lookup evaluators never call gaussian, so the sampler loops,
    # the chain wrappers and pool evaluation dominate.  Only workload that
    # runs the unitwise and sequential loops; 8 chains is where lockstep
    # chains would show.  A Cholesky-caching change should leave it as is.
    params = discrete_params(seed)
    ops = []
    for kind, salt in (("parallel", 1), ("parallel-unitwise", 2), ("sequential", 3)):
        out = root / kind
        iters = {"stage_one": DISCRETE_STAGE_ONE, "stage_two": DISCRETE_STAGE_TWO}
        if kind == "sequential":
            iters["stage_three"] = DISCRETE_STAGE_TWO
        cfg = {
            "model": {"name": "discrete-chain", "params": params},
            "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
            "sampler": {
                "kind": kind,
                "seed": _sampler_seed(seed, salt),
                "chains": DISCRETE_CHAINS,
                "iterations": iters,
            },
            "outputs": {"directory": str(out)},
        }
        path = _write_json(root / f"{kind}.json", cfg)
        ops.append(Op(kind, "sample", path, str(out), "discrete-tv", 2))
    return ops


def _analysis(root: Path, seed: int) -> list[Op]:
    # Why: no sampling.  It reads a large CSV where the sample workloads
    # write them, runs diagnostics at scale, and evaluates pooling as one
    # batch over a grid instead of one point per proposal.
    diag_dir = root / "diag"
    diag_dir.mkdir(parents=True, exist_ok=True)
    write_ar1_samples(diag_dir / "melded_samples.csv", seed)
    ops = [
        Op(
            "diag", "diag",
            _write_json(root / "diag.json", {
                "model": {"name": "gaussian-chain", "params": README_PARAMS},
                "pooling": {"method": "logarithmic", "lambda": README_LAMBDA},
                "outputs": {"directory": str(diag_dir)},
            }),
            str(diag_dir), "ar1-ess", 4,
        )
    ]
    for method, lam in (("logarithmic", README_LAMBDA), ("linear", [[0.5, 0.5], [0.5, 0.5]])):
        out = root / f"grid-{method}"
        cfg = {
            "model": {"name": "gaussian-chain", "params": README_PARAMS},
            "pooling": {"method": method, "lambda": lam},
            "outputs": {"directory": str(out)},
            "grid": {"axes": README_GRID},
        }
        path = _write_json(root / f"grid-{method}.json", cfg)
        ops.append(Op(f"pool-grid.{method}", "pool-grid", path, str(out), f"grid-{method}", 6))
    return ops


def generate(workload: str, root: Path, seed: int) -> list[Op]:
    """Write the workload's inputs under ``root`` and return its ops."""
    root.mkdir(parents=True, exist_ok=True)
    builders = {
        "gauss-readme": _gauss_readme,
        "discrete-oracle": _discrete_oracle,
        "analysis": _analysis,
    }
    return builders[workload](root, seed)
