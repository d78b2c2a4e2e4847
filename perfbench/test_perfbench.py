"""Self-tests of the benchmark: oracles, generator and metric names.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chainmeld import cli  # noqa: E402
from chainmeld.builtins import enumerate_melded_posterior  # noqa: E402


def _cli(command: str, op) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", op.config, "--out-dir", op.out_dir]) == 0


def _ops(tmp_path: Path, workload: str, seed: int = 5) -> dict:
    return {op.name: op for op in workloads.generate(workload, tmp_path / workload, seed)}


def _write_samples(path: Path, header: list[str], draws: np.ndarray, chains: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    per_chain = draws.shape[0] // chains
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["chain", "iteration"] + header)
        for c in range(chains):
            for t in range(per_chain):
                writer.writerow([c, t] + [repr(float(v)) for v in draws[c * per_chain + t]])


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# -- oracles reject corrupted artifacts ---------------------------------------


def test_discrete_tv_accepts_exact_draws_and_rejects_permuted_states(tmp_path):
    op = _ops(tmp_path, "discrete-oracle")["parallel"]
    cfg = json.loads(Path(op.config).read_text())
    built = cli.build_model(cfg)
    oracle = enumerate_melded_posterior(built, cli.build_pool(cfg, built))
    rng = np.random.default_rng(0)
    draws = oracle.states[rng.choice(len(oracle.probs), size=8000, p=oracle.probs)]
    header = ["phi12_0", "phi12_1", "phi23_0", "phi23_1", "psi2_0", "psi2_1"]
    samples = Path(op.out_dir) / "melded_samples.csv"
    _write_samples(samples, header, draws, chains=8)
    assert oracles.check_discrete_tv(op.out_dir, cfg)[0]
    # Permute the states: every draw is relabelled as another state.
    idx = rng.choice(len(oracle.probs), size=8000, p=oracle.probs)
    perm = rng.permutation(len(oracle.probs))
    _write_samples(samples, header, oracle.states[perm[idx]], chains=8)
    assert not oracles.check_discrete_tv(op.out_dir, cfg)[0]


def test_gaussian_moments_reject_normal_approx_output_from_the_wrong_pool(tmp_path):
    ops = _ops(tmp_path, "gauss-readme")
    op = ops["normal-approx"]
    _cli("sample", op)
    cfg = json.loads(Path(op.config).read_text())
    assert oracles.check_gaussian_moments(op.out_dir, cfg, cfg["pooling"])[0]
    log_pool = json.loads(Path(ops["parallel"].config).read_text())["pooling"]
    assert not oracles.check_gaussian_moments(op.out_dir, cfg, log_pool)[0]


def test_gaussian_moments_reject_shifted_draws(tmp_path):
    op = _ops(tmp_path, "gauss-readme")["parallel"]
    cfg = json.loads(Path(op.config).read_text())
    mean, cov = oracles.gaussian_posterior(cfg, cfg["pooling"])
    rng = np.random.default_rng(1)
    draws = rng.multivariate_normal(mean, cov, size=4000)
    samples = Path(op.out_dir) / "melded_samples.csv"
    _write_samples(samples, ["phi12", "phi23", "psi2"], draws, chains=2)
    assert oracles.check_gaussian_moments(op.out_dir, cfg, cfg["pooling"])[0]
    draws[:, 1] += 0.2 * np.sqrt(cov[1, 1])
    _write_samples(samples, ["phi12", "phi23", "psi2"], draws, chains=2)
    assert not oracles.check_gaussian_moments(op.out_dir, cfg, cfg["pooling"])[0]


@pytest.mark.parametrize("row,factor", [(0, 1.5), (None, 1.2)])
def test_ar1_check_rejects_inflated_ess(tmp_path, row, factor):
    op = _ops(tmp_path, "analysis")["diag"]
    _cli("diag", op)
    args = (op.out_dir, workloads.AR1_COEFFS, workloads.AR1_ROWS_PER_CHAIN, workloads.AR1_CHAINS)
    assert oracles.check_ar1_diag(*args)[0]
    path = Path(op.out_dir) / "diagnostics.csv"
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    for r in rows if row is None else [rows[row]]:
        r["ess_bulk"] = repr(factor * float(r["ess_bulk"]))
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert not oracles.check_ar1_diag(*args)[0]


@pytest.mark.parametrize("method", ["logarithmic", "linear"])
def test_grid_check_rejects_a_corrupted_grid(tmp_path, method):
    op = _ops(tmp_path, "analysis")[f"pool-grid.{method}"]
    _cli("pool-grid", op)
    cfg = json.loads(Path(op.config).read_text())
    assert oracles.check_grid(op.out_dir, cfg)[0]
    path = Path(op.out_dir) / "pooled_grid.csv"
    header, data = oracles.read_samples(path)
    n = int(cfg["grid"]["axes"][0][2])
    dens = data[:, 2].reshape(n, n)
    if method == "linear":
        # Give the grid a correlation the linear pool cannot have.
        x = data[:, 0].reshape(n, n)
        y = data[:, 1].reshape(n, n)
        dens = dens * np.exp(0.3 * x * y)
        dens /= dens.sum() * (12.0 / n) ** 2
    else:
        dens = dens.T
    data[:, 2] = dens.ravel()
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([[repr(float(v)) for v in row] for row in data])
    assert not oracles.check_grid(op.out_dir, cfg)[0]


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    root = tmp_path / workload
    workloads.generate(workload, root, 3)
    first = _tree_digest(root)
    shutil.rmtree(root)
    workloads.generate(workload, root, 3)
    assert _tree_digest(root) == first
    shutil.rmtree(root)
    workloads.generate(workload, root, 4)
    assert _tree_digest(root) != first


# -- metric names ----------------------------------------------------------------


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    bench = _bench()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
