"""Exact oracle checks on the artifacts a workload's ops write.

Each check returns ``(ok, detail)`` where ``detail`` holds the measured
statistic next to its limit.  The Gaussian and grid references are plain
numpy precision arithmetic; the discrete reference is the package's exact
enumeration of the melded posterior.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import workloads

# Gaussian chain constants left at their defaults by the README config.
GAUSS_DEFAULTS = {"mu1": -2.5, "sigma1": 1.0, "mu3": 2.5, "sigma3": 1.0,
                  "mu2": (0.0, 0.0), "sigma2": (1.0, 1.0), "s1": 1.0, "s3": 1.0}
# Moments may sit this many standard errors from the analytic values.  The
# standard error adds two parts: the stage-two chains' Monte Carlo error
# (bulk ESS) and the error of the finite stage-one store.  Index moves copy
# store points, so the draws are a weighted resample of the store; its
# effective size is (sum c)^2 / sum c^2 over the copy counts c of each
# distinct value.  At 5,000 stage-one iterations the store alone puts the
# README run's phi means 2-3 bulk-ESS SE out; over 35 seeds the largest
# z-score was 5.3.  Output from the wrong pool sits about 11 SE out.
MOMENT_Z = 8.0
# TV may exceed the multinomial noise level expected at the run's ESS by
# this factor.
TV_FACTOR = 3.0
# Relative error of bulk ESS against N (1 - a) / (1 + a).  Over 60 seeds at
# the workload's size its standard deviation was 3-5 sqrt(tau / N), with
# tau = (1 + a) / (1 - a); each parameter may be off by 30 sqrt(tau / N),
# and the mean error over the parameters (sd 0.013) by 0.08.
AR1_ESS_Z = 30.0
AR1_ESS_MEAN_RTOL = 0.08
RHAT_MAX = 1.01
GRID_MASS_TOL = 1e-9
GRID_DENSITY_TOL = 1e-8
LINEAR_CORR_TOL = 1e-6


def read_samples(path: Path) -> tuple[list[str], np.ndarray]:
    with Path(path).open() as handle:
        reader = csv.reader(handle)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def _traces(data: np.ndarray, col: int) -> np.ndarray:
    ids = data[:, 0].astype(int)
    return np.stack([data[ids == c, col] for c in range(ids.max() + 1)])


def _params(cfg: dict) -> dict:
    p = dict(GAUSS_DEFAULTS)
    p.update(cfg["model"]["params"])
    return p


def pool_weights(pooling: dict) -> tuple[float, float, float]:
    """Log-pool weights (end 1, middle, end 3) equal to the configured pool."""
    if pooling["method"] in ("logarithmic", "log"):
        return tuple(float(w) for w in pooling["lambda"])
    if pooling["method"] == "dictatorial-complete" and list(pooling["choices"]) == [1, 1]:
        return (0.0, 1.0, 0.0)
    raise ValueError(f"no analytic Gaussian reference for pool {pooling}")


def gaussian_posterior(cfg: dict, pooling: dict) -> tuple[np.ndarray, np.ndarray]:
    """Analytic melded posterior of (phi12, phi23, psi2) for the Gaussian chain."""
    p = _params(cfg)
    lam = pool_weights(pooling)
    prec = np.zeros((3, 3))
    shift = np.zeros(3)
    y1 = p.get("y1") or []
    y3 = p.get("y3") or []
    y2 = p.get("y2") or []
    prec[0, 0] += lam[0] / p["sigma1"] ** 2 + len(y1) / p["s1"] ** 2
    shift[0] += lam[0] * p["mu1"] / p["sigma1"] ** 2 + sum(y1) / p["s1"] ** 2
    prec[1, 1] += lam[2] / p["sigma3"] ** 2 + len(y3) / p["s3"] ** 2
    shift[1] += lam[2] * p["mu3"] / p["sigma3"] ** 2 + sum(y3) / p["s3"] ** 2
    s = p["sigma2"]
    rho = p["rho"]
    cov2 = np.array([[s[0] ** 2, rho * s[0] * s[1]], [rho * s[0] * s[1], s[1] ** 2]])
    p2 = np.linalg.inv(cov2)
    prec[:2, :2] += lam[1] * p2
    shift[:2] += lam[1] * p2 @ np.asarray(p["mu2"], dtype=float)
    prec[2, 2] += 1.0 / p["tau"] ** 2
    a = np.ones(3)
    for y in y2:
        prec += np.outer(a, a) / p["s2"] ** 2
        shift += y * a / p["s2"] ** 2
    cov = np.linalg.inv(prec)
    return cov @ shift, cov


def check_gaussian_moments(out_dir: Path, cfg: dict, pooling: dict) -> tuple[bool, dict]:
    from chainmeld.diagnostics import ess_bulk

    header, data = read_samples(Path(out_dir) / "melded_samples.csv")
    mean, cov = gaussian_posterior(cfg, pooling)
    worst = 0.0
    for j, name in enumerate(("phi12", "phi23", "psi2")):
        col = header.index(name)
        traces = _traces(data, col)
        e = ess_bulk(traces).value
        x = traces.ravel()
        _, copies = np.unique(x, return_counts=True)
        n_store = copies.sum() ** 2 / (copies * copies).sum()
        inv_n = 1.0 / e + 1.0 / n_store
        v = cov[j, j]
        z_mean = abs(x.mean() - mean[j]) / math.sqrt(v * inv_n)
        z_var = abs(x.var() - v) / (v * math.sqrt(2.0 * inv_n))
        worst = max(worst, z_mean, z_var)
    return worst < MOMENT_Z, {"moment_z": worst, "limit": MOMENT_Z}


def check_discrete_tv(out_dir: Path, cfg: dict) -> tuple[bool, dict]:
    from chainmeld.builtins import enumerate_melded_posterior
    from chainmeld.cli import build_model, build_pool
    from chainmeld.diagnostics import ess_bulk

    built = build_model(cfg)
    oracle = enumerate_melded_posterior(built, build_pool(cfg, built))
    header, data = read_samples(Path(out_dir) / "melded_samples.csv")
    # CSV columns follow the oracle's state order (phi12, phi23, psi2 here).
    draws = data[:, 2:]
    if draws.shape[1] != oracle.states.shape[1]:
        return False, {"error": "column count differs from the oracle's states"}
    index = {tuple(row): k for k, row in enumerate(oracle.states)}
    counts = np.zeros(len(oracle.probs))
    for row in np.round(draws):
        k = index.get(tuple(row))
        if k is None:
            return False, {"error": f"draw {row.tolist()} outside the support"}
        counts[k] += 1
    tv = 0.5 * float(np.abs(counts / counts.sum() - oracle.probs).sum())
    n_eff = min(ess_bulk(_traces(data, j)).value for j in range(2, data.shape[1]))
    p = oracle.probs
    noise = 0.5 * float(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * n_eff)).sum())
    limit = TV_FACTOR * noise
    return tv < limit, {"tv": tv, "limit": limit}


def check_ar1_diag(out_dir: Path, coeffs, rows_per_chain: int, chains: int) -> tuple[bool, dict]:
    with (Path(out_dir) / "diagnostics.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(coeffs):
        return False, {"error": f"{len(rows)} diagnostics rows for {len(coeffs)} parameters"}
    n = rows_per_chain * chains
    a = np.asarray(coeffs)
    tau = (1.0 + a) / (1.0 - a)
    ess = np.array([float(row["ess_bulk"]) for row in rows])
    rel = ess * tau / n - 1.0
    worst = float((np.abs(rel) / (AR1_ESS_Z * np.sqrt(tau / n))).max())
    mean = float(rel.mean())
    rhat = max(float(row["rhat"]) for row in rows)
    ok = worst < 1.0 and abs(mean) < AR1_ESS_MEAN_RTOL and rhat < RHAT_MAX
    return ok, {"ess_err_over_limit": worst, "ess_mean_rel_err": mean,
                "mean_limit": AR1_ESS_MEAN_RTOL, "rhat": rhat}


def _read_grid(out_dir: Path, axes) -> tuple[list[np.ndarray], np.ndarray, float]:
    _, data = read_samples(Path(out_dir) / "pooled_grid.csv")
    centers = []
    vol = 1.0
    for lo, hi, n in axes:
        step = (hi - lo) / n
        centers.append(lo + step * (np.arange(n) + 0.5))
        vol *= step
    shape = tuple(int(a[2]) for a in axes)
    mesh = np.meshgrid(*centers, indexing="ij")
    for i, m in enumerate(mesh):
        if not np.allclose(data[:, i], m.ravel(), rtol=0, atol=1e-12):
            raise ValueError("grid coordinates are not the configured cell centers")
    return centers, data[:, -1].reshape(shape), vol


def check_grid(out_dir: Path, cfg: dict) -> tuple[bool, dict]:
    axes = cfg["grid"]["axes"]
    try:
        centers, dens, vol = _read_grid(out_dir, axes)
    except ValueError as exc:
        return False, {"error": str(exc)}
    mass = float(dens.sum() * vol)
    x, y = np.meshgrid(*centers, indexing="ij")
    w = dens * vol
    mx, my = (w * x).sum(), (w * y).sum()
    cxx = (w * (x - mx) ** 2).sum()
    cyy = (w * (y - my) ** 2).sum()
    corr = float((w * (x - mx) * (y - my)).sum() / math.sqrt(cxx * cyy))
    detail = {"mass_err": abs(mass - 1.0), "corr": corr}
    ok = abs(mass - 1.0) < GRID_MASS_TOL
    if cfg["pooling"]["method"] == "linear":
        ok = ok and abs(corr) < LINEAR_CORR_TOL
        return ok, detail
    # Logarithmic pool of Gaussians: closed-form Gaussian, renormalized
    # over the same cells.
    p = _params(cfg)
    lam = pool_weights(cfg["pooling"])
    s = p["sigma2"]
    rho = p["rho"]
    cov2 = np.array([[s[0] ** 2, rho * s[0] * s[1]], [rho * s[0] * s[1], s[1] ** 2]])
    prec = lam[1] * np.linalg.inv(cov2)
    shift = prec @ np.asarray(p["mu2"], dtype=float)
    prec[0, 0] += lam[0] / p["sigma1"] ** 2
    shift[0] += lam[0] * p["mu1"] / p["sigma1"] ** 2
    prec[1, 1] += lam[2] / p["sigma3"] ** 2
    shift[1] += lam[2] * p["mu3"] / p["sigma3"] ** 2
    mean = np.linalg.solve(prec, shift)
    d = np.stack([x - mean[0], y - mean[1]], axis=-1)
    exact = np.exp(-0.5 * np.einsum("...i,ij,...j->...", d, prec, d))
    exact /= exact.sum() * vol
    err = float(np.abs(exact - dens).max())
    detail["density_err"] = err
    return ok and err < GRID_DENSITY_TOL, detail


def run_check(op) -> tuple[bool, dict]:
    """Judge one op's artifacts with the oracle its workload assigned."""
    ok, detail = _dispatch(op, json.loads(Path(op.config).read_text()))
    return bool(ok), {k: v if isinstance(v, str) else float(v) for k, v in detail.items()}


def _dispatch(op, cfg: dict) -> tuple[bool, dict]:
    if op.check == "gaussian-moments":
        return check_gaussian_moments(op.out_dir, cfg, cfg["pooling"])
    if op.check == "discrete-tv":
        return check_discrete_tv(op.out_dir, cfg)
    if op.check == "ar1-ess":
        return check_ar1_diag(op.out_dir, workloads.AR1_COEFFS,
                              workloads.AR1_ROWS_PER_CHAIN, workloads.AR1_CHAINS)
    if op.check in ("grid-logarithmic", "grid-linear"):
        return check_grid(op.out_dir, cfg)
    raise ValueError(f"unknown check {op.check!r}")
