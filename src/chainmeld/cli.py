"""Config-driven command-line front end.

Subcommands: ``validate`` (build the chain and pool that ``sample`` builds,
run its sampler checks and write nothing), ``pool-grid`` (export a
normalized pooled-prior grid), ``sample`` (run the configured sampler and
write sample/diagnostic CSVs), ``oracle`` (exact enumeration for discrete
chains, with sampler TV when a sampler is configured), and ``diag``
(recompute diagnostics from a previously written sample CSV).

All numeric CSV output uses the shortest round-trip decimal representation
and a deterministic row order, so a fixed config and seed byte-reproduce
every artifact.  Exit codes: 0 ok, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .builtins import (
    BuiltChain,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    empirical_table,
    enumerate_melded_posterior,
    tv_distance,
)
from .chain import UnitFactorization
from .errors import ChainmeldError, ConfigError, PoolingConfigError, StructureError
from .normal_approx import build_normal_approx_target, check_proper_ratio, fit_gaussian_moments
from .pooling import (
    FACTORIZATIONS,
    GridSpec,
    GridTable,
    PooledPrior,
    dictatorial_complete,
    dictatorial_partial,
    factorize_for_sampler,
    grid_normalize,
    linear_pooling,
    log_pooling,
    poe_pooling,
)
from .samplers import (
    MeldedChainOutput,
    run_parallel_stage_two,
    run_parallel_stage_two_unitwise,
    run_random_walk,
    run_sequential,
    run_stage_one_pair,
    split_warmup,
)
from .diagnostics import MIN_DRAWS, ess_bulk, ess_tail, split_rhat

__all__ = ["main", "run_from_config", "load_config", "build_model", "build_pool"]

_SAMPLER_KINDS = ("parallel", "parallel-unitwise", "sequential", "normal-approx")
_STAGES = ("stage_one", "stage_two", "stage_three")


def _require(cfg: dict, path: str):
    node = cfg
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"{'.'.join(walked)}: missing required key")
        node = node[key]
    return node


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file unreadable: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg["_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return cfg


def _check_choice(path: str, value, choices, what: str) -> None:
    if value not in choices:
        raise ConfigError(
            f"{path}: unknown {what} {value!r}; expected one of {', '.join(choices)}"
        )


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number that is not a boolean, NaN, infinite or too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _typed(ok, what: str):
    """A check that passes a config value through if ``ok(value)``, else raises TypeError."""

    def check(value):
        if not ok(value):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return check


def _checked(path: str, check, value):
    """``check(value)``; a value it rejects is a ConfigError naming ``path``."""
    try:
        return check(value)
    except (TypeError, ValueError, StructureError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


_number = _typed(_is_finite, "a finite number")
_integer = _typed(_is_integer, "an integer")
_list = _typed(lambda v: isinstance(v, list), "a list")
_object = _typed(lambda v: isinstance(v, dict), "an object")
_unit_keys = _typed(lambda v: isinstance(v, dict) and sorted(v) == ["phi_indices", "psi_indices"],
                    "an object with phi_indices and psi_indices")


def _list_of(check):
    return lambda value: tuple(map(check, _list(value)))


def _optional(check):
    return lambda value: None if value is None else check(value)


def _one_of(choices):
    return _typed(lambda v: v in choices, f"one of {', '.join(choices)}")


def _table(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array; every entry finite."""
    cells = np.asarray(value, dtype=object)
    bad = [cell for cell in cells.flat if not _is_finite(cell)]
    if bad:
        raise TypeError(f"expected finite numbers, got {bad[0]!r}")
    return cells.astype(float)


def _unit(value) -> UnitFactorization:
    value = _unit_keys(value)
    return UnitFactorization(_CARDS(value["phi_indices"]), _CARDS(value["psi_indices"]))


_CARDS = _list_of(_list_of(_integer))
_NEEDED = object()  # the default of a required key
# Each builtin's parameters: the check that reads one from the config, and its
# default (None: left to the builtin).
_PARAMS = {
    "gaussian-chain": {
        **dict.fromkeys(("mu1", "sigma1", "mu3", "sigma3", "rho", "s1", "s3", "s2"),
                        (_number, None)),
        **dict.fromkeys(("mu2", "sigma2"), (_table, None)),
        **dict.fromkeys(("y1", "y2", "y3"), (_optional(_table), None)),
        "tau": (_optional(_number), None),
    },
    "discrete-chain": {
        **dict.fromkeys(("prior1", "prior2", "prior3"), (_table, _NEEDED)),
        "phi_cards": (_CARDS, _NEEDED),
        "psi_cards": (_CARDS, None),
        "likelihoods": (_list_of(_optional(_table)), None),
        "units": (_list_of(_optional(_unit)), None),
        "normalized": (_typed(lambda v: isinstance(v, bool), "true or false"), None),
    },
}


def _read(path: str, value, table: dict) -> dict:
    """The object ``value`` at ``path`` read through ``table`` (key -> (check, default)).

    Every key given is checked, and so is the default of every key left out;
    a default of None leaves the key out, and ``_NEEDED`` makes it required.
    An unknown, missing or rejected key is a ConfigError naming ``path.key``.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    for key in value:
        _check_choice(f"{path}.{key}", key, table, "key")
    out = {}
    for key, (check, default) in table.items():
        if key not in value and default is _NEEDED:
            raise ConfigError(f"{path}.{key}: missing required key")
        if key in value or default is not None:
            out[key] = _checked(f"{path}.{key}", check, value.get(key, default))
    return out


# Each sampler key's check and default.  ``iterations`` and ``scales`` hold
# one value per stage; ``_read_sampler`` reads them once the kind is known.
_SAMPLER = {
    "kind": (_one_of(_SAMPLER_KINDS), _NEEDED),
    "seed": (_typed(lambda v: _is_integer(v) and v >= 0, "an integer >= 0"), _NEEDED),
    "chains": (_typed(lambda v: _is_integer(v) and v >= 1, "an integer >= 1"), 1),
    "iterations": (_object, _NEEDED),
    "scales": (_object, {}),
    "warmup_frac": (_typed(lambda v: _is_finite(v) and 0 <= v < 1, "a number in [0, 1)"), 0.1),
    "factorization": (_one_of(FACTORIZATIONS), "subprior-ends"),
}
# Each per-stage key's check and default for one stage.
_PER_STAGE = {
    "iterations": (_typed(lambda v: _is_integer(v) and v >= 100, "an integer >= 100"), 1000),
    "scales": (_typed(lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"), 0.5),
}


# A stage keeps all of its draws in memory, so its chains x iterations must
# stay far below numpy's array-size limit.
_MAX_DRAWS = 2**31


def _read_sampler(cfg: dict) -> dict:
    """The ``sampler`` section, checked, with every default and per-stage value filled in."""
    sampler = _read("sampler", _require(cfg, "sampler"), _SAMPLER)
    # Only the sequential sampler has a stage three.
    stages = _STAGES if sampler["kind"] == "sequential" else _STAGES[:2]
    for key, entry in _PER_STAGE.items():
        sampler[key] = _read(f"sampler.{key}", sampler[key], dict.fromkeys(stages, entry))
    for stage, n in sampler["iterations"].items():
        if sampler["chains"] * n > _MAX_DRAWS:
            raise ConfigError(
                f"sampler.chains x sampler.iterations.{stage}: {sampler['chains']} x {n} "
                f"draws exceed the {_MAX_DRAWS} a stage may keep"
            )
    # The last stage's kept draws are the samples that get diagnosed.
    stage, n = list(sampler["iterations"].items())[-1]
    kept = split_warmup(n, sampler["warmup_frac"])[1]
    if kept < MIN_DRAWS:
        raise ConfigError(
            f"sampler.warmup_frac: {sampler['warmup_frac']} keeps {kept} of the {n} draws per "
            f"chain of sampler.iterations.{stage}; diagnostics need at least {MIN_DRAWS}"
        )
    return sampler


# grid.axes: one [lo, hi, n] per coordinate of the pooled blocks
_GRID = {"axes": (_list_of(_typed(
    lambda a: isinstance(a, list) and len(a) == 3 and _is_finite(a[0]) and _is_finite(a[1])
    and a[0] < a[1] and _is_integer(a[2]) and a[2] >= 1,
    "axes [lo, hi, n] with finite lo < hi and an integer n >= 1",
)), _NEEDED)}


_MODEL = {
    "name": (_one_of(tuple(_PARAMS)), _NEEDED),
    "params": (_object, {}),
}


def build_model(cfg: dict) -> BuiltChain:
    """The configured builtin chain; a bad ``model`` key or ``model.params`` value names it."""
    model = _read("model", _require(cfg, "model"), _MODEL)
    name = model["name"]
    args = _read("model.params", model["params"], _PARAMS[name])
    try:
        if name == "gaussian-chain":
            return builtin_gaussian_chain(**args)
        priors = [args.pop(key) for key in ("prior1", "prior2", "prior3")]
        return builtin_discrete_chain(*priors, **args)
    except ConfigError as exc:
        raise ConfigError(f"model.params.{exc}") from None
    except OverflowError:
        raise ConfigError("model.params: values too large for the builtin's arithmetic") from None


def _dictatorial_partial(built: BuiltChain, args: dict) -> PooledPrior:
    n, authoritative = built.model.n_submodels, args["authoritative"]
    _checked("pooling.authoritative", _typed(lambda v: 0 <= v < n, f"a submodel index 0..{n - 1}"),
             authoritative)
    return dictatorial_partial(built.model, authoritative, side_weights=args.get("lambda"),
                               boundary_marginals=built.boundary_marginals)


_LAMBDA = {"lambda": (_table, _NEEDED)}
# Each pooling method: the keys it reads besides ``method`` (key -> (check,
# default)), and its factory of the built chain and those keys.  A pool that
# the factory rejects names the method's last key.
_POOLS = {
    **dict.fromkeys(("logarithmic", "log"), (
        _LAMBDA, lambda built, a: log_pooling(built.model, a["lambda"]))),
    "poe": ({}, lambda built, a: poe_pooling(built.model)),
    "linear": (_LAMBDA, lambda built, a: linear_pooling(built.model, a["lambda"],
                                                        built.boundary_marginals)),
    "dictatorial-partial": (
        {"authoritative": (_integer, _NEEDED), "lambda": (_optional(_table), None)},
        _dictatorial_partial),
    "dictatorial-complete": (
        {"choices": (_list_of(_integer), _NEEDED)},
        lambda built, a: dictatorial_complete(built.model, a["choices"],
                                              boundary_marginals=built.boundary_marginals)),
}
_METHOD = _one_of(tuple(_POOLS))


def build_pool(cfg: dict, built: BuiltChain) -> PooledPrior:
    """The configured pooled prior; each method reads its own keys and no others."""
    method = _checked("pooling.method", _METHOD, _require(cfg, "pooling.method"))
    keys, make = _POOLS[method]
    args = _read("pooling", cfg["pooling"], {"method": (_METHOD, _NEEDED), **keys})
    try:
        return make(built, args)
    except (PoolingConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"pooling.{next(reversed(keys), 'method')}: {exc}") from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` as csv's excel dialect writes it: quoted if it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column) -> map:
    """A column's CSV cells: integers in decimal, floats as their shortest round-trip repr."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return map(str, column.tolist())
    if column.dtype.kind == "U":
        return map(_csv_field, column.tolist())
    return map(repr, column.astype(float, copy=False).tolist())


def _csv_rows(columns, axes=()):
    """Join equal-length columns into CSV rows; the formatting runs as they are consumed.

    Each row is led by its cell of the product of ``axes`` in C order (the
    last axis varies fastest, as ``meshgrid(indexing="ij")`` ravels), so
    each axis value is formatted once rather than once per row.
    """
    cells = list(map(_cells, columns))
    if axes:
        cells.insert(0, map(",".join, itertools.product(*(list(_cells(a)) for a in axes))))
    yield from map(",".join, zip(*cells))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and preformatted rows, each ended by CRLF as csv's excel dialect does."""
    with path.open("w", newline="") as handle:
        handle.write(",".join(map(_csv_field, header)) + "\r\n")
        for row in rows:
            handle.write(row + "\r\n")


def _vector_columns(name: str, dim: int) -> list[str]:
    if dim == 1:
        return [name]
    return [f"{name}_{i}" for i in range(dim)]


def _write_manifest(out_dir: Path, cfg: dict, extra: dict) -> None:
    sampler = cfg.get("sampler")  # pool-grid records a seed it does not check
    lines = [
        f"seed: {sampler.get('seed', 'n/a') if isinstance(sampler, dict) else 'n/a'}",
        f"config_sha256: {cfg.get('_sha256', 'n/a')}",
        f"chainmeld_version: {__version__}",
        f"numpy_version: {np.__version__}",
    ]
    for key in sorted(extra):
        lines.append(f"{key}: {extra[key]}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _sample_columns(output: MeldedChainOutput, chain) -> tuple[list[str], list[np.ndarray]]:
    """Name and (chains, kept) trace of every sampled coordinate, in CSV column order:
    the blocks, then the middle submodels' psi, then the ends' psi."""
    groups = list(zip(chain.state_groups(), (*output.phi, *output.psi)))
    blocks, psi = groups[: len(output.phi)], groups[len(output.phi) :]
    names = []
    traces = []
    for (name, dim), arr in blocks + psi[1:-1] + [psi[0], psi[-1]]:
        names.extend(_vector_columns(name, dim))
        traces.extend(arr[:, :, k] for k in range(dim))
    return names, traces


def _write_samples(out_dir: Path, output: MeldedChainOutput, chain) -> Path:
    names, traces = _sample_columns(output, chain)
    chains, kept = output.phi[0].shape[:2]
    rows = _csv_rows([t.ravel() for t in traces], axes=(np.arange(chains), np.arange(kept)))
    path = out_dir / "melded_samples.csv"
    _write_csv(path, ["chain", "iteration"] + names, rows)
    return path


def _write_grid(path: Path, table: GridTable) -> None:
    """One row per grid cell in C order: its center's coordinates, then its density."""
    header = [f"x{i}" for i in range(len(table.centers))] + ["density"]
    _write_csv(path, header, _csv_rows([table.density.ravel()], axes=table.centers))


def _write_diagnostics(path: Path, names: list[str], traces, rate: float) -> None:
    """One row per parameter: split R-hat (NaN for one chain), bulk and tail ESS, ``rate``."""
    stats = [
        (split_rhat(t).value if t.shape[0] > 1 else math.nan, ess_bulk(t).value, ess_tail(t).value)
        for t in traces
    ]
    rhat, bulk, tail = np.array(stats, dtype=float).reshape(-1, 3).T
    header = ["parameter", "rhat", "ess_bulk", "ess_tail", "acceptance_rate"]
    _write_csv(path, header, _csv_rows([names, rhat, bulk, tail, np.full(len(names), rate)]))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _run_sampler(sampler: dict, built: BuiltChain, pool: PooledPrior) -> MeldedChainOutput:
    """Run the sampler that ``_read_sampler`` read and ``_require_sampler`` accepted."""
    scales = list(sampler["scales"].values())
    iters = list(sampler["iterations"].values())
    factor = factorize_for_sampler(pool, sampler["factorization"])
    kind, seed, chains, warmup = (sampler[key] for key in ("kind", "seed", "chains", "warmup_frac"))
    if kind == "sequential":
        return run_sequential(built.model, factor, scales, tuple(iters), chains=chains, seed=seed,
                              warmup_frac=warmup)
    stores = run_stage_one_pair(built.model, factor, scales[0], iters[0], chains=chains,
                                seed=seed, warmup_frac=warmup)
    if kind == "normal-approx":
        return _run_normal_approx(sampler, built, factor, stores, scales[1])
    runner = run_parallel_stage_two if kind == "parallel" else run_parallel_stage_two_unitwise
    return runner(built.model, factor, *stores, scales[1], iters[1], chains=chains, seed=seed + 1,
                  warmup_frac=warmup)


def _require_sampler(sampler: dict, built: BuiltChain) -> None:
    """Reject, before any sampling, a sampler kind the chain cannot run."""
    kind = sampler["kind"]
    if kind == "normal-approx":
        coords = [*(c for block in built.model.phi_blocks for c in block.coords),
                  *built.model.submodels[1].psi_coords]
        if any(c.kind == "discrete" for c in coords):
            raise ConfigError(
                "sampler.kind: normal-approx needs continuous coordinates; this chain has "
                "discrete ones"
            )
    elif kind == "parallel-unitwise":
        ends = (0, built.model.n_submodels - 1)
        bare = [m for m in ends if built.model.submodels[m].unit_factorization is None]
        if bare:
            raise ConfigError(
                f"sampler.kind: parallel-unitwise needs unit factorizations on submodels "
                f"{ends[0]} and {ends[1]} (model.params.units); this chain has none on "
                f"submodel {' and '.join(map(str, bare))}"
            )


def _run_normal_approx(sampler: dict, built: BuiltChain, factor, stores,
                       scale: float) -> MeldedChainOutput:
    """Stage two of ``normal-approx``: a random walk on the stage-two target with
    Gaussians fitted to the stage-one ``stores`` of both ends."""
    model = built.model
    g1 = fit_gaussian_moments(stores[0])
    g3 = fit_gaussian_moments(stores[1])
    if sampler["factorization"] == "subprior-ends":
        for g, prior, block in zip((g1, g3), (built.meta["prior1"], built.meta["prior3"]),
                                   model.phi_blocks):
            check_proper_ratio(g, prior, block)
    target = build_normal_approx_target(model, factor, g1, g3)
    d12 = model.phi_blocks[0].dim
    d = d12 + model.phi_blocks[1].dim
    spec2 = model.submodels[1]
    coords = (
        tuple(model.phi_blocks[0].coords)
        + tuple(model.phi_blocks[1].coords)
        + tuple(spec2.psi_coords)
    )
    chains, n2 = sampler["chains"], sampler["iterations"]["stage_two"]
    draws, accepted = run_random_walk(
        target, coords, scale, n2, chains=chains, seed=sampler["seed"] + 1,
        warmup_frac=sampler["warmup_frac"],
        init=np.concatenate([g1.mean, g3.mean, np.zeros(spec2.psi_dim)]),
    )
    keep = draws.shape[1]
    empty = np.zeros((chains, keep, 0))
    return MeldedChainOutput(
        phi=(draws[..., :d12], draws[..., d12:d]),
        psi=(empty, draws[..., d:], empty),
        indices=np.zeros((chains, keep, 0), dtype=int),
        accept_counts={"normal-approx": accepted},
        proposal_counts={"normal-approx": chains * n2},
    )


def _make_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"outputs.directory: cannot make {str(out_dir)!r}: {exc}") from None


def _cmd_validate(cfg: dict, sampler: dict | None) -> int:
    built = build_model(cfg)
    build_pool(cfg, built)
    if sampler is not None:
        _require_sampler(sampler, built)
    print("config ok")
    return 0


def _cmd_pool_grid(cfg: dict, out_dir: Path) -> int:
    axes = _read("grid", _require(cfg, "grid"), _GRID)["axes"]
    spec = GridSpec(tuple((float(lo), float(hi), n) for lo, hi, n in axes))
    built = build_model(cfg)
    if built.supports is not None:
        raise ConfigError("model.name: pool-grid needs a continuous chain (gaussian-chain)")
    pool = build_pool(cfg, built)
    try:
        table = grid_normalize(pool, spec)
        correlation = table.correlation(0, 1) if len(spec.axes) >= 2 else None
    except PoolingConfigError as exc:  # the axes do not fit the pool or resolve its density
        raise ConfigError(f"grid.axes: {exc}") from None
    _make_dir(out_dir)
    _write_grid(out_dir / "pooled_grid.csv", table)
    print(f"grid mass {table.total_mass()!r}")
    if correlation is not None:
        print(f"grid correlation {correlation!r}")
    _write_manifest(out_dir, cfg, {"artifact": "pooled_grid.csv"})
    return 0


def _cmd_sample(cfg: dict, sampler: dict, out_dir: Path) -> int:
    built = build_model(cfg)
    pool = build_pool(cfg, built)
    _require_sampler(sampler, built)
    _make_dir(out_dir)
    output = _run_sampler(sampler, built, pool)
    _write_samples(out_dir, output, built.model)
    rates = output.acceptance_rates()
    mean_rate = sum(rates.values()) / max(1, len(rates))
    _write_diagnostics(out_dir / "diagnostics.csv", *_sample_columns(output, built.model),
                       mean_rate)
    _write_manifest(
        out_dir,
        cfg,
        {f"acceptance_rate.{k}": repr(v) for k, v in rates.items()},
    )
    print(f"wrote {out_dir / 'melded_samples.csv'}")
    return 0


def _cmd_oracle(cfg: dict, sampler: dict | None, out_dir: Path) -> int:
    built = build_model(cfg)
    if built.supports is None:
        raise ConfigError("model.name: oracle enumeration requires discrete-chain")
    pool = build_pool(cfg, built)
    if sampler is not None:
        _require_sampler(sampler, built)
    _make_dir(out_dir)
    oracle = enumerate_melded_posterior(built, pool)
    header = [f"x{i}" for i in range(oracle.states.shape[1])] + ["probability"]
    columns = [*oracle.states.T, oracle.probs]
    _write_csv(out_dir / "oracle_posterior.csv", header, _csv_rows(columns))
    extra = {"artifact": "oracle_posterior.csv"}
    if sampler is not None:
        output = _run_sampler(sampler, built, pool)
        tv = tv_distance(empirical_table(output.state_matrix(), oracle), oracle)
        print(f"sampler TV {tv!r}")
        extra["sampler_tv"] = repr(tv)
    _write_manifest(out_dir, cfg, extra)
    return 0


def _read_samples(path: Path) -> tuple[list[str], Iterator[np.ndarray]]:
    """Header and the (chains, draws) trace of each parameter of a ``melded_samples.csv``.

    The parameters are the columns after ``chain`` and ``iteration``; their
    traces are gathered one at a time as they are consumed.  Chain ids
    (column 0) must be the integers 0..C-1, each with the same number of
    rows; rows keep their file order within a chain.
    """
    header: list[str] = []
    try:
        with path.open() as handle:
            header = next(csv.reader(handle), [])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body
                data = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error) as exc:
        raise ChainmeldError(
            f"{path}: every row must hold {len(header)} numbers ({exc})"
        ) from None
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise ChainmeldError(f"{path}: no rows of {len(header)} numbers to diagnose")
    ids, counts = np.unique(data[:, 0], return_counts=True)
    if ids[0] < 0:
        raise ChainmeldError(f"{path}: chain ids must be >= 0")
    if not np.array_equal(ids, np.arange(ids.size)):
        got = ids[:5].tolist()
        raise ChainmeldError(f"{path}: chain ids must be the integers 0..C-1; got {got}")
    if counts.min() != counts.max():
        lengths = ", ".join(f"chain {c}: {n} rows" for c, n in enumerate(counts))
        raise ChainmeldError(
            f"{path}: diagnostics need chains 0..C-1 of equal length; got {lengths}"
        )
    order = np.argsort(data[:, 0], kind="stable")
    return header, (data[order, j].reshape(ids.size, -1) for j in range(2, len(header)))


def _cmd_diag(cfg: dict, out_dir: Path) -> int:
    path = out_dir / "melded_samples.csv"
    if not path.exists():
        raise ChainmeldError(f"no sample file at {path}; run the sample command first")
    header, traces = _read_samples(path)

    def diagnosable(name, trace):
        if trace.shape[1] < MIN_DRAWS:
            raise ChainmeldError(f"{path}: diagnostics need at least {MIN_DRAWS} draws per "
                                 f"chain, got {trace.shape[1]}")
        if not np.isfinite(trace).all():
            raise ChainmeldError(f"{path}: column {name!r} holds NaN or inf; draws must be finite")
        return trace

    _write_diagnostics(out_dir / "diagnostics.csv", header[2:],
                       map(diagnosable, header[2:], traces), math.nan)
    print(f"wrote {out_dir / 'diagnostics.csv'}")
    return 0


# The config's sections; ``load_config`` adds the file's hash as ``_sha256``.
_SECTIONS = ("model", "pooling", "sampler", "outputs", "grid")
_OUTPUTS = {"directory": (_typed(lambda v: isinstance(v, str), "a string"), _NEEDED)}


def run_from_config(cfg: dict, command: str = "sample") -> int:
    """Run ``command``; it checks every config key it reads before it writes anything."""
    for key in cfg:
        if key != "_sha256":
            _check_choice(key, key, _SECTIONS, "section")
    out_dir = Path(_read("outputs", _require(cfg, "outputs"), _OUTPUTS)["directory"])
    reads_sampler = command == "sample" or command in ("validate", "oracle") and "sampler" in cfg
    sampler = _read_sampler(cfg) if reads_sampler else None
    if command == "validate":
        return _cmd_validate(cfg, sampler)
    if command == "pool-grid":
        return _cmd_pool_grid(cfg, out_dir)
    if command == "sample":
        return _cmd_sample(cfg, sampler, out_dir)
    if command == "oracle":
        return _cmd_oracle(cfg, sampler, out_dir)
    if command == "diag":
        return _cmd_diag(cfg, out_dir)
    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainmeld",
        description="Chained model melding: pooled priors and multi-stage samplers.",
    )
    parser.add_argument("command", choices=["validate", "pool-grid", "sample", "oracle", "diag"])
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override sampler seed")
    parser.add_argument("--out-dir", default=None, help="override outputs.directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for section, key, value in (("sampler", "seed", args.seed),
                                    ("outputs", "directory", args.out_dir)):
            if value is not None:
                node = cfg.setdefault(section, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"{section}: expected an object, got {node!r}")
                node[key] = value
        return run_from_config(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ChainmeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
