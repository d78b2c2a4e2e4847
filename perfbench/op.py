"""Run one ``chainmeld`` command in a fresh process and report its timings.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/op.py SPAWN_T COMMAND CONFIG OUT_DIR REPS [TRACE_JSON]

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts the interpreter start.  Set-up is the
import of ``chainmeld.cli`` plus ``load_config``, ``build_model`` and
``build_pool`` (and ``factorize_for_sampler`` for ``sample``).  The command
itself then runs ``REPS`` times through ``chainmeld.cli.main``; each rerun
uses the same config and seed, and the hashes of its artifacts are reported
so that the caller can check they are byte-identical.  With ``TRACE_JSON``
the tracer is installed after set-up and its per-layer summary (over all
reps) is written there.  The last stdout line is a JSON object with the
timings, artifact hashes and peak RSS.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _phi_moves(counts: dict) -> int:
    return sum(n for move, n in counts.items() if "psi" not in move)


def install(tracer, cli) -> dict:
    """Swap the package's public entry points for traced wrappers."""
    from chainmeld import chain as chain_mod
    from chainmeld import gaussian, pooling, samplers

    info: dict = {"rows_written": 0, "model": None}

    for attr in ("main", "run_from_config", "load_config", "build_pool", "_cmd_sample",
                 "_cmd_diag", "_cmd_pool_grid", "_run_sampler", "_run_normal_approx",
                 "_write_manifest"):
        setattr(cli, attr, tracer.span("cli." + attr.lstrip("_"), getattr(cli, attr)))

    orig_write = cli._write_csv

    def write_csv(path, header, rows):
        def counted():
            for row in rows:
                info["rows_written"] += 1
                yield row

        return orig_write(path, header, counted())

    cli._write_csv = tracer.span("cli.write_csv", write_csv)

    orig_build = cli.build_model

    def build_model(cfg):
        built = orig_build(cfg)
        kind = "gaussian" if built.supports is None else "discrete"
        info["model"] = kind
        for spec in built.model.submodels:
            object.__setattr__(spec, "log_joint", tracer.aggregate(
                f"builtins.log_joint.{kind}", spec.log_joint))
            object.__setattr__(spec, "log_prior_marginal", tracer.aggregate(
                f"builtins.log_prior_marginal.{kind}", spec.log_prior_marginal))
        for key, fn in built.boundary_marginals.items():
            built.boundary_marginals[key] = tracer.aggregate(
                f"builtins.log_prior_marginal.{kind}", fn)
        return built

    cli.build_model = tracer.span("cli.build_model", build_model)

    chain_mod.SubmodelSpec.eval_log_joint = tracer.aggregate(
        "chain.eval_log_joint", chain_mod.SubmodelSpec.eval_log_joint)
    chain_mod.SubmodelSpec.eval_log_prior = tracer.aggregate(
        "chain.eval_log_prior", chain_mod.SubmodelSpec.eval_log_prior)
    pooling.PooledPrior.log_density = tracer.aggregate(
        "pooling.log_density", pooling.PooledPrior.log_density)
    gaussian.GaussianDensity.logpdf = tracer.aggregate(
        "gaussian.logpdf", gaussian.GaussianDensity.logpdf, points=True)

    orig_factorize = cli.factorize_for_sampler

    def factorize(pool, mode="flat-ends"):
        f = orig_factorize(pool, mode)
        return dataclasses.replace(
            f,
            pool1=tracer.aggregate("pooling.factor.pool1", f.pool1),
            pool2=tracer.aggregate("pooling.factor.pool2", f.pool2),
            pool3=tracer.aggregate("pooling.factor.pool3", f.pool3),
        )

    cli.factorize_for_sampler = tracer.span("pooling.factorize_for_sampler", factorize)
    cli.grid_normalize = tracer.span(
        "pooling.grid_normalize", cli.grid_normalize,
        on_exit=lambda rec, a, k, r: rec.update(method=a[0].method))

    def counters(args, kwargs):
        return [(s.joint_calls.count, s.marginal_calls.count) for s in args[0].submodels]

    def sampler_exit(fn, stages):
        """``on_exit`` that records call deltas, iterations and move counts."""
        signature = inspect.signature(fn)

        def on_exit(rec, args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n_iter = a["n_iter"]
            # sequential: its stages two and three (stage one is its own span)
            n_iter = n_iter[1] + n_iter[2] if isinstance(n_iter, tuple) else n_iter
            rec["iters"] = stages * a["chains"] * n_iter
            if "enter" in rec:
                after = counters(args, kwargs)
                rec["calls"] = [(x[0] - y[0], x[1] - y[1])
                                for x, y in zip(after, rec.pop("enter"))]
            if hasattr(out, "proposal_counts"):
                rec["proposals"] = dict(out.proposal_counts)
                rec["accepts"] = dict(out.accept_counts)

        return on_exit

    samplers._stage_two_init = tracer.span("samplers.stage_two_init", samplers._stage_two_init)
    samplers.run_stage_one = tracer.span(
        "samplers.run_stage_one", samplers.run_stage_one,
        on_enter=counters, on_exit=sampler_exit(samplers.run_stage_one, 1))
    cli.run_stage_one_pair = tracer.span(
        "samplers.run_stage_one_pair", cli.run_stage_one_pair,
        on_exit=sampler_exit(cli.run_stage_one_pair, 2))
    for attr in ("run_parallel_stage_two", "run_parallel_stage_two_unitwise", "run_sequential"):
        fn = getattr(cli, attr)
        setattr(cli, attr, tracer.span(
            "samplers." + attr, fn, on_enter=counters, on_exit=sampler_exit(fn, 1)))

    cli.fit_gaussian_moments = tracer.span(
        "normal_approx.fit_gaussian_moments", cli.fit_gaussian_moments)
    orig_target = cli.build_normal_approx_target

    def build_target(*args, **kwargs):
        return tracer.aggregate("normal_approx.target", orig_target(*args, **kwargs))

    cli.build_normal_approx_target = tracer.span(
        "normal_approx.build_normal_approx_target", build_target)

    for attr in ("split_rhat", "ess_bulk", "ess_tail"):
        setattr(cli, attr, tracer.span(
            "diagnostics." + attr, getattr(cli, attr),
            on_exit=lambda rec, a, k, r: rec.update(draws=int(np.size(a[0])))))
    return info


def summarize(tracer, info: dict, command: str, cfg: dict) -> dict:
    """Per-layer figures of one traced op, under the benchmark's metric names."""
    from tracer import LAYERS, layer_of

    kind = cfg.get("sampler", {}).get("kind")
    agg_self, span_self = tracer.self_times()
    aggs = tracer.aggregates()
    calls: dict[str, int] = defaultdict(int)
    for (name, _), (n, _t) in aggs.items():
        calls[name] += n
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in agg_self.items():
        layer_self[layer_of(name)] += t
    for s in tracer.spans:
        layer_self[layer_of(s["name"])] += span_self[s["id"]]
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    m: dict = {f"{layer}.self_s": t for layer, t in layer_self.items()}
    m["chain.eval_calls"] = calls["chain.eval_log_joint"] + calls["chain.eval_log_prior"]
    m["cli.rows_written"] = info["rows_written"]
    m["cli.write_s"] = sum(dur(s) for s in by_name["cli.write_csv"])
    m["pooling.log_density.calls"] = calls["pooling.log_density"]
    m["pooling.log_density.self_s"] = agg_self.get("pooling.log_density", 0.0)
    m["gaussian.logpdf.calls"] = calls["gaussian.logpdf"]
    m["gaussian.logpdf.self_s"] = agg_self.get("gaussian.logpdf", 0.0)
    if calls["gaussian.logpdf.batched"]:
        m["gaussian.logpdf.batched.self_s"] = agg_self["gaussian.logpdf.batched"]
        m["gaussian.logpdf.batched.points"] = tracer.points["gaussian.logpdf.batched"]
    model = info["model"]
    for what in ("log_joint", "log_prior_marginal"):
        key = f"builtins.{what}.{model}"
        if calls[key]:
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = agg_self[key]
    draws = sum(s["draws"] for n in ("diagnostics.split_rhat", "diagnostics.ess_bulk",
                                       "diagnostics.ess_tail") for s in by_name[n])
    m["diagnostics.draws"] = draws

    if command == "sample":
        stage_one = by_name["samplers.run_stage_one_pair"] or by_name["samplers.run_stage_one"]
        m["samplers.stage_one.iters"] = sum(s["iters"] for s in stage_one)
        m["samplers.stage_one.s"] = sum(dur(s) for s in stage_one)
        runner = {"parallel": "samplers.run_parallel_stage_two",
                  "parallel-unitwise": "samplers.run_parallel_stage_two_unitwise",
                  "sequential": "samplers.run_sequential"}.get(kind)
        if runner is not None:
            s = by_name[runner][0]
            inner = [c for c in spans if c["parent"] == s["id"]
                     and c["name"] == "samplers.run_stage_one"]
            calls_m = [list(c) for c in s["calls"]]
            for c in inner:
                for j, (dj, dm) in enumerate(c["calls"]):
                    calls_m[j][0] -= dj
                    calls_m[j][1] -= dm
            stage_s = dur(s) - sum(dur(c) for c in inner)
            m[f"samplers.stage_two.s.{kind}"] = stage_s
            m[f"samplers.stage_two.iters.{kind}"] = s["iters"]
            m[f"samplers.stage_two.self_s.{kind}"] = span_self[s["id"]]
            for j, (dj, dm) in enumerate(calls_m):
                m[f"chain.joint_calls.{kind}.m{j}"] = dj
                m[f"chain.marginal_calls.{kind}.m{j}"] = dm
            # Initial states are not proposals: leave their calls out.
            init = sum(c["counts1"].get("chain.eval_log_prior", 0)
                       - c["counts0"].get("chain.eval_log_prior", 0)
                       for c in spans if c["parent"] == s["id"]
                       and c["name"] == "samplers.stage_two_init")
            m[f"pooling.phi_proposals.{kind}"] = _phi_moves(s["proposals"])
            m[f"pooling.marginal_calls.{kind}"] = sum(dm for _, dm in calls_m) - init
            for move in s["proposals"]:
                if s["proposals"][move]:
                    m[f"samplers.accept_rate.{kind}.{move}"] = (
                        s["accepts"][move] / s["proposals"][move])
            if kind == "parallel":
                g0 = s["counts0"].get("gaussian.logpdf", 0)
                g1 = s["counts1"].get("gaussian.logpdf", 0)
                m["gaussian.logpdf.stage_two_calls.parallel"] = g1 - g0
        if kind == "normal-approx":
            s = by_name["cli.run_normal_approx"][0]
            children = [c for c in spans if c["parent"] == s["id"]]
            loop_s = dur(s) - sum(dur(c) for c in children)
            n0 = s["counts0"].get("normal_approx.target", 0)
            n1 = s["counts1"].get("normal_approx.target", 0)
            g_child = sum(c["counts1"].get("gaussian.logpdf", 0)
                          - c["counts0"].get("gaussian.logpdf", 0) for c in children)
            g = s["counts1"].get("gaussian.logpdf", 0) - s["counts0"].get("gaussian.logpdf", 0)
            sampler = cfg["sampler"]
            iters = sampler.get("chains", 1) * sampler["iterations"]["stage_two"]
            m["cli.normal_approx.loop_s"] = loop_s
            m["cli.normal_approx.iters"] = iters
            m["gaussian.logpdf.stage_two_calls.normal-approx"] = g - g_child
            m["normal_approx.fit_s"] = sum(
                dur(c) for c in by_name["normal_approx.fit_gaussian_moments"])
            m["normal_approx.target.calls"] = n1 - n0
            m["normal_approx.target.self_s"] = agg_self.get("normal_approx.target", 0.0)
    if command == "diag":
        d = by_name["cli.cmd_diag"][0]
        m["cli.read_s"] = span_self[d["id"]]
    if command == "pool-grid":
        for s in by_name["pooling.grid_normalize"]:
            m[f"pooling.grid_normalize_s.{s['method']}"] = dur(s)
    return m


def clear_outputs(command: str, out_dir: Path) -> None:
    """Remove what the command writes, so a failed rerun cannot pass on old files."""
    if command == "diag":
        for name in ("diagnostics.csv", "manifest.txt"):
            (out_dir / name).unlink(missing_ok=True)
    else:
        shutil.rmtree(out_dir, ignore_errors=True)


def artifact_hashes(command: str, out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the command wrote (diag's input CSV excluded)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not (command == "diag" and p.name == "melded_samples.csv")
    }


def main(argv: list[str]) -> int:
    spawn_t = float(argv[0])
    command, config, out_dir, reps = argv[1], argv[2], Path(argv[3]), int(argv[4])
    trace_path = argv[5] if len(argv) > 5 else None
    import chainmeld.cli as cli

    t_import = time.monotonic()
    cfg = cli.load_config(config)
    built = cli.build_model(cfg)
    pool = cli.build_pool(cfg, built)
    if command == "sample":
        cli.factorize_for_sampler(pool, cfg["sampler"].get("factorization", "subprior-ends"))
    t_setup = time.monotonic()
    tracer = info = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        info = install(tracer, cli)
    result = {
        "import_s": t_import - spawn_t,
        "build_s": t_setup - t_import,
        "setup_s": t_setup - spawn_t,
        "op_s": [],
        "hashes": [],
    }
    for _ in range(reps):
        clear_outputs(command, out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.monotonic()
            rc = cli.main([command, "--config", config, "--out-dir", str(out_dir)])
            t1 = time.monotonic()
        result["rc"] = rc
        if rc != 0:
            break
        result["op_s"].append(t1 - t0)
        result["hashes"].append(artifact_hashes(command, out_dir))
    result["bytes"] = sum((out_dir / name).stat().st_size for name in result["hashes"][-1]) \
        if result["hashes"] else 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and rc == 0:
        with open(trace_path, "w") as handle:
            json.dump(summarize(tracer, info, command, cfg), handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
