"""chainmeld benchmark: the ``chainmeld`` CLI on seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gauss-readme --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

A run writes the workload's inputs from ``--seed``, then repeats passes over
the workload's ops while the next pass is expected to end within
``--seconds`` (at least ``MIN_PASSES``).  A pass runs each op in a fresh
process (``op.py``) that executes the ``chainmeld`` command ``op.reps``
times, one after another: a closed loop with one op in flight.  Every op is
judged by an exact oracle on its first execution; every later execution is a
rerun with the same seed whose artifacts must be byte-identical.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` traced and untraced passes alternate; the
per-layer metrics come from the traced passes and the tracing overhead from
comparing the two.  Lines before the last print every metric by name; the
last line is the JSON result.  Per-op figures are also written to
``perfbench/_runs/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
OP_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "ops_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "cli.self_s": "s",
    "chain.self_s": "s",
    "pooling.self_s": "s",
    "builtins.self_s": "s",
    "diagnostics.self_s": "s",
    "chain.eval_calls": "count",
    "cli.bytes_written": "count",
    "cli.write.us_per_row": "us",
    "trace.overhead_frac": "ratio",
}


def _median(values):
    return statistics.median(values)


def run_op(op, reps: int, trace_path: Path | None) -> dict:
    """Run one op ``reps`` times in a fresh process; returns op.py's result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "op.py"), repr(time.monotonic()),
            op.command, op.config, op.out_dir, str(reps)]
    if trace_path is not None:
        argv.append(str(trace_path))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "stderr": f"no result within {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def _min_ess(out_dir: Path) -> float:
    with (Path(out_dir) / "diagnostics.csv").open() as handle:
        return min(float(row["ess_bulk"]) for row in csv.DictReader(handle))


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.seconds = seconds
        self.trace = trace
        self.base = Path("perfbench") / "_runs" / name
        shutil.rmtree(self.base, ignore_errors=True)
        self.ops = workloads.generate(name, self.base, seed)
        self.reference: dict[str, dict] = {}
        self.verdicts: dict[str, tuple[bool, dict]] = {}
        self.min_ess: dict[str, float] = {}
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.enumerate_s: list[float] = []

    def _judge(self, op, result: dict) -> bool:
        """Count the op's executions in ``result`` and report whether all passed."""
        hashes = result.get("hashes", [])
        self.attempted += max(1, len(hashes))
        if result.get("rc") != 0:
            self.failed += max(1, len(hashes))
            self.failures.append(f"{op.name}: exit {result.get('rc')} {result.get('stderr', '')}")
            return False
        if op.name not in self.reference:
            self.reference[op.name] = hashes[0]
            t0 = time.monotonic()
            self.verdicts[op.name] = oracles.run_check(op)
            if op.check == "discrete-tv":
                self.enumerate_s.append(time.monotonic() - t0)
            if op.check not in ("grid-logarithmic", "grid-linear"):
                self.min_ess[op.name] = _min_ess(Path(op.out_dir))
        ok, detail = self.verdicts[op.name]
        bad = 0
        for h in hashes:
            if h != self.reference[op.name]:
                bad += 1
                self.failures.append(f"{op.name}: rerun with the same seed is not byte-identical")
            elif not ok:
                bad += 1
                self.failures.append(f"{op.name}: oracle check failed {detail}")
        self.failed += bad
        return bad == 0

    def run_pass(self, traced: bool) -> dict:
        record = {"traced": traced, "ops": {}}
        for op in self.ops:
            trace_path = self.base / f"trace-{op.name}.json" if traced else None
            result = run_op(op, 1 if traced else op.reps, trace_path)
            result["ok"] = self._judge(op, result)
            if traced and result["ok"]:
                result["layers"] = json.loads(trace_path.read_text())
            record["ops"][op.name] = result
        return record

    def run(self) -> None:
        start = time.monotonic()
        while True:
            untraced = [p for p in self.passes if not p["traced"]]
            traced = [p for p in self.passes if p["traced"]]
            traced_next = self.trace and len(traced) < len(untraced)
            t0 = time.monotonic()
            self.passes.append(self.run_pass(traced_next))
            elapsed = time.monotonic() - start
            last = time.monotonic() - t0
            n_traced = len(traced) + traced_next
            enough = len(self.passes) - n_traced >= MIN_PASSES and (
                not self.trace or n_traced >= MIN_TRACED_PASSES)
            if enough and elapsed + last > self.seconds:
                break

    # -- metrics ------------------------------------------------------------

    def _passes(self, traced: bool) -> list[dict]:
        return [p for p in self.passes if p["traced"] == traced and
                all(r["ok"] for r in p["ops"].values())]

    def _op_times(self, passes) -> dict[str, float]:
        """Median wall time of each op over every execution in ``passes``."""
        return {op.name: _median([t for p in passes for t in p["ops"][op.name]["op_s"]])
                for op in self.ops}

    def end_to_end(self) -> tuple[dict, dict]:
        """(metrics in BENCHMARK.json, the per-op metrics named in README.md)."""
        passes = self._passes(traced=False)
        if not passes:
            return {}, {}
        times = self._op_times(passes)
        main = {
            "setup_s": _median([r["setup_s"] for p in passes for r in p["ops"].values()]),
            "ops_s": sum(times.values()),
            "peak_rss_mb": _median(
                [max(r["peak_rss_mb"] for r in p["ops"].values()) for p in passes]),
        }
        detail = dict(main)
        detail["failed_frac"] = self.failed / self.attempted
        for op in self.ops:
            if op.command == "sample":
                detail[f"sample_s.{op.name}"] = times[op.name]
                detail[f"ess_per_s.{op.name}"] = self.min_ess[op.name] / times[op.name]
            elif op.command == "diag":
                detail["diag_s"] = times[op.name]
        grid = [times[n] for n in times if n.startswith("pool-grid")]
        if grid:
            detail["pool_grid_s"] = sum(grid)
        return main, detail

    def per_layer(self) -> tuple[dict, dict]:
        """(metrics in BENCHMARK.json, the full per-layer set)."""
        untraced, traced = self._passes(traced=False), self._passes(traced=True)
        if not untraced or not traced:
            return {}, {}
        full: dict = {}
        setup = [r for p in untraced for r in p["ops"].values()]
        full["setup.import_s"] = _median([r["import_s"] for r in setup])
        full["setup.build_s"] = _median([r["build_s"] for r in setup])
        per_pass = [self._layer_pass(p) for p in traced]
        for key in per_pass[0]:
            values = [d[key] for d in per_pass]
            full[key] = values[0] if isinstance(values[0], int) else _median(values)
        ops_t = sum(self._op_times(traced).values())
        ops_u = sum(self._op_times(untraced).values())
        full[f"trace.overhead_frac.{self.name}"] = ops_t / ops_u - 1.0
        if self.enumerate_s:
            full["builtins.enumerate_s"] = _median(self.enumerate_s)
        main = {k: full[k] for k in ("setup.import_s", "setup.build_s", "cli.self_s",
                                     "chain.self_s", "pooling.self_s", "builtins.self_s",
                                     "diagnostics.self_s", "chain.eval_calls",
                                     "cli.write.us_per_row")}
        main["cli.bytes_written"] = full[f"cli.bytes_written.{self.name}"]
        main["trace.overhead_frac"] = full[f"trace.overhead_frac.{self.name}"]
        return main, full

    def exact_counts_repeat(self) -> bool:
        """Counts are integers and acceptance rates; they must repeat exactly."""
        def counts(p):
            return {f"{n}:{k}": v for n, r in p["ops"].items()
                    for k, v in r["layers"].items()
                    if isinstance(v, int) or "accept_rate" in k}

        traced = self._passes(traced=True)
        return all(counts(p) == counts(traced[0]) for p in traced[1:])

    def _layer_pass(self, p: dict) -> dict:
        """Per-layer figures of one traced pass, named as in README.md."""
        ops = p["ops"]
        out: dict = {}
        lay = {n: r["layers"] for n, r in ops.items()}
        for layer in ("cli", "samplers", "chain", "pooling", "gaussian", "builtins",
                      "normal_approx", "diagnostics"):
            out[f"{layer}.self_s"] = sum(d[f"{layer}.self_s"] for d in lay.values())
        out["chain.eval_calls"] = sum(d["chain.eval_calls"] for d in lay.values())
        out[f"cli.bytes_written.{self.name}"] = sum(r["bytes"] for r in ops.values())
        rows = sum(d["cli.rows_written"] for d in lay.values())
        out["cli.write.us_per_row"] = 1e6 * sum(d["cli.write_s"] for d in lay.values()) / rows
        for n, d in lay.items():
            out[f"cli.self_s.{n}"] = d["cli.self_s"]
        evals = out["chain.eval_calls"]
        if evals:
            out["chain.eval.self_us_per_call"] = 1e6 * out["chain.self_s"] / evals

        def ratio(key_num, key_den, scale=1.0):
            num = sum(d.get(key_num, 0) for d in lay.values())
            den = sum(d.get(key_den, 0) for d in lay.values())
            return scale * num / den if den else None

        derived = {
            "pooling.log_density.us_per_call": ratio(
                "pooling.log_density.self_s", "pooling.log_density.calls", 1e6),
            "gaussian.logpdf.us_per_call": ratio(
                "gaussian.logpdf.self_s", "gaussian.logpdf.calls", 1e6),
            "gaussian.logpdf.us_per_point.batched": ratio(
                "gaussian.logpdf.batched.self_s", "gaussian.logpdf.batched.points", 1e6),
            "normal_approx.target.us_per_call": ratio(
                "normal_approx.target.self_s", "normal_approx.target.calls", 1e6),
        }
        for model in ("gaussian", "discrete"):
            for what in ("log_joint", "log_prior_marginal"):
                key = f"builtins.{what}.{model}"
                derived[f"builtins.{what}.us_per_call.{model}"] = ratio(
                    f"{key}.self_s", f"{key}.calls", 1e6)
        sample = {n: d for n, d in lay.items() if "samplers.stage_one.iters" in d}
        if sample:
            derived["samplers.stage_one.it_per_s"] = (
                sum(d["samplers.stage_one.iters"] for d in sample.values())
                / sum(d["samplers.stage_one.s"] for d in sample.values()))
            derived["diagnostics.us_per_draw.sample"] = 1e6 * sum(
                d["diagnostics.self_s"] for d in sample.values()) / sum(
                d["diagnostics.draws"] for d in sample.values())
        if "diag" in lay:
            d = lay["diag"]
            derived["diagnostics.us_per_draw.diag"] = (
                1e6 * d["diagnostics.self_s"] / d["diagnostics.draws"])
            n_rows = workloads.AR1_ROWS_PER_CHAIN * workloads.AR1_CHAINS
            derived["cli.read.us_per_row"] = 1e6 * d["cli.read_s"] / n_rows
        for n, d in lay.items():
            for key, v in d.items():
                if key.startswith("pooling.grid_normalize_s."):
                    derived[key] = v
            if f"samplers.stage_two.s.{n}" in d:
                iters = d[f"samplers.stage_two.iters.{n}"]
                span = d[f"samplers.stage_two.s.{n}"]
                derived[f"samplers.it_per_s.{n}"] = iters / span
                derived[f"samplers.self_frac.{n}"] = d[f"samplers.stage_two.self_s.{n}"] / span
                for j in range(3):
                    for what in ("joint", "marginal"):
                        derived[f"chain.{what}_calls_per_it.{n}.m{j}"] = (
                            d[f"chain.{what}_calls.{n}.m{j}"] / iters)
                derived[f"pooling.marginal_calls_per_phi_proposal.{n}"] = (
                    d[f"pooling.marginal_calls.{n}"] / d[f"pooling.phi_proposals.{n}"])
                for key, v in d.items():
                    if key.startswith("samplers.accept_rate."):
                        derived[key] = v
            if "gaussian.logpdf.stage_two_calls.parallel" in d:
                iters = d["samplers.stage_two.iters.parallel"]
                derived["gaussian.logpdf.calls_per_it.parallel"] = (
                    d["gaussian.logpdf.stage_two_calls.parallel"] / iters)
                derived["gaussian.share.parallel"] = (
                    d["gaussian.self_s"] / d["samplers.stage_two.s.parallel"])
            if "cli.normal_approx.iters" in d:
                iters = d["cli.normal_approx.iters"]
                derived["cli.normal_approx.it_per_s"] = iters / d["cli.normal_approx.loop_s"]
                derived["gaussian.logpdf.calls_per_it.normal-approx"] = (
                    d["gaussian.logpdf.stage_two_calls.normal-approx"] / iters)
                derived["normal_approx.fit_s"] = d["normal_approx.fit_s"]
        out.update({k: v for k, v in derived.items() if v is not None})
        return out


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]!r} {units.get(key, _unit_of(key))}")


def _unit_of(name: str) -> str:
    if "it_per_s" in name or name.startswith("ess_per_s"):
        return "1/s"
    if name.endswith("_calls") or "bytes" in name:
        return "count"
    if "us_per" in name:
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainmeld" / "cli.py").is_file():
        print(f"no chainmeld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(E2E_UNITS, **LAYER_UNITS)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = WorkloadRun(name, args.seed, args.seconds, bool(args.trace))
        run.run()
        e2e, e2e_detail = run.end_to_end()
        layer, layer_detail = {}, {}
        if args.trace:
            layer, layer_detail = run.per_layer()
            if not run.exact_counts_repeat():
                run.failures.append("exact counts differ between traced passes")
                run.failed += 1
        for line in run.failures:
            print(f"FAIL {name}: {line}")
        _print_table(f"{name}: end to end, {len(run.passes)} passes", e2e_detail, units)
        if args.trace:
            _print_table(f"{name}: per layer", layer_detail, units)
        verdicts = {op: {"ok": ok, **detail} for op, (ok, detail) in run.verdicts.items()}
        print(f"# {name}: oracle checks {json.dumps(verdicts, sort_keys=True)}")
        report = {"end_to_end": e2e_detail, "per_layer": layer_detail,
                  "oracles": verdicts, "failures": run.failures, "passes": run.passes}
        (run.base / "report.json").write_text(json.dumps(report, indent=1, default=str))
        picked = layer if args.trace else e2e
        wanted = LAYER_UNITS if args.trace else E2E_UNITS
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, unit in wanted.items():
            if key in picked:
                result["metrics"][prefix + key] = {"value": picked[key], "unit": unit}
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["correct"] = result["correct"] and not run.failures and all(
            key in picked for key in wanted)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
