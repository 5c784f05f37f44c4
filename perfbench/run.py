"""The repository benchmark: cold/warm, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``instrument`` — Table 5: bytes → validated instrumented bytes for the
  two large synthetic binaries; no interpreter work.
* ``cold_start`` — all 30 PolyBench kernels at their default size, bytes →
  printed result, uninstrumented; short runs where decode and predecode
  weigh most.
* ``analyze`` — Fig. 9's subset at larger sizes under
  ``InstructionMixAnalysis``; long runs dominated by execution and hook
  dispatch. Each iteration also runs the uninstrumented baseline pass.
* ``serve`` — one closed-loop ``ServeClient`` against an in-process
  ``ServeDaemon`` over a seeded mix of ``run``, ``instrument`` and WASI
  requests (``serve_load.py``).

Every batch pass runs in a fresh interpreter (``passes.py``), so a cold
pass never meets a module its process has seen. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` traced
and untraced passes alternate and it carries the per-layer metrics (the
traced passes give the layer split, the untraced ones the tracing
overhead). The lines before it are the readable report: environment stamp,
every metric with its unit and sample count, and the layer tables.

Times are reported at reference host speed: each op, set-up and serve
cycle is scaled by a fixed loop timed right before and after it
(``calibrate.py``), because the shared host this benchmark runs on swings
by up to 2x. The unscaled medians are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest passes of each kind a batch run makes, even past ``--seconds``.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Ops a pass runs per program: cold and warm, or cold only for ``analyze``.
OPS_PER_PROGRAM = {"instrument": 2, "run": 2, "analyze": 1}
#: A pass that takes longer than this counts as failed.
PASS_TIMEOUT_S = 150.0

#: Span name (recorded by passes.py) -> the busy-time metric it feeds.
SPAN_METRICS = {
    "wasm.decoder": "wasm.decoder.busy_s",
    "wasm.decoder.output": "wasm.decoder.output_busy_s",
    "wasm.validation.input": "wasm.validation.input_busy_s",
    "wasm.validation.output": "wasm.validation.output_busy_s",
    "core.instrument": "core.instrument.busy_s",
    "wasm.encoder": "wasm.encoder.busy_s",
    "interp.predecode": "interp.predecode.busy_s",
    "interp.machine.instantiate": "interp.machine.instantiate_s",
    "interp.machine.execute": "interp.machine.execute_s",
    "core.session.setup": "core.session.setup_s",
}
#: Layers the uninstrumented baseline pass owns on ``analyze``: the analyzed
#: pass's execute also holds hook dispatch and the analysis callbacks.
ENGINE_LAYERS = ("interp.predecode", "interp.machine.instantiate",
                 "interp.machine.execute")


def run_pass(kind: str, inputs: list[dict], trace: bool) -> dict:
    """One pass in a fresh interpreter; a pass that crashes fails all its ops."""
    job = pickle.dumps({"kind": kind, "programs": inputs, "trace": trace})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "passes.py")],
                              input=job, capture_output=True, env=env,
                              timeout=PASS_TIMEOUT_S, check=False)
        if proc.returncode == 0:
            return json.loads(proc.stdout.decode().strip().splitlines()[-1])
        reason = f"exit {proc.returncode}: {proc.stderr.decode()[-400:]}"
    except subprocess.TimeoutExpired:
        reason = f"timed out after {PASS_TIMEOUT_S}s"
    except (ValueError, IndexError) as exc:
        reason = f"unreadable result: {exc}"
    ops = OPS_PER_PROGRAM[kind] * len(inputs)
    return {"crashed": True, "attempted": ops,
            "failures": [f"{kind} pass {reason}"] * ops}


def column(passes: list[dict], key: str) -> list[float]:
    return [r[key] for r in passes]


def cold_split(passes: list[dict]) -> tuple[float, dict[str, float], float]:
    """Mean traced wall, per-layer self time and remainder of cold passes.

    The wall is the summed ``program`` spans, i.e. the timed ops; the
    host-speed loops and output checks between them are left out. Each
    pass's split is rescaled so that its wall equals the pass's scaled op
    seconds (``cold_s``). Means (not medians) keep the split additive:
    layers plus remainder equal the wall.
    """
    splits = []
    for r in passes:
        wall, layers, rest = stats.layer_split(
            [s for s in r["spans"]["cold"] if s["name"] != "cold_pass"],
            lambda s: s["name"] if s["name"] in SPAN_METRICS else None)
        k = r["cold_s"] / wall
        splits.append((wall * k, {name: v * k for name, v in layers.items()}, rest * k))
    names = {name for _, layers, _ in splits for name in layers}
    return (statistics.fmean(wall for wall, _, _ in splits),
            {name: statistics.fmean(layers.get(name, 0.0) for _, layers, _ in splits)
             for name in names},
            statistics.fmean(rest for _, _, rest in splits))


class BatchWorkload:
    """A workload whose op is one pass over a program set in a child process.

    ``kinds`` lists the pass kinds one iteration runs: the last one's cold
    pass is the op, the first one's warm pass the warm op (``analyze`` runs
    the uninstrumented ``run`` pass first, for both).
    """

    def __init__(self, name: str, kinds: tuple[str, ...], build):
        self.name = name
        self.kinds = kinds
        self.build = build

    def run(self, args, rep) -> None:
        setup_s, inputs = report.timed_setup(self.build)
        rep.set("setup_s", setup_s, f"median of {report.SETUP_REPEATS} set-ups")
        results: dict[tuple[str, bool], list[dict]] = {}
        need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        begin = time.monotonic()
        iteration = 0
        while True:
            traced = bool(args.trace) and iteration % 2 == 1
            order = list(inputs)
            random.Random(f"{args.seed}:{iteration}").shuffle(order)
            for kind in self.kinds:
                result = run_pass(kind, order, traced)
                rep.outcome(result["attempted"], result["failures"])
                if "crashed" not in result:
                    results.setdefault((kind, traced), []).append(result)
            iteration += 1
            elapsed = time.monotonic() - begin
            done = all(len(results.get((self.kinds[-1], t), [])) >= need
                       for t in ({False, True} if args.trace else {False}))
            if (done and elapsed * (iteration + 1) / iteration > args.seconds) \
                    or elapsed > 4 * args.seconds:
                break
        rep.set("peak_rss_mb", report.peak_rss_mb(), "max over run.py and passes")
        if args.trace:
            self.per_layer(rep, results)
        else:
            self.end_to_end(rep, results)

    def end_to_end(self, rep, results) -> None:
        op = results[(self.kinds[-1], False)]
        cold = column(op, "cold_s")
        n = f"n={len(op)} passes"
        rep.set("ok_ratio", rep.ok_ratio, f"{rep.attempted} ops")
        rep.set("op_p50_s", statistics.median(cold), n)
        label, value = stats.tail(cold)
        rep.set("op_tail_s", value, f"{label}, {n}")
        warm = results[(self.kinds[0], False)]
        rep.set("warm_op_p50_s", statistics.median(column(warm, "warm_s")),
                f"n={len(warm)} passes")
        rep.set("input_mb_per_s",
                statistics.median(r["counts"]["bytes_in"] for r in op) / 1e6
                / statistics.median(cold), "input MB per pass / op_p50_s")
        print(f"unscaled: cold p50 {statistics.median(column(op, 'raw_cold_s')):.6f} s, "
              f"warm p50 {statistics.median(column(warm, 'raw_warm_s')):.6f} s")
        if len(self.kinds) > 1:
            print(f"uninstrumented {self.kinds[0]} pass: cold p50 "
                  f"{statistics.median(column(warm, 'cold_s')):.6f} s (n={len(warm)})")

    def per_layer(self, rep, results) -> None:
        metrics = dict.fromkeys(report.PER_LAYER_UNITS, 0.0)
        op = self.kinds[-1]
        traced, untraced = results[(op, True)], results[(op, False)]
        splits = {}
        for kind in self.kinds:
            splits[kind] = cold_split(results[(kind, True)])
            report.print_layer_table(f"{self.name} / {kind} cold pass, mean of "
                                     f"{len(results[(kind, True)])} traced passes",
                                     *splits[kind])
            report.export_trace(f"{self.name}-{kind}",
                                [s for r in results[(kind, True)]
                                 for phase in r["spans"].values() for s in phase])
        wall, layers, rest = splits[op]
        layers = dict(layers)
        engine_passes = traced
        if len(self.kinds) > 1:
            base = self.kinds[0]
            base_layers = splits[base][1]
            callback = statistics.median(
                r["counts"]["callback_s"] * r["cold_s"] / r["raw_cold_s"] for r in traced)
            metrics["analyses.callback_s"] = callback
            metrics["core.runtime.dispatch_s"] = (
                layers.get("interp.machine.execute", 0.0)
                - base_layers.get("interp.machine.execute", 0.0) - callback)
            metrics["overhead.analyzed_over_run"] = (
                statistics.median(column(untraced, "cold_s"))
                / statistics.median(column(results[(base, False)], "cold_s")))
            for layer in ENGINE_LAYERS:
                layers[layer] = base_layers.get(layer, 0.0)
            engine_passes = results[(base, True)]
        for span_name, metric in SPAN_METRICS.items():
            metrics[metric] = layers.get(span_name, 0.0)

        def count(key, passes=traced):
            return statistics.median(r["counts"].get(key, 0) for r in passes)

        metrics["wasm.decoder.bytes_in"] = count("bytes_in")
        metrics["wasm.encoder.bytes_out"] = count("bytes_out")
        metrics["core.instrument.hooks_inserted"] = count("hooks_inserted")
        if metrics["wasm.encoder.bytes_out"]:
            metrics["core.instrument.code_growth_ratio"] = (
                metrics["wasm.encoder.bytes_out"] / metrics["wasm.decoder.bytes_in"])
        functions = count("functions", engine_passes)
        metrics["interp.predecode.functions"] = functions
        metrics["interp.predecode.segments"] = count("segments", engine_passes)
        if functions:
            metrics["interp.predecode.cache_hit_ratio"] = (
                count("cache_hits", engine_passes) / functions)
        metrics["interp.machine.traps"] = sum(r["counts"].get("traps", 0)
                                              for rs in results.values() for r in rs)
        metrics["core.runtime.hook_calls"] = count("hook_calls")
        metrics["trace.overhead_ratio"] = (statistics.median(column(traced, "cold_s"))
                                           / statistics.median(column(untraced, "cold_s")))
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = rest
        for name, value in metrics.items():
            rep.set(name, value, f"n={len(traced)} traced passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("instrument", "cold_start", "analyze", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources ({SRC.relative_to(ROOT)}/repro) "
              f"are missing; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import programs  # both import the program under test from SRC
    import serve_load

    rep = report.Report()
    if args.workload == "serve":
        serve_load.run(args, rep)
    else:
        BatchWorkload(args.workload, *{
            "instrument": (("instrument",), programs.instrument_inputs),
            "cold_start": (("run",), programs.cold_start_inputs),
            "analyze": (("run", "analyze"), programs.analyze_inputs),
        }[args.workload]).run(args, rep)
    rep.emit(report.PER_LAYER_UNITS if args.trace else report.END_TO_END_UNITS,
             report.environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
