"""One pass of a batch workload, run in a fresh interpreter.

``run.py`` starts this script once per pass, so a cold pass
never shows the process a module it has already handled: each module is
decoded, validated and run exactly once on the cold path. Interpreter
start-up and imports happen before the job is read and stay outside every
timed region.

Protocol: the job arrives pickled on stdin (written by ``run.py`` of the
same checkout); the result is one JSON object on the last stdout line.
Job kinds:

* ``instrument`` — bytes → decode → validate → instrument (all hook
  groups) → encode → re-decode → validate the output (cold), then
  instrument + encode of the already-decoded module (warm);
* ``run`` — bytes → decode → validate → predecode → instantiate → invoke
  (cold), then invoke on a second, already-instantiated instance (warm);
* ``analyze`` — bytes → decode → validate → ``AnalysisSession`` with
  ``InstructionMixAnalysis`` → invoke (cold only: the workload's warm
  column is the uninstrumented ``run`` pass's).

Only the layer calls are timed; checking an output against its reference
happens after the clock stops. A host-speed loop (``calibrate.py``) is
timed before each phase and after every op, and each op's seconds are
scaled to reference host speed by the loops on either side of it; the
unscaled seconds are returned too. With ``trace`` set, every call into a
layer is wrapped in a :class:`repro.obs.spans.Tracer` span named after the
layer, and the spans are returned with the result.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import resource
import sys
import time
import traceback

import calibrate
from repro.analyses.instruction_mix import InstructionMixAnalysis
from repro.core.analysis import HOOK_METHOD_TO_GROUP, used_groups
from repro.core.hooks import HOOK_MODULE
from repro.core.instrument import instrument_module
from repro.core.session import AnalysisSession
from repro.interp.host import Linker
from repro.interp.machine import Machine
from repro.interp.predecode import OP_SEGMENT, cached_decode
from repro.interp.snapshot import encode_values
from repro.obs.spans import Tracer
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.errors import Trap
from repro.wasm.types import F64, FuncType
from repro.wasm.validation import validate_module

ENTRY = "main"


class PredecodeSplitError(RuntimeError):
    """``instantiate`` decoded a function the explicit predecode step missed.

    The per-layer split times predecode by calling ``cached_decode`` before
    ``Machine.instantiate``; if instantiate still misses the cache, its
    span silently includes predecode work and the split is wrong.
    """


class Pass:
    """Timing, tracing and outcome bookkeeping for one child process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer: Tracer | None = None
        #: phase -> recorded span dicts (traced runs only)
        self.spans: dict[str, list[dict]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}
        #: op seconds per phase, scaled to reference host speed and as measured
        self.seconds = {"cold": 0.0, "warm": 0.0}
        self.raw_seconds = {"cold": 0.0, "warm": 0.0}
        #: host-speed loop timings (calibrate.sample), between ops
        self.calibration: list[float] = []

    @contextlib.contextmanager
    def phase(self, phase: str):
        """One phase (``cold`` or ``warm``) of the pass, traced as its own tree."""
        self.calibration.append(calibrate.sample())
        if not self.trace:
            yield
            return
        self.tracer = Tracer()
        self.tracer.ensure_trace()
        try:
            with self.tracer.span(f"{phase}_pass"):
                yield
        finally:
            self.spans[phase] = [span.as_dict() for span in self.tracer.spans]
            self.tracer = None

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def op(self, phase: str, name: str, work, verify=None):
        """Time ``work()`` as one op of ``phase``; then ``verify`` its value.

        An exception from either, or an unexpected trap, is a failed op.
        Returns the work's value, or ``None`` when the op failed.
        """
        self.attempted += 1
        before = self.calibration[-1]
        try:
            with self.span("program", program=name):
                begin = time.perf_counter()
                value = work()
                elapsed = time.perf_counter() - begin
            self.calibration.append(calibrate.sample())
            if verify is not None:
                verify(value)
        except Trap as exc:
            self.count("traps")
            self.failures.append(f"{phase} {name}: unexpected trap: {exc}")
            return None
        except Exception:
            self.failures.append(f"{phase} {name}: {traceback.format_exc(limit=4)}")
            return None
        self.seconds[phase] += elapsed * calibrate.scale(before, self.calibration[-1])
        self.raw_seconds[phase] += elapsed
        return value

    def skip(self, phase: str, names: list[str]) -> None:
        """Count ops not run because the cold op of their program failed."""
        for name in names:
            self.attempted += 1
            self.failures.append(f"{phase} {name}: not run, its cold op failed")


def print_linker(sink: list) -> Linker:
    linker = Linker()
    linker.define_function("env", "print_f64", FuncType((F64,), ()),
                           lambda args: sink.append(args[0]))
    return linker


def expect_output(name: str, printed: list, results: list, ref: dict) -> None:
    got = {"printed": encode_values(printed), "results": encode_values(results)}
    if got != {"printed": ref["printed"], "results": ref["results"]}:
        raise AssertionError(f"{name}: output differs from the reference")


def hook_call_sites(module) -> int:
    hooks = {i for i, imp in enumerate(module.imported_functions())
             if imp.module == HOOK_MODULE}
    return sum(1 for func in module.functions for instr in func.body
               if instr.op == "call" and instr.idx in hooks)


def missing(job: dict, done: list[tuple]) -> list[str]:
    names = {entry[0] for entry in done}
    return [prog["name"] for prog in job["programs"] if prog["name"] not in names]


# -- instrument -----------------------------------------------------------------


def instrument_job(job: dict, bench: Pass) -> None:
    done = []
    with bench.phase("cold"):
        for prog in job["programs"]:
            def cold(raw=prog["bytes"]):
                with bench.span("wasm.decoder"):
                    module = decode_module(raw)
                with bench.span("wasm.validation.input"):
                    validate_module(module)
                with bench.span("core.instrument"):
                    result = instrument_module(module)
                with bench.span("wasm.encoder"):
                    out = encode_module(result.module)
                with bench.span("wasm.decoder.output"):
                    back = decode_module(out)
                with bench.span("wasm.validation.output"):
                    validate_module(back)
                return module, out, back

            def verify(value):
                module, out, back = value
                if len(back.functions) != len(module.functions):
                    raise AssertionError("instrumenting changed the function count")
                if len(back.exports) != len(module.exports):
                    raise AssertionError("instrumenting changed the exports")

            got = bench.op("cold", prog["name"], cold, verify)
            if got is not None:
                module, out, back = got
                bench.count("bytes_in", len(prog["bytes"]))
                bench.count("bytes_out", len(out))
                bench.count("hooks_inserted", hook_call_sites(back))
                done.append((prog["name"], module, out))
    bench.skip("warm", missing(job, done))

    with bench.phase("warm"):
        for name, module, cold_out in done:
            def warm(module=module):
                with bench.span("core.instrument"):
                    result = instrument_module(module)
                with bench.span("wasm.encoder"):
                    return encode_module(result.module)

            def verify(out, cold_out=cold_out):
                if out != cold_out:
                    raise AssertionError("warm output differs from the cold output")

            bench.op("warm", name, warm, verify)


# -- run ------------------------------------------------------------------------


def run_job(job: dict, bench: Pass) -> None:
    done = []
    with bench.phase("cold"):
        for prog in job["programs"]:
            name, ref = prog["name"], prog["ref"]
            printed: list = []

            def cold(raw=prog["bytes"], name=name, printed=printed):
                with bench.span("wasm.decoder"):
                    module = decode_module(raw)
                with bench.span("wasm.validation.input"):
                    validate_module(module)
                machine = Machine()
                decoded = []
                if machine.predecode:
                    with bench.span("interp.predecode"):
                        decoded = [cached_decode(func, module,
                                                 pairs=machine.fusion_pairs,
                                                 quicken=machine.quicken)
                                   for func in module.functions]
                with bench.span("interp.machine.instantiate"):
                    instance = machine.instantiate(module, print_linker(printed))
                if machine.predecode_cache_misses:
                    raise PredecodeSplitError(
                        f"{name}: instantiate decoded "
                        f"{machine.predecode_cache_misses} function(s) itself")
                with bench.span("interp.machine.execute"):
                    results = instance.invoke(ENTRY, [])
                return module, machine, decoded, results

            def verify(value, name=name, ref=ref, printed=printed):
                expect_output(name, printed, value[3], ref)

            got = bench.op("cold", name, cold, verify)
            if got is not None:
                module, machine, decoded, _ = got
                bench.count("bytes_in", len(prog["bytes"]))
                bench.count("functions", len(decoded))
                bench.count("cache_hits", sum(1 for _, hit in decoded if hit))
                bench.count("segments", sum(1 for stream, _ in decoded
                                            for slot in stream.code
                                            if slot[0] == OP_SEGMENT))
                done.append((name, ref, module, machine))
    bench.skip("warm", missing(job, done))

    warm = []
    for name, ref, module, machine in done:
        printed = []
        warm.append((name, ref, machine.instantiate(module, print_linker(printed)),
                     printed))
    with bench.phase("warm"):
        for name, ref, instance, printed in warm:
            def work(instance=instance):
                with bench.span("interp.machine.execute"):
                    return instance.invoke(ENTRY, [])
            bench.op("warm", name, work,
                     lambda results, name=name, ref=ref, printed=printed:
                     expect_output(name, printed, results, ref))


# -- analyze --------------------------------------------------------------------


def timed_callbacks(analysis, acc: list) -> None:
    """Wrap every hook the analysis implements to accumulate its run time.

    The wrappers are instance attributes, which selective instrumentation
    treats exactly like the class's own overrides, so the same hook groups
    are instrumented with and without them.
    """
    clock = time.perf_counter
    groups = used_groups(analysis)
    for method, group in HOOK_METHOD_TO_GROUP.items():
        if group not in groups:
            continue

        def wrapper(*args, inner=getattr(analysis, method)):
            begin = clock()
            try:
                return inner(*args)
            finally:
                acc[0] += clock() - begin
                acc[1] += 1
        setattr(analysis, method, wrapper)


def clock_pair_cost(rounds: int = 20000) -> float:
    """Seconds one ``begin = clock(); acc += clock() - begin`` pair adds."""
    clock = time.perf_counter
    samples = []
    for _ in range(5):
        acc = 0.0
        begin_all = clock()
        for _ in range(rounds):
            begin = clock()
            acc += clock() - begin
        samples.append((clock() - begin_all) / rounds)
    samples.sort()
    return samples[len(samples) // 2]


def expect_mix(name: str, analysis, ref: dict) -> None:
    if dict(analysis.counts) != ref["mix_counts"]:
        raise AssertionError(
            f"{name}: instruction-mix counts differ from the reference "
            f"({sum(analysis.counts.values())} events vs {ref['mix_total']})")


def analyze_job(job: dict, bench: Pass) -> None:
    acc = [0.0, 0]  # callback seconds, callback calls (traced runs only)
    with bench.phase("cold"):
        for prog in job["programs"]:
            name, ref = prog["name"], prog["ref"]
            printed: list = []
            analysis = InstructionMixAnalysis()
            if bench.trace:
                timed_callbacks(analysis, acc)

            def cold(raw=prog["bytes"], analysis=analysis, printed=printed):
                with bench.span("wasm.decoder"):
                    module = decode_module(raw)
                with bench.span("wasm.validation.input"):
                    validate_module(module)
                with bench.span("core.session.setup"):
                    session = AnalysisSession(module, analysis,
                                              linker=print_linker(printed))
                with bench.span("interp.machine.execute"):
                    results = session.invoke(ENTRY, [])
                return results

            def verify(results, name=name, ref=ref, analysis=analysis, printed=printed):
                # RQ2: the analyzed program prints exactly what the original does
                expect_output(name, printed, results, ref)
                expect_mix(name, analysis, ref)

            if bench.op("cold", name, cold, verify) is not None:
                bench.count("bytes_in", len(prog["bytes"]))
                bench.count("hook_calls", sum(analysis.counts.values()))
    if bench.trace:
        bench.count("callback_s", max(0.0, acc[0] - acc[1] * clock_pair_cost()))


JOBS = {"instrument": instrument_job, "run": run_job, "analyze": analyze_job}


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    bench = Pass(job["trace"])
    JOBS[job["kind"]](job, bench)
    out = {"cold_s": bench.seconds["cold"], "warm_s": bench.seconds["warm"],
           "raw_cold_s": bench.raw_seconds["cold"], "raw_warm_s": bench.raw_seconds["warm"],
           "attempted": bench.attempted, "failures": bench.failures,
           "counts": bench.counts,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if bench.trace:
        out["spans"] = bench.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
