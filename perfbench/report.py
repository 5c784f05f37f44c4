"""Collecting, printing and exporting one run's metrics."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
#: Scratch output of a run (sockets, Chrome traces), inside the checkout.
OUT_DIR = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
ESCAPE_HATCHES = ("REPRO_PREDECODE", "REPRO_QUICKEN", "REPRO_SPECIALIZE_HOOKS")

END_TO_END_UNITS = {
    "setup_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB", "op_p50_s": "s",
    "op_tail_s": "s", "warm_op_p50_s": "s", "input_mb_per_s": "MB/s",
}

#: Per-layer metric -> unit. A layer the workload does not cross reports 0.
PER_LAYER_UNITS = {
    "wasm.decoder.busy_s": "s", "wasm.decoder.output_busy_s": "s",
    "wasm.decoder.bytes_in": "bytes", "wasm.validation.input_busy_s": "s",
    "wasm.validation.output_busy_s": "s", "core.instrument.busy_s": "s",
    "core.instrument.hooks_inserted": "count",
    "core.instrument.code_growth_ratio": "ratio", "wasm.encoder.busy_s": "s",
    "wasm.encoder.bytes_out": "bytes", "interp.predecode.busy_s": "s",
    "interp.predecode.functions": "count", "interp.predecode.segments": "count",
    "interp.predecode.cache_hit_ratio": "ratio",
    "interp.machine.instantiate_s": "s", "interp.machine.execute_s": "s",
    "interp.machine.traps": "count", "core.session.setup_s": "s",
    "core.runtime.hook_calls": "count", "core.runtime.dispatch_s": "s",
    "analyses.callback_s": "s", "overhead.analyzed_over_run": "ratio",
    "wasi.preview1.syscalls": "count", "wasi.preview1.bytes_io": "bytes",
    "serve.round_trip_s": "s", "serve.queue_wait_s": "s",
    "serve.worker_execute_s": "s", "serve.transport_s": "s",
    "serve.warm_ratio": "ratio", "serve.kills": "count",
    "trace.overhead_ratio": "ratio", "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


class Report:
    """Metrics, sample counts and op outcomes of one run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def set(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        self.notes[name] = note

    def outcome(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    @property
    def ok_ratio(self) -> float:
        return 1 - len(self.failures) / max(self.attempted, 1)

    def emit(self, units: dict[str, str], env: dict) -> None:
        """Print the report; the last line is the machine-readable result."""
        print(f"env: {json.dumps(env, sort_keys=True)}")
        if env["escape_hatch_set"]:
            print("WARNING: an engine escape hatch is set; these numbers do not "
                  "describe the default engine")
        failed = len(self.failures)
        for message in self.failures[:20]:
            print(f"FAILED: {message.strip()}")
        print(f"ops: attempted={self.attempted} failed={failed} "
              f"failed_ratio={failed / max(self.attempted, 1):.6f}")
        for name, unit in units.items():
            print(f"  {name:36s} {self.metrics[name]:>14.6g} {unit:6s} "
                  f"{self.notes.get(name, '')}")
        print(json.dumps({
            "correct": failed == 0 and self.attempted > 0,
            "attempted": self.attempted, "failed": failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))


def commit() -> str:
    """The checkout's commit from ``.git``, or ``unknown`` outside git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    hatches = {name: os.environ.get(name) for name in ESCAPE_HATCHES}
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit(), **hatches,
            "escape_hatch_set": any(value is not None for value in hatches.values())}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_setup(build):
    """Run ``build`` SETUP_REPEATS times; return (median seconds, last value).

    Each repetition is scaled to reference host speed like an op
    (``calibrate.py``), by the loops timed right before and after it.
    """
    times = []
    value = None
    before = calibrate.sample()
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        value = build()
        elapsed = time.perf_counter() - begin
        after = calibrate.sample()
        times.append(elapsed * calibrate.scale(before, after))
        before = after
    return statistics.median(times), value


def print_layer_table(title: str, wall: float, layers: dict[str, float],
                      unattributed: float) -> None:
    print(f"layer split: {title} (self time)")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:36s} {seconds:12.6f} s {100 * seconds / wall:6.1f}%")
    print(f"  {'(unattributed)':36s} {unattributed:12.6f} s "
          f"{100 * unattributed / wall:6.1f}%")
    print(f"  {'= traced wall':36s} {wall:12.6f} s")


def export_trace(name: str, span_dicts: list[dict]) -> None:
    """Write spans as Chrome trace JSON under the run's output directory."""
    from repro.obs.spans import Span, spans_to_chrome_trace
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{name}.json"
    spans = [Span.from_dict(entry) for entry in span_dicts]
    out.write_text(json.dumps(spans_to_chrome_trace(spans, "perfbench")))
    print(f"chrome trace: {out.relative_to(ROOT)} ({len(spans)} spans)")
