"""Tests for the benchmark's own rules (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import passes  # noqa: E402
import programs  # noqa: E402
import report  # noqa: E402
import serve_load  # noqa: E402
import stats  # noqa: E402
from repro.interp.predecode import decode_function  # noqa: E402


# -- percentile and sample-count rule ----------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 99) == 99.0
    assert stats.percentile(samples, 100) == 100.0
    assert stats.percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, label", [
    (1, "p50"), (19, "p50"), (39, "p50"), (40, "p75"), (99, "p75"),
    (100, "p90"), (199, "p90"), (200, "p95"), (999, "p95"), (1000, "p99"),
    (9999, "p99"), (10000, "p99.9"),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label):
    got, value = stats.tail([float(i) for i in range(n)])
    assert got == label
    if label != "p50":
        assert sum(1 for i in range(n) if i > value) >= stats.MIN_BEYOND


def test_tail_falls_back_to_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == ("p50", 2.0)
    with pytest.raises(ValueError):
        stats.tail([])


# -- host-speed probe --------------------------------------------------------------


def test_scale_uses_the_mean_of_the_loops_around_an_op():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(ref, ref) == 1.0
    assert calibrate.scale(ref, 3 * ref) == pytest.approx(0.5)  # host twice as slow


def test_probe_sample_leaves_the_collector_as_it_was():
    assert calibrate.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- self time -------------------------------------------------------------------


def span(span_id, parent, name, duration):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "duration": duration}


TREE = [
    span("b", "a", "wasm.decoder", 1.0),
    span("a", "root", "program", 3.0),
    span("c", "root", "interp.machine.execute", 4.0),
    span("d", "c", "wasm.decoder", 0.5),
    span("root", None, "cold_pass", 10.0),
]


def test_self_time_subtracts_direct_children_only():
    assert stats.self_times(TREE) == {"root": 3.0, "a": 2.0, "b": 1.0,
                                      "c": 3.5, "d": 0.5}


def test_layer_split_adds_up_to_the_wall():
    wall, layers, rest = stats.layer_split(
        TREE, lambda s: s["name"] if s["name"] not in ("program", "cold_pass") else None)
    assert wall == 10.0
    assert layers == {"wasm.decoder": 1.5, "interp.machine.execute": 3.5}
    assert rest == 5.0  # the root's 3.0 plus the program wrapper's 2.0
    assert sum(layers.values()) + rest == wall


def test_serve_worker_spans_nest_under_supervised_execute():
    spans = [
        span("req", None, "serve_request", 10.0),
        span("op", "req", "serve_op", 9.0),
        span("q", "op", "queue_wait", 1.0),
        span("sup", "op", "supervised_execute", 7.0),
        span("w", "op", "worker_handle", 6.0),  # as the worker records it
    ]
    tree = serve_load.request_tree(spans)
    assert tree["layers"]["serve.daemon"] == pytest.approx(1.0)
    assert tree["layers"]["serve.pool.supervise"] == pytest.approx(1.0)
    assert tree["worker"] == 6.0
    assert sum(tree["layers"].values()) + tree["rest"] == pytest.approx(tree["wall"])


# -- failed ops --------------------------------------------------------------------


def small_job(wrong: bool) -> dict:
    refs = programs.load_refs()
    job = []
    for name in ("jacobi-1d", "trisolv"):
        ref = dict(programs.reference_for(refs, programs.kernel_key(name)))
        if wrong and name == "trisolv":
            ref["printed"] = ref["printed"][:-1]
        job.append({"name": name, "bytes": programs.kernel_bytes(name), "ref": ref})
    return {"kind": "run", "programs": job, "trace": False}


def run_small_job(wrong: bool = False, trace: bool = False) -> passes.Pass:
    bench = passes.Pass(trace)
    passes.run_job(small_job(wrong), bench)
    return bench


def test_wrong_reference_counts_toward_failed_ratio():
    bench = run_small_job(wrong=True)
    assert bench.attempted == 4  # two programs, cold and warm
    assert len(bench.failures) == 2
    assert all("trisolv" in failure for failure in bench.failures)
    rep = report.Report()
    rep.outcome(bench.attempted, bench.failures)
    assert rep.ok_ratio == 0.5


def test_correct_references_pass():
    bench = run_small_job(trace=True)
    assert bench.failures == []
    assert bench.seconds["cold"] > 0 and bench.seconds["warm"] > 0
    assert bench.counts["functions"] > 0
    assert {s["name"] for s in bench.spans["cold"]} >= {
        "cold_pass", "program", "wasm.decoder", "interp.predecode",
        "interp.machine.instantiate", "interp.machine.execute"}


# -- the predecode-split guard -----------------------------------------------------


def test_instantiate_that_misses_the_predecode_cache_fails_loudly(monkeypatch):
    def uncached(func, module, pairs=None, quicken=False):
        return decode_function(func, module, pairs=pairs, quicken=quicken), False

    monkeypatch.setattr(passes, "cached_decode", uncached)
    bench = run_small_job()
    cold = [f for f in bench.failures if f.startswith("cold")]
    assert len(cold) == 2
    assert all("PredecodeSplitError" in failure for failure in cold)


# -- a checkout without the program ------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "instrument",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
