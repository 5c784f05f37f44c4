"""The ``serve`` workload: one closed-loop client against an in-process daemon.

The daemon and its pool run in this process (workers are the pool's own
subprocesses, at most ``nproc``); one :class:`~repro.serve.ServeClient`
sends a request, waits for the reply, checks it, and sends the next. The
mix repeats in cycles: every ``run`` kernel once (repeats after the first
cycle hit the workers' warm starts), every ``instrument`` kernel once, and
one request of each WASI program on seeded stdin/CSV. The seed drives the
order within each cycle and the generated WASI inputs; the daemon only
ever sees the requests.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import threading
import time
import calibrate
import programs
import report
import stats
from repro.interp.snapshot import decode_values, encode_values
from repro.obs.telemetry import Telemetry
from repro.serve import ServeClient, ServeConfig, ServeDaemon, WorkerPool
from repro.wasi import WasiContext
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.validation import validate_module
from repro.workloads import wasi_io

#: Generated inputs per WASI program; each cycle picks one.
WASI_VARIANTS = 4
#: Traced requests whose spans go into the exported Chrome trace.
EXPORTED_REQUESTS = 200

#: Span name -> layer, for the traced request trees.
SERVE_LAYERS = {
    # serve_request is left unattributed: its self time is the client and
    # the socket, which no span inside the program accounts for
    "serve_op": "serve.daemon",
    "queue_wait": "serve.pool.queue_wait",
    "supervised_execute": "serve.pool.supervise", "worker_handle": "serve.worker",
    "decode": "wasm.decoder", "instrument": "core.instrument",
    "instantiate": "interp.machine.instantiate", "invoke": "interp.machine.execute",
    "warm_restore": "interp.snapshot", "snapshot": "interp.snapshot",
}


def build_requests(seed: int, refs: dict) -> list[dict]:
    """Every request of one cycle, each with what its reply must contain."""
    requests = []
    for name in programs.SERVE_RUN_KERNELS:
        raw = programs.kernel_bytes(name)
        requests.append({"kind": "run", "name": name, "bytes": raw,
                         "message": {"kind": "run", "module": raw, "entry": "main",
                                     "args": [], "analysis": "none"},
                         "ref": programs.reference_for(refs, programs.kernel_key(name))})
    for name in programs.SERVE_INSTRUMENT_KERNELS:
        raw = programs.kernel_bytes(name)
        requests.append({"kind": "instrument", "name": name, "bytes": raw,
                         "message": {"kind": "instrument", "module": raw,
                                     "groups": None},
                         "functions": len(decode_module(raw).functions)})
    rng = random.Random(f"wasi:{seed}")
    for name in ("line_filter", "checksum", "extract"):
        raw = encode_module(wasi_io.wasi_io_module.__wrapped__(name))
        entry, call_args = wasi_io.wasi_io_entry(name)
        variants = []
        for _ in range(WASI_VARIANTS):
            if name == "extract":
                csv = programs.wasi_csv(rng)
                context = WasiContext(files={"data.csv": csv})
                expected = wasi_io.ref_extract(csv)
            else:
                stdin = programs.wasi_stdin(rng)
                context = WasiContext(stdin=stdin)
                expected = (wasi_io.ref_line_filter(stdin, *call_args)
                            if name == "line_filter" else wasi_io.ref_checksum(stdin))
            variants.append({"kind": "wasi", "name": name, "bytes": raw,
                             "message": {"kind": "run", "module": raw, "entry": entry,
                                         "args": encode_values(list(call_args)),
                                         "analysis": "none",
                                         "wasi": context.config()},
                             "expected": expected})
        requests.append({"kind": "wasi-variants", "variants": variants})
    return requests


def cycle(requests: list[dict], rng: random.Random) -> list[dict]:
    chosen = [rng.choice(r["variants"]) if r["kind"] == "wasi-variants" else r
              for r in requests]
    rng.shuffle(chosen)
    return chosen


class Checker:
    """Checks each reply against its request's reference."""

    def __init__(self):
        self.validated: set[str] = set()

    def __call__(self, request: dict, response: dict) -> None:
        if not response.get("ok"):
            raise AssertionError(f"{request['name']}: {response.get('error')}")
        kind = request["kind"]
        if kind == "run":
            got = {"printed": response["printed"], "results": response["results"]}
            ref = request["ref"]
            if got != {"printed": ref["printed"], "results": ref["results"]}:
                raise AssertionError(f"{request['name']}: output differs from the reference")
        elif kind == "instrument":
            out = response["module"]
            digest = hashlib.sha256(out).hexdigest()
            if digest not in self.validated:
                module = decode_module(out)
                validate_module(module)
                if len(module.functions) != request["functions"]:
                    raise AssertionError(f"{request['name']}: function count changed")
                self.validated.add(digest)
        else:
            ret, stdout = request["expected"]
            got = decode_values(response["results"])
            if [v & 0xFFFFFFFF for v in got] != [ret & 0xFFFFFFFF] or \
                    response["stdout"] != stdout:
                raise AssertionError(f"{request['name']}: WASI output differs "
                                     f"from the reference model")


class Service:
    """An in-process daemon over a supervised pool, plus its accept thread."""

    def __init__(self, socket_path):
        workers = max(1, min(2, os.cpu_count() or 1))
        self.pool = WorkerPool(ServeConfig(workers=workers)).start()
        self.daemon = ServeDaemon(socket_path, self.pool).start()
        self.thread = threading.Thread(target=self.daemon.serve_forever,
                                       name="perfbench-accept", daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.daemon.stop()
        self.thread.join(timeout=10.0)
        if self.thread.is_alive():
            raise RuntimeError("daemon accept thread did not stop")


def nest_worker_spans(spans: list[dict]) -> list[dict]:
    """Parent each ``worker_handle`` span under its ``supervised_execute``.

    The pool records ``queue_wait`` and ``supervised_execute`` after the
    fact, so the worker continues the trace under ``serve_op`` although it
    runs inside ``supervised_execute``; left as is, the daemon's self time
    would count the worker twice. A retried request has several
    ``supervised_execute`` spans; only the last one returned a reply.
    """
    supervised = [s for s in spans if s["name"] == "supervised_execute"]
    if not supervised:
        return spans
    parent = supervised[-1]["span_id"]
    return [dict(s, parent_id=parent) if s["name"] == "worker_handle" else s
            for s in spans]


def request_tree(spans: list[dict]) -> dict:
    """Round trip, queue wait, worker time and layer split of one request."""
    spans = nest_worker_spans(spans)

    def total(name):
        return sum(s["duration"] for s in spans if s["name"] == name)
    wall, layers, rest = stats.layer_split(spans, lambda s: SERVE_LAYERS.get(s["name"]))
    return {"round_trip": total("serve_request"), "queue_wait": total("queue_wait"),
            "worker": total("worker_handle"), "wall": wall, "layers": layers,
            "rest": rest}


def warm_up(client: ServeClient, requests: list[dict], workers: int, seed: int) -> None:
    """Send every request once per worker, checking the replies, so that
    first-touch costs (a worker's first decode and instantiate of each
    module) stay out of the timed loop."""
    checker = Checker()
    rng = random.Random(f"warmup:{seed}")
    for _ in range(workers):
        for request in cycle(requests, rng):
            checker(request, client.request(dict(request["message"])))


def run(args, rep) -> None:
    services: list[Service] = []

    def setup():
        requests = build_requests(args.seed, programs.load_refs())
        service = Service(report.OUT_DIR.relative_to(report.ROOT)
                          / f"serve-{os.getpid()}-{len(services)}.sock")
        services.append(service)
        warm_up(ServeClient(service.daemon.socket_path), requests,
                service.pool.config.workers, args.seed)
        return requests

    report.OUT_DIR.mkdir(exist_ok=True)
    try:
        setup_s, requests = report.timed_setup(setup)
        rep.set("setup_s", setup_s, f"median of {report.SETUP_REPEATS} set-ups "
                "(inputs, daemon, workers, warm-up)")
        service = services[-1]
        for spare in services[:-1]:  # earlier set-ups, stopped untimed
            spare.close()
        samples = measure(args, service.daemon.socket_path, requests, rep)
        kills = sum(service.pool.kills.values())
    finally:
        while services:
            services.pop().close()
    rep.set("peak_rss_mb", report.peak_rss_mb(), "max over run.py and reaped workers")
    if args.trace:
        per_layer(rep, samples, kills)
    else:
        end_to_end(rep, [s for s in samples if not s["traced"]])


def end_to_end(rep, samples: list[dict]) -> None:
    times = [s["seconds"] for s in samples]
    n = f"n={len(times)} requests"
    rep.set("ok_ratio", rep.ok_ratio, f"{rep.attempted} requests")
    rep.set("op_p50_s", statistics.median(times), n)
    label, value = stats.tail(times)
    rep.set("op_tail_s", value, f"{label}, {n}")
    warm = [s["seconds"] for s in samples if s["warm"]]
    rep.set("warm_op_p50_s", statistics.median(warm), f"n={len(warm)} warm-start runs")
    rep.set("input_mb_per_s", sum(s["bytes"] for s in samples) / 1e6 / sum(times),
            "request module MB / summed round trips")
    print(f"requests_per_s: {len(times) / sum(times):.3f} 1/s (closed loop, one client)")


def per_layer(rep, samples: list[dict], kills: int) -> None:
    metrics = dict.fromkeys(report.PER_LAYER_UNITS, 0.0)
    traced = [s for s in samples if s["traced"]]
    trees = [s["tree"] for s in traced]
    names = {name for tree in trees for name in tree["layers"]}
    layers = {name: statistics.fmean(t["layers"].get(name, 0.0) for t in trees)
              for name in names}
    wall = statistics.fmean(t["wall"] for t in trees)
    rest = statistics.fmean(t["rest"] for t in trees)
    report.print_layer_table(f"serve / mean of {len(trees)} traced requests",
                             wall, layers, rest)
    report.export_trace("serve", [span for s in traced[:EXPORTED_REQUESTS]
                                  for span in s["spans"]])
    metrics["serve.round_trip_s"] = statistics.median(t["round_trip"] for t in trees)
    metrics["serve.queue_wait_s"] = statistics.median(t["queue_wait"] for t in trees)
    metrics["serve.worker_execute_s"] = statistics.median(t["worker"] for t in trees)
    metrics["serve.transport_s"] = statistics.median(
        t["round_trip"] - t["queue_wait"] - t["worker"] for t in trees)
    runs = [s for s in samples if s["kind"] == "run"]
    metrics["serve.warm_ratio"] = sum(s["warm"] for s in runs) / len(runs)
    metrics["serve.kills"] = kills
    wasi = [s for s in samples if s["kind"] == "wasi"]
    metrics["wasi.preview1.syscalls"] = statistics.fmean(s["syscalls"] for s in wasi)
    metrics["wasi.preview1.bytes_io"] = statistics.fmean(s["bytes_io"] for s in wasi)
    for layer, metric in (("wasm.decoder", "wasm.decoder.busy_s"),
                          ("core.instrument", "core.instrument.busy_s"),
                          ("interp.machine.instantiate", "interp.machine.instantiate_s"),
                          ("interp.machine.execute", "interp.machine.execute_s")):
        metrics[metric] = layers.get(layer, 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(s["seconds"] for s in traced)
        / statistics.median(s["seconds"] for s in samples if not s["traced"]))
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = rest
    for name, value in metrics.items():
        rep.set(name, value, f"n={len(trees)} traced requests")


def measure(args, sock, requests: list[dict], rep) -> list[dict]:
    """The closed loop: in a traced run, cycles alternate untraced/traced."""
    plain = ServeClient(sock)
    telemetry = Telemetry()
    traced_client = ServeClient(sock, telemetry=telemetry)
    checker = Checker()
    rng = random.Random(f"mix:{args.seed}")
    samples = []
    calibration = []
    begin = time.monotonic()
    index = 0
    while time.monotonic() - begin < args.seconds:
        calibration.append(calibrate.sample())
        traced = bool(args.trace) and index % 2 == 1
        client = traced_client if traced else plain
        for request in cycle(requests, rng):
            try:
                start = time.perf_counter()
                response = client.request(dict(request["message"]))
                seconds = time.perf_counter() - start
                checker(request, response)
            except Exception as exc:  # a failed request counts; the loop goes on
                rep.outcome(1, [f"{request['name']}: {exc!r}"])
                continue
            finally:
                spans = [span.as_dict() for span in telemetry.tracer.spans]
                telemetry.tracer.spans.clear()
            rep.outcome(1, [])
            sample = {"kind": request["kind"], "seconds": seconds, "cycle": index,
                      "warm": bool(response.get("warm")),
                      "bytes": len(request["bytes"]), "traced": traced}
            if request["kind"] == "wasi":
                usage = response["wasi_usage"]
                sample["syscalls"] = usage["syscalls"]
                sample["bytes_io"] = usage["bytes_read"] + usage["bytes_written"]
            if traced:
                sample["tree"] = request_tree(spans)
                sample["spans"] = spans
            samples.append(sample)
        index += 1
    calibration.append(calibrate.sample())
    to_reference_speed(samples, calibration)
    return samples


def to_reference_speed(samples: list[dict], calibration: list[float]) -> None:
    """Scale each sample's times by the loops timed around its cycle.

    ``calibration[i]`` was timed just before cycle ``i`` and
    ``calibration[i + 1]`` just after it (see ``calibrate.py``).
    """
    for sample in samples:
        i = sample["cycle"]
        k = calibrate.scale(calibration[i], calibration[i + 1])
        sample["seconds"] *= k
        tree = sample.get("tree")
        if tree is not None:
            for key in ("round_trip", "queue_wait", "worker", "wall", "rest"):
                tree[key] *= k
            tree["layers"] = {name: v * k for name, v in tree["layers"].items()}
