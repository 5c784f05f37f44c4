"""RQ5: runtime overhead per hook group (paper Figure 9).

Runs each workload uninstrumented and once per instrumentation
configuration (each hook group alone, plus all hooks), with empty
analyses attached — measuring the cost of the instrumentation machinery
itself, exactly as the paper (and Jalangi's / RoadRunner's empty-analysis
baselines) do.

Timing goes through :func:`repro.obs.spans.measure` (one span per measured
repeat, one injected clock), so sweeps are deterministic under a fake
``clock=`` and can surrender their raw spans via ``tracer=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.hooks import HOOK_MODULE
from ..core.session import AnalysisSession
from ..interp.host import Linker
from ..interp.machine import Machine
from ..obs.spans import Tracer, measure
from .hooks_matrix import FIGURE_GROUPS, make_full_analysis, make_group_analysis
from .workloads import Workload


@dataclass
class OverheadReport:
    name: str
    config: str
    baseline_seconds: float
    instrumented_seconds: float

    @property
    def relative_runtime(self) -> float:
        """1.0x = no overhead (the paper's y-axis)."""
        if self.baseline_seconds == 0:
            return float("inf")
        return self.instrumented_seconds / self.baseline_seconds


def _time_run(invoke, repeats: int, name: str = "bench_invoke",
              clock: Callable[[], float] | None = None,
              tracer: Tracer | None = None,
              attrs: dict | None = None) -> float:
    """Best-of-``repeats`` through the shared span measurement path."""
    return min(measure(invoke, repeats, name=name, tracer=tracer,
                       clock=clock, attrs=attrs))


def baseline_runtime(workload: Workload, repeats: int = 3,
                     predecode: bool | None = None,
                     clock: Callable[[], float] | None = None,
                     tracer: Tracer | None = None) -> float:
    """Uninstrumented runtime; ``predecode`` selects the engine
    (None = the :envvar:`REPRO_PREDECODE` default)."""
    machine = Machine(predecode=predecode)
    instance = machine.instantiate(workload.module(), workload.linker())
    return _time_run(lambda: instance.invoke(workload.entry, workload.args),
                     repeats, name="baseline_invoke", clock=clock,
                     tracer=tracer, attrs={"workload": workload.name})


class EventTimeLinker(Linker):
    """Resolves ``base``'s imports, but links Wasabi hooks factory-less.

    A hook host without a ``site_factory`` makes every ``OP_HOOK`` site of
    the pre-decoding engine fuse only its location constants and call the
    runtime's event-time dispatcher, which binds the hook on every event;
    such sites never join a compiled segment.
    """

    def __init__(self, base: Linker):
        super().__init__()
        self.base = base

    def define(self, module: str, name: str, item: object) -> Linker:
        if module == HOOK_MODULE:
            item.site_factory = None
        self.base.define(module, name, item)
        return self

    def resolve(self, module: str, name: str) -> object:
        return self.base.resolve(module, name)


def instrumented_runtime(workload: Workload, config: str,
                         repeats: int = 3,
                         predecode: bool | None = None,
                         specialize: bool = True,
                         clock: Callable[[], float] | None = None,
                         tracer: Tracer | None = None) -> float:
    """Instrumented runtime under one hook configuration.

    ``specialize`` selects the hook-binding time on the pre-decoding engine:
    site-bound dispatchers, called from ``OP_HOOK`` slots and compiled
    segments (True, what every session runs), or event-time binding
    through factory-less hook hosts (False, the oracle and the baseline of
    the hook-dispatch floor).
    """
    if config == "all":
        analysis = make_full_analysis()
        groups = None
    else:
        analysis = make_group_analysis(config)
        groups = frozenset({config})
    linker = workload.linker()
    session = AnalysisSession(workload.module(), analysis,
                              linker=(linker if specialize
                                      else EventTimeLinker(linker)),
                              groups=groups,
                              machine=Machine(predecode=predecode))
    return _time_run(lambda: session.invoke(workload.entry, workload.args),
                     repeats, name="instrumented_invoke", clock=clock,
                     tracer=tracer,
                     attrs={"workload": workload.name, "config": config})


def overhead_sweep(workload: Workload, configs: list[str] | None = None,
                   repeats: int = 3, include_all: bool = True,
                   predecode: bool | None = None,
                   clock: Callable[[], float] | None = None,
                   tracer: Tracer | None = None) -> list[OverheadReport]:
    """Relative runtime for every hook group (Figure 9's x-axis)."""
    baseline = baseline_runtime(workload, repeats, predecode=predecode,
                                clock=clock, tracer=tracer)
    reports = []
    for config in (configs or FIGURE_GROUPS):
        elapsed = instrumented_runtime(workload, config, repeats,
                                       predecode=predecode,
                                       clock=clock, tracer=tracer)
        reports.append(OverheadReport(workload.name, config, baseline, elapsed))
    if include_all:
        elapsed = instrumented_runtime(workload, "all", repeats,
                                       predecode=predecode,
                                       clock=clock, tracer=tracer)
        reports.append(OverheadReport(workload.name, "all", baseline, elapsed))
    return reports


def _geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else float("nan")


def hook_dispatch_payload(workloads: list[Workload],
                          configs: list[str] | None = None,
                          repeats: int = 3) -> dict:
    """Before/after comparison of the two hook-binding times.

    For each workload and hook configuration, measures the relative runtime
    under event-time binding ("generic", before: every event parses its
    location and binds the hook there) and under site-bound dispatch
    (``OP_HOOK`` slots and compiled segments; "specialized", after), both
    on the pre-decoding engine
    against the same uninstrumented baseline. The improvement metric is the
    ratio of *pure hook overheads* ``(R_before - 1) / (R_after - 1)``,
    which isolates the dispatch cost from the interpreter's own runtime;
    the JSON payload backs ``BENCH_hooks.json`` and the CI hook-overhead
    floor.
    """
    configs = list(configs or (FIGURE_GROUPS + ["all"]))
    per_workload: list[dict] = []
    by_config: dict[str, dict[str, list[float]]] = {
        config: {"generic": [], "specialized": []} for config in configs}
    for workload in workloads:
        baseline = baseline_runtime(workload, repeats)
        entry: dict = {"name": workload.name, "baseline_seconds": baseline,
                       "configs": {}}
        for config in configs:
            generic = instrumented_runtime(workload, config, repeats,
                                           specialize=False)
            specialized = instrumented_runtime(workload, config, repeats,
                                               specialize=True)
            generic_rel = generic / baseline
            specialized_rel = specialized / baseline
            by_config[config]["generic"].append(generic_rel)
            by_config[config]["specialized"].append(specialized_rel)
            entry["configs"][config] = {
                "generic_relative": generic_rel,
                "specialized_relative": specialized_rel,
            }
        per_workload.append(entry)

    groups: dict[str, dict[str, float]] = {}
    for config in configs:
        generic_gm = _geomean(by_config[config]["generic"])
        specialized_gm = _geomean(by_config[config]["specialized"])
        improvements = [
            (before - 1.0) / (after - 1.0)
            for before, after in zip(by_config[config]["generic"],
                                     by_config[config]["specialized"])
            if after > 1.0 and before > 1.0]
        groups[config] = {
            "generic_overhead": generic_gm,
            "specialized_overhead": specialized_gm,
            "overhead_improvement": (_geomean(improvements)
                                     if improvements else float("nan")),
        }
    return {
        "metric": "relative runtime vs uninstrumented predecoded baseline; "
                  "overhead_improvement = geomean (generic-1)/(specialized-1)",
        "repeats": repeats,
        "workloads": per_workload,
        "groups": groups,
        "geomean_improvement_all": groups["all"]["overhead_improvement"]
        if "all" in groups else float("nan"),
    }
