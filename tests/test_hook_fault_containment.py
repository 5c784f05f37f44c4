"""Hook-fault containment: the on_analysis_error policies.

The central guarantee tested here is the quarantine differential: a hook
that raises on its Nth event must leave guest-visible results *identical*
to an un-instrumented run, on both engines and with hook sites bound at
event time on the pre-decoding engine (hook hosts without site factories).
Faults at hook sites compiled into a segment must be contained exactly as
at sites the interpreter loop dispatches, even while that segment runs.
"""

from __future__ import annotations

import pytest

from repro.core import Analysis, AnalysisSession, instrument_module
from repro.core.analysis import Location
from repro.core.hooks import HOOK_MODULE
from repro.core.runtime import WasabiRuntime
from repro.interp import Linker, Machine
from repro.interp.predecode import OP_HOOK
from repro.minic import compile_source
from repro.wasm import AnalysisAbort, AnalysisError, Trap

from .test_hook_dispatch import (ENGINES, compiled_hook_segments, hook_linker,
                                 quickened)

#: engine configurations: site-bound, event-time on pre-decode, legacy.
CONFIGS = list(ENGINES)


def _session(module, analysis, engine: str, **kwargs) -> AnalysisSession:
    return AnalysisSession(module, analysis, linker=hook_linker(engine),
                           machine=ENGINES[engine](), **kwargs)


@pytest.fixture
def work_module():
    """Enough structure that every hook group fires: loops, calls, memory."""
    return compile_source("""
        memory 1;
        func helper(x: i32) -> i32 {
            return x * 2 + 1;
        }
        export func work(n: i32) -> i32 {
            var i: i32 = 0;
            var acc: i32 = 0;
            while (i < n) {
                acc = acc + helper(i);
                mem_i32[i % 64] = acc;
                i = i + 1;
            }
            return acc + mem_i32[(n - 1) % 64];
        }
    """, "work")


class FlakyAnalysis(Analysis):
    """Counts events and raises on the Nth one."""

    def __init__(self, fail_at: int, exc: Exception | None = None):
        self.events = 0
        self.fail_at = fail_at
        self.exc = exc or RuntimeError("injected analysis fault")

    def binary(self, loc, op, a, b, r):
        self.events += 1
        if self.events == self.fail_at:
            raise self.exc


class BrokenOpAnalysis(Analysis):
    """Raises every time one specific binary op's hook fires.

    Quarantine is per monomorphized hook (e.g. ``binary_i32_mul``), so a
    hook that is broken for one op must be silenced for that op only.
    """

    def __init__(self, bad_op: str):
        self.counts: dict[str, int] = {}
        self.bad_op = bad_op

    def binary(self, loc, op, a, b, r):
        self.counts[op] = self.counts.get(op, 0) + 1
        if op == self.bad_op:
            raise RuntimeError("injected analysis fault")


class TestPolicies:
    def test_invalid_policy_rejected(self, work_module):
        with pytest.raises(ValueError, match="on_analysis_error"):
            AnalysisSession(work_module, Analysis(),
                            on_analysis_error="retry")

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_raise_policy_wraps_with_location(self, work_module, engine):
        session = _session(work_module, FlakyAnalysis(3), engine,
                           on_analysis_error="raise")
        with pytest.raises(AnalysisError) as excinfo:
            session.invoke("work", [10])
        err = excinfo.value
        assert isinstance(err.__cause__, RuntimeError)
        assert err.hook_name is not None
        assert err.location is not None and err.location.func >= 0
        assert not isinstance(err, Trap)  # raise is an embedder error
        assert len(session.hook_faults) == 1

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_abort_policy_traps_cleanly(self, work_module, engine):
        session = _session(work_module, FlakyAnalysis(3), engine,
                           on_analysis_error="abort")
        with pytest.raises(AnalysisAbort) as excinfo:
            session.invoke("work", [10])
        assert isinstance(excinfo.value, Trap)
        # trap-clean: the machine unwound fully and works again
        assert session.machine._depth == 0
        session.analysis.fail_at = -1  # disarm
        assert session.invoke("work", [3]) == session.invoke("work", [3])

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_log_policy_keeps_dispatching(self, work_module, engine, capsys):
        analysis = FlakyAnalysis(2)
        session = _session(work_module, analysis, engine,
                           on_analysis_error="log")
        result = session.invoke("work", [10])
        assert result  # completed despite the fault
        assert len(session.hook_faults) == 1
        assert session.resource_usage().hook_faults == 1
        # the hook was NOT quarantined: later events still dispatched
        assert analysis.events > 2
        assert "contained" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_quarantine_policy_stops_dispatch(self, work_module, engine, capsys):
        analysis = BrokenOpAnalysis("i32.mul")
        session = _session(work_module, analysis, engine,
                           on_analysis_error="quarantine")
        session.invoke("work", [50])
        # the first i32.mul event raised; its hook was quarantined, so the
        # count froze at the faulting event even though helper() ran 50x
        assert analysis.counts["i32.mul"] == 1
        assert analysis.counts["i32.add"] > 50  # other variants unaffected
        assert len(session.hook_faults) == 1
        assert "quarantined" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_faults_accumulate_under_log(self, work_module, engine):
        class AlwaysBroken(Analysis):
            def binary(self, loc, op, a, b, r):
                raise ValueError("boom")

        session = _session(work_module, AlwaysBroken(), engine,
                           on_analysis_error="log")
        session.invoke("work", [5])
        assert len(session.hook_faults) > 1
        first = session.hook_faults[0]
        assert first.hook_name is not None
        assert isinstance(first.__cause__, ValueError)


class TestQuarantineDifferential:
    """Guest results under quarantine == un-instrumented results."""

    @pytest.mark.parametrize("engine", CONFIGS)
    @pytest.mark.parametrize("fail_at", [1, 7, 40])
    def test_results_identical_to_uninstrumented(self, work_module, engine,
                                                 fail_at):
        args_list = [[5], [13], [40]]
        baseline = ENGINES[engine]().instantiate(work_module, Linker())
        expected = [baseline.invoke("work", args) for args in args_list]
        expected_mem = bytes(baseline.memory.data[:512])

        session = _session(work_module, FlakyAnalysis(fail_at), engine,
                           on_analysis_error="quarantine")
        got = [session.invoke("work", args) for args in args_list]
        got_mem = bytes(session.instance.memory.data[:512])

        assert got == expected
        assert got_mem == expected_mem
        assert len(session.hook_faults) == 1

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_multi_hook_quarantine_is_per_hook(self, work_module, engine):
        """Only the faulting hook is quarantined; others keep reporting."""

        class PartiallyBroken(BrokenOpAnalysis):
            def __init__(self):
                super().__init__("i32.mul")
                self.locals_seen = 0

            def local(self, loc, op, idx, value):
                self.locals_seen += 1

        analysis = PartiallyBroken()
        session = _session(work_module, analysis, engine,
                           on_analysis_error="quarantine")
        session.invoke("work", [20])
        assert analysis.counts["i32.mul"] == 1  # quarantined after 1 fault
        assert analysis.counts["i32.add"] > 20  # sibling hooks unaffected
        assert analysis.locals_seen > 20  # the local hook kept running

    @pytest.mark.parametrize("engine", CONFIGS)
    def test_quarantine_persists_across_invokes(self, work_module, engine):
        analysis = BrokenOpAnalysis("i32.mul")
        session = _session(work_module, analysis, engine,
                           on_analysis_error="quarantine")
        first = session.invoke("work", [10])
        second = session.invoke("work", [10])
        assert first == second
        # no new events for the quarantined hook, even on a fresh invoke
        assert analysis.counts["i32.mul"] == 1

    def test_quarantine_differential_under_fresh_sites(self, work_module):
        """Sites specialized *after* a quarantine bind straight to the no-op.

        A second instantiation of the same session's runtime (new machine,
        same host functions) must respect an earlier quarantine.
        """
        analysis = BrokenOpAnalysis("i32.mul")
        session = AnalysisSession(work_module, analysis,
                                  on_analysis_error="quarantine")
        session.invoke("work", [5])
        assert analysis.counts["i32.mul"] == 1
        # bind the same hosts into a brand-new instance
        from repro.core.hooks import HOOK_MODULE
        linker = Linker()
        for name, host in session.runtime._hosts.items():
            linker.define(HOOK_MODULE, name, host)
        machine = Machine()
        instance = machine.instantiate(session.result.module, linker,
                                       run_start=False)
        baseline = Machine().instantiate(work_module, Linker())
        assert (instance.invoke("work", [8])
                == baseline.invoke("work", [8]))
        assert analysis.counts["i32.mul"] == 1  # still quarantined


class TestSiteFactoryFallback:
    """A site whose static info is missing cannot be bound at instantiation.

    ``bind_hook_sites`` then falls back to the host's event-time dispatcher,
    so the fault surfaces at the event, inside containment, exactly as on
    the legacy engine (which always binds at event time).
    """

    class LocalsSeen(Analysis):
        def __init__(self):
            self.seen = 0

        def local(self, loc, op, idx, value):
            self.seen += 1

    def _run(self, module, engine: str, policy: str):
        result = instrument_module(module, groups=frozenset({"local"}))
        dropped = min(result.info.var_indices)
        del result.info.var_indices[dropped]
        analysis = self.LocalsSeen()
        runtime = WasabiRuntime(result, analysis, on_analysis_error=policy)
        linker = hook_linker(engine)
        for name, host in runtime.host_functions().items():
            linker.define(HOOK_MODULE, name, host)
        # binding the broken site must not raise at instantiation
        instance = ENGINES[engine]().instantiate(result.module, linker,
                                                 run_start=False)
        runtime.bind(instance)
        if engine == "site_bound":
            generic = [ins for fn in instance.functions
                       if getattr(fn, "decoded", None) is not None
                       for ins in fn.decoded.code if ins[0] == OP_HOOK
                       and ins[1].__qualname__.startswith(
                           "_generic_hook_dispatcher")]
            assert len(generic) == 1  # only the broken site fell back
        if policy == "raise":
            with pytest.raises(AnalysisError):
                instance.invoke("work", [6])
        else:
            baseline = Machine().instantiate(module, Linker())
            assert instance.invoke("work", [6]) == baseline.invoke("work", [6])
            assert analysis.seen > 0  # other local hooks kept dispatching
        (fault,) = runtime.hook_faults
        assert isinstance(fault.__cause__, KeyError)
        assert fault.location == Location(*dropped)
        return str(fault), fault.hook_name, fault.location

    @pytest.mark.parametrize("policy", ["raise", "quarantine"])
    def test_fallback_faults_identically_on_every_engine(self, work_module,
                                                         policy):
        faults = {engine: self._run(work_module, engine, policy)
                  for engine in CONFIGS}
        assert len(set(faults.values())) == 1, faults


#: one straight-line loop body holding four ``i32.add`` sites of the same
#: monomorphized hook (``binary_i32_add``)
SEGMENT_SOURCE = """
    export func run(n: i32) -> i32 {
        var i: i32 = 0;
        var a: i32 = 1;
        while (i < n) {
            a = a + i + 3 + a;
            i = i + 1;
        }
        return a;
    }
"""


class AddFault(Analysis):
    """Records every binary event; raises at the ``fail_at``-th i32.add."""

    def __init__(self, fail_at: int | None):
        self.events: list = []
        self.adds = 0
        self.fail_at = fail_at

    def binary(self, loc, op, a, b, r):
        self.events.append((loc, op, r))
        if op == "i32.add":
            self.adds += 1
            if self.adds == self.fail_at:
                raise RuntimeError("injected analysis fault")


class TestFaultsInsideSegments:
    """The fault path of sites that joined a compiled segment."""

    def _session(self, engine: str, analysis: Analysis, policy: str):
        session = AnalysisSession(compile_source(SEGMENT_SOURCE), analysis,
                                  linker=hook_linker(engine),
                                  machine=quickened(engine),
                                  on_analysis_error=policy)
        if engine == "site_bound":
            # not vacuous: several sites of the faulting hook sit in one
            # compiled segment, so one segment pass crosses all of them
            assert any(hooks.count("binary_i32_add") >= 2 for hooks, _
                       in compiled_hook_segments(session.instance))
        return session

    def _outcomes(self, policy: str, fail_at: int | None) -> dict:
        outcomes = {}
        for engine in CONFIGS:
            analysis = AddFault(fail_at)
            session = self._session(engine, analysis, policy)
            result = session.invoke("run", [5])
            outcomes[engine] = (result, analysis.events,
                                [(f.hook_name, f.location)
                                 for f in session.hook_faults])
        assert outcomes["site_bound"] == outcomes["event_time"] \
            == outcomes["legacy"]
        return outcomes["legacy"]

    def test_quarantine_reaches_the_running_segment(self, capsys):
        _, events, faults = self._outcomes("quarantine", fail_at=1)
        # the first event faulted; the later add sites of the same segment
        # pass, and every later pass, dispatch to the no-op
        (add,) = [loc for loc, op, _ in events if op == "i32.add"]
        assert any(op == "i32.lt_s" for _, op, _ in events)  # other hooks live
        assert faults == [("binary_i32_add", add)]
        assert "quarantined" in capsys.readouterr().err

    def test_log_keeps_every_later_site_firing(self, capsys):
        clean = self._outcomes("log", fail_at=None)
        result, events, faults = self._outcomes("log", fail_at=1)
        assert (result, events) == clean[:2]
        assert len(faults) == 1
        assert "contained" in capsys.readouterr().err

    def test_abort_at_a_mid_segment_site(self):
        outcomes = {}
        for engine in CONFIGS:
            analysis = AddFault(fail_at=2)
            session = self._session(engine, analysis, "abort")
            with pytest.raises(AnalysisAbort) as excinfo:
                session.invoke("run", [5])
            err = excinfo.value
            outcomes[engine] = (str(err), err.hook_name, err.location,
                                analysis.events)
        assert outcomes["site_bound"] == outcomes["event_time"] \
            == outcomes["legacy"]
        _, hook_name, location, events = outcomes["legacy"]
        assert hook_name == "binary_i32_add"
        assert location == events[-1][0]
