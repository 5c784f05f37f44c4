"""The Wasabi runtime: generated low-level hooks dispatching to the analysis.

For every :class:`HookSpec` the instrumenter generated, the runtime creates
a host function (the analogue of the paper's generated JavaScript low-level
hooks). These functions

* re-join split i64 halves into full-width integers (§2.4.6),
* convert raw i32 condition values to booleans (Figure 5),
* attach pre-computed static information — resolved branch targets, memory
  offsets, variable indices, call targets (§2.3 "pre-computed information"),
* resolve indirect-call table indices to the actually called function by
  reading the live table (§2.3), and
* for ``br_table``, select the taken entry and fire the end hooks of all
  traversed blocks at runtime (§2.4.5),

before invoking the user's high-level hooks.

**One binder table, two binding times.** What each hook kind does is
defined once, by :meth:`WasabiRuntime._binder`: a ``bind(location)``
closure that resolves the static information and value converters of one
location and returns the ``dispatch(*values)`` closure run per event
(positional flat values, i64s split). Every dispatcher comes from it,
bound at one of two times:

* **site-bound** — the host function's ``site_factory`` attribute hands
  the pre-decoding engine a factory it calls once per fused
  ``const/const/call`` site, so per event nothing is looked up. The site's
  ``OP_HOOK`` slot, or the compiled segment the site joined, calls it;
* **event-time** — the host function's own ``fn`` reads the
  :class:`Location` from the trailing location parameters
  (``Location(-1, -1)`` without them) and calls ``bind(location)`` with
  the values on every event. The legacy engine, ``emit_locations=False``
  modules, factory-less hook hosts and sites whose factory raised use this
  path; it is also the differential oracle for the site-bound one.

Hooks whose high-level methods the analysis does not override dispatch to a
shared no-op at both binding times.

**Fault containment.** An exception escaping a hook (or a bind failing for
a location without static info) is wrapped in
:class:`~repro.wasm.errors.AnalysisError` carrying the hook name and
:class:`Location`, and then handled per the runtime's
``on_analysis_error`` policy — ``raise`` (propagate to the embedder),
``abort`` (trap the guest with :class:`~repro.wasm.errors.AnalysisAbort`),
``quarantine`` (atomically swap that hook's dispatchers — bound
``OP_HOOK`` slots included, via the host functions' site registries — for
the shared no-op and keep the guest running), or ``log`` (record, report
on stderr, keep dispatching). The engine calls each site-bound dispatcher
inside one ``try`` and hands a fault to the host's ``site_fault``, which
builds the :class:`Location` only then; event-time dispatchers contain
their own faults.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable

from ..interp.host import HostFunction
from ..interp.machine import Instance
from ..wasm.errors import AnalysisAbort, AnalysisError
from ..wasm.numeric import to_signed
from ..wasm.types import I64, ValType
from .analysis import Analysis, Location, MemArg
from .hooks import HookSpec, split_i64
from .instrument import InstrumentationResult
from .metadata import StaticInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs → interp)
    from ..obs.telemetry import Telemetry

#: Valid ``on_analysis_error`` policies.
ERROR_POLICIES = ("raise", "abort", "quarantine", "log")

Dispatcher = Callable[..., None]
Binder = Callable[[Location], Dispatcher]
SiteFactory = Callable[[int, int], Dispatcher]
SiteFault = Callable[[Exception, int, int], None]

def _hook_methods(kind: str) -> tuple[str, ...]:
    """Analysis method(s) a dispatcher for a hook kind may invoke: the one
    named after the kind (``const_``, ``global_``, ``return_`` and ``if_``
    carry a trailing underscore), plus ``end`` for ``br_table``, whose
    dispatcher also fires the end hooks of traversed blocks."""
    method = kind if hasattr(Analysis, kind) else kind + "_"
    return (method, "end") if kind == "br_table" else (method,)


def _overrides(analysis: Analysis, method_name: str) -> bool:
    """Whether ``analysis`` overrides a hook method of :class:`Analysis`.

    Instance attributes (as installed by ``CompositeAnalysis``) count as
    overrides just like subclass methods.
    """
    impl = getattr(analysis, method_name)
    return getattr(impl, "__func__", impl) is not getattr(Analysis, method_name)


_SIGN32 = 1 << 31
_SIGN64 = 1 << 63

#: Location of every event on modules instrumented without locations.
_NO_LOCATION = Location(-1, -1)


def _site_location(func_const: int, instr_const: int) -> Location:
    """A site's :class:`Location` from its raw constants (the begin-function
    hook's instr index, -1, arrives pre-masked)."""
    return Location(func_const, to_signed(instr_const, 32))


def _part_extractors(value_types: tuple[ValType, ...]):
    """Per logical hook value: ``(raw, presented)`` extractor pairs.

    Each extractor takes the flat (post-i64-split) raw values as a sequence
    and returns one logical value; ``raw`` keeps the engine's canonical unsigned
    form (used for addresses and table indices), ``presented`` applies the
    Figure-5 conversion: integers become signed Python ints (the JavaScript
    ``number`` / long.js view), floats pass through. Split i64 halves are
    re-joined by both. Index arithmetic happens here, once, per hook.
    """
    raws: list = []
    presented: list = []
    cursor = 0
    for valtype in value_types:
        if valtype is I64:
            lo, hi = cursor, cursor + 1
            raws.append(lambda a, lo=lo, hi=hi: a[lo] | (a[hi] << 32))
            # branch-free sign conversion: (x ^ 2**63) - 2**63
            presented.append(
                lambda a, lo=lo, hi=hi:
                ((a[lo] | (a[hi] << 32)) ^ _SIGN64) - _SIGN64)
            cursor += 2
        else:
            i = cursor
            raws.append(lambda a, i=i: a[i])
            if valtype is ValType.I32:
                presented.append(lambda a, i=i: (a[i] ^ _SIGN32) - _SIGN32)
            else:
                presented.append(lambda a, i=i: a[i])
            cursor += 1
    return raws, presented


def _noop_dispatcher(*values) -> None:
    """Shared dispatcher for hooks whose analysis methods are not overridden."""


class WasabiRuntime:
    """Builds and owns the low-level hook host functions for one analysis."""

    def __init__(self, result: InstrumentationResult, analysis: Analysis,
                 on_analysis_error: str = "raise",
                 telemetry: "Telemetry | None" = None,
                 replay=None):
        if on_analysis_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_analysis_error must be one of {ERROR_POLICIES}, "
                f"got {on_analysis_error!r}")
        self.info: StaticInfo = result.info
        self.analysis = analysis
        self.on_analysis_error = on_analysis_error
        self.telemetry = telemetry
        #: Recorder/Replayer for hook-fault and quarantine events. Hook
        #: *calls* are never recorded (they re-execute live during replay);
        #: their faults and the containment verdicts are, so a replayed run
        #: must fault at the same locations with the same policy outcomes.
        self.replay = replay
        self.instance: Instance | None = None
        #: AnalysisError records for every contained hook fault, in order.
        self.hook_faults: list[AnalysisError] = []
        self._quarantined: set[str] = set()
        self._hosts: dict[str, HostFunction] = {}
        self._num_original_imports = sum(
            1 for f in self.info.module_info.functions if f.imported)
        self._num_hooks = len(self.info.hooks)
        self._with_locations = True
        if self.info.hooks:
            # all hooks share the location convention
            first = self.info.hooks[0]
            self._with_locations = (len(first.wasm_params)
                                    == len(split_i64(first.value_types)) + 2)
        self.enabled = True  # allows pausing an analysis mid-run

    def bind(self, instance: Instance) -> None:
        """Attach the instrumented instance (needed for table lookups)."""
        self.instance = instance

    # -- host function generation ----------------------------------------------

    def host_functions(self) -> dict[str, HostFunction]:
        """One generated host function per low-level hook.

        ``fn`` is the hook's event-time dispatcher. Each host function is
        also annotated for the pre-decoding engine: ``is_wasabi_hook``
        marks it void-by-construction, and (when hooks carry location
        parameters) ``site_factory`` binds each call site at instantiation
        while ``site_fault`` contains the faults of those sites.
        """
        out: dict[str, HostFunction] = {}
        for spec in self.info.hooks:
            bind = self._binder(spec)
            fn = (_noop_dispatcher if bind is None else
                  self._timed(self._event_time(spec, bind), spec.name))
            host = HostFunction(spec.functype, fn, name=spec.name)
            host.is_wasabi_hook = True
            # the home ``(container, index)`` of every OP_HOOK slot bound
            # from this host is recorded here by bind_hook_sites, so
            # quarantine() can swap them for the no-op
            host.site_registry = []
            if self._with_locations:
                host.site_factory = self._site_factory(spec.name, bind)
                host.site_fault = self._site_fault(spec.name)
            out[spec.name] = host
        self._hosts.update(out)
        return out

    # -- telemetry ---------------------------------------------------------------

    def _timed(self, inner: Dispatcher, hook_name: str) -> Dispatcher:
        """Wrap a dispatcher so each dispatch is timed into the telemetry's
        per-hook latency histogram.

        The histogram (and its ``.observe``) is resolved once per hook at
        wrap time, so the per-dispatch cost is two clock reads and one
        bisect. Without telemetry the dispatcher passes through untouched —
        the disabled path adds nothing. A faulting dispatch still records
        its latency: the engine's ``try`` around a site-bound dispatcher
        sits *outside* this, and the event-time dispatcher (whose timing
        includes its bind) contains inside it.
        """
        tele = self.telemetry
        if tele is None:
            return inner
        observe = tele.hook_histogram(hook_name).observe
        clock = tele.clock

        def timed(*values) -> None:
            start = clock()
            try:
                inner(*values)
            finally:
                observe(clock() - start)

        return timed

    # -- fault containment ---------------------------------------------------

    def _hook_fault(self, exc: Exception, hook_name: str,
                    location: Location) -> None:
        """Record one contained hook fault and apply the error policy."""
        message = (f"analysis hook {hook_name!r} raised "
                   f"{type(exc).__name__}: {exc} at {location}")
        policy = self.on_analysis_error
        cls = AnalysisAbort if policy == "abort" else AnalysisError
        error = cls(message, hook_name=hook_name, location=location)
        error.__cause__ = exc
        self.hook_faults.append(error)
        tele = self.telemetry
        if tele is not None:
            tele.event("hook_fault", hook=hook_name, func=location.func,
                       instr=location.instr, exception=type(exc).__name__,
                       policy=policy, message=str(exc))
        replay = self.replay
        if replay is not None:
            # record (or verify, when replaying) before the policy applies,
            # so even a propagated fault is in the log
            replay.hook_fault(hook_name, exc, location, policy)
        if policy == "raise" or policy == "abort":
            raise error
        if policy == "quarantine":
            self.quarantine(hook_name)
        if tele is None:
            # without a telemetry event log, containment reports on stderr
            print(f"repro: contained {message}"
                  + (" (hook quarantined)" if policy == "quarantine" else ""),
                  file=sys.stderr)

    def quarantine(self, hook_name: str) -> None:
        """Atomically replace every dispatcher of one hook with the no-op.

        Swaps the host function's ``fn`` (the event-time dispatcher) and
        every bound ``OP_HOOK`` slot recorded in its site registry. Each
        swap is a single reference assignment, so a swap is atomic under
        the GIL and takes effect immediately — the interpreter loop and
        compiled segments both read a site's dispatcher from its slot on
        every event, so even sites reached later in the *current*
        invocation, and later in an already running segment, dispatch to
        the no-op.
        """
        self._quarantined.add(hook_name)
        if self.telemetry is not None:
            self.telemetry.event("hook_quarantined", hook=hook_name)
        if self.replay is not None:
            self.replay.quarantine(hook_name)
        host = self._hosts.get(hook_name)
        if host is None:
            return
        host.fn = _noop_dispatcher
        for home, index in host.site_registry:
            ins = home[index]
            home[index] = (ins[0], _noop_dispatcher, *ins[2:])

    def _original_func_idx(self, instrumented_idx: int) -> int:
        """Map a function index of the instrumented module back to the
        original index space (inverse of the instrumenter's remapping)."""
        if instrumented_idx < self._num_original_imports:
            return instrumented_idx
        return instrumented_idx - self._num_hooks

    # -- the binder table ------------------------------------------------------

    def _binder(self, spec: HookSpec) -> Binder | None:
        """The one definition of what a hook does: ``bind(loc) -> dispatch``.

        ``bind`` resolves everything constant at one location — memarg
        offset, variable index, direct-call target, branch targets,
        br_table entries, begin/end matching — and the value converters;
        the returned ``dispatch`` takes the hook's flat (i64-split) values as
        positional arguments, never the location parameters. ``bind``
        raises when the location has no static info. None means the hook
        is dead: the analysis overrides none of the methods it could reach.
        """
        analysis = self.analysis
        if not any(_overrides(analysis, method)
                   for method in _hook_methods(spec.kind)):
            return None
        kind = spec.kind
        payload = spec.payload
        info = self.info

        raws, presented = _part_extractors(spec.value_types)
        # the hottest dispatchers (pure-i32 and pure-float shapes) are
        # flattened below to avoid even the per-value extractor calls
        all_i32 = all(t is ValType.I32 for t in spec.value_types)
        all_float = all(t not in (ValType.I32, I64) for t in spec.value_types)

        if kind in ("const", "drop"):
            hook = analysis.const_ if kind == "const" else analysis.drop
            if all_i32:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(value) -> None:
                        hook(loc, (value ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(value) -> None:
                        hook(loc, value)
                    return dispatch
            else:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(lo, hi) -> None:
                        hook(loc, ((lo | (hi << 32)) ^ _SIGN64) - _SIGN64)
                    return dispatch
        elif kind == "select":
            hook = analysis.select
            first, second, condition = presented[0], presented[1], raws[2]
            def bind(loc: Location) -> Dispatcher:
                def dispatch(*args) -> None:
                    hook(loc, bool(condition(args)), first(args), second(args))
                return dispatch
        elif kind == "unary":
            hook = analysis.unary
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(inp, res) -> None:
                        hook(loc, op, (inp ^ _SIGN32) - _SIGN32,
                             (res ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(inp, res) -> None:
                        hook(loc, op, inp, res)
                    return dispatch
            else:
                inp, res = presented[0], presented[1]
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(*args) -> None:
                        hook(loc, op, inp(args), res(args))
                    return dispatch
        elif kind == "binary":
            hook = analysis.binary
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(first, second, res) -> None:
                        hook(loc, op, (first ^ _SIGN32) - _SIGN32,
                             (second ^ _SIGN32) - _SIGN32,
                             (res ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(first, second, res) -> None:
                        hook(loc, op, first, second, res)
                    return dispatch
            else:
                first, second, res = presented[0], presented[1], presented[2]
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(*args) -> None:
                        hook(loc, op, first(args), second(args), res(args))
                    return dispatch
        elif kind in ("load", "store"):
            hook = analysis.load if kind == "load" else analysis.store
            op = payload[0]
            valtype = spec.value_types[1]  # (address, value)
            if valtype is ValType.I32:
                def bind(loc: Location) -> Dispatcher:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(addr, value) -> None:
                        hook(loc, op, MemArg(addr, offset),
                             (value ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif valtype is I64:
                def bind(loc: Location) -> Dispatcher:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(addr, lo, hi) -> None:
                        hook(loc, op, MemArg(addr, offset),
                             ((lo | (hi << 32)) ^ _SIGN64) - _SIGN64)
                    return dispatch
            else:
                def bind(loc: Location) -> Dispatcher:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(addr, value) -> None:
                        hook(loc, op, MemArg(addr, offset), value)
                    return dispatch
        elif kind in ("local", "global"):
            hook = analysis.local if kind == "local" else analysis.global_
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Dispatcher:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(value) -> None:
                        hook(loc, op, index, (value ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Dispatcher:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(value) -> None:
                        hook(loc, op, index, value)
                    return dispatch
            else:
                def bind(loc: Location) -> Dispatcher:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(lo, hi) -> None:
                        hook(loc, op, index,
                             ((lo | (hi << 32)) ^ _SIGN64) - _SIGN64)
                    return dispatch
        elif kind == "memory_size":
            hook = analysis.memory_size
            def bind(loc: Location) -> Dispatcher:
                def dispatch(pages) -> None:
                    hook(loc, pages)
                return dispatch
        elif kind == "memory_grow":
            hook = analysis.memory_grow
            def bind(loc: Location) -> Dispatcher:
                def dispatch(delta, previous) -> None:
                    hook(loc, delta, previous)
                return dispatch
        elif kind == "call_pre":
            hook = analysis.call_pre
            if payload[0] == "indirect":
                arg_parts = presented[1:]  # raws[0] is the raw table index
                def bind(loc: Location) -> Dispatcher:
                    def dispatch(*args) -> None:
                        table_index = args[0]
                        call_args = [part(args) for part in arg_parts]
                        target = -1
                        instance = self.instance
                        if instance is not None and instance.table is not None:
                            entry = instance.table.lookup(table_index)
                            if entry is not None:
                                target = self._original_func_idx(entry)
                        hook(loc, target, call_args, table_index)
                    return dispatch
            else:
                arg_parts = presented
                def bind(loc: Location) -> Dispatcher:
                    target = info.call_target(loc.func, loc.instr)
                    def dispatch(*args) -> None:
                        hook(loc, target, [part(args) for part in arg_parts], None)
                    return dispatch
        elif kind in ("call_post", "return"):
            hook = analysis.call_post if kind == "call_post" else analysis.return_
            parts = presented
            def bind(loc: Location) -> Dispatcher:
                def dispatch(*args) -> None:
                    hook(loc, [part(args) for part in parts])
                return dispatch
        elif kind == "br":
            hook = analysis.br
            def bind(loc: Location) -> Dispatcher:
                target = info.br_target(loc.func, loc.instr)
                def dispatch() -> None:
                    hook(loc, target)
                return dispatch
        elif kind == "br_if":
            hook = analysis.br_if
            def bind(loc: Location) -> Dispatcher:
                target = info.br_target(loc.func, loc.instr)
                def dispatch(condition) -> None:
                    hook(loc, target, bool(condition))
                return dispatch
        elif kind == "br_table":
            br_hook = analysis.br_table if _overrides(analysis, "br_table") else None
            end_hook = analysis.end if _overrides(analysis, "end") else None
            def bind(loc: Location) -> Dispatcher:
                table_info = info.br_table_info(loc.func, loc.instr)
                targets, default = table_info.targets, table_info.default
                ended, n_entries = table_info.ended, len(table_info.targets)
                def dispatch(table_index) -> None:
                    if br_hook is not None:
                        br_hook(loc, targets, default, table_index)
                    if end_hook is not None:
                        taken = table_index if table_index < n_entries else -1
                        for event in ended[taken]:
                            end_hook(event.end, event.kind, event.begin)
                return dispatch
        elif kind == "if":
            hook = analysis.if_
            def bind(loc: Location) -> Dispatcher:
                def dispatch(condition) -> None:
                    hook(loc, bool(condition))
                return dispatch
        elif kind == "begin":
            hook = analysis.begin
            block_type = payload[0]
            def bind(loc: Location) -> Dispatcher:
                def dispatch() -> None:
                    hook(loc, block_type)
                return dispatch
        elif kind == "end":
            hook = analysis.end
            block_type = payload[0]
            def bind(loc: Location) -> Dispatcher:
                begin = info.begin_location(loc.func, loc.instr, block_type)
                def dispatch() -> None:
                    hook(loc, block_type, begin)
                return dispatch
        elif kind in ("nop", "unreachable"):
            hook = analysis.nop if kind == "nop" else analysis.unreachable
            def bind(loc: Location) -> Dispatcher:
                def dispatch() -> None:
                    hook(loc)
                return dispatch
        else:  # pragma: no cover - registry only produces known kinds
            raise ValueError(f"unknown hook kind {kind!r}")
        return bind

    # -- the two binding times ---------------------------------------------------

    def _site_factory(self, hook_name: str,
                      bind: Binder | None) -> SiteFactory:
        """Site-bound dispatch: the factory the pre-decoding engine calls.

        The engine invokes it once per fused ``const/const/call`` hook site
        with the two raw location constants, and calls ``bind(location)``
        (timed) at that site from then on, inside a ``try`` that hands
        faults to :meth:`_site_fault`. A factory raising (a site with no
        static info) makes the engine fall back to the host function, which
        binds at event time and so faults inside containment there, exactly
        like the legacy engine. Every site of a dead (``bind`` None) or
        quarantined hook binds the shared no-op.
        """
        def factory(func_const: int, instr_const: int) -> Dispatcher:
            if bind is None or hook_name in self._quarantined:
                return _noop_dispatcher
            return self._timed(bind(_site_location(func_const, instr_const)),
                               hook_name)
        return factory

    def _site_fault(self, hook_name: str) -> SiteFault:
        """``fault(exc, func_const, instr_const)``: containment for the
        site-bound dispatchers of one hook."""
        def fault(exc: Exception, func_const: int, instr_const: int) -> None:
            self._hook_fault(exc, hook_name,
                             _site_location(func_const, instr_const))
        return fault

    def _event_time(self, spec: HookSpec, bind: Binder) -> Callable[[list], None]:
        """Event-time dispatch: the host function's own ``fn``.

        Reads the :class:`Location` from the trailing location parameters
        of the argument list (``Location(-1, -1)`` for modules instrumented
        without them) and calls ``bind(location)`` with the hook's values on
        every event. Binding runs inside containment, so a location without
        static info faults like any other analysis error. Binds are
        deliberately not memoized: this path is the oracle for the
        site-bound one.
        """
        hook_name = spec.name
        with_locations = self._with_locations
        n_values = len(split_i64(spec.value_types))

        def dispatch(args: list) -> None:
            location = (_site_location(args[-2], args[-1])
                        if with_locations else _NO_LOCATION)
            try:
                bind(location)(*args[:n_values])
            except AnalysisError:
                raise
            except Exception as exc:
                self._hook_fault(exc, hook_name, location)
        return dispatch
