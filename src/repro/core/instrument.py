"""The Wasabi binary instrumenter (paper §2.4).

Walks every function body and interleaves the original instructions with
calls to generated low-level hooks (imported functions), implementing the
schemes of the paper's Table 3:

* constants are duplicated and passed to the hook (row 1);
* general instructions save their inputs/results in *fresh locals* (row 2);
* calls get a pre and a post hook around them (row 3);
* polymorphic ``drop``/``select`` are resolved against the abstract operand
  stack and call a *monomorphized* hook (row 4, §2.4.3);
* blocks get begin/end hooks, and branches/returns additionally call the
  end hooks of all traversed blocks (row 5, §2.4.5), with branch targets
  statically resolved via the abstract control stack (§2.4.4);
* i64 values are split into two i32 halves before crossing the host
  boundary (row 6, §2.4.6).

Selective instrumentation (§2.4.2): only instruction groups in the
configured set are instrumented, which bounds both code-size and runtime
overhead to what the analysis actually observes.

The schemes are precomputed: one read-only :class:`_Template` per
(opcode, hook kind, type shape) holds the instructions Table 3 inserts,
with the fresh locals, location constants and hook calls left open. Per
instruction, instrumenting is a template lookup, filling in those holes,
and one ``extend`` of the output body.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import itemgetter
from threading import Lock
from types import MappingProxyType
from typing import Callable

from ..wasm import opcodes
from ..wasm.errors import WasmError
from ..wasm.module import Export, Function, Import, IndexSpaces, Instr, Module
from ..wasm.types import F32, F64, I32, I64, FuncType, ValType
from ..wasm.validation import ExprValidator, _Unknown
from .analysis import ALL_GROUPS, Location
from .control import ControlFrame, ControlStack
from .hooks import HOOK_MODULE, HookRegistry
from .metadata import BrTableInfo, EndEvent, ModuleInfo, StaticInfo

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class InstrumentationConfig:
    """Tuning knobs of the instrumenter.

    ``groups`` selects which hook groups to instrument (selective
    instrumentation); ``emit_locations`` can be disabled for the location
    ablation benchmark; ``parallel_workers > 1`` instruments functions on a
    thread pool, sharing the hook registry behind a lock (mirroring the
    Rust implementation's parallelization, §3 — note CPython's GIL limits
    the achievable speedup).
    """

    groups: frozenset[str] = ALL_GROUPS
    emit_locations: bool = True
    parallel_workers: int = 1


@dataclass
class InstrumentationResult:
    """The instrumented module plus everything the runtime needs."""

    module: Module
    info: StaticInfo

    @property
    def hook_count(self) -> int:
        return len(self.info.hooks)


# -- shared instructions -----------------------------------------------------------

#: Immediates in ``[0, _SHARED_LIMIT)`` get one shared instruction per
#: process, so a :class:`_Shared` cache holds at most that many entries.
_SHARED_LIMIT = 1 << 12


class _Shared(dict):
    """``cache[n]`` is ``Instr(op, <field>=n)``, built once per process for
    immediates within :data:`_SHARED_LIMIT` and afresh for the rest."""

    def __init__(self, op: str, field: str):
        super().__init__()
        self.op = op
        self.field = field

    def __missing__(self, n: int) -> Instr:
        instr = Instr(self.op, **{self.field: n})
        if 0 <= n < _SHARED_LIMIT:
            self[n] = instr
        return instr


_I32_CONST = _Shared("i32.const", "value")
_GET_GLOBAL = _Shared("get_global", "idx")
_LOCAL_OPS = {op: _Shared(op, "idx")
              for op in ("get_local", "set_local", "tee_local")}
_GET_LOCAL, _SET_LOCAL = _LOCAL_OPS["get_local"], _LOCAL_OPS["set_local"]
_IF = Instr("if")
_END = Instr("end")


# -- templates (paper Table 3) ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Template:
    """The instructions Table 3 inserts for one kind of instruction.

    A site fills in the holes through a list of values: the instrumented
    instruction, the function and instruction location constants, one
    call per hook, the site's ``extras`` (e.g. ``get_local x``
    for a ``local`` hook), the local-variable instructions on the fresh
    locals, then the fixed instructions. ``picks[emit_locations]`` selects
    the output from that list, in order.
    """

    #: Fresh local types per allocation phase: a phase takes its locals
    #: from the free pool in order and returns them in the same order
    #: before the next phase starts (a call's post hook reuses the locals
    #: of its pre hook).
    phases: tuple[tuple[ValType, ...], ...]
    #: ``(kind, payload, value_types)`` of each hook, in creation order.
    hooks: tuple[tuple[str, tuple, tuple[ValType, ...]], ...]
    #: ``(cache, slot)``: the local instruction on the slot-th fresh local.
    locals: tuple[tuple[_Shared, int], ...]
    fixed: tuple[Instr, ...]
    picks: tuple[Callable[[list], tuple[Instr, ...]], ...]
    #: Per ``emit_locations``: where the instrumented instruction lands
    #: in the template's output (-1 if nowhere).
    orig_at: tuple[int, ...]


def _picker(positions: list[int]) -> Callable[[list], tuple[Instr, ...]]:
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda values: (values[only],)
    return lambda values: ()


class _Recorder:
    """Builds a :class:`_Template` by running Table 3's emission steps on
    symbolic fresh locals (numbered slots)."""

    def __init__(self):
        self.phases: list[list[ValType]] = [[]]
        self.n_temps = 0
        self.items: list[tuple] = []
        self.hooks: list[tuple] = []

    def temp(self, valtype: ValType) -> int:
        self.phases[-1].append(valtype)
        self.n_temps += 1
        return self.n_temps - 1

    def release(self) -> None:
        """Return every fresh local allocated so far to the pool."""
        self.phases.append([])

    def orig(self) -> None:
        self.items.append(("orig",))

    def extra(self, n: int) -> tuple:
        return ("extra", n)

    def get(self, slot: int) -> tuple:
        return ("local", "get_local", slot)

    def local(self, op: str, slot: int) -> None:
        self.items.append(("local", op, slot))

    def fixed(self, op: str, **imm) -> None:
        self.items.append(("fixed", Instr(op, **imm)))

    def call_hook(self, kind: str, payload: tuple,
                  value_types: tuple[ValType, ...]) -> None:
        """The location constants and the hook call."""
        self.hooks.append((kind, payload, value_types))
        self.items.append(("loc",))
        self.items.append(("call", len(self.hooks) - 1))

    def push_value(self, get: tuple, valtype: ValType) -> None:
        """Push a saved value as hook argument(s), splitting i64 (row 6)."""
        if valtype is I64:
            self.items.append(get)
            self.fixed("i32.wrap/i64")
            self.items.append(get)
            self.fixed("i64.const", value=32)
            self.fixed("i64.shr_u")
            self.fixed("i32.wrap/i64")
        else:
            self.items.append(get)

    def save_to_temps(self, types: tuple[ValType, ...]) -> list[int]:
        """Pop the top ``len(types)`` stack values into fresh locals.

        ``types`` is given in stack order (bottom first); the returned
        slots are aligned with it.
        """
        temps = [self.temp(t) for t in types]
        for slot in reversed(temps):
            self.local("set_local", slot)
        return temps

    def restore_from_temps(self, temps: list[int]) -> None:
        for slot in temps:
            self.local("get_local", slot)

    def push_args(self, temps: list[int], types: tuple[ValType, ...]) -> None:
        for slot, valtype in zip(temps, types):
            self.push_value(self.get(slot), valtype)

    def build(self) -> _Template:
        local_keys = list(dict.fromkeys(
            item[1:] for item in self.items if item[0] == "local"))
        n_extras = max((item[1] + 1 for item in self.items
                        if item[0] == "extra"), default=0)
        fixed = [item[1] for item in self.items if item[0] == "fixed"]
        extra_base = 3 + len(self.hooks)
        local_base = extra_base + n_extras
        fixed_base = local_base + len(local_keys)
        picks, orig_at = [], []
        for with_locations in (False, True):
            positions: list[int] = []
            n_fixed = 0
            for item in self.items:
                kind = item[0]
                if kind == "orig":
                    positions.append(0)
                elif kind == "loc":
                    if with_locations:
                        positions += (1, 2)
                elif kind == "call":
                    positions.append(3 + item[1])
                elif kind == "extra":
                    positions.append(extra_base + item[1])
                elif kind == "local":
                    positions.append(local_base + local_keys.index(item[1:]))
                else:
                    positions.append(fixed_base + n_fixed)
                    n_fixed += 1
            picks.append(_picker(positions))
            orig_at.append(positions.index(0) if 0 in positions else -1)
        return _Template(
            phases=tuple(tuple(phase) for phase in self.phases if phase),
            hooks=tuple(self.hooks),
            locals=tuple((_LOCAL_OPS[op], slot) for op, slot in local_keys),
            fixed=tuple(fixed), picks=tuple(picks), orig_at=tuple(orig_at))


def _numeric_template(op: str, group: str) -> _Template:
    params, results = opcodes.BY_NAME[op].signature
    r = _Recorder()
    temps = r.save_to_temps(params)
    r.restore_from_temps(temps)
    r.orig()
    result_temp = r.temp(results[0])
    r.local("tee_local", result_temp)
    r.push_args(temps, params)
    r.push_value(r.get(result_temp), results[0])
    r.call_hook(group, (op,), params + results)
    return r.build()


def _load_template(op: str) -> _Template:
    valtype = opcodes.BY_NAME[op].signature[1][0]
    r = _Recorder()
    addr = r.temp(I32)
    r.local("tee_local", addr)
    r.orig()
    result_temp = r.temp(valtype)
    r.local("tee_local", result_temp)
    r.push_value(r.get(addr), I32)
    r.push_value(r.get(result_temp), valtype)
    r.call_hook("load", (op,), (I32, valtype))
    return r.build()


def _store_template(op: str) -> _Template:
    types = opcodes.BY_NAME[op].signature[0]  # (addr, value)
    r = _Recorder()
    temps = r.save_to_temps(types)
    r.restore_from_temps(temps)
    r.orig()
    r.push_args(temps, types)
    r.call_hook("store", (op,), types)
    return r.build()


def _memory_size_template() -> _Template:
    r = _Recorder()
    r.orig()
    result_temp = r.temp(I32)
    r.local("tee_local", result_temp)
    r.push_value(r.get(result_temp), I32)
    r.call_hook("memory_size", (), (I32,))
    return r.build()


def _memory_grow_template() -> _Template:
    r = _Recorder()
    delta = r.temp(I32)
    r.local("tee_local", delta)
    r.orig()
    result_temp = r.temp(I32)
    r.local("tee_local", result_temp)
    r.push_value(r.get(delta), I32)
    r.push_value(r.get(result_temp), I32)
    r.call_hook("memory_grow", (), (I32, I32))
    return r.build()


def _const_template(valtype: ValType) -> _Template:
    """Constants are duplicated (rows 1 and 6): an i64 as its two i32
    halves, which the site passes as extras."""
    r = _Recorder()
    r.orig()
    if valtype is I64:
        r.items += (r.extra(0), r.extra(1))
    else:
        r.orig()
    r.call_hook("const", (valtype,), (valtype,))
    return r.build()


def _hook_only_template(kind: str, payload: tuple = (),
                        value_types: tuple[ValType, ...] = (),
                        orig: str = "") -> _Template:
    """Just a hook call, with the instruction itself ``before`` or
    ``after`` it, or not at all."""
    r = _Recorder()
    if orig == "before":
        r.orig()
    r.call_hook(kind, payload, value_types)
    if orig == "after":
        r.orig()
    return r.build()


def _drop_template(valtype: ValType) -> _Template:
    """The dropped value is the hook's argument; ``drop`` itself goes."""
    r = _Recorder()
    if valtype is I64:
        saved = r.temp(I64)
        r.local("set_local", saved)
        r.push_value(r.get(saved), I64)
    r.call_hook("drop", (valtype,), (valtype,))
    return r.build()


def _select_template(valtype: ValType) -> _Template:
    types = (valtype, valtype, I32)
    r = _Recorder()
    temps = r.save_to_temps(types)
    r.restore_from_temps(temps)
    r.orig()
    r.push_args(temps, types)
    r.call_hook("select", (valtype,), types)
    return r.build()


def _local_template(op: str, valtype: ValType) -> _Template:
    """The site passes ``get_local x`` of its own index as extra 0."""
    r = _Recorder()
    r.orig()
    r.push_value(r.extra(0), valtype)
    r.call_hook("local", (op, valtype), (valtype,))
    return r.build()


def _global_template(op: str, valtype: ValType) -> _Template:
    """The site passes ``get_global x`` of its own index as extra 0."""
    r = _Recorder()
    r.orig()
    if valtype is I64:
        saved = r.temp(I64)
        r.items.append(r.extra(0))
        r.local("set_local", saved)
        r.push_value(r.get(saved), I64)
    else:
        r.items.append(r.extra(0))
    r.call_hook("global", (op, valtype), (valtype,))
    return r.build()


def _save_condition_template(kind: str) -> _Template:
    """``if`` and ``br_table``: save the i32 on top, pass it to the hook,
    push it back, then the instruction."""
    r = _Recorder()
    cond = r.temp(I32)
    r.local("set_local", cond)
    r.local("get_local", cond)
    r.call_hook(kind, (), (I32,))
    r.local("get_local", cond)
    r.orig()
    return r.build()


def _return_template(results: tuple[ValType, ...]) -> _Template:
    r = _Recorder()
    temps = r.save_to_temps(results)
    r.push_args(temps, results)
    r.call_hook("return", tuple(results), results)
    r.restore_from_temps(temps)
    return r.build()


def _call_template(functype: FuncType, indirect: bool) -> _Template:
    """Pre hook, the call, post hook (row 3). An indirect call's table
    index is the pre hook's first argument."""
    params, results = functype.params, functype.results
    r = _Recorder()
    if indirect:
        types = params + (I32,)  # table index on top
        temps = r.save_to_temps(types)
        r.push_value(r.get(temps[-1]), I32)
        r.push_args(temps[:-1], params)
        r.call_hook("call_pre", ("indirect",) + tuple(params), (I32,) + params)
    else:
        temps = r.save_to_temps(params)
        r.push_args(temps, params)
        r.call_hook("call_pre", ("direct",) + tuple(params), params)
    r.restore_from_temps(temps)
    r.release()
    r.orig()
    result_temps = r.save_to_temps(results)
    r.push_args(result_temps, results)
    r.call_hook("call_post", tuple(results), results)
    r.restore_from_temps(result_temps)
    return r.build()


_VALTYPES = (I32, I64, F32, F64)
_BLOCK_KINDS = ("function", "block", "loop", "if", "else")


def _by_op_templates() -> dict[str, _Template]:
    """Templates of the instructions whose scheme depends only on the opcode."""
    templates = {
        "memory.size": _memory_size_template(),
        "memory.grow": _memory_grow_template(),
        "nop": _hook_only_template("nop", orig="before"),
        "unreachable": _hook_only_template("unreachable", orig="after"),
    }
    # numeric ops of one signature differ only in their hook: record once
    numeric: dict[tuple, _Template] = {}
    for op in opcodes.BY_NAME.values():
        group = op.group.value if op.group is not None else None
        if group in ("unary", "binary"):
            shape = numeric.get((group, op.signature))
            if shape is None:
                shape = numeric[group, op.signature] = \
                    _numeric_template(op.mnemonic, group)
            templates[op.mnemonic] = replace(shape, hooks=(
                (group, (op.mnemonic,), sum(op.signature, ())),))
        elif group == "load":
            templates[op.mnemonic] = _load_template(op.mnemonic)
        elif group == "store":
            templates[op.mnemonic] = _store_template(op.mnemonic)
        elif group == "const":
            templates[op.mnemonic] = _const_template(op.signature[1][0])
    return templates


_BY_OP = MappingProxyType(_by_op_templates())
_DROP = MappingProxyType({t: _drop_template(t) for t in _VALTYPES})
_SELECT = MappingProxyType({t: _select_template(t) for t in _VALTYPES})
_LOCAL = MappingProxyType({(op, t): _local_template(op, t)
                           for op in _LOCAL_OPS for t in _VALTYPES})
_GLOBAL = MappingProxyType({(op, t): _global_template(op, t)
                            for op in ("get_global", "set_global")
                            for t in _VALTYPES})
_BEGIN = MappingProxyType({kind: _hook_only_template("begin", (kind,))
                           for kind in _BLOCK_KINDS})
_END_HOOK = MappingProxyType({kind: _hook_only_template("end", (kind,))
                              for kind in _BLOCK_KINDS})
_IF_HOOK = _save_condition_template("if")
_BR_TABLE_HOOK = _save_condition_template("br_table")
_BR_HOOK = _hook_only_template("br")
_BR_IF_HOOK = _hook_only_template("br_if", (), (I32,))


class _Run:
    """What one :func:`instrument_module` call shares across functions.

    Read-only while functions are instrumented, except the hook registry
    (behind ``lock`` when functions run on threads) and three caches
    filled on first use: the templates of calls and returns, which depend
    on the module's function types, and ``calls``, the hook calls bound
    per template. Racing threads store equal values.
    """

    def __init__(self, module: Module, spaces: IndexSpaces,
                 registry: HookRegistry, static: StaticInfo,
                 config: InstrumentationConfig, lock: Lock | None):
        self.module = module
        self.spaces = spaces
        self.registry = registry
        self.static = static
        self.lock = lock
        self.with_locations = config.emit_locations
        self.calls: dict[_Template, tuple[Instr, ...]] = {}
        groups = config.groups
        self.begin = "begin" in groups
        self.end = "end" in groups
        self.if_ = "if" in groups
        self.br = "br" in groups
        self.br_if = "br_if" in groups
        self.return_ = "return" in groups
        self.call = "call" in groups
        #: The template or handler of each opcode whose reachable
        #: instructions are instrumented; the rest are copied.
        self.live: dict[str, object] = {
            op: action for op, (enabling, action) in _LIVE_ACTIONS.items()
            if not groups.isdisjoint(enabling)}
        self.call_templates: dict[tuple[FuncType, bool], _Template] = {}
        self.return_templates: dict[tuple[ValType, ...], _Template] = {}

    def call_template(self, functype: FuncType, indirect: bool) -> _Template:
        """The template of a call of ``functype``, built on first use (racing
        threads build equal templates)."""
        template = self.call_templates.get((functype, indirect))
        if template is None:
            template = self.call_templates[functype, indirect] = \
                _call_template(functype, indirect)
        return template

    def return_template(self, results: tuple[ValType, ...]) -> _Template:
        """The return hook of functions returning ``results``, built on
        first use (racing threads build equal templates)."""
        template = self.return_templates.get(results)
        if template is None:
            template = self.return_templates[results] = \
                _return_template(results)
        return template

    def hook_calls(self, template: _Template) -> tuple[Instr, ...]:
        """The calls of ``template``'s hooks, bound on first use.

        Hook imports follow the module's own function imports, so a hook's
        function index is final as soon as the registry numbers it.
        """
        if self.lock is not None:
            with self.lock:
                specs = [self.registry.get_or_create(*hook)
                         for hook in template.hooks]
        else:
            specs = [self.registry.get_or_create(*hook)
                     for hook in template.hooks]
        n_imported = self.spaces.num_imported_functions
        calls = self.calls[template] = tuple(
            Instr("call", idx=n_imported + spec.index) for spec in specs)
        return calls


class _FuncInstrumenter:
    """Instruments a single function body."""

    def __init__(self, run: _Run, func: Function, func_idx: int):
        self.run = run
        self.func = func
        self.func_idx = func_idx
        self.static = run.static
        functype = run.module.types[func.type_idx]
        self.functype = functype
        self.typer = ExprValidator(run.module, func, functype.results,
                                   list(functype.params) + list(func.locals),
                                   func_idx=func_idx, spaces=run.spaces)
        self.ctrl = ControlStack(func_idx, func.body)
        self.out: list[Instr] = []
        self.new_locals: list[ValType] = []
        self._local_base = len(functype.params) + len(func.locals)
        self._free_temps: dict[ValType, list[int]] = {}
        self.fconst = _I32_CONST[func_idx]
        #: Positions in ``out`` of the body's own calls, whose function
        #: indices shift once the number of hooks is known.
        self.call_sites: list[int] = []

    # -- fresh locals (paper Table 3, row 2) ----------------------------------

    def temp(self, valtype: ValType) -> int:
        pool = self._free_temps.setdefault(valtype, [])
        if pool:
            return pool.pop()
        self.new_locals.append(valtype)
        return self._local_base + len(self.new_locals) - 1

    def apply(self, template: _Template, instr: Instr | None, loc_idx: int,
              extras: tuple[Instr, ...] = ()) -> None:
        """Emit ``template`` for ``instr`` at location ``loc_idx``."""
        locs: list[int] = []
        free = self._free_temps
        for phase in template.phases:
            start = len(locs)
            for valtype in phase:
                locs.append(self.temp(valtype))
            for local_idx, valtype in zip(locs[start:], phase):
                free[valtype].append(local_idx)
        run = self.run
        calls = run.calls.get(template) or run.hook_calls(template)
        values = [instr, self.fconst, _I32_CONST[loc_idx], *calls, *extras]
        if template.locals:
            values += [cache[locs[slot]] for cache, slot in template.locals]
        values += template.fixed
        self.out += template.picks[run.with_locations](values)

    # -- end hooks (paper §2.4.5) ----------------------------------------------

    def end_hook(self, kind: str, begin_idx: int, end_idx: int) -> None:
        self.static.begin_of_end[(self.func_idx, end_idx, kind)] = \
            Location(self.func_idx, begin_idx)
        self.apply(_END_HOOK[kind], None, end_idx)

    def end_events(self, frames: list[ControlFrame]) -> tuple[EndEvent, ...]:
        return tuple(
            EndEvent(frame.kind, Location(self.func_idx, frame.begin),
                     Location(self.func_idx, frame.end))
            for frame in frames)

    # -- the main walk ------------------------------------------------------------

    def instrument(self) -> tuple[Function, list[int]]:
        """The instrumented function and its :attr:`call_sites`."""
        body = self.func.body
        if not body or body[-1].op != "end":
            raise WasmError("function body must end with end")
        if self.run.begin:
            self.apply(_BEGIN["function"], None, -1)

        control, live = _CONTROL_ACTIONS, self.run.live
        append = self.out.append
        step = self.typer.step
        frames = self.typer.ctrls
        for idx, instr in enumerate(body):
            op = instr.op
            handler = control.get(op)
            if handler is not None:
                # control structure is tracked even through dead code
                handler(self, idx, instr)
            else:
                action = live.get(op)
                if action is None or frames[-1].unreachable:
                    append(instr)
                elif action.__class__ is _Template:
                    self.apply(action, instr, idx)
                else:
                    action(self, idx, instr)
            step(instr)
        self.typer.finish()

        return Function(type_idx=self.func.type_idx,
                        locals=list(self.func.locals) + self.new_locals,
                        body=self.out, name=self.func.name), self.call_sites

    # control: called for dead code too ------------------------------------------

    def _block(self, idx: int, instr: Instr) -> None:
        dead = self.typer.unreachable_now
        self.out.append(instr)
        self.ctrl.enter(instr.op, idx)
        if not dead and self.run.begin:
            self.apply(_BEGIN[instr.op], instr, idx)

    def _if(self, idx: int, instr: Instr) -> None:
        dead = self.typer.unreachable_now
        if not dead and self.run.if_:
            self.apply(_IF_HOOK, instr, idx)
        else:
            self.out.append(instr)
        self.ctrl.enter("if", idx)
        if not dead and self.run.begin:
            self.apply(_BEGIN["if"], instr, idx)

    def _else(self, idx: int, instr: Instr) -> None:
        dead = self.typer.unreachable_now
        if_frame, _else_frame = self.ctrl.enter_else(idx)
        if not dead and self.run.end:
            self.end_hook("if", if_frame.begin, idx)
        self.out.append(instr)
        if self.run.begin:
            self.apply(_BEGIN["else"], instr, idx)

    def _end(self, idx: int, instr: Instr) -> None:
        dead = self.typer.unreachable_now
        frame = self.ctrl.exit()
        if not dead:
            if frame.kind == "function" and self.run.return_:
                self.apply(self.run.return_template(self.functype.results),
                           instr, idx)
            if self.run.end:
                self.end_hook(frame.kind, frame.begin, frame.end)
        self.out.append(instr)

    # branches and returns: reachable code only --------------------------------

    def _br(self, idx: int, instr: Instr) -> None:
        if self.run.br:
            self.static.br_targets[(self.func_idx, idx)] = \
                self.ctrl.resolve_label(instr.label)
            self.apply(_BR_HOOK, instr, idx)
        if self.run.end:
            for frame in self.ctrl.traversed_frames(instr.label):
                self.end_hook(frame.kind, frame.begin, frame.end)
        self.out.append(instr)

    def _br_if(self, idx: int, instr: Instr) -> None:
        need_hook = self.run.br_if
        need_ends = self.run.end and self.ctrl.traversed_frames(instr.label)
        out = self.out
        if not need_hook and not need_ends:
            out.append(instr)
            return
        cond = self.temp(I32)
        out.append(_SET_LOCAL[cond])
        if need_hook:
            self.static.br_targets[(self.func_idx, idx)] = \
                self.ctrl.resolve_label(instr.label)
            out.append(_GET_LOCAL[cond])
            self.apply(_BR_IF_HOOK, instr, idx)
        if need_ends:
            # end hooks fire only if the branch is taken (§2.4.5)
            out += (_GET_LOCAL[cond], _IF)
            for frame in self.ctrl.traversed_frames(instr.label):
                self.end_hook(frame.kind, frame.begin, frame.end)
            out.append(_END)
        out += (_GET_LOCAL[cond], instr)
        self._free_temps[I32].append(cond)

    def _br_table(self, idx: int, instr: Instr) -> None:
        table = instr.br_table
        targets = tuple(self.ctrl.resolve_label(lbl) for lbl in table.labels)
        default = self.ctrl.resolve_label(table.default)
        labels = (*table.labels, table.default)
        # the frames a branch to each label leaves are a prefix of those
        # the deepest label leaves
        events = self.end_events(self.ctrl.traversed_frames(max(labels)))
        ended = tuple(events[:lbl + 1] for lbl in labels)
        if self.run.end:
            for event in events:
                self.static.begin_of_end[
                    (self.func_idx, event.end.instr, event.kind)] = event.begin
        self.static.br_tables[(self.func_idx, idx)] = \
            BrTableInfo(targets, default, ended)
        self.apply(_BR_TABLE_HOOK, instr, idx)

    def _return(self, idx: int, instr: Instr) -> None:
        if self.run.return_:
            self.apply(self.run.return_template(self.functype.results),
                       instr, idx)
        if self.run.end:
            for frame in self.ctrl.all_frames_for_return():
                self.end_hook(frame.kind, frame.begin, frame.end)
        self.out.append(instr)

    # hooks whose template depends on more than the opcode ---------------------

    def _memory_access(self, idx: int, instr: Instr) -> None:
        self.static.memarg_offsets[(self.func_idx, idx)] = instr.memarg.offset
        self.apply(_BY_OP[instr.op], instr, idx)

    def _i64_const(self, idx: int, instr: Instr) -> None:
        unsigned = int(instr.value) & MASK64
        self.apply(_BY_OP["i64.const"], instr, idx,
                   (_I32_CONST[unsigned & MASK32], _I32_CONST[unsigned >> 32]))

    def _drop(self, idx: int, instr: Instr) -> None:
        valtype = self.typer.peek(0)
        if isinstance(valtype, _Unknown):
            self.out.append(instr)
        else:
            self.apply(_DROP[valtype], instr, idx)

    def _select(self, idx: int, instr: Instr) -> None:
        first_t = self.typer.peek(2)
        second_t = self.typer.peek(1)
        valtype = second_t if isinstance(first_t, _Unknown) else first_t
        if isinstance(valtype, _Unknown):
            self.out.append(instr)
        else:
            self.apply(_SELECT[valtype], instr, idx)

    def _local(self, idx: int, instr: Instr) -> None:
        valtype = self.typer.local_type(instr.idx)
        self.static.var_indices[(self.func_idx, idx)] = instr.idx
        self.apply(_LOCAL[instr.op, valtype], instr, idx,
                   (_GET_LOCAL[instr.idx],))

    def _global(self, idx: int, instr: Instr) -> None:
        valtype = self.run.spaces.global_type(instr.idx).valtype
        self.static.var_indices[(self.func_idx, idx)] = instr.idx
        self.apply(_GLOBAL[instr.op, valtype], instr, idx,
                   (_GET_GLOBAL[instr.idx],))

    def _call(self, idx: int, instr: Instr) -> None:
        if self.typer.unreachable_now or not self.run.call:
            self.call_sites.append(len(self.out))
            self.out.append(instr)
            return
        callee_type = self.run.spaces.func_type(instr.idx)
        self.static.call_targets[(self.func_idx, idx)] = instr.idx
        template = self.run.call_template(callee_type, False)
        self.call_sites.append(
            len(self.out) + template.orig_at[self.run.with_locations])
        self.apply(template, instr, idx)

    def _call_indirect(self, idx: int, instr: Instr) -> None:
        functype = self.run.module.types[instr.idx]
        self.apply(self.run.call_template(functype, True), instr, idx)


#: Handlers called for dead code too: the instructions that shape the
#: control stack, and calls, whose positions the index shift needs.
_CONTROL_ACTIONS = MappingProxyType({
    "block": _FuncInstrumenter._block, "loop": _FuncInstrumenter._block,
    "if": _FuncInstrumenter._if, "else": _FuncInstrumenter._else,
    "end": _FuncInstrumenter._end, "call": _FuncInstrumenter._call,
})
#: Handlers of reachable instructions whose scheme is not one template.
_HANDLERS = {
    "br": _FuncInstrumenter._br, "br_if": _FuncInstrumenter._br_if,
    "br_table": _FuncInstrumenter._br_table,
    "return": _FuncInstrumenter._return,
    "call_indirect": _FuncInstrumenter._call_indirect,
    "drop": _FuncInstrumenter._drop, "select": _FuncInstrumenter._select,
    "i64.const": _FuncInstrumenter._i64_const,
    **{op: _FuncInstrumenter._local for op in _LOCAL_OPS},
    **{op: _FuncInstrumenter._global for op in ("get_global", "set_global")},
    **{op.mnemonic: _FuncInstrumenter._memory_access
       for op in opcodes.BY_NAME.values()
       if op.group in (opcodes.HookGroup.LOAD, opcodes.HookGroup.STORE)},
}
#: Per opcode outside the control actions: the hook groups that instrument
#: its reachable instructions (branches and returns also fire end hooks),
#: and its handler or template.
_LIVE_ACTIONS = MappingProxyType({
    op.mnemonic: ((op.group.value, "end")
                  if op.mnemonic in ("br", "br_if", "br_table", "return")
                  else (op.group.value,),
                  _HANDLERS.get(op.mnemonic) or _BY_OP[op.mnemonic])
    for op in opcodes.BY_NAME.values()
    if op.group is not None and op.mnemonic not in _CONTROL_ACTIONS
})


def instrument_module(module: Module,
                      groups: frozenset[str] | set[str] | None = None,
                      config: InstrumentationConfig | None = None
                      ) -> InstrumentationResult:
    """Instrument ``module`` for the given hook groups.

    Returns a *new* module (the input is not mutated) plus the static info
    the runtime needs. With ``groups=None`` all hook groups are
    instrumented (full instrumentation).
    """
    if config is None:
        config = InstrumentationConfig(
            groups=frozenset(groups) if groups is not None else ALL_GROUPS)
    elif groups is not None:
        config = replace(config, groups=frozenset(groups))
    unknown = config.groups - ALL_GROUPS
    if unknown:
        raise WasmError(f"unknown hook groups: {sorted(unknown)}")

    registry = HookRegistry(with_locations=config.emit_locations)
    spaces = module.index_spaces()
    static = StaticInfo(module_info=ModuleInfo.from_module(module, spaces))
    n_imported = spaces.num_imported_functions

    lock = Lock() if config.parallel_workers > 1 else None
    run = _Run(module, spaces, registry, static, config, lock)

    def work(item: tuple[int, Function]) -> tuple[Function, list[int]]:
        pos, func = item
        return _FuncInstrumenter(run, func, n_imported + pos).instrument()

    if lock is not None:
        with ThreadPoolExecutor(max_workers=config.parallel_workers) as pool:
            new_functions = list(pool.map(work, enumerate(module.functions)))
    else:
        new_functions = list(map(work, enumerate(module.functions)))

    hook_specs = registry.hooks
    static.hooks = hook_specs
    num_hooks = len(hook_specs)

    def remap(func_idx: int) -> int:
        if func_idx < n_imported:
            return func_idx
        return func_idx + num_hooks

    instrumented = Module(name=module.name)
    instrumented.types = list(module.types)
    instrumented.imports = list(module.imports)
    # the first index of each type, as Module.add_type finds it, without
    # its linear scan per hook
    type_idxs: dict[FuncType, int] = {}
    for type_idx, functype in enumerate(instrumented.types):
        type_idxs.setdefault(functype, type_idx)
    for spec in hook_specs:
        functype = spec.functype
        type_idx = type_idxs.get(functype)
        if type_idx is None:
            instrumented.types.append(functype)
            type_idx = type_idxs[functype] = len(instrumented.types) - 1
        # insert hook imports after the existing function imports so the
        # original imports keep their indices
        instrumented.imports.append(Import(HOOK_MODULE, spec.name, type_idx))
    remapped_calls: dict[int, Instr] = {}
    for func, call_sites in new_functions:
        body = func.body
        for pos in call_sites:
            callee = body[pos].idx
            new = remapped_calls.get(callee)
            if new is None:
                new = remapped_calls[callee] = Instr("call", idx=remap(callee))
            body[pos] = new
        # type indices are stable: instrumented.types extends module.types
        instrumented.functions.append(func)
    instrumented.tables = list(module.tables)
    instrumented.memories = list(module.memories)
    instrumented.globals = [replace_global(g) for g in module.globals]
    instrumented.exports = [
        Export(e.name, e.kind, remap(e.idx) if e.kind == "func" else e.idx)
        for e in module.exports
    ]
    if module.start is not None:
        instrumented.start = remap(module.start)
    for segment in module.elements:
        instrumented.elements.append(type(segment)(
            offset=list(segment.offset),
            func_idxs=[remap(i) for i in segment.func_idxs]))
    for segment in module.data:
        instrumented.data.append(type(segment)(offset=list(segment.offset),
                                               data=segment.data))
    instrumented.custom_sections = list(module.custom_sections)

    return InstrumentationResult(module=instrumented, info=static)


def replace_global(glob):
    """Shallow-copy a global (init expressions are immutable instrs)."""
    from ..wasm.module import Global
    return Global(type=glob.type, init=list(glob.init))
