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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from threading import Lock

from ..wasm.errors import WasmError
from ..wasm.module import Export, Function, Import, IndexSpaces, Instr, Module
from ..wasm.types import I32, I64, FuncType, ValType
from ..wasm.validation import ExprValidator, _Unknown
from .analysis import ALL_GROUPS, Location
from .control import ControlFrame, ControlStack
from .hooks import HOOK_MODULE, HookRegistry, HookSpec
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


#: Emitted instructions whose immediate fits one LEB128 byte, shared by
#: ``(op, idx, value)`` so the instrumenter allocates each of them once.
_EMITTED: dict[tuple, Instr] = {}


class _FuncInstrumenter:
    """Instruments a single function body."""

    def __init__(self, module: Module, spaces: IndexSpaces, func: Function,
                 func_idx: int, registry: HookRegistry, groups: frozenset[str],
                 static: StaticInfo, config: InstrumentationConfig,
                 lock: Lock | None = None):
        self.module = module
        self.spaces = spaces
        self.func = func
        self.func_idx = func_idx
        self.registry = registry
        self.groups = groups
        self.static = static
        self.config = config
        self.lock = lock
        functype = module.types[func.type_idx]
        self.functype = functype
        self.typer = ExprValidator(module, func, functype.results,
                                   list(functype.params) + list(func.locals),
                                   func_idx=func_idx, spaces=spaces)
        self.ctrl = ControlStack(func_idx, func.body)
        self.out: list[Instr] = []
        self.new_locals: list[ValType] = []
        self._local_base = len(functype.params) + len(func.locals)
        self._free_temps: dict[ValType, list[int]] = {}

    # -- fresh locals (paper Table 3, row 2) ----------------------------------

    def temp(self, valtype: ValType) -> int:
        pool = self._free_temps.setdefault(valtype, [])
        if pool:
            return pool.pop()
        self.new_locals.append(valtype)
        return self._local_base + len(self.new_locals) - 1

    def release(self, temps: list[int], types: tuple[ValType, ...]) -> None:
        for local_idx, valtype in zip(temps, types):
            self._free_temps.setdefault(valtype, []).append(local_idx)

    # -- emission helpers ----------------------------------------------------------

    def emit(self, op: str, idx: int | None = None, value: int | None = None,
             blocktype: ValType | None = None) -> None:
        if blocktype is None and (idx is None or 0 <= idx < 128) and (
                value is None or (type(value) is int and -64 <= value < 64)):
            key = (op, idx, value)
            instr = _EMITTED.get(key)
            if instr is None:
                instr = _EMITTED[key] = Instr(op, value=value, idx=idx)
            self.out.append(instr)
        else:
            self.out.append(Instr(op, value=value, idx=idx, blocktype=blocktype))

    def emit_instr(self, instr: Instr) -> None:
        self.out.append(instr)

    def hook(self, kind: str, payload: tuple,
             value_types: tuple[ValType, ...]) -> HookSpec:
        if self.lock is not None:
            with self.lock:
                return self.registry.get_or_create(kind, payload, value_types)
        return self.registry.get_or_create(kind, payload, value_types)

    def call_hook(self, spec: HookSpec, instr_idx: int) -> None:
        """Emit the location constants and the (placeholder) hook call."""
        if self.config.emit_locations:
            self.emit("i32.const", value=self.func_idx)
            self.emit("i32.const", value=instr_idx)
        self.out.append(Instr("call", idx=-1 - spec.index))

    def push_local(self, local_idx: int, valtype: ValType) -> None:
        """Push a saved value as hook argument(s), splitting i64 (row 6)."""
        if valtype is I64:
            self.emit("get_local", idx=local_idx)
            self.emit("i32.wrap/i64")
            self.emit("get_local", idx=local_idx)
            self.emit("i64.const", value=32)
            self.emit("i64.shr_u")
            self.emit("i32.wrap/i64")
        else:
            self.emit("get_local", idx=local_idx)

    def save_to_temps(self, types: tuple[ValType, ...]) -> list[int]:
        """Pop the top ``len(types)`` stack values into fresh locals.

        ``types`` is given in stack order (bottom first); the returned temp
        indices are aligned with it.
        """
        temps = [self.temp(t) for t in types]
        for local_idx in reversed(temps):
            self.emit("set_local", idx=local_idx)
        return temps

    def restore_from_temps(self, temps: list[int]) -> None:
        for local_idx in temps:
            self.emit("get_local", idx=local_idx)

    def push_args(self, temps: list[int], types: tuple[ValType, ...]) -> None:
        for local_idx, valtype in zip(temps, types):
            self.push_local(local_idx, valtype)

    def push_const_dup(self, instr: Instr) -> None:
        """Duplicate a constant by re-emitting it (Table 3, rows 1 and 6)."""
        if instr.op == "i64.const":
            unsigned = int(instr.value) & MASK64
            self.emit("i32.const", value=unsigned & MASK32)
            self.emit("i32.const", value=unsigned >> 32)
        else:
            self.emit_instr(instr)

    # -- end hooks (paper §2.4.5) ----------------------------------------------

    def emit_end_hook(self, kind: str, begin_idx: int, end_idx: int) -> None:
        self.static.begin_of_end[(self.func_idx, end_idx, kind)] = \
            Location(self.func_idx, begin_idx)
        spec = self.hook("end", (kind,), ())
        self.call_hook(spec, end_idx)

    def emit_begin_hook(self, kind: str, begin_idx: int) -> None:
        spec = self.hook("begin", (kind,), ())
        self.call_hook(spec, begin_idx)

    def end_events(self, frames: list[ControlFrame]) -> tuple[EndEvent, ...]:
        return tuple(
            EndEvent(frame.kind, Location(self.func_idx, frame.begin),
                     Location(self.func_idx, frame.end))
            for frame in frames)

    # -- the main walk ------------------------------------------------------------

    def run(self) -> Function:
        if not self.func.body or self.func.body[-1].op != "end":
            raise WasmError("function body must end with end")

        if "begin" in self.groups:
            self.emit_begin_hook("function", -1)

        for idx, instr in enumerate(self.func.body):
            self._instrument_one(idx, instr)
            self.typer.step(instr)
        self.typer.finish()

        return Function(type_idx=self.func.type_idx,
                        locals=list(self.func.locals) + self.new_locals,
                        body=self.out, name=self.func.name)

    def _instrument_one(self, idx: int, instr: Instr) -> None:
        op = instr.op
        dead = self.typer.unreachable_now
        loc_key = (self.func_idx, idx)
        enabled = self.groups.__contains__

        # Control structure must be tracked even through dead code.
        if op == "else":
            if_frame, _else_frame = self.ctrl.enter_else(idx)
            if not dead and enabled("end"):
                self.emit_end_hook("if", if_frame.begin, idx)
            self.emit_instr(instr)
            if enabled("begin"):
                self.emit_begin_hook("else", idx)
            return
        if op == "end":
            frame = self.ctrl.exit()
            if not dead:
                if frame.kind == "function" and enabled("return"):
                    self._emit_return_hook(idx)
                if enabled("end"):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            self.emit_instr(instr)
            return
        if op in ("block", "loop"):
            self.emit_instr(instr)
            self.ctrl.enter(op, idx)
            if not dead and enabled("begin"):
                self.emit_begin_hook(op, idx)
            return
        if op == "if":
            if not dead and enabled("if"):
                cond = self.temp(I32)
                self.emit("set_local", idx=cond)
                self.emit("get_local", idx=cond)
                spec = self.hook("if", (), (I32,))
                self.call_hook(spec, idx)
                self.emit("get_local", idx=cond)
                self.release([cond], (I32,))
            self.emit_instr(instr)
            self.ctrl.enter("if", idx)
            if not dead and enabled("begin"):
                self.emit_begin_hook("if", idx)
            return

        if dead:
            self.emit_instr(instr)
            return

        group = instr.info.group
        group_name = group.value if group is not None else None

        if op == "br":
            if enabled("br"):
                self.static.br_targets[loc_key] = self.ctrl.resolve_label(instr.label)
                spec = self.hook("br", (), ())
                self.call_hook(spec, idx)
            if enabled("end"):
                for frame in self.ctrl.traversed_frames(instr.label):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            self.emit_instr(instr)
            return

        if op == "br_if":
            need_hook = enabled("br_if")
            need_ends = enabled("end") and self.ctrl.traversed_frames(instr.label)
            if not need_hook and not need_ends:
                self.emit_instr(instr)
                return
            cond = self.temp(I32)
            self.emit("set_local", idx=cond)
            if need_hook:
                self.static.br_targets[loc_key] = self.ctrl.resolve_label(instr.label)
                self.emit("get_local", idx=cond)
                spec = self.hook("br_if", (), (I32,))
                self.call_hook(spec, idx)
            if need_ends:
                # end hooks fire only if the branch is taken (§2.4.5)
                self.emit("get_local", idx=cond)
                self.emit("if", blocktype=None)
                for frame in self.ctrl.traversed_frames(instr.label):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
                self.emit("end")
            self.emit("get_local", idx=cond)
            self.emit_instr(instr)
            self.release([cond], (I32,))
            return

        if op == "br_table":
            need = enabled("br_table") or enabled("end")
            if need:
                targets = tuple(self.ctrl.resolve_label(lbl)
                                for lbl in instr.br_table.labels)
                default = self.ctrl.resolve_label(instr.br_table.default)
                ended = tuple(
                    self.end_events(self.ctrl.traversed_frames(lbl))
                    for lbl in (*instr.br_table.labels, instr.br_table.default))
                if enabled("end"):
                    for events in ended:
                        for event in events:
                            self.static.begin_of_end[
                                (self.func_idx, event.end.instr, event.kind)] = event.begin
                self.static.br_tables[loc_key] = BrTableInfo(targets, default, ended)
                table_idx = self.temp(I32)
                self.emit("set_local", idx=table_idx)
                self.emit("get_local", idx=table_idx)
                spec = self.hook("br_table", (), (I32,))
                self.call_hook(spec, idx)
                self.emit("get_local", idx=table_idx)
                self.release([table_idx], (I32,))
            self.emit_instr(instr)
            return

        if op == "return":
            if enabled("return"):
                self._emit_return_hook(idx)
            if enabled("end"):
                for frame in self.ctrl.all_frames_for_return():
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            self.emit_instr(instr)
            return

        if op == "call":
            self._instrument_call(idx, instr)
            return
        if op == "call_indirect":
            self._instrument_call_indirect(idx, instr)
            return

        if group_name is None or group_name not in self.groups:
            self.emit_instr(instr)
            return

        if group_name == "nop":
            self.emit_instr(instr)
            spec = self.hook("nop", (), ())
            self.call_hook(spec, idx)
            return
        if group_name == "unreachable":
            spec = self.hook("unreachable", (), ())
            self.call_hook(spec, idx)
            self.emit_instr(instr)
            return
        if group_name == "const":
            self.emit_instr(instr)
            valtype = instr.info.signature[1][0]
            self.push_const_dup(instr)
            spec = self.hook("const", (valtype,), (valtype,))
            self.call_hook(spec, idx)
            return
        if group_name == "drop":
            valtype = self.typer.peek(0)
            if isinstance(valtype, _Unknown):
                self.emit_instr(instr)
                return
            spec = self.hook("drop", (valtype,), (valtype,))
            if valtype is I64:
                saved = self.temp(I64)
                self.emit("set_local", idx=saved)
                self.push_local(saved, I64)
                self.release([saved], (I64,))
            self.call_hook(spec, idx)
            return
        if group_name == "select":
            first_t = self.typer.peek(2)
            second_t = self.typer.peek(1)
            valtype = second_t if isinstance(first_t, _Unknown) else first_t
            if isinstance(valtype, _Unknown):
                self.emit_instr(instr)
                return
            types = (valtype, valtype, I32)
            temps = self.save_to_temps(types)
            self.restore_from_temps(temps)
            self.emit_instr(instr)
            self.push_args(temps, types)
            spec = self.hook("select", (valtype,), types)
            self.call_hook(spec, idx)
            self.release(temps, types)
            return
        if group_name in ("unary", "binary"):
            params, results = instr.info.signature
            temps = self.save_to_temps(params)
            self.restore_from_temps(temps)
            self.emit_instr(instr)
            result_temp = self.temp(results[0])
            self.emit("tee_local", idx=result_temp)
            self.push_args(temps, params)
            self.push_local(result_temp, results[0])
            spec = self.hook(group_name, (op,), params + results)
            self.call_hook(spec, idx)
            self.release(temps + [result_temp], params + results)
            return
        if group_name == "load":
            self.static.memarg_offsets[loc_key] = instr.memarg.offset
            addr = self.temp(I32)
            self.emit("tee_local", idx=addr)
            self.emit_instr(instr)
            valtype = instr.info.signature[1][0]
            result_temp = self.temp(valtype)
            self.emit("tee_local", idx=result_temp)
            self.push_local(addr, I32)
            self.push_local(result_temp, valtype)
            spec = self.hook("load", (op,), (I32, valtype))
            self.call_hook(spec, idx)
            self.release([addr, result_temp], (I32, valtype))
            return
        if group_name == "store":
            self.static.memarg_offsets[loc_key] = instr.memarg.offset
            types = instr.info.signature[0]  # (addr, value)
            temps = self.save_to_temps(types)
            self.restore_from_temps(temps)
            self.emit_instr(instr)
            self.push_args(temps, types)
            spec = self.hook("store", (op,), types)
            self.call_hook(spec, idx)
            self.release(temps, types)
            return
        if group_name == "memory_size":
            self.emit_instr(instr)
            result_temp = self.temp(I32)
            self.emit("tee_local", idx=result_temp)
            self.push_local(result_temp, I32)
            spec = self.hook("memory_size", (), (I32,))
            self.call_hook(spec, idx)
            self.release([result_temp], (I32,))
            return
        if group_name == "memory_grow":
            delta = self.temp(I32)
            self.emit("tee_local", idx=delta)
            self.emit_instr(instr)
            result_temp = self.temp(I32)
            self.emit("tee_local", idx=result_temp)
            self.push_local(delta, I32)
            self.push_local(result_temp, I32)
            spec = self.hook("memory_grow", (), (I32, I32))
            self.call_hook(spec, idx)
            self.release([delta, result_temp], (I32, I32))
            return
        if group_name == "local":
            valtype = self.typer.local_type(instr.idx)
            self.static.var_indices[loc_key] = instr.idx
            self.emit_instr(instr)
            self.push_local(instr.idx, valtype)
            spec = self.hook("local", (op, valtype), (valtype,))
            self.call_hook(spec, idx)
            return
        if group_name == "global":
            valtype = self.spaces.global_type(instr.idx).valtype
            self.static.var_indices[loc_key] = instr.idx
            self.emit_instr(instr)
            if valtype is I64:
                saved = self.temp(I64)
                self.emit("get_global", idx=instr.idx)
                self.emit("set_local", idx=saved)
                self.push_local(saved, I64)
                self.release([saved], (I64,))
            else:
                self.emit("get_global", idx=instr.idx)
            spec = self.hook("global", (op, valtype), (valtype,))
            self.call_hook(spec, idx)
            return

        self.emit_instr(instr)  # pragma: no cover - all groups handled

    def _emit_return_hook(self, idx: int) -> None:
        results = self.functype.results
        temps = self.save_to_temps(results)
        self.push_args(temps, results)
        spec = self.hook("return", tuple(results), results)
        self.call_hook(spec, idx)
        self.restore_from_temps(temps)
        self.release(temps, results)

    def _instrument_call(self, idx: int, instr: Instr) -> None:
        if "call" not in self.groups:
            self.emit_instr(instr)
            return
        loc_key = (self.func_idx, idx)
        callee_type = self.spaces.func_type(instr.idx)
        self.static.call_targets[loc_key] = instr.idx
        params, results = callee_type.params, callee_type.results
        arg_temps = self.save_to_temps(params)
        self.push_args(arg_temps, params)
        pre = self.hook("call_pre", ("direct",) + tuple(params), params)
        self.call_hook(pre, idx)
        self.restore_from_temps(arg_temps)
        self.release(arg_temps, params)
        self.emit_instr(instr)
        self._emit_call_post(idx, results)

    def _instrument_call_indirect(self, idx: int, instr: Instr) -> None:
        if "call" not in self.groups:
            self.emit_instr(instr)
            return
        functype = self.module.types[instr.idx]
        params, results = functype.params, functype.results
        types = params + (I32,)  # table index on top
        temps = self.save_to_temps(types)
        table_temp = temps[-1]
        self.push_local(table_temp, I32)
        self.push_args(temps[:-1], params)
        pre = self.hook("call_pre", ("indirect",) + tuple(params),
                        (I32,) + params)
        self.call_hook(pre, idx)
        self.restore_from_temps(temps)
        self.release(temps, types)
        self.emit_instr(instr)
        self._emit_call_post(idx, results)

    def _emit_call_post(self, idx: int, results: tuple[ValType, ...]) -> None:
        result_temps = self.save_to_temps(results)
        self.push_args(result_temps, results)
        post = self.hook("call_post", tuple(results), results)
        self.call_hook(post, idx)
        self.restore_from_temps(result_temps)
        self.release(result_temps, results)


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

    if config.parallel_workers > 1:
        lock = Lock()
        def work(item: tuple[int, Function]) -> Function:
            pos, func = item
            return _FuncInstrumenter(module, spaces, func, n_imported + pos,
                                     registry, config.groups, static, config,
                                     lock).run()
        with ThreadPoolExecutor(max_workers=config.parallel_workers) as pool:
            new_functions = list(pool.map(work, enumerate(module.functions)))
    else:
        new_functions = [
            _FuncInstrumenter(module, spaces, func, n_imported + pos, registry,
                              config.groups, static, config).run()
            for pos, func in enumerate(module.functions)
        ]

    hook_specs = registry.hooks
    static.hooks = hook_specs
    num_hooks = len(hook_specs)

    def remap(func_idx: int) -> int:
        if func_idx < 0:  # hook placeholder
            return n_imported + (-func_idx - 1)
        if func_idx < n_imported:
            return func_idx
        return func_idx + num_hooks

    instrumented = Module(name=module.name)
    instrumented.types = list(module.types)
    instrumented.imports = list(module.imports)
    hook_type_idxs: dict[FuncType, int] = {}
    for spec in hook_specs:
        type_idx = hook_type_idxs.get(spec.functype)
        if type_idx is None:
            type_idx = hook_type_idxs[spec.functype] = \
                instrumented.add_type(spec.functype)
        # insert hook imports after the existing function imports so the
        # original imports keep their indices
        instrumented.imports.append(Import(HOOK_MODULE, spec.name, type_idx))
    remapped_calls: dict[int, Instr] = {}
    for func in new_functions:
        body = func.body
        for i, instr in enumerate(body):
            if instr.op == "call":
                new = remapped_calls.get(instr.idx)
                if new is None:
                    new = remapped_calls[instr.idx] = Instr("call", idx=remap(instr.idx))
                body[i] = new
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
