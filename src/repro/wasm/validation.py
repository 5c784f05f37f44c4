"""WebAssembly validation: expression type checking and module validation.

Implements the algorithm of the spec appendix ("Validation Algorithm"):
an abstract operand stack of value types (with an Unknown bottom type for
unreachable code) and a stack of control frames. The instrumenter in
:mod:`repro.core.instrument` drives the same :class:`ExprValidator`
step-by-step to know the concrete types of polymorphic instructions
(``drop``, ``select``) — the paper's §2.4.3 "full type checking during
instrumentation".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcodes
from .errors import ValidationError
from .module import Function, IndexSpaces, Instr, Module
from .types import I32, MAX_PAGES, Limits, MemoryType, TableType, ValType


class _Unknown:
    """Bottom type that unifies with every value type (unreachable code)."""

    def __repr__(self) -> str:
        return "unknown"


UNKNOWN = _Unknown()

StackEntry = ValType | _Unknown


@dataclass
class CtrlFrame:
    """A control frame: one entry of the validator's control stack."""

    kind: str                      # 'function' | 'block' | 'loop' | 'if' | 'else'
    start_types: tuple[ValType, ...]
    end_types: tuple[ValType, ...]
    height: int                    # operand stack height at frame entry
    unreachable: bool = False
    instr_idx: int = -1            # index of the opening instruction (-1 = function)

    @property
    def label_types(self) -> tuple[ValType, ...]:
        """Types a branch to this frame's label must provide."""
        return self.start_types if self.kind == "loop" else self.end_types


class ExprValidator:
    """Type checks one instruction sequence (function body or init expr).

    ``func_idx`` locates errors; ``spaces`` is the module's index-space
    snapshot, built here when the caller does not share one.
    """

    def __init__(self, module: Module, func: Function | None,
                 result_types: tuple[ValType, ...], locals_: list[ValType],
                 *, func_idx: int | None = None,
                 spaces: IndexSpaces | None = None):
        self.module = module
        self.func = func
        self.func_idx = func_idx
        self.spaces = module.index_spaces() if spaces is None else spaces
        self.locals = locals_
        self.vals: list[StackEntry] = []
        self.ctrls: list[CtrlFrame] = [
            CtrlFrame("function", (), tuple(result_types), 0)
        ]
        self.instr_idx = -1

    # -- primitive stack operations (spec appendix) ---------------------------

    def _error(self, message: str) -> ValidationError:
        return ValidationError(message, func_idx=self.func_idx,
                               instr_idx=self.instr_idx)

    def push_val(self, valtype: StackEntry) -> None:
        self.vals.append(valtype)

    def pop_val(self, expect: ValType | None = None) -> StackEntry:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect if expect is not None else UNKNOWN
            raise self._error(
                f"operand stack underflow (expected {expect or 'a value'})")
        actual = self.vals.pop()
        if expect is not None and not isinstance(actual, _Unknown) and actual != expect:
            raise self._error(f"type mismatch: expected {expect}, found {actual}")
        return actual

    def pop_vals(self, expects: tuple[ValType, ...]) -> list[StackEntry]:
        return [self.pop_val(t) for t in reversed(expects)][::-1]

    def push_vals(self, types: tuple[ValType, ...]) -> None:
        for valtype in types:
            self.push_val(valtype)

    def peek(self, depth: int = 0) -> StackEntry:
        """Type of the value ``depth`` positions below the stack top.

        In unreachable code, or when peeking below the current frame,
        returns :data:`UNKNOWN`.
        """
        frame = self.ctrls[-1]
        pos = len(self.vals) - 1 - depth
        if pos < frame.height:
            return UNKNOWN
        return self.vals[pos]

    @property
    def unreachable_now(self) -> bool:
        return self.ctrls[-1].unreachable

    def push_ctrl(self, kind: str, start: tuple[ValType, ...],
                  end: tuple[ValType, ...]) -> None:
        self.ctrls.append(CtrlFrame(kind, start, end, len(self.vals),
                                    instr_idx=self.instr_idx))
        self.push_vals(start)

    def pop_ctrl(self) -> CtrlFrame:
        if not self.ctrls:
            raise self._error("control stack underflow")
        frame = self.ctrls[-1]
        self.pop_vals(frame.end_types)
        if len(self.vals) != frame.height:
            raise self._error(
                f"{len(self.vals) - frame.height} superfluous value(s) at end of block")
        self.ctrls.pop()
        return frame

    def mark_unreachable(self) -> None:
        frame = self.ctrls[-1]
        del self.vals[frame.height:]
        frame.unreachable = True

    def label(self, depth: int) -> CtrlFrame:
        if depth >= len(self.ctrls):
            raise self._error(f"branch label {depth} exceeds block nesting "
                              f"{len(self.ctrls) - 1}")
        return self.ctrls[-1 - depth]

    # -- per-instruction typing ------------------------------------------------

    def local_type(self, idx: int) -> ValType:
        if idx >= len(self.locals):
            raise self._error(f"local index {idx} out of range ({len(self.locals)} locals)")
        return self.locals[idx]

    def step(self, instr: Instr) -> None:
        """Validate one instruction, updating the abstract stacks."""
        self.instr_idx += 1
        if not self.ctrls:
            raise self._error("instruction after the function's final end")
        rule = _RULES.get(instr.op)
        if rule is None:
            raise self._error(f"unknown instruction {instr.op!r}")
        if rule.__class__ is not tuple:
            rule(self, instr)
            return
        params, results, imm = rule
        if imm is opcodes.Imm.MEMARG or imm is opcodes.Imm.MEM_IDX:
            self._check_memory_exists(instr)
            if imm is opcodes.Imm.MEMARG:
                self._check_alignment(instr)
        self.pop_vals(params)
        self.push_vals(results)

    # control ------------------------------------------------------------------

    def _block_types(self, instr: Instr) -> tuple[ValType, ...]:
        return () if instr.blocktype is None else (instr.blocktype,)

    def _step_nop(self, instr: Instr) -> None:
        pass

    def _step_unreachable(self, instr: Instr) -> None:
        self.mark_unreachable()

    def _step_block(self, instr: Instr) -> None:
        self.push_ctrl("block", (), self._block_types(instr))

    def _step_loop(self, instr: Instr) -> None:
        self.push_ctrl("loop", (), self._block_types(instr))

    def _step_if(self, instr: Instr) -> None:
        self.pop_val(I32)
        self.push_ctrl("if", (), self._block_types(instr))

    def _step_else(self, instr: Instr) -> None:
        frame = self.ctrls[-1]
        if frame.kind != "if":
            raise self._error("else without matching if")
        self.pop_ctrl()
        self.push_ctrl("else", (), frame.end_types)

    def _step_end(self, instr: Instr) -> None:
        frame = self.pop_ctrl()
        if frame.kind == "if" and frame.end_types != frame.start_types:
            raise self._error("if with a result type requires an else branch")
        self.push_vals(frame.end_types)

    def _step_br(self, instr: Instr) -> None:
        frame = self.label(instr.label)
        self.pop_vals(frame.label_types)
        self.mark_unreachable()

    def _step_br_if(self, instr: Instr) -> None:
        frame = self.label(instr.label)
        self.pop_val(I32)
        self.pop_vals(frame.label_types)
        self.push_vals(frame.label_types)

    def _step_br_table(self, instr: Instr) -> None:
        default = self.label(instr.br_table.default)
        arity = default.label_types
        for lbl in instr.br_table.labels:
            target = self.label(lbl)
            if target.label_types != arity:
                raise self._error("br_table targets have inconsistent types")
        self.pop_val(I32)
        self.pop_vals(arity)
        self.mark_unreachable()

    def _step_return(self, instr: Instr) -> None:
        self.pop_vals(self.ctrls[0].end_types)
        self.mark_unreachable()

    def _step_call(self, instr: Instr) -> None:
        func_types = self.spaces.func_types
        if instr.idx >= len(func_types):
            raise self._error(f"call to out-of-range function {instr.idx}")
        functype = func_types[instr.idx]
        self.pop_vals(functype.params)
        self.push_vals(functype.results)

    def _step_call_indirect(self, instr: Instr) -> None:
        if self.spaces.num_tables == 0:
            raise self._error("call_indirect requires a table")
        if instr.idx >= len(self.module.types):
            raise self._error(f"call_indirect type index {instr.idx} out of range")
        functype = self.module.types[instr.idx]
        self.pop_val(I32)
        self.pop_vals(functype.params)
        self.push_vals(functype.results)

    # parametric -----------------------------------------------------------------

    def _step_drop(self, instr: Instr) -> None:
        self.pop_val()

    def _step_select(self, instr: Instr) -> None:
        self.pop_val(I32)
        first = self.pop_val()
        second = self.pop_val()
        if isinstance(first, _Unknown):
            self.push_val(second)
        elif isinstance(second, _Unknown):
            self.push_val(first)
        elif first != second:
            raise self._error(f"select operands differ: {first} vs {second}")
        else:
            self.push_val(first)

    # variables ---------------------------------------------------------------

    def _step_get_local(self, instr: Instr) -> None:
        self.push_val(self.local_type(instr.idx))

    def _step_set_local(self, instr: Instr) -> None:
        self.pop_val(self.local_type(instr.idx))

    def _step_tee_local(self, instr: Instr) -> None:
        valtype = self.local_type(instr.idx)
        self.pop_val(valtype)
        self.push_val(valtype)

    def _step_get_global(self, instr: Instr) -> None:
        global_types = self.spaces.global_types
        if instr.idx >= len(global_types):
            raise self._error(f"global index {instr.idx} out of range")
        self.push_val(global_types[instr.idx].valtype)

    def _step_set_global(self, instr: Instr) -> None:
        global_types = self.spaces.global_types
        if instr.idx >= len(global_types):
            raise self._error(f"global index {instr.idx} out of range")
        globaltype = global_types[instr.idx]
        if not globaltype.mutable:
            raise self._error(f"set_global of immutable global {instr.idx}")
        self.pop_val(globaltype.valtype)

    # memory -----------------------------------------------------------------

    def _check_memory_exists(self, instr: Instr) -> None:
        if self.spaces.num_memories == 0:
            raise self._error(f"{instr.op} requires a memory")

    _NATURAL_ALIGN = {
        "8": 0, "16": 1, "32": 2,
    }

    def _check_alignment(self, instr: Instr) -> None:
        mnemonic = instr.op
        if mnemonic.endswith(("8_s", "8_u", "store8")):
            natural = 0
        elif mnemonic.endswith(("16_s", "16_u", "store16")):
            natural = 1
        elif mnemonic.endswith(("32_s", "32_u", "store32")) and mnemonic.startswith("i64"):
            natural = 2
        elif mnemonic.startswith(("i32", "f32")):
            natural = 2
        else:
            natural = 3
        if instr.memarg.align > natural:
            raise self._error(
                f"{mnemonic}: alignment 2**{instr.memarg.align} exceeds natural "
                f"alignment 2**{natural}")

    # -- finishing ----------------------------------------------------------------

    def finish(self) -> None:
        if self.ctrls:
            raise self._error(
                f"{len(self.ctrls)} unclosed block(s) at end of expression")


def _rule(op: opcodes.OpInfo):
    """How :meth:`ExprValidator.step` checks ``op``: its ``(params,
    results, immediate kind)`` if monomorphic, else its ``_step_*`` method."""
    if op.signature is not None and op.imm not in (opcodes.Imm.LOCAL_IDX,
                                                   opcodes.Imm.GLOBAL_IDX):
        return (*op.signature, op.imm)
    return getattr(ExprValidator, "_step_" + op.mnemonic.replace(".", "_"))


_RULES = {mnemonic: _rule(op) for mnemonic, op in opcodes.BY_NAME.items()}


def validate_function(module: Module, func: Function, *,
                      func_idx: int | None = None,
                      spaces: IndexSpaces | None = None) -> None:
    """Type check one defined function's body.

    ``func_idx`` (the function's index, for error messages) and ``spaces``
    are passed by :func:`validate_module`; standalone callers may omit them.
    """
    functype = module.types[func.type_idx]
    locals_ = list(functype.params) + list(func.locals)
    if func_idx is None:
        func_idx = next((module.num_imported_functions + pos
                         for pos, f in enumerate(module.functions) if f is func), None)
    validator = ExprValidator(module, func, functype.results, locals_,
                              func_idx=func_idx, spaces=spaces)
    if not func.body or func.body[-1].op != "end":
        raise ValidationError("function body must be terminated by end")
    for instr in func.body:
        validator.step(instr)
    validator.finish()


_CONST_OPS = {"i32.const", "i64.const", "f32.const", "f64.const", "get_global"}


def _validate_const_expr(module: Module, instrs: list[Instr],
                         expect: ValType, what: str) -> None:
    if len(instrs) != 1:
        raise ValidationError(f"{what} initializer must be a single constant instruction")
    instr = instrs[0]
    if instr.op not in _CONST_OPS:
        raise ValidationError(f"{what} initializer {instr.op} is not constant")
    if instr.op == "get_global":
        imported = module.imported_globals()
        if instr.idx >= len(imported):
            raise ValidationError(
                f"{what} initializer get_global must reference an imported global")
        globaltype = imported[instr.idx].desc
        if globaltype.mutable:
            raise ValidationError(f"{what} initializer global must be immutable")
        actual = globaltype.valtype
    else:
        actual = ValType.from_str(instr.op.split(".")[0])
    if actual != expect:
        raise ValidationError(f"{what} initializer has type {actual}, expected {expect}")


def _validate_limits(limits: Limits, hard_cap: int | None, what: str) -> None:
    """Range-check one ``Limits``: min ≤ max, both within the hard cap.

    Without this, a decoded module declaring a huge memory minimum would
    pass validation and only fail at instantiation — with a multi-gigabyte
    allocation attempt (or ``MemoryError``) instead of a clean
    :class:`ValidationError`.
    """
    if limits.maximum is not None and limits.minimum > limits.maximum:
        raise ValidationError(
            f"{what} limits minimum {limits.minimum} exceeds "
            f"maximum {limits.maximum}")
    if hard_cap is not None:
        if limits.minimum > hard_cap:
            raise ValidationError(
                f"{what} limits minimum {limits.minimum} exceeds "
                f"the hard cap of {hard_cap}")
        if limits.maximum is not None and limits.maximum > hard_cap:
            raise ValidationError(
                f"{what} limits maximum {limits.maximum} exceeds "
                f"the hard cap of {hard_cap}")


def validate_module(module: Module) -> None:
    """Validate a whole module (types, imports, bodies, segments, exports)."""
    for imp in module.imports:
        if isinstance(imp.desc, int) and imp.desc >= len(module.types):
            raise ValidationError(
                f"import {imp.module}.{imp.name} references type {imp.desc} "
                f"out of range")
        elif isinstance(imp.desc, MemoryType):
            _validate_limits(imp.desc.limits, MAX_PAGES,
                             f"imported memory {imp.module}.{imp.name}")
        elif isinstance(imp.desc, TableType):
            _validate_limits(imp.desc.limits, None,
                             f"imported table {imp.module}.{imp.name}")
    if module.num_tables > 1:
        raise ValidationError("at most one table is allowed in the MVP")
    if module.num_memories > 1:
        raise ValidationError("at most one memory is allowed in the MVP")
    for memtype in module.memories:
        _validate_limits(memtype.limits, MAX_PAGES, "memory")
    for tabletype in module.tables:
        _validate_limits(tabletype.limits, None, "table")
    for func in module.functions:
        if func.type_idx >= len(module.types):
            raise ValidationError(f"function references type {func.type_idx} out of range")
    # every type index is in range now, so the snapshot can be built
    spaces = module.index_spaces()
    for glob in module.globals:
        _validate_const_expr(module, glob.init, glob.type.valtype, "global")
    seen_exports: set[str] = set()
    limits = {
        "func": spaces.num_functions,
        "table": spaces.num_tables,
        "memory": spaces.num_memories,
        "global": spaces.num_globals,
    }
    for export in module.exports:
        if export.name in seen_exports:
            raise ValidationError(f"duplicate export name {export.name!r}")
        seen_exports.add(export.name)
        if export.idx >= limits[export.kind]:
            raise ValidationError(
                f"export {export.name!r} references {export.kind} {export.idx} "
                f"out of range")
    if module.start is not None:
        if module.start >= spaces.num_functions:
            raise ValidationError(f"start function {module.start} out of range")
        start_type = spaces.func_types[module.start]
        if start_type.params or start_type.results:
            raise ValidationError(f"start function must have type [] -> [], got {start_type}")
    for segment in module.elements:
        if spaces.num_tables == 0:
            raise ValidationError("element segment without a table")
        _validate_const_expr(module, segment.offset, I32, "element segment")
        for func_idx in segment.func_idxs:
            if func_idx >= spaces.num_functions:
                raise ValidationError(
                    f"element segment references function {func_idx} out of range")
    for segment in module.data:
        if spaces.num_memories == 0:
            raise ValidationError("data segment without a memory")
        _validate_const_expr(module, segment.offset, I32, "data segment")
    n_imported = spaces.num_imported_functions
    for pos, func in enumerate(module.functions):
        validate_function(module, func, func_idx=n_imported + pos, spaces=spaces)
