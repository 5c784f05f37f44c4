"""The validator: accepts valid modules, rejects ill-typed ones."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import Instr, ValidationError, opcodes, validate_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.module import BrTable, MemArg
from repro.wasm.types import F32, F64, I32, I64, FuncType, GlobalType
from repro.wasm.validation import ExprValidator, validate_function


def build_single(body_fn, params=(), results=(), **module_kwargs):
    builder = ModuleBuilder()
    if module_kwargs.get("memory"):
        builder.add_memory(1)
    fb = builder.function(params, results)
    body_fn(fb)
    fb.finish()
    return builder.build()


def assert_invalid(body_fn, match, params=(), results=(), **kw):
    module = build_single(body_fn, params, results, **kw)
    with pytest.raises(ValidationError, match=match):
        validate_module(module)


class TestOperandStack:
    def test_underflow(self):
        assert_invalid(lambda fb: fb.emit("i32.add"), "underflow",
                       results=(I32,))

    def test_type_mismatch(self):
        assert_invalid(
            lambda fb: fb.i32_const(1).f64_const(2.0).emit("i32.add"),
            "type mismatch", results=(I32,))

    def test_leftover_values(self):
        assert_invalid(lambda fb: fb.i32_const(1).i32_const(2), "superfluous",
                       results=(I32,))

    def test_missing_result(self):
        assert_invalid(lambda fb: fb.emit("nop"), "underflow", results=(I32,))

    def test_valid_arith(self):
        validate_module(build_single(
            lambda fb: fb.i32_const(1).i32_const(2).emit("i32.add"),
            results=(I32,)))


#: log2 of the access width in bytes of every load and store.
NATURAL_ALIGNMENT = {
    "i32.load": 2, "i64.load": 3, "f32.load": 2, "f64.load": 3,
    "i32.load8_s": 0, "i32.load8_u": 0, "i32.load16_s": 1, "i32.load16_u": 1,
    "i64.load8_s": 0, "i64.load8_u": 0, "i64.load16_s": 1, "i64.load16_u": 1,
    "i64.load32_s": 2, "i64.load32_u": 2,
    "i32.store": 2, "i64.store": 3, "f32.store": 2, "f64.store": 3,
    "i32.store8": 0, "i32.store16": 1, "i64.store8": 0, "i64.store16": 1,
    "i64.store32": 2,
}
_CONST = {I32: "i32_const", I64: "i64_const", F32: "f32_const", F64: "f64_const"}


class TestAlignment:
    def test_every_memarg_opcode_is_covered(self):
        assert sorted(NATURAL_ALIGNMENT) == sorted(
            op.mnemonic for op in opcodes.BY_NAME.values()
            if op.imm is opcodes.Imm.MEMARG)

    @pytest.mark.parametrize("op", sorted(NATURAL_ALIGNMENT))
    def test_natural_accepted_one_more_rejected(self, op):
        params, results = opcodes.BY_NAME[op].signature

        def module(align):
            def body(fb):
                fb.i32_const(0)
                if len(params) == 2:  # a store's value
                    getattr(fb, _CONST[params[1]])(0)
                fb.emit(op, memarg=MemArg(align, 0))
                if results:
                    fb.emit("drop")
            return build_single(body, memory=True)

        natural = NATURAL_ALIGNMENT[op]
        validate_module(module(natural))
        with pytest.raises(ValidationError) as excinfo:
            validate_module(module(natural + 1))
        where = 2 if len(params) == 2 else 1
        assert str(excinfo.value) == (
            f"{op}: alignment 2**{natural + 1} exceeds natural alignment "
            f"2**{natural} (in function 0, instruction {where})")


class TestControlFlow:
    def test_branch_label_out_of_range(self):
        assert_invalid(lambda fb: fb.br(1), "label")

    def test_branch_carries_block_result(self):
        def body(fb):
            fb.block(I32)
            fb.i32_const(5)
            fb.br(0)
            fb.end()
        validate_module(build_single(body, results=(I32,)))

    def test_branch_missing_block_result(self):
        def body(fb):
            fb.block(I32)
            fb.br(0)          # must provide an i32
            fb.end()
        assert_invalid(body, "underflow", results=(I32,))

    def test_loop_label_takes_no_values(self):
        def body(fb):
            fb.loop(I32)
            fb.i32_const(5)
            fb.br(0)          # to loop start: no values expected
            fb.end()
        # 5 is left on the stack when branching; since br clears to the
        # loop's start arity (0), the value is simply discarded -> valid
        validate_module(build_single(body, results=(I32,)))

    def test_if_without_else_needs_empty_type(self):
        def body(fb):
            fb.i32_const(1)
            fb.if_(I32)
            fb.i32_const(2)
            fb.end()
        assert_invalid(body, "else", results=(I32,))

    def test_if_else_ok(self):
        def body(fb):
            fb.i32_const(1)
            fb.if_(I32)
            fb.i32_const(2)
            fb.else_()
            fb.i32_const(3)
            fb.end()
        validate_module(build_single(body, results=(I32,)))

    def test_else_branch_types_checked(self):
        def body(fb):
            fb.i32_const(1)
            fb.if_(I32)
            fb.i32_const(2)
            fb.else_()
            fb.f64_const(3.0)
            fb.end()
        assert_invalid(body, "type mismatch", results=(I32,))

    def test_else_without_if(self):
        assert_invalid(lambda fb: fb.emit("else"), "else")

    def test_br_table_inconsistent_targets(self):
        def body(fb):
            fb.block(I32)
            fb.block()
            fb.i32_const(0)
            fb.emit("br_table", br_table=BrTable((0, 1), 0))
            fb.end()
            fb.i32_const(1)
            fb.end()
        assert_invalid(body, "inconsistent", results=(I32,))

    def test_unreachable_code_is_polymorphic(self):
        def body(fb):
            fb.emit("unreachable")
            fb.emit("i32.add")      # types as anything in dead code
            fb.emit("drop")
        validate_module(build_single(body, results=()))

    def test_code_after_return_checked_loosely(self):
        def body(fb):
            fb.i32_const(1)
            fb.emit("return")
            fb.emit("f64.mul")
            fb.emit("drop")
        validate_module(build_single(body, results=(I32,)))


class TestVariables:
    def test_local_out_of_range(self):
        assert_invalid(lambda fb: fb.get_local(3), "local index")

    def test_local_type_checked(self):
        def body(fb):
            local = fb.add_local(F64)
            fb.i32_const(1)
            fb.set_local(local)
        assert_invalid(body, "type mismatch")

    def test_set_immutable_global_rejected(self):
        builder = ModuleBuilder()
        glob = builder.add_global(I32, mutable=False, init=1)
        fb = builder.function((), ())
        fb.i32_const(2).set_global(glob)
        fb.finish()
        with pytest.raises(ValidationError, match="immutable"):
            validate_module(builder.build())

    def test_global_out_of_range(self):
        assert_invalid(lambda fb: fb.get_global(0).emit("drop"), "global index")


class TestCallsAndMemory:
    def test_call_out_of_range(self):
        assert_invalid(lambda fb: fb.call(5), "out-of-range")

    def test_call_argument_types(self, fib_module):
        validate_module(fib_module)

    def test_call_indirect_requires_table(self):
        def body(fb):
            fb.i32_const(0)
            fb.emit("call_indirect", idx=0)
        assert_invalid(body, "table")

    def test_memory_instruction_requires_memory(self):
        assert_invalid(lambda fb: fb.i32_const(0).load("i32.load").emit("drop"),
                       "memory")

    def test_natural_alignment_enforced(self):
        def body(fb):
            fb.i32_const(0)
            fb.load("i32.load8_u", align=1)  # 2**1 > natural 2**0
            fb.emit("drop")
        assert_invalid(body, "alignment", memory=True)

    def test_select_operand_types_must_match(self):
        def body(fb):
            fb.i32_const(1)
            fb.f64_const(2.0)
            fb.i32_const(0)
            fb.emit("select")
            fb.emit("drop")
        assert_invalid(body, "select")


class TestModuleLevel:
    def test_duplicate_export_names(self):
        builder = ModuleBuilder()
        fb = builder.function((), (), export="x")
        fb.finish()
        builder.export_function("x", fb.func_idx)
        with pytest.raises(ValidationError, match="duplicate export"):
            validate_module(builder.build())

    def test_start_function_signature(self):
        builder = ModuleBuilder()
        fb = builder.function((I32,), ())
        fb.finish()
        builder.set_start(fb.func_idx)
        with pytest.raises(ValidationError, match="start"):
            validate_module(builder.build())

    def test_element_segment_function_bounds(self):
        builder = ModuleBuilder()
        builder.add_table(2)
        builder.add_element(0, [7])
        with pytest.raises(ValidationError, match="element"):
            validate_module(builder.build())

    def test_global_initializer_type(self):
        builder = ModuleBuilder()
        builder.module.globals.append(
            __import__("repro.wasm.module", fromlist=["Global"]).Global(
                GlobalType(I32), [Instr("f64.const", value=1.0)]))
        with pytest.raises(ValidationError, match="initializer"):
            validate_module(builder.build())

    def test_two_memories_rejected(self):
        builder = ModuleBuilder()
        builder.add_memory(1)
        builder.add_memory(1)
        with pytest.raises(ValidationError, match="memory"):
            validate_module(builder.build())


# -- the fast path against the spec-appendix algorithm ---------------------------


class _SpecAppendixValidator(ExprValidator):
    """The validator without its fast paths: every fixed-signature
    instruction, call and local access pops and pushes one value at a time
    through ``pop_vals``/``push_vals``, as in the spec appendix."""

    def step(self, instr):
        op = instr.op
        info = opcodes.BY_NAME.get(op)
        fixed = (info is not None and info.signature is not None
                 and info.imm not in (opcodes.Imm.LOCAL_IDX, opcodes.Imm.GLOBAL_IDX))
        if not fixed and op not in ("call", "get_local", "set_local", "tee_local"):
            super().step(instr)
            return
        self.instr_idx += 1
        if not self.ctrls:
            raise self._error("instruction after the function's final end")
        if op == "call":
            func_types = self.spaces.func_types
            if instr.idx >= len(func_types):
                raise self._error(f"call to out-of-range function {instr.idx}")
            self.pop_vals(func_types[instr.idx].params)
            self.push_vals(func_types[instr.idx].results)
        elif op == "get_local":
            self.push_val(self.local_type(instr.idx))
        elif op == "set_local":
            self.pop_val(self.local_type(instr.idx))
        elif op == "tee_local":
            valtype = self.local_type(instr.idx)
            self.pop_val(valtype)
            self.push_val(valtype)
        else:
            if info.imm in (opcodes.Imm.MEMARG, opcodes.Imm.MEM_IDX):
                if self.spaces.num_memories == 0:
                    raise self._error(f"{op} requires a memory")
                natural = NATURAL_ALIGNMENT.get(op)
                if natural is not None and instr.memarg.align > natural:
                    raise self._error(
                        f"{op}: alignment 2**{instr.memarg.align} exceeds "
                        f"natural alignment 2**{natural}")
            params, results = info.signature
            self.pop_vals(params)
            self.push_vals(results)


#: The function under test: params (i32, i64), locals (f32, f64), no result.
_LOCAL_TYPES = (I32, I64, F32, F64)
#: Function 0 (imported): [i32 f64] -> [i64]; global 0 mutable i32,
#: global 1 immutable f64.
_FIXED_OPS = ["i32.add", "i32.eqz", "i64.mul", "i64.eqz", "f32.sub", "f64.div",
              "f64.lt", "i32.wrap/i64", "i64.extend_s/i32", "f64.convert_s/i32",
              "f32.demote/f64", "i32.load", "f64.load", "i64.store8",
              "memory.size", "memory.grow", "nop", "i32.const", "i64.const",
              "f32.const", "f64.const"]
_CONST_VALUES = {"i32.const": 1, "i64.const": 2, "f32.const": 1.5, "f64.const": 2.5}
_ANY = ([Instr(op, value=_CONST_VALUES[op]) if op in _CONST_VALUES
         else Instr(op, memarg=MemArg(0, 0))
         if opcodes.BY_NAME[op].imm is opcodes.Imm.MEMARG else Instr(op)
         for op in _FIXED_OPS]
        + [Instr(op, idx=i) for op in ("get_local", "set_local", "tee_local")
           for i in (0, 1, 2, 3, 7)]
        + [Instr("get_global", idx=0), Instr("get_global", idx=9),
           Instr("set_global", idx=0), Instr("set_global", idx=1),
           Instr("call", idx=0), Instr("call", idx=5),
           Instr("i32.load", memarg=MemArg(3, 0)), Instr("drop"),
           Instr("select"), Instr("br", label=0), Instr("br_if", label=0),
           Instr("return"), Instr("unreachable"), Instr("block"),
           Instr("block", blocktype=I32), Instr("loop"), Instr("if"),
           Instr("else"), Instr("end")])
_TERMINATORS = [Instr("br", label=0), Instr("return"), Instr("unreachable")]
_CONSTS = [Instr(op, value=value) for op, value in _CONST_VALUES.items()]
_STRAIGHT_LINE = [instr for instr in _ANY
                  if instr.op not in ("block", "loop", "if", "else", "end")]
#: Instructions that consume operands, each with operands it accepts.
_NEEDS_OPERANDS = [
    (Instr("i32.add"), (I32, I32)), (Instr("i32.eqz"), (I32,)),
    (Instr("drop"), (F32,)), (Instr("select"), (I64, I64, I32)),
    (Instr("set_local", idx=0), (I32,)), (Instr("tee_local", idx=2), (F32,)),
    (Instr("call", idx=0), (I32, F64)),
    (Instr("i64.store8", memarg=MemArg(0, 0)), (I32, I64))]
_CONST_OF = {I32: _CONSTS[0], I64: _CONSTS[1], F32: _CONSTS[2], F64: _CONSTS[3]}


def _differential_module(body):
    builder = ModuleBuilder()
    builder.import_function("env", "f", FuncType((I32, F64), (I64,)))
    builder.add_memory(1)
    builder.add_global(I32, mutable=True)
    builder.add_global(F64, mutable=False)
    fb = builder.function((I32, I64), ())
    fb.add_local(F32)
    fb.add_local(F64)
    fb.finish()
    module = builder.build()
    module.functions[0].body = body
    return module


def _typed_choices(stack):
    """Instructions that keep a body well typed on top of ``stack``."""
    top = stack[-1] if stack else None
    choices = [Instr(op, idx=i) for i, t in enumerate(_LOCAL_TYPES)
               for op in ("set_local", "tee_local") if top is t]
    choices += [Instr("get_local", idx=i) for i in range(4)]
    choices += [Instr("get_global", idx=0), Instr("get_global", idx=1),
                Instr("block"), Instr("block", blocktype=I32), Instr("loop")]
    for instr in _ANY[:len(_FIXED_OPS)]:
        params = list(opcodes.BY_NAME[instr.op].signature[0])
        if len(stack) >= len(params) and stack[len(stack) - len(params):] == params:
            choices.append(instr)
    if top is I32:
        choices += [Instr("set_global", idx=0), Instr("if")]
    if stack[-2:] == [I32, F64]:
        choices.append(Instr("call", idx=0))
    if stack:
        choices.append(Instr("drop"))
    if len(stack) >= 3 and top is I32 and stack[-2] is stack[-3]:
        choices.append(Instr("select"))
    return choices


def _model_step(frames, instr):
    """Track the value types of the generator's well-typed bodies."""
    stack = frames[-1][1]
    op = instr.op
    if op in ("block", "loop", "if"):
        if op == "if":
            stack.pop()
        frames.append(([] if instr.blocktype is None else [instr.blocktype], []))
    elif op == "get_local":
        stack.append(_LOCAL_TYPES[instr.idx])
    elif op in ("set_local", "set_global", "drop"):
        stack.pop()
    elif op == "get_global":
        stack.append((I32, F64)[instr.idx])
    elif op == "call":
        del stack[-2:]
        stack.append(I64)
    elif op == "select":
        del stack[-2:]
    elif op != "tee_local":
        params, results = opcodes.BY_NAME[op].signature
        del stack[len(stack) - len(params):]
        stack.extend(results)


@st.composite
def function_bodies(draw):
    """Well-typed, type-broken, underflowing and dead-code bodies, each
    ending with the function's ``end``; returns ``(kind, body)``."""
    kind = draw(st.sampled_from(["typed", "broken", "underflow", "dead"]))
    frames = [([], [])]  # per open frame: (end types, value types)
    body = []
    if kind == "underflow":
        # operands below the frame's height are out of its reach
        consumer, operands = draw(st.sampled_from(_NEEDS_OPERANDS))
        body += [_CONST_OF[t] for t in operands] + [Instr("block"), consumer]
        frames[0][1].extend(operands)
        frames.append(([], []))
    n = draw(st.integers(min_value=0, max_value=25))
    breaks_at = draw(st.integers(min_value=0, max_value=n))
    dead = False
    for pos in range(n):
        if pos == breaks_at and kind in ("broken", "dead"):
            body.append(draw(st.sampled_from(
                _ANY if kind == "broken" else _TERMINATORS)))
            dead = kind == "dead"
        if dead:
            # polymorphic stack: anything but block structure
            body.append(draw(st.sampled_from(_STRAIGHT_LINE)))
            continue
        instr = draw(st.sampled_from(_typed_choices(frames[-1][1])))
        body.append(instr)
        _model_step(frames, instr)
        if len(frames) > 1 and frames[-1][1] == frames[-1][0] and draw(st.booleans()):
            body.append(Instr("end"))
            end_types, _ = frames.pop()
            frames[-1][1].extend(end_types)
    # close every open frame and empty the function's stack
    while len(frames) > 1:
        end_types, stack = frames.pop()
        body += [Instr("drop")] * len(stack) + (
            [Instr("i32.const", value=0)] if end_types else []) + [Instr("end")]
        frames[-1][1].extend(end_types)
    body += [Instr("drop")] * len(frames[0][1]) + [Instr("end")]
    return kind, body


def _outcome(run):
    try:
        run()
    except ValidationError as exc:
        return str(exc), exc.instr_idx
    return None


class TestFastPathDifferential:
    """validate_function's fast paths accept and reject exactly what the
    spec-appendix path does, with the same message and instruction."""

    @settings(max_examples=500, deadline=None)
    @given(function_bodies())
    def test_fast_path_agrees_with_spec_appendix(self, case):
        kind, body = case
        module = _differential_module(body)
        func = module.functions[0]

        def oracle():
            validator = _SpecAppendixValidator(
                module, func, (), [I32, I64, F32, F64], func_idx=1)
            for instr in body:
                validator.step(instr)
            validator.finish()

        fast = _outcome(lambda: validate_function(module, func, func_idx=1))
        assert fast == _outcome(oracle)
        if kind == "typed":
            assert fast is None, fast
