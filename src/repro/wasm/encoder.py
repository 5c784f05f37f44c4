"""Encoder for the WebAssembly binary format (spec 1.0 / MVP).

Produces complete ``.wasm`` binaries, including an optional name section
carrying function names. Integer immediates are written in canonical
(minimal-length) LEB128; as the paper notes (§4.5), this occasionally makes
instrumented binaries *smaller* than their input.
"""

from __future__ import annotations

import struct

from . import leb128, opcodes
from .errors import EncodeError
from .module import (BrTable, DataSegment, ElemSegment, Export,
                     Function, Global, Import, Instr, MemArg, Module)
from .numeric import to_signed
from .types import (EMPTY_BLOCKTYPE_BYTE, VALTYPE_TO_BYTE, FuncType,
                    GlobalType, Limits, MemoryType, TableType, ValType)

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

_SECTION_IDS = {
    "custom": 0, "type": 1, "import": 2, "function": 3, "table": 4,
    "memory": 5, "global": 6, "export": 7, "start": 8, "element": 9,
    "code": 10, "data": 11,
}


def _u32(value: int) -> bytes:
    return leb128.encode_unsigned(value)


def _name(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _u32(len(raw)) + raw


def _vec(items: list[bytes]) -> bytes:
    return _u32(len(items)) + b"".join(items)


def encode_valtype(valtype: ValType) -> bytes:
    return bytes([VALTYPE_TO_BYTE[valtype]])


def encode_functype(functype: FuncType) -> bytes:
    if len(functype.results) > 1:
        raise EncodeError(
            f"the MVP binary format allows at most one result, got {functype}")
    return (b"\x60"
            + _vec([encode_valtype(t) for t in functype.params])
            + _vec([encode_valtype(t) for t in functype.results]))


def encode_limits(limits: Limits) -> bytes:
    if limits.maximum is None:
        return b"\x00" + _u32(limits.minimum)
    return b"\x01" + _u32(limits.minimum) + _u32(limits.maximum)


def encode_globaltype(globaltype: GlobalType) -> bytes:
    return encode_valtype(globaltype.valtype) + (b"\x01" if globaltype.mutable else b"\x00")


def encode_tabletype(tabletype: TableType) -> bytes:
    return b"\x70" + encode_limits(tabletype.limits)  # 0x70 = funcref


def encode_instr(instr: Instr) -> bytes:
    """Encode a single instruction (opcode byte + immediates)."""
    op = opcodes.BY_NAME.get(instr.op)
    if op is None:
        raise EncodeError(f"unknown mnemonic {instr.op!r}")
    out = bytearray([op.byte])
    imm = op.imm
    if imm is opcodes.Imm.NONE:
        pass
    elif imm is opcodes.Imm.BLOCKTYPE:
        if instr.blocktype is None:
            out.append(EMPTY_BLOCKTYPE_BYTE)
        else:
            out.append(VALTYPE_TO_BYTE[instr.blocktype])
    elif imm is opcodes.Imm.LABEL:
        out += _u32(instr.label)
    elif imm is opcodes.Imm.BR_TABLE:
        table: BrTable = instr.br_table
        out += _vec([_u32(lbl) for lbl in table.labels])
        out += _u32(table.default)
    elif imm is opcodes.Imm.FUNC_IDX or imm is opcodes.Imm.LOCAL_IDX \
            or imm is opcodes.Imm.GLOBAL_IDX:
        out += _u32(instr.idx)
    elif imm is opcodes.Imm.TYPE_IDX:
        out += _u32(instr.idx)
        out.append(0x00)  # reserved table index
    elif imm is opcodes.Imm.MEMARG:
        memarg: MemArg = instr.memarg or MemArg()
        out += _u32(memarg.align) + _u32(memarg.offset)
    elif imm is opcodes.Imm.MEM_IDX:
        out.append(0x00)  # reserved memory index
    elif imm is opcodes.Imm.CONST_I32:
        out += leb128.encode_signed(to_signed(int(instr.value), 32))
    elif imm is opcodes.Imm.CONST_I64:
        out += leb128.encode_signed(to_signed(int(instr.value), 64))
    elif imm is opcodes.Imm.CONST_F32:
        out += struct.pack("<f", instr.value)
    elif imm is opcodes.Imm.CONST_F64:
        out += struct.pack("<d", instr.value)
    else:  # pragma: no cover - exhaustive
        raise EncodeError(f"unhandled immediate kind {imm}")
    return bytes(out)


# How encode_expr writes an instruction's immediate without encode_instr.
_NO_IMM, _IDX, _LABEL, _I32, _BLOCKTYPE, _MEM_IDX = range(6)
_SHORT_KIND = {
    opcodes.Imm.NONE: _NO_IMM, opcodes.Imm.FUNC_IDX: _IDX,
    opcodes.Imm.LOCAL_IDX: _IDX, opcodes.Imm.GLOBAL_IDX: _IDX,
    opcodes.Imm.LABEL: _LABEL, opcodes.Imm.CONST_I32: _I32,
    opcodes.Imm.BLOCKTYPE: _BLOCKTYPE, opcodes.Imm.MEM_IDX: _MEM_IDX,
}
#: Opcode byte and immediate kind of every mnemonic encode_expr writes itself.
_SHORT_FORMS: dict[str, tuple[int, int]] = {
    op.mnemonic: (op.byte, _SHORT_KIND[op.imm])
    for op in opcodes.BY_NAME.values() if op.imm in _SHORT_KIND
}
_BLOCKTYPE_BYTE = {None: EMPTY_BLOCKTYPE_BYTE, **VALTYPE_TO_BYTE}


def encode_expr(body: list[Instr], *, terminated: bool = False) -> bytes:
    """Encode an instruction sequence, appending ``end`` unless already present.

    Instructions without an immediate, block types, memory indices, and
    index, label and ``i32.const`` immediates that fit in one LEB128 byte
    are written here; everything else goes through :func:`encode_instr`.
    """
    out = bytearray()
    append = out.append
    short_forms = _SHORT_FORMS
    for instr in body:
        form = short_forms.get(instr.op)
        if form is not None:
            byte, kind = form
            if kind == _NO_IMM:
                append(byte)
                continue
            if kind == _IDX:
                value = instr.idx
                if type(value) is int and 0 <= value < 0x80:
                    append(byte)
                    append(value)
                    continue
            elif kind == _I32:
                value = instr.value
                if type(value) is int and -0x40 <= value < 0x40:
                    append(byte)
                    append(value & 0x7F)
                    continue
            elif kind == _LABEL:
                value = instr.label
                if type(value) is int and 0 <= value < 0x80:
                    append(byte)
                    append(value)
                    continue
            elif kind == _BLOCKTYPE:
                append(byte)
                append(_BLOCKTYPE_BYTE[instr.blocktype])
                continue
            else:  # _MEM_IDX
                append(byte)
                append(0x00)  # reserved memory index
                continue
        out += encode_instr(instr)
    if not terminated:
        append(0x0B)
    return bytes(out)


def _encode_import(imp: Import) -> bytes:
    out = _name(imp.module) + _name(imp.name)
    desc = imp.desc
    if isinstance(desc, int):
        return out + b"\x00" + _u32(desc)
    if isinstance(desc, TableType):
        return out + b"\x01" + encode_tabletype(desc)
    if isinstance(desc, MemoryType):
        return out + b"\x02" + encode_limits(desc.limits)
    if isinstance(desc, GlobalType):
        return out + b"\x03" + encode_globaltype(desc)
    raise EncodeError(f"bad import descriptor {desc!r}")


_EXPORT_KIND = {"func": 0, "table": 1, "memory": 2, "global": 3}


def _encode_export(export: Export) -> bytes:
    return _name(export.name) + bytes([_EXPORT_KIND[export.kind]]) + _u32(export.idx)


def _encode_global(glob: Global) -> bytes:
    return encode_globaltype(glob.type) + encode_expr(glob.init)


def _encode_elem(segment: ElemSegment) -> bytes:
    return (b"\x00" + encode_expr(segment.offset)
            + _vec([_u32(idx) for idx in segment.func_idxs]))


def _encode_data(segment: DataSegment) -> bytes:
    return (b"\x00" + encode_expr(segment.offset)
            + _u32(len(segment.data)) + segment.data)


def _encode_code(func: Function) -> bytes:
    # Run-length compress consecutive locals of the same type.
    groups: list[tuple[int, ValType]] = []
    for valtype in func.locals:
        if groups and groups[-1][1] == valtype:
            groups[-1] = (groups[-1][0] + 1, valtype)
        else:
            groups.append((1, valtype))
    body = _vec([_u32(count) + encode_valtype(t) for count, t in groups])
    body += encode_expr(func.body, terminated=_ends_with_end(func.body))
    return _u32(len(body)) + body


def _ends_with_end(body: list[Instr]) -> bool:
    return bool(body) and body[-1].op == "end"


def _section(section_id: int, payload: bytes) -> bytes:
    return bytes([section_id]) + _u32(len(payload)) + payload


def _name_section(module: Module) -> bytes | None:
    subsections = bytearray()
    if module.name is not None:
        subsections += b"\x00" + _u32(len(_name(module.name))) + _name(module.name)
    n_imported = module.num_imported_functions
    named = [(n_imported + i, f.name)
             for i, f in enumerate(module.functions) if f.name]
    if named:
        assoc = _vec([_u32(idx) + _name(name) for idx, name in named])
        subsections += b"\x01" + _u32(len(assoc)) + assoc
    if not subsections:
        return None
    payload = _name("name") + bytes(subsections)
    return _section(0, payload)


def encode_module(module: Module) -> bytes:
    """Serialize a :class:`Module` to a complete ``.wasm`` binary."""
    out = bytearray(MAGIC + VERSION)
    if module.types:
        out += _section(1, _vec([encode_functype(t) for t in module.types]))
    if module.imports:
        out += _section(2, _vec([_encode_import(i) for i in module.imports]))
    if module.functions:
        out += _section(3, _vec([_u32(f.type_idx) for f in module.functions]))
    if module.tables:
        out += _section(4, _vec([encode_tabletype(t) for t in module.tables]))
    if module.memories:
        out += _section(5, _vec([encode_limits(m.limits) for m in module.memories]))
    if module.globals:
        out += _section(6, _vec([_encode_global(g) for g in module.globals]))
    if module.exports:
        out += _section(7, _vec([_encode_export(e) for e in module.exports]))
    if module.start is not None:
        out += _section(8, _u32(module.start))
    if module.elements:
        out += _section(9, _vec([_encode_elem(e) for e in module.elements]))
    if module.functions:
        out += _section(10, _vec([_encode_code(f) for f in module.functions]))
    if module.data:
        out += _section(11, _vec([_encode_data(d) for d in module.data]))
    name_sec = _name_section(module)
    if name_sec:
        out += name_sec
    for custom in module.custom_sections:
        out += _section(0, _name(custom.name) + custom.payload)
    return bytes(out)
