"""Decoder for the WebAssembly binary format (spec 1.0 / MVP).

Parses complete ``.wasm`` binaries into :class:`repro.wasm.module.Module`,
including the function-name subsection of the name section. Unknown custom
sections are preserved verbatim so that re-encoding keeps them.
"""

from __future__ import annotations

import struct

from . import leb128, opcodes
from .errors import DecodeError
from .module import (BrTable, CustomSection, DataSegment, ElemSegment, Export,
                     Function, Global, Import, Instr, MemArg, Module)
from .encoder import MAGIC, VERSION
from .types import (BYTE_TO_VALTYPE, EMPTY_BLOCKTYPE_BYTE, FuncType,
                    GlobalType, Limits, MemoryType, TableType, ValType)


class _Reader:
    """Cursor over a byte buffer with primitive readers for the format."""

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def eof(self) -> bool:
        return self.pos >= self.end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise DecodeError("unexpected end of input", offset=self.pos)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def raw(self, count: int) -> bytes:
        if self.pos + count > self.end:
            raise DecodeError("unexpected end of input", offset=self.pos)
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u32(self) -> int:
        value, self.pos = leb128.decode_unsigned(self.data, self.pos, 32, self.end)
        return value

    def s32(self) -> int:
        value, self.pos = leb128.decode_signed(self.data, self.pos, 32, self.end)
        return value

    def s64(self) -> int:
        value, self.pos = leb128.decode_signed(self.data, self.pos, 64, self.end)
        return value

    def f32(self) -> float:
        return struct.unpack("<f", self.raw(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def name(self) -> str:
        length = self.u32()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"malformed UTF-8 name: {exc}", offset=self.pos) from None

    def valtype(self) -> ValType:
        byte = self.byte()
        try:
            return BYTE_TO_VALTYPE[byte]
        except KeyError:
            raise DecodeError(f"invalid value type byte {byte:#x}",
                              offset=self.pos - 1) from None

    def blocktype(self) -> ValType | None:
        byte = self.byte()
        if byte == EMPTY_BLOCKTYPE_BYTE:
            return None
        try:
            return BYTE_TO_VALTYPE[byte]
        except KeyError:
            raise DecodeError(f"invalid block type byte {byte:#x}",
                              offset=self.pos - 1) from None

    def limits(self) -> Limits:
        offset = self.pos
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            minimum = self.u32()
            maximum = self.u32()
            try:
                return Limits(minimum, maximum)
            except ValueError as exc:
                # Limits' own sanity check (max < min) is a ValueError for
                # programmatic construction; from binary input it must
                # surface as a malformed-module error
                raise DecodeError(str(exc), offset=offset) from None
        raise DecodeError(f"invalid limits flag {flag:#x}", offset=self.pos - 1)


def decode_instr(reader: _Reader) -> Instr:
    """Decode a single instruction at the reader's cursor."""
    offset = reader.pos
    byte = reader.byte()
    op = opcodes.BY_BYTE.get(byte)
    if op is None:
        raise DecodeError(f"unknown opcode byte {byte:#04x}", offset=offset)
    imm = op.imm
    if imm is opcodes.Imm.NONE:
        return Instr(op.mnemonic)
    if imm is opcodes.Imm.BLOCKTYPE:
        return Instr(op.mnemonic, blocktype=reader.blocktype())
    if imm is opcodes.Imm.LABEL:
        return Instr(op.mnemonic, label=reader.u32())
    if imm is opcodes.Imm.BR_TABLE:
        count = reader.u32()
        labels = tuple(reader.u32() for _ in range(count))
        return Instr(op.mnemonic, br_table=BrTable(labels, reader.u32()))
    if imm in (opcodes.Imm.FUNC_IDX, opcodes.Imm.LOCAL_IDX, opcodes.Imm.GLOBAL_IDX):
        return Instr(op.mnemonic, idx=reader.u32())
    if imm is opcodes.Imm.TYPE_IDX:
        type_idx = reader.u32()
        reserved = reader.byte()
        if reserved != 0x00:
            raise DecodeError("call_indirect reserved byte must be zero", offset=offset)
        return Instr(op.mnemonic, idx=type_idx)
    if imm is opcodes.Imm.MEMARG:
        align = reader.u32()
        return Instr(op.mnemonic, memarg=MemArg(align, reader.u32()))
    if imm is opcodes.Imm.MEM_IDX:
        reserved = reader.byte()
        if reserved != 0x00:
            raise DecodeError("memory instruction reserved byte must be zero", offset=offset)
        return Instr(op.mnemonic)
    if imm is opcodes.Imm.CONST_I32:
        return Instr(op.mnemonic, value=reader.s32())
    if imm is opcodes.Imm.CONST_I64:
        return Instr(op.mnemonic, value=reader.s64())
    if imm is opcodes.Imm.CONST_F32:
        return Instr(op.mnemonic, value=reader.f32())
    if imm is opcodes.Imm.CONST_F64:
        return Instr(op.mnemonic, value=reader.f64())
    raise DecodeError(f"unhandled immediate kind {imm}", offset=offset)  # pragma: no cover


#: Opcodes whose common encodings :func:`decode_expr` looks up instead of
#: decoding: 1 for no immediate, 2 for one immediate that may fit in the
#: single byte after the opcode (a one-byte LEB128, a block type, or the
#: reserved memory index).
_SHORT_LENGTH: dict[int, int] = {
    op.byte: 1 if op.imm is opcodes.Imm.NONE else 2
    for op in opcodes.BY_BYTE.values()
    if op.imm in (opcodes.Imm.NONE, opcodes.Imm.BLOCKTYPE, opcodes.Imm.LABEL,
                  opcodes.Imm.FUNC_IDX, opcodes.Imm.LOCAL_IDX,
                  opcodes.Imm.GLOBAL_IDX, opcodes.Imm.MEM_IDX,
                  opcodes.Imm.CONST_I32, opcodes.Imm.CONST_I64)
}
#: The opcodes of :data:`_SHORT_LENGTH` whose immediate is a LEB128
#: integer, looked up also when it takes two bytes.
_TWO_BYTE_LEB = frozenset(
    op.byte for op in opcodes.BY_BYTE.values()
    if op.imm in (opcodes.Imm.LABEL, opcodes.Imm.FUNC_IDX,
                  opcodes.Imm.LOCAL_IDX, opcodes.Imm.GLOBAL_IDX,
                  opcodes.Imm.CONST_I32, opcodes.Imm.CONST_I64))

#: Shared instructions keyed by their encoding: ``byte`` for no immediate,
#: ``byte << 8 | next`` for one-byte immediates, ``byte << 16 | next << 8 |
#: last`` for two-byte LEB128 immediates. Entries are filled from
#: :func:`decode_instr` on first sight: one-byte forms always (at most 128
#: per opcode), two-byte forms only while the table holds fewer than
#: :data:`_INTERN_LIMIT` entries, so a long-lived process keeps it bounded.
_INTERNED: dict[int, Instr] = {
    op.byte: Instr(op.mnemonic)
    for op in opcodes.BY_BYTE.values() if op.imm is opcodes.Imm.NONE
}
_INTERN_LIMIT = 1 << 14

_BLOCK_START_BYTES = frozenset(op.byte for op in opcodes.BY_BYTE.values()
                               if op.is_block_start)
_END = _INTERNED[opcodes.BY_NAME["end"].byte]


def decode_expr(reader: _Reader) -> list[Instr]:
    """Decode instructions up to and including the matching top-level ``end``.

    The returned list *excludes* the final ``end`` (it is implicit for
    initializer expressions, and function bodies re-append it). Common
    encodings (see :data:`_SHORT_LENGTH` and :data:`_TWO_BYTE_LEB`) are
    looked up and shared; every other instruction goes through
    :func:`decode_instr`.
    """
    data, end = reader.data, reader.end
    pos = reader.pos
    instrs: list[Instr] = []
    interned = _INTERNED
    depth = 0
    while True:
        byte = data[pos] if pos < end else None
        length = _SHORT_LENGTH.get(byte)
        instr = None
        if length == 1:
            instr = interned[byte]
            pos += 1
        elif length == 2 and pos + 1 < end:
            first = data[pos + 1]
            if first < 0x80:
                key = byte << 8 | first
                instr = interned.get(key)
                if instr is None:
                    reader.pos = pos
                    instr = interned[key] = decode_instr(reader)
                pos += 2
            elif (pos + 2 < end and data[pos + 2] < 0x80
                    and byte in _TWO_BYTE_LEB):
                key = byte << 16 | first << 8 | data[pos + 2]
                instr = interned.get(key)
                if instr is None:
                    reader.pos = pos
                    instr = decode_instr(reader)
                    if len(interned) < _INTERN_LIMIT:
                        interned[key] = instr
                pos += 3
        if instr is None:
            reader.pos = pos
            instr = decode_instr(reader)
            pos = reader.pos
        if instr is _END:
            if depth == 0:
                reader.pos = pos
                return instrs
            depth -= 1
        elif byte in _BLOCK_START_BYTES:
            depth += 1
        instrs.append(instr)


def _decode_import(reader: _Reader) -> Import:
    module = reader.name()
    name = reader.name()
    kind = reader.byte()
    if kind == 0x00:
        return Import(module, name, reader.u32())
    if kind == 0x01:
        elem = reader.byte()
        if elem != 0x70:
            raise DecodeError(f"invalid table element type {elem:#x}")
        return Import(module, name, TableType(reader.limits()))
    if kind == 0x02:
        return Import(module, name, MemoryType(reader.limits()))
    if kind == 0x03:
        valtype = reader.valtype()
        mutable = reader.byte() == 0x01
        return Import(module, name, GlobalType(valtype, mutable))
    raise DecodeError(f"invalid import kind {kind:#x}")


_EXPORT_KIND = {0: "func", 1: "table", 2: "memory", 3: "global"}


def _decode_code(reader: _Reader, type_idx: int) -> Function:
    size = reader.u32()
    body_end = reader.pos + size
    if body_end > reader.end:
        raise DecodeError(f"function body size {size} extends past its section",
                          offset=reader.pos)
    sub = _Reader(reader.data, reader.pos, body_end)
    locals_: list[ValType] = []
    for _ in range(sub.u32()):
        count = sub.u32()
        valtype = sub.valtype()
        # cap the *total*, not just each entry: many entries of large counts
        # in a tiny body must not balloon into gigabytes of locals
        if count > 1_000_000 or len(locals_) + count > 1_000_000:
            raise DecodeError(f"too many locals ({count})", offset=sub.pos)
        locals_.extend([valtype] * count)
    body = decode_expr(sub)
    body.append(_END)
    if not sub.eof():
        raise DecodeError("trailing bytes after function body", offset=sub.pos)
    reader.pos = body_end
    return Function(type_idx=type_idx, locals=locals_, body=body)


def _decode_name_section(module: Module, payload: bytes) -> None:
    reader = _Reader(payload)
    while not reader.eof():
        sub_id = reader.byte()
        size = reader.u32()
        if reader.pos + size > reader.end:
            raise DecodeError("name subsection extends past the section",
                              offset=reader.pos)
        sub = _Reader(reader.data, reader.pos, reader.pos + size)
        reader.pos += size
        if sub_id == 0:  # module name
            module.name = sub.name()
        elif sub_id == 1:  # function names
            n_imported = module.num_imported_functions
            for _ in range(sub.u32()):
                func_idx = sub.u32()
                name = sub.name()
                defined = func_idx - n_imported
                if 0 <= defined < len(module.functions):
                    module.functions[defined].name = name
        # other subsections (locals, …) are ignored


def decode_module(data: bytes) -> Module:
    """Parse a complete ``.wasm`` binary into a :class:`Module`."""
    if data[:4] != MAGIC:
        raise DecodeError("missing \\0asm magic number", offset=0)
    if data[4:8] != VERSION:
        raise DecodeError(f"unsupported version {data[4:8]!r}", offset=4)
    reader = _Reader(data, 8)
    module = Module()
    func_type_idxs: list[int] = []
    last_section = 0
    while not reader.eof():
        section_id = reader.byte()
        size = reader.u32()
        if reader.pos + size > len(data):
            raise DecodeError(f"section {section_id} extends past end of binary",
                              offset=reader.pos)
        section = _Reader(reader.data, reader.pos, reader.pos + size)
        reader.pos += size
        if section_id != 0:
            if section_id <= last_section:
                raise DecodeError(f"section {section_id} out of order", offset=section.pos)
            if section_id > 11:
                raise DecodeError(f"unknown section id {section_id}", offset=section.pos)
            last_section = section_id
        if section_id == 0:
            # consumed whole: the payload is kept as the rest of the section
            name = section.name()
            payload = section.raw(section.end - section.pos)
            if name == "name":
                # Defer: function indices need the import count, which is
                # known by now (imports precede code), so decode immediately.
                # A malformed name section must not reject the module (the
                # spec treats custom-section contents as best-effort): keep
                # it verbatim instead so re-encoding round-trips.
                try:
                    _decode_name_section(module, payload)
                except DecodeError:
                    module.custom_sections.append(CustomSection(name, payload))
            else:
                module.custom_sections.append(CustomSection(name, payload))
        elif section_id == 1:
            for _ in range(section.u32()):
                marker = section.byte()
                if marker != 0x60:
                    raise DecodeError(f"invalid functype marker {marker:#x}")
                params = tuple(section.valtype() for _ in range(section.u32()))
                results = tuple(section.valtype() for _ in range(section.u32()))
                module.types.append(FuncType(params, results))
        elif section_id == 2:
            for _ in range(section.u32()):
                module.imports.append(_decode_import(section))
        elif section_id == 3:
            func_type_idxs = [section.u32() for _ in range(section.u32())]
        elif section_id == 4:
            for _ in range(section.u32()):
                elem = section.byte()
                if elem != 0x70:
                    raise DecodeError(f"invalid table element type {elem:#x}")
                module.tables.append(TableType(section.limits()))
        elif section_id == 5:
            for _ in range(section.u32()):
                module.memories.append(MemoryType(section.limits()))
        elif section_id == 6:
            for _ in range(section.u32()):
                valtype = section.valtype()
                mutable = section.byte() == 0x01
                init = decode_expr(section)
                module.globals.append(Global(GlobalType(valtype, mutable), init))
        elif section_id == 7:
            for _ in range(section.u32()):
                name = section.name()
                kind_byte = section.byte()
                if kind_byte not in _EXPORT_KIND:
                    raise DecodeError(f"invalid export kind {kind_byte:#x}")
                module.exports.append(Export(name, _EXPORT_KIND[kind_byte], section.u32()))
        elif section_id == 8:
            module.start = section.u32()
        elif section_id == 9:
            for _ in range(section.u32()):
                flag = section.byte()
                if flag != 0x00:
                    raise DecodeError(f"unsupported element segment flag {flag:#x}")
                offset = decode_expr(section)
                func_idxs = [section.u32() for _ in range(section.u32())]
                module.elements.append(ElemSegment(offset, func_idxs))
        elif section_id == 10:
            count = section.u32()
            if count != len(func_type_idxs):
                raise DecodeError(
                    f"code section has {count} bodies but function section "
                    f"declares {len(func_type_idxs)}")
            for type_idx in func_type_idxs:
                module.functions.append(_decode_code(section, type_idx))
        elif section_id == 11:
            for _ in range(section.u32()):
                flag = section.byte()
                if flag != 0x00:
                    raise DecodeError(f"unsupported data segment flag {flag:#x}")
                offset = decode_expr(section)
                length = section.u32()
                module.data.append(DataSegment(offset, section.raw(length)))
        if not section.eof():
            raise DecodeError(f"section {section_id} has {section.end - section.pos} "
                              f"trailing byte(s)", offset=section.pos)
    if func_type_idxs and not module.functions:
        raise DecodeError("function section without code section")
    return module
