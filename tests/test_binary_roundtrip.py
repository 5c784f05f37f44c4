"""Binary format: encode/decode units plus whole-module roundtrip properties."""

import hashlib
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.instrument import InstrumentationConfig
from repro.eval.timing import instrument_binary
from repro.wasm import (DecodeError, Instr, Limits, Module, decode_module,
                        encode_module, opcodes, validate_module)
from repro.wasm.builder import ModuleBuilder
from repro.wasm.decoder import _Reader, decode_expr, decode_instr
from repro.wasm.encoder import MAGIC, VERSION, encode_expr, encode_instr
from repro.wasm.leb128 import encode_signed, encode_unsigned
from repro.wasm.module import BrTable, MemArg
from repro.wasm.types import F32, F64, I32, I64, FuncType, GlobalType
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names
from repro.workloads.spec_corpus import corpus


def roundtrip(module: Module) -> bytes:
    raw = encode_module(module)
    decoded = decode_module(raw)
    raw2 = encode_module(decoded)
    assert raw == raw2, "re-encoding after decode changed the binary"
    return raw


class TestInstrEncoding:
    def assert_instr_roundtrip(self, instr: Instr):
        raw = encode_instr(instr)
        decoded = decode_instr(_Reader(raw))
        assert encode_instr(decoded) == raw

    def test_simple(self):
        self.assert_instr_roundtrip(Instr("i32.add"))

    def test_const_immediates(self):
        for instr in [Instr("i32.const", value=-42),
                      Instr("i64.const", value=1 << 62),
                      Instr("f32.const", value=1.5),
                      Instr("f64.const", value=-2.25)]:
            self.assert_instr_roundtrip(instr)

    def test_memarg(self):
        self.assert_instr_roundtrip(Instr("f64.load", memarg=MemArg(3, 4096)))

    def test_br_table(self):
        self.assert_instr_roundtrip(
            Instr("br_table", br_table=BrTable((0, 1, 5), 2)))

    def test_block_types(self):
        for bt in [None, I32, I64, F32, F64]:
            self.assert_instr_roundtrip(Instr("block", blocktype=bt))

    def test_call_indirect_reserved_byte(self):
        raw = encode_instr(Instr("call_indirect", idx=3))
        assert raw[-1] == 0x00
        broken = raw[:-1] + b"\x01"
        with pytest.raises(DecodeError):
            decode_instr(_Reader(broken))

    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_i32_const_roundtrip(self, value):
        decoded = decode_instr(_Reader(encode_instr(Instr("i32.const", value=value))))
        assert decoded.value == value

    @given(st.floats(allow_nan=False, width=32))
    def test_f32_const_roundtrip(self, value):
        decoded = decode_instr(_Reader(encode_instr(Instr("f32.const", value=value))))
        assert decoded.value == value


class TestModuleStructure:
    def test_header(self, add_module):
        raw = encode_module(add_module)
        assert raw.startswith(MAGIC + VERSION)

    def test_bad_magic_rejected(self):
        with pytest.raises(DecodeError):
            decode_module(b"\x00nope\x01\x00\x00\x00")

    def test_bad_version_rejected(self):
        with pytest.raises(DecodeError):
            decode_module(MAGIC + b"\x02\x00\x00\x00")

    def test_sections_out_of_order_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), (I32,))
        fb.i32_const(7)
        fb.finish()
        raw = bytearray(encode_module(builder.build()))
        # find the type section (id=1) and function section (id=3); swap ids
        # crudely by duplicating a later section id earlier: simplest is to
        # append an out-of-order section at the end
        raw += bytes([1, 1, 0])  # empty type section after code section
        with pytest.raises(DecodeError):
            decode_module(bytes(raw))

    def test_roundtrip_preserves_names(self, fib_module):
        raw = encode_module(fib_module)
        decoded = decode_module(raw)
        assert decoded.name == "fib"
        assert decoded.functions[0].name == "fib"

    def test_roundtrip_preserves_custom_sections(self, add_module):
        from repro.wasm.module import CustomSection
        add_module.custom_sections.append(CustomSection("vendor", b"\x01\x02"))
        decoded = decode_module(encode_module(add_module))
        assert decoded.custom_sections == [CustomSection("vendor", b"\x01\x02")]

    def test_imports_globals_table_memory(self):
        builder = ModuleBuilder("full")
        builder.import_function("env", "f", FuncType((I64,), (F64,)))
        builder.import_memory("env", "mem", Limits(1, 10))
        builder.import_global("env", "g", GlobalType(I32, mutable=False))
        builder.add_global(F64, mutable=True, init=3.5, export="gg")
        builder.add_table(4, 8)
        fb = builder.function((), (), name="t", export="t")
        fb.emit("nop")
        fb.finish()
        builder.add_element(1, [fb.func_idx])
        module = builder.build()
        decoded = decode_module(roundtrip(module))
        assert decoded.num_imported_functions == 1
        assert len(decoded.imported_memories()) == 1
        assert len(decoded.imported_globals()) == 1
        assert decoded.tables[0].limits == Limits(4, 8)
        assert decoded.elements[0].func_idxs == [1]

    def test_data_segments(self):
        builder = ModuleBuilder()
        builder.add_memory(1)
        builder.add_data(16, b"hello wasm")
        decoded = decode_module(roundtrip(builder.build()))
        assert decoded.data[0].data == b"hello wasm"

    def test_start_section(self):
        builder = ModuleBuilder()
        glob = builder.add_global(I32, mutable=True, init=0)
        fb = builder.function((), (), name="init")
        fb.i32_const(1).set_global(glob)
        fb.finish()
        builder.set_start(fb.func_idx)
        decoded = decode_module(roundtrip(builder.build()))
        assert decoded.start == 0

    def test_truncated_binary_rejected(self, fib_module):
        raw = encode_module(fib_module)
        with pytest.raises(DecodeError):
            decode_module(raw[:len(raw) - 3])


# one type [] -> [], one function of that type, and its body (just end)
_TYPES = b"\x01\x04\x01\x60\x00\x00"
_FUNC = b"\x03\x02\x01\x00"
_CODE = b"\x0a\x04\x01\x02\x00\x0b"


class TestSectionBounds:
    """Every read stays inside its section (and function body)."""

    def test_well_formed_parts_decode(self):
        module = decode_module(MAGIC + VERSION + _TYPES + _FUNC + _CODE)
        assert len(module.functions) == 1

    def test_trailing_byte_in_section_rejected(self):
        with pytest.raises(DecodeError, match="trailing"):
            decode_module(MAGIC + VERSION + _TYPES + b"\x03\x03\x01\x00\xff" + _CODE)

    def test_start_index_cannot_run_past_its_section(self):
        # the LEB128 continuation bit would read the code section's id
        with pytest.raises(DecodeError):
            decode_module(MAGIC + VERSION + _TYPES + _FUNC + b"\x08\x01\x80" + _CODE)

    def test_immediate_cannot_run_into_the_next_body(self):
        # body 1 = [no locals, i32.const 0x80 …] ends mid-LEB; body 2 follows
        func = b"\x03\x03\x02\x00\x00"
        code = b"\x0a\x08\x02\x03\x00\x41\x80\x02\x00\x0b"
        with pytest.raises(DecodeError):
            decode_module(MAGIC + VERSION + _TYPES + func + code)

    def test_opcode_at_body_end_does_not_read_on(self):
        # body 1 = [no locals, get_local] — its index byte would be body 2's size
        func = b"\x03\x03\x02\x00\x00"
        code = b"\x0a\x07\x02\x02\x00\x20\x02\x00\x0b"
        with pytest.raises(DecodeError):
            decode_module(MAGIC + VERSION + _TYPES + func + code)


class TestCorpusRoundtrip:
    """Whole-program roundtrips over every workload family."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_polybench_roundtrip(self, name):
        module = compile_kernel(name)
        decoded = decode_module(roundtrip(module))
        validate_module(decoded)
        assert decoded.instruction_count() == module.instruction_count()

    def test_synthetic_roundtrip(self):
        for module in (engine_demo(), pdf_toolkit()):
            decoded = decode_module(roundtrip(module))
            validate_module(decoded)

    def test_spec_corpus_roundtrip(self):
        for program in corpus()[:40]:
            roundtrip(program.module)


_U32_BOUNDARY = [0, 1, 63, 64, 127, 128, 255, 8191, 8192, 16383, 16384,
                 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1]
_S_BOUNDARY = [0, 1, -1, 63, 64, -64, -65, 127, 128, -128, -129,
               -8193, -8192, 8191, 8192, 2 ** 31 - 1, -2 ** 31]


def _leb_variants(value: int, signed: bool) -> list[bytes]:
    """Canonical LEB128 of ``value`` plus redundant (padded) forms."""
    canonical = encode_signed(value) if signed else encode_unsigned(value)
    pad = 0x7F if signed and value < 0 else 0x00
    redundant = bytes([canonical[-1] | 0x80])
    return [canonical,
            canonical[:-1] + redundant + bytes([pad]),
            canonical[:-1] + redundant + bytes([pad | 0x80, pad])]


@st.composite
def encoded_instruction(draw):
    """Raw bytes of one instruction, every opcode, boundary immediates."""
    op = draw(st.sampled_from(sorted(opcodes.BY_BYTE.values(), key=lambda o: o.byte)))
    imm = op.imm
    Imm = opcodes.Imm
    uleb = st.sampled_from(_U32_BOUNDARY).flatmap(
        lambda v: st.sampled_from(_leb_variants(v, signed=False)))
    if imm is Imm.NONE:
        tail = b""
    elif imm is Imm.BLOCKTYPE:
        tail = bytes([draw(st.sampled_from([0x40, 0x7F, 0x7E, 0x7D, 0x7C, 0x00, 0x80]))])
    elif imm in (Imm.LABEL, Imm.FUNC_IDX, Imm.LOCAL_IDX, Imm.GLOBAL_IDX):
        tail = draw(uleb)
    elif imm is Imm.BR_TABLE:
        labels = draw(st.lists(uleb, max_size=3))
        tail = encode_unsigned(len(labels)) + b"".join(labels) + draw(uleb)
    elif imm is Imm.TYPE_IDX:
        tail = draw(uleb) + bytes([draw(st.sampled_from([0x00, 0x01]))])
    elif imm is Imm.MEMARG:
        tail = draw(uleb) + draw(uleb)
    elif imm is Imm.MEM_IDX:
        tail = bytes([draw(st.sampled_from([0x00, 0x01, 0x80]))])
    elif imm in (Imm.CONST_I32, Imm.CONST_I64):
        values = _S_BOUNDARY + ([2 ** 63 - 1, -2 ** 63] if imm is Imm.CONST_I64 else [])
        value = draw(st.sampled_from(values))
        tail = draw(st.sampled_from(_leb_variants(value, signed=True)))
    else:  # float constants: raw bit patterns
        width = 4 if imm is Imm.CONST_F32 else 8
        tail = draw(st.binary(min_size=width, max_size=width))
    # cut some encodings short to exercise the end-of-input bound
    cut = draw(st.integers(min_value=0, max_value=min(2, len(tail))))
    return bytes([op.byte]) + tail[:len(tail) - cut]


def _reference_expr(reader: _Reader) -> list[Instr]:
    """decode_expr as a plain decode_instr loop: the fast path's oracle."""
    instrs: list[Instr] = []
    depth = 0
    while True:
        instr = decode_instr(reader)
        if instr.op == "end":
            if depth == 0:
                return instrs
            depth -= 1
        elif instr.info.is_block_start:
            depth += 1
        instrs.append(instr)


def _expr_outcome(decode, data: bytes, end: int):
    reader = _Reader(data, 0, end)
    try:
        return decode(reader), reader.pos
    except DecodeError:
        return DecodeError


def _same_instr(a: Instr, b: Instr) -> bool:
    """Field equality that also tells -0.0 from 0.0 and NaN payloads apart."""
    if a.op in ("f32.const", "f64.const") and b.op == a.op:
        fmt = "<f" if a.op == "f32.const" else "<d"
        return struct.pack(fmt, a.value) == struct.pack(fmt, b.value)
    return a == b


def _same_outcome(a, b) -> bool:
    if a is DecodeError or b is DecodeError:
        return a is b
    (instrs_a, pos_a), (instrs_b, pos_b) = a, b
    return pos_a == pos_b and len(instrs_a) == len(instrs_b) and all(
        _same_instr(x, y) for x, y in zip(instrs_a, instrs_b))


class TestFastPathDifferential:
    """decode_expr/encode_expr look common instructions up from tables;
    they must agree with the general decode_instr/encode_instr."""

    @settings(max_examples=600, deadline=None)
    @given(encoded_instruction(),
           st.sampled_from([b"", b"\x0b", b"\x0b\x0b", b"\x41\x05\x0b\x0b"]),
           st.integers(min_value=0, max_value=2))
    def test_decode_expr_agrees_with_decode_instr(self, raw, trailer, early_end):
        data = raw + trailer
        # the reader's end bound may cut the trailer (or the instruction) off
        end = max(1, len(data) - early_end)
        fast = _expr_outcome(decode_expr, data, end)
        assert _same_outcome(fast, _expr_outcome(_reference_expr, data, end))
        # an instruction decoded again hits the shared (interned) entry
        assert _same_outcome(_expr_outcome(decode_expr, data, end), fast)

    @settings(max_examples=600, deadline=None)
    @given(encoded_instruction())
    def test_encode_expr_agrees_with_encode_instr(self, raw):
        try:
            instr = decode_instr(_Reader(raw))
        except DecodeError:
            return
        assert encode_expr([instr], terminated=True) == encode_instr(instr)
        assert encode_expr([instr]) == encode_instr(instr) + b"\x0b"

    @pytest.mark.parametrize("op", sorted(opcodes.BY_NAME))
    def test_every_opcode_at_boundary_immediates(self, op):
        info = opcodes.BY_NAME[op]
        Imm = opcodes.Imm
        if info.imm in (Imm.LABEL,):
            instrs = [Instr(op, label=v) for v in _U32_BOUNDARY]
        elif info.imm in (Imm.FUNC_IDX, Imm.LOCAL_IDX, Imm.GLOBAL_IDX, Imm.TYPE_IDX):
            instrs = [Instr(op, idx=v) for v in _U32_BOUNDARY]
        elif info.imm in (Imm.CONST_I32, Imm.CONST_I64):
            # unsigned spellings wrap to the same signed immediate
            instrs = [Instr(op, value=v) for v in _S_BOUNDARY + [2 ** 32 - 1, 2 ** 31]]
        elif info.imm in (Imm.CONST_F32, Imm.CONST_F64):
            instrs = [Instr(op, value=v) for v in (0.0, -0.0, 1.5, -2.0, math.inf, math.nan)]
        elif info.imm is Imm.BLOCKTYPE:
            instrs = [Instr(op, blocktype=bt) for bt in (None, I32, I64, F32, F64)]
        elif info.imm is Imm.BR_TABLE:
            instrs = [Instr(op, br_table=BrTable((0, 63, 64, 128), 127))]
        elif info.imm is Imm.MEMARG:
            instrs = [Instr(op, memarg=MemArg(a, o)) for a in (0, 3) for o in (0, 127, 128)]
        else:
            instrs = [Instr(op)]
        for instr in instrs:
            raw = encode_instr(instr)
            assert encode_expr([instr], terminated=True) == raw
            if op == "end":
                continue
            ends = b"\x0b\x0b" if info.is_block_start else b"\x0b"
            assert encode_expr(decode_expr(_Reader(raw + ends))[:1],
                               terminated=True) == raw
            assert _same_instr(decode_expr(_Reader(raw + ends))[0],
                               decode_instr(_Reader(raw)))

    @pytest.mark.parametrize("op", sorted(
        op.mnemonic for op in opcodes.BY_NAME.values()
        if op.imm in (opcodes.Imm.LABEL, opcodes.Imm.FUNC_IDX,
                      opcodes.Imm.LOCAL_IDX, opcodes.Imm.GLOBAL_IDX,
                      opcodes.Imm.CONST_I32, opcodes.Imm.CONST_I64)))
    def test_two_byte_and_redundant_immediates(self, op):
        info = opcodes.BY_NAME[op]
        signed = info.imm in (opcodes.Imm.CONST_I32, opcodes.Imm.CONST_I64)
        values = _S_BOUNDARY if signed else _U32_BOUNDARY
        # every value up to three LEB128 bytes, canonical and padded
        # (``0x80 0x00`` is zero in two bytes)
        encodings = [leb for value in values
                     for leb in _leb_variants(value, signed) if len(leb) <= 3]
        assert b"\x80\x00" in encodings
        assert {len(leb) for leb in encodings} == {1, 2, 3}
        for leb in encodings:
            raw = bytes([info.byte]) + leb
            plain = decode_instr(_Reader(raw))
            for _ in range(2):  # first sight, then the shared entry
                (fast,) = decode_expr(_Reader(raw + b"\x0b"))
                assert _same_instr(fast, plain)
            assert encode_expr([plain], terminated=True) == encode_instr(plain)

    def test_two_byte_interning_is_bounded(self, monkeypatch):
        from repro.wasm import decoder
        limit = len(decoder._INTERNED) + 10
        monkeypatch.setattr(decoder, "_INTERN_LIMIT", limit)
        for value in range(1000, 1100):
            raw = bytes([0x41]) + encode_signed(value) + b"\x0b"
            assert decode_expr(_Reader(raw))[0].value == value
        assert len(decoder._INTERNED) <= limit


#: SHA-256 of the instrumented bytes (decode, instrument every hook group,
#: encode) of each program. Any change to the decoder, instrumenter or
#: encoder that moves one output byte shows up here.
INSTRUMENTED_DIGESTS = {
    "pdf_toolkit":
        "6eb8f2ddc5adc5eb4dda19d95e3e71f509479b4e30c0eb4b4393d8504ff7791a",
    "engine_demo":
        "d245322defb48907612fd889de8f0698d1b86fdb211a1c143e45402612395fa7",
    "polybench/2mm":
        "701ca8f17d4ebbc5dd3aa123da3eede273042d968528e7960363d2130abc81f4",
    "polybench/3mm":
        "519e66476c76cdbdc897cf74b24fe6059f57b504e463cff1ce5379c2afcefe35",
    "polybench/adi":
        "c6b4f33756d5a8d8375afa89c89b61cc5b0c2e7e9516d72aeb1f268474613bca",
    "polybench/atax":
        "a1286c96aeef14557a8d7dd529df27b7c1753ffda14c5a5ec6916e64b4678770",
    "polybench/bicg":
        "311434ebaddd5a5feec26c63d223c64fe3d574c1e0d422beaf4074d4337ca559",
    "polybench/cholesky":
        "942e215477a357ea5d1e4944c1dec54624906851b50bf4fa92ebbc9755ef35ba",
    "polybench/correlation":
        "1c96a0a0c33656e334e747ba24d877274f893844ede6d03f5520717dd83b55f8",
    "polybench/covariance":
        "ef0822d0d6a87e28cea25f64e72f15f690d4b68bfd245a1e7d61a8d201d9e904",
    "polybench/deriche":
        "12364e8442d670cca1b30be9b101d7f8783be4e2818f41c9c4d03606248f618a",
    "polybench/doitgen":
        "bac4db8d16a508e8ec7efaa1025b246e2a65a3fb2c9823559b21d70eeb88362a",
    "polybench/durbin":
        "6b766232fad10a77667f6bd5d54d4bd441e4d73d13c8b4ebf9a7c7d1ec9fa0e3",
    "polybench/fdtd-2d":
        "6685bdb5cbee7cc30ec54b265700bb718495e3c5171adab3178fb6657715fedd",
    "polybench/floyd-warshall":
        "36a70ed805a67276b6721dabd223afd51c27eb3cfe7fd918ea3aeb16a50b169d",
    "polybench/gemm":
        "016d5994e50cb971f52d641236f6a3c8fe24717e32b6da6f60191f140615fd6e",
    "polybench/gemver":
        "d123e288f22d54e4116720ac01b428a0c3172d07f456ae0bb4d752a031416cb1",
    "polybench/gesummv":
        "66bd795f1531523185a7166de7fa338df7eebc733532f34ec9485ce2c6fe69a0",
    "polybench/gramschmidt":
        "9ffb8d8f9b561e1dfdb8a10a57a730a31b80ad4382250727362724b9e5372b76",
    "polybench/heat-3d":
        "01610f5625a6c2f6149db6146c3fce02a05725450defc17d2bae1bd4fa747d78",
    "polybench/jacobi-1d":
        "96826ca5a10ddd85103a1acb395400a05608a91945234d400baf01d62a413f29",
    "polybench/jacobi-2d":
        "e39817380e9d816b29e45f9c1732a6542893e6107bcf1c68242be2d1e974293c",
    "polybench/lu":
        "da75b0c1935570d7bc6876cc92b859e469c1c1d4f13d2ab2610757e927b5633b",
    "polybench/ludcmp":
        "125f0b59422e219fd3e1f586b36b12b7c944039eaf3820124714a910e928b76d",
    "polybench/mvt":
        "c789adf3d04db1c97c3c423f6df39d35e481ff4d581e21735628d829ea4150a8",
    "polybench/nussinov":
        "7c8998bb8546ba2d9c475c6be553b468b6d6b2940f96026c5c8798e3008bde7d",
    "polybench/seidel-2d":
        "0f068887b54045aeebe2dfe47ca8cc4ad27f7c7956bf9751aa193587cdf1e989",
    "polybench/symm":
        "ee42ba9c0136c3523f61c6587739970c98d3c4e6110c1107e158dd350d285d18",
    "polybench/syr2k":
        "617a5ee7cc33faa1839511b0a9a88c5085bee03f2120e2713cb1a9c5d6bc950c",
    "polybench/syrk":
        "23f9f89c4fe6856123787b812f8969971cc8423337e936088c1247f0f1a89839",
    "polybench/trisolv":
        "efef7710049a9227c2878d124b824e668cd240d104b10001f7825d9a2a801b9a",
    "polybench/trmm":
        "8ecab0b6e12ac4c974b1b96832a783dc8d7cc1aa1f832b24063b93010d237c46",
}


def _instrument_inputs():
    yield "pdf_toolkit", lambda: pdf_toolkit(1.0)
    yield "engine_demo", lambda: engine_demo(2.0)
    for name in kernel_names():
        yield f"polybench/{name}", lambda name=name: compile_kernel(name)


class TestInstrumentedBytesPinned:
    @pytest.mark.parametrize("name,build", list(_instrument_inputs()),
                             ids=[name for name, _ in _instrument_inputs()])
    def test_digest(self, name, build):
        out = instrument_binary(encode_module(build()))
        assert hashlib.sha256(out).hexdigest() == INSTRUMENTED_DIGESTS[name]
        assert encode_module(decode_module(out)) == out

    def test_every_program_is_pinned(self):
        assert sorted(name for name, _ in _instrument_inputs()) == \
            sorted(INSTRUMENTED_DIGESTS)


#: SHA-256 of the instrumented bytes under selective instrumentation, for
#: three group sets on one real-world stand-in and one PolyBench kernel.
SELECTIVE_DIGESTS = {
    (("call", "return"), "pdf_toolkit"):
        "f8595f7c5fed6d36b6d90e5c4c38da30e0a265d2824c67bfe7b93dc73e14f7e1",
    (("call", "return"), "polybench/gemm"):
        "dc604da78f55755083a450bdeef93f42cafef4b211182dd9337283395ba06456",
    (("load", "store"), "pdf_toolkit"):
        "b44fb7aa3676b57c8554890db2eebfde803d2a01b1b3aa6e34a96510625fffa7",
    (("load", "store"), "polybench/gemm"):
        "21d134ff73bbe43060bb1a3ee40fcb98f60a32d1c30973c367205b8e2532cee4",
    (("binary", "local"), "pdf_toolkit"):
        "6e0edecf132de2f97ecaea5b44bf2c4d6c6d7a9be15878148e2550794d7babd4",
    (("binary", "local"), "polybench/gemm"):
        "18f6e4b74674edc2d04c1b960100c1ae7db6f439756c29c7792f09b15b05153a",
}
_SELECTIVE_INPUTS = {"pdf_toolkit": lambda: pdf_toolkit(1.0),
                     "polybench/gemm": lambda: compile_kernel("gemm")}


class TestSelectiveBytesPinned:
    @pytest.mark.parametrize("groups,name", sorted(SELECTIVE_DIGESTS),
                             ids=[f"{'+'.join(groups)}-{name}"
                                  for groups, name in sorted(SELECTIVE_DIGESTS)])
    def test_digest(self, groups, name):
        config = InstrumentationConfig(groups=frozenset(groups))
        out = instrument_binary(encode_module(_SELECTIVE_INPUTS[name]()), config)
        assert hashlib.sha256(out).hexdigest() == SELECTIVE_DIGESTS[groups, name]


@st.composite
def random_expression_module(draw):
    """Small random — but always valid — modules: straight-line arithmetic."""
    ops_i32 = ["i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or",
               "i32.xor", "i32.shl", "i32.rotl"]
    builder = ModuleBuilder()
    fb = builder.function((I32,), (I32,), export="run")
    fb.get_local(0)
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        fb.i32_const(draw(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1)))
        fb.emit(draw(st.sampled_from(ops_i32)))
    fb.finish()
    return builder.build()


class TestPropertyRoundtrip:
    @settings(max_examples=50, deadline=None)
    @given(random_expression_module())
    def test_random_module_roundtrip_and_validate(self, module):
        decoded = decode_module(roundtrip(module))
        validate_module(decoded)
