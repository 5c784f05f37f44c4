"""The profile→dispatch loop: PGO artifacts, quickening, compiled segments.

Differential coverage for the quickened engine (superinstruction segments,
pre-resolved memory-op slots, call_indirect inline caches) against the
unquickened predecoded engine and the legacy string-dispatch loop — the two
oracles every quickened stream must match bit-for-bit — plus unit coverage
for the ``repro.profile/1`` / ``repro.fusion/1`` artifacts and the CLI
verbs that close the loop.
"""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (POLYBENCH_FAST_SUBSET, polybench_workloads,
                        realworld_workloads)
from repro.interp import Machine, predecode
from repro.interp.pgo import (FUSION_SCHEMA,
                              PROFILE_SCHEMA, fusion_table_payload,
                              load_profile, merge_profiles,
                              record_workload_profile, resolve_fusion_pairs,
                              select_pairs, write_profile)
from repro.interp.predecode import (DEFAULT_FUSION_PAIRS, OP_BINARY, OP_GET_LOCAL,
                                    OP_SEGMENT, OP_SET_LOCAL,
                                    SEGMENT_CODE_CACHE_MAX, _SEGMENT_MIN,
                                    _compile_segment, _compile_segments,
                                    decode_function, segment_code_cache_info)
from repro.interp.snapshot import (Snapshot, diff_instance, restore_instance,
                                   snapshot_instance)
from repro.interp.values import BINOPS, MASK32
from repro.minic import compile_source
from repro.wasm import Trap, encode_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.types import F64, FuncType, I32


ENGINES = [
    {"predecode": False},                       # legacy string dispatch
    {"predecode": True, "quicken": False},      # unquickened ablation
    {"predecode": True, "quicken": True},       # full quickened engine
]


def _all_engines(module, name, args, repeats=2, mutate=None):
    """Invoke ``name`` ``repeats`` times on every engine configuration.

    Two invocations per instance so quickened streams are exercised both
    before and after their first-execution slot rewrites. ``mutate`` (called
    with the instance between invocations) injects state changes like table
    mutation. Returns one list of results per engine.
    """
    out = []
    for kwargs in ENGINES:
        instance = Machine(**kwargs).instantiate(module)
        results = []
        for i in range(repeats):
            if mutate is not None and i:
                mutate(instance)
            results.append(instance.invoke(name, args))
        out.append(results)
    return out


def _bits_of(results):
    return [[struct.pack("<d", v) if isinstance(v, float)
             else (v % 2 ** 64).to_bytes(8, "little") for v in values]
            for values in results]


def _assert_identical(runs):
    baseline = _bits_of(runs[0])
    for other in runs[1:]:
        assert _bits_of(other) == baseline


def _trap_on(module, name, args, **kwargs):
    instance = Machine(**kwargs).instantiate(module)
    with pytest.raises(Trap) as exc:
        instance.invoke(name, args)
    return str(exc.value)


# -- hypothesis differential corpus --------------------------------------------


class TestQuickenedBitIdentical:
    """Legacy, unquickened-predecoded, and quickened engines must agree
    bit-for-bit on a hypothesis corpus mixing the quickened surfaces:
    straight-line arithmetic runs (compiled segments), f64/i32 loads and
    stores (quickened memory slots), and integer wraparound."""

    MIXED = """
        memory 1;
        export func crunch(a: i32, b: i32, x: f64) -> f64 {
            var i: i32;
            var acc: f64 = 0.0;
            mem_f64[0] = x;
            for (i = 0; i < 24; i = i + 1) {
                mem_i32[64 + i] = a * i + b;
                mem_f64[1 + i] = acc + mem_f64[0] * f64(i);
                acc = acc + mem_f64[1 + i] - f64(mem_i32[64 + i]);
            }
            return acc + f64(f32(x));
        }
        export func bits(a: i32, b: i32) -> i64 {
            var wide: i64 = i64(a) * i64(b);
            mem_i64[0] = (wide << 7) ^ (wide >> 3);
            return mem_i64[0] ^ i64(a % (b | 1));
        }
    """

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.floats(allow_nan=False, width=64))
    def test_mixed_program(self, a, b, x):
        module = compile_source(self.MIXED)
        _assert_identical(_all_engines(module, "crunch", [a, b, x]))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_integer_wraparound(self, a, b):
        module = compile_source(self.MIXED)
        _assert_identical(_all_engines(module, "bits", [a, b]))


# -- compiled segments ----------------------------------------------------------


class TestCompiledSegments:
    SRC = """
        memory 1;
        export func kernel(i: i32, x: f64) -> f64 {
            mem_f64[i] = x * 2.0 + 1.0;
            return mem_f64[i] * mem_f64[i] - x;
        }
    """

    def _decoded(self, quicken):
        module = compile_source(self.SRC)
        func = next(f for f in module.functions if f.body is not None)
        return decode_function(func, module, quicken=quicken)

    def test_quickened_stream_contains_segments(self):
        code = self._decoded(quicken=True).code
        segments = [ins for ins in code if ins[0] == OP_SEGMENT]
        assert segments, "straight-line kernel produced no compiled segment"
        for _, fn, span in segments:
            assert callable(fn)
            assert span >= _SEGMENT_MIN

    def test_unquickened_stream_has_no_segments(self):
        code = self._decoded(quicken=False).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_covered_slots_keep_fallback_decoding(self):
        # branch targets inside a segment must still find executable slots
        plain = self._decoded(quicken=False).code
        quick = self._decoded(quicken=True).code
        for pc, ins in enumerate(quick):
            if ins[0] == OP_SEGMENT:
                for covered in range(pc + 1, pc + ins[2]):
                    assert quick[covered][0] != OP_SEGMENT
                    assert quick[covered][0] == plain[covered][0] or \
                        quick[covered][0] >= 35  # fused/quickened fallback

    def test_short_runs_stay_uncompiled(self):
        module = compile_source("""
            export func tiny(a: i32) -> i32 { return a + 1; }
        """)
        func = next(f for f in module.functions if f.body is not None)
        code = decode_function(func, module, quicken=True).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_blocked_pcs_never_join_segments(self):
        module = compile_source(self.SRC)
        func = next(f for f in module.functions if f.body is not None)
        decoded = decode_function(func, module, quicken=False)
        code = list(decoded.code)
        # block a pc in the middle of what would otherwise be a run
        starts = [pc for pc, ins in enumerate(code)]
        target = starts[4]
        _compile_segments(code, blocked={target})
        for pc, ins in enumerate(code):
            if ins[0] == OP_SEGMENT:
                assert not (pc <= target < pc + ins[2])

    def test_segment_results_match_legacy(self):
        module = compile_source(self.SRC)
        _assert_identical(_all_engines(module, "kernel", [7, 2.5]))


# -- segment code cache ---------------------------------------------------------


def _segments(module, func):
    return [ins[1] for ins in decode_function(func, module, quicken=True).code
            if ins[0] == OP_SEGMENT]


def _shared_shape_module():
    """Two functions with one segment shape but different values in it.

    Each stores ``a + k`` narrowly at ``base + offset`` and reads it back
    sign-extended; the functions differ in the constant, in which local is
    the address, in the memarg offsets and in the store mask (store8 keeps
    0xff, store16 0xffff).
    """
    builder = ModuleBuilder()
    builder.add_memory(1)
    variants = (("narrow8", 0, 1, 5, 3, "i32.store8", "i32.load8_s"),
                ("narrow16", 1, 0, -7, 40, "i32.store16", "i32.load16_s"))
    for name, base, value, k, offset, store, load in variants:
        fb = builder.function((I32, I32), (I32,), export=name)
        fb.get_local(base).get_local(value).i32_const(k).emit("i32.add")
        fb.store(store, offset=offset)
        fb.get_local(base).load(load, offset=offset)
        fb.finish()
    return builder.build()


#: f64 constants whose ``repr`` does not round-trip through source text.
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF4000000000123))[0]
_SPECIAL_F64 = (-0.0, _NAN_PAYLOAD, float("inf"), float("-inf"))


def _special_constants_module():
    """Stores each special constant, then returns them through a segment."""
    builder = ModuleBuilder()
    builder.add_memory(1)
    fb = builder.function((I32,), (F64, F64, F64, F64), export="specials")
    for slot, value in enumerate(_SPECIAL_F64):
        fb.get_local(0).f64_const(value).store("f64.store", offset=8 * slot)
    for value in _SPECIAL_F64:
        fb.f64_const(value)
    fb.finish()
    return builder.build()


def _fold_shape(k: int) -> tuple[list[tuple], list]:
    """Distinct segment shape ``k``: ``l0 = ((l0 op l1) op l1) ...`` with the
    ops picked by the base-6 digits of ``k``; returns (slots, op functions)."""
    names = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor")
    ops = []
    for _ in range(5):
        k, digit = divmod(k, len(names))
        ops.append(BINOPS[names[digit]])
    slots = [(OP_GET_LOCAL, 0)]
    for fn in ops:
        slots += [(OP_GET_LOCAL, 1), (OP_BINARY, fn)]
    slots.append((OP_SET_LOCAL, 0))
    return slots, ops


def _fold(ops, a: int, b: int) -> int:
    for op in ops:
        a = op(a, b) & MASK32
    return a


class TestSegmentCodeCache:
    def test_same_shape_shares_one_code_object(self):
        module = _shared_shape_module()
        first, second = (_segments(module, func) for func in module.functions)
        assert len(first) == len(second) == 1
        assert first[0] is not second[0]
        assert first[0].__code__ is second[0].__code__
        # each keeps its own values: 5 + 250 = 255 stored as a byte reads -1;
        # -7 + 70000 = 69993 stored as 16 bits (4457) reads back positive
        runs = _all_engines(module, "narrow8", [100, 250])
        _assert_identical(runs)
        assert runs[0][0] == [MASK32]
        runs = _all_engines(module, "narrow16", [70000, 200])
        _assert_identical(runs)
        assert runs[0][0] == [(70000 - 7) & 0xFFFF]

    def test_second_decode_of_equal_body_compiles_nothing(self, monkeypatch):
        compiles = []

        def counting_compile(*args, **kwargs):
            compiles.append(args[0])
            return compile(*args, **kwargs)

        first = compile_source(TestCompiledSegments.SRC)
        second = compile_source(TestCompiledSegments.SRC)
        func = next(f for f in first.functions if f.body is not None)
        segments = len(_segments(first, func))
        assert segments
        before = segment_code_cache_info()
        monkeypatch.setattr(predecode, "compile", counting_compile, raising=False)
        func = next(f for f in second.functions if f.body is not None)
        assert len(_segments(second, func)) == segments
        after = segment_code_cache_info()
        assert compiles == []
        assert after.misses == before.misses
        assert after.hits == before.hits + segments

    def test_special_float_constants_bit_identical(self):
        module = _special_constants_module()
        func = module.functions[0]
        assert _segments(module, func), "constants did not form a segment"
        outputs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            results = instance.invoke("specials", [16])
            outputs.append(([struct.pack("<d", v) for v in results],
                            bytes(instance.memory.data[16:48])))
        assert outputs[0] == outputs[1] == outputs[2]
        expected = b"".join(struct.pack("<d", v) for v in _SPECIAL_F64)
        assert b"".join(outputs[2][0]) == outputs[2][1] == expected

    def test_constant_shift_counts_wrap(self):
        # counts at or past the width are reduced when the segment is built;
        # a count that is also tee'd into a local must keep its full value
        builder = ModuleBuilder()
        fb = builder.function((I32,), (I32,), export="shl32")
        fb.get_local(0).i32_const(35).emit("i32.shl").i32_const(1).emit("i32.add")
        fb.finish()
        fb = builder.function((I32,), (I32,), export="tee_count")
        fb.add_local(I32)
        fb.get_local(0).i32_const(40).tee_local(1).emit("i32.shl")
        fb.get_local(1).emit("i32.add")
        fb.finish()
        module = builder.build()
        for func in module.functions:
            assert _segments(module, func)
        for name, want in (("shl32", (77 << 3) + 1), ("tee_count", (77 << 8) + 40)):
            runs = _all_engines(module, name, [77])
            _assert_identical(runs)
            assert runs[2][0] == [want]

    def test_cache_stays_bounded_past_its_capacity(self):
        shapes = SEGMENT_CODE_CACHE_MAX + 64
        assert shapes <= 6 ** 5  # every k below is a distinct shape
        start = segment_code_cache_info()
        codes = set()
        for k in range(shapes):
            slots, ops = _fold_shape(k)
            fn = _compile_segment(slots)
            codes.add(fn.__code__)
            assert segment_code_cache_info().size <= SEGMENT_CODE_CACHE_MAX
            if k % 97 == 0 or k >= SEGMENT_CODE_CACHE_MAX:
                a, b = 0x9E3779B9 + k, 0x7F4A7C15 ^ k
                locals_ = [a, b]
                fn([], locals_, None)
                assert locals_ == [_fold(ops, a, b), b]
        assert len(codes) == shapes
        end = segment_code_cache_info()
        assert end.misses - start.misses >= shapes
        assert end.size <= SEGMENT_CODE_CACHE_MAX
        # a shape evicted by the clear compiles again and still computes
        slots, ops = _fold_shape(1)
        locals_ = [7, 3]
        _compile_segment(slots)([], locals_, None)
        assert segment_code_cache_info().misses == end.misses + 1
        assert locals_ == [_fold(ops, 7, 3), 3]


# -- call_indirect inline caches ------------------------------------------------


def _dispatch_module():
    """A table with two i32→i32 functions and an exported dispatcher."""
    builder = ModuleBuilder()
    sig = FuncType((I32,), (I32,))

    fb = builder.function((I32,), (I32,), name="inc")
    fb.get_local(0).i32_const(1).emit("i32.add")
    fb.finish()
    inc = fb.func_idx

    fb = builder.function((I32,), (I32,), name="dbl")
    fb.get_local(0).i32_const(2).emit("i32.mul")
    fb.finish()
    dbl = fb.func_idx

    builder.add_table(4, 4)
    builder.add_element(0, [inc, dbl])

    fb = builder.function((I32, I32), (I32,), export="dispatch")
    fb.get_local(1)          # argument
    fb.get_local(0)          # table index
    fb.call_indirect(builder.module.add_type(sig))
    fb.finish()
    return builder.build(), inc, dbl


class TestCallIndirectIC:
    def test_monomorphic_and_megamorphic_paths(self):
        module, _, _ = _dispatch_module()
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            # repeated same-target calls (IC hit path after the first)
            assert [instance.invoke("dispatch", [0, 10]) for _ in range(3)] \
                == [[11]] * 3
            # switch targets (IC miss → rebind), then back
            assert instance.invoke("dispatch", [1, 10]) == [20]
            assert instance.invoke("dispatch", [0, 10]) == [11]

    def test_table_mutation_invalidates_cache(self):
        module, inc, dbl = _dispatch_module()
        results = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            out = [instance.invoke("dispatch", [0, 10])]   # cache 'inc'
            instance.table.set(0, dbl)                     # mutate under the IC
            out.append(instance.invoke("dispatch", [0, 10]))
            instance.table.set(0, None)                    # uninitialize
            try:
                instance.invoke("dispatch", [0, 10])
                out.append("no trap")
            except Trap as exc:
                out.append(str(exc))
            results.append(out)
        assert results[0] == results[1] == results[2]
        assert results[0][:2] == [[11], [20]]
        assert "uninitialized" in results[0][2]

    def test_trap_messages_match_legacy(self):
        module, _, _ = _dispatch_module()
        for index in (2, 99):  # uninitialized entry / out of bounds
            messages = {_trap_on(module, "dispatch", [index, 1], **kwargs)
                        for kwargs in ENGINES}
            assert len(messages) == 1, messages


# -- memory quickening at the page boundary ------------------------------------


class TestMemoryBoundary:
    SRC = """
        memory 1;
        export func load_f64(i: i32) -> f64 { return mem_f64[i]; }
        export func store_f64(i: i32, x: f64) -> f64 {
            mem_f64[i] = x;
            return mem_f64[i] + 1.0;
        }
        export func grow_then_store(i: i32, x: f64) -> f64 {
            var prev: i32 = memory_grow(1);
            mem_f64[i] = x * f64(prev);
            return mem_f64[i];
        }
    """

    def test_last_valid_slot_agrees(self):
        # f64 index 8191 covers bytes 65528..65535, the last in-bounds access
        module = compile_source(self.SRC)
        _assert_identical(_all_engines(module, "store_f64", [8191, 3.25]))

    @pytest.mark.parametrize("index", [8192, 2 ** 28])
    def test_oob_trap_messages_match(self, index):
        module = compile_source(self.SRC)
        for entry in ("load_f64", "store_f64"):
            args = [index] if entry == "load_f64" else [index, 1.0]
            messages = {_trap_on(module, entry, args, **kwargs)
                        for kwargs in ENGINES}
            assert len(messages) == 1, messages
            assert "out of bounds memory access" in next(iter(messages))

    def test_access_valid_only_after_grow(self):
        # index 8192 is the first slot of page 2: traps at 1 page, succeeds
        # after memory.grow — quickened slots must see the grown memory
        module = compile_source(self.SRC)
        runs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            with pytest.raises(Trap):
                instance.invoke("store_f64", [8192, 2.0])
            runs.append([instance.invoke("grow_then_store", [8192, 2.0]),
                         instance.invoke("store_f64", [8192, 2.0])])
        _assert_identical(runs)


# -- snapshot/restore on the quickened engine ----------------------------------


class TestSnapshotQuickened:
    def test_quickened_state_rebuilt_on_restore(self):
        """Snapshot mid-run on the quickened engine, restore into a fresh
        quickened instance: diff is empty, and the resumed run is
        bit-identical — quickened slots and IC cells are rebuilt, never
        serialized."""
        workload = polybench_workloads(["trisolv"], n=12)[0]
        module = workload.module()

        printed_a: list = []
        inst_a = Machine(predecode=True, quicken=True).instantiate(
            module, workload.linker(printed_a))
        inst_a.invoke("main", [])  # quickens slots, then snapshot mid-state
        snap = Snapshot.from_json(snapshot_instance(inst_a).to_json())

        printed_b: list = []
        inst_b = Machine(predecode=True, quicken=True).instantiate(
            module, workload.linker(printed_b))
        restore_instance(inst_b, snap)
        assert diff_instance(inst_b, snap) == []

        printed_a.clear()
        inst_a.invoke("main", [])
        inst_b.invoke("main", [])
        assert printed_a == printed_b

    def test_ic_cells_reset_not_stale_after_restore(self):
        module, inc, dbl = _dispatch_module()
        machine = Machine(predecode=True, quicken=True)
        instance = machine.instantiate(module)
        assert instance.invoke("dispatch", [0, 10]) == [11]  # IC caches 'inc'

        snap = snapshot_instance(instance)
        fresh = Machine(predecode=True, quicken=True).instantiate(module)
        restore_instance(fresh, snap)
        # mutate the restored table: a stale (serialized) cache would still
        # dispatch to 'inc'
        fresh.table.set(0, dbl)
        assert fresh.invoke("dispatch", [0, 10]) == [20]


# -- artifacts and pair selection ----------------------------------------------


@pytest.fixture(scope="module")
def tiny_profile():
    return record_workload_profile(polybench_workloads(["trisolv"], n=8)[0])


class TestArtifacts:
    def test_profile_round_trip(self, tiny_profile, tmp_path):
        path = write_profile(tiny_profile, tmp_path / "p.json")
        loaded = load_profile(path)
        assert loaded == tiny_profile
        assert loaded["schema"] == PROFILE_SCHEMA
        assert loaded["total_instructions"] > 0

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "repro.metrics/1"}))
        from repro.wasm import WasmError
        with pytest.raises(WasmError, match="schema"):
            load_profile(path)

    def test_merge_sums_counts(self, tiny_profile):
        merged = merge_profiles([tiny_profile, tiny_profile])
        assert merged["total_instructions"] == \
            2 * tiny_profile["total_instructions"]
        assert len(merged["corpus"]) == 2

    def test_select_pairs_min_share_and_cap(self, tiny_profile):
        everything = select_pairs(tiny_profile, min_share=0.0)
        assert select_pairs(tiny_profile, min_share=2.0) == []
        capped = select_pairs(tiny_profile, min_share=0.0, max_pairs=3)
        assert capped == everything[:3]

    def test_fusion_table_resolves_to_rule_backed_ids(self, tiny_profile):
        table = fusion_table_payload(tiny_profile)
        assert table["schema"] == FUSION_SCHEMA
        resolved = resolve_fusion_pairs(table)
        assert resolved  # a PolyBench kernel always has fusable hot pairs
        # a profile resolves the same way as the table derived from it
        assert resolve_fusion_pairs(tiny_profile) == resolved

    def test_committed_corpus_profile_rerecords_identically(self, tmp_path):
        """benchmarks/results/PGO_corpus_profile.json is byte for byte what
        the bench-smoke corpus (Fig. 9 subset + real-world stand-ins)
        records today: recording is exact, so any drift is an engine or
        profiler change that must re-record the artifact."""
        committed = (Path(__file__).resolve().parents[1] / "benchmarks"
                     / "results" / "PGO_corpus_profile.json")
        workloads = (polybench_workloads(POLYBENCH_FAST_SUBSET)
                     + realworld_workloads())
        profile = merge_profiles([record_workload_profile(w)
                                  for w in workloads])
        path = write_profile(profile, tmp_path / committed.name)
        assert path.read_bytes() == committed.read_bytes()

    def test_unknown_pair_names_ignored(self):
        table = {"schema": FUSION_SCHEMA,
                 "pairs": [["warp.fold", "warp.unfold", 0.5]]}
        assert resolve_fusion_pairs(table) == frozenset()

    def test_default_pairs_used_without_profile(self):
        machine = Machine(predecode=True, quicken=True)
        assert machine.fusion_pairs is None  # decode falls back to the
        # classic built-in set
        assert DEFAULT_FUSION_PAIRS


# -- CLI: the closed loop -------------------------------------------------------


class TestCLI:
    def test_pgo_verb_writes_both_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "profile.json"
        fusion = tmp_path / "fusion.json"
        assert main(["pgo", "-o", str(out), "--fusion-out", str(fusion),
                     "--workloads", "trisolv", "--n", "8",
                     "--no-realworld"]) == 0
        profile = load_profile(out)
        table = load_profile(fusion)
        assert profile["schema"] == PROFILE_SCHEMA
        assert table["schema"] == FUSION_SCHEMA
        captured = capsys.readouterr().out
        assert "derived fusion table" in captured

    def test_run_with_pgo_profile(self, tmp_path, capsys):
        from repro.cli import main
        module = compile_source("""
            export func main(n: i32) -> f64 {
                var s: f64 = 0.0;
                var i: i32;
                for (i = 0; i < n; i = i + 1) { s = s + f64(i) * 0.5; }
                return s;
            }
        """)
        wasm = tmp_path / "prog.wasm"
        wasm.write_bytes(encode_module(module))
        fusion = tmp_path / "fusion.json"
        assert main(["pgo", "-o", str(tmp_path / "p.json"),
                     "--fusion-out", str(fusion), "--workloads", "trisolv",
                     "--n", "8", "--no-realworld"]) == 0
        capsys.readouterr()
        assert main(["run", str(wasm), "main", "8",
                     "--pgo-profile", str(fusion)]) == 0
        assert "14" in capsys.readouterr().out

    def test_run_with_bad_profile_path_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        module = compile_source("export func main() -> i32 { return 1; }")
        wasm = tmp_path / "prog.wasm"
        wasm.write_bytes(encode_module(module))
        assert main(["run", str(wasm), "main",
                     "--pgo-profile", str(tmp_path / "missing.json")]) != 0
        assert "cannot load PGO profile" in capsys.readouterr().err
