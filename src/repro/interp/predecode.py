"""Pre-decoded, direct-threaded instruction streams for the interpreter.

The legacy interpreter loop in :mod:`repro.interp.machine` dispatches every
instruction by string comparison and looks block targets up in per-function
dicts. This module translates each function body *once* into a flat array of
``(opcode-id, operand, ...)`` tuples:

* mnemonics become small integer opcode ids (compared with ``==`` on ints in
  the hot loop, ordered by dynamic frequency),
* every ``i32.const``/``i64.const`` immediate is pre-masked to its canonical
  unsigned form and ``f32.const`` pre-rounded through binary32,
* unary/binary arithmetic resolves straight to the Python handler from
  :data:`repro.interp.values.OP_HANDLERS` (no per-step dict probes),
* loads/stores resolve to their typed accessor with the static memarg offset
  extracted into the tuple,
* ``block``/``if``/``else`` targets are pre-resolved into absolute decoded
  pcs (subsuming the legacy ``BlockMatching`` side tables), and
* ``call``/``call_indirect`` carry their callee's parameter count (and, for
  indirect calls, the expected :class:`FuncType`) so the call sequence does
  no type-table lookups at run time, and
* calls into the Wasabi hook namespace (:data:`HOOK_IMPORT_MODULE`,
  identified via the module's import section) are recorded as *hook call
  sites*. At instantiation time the machine fuses each
  ``i32.const func / i32.const instr / call <hook>`` site into an
  :data:`OP_HOOK` superinstruction bound to a per-site dispatcher closure,
  so an executed hook does no location marshalling and no static-info
  lookups (see ``repro.interp.machine.bind_hook_sites``).

The decoded stream is cached *on the* :class:`~repro.wasm.module.Function`
*object itself* (``func._decoded``), so re-instantiating the same module —
which the benchmark harness does constantly — pays the decode cost once.
The cache is validated against the identity and length of ``func.body``; a
function whose body list is replaced is transparently re-decoded. In-place
mutation of a body that already executed is not supported (the legacy loop
has the same limitation through its precomputed matching tables).

Decoded pcs map 1:1 onto body indices: instruction ``i`` of the source body
is entry ``i`` of the decoded stream, which keeps branch resolution and
debugging straightforward.
"""

from __future__ import annotations

import threading
from functools import cache
from struct import Struct
from struct import error as _struct_error
from types import CodeType, FunctionType
from typing import NamedTuple

from ..wasm.errors import Trap, WasmError
from ..wasm.module import Function, IndexSpaces, Instr, Module
from ..wasm.numeric import f32_round
from .values import BINOPS, MASK32, MASK64, OP_HANDLERS

# Opcode ids, ordered roughly by dynamic frequency on numeric workloads so
# the interpreter's if/elif chain resolves hot instructions first.
OP_GET_LOCAL = 0
OP_BINARY = 1
OP_CONST = 2
OP_SET_LOCAL = 3
OP_LOAD_INT = 4
OP_LOAD_FLOAT = 5
OP_STORE_INT = 6
OP_STORE_FLOAT = 7
OP_BR_IF = 8
OP_UNARY = 9
OP_TEE_LOCAL = 10
OP_BR = 11
OP_END = 12
OP_LOOP = 13
OP_IF = 14
OP_BLOCK = 15
OP_JUMP = 16
OP_CALL = 17
OP_RETURN = 18
OP_GET_GLOBAL = 19
OP_SET_GLOBAL = 20
OP_SELECT = 21
OP_DROP = 22
OP_CALL_INDIRECT = 23
OP_BR_TABLE = 24
OP_MEMORY_SIZE = 25
OP_MEMORY_GROW = 26
OP_NOP = 27
OP_UNREACHABLE = 28
OP_RAISE = 29

# Fused superinstructions. :func:`_fuse_pairs` rewrites slot *i* to execute
# both instruction *i* and *i+1* (then skip ahead two pcs) for hot adjacent
# pairs in compiled expression code — address arithmetic is almost
# entirely ``get_local``/``const`` feeding a binary op. Slot *i+1* keeps its
# ordinary decoding, so a branch that lands there still executes it solo and
# the stream stays 1:1 with the source body.
#
# Which pairs actually get fused is table-driven: :data:`FUSION_RULES` is
# the full menu of *implementable* pairs, :data:`DEFAULT_FUSION_PAIRS` the
# hand-picked subset used when no profile is supplied, and a PGO table
# derived from recorded ``repro.profile/1`` artifacts (see
# :mod:`repro.interp.pgo`) selects a data-driven subset per machine.
OP_GET_LOCAL_CONST = 30    # (_, local_idx, const) — push local, push const
OP_CONST_BINARY = 31       # (_, fn, const)       — stack[-1] = fn(top, const)
OP_GET_LOCAL_BINARY = 32   # (_, fn, local_idx)   — stack[-1] = fn(top, local)
OP_GET2_LOCAL = 33         # (_, i, j)            — push two locals

# Call-site-specialized hook dispatch. Decoding records *where* calls into
# the Wasabi hook import namespace happen (``DecodedFunction.hook_sites``);
# the machine rewrites those slots per instance into
# ``(OP_HOOK, bound_dispatcher, n_value_args, skip)``: pop the value args,
# call the pre-bound closure, advance ``skip`` pcs (3 when the two location
# constants were fused in, 1 for a bare call). The const/call slots keep
# their ordinary decoding so branches into the middle of a (never-branched-
# into, in practice) hook sequence still behave like the source program.
OP_HOOK = 34

# The profile-guided extension of the fusion menu (PR 7). Same contract as
# the four classic fusions above: execute source instructions *i* and *i+1*
# in one dispatch, skip two pcs, leave slot *i+1* decodable for branches.
OP_BINARY_CONST = 35       # (_, fn, const)          — binary, then push const
OP_BINARY_BINARY = 36      # (_, fn1, fn2)           — two stacked binaries
OP_BINARY_GET_LOCAL = 37   # (_, fn, idx)            — binary, push local
OP_CONST_GET_LOCAL = 38    # (_, const, idx)         — push const, push local
OP_CONST_CONST = 39        # (_, c1, c2)             — push two consts
OP_BINARY_SET_LOCAL = 40   # (_, fn, idx)            — local[idx] = binary
OP_BINARY_UNARY = 41       # (_, fn, un)             — un(binary)
OP_UNARY_BR_IF = 42        # (_, un, label)          — branch on un(top)
OP_BINARY_LOAD_FLOAT = 43  # (_, fn, fmt, off)       — load at binary address
OP_BINARY_LOAD_INT = 44    # (_, fn, fmt, off, mask)
OP_BINARY_STORE_FLOAT = 45  # (_, fn, fmt, off)      — store binary result
OP_BINARY_STORE_INT = 46   # (_, fn, fmt, off, mask)
OP_LOAD_FLOAT_BINARY = 47  # (_, fmt, off, fn)       — binary on loaded value
OP_LOAD_INT_BINARY = 48    # (_, fmt, off, mask, fn)
OP_SET_LOCAL_CONST = 49    # (_, idx, const)         — pop to local, push const
OP_LOAD_FLOAT_CONST = 50   # (_, fmt, off, const)    — load, then push const

# Quickening (PR 7). ``decode_function(quicken=True)`` wraps every bare
# memory op in an ``OP_QUICK`` trampoline carrying its pre-resolved twin:
# the twin holds a bound ``struct.Struct.unpack_from``/``pack_into`` method
# (no per-access format-cache probe) and drops the canonicalization mask
# where the format already guarantees canonical values. The first time the
# slot executes, the trampoline atomically swaps itself for the twin (the
# same single-slot list assignment quarantine uses) and re-dispatches, so
# the steady state pays nothing for having been quickened lazily.
OP_QUICK = 51              # (_, twin)               — code[pc] = twin; retry
OP_QLOAD = 52              # (_, unpack, off, width) — no mask needed
OP_QLOAD_MASK = 53         # (_, unpack, off, mask, width)
OP_QSTORE = 54             # (_, pack, off, width)   — full-width store
OP_QSTORE_MASK = 55        # (_, pack, off, mask, width)

# Monomorphic inline cache for ``call_indirect``, installed per *instance*
# (the cache cell holds that instance's resolved callee) by
# ``repro.interp.machine.bind_indirect_caches`` at quickened sites:
# ``(_, expected_type, n_params, cell)`` with ``cell`` a mutable
# ``[last_table_idx, last_func_addr, last_callee]``. A hit needs the same
# table index *and* the same table entry (tables mutate), so table.set /
# snapshot-restore fall back to the full resolve+type-check path.
OP_CALL_INDIRECT_IC = 56

# The logical endpoint of superinstruction formation (PR 7): a *compiled
# straight-line segment*. At quickening time, maximal runs of pure
# stack-machine ops (consts, locals, arithmetic, loads/stores, drop — no
# control flow, no calls, no hook sites) are translated once into a small
# Python function with every constant, mask, and bound struct method baked
# in, and the run's first slot becomes ``(OP_SEGMENT, fn, span)``: one
# dispatch executes the whole run, then skips ``span`` pcs. The covered
# slots keep their ordinary decoding, so a branch landing inside the
# segment executes the original (pair-fusable, quickenable) instructions —
# the same fallback contract fused pairs honour.
OP_SEGMENT = 57

#: Import namespace of Wasabi's generated low-level hooks. The instrumenter
#: (``repro.core.hooks.HOOK_MODULE``) aliases this constant, so the engine
#: and the instrumenter cannot drift apart.
HOOK_IMPORT_MODULE = "__wasabi_hooks"

#: Opcode id → display name, used by the self-profiler's hot-opcode ranking
#: and anything else that renders decoded streams for humans. Fused forms
#: are named after their constituents; ``OP_JUMP`` is the decoded ``else``.
OP_NAMES: dict[int, str] = {
    OP_GET_LOCAL: "get_local",
    OP_BINARY: "binary",
    OP_CONST: "const",
    OP_SET_LOCAL: "set_local",
    OP_LOAD_INT: "load.int",
    OP_LOAD_FLOAT: "load.float",
    OP_STORE_INT: "store.int",
    OP_STORE_FLOAT: "store.float",
    OP_BR_IF: "br_if",
    OP_UNARY: "unary",
    OP_TEE_LOCAL: "tee_local",
    OP_BR: "br",
    OP_END: "end",
    OP_LOOP: "loop",
    OP_IF: "if",
    OP_BLOCK: "block",
    OP_JUMP: "else",
    OP_CALL: "call",
    OP_RETURN: "return",
    OP_GET_GLOBAL: "get_global",
    OP_SET_GLOBAL: "set_global",
    OP_SELECT: "select",
    OP_DROP: "drop",
    OP_CALL_INDIRECT: "call_indirect",
    OP_BR_TABLE: "br_table",
    OP_MEMORY_SIZE: "memory.size",
    OP_MEMORY_GROW: "memory.grow",
    OP_NOP: "nop",
    OP_UNREACHABLE: "unreachable",
    OP_RAISE: "raise",
    OP_GET_LOCAL_CONST: "get_local+const",
    OP_CONST_BINARY: "const+binary",
    OP_GET_LOCAL_BINARY: "get_local+binary",
    OP_GET2_LOCAL: "get_local+get_local",
    OP_HOOK: "hook",
    OP_BINARY_CONST: "binary+const",
    OP_BINARY_BINARY: "binary+binary",
    OP_BINARY_GET_LOCAL: "binary+get_local",
    OP_CONST_GET_LOCAL: "const+get_local",
    OP_CONST_CONST: "const+const",
    OP_BINARY_SET_LOCAL: "binary+set_local",
    OP_BINARY_UNARY: "binary+unary",
    OP_UNARY_BR_IF: "unary+br_if",
    OP_BINARY_LOAD_FLOAT: "binary+load.float",
    OP_BINARY_LOAD_INT: "binary+load.int",
    OP_BINARY_STORE_FLOAT: "binary+store.float",
    OP_BINARY_STORE_INT: "binary+store.int",
    OP_LOAD_FLOAT_BINARY: "load.float+binary",
    OP_LOAD_INT_BINARY: "load.int+binary",
    OP_SET_LOCAL_CONST: "set_local+const",
    OP_LOAD_FLOAT_CONST: "load.float+const",
    OP_QUICK: "quicken",
    OP_QLOAD: "load.quick",
    OP_QLOAD_MASK: "load.quick.mask",
    OP_QSTORE: "store.quick",
    OP_QSTORE_MASK: "store.quick.mask",
    OP_CALL_INDIRECT_IC: "call_indirect.ic",
    OP_SEGMENT: "segment",
}

#: Size of a dense per-opcode counter array covering every opcode id.
N_OPCODES = max(OP_NAMES) + 1

# Loads decode to a struct format executed directly against the memory
# bytearray with ``struct.unpack_from`` (one C call instead of a chain of
# Python-level accessor calls); integer results are masked back to the
# canonical unsigned representation. Stores mirror this with ``pack_into``,
# masking the value to the store width first.
INT_LOADS: dict[str, tuple[str, int]] = {
    "i32.load": ("<I", MASK32),
    "i64.load": ("<Q", MASK64),
    "i32.load8_s": ("<b", MASK32),
    "i32.load8_u": ("<B", MASK32),
    "i32.load16_s": ("<h", MASK32),
    "i32.load16_u": ("<H", MASK32),
    "i64.load8_s": ("<b", MASK64),
    "i64.load8_u": ("<B", MASK64),
    "i64.load16_s": ("<h", MASK64),
    "i64.load16_u": ("<H", MASK64),
    "i64.load32_s": ("<i", MASK64),
    "i64.load32_u": ("<I", MASK64),
}
FLOAT_LOADS: dict[str, str] = {"f32.load": "<f", "f64.load": "<d"}
INT_STORES: dict[str, tuple[str, int]] = {
    "i32.store": ("<I", MASK32),
    "i64.store": ("<Q", MASK64),
    "i32.store8": ("<B", 0xFF),
    "i32.store16": ("<H", 0xFFFF),
    "i64.store8": ("<B", 0xFF),
    "i64.store16": ("<H", 0xFFFF),
    "i64.store32": ("<I", MASK32),
}
FLOAT_STORES: dict[str, str] = {"f32.store": "<f", "f64.store": "<d"}


class DecodedFunction:
    """The pre-decoded form of one function body.

    ``code`` is a flat list of tuples, one per source instruction (1:1 with
    ``source_body``). ``source_body`` keeps a strong reference to the body
    list the stream was decoded from, which both prevents ``id`` recycling
    and lets the cache detect body replacement. ``hook_sites`` lists the
    pcs of ``call`` instructions targeting Wasabi hook imports; it is empty
    for uninstrumented modules, whose decode is entirely unaffected.
    ``indirect_sites`` lists the pcs of ``call_indirect`` slots on quickened
    streams — the machine rewrites those per instance into monomorphic
    inline caches (:data:`OP_CALL_INDIRECT_IC`); it is empty on unquickened
    streams.
    """

    __slots__ = ("code", "source_body", "hook_sites", "indirect_sites")

    def __init__(
        self, code: list[tuple], source_body: list[Instr],
        hook_sites: tuple[int, ...] = (),
        indirect_sites: tuple[int, ...] = (),
    ):
        self.code = code
        self.source_body = source_body
        self.hook_sites = hook_sites
        self.indirect_sites = indirect_sites

    def __len__(self) -> int:
        return len(self.code)


def match_blocks(body: list[Instr]) -> tuple[dict[int, int], dict[int, int | None]]:
    """Map block-start (and ``else``) indices to their matching ``end``.

    Returns ``(end_of, else_of)``. Raises :class:`WasmError` for an ``else``
    outside any block (mirroring the legacy ``BlockMatching`` behaviour);
    unclosed blocks are simply absent from ``end_of`` and are turned into
    runtime errors by :func:`decode_function`.
    """
    end_of: dict[int, int] = {}
    else_of: dict[int, int | None] = {}
    open_blocks: list[int] = []
    for idx, instr in enumerate(body):
        op = instr.op
        if op in ("block", "loop", "if"):
            open_blocks.append(idx)
            else_of[idx] = None
        elif op == "else":
            if not open_blocks:
                raise WasmError("else outside any block")
            else_of[open_blocks[-1]] = idx
        elif op == "end":
            if open_blocks:
                start = open_blocks.pop()
                end_of[start] = idx
                else_idx = else_of.get(start)
                if else_idx is not None:
                    end_of[else_idx] = idx
            # an end with no open block is the function's final end
    return end_of, else_of


def _decode_instr(
    instr: Instr,
    pc: int,
    module: Module,
    spaces: IndexSpaces,
    end_of: dict[int, int],
    else_of: dict[int, int | None],
) -> tuple:
    op = instr.op
    handler = OP_HANDLERS.get(op)
    if handler is not None:
        arity, fn = handler
        return (OP_BINARY, fn) if arity == 2 else (OP_UNARY, fn)
    if op == "get_local":
        return (OP_GET_LOCAL, instr.idx)
    if op == "set_local":
        return (OP_SET_LOCAL, instr.idx)
    if op == "tee_local":
        return (OP_TEE_LOCAL, instr.idx)
    if op == "i32.const":
        return (OP_CONST, instr.value & MASK32)
    if op == "i64.const":
        return (OP_CONST, instr.value & MASK64)
    if op == "f32.const":
        return (OP_CONST, f32_round(instr.value))
    if op == "f64.const":
        return (OP_CONST, float(instr.value))
    int_load = INT_LOADS.get(op)
    if int_load is not None:
        fmt, mask = int_load
        return (OP_LOAD_INT, fmt, instr.memarg.offset, mask)
    float_load = FLOAT_LOADS.get(op)
    if float_load is not None:
        return (OP_LOAD_FLOAT, float_load, instr.memarg.offset)
    int_store = INT_STORES.get(op)
    if int_store is not None:
        fmt, mask = int_store
        return (OP_STORE_INT, fmt, instr.memarg.offset, mask)
    float_store = FLOAT_STORES.get(op)
    if float_store is not None:
        return (OP_STORE_FLOAT, float_store, instr.memarg.offset)
    if op == "block":
        arity = 0 if instr.blocktype is None else 1
        return (OP_BLOCK, end_of[pc] + 1, arity)
    if op == "loop":
        return (OP_LOOP,)
    if op == "if":
        arity = 0 if instr.blocktype is None else 1
        end_idx = end_of[pc]
        else_idx = else_of.get(pc)
        # false path: jump into the else arm (skipping the marker), or onto
        # the end, which pops the label
        false_pc = end_idx if else_idx is None else else_idx + 1
        return (OP_IF, end_idx + 1, arity, false_pc)
    if op == "else":
        # reached from the then-arm: jump onto the matching end
        return (OP_JUMP, end_of[pc])
    if op == "end":
        return (OP_END,)
    if op == "br":
        return (OP_BR, instr.label)
    if op == "br_if":
        return (OP_BR_IF, instr.label)
    if op == "br_table":
        table = instr.br_table
        return (OP_BR_TABLE, table.labels, table.default)
    if op == "return":
        return (OP_RETURN,)
    if op == "call":
        return (OP_CALL, instr.idx, len(spaces.func_type(instr.idx).params))
    if op == "call_indirect":
        expected = module.types[instr.idx]
        return (OP_CALL_INDIRECT, expected, len(expected.params))
    if op == "get_global":
        return (OP_GET_GLOBAL, instr.idx)
    if op == "set_global":
        return (OP_SET_GLOBAL, instr.idx)
    if op == "select":
        return (OP_SELECT,)
    if op == "drop":
        return (OP_DROP,)
    if op == "memory.size":
        return (OP_MEMORY_SIZE,)
    if op == "memory.grow":
        return (OP_MEMORY_GROW,)
    if op == "nop":
        return (OP_NOP,)
    if op == "unreachable":
        return (OP_UNREACHABLE,)
    raise WasmError(f"cannot pre-decode {op}")


def _hook_import_indices(module: Module) -> frozenset[int]:
    """Function indices of imports in the Wasabi hook namespace.

    Only void imports qualify: generated low-level hooks never return
    values, and restricting the match keeps arbitrary same-named imports
    with results on the fully generic call path.
    """
    indices: list[int] = []
    func_idx = 0
    for imp in module.imports:
        if isinstance(imp.desc, int):  # function import
            if imp.module == HOOK_IMPORT_MODULE and not module.types[imp.desc].results:
                indices.append(func_idx)
            func_idx += 1
    return frozenset(indices)


#: The full menu of *implementable* pair fusions: ``(first_op, second_op)``
#: → builder taking the two decoded tuples and returning the fused tuple.
#: A PGO table (or :data:`DEFAULT_FUSION_PAIRS`) selects which entries a
#: decode actually applies; pairs outside this menu can be profiled but
#: never fused. The menu itself was chosen from recorded PolyBench +
#: synthetic pair profiles (see ``repro pgo``): together these shapes cover
#: the overwhelming majority of back-to-back executions in compiled
#: numeric code.
FUSION_RULES: dict[tuple[int, int], object] = {
    (OP_GET_LOCAL, OP_CONST):
        lambda f, s: (OP_GET_LOCAL_CONST, f[1], s[1]),
    (OP_GET_LOCAL, OP_BINARY):
        lambda f, s: (OP_GET_LOCAL_BINARY, s[1], f[1]),
    (OP_GET_LOCAL, OP_GET_LOCAL):
        lambda f, s: (OP_GET2_LOCAL, f[1], s[1]),
    (OP_CONST, OP_BINARY):
        lambda f, s: (OP_CONST_BINARY, s[1], f[1]),
    (OP_CONST, OP_GET_LOCAL):
        lambda f, s: (OP_CONST_GET_LOCAL, f[1], s[1]),
    (OP_CONST, OP_CONST):
        lambda f, s: (OP_CONST_CONST, f[1], s[1]),
    (OP_BINARY, OP_CONST):
        lambda f, s: (OP_BINARY_CONST, f[1], s[1]),
    (OP_BINARY, OP_BINARY):
        lambda f, s: (OP_BINARY_BINARY, f[1], s[1]),
    (OP_BINARY, OP_GET_LOCAL):
        lambda f, s: (OP_BINARY_GET_LOCAL, f[1], s[1]),
    (OP_BINARY, OP_SET_LOCAL):
        lambda f, s: (OP_BINARY_SET_LOCAL, f[1], s[1]),
    (OP_BINARY, OP_UNARY):
        lambda f, s: (OP_BINARY_UNARY, f[1], s[1]),
    (OP_UNARY, OP_BR_IF):
        lambda f, s: (OP_UNARY_BR_IF, f[1], s[1]),
    (OP_BINARY, OP_LOAD_FLOAT):
        lambda f, s: (OP_BINARY_LOAD_FLOAT, f[1], s[1], s[2]),
    (OP_BINARY, OP_LOAD_INT):
        lambda f, s: (OP_BINARY_LOAD_INT, f[1], s[1], s[2], s[3]),
    (OP_BINARY, OP_STORE_FLOAT):
        lambda f, s: (OP_BINARY_STORE_FLOAT, f[1], s[1], s[2]),
    (OP_BINARY, OP_STORE_INT):
        lambda f, s: (OP_BINARY_STORE_INT, f[1], s[1], s[2], s[3]),
    (OP_LOAD_FLOAT, OP_BINARY):
        lambda f, s: (OP_LOAD_FLOAT_BINARY, f[1], f[2], s[1]),
    (OP_LOAD_INT, OP_BINARY):
        lambda f, s: (OP_LOAD_INT_BINARY, f[1], f[2], f[3], s[1]),
    (OP_SET_LOCAL, OP_CONST):
        lambda f, s: (OP_SET_LOCAL_CONST, f[1], s[1]),
    (OP_LOAD_FLOAT, OP_CONST):
        lambda f, s: (OP_LOAD_FLOAT_CONST, f[1], f[2], s[1]),
}

#: The hand-picked pair set predating profile-guided selection — the
#: default whenever no PGO profile is supplied, so engines without a
#: profile behave exactly as before. ``Machine(pgo_profile=...)`` swaps in
#: a table derived from recorded pair frequencies instead.
DEFAULT_FUSION_PAIRS: frozenset[tuple[int, int]] = frozenset({
    (OP_GET_LOCAL, OP_CONST),
    (OP_GET_LOCAL, OP_BINARY),
    (OP_GET_LOCAL, OP_GET_LOCAL),
    (OP_CONST, OP_BINARY),
})

_DEFAULT_RULES = {pair: FUSION_RULES[pair] for pair in DEFAULT_FUSION_PAIRS}


def _fuse_pairs(code: list[tuple],
                blocked: frozenset[int] | set[int] = frozenset(),
                pairs: frozenset[tuple[int, int]] | None = None) -> None:
    """Rewrite hot adjacent pairs into superinstructions, in place.

    ``pairs`` selects which :data:`FUSION_RULES` entries apply (``None``
    means :data:`DEFAULT_FUSION_PAIRS`). Overlapping fusions are fine: a
    fused slot is only *entered* at its own pc, and it always skips exactly
    one slot, whose unfused decoding is kept for branches that target it
    directly. Slots in ``blocked`` (the leading location constant of a hook
    call site) are never fused in either position, so the machine's
    hook-site rewrite stays reachable.
    """
    if pairs is None:
        rules = _DEFAULT_RULES
    else:
        rules = {pair: FUSION_RULES[pair] for pair in pairs
                 if pair in FUSION_RULES}
    get = rules.get
    for pc in range(len(code) - 1):
        if pc in blocked or pc + 1 in blocked:
            continue
        first = code[pc]
        second = code[pc + 1]
        rule = get((first[0], second[0]))
        if rule is not None:
            code[pc] = rule(first, second)


#: ``(fmt, mask)`` pairs whose store mask is redundant: the operand stack
#: only holds canonical values, so a full-width store can never overflow
#: its pack format. Narrow stores (store8/16/32) still need the mask.
_FULL_WIDTH_STORES = frozenset({("<I", MASK32), ("<Q", MASK64)})


@cache
def _struct(fmt: str) -> Struct:
    """One compiled ``Struct`` per load/store format (there are a dozen)."""
    return Struct(fmt)


def _quicken_slots(code: list[tuple]) -> None:
    """Wrap bare memory ops in :data:`OP_QUICK` trampolines, in place.

    Each twin pre-resolves what the generic slot re-derives on every
    execution: the ``struct`` format string becomes a bound
    ``Struct.unpack_from``/``pack_into`` method (no format-cache probe per
    access), and the canonicalization mask is dropped when the format
    already yields canonical values (unsigned loads; full-width stores).
    Signed loads and narrow stores keep their masks. The twin's last field
    is the access width in bytes, used only on the trap path so
    out-of-bounds messages stay bit-identical with the unquickened engine.
    """
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == OP_LOAD_INT:
            fmt = ins[1]
            s = _struct(fmt)
            if fmt[1].isupper():  # unsigned: unpack is already canonical
                twin = (OP_QLOAD, s.unpack_from, ins[2], s.size)
            else:
                twin = (OP_QLOAD_MASK, s.unpack_from, ins[2], ins[3], s.size)
            code[pc] = (OP_QUICK, twin)
        elif op == OP_LOAD_FLOAT:
            s = _struct(ins[1])
            code[pc] = (OP_QUICK, (OP_QLOAD, s.unpack_from, ins[2], s.size))
        elif op == OP_STORE_INT:
            fmt = ins[1]
            s = _struct(fmt)
            if (fmt, ins[3]) in _FULL_WIDTH_STORES:
                twin = (OP_QSTORE, s.pack_into, ins[2], s.size)
            else:
                twin = (OP_QSTORE_MASK, s.pack_into, ins[2], ins[3], s.size)
            code[pc] = (OP_QUICK, twin)
        elif op == OP_STORE_FLOAT:
            s = _struct(ins[1])
            code[pc] = (OP_QUICK, (OP_QSTORE, s.pack_into, ins[2], s.size))


def oob_message(width: int, addr: int, memdata, what: str) -> str:
    """The canonical out-of-bounds trap message.

    Compiled segments, quickened twins, and the generic machine handlers
    all funnel through this one formatter so the trap text is bit-identical
    across every engine configuration.
    """
    size = len(memdata) if memdata is not None else 0
    return (f"out of bounds memory access ({what} of {width} bytes "
            f"at address {addr}, memory is {size} bytes)")


#: Shortest run worth compiling: below this, one CALL_FUNCTION into the
#: compiled segment costs about as much as the dispatches it saves.
_SEGMENT_MIN = 4

#: Ops a compiled segment may contain: pure operand-stack work with no
#: control flow, no calls, and no observable effects besides locals and
#: linear memory — exactly the part of the stream where dispatch overhead
#: is pure loss.
_SEGMENT_VOCAB = frozenset({
    OP_GET_LOCAL, OP_BINARY, OP_CONST, OP_SET_LOCAL, OP_LOAD_INT,
    OP_LOAD_FLOAT, OP_STORE_INT, OP_STORE_FLOAT, OP_UNARY, OP_TEE_LOCAL,
    OP_DROP,
})

#: Binary handlers with an exact inline expression template, keyed by the
#: *identity* of the table function — matching by identity means a template
#: can never drift from the semantics it replaces (anything unrecognized is
#: called through the table function instead of inlined).
_INLINE_BINOPS: dict[int, str] = {
    id(BINOPS[name]): template
    for name, template in {
        "i32.add": "(({a} + {b}) & 0xffffffff)",
        "i32.sub": "(({a} - {b}) & 0xffffffff)",
        "i32.mul": "(({a} * {b}) & 0xffffffff)",
        "i32.shl": "(({a} << ({b} % 32)) & 0xffffffff)",
        "i64.add": "(({a} + {b}) & 0xffffffffffffffff)",
        "i64.sub": "(({a} - {b}) & 0xffffffffffffffff)",
        "i64.mul": "(({a} * {b}) & 0xffffffffffffffff)",
        "i64.shl": "(({a} << ({b} % 64)) & 0xffffffffffffffff)",
        "i32.and": "({a} & {b})",
        "i32.or": "({a} | {b})",
        "i32.xor": "({a} ^ {b})",
        "f64.add": "({a} + {b})",
        "f64.sub": "({a} - {b})",
        "f64.mul": "({a} * {b})",
    }.items()
}

#: Shifts by an ``i32.const``/``i64.const`` operand (array indexing's
#: ``i << 3``): the count is reduced modulo the width when the segment is
#: built, so the template drops the run-time ``%``.
_CONST_SHIFTS: dict[int, tuple[int, str]] = {
    id(BINOPS["i32.shl"]): (32, "(({a} << {b}) & 0xffffffff)"),
    id(BINOPS["i64.shl"]): (64, "(({a} << {b}) & 0xffffffffffffffff)"),
}

#: Globals every compiled segment shares; everything else a segment refers
#: to is one of its own parameters.
_SEGMENT_GLOBALS = {"_se": _struct_error, "_Trap": Trap, "_oob": oob_message}

#: Entries the process-wide segment code cache holds before it is cleared.
#: Fixed, so fuzz campaigns and long-lived serve workers, which see an
#: unbounded number of shapes, keep a bounded cache.
SEGMENT_CODE_CACHE_MAX = 4096


class SegmentCodeCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int


class _SegmentCodeCache:
    """Compiled segment code by generated source, shared by the process.

    The source holds only a segment's *shape*: every constant, local
    index, memarg offset, mask and handler is a parameter, so functions
    (and modules) with the same straight-line run share one code object
    and ``compile()`` runs once per shape.
    """

    def __init__(self) -> None:
        self._codes: dict[str, CodeType] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def code_for(self, src: str) -> CodeType:
        with self._lock:
            code = self._codes.get(src)
            if code is not None:
                self.hits += 1
                return code
            self.misses += 1
            module = compile(src, "<quickened-segment>", "exec")
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            if len(self._codes) >= SEGMENT_CODE_CACHE_MAX:
                self._codes.clear()
            self._codes[src] = code
            return code

    def info(self) -> SegmentCodeCacheInfo:
        with self._lock:
            return SegmentCodeCacheInfo(self.hits, self.misses, len(self._codes))


_SEGMENT_CODES = _SegmentCodeCache()


def segment_code_cache_info() -> SegmentCodeCacheInfo:
    """Hits, misses and current size of the process-wide segment code cache.

    A miss is one ``compile()`` call; every other compiled segment reused
    the code object of an earlier segment with the same shape.
    """
    return _SEGMENT_CODES.info()


def _compile_segment(slots: list[tuple]):
    """Translate a straight-line run of decoded slots into one function.

    Symbolically executes the run against a virtual operand stack of
    Python expressions, emitting one statement per produced value (so
    evaluation order, every i32/i64 wrap mask, and the order of memory
    effects match the interpreted stream exactly). Values the run consumes
    from below its own pushes become leading ``stack`` reads; whatever the
    virtual stack holds at the end is appended back. Loads and stores keep
    their individual try/except so a trapping access raises the same
    message after the same prefix of memory effects as the generic
    handlers.

    The generated text names no value, only the run's shape: constants
    (``c``), local indices (``l``), memarg offsets (``o``), masks (``m``),
    access widths (``w``) and called handlers or ``Struct`` methods
    (``f``) are parameters numbered in order of use, bound per segment as
    defaults. The code object comes from the process-wide shape cache.
    """
    params: list[str] = []
    values: list = []
    lines: list[str] = []
    # virtual stack entries are expressions, or a 1-tuple holding a
    # constant that has not been given a parameter yet
    vstack: list = []
    counters = {"a": 0, "t": 0, "c": 0, "l": 0, "o": 0, "m": 0, "w": 0, "f": 0}

    def name(kind: str) -> str:
        n = counters[kind]
        counters[kind] = n + 1
        return f"{kind}{n}"

    def param(kind: str, value) -> str:
        p = name(kind)
        params.append(p)
        values.append(value)
        return p

    def operand(entry) -> str:
        return entry if isinstance(entry, str) else param("c", entry[0])

    def vpop() -> str:
        return operand(vstack.pop()) if vstack else name("a")

    def vpeek() -> str:
        if not vstack:
            # borrow the entry stack's top: it is consumed by the prologue
            # and re-pushed by the epilogue, preserving net stack effect
            vstack.append(name("a"))
        top = vstack[-1] = operand(vstack[-1])
        return top

    def addr_of(base: str, offset: int) -> str:
        if not offset:
            return base
        addr = name("t")
        lines.append(f"{addr} = {base} + {param('o', offset)}")
        return addr

    def emit_load(ins, masked: bool) -> None:
        addr = addr_of(vpop(), ins[2])
        s = _struct(ins[1])
        out = name("t")
        mask = f" & {param('m', ins[3])}" if masked else ""
        lines.extend(
            [
                "try:",
                f"    {out} = {param('f', s.unpack_from)}(memdata, {addr})[0]{mask}",
                "except _se:",
                f"    raise _Trap(_oob({param('w', s.size)}, {addr}, memdata, 'load')) from None",
            ]
        )
        vstack.append(out)

    def emit_store(ins, masked: bool) -> None:
        value = vpop()
        addr = addr_of(vpop(), ins[2])
        s = _struct(ins[1])
        mask = f" & {param('m', ins[3])}" if masked else ""
        lines.extend(
            [
                "try:",
                f"    {param('f', s.pack_into)}(memdata, {addr}, {value}{mask})",
                "except _se:",
                f"    raise _Trap(_oob({param('w', s.size)}, {addr}, memdata, 'store')) from None",
            ]
        )

    for ins in slots:
        op = ins[0]
        if op == OP_GET_LOCAL:
            out = name("t")
            lines.append(f"{out} = locals_[{param('l', ins[1])}]")
            vstack.append(out)
        elif op == OP_CONST:
            vstack.append((ins[1],))
        elif op == OP_BINARY:
            shift = _CONST_SHIFTS.get(id(ins[1]))
            if shift is not None and vstack and not isinstance(vstack[-1], str):
                width, template = shift
                b = param("c", vstack.pop()[0] % width)
            else:
                template = _INLINE_BINOPS.get(id(ins[1]))
                b = vpop()
            a = vpop()
            out = name("t")
            if template is not None:
                lines.append(f"{out} = " + template.format(a=a, b=b))
            else:
                lines.append(f"{out} = {param('f', ins[1])}({a}, {b})")
            vstack.append(out)
        elif op == OP_SET_LOCAL:
            value = vpop()
            lines.append(f"locals_[{param('l', ins[1])}] = {value}")
        elif op == OP_TEE_LOCAL:
            value = vpeek()
            lines.append(f"locals_[{param('l', ins[1])}] = {value}")
        elif op == OP_UNARY:
            value = vpop()
            out = name("t")
            lines.append(f"{out} = {param('f', ins[1])}({value})")
            vstack.append(out)
        elif op == OP_LOAD_INT:
            emit_load(ins, masked=True)
        elif op == OP_LOAD_FLOAT:
            emit_load(ins, masked=False)
        elif op == OP_STORE_INT:
            emit_store(ins, masked=True)
        elif op == OP_STORE_FLOAT:
            emit_store(ins, masked=False)
        elif vstack:  # OP_DROP of a value the run produced
            vstack.pop()
        else:  # OP_DROP of an entry-stack value
            name("a")

    n_args = counters["a"]
    prologue = [f"a{k} = stack[-{k + 1}]" for k in range(n_args)]
    if n_args:
        prologue.append(f"del stack[-{n_args}:]")
    epilogue = [f"stack.append({operand(entry)})" for entry in vstack]
    body = prologue + lines + epilogue
    if not body:
        return None
    signature = ", ".join(["stack", "locals_", "memdata", *params])
    src = f"def _segment({signature}):\n" + "\n".join("    " + line for line in body)
    code = _SEGMENT_CODES.code_for(src)
    return FunctionType(code, _SEGMENT_GLOBALS, "_segment", tuple(values))


def _compile_segments(code: list[tuple],
                      blocked: frozenset[int] | set[int] = frozenset()) -> None:
    """Replace straight-line runs with :data:`OP_SEGMENT` slots, in place.

    Runs before pair fusion: the segment takes the run's first slot (so
    fusion can never consume it), while the covered slots keep their
    ordinary decoding as the branch-target fallback — fusion and memory-op
    quickening still apply to them, so a branch into the middle of a
    segment executes at fused-pair speed. Hook sites (``blocked``) never
    join a segment; the machine's per-instance OP_HOOK rewrite stays
    reachable.
    """
    n = len(code)
    pc = 0
    while pc < n:
        if code[pc][0] in _SEGMENT_VOCAB and pc not in blocked:
            start = pc
            while pc < n and code[pc][0] in _SEGMENT_VOCAB and pc not in blocked:
                pc += 1
            if pc - start >= _SEGMENT_MIN:
                fn = _compile_segment(code[start:pc])
                if fn is not None:
                    code[start] = (OP_SEGMENT, fn, pc - start)
        else:
            pc += 1


def decode_function(func: Function, module: Module,
                    fuse: bool = True,
                    pairs: frozenset[tuple[int, int]] | None = None,
                    quicken: bool = False,
                    spaces: IndexSpaces | None = None) -> DecodedFunction:
    """Decode one function body into its threaded form (uncached).

    ``fuse=False`` skips the pair-fusion pass, leaving every slot a base
    opcode — the self-profiler executes unfused streams so its per-opcode
    counts attribute 1:1 to source instructions. ``pairs`` selects the
    fusion table (``None`` = :data:`DEFAULT_FUSION_PAIRS`); ``quicken``
    additionally wraps bare memory ops in :data:`OP_QUICK` trampolines and
    records ``call_indirect`` slots in ``indirect_sites`` for the machine's
    per-instance inline-cache rewrite. ``spaces`` is the module's
    index-space snapshot, built here when the caller does not share one.
    """
    body = func.body
    end_of, else_of = match_blocks(body)
    hook_imports = _hook_import_indices(module)
    if spaces is None:
        spaces = module.index_spaces()
    code: list[tuple] = []
    for pc, instr in enumerate(body):
        try:
            code.append(_decode_instr(instr, pc, module, spaces, end_of, else_of))
        except Exception as exc:
            # Malformed instructions (missing immediates, unclosed blocks)
            # fail at *execution* time in the legacy loop; mirror that by
            # decoding them to a raising placeholder instead of refusing to
            # instantiate.
            code.append((OP_RAISE, WasmError(f"cannot execute {instr}: {exc}")))
    hook_sites: tuple[int, ...] = ()
    blocked: set[int] = set()
    if hook_imports:
        hook_sites = tuple(
            pc for pc, ins in enumerate(code) if ins[0] == OP_CALL and ins[1] in hook_imports
        )
        for pc in hook_sites:
            # the instrumentation idiom: two i32.const location operands
            # directly before the hook call — reserve the first const slot
            # for the machine's OP_HOOK rewrite
            consts = pc >= 2 and code[pc - 1][0] == OP_CONST and code[pc - 2][0] == OP_CONST
            if consts and code[pc][2] >= 2:
                blocked.add(pc - 2)
    if quicken:
        # before fusion: the segment claims each run's first slot (so a
        # fusion pair can never swallow it), while the covered slots fall
        # through to fusion + quickening as branch-target fallbacks
        _compile_segments(code, blocked)
    if fuse:
        _fuse_pairs(code, blocked, pairs)
    indirect_sites: tuple[int, ...] = ()
    if quicken:
        _quicken_slots(code)
        indirect_sites = tuple(
            pc for pc, ins in enumerate(code) if ins[0] == OP_CALL_INDIRECT)
    return DecodedFunction(code, body, hook_sites, indirect_sites)


def cached_decode(func: Function, module: Module,
                  pairs: frozenset[tuple[int, int]] | None = None,
                  quicken: bool = False,
                  spaces: IndexSpaces | None = None) -> tuple[DecodedFunction, bool]:
    """Decode ``func``, reusing the per-``Function`` cache when possible.

    The cache (``func._decoded``) is keyed by decode variant
    ``(quicken, pairs)``: quickened streams rewrite their own slots as they
    execute, so an unquickened machine (``REPRO_QUICKEN=0``) and machines
    with different PGO fusion tables must never observe each other's
    streams. Replacing ``func.body`` invalidates every variant at once.
    Returns ``(decoded, was_cache_hit)``.
    """
    key = (quicken, pairs)
    cache: dict | None = getattr(func, "_decoded", None)
    if cache is not None:
        decoded = cache.get(key)
        if (
            decoded is not None
            and decoded.source_body is func.body
            and len(decoded.code) == len(func.body)
        ):
            return decoded, True
        # any stale variant means the body was replaced (or mutated):
        # every cached stream decoded from the old body is now invalid
        stale = next(iter(cache.values()), None)
        if stale is not None and (stale.source_body is not func.body
                                  or len(stale.code) != len(func.body)):
            cache = None
    if cache is None:
        cache = {}
        func._decoded = cache  # type: ignore[attr-defined]
    decoded = decode_function(func, module, pairs=pairs, quicken=quicken,
                              spaces=spaces)
    cache[key] = decoded
    return decoded, False


def stream_summary(module: Module) -> dict:
    """Static triage summary of a module's decoded streams.

    Decodes every defined function (through the per-``Function`` cache)
    and aggregates what crash-bundle inspection wants to show at a
    glance: total decoded instructions, Wasabi hook call sites (non-zero
    means the binary was instrumented), instructions that decoded to
    raising :data:`OP_RAISE` placeholders (malformed bodies a fuzz mutant
    smuggled past validation), and direct host-boundary call sites —
    the slots whose results a replay log must supply.
    """
    host_imports = set()
    for idx, imp in enumerate(i for i in module.imports if isinstance(i.desc, int)):
        if imp.module != HOOK_IMPORT_MODULE:
            host_imports.add(idx)
    instructions = hook_sites = raising = host_call_sites = 0
    spaces = module.index_spaces()
    for func in module.functions:
        decoded, _ = cached_decode(func, module, spaces=spaces)
        instructions += len(decoded.code)
        hook_sites += len(decoded.hook_sites)
        for ins in decoded.code:
            if ins[0] == OP_RAISE:
                raising += 1
            elif ins[0] == OP_CALL and ins[1] in host_imports:
                host_call_sites += 1
    return {
        "instructions": instructions,
        "hook_sites": hook_sites,
        "raising": raising,
        "host_call_sites": host_call_sites,
    }
