"""Host-speed scaling: reported times are in reference-speed seconds.

The benchmark shares its host with other work. On a shared CPU the same
pass has been measured up to twice as slow for minutes at a time, with the
host switching between a fast and a slow state in between. A fixed loop,
timed right before and right after each op, tracks that drift: the op's
measured seconds are scaled by ``REFERENCE_S`` over the mean of those two
loop timings, i.e. reported as the op's duration on a host where the loop
takes exactly ``REFERENCE_S``. On the development host, over ten minutes in
which raw pass times swung by up to 50%, the scaled medians of consecutive
runs of passes stayed within 6-8% (interquartile range) on instrument and
analyze passes; scaling whole passes by the loop's median, or keeping only
the passes run at full speed, did worse.

The loop mimics the program's hot paths — tuple dispatch with ``struct``
loads and stores into a ``bytearray``, varint parsing into many small
slotted objects walked with dict-keyed counting — but shares no code with
it, so a change to the program moves the scaled numbers while a change in
host speed largely cancels out. Do not edit :func:`loop`: every scaled
number of this benchmark is relative to it.
"""

from __future__ import annotations

import gc
import struct
import time

#: Seconds :func:`loop` takes on the reference host.
REFERENCE_S = 0.003

_F64 = struct.Struct("<d")
_CODE = ((0, 1), (1, 2), (2, 0), (3, 8), (4, 0))
_BUFFER = bytes((i * 37 + 11) & 0xFF for i in range(3000))
_NAMES = ("i32.add", "i32.const", "local.get", "call", "f64.load", "br_if",
          "end", "block")


class _Node:
    __slots__ = ("op", "value", "idx", "children")

    def __init__(self, op, value, idx):
        self.op = op
        self.value = value
        self.idx = idx
        self.children = []


def _dispatch(rounds: int) -> float:
    mem = bytearray(8 * 512)
    stack: list = []
    counts: dict = {}
    acc = 0.0
    for it in range(rounds):
        pc = 0
        while pc < 5:
            op, arg = _CODE[pc]
            if op == 0:
                stack.append(it & 511)
            elif op == 1:
                stack.append(stack.pop() + arg)
            elif op == 2:
                stack.append(_F64.unpack_from(mem, (stack[-1] & 511) * 8)[0])
            elif op == 3:
                value = stack.pop()
                _F64.pack_into(mem, (stack.pop() & 511) * 8, value + 1.5)
                acc += value
            else:
                counts[it & 255] = counts.get(it & 255, 0) + 1
            pc += 1
        tuple([it, acc, pc])
    return acc


def _parse(buf: bytes) -> int:
    pos = 0
    nodes: list = []
    end = len(buf) - 8
    while pos < end:
        result = shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80 or shift > 28:
                break
        node = _Node(_NAMES[result & 7], result, result & 1023)
        if nodes and result & 3 == 0:
            nodes[-1].children.append(node)
        nodes.append(node)
    kinds: dict = {}
    total = 0
    for node in nodes:
        kinds[node.op] = kinds.get(node.op, 0) + 1
        if node.op.startswith("i32"):
            total += node.value & 0xFFFF
        total += len(node.children)
    return total + len(kinds)


def loop() -> float:
    """A fixed amount (a few milliseconds) of interpreter- and decoder-like work."""
    return _dispatch(1500) + _parse(_BUFFER)


def sample() -> float:
    """Seconds one :func:`loop` takes, after one untimed warm-up loop.

    Both keep the op that ran before out of the reading: the first loop
    after an op runs about 8% slower while it refills the caches the op
    evicted, and a cyclic garbage collection triggered inside the loop
    would walk the op's whole heap, so the collector is paused meanwhile.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        loop()
        begin = time.perf_counter()
        loop()
        return time.perf_counter() - begin
    finally:
        if collecting:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor turning an op's seconds into reference-speed seconds, from
    the loop timings right before and right after it."""
    return REFERENCE_S / ((before + after) / 2)
