"""The benchmark's inputs: which programs each workload runs, at which size.

Everything here is generated from source on every run (MiniC is compiled,
the synthetic binaries are built), so a checkout needs nothing but the
repository. The generators behind ``lru_cache`` are called through
``__wrapped__`` so repeated set-ups in one process really redo the work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.minic import compile_source
from repro.wasm.encoder import encode_module
from repro.workloads import synthetic
from repro.workloads.polybench import get_kernel, kernel_names

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Table 5's large binaries: (generator, scale). A quarter of the scales
#: of the repository's Table 5 run (4 and 8): one pass then takes about a
#: second and a half, so that one run holds four or more fresh-process
#: passes to take a median over.
INSTRUMENT_PROGRAMS = (("pdf_toolkit", 1.0), ("engine_demo", 2.0))

#: Fig. 9's subset (``repro.eval.workloads.POLYBENCH_FAST_SUBSET``) at sizes
#: where one uninstrumented run takes about ten to a hundred milliseconds,
#: so execution and hook dispatch dominate the pass.
ANALYZE_SIZES = {"gemm": 14, "jacobi-1d": 120, "trisolv": 48, "durbin": 48,
                 "floyd-warshall": 16, "bicg": 40}

#: PolyBench kernels the serve mix runs, at their default size: the ones
#: whose run is a few milliseconds, so a request costs mostly dispatch.
SERVE_RUN_KERNELS = ("atax", "bicg", "durbin", "gesummv", "jacobi-1d", "mvt",
                     "trisolv", "trmm")

#: Kernels the serve mix sends as ``instrument`` requests.
SERVE_INSTRUMENT_KERNELS = ("gemm", "jacobi-2d")


def kernel_key(name: str, n: int | None = None) -> str:
    return f"{name}@{n or get_kernel(name).default_n}"


def kernel_bytes(name: str, n: int | None = None) -> bytes:
    """Compile one PolyBench kernel from MiniC source (uncached)."""
    return encode_module(compile_source(get_kernel(name).source(n), name))


def synthetic_bytes(name: str, scale: float) -> bytes:
    return encode_module(getattr(synthetic, name).__wrapped__(scale))


def cold_start_programs() -> list[tuple[str, int | None]]:
    return [(name, None) for name in kernel_names()]


def analyze_programs() -> list[tuple[str, int | None]]:
    return sorted(ANALYZE_SIZES.items())


def load_refs() -> dict:
    return json.loads((REFS_DIR / "polybench.json").read_text())


def reference_for(refs: dict, key: str) -> dict:
    """The committed reference of one program; a missing one is an error."""
    try:
        return refs[key]
    except KeyError:
        raise KeyError(f"no committed reference for {key}; "
                       f"regenerate with perfbench/make_refs.py") from None


# -- pass inputs: {"name", "bytes", "ref"} per program ------------------------------


def instrument_inputs() -> list[dict]:
    return [{"name": f"{name}({scale:g})", "bytes": synthetic_bytes(name, scale)}
            for name, scale in INSTRUMENT_PROGRAMS]


def kernel_inputs(selection: list[tuple[str, int | None]]) -> list[dict]:
    refs = load_refs()
    return [{"name": kernel_key(name, n), "bytes": kernel_bytes(name, n),
             "ref": reference_for(refs, kernel_key(name, n))}
            for name, n in selection]


def cold_start_inputs() -> list[dict]:
    return kernel_inputs(cold_start_programs())


def analyze_inputs() -> list[dict]:
    return kernel_inputs(analyze_programs())


# -- generated WASI inputs -------------------------------------------------------

WORDS = (b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta", b"eta",
         b"theta", b"iota", b"kappa")


def wasi_stdin(rng: random.Random, lines: int = 64) -> bytes:
    """Text lines of random words; about a third carry the ``@`` needle."""
    out = []
    for _ in range(lines):
        words = [rng.choice(WORDS) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.35:
            words.insert(rng.randrange(len(words) + 1), b"@" + rng.choice(WORDS))
        out.append(b" ".join(words))
    return b"\n".join(out) + b"\n"


def wasi_csv(rng: random.Random, rows: int = 64) -> bytes:
    return b"".join(b"%s,%d,%s\n" % (rng.choice(WORDS), rng.randint(0, 999),
                                     rng.choice(WORDS))
                    for _ in range(rows))
