"""Regenerate the committed reference outputs in ``perfbench/refs/``.

The references come from the legacy interpreter loop
(``Machine(predecode=False)``), the engine kept as the independent oracle,
so the production engine the benchmark times is never checked against
itself. Run once from the repository root when a workload's program set or
size changes::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro.analyses.instruction_mix import InstructionMixAnalysis  # noqa: E402
from repro.core.session import AnalysisSession  # noqa: E402
from repro.interp.machine import Machine  # noqa: E402
from repro.interp.snapshot import encode_values  # noqa: E402
from repro.wasm.decoder import decode_module  # noqa: E402

import programs  # noqa: E402
from passes import ENTRY, print_linker  # noqa: E402


def reference(name: str, n: int | None, mix: bool) -> dict:
    module = decode_module(programs.kernel_bytes(name, n))
    printed: list = []
    instance = Machine(predecode=False).instantiate(module, print_linker(printed))
    results = instance.invoke(ENTRY, [])
    ref = {"printed": encode_values(printed), "results": encode_values(results)}
    if mix:
        analysis = InstructionMixAnalysis()
        mixed: list = []
        session = AnalysisSession(module, analysis, linker=print_linker(mixed),
                                  machine=Machine(predecode=False))
        results = session.invoke(ENTRY, [])
        if {"printed": encode_values(mixed),
                "results": encode_values(results)} != ref:
            raise SystemExit(f"{name}: analyzed output differs from the original")
        ref["mix_counts"] = dict(sorted(analysis.counts.items()))
        ref["mix_total"] = sum(analysis.counts.values())
    return ref


def main() -> int:
    refs = {}
    for name, n in programs.cold_start_programs():
        refs[programs.kernel_key(name, n)] = reference(name, n, mix=False)
    for name, n in programs.analyze_programs():
        refs[programs.kernel_key(name, n)] = reference(name, n, mix=True)
    programs.REFS_DIR.mkdir(exist_ok=True)
    path = programs.REFS_DIR / "polybench.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
