"""Summary statistics and span arithmetic used by the benchmark (run.py).

Nothing here imports the program under test, so the rules can be unit
tested on synthetic samples and span trees.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for a tail, highest first. The reported tail is
#: the highest one with at least :data:`MIN_BEYOND` samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with ten samples beyond it, as (label, value).

    With fewer than twenty samples no percentile above the median has ten
    samples beyond it, so the median is reported instead (label ``p50``);
    callers print the sample count next to it.
    """
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND:
            return f"p{pct:g}", percentile(samples, pct)
    return "p50", statistics.median(samples)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span id: duration minus its direct children's durations.

    ``spans`` are :meth:`repro.obs.spans.Span.as_dict` records carrying
    ``span_id``/``parent_id``. Durations, not start stamps, are used, so a
    tree whose spans were recorded by different processes (each with its
    own clock origin) still adds up. Children of one parent never overlap
    in this benchmark: every layer call is sequential.
    """
    child_total: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + span["duration"]
    return {span["span_id"]: span["duration"] - child_total.get(span["span_id"], 0.0)
            for span in spans}


def layer_split(spans: list[dict], layer_of) -> tuple[float, dict[str, float], float]:
    """Split the traced wall time of one span tree by layer.

    ``layer_of(span)`` names the layer a span belongs to, or ``None`` for a
    span that is not a layer call (a pass or program wrapper). Returns
    ``(wall, self time per layer, unattributed)`` where ``wall`` is the
    summed duration of the root spans and the layer self times plus
    ``unattributed`` equal ``wall``.
    """
    own = self_times(spans)
    ids = {span["span_id"] for span in spans}
    wall = sum(span["duration"] for span in spans
               if span.get("parent_id") not in ids)
    layers: dict[str, float] = {}
    unattributed = 0.0
    for span in spans:
        layer = layer_of(span)
        if layer is None:
            unattributed += own[span["span_id"]]
        else:
            layers[layer] = layers.get(layer, 0.0) + own[span["span_id"]]
    return wall, layers, unattributed

