"""Spans around the audit's layers, recorded from outside the program.

The tracer replaces public functions by timing wrappers through their module
attributes. Callers inside the package look those attributes up at call time
(audit calls clustering.dbscan, clustering calls kernels.neighbor_lists and
kernels.kth_neighbor_distances), so every call passes a wrapper. Per-row
helpers such as kernels.dists_to are deliberately not wrapped: they run
millions of times per audit and a wrapper would distort the timings.

Spans are kept in memory; a layer's self time is its span's duration minus
the part of it that child spans cover. Counters come from call arguments and
return values (edges from list lengths, evals from shapes); `.bytes` of the
neighbour lists is computed as edges x 8 (int64 indices), not measured.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    audit: int
    counters: dict[str, float] = field(default_factory=dict)


def _neighbor_counts(args, result) -> dict[str, float]:
    n = len(args[0])
    return {"kernels.neighbor_lists.evals": n * n,
            "kernels.neighbor_lists.edges": sum(len(nb) for nb in result)}


def _dbscan_counts(args, result) -> dict[str, float]:
    return {
        "clustering.clusters": result.n_clusters,
        "clustering.core_rows": int(result.core_mask.sum()),
        "clustering.noise_rows": result.noise_count,
    }


def _emit_counts(args, result) -> dict[str, float]:
    return {"report.emit.bytes": sum(p.stat().st_size for p in Path(args[1]).iterdir())}


# (module in cmla, attribute, span name, counters from (args, result))
LAYERS = (
    ("tables", "load_csv", "tables.load_csv",
     lambda args, result: {"tables.load_csv.rows": result.n_rows}),
    ("encoding", "encode", "encoding.encode", None),
    ("kernels", "neighbor_lists", "kernels.neighbor_lists", _neighbor_counts),
    ("kernels", "kth_neighbor_distances", "kernels.kth_neighbor_distances",
     lambda args, result: {"kernels.kth_neighbor_distances.evals": len(args[0]) ** 2}),
    ("clustering", "dbscan", "clustering.dbscan", _dbscan_counts),
    ("kernels", "medoid_local_index", "kernels.medoid_local_index",
     lambda args, result: {"kernels.medoid_local_index.evals": len(args[0]) ** 2}),
    ("clustering", "extract_medoids", "clustering.extract_medoids", None),
    ("kernels", "cross_min_distances", "kernels.cross_min_distances",
     lambda args, result: {"kernels.cross_min_distances.evals": len(args[0]) * len(args[1])}),
    ("metrics", "proximity_profile_gower", "metrics.proximity_profile_gower", None),
    ("metrics", "curves_from_profile", "metrics.curves_from_profile", None),
    # _emit_files writes every artifact into --out: the report layer's boundary.
    ("audit", "_emit_files", "report.emit", _emit_counts),
    ("audit", "run_audit", "audit.run_audit", None),
)
ROOT_SPAN = "cli.main"

# Per-layer metrics of one audit: inclusive times of leaf layers, self times
# of the layers that have children, and counters, all summed over calls.
_TOTAL_S = (
    "tables.load_csv", "encoding.encode", "kernels.neighbor_lists",
    "kernels.kth_neighbor_distances", "kernels.medoid_local_index",
    "kernels.cross_min_distances", "metrics.proximity_profile_gower",
    "metrics.curves_from_profile", "report.emit",
)
_SELF_S = ("clustering.dbscan", "clustering.extract_medoids", "audit.run_audit", ROOT_SPAN)
_COUNTS = (
    "tables.load_csv.rows", "kernels.neighbor_lists.evals", "kernels.neighbor_lists.edges",
    "kernels.kth_neighbor_distances.evals", "clustering.clusters", "clustering.core_rows",
    "clustering.noise_rows", "kernels.medoid_local_index.evals",
    "kernels.cross_min_distances.evals", "report.emit.bytes",
)
LAYER_UNITS = {
    **{f"{name}.s": "s" for name in _TOTAL_S},
    **{f"{name}.self_s": "s" for name in _SELF_S},
    **{name: "B" if name.endswith(".bytes") else "count" for name in _COUNTS},
    "kernels.neighbor_lists.hit_ratio": "ratio",
    "kernels.neighbor_lists.bytes": "B",
}


class Tracer:
    """Records spans while installed; restores the original functions on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.audit = 0
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, count in LAYERS:
            module = importlib.import_module(f"cmla.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, time.perf_counter(), math.nan, parent, self.audit)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counters.update(count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span. Children are the given spans whose parent is its id."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for child in sorted(children[sp.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.end - sp.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one audit's spans; a layer that did not run reads 0."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for sp, self_s in zip(spans, self_times(spans)):
        total[sp.name] += sp.end - sp.start
        own[sp.name] += self_s
        for key, value in sp.counters.items():
            counts[key] += value
    out = {f"{name}.s": total[name] for name in _TOTAL_S}
    out.update({f"{name}.self_s": own[name] for name in _SELF_S})
    out.update({name: counts[name] for name in _COUNTS})
    evals = counts["kernels.neighbor_lists.evals"]
    edges = counts["kernels.neighbor_lists.edges"]
    out["kernels.neighbor_lists.hit_ratio"] = edges / evals if evals else 0.0
    out["kernels.neighbor_lists.bytes"] = edges * 8
    return out
