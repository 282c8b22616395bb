"""In-memory spans around castgraph's public functions, and the per-layer metrics.

A :class:`Tracer` wraps each hooked function once and installs the wrapper at
every binding site: every ``castgraph.*`` module attribute that holds the
original object (``pipeline``, ``tracks`` and ``diarize`` import
``distance_matrix`` and friends by name). Pipeline stages are wrapped through
a ``PipelineRun`` subclass whose ``STAGES`` holds traced copies, because the
class attribute holds the original function objects. A hook point that no
longer exists is recorded in ``Tracer.missing`` and skipped.

Spans are ``[name, start, end, parent_index, counts]`` lists kept in memory;
the caller writes them out when the run ends. :func:`per_layer_metrics`
turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time

STAGES = (
    "split",
    "pair",
    "merge",
    "diarize",
    "cluster_faces",
    "cluster_speakers",
    "bridge",
    "graph",
    "eval",
)
# checkpoint files by stem; a stem's bytes include every file it prefixes,
# so a sidecar written next to a checkpoint is counted with it
CHECKPOINTS = (
    "01_tracks_split",
    "02_av_pairs",
    "03_entities",
    "04_diarization",
    "05_face_labels",
    "06_speaker_labels",
    "07_identities",
    "08_graph",
)


def _entries(args, kwargs, result):
    return {"entries": int(result.entries.size)}


def _fallback(args, kwargs, result):
    return {"fallback_calls": int(bool(result[1]))}


def _hdbscan_n(args, kwargs, result):
    return {"max_n": int(args[0].n)}


def _square_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes), "max_bytes": int(result.nbytes)}


def _payload_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _entity_count(args, kwargs, result):
    return {"entities": len(result)}


def _rejected_ids(args, kwargs, result):
    return {"rejected": sorted(r.segment_id for r in result[1])}


# (module, attribute, span name, count function)
FUNCTION_HOOKS = (
    ("castgraph.catalog", "ingest", "catalog.ingest", None),
    ("castgraph.catalog", "read_emb", "catalog.read_emb", _payload_bytes),
    ("castgraph.tracks", "split_tracks_with_sources", "tracks.split_tracks_with_sources", None),
    ("castgraph.tracks", "assign_active_speakers", "tracks.assign_active_speakers", None),
    ("castgraph.tracks", "merge_tracks", "tracks.merge_tracks", _entity_count),
    ("castgraph.diarize", "filter_segments", "diarize.filter_segments", _rejected_ids),
    ("castgraph.diarize", "diarize_video", "diarize.diarize_video", None),
    ("castgraph.diarize", "reconcile", "diarize.reconcile", None),
    ("castgraph.distcluster", "distance_matrix", "distcluster.distance_matrix", _entries),
    ("castgraph.distcluster", "cluster_with_fallback", "distcluster.cluster_with_fallback", _fallback),
    ("castgraph.distcluster", "hdbscan", "distcluster.hdbscan", _hdbscan_n),
    ("castgraph.distcluster", "dbscan", "distcluster.dbscan", None),
    ("castgraph.distcluster", "k_distance_eps", "distcluster.k_distance_eps", None),
    ("castgraph.bridge", "build_graph", "bridge.build_graph", None),
    ("castgraph.bridge", "resolve_identities", "bridge.resolve_identities", None),
    ("castgraph.bridge", "conflict_report", "bridge.conflict_report", None),
    ("castgraph.collabgraph", "build_appearance_index", "collabgraph.build_appearance_index", None),
    ("castgraph.collabgraph", "assign_creators", "collabgraph.assign_creators", None),
    ("castgraph.collabgraph", "detect_collaborations", "collabgraph.detect_collaborations", None),
    ("castgraph.collabgraph", "graph_stats", "collabgraph.graph_stats", None),
    ("castgraph.metrics", "der", "metrics.der", None),
    ("castgraph.metrics", "homogeneity", "metrics.homogeneity", None),
    ("castgraph.metrics", "completeness", "metrics.completeness", None),
    ("castgraph.metrics", "v_measure", "metrics.v_measure", None),
    ("castgraph.metrics", "assignment_accuracy", "metrics.assignment_accuracy", None),
)
# (module, class, method, span name, count function)
METHOD_HOOKS = (
    ("castgraph.distcluster", "CondensedDistanceMatrix", "to_square", "distcluster.to_square", _square_bytes),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        # (object, attribute, original value) for every hook installed
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """fn, recording one span per call; count(args, kwargs, result) adds counts."""

        def traced(*args, **kwargs):
            record = [name, self.clock(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Hook every function, method and pipeline stage listed above."""
        for module_name, attr, name, count in FUNCTION_HOOKS:
            original = getattr(_module(module_name), attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._rebind(original, self.wrap(name, original, count))
        for module_name, cls_name, attr, name, count in METHOD_HOOKS:
            cls = getattr(_module(module_name), cls_name, None)
            original = getattr(cls, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.wrap(name, original, count))
        self._install_stages()

    def uninstall(self) -> None:
        """Restore every attribute install() replaced."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every castgraph module attribute bound to original at replacement."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "castgraph" or module_name.startswith("castgraph.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _install_stages(self) -> None:
        base = getattr(_module("castgraph.pipeline"), "PipelineRun", None)
        try:
            stages = tuple((name, self.wrap(f"pipeline.{name}", fn)) for name, fn in base.STAGES)
        except (AttributeError, TypeError, ValueError):
            self.missing.append("castgraph.pipeline.PipelineRun.STAGES")
            return
        attrs = {"STAGES": stages}
        for name in STAGES[:-1]:
            if name not in dict(stages):
                self.missing.append(f"castgraph.pipeline.PipelineRun.STAGES[{name}]")
        if callable(getattr(base, "evaluate", None)):
            attrs["evaluate"] = self.wrap("pipeline.eval", base.evaluate)
        else:
            self.missing.append("castgraph.pipeline.PipelineRun.evaluate")
        self._rebind(base, type("TracedPipelineRun", (base,), attrs))


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# --- analysis -------------------------------------------------------------------

def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed counts.

    Time nested inside a span of the same name is counted once. Count keys
    starting with ``max_`` keep the maximum; list-valued counts are unions
    of ids and report their size.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            agg["s"] += end - start
        for key, value in (counts or {}).items():
            if isinstance(value, list):
                agg.setdefault(key, set()).update(value)
            elif key.startswith("max_"):
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    for agg in out.values():
        for key, value in list(agg.items()):
            if isinstance(value, set):
                agg[key] = len(value)
    return out


# (metric name, unit, better); the value comes from aggregate() unless noted
def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for stage in STAGES:
        spec += [(f"pipeline.{stage}.s", "s", "lower"), (f"pipeline.{stage}.self_s", "s", "lower")]
    spec += [(f"pipeline.{stem}.bytes", "bytes", "lower") for stem in CHECKPOINTS]
    spec += [
        ("pipeline.run.s", "s", "lower"),
        ("pipeline.run.other_s", "s", "lower"),
        ("pipeline.run.cpu_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("catalog.ingest.s", "s", "lower"),
        ("catalog.read_emb.s", "s", "lower"),
        ("catalog.read_emb.bytes", "bytes", "lower"),
        ("tracks.split_tracks_with_sources.s", "s", "lower"),
        ("tracks.assign_active_speakers.s", "s", "lower"),
        ("tracks.merge_tracks.s", "s", "lower"),
        ("tracks.merge_tracks.self_s", "s", "lower"),
        ("tracks.merge_tracks.entities", "count", "lower"),
        ("diarize.diarize_video.calls", "count", "lower"),
        ("diarize.diarize_video.s", "s", "lower"),
        ("diarize.diarize_video.self_s", "s", "lower"),
        ("diarize.reconcile.calls", "count", "lower"),
        ("diarize.reconcile.s", "s", "lower"),
        ("diarize.filter_segments.rejected", "count", "lower"),
        ("distcluster.distance_matrix.calls", "count", "lower"),
        ("distcluster.distance_matrix.s", "s", "lower"),
        ("distcluster.distance_matrix.entries", "count", "lower"),
        ("distcluster.distance_matrix.bytes", "bytes", "lower"),
        ("distcluster.cluster_with_fallback.calls", "count", "lower"),
        ("distcluster.cluster_with_fallback.s", "s", "lower"),
        ("distcluster.cluster_with_fallback.fallback_calls", "count", "lower"),
        ("distcluster.cluster_with_fallback.fallback_ratio", "1", "lower"),
        ("distcluster.hdbscan.calls", "count", "lower"),
        ("distcluster.hdbscan.s", "s", "lower"),
        ("distcluster.hdbscan.self_s", "s", "lower"),
        ("distcluster.hdbscan.max_n", "count", "lower"),
        ("distcluster.dbscan.s", "s", "lower"),
        ("distcluster.k_distance_eps.s", "s", "lower"),
        ("distcluster.to_square.calls", "count", "lower"),
        ("distcluster.to_square.s", "s", "lower"),
        ("distcluster.to_square.bytes", "bytes", "lower"),
        ("distcluster.to_square.max_bytes", "bytes", "lower"),
        ("distcluster.to_square.per_cluster_call", "1", "lower"),
        ("bridge.build_graph.s", "s", "lower"),
        ("bridge.resolve_identities.s", "s", "lower"),
        ("bridge.conflict_report.s", "s", "lower"),
        ("collabgraph.build_appearance_index.s", "s", "lower"),
        ("collabgraph.assign_creators.s", "s", "lower"),
        ("collabgraph.detect_collaborations.s", "s", "lower"),
        ("collabgraph.graph_stats.calls", "count", "lower"),
        ("collabgraph.graph_stats.s", "s", "lower"),
        ("metrics.der.calls", "count", "lower"),
        ("metrics.der.s", "s", "lower"),
        ("metrics.homogeneity.s", "s", "lower"),
        ("metrics.completeness.s", "s", "lower"),
        ("metrics.v_measure.s", "s", "lower"),
        ("metrics.assignment_accuracy.s", "s", "lower"),
    ]
    return spec


def per_layer_metrics(
    spans, run_s: float, cpu_s: float, untraced_run_s: float, checkpoint_bytes: dict[str, int]
) -> dict[str, float]:
    """Every per-layer metric of per_layer_spec(); a layer never entered reads 0."""
    agg = aggregate(spans)

    def get(span: str, key: str) -> float:
        return agg.get(span, {}).get(key, 0)

    values: dict[str, float] = {}
    stage_total = 0.0
    for stage in STAGES:
        values[f"pipeline.{stage}.s"] = get(f"pipeline.{stage}", "s")
        values[f"pipeline.{stage}.self_s"] = get(f"pipeline.{stage}", "self_s")
        stage_total += values[f"pipeline.{stage}.s"]
    for stem in CHECKPOINTS:
        values[f"pipeline.{stem}.bytes"] = checkpoint_bytes.get(stem, 0)
    values["pipeline.run.s"] = run_s
    values["pipeline.run.other_s"] = run_s - stage_total
    values["pipeline.run.cpu_s"] = cpu_s
    values["trace.overhead_s"] = run_s - untraced_run_s

    clusterings = get("distcluster.cluster_with_fallback", "calls")
    values["distcluster.distance_matrix.bytes"] = 8 * get("distcluster.distance_matrix", "entries")
    values["distcluster.cluster_with_fallback.fallback_ratio"] = (
        get("distcluster.cluster_with_fallback", "fallback_calls") / clusterings if clusterings else 0.0
    )
    values["distcluster.to_square.per_cluster_call"] = (
        get("distcluster.to_square", "calls") / clusterings if clusterings else 0.0
    )
    for name, _, _ in per_layer_spec():
        if name not in values:
            span, key = name.rsplit(".", 1)
            values[name] = get(span, key)
    return values
