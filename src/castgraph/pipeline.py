"""Staged pipeline with restartable, stamped checkpoints.

Stage order: split -> pair -> merge -> diarize -> global face clustering ->
global speaker clustering -> bridge -> graph -> report. Both global stages
cluster each channel's points first, then all channels in one call. split
gives each piece its representative, the one vector that merge and global
face clustering read of it. split and pair cost less to recompute than to
read back, so they keep no checkpoint and run when their results are first
read. Every later stage is a row of the stage table, run by one generic
step (:meth:`PipelineRun.step`); a reused row is decoded when first read.
The report, with its evaluation, is the last row, so a resume whose stamps
all match computes nothing. Every file is written to a temporary name and
renamed into place. For a fixed dataset and configuration the bytes do not
depend on the BLAS thread count, the hash seed or the output path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, make_dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

from . import __version__, collabgraph, metrics
from . import bridge as bridge_mod
from .catalog import Dataset, from_plain, json_document, plain, unit_mean
from .diarize import DEFAULT_MIN_SEGMENT_S, diarize_video, filter_segments
from .distcluster import (
    FALLBACK_EPS,
    HdbscanParams,
    cluster_by_channel,
    label_groups,
    labels_csv,
    labels_from_text,
)
from .distcluster import distance_matrix  # noqa: F401; perfbench's tracer test reads it here
from .errors import PipelineStageError, ZeroVector
from .synth import GroundTruth
from .tracks import TrackEntity, assign_active_speakers, merge_tracks, split_tracks_with_sources

CLUSTERING = ("min_cluster_size", "min_samples", "dbscan_eps")
# the evaluation as a text table, next to report.json when the report holds one
TABLE = "report_table.txt"


@dataclass
class PipelineConfig:
    min_cluster_size: int = 2
    min_samples: int | None = None
    dbscan_eps: float = FALLBACK_EPS
    conf_threshold: float = 0.5
    min_votes: int = 1
    min_segment_s: float = DEFAULT_MIN_SEGMENT_S
    resume: bool = False

    def __post_init__(self):
        """Reject a setting that some stage cannot run with, before any stage runs."""
        self.hdbscan_params  # noqa: B018; HdbscanParams checks min_cluster_size and min_samples
        for name, value in vars(self).items():
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if self.dbscan_eps < 0:
            raise ValueError("dbscan_eps must be non-negative")
        if self.min_votes < 1:
            raise ValueError("min_votes must be >= 1")

    @property
    def hdbscan_params(self) -> HdbscanParams:
        return HdbscanParams(self.min_cluster_size, self.min_samples)


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row, sort_keys=True, default=plain) + "\n" for row in rows).encode()


def _rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to a temporary file next to path, then rename it over path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run_named(name: str, step: Callable, run: PipelineRun) -> None:
    """step(run); a failure is raised as PipelineStageError(name) unless it already names its stage."""
    try:
        step(run)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _deferred(name: str, compute: Callable, *results: str):
    """A stage table entry that has compute(run) set results when one of them is first read."""
    return name, lambda run: run.pending.update(dict.fromkeys(results, partial(_run_named, name, compute)))


def _labels_codec(attr: str, name: str):
    """results, encode and decode for a stage whose result is one id -> label dict."""

    def encode(run) -> dict[str, bytes]:
        labels = getattr(run, attr)
        return {name: labels_csv(labels, labels.values()).encode()}

    def decode(run, files: dict[str, bytes]) -> None:
        ids, labels = labels_from_text(files[name].decode())
        setattr(run, attr, {i: int(l) for i, l in zip(ids, labels)})

    return (attr,), encode, decode


def _rows_codec(attr: str, name: str, kind):
    """results, encode and decode for a stage whose result is a list of kind records, one JSONL row each."""

    def encode(run) -> dict[str, bytes]:
        return {name: _jsonl(getattr(run, attr))}

    def decode(run, files: dict[str, bytes]) -> None:
        setattr(run, attr, from_plain(list[kind], _rows(files[name])))

    return (attr,), encode, decode


def _object_codec(name: str, **kinds):
    """results, encode and decode for a stage whose results are one JSON object's fields, by name and type."""
    record = make_dataclass("Checkpoint", kinds.items())

    def encode(run) -> dict[str, bytes]:
        return {name: json_document(record(**{attr: getattr(run, attr) for attr in kinds}))}

    def decode(run, files: dict[str, bytes]) -> None:
        for attr, value in vars(from_plain(record, json.loads(files[name]))).items():
            setattr(run, attr, value)

    return tuple(kinds), encode, decode


@dataclass(frozen=True)
class Stage:
    """A stage worth caching: a checkpoint, its stamp and its codec.

    Calling it runs the stage on a PipelineRun.
    """

    name: str
    files: tuple[str, ...]  # checkpoint files; the first one, always written, names the stamp file
    fields: tuple[str, ...]  # PipelineConfig fields the stage reads
    upstream: tuple[str, ...]  # earlier stages whose results it reads; "truth" is run()'s ground truth
    compute: Callable  # (run) -> None
    results: tuple[str, ...]  # the PipelineRun attributes compute and decode set
    encode: Callable  # (run) -> {file name: bytes}
    decode: Callable  # (run, {file name: bytes}) -> None

    def __call__(self, run: PipelineRun) -> None:
        run.step(self)


class PipelineRun:
    """One pipeline execution over a dataset, writing into out_dir."""

    def __init__(self, ds: Dataset, out_dir: str | Path, config: PipelineConfig | None = None):
        self.ds = ds
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config or PipelineConfig()
        self.dataset_digest = ds.digest()
        # each stage's stamp, and the ground truth's, which run(truth) replaces;
        # stage results are attributes its compute or decode sets
        self.truth: GroundTruth | None = None
        self.stamps: dict[str, str] = {"truth": "none"}
        # result name -> the step that sets it, called as step(run) so that no step holds the run
        self.pending: dict[str, Callable] = {}

    @cached_property
    def segments_by_video(self) -> dict[str, list]:
        """Each video's segments in dataset order, shared by diarize and evaluation."""
        by_video: dict[str, list] = {}
        for segment in self.ds.segments.values():
            by_video.setdefault(segment.video_id, []).append(segment)
        return by_video

    def stamp(self, stage: Stage, files: dict[str, bytes]) -> bytes:
        """Record the stage's stamp over its inputs and the given stage files; return the stamp line."""
        config = {field: getattr(self.config, field) for field in stage.fields}
        upstream = [self.stamps[name] for name in stage.upstream]
        head = [stage.name, __version__, self.dataset_digest, config, upstream]
        h = hashlib.sha256(json.dumps(head).encode())
        for name in (name for name in stage.files if name in files):  # in table order
            h.update(f"\n{name} {len(files[name])}\n".encode())
            h.update(files[name])
        self.stamps[stage.name] = h.hexdigest()
        return f"{self.stamps[stage.name]}\n".encode()

    def step(self, stage: Stage) -> None:
        """Reuse the stage's checkpoint if resuming and its stamp matches, else compute and write it.

        The stamp covers the stage's files that exist (the report writes its
        table only with an evaluation). A reused checkpoint is decoded when one
        of its results is first read (see __getattr__). A computed one removes
        every other file of the stage and every other ``<stem>.*`` file, stem
        being its first file's: sidecars an older version wrote, temporary
        files a killed run left. No other code writes into out_dir.
        """
        stem = Path(stage.files[0]).stem
        stamp_name = stem + ".stamp"
        if self.config.resume:
            files = {}
            for name in (*stage.files, stamp_name):  # a file that vanishes before it is read is absent
                with suppress(FileNotFoundError):
                    files[name] = (self.out / name).read_bytes()
            if files.pop(stamp_name, None) == self.stamp(stage, files):
                self.pending.update(dict.fromkeys(stage.results, lambda run: stage.decode(run, files)))
                return
        stage.compute(self)
        files = stage.encode(self)
        for name, data in {**files, stamp_name: self.stamp(stage, files)}.items():  # the stamp last
            _write_atomic(self.out / name, data)
        for name in {*stage.files, *(path.name for path in self.out.glob(f"{stem}.*"))} - {*files, stamp_name}:
            (self.out / name).unlink(missing_ok=True)

    def __getattr__(self, attr: str):
        """A pending result, set when first read by its step (split, pair or a reused stage's decode)."""
        pending = self.__dict__.get("pending", {})
        if attr not in pending:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        step = pending[attr]
        self.pending = {result: s for result, s in pending.items() if s is not step}
        step(self)
        return getattr(self, attr)

    def compute_split(self) -> None:
        self.pieces, self.piece_sources = split_tracks_with_sources(self.ds.tracks.values())

    def compute_pair(self) -> None:
        segments = self.ds.segments.values()
        self.av_pairs = assign_active_speakers(self.pieces, segments, self.config.conf_threshold)

    def compute_merge(self) -> None:
        config = self.config
        self.entities = merge_tracks(self.pieces, config.hdbscan_params, config.dbscan_eps)

    def compute_diarize(self) -> None:
        """Each retained segment's speaker label, by video id, then start.

        A label names a speaker within its segment's video only; -1 marks
        diarization noise.
        """
        config = self.config
        kept = [filter_segments(self.segments_by_video[v], config.min_segment_s)[0]
                for v in sorted(self.segments_by_video)]
        videos = diarize_video([k for k in kept if k], config.hdbscan_params, config.dbscan_eps)
        self.diarization = {i: label for labels in videos for i, label in labels.items()}

    def _cluster(self, points) -> dict:
        """Global labels by id, for points given as (video id, ids, unit vector) in point order.

        Each channel's points are clustered first, then one global call runs
        over the channel clusters' representatives and the channel noise
        (distcluster.cluster_by_channel); a point's channel is its video's.
        Every id takes its point's label, and a point of several ids counts
        as that many items.
        """
        labels = cluster_by_channel(
            [unit for _, _, unit in points],
            [self.ds.videos[video_id].channel_id for video_id, _, _ in points],
            [len(ids) for _, ids, _ in points],
            self.config.hdbscan_params,
            self.config.dbscan_eps,
        )
        return {i: label for (_, ids, _), label in zip(points, labels.tolist()) for i in ids}

    def compute_cluster_faces(self) -> None:
        """Recognize the entities across videos.

        One point per entity, the unit mean of its pieces' representatives.
        An entity whose pieces cancel to a zero mean has no direction, so
        the stage fails with ZeroVector; the speaker side instead splits
        such a speaker into its segments. Points are in entity order.
        """
        representatives = {p.track_id: p.representative for p in self.pieces}
        points = [
            (e.video_id, [e.entity_id], unit_mean([representatives[t] for t in e.member_track_ids]))
            for e in self.entities
        ]
        self.face_labels = self._cluster(points)

    def compute_cluster_speakers(self) -> None:
        """Recognize the diarized speakers across videos; each segment takes its speaker's label.

        One point per diarized speaker, the unit mean of its segments'
        embeddings, and one per diarization-noise segment, the same formula
        over one segment. A speaker whose embeddings cancel to a zero
        mean has no direction, so each of its segments is its own point.
        Points are ordered by their smallest segment id. A speaker of several
        segments that is left as noise is still one speaker: it takes a
        fresh label (see _cluster).
        """
        by_video: dict[str, list[str]] = {}
        for segment_id in sorted(self.diarization):
            by_video.setdefault(self.ds.segments[segment_id].video_id, []).append(segment_id)
        points = []  # (video id, sorted segment ids, unit vector)
        for video_id, segment_ids in by_video.items():
            for idxs in label_groups([self.diarization[i] for i in segment_ids]):
                ids = [segment_ids[i] for i in idxs]
                embeddings = [self.ds.segments[i].embedding for i in ids]
                try:
                    points.append((video_id, ids, unit_mean(embeddings)))
                except ZeroVector:
                    points += [(video_id, [i], unit_mean([e])) for i, e in zip(ids, embeddings)]
        points.sort(key=lambda point: point[1][0])
        self.speaker_labels = dict(sorted(self._cluster(points).items()))

    def compute_bridge(self) -> None:
        track_to_entity = {t: e.entity_id for e in self.entities for t in e.member_track_ids}
        pairs = [p for p in self.av_pairs if p.segment_id in self.speaker_labels]
        self.association = bridge_mod.build_graph(
            self.face_labels, self.speaker_labels, pairs, track_to_entity
        )
        self.identities = bridge_mod.resolve_identities(self.association, self.config.min_votes)
        self.conflicts = bridge_mod.conflict_report(self.association, self.identities, self.config.min_votes)

    def compute_graph(self) -> None:
        appearances = collabgraph.build_appearance_index(
            self.ds, self.identities, self.entities, self.face_labels, self.speaker_labels
        )
        self.creators = collabgraph.assign_creators(appearances, self.ds.videos)
        self.edges = collabgraph.detect_collaborations(appearances, self.creators)
        self.stats = collabgraph.graph_stats(self.edges, self.ds.channels.keys())

    _graph_results, _encode_graph_json, decode_graph = _object_codec(
        "08_graph.json",
        creators=dict[int, str], edges=list[collabgraph.CollaborationEdge], stats=dict[str, int],
    )

    def encode_graph(self) -> dict[str, bytes]:
        dot = collabgraph.collab_graph_dot(self.ds, self.edges)
        return {**self._encode_graph_json(), "graph.dot": dot.encode()}

    def encode_report(self) -> dict[str, bytes]:
        evaluation = self.report.get("evaluation")
        table = {} if evaluation is None else {TABLE: metrics.format_evaluation_table(evaluation).encode()}
        return {"report.json": json_document(self.report), **table}

    def compute_report(self) -> None:
        """The run's counts, and its evaluation when run() was given a ground truth."""
        self.report = {
            "videos": len(self.ds.videos),
            "tracks": len(self.ds.tracks),
            "track_pieces": len(self.pieces),
            "av_pairs": len(self.av_pairs),
            "entities": len(self.entities),
            "segments": len(self.ds.segments),
            "face_clusters": len({l for l in self.face_labels.values() if l != -1}),
            "speaker_clusters": len({l for l in self.speaker_labels.values() if l != -1}),
            "identities": len(self.identities),
            "conflicts": len(self.conflicts),
            "graph": self.stats,
        }
        if self.truth is not None:
            try:
                self.report["evaluation"] = self.evaluate(self.truth)
            except Exception as exc:
                raise PipelineStageError("eval", exc) from exc

    # (name, step) in run order, each called as step(run). split and pair keep no checkpoint:
    # they are pure functions of the dataset and the fixed piece lengths (which __version__
    # covers), and conf_threshold is in the stamps of bridge and report, which read the pairs.
    # Their entries register compute, to run when one of its results is first read
    STAGES = (_deferred("split", compute_split, "pieces", "piece_sources"),
              _deferred("pair", compute_pair, "av_pairs"), *((stage.name, stage) for stage in (
        Stage("merge", ("03_entities.jsonl",), CLUSTERING, (),
              compute_merge, *_rows_codec("entities", "03_entities.jsonl", TrackEntity)),
        Stage("diarize", ("04_diarization.csv",), ("min_segment_s", *CLUSTERING), (),
              compute_diarize, *_labels_codec("diarization", "04_diarization.csv")),
        Stage("cluster_faces", ("05_face_labels.csv",), CLUSTERING, ("merge",),
              compute_cluster_faces, *_labels_codec("face_labels", "05_face_labels.csv")),
        Stage("cluster_speakers", ("06_speaker_labels.csv",), CLUSTERING, ("diarize",),
              compute_cluster_speakers, *_labels_codec("speaker_labels", "06_speaker_labels.csv")),
        Stage("bridge", ("07_identities.json",), ("min_votes", "conf_threshold"),
              ("merge", "cluster_faces", "cluster_speakers"),
              compute_bridge, *_object_codec("07_identities.json", association=bridge_mod.AssociationGraph,
                                             identities=list[bridge_mod.IdentityComponent],
                                             conflicts=list[bridge_mod.ConflictEntry])),
        Stage("graph", ("08_graph.json", "graph.dot"), (),
              ("merge", "cluster_faces", "cluster_speakers", "bridge"),
              compute_graph, _graph_results, encode_graph, decode_graph),
        Stage("report", ("report.json", TABLE), ("conf_threshold",),
              ("merge", "cluster_faces", "cluster_speakers", "bridge", "graph", "truth"),
              compute_report, ("report",), encode_report,
              lambda run, files: setattr(run, "report", json.loads(files["report.json"]))),
    )))

    def evaluate(self, truth: GroundTruth) -> dict:
        """Score the run against generator ground truth."""
        return metrics.evaluate_run(self, truth)

    def run_until(self, last_stage: str) -> None:
        if last_stage not in dict(self.STAGES):
            raise ValueError(f"unknown stage {last_stage!r}")
        for name, stage in self.STAGES:
            _run_named(name, stage, self)  # the evaluation's, split's and pair's failures name their own step
            if name == last_stage:
                return

    def run(self, truth: GroundTruth | None = None) -> dict:
        """Run every stage and return the report.

        The ground truth enters the report's stamp as the digest of its JSON
        form, so a resume reuses the report only for the same ground truth.
        """
        self.truth = truth
        self.stamps["truth"] = "none" if truth is None else hashlib.sha256(
            json.dumps(truth, sort_keys=True, default=plain).encode()
        ).hexdigest()
        self.run_until("report")
        return self.report


CHECKPOINTS = {name: stage.files[0] for name, stage in PipelineRun.STAGES if isinstance(stage, Stage)}


def run_pipeline(
    ds: Dataset,
    out_dir: str | Path,
    config: PipelineConfig | None = None,
    truth: GroundTruth | None = None,
) -> dict:
    return PipelineRun(ds, out_dir, config).run(truth)
