"""Staged pipeline with restartable, stamped checkpoints.

Stage order: split -> pair -> merge -> diarize -> global face clustering ->
global speaker clustering -> bridge -> graph -> report. Both global stages
cluster each channel's points first, then all channels in one call. split
and pair cost less to recompute than to read back, so every run computes
them and they have no checkpoint. Every later stage is one row of the stage
table, run by one generic step (:meth:`PipelineRun.step`). The report, with
its evaluation when a ground truth is given, is the last row, so a resume
whose stamps all match decodes no checkpoint and evaluates nothing. Every
file is written to a temporary name and renamed into place. For a fixed
dataset and configuration the bytes do not depend on the BLAS thread count,
the hash seed or the output path.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
from dataclasses import dataclass, make_dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, collabgraph, metrics
from . import bridge as bridge_mod
from .catalog import Dataset, from_plain, plain, unit_mean
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
from .tracks import (
    TrackEntity,
    assign_active_speakers,
    merge_tracks,
    representative_embedding,
    split_tracks_with_sources,
)

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


def _json(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=plain) + "\n").encode()


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
        return {name: _json(record(**{attr: getattr(run, attr) for attr in kinds}))}

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
    files: tuple[str, ...]  # checkpoint files; the first one names the stamp file
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
        # each stage's stamp; stage results are attributes its compute or decode sets
        self.stamps: dict[str, str] = {}
        # result name -> (stage, checkpoint files) of a reused stage not yet decoded
        self.undecoded: dict[str, tuple[Stage, dict[str, bytes]]] = {}
        # each video's segments in dataset order, shared by diarize and evaluation
        self.segments_by_video: dict[str, list] = {}
        for segment in ds.segments.values():
            self.segments_by_video.setdefault(segment.video_id, []).append(segment)

    def stamp(self, stage: Stage, files: dict[str, bytes]) -> bytes:
        """Record the stage's stamp over its inputs and these checkpoint bytes; return the stamp line."""
        config = {field: getattr(self.config, field) for field in stage.fields}
        upstream = [self.stamps[name] for name in stage.upstream]
        head = [stage.name, __version__, self.dataset_digest, config, upstream]
        h = hashlib.sha256(json.dumps(head).encode())
        for name in stage.files:
            h.update(f"\n{name} {len(files[name])}\n".encode())
            h.update(files[name])
        self.stamps[stage.name] = h.hexdigest()
        return f"{self.stamps[stage.name]}\n".encode()

    def step(self, stage: Stage) -> None:
        """Reuse the stage's checkpoint if resuming and its stamp matches, else compute and write it.

        A reused checkpoint is decoded when one of its results is first read
        (see __getattr__), so a resumed run decodes only what it reads.
        Writing a checkpoint also removes every other ``<stem>.*`` file in the
        output directory, stem being that of the stage's first file: sidecars
        an older version wrote, or temporary files a killed run left.
        """
        stem = Path(stage.files[0]).stem
        stamp_path = self.out / (stem + ".stamp")
        if self.config.resume:
            try:
                files = {name: (self.out / name).read_bytes() for name in stage.files}
                stored = stamp_path.read_bytes()
            except FileNotFoundError:
                stored = None
            if stored is not None and stored == self.stamp(stage, files):
                self.undecoded.update(dict.fromkeys(stage.results, (stage, files)))
                return
        stage.compute(self)
        files = stage.encode(self)
        for name, data in files.items():
            _write_atomic(self.out / name, data)
        _write_atomic(stamp_path, self.stamp(stage, files))
        for path in self.out.glob(f"{stem}.*"):
            if path.name not in files and path != stamp_path:
                path.unlink()

    def __getattr__(self, attr: str):
        """A result of a reused stage, decoded from its checkpoint when first read."""
        if attr not in self.__dict__.get("undecoded", ()):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        stage, files = self.undecoded[attr]
        for result in stage.results:
            del self.undecoded[result]
        stage.decode(self, files)
        return getattr(self, attr)

    def compute_split(self) -> None:
        self.pieces, self.piece_sources = split_tracks_with_sources(self.ds.tracks.values())

    def compute_pair(self) -> None:
        segments = self.ds.segments.values()
        self.av_pairs = assign_active_speakers(self.pieces, segments, self.config.conf_threshold)

    @cached_property
    def representatives(self) -> dict:
        """Each split piece's representative_embedding by piece id, computed once per run.

        merge clusters them within each video and cluster_faces averages them
        into entity points; cluster_faces, the last reader, drops them.
        """
        # rows of one anonymous mapping: once dropped, its pages go back to the
        # system instead of leaving heap holes under the global calls' peak
        count, dim = len(self.pieces), self.ds.face_dim
        block = np.frombuffer(mmap.mmap(-1, 4 * count * dim or 1), np.float32, count * dim).reshape(count, dim)
        for row, piece in zip(block, self.pieces):
            row[...] = representative_embedding(piece)
        return dict(zip((piece.track_id for piece in self.pieces), block))

    def compute_merge(self) -> None:
        config = self.config
        self.entities = merge_tracks(self.pieces, config.hdbscan_params, config.dbscan_eps, self.representatives)

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
        points = [
            (e.video_id, [e.entity_id], unit_mean([self.representatives[t] for t in e.member_track_ids]))
            for e in self.entities
        ]
        del self.representatives  # freed before the clustering calls
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

    def compute_report(self) -> None:
        """The run's counts, and its evaluation when run() was given a ground truth.

        Computing the report removes report_table.txt; run() writes it again
        when the report holds an evaluation.
        """
        (self.out / TABLE).unlink(missing_ok=True)
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

    # (name, step) in run order, each called as step(run). split and pair keep
    # no checkpoint: they are pure functions of the dataset and the fixed piece
    # lengths (which __version__ covers), and their one setting, conf_threshold,
    # is in the stamp of the bridge and of the report, the stages that read the pairs
    STAGES = (("split", compute_split), ("pair", compute_pair), *((stage.name, stage) for stage in (
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
        Stage("report", ("report.json",), ("conf_threshold",),
              ("merge", "cluster_faces", "cluster_speakers", "bridge", "graph", "truth"),
              compute_report, ("report",), lambda run: {"report.json": _json(run.report)},
              lambda run, files: setattr(run, "report", json.loads(files["report.json"]))),
    )))

    def evaluate(self, truth: GroundTruth) -> dict:
        """Score the run against generator ground truth."""
        return metrics.evaluate_run(self, truth)

    def run_until(self, last_stage: str) -> None:
        if last_stage not in dict(self.STAGES):
            raise ValueError(f"unknown stage {last_stage!r}")
        for name, stage in self.STAGES:
            try:
                stage(self)
            except PipelineStageError:
                raise  # the evaluation's failure, named as its own step
            except Exception as exc:
                raise PipelineStageError(name, exc) from exc
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
        table = self.out / TABLE
        if truth is not None and not table.exists():
            _write_atomic(table, metrics.format_evaluation_table(self.report["evaluation"]).encode())
        return self.report


CHECKPOINTS = {name: stage.files[0] for name, stage in PipelineRun.STAGES if isinstance(stage, Stage)}


def run_pipeline(
    ds: Dataset,
    out_dir: str | Path,
    config: PipelineConfig | None = None,
    truth: GroundTruth | None = None,
) -> dict:
    return PipelineRun(ds, out_dir, config).run(truth)
