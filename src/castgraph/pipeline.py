"""Staged pipeline with restartable, stamped checkpoints.

Stage order: split -> pair -> merge -> diarize -> global face clustering ->
global speaker clustering -> bridge -> graph. Each stage is one row of the
stage table, run by one generic step (:meth:`PipelineRun.step`). Every file is
written to a temporary name and renamed into place. For a fixed dataset and
configuration the bytes do not depend on the BLAS thread count or the output
path.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, collabgraph, metrics
from . import bridge as bridge_mod
from .catalog import AVPair, Dataset, unit_mean
from .diarize import DiarizationSummary, diarize_video, filter_segments, reconcile
from .distcluster import (
    FALLBACK_EPS,
    ClusterLabels,
    HdbscanParams,
    cluster_points,
    label_groups,
    labels_csv,
    labels_from_text,
)
from .distcluster import distance_matrix  # noqa: F401; perfbench's tracer test reads it here
from .errors import PipelineStageError, ZeroVector
from .synth import GroundTruth
from .tracks import (
    TrackEntity,
    TrackPolicy,
    assign_active_speakers,
    cut_piece,
    frame_rows,
    merge_tracks,
    representative_embedding,
    split_tracks_with_sources,
)

CLUSTERING = ("min_cluster_size", "min_samples", "dbscan_eps")
ENTITY_FIELDS = ("entity_id", "video_id", "member_track_ids", "paired_segments", "total_frames")


@dataclass
class PipelineConfig:
    min_cluster_size: int = 2
    min_samples: int | None = None
    dbscan_eps: float = FALLBACK_EPS
    conf_threshold: float = 0.5
    min_votes: int = 1
    min_segment_s: float = 1.0
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

    @property
    def track_policy(self) -> TrackPolicy:
        return TrackPolicy(speaker_conf_threshold=self.conf_threshold)


def _json(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


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
    """encode and decode for a stage whose result is one id -> label dict."""

    def encode(run) -> dict[str, bytes]:
        labels = getattr(run, attr)
        return {name: labels_csv(labels, labels.values()).encode()}

    def decode(run, files: dict[str, bytes]) -> None:
        ids, labels = labels_from_text(files[name].decode())
        setattr(run, attr, {i: int(l) for i, l in zip(ids, labels.labels)})

    return encode, decode


@dataclass(frozen=True)
class Stage:
    """One row of the stage table; calling it runs the stage on a PipelineRun."""

    name: str
    files: tuple[str, ...]  # checkpoint files; the first one names the stamp file
    fields: tuple[str, ...]  # PipelineConfig fields the stage reads
    upstream: tuple[str, ...]  # earlier stages whose results it reads
    compute: Callable  # (run) -> None
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
                stage.decode(self, files)
                return
        stage.compute(self)
        files = stage.encode(self)
        for name, data in files.items():
            _write_atomic(self.out / name, data)
        _write_atomic(stamp_path, self.stamp(stage, files))
        for path in self.out.glob(f"{stem}.*"):
            if path.name not in files and path != stamp_path:
                path.unlink()

    def compute_split(self) -> None:
        self.pieces, self.piece_sources = split_tracks_with_sources(
            self.ds.tracks.values(), self.config.track_policy
        )

    def encode_split(self) -> dict[str, bytes]:
        rows = []
        for piece in self.pieces:
            source = self.ds.tracks[self.piece_sources[piece.track_id]]
            rows.append({
                "piece_id": piece.track_id,
                "source_track_id": source.track_id,
                "video_id": piece.video_id,
                "start_frame": piece.start_frame,
                "end_frame": piece.end_frame,
                "source_rows": frame_rows(source, piece.start_frame, piece.end_frame),
                "speaker_confidence": piece.speaker_confidence,
            })
        return {"01_tracks_split.jsonl": _jsonl(rows)}

    def decode_split(self, files: dict[str, bytes]) -> None:
        self.pieces, self.piece_sources = [], {}
        for r in _rows(files["01_tracks_split.jsonl"]):
            source = self.ds.tracks[r["source_track_id"]]
            piece = cut_piece(source, r["piece_id"], r["start_frame"], r["end_frame"], r["source_rows"])
            self.pieces.append(piece)
            self.piece_sources[r["piece_id"]] = source.track_id

    def compute_pair(self) -> None:
        segments = self.ds.segments.values()
        self.av_pairs = assign_active_speakers(self.pieces, segments, self.config.track_policy)

    def encode_pair(self) -> dict[str, bytes]:
        rows = (
            {"track_id": p.track_id, "segment_id": p.segment_id, "confidence": p.confidence}
            for p in self.av_pairs
        )
        return {"02_av_pairs.jsonl": _jsonl(rows)}

    def decode_pair(self, files: dict[str, bytes]) -> None:
        self.av_pairs = [AVPair(**row) for row in _rows(files["02_av_pairs.jsonl"])]

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
        self.entities = merge_tracks(
            self.pieces, config.hdbscan_params, self.av_pairs, config.dbscan_eps, self.representatives
        )

    def encode_merge(self) -> dict[str, bytes]:
        rows = [{f: getattr(e, f) for f in ENTITY_FIELDS} for e in self.entities]
        return {"03_entities.jsonl": _jsonl(rows)}

    def decode_merge(self, files: dict[str, bytes]) -> None:
        self.entities = []
        for row in _rows(files["03_entities.jsonl"]):
            row["member_track_ids"] = tuple(row["member_track_ids"])
            row["paired_segments"] = tuple(row["paired_segments"])
            self.entities.append(TrackEntity(**row))

    def compute_diarize(self) -> None:
        config = self.config
        pairs_by_video: dict[str, list[AVPair]] = {}
        for pair in self.av_pairs:
            pairs_by_video.setdefault(self.ds.segments[pair.segment_id].video_id, []).append(pair)

        video_ids = sorted(self.segments_by_video)
        filtered = {v: filter_segments(self.segments_by_video[v], config.min_segment_s) for v in video_ids}
        diarized = [v for v in video_ids if filtered[v][0]]
        results = dict(zip(diarized, diarize_video(
            [filtered[v][0] for v in diarized],
            config.hdbscan_params,
            config.dbscan_eps,
            [filtered[v][1] for v in diarized],
        )))
        self.diarization = {}
        for video_id in video_ids:
            empty = ({}, DiarizationSummary(video_id, 0, 0, 0.0, False, filtered[video_id][1]))
            labels, summary = results.get(video_id, empty)
            self.diarization[video_id] = {
                "video_id": video_id,
                "labels": labels,
                "reconciled": [
                    {
                        "segment_id": r.segment_id,
                        "speaker_label": r.speaker_label,
                        "paired_track_id": r.paired_track_id,
                        "pair_confidence": r.pair_confidence,
                    }
                    for r in reconcile(labels, pairs_by_video.get(video_id, []))
                ],
                "summary": summary.to_json(),
            }

    def encode_diarize(self) -> dict[str, bytes]:
        return {"04_diarization.jsonl": _jsonl(self.diarization[v] for v in sorted(self.diarization))}

    def decode_diarize(self, files: dict[str, bytes]) -> None:
        self.diarization = {row["video_id"]: row for row in _rows(files["04_diarization.jsonl"])}

    def _cluster(self, vectors) -> ClusterLabels:
        """Global cluster labels, one per vector in order."""
        return cluster_points(vectors, self.config.hdbscan_params, self.config.dbscan_eps)[0]

    def compute_cluster_faces(self) -> None:
        """Recognize the entities across videos.

        One point per entity, the unit mean of its pieces' representatives.
        An entity whose pieces cancel to a zero mean has no direction, so
        the stage fails with ZeroVector; the speaker side instead splits
        such a speaker into its segments.
        """
        points = [
            unit_mean([self.representatives[t] for t in entity.member_track_ids]) for entity in self.entities
        ]
        del self.representatives  # freed before the global call
        labels = self._cluster(points)
        self.face_labels = {e.entity_id: int(l) for e, l in zip(self.entities, labels.labels)}

    def compute_cluster_speakers(self) -> None:
        """Recognize the diarized speakers across videos; each segment takes its speaker's label.

        One point per diarized speaker, the unit mean of its segments'
        embeddings, and one per diarization-noise segment, the same formula
        over one segment. A speaker whose embeddings cancel to a zero
        mean has no direction, so each of its segments is its own point.
        Points are ordered by their smallest segment id. A speaker of several
        segments that the global pass leaves as noise is still one speaker:
        it takes a fresh label after the cluster labels, in point order.
        """
        points = []  # (sorted segment ids, unit vector)
        for row in self.diarization.values():
            segment_ids = sorted(row["labels"])
            for idxs in label_groups([row["labels"][i] for i in segment_ids]):
                ids = [segment_ids[i] for i in idxs]
                embeddings = [self.ds.segments[i].embedding for i in ids]
                try:
                    points.append((ids, unit_mean(embeddings)))
                except ZeroVector:
                    points += [([i], unit_mean([e])) for i, e in zip(ids, embeddings)]
        points.sort(key=lambda point: point[0][0])
        labels = self._cluster([unit for _, unit in points])
        fresh = labels.n_clusters
        speaker_labels = {}
        for (ids, _), label in zip(points, labels.labels.tolist()):
            if label == -1 and len(ids) > 1:
                label, fresh = fresh, fresh + 1
            speaker_labels.update(dict.fromkeys(ids, label))
        self.speaker_labels = dict(sorted(speaker_labels.items()))

    def compute_bridge(self) -> None:
        track_to_entity = {t: e.entity_id for e in self.entities for t in e.member_track_ids}
        pairs = [p for p in self.av_pairs if p.segment_id in self.speaker_labels]
        self.association = bridge_mod.build_graph(
            self.face_labels, self.speaker_labels, pairs, track_to_entity
        )
        self.identities = bridge_mod.resolve_identities(self.association, self.config.min_votes)
        self.conflicts = bridge_mod.conflict_report(self.association, self.identities, self.config.min_votes)

    def encode_bridge(self) -> dict[str, bytes]:
        payload = {
            "association": bridge_mod.graph_to_json(self.association),
            "identities": bridge_mod.identities_to_json(self.identities),
            "conflicts": bridge_mod.conflicts_to_json(self.conflicts),
        }
        return {"07_identities.json": _json(payload)}

    def decode_bridge(self, files: dict[str, bytes]) -> None:
        payload = json.loads(files["07_identities.json"])
        self.association = bridge_mod.graph_from_json(payload["association"])
        self.identities = bridge_mod.identities_from_json(payload["identities"])
        self.conflicts = bridge_mod.conflict_report(self.association, self.identities, self.config.min_votes)

    def compute_graph(self) -> None:
        index = collabgraph.build_appearance_index(
            self.ds, self.identities, self.entities, self.face_labels, self.speaker_labels
        )
        self.creators = collabgraph.assign_creators(index)
        self.edges = collabgraph.detect_collaborations(index, self.creators)

    def encode_graph(self) -> dict[str, bytes]:
        payload = {
            "creators": {str(k): v for k, v in self.creators.items()},
            "edges": collabgraph.edges_to_json(self.edges),
            "stats": collabgraph.graph_stats(self.edges, channels=self.ds.channels.keys()).to_json(),
        }
        dot = collabgraph.collab_graph_dot(self.ds, self.edges)
        return {"08_graph.json": _json(payload), "graph.dot": dot.encode()}

    def decode_graph(self, files: dict[str, bytes]) -> None:
        payload = json.loads(files["08_graph.json"])
        self.creators = {int(k): v for k, v in payload["creators"].items()}
        self.edges = collabgraph.edges_from_json(payload["edges"])

    STAGES = tuple((stage.name, stage) for stage in (
        Stage("split", ("01_tracks_split.jsonl",), (), (),
              compute_split, encode_split, decode_split),
        Stage("pair", ("02_av_pairs.jsonl",), ("conf_threshold",), ("split",),
              compute_pair, encode_pair, decode_pair),
        Stage("merge", ("03_entities.jsonl",), CLUSTERING, ("split", "pair"),
              compute_merge, encode_merge, decode_merge),
        Stage("diarize", ("04_diarization.jsonl",), ("min_segment_s", *CLUSTERING), ("pair",),
              compute_diarize, encode_diarize, decode_diarize),
        Stage("cluster_faces", ("05_face_labels.csv",), CLUSTERING, ("split", "merge"),
              compute_cluster_faces, *_labels_codec("face_labels", "05_face_labels.csv")),
        Stage("cluster_speakers", ("06_speaker_labels.csv",), CLUSTERING, ("diarize",),
              compute_cluster_speakers, *_labels_codec("speaker_labels", "06_speaker_labels.csv")),
        Stage("bridge", ("07_identities.json",), ("min_votes",),
              ("pair", "merge", "cluster_faces", "cluster_speakers"),
              compute_bridge, encode_bridge, decode_bridge),
        Stage("graph", ("08_graph.json", "graph.dot"), (),
              ("merge", "cluster_faces", "cluster_speakers", "bridge"),
              compute_graph, encode_graph, decode_graph),
    ))

    def evaluate(self, truth: GroundTruth) -> dict:
        """Score the run against generator ground truth."""
        return metrics.evaluate_run(self, truth)

    def run_until(self, last_stage: str) -> None:
        if last_stage not in dict(self.STAGES):
            raise ValueError(f"unknown stage {last_stage!r}")
        for name, stage in self.STAGES:
            try:
                stage(self)
            except Exception as exc:
                raise PipelineStageError(name, exc) from exc
            if name == last_stage:
                return

    def run(self, truth: GroundTruth | None = None) -> dict:
        self.run_until("graph")
        report = {
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
            "graph": collabgraph.graph_stats(self.edges, channels=self.ds.channels.keys()).to_json(),
        }
        if truth is not None:
            try:
                report["evaluation"] = self.evaluate(truth)
            except Exception as exc:
                raise PipelineStageError("eval", exc) from exc
            table = metrics.format_evaluation_table(report["evaluation"])
            _write_atomic(self.out / "report_table.txt", table.encode())
        _write_atomic(self.out / "report.json", _json(report))
        return report


CHECKPOINTS = {name: stage.files[0] for name, stage in PipelineRun.STAGES}


def run_pipeline(
    ds: Dataset,
    out_dir: str | Path,
    config: PipelineConfig | None = None,
    truth: GroundTruth | None = None,
) -> dict:
    return PipelineRun(ds, out_dir, config).run(truth)
