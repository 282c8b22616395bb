"""Dataset model and the on-disk manifest format.

A dataset directory holds:

* ``channels.json``, ``videos.json``: JSON arrays of records.
* ``tracks.jsonl``, ``segments.jsonl``, ``pairs.jsonl``: one JSON object per line.
* ``*.emb``: binary embedding matrices referenced from tracks/segments as
  ``(file, row)``. Header is 16 bytes: magic ``EMB1``, dim as little-endian
  uint32, row count as little-endian uint64; payload is count x dim
  little-endian float32, row-major.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    DanglingReference,
    DimensionMismatch,
    MalformedRecord,
    MissingFile,
    ZeroVector,
)

EMB_MAGIC = b"EMB1"
DEFAULT_FACE_DIM = 1792
DEFAULT_SPEAKER_DIM = 1024
FRAME_RATE = 25.0

MANIFEST_FILES = (
    "channels.json",
    "videos.json",
    "tracks.jsonl",
    "segments.jsonl",
    "pairs.jsonl",
)


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, preserving direction.

    Raises ZeroVector for inputs with zero (or non-finite) norm. Output dtype
    is float32 to match the storage precision of embeddings.
    """
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not math.isfinite(norm):
        raise ZeroVector("cannot normalize a zero or non-finite vector")
    return (arr / norm).astype(np.float32)


@dataclass(frozen=True)
class Channel:
    channel_id: str
    name: str


@dataclass(frozen=True)
class Video:
    video_id: str
    channel_id: str
    published_at: datetime
    duration_s: float
    # ordered (timestamp, view_count) samples; None when never crawled
    view_history: tuple[tuple[datetime, int], ...] | None = None


@dataclass
class FaceTrack:
    track_id: str
    video_id: str
    start_frame: int
    end_frame: int
    embeddings: np.ndarray  # (k, face_dim) float32
    embedding_frames: tuple[int, ...]  # source frame of each embedding row
    speaker_confidence: float | None = None

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaceTrack):
            return NotImplemented
        return (
            self.track_id == other.track_id
            and self.video_id == other.video_id
            and self.start_frame == other.start_frame
            and self.end_frame == other.end_frame
            and self.embedding_frames == other.embedding_frames
            and self.speaker_confidence == other.speaker_confidence
            and self.embeddings.shape == other.embeddings.shape
            and np.array_equal(self.embeddings, other.embeddings)
        )


@dataclass
class SpeechSegment:
    segment_id: str
    video_id: str
    start_s: float
    end_s: float
    origin: str  # "vad" or "active_speaker"
    embedding: np.ndarray | None = None  # (speaker_dim,) float32

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpeechSegment):
            return NotImplemented
        if (self.embedding is None) != (other.embedding is None):
            return False
        if self.embedding is not None and not np.array_equal(self.embedding, other.embedding):
            return False
        return (
            self.segment_id == other.segment_id
            and self.video_id == other.video_id
            and self.start_s == other.start_s
            and self.end_s == other.end_s
            and self.origin == other.origin
        )


@dataclass(frozen=True)
class AVPair:
    track_id: str
    segment_id: str
    confidence: float


@dataclass
class Dataset:
    channels: dict[str, Channel] = field(default_factory=dict)
    videos: dict[str, Video] = field(default_factory=dict)
    tracks: dict[str, FaceTrack] = field(default_factory=dict)
    segments: dict[str, SpeechSegment] = field(default_factory=dict)
    pairs: list[AVPair] = field(default_factory=list)
    face_dim: int = DEFAULT_FACE_DIM
    speaker_dim: int = DEFAULT_SPEAKER_DIM

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.channels == other.channels
            and self.videos == other.videos
            and self.tracks == other.tracks
            and self.segments == other.segments
            and self.pairs == other.pairs
            and self.face_dim == other.face_dim
            and self.speaker_dim == other.speaker_dim
        )

    def digest(self) -> str:
        """SHA-256 over every record, in order, and every embedding's bytes."""
        h = hashlib.sha256()
        h.update(repr((list(self.channels.values()), list(self.videos.values()), self.pairs)).encode())
        h.update(repr((self.face_dim, self.speaker_dim)).encode())
        for t in self.tracks.values():
            h.update(repr((t.track_id, t.video_id, t.start_frame, t.end_frame,
                           t.embedding_frames, t.speaker_confidence, t.embeddings.shape)).encode())
            h.update(np.ascontiguousarray(t.embeddings, dtype="<f4"))
        for s in self.segments.values():
            # a missing embedding hashes as shape None and no bytes
            shape = None if s.embedding is None else s.embedding.shape
            h.update(repr((s.segment_id, s.video_id, s.start_s, s.end_s, s.origin, shape)).encode())
            if s.embedding is not None:
                h.update(np.ascontiguousarray(s.embedding, dtype="<f4"))
        return h.hexdigest()


@dataclass(frozen=True)
class Violation:
    record_id: str
    kind: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def add(self, record_id: str, kind: str, detail: str) -> None:
        self.violations.append(Violation(record_id, kind, detail))

    @property
    def ok(self) -> bool:
        return not self.violations


# --- embedding matrix files -------------------------------------------------

def _emb_parts(matrix: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The ``.emb`` header of a matrix, and the matrix as contiguous little-endian float32."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValueError("embedding matrix must be 2-D")
    count, dim = matrix.shape
    return EMB_MAGIC + struct.pack("<IQ", dim, count), matrix


def emb_bytes(matrix: np.ndarray) -> bytes:
    """An embedding matrix in the ``.emb`` format."""
    return b"".join(_emb_parts(matrix))


def emb_from_bytes(data: bytes, source) -> np.ndarray:
    """Parse ``.emb`` bytes into a read-only view over them; source names the file in errors."""
    if len(data) < 16 or data[:4] != EMB_MAGIC:
        raise MalformedRecord(source, 0, "bad embedding file header")
    dim, count = struct.unpack("<IQ", data[4:16])
    if len(data) < 16 + 4 * dim * count:
        raise MalformedRecord(source, 0, "truncated embedding payload")
    return np.frombuffer(data, dtype="<f4", count=dim * count, offset=16).reshape(count, dim)


def write_emb(path: Path, matrix: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_emb_parts(matrix))


def read_emb(path: Path) -> np.ndarray:
    if not path.is_file():
        raise MissingFile(path)
    return emb_from_bytes(path.read_bytes(), path).copy()


# --- timestamps ---------------------------------------------------------------

def parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# --- ingest -------------------------------------------------------------------

def _load_json(path: Path):
    if not path.is_file():
        raise MissingFile(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(path, exc.lineno, exc.msg) from exc


def _iter_jsonl(path: Path):
    if not path.is_file():
        raise MissingFile(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(path, lineno, exc.msg) from exc


class _EmbStore:
    """Lazily loaded .emb matrices, keyed by file name within the dataset dir."""

    def __init__(self, root: Path):
        self.root = root
        self._cache: dict[str, np.ndarray] = {}

    def matrix(self, name: str) -> np.ndarray:
        if name not in self._cache:
            self._cache[name] = read_emb(self.root / name)
        return self._cache[name]

    def row(self, name: str, index: int, source: str, lineno: int) -> np.ndarray:
        matrix = self.matrix(name)
        if not 0 <= index < matrix.shape[0]:
            raise MalformedRecord(source, lineno, f"row {index} out of range for {name}")
        return matrix[index]


def _require(record: dict, key: str, source, lineno: int):
    if key not in record:
        raise MalformedRecord(source, lineno, f"missing field {key!r}")
    return record[key]


def ingest(
    manifest_dir: str | Path,
    face_dim: int | None = None,
    speaker_dim: int | None = None,
) -> Dataset:
    """Load and fully validate a dataset directory.

    Embedding dimensions are taken from the first referenced .emb file of each
    modality unless given explicitly; with no embeddings at all the defaults
    (1792 faces, 1024 speakers) apply. Any invariant violation raises instead
    of producing a partially valid dataset.
    """
    root = Path(manifest_dir)
    store = _EmbStore(root)
    ds = Dataset()

    for entry in _load_json(root / "channels.json"):
        channel = Channel(str(entry["channel_id"]), str(entry.get("name", "")))
        if not channel.channel_id:
            raise MalformedRecord("channels.json", 0, "empty channel_id")
        if channel.channel_id in ds.channels:
            raise MalformedRecord("channels.json", 0, f"duplicate channel {channel.channel_id!r}")
        ds.channels[channel.channel_id] = channel

    for entry in _load_json(root / "videos.json"):
        history = None
        if entry.get("view_history") is not None:
            history = tuple(
                (parse_timestamp(ts), int(count)) for ts, count in entry["view_history"]
            )
        video = Video(
            video_id=str(entry["video_id"]),
            channel_id=str(entry["channel_id"]),
            published_at=parse_timestamp(entry["published_at"]),
            duration_s=float(entry["duration_s"]),
            view_history=history,
        )
        if video.video_id in ds.videos:
            raise MalformedRecord("videos.json", 0, f"duplicate video {video.video_id!r}")
        if video.channel_id not in ds.channels:
            raise DanglingReference(video.channel_id, f"video {video.video_id}")
        ds.videos[video.video_id] = video

    for lineno, rec in _iter_jsonl(root / "tracks.jsonl"):
        track_id = str(_require(rec, "track_id", "tracks.jsonl", lineno))
        video_id = str(_require(rec, "video_id", "tracks.jsonl", lineno))
        if video_id not in ds.videos:
            raise DanglingReference(video_id, f"track {track_id}")
        refs = _require(rec, "embeddings", "tracks.jsonl", lineno)
        if not refs:
            raise MalformedRecord("tracks.jsonl", lineno, "track without embeddings")
        rows = []
        frames = []
        try:
            for ref in refs:
                rows.append(store.row(ref["file"], int(ref["row"]), "tracks.jsonl", lineno))
                frames.append(int(ref["frame"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord("tracks.jsonl", lineno, f"bad embedding reference: {exc}") from exc
        matrix = np.stack(rows)
        if face_dim is None:
            face_dim = matrix.shape[1]
        if matrix.shape[1] != face_dim:
            raise DimensionMismatch(face_dim, matrix.shape[1], f"track {track_id}")
        conf = rec.get("speaker_confidence")
        try:
            track = FaceTrack(
                track_id=track_id,
                video_id=video_id,
                start_frame=int(rec["start_frame"]),
                end_frame=int(rec["end_frame"]),
                embeddings=matrix,
                embedding_frames=tuple(frames),
                speaker_confidence=None if conf is None else float(conf),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord("tracks.jsonl", lineno, str(exc)) from exc
        if track.track_id in ds.tracks:
            raise MalformedRecord("tracks.jsonl", lineno, f"duplicate track {track_id!r}")
        if track.start_frame > track.end_frame or track.start_frame < 0:
            raise MalformedRecord("tracks.jsonl", lineno, "bad frame range")
        ds.tracks[track.track_id] = track

    for lineno, rec in _iter_jsonl(root / "segments.jsonl"):
        segment_id = str(_require(rec, "segment_id", "segments.jsonl", lineno))
        video_id = str(_require(rec, "video_id", "segments.jsonl", lineno))
        if video_id not in ds.videos:
            raise DanglingReference(video_id, f"segment {segment_id}")
        embedding = None
        ref = rec.get("embedding")
        if ref is not None:
            try:
                embedding = store.row(ref["file"], int(ref["row"]), "segments.jsonl", lineno).copy()
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRecord(
                    "segments.jsonl", lineno, f"bad embedding reference: {exc}"
                ) from exc
            if speaker_dim is None:
                speaker_dim = embedding.shape[0]
            if embedding.shape[0] != speaker_dim:
                raise DimensionMismatch(speaker_dim, embedding.shape[0], f"segment {segment_id}")
        try:
            segment = SpeechSegment(
                segment_id=segment_id,
                video_id=video_id,
                start_s=float(rec["start_s"]),
                end_s=float(rec["end_s"]),
                origin=str(rec.get("origin", "vad")),
                embedding=embedding,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord("segments.jsonl", lineno, str(exc)) from exc
        if segment.segment_id in ds.segments:
            raise MalformedRecord("segments.jsonl", lineno, f"duplicate segment {segment_id!r}")
        if not segment.start_s < segment.end_s:
            raise MalformedRecord("segments.jsonl", lineno, "start_s must be < end_s")
        ds.segments[segment.segment_id] = segment

    for lineno, rec in _iter_jsonl(root / "pairs.jsonl"):
        pair = AVPair(
            track_id=str(_require(rec, "track_id", "pairs.jsonl", lineno)),
            segment_id=str(_require(rec, "segment_id", "pairs.jsonl", lineno)),
            confidence=float(rec.get("confidence", 0.0)),
        )
        if pair.track_id not in ds.tracks:
            raise DanglingReference(pair.track_id, f"pairs.jsonl:{lineno}")
        if pair.segment_id not in ds.segments:
            raise DanglingReference(pair.segment_id, f"pairs.jsonl:{lineno}")
        track_video = ds.tracks[pair.track_id].video_id
        segment_video = ds.segments[pair.segment_id].video_id
        if track_video != segment_video:
            raise MalformedRecord(
                "pairs.jsonl", lineno, f"pair spans videos {track_video!r} and {segment_video!r}"
            )
        ds.pairs.append(pair)

    ds.face_dim = face_dim if face_dim is not None else DEFAULT_FACE_DIM
    ds.speaker_dim = speaker_dim if speaker_dim is not None else DEFAULT_SPEAKER_DIM
    return ds


# --- write --------------------------------------------------------------------

def write(ds: Dataset, out_dir: str | Path) -> None:
    """Write a dataset as a manifest directory (inverse of ingest)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    channels = [
        {"channel_id": c.channel_id, "name": c.name}
        for c in sorted(ds.channels.values(), key=lambda c: c.channel_id)
    ]
    with open(root / "channels.json", "w", encoding="utf-8") as fh:
        json.dump(channels, fh, indent=2)
        fh.write("\n")

    videos = []
    for v in sorted(ds.videos.values(), key=lambda v: v.video_id):
        history = None
        if v.view_history is not None:
            history = [[format_timestamp(ts), count] for ts, count in v.view_history]
        videos.append(
            {
                "video_id": v.video_id,
                "channel_id": v.channel_id,
                "published_at": format_timestamp(v.published_at),
                "duration_s": v.duration_s,
                "view_history": history,
            }
        )
    with open(root / "videos.json", "w", encoding="utf-8") as fh:
        json.dump(videos, fh, indent=2)
        fh.write("\n")

    face_rows: list[np.ndarray] = []
    with open(root / "tracks.jsonl", "w", encoding="utf-8") as fh:
        for t in sorted(ds.tracks.values(), key=lambda t: t.track_id):
            refs = []
            for row, frame in zip(t.embeddings, t.embedding_frames):
                refs.append({"file": "faces.emb", "row": len(face_rows), "frame": frame})
                face_rows.append(np.asarray(row, dtype=np.float32))
            rec = {
                "track_id": t.track_id,
                "video_id": t.video_id,
                "start_frame": t.start_frame,
                "end_frame": t.end_frame,
                "speaker_confidence": t.speaker_confidence,
                "embeddings": refs,
            }
            fh.write(json.dumps(rec) + "\n")

    speaker_rows: list[np.ndarray] = []
    with open(root / "segments.jsonl", "w", encoding="utf-8") as fh:
        for s in sorted(ds.segments.values(), key=lambda s: s.segment_id):
            ref = None
            if s.embedding is not None:
                ref = {"file": "speakers.emb", "row": len(speaker_rows)}
                speaker_rows.append(np.asarray(s.embedding, dtype=np.float32))
            rec = {
                "segment_id": s.segment_id,
                "video_id": s.video_id,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "origin": s.origin,
                "embedding": ref,
            }
            fh.write(json.dumps(rec) + "\n")

    with open(root / "pairs.jsonl", "w", encoding="utf-8") as fh:
        for p in sorted(ds.pairs, key=lambda p: (p.track_id, p.segment_id)):
            fh.write(
                json.dumps(
                    {"track_id": p.track_id, "segment_id": p.segment_id, "confidence": p.confidence}
                )
                + "\n"
            )

    face_matrix = (
        np.stack(face_rows) if face_rows else np.zeros((0, ds.face_dim), dtype=np.float32)
    )
    speaker_matrix = (
        np.stack(speaker_rows) if speaker_rows else np.zeros((0, ds.speaker_dim), dtype=np.float32)
    )
    write_emb(root / "faces.emb", face_matrix)
    write_emb(root / "speakers.emb", speaker_matrix)


# --- validate -----------------------------------------------------------------

def validate(ds: Dataset) -> ValidationReport:
    """Check every dataset invariant; violations are reported, never raised."""
    report = ValidationReport()

    for channel in ds.channels.values():
        if not channel.channel_id:
            report.add("<channel>", "EmptyKey", "channel_id is empty")

    for video in ds.videos.values():
        if video.channel_id not in ds.channels:
            report.add(video.video_id, "DanglingReference", f"channel {video.channel_id!r}")
        if video.duration_s < 0:
            report.add(video.video_id, "NegativeDuration", f"{video.duration_s}")
        if video.view_history:
            prev_ts, prev_count = None, None
            for ts, count in video.view_history:
                if prev_ts is not None and ts <= prev_ts:
                    report.add(video.video_id, "ViewHistoryOrder", "timestamps not increasing")
                if prev_count is not None and count < prev_count:
                    report.add(video.video_id, "ViewHistoryOrder", "counts decreasing")
                prev_ts, prev_count = ts, count

    for track in ds.tracks.values():
        if track.video_id not in ds.videos:
            report.add(track.track_id, "DanglingReference", f"video {track.video_id!r}")
        if track.start_frame < 0 or track.start_frame > track.end_frame:
            report.add(
                track.track_id,
                "FrameRange",
                f"start {track.start_frame} > end {track.end_frame}",
            )
        if track.embeddings.shape[0] == 0:
            report.add(track.track_id, "NoEmbeddings", "track has no face embeddings")
        if track.embeddings.shape[0] != len(track.embedding_frames):
            report.add(track.track_id, "FrameIndex", "embedding/frame count mismatch")
        if track.embeddings.shape[0] and track.embeddings.shape[1] != ds.face_dim:
            report.add(
                track.track_id,
                "DimensionMismatch",
                f"expected {ds.face_dim}, got {track.embeddings.shape[1]}",
            )
        if track.embeddings.size and not np.all(np.isfinite(track.embeddings)):
            report.add(track.track_id, "NonFinite", "face embedding has non-finite values")
        for frame in track.embedding_frames:
            if not track.start_frame <= frame <= track.end_frame:
                report.add(track.track_id, "FrameIndex", f"embedding frame {frame} outside track")
        conf = track.speaker_confidence
        if conf is not None and not math.isfinite(conf):
            report.add(track.track_id, "NonFinite", "speaker_confidence not finite")

    for segment in ds.segments.values():
        if segment.video_id not in ds.videos:
            report.add(segment.segment_id, "DanglingReference", f"video {segment.video_id!r}")
        if not segment.start_s < segment.end_s:
            report.add(segment.segment_id, "TimeRange", f"[{segment.start_s}, {segment.end_s}]")
        if segment.origin not in ("vad", "active_speaker"):
            report.add(segment.segment_id, "BadOrigin", segment.origin)
        if segment.embedding is not None:
            if segment.embedding.shape[0] != ds.speaker_dim:
                report.add(
                    segment.segment_id,
                    "DimensionMismatch",
                    f"expected {ds.speaker_dim}, got {segment.embedding.shape[0]}",
                )
            if not np.all(np.isfinite(segment.embedding)):
                report.add(segment.segment_id, "NonFinite", "speaker embedding has non-finite values")

    for i, pair in enumerate(ds.pairs):
        pair_id = f"pair[{i}]({pair.track_id},{pair.segment_id})"
        track = ds.tracks.get(pair.track_id)
        segment = ds.segments.get(pair.segment_id)
        if track is None:
            report.add(pair_id, "DanglingReference", f"track {pair.track_id!r}")
        if segment is None:
            report.add(pair_id, "DanglingReference", f"segment {pair.segment_id!r}")
        if track is not None and segment is not None and track.video_id != segment.video_id:
            report.add(pair_id, "CrossVideoPair", f"{track.video_id} != {segment.video_id}")

    return report
