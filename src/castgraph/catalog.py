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
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

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

def normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, preserving direction.

    Raises ZeroVector for inputs with zero (or non-finite) norm. Output dtype
    is float32 to match the storage precision of embeddings.
    """
    arr = np.asarray(v, dtype=np.float64)
    flat = arr.ravel(order="K")
    # np.linalg.norm's own formula for an unstated ord, without its dispatch
    norm = math.sqrt(flat.dot(flat))
    if norm == 0.0 or not math.isfinite(norm):
        raise ZeroVector("cannot normalize a zero or non-finite vector")
    return (arr / norm).astype(np.float32)


def unit_mean(rows) -> np.ndarray:
    """The normalized float64 mean of the rows: the direction of a group of embeddings.

    Raises ZeroVector when the rows cancel to a zero mean.
    """
    # np.mean's own float64 sum and division, without its dispatch
    return normalize(np.add.reduce(rows, axis=0, dtype=np.float64) / len(rows))


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


# --- embedding matrix files -------------------------------------------------

def write_emb(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValueError("embedding matrix must be 2-D")
    count, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.writelines((EMB_MAGIC + struct.pack("<IQ", dim, count), matrix))


def read_emb(path: Path) -> np.ndarray:
    if not path.is_file():
        raise MissingFile(path)
    data = path.read_bytes()
    if len(data) < 16 or data[:4] != EMB_MAGIC:
        raise MalformedRecord(path, 0, "bad embedding file header")
    dim, count = struct.unpack("<IQ", data[4:16])
    if len(data) < 16 + 4 * dim * count:
        raise MalformedRecord(path, 0, "truncated embedding payload")
    return np.frombuffer(data, dtype="<f4", count=dim * count, offset=16).reshape(count, dim).copy()


# --- timestamps ---------------------------------------------------------------

def parse_timestamp(raw: str) -> datetime:
    if not isinstance(raw, str):
        raise TypeError(f"timestamp must be a string, got {type(raw).__name__}")
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# --- rules ------------------------------------------------------------------
# One generator per record kind yields the record's violations against the
# dataset built so far; embedding values enter as one "usable" flag.

def _usable_rows(matrix: np.ndarray) -> np.ndarray:
    """Per row of a 2-D matrix: every value finite and at least one non-zero."""
    squares = np.einsum("ij,ij->i", matrix, matrix)
    usable = (squares > 0) & (squares < np.inf)
    # a float32 sum of squares can overflow or underflow: decide those rows exactly
    suspect = np.flatnonzero(~usable)
    usable[suspect] = np.isfinite(matrix[suspect]).all(axis=1) & matrix[suspect].any(axis=1)
    return usable


def _embedding_fault(record_id: str, embeddings: np.ndarray) -> Violation:
    if np.isfinite(embeddings).all():
        return Violation(record_id, "ZeroVector", "an embedding row is all zero")
    return Violation(record_id, "NonFinite", "an embedding row is not finite")


def _id_rules(record_id: str):
    # a label checkpoint holds one id per line
    if "\n" in record_id:
        yield Violation(repr(record_id), "LineBreak", "the id holds a line feed")


def _channel_rules(channel: Channel, ds: Dataset):
    if not channel.channel_id:
        yield Violation("<channel>", "EmptyKey", "channel_id is empty")
    yield from _id_rules(channel.channel_id)


def _video_rules(video: Video, ds: Dataset):
    yield from _id_rules(video.video_id)
    if video.channel_id not in ds.channels:
        yield Violation(video.video_id, "DanglingReference", f"channel {video.channel_id!r}")
    if not math.isfinite(video.duration_s):
        yield Violation(video.video_id, "NonFinite", f"duration_s {video.duration_s}")
    elif video.duration_s < 0:
        yield Violation(video.video_id, "NegativeDuration", f"{video.duration_s}")
    history = video.view_history or ()
    for (prev_ts, prev_count), (ts, count) in zip(history, history[1:]):
        if ts <= prev_ts:
            yield Violation(video.video_id, "ViewHistoryOrder", "timestamps not increasing")
        if count < prev_count:
            yield Violation(video.video_id, "ViewHistoryOrder", "counts decreasing")


def _track_rules(track: FaceTrack, ds: Dataset, usable: bool):
    track_id, count = track.track_id, track.embeddings.shape[0]
    yield from _id_rules(track_id)
    if track.video_id not in ds.videos:
        yield Violation(track_id, "DanglingReference", f"video {track.video_id!r}")
    if track.start_frame < 0 or track.start_frame > track.end_frame:
        yield Violation(track_id, "FrameRange", f"start {track.start_frame} > end {track.end_frame}")
    if count == 0:
        yield Violation(track_id, "NoEmbeddings", "track has no face embeddings")
    if count != len(track.embedding_frames):
        yield Violation(track_id, "FrameIndex", "embedding/frame count mismatch")
    if count and track.embeddings.shape[1] != ds.face_dim:
        detail = f"expected {ds.face_dim}, got {track.embeddings.shape[1]}"
        yield Violation(track_id, "DimensionMismatch", detail)
    if not usable:
        yield _embedding_fault(track_id, track.embeddings)
    for frame in track.embedding_frames:
        if not track.start_frame <= frame <= track.end_frame:
            yield Violation(track_id, "FrameIndex", f"embedding frame {frame} outside track")
    conf = track.speaker_confidence
    if conf is not None and not math.isfinite(conf):
        yield Violation(track_id, "NonFinite", "speaker_confidence not finite")


def _segment_rules(segment: SpeechSegment, ds: Dataset, usable: bool):
    segment_id, start, end = segment.segment_id, segment.start_s, segment.end_s
    yield from _id_rules(segment_id)
    if segment.video_id not in ds.videos:
        yield Violation(segment_id, "DanglingReference", f"video {segment.video_id!r}")
    if not -math.inf < start < end < math.inf:
        kind = "TimeRange" if math.isfinite(start) and math.isfinite(end) else "NonFinite"
        yield Violation(segment_id, kind, f"[{start}, {end}]")
    if segment.origin not in ("vad", "active_speaker"):
        yield Violation(segment_id, "BadOrigin", segment.origin)
    if segment.embedding is not None:
        if segment.embedding.shape[0] != ds.speaker_dim:
            detail = f"expected {ds.speaker_dim}, got {segment.embedding.shape[0]}"
            yield Violation(segment_id, "DimensionMismatch", detail)
        if not usable:
            yield _embedding_fault(segment_id, segment.embedding)


def _pair_rules(pair: AVPair, ds: Dataset):
    pair_id = f"pair({pair.track_id},{pair.segment_id})"
    track = ds.tracks.get(pair.track_id)
    segment = ds.segments.get(pair.segment_id)
    if track is None:
        yield Violation(pair_id, "DanglingReference", f"track {pair.track_id!r}")
    if segment is None:
        yield Violation(pair_id, "DanglingReference", f"segment {pair.segment_id!r}")
    if track is not None and segment is not None and track.video_id != segment.video_id:
        yield Violation(pair_id, "CrossVideoPair", f"{track.video_id} != {segment.video_id}")
    if not math.isfinite(pair.confidence):
        yield Violation(pair_id, "NonFinite", "confidence not finite")


def validate(ds: Dataset) -> list[Violation]:
    """Run every record rule over a dataset; the violations are returned, never raised."""
    found = []
    for channel in ds.channels.values():
        found += _channel_rules(channel, ds)
    for video in ds.videos.values():
        found += _video_rules(video, ds)
    for track in ds.tracks.values():
        found += _track_rules(track, ds, bool(_usable_rows(track.embeddings).all()))
    for segment in ds.segments.values():
        usable = segment.embedding is None or bool(_usable_rows(segment.embedding[None]).all())
        found += _segment_rules(segment, ds, usable)
    for pair in ds.pairs:
        found += _pair_rules(pair, ds)
    return found


# --- ingest -------------------------------------------------------------------

def _read_text(path: Path, source) -> str:
    """The file decoded as UTF-8 once; a byte that is not UTF-8 raises MalformedRecord at source:line."""
    if not path.is_file():
        raise MissingFile(path)
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(source, line, f"byte {data[exc.start]:#04x} is not UTF-8") from exc


def load_json(path: Path, source=None):
    """One JSON document; faults name source (default: the path) and the line."""
    source = path if source is None else source
    try:
        return json.loads(_read_text(path, source))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(source, exc.lineno, exc.msg) from exc


# --- record codec -------------------------------------------------------------
# Every JSON checkpoint record, the ground truth file and export-dot's graph go
# through these two: json.dumps(..., default=plain) writes, from_plain reads.

def plain(value):
    """The JSON form of a dataclass or a set, for json.dumps(default=plain).

    A dataclass becomes the object of its fields (its instance dict: a record
    keeps no other attribute), a dict field's keys turned to strings here so
    that sort_keys sorts them as strings; a set becomes a sorted array.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if not is_dataclass(value):
        raise TypeError(f"{type(value).__name__} has no JSON form")
    out = vars(value)
    for name in _dict_fields(type(value)):
        out = {**out, name: {str(k): v for k, v in out[name].items()}}
    return out


def from_plain(kind, data):
    """The kind value whose JSON form is data; the inverse of plain.

    kind is a dataclass, dict[K, V] (K str or int), list[X],
    tuple[X, ...], a fixed tuple, frozenset[X], X | None, str, int, float or
    bool. Every field is required: a missing one raises KeyError, and a value
    of the wrong shape or type TypeError or ValueError.
    """
    return _reader(kind)(data)


@cache
def _dict_fields(kind) -> tuple[str, ...]:
    """The names of a dataclass's fields annotated as dicts."""
    hints = get_type_hints(kind)
    return tuple(f.name for f in fields(kind) if get_origin(hints[f.name]) is dict)


def _expect(data, json_type):
    """data if it is a json_type value, else TypeError. A float may be written as an int; a bool is no number."""
    if type(data) is json_type or (json_type is float and type(data) is int):
        return data
    raise TypeError(f"expected {json_type.__name__}, got {type(data).__name__}")


@cache
def _reader(kind):
    """The function from_plain applies for kind, built once per type."""
    origin, args = get_origin(kind), get_args(kind)
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        readers = tuple((f.name, _reader(hints[f.name])) for f in fields(kind))
        return lambda data: kind(**{name: read(data[name]) for name, read in readers})
    if origin in (Union, UnionType):
        (inner,) = (arg for arg in args if arg is not NoneType)
        read = _reader(inner)
        return lambda data: None if data is None else read(data)
    if origin is dict:
        key, value = args[0], _reader(args[1])  # object keys are strings: key parses them
        return lambda data: {key(k): value(v) for k, v in _expect(data, dict).items()}
    if origin is tuple and args[1:] != (...,):
        items = tuple(map(_reader, args))
        return lambda data: tuple(read(x) for read, x in zip(items, _expect(data, list), strict=True))
    if origin in (list, tuple, frozenset):
        item = _reader(args[0])
        return lambda data: origin(map(item, _expect(data, list)))
    if kind in (str, int, float, bool):
        return lambda data: _expect(data, kind)
    raise TypeError(f"no JSON form for {kind!r}")


def _entries(root: Path, name: str):
    """(line, record) per record of a manifest file; in a .json array, line is the position."""
    if name.endswith(".json"):
        records = load_json(root / name, name)
        if not isinstance(records, list):
            raise MalformedRecord(name, 1, "top-level value is not an array")
        yield from enumerate(records, start=1)
        return
    for lineno, line in enumerate(_read_text(root / name, name).split("\n"), start=1):
        if line.strip():
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(name, lineno, exc.msg) from exc


_REQUIRED = object()


def _field(rec, key: str, convert, default=_REQUIRED, where: str = ""):
    """convert(rec[key]) (default if absent; null allowed if default is None); faults name where + key."""
    if not isinstance(rec, dict):
        raise ValueError(f"field {where.rstrip('.')!r}: not an object")
    value = rec.get(key, default)
    if value is _REQUIRED:
        raise KeyError(where + key)
    if value is None and default is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {where + key!r}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer field's value, read by _field."""
    return _expect(value, int)


def _float(value) -> float:
    """A JSON number field's value as a float, read by _field."""
    return float(_expect(value, float))


class _EmbStore:
    """Lazily loaded .emb matrices and their ``_usable_rows``, keyed by file name."""

    def __init__(self, root: Path):
        self.root = root
        self._cache: dict[str, tuple[np.ndarray, list[bool]]] = {}

    def row(self, ref, where: str) -> tuple[np.ndarray, bool]:
        """The row a ``{"file", "row"}`` reference names, and whether it is usable."""
        name, index = _field(ref, "file", str, where=where), _field(ref, "row", _int, where=where)
        if name not in self._cache:
            matrix = read_emb(self.root / name)
            self._cache[name] = matrix, _usable_rows(matrix).tolist()
        matrix, usable = self._cache[name]
        if not 0 <= index < matrix.shape[0]:
            raise ValueError(f"field {where + 'row'!r}: {index} out of range for {name}")
        return matrix[index], usable[index]


# Each parser returns (id, record, extra rule arguments) for one JSON object.
def _parse_channel(rec: dict, ds: Dataset, store: _EmbStore):
    channel = Channel(_field(rec, "channel_id", str), _field(rec, "name", str, ""))
    return channel.channel_id, channel, ()


def _parse_video(rec: dict, ds: Dataset, store: _EmbStore):
    video = Video(
        video_id=_field(rec, "video_id", str),
        channel_id=_field(rec, "channel_id", str),
        published_at=_field(rec, "published_at", parse_timestamp),
        duration_s=_field(rec, "duration_s", _float),
        view_history=_field(
            rec, "view_history", lambda h: tuple((parse_timestamp(t), _int(n)) for t, n in h), None
        ),
    )
    return video.video_id, video, ()


def _parse_track(rec: dict, ds: Dataset, store: _EmbStore):
    rows, frames, usable = [], [], True
    for i, ref in enumerate(_field(rec, "embeddings", list)):
        row, ok = store.row(ref, f"embeddings[{i}].")
        rows.append(row)
        frames.append(_field(ref, "frame", _int, where=f"embeddings[{i}]."))
        usable = usable and ok
    if ds.face_dim is None and rows:
        ds.face_dim = len(rows[0])
    if len({len(row) for row in rows}) > 1:
        got = next(len(row) for row in rows if len(row) != ds.face_dim)
        detail = f"expected {ds.face_dim}, got {got}"
        raise DimensionMismatch(f"{_field(rec, 'track_id', str)}: DimensionMismatch: {detail}")
    embeddings = np.array(rows) if rows else np.zeros((0, ds.face_dim or 0), dtype=np.float32)
    track = FaceTrack(
        track_id=_field(rec, "track_id", str),
        video_id=_field(rec, "video_id", str),
        start_frame=_field(rec, "start_frame", _int),
        end_frame=_field(rec, "end_frame", _int),
        embeddings=embeddings,
        embedding_frames=tuple(frames),
        speaker_confidence=_field(rec, "speaker_confidence", _float, None),
    )
    return track.track_id, track, (usable,)


def _parse_segment(rec: dict, ds: Dataset, store: _EmbStore):
    embedding, usable, ref = None, True, rec.get("embedding")
    if ref is not None:
        embedding, usable = store.row(ref, "embedding.")
        if ds.speaker_dim is None:
            ds.speaker_dim = embedding.shape[0]
    segment = SpeechSegment(
        segment_id=_field(rec, "segment_id", str),
        video_id=_field(rec, "video_id", str),
        start_s=_field(rec, "start_s", _float),
        end_s=_field(rec, "end_s", _float),
        origin=_field(rec, "origin", str, "vad"),
        embedding=embedding,
    )
    return segment.segment_id, segment, (usable,)


def _parse_pair(rec: dict, ds: Dataset, store: _EmbStore):
    ids = _field(rec, "track_id", str), _field(rec, "segment_id", str)
    return None, AVPair(*ids, _field(rec, "confidence", _float, 0.0)), ()


_TYPED_ERRORS = {"DanglingReference": DanglingReference, "DimensionMismatch": DimensionMismatch}


def ingest(manifest_dir: str | Path) -> Dataset:
    """Load and fully validate a dataset directory in one pass.

    Each record is checked by the rules of ``validate`` as soon as it is parsed;
    the first fault raises DanglingReference, DimensionMismatch or MalformedRecord
    naming ``file:line`` and the record. Each modality's embedding dimension is
    that of its first referenced row; with no embeddings at all the defaults
    (1792 faces, 1024 speakers) apply.
    """
    root = Path(manifest_dir)
    store = _EmbStore(root)
    ds = Dataset(face_dim=None, speaker_dim=None)
    for name, parse, rules, table in (
        ("channels.json", _parse_channel, _channel_rules, ds.channels),
        ("videos.json", _parse_video, _video_rules, ds.videos),
        ("tracks.jsonl", _parse_track, _track_rules, ds.tracks),
        ("segments.jsonl", _parse_segment, _segment_rules, ds.segments),
        ("pairs.jsonl", _parse_pair, _pair_rules, None),
    ):
        for lineno, rec in _entries(root, name):
            if not isinstance(rec, dict):
                raise MalformedRecord(name, lineno, "record is not an object")
            try:
                key, record, extra = parse(rec, ds, store)
            except KeyError as exc:
                raise MalformedRecord(name, lineno, f"missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedRecord(name, lineno, f"bad record: {exc}") from exc
            except DimensionMismatch as exc:
                raise DimensionMismatch(f"{name}:{lineno}: {exc}") from exc
            for v in rules(record, ds, *extra):
                reason = f"{v.record_id}: {v.kind}: {v.detail}"
                if v.kind in _TYPED_ERRORS:
                    raise _TYPED_ERRORS[v.kind](f"{name}:{lineno}: {reason}")
                raise MalformedRecord(name, lineno, reason)
            if table is None:
                ds.pairs.append(record)
            elif key in table:
                raise MalformedRecord(name, lineno, f"duplicate id {key!r}")
            else:
                table[key] = record
    ds.face_dim = ds.face_dim or DEFAULT_FACE_DIM
    ds.speaker_dim = ds.speaker_dim or DEFAULT_SPEAKER_DIM
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
