"""Dataset model and the on-disk manifest format.

A dataset directory holds:

* ``channels.json``, ``videos.json``: JSON arrays of records.
* ``tracks.jsonl``, ``segments.jsonl``: one JSON object per line.
* ``*.emb``: binary embedding matrices referenced from tracks/segments as
  ``(file, row)``. Header is 16 bytes: magic ``EMB1``, dim as little-endian
  uint32, row count as little-endian uint64; payload is count x dim
  little-endian float32, row-major.

``ingest`` reads only the fields of these records that a stage uses; any
other key or file is ignored. It reads each ``.emb`` file once into one
read-only array, and the tracks and segments hold views of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timedelta, timezone
from functools import cache, partial
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
    # ordered (timestamp, view_count) samples; None when never crawled
    view_history: tuple[tuple[datetime, int], ...] | None = None


@dataclass(eq=False)
class FaceTrack:
    track_id: str
    video_id: str
    start_frame: int
    end_frame: int
    embeddings: np.ndarray  # (k, face_dim) float32
    embedding_frames: tuple[int, ...]  # source frame of each embedding row
    speaker_confidence: float | None = None


@dataclass(eq=False)
class SpeechSegment:
    segment_id: str
    video_id: str
    start_s: float
    end_s: float
    embedding: np.ndarray | None = None  # (speaker_dim,) float32

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class AVPair:
    track_id: str
    segment_id: str
    confidence: float


@dataclass(eq=False)
class Dataset:
    channels: dict[str, Channel] = field(default_factory=dict)
    videos: dict[str, Video] = field(default_factory=dict)
    tracks: dict[str, FaceTrack] = field(default_factory=dict)
    segments: dict[str, SpeechSegment] = field(default_factory=dict)
    face_dim: int = DEFAULT_FACE_DIM
    speaker_dim: int = DEFAULT_SPEAKER_DIM

    def digest(self) -> str:
        """SHA-256 of every record field, in record order, and every embedding's bytes.

        The fields go in as three columns, each prefixed by its byte length as
        a little-endian uint64: a JSON array of every id, name and reference;
        little-endian int64s (table sizes, dimensions, times as microseconds
        since the epoch, view counts, frames, array shapes and the lengths and
        None flags that delimit the variable parts); little-endian float64s
        (speaker confidences, NaN where None, then segment times). Then come
        the SHA-256 of the face rows, track after track, and that of the
        speaker rows, segment after segment. The face rows are hashed on a
        worker thread while this thread hashes the speaker rows; the worker
        has ended when this returns.
        """
        faces = []

        def hash_faces():
            try:
                faces.append(_rows_digest(t.embeddings for t in self.tracks.values()))
            except BaseException as exc:  # raised below, on the calling thread
                faces.append(exc)

        worker = threading.Thread(target=hash_faces, name="digest-faces")
        worker.start()
        try:
            speakers = _rows_digest(s.embedding for s in self.segments.values() if s.embedding is not None)
        finally:
            worker.join()
        if isinstance(faces[0], BaseException):
            raise faces[0]
        h = hashlib.sha256()
        for column in self._columns():
            h.update(len(column).to_bytes(8, "little"))
            h.update(column)
        h.update(faces[0])
        h.update(speakers)
        return h.hexdigest()

    def _columns(self) -> tuple[bytes, bytes, bytes]:
        """The digest's string, int64 and float64 columns, each record's fields appended in one walk per table."""
        strings, floats = [], []
        ints = [*map(len, (self.channels, self.videos, self.tracks, self.segments)), self.face_dim, self.speaker_dim]
        for c in self.channels.values():
            strings += c.channel_id, c.name
        for v in self.videos.values():
            strings += v.video_id, v.channel_id
            history = v.view_history
            ints += _micros(v.published_at), -1 if history is None else len(history)
            for ts, count in history or ():
                ints += _micros(ts), count
        for t in self.tracks.values():
            strings += t.track_id, t.video_id
            ints += t.start_frame, t.end_frame, len(t.embedding_frames), *t.embedding_frames
            ints += *t.embeddings.shape, t.speaker_confidence is None
            floats.append(math.nan if t.speaker_confidence is None else t.speaker_confidence)
        for s in self.segments.values():
            strings += s.segment_id, s.video_id
            ints.append(-1 if s.embedding is None else len(s.embedding))
            floats += s.start_s, s.end_s
        return json.dumps(strings).encode(), np.array(ints, "<i8").tobytes(), np.array(floats, "<f8").tobytes()


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _micros(ts: datetime) -> int:
    """An aware timestamp as whole microseconds since the Unix epoch."""
    return (ts - _UNIX_EPOCH) // _MICROSECOND


def _rows_digest(matrices) -> bytes:
    """SHA-256 of the matrices' float32 bytes, one after the other."""
    h = hashlib.sha256()
    for matrix in matrices:
        h.update(np.ascontiguousarray(matrix, dtype="<f4"))
    return h.digest()


@dataclass(frozen=True)
class Violation:
    record_id: str
    kind: str
    detail: str


# --- embedding matrix files -------------------------------------------------

def write_emb(path: Path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("embedding matrix must be 2-D")
    _write_rows(path, matrix.shape[1], [matrix])


def _write_rows(path: Path, dim: int, matrices: list) -> None:
    """Write the matrices' rows in order as one float32 matrix of width dim, cast before the file is opened."""
    matrices = [np.ascontiguousarray(m, dtype="<f4") for m in matrices]
    if any(m.shape[1] != dim for m in matrices):
        raise ValueError(f"embedding matrix width differs from {dim}")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC + struct.pack("<IQ", dim, sum(map(len, matrices))))
        fh.writelines(matrices)


def read_emb(path: Path, source=None) -> np.ndarray:
    """The matrix of an .emb file as a new writable array; its header is checked against the file size first.

    A damaged file raises MalformedRecord naming source (default: the path).
    """
    source = path if source is None else source
    if not path.is_file():
        raise MissingFile(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != EMB_MAGIC:
            raise MalformedRecord(source, 0, "bad embedding file header")
        dim, count = struct.unpack("<IQ", header[4:])
        if os.fstat(fh.fileno()).st_size < 16 + 4 * dim * count:
            raise MalformedRecord(source, 0, "truncated embedding payload")
        matrix = np.empty((count, dim), dtype="<f4")
        if fh.readinto(matrix) != matrix.nbytes:
            raise MalformedRecord(source, 0, "truncated embedding payload")
    return matrix


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
    if segment.embedding is not None:
        if segment.embedding.shape[0] != ds.speaker_dim:
            detail = f"expected {ds.speaker_dim}, got {segment.embedding.shape[0]}"
            yield Violation(segment_id, "DimensionMismatch", detail)
        if not usable:
            yield _embedding_fault(segment_id, segment.embedding)


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
# Every JSON checkpoint record and the ground truth: json_document writes, from_plain reads.

def json_document(value) -> bytes:
    """value as an indented JSON document with sorted keys and a closing line feed."""
    return (json.dumps(value, indent=2, sort_keys=True, default=plain) + "\n").encode()


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


def _int_key(text: str) -> int:
    """An int dict key from its JSON object key, accepted only as plain writes it (str(k))."""
    key = int(text)
    if str(key) != text:
        raise ValueError(f"int key {text!r} is not written as {str(key)!r}")
    return key


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
        key, value = (_int_key if args[0] is int else str), _reader(args[1])
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


def _field(rec, key: str, kind, default=_REQUIRED, where: str = ""):
    """rec[key] read as kind (default if absent; null allowed if default is None); faults name where + key.

    kind is a converter, or a JSON type read under _expect's rules: a value of that
    type is taken as it is (an int if it fits in 64 bits), any other goes to _CONVERT.
    """
    value = rec.get(key, default) if type(rec) is dict else _REQUIRED
    if type(value) is kind and (kind is not int or -(2**63) <= value < 2**63):
        return value
    if not isinstance(rec, dict):
        raise ValueError(f"field {where.rstrip('.')!r}: not an object")
    if value is _REQUIRED:
        raise KeyError(where + key)
    if value is None and default is None:
        return None
    try:
        return _CONVERT.get(kind, kind)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {where + key!r}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer field's value, read by _field; the digest takes it as an int64."""
    value = _expect(value, int)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"expected a 64-bit int, got {value}")
    return value


# how _field reads a value not of its kind's type; a float may be written as an int
_CONVERT = {
    int: _int,
    float: lambda value: float(_expect(value, float)),
    str: partial(_expect, json_type=str),
    list: partial(_expect, json_type=list),
}


def _emb(matrices: dict, root: Path, name: str) -> tuple[np.ndarray, list[bool]]:
    """The read-only matrix of the .emb file name and its ``_usable_rows``, read on first use."""
    if name not in matrices:
        matrix = read_emb(root / name, name)
        matrix.flags.writeable = False
        matrices[name] = matrix, _usable_rows(matrix).tolist()
    return matrices[name]


def _emb_ref(ref, emb, where: str) -> tuple[np.ndarray, int, bool]:
    """The matrix a ``{"file", "row"}`` reference names, the row, and whether that row is usable."""
    name, index = _field(ref, "file", str, where=where), _field(ref, "row", int, where=where)
    matrix, usable = emb(name)
    if not 0 <= index < len(matrix):
        raise ValueError(f"field {where + 'row'!r}: {index} out of range for {name}")
    return matrix, index, usable[index]


def _track_rows(refs: list, emb):
    """A track's rows, frames and usable flag; rows that are one ascending run of one file are a view of it."""
    picks, frames = [], []
    for i, ref in enumerate(refs):
        where = f"embeddings[{i}]."
        picks.append(_emb_ref(ref, emb, where))
        frames.append(_field(ref, "frame", int, where=where))
    usable = all(ok for _, _, ok in picks)
    matrix, first, _ = picks[0] if picks else (None, 0, True)
    if picks and all(m is matrix and row == first + k for k, (m, row, _) in enumerate(picks)):
        return matrix[first : first + len(picks)], tuple(frames), usable
    return [m[row] for m, row, _ in picks], tuple(frames), usable


# Each parser returns (id, record, extra rule arguments) for one JSON object;
# emb(name) is the (matrix, usable rows) of an .emb file.
def _parse_channel(rec: dict, ds: Dataset, emb):
    channel = Channel(_field(rec, "channel_id", str), _field(rec, "name", str, ""))
    return channel.channel_id, channel, ()


def _parse_video(rec: dict, ds: Dataset, emb):
    video = Video(
        video_id=_field(rec, "video_id", str),
        channel_id=_field(rec, "channel_id", str),
        published_at=_field(rec, "published_at", parse_timestamp),
        view_history=_field(
            rec, "view_history", lambda h: tuple((parse_timestamp(t), _int(n)) for t, n in h), None
        ),
    )
    return video.video_id, video, ()


def _parse_track(rec: dict, ds: Dataset, emb):
    rows, frames, usable = _track_rows(_field(rec, "embeddings", list), emb)
    if ds.face_dim is None and len(rows):
        ds.face_dim = len(rows[0])
    if type(rows) is list:
        if len({len(row) for row in rows}) > 1:
            got = next(len(row) for row in rows if len(row) != ds.face_dim)
            detail = f"expected {ds.face_dim}, got {got}"
            raise DimensionMismatch(f"{_field(rec, 'track_id', str)}: DimensionMismatch: {detail}")
        rows = np.array(rows) if rows else np.zeros((0, ds.face_dim or 0), dtype=np.float32)
    rows.flags.writeable = False
    track = FaceTrack(
        track_id=_field(rec, "track_id", str),
        video_id=_field(rec, "video_id", str),
        start_frame=_field(rec, "start_frame", int),
        end_frame=_field(rec, "end_frame", int),
        embeddings=rows,
        embedding_frames=frames,
        speaker_confidence=_field(rec, "speaker_confidence", float, None),
    )
    return track.track_id, track, (usable,)


def _parse_segment(rec: dict, ds: Dataset, emb):
    embedding, usable, ref = None, True, rec.get("embedding")
    if ref is not None:
        matrix, row, usable = _emb_ref(ref, emb, "embedding.")
        embedding = matrix[row]
        if ds.speaker_dim is None:
            ds.speaker_dim = embedding.shape[0]
    segment = SpeechSegment(
        segment_id=_field(rec, "segment_id", str),
        video_id=_field(rec, "video_id", str),
        start_s=_field(rec, "start_s", float),
        end_s=_field(rec, "end_s", float),
        embedding=embedding,
    )
    return segment.segment_id, segment, (usable,)


_TYPED_ERRORS = {"DanglingReference": DanglingReference, "DimensionMismatch": DimensionMismatch}


def ingest(manifest_dir: str | Path) -> Dataset:
    """Load and fully validate a dataset directory in one pass.

    Each record is checked by the rules of ``validate`` as soon as it is parsed;
    the first fault raises DanglingReference, DimensionMismatch or MalformedRecord
    naming ``file:line`` and the record. Each modality's embedding dimension is
    that of its first referenced row; with no embeddings at all the defaults
    (1792 faces, 1024 speakers) apply.

    Each ``.emb`` file is read once, by ``read_emb``, into one read-only array.
    A segment holds a view of its row, a track whose references are one
    ascending run of one file a view of those rows, and any other track a
    read-only copy; a caller that edits rows copies them first.
    """
    root = Path(manifest_dir)
    emb = partial(_emb, {}, root)
    ds = Dataset(face_dim=None, speaker_dim=None)
    for name, parse, rules, table in (
        ("channels.json", _parse_channel, _channel_rules, ds.channels),
        ("videos.json", _parse_video, _video_rules, ds.videos),
        ("tracks.jsonl", _parse_track, _track_rules, ds.tracks),
        ("segments.jsonl", _parse_segment, _segment_rules, ds.segments),
    ):
        for lineno, rec in _entries(root, name):
            if not isinstance(rec, dict):
                raise MalformedRecord(name, lineno, "record is not an object")
            try:
                key, record, extra = parse(rec, ds, emb)
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
            if key in table:
                raise MalformedRecord(name, lineno, f"duplicate id {key!r}")
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
    videos = [
        {
            "video_id": v.video_id,
            "channel_id": v.channel_id,
            "published_at": format_timestamp(v.published_at),
            "view_history": None if v.view_history is None else [[format_timestamp(ts), n] for ts, n in v.view_history],
        }
        for v in sorted(ds.videos.values(), key=lambda v: v.video_id)
    ]
    for name, records in (("channels.json", channels), ("videos.json", videos)):
        with open(root / name, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")

    tracks = sorted(ds.tracks.values(), key=lambda t: t.track_id)
    with open(root / "tracks.jsonl", "w", encoding="utf-8") as fh:
        row = 0
        for t in tracks:
            frames = t.embedding_frames[: len(t.embeddings)]
            refs = [{"file": "faces.emb", "row": row + k, "frame": frame} for k, frame in enumerate(frames)]
            row += len(frames)
            rec = {
                "track_id": t.track_id,
                "video_id": t.video_id,
                "start_frame": t.start_frame,
                "end_frame": t.end_frame,
                "speaker_confidence": t.speaker_confidence,
                "embeddings": refs,
            }
            fh.write(json.dumps(rec) + "\n")
    _write_rows(root / "faces.emb", ds.face_dim, [t.embeddings[: len(t.embedding_frames)] for t in tracks])

    segments = sorted(ds.segments.values(), key=lambda s: s.segment_id)
    with open(root / "segments.jsonl", "w", encoding="utf-8") as fh:
        row = 0
        for s in segments:
            ref = None
            if s.embedding is not None:
                ref = {"file": "speakers.emb", "row": row}
                row += 1
            rec = {
                "segment_id": s.segment_id,
                "video_id": s.video_id,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "embedding": ref,
            }
            fh.write(json.dumps(rec) + "\n")
    _write_rows(root / "speakers.emb", ds.speaker_dim, [s.embedding[None] for s in segments if s.embedding is not None])
