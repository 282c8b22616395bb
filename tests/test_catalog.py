"""Dataset model, manifest round trips, and validation."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castgraph import catalog, cli
from castgraph.bridge import AssociationEdge, AssociationGraph, ConflictEntry, IdentityComponent
from castgraph.catalog import (
    AVPair,
    Channel,
    Dataset,
    FaceTrack,
    SpeechSegment,
    Video,
    _usable_rows,
    from_plain,
    ingest,
    normalize,
    plain,
    read_emb,
    unit_mean,
    validate,
    write,
    write_emb,
)
from castgraph.collabgraph import CollaborationEdge
from castgraph.diarize import ReconciledSegment, RejectedSegment
from castgraph.errors import DanglingReference, DimensionMismatch, MalformedRecord, MissingFile, ZeroVector
from castgraph.synth import GroundTruth, SynthConfig, generate
from castgraph.tracks import TrackEntity

from oracles import oracle_reference_rows
from test_pipeline_cli import child_env


@pytest.fixture(scope="module")
def synth_dataset():
    cfg = SynthConfig(
        n_channels=9,
        n_videos=72,
        n_identities=9,
        face_dim=32,
        speaker_dim=24,
        angular_noise_deg=3.0,
        offscreen_speaker_fraction=0.4,
        collaboration_rate=0.3,
        planted_growth_ratio=1.5,
        rng_seed=99,
    )
    return generate(cfg)


# --- normalize -------------------------------------------------------------------

def test_normalize_three_four_five():
    out = normalize(np.array([3.0, 4.0]))
    assert out.tolist() == pytest.approx([0.6, 0.8])


def test_normalize_unit_vector_unchanged():
    v = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    assert normalize(v).tolist() == pytest.approx(v.tolist(), abs=1e-7)


def test_normalize_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(17)
        once = normalize(v)
        twice = normalize(once)
        assert np.allclose(once, twice, atol=1e-6)
        assert abs(float(np.linalg.norm(twice)) - 1.0) < 1e-5


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(8))


@pytest.mark.parametrize("dim", [3, 48, 1792])
def test_unit_mean_bits_do_not_depend_on_where_rows_become_float64(dim):
    # a float64 copy averaged, or float32 rows (array or list) averaged with a
    # float64 accumulator: the same bits
    rng = np.random.default_rng(dim)
    for count in range(1, 9):
        for _ in range(25):
            rows = rng.standard_normal((count, dim)).astype(np.float32)
            got = unit_mean(rows)
            assert got.dtype == np.float32
            copied = normalize(np.mean(np.asarray(rows, dtype=np.float64), axis=0))
            listed = normalize(np.mean(list(rows), axis=0, dtype=np.float64))
            assert got.tobytes() == copied.tobytes() == listed.tobytes() == unit_mean(list(rows)).tobytes()


@pytest.mark.parametrize("count", [1, 2, 50])
def test_unit_mean_has_the_bits_of_numpys_mean_and_norm(count):
    rng = np.random.default_rng(count)
    for dim in (3, 1792):
        for _ in range(20):
            wide = rng.standard_normal((count, dim)) * rng.uniform(1e-3, 1e3)
            for rows in (wide.astype(np.float32), list(wide.astype(np.float32)), wide):
                mean = np.mean(rows, axis=0, dtype=np.float64)
                expected = (mean / np.linalg.norm(mean)).astype(np.float32)
                assert unit_mean(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "rows",
    [np.zeros((2, 4)), [[1.0, -2.0], [-1.0, 2.0]], [[np.inf, 1.0], [0.0, 1.0]], [[np.nan, 1.0]]],
    ids=["zero", "cancelling", "inf", "nan"],
)
def test_unit_mean_of_rows_without_a_direction_raises(rows):
    with pytest.raises(ZeroVector):
        unit_mean(rows)


# --- emb files --------------------------------------------------------------------

def test_emb_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((7, 12)).astype(np.float32)
    path = tmp_path / "x.emb"
    write_emb(path, matrix)
    loaded = read_emb(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, matrix)
    assert loaded.flags.writeable
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    assert int.from_bytes(raw[4:8], "little") == 12
    assert int.from_bytes(raw[8:16], "little") == 7


def test_emb_bad_header(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(MalformedRecord):
        read_emb(path)


def test_emb_header_claiming_more_rows_than_the_file_holds_allocates_nothing(tmp_path):
    path = tmp_path / "huge.emb"
    path.write_bytes(b"EMB1" + (8).to_bytes(4, "little") + (2**40).to_bytes(8, "little") + bytes(4 * 8))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedRecord, match="truncated embedding payload"):
            read_emb(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_emb_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        read_emb(tmp_path / "absent.emb")


# --- ingest / write ----------------------------------------------------------------

def test_ingest_write_round_trip(tmp_path, synth_dataset):
    ds, _ = synth_dataset
    write(ds, tmp_path / "d")
    loaded = ingest(tmp_path / "d")
    assert loaded.digest() == ds.digest()


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """A written corpus whose embedding payload outweighs its JSON text by far."""
    cfg = SynthConfig(n_channels=4, n_videos=48, n_identities=4, face_dim=4096, speaker_dim=4096, rng_seed=5)
    root = tmp_path_factory.mktemp("wide") / "data"
    write(generate(cfg)[0], root)
    return root


def test_ingest_reads_each_emb_file_once_and_records_share_its_read_only_array(wide_corpus, monkeypatch):
    matrices = {}

    def read_once(path, source):
        assert path.name not in matrices and source == path.name
        matrices[path.name] = read_emb(path, source)
        return matrices[path.name]

    monkeypatch.setattr(catalog, "read_emb", read_once)
    ds = ingest(wide_corpus)
    assert sorted(matrices) == ["faces.emb", "speakers.emb"]
    assert not any(matrix.flags.writeable for matrix in matrices.values())
    vectors = [(t.embeddings, "faces.emb") for t in ds.tracks.values()]
    vectors += [(s.embedding, "speakers.emb") for s in ds.segments.values() if s.embedding is not None]
    assert len(vectors) > len(matrices)
    for vector, name in vectors:
        assert not vector.flags.writeable
        assert np.shares_memory(vector, matrices[name])


def test_ingest_holds_no_second_copy_of_the_embeddings_at_its_peak(wide_corpus):
    payload = sum(path.stat().st_size for path in wide_corpus.glob("*.emb"))
    tracemalloc.start()
    try:
        ds = ingest(wide_corpus)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.tracks and held > payload
    assert peak - held < 0.1 * payload


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(lambda n, dim: np.ones((n, dim + 1), dtype=np.float32), id="another_width"),
        pytest.param(lambda n, dim: np.full((n, dim), "not a float"), id="not_a_float"),
    ],
)
def test_write_refuses_a_face_row_and_leaves_no_emb_file(tmp_path, synth_dataset, rows):
    ds = copy.deepcopy(synth_dataset[0])
    track = sorted(ds.tracks.values(), key=lambda t: t.track_id)[-1]
    track.embeddings = rows(len(track.embedding_frames), ds.face_dim)
    with pytest.raises(ValueError):
        write(ds, tmp_path / "d")
    assert (tmp_path / "d" / "tracks.jsonl").exists()
    assert not (tmp_path / "d" / "faces.emb").exists()


def test_ingest_empty_tracks(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    (root / "channels.json").write_text('[{"channel_id": "c1", "name": "One"}]')
    (root / "videos.json").write_text(
        json.dumps(
            [
                {
                    "video_id": "v1",
                    "channel_id": "c1",
                    "published_at": "2024-01-01T00:00:00Z",
                }
            ]
        )
    )
    (root / "tracks.jsonl").write_text("")
    (root / "segments.jsonl").write_text("")
    write_emb(root / "faces.emb", np.zeros((0, 1792), dtype=np.float32))
    write_emb(root / "speakers.emb", np.zeros((0, 1024), dtype=np.float32))
    ds = ingest(root)
    assert len(ds.tracks) == 0
    assert len(ds.videos) == 1
    assert validate(ds) == []


def test_ingest_missing_manifest(tmp_path):
    with pytest.raises(MissingFile):
        ingest(tmp_path / "nowhere")


def test_ingest_dangling_segment_video(tmp_path, synth_dataset):
    ds, _ = synth_dataset
    root = tmp_path / "broken"
    write(ds, root)
    lines = (root / "segments.jsonl").read_text().strip().splitlines()
    record = json.loads(lines[0])
    record["video_id"] = "vMISSING"
    lines[0] = json.dumps(record)
    (root / "segments.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DanglingReference):
        ingest(root)


def test_ingest_malformed_line(tmp_path, synth_dataset):
    ds, _ = synth_dataset
    root = tmp_path / "garbled"
    write(ds, root)
    with open(root / "tracks.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(MalformedRecord):
        ingest(root)


# --- digest ------------------------------------------------------------------------

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
DAY = timedelta(days=1)


def digest_base() -> Dataset:
    """Every record kind, two of each, and each optional field both set and unset."""
    faces = np.arange(1, 25, dtype=np.float32).reshape(6, 4)
    ds = Dataset(face_dim=4, speaker_dim=3)
    ds.channels = {"c1": Channel("c1", "One"), "c2": Channel("c2", "Two")}
    ds.videos = {
        "v1": Video("v1", "c1", T0, ((T0, 10), (T0 + DAY, 20))),
        "v2": Video("v2", "c2", T0 + DAY, ((T0 + 2 * DAY, 30),)),
        "v3": Video("v3", "c2", T0 + 2 * DAY),
    }
    ds.tracks = {
        "t1": FaceTrack("t1", "v1", 0, 50, faces[:3], (0, 10, 20)),
        "t2": FaceTrack("t2", "v1", 60, 90, faces[3:], (60, 70, 80), 0.5),
    }
    ds.segments = {
        "s1": SpeechSegment("s1", "v1", 0.0, 2.0, np.array([0.5, 1.0, 2.0], dtype=np.float32)),
        "s2": SpeechSegment("s2", "v2", 1.0, 3.0),
    }
    return ds


def replaced(table: dict, key: str, **changes) -> None:
    table[key] = dataclasses.replace(table[key], **changes)


def changed_row(matrix: np.ndarray, index) -> np.ndarray:
    out = matrix.copy()
    out[index] += 1.0
    return out


def moved_face_row(ds: Dataset) -> None:
    first, second = ds.tracks["t1"].embeddings, ds.tracks["t2"].embeddings
    replaced(ds.tracks, "t1", embeddings=first[:2])
    replaced(ds.tracks, "t2", embeddings=np.concatenate([first[2:], second]))


def moved_sample(ds: Dataset) -> None:
    *kept, last = ds.videos["v1"].view_history
    replaced(ds.videos, "v1", view_history=tuple(kept))
    replaced(ds.videos, "v2", view_history=(last, *ds.videos["v2"].view_history))


# one edit per id; an id starts with the field it edits, and a boundary shift
# (a value moved to the next record or string) starts with "shift"
DIGEST_EDITS = {
    "Channel.channel_id": lambda ds: replaced(ds.channels, "c1", channel_id="c0"),
    "Channel.name": lambda ds: replaced(ds.channels, "c1", name="Uno"),
    "Video.video_id": lambda ds: replaced(ds.videos, "v3", video_id="v4"),
    "Video.channel_id": lambda ds: replaced(ds.videos, "v3", channel_id="c1"),
    "Video.published_at": lambda ds: replaced(ds.videos, "v3", published_at=T0 + 2 * DAY + timedelta(microseconds=1)),
    "Video.view_history-sample_time": lambda ds: replaced(
        ds.videos, "v1", view_history=((T0 - timedelta(microseconds=1), 10), (T0 + DAY, 20))
    ),
    "Video.view_history-sample_count": lambda ds: replaced(ds.videos, "v1", view_history=((T0, 10), (T0 + DAY, 21))),
    "Video.view_history-None_to_empty": lambda ds: replaced(ds.videos, "v3", view_history=()),
    "FaceTrack.track_id": lambda ds: replaced(ds.tracks, "t1", track_id="t0"),
    "FaceTrack.video_id": lambda ds: replaced(ds.tracks, "t1", video_id="v2"),
    "FaceTrack.start_frame": lambda ds: replaced(ds.tracks, "t1", start_frame=1),
    "FaceTrack.end_frame": lambda ds: replaced(ds.tracks, "t1", end_frame=51),
    "FaceTrack.embeddings-face_row_float": lambda ds: replaced(
        ds.tracks, "t2", embeddings=changed_row(ds.tracks["t2"].embeddings, (2, 3))
    ),
    "FaceTrack.embedding_frames": lambda ds: replaced(ds.tracks, "t1", embedding_frames=(0, 10, 21)),
    "FaceTrack.speaker_confidence": lambda ds: replaced(ds.tracks, "t2", speaker_confidence=0.25),
    "FaceTrack.speaker_confidence-None_to_zero": lambda ds: replaced(ds.tracks, "t1", speaker_confidence=0.0),
    "FaceTrack.speaker_confidence-None_to_nan": lambda ds: replaced(ds.tracks, "t1", speaker_confidence=math.nan),
    "SpeechSegment.segment_id": lambda ds: replaced(ds.segments, "s2", segment_id="s3"),
    "SpeechSegment.video_id": lambda ds: replaced(ds.segments, "s2", video_id="v3"),
    "SpeechSegment.start_s": lambda ds: replaced(ds.segments, "s2", start_s=math.nextafter(1.0, 0.0)),
    "SpeechSegment.end_s": lambda ds: replaced(ds.segments, "s2", end_s=3.5),
    "SpeechSegment.embedding-speaker_row_float": lambda ds: replaced(
        ds.segments, "s1", embedding=changed_row(ds.segments["s1"].embedding, 2)
    ),
    "SpeechSegment.embedding-None_to_present": lambda ds: replaced(
        ds.segments, "s2", embedding=np.zeros(3, dtype=np.float32)
    ),
    "Dataset.channels": lambda ds: ds.channels.update(c3=Channel("c3", "Three")),
    "Dataset.videos": lambda ds: ds.videos.update(v4=Video("v4", "c1", T0)),
    "Dataset.tracks": lambda ds: ds.tracks.update(t3=FaceTrack("t3", "v2", 0, 0, np.zeros((0, 4), np.float32), ())),
    "Dataset.segments": lambda ds: ds.segments.update(s3=SpeechSegment("s3", "v3", 0.0, 1.0)),
    "Dataset.face_dim": lambda ds: setattr(ds, "face_dim", 5),
    "Dataset.speaker_dim": lambda ds: setattr(ds, "speaker_dim", 2),
    # "v1", "c1" becomes "v1c", "1": the same characters in the same order
    "shift-adjacent_ids": lambda ds: replaced(ds.videos, "v1", video_id="v1c", channel_id="1"),
    "shift-embedding_frame": lambda ds: (
        replaced(ds.tracks, "t1", embedding_frames=(0, 10)),
        replaced(ds.tracks, "t2", embedding_frames=(20, 60, 70, 80)),
    ),
    "shift-view_sample": moved_sample,
    "shift-face_row": moved_face_row,
}


@pytest.mark.parametrize("edit", DIGEST_EDITS.values(), ids=DIGEST_EDITS.keys())
def test_every_digested_field_changes_the_digest(edit):
    ds = digest_base()
    edit(ds)
    assert ds.digest() != digest_base().digest()


def test_the_digest_edits_cover_every_field():
    kinds = (Channel, Video, FaceTrack, SpeechSegment, Dataset)
    names = {f"{kind.__name__}.{f.name}" for kind in kinds for f in dataclasses.fields(kind)}
    assert names == {edit.split("-")[0] for edit in DIGEST_EDITS if not edit.startswith("shift")}


def degenerate_datasets() -> dict[str, Dataset]:
    base = digest_base()
    no_rows = FaceTrack("t0", "v1", 0, 0, np.zeros((0, 4), dtype=np.float32), ())
    return {
        "empty": Dataset(),
        "faces_only": dataclasses.replace(base, segments={}),
        "voices_only": dataclasses.replace(base, tracks={}),
        "segment_without_embedding": dataclasses.replace(base, tracks={}, segments={"s2": base.segments["s2"]}),
        "zero_row_track": dataclasses.replace(base, tracks={"t0": no_rows}, segments={}),
    }


@pytest.mark.parametrize("name", degenerate_datasets())
def test_a_degenerate_dataset_digests_the_same_each_time_and_leaves_no_thread(name):
    ds = degenerate_datasets()[name]
    threads = threading.active_count()
    digests = {ds.digest() for _ in range(50)}
    assert threading.active_count() == threads
    assert len(digests) == 1 and len(digests.pop()) == 64


def test_degenerate_digests_do_not_depend_on_the_hash_seed(tmp_path):
    datasets = degenerate_datasets()
    (tmp_path / "datasets.pickle").write_bytes(pickle.dumps(datasets))
    script = (
        "import json, pathlib, pickle, sys\n"
        "datasets = pickle.loads(pathlib.Path(sys.argv[1]).read_bytes())\n"
        "print(json.dumps({name: ds.digest() for name, ds in datasets.items()}))\n"
    )
    expected = {name: ds.digest() for name, ds in datasets.items()}
    for seed in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "datasets.pickle")],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed), check=True,
        )
        assert json.loads(child.stdout) == expected


# Dataset.digest() of digest_base() and of each degenerate dataset. Every stamp
# holds the digest, so a value that moves makes --resume recompute every stage
DIGEST_GOLDEN = {
    "base": "41a3d40563730608c7355f7596f1928467c966b332971e500833714c97d57175",
    "empty": "6fd1beff3ef01e499f32cf769355bc729148b57772c0af9d8abba32e7665d3e5",
    "faces_only": "a7993a23aa4d727f4b8dff21f12e35df54caf225108398ca8e2b41362b84e099",
    "voices_only": "75ffdad9e5a4e09570da61b16700081ad6385467cb9ba78d4bae0b5866aba34a",
    "segment_without_embedding": "7d906921bdac7eb78464eb07df22e0d5b2126a9446f15fb8a4d9d7a4321c07a2",
    "zero_row_track": "61cf45c88a011cdbe42c0902999282d6f2e3cd045592d9d27fad34915d365f1b",
}


def test_digests_are_golden():
    datasets = {"base": digest_base(), **degenerate_datasets()}
    assert {name: ds.digest() for name, ds in datasets.items()} == DIGEST_GOLDEN


def test_a_failure_on_the_face_thread_is_raised_by_digest():
    ds = digest_base()
    ds.tracks["t1"].embeddings = np.array([["not a float"]])
    threads = threading.active_count()
    with pytest.raises(ValueError):
        ds.digest()
    assert threading.active_count() == threads


# --- validate ----------------------------------------------------------------------

def test_validate_clean_dataset(synth_dataset):
    ds, _ = synth_dataset
    assert validate(ds) == []


def test_validate_frame_range_violation(synth_dataset):
    ds, _ = synth_dataset
    track_id = sorted(ds.tracks)[0]
    track = ds.tracks[track_id]
    original = (track.start_frame, track.end_frame)
    track.start_frame, track.end_frame = track.end_frame + 10, track.start_frame
    violations = validate(ds)
    track.start_frame, track.end_frame = original
    assert any(v.record_id == track_id and v.kind == "FrameRange" for v in violations)


def test_validate_dimension_violation(synth_dataset):
    ds, _ = synth_dataset
    track_id = sorted(ds.tracks)[0]
    track = ds.tracks[track_id]
    original = track.embeddings
    track.embeddings = np.zeros((len(track.embedding_frames), 1024), dtype=np.float32)
    violations = validate(ds)
    track.embeddings = original
    assert any(
        v.record_id == track_id and v.kind == "DimensionMismatch" for v in violations
    )


def test_validate_view_history_order(synth_dataset):
    ds, _ = synth_dataset
    video_id = sorted(v for v in ds.videos if ds.videos[v].view_history)[0]
    video = ds.videos[video_id]
    ts0, count0 = video.view_history[0]
    ts1, _ = video.view_history[1]
    broken = ((ts0, count0), (ts1, count0 - 5))
    ds.videos[video_id] = video.__class__(
        video.video_id, video.channel_id, video.published_at, broken
    )
    violations = validate(ds)
    ds.videos[video_id] = video
    assert any(v.record_id == video_id and v.kind == "ViewHistoryOrder" for v in violations)


def test_usable_rows_matches_its_definition_at_extreme_values():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((12, 6)).astype(np.float32)
    matrix[1] = 0.0
    matrix[2] = -0.0
    matrix[3, 2] = np.nan
    matrix[4, 0] = np.inf
    matrix[5, 5] = -np.inf
    matrix[6] = 3e38  # squares overflow float32
    matrix[7] = 1e-40  # squares underflow float32
    matrix[8] = 0.0
    matrix[8, 3] = 1e-45
    expected = np.isfinite(matrix).all(axis=1) & matrix.any(axis=1)
    assert _usable_rows(matrix).tolist() == expected.tolist()
    assert expected[6:9].all() and not expected[1:6].any()


# --- one rule set: every bad manifest is a typed error, in ingest, validate and the CLI ----

def read_records(path: Path) -> list:
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    return json.loads(path.read_text())


def write_records(path: Path, records: list) -> None:
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    else:
        path.write_text(json.dumps(records))


def edit_record(root: Path, name: str, change) -> dict:
    """Apply change to the first record of a manifest file and return the record."""
    records = read_records(root / name)
    change(records[0])
    write_records(root / name, records)
    return records[0]


def no_channel_id(root, ds):
    edit_record(root, "channels.json", lambda r: r.pop("channel_id"))


def bad_timestamp(root, ds):
    edit_record(root, "videos.json", lambda r: r.update(published_at="yesterday"))


def channels_object(root, ds):
    records = json.loads((root / "channels.json").read_text())
    (root / "channels.json").write_text(json.dumps({"channels": records}))


def nan_speaker_confidence(root, ds):
    change = lambda r: r.update(speaker_confidence=math.nan)  # noqa: E731
    track_id = edit_record(root, "tracks.jsonl", change)["track_id"]
    ds.tracks[track_id].speaker_confidence = math.nan


def nan_speaker_embedding(root, ds):
    record = next(r for r in read_records(root / "segments.jsonl") if r["embedding"])
    speakers = read_emb(root / "speakers.emb")
    speakers[record["embedding"]["row"], 0] = np.nan
    write_emb(root / "speakers.emb", speakers)
    segment = ds.segments[record["segment_id"]]
    segment.embedding = segment.embedding.copy()
    segment.embedding[0] = np.nan


def infinite_end(root, ds):
    segment_id = edit_record(root, "segments.jsonl", lambda r: r.update(end_s="INF"))["segment_id"]
    path = root / "segments.jsonl"
    path.write_text(path.read_text().replace('"end_s": "INF"', '"end_s": 1e309', 1))
    ds.segments[segment_id].end_s = math.inf


def zero_face_row(root, ds):
    record = read_records(root / "tracks.jsonl")[0]
    faces = read_emb(root / "faces.emb")
    faces[record["embeddings"][0]["row"]] = 0.0
    write_emb(root / "faces.emb", faces)
    track = ds.tracks[record["track_id"]]
    track.embeddings = track.embeddings.copy()
    track.embeddings[0] = 0.0


def null_start_frame(root, ds):
    edit_record(root, "tracks.jsonl", lambda r: r.update(start_frame=None))


def null_embedding_reference(root, ds):
    edit_record(root, "tracks.jsonl", lambda r: r["embeddings"].__setitem__(1, None))


def non_utf8_byte(root, ds):
    path = root / "segments.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"segment_id": "', b'"segment_id": "\xff', 1)
    path.write_bytes(b"\n".join(lines))


def line_feed_in_segment_id(root, ds):
    # an id may hold any other character, U+2028 included (see test_pipeline_cli)
    segment_id = edit_record(root, "segments.jsonl", lambda r: r.update(segment_id=r["segment_id"] + "\n"))[
        "segment_id"
    ]
    segment = ds.segments.pop(segment_id[:-1])
    segment.segment_id = segment_id
    ds.segments[segment_id] = segment


def dangling_segment_video(root, ds):
    change = lambda r: r.update(video_id="vMISSING")  # noqa: E731
    segment_id = edit_record(root, "segments.jsonl", change)["segment_id"]
    ds.segments[segment_id].video_id = "vMISSING"


def odd_dimension_row(index):
    """A mutation pointing row index of the first track at a row of another dimension."""

    def mutate(root, ds):
        write_emb(root / "odd.emb", np.ones((1, 5), dtype=np.float32))
        edit_record(root, "tracks.jsonl", lambda r: r["embeddings"][index].update(file="odd.emb", row=0))

    mutate.__name__ = f"odd_dimension_row_{index}"
    return mutate


def middle_reference(index, key, value):
    """A mutation giving the first track five references, its rows again and again, and
    setting field key of embeddings[index] to value (value(root) when it is callable)."""

    def mutate(root, ds):
        def change(record):
            refs = record["embeddings"]
            record["embeddings"] = [dict(refs[i % len(refs)]) for i in range(5)]
            record["embeddings"][index][key] = value(root) if callable(value) else value

        edit_record(root, "tracks.jsonl", change)

    mutate.__name__ = f"embeddings[{index}].{key}={getattr(value, '__name__', value)}"
    return mutate


def face_row_count(root):
    return read_emb(root / "faces.emb").shape[0]


def huge_face_header(root, ds):
    path = root / "faces.emb"
    with open(path, "r+b") as fh:
        fh.seek(8)
        fh.write((2**40).to_bytes(8, "little"))


def bad_speaker_magic(root, ds):
    path = root / "speakers.emb"
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])


# a field of another JSON type, as (file, path to the field, value, field name in the message):
# an integer field takes a JSON integer that fits in 64 bits, a float field any JSON number,
# and a bool is neither; ids, names and file references take a JSON string, never null,
# and a track's embeddings a JSON array
WRONG_TYPES = [
    ("tracks.jsonl", ("start_frame",), 25.7, "start_frame"),
    ("tracks.jsonl", ("start_frame",), "25", "start_frame"),
    ("tracks.jsonl", ("end_frame",), 59.0, "end_frame"),
    ("tracks.jsonl", ("end_frame",), True, "end_frame"),
    ("tracks.jsonl", ("embeddings", 0, "row"), 1.9, "embeddings[0].row"),
    ("tracks.jsonl", ("embeddings", 1, "row"), True, "embeddings[1].row"),
    ("tracks.jsonl", ("embeddings", 0, "frame"), True, "embeddings[0].frame"),
    ("tracks.jsonl", ("embeddings", 0, "frame"), "25", "embeddings[0].frame"),
    ("tracks.jsonl", ("speaker_confidence",), True, "speaker_confidence"),
    ("tracks.jsonl", ("speaker_confidence",), "1.0", "speaker_confidence"),
    ("videos.json", ("view_history", 1, 1), 20000.5, "view_history"),
    ("videos.json", ("view_history", 0, 1), True, "view_history"),
    ("segments.jsonl", ("start_s",), True, "start_s"),
    ("segments.jsonl", ("end_s",), "2.24", "end_s"),
    ("tracks.jsonl", ("end_frame",), 2**63, "end_frame"),
    ("videos.json", ("view_history", -1, 1), 2**64, "view_history"),
    ("channels.json", ("channel_id",), None, "channel_id"),
    ("channels.json", ("channel_id",), True, "channel_id"),
    ("channels.json", ("name",), None, "name"),
    ("videos.json", ("channel_id",), None, "channel_id"),
    ("tracks.jsonl", ("video_id",), 7, "video_id"),
    ("tracks.jsonl", ("embeddings",), "ab", "embeddings"),
    ("tracks.jsonl", ("embeddings", 0, "file"), None, "embeddings[0].file"),
    ("segments.jsonl", ("embedding", "row"), 2**63, "embedding.row"),
    ("segments.jsonl", ("embedding", "file"), ["speakers.emb"], "embedding.file"),
    ("segments.jsonl", ("segment_id",), {"a": 1}, "segment_id"),
]


def wrong_number(source, path, value):
    """A mutation setting the field at path in the first record of source to value."""

    def change(record):
        for step in path[:-1]:
            record = record[step]
        record[path[-1]] = value

    def mutate(root, ds):
        edit_record(root, source, change)

    mutate.__name__ = f"{'.'.join(map(str, path))}={json.dumps(value)}"
    return mutate


# (mutation, file it breaks, typed error, violation kind or None for a structural fault,
#  and for a structural fault how its message goes on after the file name: line and field)
BAD_MANIFESTS = [
    (no_channel_id, "channels.json", MalformedRecord, None, ":1: missing field 'channel_id'"),
    (bad_timestamp, "videos.json", MalformedRecord, None, ":1: bad record: field 'published_at': "),
    (channels_object, "channels.json", MalformedRecord, None, ":1: top-level value is not an array"),
    (null_start_frame, "tracks.jsonl", MalformedRecord, None, ":1: bad record: field 'start_frame': "),
    (null_embedding_reference, "tracks.jsonl", MalformedRecord, None, ":1: bad record: field 'embeddings[1]': "),
    (non_utf8_byte, "segments.jsonl", MalformedRecord, None, ":2: byte 0xff is not UTF-8"),
    (nan_speaker_confidence, "tracks.jsonl", MalformedRecord, "NonFinite", None),
    (nan_speaker_embedding, "segments.jsonl", MalformedRecord, "NonFinite", None),
    (infinite_end, "segments.jsonl", MalformedRecord, "NonFinite", None),
    (zero_face_row, "tracks.jsonl", MalformedRecord, "ZeroVector", None),
    (line_feed_in_segment_id, "segments.jsonl", MalformedRecord, "LineBreak", None),
    (dangling_segment_video, "segments.jsonl", DanglingReference, "DanglingReference", None),
    *((odd_dimension_row(index), "tracks.jsonl", DimensionMismatch, None,
       ":1: v0000/t0: DimensionMismatch: expected ") for index in (0, 1)),
    (middle_reference(2, "row", -1), "tracks.jsonl", MalformedRecord, None,
     ":1: bad record: field 'embeddings[2].row': -1 out of range for faces.emb"),
    (middle_reference(2, "row", face_row_count), "tracks.jsonl", MalformedRecord, None,
     ":1: bad record: field 'embeddings[2].row': "),
    (middle_reference(3, "frame", 2**63), "tracks.jsonl", MalformedRecord, None,
     ":1: bad record: field 'embeddings[3].frame': expected a 64-bit int, got 9223372036854775808"),
    (middle_reference(2, "file", 7), "tracks.jsonl", MalformedRecord, None,
     ":1: bad record: field 'embeddings[2].file': expected str, got int"),
    (huge_face_header, "faces.emb", MalformedRecord, None, ":0: truncated embedding payload"),
    (bad_speaker_magic, "speakers.emb", MalformedRecord, None, ":0: bad embedding file header"),
    *((wrong_number(source, path, value), source, MalformedRecord, None,
       f":1: bad record: field '{name}': expected ") for source, path, value, name in WRONG_TYPES),
]


@pytest.mark.parametrize(
    "mutate, source, error, kind, detail",
    [pytest.param(*case, id=case[0].__name__) for case in BAD_MANIFESTS],
)
def test_bad_manifest_is_one_typed_error_everywhere(
    tmp_path, capsys, synth_dataset, mutate, source, error, kind, detail
):
    ds = copy.deepcopy(synth_dataset[0])
    root = tmp_path / "data"
    write(ds, root)
    mutate(root, ds)

    with pytest.raises(error) as raised:
        ingest(root)
    assert type(raised.value) is error
    assert str(raised.value).startswith(f"{source}{detail or ':'}")
    if kind is not None:
        assert f": {kind}: " in str(raised.value)
        assert kind in {v.kind for v in validate(ds)}

    for argv in (["validate", root], ["run", root, "--out", tmp_path / "out"]):
        assert cli.main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}:") and err.count("\n") == 1, err
        assert "Traceback" not in err


# --- fuzz ---------------------------------------------------------------------------

MANIFESTS = ("channels.json", "videos.json", "tracks.jsonl", "segments.jsonl")


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    cfg = SynthConfig(
        n_channels=2,
        n_videos=4,
        n_identities=2,
        face_dim=8,
        speaker_dim=6,
        angular_noise_deg=3.0,
        offscreen_speaker_fraction=0.5,
        collaboration_rate=0.5,
        rng_seed=12,
    )
    root = tmp_path_factory.mktemp("small") / "data"
    write(generate(cfg)[0], root)
    return root


def field_paths(value, prefix=()):
    """Paths to every field and list item inside a record."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, prefix + (key,))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_exits_0_or_2(small_manifest, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(small_manifest, root)
        action = data.draw(st.sampled_from(["drop", "set", "truncate", "magic", "object"]))
        if action in ("drop", "set"):
            name = data.draw(st.sampled_from(MANIFESTS))
            records = read_records(root / name)
            if records:
                index = data.draw(st.integers(0, len(records) - 1))
                *parents, key = data.draw(st.sampled_from(list(field_paths(records[index]))))
                target = records[index]
                for step in parents:
                    target = target[step]
                if action == "drop":
                    del target[key]
                else:
                    target[key] = data.draw(st.sampled_from([None, "zzz", math.nan, 1e309, -1]))
                write_records(root / name, records)
        elif action in ("truncate", "magic"):
            path = root / data.draw(st.sampled_from(["faces.emb", "speakers.emb"]))
            raw = path.read_bytes()
            if action == "truncate":
                path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            else:
                path.write_bytes(b"EMB0" + raw[4:])
        else:
            path = root / data.draw(st.sampled_from(["channels.json", "videos.json"]))
            path.write_text(json.dumps({"records": json.loads(path.read_text())}))
        assert cli.main(["validate", str(root)]) in (0, 2)


# --- number types and embedding dimensions ------------------------------------------

def test_float_field_written_as_an_integer_reads_as_a_float(tmp_path, small_manifest):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    segment_id = edit_record(root, "segments.jsonl", lambda r: r.update(start_s=1))["segment_id"]
    ds = ingest(root)
    assert type(ds.segments[segment_id].start_s) is float and ds.segments[segment_id].start_s == 1.0


# --- embedding reference layouts --------------------------------------------------------

def relayout(root: Path, layout: str) -> list:
    """Point every track's references at the same values laid out another way, or for
    "repeated" at repeated rows; returns the track records."""
    faces = read_emb(root / "faces.emb")
    tracks = read_records(root / "tracks.jsonl")
    refs = [ref for record in tracks for ref in record["embeddings"]]
    if layout == "repeated":
        for record in tracks:
            rows = [ref["row"] for ref in record["embeddings"]]
            for i, ref in enumerate(record["embeddings"]):
                ref["row"] = rows[i // 2]
    elif layout == "two_files":
        write_emb(root / "even.emb", faces[0::2])
        write_emb(root / "odd.emb", faces[1::2])
        for ref in refs:
            ref.update(file=("even.emb", "odd.emb")[ref["row"] % 2], row=ref["row"] // 2)
    else:
        position = np.arange(len(faces))
        if layout == "reversed":
            position = position[::-1]
        elif layout == "shuffled":
            position = np.random.default_rng(3).permutation(len(faces))
        moved = np.empty_like(faces)
        moved[position] = faces
        write_emb(root / "faces.emb", moved)
        for ref in refs:
            ref["row"] = int(position[ref["row"]])
    write_records(root / "tracks.jsonl", tracks)
    return tracks


@pytest.mark.parametrize("layout", ["ascending", "reversed", "shuffled", "repeated", "two_files"])
def test_ingest_reads_each_reference_layout_as_the_brute_force_reader_does(tmp_path, small_manifest, layout):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    tracks = relayout(root, layout)
    assert max(len(record["embeddings"]) for record in tracks) > 1
    ds = ingest(root)
    for record in tracks:
        embeddings = ds.tracks[record["track_id"]].embeddings
        assert embeddings.dtype == np.float32 and not embeddings.flags.writeable
        assert np.array_equal(embeddings, oracle_reference_rows(root, record["embeddings"]))
    assert validate(ds) == []
    if layout != "repeated":
        assert ds.digest() == ingest(small_manifest).digest()


@pytest.mark.parametrize("layout", ["ascending", "reversed", "shuffled", "repeated", "two_files"])
def test_a_zero_row_is_found_in_each_reference_layout(tmp_path, small_manifest, layout):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    ref = relayout(root, layout)[0]["embeddings"][-1]
    matrix = read_emb(root / ref["file"])
    matrix[ref["row"]] = 0.0
    write_emb(root / ref["file"], matrix)
    with pytest.raises(MalformedRecord, match="^tracks.jsonl:1: .*: ZeroVector: "):
        ingest(root)


def test_a_track_reading_files_of_two_dimensions_is_a_dimension_mismatch_on_its_line(tmp_path, small_manifest):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    tracks = read_records(root / "tracks.jsonl")
    line, record = next((i, r) for i, r in enumerate(tracks, start=1) if i > 1 and len(r["embeddings"]) > 1)
    record["embeddings"][-1].update(file="speakers.emb", row=0)
    write_records(root / "tracks.jsonl", tracks)
    with pytest.raises(DimensionMismatch) as raised:
        ingest(root)
    assert str(raised.value) == f"tracks.jsonl:{line}: {record['track_id']}: DimensionMismatch: expected 8, got 6"


# --- keys and files that no stage reads -----------------------------------------------

def test_a_corpus_without_pairs_ingests_and_runs(tmp_path, small_manifest):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    (root / "pairs.jsonl").unlink(missing_ok=True)
    assert ingest(root).tracks
    assert cli.main(["run", str(root), "--out", str(tmp_path / "out")]) == 0


def test_unread_keys_and_files_leave_the_digest_alone(tmp_path, small_manifest):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    edit_record(root, "videos.json", lambda r: r.update(duration_s=-5.0))
    edit_record(root, "segments.jsonl", lambda r: r.update(origin="zzz"))
    (root / "pairs.jsonl").write_text('{"track_id": "ghost", "segment_id": "s0", "confidence": "zzz"}\n{not json\n')
    assert ingest(root).digest() == ingest(small_manifest).digest()


def test_ingest_takes_each_dimension_from_the_first_referenced_row(small_manifest):
    ds = ingest(small_manifest)
    assert (ds.face_dim, ds.speaker_dim) == (8, 6)


def test_ingest_of_a_corpus_without_tracks_takes_the_default_face_dimension(tmp_path):
    cfg = SynthConfig(n_channels=2, n_videos=4, n_identities=2, face_dim=8, speaker_dim=6,
                      offscreen_speaker_fraction=1.0, rng_seed=12)
    write(generate(cfg)[0], tmp_path / "voices")
    ds = ingest(tmp_path / "voices")
    assert not ds.tracks and ds.segments
    assert (ds.face_dim, ds.speaker_dim) == (1792, 6)


def test_ingest_of_segments_without_embeddings_takes_the_default_speaker_dimension(tmp_path, small_manifest):
    root = tmp_path / "data"
    shutil.copytree(small_manifest, root)
    segments = read_records(root / "segments.jsonl")
    for record in segments:
        record["embedding"] = None
    write_records(root / "segments.jsonl", segments)
    ds = ingest(root)
    assert ds.tracks and ds.segments
    assert (ds.face_dim, ds.speaker_dim) == (8, 1024)


# --- record codec -------------------------------------------------------------------

def encoded(value) -> str:
    return json.dumps(value, sort_keys=True, default=plain)


EDGE = AssociationEdge(face=10, speaker=2, votes=3)
TRUTH = GroundTruth(
    identity_homes={10: "ch1", 2: "ch0"},
    track_identity={"t1": 10},
    segment_identity={"s1": 2},
    video_identities={"v1": [2, 10]},
    video_hosts={"v1": 2, "v2": None},
    planted_events=[("ch0", "ch1", "v1", 10)],
    offscreen_videos=["v2"],
    planted_growth_ratio=1.34,
)

RECORDS = [
    (AVPair, AVPair("t1", "s1", 0.75)),
    (TrackEntity, TrackEntity("v1/e0", "v1", ("t1", "t1#1"))),
    (RejectedSegment, RejectedSegment("s9", "NoEmbedding")),
    (RejectedSegment, RejectedSegment("s8", "TooShort")),
    (ReconciledSegment, ReconciledSegment("s1", 0, "t1", 0.75)),
    (ReconciledSegment, ReconciledSegment("s2", -1)),
    (TrackEntity, TrackEntity("v2/e0", "v2", ("t2",))),
    (AssociationEdge, EDGE),
    (AssociationGraph, AssociationGraph((2, 10), (2,), (EDGE,))),
    (IdentityComponent, IdentityComponent(0, frozenset({10, 2}), frozenset())),
    (ConflictEntry, ConflictEntry(0, (2, 10), (2,), (EDGE, EDGE))),
    (CollaborationEdge, CollaborationEdge("ch0", "ch1", 10, ("v1", "v2"))),
    (GroundTruth, TRUTH),
    (GroundTruth, dataclasses.replace(TRUTH, planted_growth_ratio=None)),
]


@pytest.mark.parametrize("kind, value", RECORDS, ids=[f"{k.__name__}{i}" for i, (k, _) in enumerate(RECORDS)])
def test_every_record_type_round_trips(kind, value):
    decoded = from_plain(kind, json.loads(encoded(value)))
    assert decoded == value
    assert encoded(decoded) == encoded(value)


def test_codec_writes_sets_sorted_and_keys_as_sorted_strings():
    assert encoded(IdentityComponent(0, frozenset({10, 2}), frozenset())) == (
        '{"face_clusters": [2, 10], "identity_id": 0, "speaker_clusters": []}'
    )
    assert list(json.loads(encoded(TRUTH))["identity_homes"]) == ["10", "2"]
    assert from_plain(GroundTruth, json.loads(encoded(TRUTH))).identity_homes == {10: "ch1", 2: "ch0"}


def test_codec_reads_the_annotated_container_types():
    entity = from_plain(TrackEntity, json.loads(encoded(RECORDS[1][1])))
    assert type(entity.member_track_ids) is tuple
    plain_component = {"identity_id": 0, "face_clusters": [2], "speaker_clusters": []}
    assert type(from_plain(IdentityComponent, plain_component).face_clusters) is frozenset
    truth = from_plain(GroundTruth, json.loads(encoded(TRUTH)))
    assert truth.planted_events == [("ch0", "ch1", "v1", 10)] and type(truth.planted_events[0]) is tuple
    assert truth.video_hosts == {"v1": 2, "v2": None}
    assert from_plain(float | None, 2) == 2.0  # a float may be written as an int


def test_codec_requires_every_field():
    with pytest.raises(KeyError, match="confidence"):
        from_plain(AVPair, {"track_id": "t1", "segment_id": "s1"})
    payload = json.loads(encoded(TRUTH))
    del payload["video_hosts"]
    with pytest.raises(KeyError, match="video_hosts"):
        from_plain(GroundTruth, payload)


@pytest.mark.parametrize("kind, data", [
    (GroundTruth, [1, 2]),
    (AVPair, "t1"),
    (list[AVPair], {"track_id": "t1"}),
    (dict[str, int], [["s1", 0]]),
    (dict[int, str], {"x": "ch0"}),
    (tuple[str, str, str, int], ["ch0", "ch1", "v1"]),
    (tuple[int, ...], "12"),
    (dict[str, int], {"s1": "0"}),
    (AVPair, {"track_id": 1, "segment_id": "s1", "confidence": 0.5}),
    # an int key is read only as plain writes it, so no two keys read as one
    *((dict[int, str], {key: "ch0"}) for key in ("01", " 2", "1_0", "+3", "-0")),
    (dict[int, str], {"1": "ch0", "01": "ch1"}),
])
def test_codec_rejects_a_wrong_shape(kind, data):
    with pytest.raises((TypeError, ValueError)):
        from_plain(kind, data)


def test_plain_refuses_a_value_without_a_json_form():
    with pytest.raises(TypeError):
        encoded(object())


@pytest.mark.parametrize("content", ["[1, 2]", '{"identity_homes": {}}'])
def test_ground_truth_of_a_wrong_shape_is_malformed(tmp_path, content):
    path = tmp_path / "truth.json"
    path.write_text(content)
    with pytest.raises(MalformedRecord, match="truth.json"):
        GroundTruth.load(path)


def test_ground_truth_save_load_round_trip(tmp_path):
    TRUTH.save(tmp_path / "truth.json")
    assert GroundTruth.load(tmp_path / "truth.json") == TRUTH
