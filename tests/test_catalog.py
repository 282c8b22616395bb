"""Dataset model, manifest round trips, and validation."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castgraph import cli
from castgraph.bridge import AssociationEdge, AssociationGraph, ConflictEntry, IdentityComponent
from castgraph.catalog import (
    AVPair,
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
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    assert int.from_bytes(raw[4:8], "little") == 12
    assert int.from_bytes(raw[8:16], "little") == 7


def test_emb_bad_header(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(MalformedRecord):
        read_emb(path)


def test_emb_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        read_emb(tmp_path / "absent.emb")


# --- ingest / write ----------------------------------------------------------------

def test_ingest_write_round_trip(tmp_path, synth_dataset):
    ds, _ = synth_dataset
    write(ds, tmp_path / "d")
    loaded = ingest(tmp_path / "d")
    assert loaded == ds


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
                    "duration_s": 10.0,
                }
            ]
        )
    )
    (root / "tracks.jsonl").write_text("")
    (root / "segments.jsonl").write_text("")
    (root / "pairs.jsonl").write_text("")
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
        video.video_id, video.channel_id, video.published_at, video.duration_s, broken
    )
    violations = validate(ds)
    ds.videos[video_id] = video
    assert any(v.record_id == video_id and v.kind == "ViewHistoryOrder" for v in violations)


def test_validate_cross_video_pair(synth_dataset):
    ds, _ = synth_dataset
    pair = ds.pairs[0]
    other_video = next(
        s for s in ds.segments.values() if s.video_id != ds.tracks[pair.track_id].video_id
    )
    ds.pairs.append(pair.__class__(pair.track_id, other_video.segment_id, 1.0))
    violations = validate(ds)
    ds.pairs.pop()
    assert any(v.kind == "CrossVideoPair" for v in violations)


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


def no_duration(root, ds):
    edit_record(root, "videos.json", lambda r: r.pop("duration_s"))


def bad_timestamp(root, ds):
    edit_record(root, "videos.json", lambda r: r.update(published_at="yesterday"))


def channels_object(root, ds):
    records = json.loads((root / "channels.json").read_text())
    (root / "channels.json").write_text(json.dumps({"channels": records}))


def negative_duration(root, ds):
    video_id = edit_record(root, "videos.json", lambda r: r.update(duration_s=-5.0))["video_id"]
    ds.videos[video_id] = dataclasses.replace(ds.videos[video_id], duration_s=-5.0)


def bad_origin(root, ds):
    segment_id = edit_record(root, "segments.jsonl", lambda r: r.update(origin="zzz"))["segment_id"]
    ds.segments[segment_id].origin = "zzz"


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


# a number field of another JSON type, as (file, path to the field, value, field name in the message):
# an integer field takes a JSON integer, a float field any JSON number, and a bool is neither
WRONG_NUMBERS = [
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
    ("videos.json", ("duration_s",), True, "duration_s"),
    ("videos.json", ("duration_s",), "60", "duration_s"),
    ("segments.jsonl", ("start_s",), True, "start_s"),
    ("segments.jsonl", ("end_s",), "2.24", "end_s"),
    ("pairs.jsonl", ("confidence",), False, "confidence"),
    ("pairs.jsonl", ("confidence",), "1.0", "confidence"),
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
    (no_duration, "videos.json", MalformedRecord, None, ":1: missing field 'duration_s'"),
    (bad_timestamp, "videos.json", MalformedRecord, None, ":1: bad record: field 'published_at': "),
    (channels_object, "channels.json", MalformedRecord, None, ":1: top-level value is not an array"),
    (null_start_frame, "tracks.jsonl", MalformedRecord, None, ":1: bad record: field 'start_frame': "),
    (null_embedding_reference, "tracks.jsonl", MalformedRecord, None, ":1: bad record: field 'embeddings[1]': "),
    (non_utf8_byte, "segments.jsonl", MalformedRecord, None, ":2: byte 0xff is not UTF-8"),
    (negative_duration, "videos.json", MalformedRecord, "NegativeDuration", None),
    (bad_origin, "segments.jsonl", MalformedRecord, "BadOrigin", None),
    (nan_speaker_confidence, "tracks.jsonl", MalformedRecord, "NonFinite", None),
    (nan_speaker_embedding, "segments.jsonl", MalformedRecord, "NonFinite", None),
    (infinite_end, "segments.jsonl", MalformedRecord, "NonFinite", None),
    (zero_face_row, "tracks.jsonl", MalformedRecord, "ZeroVector", None),
    (line_feed_in_segment_id, "segments.jsonl", MalformedRecord, "LineBreak", None),
    (dangling_segment_video, "segments.jsonl", DanglingReference, "DanglingReference", None),
    *((odd_dimension_row(index), "tracks.jsonl", DimensionMismatch, None,
       ":1: v0000/t0: DimensionMismatch: expected ") for index in (0, 1)),
    *((wrong_number(source, path, value), source, MalformedRecord, None,
       f":1: bad record: field '{name}': expected ") for source, path, value, name in WRONG_NUMBERS),
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

MANIFESTS = ("channels.json", "videos.json", "tracks.jsonl", "segments.jsonl", "pairs.jsonl")


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
    video_id = edit_record(root, "videos.json", lambda r: r.update(duration_s=60))["video_id"]
    segment_id = edit_record(root, "segments.jsonl", lambda r: r.update(start_s=1))["segment_id"]
    ds = ingest(root)
    assert type(ds.videos[video_id].duration_s) is float and ds.videos[video_id].duration_s == 60.0
    assert type(ds.segments[segment_id].start_s) is float and ds.segments[segment_id].start_s == 1.0


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
