"""End-to-end pipeline runs, checkpoint resume, and the CLI surface."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import castgraph
from castgraph import catalog, distcluster, pipeline
from castgraph.cli import main
from castgraph.diarize import filter_segments
from castgraph.errors import PipelineStageError
from castgraph.pipeline import CHECKPOINTS, PipelineConfig, PipelineRun, run_pipeline
from castgraph.synth import SynthConfig, generate

CFG = SynthConfig(
    n_channels=4,
    n_videos=16,
    n_identities=4,
    face_dim=48,
    speaker_dim=32,
    angular_noise_deg=5.0,
    offscreen_speaker_fraction=0.5,
    collaboration_rate=0.25,
    planted_growth_ratio=1.34,
    rng_seed=3,
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    ds, truth = generate(CFG)
    out = tmp_path_factory.mktemp("run")
    report = run_pipeline(ds, out, PipelineConfig(), truth)
    return ds, truth, out, report


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# --- pipeline ---------------------------------------------------------------------

def test_all_checkpoints_written(small_run):
    _, _, out, _ = small_run
    for name in CHECKPOINTS.values():
        assert (out / name).is_file(), name
    assert (out / "report.json").is_file()
    assert (out / "graph.dot").is_file()
    # vectors live only in the dataset; no checkpoint holds any
    assert not list(out.glob("*.emb"))


def test_small_run_recovers_planted_graph(small_run):
    _, truth, _, report = small_run
    collab = report["evaluation"]["collaborations"]
    assert collab["correct"] == len(truth.planted_events)
    assert collab["incorrect"] == 0
    assert report["evaluation"]["growth_factor"] == pytest.approx(1.34, abs=1e-6)


# SHA-256 of the CFG run's 05 to 08 and report.json. Labels are integers and
# the report's floats come from pure Python, so they do not depend on the BLAS build
CFG_SHA256 = {
    "05_face_labels.csv": "ab5530274ec8911ce965f8aa0ada1c4d07bf495835820bfdf8d6f388cb124a69",
    "06_speaker_labels.csv": "c65582caffb8f04c9c1bd253c11dd63fe4528a7a06e82042c56429f320d85bc1",
    "07_identities.json": "10940a1794df4dcb4077a3111e5ab8e066c0baacf538ff1458ec84f470095531",
    "08_graph.json": "40ddf57fb0afe20d96696e201b21a3593416448b0d8b489bdd0289c5d8f0f45e",
    "report.json": "a9dbee71ecdec8c83e70dce68c3e8fcc63a70f4a5af2bc1fbb32ba81c7be89d6",
}


def test_small_run_output_bytes_are_golden(small_run):
    _, _, out, _ = small_run
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CFG_SHA256} == CFG_SHA256


def test_report_matches_file(small_run):
    _, _, out, report = small_run
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))


def stacks_needed(sizes) -> int:
    """distance_matrix calls for these group sizes: one per size and stack of at most BLOCK points."""
    return sum(-(-count // max(1, distcluster.BLOCK // n)) for n, count in Counter(sizes).items() if n > 0)


def test_merge_and_diarize_stack_their_videos(tmp_path, monkeypatch):
    calls = []
    real = distcluster.distance_matrix

    def counting(points):
        calls.append(np.shape(points))
        return real(points)

    monkeypatch.setattr(distcluster, "distance_matrix", counting)
    ds, _ = generate(CFG)
    run = PipelineRun(ds, tmp_path, PipelineConfig())
    run.run_until("pair")
    stages = dict(PipelineRun.STAGES)
    pieces = Counter(piece.video_id for piece in run.pieces).values()
    segments = [len(filter_segments(s)[0]) for s in run.segments_by_video.values()]
    for stage, sizes in (("merge", pieces), ("diarize", segments)):
        calls.clear()
        stages[stage](run)
        # a call per video would be one per video with a point
        assert len(calls) == stacks_needed(sizes) < sum(n > 0 for n in sizes), stage
        assert all(len(shape) == 3 for shape in calls), stage


def test_resume_reproduces_report(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    first = run_pipeline(ds, out, PipelineConfig(), truth)
    before = read_tree(out)
    second = run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    assert first == second
    assert read_tree(out) == before


def test_resume_from_partial_checkpoints(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "partial"
    run = PipelineRun(ds, out, PipelineConfig())
    run.run_until("merge")
    # later stages missing; a resumed run must finish and agree with a clean one
    resumed = run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    clean = run_pipeline(ds, tmp_path / "clean", PipelineConfig(), truth)
    assert resumed == clean


def test_resume_with_changed_config_recomputes(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(conf_threshold=0.5), truth)
    resumed = run_pipeline(ds, out, PipelineConfig(conf_threshold=1.5, resume=True), truth)
    fresh = run_pipeline(ds, tmp_path / "fresh", PipelineConfig(conf_threshold=1.5), truth)
    assert fresh["av_pairs"] == 0
    assert resumed == fresh
    assert read_tree(out) == read_tree(tmp_path / "fresh")


def truncate_at_a_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[: text.count("\n") // 2])


@pytest.mark.parametrize(
    "name, damage",
    [
        (CHECKPOINTS["merge"], truncate_at_a_line),
        (CHECKPOINTS["cluster_faces"], lambda text: text.replace(",0\n", ",1\n", 1)),
        (CHECKPOINTS["diarize"], truncate_at_a_line),
        ("04_diarization.stamp", lambda text: "0" * 64 + "\n"),
    ],
    ids=["truncated-at-a-line", "edited-same-length", "diarization-truncated", "diarization-stamp-edited"],
)
def test_resume_over_damaged_checkpoint_recomputes(tmp_path, name, damage):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    fresh = run_pipeline(ds, out, PipelineConfig(), truth)
    before = read_tree(out)
    path = out / name
    damaged = damage(path.read_text())
    assert damaged != path.read_text()
    path.write_text(damaged)
    assert run_pipeline(ds, out, PipelineConfig(resume=True), truth) == fresh
    assert read_tree(out) == before


def test_resume_reuses_only_checkpoints_whose_inputs_match(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(min_votes=1), truth)
    before = {p.name: p.stat() for p in out.iterdir()}
    run_pipeline(ds, out, PipelineConfig(min_votes=2, resume=True), truth)
    after = {p.name: p.stat() for p in out.iterdir()}
    assert before.keys() == after.keys()
    for name, stat in before.items():
        if name[:3] in {"01_", "02_", "03_", "04_", "05_", "06_"}:
            assert (after[name].st_ino, after[name].st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns), name
        elif name[:3] in {"07_", "08_"}:
            assert after[name].st_ino != stat.st_ino, name


def test_resume_in_a_copied_directory_reuses_every_checkpoint(tmp_path):
    ds, truth = generate(CFG)
    first = run_pipeline(ds, tmp_path / "a", PipelineConfig(), truth)
    copy = tmp_path / "b"
    shutil.copytree(tmp_path / "a", copy)
    before = {p.name: p.stat().st_ino for p in copy.iterdir()}
    assert run_pipeline(ds, copy, PipelineConfig(resume=True), truth) == first
    after = {p.name: p.stat().st_ino for p in copy.iterdir()}
    assert {n for n in before if after[n] != before[n]} == {"report.json", "report_table.txt"}


def test_resume_recomputes_speaker_side_when_diarization_changes(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    # split one diarized speaker into noise segments, with a stamp that matches the edit
    path = out / CHECKPOINTS["diarize"]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    row = next(r for r in rows if sum(l == 0 for l in r["labels"].values()) >= 2)
    row["labels"] = {i: -1 if l == 0 else l for i, l in row["labels"].items()}
    edited = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode()
    run = PipelineRun(ds, out, PipelineConfig(resume=True))
    run.run_until("pair")
    diarize = dict(PipelineRun.STAGES)["diarize"]
    path.write_bytes(edited)
    (out / "04_diarization.stamp").write_bytes(run.stamp(diarize, {path.name: edited}))
    before = {p.name: p.stat().st_ino for p in out.iterdir()}
    run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    after = {p.name: p.stat().st_ino for p in out.iterdir()}
    rewritten = {name[:3] for name in before if after[name] != before[name] and name[:2].isdigit()}
    assert rewritten == {"06_", "07_", "08_"}


# --- the speaker side: diarized speakers in, one global label per segment ------------

def test_every_segment_of_a_diarized_speaker_shares_its_global_label(small_run):
    _, _, out, _ = small_run
    ids, labels = distcluster.labels_from_text((out / CHECKPOINTS["cluster_speakers"]).read_text())
    speaker_labels = dict(zip(ids, labels.labels.tolist()))
    rows = [json.loads(line) for line in (out / CHECKPOINTS["diarize"]).read_text().splitlines()]
    assert set(speaker_labels) == {i for row in rows for i in row["labels"]}
    speakers = 0
    for row in rows:
        for label in set(row["labels"].values()) - {-1}:
            members = [i for i, l in row["labels"].items() if l == label]
            assert len({speaker_labels[i] for i in members}) == 1, (row["video_id"], label)
            speakers += 1
    assert speakers > 0


def voices_dataset(videos) -> catalog.Dataset:
    """No faces; one video per entry of videos, a 2 s segment per (segment id, voice row)."""
    ds = catalog.Dataset(face_dim=4, speaker_dim=4)
    ds.channels["c0"] = catalog.Channel("c0", "Channel 0")
    for video_id, voices in videos.items():
        ds.videos[video_id] = catalog.Video(video_id, "c0", datetime(2018, 1, 1, tzinfo=timezone.utc), 60.0)
        for k, (segment_id, voice) in enumerate(voices):
            embedding = np.asarray(voice, dtype=np.float32)
            ds.segments[segment_id] = catalog.SpeechSegment(
                segment_id, video_id, 3.0 * k, 3.0 * k + 2.0, "vad", embedding
            )
    return ds


def test_speakers_left_as_global_noise(tmp_path):
    e1, e2, e3, e4 = np.eye(4).tolist()
    ds = voices_dataset({
        "v0": [("a0", e1), ("a1", e1), ("b0", e2), ("b1", e2), ("n0", e3)],
        "v1": [("c0", e4), ("c1", e4)],
        "v2": [("d0", e4)],
    })
    # below 2 * min_cluster_size points no hierarchy is built, so every set here,
    # the global one of 5 points included, goes to the fixed-eps fallback
    run = PipelineRun(ds, tmp_path, PipelineConfig(min_cluster_size=3))
    run.run_until("cluster_speakers")
    # diarization: v0 has speakers a and b and one noise segment, v1 and v2 one speaker each
    assert {v: row["labels"] for v, row in run.diarization.items()} == {
        "v0": {"a0": 0, "a1": 0, "b0": 1, "b1": 1, "n0": -1},
        "v1": {"c0": 0, "c1": 0},
        "v2": {"d0": 0},
    }
    # the global pass joins only c and d; a and b, each of two segments, take
    # fresh labels after that cluster in point order; the noise segment stays -1
    assert run.speaker_labels == {"a0": 1, "a1": 1, "b0": 2, "b1": 2, "c0": 0, "c1": 0, "d0": 0, "n0": -1}


def test_a_speaker_of_opposite_voices_is_clustered_by_segment(tmp_path):
    # at eps 2.5 diarization joins antipodal voices into one speaker with a
    # zero mean; its segments become separate points and the run finishes
    e1, e2 = np.eye(4)[:2].tolist()
    ds = voices_dataset({"v0": [("a0", e1), ("a1", [-x for x in e1])], "v1": [("b0", e2)]})
    run = PipelineRun(ds, tmp_path, PipelineConfig(dbscan_eps=2.5))
    run.run_until("cluster_speakers")
    assert run.diarization["v0"]["labels"] == {"a0": 0, "a1": 0}
    assert run.speaker_labels == {"a0": 0, "a1": 0, "b0": 0}


def test_writes_are_atomic_and_leave_no_temporary_files(tmp_path, monkeypatch):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    assert not list(out.glob("*.tmp"))
    before = read_tree(out)

    def replace_fails(src, dst):
        raise OSError("no space left on device")

    # a write that fails midway must leave the previous file whole
    monkeypatch.setattr(pipeline.os, "replace", replace_fails)
    with pytest.raises(PipelineStageError):
        run_pipeline(ds, out, PipelineConfig(min_votes=2), truth)
    monkeypatch.undo()
    assert read_tree(out) == before
    assert not list(out.glob("*.tmp"))


def test_a_computed_stage_removes_its_stale_checkpoint_files(tmp_path):
    # an older version wrote a 03_entities.emb sidecar; nothing names it now
    ds, truth = generate(CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "03_entities.emb").write_bytes(b"vectors")
    (out / "03_entities_notes.txt").write_bytes(b"kept")
    run_pipeline(ds, out, PipelineConfig(), truth)
    assert not (out / "03_entities.emb").exists()
    assert (out / "03_entities_notes.txt").read_bytes() == b"kept"
    assert sorted(p.name for p in out.glob("03_entities.*")) == ["03_entities.jsonl", "03_entities.stamp"]


def test_each_piece_representative_is_computed_once_per_run(tmp_path, monkeypatch):
    ds, truth = generate(CFG)
    calls = Counter()
    representative = pipeline.representative_embedding

    def counted(piece):
        calls[piece.track_id] += 1
        return representative(piece)

    monkeypatch.setattr(pipeline, "representative_embedding", counted)
    monkeypatch.setattr(castgraph.tracks, "representative_embedding", counted)
    run = PipelineRun(ds, tmp_path, PipelineConfig())
    run.run(truth)
    assert len(calls) == len(run.pieces) and set(calls.values()) == {1}
    # resumed with merge decoded: only cluster_faces computes them
    calls.clear()
    (tmp_path / CHECKPOINTS["cluster_faces"]).unlink()
    PipelineRun(ds, tmp_path, PipelineConfig(resume=True)).run(truth)
    assert len(calls) == len(run.pieces) and set(calls.values()) == {1}


def test_unknown_stage_is_rejected_before_any_work(tmp_path):
    ds, _ = generate(CFG)
    with pytest.raises(ValueError):
        PipelineRun(ds, tmp_path, PipelineConfig()).run_until("no_such_stage")
    assert not list(tmp_path.iterdir())

# --- cli --------------------------------------------------------------------------

def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "castgraph.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_synth_validate_run_eval(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    synth = run_cli(
        "synth", "--out", data, "--channels", 3, "--videos", 9, "--identities", 3,
        "--face-dim", 32, "--speaker-dim", 24, "--noise-deg", 4.0,
        "--offscreen-fraction", 0.4, "--collab-rate", 0.3, "--seed", 11,
    )
    assert synth.returncode == 0, synth.stderr

    check = run_cli("validate", data)
    assert check.returncode == 0, check.stdout + check.stderr

    result = run_cli(
        "run", data, "--out", out, "--ground-truth", data / "ground_truth.json"
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["evaluation"]["collaborations"]["incorrect"] == 0
    assert (out / "graph.dot").read_text().startswith("digraph")

    dot = run_cli("export-dot", data, "--out", out)
    assert dot.returncode == 0
    assert dot.stdout.startswith("digraph")


def test_cli_missing_manifest_exits_2(tmp_path):
    result = run_cli("run", tmp_path / "absent", "--out", tmp_path / "o")
    assert result.returncode == 2
    assert "missing" in result.stderr.lower()


def test_cli_rerun_with_resume_identical(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    run_cli(
        "synth", "--out", data, "--channels", 3, "--videos", 9, "--identities", 3,
        "--face-dim", 32, "--speaker-dim", 24, "--noise-deg", 2.0, "--seed", 4,
    )
    first = run_cli("run", data, "--out", out)
    assert first.returncode == 0, first.stderr
    before = read_tree(out)
    second = run_cli("run", data, "--out", out, "--resume")
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert read_tree(out) == before


def test_cli_partial_stage_commands(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    run_cli(
        "synth", "--out", data, "--channels", 2, "--videos", 6, "--identities", 2,
        "--face-dim", 24, "--speaker-dim", 16, "--noise-deg", 3.0, "--seed", 6,
    )
    result = run_cli("diarize", data, "--out", out)
    assert result.returncode == 0, result.stderr
    assert (out / CHECKPOINTS["diarize"]).is_file()
    assert not (out / CHECKPOINTS["bridge"]).exists()

    result = run_cli("bridge", data, "--out", out, "--resume")
    assert result.returncode == 0, result.stderr
    assert (out / CHECKPOINTS["bridge"]).is_file()


def test_cli_validate_rejects_malformed_manifest(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--out", data, "--channels", 2, "--videos", 4, "--identities", 2,
        "--face-dim", 16, "--speaker-dim", 12, "--seed", 8,
    )
    # break one segment record: start after end is rejected at ingest time
    lines = (data / "segments.jsonl").read_text().strip().splitlines()
    record = json.loads(lines[0])
    record["start_s"], record["end_s"] = 9.0, 1.0
    lines[0] = json.dumps(record)
    (data / "segments.jsonl").write_text("\n".join(lines) + "\n")
    result = run_cli("validate", data)
    assert result.returncode == 2


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny") / "data"
    synth = run_cli(
        "synth", "--out", data, "--channels", 2, "--videos", 4, "--identities", 2,
        "--face-dim", 16, "--speaker-dim", 12, "--seed", 9,
    )
    assert synth.returncode == 0, synth.stderr
    return data


BAD_JSON_FILES = {
    "missing": None,
    "not_json": b"{not json",
    "wrong_shape": b"[1, 2]",
    "not_utf8": b'[\n"\xff"]',
}


@pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES.keys())
def test_cli_bad_ground_truth_exits_2(tmp_path, tiny_data, content):
    truth = tmp_path / "truth.json"
    if content is not None:
        truth.write_bytes(content)
    result = run_cli("run", tiny_data, "--out", tmp_path / "out", "--ground-truth", truth)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "truth.json" in result.stderr
    if content == BAD_JSON_FILES["not_utf8"]:
        assert "truth.json:2: byte 0xff is not UTF-8" in result.stderr


@pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES.keys())
def test_cli_export_dot_bad_graph_exits_2(tmp_path, tiny_data, content):
    out = tmp_path / "out"
    out.mkdir()
    if content is not None:
        (out / CHECKPOINTS["graph"]).write_bytes(content)
    result = run_cli("export-dot", tiny_data, "--out", out)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert CHECKPOINTS["graph"] in result.stderr


def test_cli_threads_option_is_a_usage_error(tmp_path, tiny_data):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tiny_data), "--out", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--min-cluster-size", "1"),
    ("--min-samples", "0"),
    ("--dbscan-eps", "-1"),
    ("--min-votes", "0"),
    ("--dbscan-eps", "nan"),
    ("--min-segment-s", "nan"),
    ("--conf-threshold", "nan"),
])
def test_cli_bad_setting_is_a_usage_error(tmp_path, tiny_data, capsys, flag, value):
    # rejected before ingest, so no stage runs and --out is never created
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tiny_data), "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


# --- degenerate inputs through cli.main: one policy per row -------------------------

def one_video_dataset(faces, voices) -> catalog.Dataset:
    """One channel and one video: a 30-frame face track per face row, a 2 s segment per voice row."""
    ds = catalog.Dataset(face_dim=4, speaker_dim=3)
    ds.channels["c0"] = catalog.Channel("c0", "Channel 0")
    ds.videos["v0"] = catalog.Video("v0", "c0", datetime(2018, 1, 1, tzinfo=timezone.utc), 60.0)
    for k, face in enumerate(faces):
        embedding = np.asarray([face], dtype=np.float32)
        ds.tracks[f"t{k}"] = catalog.FaceTrack(f"t{k}", "v0", 100 * k, 100 * k + 29, embedding, (100 * k,), 1.0)
    for k, voice in enumerate(voices):
        embedding = np.asarray(voice, dtype=np.float32)
        ds.segments[f"s{k}"] = catalog.SpeechSegment(f"s{k}", "v0", 3.0 * k, 3.0 * k + 2.0, "vad", embedding)
    return ds


# (id, face rows, voice rows, run options, exit code,
#  05 face labels and 06 speaker labels, or what stderr holds)
DEGENERATE_RUNS = [
    ("single_track_and_segment", [[1, 0, 0, 0]], [[1, 0, 0]], [], 0, ({"v0/e0": 0}, {"s0": 0})),
    ("identical_voices", [[1, 0, 0, 0]], [[0.3, 0.4, 1.2]] * 5, [], 0,
     ({"v0/e0": 0}, {f"s{k}": 0 for k in range(5)})),
    ("no_face_tracks", [], [[1, 0, 0]] * 2 + [[0, 1, 0]] * 2, [], 0,
     ({}, {"s0": 0, "s1": 0, "s2": 1, "s3": 1})),
    ("zero_voice_row", [[1, 0, 0, 0]], [[0, 0, 0], [1, 0, 0]], [], 2, ": ZeroVector: "),
    ("nan_face_row", [[1, 0, 0, 0], [np.nan, 0, 0, 0]], [[1, 0, 0]], [], 2, ": NonFinite: "),
    # merging joins antipodal faces into one entity with no direction; unlike
    # a speaker of opposite voices (split into its segments), the run fails
    ("antipodal_faces_one_entity", [[1, 0, 0, 0], [-1, 0, 0, 0]], [[1, 0, 0]], ["--dbscan-eps", "2.5"], 1,
     "error: stage 'cluster_faces' failed: cannot normalize a zero or non-finite vector\n"),
]


@pytest.mark.parametrize(
    "faces, voices, options, code, expected", [pytest.param(*row[1:], id=row[0]) for row in DEGENERATE_RUNS]
)
def test_cli_degenerate_inputs(tmp_path, capsys, faces, voices, options, code, expected):
    data, out = tmp_path / "data", tmp_path / "out"
    catalog.write(one_video_dataset(faces, voices), data)
    assert main(["run", str(data), "--out", str(out), *options]) == code
    if code:
        assert expected in capsys.readouterr().err
        return
    labels = []
    for stage in ("cluster_faces", "cluster_speakers"):
        ids, found = distcluster.labels_from_text((out / CHECKPOINTS[stage]).read_text())
        labels.append(dict(zip(ids, found.labels.tolist())))
    assert tuple(labels) == expected


# --- distance files: the I/O failure policy ----------------------------------------

def open_descriptors() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_distance_file_write_fails_its_stage_cleanly(tmp_path, capsys, monkeypatch):
    # 300 one-segment videos: the global speaker call has more than BLOCK
    # points, so its distances go to a file
    rng = np.random.default_rng(4)
    voices = rng.standard_normal((300, 4))
    data = tmp_path / "data"
    catalog.write(voices_dataset({f"v{k}": [(f"s{k}", voice)] for k, voice in enumerate(voices)}), data)
    assert len(voices) > distcluster.BLOCK

    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    before = open_descriptors()
    monkeypatch.setattr(distcluster.os, "pwrite", no_space)
    with pytest.raises(OSError) as failed:
        distcluster.distance_matrix([voices])
    # closed by distance_matrix itself: the traceback still holds its frame
    assert failed.value.errno == errno.ENOSPC and open_descriptors() == before
    assert main(["run", str(data), "--out", str(tmp_path / "full")]) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err == f"error: stage 'cluster_speakers' failed: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    names = {p.name for p in (tmp_path / "full").iterdir()}
    assert not {n for n in names if n.endswith(".tmp") or n.startswith("06_speaker_labels")}
    assert "05_face_labels.csv" in names
    assert open_descriptors() == before

    assert main(["run", str(data), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "06_speaker_labels.csv").is_file()
    assert open_descriptors() == before


# --- the CFG corpus through the CLI in a fresh interpreter ---------------------------

# runs `castgraph <argv>` in-process, then prints which scipy modules got loaded
CLI_IN_PROCESS = """
import json, sys
import castgraph
from castgraph.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.fixture(scope="module")
def cfg_data(tmp_path_factory):
    ds, truth = generate(CFG)
    data = tmp_path_factory.mktemp("cfg") / "data"
    data.mkdir()
    catalog.write(ds, data)
    truth.save(data / "ground_truth.json")
    return data


def run_cfg_in_subprocess(data: Path, out: Path, **env) -> dict:
    src = str(Path(castgraph.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", CLI_IN_PROCESS, "run", data, "--out", out,
         "--ground-truth", data / "ground_truth.json"],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    status = json.loads(result.stdout.splitlines()[-1])
    assert status["code"] == 0
    return status


def test_cli_run_never_imports_scipy(tmp_path, cfg_data):
    status = run_cfg_in_subprocess(cfg_data, tmp_path / "out")
    assert (tmp_path / "out" / "report.json").is_file()
    assert status["scipy"] == []


def test_blas_thread_count_invisible_in_bytes(tmp_path, cfg_data):
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        run_cfg_in_subprocess(cfg_data, out, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        trees.append(read_tree(out))
    one, two = trees
    stages = ("cluster_faces", "cluster_speakers", "bridge", "graph")  # 05 to 08
    assert {CHECKPOINTS[stage] for stage in stages} | {"report.json"} <= one.keys()
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
