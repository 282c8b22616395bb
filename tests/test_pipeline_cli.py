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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import castgraph
from castgraph import catalog, cli, distcluster, pipeline
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


def stage_rows() -> list[tuple[str, pipeline.Stage]]:
    """The stage table's Stage rows, the stages that keep a checkpoint, as (name, row)."""
    return [(name, stage) for name, stage in PipelineRun.STAGES if isinstance(stage, pipeline.Stage)]


def patch_stage_rows(monkeypatch, change) -> None:
    """Replace each Stage row of the stage table by change(row); split and pair stay as they are."""
    stages = tuple((name, change(s) if isinstance(s, pipeline.Stage) else s) for name, s in PipelineRun.STAGES)
    monkeypatch.setattr(PipelineRun, "STAGES", stages)


# --- pipeline ---------------------------------------------------------------------

def test_all_checkpoints_written(small_run):
    # exactly the Stage rows' files and stamps: split and pair write nothing,
    # and vectors live only in the dataset
    _, _, out, _ = small_run
    checkpoints = {name for _, stage in stage_rows() for name in stage.files}
    stamps = {Path(stage.files[0]).stem + ".stamp" for _, stage in stage_rows()}
    assert "graph.dot" in checkpoints and "report.stamp" in stamps and len(stamps) == 7
    assert {p.name for p in out.iterdir()} == checkpoints | stamps | {"report_table.txt"}


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


# SHA-256 of the CFG run's other checkpoint files; with CFG_SHA256 they pin
# every byte the record codec writes
CFG_RECORDS_SHA256 = {
    "03_entities.jsonl": "69828aa799bced0cccd335e8bfa9b93c3f4471e46640327d18d9cd1fed5de988",
    "04_diarization.csv": "4120871966d5d9f35f68d775906c9522458f607b13e482d85c7acfb6bf3dac9d",
    "graph.dot": "aaa250bdfb8e1cfd267fc3e1280042818ae0f181caf3b1470758cafed3385cd4",
}


def test_small_run_checkpoint_bytes_are_golden(small_run):
    _, _, out, _ = small_run
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CFG_RECORDS_SHA256}
    assert digests == CFG_RECORDS_SHA256


# twelve identities: int-keyed maps (creators, identity_homes) reach "10", which
# sorts before "2" as a string but after it as a number
WIDE = replace(CFG, n_channels=12, n_videos=36, n_identities=12, rng_seed=11)
WIDE_SHA256 = {
    "08_graph.json": "ff2f1c14e12a8b74c775b9707c3b80e74f74d95547fc1bae78ce7a410e5e8102",
    "ground_truth.json": "c0c46037491f12d0857e3f5b613e161944153f82b91fbecdee531ba7de9412b4",
}


def test_int_keys_sort_as_strings_in_graph_and_ground_truth(tmp_path):
    ds, truth = generate(WIDE)
    run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    truth.save(tmp_path / "ground_truth.json")
    creators = list(json.loads((tmp_path / "08_graph.json").read_text())["creators"])
    assert creators == sorted(creators) and "10" in creators
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in WIDE_SHA256} == WIDE_SHA256


# the benchmark's duplicate-points corpus shrunk to CFG's size: 0 degrees of
# noise, so every appearance of an identity is the same vector. An identity seen
# in one channel only must still be recovered, which one point per channel
# cluster (its mean, say) breaks: two such points join at min_cluster_size 2
DUPES = dict(
    n_videos=16, n_identities=4, n_channels=4, face_dim=48, speaker_dim=32,
    angular_noise_deg=0.0, offscreen_speaker_fraction=0.5, collaboration_rate=0.3, planted_growth_ratio=1.34,
)


@pytest.mark.parametrize("seed", range(1, 13))
def test_small_duplicate_corpora_are_recovered_exactly(tmp_path, seed):
    ds, truth = generate(SynthConfig(**DUPES, rng_seed=seed))
    catalog.write(ds, tmp_path / "data")
    report = run_pipeline(catalog.ingest(tmp_path / "data"), tmp_path / "out", PipelineConfig(), truth)
    evaluation = report["evaluation"]
    collab = evaluation["collaborations"]
    assert evaluation["face_clustering"]["v_measure"] == 1.0
    assert evaluation["speaker_clustering"]["v_measure"] == 1.0
    assert evaluation["mean_der"] == 0.0
    assert (collab["incorrect"], collab["missed"]) == (0, 0)


RESULTS = (
    "pieces", "piece_sources", "av_pairs", "entities", "diarization", "face_labels", "speaker_labels",
    "association", "identities", "conflicts", "creators", "edges", "report",
)


def test_resumed_run_decodes_what_a_fresh_run_computed(tmp_path, monkeypatch):
    ds, truth = generate(CFG)
    fresh = PipelineRun(ds, tmp_path, PipelineConfig())
    report = fresh.run(truth)

    def recompute(run):
        raise AssertionError("a checkpoint was recomputed")

    patch_stage_rows(monkeypatch, lambda stage: replace(stage, compute=recompute))
    resumed = PipelineRun(ds, tmp_path, PipelineConfig(resume=True))
    # the reused report, read back from report.json, is the dict a fresh run returns
    assert resumed.run(truth) == report
    for attr in RESULTS:
        assert getattr(resumed, attr) == getattr(fresh, attr), attr


def count_decodes(monkeypatch) -> list[str]:
    """The names of the stages whose checkpoints get decoded from now on, in order."""
    decoded = []

    def counted(stage):
        def decode(run, files):
            decoded.append(stage.name)
            stage.decode(run, files)

        return replace(stage, decode=decode)

    patch_stage_rows(monkeypatch, counted)
    return decoded


def test_a_resumed_run_decodes_only_the_checkpoints_it_reads(tmp_path, monkeypatch):
    ds, truth = generate(CFG)
    run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    decoded = count_decodes(monkeypatch)
    resumed = PipelineRun(ds, tmp_path, PipelineConfig(resume=True))
    resumed.run(truth)
    # every stamp matches, so only the report itself is read back
    assert decoded == ["report"]
    assert resumed.diarization["v0002/s0"] == 0
    assert decoded == ["report", "diarize"]
    with pytest.raises(AttributeError, match="no_such_result"):
        resumed.no_such_result  # noqa: B018


def test_each_stage_reads_the_results_of_exactly_its_upstream_stages(tmp_path, monkeypatch):
    # a stamp covers the upstream stages' stamps: a result read from any other
    # stage could be stale on resume, and an upstream stage never read makes
    # the stage recompute for nothing. The ground truth is the pseudo-stage
    # "truth", its stamp the truth's digest
    ds, truth = generate(CFG)
    run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    decoded = count_decodes(monkeypatch)

    class Watched:
        def __getattr__(self, attr):
            decoded.append("truth")
            return getattr(truth, attr)

    for name, stage in stage_rows():
        run = PipelineRun(ds, tmp_path, PipelineConfig(resume=True))
        run.run_until("graph")
        assert not decoded
        run.truth = Watched()
        stage.compute(run)
        assert set(decoded) == set(stage.upstream), name
        decoded.clear()


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


def file_ids(root: Path) -> dict[str, tuple[int, int]]:
    """Each file's inode and mtime: a file rewritten in place or renamed over changes one."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in root.iterdir()}


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


def test_a_changed_conf_threshold_recomputes_only_the_stages_that_read_pairs(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    before = {p.name: p.stat().st_ino for p in out.iterdir()}
    resumed = run_pipeline(ds, out, PipelineConfig(conf_threshold=0.6, resume=True), truth)
    after = {p.name: p.stat().st_ino for p in out.iterdir()}
    stamps = {name: Path(file).stem + ".stamp" for name, file in CHECKPOINTS.items()}
    assert {name for name, stamp in stamps.items() if after[stamp] != before[stamp]} == {"bridge", "graph", "report"}
    assert resumed == run_pipeline(ds, tmp_path / "fresh", PipelineConfig(conf_threshold=0.6), truth)


def test_resume_over_an_older_version_recomputes_once(tmp_path, monkeypatch):
    # 0.1.0 clustered in one global call; its labels are not reused
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    monkeypatch.setattr(pipeline, "__version__", "0.1.0")
    run_pipeline(ds, out, PipelineConfig(), truth)
    monkeypatch.undo()
    old = read_tree(out)
    fresh = run_pipeline(ds, tmp_path / "fresh", PipelineConfig(), truth)
    assert run_pipeline(ds, out, PipelineConfig(resume=True), truth) == fresh
    recomputed = read_tree(out)
    assert recomputed == read_tree(tmp_path / "fresh")
    assert all(recomputed[name] != old[name] for name in old if name.endswith(".stamp"))
    before = file_ids(out)
    run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    assert file_ids(out) == before


def truncate_at_a_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[: text.count("\n") // 2])


@pytest.mark.parametrize(
    "name, damage",
    [
        (CHECKPOINTS["merge"], truncate_at_a_line),
        (CHECKPOINTS["cluster_faces"], lambda text: text.replace(",0\n", ",1\n", 1)),
        (CHECKPOINTS["diarize"], truncate_at_a_line),
        ("04_diarization.stamp", lambda text: "0" * 64 + "\n"),
        ("report.json", lambda text: text.replace('"conflicts": 0', '"conflicts": 1', 1)),
        ("report.stamp", lambda text: "0" * 64 + "\n"),
    ],
    ids=["truncated-at-a-line", "edited-same-length", "diarization-truncated", "diarization-stamp-edited",
         "report-edited", "report-stamp-edited"],
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
        if name[:3] in {"03_", "04_", "05_", "06_"}:
            assert (after[name].st_ino, after[name].st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns), name
        elif name[:3] in {"07_", "08_", "rep"}:
            assert after[name].st_ino != stat.st_ino, name


def test_a_changed_ground_truth_recomputes_only_the_report(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    before = file_ids(out)
    segment_id, identity = next(iter(truth.segment_identity.items()))
    changed = replace(truth, segment_identity={**truth.segment_identity, segment_id: identity + 1})
    resumed = run_pipeline(ds, out, PipelineConfig(resume=True), changed)
    after = file_ids(out)
    assert {name for name in before if after[name] != before[name]} == {
        "report.json", "report.stamp", "report_table.txt"
    }
    fresh = run_pipeline(ds, tmp_path / "fresh", PipelineConfig(), changed)
    assert resumed == fresh
    assert read_tree(out) == read_tree(tmp_path / "fresh")


@pytest.mark.parametrize("resume", [True, False])
def test_the_table_follows_the_report(tmp_path, resume):
    # a report computed without a ground truth leaves no table from an earlier
    # run, and each run's directory ends as a fresh run's would
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    fresh = {}
    for given in (truth, None):
        fresh[given is None] = tmp_path / f"fresh-{given is None}"
        run_pipeline(ds, fresh[given is None], PipelineConfig(), given)
    stamps = []
    for given in (truth, None, truth):
        report = run_pipeline(ds, out, PipelineConfig(resume=resume), given)
        assert ("evaluation" in report) == (out / "report_table.txt").exists() == (given is not None)
        assert read_tree(out) == read_tree(fresh[given is None])
        stamps.append((out / "report.stamp").read_bytes())
    assert stamps[0] != stamps[1] and stamps[2] == stamps[0]


def test_a_reused_report_writes_back_only_a_missing_table(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    table = (out / "report_table.txt").read_bytes()
    (out / "report_table.txt").unlink()
    before = file_ids(out)
    run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    after = file_ids(out)
    assert {name for name in after if after[name] != before.get(name)} == {"report_table.txt"}
    assert (out / "report_table.txt").read_bytes() == table


def test_a_failed_evaluation_is_named_eval(tmp_path):
    ds, truth = generate(CFG)
    segment_id = next(iter(truth.segment_identity))
    partial = replace(truth, segment_identity={k: v for k, v in truth.segment_identity.items() if k != segment_id})
    with pytest.raises(PipelineStageError) as failed:
        run_pipeline(ds, tmp_path, PipelineConfig(), partial)
    assert failed.value.stage == "eval" and isinstance(failed.value.cause, KeyError)
    assert not (tmp_path / "report.json").exists()


def test_resume_in_a_copied_directory_reuses_every_checkpoint(tmp_path):
    ds, truth = generate(CFG)
    first = run_pipeline(ds, tmp_path / "a", PipelineConfig(), truth)
    copy = tmp_path / "b"
    shutil.copytree(tmp_path / "a", copy)
    before = file_ids(copy)
    assert run_pipeline(ds, copy, PipelineConfig(resume=True), truth) == first
    assert file_ids(copy) == before


def test_resume_recomputes_speaker_side_when_diarization_changes(tmp_path):
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    run_pipeline(ds, out, PipelineConfig(), truth)
    # split one diarized speaker into noise segments, with a stamp that matches the edit
    path = out / CHECKPOINTS["diarize"]
    ids, labels = distcluster.labels_from_text(path.read_text())
    videos = [ds.segments[i].video_id for i in ids]
    video = next(v for v in videos if sum(w == v and l == 0 for w, l in zip(videos, labels)) >= 2)
    edited = distcluster.labels_csv(ids, [-1 if w == video else l for w, l in zip(videos, labels)]).encode()
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
    ds, _, out, _ = small_run
    found = {}
    for stage in ("diarize", "cluster_speakers"):
        ids, labels = distcluster.labels_from_text((out / CHECKPOINTS[stage]).read_text())
        found[stage] = dict(zip(ids, labels.tolist()))
    assert set(found["cluster_speakers"]) == set(found["diarize"])
    # a diarization label names a speaker within its segment's video
    speakers: dict[tuple[str, int], set[int]] = {}
    for i, label in found["diarize"].items():
        if label != -1:
            speakers.setdefault((ds.segments[i].video_id, label), set()).add(found["cluster_speakers"][i])
    assert speakers and all(len(global_labels) == 1 for global_labels in speakers.values()), speakers


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
    assert run.diarization == {"a0": 0, "a1": 0, "b0": 1, "b1": 1, "n0": -1, "c0": 0, "c1": 0, "d0": 0}
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
    assert run.diarization == {"a0": 0, "a1": 0, "b0": 0}
    assert run.speaker_labels == {"a0": 0, "a1": 0, "b0": 0}


def test_ids_keep_every_character_but_a_line_feed_through_resume(tmp_path):
    # str.splitlines breaks a line at U+2028 and at a carriage return too, and a
    # resume decodes the label files: such ids must survive it
    e1, e2 = np.eye(4)[:2].tolist()
    ids = ["a\u2028b", "c\rd", " e ", "f,g"]
    data, out = tmp_path / "data", tmp_path / "out"
    catalog.write(voices_dataset({"v\u2028 0": [(ids[0], e1), (ids[1], e1)], "v1": [(ids[2], e1), (ids[3], e2)]}), data)
    assert main(["run", str(data), "--out", str(out)]) == 0
    before = read_tree(out)
    assert main(["run", str(data), "--out", str(out), "--resume"]) == 0
    assert read_tree(out) == before
    for stage in ("diarize", "cluster_speakers"):
        # read_text would turn the carriage return into a line feed
        found, _ = distcluster.labels_from_text((out / CHECKPOINTS[stage]).read_bytes().decode())
        assert sorted(found) == sorted(ids), stage


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


def test_cli_eval_without_ground_truth_is_a_usage_error(tmp_path, tiny_data, capsys):
    # rejected before ingest: eval has nothing to score against
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(tiny_data), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert "--ground-truth" in capsys.readouterr().err


def test_cli_eval_without_usable_view_histories_leaves_growth_out(tmp_path):
    # no collaboration is planted or found, so no channel has a collaboration video to compare
    data, out = tmp_path / "g", tmp_path / "o"
    synth = ["--channels", "3", "--videos", "12", "--identities", "3", "--face-dim", "16",
             "--speaker-dim", "12", "--collab-rate", "0", "--growth-ratio", "1.3", "--seed", "3"]
    assert main(["synth", "--out", str(data), *synth]) == 0
    assert main(["eval", str(data), "--out", str(out), "--ground-truth", str(data / "ground_truth.json")]) == 0
    evaluation = json.loads((out / "report.json").read_text())["evaluation"]
    assert "growth_factor" not in evaluation
    assert evaluation["collaborations"]["collaboration_count"] == 0
    assert "growth" not in (out / "report_table.txt").read_text()


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

    # graph is a partial run too: it stops before the report
    result = run_cli("graph", data, "--out", out, "--resume")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"completed_through": "graph"}
    assert (out / CHECKPOINTS["graph"]).is_file()
    assert not (out / CHECKPOINTS["report"]).exists()

    # and a resumed run then computes only the report
    before = file_ids(out)
    result = run_cli("run", data, "--out", out, "--resume")
    assert result.returncode == 0, result.stderr
    after = file_ids(out)
    assert {name for name in after if after[name] != before.get(name)} == {"report.json", "report.stamp"}


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


@pytest.mark.parametrize("flags, config", [
    ([], PipelineConfig()),
    (["--min-cluster-size", "3", "--min-samples", "2", "--dbscan-eps", "0.4", "--conf-threshold", "0.7",
      "--min-votes", "2", "--min-segment-s", "1.5", "--resume"],
     PipelineConfig(3, 2, 0.4, 0.7, 2, 1.5, True)),
])
def test_cli_flags_build_the_pipeline_config(tmp_path, monkeypatch, flags, config):
    # with no flags, every setting is PipelineConfig's own default
    built = []
    monkeypatch.setattr(cli, "_run_stages", lambda args, config, *rest, **kwargs: built.append(config) or 0)
    assert main(["run", str(tmp_path / "data"), "--out", str(tmp_path / "out"), *flags]) == 0
    assert built == [config]


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
        labels.append(dict(zip(ids, found.tolist())))
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
    # the hash seed differs too: no grouping may depend on set or hash order
    trees = []
    for threads, hash_seed in (("1", "0"), ("2", "1")):
        out = tmp_path / f"blas{threads}"
        run_cfg_in_subprocess(
            cfg_data, out, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed
        )
        trees.append(read_tree(out))
    one, two = trees
    stages = ("cluster_faces", "cluster_speakers", "bridge", "graph")  # 05 to 08
    assert {CHECKPOINTS[stage] for stage in stages} | {"report.json"} <= one.keys()
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
