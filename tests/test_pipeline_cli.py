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
from hypothesis import given, settings
from hypothesis import strategies as st

import castgraph
from castgraph import catalog, cli, distcluster, metrics, pipeline
from castgraph.cli import main
from castgraph.diarize import filter_segments
from castgraph.errors import InfeasibleConfig, PipelineStageError
from castgraph.pipeline import CHECKPOINTS, PipelineConfig, PipelineRun, run_pipeline
from castgraph.synth import SynthConfig, corrupt, generate

from oracles import record_fields

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
    # vectors live only in the dataset, and the report owns report_table.txt
    _, _, out, _ = small_run
    checkpoints = {name for _, stage in stage_rows() for name in stage.files}
    stamps = {Path(stage.files[0]).stem + ".stamp" for _, stage in stage_rows()}
    assert "graph.dot" in checkpoints and "report.stamp" in stamps and len(stamps) == 7
    assert {p.name for p in out.iterdir()} == checkpoints | stamps


def test_small_run_recovers_planted_graph(small_run):
    _, truth, _, report = small_run
    collab = report["evaluation"]["collaborations"]
    assert collab["correct"] == len(truth.planted_events)
    assert collab["incorrect"] == 0
    assert report["evaluation"]["growth_factor"] == pytest.approx(1.34, abs=1e-6)


# SHA-256 of the CFG run's 05 to 08 and report.json. Labels are integers and
# the report's floats come from pure Python and elementwise numpy, which makes
# no BLAS call, so they do not depend on the BLAS build
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


# Dataset.digest() of the CFG corpus, which every stamp of the CFG run holds;
# write and ingest keep it, since generate's records come in id order
CFG_DIGEST = "d65a19be27e7aac21032bc9b32874eb2486d6c1c2e75918b53904ceacd004f7a"


def test_cfg_dataset_digest_is_golden(tmp_path):
    ds, _ = generate(CFG)
    catalog.write(ds, tmp_path / "data")
    assert (ds.digest(), catalog.ingest(tmp_path / "data").digest()) == (CFG_DIGEST, CFG_DIGEST)


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


# CFG's DER is 0.0, so a corpus that scores speakers imperfectly pins the DER's
# bits: 60 degrees of noise, and a tenth of the embeddings dropped
NOISY = replace(
    CFG, n_channels=6, n_videos=96, n_identities=12, angular_noise_deg=60.0, collaboration_rate=0.3, rng_seed=7
)
NOISY_MEAN_DER = "0x1.c3af23e88e32dp-4"
NOISY_REPORT_SHA256 = "e2129d24dece52fb7d9d26458a21cdf59c5630f134b88d2e6598689036830fa8"


def noisy_corpus():
    ds, truth = generate(NOISY)
    return corrupt(ds, 0.1, 0.2, seed=7), truth


def test_noisy_run_pins_the_der_bits_on_both_mapping_paths(tmp_path, monkeypatch):
    tables, assignments = [], []
    real_ders, real_assignment = metrics.video_ders, metrics.linear_sum_assignment
    monkeypatch.setattr(metrics, "video_ders", lambda *table: tables.append(table) or real_ders(*table))
    monkeypatch.setattr(metrics, "linear_sum_assignment", lambda cost: assignments.append(cost) or real_assignment(cost))
    ds, truth = noisy_corpus()
    report = run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    assert report["evaluation"]["mean_der"].hex() == NOISY_MEAN_DER
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == NOISY_REPORT_SHA256
    # the fewer of each video's reference and hypothesis speakers
    [(video, _, _, reference, hypothesis)] = tables
    narrow = [
        min(len(set(reference[video == v]) - {-1}), len(set(hypothesis[video == v]) - {-1}))
        for v in range(video.max() + 1)
    ]
    assert narrow.count(1) > 0
    assert len(assignments) == sum(n > 1 for n in narrow) > 0


# every file a run writes but the stamps
OUTPUTS = [
    "03_entities.jsonl", "04_diarization.csv", "05_face_labels.csv", "06_speaker_labels.csv",
    "07_identities.json", "08_graph.json", "graph.dot", "report.json", "report_table.txt",
]


@pytest.fixture(scope="module")
def noisy_outputs(tmp_path_factory):
    ds, truth = noisy_corpus()
    root = tmp_path_factory.mktemp("noisy")
    catalog.write(ds, root / "data")
    run_pipeline(catalog.ingest(root / "data"), root / "out", PipelineConfig(), truth)
    return root / "data", truth, {name: (root / "out" / name).read_bytes() for name in OUTPUTS}


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_record_order_leaves_every_output_byte_unchanged(noisy_outputs, seed, tmp_path_factory):
    # every .jsonl line and every top-level .json array entry shuffled; only
    # the stamps, which hold the dataset digest, may change
    data, truth, expected = noisy_outputs
    rng = np.random.default_rng(seed)
    root = tmp_path_factory.mktemp("shuffled")
    shutil.copytree(data, root / "data")
    for path in (root / "data").iterdir():
        if path.suffix == ".jsonl":
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[k] for k in rng.permutation(len(lines))))
        elif path.suffix == ".json":
            records = json.loads(path.read_text())
            path.write_text(json.dumps([records[k] for k in rng.permutation(len(records))]))
    run_pipeline(catalog.ingest(root / "data"), root / "out", PipelineConfig(), truth)
    assert {name: (root / "out" / name).read_bytes() for name in OUTPUTS} == expected


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
    # TrackPieces define no equality: compare their fields
    assert list(map(record_fields, resumed.pieces)) == list(map(record_fields, fresh.pieces))
    for attr in RESULTS[1:]:
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


DEFERRED = {"split": "split_tracks_with_sources", "pair": "assign_active_speakers"}


def count_deferred(monkeypatch) -> Counter:
    """Calls of split's and pair's compute from now on, by stage name."""
    calls = Counter()
    for name, attr in DEFERRED.items():
        def counted(*args, name=name, real=getattr(pipeline, attr)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(pipeline, attr, counted)
    return calls


def test_a_resume_whose_stamps_all_match_computes_nothing(tmp_path, monkeypatch):
    ds, truth = generate(CFG)
    calls = count_deferred(monkeypatch)
    run_pipeline(ds, tmp_path / "chk", PipelineConfig(), truth)
    assert calls == {"split": 1, "pair": 1}
    calls.clear()
    resumed = PipelineRun(ds, tmp_path / "chk", PipelineConfig(resume=True))
    resumed.run(truth)
    assert not calls and "segments_by_video" not in vars(resumed)
    # a changed --min-votes recomputes bridge, graph and report, which read the pieces and the pairs
    report = run_pipeline(ds, tmp_path / "chk", PipelineConfig(min_votes=2, resume=True), truth)
    assert calls == {"split": 1, "pair": 1}
    assert report == run_pipeline(ds, tmp_path / "fresh", PipelineConfig(min_votes=2), truth)
    assert read_tree(tmp_path / "chk") == read_tree(tmp_path / "fresh")


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
@pytest.mark.parametrize("stage", sorted(DEFERRED))
def test_a_deferred_step_failure_is_named_by_its_stage(tmp_path, monkeypatch, stage, resume):
    # split and pair run inside the stage that first reads their results, yet
    # their failure names them, not the reader
    ds, truth = generate(CFG)
    if resume:
        run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    cause = RuntimeError(stage)

    def fails(*args):
        raise cause

    monkeypatch.setattr(pipeline, DEFERRED[stage], fails)
    # resumed with a changed --min-votes, bridge recomputes and reads the pairs
    with pytest.raises(PipelineStageError) as failed:
        run_pipeline(ds, tmp_path, PipelineConfig(min_votes=2, resume=resume), truth)
    assert failed.value.stage == stage and failed.value.cause is cause


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
        ("report_table.txt", lambda text: text.replace("1.00", "0.99", 1)),
        ("report_table.txt", lambda text: None),
        ("graph.dot", lambda text: text.replace("videos)", "video)", 1)),
    ],
    ids=["truncated-at-a-line", "edited-same-length", "diarization-truncated", "diarization-stamp-edited",
         "report-edited", "report-stamp-edited", "table-edited", "table-deleted", "graph-dot-edited"],
)
def test_resume_over_damaged_checkpoint_recomputes(tmp_path, name, damage):
    # a damage of None deletes the file
    ds, truth = generate(CFG)
    out = tmp_path / "chk"
    fresh = run_pipeline(ds, out, PipelineConfig(), truth)
    before = read_tree(out)
    path = out / name
    damaged = damage(path.read_text())
    assert damaged != path.read_text()
    if damaged is None:
        path.unlink()
    else:
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
        ds.videos[video_id] = catalog.Video(video_id, "c0", datetime(2018, 1, 1, tzinfo=timezone.utc))
        for k, (segment_id, voice) in enumerate(voices):
            embedding = np.asarray(voice, dtype=np.float32)
            ds.segments[segment_id] = catalog.SpeechSegment(
                segment_id, video_id, 3.0 * k, 3.0 * k + 2.0, embedding
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
    calls = []
    unit_mean = castgraph.tracks.unit_mean

    def counted(rows):
        calls.append(len(rows))
        return unit_mean(rows)

    monkeypatch.setattr(castgraph.tracks, "unit_mean", counted)
    run = PipelineRun(ds, tmp_path, PipelineConfig())
    run.run(truth)
    assert len(calls) == len(run.pieces) > 0
    # resumed with merge decoded: cluster_faces reads the pieces, so split computes them once
    calls.clear()
    (tmp_path / CHECKPOINTS["cluster_faces"]).unlink()
    resumed = PipelineRun(ds, tmp_path, PipelineConfig(resume=True))
    resumed.run(truth)
    assert len(calls) == len(resumed.pieces) == len(run.pieces)
    # a resume whose stamps all match computes no representative
    calls.clear()
    PipelineRun(ds, tmp_path, PipelineConfig(resume=True)).run(truth)
    assert calls == []


def test_no_stage_writes_into_a_dataset_vector(tmp_path):
    ds, truth = generate(SynthConfig(**DUPES, rng_seed=1))
    run_pipeline(ds, tmp_path / "writable", PipelineConfig(), truth)
    digest = ds.digest()
    for track in ds.tracks.values():
        track.embeddings.flags.writeable = False
    for segment in ds.segments.values():
        segment.embedding.flags.writeable = False
    out = tmp_path / "read_only"
    run_pipeline(ds, out, PipelineConfig(), truth)
    assert read_tree(out) == read_tree(tmp_path / "writable")
    (out / CHECKPOINTS["cluster_faces"]).unlink()
    run_pipeline(ds, out, PipelineConfig(resume=True), truth)
    assert read_tree(out) == read_tree(tmp_path / "writable")
    assert ds.digest() == digest


def test_run_until_report_writes_what_a_run_without_ground_truth_writes(tmp_path):
    ds, _ = generate(CFG)
    run_pipeline(ds, tmp_path / "run")
    for resume in (False, True):
        PipelineRun(ds, tmp_path / "until", PipelineConfig(resume=resume)).run_until("report")
        assert read_tree(tmp_path / "until") == read_tree(tmp_path / "run")


def test_unknown_stage_is_rejected_before_any_work(tmp_path):
    ds, _ = generate(CFG)
    with pytest.raises(ValueError):
        PipelineRun(ds, tmp_path, PipelineConfig()).run_until("no_such_stage")
    assert not list(tmp_path.iterdir())

# --- cli --------------------------------------------------------------------------

def child_env(**env) -> dict[str, str]:
    """This environment plus env, with the tested checkout's src first on PYTHONPATH."""
    src = str(Path(castgraph.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **env, "PYTHONPATH": path}


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "castgraph.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=timeout,
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

    dot = run_cli("export-dot", "--out", out)
    assert dot.returncode == 0, dot.stderr
    assert dot.stdout == (out / "graph.dot").read_text()


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


def test_cli_ground_truth_is_read_before_the_dataset(tmp_path, tiny_data, monkeypatch, capsys):
    monkeypatch.setattr(catalog, "ingest", lambda *args: pytest.fail("the dataset was read"))
    out, truth = tmp_path / "out", tmp_path / "absent.json"
    assert main(["run", str(tiny_data), "--out", str(out), "--ground-truth", str(truth)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: required file missing") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["diarize", "cluster", "bridge", "graph"])
def test_cli_partial_command_takes_no_ground_truth(tmp_path, tiny_data, capsys, command):
    # a partial command stops before the report, which alone reads a ground truth
    with pytest.raises(SystemExit) as exc:
        main([command, str(tiny_data), "--out", str(tmp_path / "out"), "--ground-truth", str(tiny_data / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert "unrecognized arguments: --ground-truth" in capsys.readouterr().err


def test_cli_missing_manifest_exits_2(tmp_path):
    result = run_cli("run", tmp_path / "absent", "--out", tmp_path / "o")
    assert result.returncode == 2
    assert "missing" in result.stderr.lower()


@pytest.mark.parametrize("command", ["run", "synth"])
def test_cli_io_error_outside_a_stage_exits_2(tmp_path, tiny_data, monkeypatch, capsys, command):
    # --out names a file: run cannot make its output directory, which it makes before it reads
    # the dataset, and synth cannot write under it
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(catalog, "ingest", lambda *args: pytest.fail("the dataset was read"))
    if command == "run":
        code = main(["run", str(tiny_data), "--out", str(tmp_path / "file")])
    else:
        code = main(["synth", "--out", str(tmp_path / "file" / "x"), "--face-dim", "8", "--speaker-dim", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


# identity 1 written twice: read as one key, the two identities would merge
SPELLED_TWICE = {"identity_homes": {"1": "ch0", "01": "ch1"}, "track_identity": {}, "segment_identity": {},
                 "video_identities": {}, "video_hosts": {}, "planted_events": [], "offscreen_videos": [],
                 "planted_growth_ratio": None}
BAD_TRUTH_FILES = {**BAD_JSON_FILES, "int_key_spelled_twice": json.dumps(SPELLED_TWICE).encode()}


@pytest.mark.parametrize("content", BAD_TRUTH_FILES.values(), ids=BAD_TRUTH_FILES.keys())
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


def test_cli_export_dot_without_graph_dot_exits_2(tmp_path, capsys):
    assert main(["export-dot", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "graph.dot" in err


def test_cli_export_dot_takes_no_dataset(tmp_path, tiny_data, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-dot", str(tiny_data), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags, config", [
    ([], SynthConfig()),
    (["--channels", "2", "--videos", "5", "--identities", "3", "--face-dim", "7", "--speaker-dim", "6",
      "--noise-deg", "1.5", "--offscreen-fraction", "0.25", "--collab-rate", "0.5", "--growth-ratio", "1.2",
      "--seed", "9"],
     SynthConfig(n_channels=2, n_videos=5, n_identities=3, face_dim=7, speaker_dim=6, angular_noise_deg=1.5,
                 offscreen_speaker_fraction=0.25, collaboration_rate=0.5, planted_growth_ratio=1.2, rng_seed=9)),
])
def test_cli_flags_build_the_synth_config(tmp_path, monkeypatch, flags, config):
    # with no flags, every setting is SynthConfig's own default
    built = []

    def generate(cfg):
        built.append(cfg)
        raise InfeasibleConfig("generation stopped by the test")

    monkeypatch.setattr(cli, "generate", generate)
    assert main(["synth", "--out", str(tmp_path / "out"), *flags]) == 1
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


@pytest.mark.parametrize("flag, value", [
    ("--face-dim", "0"),
    ("--dropout", "2"),
    ("--dropout", "-0.5"),
    ("--conf-noise", "-1"),
    ("--channels", "0"),
    ("--noise-deg", "nan"),
    ("--growth-ratio", "-1"),
])
def test_cli_bad_synth_setting_is_a_usage_error(tmp_path, flag, value):
    # rejected before anything is generated, so --out is never created
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--face-dim", "1", "--noise-deg", "5"],
    ["--speaker-dim", "1", "--noise-deg", "5"],
    ["--collab-rate", "0.3", "--growth-ratio", "1e16"],
    ["--collab-rate", "0.3", "--growth-ratio", "1e308"],
    ["--conf-noise", "inf"],
    ["--conf-noise", "1e308"],
], ids=["face-dim-1", "speaker-dim-1", "growth-1e16", "growth-1e308", "conf-noise-inf", "conf-noise-1e308"])
def test_cli_synth_setting_no_dataset_can_hold_is_a_usage_error(tmp_path, flags):
    # in a child with a timeout, since generating a 1-d dataset with noise never ended: a 1-d
    # space has no axis to rotate about. A view count past 64 bits wrote a corpus that
    # validate rejects, or overflowed; so did a noise numpy cannot draw from
    result = run_cli("synth", "--out", tmp_path / "out", *flags, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_cli_synth_that_cannot_host_every_identity_is_a_usage_error(tmp_path, capsys):
    # 2 videos reach 2 of the 5 home channels
    counts = ["--channels", "5", "--videos", "2", "--identities", "5", "--face-dim", "8", "--speaker-dim", "8"]
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "out"), *counts])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert "each home channel needs a video" in capsys.readouterr().err


def test_cli_synth_guest_spot_shortfall_exits_1(tmp_path, capsys):
    # 2 identities hosting 1 video each: no guest spot stays below its home count
    counts = ["--channels", "2", "--videos", "2", "--identities", "2", "--face-dim", "8", "--speaker-dim", "8"]
    assert main(["synth", "--out", str(tmp_path / "out"), *counts, "--collab-rate", "1"]) == 1
    assert not (tmp_path / "out").exists()
    assert "could only plant 0 of 2 collaborations" in capsys.readouterr().err


# --- degenerate inputs through cli.main: one policy per row -------------------------

def one_video_dataset(faces, voices) -> catalog.Dataset:
    """One channel and one video: a 30-frame face track per face, a 2 s segment per voice row.

    A face is one row, or a list of rows 10 frames apart.
    """
    ds = catalog.Dataset(face_dim=4, speaker_dim=3)
    ds.channels["c0"] = catalog.Channel("c0", "Channel 0")
    ds.videos["v0"] = catalog.Video("v0", "c0", datetime(2018, 1, 1, tzinfo=timezone.utc))
    for k, face in enumerate(faces):
        embedding = np.asarray(face, dtype=np.float32).reshape(-1, 4)
        frames = tuple(range(100 * k, 100 * k + 10 * len(embedding), 10))
        ds.tracks[f"t{k}"] = catalog.FaceTrack(f"t{k}", "v0", 100 * k, 100 * k + 29, embedding, frames, 1.0)
    for k, voice in enumerate(voices):
        embedding = np.asarray(voice, dtype=np.float32)
        ds.segments[f"s{k}"] = catalog.SpeechSegment(f"s{k}", "v0", 3.0 * k, 3.0 * k + 2.0, embedding)
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
    # one piece whose own rows cancel has no representative, so split fails
    ("cancelling_rows_one_piece", [[[1, 0, 0, 0], [-1, 0, 0, 0]]], [[1, 0, 0]], [], 1,
     "error: stage 'split' failed: cannot normalize a zero or non-finite vector\n"),
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


def test_cli_piece_id_minted_twice_fails_split(tmp_path, capsys):
    # the second piece of the 100-frame track "a" would share the one-piece track "a#1"'s id
    ds = one_video_dataset([], [[1, 0, 0]])
    rows = np.eye(4, dtype=np.float32)
    ds.tracks = {
        "a": catalog.FaceTrack("a", "v0", 0, 99, rows[:2], (0, 50), 1.0),
        "a#1": catalog.FaceTrack("a#1", "v0", 200, 229, rows[2:3], (200,), 1.0),
    }
    catalog.write(ds, tmp_path / "data")
    assert main(["run", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: stage 'split' failed: tracks 'a' and 'a#1' share the piece id 'a#1'\n"


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


def write_corpus(config: SynthConfig, data: Path) -> Path:
    """config's dataset and its ground truth written to the new directory data."""
    ds, truth = generate(config)
    data.mkdir()
    catalog.write(ds, data)
    truth.save(data / "ground_truth.json")
    return data


@pytest.fixture(scope="module")
def cfg_data(tmp_path_factory):
    return write_corpus(CFG, tmp_path_factory.mktemp("cfg") / "data")


def run_cfg_in_subprocess(data: Path, out: Path, **env) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", CLI_IN_PROCESS, "run", data, "--out", out,
         "--ground-truth", data / "ground_truth.json"],
        capture_output=True,
        text=True,
        env=child_env(**env),
    )
    assert result.returncode == 0, result.stderr
    status = json.loads(result.stdout.splitlines()[-1])
    assert status["code"] == 0
    return status


# SHA-256 of the CFG corpus's stdout: report.json, then for eval an empty line and report_table.txt
CFG_STDOUT_SHA256 = {
    "run": "88e636593434ac3e0dd9fe4b5450f46586d902803a59d2e5e40ec257d61cbeed",
    "run --ground-truth": CFG_SHA256["report.json"],
    "eval --ground-truth": "f70dec9b0ef7168ab1edae58f459e4ede95efd1b610345ce0a84056f45196889",
}


@pytest.mark.parametrize("command", CFG_STDOUT_SHA256)
def test_cli_prints_the_report_the_run_wrote(tmp_path, cfg_data, capsysbinary, command):
    name, *flags = command.split()
    out = tmp_path / "out"
    truth = [str(cfg_data / "ground_truth.json")] if flags else []
    assert main([name, str(cfg_data), "--out", str(out), *flags, *truth]) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == CFG_STDOUT_SHA256[command]
    files = [out / "report.json", *([out / pipeline.TABLE] if name == "eval" else [])]
    assert stdout == b"\n".join(path.read_bytes() for path in files)


@pytest.fixture(scope="module")
def cfg_out(tmp_path_factory, cfg_data):
    out = tmp_path_factory.mktemp("cfg_out") / "out"
    assert main(["run", str(cfg_data), "--out", str(out)]) == 0
    return out


def test_cli_export_dot_prints_graph_dot(cfg_out, capsysbinary):
    assert main(["export-dot", "--out", str(cfg_out)]) == 0
    assert capsysbinary.readouterr().out == (cfg_out / "graph.dot").read_bytes()


def test_cli_export_dot_reads_neither_the_dataset_nor_the_graph_checkpoint(tmp_path, cfg_out, monkeypatch,
                                                                          capsysbinary):
    shutil.copy(cfg_out / "graph.dot", tmp_path)
    monkeypatch.setattr(catalog, "ingest", lambda *args: pytest.fail("the dataset was read"))
    assert main(["export-dot", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / CHECKPOINTS["graph"]).exists()
    assert capsysbinary.readouterr().out == (cfg_out / "graph.dot").read_bytes()


def test_cli_run_never_imports_scipy(tmp_path, cfg_data):
    status = run_cfg_in_subprocess(cfg_data, tmp_path / "out")
    assert (tmp_path / "out" / "report.json").is_file()
    assert status["scipy"] == []


@pytest.mark.parametrize("config", [CFG, SynthConfig(**DUPES, rng_seed=1)], ids=["cfg", "dupes"])
def test_blas_thread_count_invisible_in_bytes(tmp_path, config):
    # the hash seed differs too: no grouping may depend on set or hash order;
    # the dupes corpus sends bitwise-identical points through every clustering
    data = write_corpus(config, tmp_path / "data")
    trees = []
    for threads, hash_seed in (("1", "0"), ("2", "1")):
        out = tmp_path / f"blas{threads}"
        run_cfg_in_subprocess(
            data, out, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed
        )
        trees.append(read_tree(out))
    one, two = trees
    stages = ("cluster_faces", "cluster_speakers", "bridge", "graph")  # 05 to 08
    assert {CHECKPOINTS[stage] for stage in stages} | {"report.json"} <= one.keys()
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
