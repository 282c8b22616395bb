"""Self-tests for the benchmark's own code: tracing, corpora and the output check."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import castgraph
from castgraph import metrics
from castgraph.pipeline import PipelineConfig

import check
import corpora
import run
import tracer

HERE = Path(__file__).resolve().parent
# a few dozen videos at small dimensions: the workload's code paths at test speed
SMALL = {"n_videos": 16, "n_identities": 4, "n_channels": 4, "face_dim": 48, "speaker_dim": 32}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
        span("grandchild", 1.5, 2.0, parent=1),  # only a's child
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])


def test_covered_ignores_intervals_outside_the_window():
    assert tracer.covered([(-5.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0
    assert tracer.covered([(2.0, 3.0), (2.5, 2.7), (0.0, 1.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_aggregate_counts_nested_same_name_time_once():
    spans = [
        span("f", 0.0, 4.0, counts={"bytes": 8, "max_n": 3, "rejected": ["x", "y"]}),
        span("f", 1.0, 2.0, parent=0, counts={"bytes": 2, "max_n": 7, "rejected": ["y"]}),
        span("f", 5.0, 6.0, counts={"bytes": 1, "max_n": 1, "rejected": ["z"]}),
    ]
    agg = tracer.aggregate(spans)["f"]
    assert agg["calls"] == 3
    assert agg["s"] == pytest.approx(5.0)
    assert agg["self_s"] == pytest.approx(3.0 + 1.0 + 1.0)
    assert (agg["bytes"], agg["max_n"], agg["rejected"]) == (11, 7, 3)


def test_tracer_wrap_records_parent_links_and_counts():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def inner(x):
        clock.now += 1.0
        return [x] * x

    traced_inner = t.wrap("inner", inner, lambda a, k, r: {"items": len(r)})

    def outer():
        clock.now += 2.0
        traced_inner(3)
        clock.now += 0.5

    t.wrap("outer", outer)()
    assert t.spans == [["outer", 0.0, 3.5, -1, None], ["inner", 2.0, 3.0, 0, {"items": 3}]]


def test_tracer_hooks_every_binding_site_and_uninstalls(tmp_path):
    ds, truth = castgraph.generate(corpora.synth_config(corpora.WORKLOADS["mixed-2304"], 3, **SMALL))
    originals = {
        mod: getattr(castgraph, mod).distance_matrix for mod in ("distcluster", "tracks", "diarize", "pipeline")
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        wrapped = {mod: getattr(castgraph, mod).distance_matrix for mod in originals}
        assert len(set(map(id, wrapped.values()))) == 1
        assert next(iter(wrapped.values())).__wrapped__ is originals["distcluster"]
        castgraph.run_pipeline(ds, tmp_path, PipelineConfig(), truth)
    finally:
        t.uninstall()
    assert {m: getattr(castgraph, m).distance_matrix for m in originals} == originals
    assert {f"pipeline.{stage}" for stage in tracer.STAGES} <= {s[0] for s in t.spans}
    callers = {t.spans[s[3]][0] for s in t.spans if s[0] == "distcluster.distance_matrix"}
    assert {"tracks.merge_tracks", "diarize.diarize_video", "pipeline.cluster_speakers"} <= callers


def test_missing_hook_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        tracer, "FUNCTION_HOOKS", (("castgraph.metrics", "no_such_function", "metrics.gone", None),)
    )
    monkeypatch.setattr(tracer, "METHOD_HOOKS", (("castgraph.distcluster", "NoSuchClass", "m", "x", None),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["castgraph.metrics.no_such_function", "castgraph.distcluster.NoSuchClass.m"]
    values = tracer.per_layer_metrics([], 1.0, 1.0, 1.0, {})
    assert set(values) == {name for name, _, _ in tracer.per_layer_spec()}


def test_corpus_generation_is_byte_identical_for_one_seed(tmp_path):
    workload = corpora.WORKLOADS["mixed-2304"]
    trees = []
    for name in ("a", "b"):
        truth = corpora.build(workload, 11, tmp_path / name, **SMALL)
        truth.save(tmp_path / name / "truth.json")
        trees.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert trees[0] == trees[1]
    other = tmp_path / "c"
    corpora.build(workload, 12, other, **SMALL)
    assert (other / "speakers.emb").read_bytes() != trees[0]["speakers.emb"]


def test_v_measure_matches_castgraph_metrics():
    rng = random.Random(5)
    for _ in range(20):
        truth = [rng.randrange(4) for _ in range(50)]
        pred = [rng.randrange(-1, 5) for _ in range(50)]
        assert check.v_measure(truth, pred) == pytest.approx(metrics.v_measure(truth, pred), abs=1e-12)


@pytest.fixture()
def small_run(tmp_path):
    workload = corpora.WORKLOADS["dupes-0deg"]
    truth = corpora.build(workload, 2, tmp_path / "data", **SMALL)
    out = tmp_path / "out"
    castgraph.run_pipeline(castgraph.ingest(tmp_path / "data"), out, PipelineConfig(), truth)
    return workload, truth, out


def test_check_accepts_an_exact_run(small_run):
    workload, truth, out = small_run
    problems, quality = check.check_run(out, truth, workload.has_faces, workload.exact)
    assert problems == []
    assert set(quality) == {name for name, _ in run.END_TO_END} - {
        "setup_s", "run_s", "peak_rss_mb", "checkpoint_mb"
    }


def test_check_rejects_an_altered_label_artifact(small_run):
    workload, truth, out = small_run
    before = check.digests(out)
    path = out / "06_speaker_labels.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    point_id, label = lines[1].rstrip("\n").rsplit(",", 1)
    lines[1] = f"{point_id},{int(label) + 100}\n"
    path.write_text("".join(lines), encoding="utf-8")

    problems, _ = check.check_run(out, truth, workload.has_faces, workload.exact)
    assert problems
    assert check.digests(out)["06_speaker_labels.csv"] != before["06_speaker_labels.csv"]


def test_benchmark_json_lists_the_metrics_the_code_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS)
