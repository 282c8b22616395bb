"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import castgraph
from castgraph.bridge import build_graph, resolve_identities
from castgraph.catalog import AVPair, FaceTrack, write
from castgraph.distcluster import HdbscanParams, cluster_with_fallback, distance_matrix, hdbscan
from castgraph.metrics import completeness, der, homogeneity, v_from_scores, v_measure
from castgraph.collabgraph import graph_stats
from castgraph.pipeline import PipelineConfig, PipelineRun, run_pipeline
from castgraph.synth import SynthConfig, corrupt, generate, random_unit, rotate_within
from castgraph.tracks import split_tracks_with_sources

from oracles import n_clusters, oracle_der, oracle_hdbscan, oracle_homogeneity_completeness, sample_blobs
from test_tracks import merge

PARAMS = HdbscanParams(min_cluster_size=2, min_samples=2)

TABLE_II_CFG = dict(
    n_channels=9,
    n_videos=72,
    n_identities=9,
    face_dim=1792,
    speaker_dim=1024,
    offscreen_speaker_fraction=47 / 72,
    collaboration_rate=34 / 72,
)


def criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


# 1 ------------------------------------------------------------------------------

# Each reference triple (h, c, V) is given to two decimals, so h and c are only
# known to +/-0.005. 2hc/(h+c) increases in both arguments, so over that square
# V ranges exactly from v(h-0.005, c-0.005) to v(h+0.005, c+0.005); the triple
# is reproduced when that range overlaps the stated V +/- 0.005. The repository
# does not record where the two triples come from. The exact-input value
# v(0.43, 0.65) = 0.5176 is pinned in tests/test_metrics.py.
REFERENCE_TRIPLES = [(0.87, 0.89, 0.88), (0.43, 0.65, 0.51)]
ROUNDING = 0.005


def test_v_measure_reference_values():
    oks, parts = [], []
    for h, c, target in REFERENCE_TRIPLES:
        exact = v_from_scores(h, c)
        lo = v_from_scores(h - ROUNDING, c - ROUNDING)
        hi = v_from_scores(h + ROUNDING, c + ROUNDING)
        ok = lo <= target + ROUNDING and hi >= target - ROUNDING
        oks.append(ok)
        parts.append(
            f"v({h},{c})={exact:.5f}, inputs rounded to ±{ROUNDING} give "
            f"[{lo:.5f}, {hi:.5f}] vs target {target}±{ROUNDING} "
            f"[{target - ROUNDING:.3f}, {target + ROUNDING:.3f}] ({'ok' if ok else 'no overlap'})"
        )
    criterion(
        "v-measure arithmetic reproduces the two-decimal reference triples",
        all(oks),
        "; ".join(parts),
    )


# 2 ------------------------------------------------------------------------------

def test_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        truth = rng.integers(-1, 6, size=n).tolist()
        pred = rng.integers(-1, 6, size=n).tolist()
        hom_o, com_o = oracle_homogeneity_completeness(truth, pred)
        worst = max(
            worst,
            abs(homogeneity(truth, pred) - hom_o),
            abs(completeness(truth, pred) - com_o),
            abs(v_measure(truth, pred) - (0.0 if hom_o + com_o == 0 else 2 * hom_o * com_o / (hom_o + com_o))),
        )
    criterion(
        "homogeneity/completeness/v-measure match the entropy oracle on 1000 fuzzed pairs",
        worst <= 1e-9,
        f"max abs deviation {worst:.2e} (tolerance 1e-9)",
    )


# 3 ------------------------------------------------------------------------------

def test_der_against_interval_sweep_oracle():
    ref = [(0.0, 10.0, "spk1"), (10.0, 20.0, "spk2")]
    hyp = [(0.0, 8.0, "A"), (8.0, 20.0, "B")]
    hand = der(ref, hyp)
    ok_hand = abs(hand - 0.10) <= 1e-9

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        def timeline(speakers):
            out, cursor = [], 0.0
            for _ in range(int(rng.integers(1, 7))):
                cursor += float(rng.uniform(0.0, 2.0))
                length = float(rng.uniform(0.5, 4.0))
                out.append((cursor, cursor + length, str(rng.choice(speakers))))
                cursor += length
            return out

        r = timeline(["a", "b", "c"])
        h = timeline(["x", "y", "z", "w"])
        worst = max(worst, abs(der(r, h) - oracle_der(r, h)))
    criterion(
        "DER matches hand example and 50 fuzzed timelines against the sweep oracle",
        ok_hand and worst <= 1e-9,
        f"hand example {hand:.6f} (expected 0.10); max fuzz deviation {worst:.2e}",
    )


# 4 ------------------------------------------------------------------------------

def test_hdbscan_recovers_synthetic_sets_and_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    worst_v = 1.0
    for trial in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(20, 61))
        noise = float(rng.uniform(0.0, 10.0))
        points, truth = sample_blobs(n, k, 256, noise, seed=5000 + trial)
        [labels] = hdbscan(distance_matrix([points]), PARAMS)
        worst_v = min(worst_v, v_measure(truth.tolist(), labels.tolist()))

    exhaustive_ok = True
    for trial in range(30):
        gen = np.random.default_rng(9000 + trial)
        n = int(gen.integers(4, 13))
        k = int(gen.integers(1, 4))
        points, _ = sample_blobs(n, k, 64, 20.0, seed=9100 + trial)
        m = distance_matrix([points])
        if hdbscan(m, PARAMS)[0].tolist() != oracle_hdbscan(m.to_square()[0].tolist(), 2, 2):
            exhaustive_ok = False
            break
    criterion(
        "hierarchical clustering recovers 100 seeded sets and matches the brute-force tree oracle",
        worst_v >= 0.99 and exhaustive_ok,
        f"min V-measure over 100 sets {worst_v:.4f} (threshold 0.99); "
        f"exhaustive n<=12 agreement {'exact' if exhaustive_ok else 'BROKEN'}",
    )


# 5 ------------------------------------------------------------------------------

def test_fallback_on_single_identity_datasets():
    ok = True
    detail = ""
    for seed in range(20):
        points, _ = sample_blobs(40, 1, 256, 5.0, seed=7000 + seed)
        m = distance_matrix([points])
        [direct] = hdbscan(m, PARAMS)
        [labels], [used_fallback] = cluster_with_fallback(m, PARAMS)
        if not (n_clusters(direct) == 0 and used_fallback and n_clusters(labels) == 1):
            ok = False
            detail = (
                f"seed {seed}: all_noise={n_clusters(direct) == 0} "
                f"fallback={used_fallback} clusters={n_clusters(labels)}"
            )
            break
    criterion(
        "single-identity sets all-noise under the hierarchy and one cluster via fallback (20 seeds)",
        ok,
        detail or "20/20 seeds",
    )


# 6 ------------------------------------------------------------------------------

def test_end_to_end_oracle_recovery(tmp_path):
    cfg = SynthConfig(angular_noise_deg=0.0, planted_growth_ratio=1.34, rng_seed=7, **TABLE_II_CFG)
    ds, truth = generate(cfg)
    report = run_pipeline(ds, tmp_path / "clean", PipelineConfig(), truth)
    collab = report["evaluation"]["collaborations"]
    clean_ok = (
        collab["correct"] == 34
        and collab["incorrect"] == 0
        and collab["node_count"] == 9
        and len(truth.planted_events) == 34
        and len(truth.offscreen_videos) == 47
    )

    rates = []
    for seed in range(10):
        noisy_cfg = SynthConfig(angular_noise_deg=15.0, rng_seed=600 + seed, **TABLE_II_CFG)
        noisy_ds, noisy_truth = generate(noisy_cfg)
        noisy_ds = corrupt(noisy_ds, 0.10, 0.0, seed=600 + seed)
        noisy_report = run_pipeline(
            noisy_ds, tmp_path / f"noisy{seed}", PipelineConfig(), noisy_truth
        )
        rates.append(noisy_report["evaluation"]["collaborations"]["correct"] / 34)
    median_rate = statistics.median(rates)
    criterion(
        "end-to-end recovery: exact at zero noise, >=80% median at 15 deg + 10% dropout",
        clean_ok and median_rate >= 0.80,
        f"zero-noise {collab['correct']}/34 correct, {collab['incorrect']} incorrect, "
        f"{collab['node_count']} nodes; noisy median recovery {median_rate:.0%}",
    )


# 7 ------------------------------------------------------------------------------

def test_bridge_fig_scenario():
    face_labels = {"entC": 0, "entD": 0, "entF": 0}
    speaker_labels = {"seg4": 0, "seg_commentator_1": 1, "seg_commentator_2": 1}
    pairs = [AVPair("trackD", "seg4", 1.0)]
    graph = build_graph(face_labels, speaker_labels, pairs, {"trackD": "entD"})
    identities = resolve_identities(graph, min_votes=1)
    bimodal = [c for c in identities if c.face_clusters and c.speaker_clusters]
    speaker_only = [c for c in identities if c.speaker_clusters and not c.face_clusters]
    ok = (
        len(identities) == 2
        and len(bimodal) == 1
        and bimodal[0].face_clusters == frozenset({0})
        and bimodal[0].speaker_clusters == frozenset({0})
        and len(speaker_only) == 1
        and speaker_only[0].speaker_clusters == frozenset({1})
    )
    criterion(
        "bridge resolves the pair scenario to one bimodal identity plus one off-screen voice",
        ok,
        f"{len(identities)} identities: {len(bimodal)} bimodal, {len(speaker_only)} speaker-only",
    )


# 8 ------------------------------------------------------------------------------

def test_split_merge_round_trip_thousand_tracks():
    rng = np.random.default_rng(31337)
    gen = np.random.default_rng(606)
    failures = 0
    lost_pairs = 0
    for trial in range(1000):
        centroid = random_unit(np.random.Generator(np.random.PCG64(trial)), 96)
        face = rotate_within(np.random.Generator(np.random.PCG64(50_000 + trial)), centroid, 4.0)
        start = int(rng.integers(0, 100))
        end = start + int(rng.integers(49, 500))
        frames = tuple(range(start, end + 1, 25))
        track = FaceTrack(
            f"t{trial}",
            f"v{trial}",
            start,
            end,
            np.tile(face.astype(np.float32), (len(frames), 1)),
            frames,
            1.0,
        )
        pieces, _ = split_tracks_with_sources([track])
        pairs = [AVPair(p.track_id, f"seg{trial}/{i}", 1.0) for i, p in enumerate(pieces)]
        entities = merge(pieces, PARAMS)
        if len(entities) != 1:
            failures += 1
            continue
        # the bridge joins each pair to the entity holding its track
        if not {pair.track_id for pair in pairs} <= set(entities[0].member_track_ids):
            lost_pairs += 1
    del gen
    criterion(
        "1000 randomized single-identity tracks split and re-merge into one entity with no pair loss",
        failures == 0 and lost_pairs == 0,
        f"{failures} multi-entity results, {lost_pairs} tracks with lost pairs",
    )


# 9 ------------------------------------------------------------------------------

def test_growth_factor_recovered(tmp_path):
    cfg = SynthConfig(
        n_channels=6,
        n_videos=30,
        n_identities=6,
        face_dim=64,
        speaker_dim=48,
        angular_noise_deg=0.0,
        offscreen_speaker_fraction=0.5,
        collaboration_rate=0.4,
        planted_growth_ratio=1.34,
        rng_seed=12,
    )
    ds, truth = generate(cfg)
    report = run_pipeline(ds, tmp_path / "growth", PipelineConfig(), truth)
    factor = report["evaluation"]["growth_factor"]
    ok = abs(factor - 1.34) <= 1e-6
    criterion(
        "planted view-growth ratio 1.34 recovered",
        ok,
        f"recovered {factor!r} (tolerance 1e-6)",
    )


# 10 -----------------------------------------------------------------------------

def test_pipeline_byte_identical_across_threads(tmp_path):
    cfg = SynthConfig(
        angular_noise_deg=8.0, planted_growth_ratio=1.34, rng_seed=21, **TABLE_II_CFG
    )
    ds, truth = generate(cfg)
    data_dir = tmp_path / "data"
    write(ds, data_dir)
    truth.save(data_dir / "ground_truth.json")
    src = str(Path(castgraph.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "2"):
        # a fresh interpreter per count: BLAS reads these when numpy loads it
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "castgraph.cli", "run", str(data_dir), "--out", str(out),
             "--ground-truth", str(data_dir / "ground_truth.json")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outs.append(out)
    out1, out2 = outs
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    same = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
    )
    criterion(
        "full pipeline byte-identical for 1 vs 2 BLAS threads",
        same,
        f"{len(names1)} artifacts compared",
    )


# 11 -----------------------------------------------------------------------------

def test_speaker_recognition_finds_collaborations_faces_miss(tmp_path):
    # the paper's claim: a guest heard but never seen on camera is found only by voice
    ds, truth = generate(SynthConfig(angular_noise_deg=5.0, rng_seed=7, **TABLE_II_CFG))
    run = PipelineRun(ds, tmp_path, PipelineConfig())
    run.run_until("graph")
    recall = {}
    for name in ("face+speaker", "face-only"):
        if name == "face-only":
            run.speaker_labels = {}
            run.compute_bridge()
            run.compute_graph()
        stats = graph_stats(run.edges, ds.channels.keys(), truth.event_triples())
        recall[name] = stats["correct"] / len(truth.planted_events)
    criterion(
        "speaker recognition finds collaborations faces miss: face+speaker recall >= 0.9, "
        "at least 0.3 above face-only",
        len(truth.offscreen_videos) == 47
        and recall["face+speaker"] >= 0.9
        and recall["face+speaker"] - recall["face-only"] >= 0.3,
        ", ".join(f"{name} recall {value:.2f}" for name, value in recall.items()),
    )
