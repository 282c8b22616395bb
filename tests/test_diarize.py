"""Segment filtering, per-video speaker clustering, and reconciliation."""

from __future__ import annotations

import numpy as np
import pytest

from castgraph.catalog import AVPair, SpeechSegment
from castgraph.diarize import diarize_video, filter_segments, reconcile
from castgraph.distcluster import HdbscanParams, cluster_groups
from castgraph.errors import NoSegments
from castgraph.synth import random_unit, rotate_within

PARAMS = HdbscanParams(2, 2)


def make_segment(segment_id, start_s, end_s, vec=None, video="v1"):
    emb = None if vec is None else np.asarray(vec, dtype=np.float32)
    return SpeechSegment(segment_id, video, start_s, end_s, emb)


def speaker_segments(n, noise_deg, seed, video="v1", prefix="s", dim=96, centroid=None):
    gen = np.random.Generator(np.random.PCG64(seed))
    if centroid is None:
        centroid = random_unit(gen, dim)
    out = []
    for k in range(n):
        emb = rotate_within(gen, centroid, noise_deg)
        out.append(make_segment(f"{prefix}{k}", 2.0 * k, 2.0 * k + 1.5, emb, video))
    return out


def used_fallback(segments) -> bool:
    """Whether clustering these segments falls back to DBSCAN."""
    [(_, fallback)] = cluster_groups([[s.embedding for s in segments]], PARAMS)
    return fallback


# --- filtering -------------------------------------------------------------------

def test_filter_rejects_short_segment():
    kept, rejected = filter_segments([make_segment("s", 0.0, 0.5, [1, 0])])
    assert kept == []
    assert [(r.segment_id, r.reason) for r in rejected] == [("s", "TooShort")]


def test_filter_boundary_is_inclusive():
    kept, rejected = filter_segments([make_segment("s", 1.0, 2.0, [1, 0])])
    assert len(kept) == 1 and rejected == []


def test_filter_rejects_missing_embedding():
    kept, rejected = filter_segments([make_segment("s", 0.0, 3.0, None)])
    assert kept == []
    assert rejected[0].reason == "NoEmbedding"


def test_filter_accounts_for_every_segment():
    segments = [
        make_segment("a", 0.0, 0.2, [1, 0]),
        make_segment("b", 0.0, 2.0, [1, 0]),
        make_segment("c", 0.0, 2.0, None),
    ]
    kept, rejected = filter_segments(segments)
    assert {s.segment_id for s in kept} | {r.segment_id for r in rejected} == {"a", "b", "c"}
    assert len(kept) + len(rejected) == 3


# --- per-video clustering -----------------------------------------------------------

def test_single_speaker_clusters_via_fallback():
    segments = speaker_segments(10, 4.0, seed=1)
    [labels] = diarize_video([segments], PARAMS)
    assert used_fallback(segments)
    assert set(labels.values()) == {0}


@pytest.mark.parametrize("seed", range(12))
def test_single_speaker_always_one_cluster(seed):
    # the heuristic eps can leave a straggler as noise, never a second cluster
    segments = speaker_segments(10, 4.0, seed=seed)
    [labels] = diarize_video([segments], PARAMS)
    assert used_fallback(segments)
    assert set(labels.values()) - {-1} == {0}
    assert list(labels.values()).count(-1) <= 1


def test_two_speakers_match_generator():
    gen = np.random.Generator(np.random.PCG64(8))
    a, b = random_unit(gen, 96), random_unit(gen, 96)
    segments = speaker_segments(6, 4.0, seed=6, prefix="a", centroid=a) + speaker_segments(
        6, 4.0, seed=7, prefix="b", centroid=b
    )
    [labels] = diarize_video([segments], PARAMS)
    assert set(labels.values()) == {0, 1}
    assert not used_fallback(segments)
    assert len({labels[f"a{k}"] for k in range(6)}) == 1
    assert len({labels[f"b{k}"] for k in range(6)}) == 1
    assert labels["a0"] != labels["b0"]


def test_single_segment_singleton_label():
    [labels] = diarize_video([speaker_segments(1, 0.0, seed=9)], PARAMS)
    assert labels == {"s0": 0}


def test_no_segments_raises():
    with pytest.raises(NoSegments):
        diarize_video([[]], PARAMS)


def test_permutation_invariance_up_to_renaming():
    gen = np.random.Generator(np.random.PCG64(21))
    a, b = random_unit(gen, 64), random_unit(gen, 64)
    segments = speaker_segments(5, 3.0, seed=31, prefix="a", centroid=a) + speaker_segments(
        5, 3.0, seed=32, prefix="b", centroid=b
    )
    [labels_fwd] = diarize_video([segments], PARAMS)
    [labels_rev] = diarize_video([list(reversed(segments))], PARAMS)
    groups_fwd = {frozenset(k for k, v in labels_fwd.items() if v == c) for c in set(labels_fwd.values())}
    groups_rev = {frozenset(k for k, v in labels_rev.items() if v == c) for c in set(labels_rev.values())}
    assert groups_fwd == groups_rev


def test_many_videos_in_one_call_match_each_video_alone():
    gen = np.random.Generator(np.random.PCG64(40))
    a, b = random_unit(gen, 64), random_unit(gen, 64)
    videos = [
        speaker_segments(1, 0.0, seed=41, video="one"),
        speaker_segments(2, 4.0, seed=42, video="pair"),
        speaker_segments(5, 3.0, seed=43, video="two", prefix="a", centroid=a)
        + speaker_segments(5, 3.0, seed=44, video="two", prefix="b", centroid=b),
        # as many segments as "two", but 96-d: sets of another dimension are never stacked together
        speaker_segments(10, 4.0, seed=45, video="single"),
        speaker_segments(4, 0.0, seed=46, video="dupes", centroid=a),
        speaker_segments(2, 4.0, seed=47, video="pair2"),
    ]
    together = diarize_video(videos, PARAMS)
    alone = [diarize_video([v], PARAMS)[0] for v in videos]
    assert together == alone
    assert [set(labels) for labels in together] == [{s.segment_id for s in v} for v in videos]


# --- reconcile -------------------------------------------------------------------

def test_reconcile_mixed_paired_and_unpaired():
    labels = {"s0": 0, "s1": 0, "s2": 1, "s3": 1}
    pairs = [AVPair("t0", "s1", 0.8)]
    rec = reconcile(labels, pairs)
    assert len(rec) == 4
    by_id = {r.segment_id: r for r in rec}
    assert by_id["s1"].paired_track_id == "t0"
    assert by_id["s1"].speaker_label == 0
    assert all(by_id[s].paired_track_id is None for s in ("s0", "s2", "s3"))


def test_reconcile_no_pairs():
    labels = {"s0": 0, "s1": 1}
    rec = reconcile(labels, [])
    assert all(r.paired_track_id is None for r in rec)
    assert [r.speaker_label for r in rec] == [0, 1]


def test_reconcile_all_paired():
    labels = {"s0": 0, "s1": 1}
    pairs = [AVPair("t0", "s0", 0.9), AVPair("t1", "s1", 0.7)]
    rec = reconcile(labels, pairs)
    assert all(r.paired_track_id is not None for r in rec)
    assert all(r.speaker_label == labels[r.segment_id] for r in rec)


def test_reconcile_most_confident_pair_wins():
    labels = {"s0": 0}
    pairs = [AVPair("tA", "s0", 0.6), AVPair("tB", "s0", 0.9)]
    rec = reconcile(labels, pairs)
    assert rec[0].paired_track_id == "tB"
    assert rec[0].pair_confidence == pytest.approx(0.9)
