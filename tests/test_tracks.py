"""Track splitting, active-speaker pairing, and merging."""

from __future__ import annotations

import numpy as np
import pytest

from castgraph.catalog import AVPair, FaceTrack, SpeechSegment, unit_mean
from castgraph.distcluster import FALLBACK_EPS, HdbscanParams
from castgraph.synth import random_unit, rotate_within
from castgraph.tracks import (
    MAX_PIECE_FRAMES,
    MIN_PIECE_FRAMES,
    assign_active_speakers,
    merge_tracks,
    split_tracks_with_sources,
)

from oracles import oracle_split_ranges

PARAMS = HdbscanParams(2, 2)


def merge(pieces, params):
    """merge_tracks over split pieces at the default fallback eps."""
    return merge_tracks(pieces, params, FALLBACK_EPS)


def make_track(track_id, start, end, vec, video="v1", conf=None, every=25):
    frames = tuple(range(start, end + 1, every))
    emb = np.tile(np.asarray(vec, dtype=np.float32), (len(frames), 1))
    return FaceTrack(track_id, video, start, end, emb, frames, conf)


def make_segment(segment_id, start_s, end_s, video="v1", vec=None):
    emb = None if vec is None else np.asarray(vec, dtype=np.float32)
    return SpeechSegment(segment_id, video, start_s, end_s, emb)


# --- split -----------------------------------------------------------------------

def test_split_150_frames_into_three():
    track = make_track("t", 0, 149, [1.0, 0.0])
    pieces = split_tracks_with_sources([track])[0]
    assert [(p.start_frame, p.end_frame) for p in pieces] == [(0, 49), (50, 99), (100, 149)]
    assert [p.track_id for p in pieces] == ["t#0", "t#1", "t#2"]


def test_split_short_track_untouched():
    track = make_track("t", 10, 49, [1.0, 0.0])
    pieces = split_tracks_with_sources([track])[0]
    assert len(pieces) == 1
    assert pieces[0].track_id == "t"
    assert (pieces[0].start_frame, pieces[0].end_frame) == (10, 49)


def test_split_drops_short_remainder():
    track = make_track("t", 0, 119, [1.0, 0.0])
    pieces = split_tracks_with_sources([track])[0]
    assert [(p.start_frame, p.end_frame) for p in pieces] == [(0, 49), (50, 99)]


@pytest.mark.parametrize("seed", range(20))
def test_split_matches_partition_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    start = int(rng.integers(0, 100))
    end = start + int(rng.integers(0, 400))
    track = make_track("t", start, end, [0.5, 0.5], every=5)
    pieces = split_tracks_with_sources([track])[0]
    expected = oracle_split_ranges(start, end, MAX_PIECE_FRAMES, MIN_PIECE_FRAMES)
    assert [(p.start_frame, p.end_frame) for p in pieces] == expected


def test_split_embeddings_follow_frames():
    # rows listed out of frame order; frames 100-119 form a short remainder that is dropped
    rows = np.array([[1, 0], [2, 1], [0, 3], [4, 4], [5, 0], [1, 7], [9, 9]], dtype=np.float32)
    frames = (60, 0, 90, 30, 110, 49, 100)
    track = FaceTrack("t", "v1", 0, 119, rows, frames, None)
    pieces = split_tracks_with_sources([track])[0]
    assert [(p.track_id, p.start_frame, p.end_frame) for p in pieces] == [("t#0", 0, 49), ("t#1", 50, 99)]
    for piece, covered in zip(pieces, ([1, 3, 5], [0, 2])):
        expected = unit_mean(rows[covered])
        assert piece.representative.dtype == expected.dtype
        assert piece.representative.tobytes() == expected.tobytes()
        assert not hasattr(piece, "embeddings")


def test_split_sources_map():
    tracks = [make_track("a", 0, 149, [1, 0]), make_track("b", 0, 30, [0, 1])]
    pieces, sources = split_tracks_with_sources(tracks)
    assert sources == {"a#0": "a", "a#1": "a", "a#2": "a", "b": "b"}
    assert {p.track_id for p in pieces} == set(sources)


@pytest.mark.parametrize("short_start, named", [(0, "'a#1' and 'a'"), (200, "'a' and 'a#1'")])
def test_split_refuses_a_piece_id_minted_twice(short_start, named):
    # the second piece of the two-piece track "a" is named "a#1", as is the one-piece track "a#1"
    tracks = [make_track("a", 100, 199, [1, 0]), make_track("a#1", short_start, short_start + 30, [0, 1])]
    with pytest.raises(ValueError, match=f"^tracks {named} share the piece id 'a#1'$"):
        split_tracks_with_sources(tracks)


def test_split_drops_piece_without_rows():
    # every row lies in frames 0-49: piece 50-99 covers none, 100-119 is a short remainder
    rows = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
    track = FaceTrack("t", "v1", 0, 119, rows, (0, 20, 49), None)
    pieces, sources = split_tracks_with_sources([track])
    assert [(p.track_id, p.start_frame, p.end_frame) for p in pieces] == [("t#0", 0, 49)]
    assert pieces[0].representative.tobytes() == unit_mean(rows).tobytes()
    assert sources == {"t#0": "t"}


# --- pairing ---------------------------------------------------------------------

def test_pairing_full_overlap():
    track = make_track("t", 0, 49, [1, 0], conf=0.9)
    segment = make_segment("s", 0.0, 2.0)
    pairs = assign_active_speakers([track], [segment], 0.5)
    assert pairs == [AVPair("t", "s", 0.9)]


def test_pairing_requires_confidence():
    track = make_track("t", 0, 49, [1, 0], conf=None)
    segment = make_segment("s", 0.0, 2.0)
    assert assign_active_speakers([track], [segment], 0.5) == []


def test_pairing_below_threshold():
    track = make_track("t", 0, 49, [1, 0], conf=0.4)
    segment = make_segment("s", 0.0, 2.0)
    assert assign_active_speakers([track], [segment], 0.5) == []


def test_pairing_needs_half_overlap():
    track = make_track("t", 0, 49, [1, 0], conf=1.0)  # covers [0, 2) s
    segment = make_segment("s", 1.5, 6.0)  # overlap 0.5 of 4.5 < 50%
    assert assign_active_speakers([track], [segment], 0.5) == []


def test_pairing_best_overlap_wins():
    track = make_track("t", 0, 99, [1, 0], conf=1.0)  # spans [0, 4) s
    loser = make_segment("s_low", 2.8, 4.8)  # overlap 1.2 / 2.0 = 60%
    winner = make_segment("s_high", 1.0, 3.0)  # overlap 2.0 / 2.0 = 100%
    pairs = assign_active_speakers([track], [loser, winner], 0.5)
    assert pairs == [AVPair("t", "s_high", 1.0)]


def test_pairing_tie_prefers_earlier_segment():
    track = make_track("t", 0, 99, [1, 0], conf=1.0)
    first = make_segment("s1", 0.0, 2.0)
    second = make_segment("s2", 2.0, 4.0)
    pairs = assign_active_speakers([track], [second, first], 0.5)
    assert pairs == [AVPair("t", "s1", 1.0)]


# --- merge -----------------------------------------------------------------------

def test_merge_split_pieces_of_one_track():
    track = make_track("t", 0, 149, [0.6, 0.8])
    pieces = split_tracks_with_sources([track])[0]
    entities = merge(pieces, PARAMS)
    assert len(entities) == 1
    assert set(entities[0].member_track_ids) == {"t#0", "t#1", "t#2"}
    assert sum(p.end_frame - p.start_frame + 1 for p in pieces if p.track_id in entities[0].member_track_ids) == 150


def test_merge_two_identities():
    rng = 5
    a = random_unit(np.random.Generator(np.random.PCG64(rng)), 64)
    b = random_unit(np.random.Generator(np.random.PCG64(rng + 1)), 64)
    tracks = [
        make_track("a1", 0, 49, a),
        make_track("a2", 50, 99, a),
        make_track("b1", 100, 149, b),
        make_track("b2", 150, 199, b),
    ]
    entities = merge(split_tracks_with_sources(tracks)[0], PARAMS)
    members = {frozenset(e.member_track_ids) for e in entities}
    assert members == {frozenset({"a1", "a2"}), frozenset({"b1", "b2"})}


def test_merge_single_track_singleton_entity():
    entities = merge(split_tracks_with_sources([make_track("only", 0, 30, [1, 0])])[0], PARAMS)
    assert len(entities) == 1
    assert entities[0].member_track_ids == ("only",)


def test_merge_keeps_av_pairs():
    track = make_track("t", 0, 149, [0.0, 1.0], conf=1.0)
    pieces = split_tracks_with_sources([track])[0]
    pairs = [AVPair(p.track_id, f"s{k}", 1.0) for k, p in enumerate(pieces)]
    entities = merge(pieces, PARAMS)
    assert len(entities) == 1
    # the bridge joins a pair to the entity holding its track
    assert {pair.track_id for pair in pairs} <= set(entities[0].member_track_ids)


def test_merge_is_per_video():
    a = [1.0, 0.0]
    tracks = [
        make_track("x", 0, 40, a, video="v1"),
        make_track("y", 0, 40, a, video="v2"),
    ]
    entities = merge(split_tracks_with_sources(tracks)[0], PARAMS)
    assert len(entities) == 2
    assert {e.video_id for e in entities} == {"v1", "v2"}


def test_representative_is_normalized_mean():
    track = FaceTrack(
        "t",
        "v1",
        0,
        25,
        np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32),
        (0, 25),
        None,
    )
    [piece], _ = split_tracks_with_sources([track])
    expected = np.array([1.0, 1.0]) / np.sqrt(2)
    assert piece.representative.tolist() == pytest.approx(expected.tolist(), abs=1e-6)


# --- invariants -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_split_then_merge_single_identity_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    gen = np.random.Generator(np.random.PCG64(900 + seed))
    centroid = random_unit(gen, 48)
    start = int(rng.integers(0, 50))
    end = start + int(rng.integers(49, 300))
    frames = tuple(range(start, end + 1, 25))
    face = rotate_within(gen, centroid, 3.0).astype(np.float32)
    track = FaceTrack("t", "v1", start, end, np.tile(face, (len(frames), 1)), frames, 1.0)

    pieces = split_tracks_with_sources([track])[0]
    entities = merge(pieces, PARAMS)
    assert len(entities) == 1
    # pieces partition the kept frame range
    spans = sorted((p.start_frame, p.end_frame) for p in pieces)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 + 1 == s2
    kept = sum(e - s + 1 for s, e in spans)
    dropped = track.end_frame - track.start_frame + 1 - kept
    assert 0 <= dropped < MIN_PIECE_FRAMES
    by_id = {p.track_id: p for p in pieces}
    assert sum(by_id[t].end_frame - by_id[t].start_frame + 1 for t in entities[0].member_track_ids) == kept


def test_frame_conservation_across_entities():
    rng = np.random.default_rng(77)
    tracks = []
    for k in range(12):
        start = int(rng.integers(0, 30))
        end = start + int(rng.integers(30, 260))
        tracks.append(make_track(f"t{k}", start, end, [1.0, float(k)], video=f"v{k % 3}"))
    total_in = sum(t.end_frame - t.start_frame + 1 for t in tracks)
    pieces = split_tracks_with_sources(tracks)[0]
    entities = merge(pieces, PARAMS)
    by_id = {p.track_id: p for p in pieces}
    total_entities = sum(by_id[t].end_frame - by_id[t].start_frame + 1 for e in entities for t in e.member_track_ids)
    dropped = total_in - sum(p.end_frame - p.start_frame + 1 for p in pieces)
    assert total_entities + dropped == total_in
