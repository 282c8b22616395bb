"""Metric implementations against entropy/enumeration/sweep oracles."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from castgraph import metrics
from castgraph.catalog import SpeechSegment
from castgraph.errors import EmptyReference, KeyMismatch, LengthMismatch
from castgraph.metrics import (
    assignment_accuracy,
    completeness,
    der,
    homogeneity,
    linear_sum_assignment,
    plurality,
    v_from_scores,
    v_measure,
)
from castgraph.synth import GroundTruth

from oracles import (
    loop_der,
    oracle_best_assignment_accuracy,
    oracle_der,
    oracle_homogeneity_completeness,
)

label_lists = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-1, 5), min_size=n, max_size=n),
        st.lists(st.integers(-1, 5), min_size=n, max_size=n),
    )
)


# --- homogeneity / completeness / v-measure ------------------------------------

def test_perfect_labels_score_one():
    truth = [0, 0, 1, 1, 2]
    assert homogeneity(truth, truth) == pytest.approx(1.0)
    assert completeness(truth, truth) == pytest.approx(1.0)
    assert v_measure(truth, truth) == pytest.approx(1.0)


def test_single_cluster_two_classes_zero_homogeneity():
    truth = [0, 0, 1, 1]
    pred = [0, 0, 0, 0]
    assert homogeneity(truth, pred) == pytest.approx(0.0)
    assert completeness(truth, pred) == pytest.approx(1.0)


def test_split_classes_hurt_completeness_only():
    truth = [0, 0, 0, 0, 1, 1, 1, 1]
    pred = [0, 0, 1, 1, 2, 2, 3, 3]
    hom, com = oracle_homogeneity_completeness(truth, pred)
    assert homogeneity(truth, pred) == pytest.approx(1.0)
    assert completeness(truth, pred) == pytest.approx(com, abs=1e-12)
    assert com < 1.0


def test_random_labels_match_entropy_oracle():
    rng = np.random.default_rng(12)
    truth = rng.integers(0, 4, size=60).tolist()
    pred = rng.integers(0, 5, size=60).tolist()
    hom, com = oracle_homogeneity_completeness(truth, pred)
    assert homogeneity(truth, pred) == pytest.approx(hom, abs=1e-9)
    assert completeness(truth, pred) == pytest.approx(com, abs=1e-9)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        homogeneity([0, 1], [0])
    with pytest.raises(LengthMismatch):
        v_measure([], [])


def test_v_measure_reference_values():
    assert v_from_scores(0.87, 0.89) == pytest.approx(0.8799, abs=5e-4)
    assert v_from_scores(0.43, 0.65) == pytest.approx(0.5176, abs=5e-4)
    assert v_from_scores(1.0, 1.0) == 1.0
    assert v_from_scores(0.0, 0.0) == 0.0


@given(label_lists)
@settings(max_examples=200, deadline=None)
def test_scores_fuzzed_against_oracle_and_ranges(pair):
    truth, pred = pair
    hom, com = oracle_homogeneity_completeness(truth, pred)
    assert homogeneity(truth, pred) == pytest.approx(hom, abs=1e-9)
    assert completeness(truth, pred) == pytest.approx(com, abs=1e-9)
    v = v_measure(truth, pred)
    assert -1e-12 <= hom <= 1 + 1e-12
    assert -1e-12 <= com <= 1 + 1e-12
    assert -1e-12 <= v <= 1 + 1e-12
    # duality and symmetry
    assert completeness(truth, pred) == pytest.approx(homogeneity(pred, truth), abs=1e-12)
    assert v_measure(pred, truth) == pytest.approx(v, abs=1e-12)


@given(label_lists, st.permutations(list(range(7))))
@settings(max_examples=100, deadline=None)
def test_scores_invariant_under_relabeling(pair, perm):
    truth, pred = pair
    relabeled = [perm[p + 1] for p in pred]
    assert homogeneity(truth, relabeled) == pytest.approx(homogeneity(truth, pred), abs=1e-12)
    assert completeness(truth, relabeled) == pytest.approx(completeness(truth, pred), abs=1e-12)


# --- assignment accuracy ---------------------------------------------------------

def test_assignment_perfect():
    truth = {f"v{i}": f"p{i % 3}" for i in range(9)}
    pred = {f"v{i}": i % 3 for i in range(9)}
    assert assignment_accuracy(truth, pred) == 1.0


def test_assignment_single_cluster_floor():
    truth = {f"v{i}": f"p{i % 4}" for i in range(8)}
    pred = {f"v{i}": 0 for i in range(8)}
    assert assignment_accuracy(truth, pred) == 0.25


def test_assignment_key_mismatch():
    with pytest.raises(KeyMismatch):
        assignment_accuracy({"a": 1}, {"b": 1})


@pytest.mark.parametrize("seed", range(10))
def test_assignment_greedy_matches_exhaustive(seed):
    rng = np.random.default_rng(800 + seed)
    videos = [f"v{i}" for i in range(20)]
    truth = {v: f"p{rng.integers(0, 4)}" for v in videos}
    pred = {v: int(rng.integers(0, 4)) for v in videos}
    assert assignment_accuracy(truth, pred) == pytest.approx(
        oracle_best_assignment_accuracy(truth, pred)
    )


# --- plurality ------------------------------------------------------------------

def test_plurality_is_the_most_frequent_value_and_the_smallest_on_ties():
    assert plurality([3, 1, 3]) == 3
    assert plurality([10, 9]) == 9  # ints tie by value, not as the strings "10" < "9"
    assert plurality([2, -1, 5, -1, 2]) == -1
    assert plurality(iter([7])) == 7
    with pytest.raises(ValueError):
        plurality([])


# per video: its host, and each segment's (true identity, speaker label)
video_rows = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2]),
        st.lists(st.tuples(st.sampled_from([None, 0, 1]), st.sampled_from([None, -1, 0, 1, 9, 10])), max_size=6),
    ),
    min_size=1,
    max_size=5,
)


@given(videos=video_rows)
@example(videos=[(0, [(None, 10), (None, 9), (0, -1), (0, 9), (1, 10), (None, -1)]), (None, [(0, 1)])])
@settings(max_examples=200, deadline=None)
def test_the_host_vote_is_each_videos_plurality_label(videos):
    # the vectorized vote gives each video with a host and a labelled segment
    # the plurality of its labels, noise (-1) votes included
    hosts, segments, identities, labels = {}, {}, {}, {}
    for v, (host, rows) in enumerate(videos):
        video_id = f"v{v}"
        hosts[video_id] = host
        segments[video_id] = [SpeechSegment(f"{video_id}/s{k}", video_id, k, k + 1.0) for k in range(len(rows))]
        for segment, (identity, label) in zip(segments[video_id], rows):
            if identity is not None:
                identities[segment.segment_id] = identity
            if label is not None:
                labels[segment.segment_id] = label
    run = SimpleNamespace(speaker_labels=labels, segments_by_video=segments, ds=SimpleNamespace(videos=hosts))
    video_truth, video_pred, _ = metrics._video_scores(run, GroundTruth(segment_identity=identities, video_hosts=hosts))
    votes = {
        video_id: [labels[s.segment_id] for s in segments[video_id] if s.segment_id in labels]
        for video_id, host in hosts.items()
        if host is not None
    }
    expected = {video_id: plurality(video_votes) for video_id, video_votes in votes.items() if video_votes}
    assert video_pred == expected
    assert video_truth == {video_id: hosts[video_id] for video_id in expected}


# --- diarization error rate --------------------------------------------------------

def test_der_identical_timelines():
    ref = [(0.0, 10.0, "a"), (10.0, 20.0, "b")]
    assert der(ref, ref) == 0.0


def test_der_hand_interval_example():
    ref = [(0.0, 10.0, "spk1"), (10.0, 20.0, "spk2")]
    hyp = [(0.0, 8.0, "A"), (8.0, 20.0, "B")]
    assert der(ref, hyp) == pytest.approx(0.10, abs=1e-9)


def test_der_silent_hypothesis():
    ref = [(0.0, 4.0, "a"), (5.0, 9.0, "b")]
    assert der(ref, []) == pytest.approx(1.0)


def test_der_empty_reference():
    with pytest.raises(EmptyReference):
        der([], [(0.0, 1.0, "a")])


def test_der_split_interval_invariant():
    ref = [(0.0, 10.0, "a"), (10.0, 16.0, "b")]
    hyp = [(0.0, 9.0, "x"), (9.0, 16.0, "y")]
    split_ref = [(0.0, 4.0, "a"), (4.0, 10.0, "a"), (10.0, 13.0, "b"), (13.0, 16.0, "b")]
    assert der(split_ref, hyp) == pytest.approx(der(ref, hyp), abs=1e-12)


def _random_timeline(rng, speakers, max_segments=6):
    timeline = []
    cursor = 0.0
    for _ in range(rng.integers(1, max_segments + 1)):
        cursor += float(rng.uniform(0.0, 2.0))
        length = float(rng.uniform(0.5, 4.0))
        timeline.append((cursor, cursor + length, str(rng.choice(speakers))))
        cursor += length
    return timeline


@pytest.mark.parametrize("seed", range(50))
def test_der_fuzz_matches_sweep_oracle(seed):
    rng = np.random.default_rng(8800 + seed)
    ref = _random_timeline(rng, ["a", "b", "c"])
    hyp = _random_timeline(rng, ["x", "y", "z", "w"])
    assert der(ref, hyp) == pytest.approx(oracle_der(ref, hyp), abs=1e-9)


def test_der_range_is_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ref = _random_timeline(rng, ["a", "b"])
        hyp = _random_timeline(rng, ["x"])
        assert der(ref, hyp) >= 0.0


def _tie_heavy_timeline(rng, speakers, max_segments=6):
    """Integer boundaries and few speakers: equal overlaps, so mapping ties."""
    timeline = []
    cursor = 0
    for _ in range(rng.integers(1, max_segments + 1)):
        cursor += int(rng.integers(0, 2))
        length = int(rng.integers(1, 3))
        timeline.append((float(cursor), float(cursor + length), str(rng.choice(speakers))))
        cursor += length
    return timeline


def test_der_on_ties_matches_scipy_assignment(monkeypatch):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4100)
    pairs = [
        (_tie_heavy_timeline(rng, ["a", "b", "c"]), _tie_heavy_timeline(rng, ["x", "y", "z", "w"]))
        for _ in range(1000)
    ]
    ours = [der(ref, hyp) for ref, hyp in pairs]
    monkeypatch.setattr(metrics, "linear_sum_assignment", scipy_optimize.linear_sum_assignment)
    assert ours == [der(ref, hyp) for ref, hyp in pairs]


def _entries(speakers):
    """Timeline entries that start on the integer grid, so overlaps tie, or anywhere;
    overlapping, reversed and zero-length ones included."""
    return st.tuples(
        st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 6.0)),
        st.one_of(st.integers(-1, 3).map(float), st.floats(-1.0, 3.0)),
        st.sampled_from(speakers),
    ).map(lambda entry: (entry[0], entry[0] + entry[1], entry[2]))


# "10" sorts before "9" as a string and after it as a number; "-1" is the noise label
timeline_batches = st.lists(
    st.tuples(
        st.lists(_entries(["1", "2", "9", "10"]), min_size=1, max_size=5).filter(
            lambda timeline: any(end > start for start, end, _ in timeline)
        ),
        st.lists(_entries(["9", "10", "-1"]), max_size=5),
    ),
    min_size=1,
    max_size=6,
)


@given(timeline_batches)
@example([([(0.0, 4.0, "9"), (3.0, 1.0, "10"), (2.0, 2.0, "1")], [])])
@example([([(0.0, 2.0, "10"), (1.0, 3.0, "9")], [(0.0, 2.0, "-1"), (2.0, 3.0, "10"), (5.0, 4.0, "9")])])
@settings(max_examples=60, deadline=None)
def test_video_ders_equal_der_bit_for_bit(batch):
    ders = [x.hex() for x in metrics.video_ders(*metrics.timeline_table(batch))]
    assert ders == [der(ref, hyp).hex() for ref, hyp in batch] == [loop_der(ref, hyp).hex() for ref, hyp in batch]
    for value, (ref, hyp) in zip(ders, batch):
        assert float.fromhex(value) == pytest.approx(oracle_der(ref, hyp), abs=1e-9)


def _tenth_grid_timeline(rng, speakers, max_segments):
    """Segments on a grid of tenths, which binary floats miss: equal overlaps whose sums round apart."""
    starts = rng.integers(0, 12, size=rng.integers(1, max_segments + 1))
    return [(s * 0.1, s * 0.1 + int(rng.integers(1, 5)) * 0.1, str(rng.choice(speakers))) for s in starts.tolist()]


def test_video_ders_keep_the_bits_of_the_loop_der():
    rng = np.random.default_rng(4242)
    # up to 12 segments a side, so a video's sums run past the 8 terms below
    # which a pairwise sum is still sequential; half on the integer grid, so mappings tie
    draws = [_random_timeline, _tie_heavy_timeline] * 150
    pairs = [(draw(rng, ["a", "b", "c"], 12), draw(rng, ["9", "10", "-1", "x"], 12)) for draw in draws]
    # one speaker on a side: which of its equal overlaps the mapping takes shows in the last bit
    for few, many in [(["a"], ["x", "y", "z"]), (["x", "y", "z"], ["a"])] * 1850:
        pairs.append((_tenth_grid_timeline(rng, few, 7), _tenth_grid_timeline(rng, many, 7)))
    ders = metrics.video_ders(*metrics.timeline_table(pairs))
    assert [x.hex() for x in ders] == [loop_der(ref, hyp).hex() for ref, hyp in pairs]


def test_video_ders_reject_a_video_without_reference_speech():
    with pytest.raises(EmptyReference, match="is empty"):
        metrics.video_ders(*metrics.timeline_table([([(0.0, 1.0, "a")], []), ([], [(0.0, 1.0, "x")])]))
    with pytest.raises(EmptyReference, match="zero speech time"):
        der([(1.0, 1.0, "a"), (2.0, 1.0, "b")], [(0.0, 3.0, "x")])
    assert metrics.video_ders([], [], [], [], []) == []


# --- linear sum assignment -------------------------------------------------------

def _cost_matrices(kind: str, count: int = 400):
    """Seeded matrices of every shape up to 7 x 7, 1 x k and k x 1 included."""
    rng = np.random.default_rng(["random", "integer", "quarters", "negated_integer"].index(kind))
    for _ in range(count):
        shape = tuple(rng.integers(1, 8, size=2))
        if kind == "random":
            yield rng.standard_normal(shape)
        elif kind == "integer":
            yield rng.integers(0, 4, size=shape).astype(np.float64)
        elif kind == "quarters":
            yield -rng.choice([0.0, 1.5, 2.25, 3.0], size=shape)
        else:
            yield -rng.integers(0, 3, size=shape).astype(np.float64)


@pytest.mark.parametrize("kind", ["random", "integer", "quarters", "negated_integer"])
def test_linear_sum_assignment_matches_scipy(kind):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for cost in _cost_matrices(kind):
        rows, cols = scipy_optimize.linear_sum_assignment(cost)
        assert linear_sum_assignment(cost.tolist()) == (rows.tolist(), cols.tolist()), cost


@pytest.mark.parametrize("kind", ["random", "integer", "quarters", "negated_integer"])
def test_linear_sum_assignment_is_optimal(kind):
    for cost in _cost_matrices(kind, count=150):
        nr, nc = cost.shape
        rows, cols = linear_sum_assignment(cost)
        assert len(rows) == len(cols) == min(nr, nc)
        assert rows == sorted(rows) and len(set(cols)) == len(cols)
        if nr <= nc:
            best = min(sum(cost[i, p[i]] for i in range(nr)) for p in itertools.permutations(range(nc), nr))
        else:
            best = min(sum(cost[p[j], j] for j in range(nc)) for p in itertools.permutations(range(nr), nc))
        assert sum(cost[i, j] for i, j in zip(rows, cols)) == pytest.approx(best, abs=1e-9)


def test_linear_sum_assignment_constant_cost_is_identity():
    assert linear_sum_assignment([[1.0] * 4] * 4) == ([0, 1, 2, 3], [0, 1, 2, 3])
    assert linear_sum_assignment([]) == ([], [])


# --- evaluate_run ----------------------------------------------------------------

def test_entity_truth_tie_goes_to_the_smallest_identity():
    # entity "a" has one piece of identity 3 and one of identity 9; its truth
    # is 3, so it agrees with "b" (all 3) in cluster 0 and the face scores are
    # perfect. Taking 9 would put two identities in cluster 0
    entities = [SimpleNamespace(entity_id=e, member_track_ids=pieces)
                for e, pieces in (("a", ["a#0", "a#1"]), ("b", ["b#0"]), ("c", ["c#0"]))]
    run = SimpleNamespace(
        entities=entities,
        piece_sources={"a#0": "t3", "a#1": "t9", "b#0": "u3", "c#0": "u9"},
        face_labels={"a": 0, "b": 0, "c": 1},
        speaker_labels={},
        segments_by_video={},
        edges=[],
        ds=SimpleNamespace(videos={}, channels={}),
    )
    truth = GroundTruth(track_identity={"t3": 3, "t9": 9, "u3": 3, "u9": 9})
    scores = metrics.evaluate_run(run, truth)["face_clustering"]
    assert scores == {"homogeneity": 1.0, "completeness": 1.0, "v_measure": 1.0}


def test_evaluate_run_scores_equal_the_metric_functions():
    # an imperfect labelling on both sides: a class split, two classes merged
    # and a noise label, so homogeneity, completeness and V all differ from 1
    face_truth, face_pred = [0, 0, 1, 1, 2, 2, 2], [0, 0, 0, 1, 1, 1, -1]
    speaker_truth, speaker_pred = [4, 4, 4, 5, 5, 6], [2, 3, 3, 3, 1, 1]
    entities = [SimpleNamespace(entity_id=f"e{k}", member_track_ids=[f"e{k}#0"]) for k in range(7)]
    run = SimpleNamespace(
        entities=entities,
        piece_sources={f"e{k}#0": f"t{k}" for k in range(7)},
        face_labels={f"e{k}": label for k, label in enumerate(face_pred)},
        speaker_labels={f"s{k}": label for k, label in enumerate(speaker_pred)},
        segments_by_video={},
        edges=[],
        ds=SimpleNamespace(videos={}, channels={}),
    )
    truth = GroundTruth(
        track_identity={f"t{k}": identity for k, identity in enumerate(face_truth)},
        segment_identity={f"s{k}": identity for k, identity in enumerate(speaker_truth)},
    )
    report = metrics.evaluate_run(run, truth)
    sides = {"face_clustering": (face_truth, face_pred), "speaker_clustering": (speaker_truth, speaker_pred)}
    for key, (t, p) in sides.items():
        expected = {
            "homogeneity": homogeneity(t, p),
            "completeness": completeness(t, p),
            "v_measure": v_measure(t, p),
        }
        assert all(0.0 < value < 1.0 for value in expected.values()), key
        assert report[key] == expected, key


def test_evaluate_run_scores_each_video_as_der_and_the_host_vote_do(monkeypatch):
    # v0: two -1 labels beat one 5; v1: 9 and 10 tie, and 9 wins though "10"
    # sorts first as a string; v2 has speech but no labels, so no host vote;
    # v3 has no segments, so neither a vote nor a DER
    spans = {
        "v0": [(0.0, 2.0, 1, -1), (2.0, 3.0, 1, -1), (3.0, 5.0, 10, 5)],
        "v1": [(0.0, 1.0, 2, 10), (0.5, 2.0, 9, 9), (2.0, 2.5, 10, None)],
        "v2": [(1.0, 3.0, 2, None)],
        "v3": [],
    }
    segments = {
        video: [SpeechSegment(f"{video}/s{k}", video, start, end) for k, (start, end, _, _) in enumerate(rows)]
        for video, rows in spans.items()
    }
    identity = {f"{v}/s{k}": row[2] for v, rows in spans.items() for k, row in enumerate(rows) if row[2] is not None}
    labels = {f"{v}/s{k}": row[3] for v, rows in spans.items() for k, row in enumerate(rows) if row[3] is not None}
    run = SimpleNamespace(
        entities=[], piece_sources={}, face_labels={}, speaker_labels=labels, segments_by_video=segments, edges=[],
        ds=SimpleNamespace(videos=dict.fromkeys(spans), channels={}),
    )
    truth = GroundTruth(segment_identity=identity, video_hosts={"v0": 1, "v1": 9, "v2": 2, "v3": 3})
    votes = []
    monkeypatch.setattr(metrics, "assignment_accuracy", lambda t, p: votes.append((t, p)) or 0.5)
    report = metrics.evaluate_run(run, truth)
    assert votes == [({"v0": 1, "v1": 9}, {"v0": -1, "v1": 9})]
    ders = [
        der(
            [(start, end, str(i)) for start, end, i, _ in rows if i is not None],
            [(start, end, str(l)) for start, end, _, l in rows if l is not None],
        )
        for video, rows in spans.items()
        if video != "v3"
    ]
    assert 0.0 < ders[1] < 1.0 and ders[2] == 1.0
    assert report["mean_der"].hex() == (sum(ders) / 3).hex()
