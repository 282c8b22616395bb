"""Creator assignment, collaboration edges, graph stats, view growth."""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

import pytest

from castgraph.catalog import Channel, Dataset, Video
from castgraph.collabgraph import (
    assign_creators,
    collab_graph_dot,
    collaboration_events,
    detect_collaborations,
    graph_stats,
    growth_factor,
)
from castgraph.errors import InsufficientHistory

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def video(video_id, channel_id, day=0, history=None):
    return Video(video_id, channel_id, T0 + timedelta(days=day), history)


def index_from(appearances):
    """appearances: list of (identity, Video) -> (identity -> {channel: video ids}, videos by id)."""
    index, videos = {}, {}
    for identity, vid in appearances:
        index.setdefault(identity, {}).setdefault(vid.channel_id, set()).add(vid.video_id)
        videos[vid.video_id] = vid
    return index, videos


# --- creators ---------------------------------------------------------------------

def test_creator_strict_majority():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(5)]
    apps += [(1, video(f"b{k}", "B", day=10 + k)) for k in range(2)]
    creators = assign_creators(*index_from(apps))
    assert creators == {1: "A"}


def test_creator_tie_breaks_on_earliest_publication():
    apps = [(1, video(f"a{k}", "A", day=5 + k)) for k in range(3)]
    apps += [(1, video(f"b{k}", "B", day=3 + k)) for k in range(3)]
    creators = assign_creators(*index_from(apps))
    assert creators == {1: "B"}  # B's earliest appearance (day 3) precedes A's (day 5)


def test_creator_tie_breaks_on_channel_id_last():
    apps = [(1, video("a0", "A", day=1)), (1, video("b0", "B", day=1))]
    creators = assign_creators(*index_from(apps))
    assert creators == {1: "A"}


def test_creator_inversion_when_foreign_count_dominates():
    # an identity seen more on another channel than its own gets assigned there
    apps = [(7, video("own", "Home", day=0))]
    apps += [(7, video(f"f{k}", "Foreign", day=1 + k)) for k in range(3)]
    creators = assign_creators(*index_from(apps))
    assert creators == {7: "Foreign"}


# --- collaborations ----------------------------------------------------------------

def test_edges_for_foreign_appearances():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(4)]
    apps += [(1, video(f"b{k}", "B", day=10 + k)) for k in range(3)]
    index, videos = index_from(apps)
    creators = assign_creators(index, videos)
    edges = detect_collaborations(index, creators)
    assert len(edges) == 1
    edge = edges[0]
    assert (edge.from_channel, edge.to_channel, edge.identity_id) == ("A", "B", 1)
    assert set(edge.video_ids) == {"b0", "b1", "b2"}


def test_no_edge_for_home_only_identity():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(3)]
    index, videos = index_from(apps)
    edges = detect_collaborations(index, assign_creators(index, videos))
    assert edges == []


def test_edges_independent_of_identity_enumeration():
    apps = [
        (2, video("a0", "A", day=0)),
        (2, video("a1", "A", day=1)),
        (2, video("b0", "B", day=2)),
        (1, video("b1", "B", day=3)),
        (1, video("b2", "B", day=4)),
        (1, video("a0", "A", day=0)),
    ]
    index_fwd, videos = index_from(apps)
    index_rev, _ = index_from(list(reversed(apps)))
    edges_fwd = detect_collaborations(index_fwd, assign_creators(index_fwd, videos))
    edges_rev = detect_collaborations(index_rev, assign_creators(index_rev, videos))
    assert edges_fwd == edges_rev


# --- stats ------------------------------------------------------------------------

def test_stats_empty():
    assert graph_stats([], []) == {"node_count": 0, "edge_count": 0, "collaboration_count": 0}


def test_stats_against_truth():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(2)]
    apps += [(1, video("b0", "B", day=5)), (1, video("b1", "B", day=6))]
    index, videos = index_from(apps)
    edges = detect_collaborations(index, assign_creators(index, videos))
    truth = {("A", "B", "b0"), ("A", "B", "bX")}
    stats = graph_stats(edges, ["A", "B", "C"], ground_truth=truth)
    assert stats == {"node_count": 3, "edge_count": 1, "collaboration_count": 2,
                     "correct": 1, "incorrect": 1, "missed": 1}


def test_stats_nine_channel_seven_pair_shape():
    # reference shape: 9 channels, 7 directed pairs, 34 per-video events
    channels = [f"ch{k}" for k in range(9)]
    pair_loads = [("ch0", "ch1", 6), ("ch0", "ch2", 5), ("ch3", "ch4", 5),
                  ("ch5", "ch6", 5), ("ch7", "ch8", 5), ("ch2", "ch0", 4), ("ch4", "ch3", 4)]
    edges = []
    counter = 0
    for identity, (src, dst, weight) in enumerate(pair_loads):
        videos = tuple(f"v{counter + k}" for k in range(weight))
        counter += weight

        class E:
            pass

        edge = E()
        edge.from_channel, edge.to_channel = src, dst
        edge.identity_id = identity
        edge.video_ids = videos
        edges.append(edge)
    stats = graph_stats(edges, channels)
    assert stats == {"node_count": 9, "edge_count": 7, "collaboration_count": 34}


def test_creator_argmax_survives_uniform_rescaling():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(4)]
    apps += [(1, video(f"b{k}", "B", day=10 + k)) for k in range(2)]
    base = assign_creators(*index_from(apps))
    tripled = [
        (identity, video(f"{v.video_id}x{r}", v.channel_id, day=(v.published_at - T0).days))
        for identity, v in apps
        for r in range(3)
    ]
    assert assign_creators(*index_from(tripled)) == base


def test_edge_videos_audit_against_index():
    apps = [(1, video(f"a{k}", "A", day=k)) for k in range(3)]
    apps += [(1, video(f"b{k}", "B", day=5 + k)) for k in range(2)]
    apps += [(2, video(f"c{k}", "C", day=k)) for k in range(2)]
    apps += [(2, video("b9", "B", day=9))]
    index, videos = index_from(apps)
    edges = detect_collaborations(index, assign_creators(index, videos))
    for edge in edges:
        recorded = index[edge.identity_id][edge.to_channel]
        assert set(edge.video_ids) <= recorded


def test_collaboration_count_sums_edge_videos():
    apps = [(1, video("a0", "A"))]
    apps += [(1, video(f"b{k}", "B", day=k + 1)) for k in range(2)]
    apps += [(2, video("c0", "C")), (2, video("b9", "B", day=9))]
    # identity 1 home A (tie broken by earliest), identity 2 home C
    apps += [(1, video("a1", "A", day=0))]
    index, videos = index_from(apps)
    edges = detect_collaborations(index, assign_creators(index, videos))
    stats = graph_stats(edges, ["A", "B", "C"])
    assert stats["collaboration_count"] == len(collaboration_events(edges)) == 3


# --- growth factor -----------------------------------------------------------------

def hist(first, last, day=0):
    return (
        (T0 + timedelta(days=day), first),
        (T0 + timedelta(days=day + 30), last),
    )


class Edge:
    def __init__(self, video_ids):
        self.video_ids = video_ids


def test_growth_identical_groups_gives_one():
    videos = [
        video("c0", "A", history=hist(100, 200)),
        video("n0", "A", history=hist(100, 200)),
    ]
    assert growth_factor(videos, [Edge(("c0",))]) == pytest.approx(1.0)


def test_growth_double_vs_flat():
    videos = [
        video("c0", "A", history=hist(100, 300)),  # growth 2.0
        video("n0", "A", history=hist(100, 200)),  # growth 1.0
    ]
    assert growth_factor(videos, [Edge(("c0",))]) == pytest.approx(2.0)


def test_growth_requires_both_groups():
    videos = [video("c0", "A", history=hist(100, 300))]
    with pytest.raises(InsufficientHistory):
        growth_factor(videos, [Edge(("c0",))])


def test_growth_averages_channels():
    videos = [
        video("a_c", "A", history=hist(100, 300)),
        video("a_n", "A", history=hist(100, 200)),
        video("b_c", "B", history=hist(100, 500)),
        video("b_n", "B", history=hist(100, 200)),
    ]
    factor = growth_factor(videos, [Edge(("a_c", "b_c"))])
    assert factor == pytest.approx((2.0 + 4.0) / 2)


# --- dot export -------------------------------------------------------------------

def test_dot_labels_channels_and_edges():
    ds = Dataset()
    ds.channels = {"A": Channel("A", "Alpha"), "B": Channel("B", "Beta")}
    ds.videos = {
        "a0": video("a0", "A"),
        "b0": video("b0", "B"),
        "b1": video("b1", "B", day=1),
    }

    class E:
        from_channel, to_channel, identity_id = "A", "B", 3
        video_ids = ("b0", "b1")

    dot = collab_graph_dot(ds, [E()])
    assert '"Alpha (1 videos)"' in dot
    assert '"Beta (2 videos)"' in dot
    assert '"A" -> "B" [label="ID3, 2"]' in dot
    assert dot.startswith("digraph")


def test_dot_escapes_quotes_and_backslashes():
    ds = Dataset()
    names = {'q"1': 'Bob "the" Builder', "back\\slash": "ends in \\", 'both\\"': '\\"mixed"'}
    ds.channels = {cid: Channel(cid, name) for cid, name in names.items()}
    ds.videos = {"v0": video("v0", 'q"1')}

    class E:
        from_channel, to_channel, identity_id = 'q"1', "back\\slash", 1
        video_ids = ("v0",)

    dot = collab_graph_dot(ds, [E()])
    quoted = r'"(?:[^"\\]|\\.)*"'
    body = dot.splitlines()[1:-1]
    node = re.compile(rf"  ({quoted}) \[label=({quoted})\];")
    edge = re.compile(rf"  ({quoted}) -> ({quoted}) \[label=({quoted})\];")
    assert all(node.fullmatch(line) or edge.fullmatch(line) for line in body), dot

    def unquote(text):
        return re.sub(r"\\(.)", r"\1", text[1:-1])

    nodes = [node.fullmatch(line).groups() for line in body if node.fullmatch(line)]
    counts = {'q"1': 1, "back\\slash": 0, 'both\\"': 0}
    assert {unquote(cid): unquote(label) for cid, label in nodes} == {
        cid: f"{name} ({counts[cid]} videos)" for cid, name in names.items()
    }
    (source, target, _), = [edge.fullmatch(line).groups() for line in body if edge.fullmatch(line)]
    assert (unquote(source), unquote(target)) == ('q"1', "back\\slash")
