"""Association graph construction and identity resolution."""

from __future__ import annotations

import pytest

from castgraph.bridge import (
    AssociationEdge,
    AssociationGraph,
    build_graph,
    conflict_report,
    kept_edges,
    resolve_identities,
)
from castgraph.catalog import AVPair
from castgraph.errors import DanglingReference


def fig_style_inputs():
    """One face cluster {C,D,F} with D paired to speaker cluster 4."""
    face_labels = {"C": 0, "D": 0, "F": 0}
    speaker_labels = {"seg4": 0, "seg_other": 1}
    pairs = [AVPair("track_D", "seg4", 1.0)]
    track_to_entity = {"track_D": "D"}
    return face_labels, speaker_labels, pairs, track_to_entity


# --- build_graph -----------------------------------------------------------------

def test_build_graph_fig_style():
    graph = build_graph(*fig_style_inputs())
    assert graph.face_nodes == (0,)
    assert graph.speaker_nodes == (0, 1)
    assert graph.edges == (AssociationEdge(0, 0, 1),)


def test_build_graph_no_pairs():
    graph = build_graph({"a": 0}, {"s": 0}, [], {})
    assert graph.edges == ()
    assert graph.face_nodes == (0,)
    assert graph.speaker_nodes == (0,)


def test_build_graph_votes_aggregate():
    face_labels = {"e0": 0, "e1": 0, "e2": 0}
    speaker_labels = {"s0": 0, "s1": 0, "s2": 0}
    pairs = [AVPair(f"t{k}", f"s{k}", 1.0) for k in range(3)]
    track_to_entity = {f"t{k}": f"e{k}" for k in range(3)}
    graph = build_graph(face_labels, speaker_labels, pairs, track_to_entity)
    assert graph.edges == (AssociationEdge(0, 0, 3),)


def test_build_graph_noise_items_excluded():
    face_labels = {"e0": 0, "e_noise": -1}
    speaker_labels = {"s0": 0, "s_noise": -1}
    pairs = [AVPair("t0", "s_noise", 1.0), AVPair("t_noise", "s0", 1.0)]
    track_to_entity = {"t0": "e0", "t_noise": "e_noise"}
    graph = build_graph(face_labels, speaker_labels, pairs, track_to_entity)
    assert graph.face_nodes == (0,)
    assert graph.speaker_nodes == (0,)
    assert graph.edges == ()


def test_build_graph_dangling_track():
    with pytest.raises(DanglingReference):
        build_graph({"e": 0}, {"s": 0}, [AVPair("ghost", "s", 1.0)], {})


# --- resolve_identities -------------------------------------------------------------

def test_resolve_single_bimodal_identity():
    graph = AssociationGraph((0,), (0,), (AssociationEdge(0, 0, 2),))
    identities = resolve_identities(graph, min_votes=1)
    assert len(identities) == 1
    assert identities[0].face_clusters == frozenset({0})
    assert identities[0].speaker_clusters == frozenset({0})
    assert identities[0].face_clusters and identities[0].speaker_clusters


def test_resolve_commentator_is_speaker_only():
    graph = AssociationGraph((0,), (0, 1), (AssociationEdge(0, 0, 1),))
    identities = resolve_identities(graph, min_votes=1)
    assert len(identities) == 2
    speaker_only = [c for c in identities if not c.face_clusters]
    assert len(speaker_only) == 1
    assert speaker_only[0].speaker_clusters == frozenset({1})


def test_resolve_chain_merges_two_faces():
    graph = AssociationGraph(
        (0, 1), (0,), (AssociationEdge(0, 0, 2), AssociationEdge(1, 0, 3))
    )
    identities = resolve_identities(graph, min_votes=1)
    assert len(identities) == 1
    assert identities[0].face_clusters == frozenset({0, 1})
    report = conflict_report(graph, identities)
    assert len(report) == 1
    assert report[0].face_clusters == (0, 1)
    assert len(report[0].edges) == 2


def test_resolve_below_threshold_edges_ignored():
    graph = AssociationGraph((0,), (0,), (AssociationEdge(0, 0, 1),))
    identities = resolve_identities(graph, min_votes=2)
    assert len(identities) == 2
    assert all(not (c.face_clusters and c.speaker_clusters) for c in identities)


def test_resolve_components_partition_nodes():
    graph = AssociationGraph(
        (0, 1, 2),
        (0, 1, 2, 3),
        (
            AssociationEdge(0, 0, 1),
            AssociationEdge(1, 1, 2),
            AssociationEdge(1, 2, 1),
        ),
    )
    identities = resolve_identities(graph, min_votes=1)
    seen_faces: set[int] = set()
    seen_speakers: set[int] = set()
    for component in identities:
        assert not (component.face_clusters & seen_faces)
        assert not (component.speaker_clusters & seen_speakers)
        seen_faces |= component.face_clusters
        seen_speakers |= component.speaker_clusters
    assert seen_faces == {0, 1, 2}
    assert seen_speakers == {0, 1, 2, 3}


def test_resolve_monotone_in_min_votes():
    graph = AssociationGraph(
        (0, 1),
        (0, 1),
        (AssociationEdge(0, 0, 3), AssociationEdge(1, 0, 1), AssociationEdge(1, 1, 2)),
    )
    sizes = {}
    for votes in (1, 2, 3, 4):
        comps = resolve_identities(graph, votes)
        sizes[votes] = sorted(
            len(c.face_clusters) + len(c.speaker_clusters) for c in comps
        )
    assert max(sizes[2]) <= max(sizes[1])
    assert max(sizes[3]) <= max(sizes[2])
    assert max(sizes[4]) <= max(sizes[3])


def test_resolve_edge_order_irrelevant():
    edges = (
        AssociationEdge(0, 0, 1),
        AssociationEdge(1, 1, 2),
        AssociationEdge(0, 1, 1),
    )
    base = resolve_identities(AssociationGraph((0, 1), (0, 1), edges))
    flipped = resolve_identities(AssociationGraph((0, 1), (0, 1), edges[::-1]))
    as_sets = lambda comps: {
        (frozenset(c.face_clusters), frozenset(c.speaker_clusters)) for c in comps
    }
    assert as_sets(base) == as_sets(flipped)
    # identity ids go by each component's smallest member, whatever the node order
    as_ids = lambda comps: [(c.identity_id, c.face_clusters, c.speaker_clusters) for c in comps]
    graph = AssociationGraph((0, 1, 2), (0, 1, 2), (AssociationEdge(2, 0, 1), AssociationEdge(0, 2, 1)))
    reversed_nodes = AssociationGraph(graph.face_nodes[::-1], graph.speaker_nodes[::-1], graph.edges)
    assert as_ids(resolve_identities(reversed_nodes)) == as_ids(resolve_identities(graph))


def identity_sets(comps):
    return {(frozenset(c.face_clusters), frozenset(c.speaker_clusters)) for c in comps}


def test_resolve_drops_a_one_vote_stray_edge():
    # face 0 mispaired once with speaker 1: the top edge of neither cluster
    stray = AssociationEdge(0, 1, 1)
    graph = AssociationGraph((0, 1), (0, 1), (AssociationEdge(0, 0, 5), stray, AssociationEdge(1, 1, 4)))
    assert stray not in kept_edges(graph)
    identities = resolve_identities(graph)
    assert identity_sets(identities) == {(frozenset({0}), frozenset({0})), (frozenset({1}), frozenset({1}))}
    assert conflict_report(graph, identities) == []


def test_resolve_face_identity_split_over_two_clusters_joins_its_speaker():
    # face 1's only edge is its top edge, though speaker 0's top edge is face 0's
    graph = AssociationGraph((0, 1), (0,), (AssociationEdge(0, 0, 5), AssociationEdge(1, 0, 2)))
    identities = resolve_identities(graph)
    assert identity_sets(identities) == {(frozenset({0, 1}), frozenset({0}))}
    [entry] = conflict_report(graph, identities)
    assert entry.edges == graph.edges


def test_resolve_keeps_every_tied_top_edge():
    # face 0 votes 3 and 3: both are its top edge, though speaker 1's top edge is face 1's
    tied = AssociationEdge(0, 1, 3)
    graph = AssociationGraph(
        (0, 1), (0, 1), (AssociationEdge(0, 0, 3), tied, AssociationEdge(1, 1, 5))
    )
    assert kept_edges(graph) == list(graph.edges)
    assert identity_sets(resolve_identities(graph)) == {(frozenset({0, 1}), frozenset({0, 1}))}
    # a tied top edge still needs min_votes
    assert kept_edges(graph, min_votes=4) == [AssociationEdge(1, 1, 5)]


def test_conflict_report_clean_cases():
    graph = AssociationGraph((0, 1), (0, 1), (AssociationEdge(0, 0, 1), AssociationEdge(1, 1, 1)))
    identities = resolve_identities(graph)
    assert conflict_report(graph, identities) == []

