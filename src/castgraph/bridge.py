"""Cross-modal identity resolution.

Face clusters and speaker clusters are nodes of a bipartite association
graph; every AV pair whose track landed in a face cluster and whose segment
landed in a speaker cluster casts one vote on the edge between them.
Connected components over the kept edges (:func:`kept_edges`: enough votes,
and the top-voted edge of one of its two clusters, the only one at one vote)
are the resolved identities: a component with both modalities is a person
seen and heard, a bare speaker cluster is an off-screen voice, a bare face
cluster someone who never speaks on camera. The components come from the union-find of the flat
clustering, :func:`distcluster.union`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distcluster import union
from .errors import DanglingReference


@dataclass(frozen=True)
class AssociationEdge:
    face: int  # face cluster
    speaker: int  # speaker cluster
    votes: int


@dataclass
class AssociationGraph:
    face_nodes: tuple[int, ...]
    speaker_nodes: tuple[int, ...]
    edges: tuple[AssociationEdge, ...]


@dataclass
class IdentityComponent:
    identity_id: int
    face_clusters: frozenset[int]
    speaker_clusters: frozenset[int]


def build_graph(
    face_labels: dict[str, int],
    speaker_labels: dict[str, int],
    av_pairs,
    track_to_entity: dict[str, str],
) -> AssociationGraph:
    """Aggregate AV-pair votes between face and speaker clusters.

    ``face_labels`` maps entity ids to global face cluster labels and
    ``speaker_labels`` maps segment ids to global speaker cluster labels;
    noise items (label -1) contribute no nodes and no votes.
    """
    face_nodes = tuple(sorted({l for l in face_labels.values() if l != -1}))
    speaker_nodes = tuple(sorted({l for l in speaker_labels.values() if l != -1}))

    votes: dict[tuple[int, int], int] = {}
    for pair in av_pairs:
        entity_id = track_to_entity.get(pair.track_id)
        if entity_id is None:
            raise DanglingReference(f"av pair track {pair.track_id!r} has no entity")
        if entity_id not in face_labels:
            raise DanglingReference(f"entity {entity_id!r} missing from face labels")
        if pair.segment_id not in speaker_labels:
            raise DanglingReference(f"segment {pair.segment_id!r} missing from speaker labels")
        face = face_labels[entity_id]
        speaker = speaker_labels[pair.segment_id]
        if face == -1 or speaker == -1:
            continue
        votes[(face, speaker)] = votes.get((face, speaker), 0) + 1

    edges = tuple(
        AssociationEdge(face, speaker, count)
        for (face, speaker), count in sorted(votes.items())
    )
    return AssociationGraph(face_nodes, speaker_nodes, edges)


def kept_edges(graph: AssociationGraph, min_votes: int = 1) -> list[AssociationEdge]:
    """Edges with at least min_votes votes that are the top-voted edge of their
    face cluster or of their speaker cluster; tied top edges are all kept,
    except at one vote, where a cluster's top edge must be its only edge.

    A stray vote from one mispaired segment then cannot join two identities,
    while a person split over two face clusters still joins their voice. Nor
    can a stray cluster with one vote to each of two people, such as a
    speaker that diarization made of two people's segments.
    """
    votes: dict[tuple[str, int], list[int]] = {}
    for e in graph.edges:
        votes.setdefault(("face", e.face), []).append(e.votes)
        votes.setdefault(("speaker", e.speaker), []).append(e.votes)
    # each cluster's top vote count, or 0 (no edge's) when its top is a tie at one vote
    top = {end: max(v) if max(v) > 1 or len(v) == 1 else 0 for end, v in votes.items()}
    return [
        e
        for e in graph.edges
        if e.votes >= min_votes and e.votes in (top["face", e.face], top["speaker", e.speaker])
    ]


def resolve_identities(graph: AssociationGraph, min_votes: int = 1) -> list[IdentityComponent]:
    """Connected components over the kept edges (see kept_edges).

    Clusters left isolated (including by the vote rule) become
    single-modality identities. Identity ids are assigned in ascending order
    of each component's smallest member, faces ordering before speakers.
    """
    if min_votes < 1:
        raise ValueError("min_votes must be >= 1")
    # sorted, so each component's root, its smallest index, is its smallest member
    nodes = sorted({("face", f) for f in graph.face_nodes} | {("speaker", s) for s in graph.speaker_nodes})
    index = {node: k for k, node in enumerate(nodes)}
    kept = kept_edges(graph, min_votes)
    ends = np.array([(index["face", e.face], index["speaker", e.speaker]) for e in kept], dtype=np.int64)
    parent = np.arange(len(nodes))
    union(parent, *ends.reshape(-1, 2).T)

    members: dict[int, dict[str, set[int]]] = {}
    for (kind, cluster), root in zip(nodes, parent.tolist()):
        members.setdefault(root, {"face": set(), "speaker": set()})[kind].add(cluster)
    return [
        IdentityComponent(k, frozenset(m["face"]), frozenset(m["speaker"])) for k, m in enumerate(members.values())
    ]


@dataclass(frozen=True)
class ConflictEntry:
    identity_id: int
    face_clusters: tuple[int, ...]
    speaker_clusters: tuple[int, ...]
    edges: tuple[AssociationEdge, ...]  # the kept edges that merged them


def conflict_report(
    graph: AssociationGraph, components: list[IdentityComponent], min_votes: int = 1
) -> list[ConflictEntry]:
    """Components that merged several clusters of one modality, with the kept edges that merged them."""
    kept = kept_edges(graph, min_votes)
    report = []
    for component in components:
        if len(component.face_clusters) <= 1 and len(component.speaker_clusters) <= 1:
            continue
        edges = tuple(
            e
            for e in kept
            if e.face in component.face_clusters and e.speaker in component.speaker_clusters
        )
        report.append(
            ConflictEntry(
                component.identity_id,
                tuple(sorted(component.face_clusters)),
                tuple(sorted(component.speaker_clusters)),
                edges,
            )
        )
    return report
