"""Creator assignment and the directed channel-collaboration graph.

Channels are nodes. An edge A -> B labeled (identity, n) means the person
assigned to channel A as its content creator appeared in n distinct videos
of channel B. The per-video appearance events behind the edges are what the
evaluation counts as "collaborations".
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Dataset, Video
from .errors import InsufficientHistory


def build_appearance_index(
    ds: Dataset,
    components,
    entities,
    face_labels: dict[str, int],
    speaker_labels: dict[str, int],
) -> dict[int, dict[str, set[str]]]:
    """Where each resolved identity shows up, via either modality: identity -> {channel: video ids}."""
    entity_video = {e.entity_id: e.video_id for e in entities}
    by_face_cluster: dict[int, set[str]] = {}
    for entity_id, label in face_labels.items():
        if label != -1:
            by_face_cluster.setdefault(label, set()).add(entity_video[entity_id])
    by_speaker_cluster: dict[int, set[str]] = {}
    for segment_id, label in speaker_labels.items():
        if label != -1:
            by_speaker_cluster.setdefault(label, set()).add(ds.segments[segment_id].video_id)

    appearances: dict[int, dict[str, set[str]]] = {}
    for component in components:
        video_ids: set[str] = set()
        for face in component.face_clusters:
            video_ids |= by_face_cluster.get(face, set())
        for speaker in component.speaker_clusters:
            video_ids |= by_speaker_cluster.get(speaker, set())
        for video_id in video_ids:
            channels = appearances.setdefault(component.identity_id, {})
            channels.setdefault(ds.videos[video_id].channel_id, set()).add(video_id)
    return appearances


def assign_creators(appearances: dict[int, dict[str, set[str]]], videos: dict[str, Video]) -> dict[int, str]:
    """Assign each identity to the channel it appears on most.

    The creator channel is the one with the most distinct videos containing
    the identity. Ties go to the channel whose earliest appearance was
    published first, then to the lexicographically smaller channel id.
    videos maps each video id to its Video.
    """
    creators: dict[int, str] = {}
    for identity in sorted(appearances):
        best_key = None
        best_channel = None
        for channel, video_ids in appearances[identity].items():
            earliest = min(videos[v].published_at for v in video_ids)
            key = (-len(video_ids), earliest, channel)
            if best_key is None or key < best_key:
                best_key = key
                best_channel = channel
        creators[identity] = best_channel
    return creators


@dataclass(frozen=True)
class CollaborationEdge:
    from_channel: str
    to_channel: str
    identity_id: int
    video_ids: tuple[str, ...]


def detect_collaborations(
    appearances: dict[int, dict[str, set[str]]], creators: dict[int, str]
) -> list[CollaborationEdge]:
    """One edge per identity per foreign channel it appears on."""
    edges: list[CollaborationEdge] = []
    for identity in sorted(appearances):
        home = creators[identity]
        for channel, videos in sorted(appearances[identity].items()):
            if channel == home:
                continue
            edges.append(CollaborationEdge(home, channel, identity, tuple(sorted(videos))))
    edges.sort(key=lambda e: (e.from_channel, e.to_channel, e.identity_id))
    return edges


def collaboration_events(edges) -> set[tuple[str, str, str]]:
    """The (from, to, video) triples the edges assert."""
    events = set()
    for edge in edges:
        for video_id in edge.video_ids:
            events.add((edge.from_channel, edge.to_channel, video_id))
    return events


def graph_stats(edges, channels, ground_truth=None) -> dict[str, int]:
    """Node/edge/collaboration counts, scored against a truth set if given.

    Nodes are the given channels. ``ground_truth`` is a collection of
    (from_channel, to_channel, video_id) triples; a detected collaboration is
    correct only on an exact match, and the counts then also hold correct,
    incorrect and missed.
    """
    events = collaboration_events(edges)
    stats = {
        "node_count": len(set(channels)),
        "edge_count": len({(e.from_channel, e.to_channel) for e in edges}),
        "collaboration_count": len(events),
    }
    if ground_truth is not None:
        truth = {tuple(t) for t in ground_truth}
        stats.update(correct=len(events & truth), incorrect=len(events - truth), missed=len(truth - events))
    return stats


def growth_factor(videos, edges) -> float:
    """Mean relative view growth of collaboration videos over the rest.

    Growth per video is (last - first) / first over its view history. Per
    channel with at least one collaboration and one non-collaboration video
    carrying two or more samples, the two group means are divided; channels
    are then averaged. Channels lacking either group are skipped; with no
    usable channel at all this raises.
    """
    collab_videos = {video_id for edge in edges for video_id in edge.video_ids}
    per_channel: dict[str, tuple[list[float], list[float]]] = {}
    for video in videos:
        history = video.view_history
        if history is None or len(history) < 2:
            continue
        first = history[0][1]
        last = history[-1][1]
        if first <= 0:
            continue
        growth = (last - first) / first
        collab, plain = per_channel.setdefault(video.channel_id, ([], []))
        (collab if video.video_id in collab_videos else plain).append(growth)

    ratios = []
    for channel in sorted(per_channel):
        collab, plain = per_channel[channel]
        if not collab or not plain:
            continue
        plain_mean = sum(plain) / len(plain)
        if plain_mean == 0.0:
            continue
        ratios.append((sum(collab) / len(collab)) / plain_mean)
    if not ratios:
        raise InsufficientHistory(
            "no channel has both collaboration and non-collaboration view histories"
        )
    return sum(ratios) / len(ratios)


# --- exports ----------------------------------------------------------------------

def _dot_quote(text: str) -> str:
    """text as a DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def collab_graph_dot(ds: Dataset, edges) -> str:
    """Collaboration graph in DOT form.

    Channels show as "name (n videos)"; each edge is labeled with its
    identity and the number of videos behind it.
    """
    videos_per_channel: dict[str, int] = {c: 0 for c in ds.channels}
    for video in ds.videos.values():
        videos_per_channel[video.channel_id] = videos_per_channel.get(video.channel_id, 0) + 1

    lines = ["digraph collaborations {"]
    for channel_id in sorted(ds.channels):
        name = ds.channels[channel_id].name or channel_id
        count = videos_per_channel.get(channel_id, 0)
        label = _dot_quote(f"{name} ({count} videos)")
        lines.append(f"  {_dot_quote(channel_id)} [label={label}];")
    for edge in edges:
        source, target = _dot_quote(edge.from_channel), _dot_quote(edge.to_channel)
        label = _dot_quote(f"ID{edge.identity_id}, {len(edge.video_ids)}")
        lines.append(f"  {source} -> {target} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

