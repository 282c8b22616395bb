"""Creator assignment and the directed channel-collaboration graph.

Channels are nodes. An edge A -> B labeled (identity, n) means the person
assigned to channel A as its content creator appeared in n distinct videos
of channel B. The per-video appearance events behind the edges are what the
evaluation counts as "collaborations".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from .catalog import Dataset, Video
from .errors import InsufficientHistory


@dataclass
class AppearanceIndex:
    """Distinct videos per identity and channel, plus video metadata for ties."""

    appearances: dict[int, dict[str, set[str]]] = field(default_factory=dict)
    videos: dict[str, Video] = field(default_factory=dict)

    def add(self, identity_id: int, video: Video) -> None:
        channels = self.appearances.setdefault(identity_id, {})
        channels.setdefault(video.channel_id, set()).add(video.video_id)
        self.videos[video.video_id] = video

    def identities(self) -> list[int]:
        return sorted(self.appearances)

    def channels_of(self, identity_id: int) -> dict[str, set[str]]:
        return self.appearances.get(identity_id, {})


def build_appearance_index(
    ds: Dataset,
    components,
    entities,
    face_labels: dict[str, int],
    speaker_labels: dict[str, int],
) -> AppearanceIndex:
    """Record where each resolved identity shows up, via either modality."""
    entity_video = {e.entity_id: e.video_id for e in entities}
    by_face_cluster: dict[int, set[str]] = {}
    for entity_id, label in face_labels.items():
        if label != -1:
            by_face_cluster.setdefault(label, set()).add(entity_video[entity_id])
    by_speaker_cluster: dict[int, set[str]] = {}
    for segment_id, label in speaker_labels.items():
        if label != -1:
            by_speaker_cluster.setdefault(label, set()).add(ds.segments[segment_id].video_id)

    index = AppearanceIndex()
    for component in components:
        video_ids: set[str] = set()
        for face in component.face_clusters:
            video_ids |= by_face_cluster.get(face, set())
        for speaker in component.speaker_clusters:
            video_ids |= by_speaker_cluster.get(speaker, set())
        for video_id in video_ids:
            index.add(component.identity_id, ds.videos[video_id])
    return index


def assign_creators(index: AppearanceIndex) -> dict[int, str]:
    """Assign each identity to the channel it appears on most.

    The creator channel is the one with the most distinct videos containing
    the identity. Ties go to the channel whose earliest appearance was
    published first, then to the lexicographically smaller channel id.
    """
    creators: dict[int, str] = {}
    for identity in index.identities():
        best_key = None
        best_channel = None
        for channel, videos in index.channels_of(identity).items():
            earliest: datetime = min(index.videos[v].published_at for v in videos)
            key = (-len(videos), earliest, channel)
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


def detect_collaborations(index: AppearanceIndex, creators: dict[int, str]) -> list[CollaborationEdge]:
    """One edge per identity per foreign channel it appears on."""
    edges: list[CollaborationEdge] = []
    for identity in index.identities():
        home = creators[identity]
        for channel, videos in sorted(index.channels_of(identity).items()):
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


@dataclass
class GraphStats:
    node_count: int
    edge_count: int
    collaboration_count: int
    correct: int | None = None
    incorrect: int | None = None
    missed: int | None = None

    def to_json(self) -> dict:
        out = {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "collaboration_count": self.collaboration_count,
        }
        if self.correct is not None:
            out.update(correct=self.correct, incorrect=self.incorrect, missed=self.missed)
        return out


def graph_stats(edges, channels=(), ground_truth=None) -> GraphStats:
    """Node/edge/collaboration counts, scored against a truth set if given.

    ``ground_truth`` is a collection of (from_channel, to_channel, video_id)
    triples; a detected collaboration is correct only on an exact match.
    Nodes are all known channels, or the channels touched by edges when no
    channel list is supplied.
    """
    nodes = set(channels)
    if not nodes:
        for edge in edges:
            nodes.add(edge.from_channel)
            nodes.add(edge.to_channel)
    pairs = {(e.from_channel, e.to_channel) for e in edges}
    events = collaboration_events(edges)
    stats = GraphStats(len(nodes), len(pairs), len(events))
    if ground_truth is not None:
        truth = {tuple(t) for t in ground_truth}
        stats.correct = len(events & truth)
        stats.incorrect = len(events - truth)
        stats.missed = len(truth - events)
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

