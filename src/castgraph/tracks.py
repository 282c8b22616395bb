"""Face-track splitting, active-speaker pairing, and track merging.

A split piece keeps its frame range and one vector, its representative (the
unit mean of the track rows it covers), and no rows; merge and the global
face clustering read only that vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .catalog import FRAME_RATE, AVPair, SpeechSegment, unit_mean
from .distcluster import HdbscanParams, cluster_groups, label_groups
from .distcluster import distance_matrix  # noqa: F401; perfbench's tracer test reads it here


# split piece lengths in frames; split keeps no stamp, so __version__ must change with them
MAX_PIECE_FRAMES = 50
MIN_PIECE_FRAMES = 25


@dataclass(eq=False)
class TrackPiece:
    """A split piece of a face track: its frame range, and the one vector it is clustered by."""

    track_id: str
    video_id: str
    start_frame: int
    end_frame: int
    speaker_confidence: float | None
    representative: np.ndarray  # unit_mean of the covered track rows, (face_dim,) float32


@dataclass
class TrackEntity:
    """A group of track pieces resolved to one on-screen person."""

    entity_id: str
    video_id: str
    member_track_ids: tuple[str, ...]


def split_tracks_with_sources(tracks) -> tuple[list[TrackPiece], dict[str, str]]:
    """Cut tracks into pieces of at most MAX_PIECE_FRAMES, with a piece-id to source-track-id map.

    Pieces partition the parent frame range in order; each piece's
    representative is the unit_mean of the track rows whose source frames it
    covers, and it keeps no rows. Pieces that end up shorter than
    MIN_PIECE_FRAMES, or with no rows at all, are dropped; rows that cancel
    to a zero mean raise ZeroVector. A piece is named ``id``, or ``id#k`` as the
    k-th of several; an id minted twice raises ValueError. The evaluation reads the map.
    """
    sources: dict[str, str] = {}
    out: list[TrackPiece] = []
    for track in sorted(tracks, key=lambda t: (t.video_id, t.start_frame, t.track_id)):
        starts = list(range(track.start_frame, track.end_frame + 1, MAX_PIECE_FRAMES))
        single = len(starts) == 1
        for k, piece_start in enumerate(starts):
            piece_end = min(piece_start + MAX_PIECE_FRAMES - 1, track.end_frame)
            if piece_end - piece_start + 1 < MIN_PIECE_FRAMES:
                continue
            rows = [i for i, frame in enumerate(track.embedding_frames) if piece_start <= frame <= piece_end]
            if not rows:
                continue
            piece_id = track.track_id if single else f"{track.track_id}#{k}"
            if piece_id in sources:
                raise ValueError(f"tracks {sources[piece_id]!r} and {track.track_id!r} share the piece id {piece_id!r}")
            sources[piece_id] = track.track_id
            out.append(TrackPiece(piece_id, track.video_id, piece_start, piece_end,
                                  track.speaker_confidence, unit_mean(track.embeddings[rows])))
    return out, sources


def track_time_span(track: TrackPiece) -> tuple[float, float]:
    # frame f covers [f/25, (f+1)/25) seconds
    return track.start_frame / FRAME_RATE, (track.end_frame + 1) / FRAME_RATE


def _overlap(a_start, a_end, b_start, b_end) -> float:
    return max(0.0, min(a_end, b_end) - max(a_start, b_start))


def assign_active_speakers(tracks, segments, conf_threshold: float) -> list[AVPair]:
    """Pair each confidently speaking track with its best-covered segment.

    A track qualifies when it carries a speaker confidence at or above
    conf_threshold and covers at least half of some speech segment. Each track
    emits at most one pair: the segment with the largest overlap wins, ties
    going to the earlier segment start.
    """
    by_video: dict[str, list[SpeechSegment]] = {}
    for segment in segments:
        by_video.setdefault(segment.video_id, []).append(segment)
    for video_segments in by_video.values():
        video_segments.sort(key=lambda s: (s.start_s, s.segment_id))

    pairs: list[AVPair] = []
    for track in sorted(tracks, key=lambda t: (t.video_id, t.start_frame, t.track_id)):
        conf = track.speaker_confidence
        if conf is None or conf < conf_threshold:
            continue
        t_start, t_end = track_time_span(track)
        best: tuple[float, float, str] | None = None
        best_segment = None
        for segment in by_video.get(track.video_id, []):
            overlap = _overlap(t_start, t_end, segment.start_s, segment.end_s)
            if overlap < 0.5 * segment.duration_s:
                continue
            key = (-overlap, segment.start_s, segment.segment_id)
            if best is None or key < best:
                best = key
                best_segment = segment
        if best_segment is not None:
            pairs.append(AVPair(track.track_id, best_segment.segment_id, conf))
    return pairs


def merge_tracks(pieces, params: HdbscanParams, eps: float) -> list[TrackEntity]:
    """Cluster track pieces by their representatives and merge shared labels.

    Merging is per video, all videos in one cluster_groups call. Pieces
    sharing a cluster label form one entity; noise pieces become singleton
    entities. Entities come back ordered by (video, first frame, first piece
    id) and are labeled e0, e1, ... within their video.
    """
    ordered = sorted(pieces, key=lambda p: (p.video_id, p.start_frame, p.track_id))
    if not ordered:
        return []
    videos = [list(members) for _, members in groupby(ordered, key=lambda p: p.video_id)]
    reps = [np.stack([p.representative for p in members]) for members in videos]
    clustered = cluster_groups(reps, params, eps)

    entities: list[TrackEntity] = []
    for members, (labels, _) in zip(videos, clustered):
        video_id = members[0].video_id
        for seq, idxs in enumerate(label_groups(labels)):
            entities.append(
                TrackEntity(
                    entity_id=f"{video_id}/e{seq}",
                    video_id=video_id,
                    member_track_ids=tuple(members[i].track_id for i in idxs),
                )
            )
    return entities
