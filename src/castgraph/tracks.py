"""Face-track splitting, active-speaker pairing, and track merging."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .catalog import FRAME_RATE, AVPair, FaceTrack, SpeechSegment, unit_mean
from .distcluster import FALLBACK_EPS, HdbscanParams, cluster_groups, label_groups
from .distcluster import distance_matrix  # noqa: F401; perfbench's tracer test reads it here


# split piece lengths in frames; split keeps no stamp, so __version__ must change with them
MAX_PIECE_FRAMES = 50
MIN_PIECE_FRAMES = 25


@dataclass
class TrackEntity:
    """A group of track pieces resolved to one on-screen person."""

    entity_id: str
    video_id: str
    member_track_ids: tuple[str, ...]


def split_tracks_with_sources(tracks) -> tuple[list[FaceTrack], dict[str, str]]:
    """Cut tracks into pieces of at most MAX_PIECE_FRAMES, with a piece-id to source-track-id map.

    Pieces partition the parent frame range in order; each embedding follows
    its source frame into the piece that covers it. Pieces that end up shorter
    than MIN_PIECE_FRAMES, or with no embeddings at all, are dropped. The
    evaluation reads the map.
    """
    sources: dict[str, str] = {}
    out: list[FaceTrack] = []
    for track in sorted(tracks, key=lambda t: (t.video_id, t.start_frame, t.track_id)):
        starts = list(range(track.start_frame, track.end_frame + 1, MAX_PIECE_FRAMES))
        single = len(starts) == 1
        for k, piece_start in enumerate(starts):
            piece_end = min(piece_start + MAX_PIECE_FRAMES - 1, track.end_frame)
            if piece_end - piece_start + 1 < MIN_PIECE_FRAMES:
                continue
            keep = frame_rows(track, piece_start, piece_end)
            if not keep:
                continue
            piece_id = track.track_id if single else f"{track.track_id}#{k}"
            sources[piece_id] = track.track_id
            out.append(cut_piece(track, piece_id, piece_start, piece_end, keep))
    return out, sources


def frame_rows(track: FaceTrack, start_frame: int, end_frame: int) -> list[int]:
    """Indices of the track's embeddings whose source frame lies in [start_frame, end_frame]."""
    return [idx for idx, frame in enumerate(track.embedding_frames) if start_frame <= frame <= end_frame]


def cut_piece(track: FaceTrack, piece_id: str, start_frame: int, end_frame: int, rows) -> FaceTrack:
    """The piece of track over [start_frame, end_frame] keeping the given embedding rows."""
    return FaceTrack(
        track_id=piece_id,
        video_id=track.video_id,
        start_frame=start_frame,
        end_frame=end_frame,
        embeddings=track.embeddings[rows],
        embedding_frames=tuple(track.embedding_frames[i] for i in rows),
        speaker_confidence=track.speaker_confidence,
    )


def track_time_span(track: FaceTrack) -> tuple[float, float]:
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


def representative_embedding(track: FaceTrack) -> np.ndarray:
    """Normalized mean of the per-frame embeddings; order independent."""
    return unit_mean(track.embeddings)


def merge_tracks(
    tracks,
    params: HdbscanParams,
    eps: float = FALLBACK_EPS,
    representatives=None,
) -> list[TrackEntity]:
    """Cluster track pieces by face embedding and merge shared labels.

    Each piece is clustered by its representative_embedding, taken from
    representatives (piece id to vector) when the caller already has them.
    Merging is per video, all videos in one cluster_groups call. Tracks
    sharing a cluster label form one entity; noise tracks become singleton
    entities. Entities come back ordered by (video, first frame, first track
    id) and are labeled e0, e1, ... within their video.
    """
    ordered = sorted(tracks, key=lambda t: (t.video_id, t.start_frame, t.track_id))
    if not ordered:
        return []
    if representatives is None:
        representatives = {t.track_id: representative_embedding(t) for t in ordered}
    videos = [list(members) for _, members in groupby(ordered, key=lambda t: t.video_id)]
    reps = [np.stack([representatives[t.track_id] for t in members]) for members in videos]
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
