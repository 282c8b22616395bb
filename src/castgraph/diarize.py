"""Per-video speaker clustering over voice-activity segments."""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import SpeechSegment
from .distcluster import FALLBACK_EPS, HdbscanParams, cluster_groups
from .distcluster import distance_matrix  # noqa: F401; perfbench's tracer test reads it here
from .errors import NoSegments

DEFAULT_MIN_SEGMENT_S = 1.0


@dataclass(frozen=True)
class RejectedSegment:
    segment_id: str
    reason: str  # TooShort or NoEmbedding


def filter_segments(
    segments, min_duration_s: float = DEFAULT_MIN_SEGMENT_S
) -> tuple[list[SpeechSegment], list[RejectedSegment]]:
    """Keep segments long enough to carry a usable speaker embedding.

    The duration bound is inclusive: a segment of exactly min_duration_s
    passes. Everything else lands in the rejection list with a reason.
    """
    kept: list[SpeechSegment] = []
    rejected: list[RejectedSegment] = []
    for segment in segments:
        if segment.duration_s < min_duration_s:
            rejected.append(RejectedSegment(segment.segment_id, "TooShort"))
        elif segment.embedding is None:
            rejected.append(RejectedSegment(segment.segment_id, "NoEmbedding"))
        else:
            kept.append(segment)
    return kept, rejected


def diarize_video(videos, params: HdbscanParams, eps: float = FALLBACK_EPS) -> list[dict[str, int]]:
    """Cluster each video's retained segments into speaker labels.

    videos holds one list of retained segments per video. Every video is
    clustered on its own, all of them in one cluster_groups call. Returns
    one segment_id -> label dict per video, in order, each in segment start
    order; -1 marks a segment left as noise.
    """
    ordered = [sorted(segments, key=lambda s: (s.start_s, s.segment_id)) for segments in videos]
    if not all(ordered):
        raise NoSegments("no retained segments to diarize")
    clustered = cluster_groups([[s.embedding for s in segments] for segments in ordered], params, eps)
    return [
        {s.segment_id: int(l) for s, l in zip(segments, labels.labels)}
        for segments, (labels, _) in zip(ordered, clustered, strict=True)
    ]


@dataclass(frozen=True)
class ReconciledSegment:
    segment_id: str
    speaker_label: int
    paired_track_id: str | None = None
    pair_confidence: float | None = None


def reconcile(labels: dict[str, int], av_pairs) -> list[ReconciledSegment]:
    """Attach active-speaker pairings on top of diarization labels.

    A segment claimed by an AV pair keeps that pairing alongside its label.
    When several pairs claim one segment the most confident one wins
    (earlier track id on ties). No stage calls it: the bridge joins pairs to
    entities itself. It stays while perfbench's tracer hooks it.
    """
    best_pair: dict[str, tuple[float, str]] = {}
    for pair in av_pairs:
        if pair.segment_id not in labels:
            continue
        key = (-pair.confidence, pair.track_id)
        if pair.segment_id not in best_pair or key < best_pair[pair.segment_id]:
            best_pair[pair.segment_id] = key
    out = []
    for segment_id in sorted(labels):
        if segment_id in best_pair:
            neg_conf, track_id = best_pair[segment_id]
            out.append(ReconciledSegment(segment_id, labels[segment_id], track_id, -neg_conf))
        else:
            out.append(ReconciledSegment(segment_id, labels[segment_id]))
    return out
