"""Deterministic synthetic datasets with known ground truth.

Embeddings are sampled on the unit sphere: each identity owns one face
centroid and one speaker centroid, and every observation is the centroid
rotated by an angle drawn uniformly from [0, angular_noise_deg] about a
random orthogonal direction. Cosine distance depends only on angles, so the
noise level reads directly as expected pairwise distance. The RNG is numpy's
PCG64; one seed fixes the dataset byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .catalog import (
    DEFAULT_FACE_DIM,
    DEFAULT_SPEAKER_DIM,
    FRAME_RATE,
    Channel,
    Dataset,
    FaceTrack,
    SpeechSegment,
    Video,
    from_plain,
    json_document,
    load_json,
)
from .errors import InfeasibleConfig, MalformedRecord

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
BASE_VIEWS = 10_000  # every video's first view count; a planted video ends at BASE_VIEWS + round(BASE_VIEWS * ratio)
MAX_VIEWS = 2**63 - 1  # a view count is a 64-bit int


@dataclass(frozen=True)
class SynthConfig:
    n_channels: int = 9
    n_videos: int = 72
    n_identities: int = 9
    face_dim: int = DEFAULT_FACE_DIM
    speaker_dim: int = DEFAULT_SPEAKER_DIM
    angular_noise_deg: float = 0.0
    offscreen_speaker_fraction: float = 0.0
    collaboration_rate: float = 0.0
    planted_growth_ratio: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.n_channels, self.n_videos, self.n_identities, self.face_dim, self.speaker_dim) < 1:
            raise InfeasibleConfig("channels, videos, identities and both dimensions must all be positive")
        if not 0.0 <= self.offscreen_speaker_fraction <= 1.0:
            raise InfeasibleConfig("offscreen_speaker_fraction must be in [0, 1]")
        if not 0.0 <= self.collaboration_rate <= 1.0:
            raise InfeasibleConfig("collaboration_rate must be in [0, 1]")
        if not 0.0 <= self.angular_noise_deg < math.inf:
            raise InfeasibleConfig("angular_noise_deg must be finite and >= 0")
        if self.angular_noise_deg > 0.0 and min(self.face_dim, self.speaker_dim) < 2:
            raise InfeasibleConfig("angular noise needs both dimensions >= 2: a 1-d vector has no axis to turn about")
        if not 0.0 <= BASE_VIEWS * (self.planted_growth_ratio or 0.0) <= MAX_VIEWS - BASE_VIEWS:
            raise InfeasibleConfig("planted_growth_ratio must be >= 0 and keep every view count a 64-bit int")
        # homes and videos both go round-robin over channels, so every home
        # channel gets a video exactly when there are this many videos
        if self.n_videos < min(self.n_identities, self.n_channels):
            raise InfeasibleConfig(
                f"{self.n_videos} videos cannot host {self.n_identities} identities"
                f" on {self.n_channels} channels: each home channel needs a video"
            )


@dataclass
class GroundTruth:
    identity_homes: dict[int, str] = field(default_factory=dict)
    track_identity: dict[str, int] = field(default_factory=dict)
    segment_identity: dict[str, int] = field(default_factory=dict)
    video_identities: dict[str, list[int]] = field(default_factory=dict)
    video_hosts: dict[str, int | None] = field(default_factory=dict)
    # (from_channel, to_channel, video_id, identity)
    planted_events: list[tuple[str, str, str, int]] = field(default_factory=list)
    offscreen_videos: list[str] = field(default_factory=list)
    planted_growth_ratio: float | None = None

    def event_triples(self) -> set[tuple[str, str, str]]:
        return {(a, b, v) for a, b, v, _ in self.planted_events}

    def save(self, path) -> None:
        Path(path).write_bytes(json_document(self))

    @classmethod
    def load(cls, path) -> "GroundTruth":
        """Read a saved ground truth; raises MissingFile or MalformedRecord."""
        try:
            return from_plain(cls, load_json(Path(path)))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(path, 0, f"bad ground truth: {exc!r}") from exc


# --- sphere sampling ----------------------------------------------------------

def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def rotate_within(rng: np.random.Generator, centroid: np.ndarray, max_angle_deg: float) -> np.ndarray:
    """Rotate the centroid by a uniform angle about a random orthogonal axis."""
    if max_angle_deg == 0.0:
        return centroid.copy()
    angle = math.radians(rng.uniform(0.0, max_angle_deg))
    while True:
        raw = rng.standard_normal(centroid.shape[0])
        ortho = raw - np.dot(raw, centroid) * centroid
        norm = np.linalg.norm(ortho)
        if norm > 1e-12:
            ortho /= norm
            break
    rotated = math.cos(angle) * centroid + math.sin(angle) * ortho
    return rotated / np.linalg.norm(rotated)


# --- dataset generation ----------------------------------------------------------

def _onscreen_allocation(per_channel_videos: dict[str, list[str]], n_onscreen: int) -> set[str]:
    """Pick which videos show faces: never exactly one per channel.

    A channel with a single on-screen appearance of its creator would put a
    lone face point into the global clustering, which density clustering
    cannot keep apart from its nearest blob; zero or at-least-two keeps the
    ground truth recoverable. So the first n_onscreen // 2 channels, in
    sorted order, with two videos or more each show their first two, and
    their later videos, in the same order, fill what is left.
    """
    shown = [videos for _, videos in sorted(per_channel_videos.items()) if len(videos) >= 2][: n_onscreen // 2]
    firsts = [video for videos in shown for video in videos[:2]]
    later = [video for videos in shown for video in videos[2:]]
    return set((firsts + later)[:n_onscreen])


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Build a dataset and the ground truth that a perfect pipeline recovers.

    Every identity hosts the videos of its home channel; collaborations plant
    a guest from another channel into a video. On-screen appearances emit a
    face track with per-frame embeddings and speaker confidence 1.0, and a
    co-timed speech segment; off-screen appearances emit speech segments
    only. The same seed always produces the identical dataset.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    ds = Dataset(face_dim=cfg.face_dim, speaker_dim=cfg.speaker_dim)
    truth = GroundTruth(planted_growth_ratio=cfg.planted_growth_ratio)

    channel_ids = [f"ch{idx:02d}" for idx in range(cfg.n_channels)]
    for idx, channel_id in enumerate(channel_ids):
        ds.channels[channel_id] = Channel(channel_id, f"Channel {idx:02d}")

    face_centroids = {i: random_unit(rng, cfg.face_dim) for i in range(cfg.n_identities)}
    voice_centroids = {i: random_unit(rng, cfg.speaker_dim) for i in range(cfg.n_identities)}
    truth.identity_homes = {i: channel_ids[i % cfg.n_channels] for i in range(cfg.n_identities)}

    # videos round-robin over channels; host identity round-robin per channel
    channel_of = {f"v{idx:04d}": channel_ids[idx % cfg.n_channels] for idx in range(cfg.n_videos)}
    per_channel_videos: dict[str, list[str]] = {c: [] for c in channel_ids}
    for video_id, channel_id in channel_of.items():
        per_channel_videos[channel_id].append(video_id)
    hosts: dict[str, int | None] = {}
    for c, (channel_id, videos) in enumerate(per_channel_videos.items()):
        owners = range(c, cfg.n_identities, cfg.n_channels)
        for k, video_id in enumerate(videos):
            hosts[video_id] = owners[k % len(owners)] if owners else None

    n_onscreen = cfg.n_videos - round(cfg.offscreen_speaker_fraction * cfg.n_videos)
    hosted = {c: [v for v in vids if hosts[v] is not None] for c, vids in per_channel_videos.items()}
    onscreen = _onscreen_allocation(hosted, n_onscreen)
    truth.offscreen_videos = sorted(v for v in channel_of if v not in onscreen)

    # plant collaborations: at most one guest per video, never tipping the
    # guest's appearance count on a foreign channel up to its home count
    n_collab = round(cfg.collaboration_rate * cfg.n_videos)
    home_counts = Counter(hosts.values())
    foreign_counts: dict[tuple[int, str], int] = {}
    guests: dict[str, int] = {}
    video_order = list(channel_of)
    rng.shuffle(video_order)
    rotation = 0
    for video_id in video_order:
        if len(guests) == n_collab:
            break
        host_channel = channel_of[video_id]
        for offset in range(cfg.n_identities):
            identity = (rotation + offset) % cfg.n_identities
            home = truth.identity_homes[identity]
            if home == host_channel:
                continue
            used = foreign_counts.get((identity, host_channel), 0)
            if used + 1 >= home_counts[identity]:
                continue
            guests[video_id] = identity
            foreign_counts[(identity, host_channel)] = used + 1
            rotation = identity + 1
            break
    if len(guests) < n_collab:
        raise InfeasibleConfig(
            f"could only plant {len(guests)} of {n_collab} collaborations"
        )

    def speak(video_id: str, segment_id: str, start_s: float, end_s: float, identity: int) -> None:
        voice = rotate_within(rng, voice_centroids[identity], cfg.angular_noise_deg)
        ds.segments[segment_id] = SpeechSegment(segment_id, video_id, start_s, end_s, voice.astype(np.float32))
        truth.segment_identity[segment_id] = identity

    def emit_onscreen(video_id: str, identity: int, slot: int) -> None:
        base_frame = 25 + slot * 150
        length = int(rng.integers(26, 51))
        track_id = f"{video_id}/t{slot}"
        frames = (base_frame, base_frame + 25)
        # one observation per track: frames of a two-second face track are
        # near-duplicates, so noise is drawn across tracks, not within one
        face = rotate_within(rng, face_centroids[identity], cfg.angular_noise_deg)
        emb = np.tile(face.astype(np.float32), (len(frames), 1))
        ds.tracks[track_id] = FaceTrack(
            track_id=track_id,
            video_id=video_id,
            start_frame=base_frame,
            end_frame=base_frame + length - 1,
            embeddings=emb,
            embedding_frames=frames,
            speaker_confidence=1.0,
        )
        truth.track_identity[track_id] = identity
        speak(video_id, f"{video_id}/s{slot}", base_frame / FRAME_RATE, (base_frame + length) / FRAME_RATE, identity)

    def emit_voice_only(video_id: str, identity: int, slot: int) -> None:
        base_s = 1.0 + slot * 6.0
        for part in range(2):
            start_s = base_s + part * 2.5
            speak(video_id, f"{video_id}/s{slot}.{part}", start_s, start_s + 2.0, identity)

    for idx, (video_id, channel_id) in enumerate(channel_of.items()):
        published = EPOCH + timedelta(days=idx)
        history = None
        guest = guests.get(video_id)
        if cfg.planted_growth_ratio is not None:
            growth = cfg.planted_growth_ratio if guest is not None else 1.0
            final = BASE_VIEWS + round(BASE_VIEWS * growth)
            history = ((published, BASE_VIEWS), (published + timedelta(days=30), final))
        ds.videos[video_id] = Video(video_id, channel_id, published, history)
        host = hosts[video_id]
        emit = emit_onscreen if video_id in onscreen else emit_voice_only
        for slot, identity in enumerate((host, guest)):
            if identity is not None:
                emit(video_id, identity, slot)
        if guest is not None:
            truth.planted_events.append((truth.identity_homes[guest], channel_id, video_id, guest))
        truth.video_identities[video_id] = sorted({host, guest} - {None})
        truth.video_hosts[video_id] = host
    truth.planted_events.sort()
    return ds, truth


def check_corruption(dropout_rate: float, confidence_noise: float) -> None:
    """Raise ValueError unless corrupt can run: numpy draws a confidence shift only while 2 * noise is finite."""
    if not (0.0 <= dropout_rate <= 1.0 and 0.0 <= confidence_noise and math.isfinite(2 * confidence_noise)):
        raise ValueError("dropout_rate must be in [0, 1], and confidence_noise >= 0 with 2 * confidence_noise finite")


def corrupt(
    ds: Dataset, dropout_rate: float, confidence_noise: float, seed: int = 0
) -> Dataset:
    """Drop embeddings and jitter speaker confidences, reproducibly.

    Each face embedding row and each segment embedding is dropped
    independently with probability dropout_rate; a track that loses every row
    disappears. Speaker confidences shift by a uniform draw from
    [-confidence_noise, +confidence_noise], clipped to [0, 1]. The input
    dataset is never mutated.
    """
    check_corruption(dropout_rate, confidence_noise)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = Dataset(face_dim=ds.face_dim, speaker_dim=ds.speaker_dim)
    out.channels = dict(ds.channels)
    out.videos = dict(ds.videos)

    for track_id in sorted(ds.tracks):
        track = ds.tracks[track_id]
        keep = [i for i in range(track.embeddings.shape[0]) if rng.random() >= dropout_rate]
        if not keep:
            continue
        conf = track.speaker_confidence
        if conf is not None and confidence_noise > 0.0:
            conf = float(np.clip(conf + rng.uniform(-confidence_noise, confidence_noise), 0.0, 1.0))
        out.tracks[track_id] = replace(
            track,
            embeddings=track.embeddings[keep],
            embedding_frames=tuple(track.embedding_frames[i] for i in keep),
            speaker_confidence=conf,
        )

    for segment_id in sorted(ds.segments):
        segment = ds.segments[segment_id]
        embedding = segment.embedding
        if embedding is not None and rng.random() < dropout_rate:
            embedding = None
        out.segments[segment_id] = replace(
            segment, embedding=None if embedding is None else embedding.copy()
        )
    return out
