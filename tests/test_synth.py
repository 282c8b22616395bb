"""Generator determinism, ground-truth shape, and corruption."""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from castgraph.catalog import validate, write
from castgraph.errors import InfeasibleConfig
from castgraph.synth import GroundTruth, SynthConfig, corrupt, generate

TABLE_CFG = SynthConfig(
    n_channels=9,
    n_videos=72,
    n_identities=9,
    face_dim=64,
    speaker_dim=48,
    angular_noise_deg=0.0,
    offscreen_speaker_fraction=47 / 72,
    collaboration_rate=34 / 72,
    planted_growth_ratio=1.34,
    rng_seed=7,
)


@pytest.fixture(scope="module")
def table_dataset():
    return generate(TABLE_CFG)


def test_zero_noise_embeddings_equal_centroids(table_dataset):
    ds, truth = table_dataset
    by_identity = {}
    for track_id, identity in truth.track_identity.items():
        vec = ds.tracks[track_id].embeddings[0]
        by_identity.setdefault(identity, []).append(vec)
    for vectors in by_identity.values():
        for v in vectors[1:]:
            assert np.array_equal(v, vectors[0])


def test_dataset_is_valid(table_dataset):
    ds, _ = table_dataset
    assert validate(ds) == []


def test_table_row_shape(table_dataset):
    ds, truth = table_dataset
    assert len(ds.channels) == 9
    assert len(ds.videos) == 72
    assert len(truth.offscreen_videos) == 47
    assert len(truth.planted_events) == 34
    assert len(truth.event_triples()) == 34
    # offscreen-only videos carry no tracks
    tracked_videos = {t.video_id for t in ds.tracks.values()}
    assert not tracked_videos & set(truth.offscreen_videos)
    # every channel is a node, every guest comes from a foreign channel
    for from_channel, to_channel, video_id, identity in truth.planted_events:
        assert from_channel != to_channel
        assert ds.videos[video_id].channel_id == to_channel
        assert truth.identity_homes[identity] == from_channel


def test_onscreen_counts_never_one(table_dataset):
    ds, truth = table_dataset
    per_identity_entities: dict[int, int] = {}
    for track_id, identity in truth.track_identity.items():
        per_identity_entities[identity] = per_identity_entities.get(identity, 0) + 1
    for identity, count in per_identity_entities.items():
        assert count != 1
    per_identity_segments: dict[int, int] = {}
    for segment_id, identity in truth.segment_identity.items():
        per_identity_segments[identity] = per_identity_segments.get(identity, 0) + 1
    for count in per_identity_segments.values():
        assert count >= 2


def test_home_appearances_dominate(table_dataset):
    ds, truth = table_dataset
    per_identity_channel: dict[int, dict[str, set]] = {}
    for video_id, identities in truth.video_identities.items():
        channel = ds.videos[video_id].channel_id
        for identity in identities:
            per_identity_channel.setdefault(identity, {}).setdefault(channel, set()).add(video_id)
    for identity, channels in per_identity_channel.items():
        home = truth.identity_homes[identity]
        home_count = len(channels.get(home, ()))
        for channel, videos in channels.items():
            if channel != home:
                assert len(videos) < home_count


def test_same_seed_identical_bytes(tmp_path):
    ds1, t1 = generate(TABLE_CFG)
    ds2, t2 = generate(TABLE_CFG)
    write(ds1, tmp_path / "a")
    write(ds2, tmp_path / "b")
    t1.save(tmp_path / "a" / "ground_truth.json")
    t2.save(tmp_path / "b" / "ground_truth.json")
    comparison = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not comparison.diff_files
    assert not comparison.left_only and not comparison.right_only
    for name in comparison.common_files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_differs():
    ds1, _ = generate(TABLE_CFG)
    ds2, _ = generate(SynthConfig(**{**TABLE_CFG.__dict__, "rng_seed": 8}))
    first = sorted(ds1.tracks)[0]
    assert not np.array_equal(ds1.tracks[first].embeddings, ds2.tracks[first].embeddings)


def test_ground_truth_round_trip(tmp_path, table_dataset):
    _, truth = table_dataset
    truth.save(tmp_path / "gt.json")
    loaded = GroundTruth.load(tmp_path / "gt.json")
    assert loaded == truth


def test_growth_histories_planted(table_dataset):
    ds, truth = table_dataset
    collab_videos = {v for _, _, v, _ in truth.planted_events}
    for video in ds.videos.values():
        (t0, first), (t1, last) = video.view_history
        growth = (last - first) / first
        if video.video_id in collab_videos:
            assert growth == pytest.approx(1.34, abs=1e-6)
        else:
            assert growth == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("dim", ["face_dim", "speaker_dim"])
def test_a_dimension_below_one_is_infeasible(dim):
    # a 0-d vector has no direction, so sampling one would never end
    with pytest.raises(InfeasibleConfig):
        SynthConfig(**{dim: 0})


def test_infeasible_more_identities_than_hostable():
    with pytest.raises(InfeasibleConfig):
        generate(SynthConfig(n_channels=5, n_videos=2, n_identities=5, face_dim=8, speaker_dim=8))


def test_infeasible_collaboration_overload():
    # 2 identities, each hosting 1 video: no guest spot can stay below home count
    with pytest.raises(InfeasibleConfig):
        generate(
            SynthConfig(
                n_channels=2,
                n_videos=2,
                n_identities=2,
                face_dim=8,
                speaker_dim=8,
                collaboration_rate=1.0,
            )
        )


def test_noise_monotonicity_median_v_measure():
    import statistics

    from castgraph.distcluster import HdbscanParams, cluster_with_fallback, distance_matrix
    from castgraph.metrics import v_measure

    def median_v(noise_deg):
        values = []
        for seed in range(10):
            cfg = SynthConfig(
                n_channels=3,
                n_videos=12,
                n_identities=3,
                face_dim=96,
                speaker_dim=64,
                angular_noise_deg=noise_deg,
                offscreen_speaker_fraction=0.5,
                collaboration_rate=0.25,
                rng_seed=40 + seed,
            )
            ds, truth = generate(cfg)
            ids = sorted(s for s in ds.segments if ds.segments[s].embedding is not None)
            points = np.stack([ds.segments[s].embedding for s in ids])
            [labels], _ = cluster_with_fallback(
                distance_matrix([points]), HdbscanParams(2, 2)
            )
            truth_labels = [truth.segment_identity[s] for s in ids]
            values.append(v_measure(truth_labels, labels.tolist()))
        return statistics.median(values)

    medians = [median_v(noise) for noise in (0.0, 20.0, 60.0, 110.0)]
    for lower, higher in zip(medians, medians[1:]):
        assert higher <= lower + 1e-9
    assert medians[0] == pytest.approx(1.0)


# --- corrupt ------------------------------------------------------------------------

def test_corrupt_identity_transform(table_dataset):
    ds, _ = table_dataset
    out = corrupt(ds, 0.0, 0.0, seed=1)
    assert out.digest() == ds.digest()


def test_corrupt_full_dropout(table_dataset):
    ds, _ = table_dataset
    out = corrupt(ds, 1.0, 0.0, seed=1)
    assert all(s.embedding is None for s in out.segments.values())
    assert not out.tracks


def test_corrupt_deterministic(table_dataset):
    ds, _ = table_dataset
    a = corrupt(ds, 0.2, 0.05, seed=5)
    b = corrupt(ds, 0.2, 0.05, seed=5)
    assert a.digest() == b.digest()
    c = corrupt(ds, 0.2, 0.05, seed=6)
    assert c.digest() != a.digest()


def test_corrupt_leaves_input_untouched(table_dataset):
    ds, _ = table_dataset
    before_segments = sum(1 for s in ds.segments.values() if s.embedding is not None)
    corrupt(ds, 0.5, 0.2, seed=3)
    after_segments = sum(1 for s in ds.segments.values() if s.embedding is not None)
    assert before_segments == after_segments
