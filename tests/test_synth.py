"""Generator determinism, ground-truth shape, and corruption."""

from __future__ import annotations

import filecmp
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from castgraph.catalog import ingest, validate, write
from castgraph.errors import InfeasibleConfig
from castgraph.synth import GroundTruth, SynthConfig, _onscreen_allocation, corrupt, generate

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


# ch00 has one video, so it never shows a face; listed out of order, since channels go in sorted order
LAYOUT = {"ch02": ["a0", "a1", "a2", "a3"], "ch00": ["b0"], "ch01": ["c0", "c1", "c2"]}
ALLOCATIONS = [
    (0, set()),
    (1, set()),  # one video would be one face on a channel
    (2, {"c0", "c1"}),
    (3, {"c0", "c1", "c2"}),  # a shown channel's third video tops up
    (4, {"c0", "c1", "a0", "a1"}),  # two per channel come first
    (5, {"c0", "c1", "a0", "a1", "c2"}),  # then the top-up, in channel order
    (6, {"c0", "c1", "a0", "a1", "c2", "a2"}),
    (7, {"c0", "c1", "c2", "a0", "a1", "a2", "a3"}),
    (9, {"c0", "c1", "c2", "a0", "a1", "a2", "a3"}),  # supply runs out
]


@pytest.mark.parametrize("n_onscreen, expected", ALLOCATIONS)
def test_onscreen_allocation_takes_two_per_channel_and_then_tops_up(n_onscreen, expected):
    assert _onscreen_allocation(LAYOUT, n_onscreen) == expected


@given(sizes=st.lists(st.integers(0, 5), max_size=6), n_onscreen=st.integers(0, 40))
def test_onscreen_allocation_never_shows_one_face_on_a_channel(sizes, n_onscreen):
    layout = {f"ch{c:02d}": [f"v{c}.{k}" for k in range(size)] for c, size in enumerate(sizes)}
    chosen = _onscreen_allocation(layout, n_onscreen)
    shown = [len(chosen & set(videos)) for videos in layout.values()]
    assert 1 not in shown
    # every shown channel shows its first two videos, and a channel is shown
    # only when every earlier channel with two videos is
    assert all(set(videos[:2]) <= chosen for videos in layout.values() if chosen & set(videos))
    eligible = [bool(chosen & set(videos)) for videos in layout.values() if len(videos) >= 2]
    assert eligible == sorted(eligible, reverse=True)
    assert len(chosen) == min(n_onscreen, sum(len(videos) for videos in layout.values() if chosen & set(videos)))
    assert sum(eligible) == min(n_onscreen // 2, len(eligible))


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


# SHA-256 of every file of small written corpora; the benchmark's corpora come
# from the same generate, corrupt and write, so any drift here changes its data
CORPUS_CFG = SynthConfig(
    n_channels=4,
    n_videos=24,
    n_identities=5,
    face_dim=8,
    speaker_dim=6,
    angular_noise_deg=5.0,
    offscreen_speaker_fraction=0.5,
    collaboration_rate=0.25,
    planted_growth_ratio=1.34,
)
ZERO_NOISE_CFG = SynthConfig(
    n_channels=3,
    n_videos=12,
    n_identities=3,
    face_dim=8,
    speaker_dim=6,
    offscreen_speaker_fraction=0.25,
    collaboration_rate=0.25,
)
# (config, seed, corrupt dropout and confidence noise or None, file digests)
CORPUS_SHA256 = [
    (CORPUS_CFG, 3, (0.2, 0.1), {
        "channels.json": "72c073353e353cc0bac6aa3bf0476b6334541b9a629add43e43ec7aac412e514",
        "faces.emb": "8731a8e1f9006b8ed01a01ac5e9132229b18ac7f8c7d2019f6863bdaadbd2128",
        "ground_truth.json": "10aa4e66d0bfa8142e231ae2c2b169b4cd9d9145230aa75de4f83541778f2d12",
        "segments.jsonl": "46184179795b74a2cc7c8538b2f7ca6c9120f5ffd166930f1b9647982dce613e",
        "speakers.emb": "d1aff40f6fdaf0ad975ba34bbfdf9e2fa45289600773d1c481102dddc08a36f8",
        "tracks.jsonl": "da8bae0e64373390b21767fcf11897a34f01c0a66e132d4213e53cf75241d4c9",
        "videos.json": "c5021555130d445717cd2fabc25a65a0872acbda34496fe373afefe3b0e8e73a",
    }),
    (CORPUS_CFG, 4, (0.2, 0.1), {
        "channels.json": "72c073353e353cc0bac6aa3bf0476b6334541b9a629add43e43ec7aac412e514",
        "faces.emb": "70006909716b988107cb09bcc67fc85f4305ac5e7bc4bee3d3ba86c18dd922be",
        "ground_truth.json": "540d28bf06160ab680a1f7b5aae10c762532853d64a038ca7bf9a4ffd83758d9",
        "segments.jsonl": "f3b12ad4a0fe8e3afa2730a0bd1deff8f2229c156cc354dbe0e796c22a89f397",
        "speakers.emb": "ff53dd0ffaa7fac6b730081845b2943ed525be54dc7822bd8d04532d6123bdd8",
        "tracks.jsonl": "8a2d56e1964eb4eb911a18c48beb0313c8620e3e6041961478280e6d6fd9bb59",
        "videos.json": "6a57f75a1e675fadc1176c3e00c6bb4533aef2315d9c1c902c6456f5ba2967ff",
    }),
    (ZERO_NOISE_CFG, 5, None, {
        "channels.json": "ffebeeeb54ec97992907e24d14e0172a371820c9c098aff83ce8ade0d3991de4",
        "faces.emb": "7664fe75bd96104d16b292503609d87a940b84cfd683a741daae76284d6e52d3",
        "ground_truth.json": "281c93b0a79219c28373e79c392f3553b9dd30e0d47fd49551c29994080a3dd5",
        "segments.jsonl": "89119f7ea2eab04b200a48430d0d0120959cde8092a9cd9abf2254d227758e2d",
        "speakers.emb": "4e6a0dcd4f8591ca91d1434dbcde1a49465a282257b44b957805e956b49ab0e6",
        "tracks.jsonl": "7c8a426e3e593dce5e051f849fd887ec3821b49babcc833d90a7b53777fdcef2",
        "videos.json": "eaa0efb2e2a4ba8de3dd099e208826ae01308946e19527ac72321bfd2eadabe2",
    }),
]


@pytest.mark.parametrize("cfg, seed, damage, expected", CORPUS_SHA256)
def test_written_corpus_bytes_are_golden(tmp_path, cfg, seed, damage, expected):
    ds, truth = generate(SynthConfig(**{**cfg.__dict__, "rng_seed": seed}))
    if damage is not None:
        ds = corrupt(ds, *damage, seed=seed)
    write(ds, tmp_path)
    truth.save(tmp_path / "ground_truth.json")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == expected


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


@pytest.mark.parametrize("dim", ["face_dim", "speaker_dim"])
def test_angular_noise_needs_two_dimensions(dim):
    # a 1-d space has no axis orthogonal to a centroid, so rotating one by any angle would never end
    with pytest.raises(InfeasibleConfig):
        SynthConfig(**{dim: 1}, angular_noise_deg=5.0)
    # without noise every observation is its centroid, which one dimension holds
    dims = {"face_dim": 4, "speaker_dim": 4, dim: 1}
    ds, _ = generate(SynthConfig(n_channels=2, n_videos=4, n_identities=2, **dims))
    assert validate(ds) == []


def test_a_growth_ratio_is_accepted_exactly_while_every_view_count_is_a_64_bit_int(tmp_path):
    # a planted video's last view count is 10000 + round(10000 * ratio)
    largest = 922337203685476.5
    over = math.nextafter(largest, math.inf)
    assert 10_000 + round(10_000 * largest) <= 2**63 - 1 < 10_000 + round(10_000 * over)
    for ratio in (over, 1e16, 1e308, math.inf, math.nan, -1.0):
        with pytest.raises(InfeasibleConfig):
            SynthConfig(planted_growth_ratio=ratio)
    cfg = SynthConfig(n_channels=2, n_videos=6, n_identities=2, face_dim=4, speaker_dim=4,
                      collaboration_rate=0.3, planted_growth_ratio=largest)
    ds, _ = generate(cfg)
    write(ds, tmp_path / "data")
    views = [v.view_history[-1][1] for v in ingest(tmp_path / "data").videos.values()]
    assert max(views) == 10_000 + round(10_000 * largest)


def test_infeasible_more_identities_than_hostable():
    # homes ch00-ch04, but 2 videos reach only ch00 and ch01: rejected before any draw
    with pytest.raises(InfeasibleConfig):
        SynthConfig(n_channels=5, n_videos=2, n_identities=5, face_dim=8, speaker_dim=8)


@pytest.mark.parametrize("n_channels", range(1, 7))
def test_a_config_is_accepted_exactly_when_every_identity_can_host(n_channels):
    for n_videos, n_identities in itertools.product(range(1, 9), range(1, 9)):
        counts = dict(n_channels=n_channels, n_videos=n_videos, n_identities=n_identities)
        if n_videos < min(n_identities, n_channels):
            with pytest.raises(InfeasibleConfig):
                SynthConfig(**counts)
            continue
        ds, truth = generate(SynthConfig(**counts, face_dim=4, speaker_dim=4))
        # every identity's home channel hosts a video
        assert set(truth.identity_homes.values()) <= {v.channel_id for v in ds.videos.values()}


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


@pytest.mark.parametrize("dropout, noise", [(0.0, math.nan), (0.0, math.inf), (0.0, 1e308), (math.nan, 0.0)])
def test_corrupt_rejects_rates_it_cannot_draw_with(table_dataset, dropout, noise):
    # a shift is drawn from [-noise, noise], which numpy samples only while its width is finite
    with pytest.raises(ValueError):
        corrupt(table_dataset[0], dropout, noise)


def test_corrupt_draws_up_to_the_widest_finite_noise(table_dataset):
    ds, _ = table_dataset
    out = corrupt(ds, 0.0, 8.98e307, seed=1)  # 2 * 8.99e307 overflows
    assert {t.speaker_confidence for t in out.tracks.values()} <= {0.0, 1.0}
