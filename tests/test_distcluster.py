"""Distance kernels and clustering against brute-force oracles."""

from __future__ import annotations

import os
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castgraph import distcluster
from castgraph.distcluster import (
    BLOCK,
    FALLBACK_EPS,
    _core_distances,
    _kth_smallest_per_row,
    _prim_mst,
    DistanceMatrix,
    HdbscanParams,
    SquareDistanceArray,
    SquareDistanceFile,
    channel_representatives,
    cluster_by_channel,
    cluster_groups,
    cluster_with_fallback,
    dbscan,
    distance_matrix,
    hdbscan,
    k_distance_eps,
    label_groups,
    labels_csv,
    labels_from_text,
)
from castgraph.errors import DimensionMismatch, ZeroVector

from oracles import (
    eager_cluster_by_channel,
    n_clusters,
    naive_cosine_matrix,
    oracle_dbscan,
    oracle_dbscan_core_points,
    oracle_hdbscan,
    oracle_mst_edges,
    sample_blobs,
    squares_from_condensed,
)

PARAMS = HdbscanParams(min_cluster_size=2, min_samples=2)


def in_memory(n: int, entries) -> SquareDistanceArray:
    """A matrix in memory from G groups' condensed entries, (G, n(n-1)/2)."""
    return SquareDistanceArray(np.array(squares_from_condensed(n, entries), dtype=np.float64))


def in_file(m: DistanceMatrix) -> SquareDistanceFile:
    """The same distances in the file medium: m's squares written to a distance file."""
    file = tempfile.TemporaryFile(buffering=0)
    file.write(m.to_square().tobytes())
    return SquareDistanceFile(m.n, file, m.distinct.copy())


def both_forms(m: DistanceMatrix):
    """m, then its file medium, which is closed once the next medium is asked for."""
    yield m
    with in_file(m) as file_form:
        yield file_form


def partition_of(labels) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for idx, label in enumerate(labels):
        groups.setdefault(int(label), set()).add(idx)
    return {frozenset(v) for k, v in groups.items() if k != -1}


# --- distance matrix -----------------------------------------------------------

def test_matrix_two_identical_points():
    m = distance_matrix([np.array([[1.0, 2.0], [1.0, 2.0]])])
    assert m.to_square()[0][np.triu_indices(2, 1)].tolist() == [0.0]


def test_matrix_orthonormal_basis():
    m = distance_matrix([np.eye(3)])
    assert m.to_square()[0][np.triu_indices(3, 1)].tolist() == pytest.approx([1.0, 1.0, 1.0])


def test_matrix_against_naive_oracle():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((50, 24))
    square = distance_matrix([points]).to_square()[0]
    naive = naive_cosine_matrix(points)
    for i in range(50):
        for j in range(i + 1, 50):
            assert square[i, j] == pytest.approx(naive[i][j], abs=1e-6)
            assert square[j, i] == square[i, j]


@pytest.mark.parametrize("n", [b + d for b in (BLOCK, 2 * BLOCK) for d in (-1, 0, 1, 2)])
def test_matrix_blocks_are_exact_and_worker_count_invisible(n):
    # n - 1 rows have an upper part, so n = BLOCK + 1 is the last single-block size
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 12))
    points[n // 2] = points[3]  # one duplicate pair across the first block boundary
    with distance_matrix([points]) as m:
        square = m.to_square()[0]
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    reference = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    reference[3, n // 2] = reference[n // 2, 3] = 0.0
    np.fill_diagonal(reference, 0.0)
    assert np.allclose(square, reference, rtol=0.0, atol=1e-12)
    assert square[3, n // 2] == 0.0


class UnitRows(Exception):
    """Carries the unit buffer distance_matrix hands to _duplicate_classes."""


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 300), st.sampled_from([1, 3, 64, 255, 257, 1024])),
    dtype=st.sampled_from([np.float32, np.float64]),
    scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e20]),
)
@settings(max_examples=40, deadline=None)
def test_matrix_unit_rows_are_linalg_norm_rows_bit_for_bit(seed, shape, dtype, scale):
    # the rows are normalized in chunks through one buffer; every bit must be
    # that of dividing each row by np.linalg.norm over the whole stack
    points = (np.random.default_rng(seed).standard_normal(shape) * scale).astype(dtype)

    def capture(unit):
        raise UnitRows(unit.copy())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distcluster, "_duplicate_classes", capture)
        with pytest.raises(UnitRows) as got:
            distance_matrix(points)
    rows = points.astype(np.float64)
    expected = rows / np.linalg.norm(rows, axis=-1)[..., None]
    assert got.value.args[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 41))
def test_condensed_row_matches_square(n):
    # three groups, each with its own entries, in both media
    entries = np.arange(1, 3 * (n * (n - 1) // 2) + 1, dtype=np.float64).reshape(3, -1)
    square = np.array(squares_from_condensed(n, entries))
    for m in both_forms(in_memory(n, entries)):
        assert np.array_equal(m.to_square(), square)
        assert np.array_equal(m.rows(1, n, np.full((3, n - 1, n), np.nan)), square[:, 1:])
        out = np.full((3, n), np.nan)
        for v in range(n):
            assert np.array_equal(m.row(v), square[:, v])
            assert m.row(v, out) is out
            assert np.array_equal(out, square[:, v])
        # one row per group, as Prim reads them
        for v in (np.arange(3) % n, (n - 1 - np.arange(3)) % n):
            assert np.array_equal(m.row(v, out), square[np.arange(3), v])


def test_matrix_one_point_stack_has_no_entries():
    m = distance_matrix(np.ones((3, 1, 4)))
    assert (m.n, m.entries.shape) == (1, (3, 0))
    assert m.to_square().tolist() == [[[0.0]]] * 3
    with pytest.raises(ZeroVector):
        distance_matrix(np.zeros((1, 1, 4)))
    with pytest.raises(ZeroVector):
        distance_matrix([[[1.0, 2.0]], [[0.0, 0.0]]])


def test_condensed_entries_and_points_must_be_stacks():
    with pytest.raises(ValueError):
        SquareDistanceArray(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        distance_matrix(np.ones((3, 4)))


def one_call_entries(points) -> np.ndarray:
    """Condensed entries of (n, d) points normalized by one np.linalg.norm call.

    The reference for distance_matrix's chunked normalization: the same
    fixed BLOCK-row products over the one-call unit vectors.
    """
    stack = np.asarray(points, dtype=np.float64)[None]
    unit = stack / np.linalg.norm(stack, axis=-1)[..., None]
    n = stack.shape[1]
    rows = []
    for lo in range(0, n - 1, BLOCK):
        hi = min(lo + BLOCK, n - 1)
        sims = 1.0 - np.clip(unit[:, lo:hi] @ unit[:, lo:].transpose(0, 2, 1), -1.0, 1.0)
        rows += [sims[0, i - lo, i - lo + 1 :] for i in range(lo, hi)]
    return np.concatenate(rows)


@pytest.mark.parametrize("n, d", [(2 * BLOCK + 37, 96), (300, 2048), (BLOCK + 1, 7)])
def test_matrix_chunked_normalization_is_bit_identical(n, d):
    # chunked in-place norms give the bits of one norm call over all rows,
    # so the entries and the core distances read from them do not move
    rng = np.random.default_rng(n + d)
    points = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
    reference = np.array(squares_from_condensed(n, one_call_entries(points)[None]))
    with distance_matrix([points]) as m:
        assert isinstance(m, SquareDistanceFile)
        assert np.array_equal(m.to_square(), reference)
        ordered = np.sort(reference[0], axis=1)
        for min_samples in (1, 2, 5):
            assert np.array_equal(_core_distances(m, min_samples)[0], ordered[:, min_samples - 1])
    # a list of rows and float32 input convert to the same float64 buffer
    with distance_matrix([list(points)]) as m:
        assert np.array_equal(m.to_square(), reference)
    single = points.astype(np.float32)
    with distance_matrix([single]) as m:
        assert np.array_equal(m.to_square(), squares_from_condensed(n, one_call_entries(single)[None]))


def test_matrix_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((1, BLOCK + 10, 16)) * 3.0
    stack = rng.standard_normal((4, 9, 16))
    for array in (points, stack):
        before = array.copy()
        distance_matrix(array).close()
        assert np.array_equal(array, before)


def test_short_file_writes_are_completed(monkeypatch):
    points = np.random.default_rng(3).standard_normal((BLOCK + 5, 6))
    with distance_matrix([points]) as m:
        expected = m.to_square()
    write = os.pwrite
    # at most 100 bytes per call, as a nearly full disk may accept
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: write(fd, memoryview(data).cast("B")[:100], offset))
    with distance_matrix([points]) as m:
        assert np.array_equal(m.to_square(), expected)


def test_short_file_reads_raise():
    points = np.random.default_rng(3).standard_normal((BLOCK + 5, 6))
    with distance_matrix([points]) as m:
        os.ftruncate(m.file.fileno(), 8 * m.n * (m.n - 1))  # the last row is gone
        with pytest.raises(OSError, match="ended early"):
            m.row(m.n - 1)
        with pytest.raises(OSError, match="ended early"):
            m.rows(0, m.n)
        assert np.array_equal(m.row(0), m.rows(0, 1)[:, 0])
    assert m.file.closed


def test_ragged_rows_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cluster_groups([[np.ones(3), np.ones(4)]], PARAMS)
    with pytest.raises(DimensionMismatch):
        cluster_groups([[np.ones(3), np.ones(3), np.ones(4)]], PARAMS)[0]
    with pytest.raises(DimensionMismatch):
        distance_matrix([[np.ones(3), np.ones(4)]])
    with pytest.raises(DimensionMismatch):  # a set of scalars, one point or more
        cluster_groups([[1.0], [1.0, 2.0]], PARAMS)


def test_condensed_index_round_trip():
    entries = np.arange(10, dtype=np.float64)[None]
    square = in_memory(5, entries).to_square()[0]
    assert square.tolist() == squares_from_condensed(5, entries)[0]
    for i in range(5):
        for j in range(5):
            lo, hi = min(i, j), max(i, j)
            expected = 0.0 if i == j else entries[0, 5 * lo - lo * (lo + 1) // 2 + (hi - lo - 1)]
            assert square[i, j] == expected


# --- hdbscan -------------------------------------------------------------------

def test_hdbscan_all_identical_single_cluster():
    points = np.tile([0.3, 0.4, 1.2], (6, 1))
    [labels] = hdbscan(distance_matrix([points]), PARAMS)
    assert labels.tolist() == [0] * 6


def test_hdbscan_two_blobs_match_generator():
    points, truth = sample_blobs(60, 2, 512, 4.0, seed=11)
    [labels] = hdbscan(distance_matrix([points]), PARAMS)
    assert n_clusters(labels) == 2
    assert partition_of(labels) == partition_of(truth)


def test_hdbscan_single_blob_all_noise():
    points, _ = sample_blobs(40, 1, 512, 5.0, seed=23)
    [labels] = hdbscan(distance_matrix([points]), PARAMS)
    assert n_clusters(labels) == 0


def test_hdbscan_labels_sets_below_twice_min_cluster_size_by_one_rule():
    # the root is never selected, so below 2 * min_cluster_size only
    # all-identical points form a cluster; the rest is noise for the fallback
    params = HdbscanParams(min_cluster_size=4)
    distinct, identical = np.eye(3), np.tile([0.3, 0.4, 1.2], (3, 1))
    for m in both_forms(distance_matrix([distinct])):
        assert hdbscan(m, params).tolist() == [[-1, -1, -1]]
        [labels], [used] = cluster_with_fallback(m, params, eps=1.0)
        assert labels.tolist() == dbscan(m, 1.0)[0].tolist() == [0, 0, 0]
        assert used
    for m in both_forms(distance_matrix([identical])):
        assert hdbscan(m, params).tolist() == [[0, 0, 0]]


@pytest.mark.parametrize("seed", range(25))
def test_hdbscan_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(4, 13))
    k = int(rng.integers(1, 4))
    points, _ = sample_blobs(n, k, 32, 25.0, seed=2000 + seed)
    for m in both_forms(distance_matrix([points])):
        got = hdbscan(m, PARAMS)[0].tolist()
        expected = oracle_hdbscan(m.to_square()[0].tolist(), 2, 2)
        assert got == expected


@pytest.mark.parametrize("min_samples", [None, 1, 3])
def test_hdbscan_matches_exhaustive_oracle_on_duplicates(min_samples):
    # three distinct points repeated up to 40 times: every distance, core
    # distance and mutual reachability ties many times over, so the labels
    # depend on the lexicographic MST tie-break
    params = HdbscanParams(2, min_samples)
    rng = np.random.default_rng(77)
    distinct = rng.standard_normal((3, 8))
    for n in range(4, 41):
        picks = np.concatenate(([0, 1, 2], rng.integers(0, 3, size=n - 3)))
        for m in both_forms(distance_matrix([distinct[rng.permutation(picks)]])):
            got = hdbscan(m, params)[0].tolist()
            expected = oracle_hdbscan(m.to_square()[0].tolist(), 2, params.effective_min_samples)
            assert got == expected, n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_kth_smallest_per_row_matches_sorted_square(n):
    # tie-heavy entries, negative ones too, so a column value can undercut the self distance
    rng = np.random.default_rng(n)
    m = in_memory(n, rng.integers(-1, 3, size=(1, n * (n - 1) // 2)).astype(np.float64))
    ordered = np.sort(m.to_square()[0], axis=1)
    for form in both_forms(m):
        for k in range(n):
            assert np.array_equal(_kth_smallest_per_row(form, k)[0], ordered[:, k]), k


@pytest.mark.parametrize("min_samples", [1, 2, 3])
def test_prim_mst_edges_match_kruskal_on_ties(min_samples):
    # distances drawn from {0, 1, 2}: nearly every comparison is a tie, and
    # only the lexicographic (w, i, j) order fixes the edges
    rng = np.random.default_rng(78 + min_samples)
    for _ in range(400):
        n = int(rng.integers(2, 10))
        m = in_memory(n, rng.integers(0, 3, size=(1, n * (n - 1) // 2)).astype(np.float64))
        for form in both_forms(m):
            core = _core_distances(form, min_samples)
            mr = np.maximum(m.to_square()[0], np.maximum.outer(core[0], core[0]))
            np.fill_diagonal(mr, 0.0)
            assert sorted(_prim_mst(form, core)[0]) == sorted(oracle_mst_edges(mr.tolist())), m.to_square()


@pytest.mark.parametrize("mcs", [2, 3])
def test_hdbscan_oracle_other_min_cluster_size(mcs):
    for seed in range(10):
        points, _ = sample_blobs(10, 2, 16, 20.0, seed=3000 + seed)
        for m in both_forms(distance_matrix([points])):
            got = hdbscan(m, HdbscanParams(mcs, mcs))[0].tolist()
            expected = oracle_hdbscan(m.to_square()[0].tolist(), mcs, mcs)
            assert got == expected


@pytest.mark.parametrize("min_samples", [None, 1, 3])
@pytest.mark.parametrize("mcs", [2, 3, 4])
def test_hdbscan_oracle_below_two_min_cluster_sizes(mcs, min_samples):
    # n in [mcs, 2*mcs) has no split with two big-enough sides, so it comes
    # back all noise without a hierarchy; n = 2*mcs is the first that can split
    params = HdbscanParams(mcs, min_samples)
    ms = params.effective_min_samples
    split_seen = False
    for n in range(mcs, 2 * mcs + 1):
        for seed in range(12):
            points, _ = sample_blobs(n, 2, 16, 20.0, seed=6000 + 100 * n + seed)
            rng = np.random.default_rng(seed)
            for _ in range(seed % 3):  # partly duplicated, never all identical
                i, j = rng.choice(n, size=2, replace=False)
                points[j] = points[i]
            m = distance_matrix([points])
            if np.all(m.to_square() == 0.0):
                continue
            for form in both_forms(m):
                got = hdbscan(form, params)[0].tolist()
                assert got == oracle_hdbscan(m.to_square()[0].tolist(), mcs, ms), (n, seed)
                if n < 2 * mcs:
                    assert got == [-1] * n
            split_seen |= max(got) >= 0
    # the boundary is live: two blobs of mcs points split, unless the core
    # distances (min_samples > mcs) reach into the other blob
    assert split_seen or ms > mcs


def test_hdbscan_matches_oracle_on_tie_heavy_integer_distances():
    # distances drawn from {0, 1, 2, 3}: splits nest deeply, many merges tie,
    # and splits at distance 0 are born at lambda = inf, where a stability
    # reads inf - inf
    rng = np.random.default_rng(2013)
    several = 0
    for case in range(300):
        mcs = int(rng.integers(2, 6))
        ms = int(rng.integers(1, 5))
        n = int(rng.integers(2 * mcs, 21))
        m = in_memory(n, rng.integers(0, 4, size=(1, n * (n - 1) // 2)).astype(np.float64))
        got = hdbscan(m, HdbscanParams(mcs, ms))[0].tolist()
        # an all-zero matrix is one cluster by definition, not by the hierarchy
        expected = oracle_hdbscan(m.to_square()[0].tolist(), mcs, ms) if m.distinct[0] else [0] * n
        assert got == expected, (case, n, mcs, ms)
        several += max(got) >= 1
    assert several >= 50


def test_hdbscan_permutation_invariant():
    points, _ = sample_blobs(36, 3, 128, 6.0, seed=5)
    [base] = hdbscan(distance_matrix([points]), PARAMS)
    rng = np.random.default_rng(9)
    perm = rng.permutation(len(points))
    [shuffled] = hdbscan(distance_matrix([points[perm]]), PARAMS)
    reference = {frozenset(np.flatnonzero(base == c).tolist()) for c in range(n_clusters(base))}
    remapped = {
        frozenset(int(perm[i]) for i in np.flatnonzero(shuffled == c))
        for c in range(n_clusters(shuffled))
    }
    assert reference == remapped


def test_hdbscan_scale_invariant():
    points, _ = sample_blobs(30, 2, 64, 8.0, seed=17)
    m = distance_matrix([points])
    [base] = hdbscan(m, PARAMS)
    for factor in (0.25, 3.5):
        scaled = SquareDistanceArray(m.to_square() * factor)
        assert hdbscan(scaled, PARAMS)[0].tolist() == base.tolist()


@pytest.mark.parametrize("mcs", [2, 3])
def test_hdbscan_agrees_with_sklearn(mcs):
    sklearn_cluster = pytest.importorskip("sklearn.cluster")
    if not hasattr(sklearn_cluster, "HDBSCAN"):
        pytest.skip("sklearn without HDBSCAN")

    def partition(labels):
        groups: dict[int, set[int]] = {}
        noise = set()
        for i, l in enumerate(labels):
            (noise.add(i) if l == -1 else groups.setdefault(int(l), set()).add(i))
        return {frozenset(v) for v in groups.values()}, noise

    for seed in range(30):
        rng = np.random.default_rng(5000 + seed)
        k = int(rng.integers(1, 5))
        n = int(rng.integers(max(12, mcs + 2), 50))
        points, _ = sample_blobs(n, k, 512, float(rng.uniform(1.0, 8.0)), seed=seed)
        m = distance_matrix([points])
        [mine] = hdbscan(m, HdbscanParams(mcs, mcs))
        other = sklearn_cluster.HDBSCAN(
            min_cluster_size=mcs, min_samples=mcs, metric="precomputed"
        ).fit(m.to_square()[0])
        assert partition(mine) == partition(other.labels_), f"seed {seed}"


def test_hdbscan_label_validity_fuzz():
    rng = np.random.default_rng(64)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        square = rng.uniform(0.05, 2.0, size=(n, n))
        square = np.triu(square, 1)
        square = square + square.T
        m = in_memory(n, square[np.triu_indices(n, 1)][None])
        labels = hdbscan(m, PARAMS)[0]
        assert labels.min() >= -1
        found = sorted(set(labels.tolist()) - {-1})
        assert found == list(range(len(found)))


def test_dbscan_label_validity_fuzz():
    rng = np.random.default_rng(65)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        points = rng.standard_normal((max(n, 2), 6))
        eps = float(rng.uniform(0.1, 1.5))
        for m in both_forms(distance_matrix([points])):
            labels = dbscan(m, eps)[0]
            assert labels.min() >= -1
            found = sorted(set(labels.tolist()) - {-1})
            assert found == list(range(len(found)))


# --- dbscan --------------------------------------------------------------------

def test_dbscan_single_blob_large_eps():
    points, _ = sample_blobs(20, 1, 64, 3.0, seed=2)
    for m in both_forms(distance_matrix([points])):
        [labels] = dbscan(m, eps=1.9)
        assert n_clusters(labels) == 1
        assert np.count_nonzero(labels == -1) == 0


def test_dbscan_mutually_distant_all_noise():
    for m in both_forms(distance_matrix([np.eye(5)])):
        [labels] = dbscan(m, eps=0.5)
        assert n_clusters(labels) == 0


def test_dbscan_eps_zero_joins_only_bitwise_duplicates():
    rng = np.random.default_rng(17)
    distinct = rng.standard_normal((4, 6))
    for m in both_forms(distance_matrix([distinct[[2, 0, 1, 0, 3, 2, 2]]])):
        assert dbscan(m, eps=0.0)[0].tolist() == [0, 1, -1, 1, -1, 0, 0]
        for eps in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                dbscan(m, eps=eps)


def test_dbscan_three_blobs_with_heuristic_eps():
    points, truth = sample_blobs(45, 3, 256, 4.0, seed=31)
    for m in both_forms(distance_matrix([points])):
        [labels] = dbscan(m, eps=float(k_distance_eps(m)[0]))
        # three clusters in one-to-one blob correspondence; a percentile eps may
        # leave a few boundary stragglers as noise
        assert n_clusters(labels) == 3
        blob_of_cluster = {}
        for idx, label in enumerate(labels):
            if label == -1:
                continue
            blob_of_cluster.setdefault(int(label), set()).add(int(truth[idx]))
        assert sorted(map(len, blob_of_cluster.values())) == [1, 1, 1]
        assert len({next(iter(v)) for v in blob_of_cluster.values()}) == 3
        assert np.count_nonzero(labels == -1) <= len(points) * 0.1


@pytest.mark.parametrize("seed", range(8))
def test_dbscan_core_points_match_oracle(seed):
    rng = np.random.default_rng(400 + seed)
    points = rng.standard_normal((60, 8))
    m = distance_matrix([points])
    eps = float(rng.uniform(0.2, 1.2))
    expected_core = oracle_dbscan_core_points(m.to_square()[0].tolist(), eps, 2)
    for form in both_forms(m):
        [labels] = dbscan(form, eps)
        # at min_pts 2 there are no border points: exactly the core points are labeled
        assert (labels != -1).tolist() == expected_core


def random_stack(rng, groups, n, dim):
    """groups sets of n points in dim dimensions, some rows bitwise copies of earlier ones."""
    points = rng.standard_normal((groups, n, dim))
    for g in range(groups):
        for i in range(1, n):
            if rng.random() < 0.3:
                points[g, i] = points[g, rng.integers(0, i)]
    return points


def assert_dbscan_matches_oracle(m, eps):
    """dbscan's labels of every group equal the breadth-first oracle's at min_pts 2, or 0 for one point."""
    squares = m.to_square()
    for form in both_forms(m):
        for g, labels in enumerate(dbscan(form, eps)):
            expected = oracle_dbscan(squares[g].tolist(), eps, 2) if m.n > 1 else [0]
            assert labels.tolist() == expected, (g, eps)


@pytest.mark.parametrize("seed", range(6))
def test_dbscan_labels_match_oracle_on_stacks(seed):
    # several groups per call, bitwise duplicates, eps 0 among the radii, one
    # point per set among the sizes; labels must match exactly
    rng = np.random.default_rng(900 + seed)
    for _ in range(25):
        groups, n, dim = int(rng.integers(1, 5)), int(rng.integers(1, 30)), int(rng.integers(2, 6))
        eps = float(rng.choice([0.0, rng.uniform(0.05, 0.6), rng.uniform(0.6, 1.6)]))
        with distance_matrix(random_stack(rng, groups, n, dim)) as m:
            assert_dbscan_matches_oracle(m, eps)


@pytest.mark.parametrize("seed", range(4))
def test_dbscan_labels_match_oracle_in_the_file_medium(seed):
    rng = np.random.default_rng(950 + seed)
    n = distcluster.BLOCK + 20
    with distance_matrix(random_stack(rng, 2, n, 6)) as m:
        assert isinstance(m, SquareDistanceFile)
        for eps in (0.0, float(rng.uniform(0.1, 0.3))):
            assert_dbscan_matches_oracle(m, eps)


def arc(n: int, seed: int) -> tuple[np.ndarray, float]:
    """n points on an arc in shuffled index order, and an eps between one and two arc steps."""
    step = 2.0 / n
    angles = np.random.default_rng(seed).permutation(n) * step
    return np.stack([np.cos(angles), np.sin(angles)], axis=1), 1.0 - np.cos(1.5 * step)


@pytest.mark.parametrize("n", [40, distcluster.BLOCK + 20])
def test_dbscan_joins_a_shuffled_chain(n):
    # each point reaches only its two arc neighbors, so the one cluster is a
    # chain whose links hook roots all over the index range
    points, eps = arc(n, seed=n + 2)
    with distance_matrix([points]) as m:
        square = m.to_square()
    assert sorted(np.count_nonzero(square[0] <= eps, axis=1).tolist()) == [2, 2] + [3] * (n - 2)
    expected = oracle_dbscan(square[0].tolist(), eps, 2)
    assert expected == [0] * n
    for form in both_forms(SquareDistanceArray(square)):
        assert dbscan(form, eps)[0].tolist() == expected


def recorded_reads(monkeypatch, m: DistanceMatrix) -> list[tuple[int, int]]:
    """(first row, row count) of each read of m's medium, recorded as they happen."""
    reads = []
    read = m._read

    def record(first, count, out):
        reads.append((first, count))
        read(first, count, out)

    monkeypatch.setattr(m, "_read", record)
    return reads


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.9])
def test_dbscan_reads_each_row_once_in_row_blocks(monkeypatch, eps):
    rng = np.random.default_rng(61)
    n = BLOCK + 20
    with distance_matrix(random_stack(rng, 1, n, 6)) as m:
        reads = recorded_reads(monkeypatch, m)
        dbscan(m, eps)
    assert reads == [(0, BLOCK), (BLOCK, 20)]
    with distance_matrix(random_stack(rng, 3, 40, 6)) as m:
        reads = recorded_reads(monkeypatch, m)
        dbscan(m, eps)
    assert reads == [(0, 40)]


def test_dbscan_border_point_goes_to_first_cluster():
    # 1-d layout mapped onto distinct angles: point 2 lies within eps of points
    # 1 and 3, so at min_pts 2 it is core, not a border point, and joins 0..3
    m = in_memory(
        5,
        np.array(
            [[0.1, 0.5, 0.6, 1.4, 0.4, 0.5, 1.3, 0.1, 0.9, 0.8]], dtype=np.float64
        ),
    )
    for form in both_forms(m):
        [labels] = dbscan(form, eps=0.45)
        assert labels.tolist() == [0, 0, 0, 0, -1]


# --- fallback policy -------------------------------------------------------------

def test_fallback_unused_for_separated_blobs():
    points, truth = sample_blobs(50, 2, 256, 5.0, seed=41)
    for m in both_forms(distance_matrix([points])):
        [labels], [used] = cluster_with_fallback(m, PARAMS)
        assert not used
        assert partition_of(labels) == partition_of(truth)


def test_fallback_used_for_single_blob():
    points, _ = sample_blobs(40, 1, 256, 5.0, seed=42)
    for m in both_forms(distance_matrix([points])):
        [labels], [used] = cluster_with_fallback(m, PARAMS)
        assert used
        assert n_clusters(labels) == 1


def test_fallback_pathological_all_noise():
    for m in both_forms(distance_matrix([np.eye(2)])):
        [labels], [used] = cluster_with_fallback(m, PARAMS, eps=0.5)
        assert used
        assert n_clusters(labels) == 0


def test_fallback_single_point_gets_label():
    # a lone point is all-identical, so the hierarchy's own rule labels it
    m = in_memory(1, np.empty((1, 0), dtype=np.float64))
    for form in both_forms(m):
        [labels], [used] = cluster_with_fallback(form, PARAMS)
        assert not used
        assert labels.tolist() == [0]


@pytest.mark.parametrize("seed", range(20))
def test_sets_below_min_cluster_size_get_the_fallbacks_labels(seed):
    # 1-5 points, some of them bitwise copies, at min_cluster_size 2-4: every
    # set smaller than min_cluster_size is labelled exactly as dbscan labels it
    rng = np.random.default_rng(seed)
    for _ in range(10):
        params = HdbscanParams(int(rng.integers(2, 5)))
        n = int(rng.integers(1, params.min_cluster_size))
        groups = int(rng.integers(1, 4))
        points = rng.standard_normal((groups, n, 4))
        copies = rng.random((groups, n)) < 0.5
        points[copies] = points[:, :1].repeat(n, axis=1)[copies]
        eps = float(rng.choice([0.0, 0.3, FALLBACK_EPS, 1.5]))
        for m in both_forms(distance_matrix(points)):
            labels, _ = cluster_with_fallback(m, params, eps)
            assert labels.tolist() == dbscan(m, eps).tolist()


def test_one_point_sets_make_no_dbscan_call(monkeypatch):
    calls = []

    def counting(m, eps):
        calls.append(m.groups)
        return dbscan(m, eps)

    monkeypatch.setattr(distcluster, "dbscan", counting)
    results = cluster_groups([np.eye(5)[i : i + 1] for i in range(5)], PARAMS)
    assert [(labels.tolist(), used) for labels, used in results] == [([0], False)] * 5
    assert calls == []


# --- cluster_groups over one set: one policy per degenerate input -----------------

# (id, vectors, expected labels or the error raised, whether the fallback ran)
DEGENERATE_INPUTS = [
    ("no_points", np.empty((0, 3)), [], False),
    ("one_point", [[0.3, 0.4, 1.2]], [0], False),
    # the hierarchy finds only noise, and distance 1 is beyond the fallback eps
    ("two_distinct_points", np.eye(2), [-1, -1], True),
    ("two_identical_points", np.tile([0.3, 0.4, 1.2], (2, 1)), [0, 0], False),
    ("five_identical_points", np.tile([0.3, 0.4, 1.2], (5, 1)), [0] * 5, False),
    # the hierarchy finds only noise; the fallback joins only the copies,
    # since the other point is at cosine distance 0.77
    ("nine_identical_and_one_other", np.vstack([np.tile([0.3, 0.4, 1.2], (9, 1)), np.eye(3)[:1]]),
     [0] * 9 + [-1], True),
    ("ten_identical_and_one_other", np.vstack([np.tile([0.3, 0.4, 1.2], (10, 1)), np.eye(3)[:1]]),
     [0] * 10 + [-1], True),
    ("zero_vector", [[0.0, 0.0], [1.0, 0.0]], ZeroVector, None),
    ("lone_zero_vector", [[0.0, 0.0]], ZeroVector, None),
]


@pytest.mark.parametrize(
    "vectors, expected, used", [pytest.param(*case[1:], id=case[0]) for case in DEGENERATE_INPUTS]
)
def test_cluster_points_degenerate_inputs(vectors, expected, used):
    if expected is ZeroVector:
        with pytest.raises(ZeroVector):
            cluster_groups([vectors], PARAMS)[0]
        return
    labels, used_fallback = cluster_groups([vectors], PARAMS)[0]
    assert labels.tolist() == expected
    assert labels.dtype == np.int64
    assert used_fallback is used


def test_cluster_points_rejects_a_nan_eps():
    # a lone point and a pair the hierarchy leaves as noise reach the fallback;
    # a duplicate pair and six random points do not, and are rejected all the same
    rng = np.random.default_rng(0)
    sets = ([[0.3, 0.4, 1.2]], np.eye(2), np.tile([0.3, 0.4, 1.2], (2, 1)), rng.standard_normal((6, 4)))
    for vectors in sets:
        for eps in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                cluster_groups([vectors], HdbscanParams(2), eps=eps)[0]


@pytest.mark.parametrize("n", range(2, 8))
def test_fallback_keeps_equidistant_small_sets_apart(n):
    # n mutually orthogonal points: the hierarchy finds only noise, and a
    # data-derived eps would equal their common distance and join them all
    labels, used = cluster_groups([np.eye(n)], HdbscanParams(2))[0]
    assert used
    assert n_clusters(labels) == 0


def test_cluster_points_matches_matrix_path():
    points, _ = sample_blobs(30, 3, 64, 8.0, seed=8)
    labels, used = cluster_groups([list(points)], PARAMS)[0]
    [expected], [expected_used] = cluster_with_fallback(distance_matrix([points]), PARAMS)
    assert labels.tolist() == expected.tolist()
    assert used == expected_used


@pytest.mark.parametrize("blobs, used", [(4, False), (1, True)], ids=["hierarchy", "fallback"])
def test_cluster_points_holds_no_square(blobs, used):
    # past BLOCK points the squares live in a file, so no n^2 array is in
    # memory: no square, no mutual-reachability copy, no n^2 neighbor lists;
    # the bound, 1.5 times the condensed count's bytes, is far above what a
    # call holds
    points, _ = sample_blobs(2000, blobs, 16, 8.0, seed=12)
    condensed_bytes = 8 * 2000 * 1999 // 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        labels, used_fallback = cluster_groups([points], HdbscanParams(50, 5))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n_clusters(labels), used_fallback) == (blobs, used)
    assert peak < 1.5 * condensed_bytes


@pytest.mark.parametrize("n, d", [(2000, 256), (600, 2048)])
def test_cluster_points_peak_is_condensed_unit_buffer_and_one_block(n, d):
    # both sizes are past BLOCK, so the squares live in a file; the bound
    # allows the condensed count's bytes besides one n x d float64 unit
    # buffer and one BLOCK-row GEMM block: no second copy of the points, no
    # n x d norm temporaries
    points, _ = sample_blobs(n, 4, d, 8.0, seed=13)
    bound = 8 * n * (n - 1) // 2 + 8 * n * d + 8 * BLOCK * n + 2**20
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        labels, _ = cluster_groups([points], HdbscanParams(50, 5))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_clusters(labels) == 4
    assert peak <= bound


@pytest.mark.parametrize("n, d", [(2000, 256), (600, 2048)])
def test_cluster_points_over_a_file_holds_no_n_squared_term(n, d):
    # past BLOCK points the distances live in a file: the unit buffer and a
    # few BLOCK-row blocks are all a call holds
    points, _ = sample_blobs(n, 4, d, 8.0, seed=13)
    bound = 8 * n * d + 3 * 8 * BLOCK * n + 2**20
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        labels, _ = cluster_groups([points], HdbscanParams(50, 5))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_clusters(labels) == 4
    assert peak <= bound


# --- cluster_groups: one stacked pass equals each group alone ---------------------

def mixed_groups(seed: int, dim: int = 8) -> list[np.ndarray]:
    """Point sets of sizes 1-12 in one list: random, bitwise-duplicated and integer-tied points.

    Sizes 2 and 12 come often enough that their stacks pass BLOCK points and split.
    """
    rng = np.random.default_rng(seed)
    sizes = list(range(1, 13)) * 3 + [2] * (BLOCK // 2 + 5) + [12] * (BLOCK // 12 + 3)
    groups = []
    for k, n in enumerate(rng.permutation(sizes).tolist()):
        kind = k % 3
        if kind == 0:
            points = rng.standard_normal((n, dim))
        elif kind == 1:  # copies of at most 3 distinct points
            points = rng.standard_normal((3, dim))[rng.integers(0, 3, size=n)]
        else:  # small integer vectors: many equal distances, some duplicates
            points = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
            points[~points.any(axis=1), 0] = 1.0
        groups.append(points)
    return groups


@pytest.mark.parametrize("eps", [None, 0.3])
@pytest.mark.parametrize("min_samples", [None, 1, 3])
@pytest.mark.parametrize("mcs", [2, 3, 4])
def test_cluster_groups_matches_each_group_alone(mcs, min_samples, eps):
    # eps None is the default fallback; the sets include mostly identical points
    params = HdbscanParams(mcs, min_samples)
    eps = FALLBACK_EPS if eps is None else eps
    groups = mixed_groups(100 * mcs + (min_samples or 0))
    together = cluster_groups(groups, params, eps=eps)
    assert len(together) == len(groups)
    for group, (got, got_used) in zip(groups, together):
        labels, used = cluster_groups([group], params, eps=eps)[0]
        assert got.tolist() == labels.tolist()
        assert got_used is used


def test_cluster_groups_stacks_bit_identical_distances():
    rng = np.random.default_rng(4)
    for n in (2, 5, 12, 100, BLOCK + 1):
        points = rng.standard_normal((3, n, 24))
        points[1, n - 1] = points[1, 0]  # a bitwise duplicate in one group only
        with distance_matrix(points) as stacked:
            assert stacked.entries.shape == (3, n * (n - 1) // 2)
            squares = stacked.to_square()
        for g in range(3):
            with distance_matrix(points[g : g + 1]) as alone:
                assert np.array_equal(squares[g], alone.to_square()[0]), (n, g)
        assert squares[1, 0, n - 1] == 0.0


@pytest.mark.parametrize("min_samples", [1, 2, 3])
def test_stacked_prim_edges_match_kruskal_per_group(min_samples):
    rng = np.random.default_rng(91 + min_samples)
    for n in range(2, 10):
        # distances drawn from {0, 1, 2}, so ties decide most edges
        m = in_memory(n, rng.integers(0, 3, size=(40, n * (n - 1) // 2)).astype(np.float64))
        for stack in both_forms(m):
            core = _core_distances(stack, min_samples)
            assert core.shape == (40, n)
            edges = _prim_mst(stack, core)
            assert len(edges) == 40
            squares = stack.to_square()
            for g, group_edges in enumerate(edges):
                mr = np.maximum(squares[g], np.maximum.outer(core[g], core[g]))
                np.fill_diagonal(mr, 0.0)
                assert sorted(group_edges) == sorted(oracle_mst_edges(mr.tolist())), squares[g]
                assert [group_edges] == _prim_mst(SquareDistanceArray(squares[g : g + 1]), core[g : g + 1])


@pytest.mark.parametrize("min_samples", [1, 2, 3])
@pytest.mark.parametrize("n", [BLOCK + 1, 300])
def test_prim_ties_in_the_file_medium_match_kruskal(n, min_samples):
    # bitwise copies of five centres, three of them orthogonal: distances
    # are 0 within a centre and exactly 1 between orthogonal ones, so most of
    # the update and selection steps' comparisons are ties
    rng = np.random.default_rng(n + min_samples)
    centres = np.vstack([np.eye(16)[:3], rng.standard_normal((2, 16))])
    with distance_matrix([centres[rng.integers(0, 5, size=n)]]) as m:
        assert isinstance(m, SquareDistanceFile)
        core = _core_distances(m, min_samples)
        mr = np.maximum(m.to_square()[0], np.maximum.outer(core[0], core[0]))
        np.fill_diagonal(mr, 0.0)
        assert sorted(_prim_mst(m, core)[0]) == sorted(oracle_mst_edges(mr.tolist()))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_cluster_groups_zero_vector_in_any_group_raises(size):
    groups = mixed_groups(5)
    groups.insert(len(groups) // 2, np.vstack([np.ones((size - 1, 8)), np.zeros((1, 8))]))
    with pytest.raises(ZeroVector):
        cluster_groups(groups, PARAMS)


# --- cluster_by_channel: each channel first, then one global call -----------------

def unit(*coords) -> np.ndarray:
    v = np.asarray(coords, dtype=np.float64)
    return v / np.linalg.norm(v)


def channel_labels(vectors, channels, sizes, params, eps=FALLBACK_EPS) -> list[int]:
    """cluster_by_channel over vectors keyed by index, channels in first-seen order; the labels by index."""
    grouped: dict = {}
    for index, (vector, channel, size) in enumerate(zip(vectors, channels, sizes)):
        grouped.setdefault(channel, []).append((index, vector, size))
    labels = cluster_by_channel(iter(grouped.values()), params, eps)
    assert sorted(labels) == list(range(len(vectors)))
    return [labels[index] for index in range(len(vectors))]


def global_call_stub(monkeypatch, label_of):
    """Stub the global cluster_groups call, labelling each entered vector v with label_of(v).

    The channel step calls dbscan, so only the global call meets the stub.
    Returns the list the stub appends each call's entered vectors to.
    """
    entered = []

    def fake(groups, params, eps=FALLBACK_EPS):
        [vectors] = groups
        entered.append([np.asarray(v) for v in vectors])
        return [(np.asarray([label_of(v) for v in vectors], dtype=np.int64), False)]

    monkeypatch.setattr(distcluster, "cluster_groups", fake)
    return entered


def test_three_far_points_in_one_channel_stay_apart():
    # channel a: a host seen twice and three guests, no two of them closer
    # than cosine distance 0.99; channels b to d each hold a copy of one guest
    e = np.eye(6)
    guests = [e[g] + 0.05 * e[4] for g in (1, 2, 3)]
    channel_a = [e[0], e[0] + 0.01 * e[5], *guests]
    # HDBSCAN at min_cluster_size 2 joins the three guests into one cluster,
    # which is why the channel step is DBSCAN
    joined, _ = cluster_groups([channel_a], HdbscanParams(2))[0]
    assert joined.tolist() == [0, 0, 1, 1, 1]
    vectors = channel_a + [g + 0.01 * e[5] for g in guests]
    labels = channel_labels(vectors, ["a"] * 5 + ["b", "c", "d"], [1] * 8, HdbscanParams(2))
    assert labels == [0, 0, 1, 2, 3, 1, 2, 3]


def test_a_one_point_channel_passes_through_unchanged(monkeypatch):
    vectors = [unit(1, 0, 0), unit(1, 0.01, 0), unit(0, 1, 0), unit(0, 1, 0.01), unit(0, 0, 1)]
    entered = global_call_stub(monkeypatch, lambda v: int(np.argmax(v)))
    labels = channel_labels(vectors, ["a", "a", "b", "b", "c"], [1] * 5, PARAMS)
    # two-member channel clusters enter whole at k = 2; the lone point of c enters as itself
    assert len(entered) == 1 and len(entered[0]) == 5
    assert entered[0][4] is vectors[4]
    assert labels == [0, 0, 1, 1, 2]


def test_representatives_are_the_members_nearest_the_mean():
    # mirror pairs at +-20, +-5 and +-60 degrees: the mean points along x,
    # and each pair is an exact tie, which goes to the smaller index
    vectors = []
    for angle in np.radians([20.0, 5.0, 60.0]):
        vectors += [[np.cos(angle), np.sin(angle)], [np.cos(angle), -np.sin(angle)]]
    assert channel_representatives(vectors, 1) == [2]
    assert channel_representatives(vectors, 3) == [0, 2, 3]
    assert channel_representatives(vectors, 4) == [0, 1, 2, 3]
    assert channel_representatives(vectors, 6) == list(range(6))
    assert channel_representatives(vectors, 9) == list(range(6))


def test_members_take_their_representatives_label_or_a_fresh_one(monkeypatch):
    # channel a: three near-x points (a cluster; two of them enter); channel b:
    # two near-y points (a cluster); channel c: a z point of one item and a w
    # point of three items. The global call labels x points 5 and all else noise
    vectors = [
        unit(0, 1, 0, 0), unit(1, 0.02, 0, 0), unit(0, 0, 1, 0), unit(1, 0, 0.02, 0),
        unit(0, 0, 0, 1), unit(1, 0, 0, 0.02), unit(0, 1, 0.02, 0),
    ]
    channels = ["b", "a", "c", "a", "c", "a", "b"]
    entered = global_call_stub(monkeypatch, lambda v: 5 if np.argmax(v) == 0 else -1)
    labels = channel_labels(vectors, channels, [1, 1, 1, 1, 3, 1, 1], PARAMS)
    assert len(entered[0]) == 6
    # the x cluster is renumbered 0, all three members included; the y
    # cluster and the three-item w point take fresh labels by smallest
    # index; the one-item z point stays noise
    assert labels == [1, 0, -1, 0, 2, 0, 1]


def test_a_channel_cluster_of_zero_mean_enters_as_all_its_members(monkeypatch):
    e = np.eye(3)
    vectors = [e[0], -e[0], e[1], -e[1], e[2]]
    assert channel_representatives(vectors[:4], 2) == [0, 1, 2, 3]
    entered = global_call_stub(monkeypatch, lambda v: 0)
    # at eps 2.5 the channel step joins antipodal points: one cluster of five
    # with mean e2, and one of four with a zero mean
    labels = channel_labels(vectors + vectors[:4], ["a"] * 5 + ["b"] * 4, [1] * 9, PARAMS, eps=2.5)
    assert [len(vs) for vs in entered] == [2 + 4]
    assert labels == [0] * 9


def test_cluster_by_channel_without_points():
    assert cluster_by_channel(iter([]), PARAMS) == {}


def test_the_channel_step_calls_dbscan_once_per_channel_and_skips_an_empty_one(monkeypatch):
    calls = []

    def counting(m, eps):
        calls.append((m.groups, m.n))
        return dbscan(m, eps)

    monkeypatch.setattr(distcluster, "dbscan", counting)
    global_call_stub(monkeypatch, lambda v: 0)
    channels = [[], [(0, unit(1, 0, 0), 1), (1, unit(1, 0.01, 0), 1)], [], [(2, unit(0, 1, 0), 1)]]
    assert cluster_by_channel(iter(channels), PARAMS) == {0: 0, 1: 0, 2: 0}
    assert calls == [(1, 2), (1, 1)]
    monkeypatch.undo()
    # an empty channel yields no label, and no error
    assert cluster_by_channel(iter([[], [(0, unit(1, 0, 0), 1)], []]), PARAMS) == {0: 0}
    assert cluster_by_channel(iter([[], []]), PARAMS) == {}


def test_a_channel_past_block_points_is_clustered_in_the_file_medium_as_the_oracle_does(monkeypatch):
    # one channel of BLOCK + 20 points around five orthogonal centres,
    # bitwise copies included, and one small channel; the first is
    # clustered over a file
    rng = np.random.default_rng(17)
    n = BLOCK + 20
    centres = np.eye(12)[:5]
    points = np.vstack([centres[rng.integers(0, 5, size=n)], centres[rng.integers(0, 5, size=12)]])
    points += 0.05 * rng.standard_normal(points.shape)
    points[::9] = points[0]
    vectors = [p / np.linalg.norm(p) for p in points]
    channels = ["big"] * n + ["small"] * 12
    sizes = rng.integers(1, 3, size=len(vectors)).tolist()
    media = []

    def recording(points):
        m = distance_matrix(points)
        media.append(type(m))
        return m

    monkeypatch.setattr(distcluster, "distance_matrix", recording)
    labels = channel_labels(vectors, channels, sizes, PARAMS)
    monkeypatch.undo()
    assert media[:2] == [SquareDistanceFile, SquareDistanceArray]
    assert n_clusters(labels) == 5
    assert labels == eager_cluster_by_channel(vectors, channels, sizes, PARAMS).tolist()


def test_a_channel_keeps_only_its_representatives_once_the_next_is_asked_for(monkeypatch):
    # channel c: five points near e_c, one channel cluster of which k = 2
    # are representatives, and e_(c+4), channel noise that is its own
    entered = global_call_stub(monkeypatch, lambda v: 0)
    refs = []  # a weak reference to each vector, channel by channel
    e = np.eye(10)

    def channel(c):
        vectors = [unit(*(e[c] + 0.01 * j * e[9])) for j in range(5)] + [unit(*e[c + 4])]
        refs.append([weakref.ref(v) for v in vectors])
        return [(6 * c + i, v, 1) for i, v in enumerate(vectors)]

    def channels():
        for c in range(4):
            # the earlier channels hold only their representatives and their noise
            assert [sum(ref() is not None for ref in r) for r in refs] == [3] * c
            yield channel(c)

    labels = cluster_by_channel(channels(), PARAMS)
    assert sorted(labels) == list(range(24))
    alive = [ref() for r in refs for ref in r if ref() is not None]
    assert len(alive) == 12
    # the vectors kept are the ones the global call ran over, in key order
    assert [id(v) for v in entered[0]] == [id(v) for v in alive]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    n_channels=st.integers(1, 6),
    min_cluster_size=st.integers(2, 4),
    min_samples=st.none() | st.integers(1, 3),
    eps=st.sampled_from([0.05, 0.3, FALLBACK_EPS, 1.2]),
    shuffler=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_streamed_labels_equal_the_eager_oracle_in_any_channel_order(
    seed, n, n_channels, min_cluster_size, min_samples, eps, shuffler
):
    # points around four centres at three spreads, bitwise duplicates
    # included, in random channels; each point stands for 1 to 3 items
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((4, 6))
    spread = rng.choice([0.0, 0.05, 0.4], size=n)
    points = centres[rng.integers(0, 4, size=n)] + spread[:, None] * rng.standard_normal((n, 6))
    vectors = [p / np.linalg.norm(p) for p in points]
    channels = rng.integers(0, n_channels, size=n).tolist()
    sizes = rng.integers(1, 4, size=n).tolist()
    params = HdbscanParams(min_cluster_size, min_samples)
    expected = eager_cluster_by_channel(vectors, channels, sizes, params, eps).tolist()

    grouped: dict = {}
    for index, (vector, channel, size) in enumerate(zip(vectors, channels, sizes)):
        grouped.setdefault(channel, []).append((index, vector, size))
    layout = list(grouped.values())
    shuffler.shuffle(layout)
    for points_of_channel in layout:
        shuffler.shuffle(points_of_channel)
    labels = cluster_by_channel(iter(layout), params, eps)
    assert [labels[index] for index in range(n)] == expected


# --- labels ----------------------------------------------------------------------

def test_label_groups_by_smallest_index():
    # clusters keep their members together, each noise index stands alone
    assert label_groups([1, -1, 0, 1, -1, 0, 2]) == [[0, 3], [1], [2, 5], [4], [6]]
    assert label_groups(np.asarray([-1, -1, 0])) == [[0], [1], [2]]
    assert label_groups([]) == []


# --- label csv -------------------------------------------------------------------

def test_labels_csv_round_trip():
    text = labels_csv(["a", "b", "c", "d"], np.asarray([0, 1, -1, 0]))
    assert text == "point_id,label\na,0\nb,1\nc,-1\nd,0\n"
    ids, loaded = labels_from_text(text)
    assert ids == ["a", "b", "c", "d"]
    assert loaded.tolist() == [0, 1, -1, 0]


def test_labels_csv_round_trips_any_id_without_a_line_feed():
    # str.splitlines would also break at U+2028, U+0085 and a carriage return
    ids = ["a b", "c\rd", "e\x85f", " g ", "h,i", "j\tk"]
    loaded_ids, loaded = labels_from_text(labels_csv(ids, range(len(ids))))
    assert loaded_ids == ids
    assert loaded.tolist() == list(range(len(ids)))
