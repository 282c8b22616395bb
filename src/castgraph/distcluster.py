"""Cosine distances and density-based clustering, over stacks of point sets.

Everything here is a pure function of its inputs. The clustering entry point
used by the rest of the pipeline is :func:`cluster_groups`: point sets in,
one label per point and whether the fallback ran out, per set;
:func:`cluster_points` is its one-set case. The distance matrix is built
inside it, and :func:`cluster_with_fallback` then runs hierarchical density
clustering and falls back to plain density clustering when the hierarchy
labels everything as noise (the single-identity failure mode). One rule
decides small sets: the hierarchy never selects its root, so below
2 * min_cluster_size points only all-identical ones (a lone point included)
form a cluster, 0, and any other set is noise at once. The fallback,
:func:`dbscan`, is the connected components of the eps-graph (DBSCAN at
min_pts 2), at one fixed cosine distance, FALLBACK_EPS, unless the caller
gives another.

Recognition across videos is two-level (:func:`cluster_by_channel`): points
arrive one channel at a time, each channel is clustered by dbscan alone as
it arrives and keeps the vectors of only a few real members of each cluster
and of its noise, and one cluster_points call runs over those. A global
stage never holds every point at once.

One calling convention: every matrix is a stack. cluster_groups stacks point
sets of one size n, at most BLOCK points per stack (a larger set is a stack
of one), and a matrix holds G groups, G = 1 included. Distances, duplicate
zeroing, the shortcuts, core distances, Prim, the k-distance eps and
DBSCAN (one pass over the row blocks) loop over n, never over G; only the
dendrogram, condensation, excess-of-mass and label renumbering run per
group. Core distances, the k-distance eps and labels keep the group axis
(labels are one (G, n) int64 array: -1 is noise, clusters are numbered
0..k-1); MST edges and fallback flags come back as lists with one entry per
group.

One layout in two media. Every matrix is G row-major n x n float64 squares.
Sets of at most BLOCK points (every per-video stack, and every channel on
the benchmark corpora) keep them in memory, a SquareDistanceArray of
8 * G * n^2 <= 8 * BLOCK * n bytes. A larger set (every global call after
the channel step) writes them to a SquareDistanceFile, an unlinked temporary
file under TMPDIR. The rule is fixed. Clustering reads either medium only
through row and rows, into buffers it owns; the file is read with pread,
never mapped, so its pages are page cache, not the process's memory. A call
over a file holds one n x d float64 buffer of unit vectors, one of BLOCK^2
squared entries and one BLOCK-row GEMM block with its transposed stripe
while distance_matrix runs (6.8 + 0.5 + 1.7 + 1.7 MB at n = 831, d = 1024),
then O(BLOCK * n) row blocks.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroVector

INFTY = float("inf")


# --- distances ---------------------------------------------------------------

class DistanceMatrix:
    """Pairwise distances of G groups of n points as G row-major n x n float64 squares.

    Row i of a group's square holds d(i, j) for every j; d(j, i) has the bits
    of d(i, j) and d(i, i) is 0. ``distinct`` flags the groups with a nonzero
    distance and ``entries`` is a read-only view of the condensed shape
    (G, n(n-1)/2) that counts the distances and holds no values. A medium
    subclass holds the squares and implements _read(first, count, out),
    which fills out[g] with square rows first[g] .. first[g] + count - 1
    (first is one index for every group or an array of one per group),
    _write(lo, block, stripe) and close.
    """

    def __init__(self, n: int, distinct: np.ndarray):
        self.n, self.distinct = n, distinct

    @property
    def groups(self) -> int:
        return len(self.distinct)

    @property
    def entries(self) -> np.ndarray:
        return np.broadcast_to(np.float64(0.0), (self.groups, self.n * (self.n - 1) // 2))

    def row(self, v, out: np.ndarray | None = None) -> np.ndarray:
        """Row v of the square per group, d(v, j) for every j; v is one index or one per group."""
        if out is None:
            out = np.empty((self.groups, self.n), dtype=np.float64)
        self._read(v, 1, out[:, None])
        return out

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows lo .. hi - 1 of the square per group, (G, hi - lo, n)."""
        if out is None:
            out = np.empty((self.groups, hi - lo, self.n), dtype=np.float64)
        self._read(lo, hi - lo, out)
        return out

    def to_square(self) -> np.ndarray:
        """The (G, n, n) squares, copied; for oracles and tests, clustering never builds them."""
        return self.rows(0, self.n)

    def _store(self, lo: int, sims: np.ndarray) -> None:
        """Store one GEMM block, rows lo..lo+m-1 over columns lo..n-1, and its transpose.

        The block's own m x m square takes its lower triangle from the
        transpose and an exact 0 diagonal, so d(i, j) and d(j, i) are both the
        bits of the block of min(i, j). The rows past the block take the
        transposed stripe as their columns lo..lo+m-1. Only distance_matrix
        stores, into the matrix it made.
        """
        m = sims.shape[1]
        own = sims[:, :, :m]
        np.copyto(own, own.transpose(0, 2, 1), where=np.tri(m, k=-1, dtype=bool))
        own[:, np.arange(m), np.arange(m)] = 0.0
        self.distinct |= sims.any(axis=(1, 2))
        self._write(lo, sims, sims[:, :, m:].transpose(0, 2, 1))

    def close(self) -> None:
        """Release the medium; a no-op in memory."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


CondensedDistanceMatrix = DistanceMatrix  # perfbench's tracer hooks to_square under this name


class SquareDistanceArray(DistanceMatrix):
    """The squares in memory, one (G, n, n) float64 array; distinct is read from it."""

    def __init__(self, squares: np.ndarray):
        super().__init__(squares.shape[1], squares.any(axis=(1, 2)))
        self.squares = squares

    def _read(self, first, count, out) -> None:
        if np.ndim(first):
            out[:, 0] = self.squares[np.arange(self.groups), first]
        else:
            out[...] = self.squares[:, first : first + count]

    def _write(self, lo: int, block: np.ndarray, stripe: np.ndarray) -> None:
        m = block.shape[1]
        self.squares[:, lo : lo + m, lo:] = block
        self.squares[:, lo + m :, lo : lo + m] = stripe


class SquareDistanceFile(DistanceMatrix):
    """The squares in a file: group g's d(i, j) is at byte 8 * ((g * n + i) * n + j).

    ``file`` is an unlinked temporary file; closing the matrix closes it.
    Rows are read with pread into the caller's buffers.
    """

    def __init__(self, n: int, file, distinct: np.ndarray):
        super().__init__(n, distinct)
        self.file = file

    def close(self) -> None:
        self.file.close()

    def _read(self, first, count, out) -> None:
        fd = self.file.fileno()
        firsts = first.tolist() if isinstance(first, np.ndarray) else [first] * self.groups
        for g, (block, v) in enumerate(zip(out, firsts)):
            if os.preadv(fd, [block], 8 * (g * self.n + v) * self.n) != block.nbytes:
                raise OSError("distance file ended early")

    def _write(self, lo: int, block: np.ndarray, stripe: np.ndarray) -> None:
        n, fd = self.n, self.file.fileno()
        stripe = np.ascontiguousarray(stripe)
        for g, (own, lower) in enumerate(zip(block, stripe)):
            for r, data in enumerate((*own, *lower)):
                _pwrite(fd, data, 8 * ((g * n + lo + r) * n + lo))


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of data at offset; the rest of a short write is retried, so a full disk raises its error."""
    written = os.pwrite(fd, data, offset)
    if written < data.nbytes:
        _pwrite(fd, memoryview(data).cast("B")[written:], offset + written)


# rows per GEMM block in distance_matrix, and points per stack in
# cluster_groups. d(i, j) always comes from the one product
# unit[b:b+BLOCK] @ unit[b:].T of its group and i's block start b, whichever
# groups share the stack, so the stacking cannot change its bits
BLOCK = 256


def _duplicate_classes(unit: np.ndarray) -> np.ndarray | None:
    """Per group, one member's index for each point's class of bitwise-identical rows.

    None when no group holds a key shared by two rows. The wrapping integer
    sum of a row's bits sends identical rows to the same key, so only rows
    that share a key with another row of their group are compared as bytes.
    """
    keys = np.add.reduce(unit.view(np.uint64), axis=-1)
    order = np.argsort(keys, axis=-1)
    ordered = np.take_along_axis(keys, order, axis=-1)
    tied = ordered[:, 1:] == ordered[:, :-1]
    if not tied.any():
        return None
    shared = np.zeros(keys.shape, dtype=bool)
    shared[:, 1:] |= tied
    shared[:, :-1] |= tied
    classes = np.tile(np.arange(unit.shape[1]), (len(unit), 1))
    first: dict[tuple[int, bytes], int] = {}
    groups, positions = np.nonzero(shared)
    for g, i in zip(groups.tolist(), order[groups, positions].tolist()):
        classes[g, i] = first.setdefault((g, unit[g, i].tobytes()), i)
    return classes


def distance_matrix(points) -> DistanceMatrix:
    """Pairwise cosine distances within each of G sets of n points, given as (G, n, d).

    The points are copied once into a float64 buffer (the caller's array is
    never touched), normalized there in place BLOCK^2 values at a time, and
    multiplied in fixed row blocks against every column at or after the
    block's first row, all groups in one stacked product. Each block goes
    straight to the squares: a SquareDistanceArray when n <= BLOCK, else a
    SquareDistanceFile. The caller closes the matrix (either medium is a
    context manager). That buffer, BLOCK^2 values of squared entries and one
    BLOCK-row product, with its transposed stripe, are all a call holds
    besides the squares in memory.
    One point per set gives (G, 1, 1) zero squares; a zero vector raises
    ZeroVector, and a failed write closes the file and raises its OSError.
    """
    try:
        unit = np.array(points, dtype=np.float64, order="C")
    except ValueError as exc:
        # numpy's error for rows of different lengths (numpy >= 1.24)
        if "inhomogeneous" not in str(exc):
            raise
        raise DimensionMismatch("distance_matrix input rows differ in length") from exc
    if unit.ndim != 3:
        raise DimensionMismatch("distance_matrix input is not a (groups, points, dimension) stack")
    groups, n, d = unit.shape
    # normalized BLOCK^2 values at a time, the squares in one reused buffer,
    # by np.linalg.norm's own formula for real rows; a row's norm does not
    # depend on the rows around it, so the bits are those of one norm call
    flat = unit.reshape(groups * n, d)
    step = max(1, BLOCK * BLOCK // max(1, d))
    squares = np.empty((min(step, len(flat)), d))
    for lo in range(0, len(flat), step):
        rows = flat[lo : lo + step]
        norms = np.sqrt(np.add.reduce(np.multiply(rows, rows, out=squares[: len(rows)]), axis=-1))
        if np.any(norms == 0.0):
            raise ZeroVector("distance_matrix input contains a zero vector")
        rows /= norms[:, None]
    classes = _duplicate_classes(unit)

    # the one cell no block writes, the last row's diagonal, is the zero fill
    # of the array or of the file, which is sized up front
    if n > BLOCK:
        matrix = SquareDistanceFile(n, tempfile.TemporaryFile(buffering=0), np.zeros(groups, dtype=bool))
    else:
        matrix = SquareDistanceArray(np.zeros((groups, n, n)))
    try:
        if n > BLOCK:
            os.ftruncate(matrix.file.fileno(), 8 * groups * n * n)
        for lo in range(0, n - 1, BLOCK):
            hi = min(lo + BLOCK, n - 1)
            sims = unit[:, lo:hi] @ unit[:, lo:].transpose(0, 2, 1)
            np.clip(sims, -1.0, 1.0, out=sims)
            np.subtract(1.0, sims, out=sims)
            if classes is not None:
                # bitwise-identical points sit at distance exactly 0, not a
                # rounding residue; duplicate groups then stay atomic under
                # single linkage
                sims[classes[:, lo:hi, None] == classes[:, None, lo:]] = 0.0
            matrix._store(lo, sims)
            del sims  # freed before the next block's product: one block alive at a time
    except BaseException:
        matrix.close()
        raise
    return matrix


# --- labels ------------------------------------------------------------------

def label_groups(labels) -> list[list[int]]:
    """Member indices of each group: one group per cluster, one per noise index.

    Groups are ordered by their smallest index, and each lists its indices
    in ascending order.
    """
    groups: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        # noise index i keys as -1 - i, which no cluster label takes
        groups.setdefault(label if label != -1 else -1 - index, []).append(index)
    return list(groups.values())


def labels_csv(point_ids, labels) -> str:
    """``point_id,label`` lines under a header, one per point, in the given order."""
    return "point_id,label\n" + "".join(f"{p},{int(l)}\n" for p, l in zip(point_ids, labels))


def labels_from_text(text: str) -> tuple[list[str], np.ndarray]:
    """The inverse of labels_csv. Lines end at a line feed only, so an id keeps any other character."""
    ids: list[str] = []
    values: list[int] = []
    for line in text.split("\n")[1:]:
        if not line:
            continue
        point_id, label = line.rsplit(",", 1)
        ids.append(point_id)
        values.append(int(label))
    return ids, np.asarray(values, dtype=np.int64)


@dataclass(frozen=True)
class HdbscanParams:
    min_cluster_size: int = 2
    min_samples: int | None = None

    def __post_init__(self):
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if self.min_samples is not None and self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def effective_min_samples(self) -> int:
        return self.min_samples if self.min_samples is not None else self.min_cluster_size


# the fallback's radius: one person's points sit near cosine distance 0 and
# two people's near 1. A data-derived eps such as k_distance_eps equals the
# common distance of a near-equidistant small set, so it would join them all
FALLBACK_EPS = 0.5


# --- hierarchical density clustering ------------------------------------------

def _row_blocks(m: DistanceMatrix):
    """(lo, rows lo .. lo + b - 1 of every group) over blocks of at most BLOCK rows, in one reused buffer."""
    buffer = np.empty((m.groups, min(BLOCK, m.n), m.n), dtype=np.float64)
    for lo in range(0, m.n, BLOCK):
        hi = min(lo + BLOCK, m.n)
        yield lo, m.rows(lo, hi, buffer[:, : hi - lo])


def _kth_smallest_per_row(m: DistanceMatrix, k: int) -> np.ndarray:
    """The k-th smallest entry (0-based) of every square row, self distance included, (G, n).

    One pass over the rows, a block of them at a time, each block
    partitioned in place.
    """
    out = np.empty((m.groups, m.n), dtype=np.float64)
    for lo, rows in _row_blocks(m):
        rows.partition(k, axis=-1)
        out[:, lo : lo + rows.shape[1]] = rows[..., k]
    return out


def _core_distances(m: DistanceMatrix, min_samples: int) -> np.ndarray:
    """Distance from each point to its min_samples-th neighbor, self counted, (G, n)."""
    # the row includes the zero self-distance, so index k-1 is the k-th neighbor
    return _kth_smallest_per_row(m, min(min_samples, m.n) - 1)


def _prim_mst(m: DistanceMatrix, core: np.ndarray) -> list[list[tuple[int, int, float]]]:
    """Exact MST under mutual reachability max(core_i, core_j, d_ij), per group.

    When a point joins the tree, its row is read and turned into mutual
    reachability in place, and each point still outside keeps the better of
    its edge and its best edge so far; no n x n weight matrix exists. Every
    group adds its k-th edge in the same step. Returns (n-1) edges as
    (i, j, w) with i < j, one list per group. On equal weights the
    edge with the smaller (i, j) pair wins, which pins down the tree (and
    hence the whole hierarchy) for inputs with duplicate distances.
    """
    n = m.n
    groups = len(core)
    by_group = np.arange(groups)
    points = np.arange(n)
    # per group and point, the best edge into the tree (weight and tree end);
    # a tree point weighs inf, so it is never picked again
    best_w = np.full((groups, n), INFTY)
    best_parent = np.zeros((groups, n), dtype=np.int64)
    outside = np.ones((groups, n), dtype=bool)
    # edge k of each group joins joined[:, k] to tree_end[:, k] at weights[:, k]
    joined = np.empty((groups, n - 1), dtype=np.int64)
    tree_end = np.empty((groups, n - 1), dtype=np.int64)
    weights = np.empty((groups, n - 1))
    row = np.empty((groups, n))

    v = np.zeros(groups, dtype=np.int64)
    for step in range(n - 1):
        outside[by_group, v] = False
        best_w[by_group, v] = INFTY
        at_v = v[:, None]
        w = m.row(v, row)
        np.maximum(w, core, out=w)
        np.maximum(w, core[by_group, v][:, None], out=w)
        # only points outside the tree take a better edge or break a tie
        tie = (w == best_w) & outside
        closer = (w < best_w) & outside
        np.copyto(best_parent, at_v, where=closer)
        np.copyto(best_w, w, where=closer)
        if tie.any():
            # on exact weight ties prefer the lexicographically smaller pair
            new_lo, old_lo = np.minimum(at_v, points), np.minimum(best_parent, points)
            new_hi, old_hi = np.maximum(at_v, points), np.maximum(best_parent, points)
            tie &= (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
            np.copyto(best_parent, at_v, where=tie)

        v = best_w.argmin(axis=1)
        w_min = best_w[by_group, v]
        candidates = best_w == w_min[:, None]
        if np.count_nonzero(candidates) > groups:
            # lexicographic tie-break on the (i, j) pair the edge would add;
            # the pairs differ, since each candidate's outside end differs
            key = np.minimum(best_parent, points) * n + np.maximum(best_parent, points)
            v = np.where(candidates, key, n * n).argmin(axis=1)
        joined[:, step], tree_end[:, step], weights[:, step] = v, best_parent[by_group, v], w_min
    lo, hi = np.minimum(joined, tree_end).tolist(), np.maximum(joined, tree_end).tolist()
    return [list(zip(*group)) for group in zip(lo, hi, weights.tolist())]


def _single_linkage(n: int, edges) -> list[tuple[int, int, float, int]]:
    """Union MST edges in (weight, i, j) order into a dendrogram.

    Node ids: points are 0..n-1, merge k creates node n+k. Each entry is
    (left_node, right_node, merge_distance, merged_size).
    """
    parent = list(range(2 * n - 1))
    node_of = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges: list[tuple[int, int, float, int]] = []
    for i, j, w in sorted(edges, key=lambda e: (e[2], e[0], e[1])):
        ri, rj = find(i), find(j)
        left, right = node_of[ri], node_of[rj]
        if left > right:
            left, right = right, left
        new_id = n + len(merges)
        merged_size = size[ri] + size[rj]
        merges.append((left, right, w, merged_size))
        parent[rj] = ri
        node_of[ri] = new_id
        size[ri] = merged_size
    return merges


def _hierarchy_labels(n: int, edges, min_cluster_size: int) -> list[int]:
    """Labels of one group from its MST: the condensed tree and its excess-of-mass clusters.

    One walk down the dendrogram (Campello, Moulavi and Sander, PAKDD 2013)
    keeps, per cluster, its parent, birth lambda (= 1/distance), stability and
    children, and per point the cluster it fell out of. Cluster 0 is the
    root, and a child's id is always above its parent's. A node where both
    sides hold min_cluster_size points splits into two child clusters;
    otherwise the small side's points fall out at that lambda and the
    cluster goes on down the big side. Every node the walk meets has at
    least min_cluster_size points, so it is a merge, never a point.
    A stability is its fallen points' lambda - birth, in the order they fall,
    then (lambda - birth) * size per child: inf - inf at a split at distance
    0 is NaN, which compares false.
    """
    merges = _single_linkage(n, edges)
    parent, birth, stability, children = [-1], [0.0], [0.0], [[]]
    fell_from = [0] * n

    def size(node: int) -> int:
        return 1 if node < n else merges[node - n][3]

    stack = [(2 * n - 2, 0)]
    while stack:
        node, cluster = stack.pop()
        while node is not None:
            left, right, dist, _ = merges[node - n]
            lam = 1.0 / dist if dist > 0.0 else INFTY
            big_left, big_right = size(left) >= min_cluster_size, size(right) >= min_cluster_size
            if big_left and big_right:
                for child in (left, right):
                    children[cluster].append(len(parent))
                    stack.append((child, len(parent)))
                    parent.append(cluster)
                    birth.append(lam)
                    stability.append(0.0)
                    children.append([])
                    stability[cluster] += (lam - birth[cluster]) * size(child)
                break
            if big_left or big_right:
                falling, node = (left, right) if big_right else (right, left)
            else:
                falling, node = node, None
            nodes = [falling]
            while nodes:
                point = nodes.pop()
                if point < n:
                    fell_from[point] = cluster
                    stability[cluster] += lam - birth[cluster]
                else:
                    nodes += merges[point - n][:2]

    # bottom up, a cluster is kept unless its children's propagated
    # stabilities sum to more than its own; the root is never a candidate
    kept = [True] * len(parent)
    propagated = stability[:]
    for cluster in range(len(parent) - 1, 0, -1):
        if children[cluster]:
            child_sum = sum(propagated[child] for child in children[cluster])
            if child_sum > stability[cluster]:
                kept[cluster], propagated[cluster] = False, child_sum
    # top down, each cluster's owner is the topmost kept cluster at or above it
    owner = [-1] * len(parent)
    for cluster in range(1, len(parent)):
        above = owner[parent[cluster]]
        owner[cluster] = above if above != -1 else (cluster if kept[cluster] else -1)

    # renumber to 0..k-1 by smallest member point: a scan in point order
    # meets each cluster first at its smallest member
    rank: dict[int, int] = {}
    return [-1 if o == -1 else rank.setdefault(o, len(rank)) for o in (owner[c] for c in fell_from)]


def hdbscan(m: DistanceMatrix, params: HdbscanParams) -> np.ndarray:
    """Hierarchical density-based clustering over a precomputed matrix.

    Pipeline: core distances (k = min_samples, counting the point itself),
    mutual reachability max(core_i, core_j, d_ij), exact Prim MST with
    lexicographic tie-breaks, single-linkage hierarchy, condensation by
    min_cluster_size, and excess-of-mass cluster extraction. The root of the
    condensed tree is not a candidate cluster, so single-class inputs, and
    every set of fewer than 2 * min_cluster_size points, come back all noise;
    this one rule has one exception, all-identical points (a lone point
    included), which are cluster 0. Core distances and the MST are built
    over the whole stack, the hierarchy only for the other sets. Returns the
    (G, n) labels.
    """
    n, groups, distinct = m.n, m.groups, m.distinct
    labels = np.full((groups, n), -1, dtype=np.int64)
    labels[~distinct] = 0
    # a true split needs min_cluster_size points on each side, and the root
    # itself is never selected: below that no cluster can come out
    todo = np.flatnonzero(distinct) if n >= 2 * params.min_cluster_size else ()
    if len(todo):
        edges = _prim_mst(m, _core_distances(m, params.effective_min_samples))
        for g in todo:
            labels[g] = _hierarchy_labels(n, edges[g], params.min_cluster_size)
    return labels


# --- flat density clustering ---------------------------------------------------

def union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of each pair (a[k], b[k]) in a forest whose every id points at its root.

    Hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 1982):
    each root of a pair that spans two trees takes the smallest other root
    proposed for it, always a smaller one, and every id then jumps to its
    root again, until no pair spans two trees. Each root stays the smallest
    id of its tree.
    """
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent[:] = up


def _pairs(mask: np.ndarray, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ids (g * n + first + i, g * n + j) of the set cells [g, i, j] of a mask over rows from first.

    One flat scan: np.nonzero of a 3-d mask is about ten times slower.
    """
    rows, j = np.divmod(np.flatnonzero(mask), mask.shape[2])
    g = rows // mask.shape[1]
    return rows + g * (n - mask.shape[1]) + first, g * n + j


def dbscan(m: DistanceMatrix, eps: float) -> np.ndarray:
    """Density clustering at min_pts 2: the connected components of each group's eps-graph.

    DBSCAN (Ester, Kriegel, Sander and Xu, KDD 1996) at min_pts 2 has no
    border points, since a point with any neighbor within eps (boundary
    inclusive) is core; this is DBSCAN* (Campello, Moulavi and Sander,
    PAKDD 2013). At eps 0 only points at distance exactly 0 (bitwise
    duplicates) are neighbors. A component of two or more points is a
    cluster, numbered by its smallest point, and every other point is -1;
    a one-point set is cluster 0. Returns the (G, n) labels.

    One pass over the row blocks, each read once: each point is joined by
    union to every point before it within eps, BLOCK // 8 rows at a time, so
    no temporary is larger than the row block.
    """
    if not eps >= 0:
        raise ValueError("eps must be a non-negative number")
    groups, n = m.groups, m.n
    parent = np.arange(groups * n)  # union-find over the flat ids g * n + i
    for lo, rows in _row_blocks(m):
        for first in range(lo, lo + rows.shape[1], BLOCK // 8):
            chunk = rows[:, first - lo : first - lo + BLOCK // 8]
            last = first + chunk.shape[1]
            joins = chunk[:, :, :last] <= eps
            joins &= np.tri(last - first, last, first - 1, dtype=bool)
            union(parent, *_pairs(joins, first, n))
    # each root is its component's smallest point, so clusters are numbered
    # by root rank within the group
    clustered = np.bincount(parent, minlength=groups * n)[parent] >= min(2, n)
    roots = clustered & (parent == np.arange(groups * n))
    ranks = np.cumsum(roots.reshape(groups, n), axis=1).reshape(-1) - 1
    return np.where(clustered, ranks[parent], -1).reshape(groups, n)


def k_distance_eps(m: DistanceMatrix, k: int = 4, percentile: float = 90.0) -> np.ndarray:
    """Heuristic eps per group: the given percentile of the k-th nearest neighbor distances.

    The fallback does not use it (see FALLBACK_EPS).
    """
    k_eff = min(k, m.n - 1)
    if k_eff < 1:
        return np.ones(m.groups)
    knn = _kth_smallest_per_row(m, k_eff)  # index 0 is the self distance
    return np.percentile(knn, percentile, axis=-1)


def cluster_with_fallback(
    m: DistanceMatrix,
    params: HdbscanParams | None,
    eps: float = FALLBACK_EPS,
) -> tuple[np.ndarray, list[bool]]:
    """Hierarchical clustering with a flat-density escape hatch.

    One path: a group the hierarchy labels all noise takes dbscan at radius
    eps. Small sets follow hdbscan's one rule: a lone point is its cluster 0.
    With params None every group is noise and takes the fallback.
    Returns the (G, n) labels and one used_fallback flag per group. The
    fallback runs over the whole stack when any group needs it, and its rows
    replace only those groups' labels.
    """
    labels = hdbscan(m, params) if params is not None else np.full((m.groups, m.n), -1)
    used = (labels == -1).all(axis=1)
    if used.any():
        labels[used] = dbscan(m, eps)[used]
    return labels, used.tolist()


def cluster_groups(
    groups,
    params: HdbscanParams | None,
    eps: float = FALLBACK_EPS,
) -> list[tuple[np.ndarray, bool]]:
    """Cluster labels for each of several vector sets, and whether its fallback ran.

    Each set is clustered on its own, exactly as if it were the only one;
    with params None, by dbscan alone (see cluster_with_fallback).
    Sets of one size n (and one dimension) are stacked, at most BLOCK points
    per stack (a set larger than BLOCK is a stack of one), and each stack
    takes one distance_matrix and one cluster_with_fallback call; an error
    in any set is the whole call's error. An empty set gives no labels and
    no fallback; small sets follow hdbscan's one rule (a lone vector is 0).
    A zero vector in any set raises ZeroVector, and a negative or NaN eps
    raises ValueError before any set is clustered.
    """
    if not eps >= 0:
        raise ValueError("eps must be a non-negative number")
    results: list[tuple[np.ndarray, bool]] = [None] * len(groups)
    # stacked by size and dimension, so a set never meets a set of another shape
    by_shape: dict[tuple, list[int]] = {}
    for index, group in enumerate(groups):
        by_shape.setdefault((len(group), np.shape(group[0]) if len(group) else ()), []).append(index)
    for (n, _), members in by_shape.items():
        if n == 0:
            for index in members:
                results[index] = np.empty(0, dtype=np.int64), False
            continue
        per_stack = max(1, BLOCK // n)
        for lo in range(0, len(members), per_stack):
            chunk = members[lo : lo + per_stack]
            # distance_matrix makes the stack's one float64 copy itself
            with distance_matrix([groups[index] for index in chunk]) as matrix:
                labels, used = cluster_with_fallback(matrix, params, eps)
            for index, group_labels, group_used in zip(chunk, labels, used):
                results[index] = group_labels, group_used
    return results


def cluster_points(
    vectors,
    params: HdbscanParams,
    eps: float = FALLBACK_EPS,
) -> tuple[np.ndarray, bool]:
    """Cluster labels for one set of vectors, one per vector in order, and whether the fallback ran.

    The one-set case of cluster_groups.
    """
    return cluster_groups([vectors], params, eps)[0]


def channel_representatives(vectors, k: int) -> list[int]:
    """Indices, ascending, of the k vectors nearest the unit mean of all of them in cosine distance.

    Ties go to the smaller index. All of them when there are at most k, or
    when their unit vectors cancel to a zero mean, which has no direction.
    """
    if len(vectors) <= k:
        return list(range(len(vectors)))
    rows = np.array(vectors, dtype=np.float64)
    rows /= np.sqrt(np.square(rows).sum(axis=1))[:, None]
    mean = rows.sum(axis=0)
    if not mean.any():
        return list(range(len(rows)))
    # cosine similarity to the mean up to its positive norm; a pairwise sum,
    # not a BLAS product, so the ranking does not depend on the thread count
    nearest = np.argsort(-(rows * mean).sum(axis=1), kind="stable")[:k]
    return sorted(nearest.tolist())


def cluster_by_channel(
    channels,
    params: HdbscanParams,
    eps: float = FALLBACK_EPS,
) -> dict:
    """Labels by key for points given one channel at a time: each channel first, then one global call.

    channels yields each channel's points as a list of (key, unit vector,
    item count), keys distinct and comparable. A channel is clustered in key
    order by dbscan alone at eps when it arrives: at min_cluster_size 2
    HDBSCAN would join mutually far points that no other point is near. A
    unit is a channel cluster or a channel-noise point. Only each unit's
    channel_representatives, k = max(min_cluster_size, effective
    min_samples), keep their vectors before the next channel is asked for:
    real points, so the global pass keeps the density it needs. The one
    cluster_points call runs over the kept vectors in key order. A unit's
    members take the global label of its first representative, clusters
    numbered 0..k-1 by smallest member key. A unit of several items left
    as global noise takes a fresh label after them, in the order of its
    smallest key; a one-item unit stays -1. So the order in which channels
    arrive cannot change a label.
    """
    k = max(params.min_cluster_size, params.effective_min_samples)
    kept = {}  # representative key -> vector
    units = []  # (member keys ascending, first representative key, items)
    for channel in channels:
        channel = sorted(channel, key=lambda point: point[0])
        (flat, _), = cluster_groups([[vector for _, vector, _ in channel]], None, eps)
        for idxs in label_groups(flat):
            representatives = [idxs[j] for j in channel_representatives([channel[i][1] for i in idxs], k)]
            kept.update((channel[i][0], channel[i][1]) for i in representatives)
            units.append(([channel[i][0] for i in idxs], channel[representatives[0]][0],
                          sum(channel[i][2] for i in idxs)))
        del channel  # freed before the next channel is asked for
    keys = sorted(kept)
    found, _ = cluster_points([kept[key] for key in keys], params, eps)
    by_key = dict(zip(keys, found.tolist()))

    units.sort(key=lambda unit: unit[0][0])
    found = [by_key[first] for _, first, _ in units]
    rank = {label: r for r, label in enumerate(dict.fromkeys(label for label in found if label != -1))}
    labels, fresh = {}, len(rank)
    for (members, _, items), label in zip(units, found):
        label = rank.get(label, -1)
        if label == -1 and items > 1:
            label, fresh = fresh, fresh + 1
        labels.update(dict.fromkeys(members, label))
    return labels
