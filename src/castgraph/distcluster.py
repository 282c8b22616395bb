"""Cosine distances and density-based clustering, over stacks of point sets.

Everything here is a pure function of its inputs. The clustering entry point
used by the rest of the pipeline is :func:`cluster_groups`: point sets in,
one label per point and whether the fallback ran out, per set;
:func:`cluster_points` is its one-set case. The distance matrix is built
inside it, and :func:`cluster_with_fallback` then runs hierarchical density
clustering and falls back to plain density clustering when the hierarchy
labels everything as noise (the single-identity failure mode) or when there
are too few points for a hierarchy at all. The hierarchy never selects its
root, so fewer than 2 * min_cluster_size points that are not all identical
come back all noise without building it. The fallback's radius is one fixed
cosine distance, FALLBACK_EPS, unless the caller gives another.

One calling convention: every matrix is a stack. cluster_groups stacks point
sets of one size n, at most BLOCK points per stack (a larger set is a stack
of one), and a matrix holds G groups, G = 1 included. Distances, duplicate
zeroing, the shortcuts, core distances, Prim, the k-distance eps and
DBSCAN's core counts loop over n, never over G; only the dendrogram,
condensation, excess-of-mass, label renumbering and DBSCAN expansion run per
group. Array results (core distances, eps) keep the group axis; labels,
edges and fallback flags come back as lists with one entry per group.

One layout in two media. Every matrix is G row-major n x n float64 squares.
Sets of at most BLOCK points (every per-video stack) keep them in memory, a
SquareDistanceArray of 8 * G * n^2 <= 8 * BLOCK * n bytes. A larger set
(every global clustering call) writes them to a SquareDistanceFile, an
unlinked temporary file under TMPDIR. The rule is fixed. Clustering reads
either medium only through row and rows, into buffers it owns; the file is
read with pread, never mapped, so its pages are page cache, not the
process's memory. A call over a file holds one n x d float64 buffer of unit
vectors and one BLOCK-row GEMM block with its transposed stripe while
distance_matrix runs (24 + 6 + 6 MB at n = 2995, d = 1024), then
O(BLOCK * n) row blocks.
"""

from __future__ import annotations

import copy
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewPoints, ZeroVector

INFTY = float("inf")


# --- distances ---------------------------------------------------------------

@dataclass(frozen=True)
class _Extent:
    """The condensed shape of a matrix's distances, (G, n(n-1)/2): their count, no values."""

    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


class DistanceMatrix:
    """Pairwise distances of G groups of n points as G row-major n x n float64 squares.

    Row i of a group's square holds d(i, j) for every j; d(j, i) has the bits
    of d(i, j) and d(i, i) is 0. ``distinct`` flags the groups with a nonzero
    distance, ``entries`` gives the condensed count of the distances without
    holding them, and ``group_ids`` maps each group to its square in the
    medium, which a subset shares. A medium subclass holds the squares and
    implements _read(first, count, out), which fills out[g] with square rows
    first[g] .. first[g] + count - 1 (first is one index for every group or
    an array of one per group), _write(lo, block, stripe) and close.
    """

    def __init__(self, n: int, distinct: np.ndarray):
        self.n, self.distinct = n, distinct
        self.group_ids = np.arange(len(distinct))

    @property
    def groups(self) -> int:
        return len(self.group_ids)

    @property
    def entries(self) -> _Extent:
        return _Extent((self.groups, self.n * (self.n - 1) // 2))

    def subset(self, groups) -> DistanceMatrix:
        """Only the given groups (an index array or a slice), over the same squares."""
        view = copy.copy(self)
        view.distinct, view.group_ids = self.distinct[groups], self.group_ids[groups]
        return view

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
        stores, into the matrix it made, before any subset exists.
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
            out[:, 0] = self.squares[self.group_ids, first]
        else:
            out[...] = self.squares[self.group_ids, first : first + count]

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
        for block, g, v in zip(out, self.group_ids.tolist(), firsts):
            if os.preadv(fd, [block], 8 * (g * self.n + v) * self.n) != block.nbytes:
                raise OSError("distance file ended early")

    def _write(self, lo: int, block: np.ndarray, stripe: np.ndarray) -> None:
        n, fd = self.n, self.file.fileno()
        stripe = np.ascontiguousarray(stripe)
        for g, own, lower in zip(self.group_ids.tolist(), block, stripe):
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
    never touched), normalized there in place a few rows at a time, and
    multiplied in fixed row blocks against every column at or after the
    block's first row, all groups in one stacked product. Each block goes
    straight to the squares: a SquareDistanceArray when n <= BLOCK, else a
    SquareDistanceFile. The caller closes the matrix (either medium is a
    context manager). That one buffer and one BLOCK-row product, with its
    transposed stripe, are all a call holds besides the squares in memory.
    One point per set gives (G, 1, 1) zero squares; a zero vector raises
    ZeroVector, and a failed write closes the file and raises its OSError.
    """
    try:
        unit = np.array(points, dtype=np.float64)
    except ValueError as exc:
        # numpy's error for rows of different lengths (numpy >= 1.24)
        if "inhomogeneous" not in str(exc):
            raise
        raise DimensionMismatch("distance_matrix input rows differ in length") from exc
    if unit.ndim != 3:
        raise DimensionMismatch("distance_matrix input is not a (groups, points, dimension) stack")
    n = unit.shape[1]
    # normalized a chunk of rows at a time, each chunk's temporaries no
    # larger than one GEMM block; a row's norm does not depend on the rows
    # around it, so the bits are those of one norm call over all rows
    step = max(1, min(BLOCK, BLOCK * n // max(1, unit.shape[2])))
    for lo in range(0, n, step):
        rows = unit[:, lo : lo + step]
        norms = np.linalg.norm(rows, axis=-1)
        if np.any(norms == 0.0):
            raise ZeroVector("distance_matrix input contains a zero vector")
        rows /= norms[..., None]
    classes = _duplicate_classes(unit)

    # the one cell no block writes, the last row's diagonal, is the zero fill
    # of the array or of the file, which is sized up front
    groups = len(unit)
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

@dataclass
class ClusterLabels:
    """One label per point; -1 is noise, clusters are numbered 0..k-1."""

    labels: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == -1))

    def all_noise(self) -> bool:
        return self.n_clusters == 0


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


def labels_from_text(text: str) -> tuple[list[str], ClusterLabels]:
    ids: list[str] = []
    values: list[int] = []
    for line in text.splitlines()[1:]:
        line = line.strip()
        if not line:
            continue
        point_id, label = line.rsplit(",", 1)
        ids.append(point_id)
        values.append(int(label))
    return ids, ClusterLabels(np.asarray(values, dtype=np.int64))


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

    When a point joins the tree, its row is read and its mutual reachability
    to each point still outside is gathered from it; no n x n weight matrix
    exists. Every group adds its k-th edge in the same step. Returns (n-1)
    edges as (i, j, w) with i < j, one list per group. On equal weights the
    edge with the smaller (i, j) pair wins, which pins down the tree (and
    hence the whole hierarchy) for inputs with duplicate distances.
    """
    n = m.n
    groups = len(core)
    # per group, the points outside the tree: their ids, their core
    # distances and their best edge into the tree (weight and tree end). A
    # joining point is swapped out with the last one, which is safe because
    # no choice below depends on a point's position. Each array is
    # (groups, n - 1); through the flat views one index per group,
    # first + k, reaches a point
    outside = np.tile(np.arange(1, n), (groups, 1))
    cores = core[:, 1:].copy()
    best_ws = np.full((groups, n - 1), INFTY)
    parents = np.zeros((groups, n - 1), dtype=np.int64)
    slots = [a.reshape(-1) for a in (outside, cores, best_ws, parents)]
    flat_outside, flat_cores, flat_best_w, flat_parents = slots
    first = np.arange(groups) * (n - 1)
    last = first + n - 2
    # edge k of each group joins joined[:, k] to tree_end[:, k] at weights[:, k]
    joined = np.empty((groups, n - 1), dtype=np.int64)
    tree_end = np.empty((groups, n - 1), dtype=np.int64)
    weights = np.empty((groups, n - 1))
    row = np.empty((groups, n))
    by_group = np.arange(groups)[:, None]

    v, core_v = np.zeros(groups, dtype=np.int64), core[:, 0]
    for step, size in enumerate(range(n - 1, 0, -1)):
        rest, rest_core = outside[:, :size], cores[:, :size]
        best_w, best_parent = best_ws[:, :size], parents[:, :size]
        at_v = v[:, None]
        w = m.row(v, row)[by_group, rest]
        np.maximum(w, rest_core, out=w)
        np.maximum(w, core_v[:, None], out=w)
        tie = w == best_w
        np.copyto(best_parent, at_v, where=w < best_w)
        np.minimum(best_w, w, out=best_w)
        if tie.any():
            # on exact weight ties prefer the lexicographically smaller pair
            new_lo, old_lo = np.minimum(at_v, rest), np.minimum(best_parent, rest)
            new_hi, old_hi = np.maximum(at_v, rest), np.maximum(best_parent, rest)
            tie &= (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
            np.copyto(best_parent, at_v, where=tie)

        at = first + best_w.argmin(axis=1)
        w_min = flat_best_w[at]
        candidates = best_w == w_min[:, None]
        if np.count_nonzero(candidates) > groups:
            # lexicographic tie-break on the (i, j) pair the edge would add;
            # the pairs differ, since each candidate's outside end differs
            key = np.minimum(best_parent, rest) * n + np.maximum(best_parent, rest)
            at = first + np.where(candidates, key, n * n).argmin(axis=1)
        v, core_v = flat_outside[at], flat_cores[at]
        joined[:, step], tree_end[:, step], weights[:, step] = v, flat_parents[at], w_min
        for flat in slots:
            flat[at] = flat[last]
        last -= 1
    lo, hi = np.minimum(joined, tree_end).tolist(), np.maximum(joined, tree_end).tolist()
    return [list(zip(*group)) for group in zip(lo, hi, weights.tolist())]


def _single_linkage(n: int, edges) -> list[tuple[int, int, float, int]]:
    """Union MST edges in (weight, i, j) order into a dendrogram.

    Node ids: points are 0..n-1, merge k creates node n+k. Each entry is
    (left_node, right_node, merge_distance, merged_size).
    """
    order = sorted(range(len(edges)), key=lambda k: (edges[k][2], edges[k][0], edges[k][1]))
    parent = list(range(2 * n - 1))
    node_of = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges: list[tuple[int, int, float, int]] = []
    for k in order:
        i, j, w = edges[k]
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


def _condense_tree(n: int, merges, min_cluster_size: int):
    """Collapse the dendrogram into clusters of at least min_cluster_size.

    Walking top-down, a node where both sides are big enough is a true split
    and creates two child clusters; otherwise the small side's points fall out
    of the current cluster at that level's lambda (= 1/distance) and the
    cluster continues down the big side.

    Returns (point_rows, cluster_children, birth_lambda) where point_rows maps
    cluster -> list of (point, lambda) fall-outs and cluster_children maps
    cluster -> list of (child_cluster, lambda, size). Cluster 0 is the root.
    """

    def node_size(node: int) -> int:
        return 1 if node < n else merges[node - n][3]

    def leaves(node: int):
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur < n:
                yield cur
            else:
                left, right, _, _ = merges[cur - n]
                stack.append(right)
                stack.append(left)

    point_rows: dict[int, list[tuple[int, float]]] = {0: []}
    cluster_children: dict[int, list[tuple[int, float, int]]] = {0: []}
    birth_lambda: dict[int, float] = {0: 0.0}
    next_cluster = 1

    root = n + len(merges) - 1 if merges else 0
    stack = [(root, 0)]
    while stack:
        node, cluster = stack.pop()
        while True:
            if node < n:
                # a cluster reduced to one point: it leaves when its last
                # merge would have, recorded by the caller below
                point_rows[cluster].append((node, INFTY))
                break
            left, right, dist, _ = merges[node - n]
            lam = 1.0 / dist if dist > 0.0 else INFTY
            left_size, right_size = node_size(left), node_size(right)
            big_left = left_size >= min_cluster_size
            big_right = right_size >= min_cluster_size
            if big_left and big_right:
                for child in (left, right):
                    child_id = next_cluster
                    next_cluster += 1
                    point_rows[child_id] = []
                    cluster_children[child_id] = []
                    birth_lambda[child_id] = lam
                    cluster_children[cluster].append((child_id, lam, node_size(child)))
                    stack.append((child, child_id))
                break
            if not big_left and not big_right:
                for point in leaves(node):
                    point_rows[cluster].append((point, lam))
                break
            small, node = (left, right) if not big_left else (right, left)
            for point in leaves(small):
                point_rows[cluster].append((point, lam))
    return point_rows, cluster_children, birth_lambda


def _stability(point_rows, cluster_children, birth_lambda) -> dict[int, float]:
    stability: dict[int, float] = {}
    for cluster, birth in birth_lambda.items():
        total = 0.0
        for _, lam in point_rows[cluster]:
            total += lam - birth
        for _, lam, size in cluster_children[cluster]:
            total += (lam - birth) * size
        stability[cluster] = total
    return stability


def _excess_of_mass(stability, cluster_children) -> set[int]:
    """Pick the most stable antichain of clusters; the root is never eligible."""
    selected: dict[int, bool] = {}
    propagated: dict[int, float] = {}
    for cluster in sorted(stability.keys(), reverse=True):
        if cluster == 0:
            continue
        children = cluster_children[cluster]
        if not children:
            selected[cluster] = True
            propagated[cluster] = stability[cluster]
            continue
        child_sum = sum(propagated[c] for c, _, _ in children)
        if child_sum > stability[cluster]:
            selected[cluster] = False
            propagated[cluster] = child_sum
        else:
            selected[cluster] = True
            propagated[cluster] = stability[cluster]

    final: set[int] = set()
    stack = [c for c, _, _ in cluster_children[0]]
    while stack:
        cluster = stack.pop()
        if selected[cluster]:
            final.add(cluster)
        else:
            stack.extend(c for c, _, _ in cluster_children[cluster])
    return final


def _hierarchy_labels(n: int, edges, min_cluster_size: int) -> list[int]:
    """Labels of one group from its MST: dendrogram, condensation, excess-of-mass, renumbering."""
    merges = _single_linkage(n, edges)
    point_rows, cluster_children, birth_lambda = _condense_tree(n, merges, min_cluster_size)
    stability = _stability(point_rows, cluster_children, birth_lambda)
    chosen = _excess_of_mass(stability, cluster_children)

    parent_of: dict[int, int] = {}
    for cluster, children in cluster_children.items():
        for child, _, _ in children:
            parent_of[child] = cluster

    labels = [-1] * n
    for cluster, rows in point_rows.items():
        node = cluster
        owner = -1
        while node != 0:
            if node in chosen:
                owner = node
                break
            node = parent_of[node]
        if owner == -1:
            continue
        for point, _ in rows:
            labels[point] = owner

    # renumber to 0..k-1 by smallest member point: a scan in point order
    # meets each cluster first at its smallest member
    rank: dict[int, int] = {}
    return [-1 if owner == -1 else rank.setdefault(owner, len(rank)) for owner in labels]


def hdbscan(m: DistanceMatrix, params: HdbscanParams) -> list[ClusterLabels]:
    """Hierarchical density-based clustering over a precomputed matrix.

    Pipeline: core distances (k = min_samples, counting the point itself),
    mutual reachability max(core_i, core_j, d_ij), exact Prim MST with
    lexicographic tie-breaks, single-linkage hierarchy, condensation by
    min_cluster_size, and excess-of-mass cluster extraction. The root of the
    condensed tree is not a candidate cluster, so single-class inputs come
    back as all noise; the one exception is a set of exactly identical points,
    which is defined to be a single cluster. Returns one ClusterLabels per
    group.
    """
    n, groups, distinct = m.n, m.groups, m.distinct
    if n < params.min_cluster_size:
        raise TooFewPoints(n, params.min_cluster_size)
    labels = np.full((groups, n), -1, dtype=np.int64)
    labels[~distinct] = 0
    # a true split needs min_cluster_size points on each side, and the root
    # itself is never selected: below that no cluster can come out
    todo = np.flatnonzero(distinct) if n >= 2 * params.min_cluster_size else ()
    if len(todo):
        sub = m if len(todo) == groups else m.subset(todo)
        edges = _prim_mst(sub, _core_distances(sub, params.effective_min_samples))
        for g, group_edges in zip(todo, edges):
            labels[g] = _hierarchy_labels(n, group_edges, params.min_cluster_size)
    return [ClusterLabels(row) for row in labels]


# --- flat density clustering ---------------------------------------------------

def dbscan(m: DistanceMatrix, eps: float | np.ndarray, min_pts: int) -> list[ClusterLabels]:
    """Classic density-reachability clustering.

    A point is core when at least min_pts points (itself included) lie within
    eps, boundary inclusive; at eps 0 only points at distance exactly 0
    (bitwise duplicates) are neighbors. Seeds are visited in ascending index
    order and expansion is breadth-first over ascending neighbor indices, so
    border points always join the first cluster that discovers them. eps is
    one value or one per group; one ClusterLabels per group comes back.
    """
    groups = m.groups
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (groups,))
    if np.any(eps < 0):
        raise ValueError("eps must be non-negative")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = m.n
    core = np.empty((groups, n), dtype=bool)
    for lo, rows in _row_blocks(m):
        # self always qualifies at distance zero
        core[:, lo : lo + rows.shape[1]] = np.count_nonzero(rows <= eps[:, None, None], axis=2) >= min_pts

    labels = np.full((groups, n), -1, dtype=np.int64)
    row = np.empty((1, n), dtype=np.float64)
    for g in np.flatnonzero(core.any(axis=1)):
        group, group_core, group_labels = m.subset(slice(g, g + 1)), core[g], labels[g]
        cluster = 0
        for seed in range(n):
            if group_labels[seed] != -1 or not group_core[seed]:
                continue
            group_labels[seed] = cluster
            queue = [seed]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                # neighbors are found again when a point is expanded, not kept:
                # at a large eps the lists would add up to n^2 indices
                fresh = np.flatnonzero(group.row(v, row)[0] <= eps[g])  # ascending
                fresh = fresh[group_labels[fresh] == -1]
                group_labels[fresh] = cluster
                queue.extend(fresh[group_core[fresh]].tolist())
            cluster += 1
    return [ClusterLabels(l) for l in labels]


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
    params: HdbscanParams,
    eps: float = FALLBACK_EPS,
) -> tuple[list[ClusterLabels], list[bool]]:
    """Hierarchical clustering with a flat-density escape hatch.

    Falls back to dbscan at radius eps when the hierarchy finds only noise,
    and also when there are fewer points than min_cluster_size (a hierarchy
    cannot exist); the fallback's min_pts of 2 is clamped to the point count
    so a lone point still gets a label decision instead of an error. Returns
    (labels, used_fallback flags), one of each per group; only the groups
    that need it run the fallback.
    """
    groups = m.groups
    try:
        labels = hdbscan(m, params)
    except TooFewPoints:
        labels = [None] * groups
    used = [l is None or l.all_noise() for l in labels]
    todo = [g for g, fell_back in enumerate(used) if fell_back]
    if todo:
        sub = m if len(todo) == groups else m.subset(todo)
        for g, l in zip(todo, dbscan(sub, eps, min(2, m.n))):
            labels[g] = l
    return labels, used


def cluster_groups(
    groups,
    params: HdbscanParams,
    eps: float = FALLBACK_EPS,
) -> list[tuple[ClusterLabels, bool]]:
    """Cluster labels for each of several vector sets, and whether its fallback ran.

    Each set is clustered on its own, exactly as if it were the only one.
    Sets of one size n (and one dimension) are stacked, at most BLOCK points
    per stack (a set larger than BLOCK is a stack of one), and each stack
    takes one distance_matrix and one cluster_with_fallback call; an error
    in any set is the whole call's error. An empty set gives no labels and
    no fallback; a set of one vector gets the fallback's one-point decision.
    A zero vector in any set raises ZeroVector.
    """
    results: list[tuple[ClusterLabels, bool]] = [None] * len(groups)
    # stacked by size and dimension, so a set never meets a set of another shape
    by_shape: dict[tuple, list[int]] = {}
    for index, group in enumerate(groups):
        by_shape.setdefault((len(group), np.shape(group[0]) if len(group) else ()), []).append(index)
    for (n, _), members in by_shape.items():
        if n == 0:
            for index in members:
                results[index] = ClusterLabels(np.empty(0, dtype=np.int64)), False
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
) -> tuple[ClusterLabels, bool]:
    """Cluster labels for one set of vectors, one per vector in order, and whether the fallback ran.

    The one-set case of cluster_groups.
    """
    return cluster_groups([vectors], params, eps)[0]
