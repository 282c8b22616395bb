"""Cosine-distance kernels and density-based clustering.

Everything here is a pure function of its inputs. The clustering entry point
used by the rest of the pipeline is :func:`cluster_points`: vectors in, one
label per vector out. The distance matrix is built inside it, and
:func:`cluster_with_fallback` then runs hierarchical density clustering and
falls back to plain density clustering when the hierarchy labels everything
as noise (the single-identity failure mode) or when there are too few points
for a hierarchy at all. The hierarchy never selects its root, so fewer than
2 * min_cluster_size points that are not all identical come back all noise
without building it.

The condensed distance array, 8 * n(n-1)/2 bytes (143 MB at n = 5990), is
the only n^2 allocation of a clustering call; no n x n square is built. Core
distances come from one sequential pass over its rows, Prim reads each
joining point's distances to the points outside the tree from it, and DBSCAN
reads it one row at a time (CondensedDistanceMatrix.row).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, TooFewPoints, ZeroVector

INFTY = float("inf")


# --- distance kernels --------------------------------------------------------

def cosine_distance(a, b) -> float:
    """1 - cos(angle between a and b); range [0, 2].

    Identical vectors give exactly 0.0, not a rounding residue; downstream
    clustering relies on duplicate points being at distance zero.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"expected dimension {va.shape[0]}, got {vb.shape[0]}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine distance undefined for zero vectors")
    if np.array_equal(va, vb):
        return 0.0
    sim = float(np.dot(va, vb) / (na * nb))
    return 1.0 - max(-1.0, min(1.0, sim))


@dataclass
class CondensedDistanceMatrix:
    """Upper-triangular pairwise distances in row-major order.

    ``entries[k]`` holds d(i, j) for i < j with
    k = n*i - i*(i+1)/2 + (j - i - 1).
    """

    n: int
    entries: np.ndarray
    # d(i, j) for i < j sits at starts[i] + (j - i - 1), which is also
    # column[i] + j: starts[i] indexes d(i, i+1), the head of row i's upper part
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        expected = self.n * (self.n - 1) // 2
        if self.entries.shape != (expected,):
            raise ValueError(f"expected {expected} condensed entries, got {self.entries.shape}")
        i = np.arange(self.n, dtype=np.int64)
        self.starts = i * (2 * self.n - 1 - i) // 2
        self.column = self.starts - i - 1

    def index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return int(self.column[i]) + j

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.entries[self.index(i, j)])

    def row(self, v: int, out: np.ndarray | None = None) -> np.ndarray:
        """Row v of the square form, d(v, j) for every j, gathered in O(n)."""
        if out is None:
            out = np.empty(self.n, dtype=np.float64)
        np.take(self.entries, self.column[:v] + v, out=out[:v])
        out[v] = 0.0
        start = int(self.starts[v])
        out[v + 1 :] = self.entries[start : start + self.n - v - 1]
        return out

    def to_square(self) -> np.ndarray:
        """The n x n form; for oracles and tests, clustering never builds it."""
        square = np.zeros((self.n, self.n), dtype=np.float64)
        k = 0
        for i in range(self.n - 1):
            count = self.n - i - 1
            square[i, i + 1 :] = self.entries[k : k + count]
            k += count
        return square + square.T


# rows per GEMM block in distance_matrix. d(i, j) always comes from the one
# product unit[b:b+BLOCK] @ unit[b:].T of i's block start b, whichever thread
# computes it, so the worker count cannot change its bits
BLOCK = 256


def distance_matrix(points, workers: int = 1) -> CondensedDistanceMatrix:
    """Pairwise cosine distances over a point set.

    The unit vectors are multiplied in fixed row blocks against every column
    at or after the block's first row, and each block's upper part is written
    straight into its condensed slices. The condensed array is the only n^2
    allocation; workers only decide which thread computes which block.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch("distance_matrix input is not a 2-D array of uniform rows")
    n = arr.shape[0]
    if n < 2:
        raise TooFewPoints(n, 2)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("distance_matrix input contains a zero vector")
    unit = arr / norms[:, None]

    matrix = CondensedDistanceMatrix(n, np.empty(n * (n - 1) // 2, dtype=np.float64))
    entries, starts = matrix.entries, matrix.starts

    def fill_block(lo: int) -> None:
        hi = min(lo + BLOCK, n - 1)
        sims = unit[lo:hi] @ unit[lo:].T
        np.clip(sims, -1.0, 1.0, out=sims)
        np.subtract(1.0, sims, out=sims)
        for i in range(lo, hi):
            entries[starts[i] : starts[i] + (n - i - 1)] = sims[i - lo, i - lo + 1 :]

    blocks = range(0, n - 1, BLOCK)
    if workers <= 1 or len(blocks) < 2:
        for lo in blocks:
            fill_block(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(fill_block, blocks):
                pass

    # bitwise-identical points sit at distance exactly 0, not a rounding
    # residue; duplicate groups then stay atomic under single linkage
    groups: dict[bytes, list[int]] = {}
    for i in range(n):
        groups.setdefault(unit[i].tobytes(), []).append(i)
    for members in groups.values():
        if len(members) > 1:
            # every pair of the group, written in one assignment
            rows = np.asarray(members)[:, None]
            cols = rows.T
            entries[(matrix.column[rows] + cols)[rows < cols]] = 0.0
    return matrix


# --- labels ------------------------------------------------------------------

@dataclass
class ClusterLabels:
    """One label per point; -1 is noise, clusters are numbered 0..k-1."""

    labels: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size and self.labels.max() >= 0 else 0

    @property
    def n_noise(self) -> int:
        return int(np.sum(self.labels == -1))

    def all_noise(self) -> bool:
        return bool(np.all(self.labels == -1))


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


@dataclass(frozen=True)
class DbscanConfig:
    # eps=None selects the k-distance heuristic at clustering time
    eps: float | None = None
    min_pts: int = 2


# --- hierarchical density clustering ------------------------------------------

def _kth_smallest_per_row(m: CondensedDistanceMatrix, k: int) -> np.ndarray:
    """The k-th smallest entry (0-based) of every square row, self distance included.

    One sequential pass over the condensed rows. Row i's square row is the
    self distance, column i (d(j, i) for j < i) and row i's upper part. Only
    the k + 1 smallest of column i can be among the row's k + 1 smallest, and
    they are collected while the rows j < i go by, so no column is gathered.
    """
    n = m.n
    # smallest[:, j]: the k + 1 smallest d(i, j) over the rows i read so far, ascending
    smallest = np.full((k + 1, n), INFTY)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        upper = m.entries[m.starts[i] : m.starts[i] + n - i - 1]
        # column i holds i values so far; the slots past them are still inf
        row = np.concatenate(([0.0], smallest[:i, i], upper))
        out[i] = np.partition(row, k)[k]
        if i == n - 1:
            break
        # insert this row's upper part into the later columns' sorted lists
        carry = upper.copy()
        for kept in smallest[: i + 1, i + 1 :]:
            lower = np.minimum(kept, carry)
            np.maximum(kept, carry, out=carry)
            kept[...] = lower
    return out


def _core_distances(m: CondensedDistanceMatrix, min_samples: int) -> np.ndarray:
    """Distance from each point to its min_samples-th neighbor, self counted."""
    # the row includes the zero self-distance, so index k-1 is the k-th neighbor
    return _kth_smallest_per_row(m, min(min_samples, m.n) - 1)


def _prim_mst(m: CondensedDistanceMatrix, core: np.ndarray):
    """Exact MST under mutual reachability max(core_i, core_j, d_ij).

    When a point joins the tree, its mutual reachability to each point still
    outside is read from the condensed array; no n x n weight matrix exists.
    Returns (n-1) edges as (i, j, w) with i < j. On equal weights the edge
    with the smaller (i, j) pair wins, which pins down the tree (and hence
    the whole hierarchy) for inputs with duplicate distances.
    """
    n = m.n
    entries = m.entries
    # the points outside the tree and, per point, its best edge into the
    # tree; a joining point is swapped out with the last one, which is safe
    # because no choice below depends on a point's position
    rest = np.arange(1, n)
    column = m.column[1:].copy()
    rest_core = core[1:].copy()
    best_w = np.full(n - 1, INFTY)
    best_parent = np.zeros(n - 1, dtype=np.int64)

    edges = []
    v = 0
    while rest.size:
        w = entries[np.where(rest < v, column + v, rest + m.column[v])]
        np.maximum(w, rest_core, out=w)
        np.maximum(w, core[v], out=w)
        update = w < best_w
        best_w[update] = w[update]
        best_parent[update] = v
        # on exact weight ties prefer the lexicographically smaller pair
        tie = np.flatnonzero((w == best_w) & (best_parent != v))
        if tie.size:
            u, p = rest[tie], best_parent[tie]
            new_lo, old_lo = np.minimum(v, u), np.minimum(p, u)
            new_hi, old_hi = np.maximum(v, u), np.maximum(p, u)
            better = (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
            best_parent[tie[better]] = v

        w_min = best_w.min()
        candidates = np.flatnonzero(best_w == w_min)
        k = candidates[0]
        if candidates.size > 1:
            # lexicographic tie-break on the (i, j) pair the edge would add
            u, p = rest[candidates], best_parent[candidates]
            k = candidates[np.lexsort((np.maximum(p, u), np.minimum(p, u)))[0]]
        v, p = int(rest[k]), int(best_parent[k])
        edges.append((min(p, v), max(p, v), float(w_min)))
        last = rest.size - 1
        for arr in (rest, column, rest_core, best_w, best_parent):
            arr[k] = arr[last]
        rest, column, rest_core = rest[:last], column[:last], rest_core[:last]
        best_w, best_parent = best_w[:last], best_parent[:last]
    return edges


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


def hdbscan(m: CondensedDistanceMatrix, params: HdbscanParams) -> ClusterLabels:
    """Hierarchical density-based clustering over a precomputed matrix.

    Pipeline: core distances (k = min_samples, counting the point itself),
    mutual reachability max(core_i, core_j, d_ij), exact Prim MST with
    lexicographic tie-breaks, single-linkage hierarchy, condensation by
    min_cluster_size, and excess-of-mass cluster extraction. The root of the
    condensed tree is not a candidate cluster, so single-class inputs come
    back as all noise; the one exception is a set of exactly identical points,
    which is defined to be a single cluster.
    """
    n = m.n
    if n < params.min_cluster_size:
        raise TooFewPoints(n, params.min_cluster_size)
    if not m.entries.any():
        return ClusterLabels(np.zeros(n, dtype=np.int64))
    # a true split needs min_cluster_size points on each side, and the root
    # itself is never selected: below that no cluster can come out
    if n < 2 * params.min_cluster_size:
        return ClusterLabels(np.full(n, -1, dtype=np.int64))

    edges = _prim_mst(m, _core_distances(m, params.effective_min_samples))
    merges = _single_linkage(n, edges)
    point_rows, cluster_children, birth_lambda = _condense_tree(
        n, merges, params.min_cluster_size
    )
    stability = _stability(point_rows, cluster_children, birth_lambda)
    chosen = _excess_of_mass(stability, cluster_children)

    parent_of: dict[int, int] = {}
    for cluster, children in cluster_children.items():
        for child, _, _ in children:
            parent_of[child] = cluster

    labels = np.full(n, -1, dtype=np.int64)
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

    # renumber to 0..k-1 by smallest member point
    clusters, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.full(len(clusters), -1, dtype=np.int64)
    found = clusters >= 0
    rank[found] = np.argsort(np.argsort(first[found]))
    return ClusterLabels(rank[inverse])


# --- flat density clustering ---------------------------------------------------

def dbscan(m: CondensedDistanceMatrix, eps: float, min_pts: int) -> ClusterLabels:
    """Classic density-reachability clustering.

    A point is core when at least min_pts points (itself included) lie within
    eps, boundary inclusive. Seeds are visited in ascending index order and
    expansion is breadth-first over ascending neighbor indices, so border
    points always join the first cluster that discovers them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = m.n
    row = np.empty(n, dtype=np.float64)
    # self always qualifies at distance zero
    core = np.asarray([np.count_nonzero(m.row(v, row) <= eps) >= min_pts for v in range(n)])

    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != -1 or not core[seed]:
            continue
        labels[seed] = cluster
        queue = [seed]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            # neighbors are found again when a point is expanded, not kept:
            # at a large eps the lists would add up to n^2 indices
            fresh = np.flatnonzero(m.row(v, row) <= eps)  # ascending
            fresh = fresh[labels[fresh] == -1]
            labels[fresh] = cluster
            queue.extend(fresh[core[fresh]].tolist())
        cluster += 1
    return ClusterLabels(labels)


def k_distance_eps(m: CondensedDistanceMatrix, k: int = 4, percentile: float = 90.0) -> float:
    """Heuristic eps: the given percentile of the k-th nearest neighbor distances."""
    n = m.n
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return 1.0
    knn = _kth_smallest_per_row(m, k_eff)  # index 0 is the self distance
    return float(np.percentile(knn, percentile))


def cluster_with_fallback(
    m: CondensedDistanceMatrix,
    params: HdbscanParams,
    fallback: DbscanConfig | None = None,
) -> tuple[ClusterLabels, bool]:
    """Hierarchical clustering with a flat-density escape hatch.

    Falls back to dbscan when the hierarchy finds only noise, and also when
    there are fewer points than min_cluster_size (a hierarchy cannot exist);
    min_pts is clamped to the point count so a lone point still gets a label
    decision instead of an error.
    """
    config = fallback if fallback is not None else DbscanConfig()
    try:
        labels = hdbscan(m, params)
    except TooFewPoints:
        labels = None
    if labels is not None and not labels.all_noise():
        return labels, False
    eps = config.eps if config.eps is not None else k_distance_eps(m)
    min_pts = min(config.min_pts, m.n)
    return dbscan(m, eps, min_pts), True


def cluster_points(
    vectors,
    params: HdbscanParams,
    fallback: DbscanConfig | None = None,
    workers: int = 1,
) -> tuple[ClusterLabels, bool]:
    """Cluster labels for a set of vectors, one per vector in order, and whether the fallback ran.

    No vectors give no labels and no fallback. A single vector skips the
    distance matrix and gets the fallback's one-point decision. A zero vector
    raises ZeroVector at any n.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if len(points) == 0:
        return ClusterLabels(np.empty(0, dtype=np.int64)), False
    if len(points) == 1:
        if not points.any():
            raise ZeroVector("cluster_points input contains a zero vector")
        matrix = CondensedDistanceMatrix(1, np.empty(0, dtype=np.float64))
    else:
        matrix = distance_matrix(points, workers)
    return cluster_with_fallback(matrix, params, fallback)
