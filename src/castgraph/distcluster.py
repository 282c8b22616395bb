"""Cosine-distance kernels and density-based clustering.

Everything here is a pure function of its inputs. The clustering entry point
used by the rest of the pipeline is :func:`cluster_groups`: point sets in,
one label per point and whether the fallback ran out, per set;
:func:`cluster_points` is its one-set case. The distance matrix is built
inside it, and :func:`cluster_with_fallback` then runs hierarchical density
clustering and falls back to plain density clustering when the hierarchy
labels everything as noise (the single-identity failure mode) or when there
are too few points for a hierarchy at all. The hierarchy never selects its
root, so fewer than 2 * min_cluster_size points that are not all identical
come back all noise without building it.

Group axis: cluster_groups stacks point sets of one size n, at most BLOCK
points per stack (a larger set is a stack of one), and clusters each stack
with one set of numpy calls. A condensed matrix whose entries are 2-D,
(G, n(n-1)/2), holds G groups. Distances, duplicate zeroing, the shortcuts,
core distances, Prim, the k-distance eps and DBSCAN's core counts loop over
n, never over G; only the dendrogram, condensation, excess-of-mass, label
renumbering and DBSCAN expansion run per group. Array results (core
distances, eps) keep the group axis; labels and edges come back as a list
with one entry per group, or as the single entry when the matrix has no
group axis.

Memory: a clustering call peaks at the condensed distance array, 8 *
n(n-1)/2 bytes per group, plus one n x d float64 buffer of unit vectors and
one BLOCK-row GEMM block, 8 * BLOCK * n bytes, while distance_matrix runs
(143 + 49 + 12 MB at n = 5990, d = 1024). The condensed array is the only
n^2 allocation; no n x n square is built. Core distances come from one
sequential pass over its rows, Prim reads each joining point's distances to
the points outside the tree from it, and DBSCAN reads it one row at a time
(CondensedDistanceMatrix.row).
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

    ``entries[..., k]`` holds d(i, j) for i < j with
    k = n*i - i*(i+1)/2 + (j - i - 1). 2-D entries are a stack: one such
    row per group, every group of n points.
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
        if self.entries.ndim not in (1, 2) or self.entries.shape[-1] != expected:
            raise ValueError(f"expected {expected} condensed entries per group, got {self.entries.shape}")
        i = np.arange(self.n, dtype=np.int64)
        self.starts = i * (2 * self.n - 1 - i) // 2
        self.column = self.starts - i - 1

    @property
    def grouped(self) -> bool:
        """Whether entries carry a leading group axis."""
        return self.entries.ndim == 2

    @property
    def stack(self) -> np.ndarray:
        """entries as (groups, n(n-1)/2), a view."""
        return self.entries if self.grouped else self.entries[None]

    def stacked(self, groups=None) -> CondensedDistanceMatrix:
        """This matrix with a group axis; given group indices, a copy of only those groups."""
        return self._with_entries(self.stack if groups is None else self.stack[groups])

    def group(self, g: int) -> CondensedDistanceMatrix:
        """Group g alone, a view without a group axis."""
        return self._with_entries(self.stack[g])

    def _with_entries(self, entries: np.ndarray) -> CondensedDistanceMatrix:
        # shares n, starts and column; skips __post_init__, which would rebuild them
        view = object.__new__(CondensedDistanceMatrix)
        view.__dict__.update(self.__dict__, entries=entries)
        return view

    def index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return int(self.column[i]) + j

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.entries[self.index(i, j)])

    def row(self, v: int, out: np.ndarray | None = None) -> np.ndarray:
        """Row v of the square form, d(v, j) for every j, gathered in O(n) per group."""
        if out is None:
            out = np.empty(self.entries.shape[:-1] + (self.n,), dtype=np.float64)
        np.take(self.entries, self.column[:v] + v, axis=-1, out=out[..., :v])
        out[..., v] = 0.0
        start = int(self.starts[v])
        out[..., v + 1 :] = self.entries[..., start : start + self.n - v - 1]
        return out

    def to_square(self) -> np.ndarray:
        """The n x n form, per group; for oracles and tests, clustering never builds it."""
        square = np.zeros(self.entries.shape[:-1] + (self.n, self.n), dtype=np.float64)
        k = 0
        for i in range(self.n - 1):
            count = self.n - i - 1
            square[..., i, i + 1 :] = self.entries[..., k : k + count]
            k += count
        return square + np.swapaxes(square, -1, -2)


def _per_group(m: CondensedDistanceMatrix, results: list):
    """results, one per group, as m's callers expect them: the list for a stack, else its one entry."""
    return results if m.grouped else results[0]


# rows per GEMM block in distance_matrix, and points per stack in
# cluster_groups. d(i, j) always comes from the one product
# unit[b:b+BLOCK] @ unit[b:].T of its group and i's block start b, whichever
# thread computes it and whichever groups share the stack, so neither the
# worker count nor the stacking can change its bits
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


def distance_matrix(points, workers: int = 1) -> CondensedDistanceMatrix:
    """Pairwise cosine distances over a point set, or over a stack of them.

    points is (n, d), or (G, n, d) for G sets of n points, which gives a
    matrix with a group axis. The points are copied once into a float64
    buffer (the caller's array is never touched), normalized there in place
    a few rows at a time, and multiplied in fixed row blocks against every
    column at or after the block's first row, all groups in one stacked
    product; each block's upper part is written straight into its condensed
    slices. The condensed array, that one buffer and one BLOCK-row product
    are all a call holds; workers only decide which thread computes which
    block.
    """
    try:
        buffer = np.array(points, dtype=np.float64)
    except ValueError as exc:
        # numpy's error for rows of different lengths (numpy >= 1.24)
        if "inhomogeneous" not in str(exc):
            raise
        raise DimensionMismatch("distance_matrix input rows differ in length") from exc
    if buffer.ndim not in (2, 3):
        raise DimensionMismatch("distance_matrix input is not a 2-D array of uniform rows or a stack of them")
    unit = buffer if buffer.ndim == 3 else buffer[None]
    n = unit.shape[1]
    if n < 2:
        raise TooFewPoints(n, 2)
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

    entries = np.empty((len(unit), n * (n - 1) // 2), dtype=np.float64)
    matrix = CondensedDistanceMatrix(n, entries if buffer.ndim == 3 else entries[0])
    starts = matrix.starts

    def fill_block(lo: int) -> None:
        hi = min(lo + BLOCK, n - 1)
        sims = unit[:, lo:hi] @ unit[:, lo:].transpose(0, 2, 1)
        np.clip(sims, -1.0, 1.0, out=sims)
        np.subtract(1.0, sims, out=sims)
        if classes is not None:
            # bitwise-identical points sit at distance exactly 0, not a
            # rounding residue; duplicate groups then stay atomic under
            # single linkage
            sims[classes[:, lo:hi, None] == classes[:, None, lo:]] = 0.0
        for i in range(lo, hi):
            entries[:, starts[i] : starts[i] + (n - i - 1)] = sims[:, i - lo, i - lo + 1 :]

    blocks = range(0, n - 1, BLOCK)
    if workers <= 1 or len(blocks) < 2:
        for lo in blocks:
            fill_block(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(fill_block, blocks):
                pass
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

    One sequential pass over the condensed rows, each step taken for every
    group at once; the result keeps m's group axis. Row i's square row is the
    self distance, column i (d(j, i) for j < i) and row i's upper part. Only
    the k + 1 smallest of column i can be among the row's k + 1 smallest, and
    they are collected while the rows j < i go by, so no column is gathered.
    """
    n = m.n
    entries = m.stack
    groups = len(entries)
    # smallest[g, :, j]: the k + 1 smallest d(i, j) over the rows i read so far, ascending
    smallest = np.full((groups, k + 1, n), INFTY)
    out = np.empty((groups, n), dtype=np.float64)
    self_distance = np.zeros((groups, 1))
    for i in range(n):
        upper = entries[:, m.starts[i] : m.starts[i] + n - i - 1]
        # column i holds i values so far; the slots past them are still inf
        row = np.concatenate((self_distance, smallest[:, :i, i], upper), axis=1)
        out[:, i] = np.partition(row, k, axis=1)[:, k]
        if i == n - 1:
            break
        # insert this row's upper part into the later columns' sorted lists
        carry = upper.copy()
        for slot in range(min(i + 1, k + 1)):
            kept = smallest[:, slot, i + 1 :]
            lower = np.minimum(kept, carry)
            np.maximum(kept, carry, out=carry)
            kept[...] = lower
    return out if m.grouped else out[0]


def _core_distances(m: CondensedDistanceMatrix, min_samples: int) -> np.ndarray:
    """Distance from each point to its min_samples-th neighbor, self counted."""
    # the row includes the zero self-distance, so index k-1 is the k-th neighbor
    return _kth_smallest_per_row(m, min(min_samples, m.n) - 1)


def _prim_mst(m: CondensedDistanceMatrix, core: np.ndarray) -> list:
    """Exact MST under mutual reachability max(core_i, core_j, d_ij), per group.

    When a point joins the tree, its mutual reachability to each point still
    outside is read from the condensed array; no n x n weight matrix exists.
    Every group adds its k-th edge in the same step. Returns (n-1) edges as
    (i, j, w) with i < j, one list per group. On equal weights the edge with
    the smaller (i, j) pair wins, which pins down the tree (and hence the
    whole hierarchy) for inputs with duplicate distances.
    """
    n = m.n
    entries = np.ascontiguousarray(m.stack).reshape(-1)
    core = np.reshape(core, (-1, n))
    groups = len(core)
    offset = np.arange(groups) * (n * (n - 1) // 2)  # each group's start in the flat entries
    # per group, the points outside the tree: their ids, their column
    # offsets in the flat entries, their core distances and their best edge
    # into the tree (weight and tree end). A joining point is swapped out
    # with the last one, which is safe because no choice below depends on a
    # point's position. Each array is (groups, n - 1); through the flat views
    # one index per group, first + k, reaches a point
    outside = np.tile(np.arange(1, n), (groups, 1))
    columns = m.column[1:] + offset[:, None]
    cores = core[:, 1:].copy()
    best_ws = np.full((groups, n - 1), INFTY)
    parents = np.zeros((groups, n - 1), dtype=np.int64)
    slots = [a.reshape(-1) for a in (outside, columns, cores, best_ws, parents)]
    flat_outside, flat_columns, flat_cores, flat_best_w, flat_parents = slots
    first = np.arange(groups) * (n - 1)
    last = first + n - 2
    # edge k of each group joins joined[:, k] to tree_end[:, k] at weights[:, k]
    joined = np.empty((groups, n - 1), dtype=np.int64)
    tree_end = np.empty((groups, n - 1), dtype=np.int64)
    weights = np.empty((groups, n - 1))

    v, column_v, core_v = np.zeros(groups, dtype=np.int64), m.column[0] + offset, core[:, 0]
    for step, size in enumerate(range(n - 1, 0, -1)):
        rest, column, rest_core = outside[:, :size], columns[:, :size], cores[:, :size]
        best_w, best_parent = best_ws[:, :size], parents[:, :size]
        at_v = v[:, None]
        w = entries[np.where(rest < at_v, column + at_v, rest + column_v[:, None])]
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
        v, column_v, core_v = flat_outside[at], flat_columns[at], flat_cores[at]
        joined[:, step], tree_end[:, step], weights[:, step] = v, flat_parents[at], w_min
        for flat in slots:
            flat[at] = flat[last]
        last -= 1
    lo, hi = np.minimum(joined, tree_end).tolist(), np.maximum(joined, tree_end).tolist()
    edges = [list(zip(*group)) for group in zip(lo, hi, weights.tolist())]
    return _per_group(m, edges)


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


def hdbscan(m: CondensedDistanceMatrix, params: HdbscanParams) -> ClusterLabels | list[ClusterLabels]:
    """Hierarchical density-based clustering over a precomputed matrix.

    Pipeline: core distances (k = min_samples, counting the point itself),
    mutual reachability max(core_i, core_j, d_ij), exact Prim MST with
    lexicographic tie-breaks, single-linkage hierarchy, condensation by
    min_cluster_size, and excess-of-mass cluster extraction. The root of the
    condensed tree is not a candidate cluster, so single-class inputs come
    back as all noise; the one exception is a set of exactly identical points,
    which is defined to be a single cluster. Returns ClusterLabels, one per
    group in a list when m has a group axis.
    """
    n = m.n
    if n < params.min_cluster_size:
        raise TooFewPoints(n, params.min_cluster_size)
    entries = m.stack
    labels = np.full((len(entries), n), -1, dtype=np.int64)
    distinct = entries.any(axis=1)
    labels[~distinct] = 0
    # a true split needs min_cluster_size points on each side, and the root
    # itself is never selected: below that no cluster can come out
    todo = np.flatnonzero(distinct) if n >= 2 * params.min_cluster_size else ()
    if len(todo):
        sub = m.stacked(None if len(todo) == len(entries) else todo)
        edges = _prim_mst(sub, _core_distances(sub, params.effective_min_samples))
        for g, group_edges in zip(todo, edges):
            labels[g] = _hierarchy_labels(n, group_edges, params.min_cluster_size)
    return _per_group(m, [ClusterLabels(row) for row in labels])


# --- flat density clustering ---------------------------------------------------

def dbscan(
    m: CondensedDistanceMatrix, eps: float | np.ndarray, min_pts: int
) -> ClusterLabels | list[ClusterLabels]:
    """Classic density-reachability clustering.

    A point is core when at least min_pts points (itself included) lie within
    eps, boundary inclusive; at eps 0 only points at distance exactly 0
    (bitwise duplicates) are neighbors. Seeds are visited in ascending index
    order and expansion is breadth-first over ascending neighbor indices, so
    border points always join the first cluster that discovers them. On a
    stack, eps is one value or one per group, and the labels come back as a
    list.
    """
    stack = m.stacked()
    groups = len(stack.entries)
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (groups,))
    if np.any(eps < 0):
        raise ValueError("eps must be non-negative")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = m.n
    rows = np.empty((groups, n), dtype=np.float64)
    core = np.empty((groups, n), dtype=bool)
    for v in range(n):
        # self always qualifies at distance zero
        core[:, v] = np.count_nonzero(stack.row(v, rows) <= eps[:, None], axis=1) >= min_pts

    labels = np.full((groups, n), -1, dtype=np.int64)
    row = np.empty(n, dtype=np.float64)
    for g in np.flatnonzero(core.any(axis=1)):
        group, group_core, group_labels = stack.group(g), core[g], labels[g]
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
                fresh = np.flatnonzero(group.row(v, row) <= eps[g])  # ascending
                fresh = fresh[group_labels[fresh] == -1]
                group_labels[fresh] = cluster
                queue.extend(fresh[group_core[fresh]].tolist())
            cluster += 1
    return _per_group(m, [ClusterLabels(l) for l in labels])


def k_distance_eps(
    m: CondensedDistanceMatrix, k: int = 4, percentile: float = 90.0
) -> float | np.ndarray:
    """Heuristic eps: the given percentile of the k-th nearest neighbor distances.

    A float, or an array with one eps per group when m has a group axis.
    """
    k_eff = min(k, m.n - 1)
    if k_eff < 1:
        eps = np.ones(len(m.stack))
    else:
        knn = _kth_smallest_per_row(m.stacked(), k_eff)  # index 0 is the self distance
        eps = np.percentile(knn, percentile, axis=-1)
    return eps if m.grouped else float(eps[0])


def cluster_with_fallback(
    m: CondensedDistanceMatrix,
    params: HdbscanParams,
    fallback: DbscanConfig | None = None,
) -> tuple[ClusterLabels, bool] | tuple[list[ClusterLabels], list[bool]]:
    """Hierarchical clustering with a flat-density escape hatch.

    Falls back to dbscan when the hierarchy finds only noise, and also when
    there are fewer points than min_cluster_size (a hierarchy cannot exist);
    min_pts is clamped to the point count so a lone point still gets a label
    decision instead of an error. Returns (labels, used_fallback); on a stack,
    (a list of labels, a list of flags), one per group, and only the groups
    that need it run the fallback.
    """
    config = fallback if fallback is not None else DbscanConfig()
    groups = len(m.stack)
    try:
        found = hdbscan(m, params)
        labels = found if m.grouped else [found]
    except TooFewPoints:
        labels = [None] * groups
    used = [l is None or l.all_noise() for l in labels]
    todo = [g for g, fell_back in enumerate(used) if fell_back]
    if todo:
        sub = m.stacked(None if len(todo) == groups else todo)
        eps = config.eps if config.eps is not None else k_distance_eps(sub)
        for g, l in zip(todo, dbscan(sub, eps, min(config.min_pts, m.n))):
            labels[g] = l
    return _per_group(m, labels), _per_group(m, used)


def cluster_groups(
    groups,
    params: HdbscanParams,
    fallback: DbscanConfig | None = None,
    workers: int = 1,
) -> list[tuple[ClusterLabels, bool]]:
    """Cluster labels for each of several vector sets, and whether its fallback ran.

    Each set is clustered on its own, exactly as if it were the only one.
    Sets of one size n (and one dimension) are stacked, at most BLOCK points
    per stack (a set larger than BLOCK is a stack of one), and each stack
    takes one distance_matrix and one cluster_with_fallback call; an error
    in any set is the whole call's error. An empty set gives no labels and
    no fallback. A set of one vector skips the distance matrix and gets the
    fallback's one-point decision. A zero vector in any set raises
    ZeroVector.
    """
    results: list[tuple[ClusterLabels, bool]] = [None] * len(groups)
    # stacked by size and dimension, so a set never meets a set of another shape
    by_shape: dict[tuple, list[int]] = {}
    for index, group in enumerate(groups):
        by_shape.setdefault((len(group), np.shape(group[0]) if len(group) else ()), []).append(index)
    for (n, row_shape), members in by_shape.items():
        if n == 0:
            for index in members:
                results[index] = ClusterLabels(np.empty(0, dtype=np.int64)), False
            continue
        if len(row_shape) != 1:
            raise DimensionMismatch("cluster_groups input is not a list of 2-D arrays of uniform rows")
        per_stack = max(1, BLOCK // n)
        for lo in range(0, len(members), per_stack):
            chunk = members[lo : lo + per_stack]
            stack = [groups[index] for index in chunk]
            if n > 1:
                # distance_matrix makes the stack's one float64 copy itself
                matrix = distance_matrix(stack, workers)
            elif np.asarray(stack, dtype=np.float64).any(axis=-1).all():
                matrix = CondensedDistanceMatrix(1, np.empty((len(chunk), 0), dtype=np.float64))
            else:
                raise ZeroVector("cluster_groups input contains a zero vector")
            labels, used = cluster_with_fallback(matrix, params, fallback)
            for index, group_labels, group_used in zip(chunk, labels, used):
                results[index] = group_labels, group_used
    return results


def cluster_points(
    vectors,
    params: HdbscanParams,
    fallback: DbscanConfig | None = None,
    workers: int = 1,
) -> tuple[ClusterLabels, bool]:
    """Cluster labels for one set of vectors, one per vector in order, and whether the fallback ran.

    The one-set case of cluster_groups.
    """
    return cluster_groups([vectors], params, fallback, workers)[0]
