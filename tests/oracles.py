"""Independent brute-force reference implementations used as test oracles.

Everything here favors directness over speed: naive double loops, recursive
tree walks, exhaustive enumeration. None of it shares code with the package,
except sample_blobs, which draws test points with the package's sphere
sampler rather than checking anything, oracle_reference_rows, which reads each
row with the package's .emb reader, loop_der, which maps speakers with the
package's linear_sum_assignment, and eager_cluster_by_channel, which clusters
with the package's distcluster.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from pathlib import Path

import numpy as np

from castgraph import distcluster
from castgraph.catalog import read_emb
from castgraph.metrics import linear_sum_assignment
from castgraph.synth import random_unit, rotate_within

INF = float("inf")


# --- test points ----------------------------------------------------------------

def sample_blobs(
    n_points: int,
    n_identities: int,
    dim: int,
    noise_deg: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Labeled points on the sphere, identities round-robin. Returns (points, labels)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = [random_unit(rng, dim) for _ in range(n_identities)]
    points = np.empty((n_points, dim), dtype=np.float64)
    labels = np.empty(n_points, dtype=np.int64)
    for i in range(n_points):
        identity = i % n_identities
        points[i] = rotate_within(rng, centroids[identity], noise_deg)
        labels[i] = identity
    return points, labels


# --- manifest references ---------------------------------------------------------

def oracle_reference_rows(root, refs) -> np.ndarray:
    """The rows a track's embedding references name: one whole-file read_emb per reference."""
    return np.array([read_emb(Path(root) / ref["file"])[ref["row"]] for ref in refs])


# --- pairwise distances ------------------------------------------------------

def naive_cosine_matrix(points) -> list[list[float]]:
    n = len(points)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dot = sum(float(a) * float(b) for a, b in zip(points[i], points[j]))
            na = math.sqrt(sum(float(a) ** 2 for a in points[i]))
            nb = math.sqrt(sum(float(b) ** 2 for b in points[j]))
            sim = dot / (na * nb)
            sim = max(-1.0, min(1.0, sim))
            out[i][j] = 1.0 - sim
    return out


def squares_from_condensed(n, entries) -> list[list[list[float]]]:
    """Each group's n x n square from its condensed row: d(i, j) for i < j in row-major order.

    The entries of pairs (0, 1), (0, 2), ..., (n - 2, n - 1) are read in
    turn and mirrored; the diagonal is 0.
    """
    squares = []
    for group in entries:
        values = iter(group)
        square = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                square[i][j] = square[j][i] = float(next(values))
        squares.append(square)
    return squares


# --- hierarchical density clustering ------------------------------------------

def _single_linkage_tree(mr):
    """Naive agglomerative single linkage; returns the root node.

    Nodes are dicts: leaves {'point': i}, merges {'left', 'right', 'dist'}.
    """
    n = len(mr)
    active = [({i}, {"point": i}) for i in range(n)]
    while len(active) > 1:
        best = None
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                cross = min(
                    (mr[i][j], (min(i, j), max(i, j)))
                    for i in active[a][0]
                    for j in active[b][0]
                )
                key = (cross[0], cross[1], a, b)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (dist, _, _, _), a, b = best
        merged = (
            active[a][0] | active[b][0],
            {"left": active[a][1], "right": active[b][1], "dist": dist},
        )
        active = [c for k, c in enumerate(active) if k not in (a, b)] + [merged]
    return active[0][1]


def _node_points(node):
    if "point" in node:
        return [node["point"]]
    return _node_points(node["left"]) + _node_points(node["right"])


def _condense(node, birth, mcs):
    cluster = {"birth": birth, "points": [], "children": []}
    cur = node
    while True:
        if "point" in cur:
            cluster["points"].append((cur["point"], INF))
            break
        lam = 1.0 / cur["dist"] if cur["dist"] > 0 else INF
        left, right = cur["left"], cur["right"]
        ls, rs = len(_node_points(left)), len(_node_points(right))
        if ls >= mcs and rs >= mcs:
            cluster["children"].append(_condense(left, lam, mcs))
            cluster["children"].append(_condense(right, lam, mcs))
            break
        if ls < mcs and rs < mcs:
            for p in _node_points(cur):
                cluster["points"].append((p, lam))
            break
        small, cur = (left, right) if ls < mcs else (right, left)
        for p in _node_points(small):
            cluster["points"].append((p, lam))
    return cluster


def _cluster_size(cluster):
    return len(cluster["points"]) + sum(_cluster_size(c) for c in cluster["children"])


def _stability(cluster):
    total = sum(lam - cluster["birth"] for _, lam in cluster["points"])
    for child in cluster["children"]:
        total += (child["birth"] - cluster["birth"]) * _cluster_size(child)
    return total


def _eom_select(cluster):
    """Returns (propagated stability, chosen descendant clusters)."""
    if not cluster["children"]:
        return _stability(cluster), [cluster]
    child_results = [_eom_select(c) for c in cluster["children"]]
    child_sum = sum(v for v, _ in child_results)
    own = _stability(cluster)
    if child_sum > own:
        return child_sum, [c for _, chosen in child_results for c in chosen]
    return own, [cluster]


def _all_points(cluster):
    points = [p for p, _ in cluster["points"]]
    for child in cluster["children"]:
        points += _all_points(child)
    return points


def oracle_mst_edges(weights):
    """Kruskal over every (w, i, j), i < j, in ascending order.

    Under that total order the minimum spanning tree is unique, so any exact
    MST with lexicographic tie-breaks must return these edges.
    """
    n = len(weights)
    component = list(range(n))
    edges = []
    for w, i, j in sorted((weights[i][j], i, j) for i in range(n) for j in range(i + 1, n)):
        ci, cj = component[i], component[j]
        if ci != cj:
            component = [ci if c == cj else c for c in component]
            edges.append((i, j, w))
    return edges


def oracle_hdbscan(square, min_cluster_size, min_samples):
    """Definition-level hierarchical density clustering; returns labels list."""
    n = len(square)
    k = min(min_samples, n)
    core = [sorted(square[i])[k - 1] for i in range(n)]
    mr = [
        [
            0.0 if i == j else max(core[i], core[j], square[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    root = _single_linkage_tree(mr)
    condensed_root = _condense(root, 0.0, min_cluster_size)

    selected = []
    for child in condensed_root["children"]:
        selected.extend(_eom_select(child)[1])

    labels = [-1] * n
    for cluster in selected:
        for p in _all_points(cluster):
            labels[p] = min(_all_points(cluster))
    # renumber by smallest member in first-appearance order
    order = sorted({l for l in labels if l != -1}, key=lambda c: labels.index(c))
    remap = {c: i for i, c in enumerate(order)}
    return [remap.get(l, -1) for l in labels]


# --- flat density clustering -----------------------------------------------------

def oracle_dbscan_core_points(square, eps, min_pts):
    n = len(square)
    return [
        sum(1 for j in range(n) if square[i][j] <= eps) >= min_pts for i in range(n)
    ]


def oracle_dbscan(square, eps, min_pts):
    """Every point's DBSCAN label, -1 for noise.

    Seeds are taken in ascending index order; each cluster grows breadth
    first from its seed, visiting a point's neighbours (d <= eps) in
    ascending index order, and only core points are expanded. A border point
    therefore takes the first cluster that reaches it.
    """
    n = len(square)
    core = oracle_dbscan_core_points(square, eps, min_pts)
    labels = [-1] * n
    cluster = 0
    for seed in range(n):
        if labels[seed] != -1 or not core[seed]:
            continue
        labels[seed] = cluster
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            for j in range(n):
                if square[v][j] <= eps and labels[j] == -1:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(j)
        cluster += 1
    return labels


def n_clusters(labels) -> int:
    """How many clusters a labelling holds: its distinct labels other than -1 (noise)."""
    return len({int(l) for l in labels} - {-1})


# --- records -------------------------------------------------------------------------

def record_fields(record) -> tuple:
    """A record's field values in order, an array as its shape and values: equal when the records are."""
    return tuple(
        (value.shape, value.tolist()) if hasattr(value, "tolist") else value
        for value in vars(record).values()
    )


# --- clustering scores -------------------------------------------------------------

def oracle_homogeneity_completeness(truth, pred):
    """Scores from the contingency table, written out longhand."""
    n = len(truth)
    classes = sorted(set(truth))
    clusters = sorted(set(pred))
    table = Counter(zip(truth, pred))

    def entropy(labels):
        counts = Counter(labels)
        return -sum((c / n) * math.log(c / n) for c in counts.values() if c)

    h_truth = entropy(truth)
    h_pred = entropy(pred)

    # H(truth | pred): weighted entropy of classes inside each cluster
    h_t_given_p = 0.0
    for k in clusters:
        size = sum(table[(c, k)] for c in classes)
        if size == 0:
            continue
        inner = -sum(
            (table[(c, k)] / size) * math.log(table[(c, k)] / size)
            for c in classes
            if table[(c, k)]
        )
        h_t_given_p += (size / n) * inner
    h_p_given_t = 0.0
    for c in classes:
        size = sum(table[(c, k)] for k in clusters)
        if size == 0:
            continue
        inner = -sum(
            (table[(c, k)] / size) * math.log(table[(c, k)] / size)
            for k in clusters
            if table[(c, k)]
        )
        h_p_given_t += (size / n) * inner

    hom = 1.0 if h_truth == 0 else 1.0 - h_t_given_p / h_truth
    com = 1.0 if h_pred == 0 else 1.0 - h_p_given_t / h_pred
    return hom, com


def oracle_best_assignment_accuracy(video_truth, video_pred):
    """Max accuracy over every cluster -> person map, by exhaustive search."""
    clusters = sorted(set(video_pred.values()))
    persons = sorted(set(video_truth.values()))
    best = 0
    for assignment in itertools.product(persons, repeat=len(clusters)):
        mapping = dict(zip(clusters, assignment))
        correct = sum(
            1 for v, k in video_pred.items() if mapping[k] == video_truth[v]
        )
        best = max(best, correct)
    return best / len(video_truth)


# --- diarization error rate ----------------------------------------------------------

def oracle_der(reference, hypothesis):
    """Sweep elementary intervals; try every injective speaker mapping."""
    ref = [(float(s), float(e), str(sp)) for s, e, sp in reference]
    hyp = [(float(s), float(e), str(sp)) for s, e, sp in hypothesis]
    bounds = sorted({x for s, e, _ in ref + hyp for x in (s, e)})
    cells = []
    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        ref_active = frozenset(sp for s, e, sp in ref if s < hi and e > lo)
        hyp_active = frozenset(sp for s, e, sp in hyp if s < hi and e > lo)
        cells.append((hi - lo, ref_active, hyp_active))

    total_ref = sum(w * len(r) for w, r, _ in cells)
    ref_speakers = sorted({sp for _, _, sp in ref})
    hyp_speakers = sorted({sp for _, _, sp in hyp})

    def error_for(mapping):
        err = 0.0
        for width, r_set, h_set in cells:
            matched = sum(
                1 for h in h_set if h in mapping and mapping[h] in r_set
            )
            nr, nh = len(r_set), len(h_set)
            err += width * (abs(nr - nh) + min(nr, nh) - matched)
        return err

    padded = ref_speakers + [None] * len(hyp_speakers)
    best = None
    for perm in itertools.permutations(padded, len(hyp_speakers)):
        mapping = {h: r for h, r in zip(hyp_speakers, perm) if r is not None}
        err = error_for(mapping)
        if best is None or err < best:
            best = err
    return best / total_ref


def loop_der(reference, hypothesis):
    """der one video at a time with Python sets and loops: the float operations
    metrics.video_ders must repeat, in the same order, for the same bits."""
    boundaries = sorted({t for start, end, _ in (*reference, *hypothesis) for t in (start, end)})
    at = {t: k for k, t in enumerate(boundaries)}
    ref_sets, hyp_sets = ([set() for _ in boundaries[1:]] for _ in range(2))
    for timeline, sets in ((reference, ref_sets), (hypothesis, hyp_sets)):
        for start, end, speaker in timeline:
            for k in range(at[start], at[end]):
                sets[k].add(speaker)
    widths = [boundaries[k + 1] - boundaries[k] for k in range(len(boundaries) - 1)]

    ref_speakers = sorted({speaker for _, _, speaker in reference})
    hyp_speakers = sorted({speaker for _, _, speaker in hypothesis})
    overlap = [[0.0] * len(hyp_speakers) for _ in ref_speakers]
    for k, width in enumerate(widths):
        for i, r in enumerate(ref_speakers):
            for j, h in enumerate(hyp_speakers):
                if r in ref_sets[k] and h in hyp_sets[k]:
                    overlap[i][j] += width
    mapping = {}
    if ref_speakers and hyp_speakers:
        rows, cols = linear_sum_assignment([[-x for x in row] for row in overlap])
        mapping = {hyp_speakers[j]: ref_speakers[i] for i, j in zip(rows, cols) if overlap[i][j] > 0.0}

    total_ref = error = 0.0
    for k, width in enumerate(widths):
        matched = sum(1 for h in hyp_sets[k] if h in mapping and mapping[h] in ref_sets[k])
        total_ref += len(ref_sets[k]) * width
        error += (max(len(ref_sets[k]), len(hyp_sets[k])) - matched) * width
    return error / total_ref


# --- track splitting -----------------------------------------------------------------

def oracle_split_ranges(start, end, max_len, min_len):
    """Expected piece frame ranges for one track."""
    pieces = []
    s = start
    while s <= end:
        e = min(s + max_len - 1, end)
        if e - s + 1 >= min_len:
            pieces.append((s, e))
        s = e + 1
    return pieces


# --- two-level clustering ---------------------------------------------------------

def eager_cluster_by_channel(vectors, channels, sizes, params, eps=distcluster.FALLBACK_EPS) -> np.ndarray:
    """Labels by index, from every point at once: the reference for distcluster.cluster_by_channel.

    The whole-corpus form the streaming one replaced: one dbscan call per
    channel, then one cluster_groups call over the units'
    channel_representatives, one set in index order. A point's index
    plays the part of its key; a unit's members take the global label of its
    first representative, clusters are numbered by smallest member, and a
    unit of several items left as noise takes a fresh label in the order of
    its smallest index.
    """
    by_channel: dict = {}
    for index, channel in enumerate(channels):
        by_channel.setdefault(channel, []).append(index)
    units = []
    for members in by_channel.values():
        with distcluster.distance_matrix([[vectors[i] for i in members]]) as m:
            [labels] = distcluster.dbscan(m, eps)
        units += [[members[i] for i in idxs] for idxs in distcluster.label_groups(labels)]
    units.sort(key=lambda unit: unit[0])

    k = max(params.min_cluster_size, params.effective_min_samples)
    entered, firsts = [], []
    for unit in units:
        representatives = [unit[j] for j in distcluster.channel_representatives([vectors[i] for i in unit], k)]
        entered += representatives
        firsts.append(representatives[0])
    entered.sort()
    [(found, _)] = distcluster.cluster_groups([[vectors[i] for i in entered]], params, eps)
    by_point = dict(zip(entered, found.tolist()))

    unit_labels = [by_point[first] for first in firsts]
    rank: dict[int, int] = {}
    for label in unit_labels:
        if label != -1:
            rank.setdefault(label, len(rank))
    labels = np.full(len(vectors), -1, dtype=np.int64)
    fresh = len(rank)
    for unit, label in zip(units, unit_labels):
        if label != -1:
            labels[unit] = rank[label]
        elif sum(sizes[i] for i in unit) > 1:
            labels[unit], fresh = fresh, fresh + 1
    return labels
