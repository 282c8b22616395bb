"""Clustering-quality and diarization-quality metrics.

Entropies use natural logarithms; any base cancels in the ratios the scores
are built from. The noise label (-1) is treated as an ordinary cluster so
unclustered points lower the scores instead of silently disappearing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from . import collabgraph
from .errors import EmptyReference, InsufficientHistory, KeyMismatch, LengthMismatch


# --- label-based clustering scores ---------------------------------------------

def _check_lengths(truth, pred) -> int:
    if len(truth) != len(pred):
        raise LengthMismatch(len(truth), len(pred))
    if len(truth) == 0:
        raise LengthMismatch(0, 0)
    return len(truth)


def _entropy(counts, total: int) -> float:
    h = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            h -= p * math.log(p)
    return h


def _conditional_entropy(pairs, outer_counts, total: int) -> float:
    """H(inner | outer) from joint (outer, inner) pair counts."""
    h = 0.0
    for (outer, _), joint in pairs.items():
        if joint > 0:
            h -= (joint / total) * math.log(joint / outer_counts[outer])
    return h


def homogeneity(truth_labels, pred_labels) -> float:
    """1 - H(truth|pred) / H(truth); 1.0 when every cluster is single-class."""
    n = _check_lengths(truth_labels, pred_labels)
    truth_counts = Counter(truth_labels)
    pred_counts = Counter(pred_labels)
    joint = Counter(zip(pred_labels, truth_labels))
    h_truth = _entropy(truth_counts.values(), n)
    if h_truth == 0.0:
        return 1.0
    h_cond = _conditional_entropy(joint, pred_counts, n)
    return 1.0 - h_cond / h_truth


def completeness(truth_labels, pred_labels) -> float:
    """1 - H(pred|truth) / H(pred); 1.0 when every class stays in one cluster."""
    return homogeneity(pred_labels, truth_labels)


def v_from_scores(h: float, c: float) -> float:
    """Harmonic mean of a homogeneity and a completeness value."""
    if h + c == 0.0:
        return 0.0
    return 2.0 * h * c / (h + c)


def v_measure(truth_labels, pred_labels) -> float:
    return v_from_scores(
        homogeneity(truth_labels, pred_labels), completeness(truth_labels, pred_labels)
    )


def assignment_accuracy(video_truth: dict, video_pred: dict) -> float:
    """Fraction of videos whose predicted cluster maps to the right person.

    Each cluster is mapped to its plurality person over the videos it was
    predicted for (several clusters may map to the same person); a video is
    correct when the mapping of its predicted cluster equals its true person.
    Plurality ties resolve to the smallest person id under sort order.
    """
    if set(video_truth.keys()) != set(video_pred.keys()):
        raise KeyMismatch("video_truth and video_pred cover different videos")
    if not video_truth:
        raise KeyMismatch("no videos to score")
    by_cluster: dict = defaultdict(Counter)
    for video, cluster in video_pred.items():
        by_cluster[cluster][video_truth[video]] += 1
    mapped = {}
    for cluster, persons in by_cluster.items():
        best = max(persons.values())
        mapped[cluster] = sorted(p for p, c in persons.items() if c == best)[0]
    correct = sum(
        1 for video, cluster in video_pred.items() if mapped[cluster] == video_truth[video]
    )
    return correct / len(video_truth)


# --- diarization error rate ------------------------------------------------------

def linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """Minimum-cost one-to-one assignment of rows to columns of a rectangular matrix.

    The shortest augmenting path method with dual potentials (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016), in
    the form scipy's linear_sum_assignment runs it, step for step: the same
    float operations, columns scanned from a reverse-filled list, ties won by
    an unassigned column, and a tall matrix transposed and its pairs sorted,
    so ties resolve to the same assignment. Returns (rows, cols),
    min(rows, columns) pairs with rows ascending.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = list(zip(*cost))
        nr, nc = nc, nr
    inf = math.inf
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        # shortest augmenting path from cur_row; filling remaining in reverse
        # makes a constant cost matrix come out as the identity
        remaining = list(range(nc - 1, -1, -1))
        shortest = [inf] * nc
        seen_rows, seen_cols = [False] * nr, [False] * nc
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            index, lowest = -1, inf
            seen_rows[i] = True
            row = cost[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # on equal cost prefer a column that ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in range(nr):
            if seen_rows[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def der(reference, hypothesis) -> float:
    """Diarization error rate with a zero-length collar.

    (missed speech + false alarm + speaker confusion) / total reference
    speech time, under the overlap-maximizing one-to-one speaker mapping,
    solved exactly by linear_sum_assignment (shortest augmenting paths).
    Both timelines are lists of (start_s, end_s, speaker) triples. The
    one-video case of video_ders, which gives the definition in full.
    """
    if not reference:
        raise EmptyReference("reference timeline is empty")
    return video_ders(*timeline_table([(reference, hypothesis)]))[0]


def timeline_table(pairs) -> tuple[list, list, list, list, list]:
    """The segment table of (reference, hypothesis) timeline pairs, as video_ders reads it.

    Pair k is video k, and each (start_s, end_s, speaker) triple is one row
    with its speaker on its own side only. Each side's speakers are ranked
    in their own sort order.
    """
    rows = [
        (k, start, end, speaker, side)
        for k, pair in enumerate(pairs)
        for side, timeline in enumerate(pair)
        for start, end, speaker in timeline
    ]
    columns = [[row[c] for row in rows] for c in range(3)]
    for side in (0, 1):
        rank = {speaker: r for r, speaker in enumerate(sorted({row[3] for row in rows if row[4] == side}))}
        columns.append([rank[row[3]] if row[4] == side else -1 for row in rows])
    return tuple(columns)


def _ranges(first, last):
    """Every first[k] <= x < last[k], k in order, as (k, x) columns; none for a k with last[k] <= first[k]."""
    counts = np.maximum(last - first, 0)
    row = np.repeat(np.arange(len(first)), counts)
    return row, first[row] + np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)


def video_ders(video, start, end, reference, hypothesis) -> list[float]:
    """Diarization error rate of every video of a segment table, videos 0, 1, ... in order.

    Row k runs from start[k] to end[k] in video video[k] and is spoken by
    reference[k] in the reference and by hypothesis[k] in the hypothesis.
    A speaker is an integer rank, a smaller rank sorting first, and -1 marks
    a side the row is absent from. Each video is scored by one definition,
    whose float operations run in this order:
    - the grid is the video's row starts and ends, sorted and distinct; a
      row is active on the grid intervals from its start to its end, so a
      reversed or zero-length row adds grid points but no activity;
    - overlap[i][j] adds up, interval after interval, the widths of the
      intervals where reference speaker i and hypothesis speaker j are both
      active;
    - hypothesis speakers map one-to-one to reference speakers by
      linear_sum_assignment on -overlap, a pair only when its overlap is
      positive; with one speaker on either side, the first maximal cell,
      which is the pair linear_sum_assignment picks;
    - interval after interval, speech time adds n_ref * width and the error
      adds (max(n_ref, n_hyp) - matched) * width, matched being the mapped
      pairs active there; the DER is error / speech time.
    All videos go through each step together. EmptyReference is raised
    when a video has no reference row or no reference speech time.
    """
    video = np.asarray(video, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    sides = np.asarray(reference, dtype=np.int64), np.asarray(hypothesis, dtype=np.int64)
    n_videos = int(video.max(initial=-1)) + 1
    if not np.bincount(video[sides[0] >= 0], minlength=n_videos).all():
        raise EmptyReference("reference timeline is empty")

    # the grid: each video's distinct points, video after video, and each
    # row end's place on it; interval g runs from grid point g to g + 1
    points = np.concatenate([start, end])
    owners = np.concatenate([video, video])
    order = np.lexsort((points, owners))
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (np.diff(points[order]) != 0) | (np.diff(owners[order]) != 0)
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.cumsum(fresh) - 1
    grid, grid_owner = points[order][fresh], owners[order][fresh]
    widths = np.diff(grid)
    owner = grid_owner[:-1]
    widths[owner != grid_owner[1:]] = 0.0  # from one video's last point to the next video's first

    # each side's distinct (interval, speaker) activity, by interval and then
    # speaker; a side's speakers are numbered within their video in rank order
    activity, n_active, n_speakers = [], [], []
    for side in sides:
        rows = np.flatnonzero(side >= 0)
        span = int(side.max(initial=0)) + 1
        keys, key = np.unique(video[rows] * span + side[rows], return_inverse=True)
        counts = np.bincount(keys // span, minlength=n_videos)
        row, interval = _ranges(place[rows], place[rows + len(video)])
        interval, key = np.divmod(np.unique(interval * len(keys) + key[row]), max(len(keys), 1))
        activity.append((interval, key - (np.cumsum(counts) - counts)[owner[interval]]))
        n_active.append(np.bincount(interval, minlength=len(widths)))
        n_speakers.append(counts)
    (ref_interval, ref_speaker), (_, hyp_speaker) = activity
    n_ref, n_hyp = n_active
    n_rows, n_cols = n_speakers

    # every co-active (reference, hypothesis) pair of each interval, intervals in order
    hyp_first = (np.cumsum(n_hyp) - n_hyp)[ref_interval]
    pair_ref, pair_hyp = _ranges(hyp_first, hyp_first + n_hyp[ref_interval])
    pair_interval = ref_interval[pair_ref]
    sizes = n_rows * n_cols
    base = np.cumsum(sizes) - sizes
    pair_owner = owner[pair_interval]
    cell = base[pair_owner] + ref_speaker[pair_ref] * n_cols[pair_owner] + hyp_speaker[pair_hyp]
    overlap = np.zeros(int(sizes.sum()))
    np.add.at(overlap, cell, widths[pair_interval])

    # a video's cells sorted stably by overlap, largest first: its first cell is the first maximal one
    mapped = np.zeros(len(overlap), dtype=bool)
    narrow = np.minimum(n_rows, n_cols)
    mapped[np.lexsort((-overlap, np.repeat(np.arange(n_videos), sizes)))[base[narrow == 1]]] = True
    for v in np.flatnonzero(narrow > 1).tolist():
        block = overlap[base[v]:base[v] + sizes[v]].reshape(n_rows[v], n_cols[v])
        for i, j in zip(*linear_sum_assignment((-block).tolist())):
            mapped[base[v] + i * n_cols[v] + j] = True
    mapped &= overlap > 0.0
    matched = np.bincount(pair_interval[mapped[cell]], minlength=len(widths))

    speech = n_ref * widths
    wrong = (np.maximum(n_ref, n_hyp) - matched) * widths
    # each video's sums run interval by interval: np.add.at adds in index order
    total, error = np.zeros(n_videos), np.zeros(n_videos)
    np.add.at(total, owner, speech)
    np.add.at(error, owner, wrong)
    if (total == 0.0).any():
        raise EmptyReference("reference timeline has zero speech time")
    return (error / total).tolist()


# --- pipeline evaluation -----------------------------------------------------------

def _scores(truth_labels, pred_labels) -> dict:
    h, c = homogeneity(truth_labels, pred_labels), completeness(truth_labels, pred_labels)
    return {"homogeneity": h, "completeness": c, "v_measure": v_from_scores(h, c)}


def _video_scores(run, truth) -> tuple[dict, dict, list[float]]:
    """Every video's true and predicted host where it has a host and labels, and its DER where it has reference speech.

    One walk of run.segments_by_video in sorted video order gives the
    segment table: a row per segment with a true identity or a label, each
    speaker ranked by its string, as der ranks str(identity) and str(label).
    """
    video_ids = sorted(run.ds.videos)
    identities, labels = truth.segment_identity, run.speaker_labels
    ref_order, hyp_order = (sorted(set(values), key=str) for values in (identities.values(), labels.values()))
    ref_rank, hyp_rank = ({None: -1, **{value: r for r, value in enumerate(order)}} for order in (ref_order, hyp_order))
    table = np.array(
        [
            (v, s.start_s, s.end_s, ref_rank[identities.get(s.segment_id)], hyp_rank[labels.get(s.segment_id)])
            for v, video_id in enumerate(video_ids)
            for s in run.segments_by_video.get(video_id, ())
        ],
        dtype=np.float64,
    ).reshape(-1, 5)
    table = table[(table[:, 3] >= 0) | (table[:, 4] >= 0)]
    video, ref, hyp = (table[:, c].astype(np.int64) for c in (0, 3, 4))

    # the host vote: the most frequent label, the smallest on ties
    hosts = [truth.video_hosts.get(video_id) for video_id in video_ids]
    label_values = np.array(hyp_order, dtype=np.int64)
    voters = (hyp >= 0) & np.array([host is not None for host in hosts], dtype=bool)[video]
    low = int(label_values.min(initial=0))
    span = int(label_values.max(initial=0)) - low + 1
    keys, counts = np.unique(video[voters] * span + label_values[hyp[voters]] - low, return_counts=True)
    # keys ascend by video and then label, and the sort is stable: the smallest label leads its ties
    ordered = keys[np.lexsort((-counts, keys // span))]
    winners = ordered[np.unique(ordered // span, return_index=True)[1]]
    video_truth: dict[str, int] = {}
    video_pred: dict[str, int] = {}
    for v, label in zip((winners // span).tolist(), (winners % span + low).tolist()):
        video_truth[video_ids[v]] = hosts[v]
        video_pred[video_ids[v]] = label

    spoken = np.bincount(video[ref >= 0], minlength=len(video_ids)) > 0
    rows = spoken[video]
    ders = video_ders((np.cumsum(spoken) - 1)[video[rows]], table[rows, 1], table[rows, 2], ref[rows], hyp[rows])
    return video_truth, video_pred, ders


def evaluate_run(run, truth) -> dict:
    """Score a finished PipelineRun's results against generator ground truth.

    An entity's true identity is the most frequent one among its member
    tracks, and a video's predicted host is its most frequent speaker
    label; both take the smallest on ties. DER is averaged over videos
    with reference speech. The host votes and the DERs of all videos come
    from one segment table, in numpy passes over every video at once;
    video_ders gives each video the DER der gives it, bit for bit.
    growth_factor is left out when no channel has both collaboration and
    non-collaboration view histories, as mean_der is when no video has
    reference speech.
    """
    report: dict = {}
    entity_truth = []
    for entity in run.entities:
        identities = [truth.track_identity[run.piece_sources[t]] for t in entity.member_track_ids]
        # max keeps the first of equal counts: the smallest id
        entity_truth.append(max(sorted(set(identities)), key=identities.count))
    if entity_truth:
        entity_pred = [run.face_labels[e.entity_id] for e in run.entities]
        report["face_clustering"] = _scores(entity_truth, entity_pred)
    segment_ids = sorted(run.speaker_labels)
    if segment_ids:
        report["speaker_clustering"] = _scores(
            [truth.segment_identity[i] for i in segment_ids], [run.speaker_labels[i] for i in segment_ids]
        )

    video_truth, video_pred, ders = _video_scores(run, truth)
    if video_truth:
        report["assignment_accuracy"] = assignment_accuracy(video_truth, video_pred)
    if ders:
        report["mean_der"] = sum(ders) / len(ders)

    report["collaborations"] = collabgraph.graph_stats(run.edges, run.ds.channels.keys(), truth.event_triples())
    if truth.planted_growth_ratio is not None:
        try:
            report["growth_factor"] = collabgraph.growth_factor(run.ds.videos.values(), run.edges)
        except InsufficientHistory:
            pass
    return report


# --- plain-text report -------------------------------------------------------------

def format_evaluation_table(evaluation: dict) -> str:
    """Fixed-width table over the evaluation dict a pipeline run produces."""
    headers = ["Scope", "Correct", "Incorrect", "Homogeneity", "Completeness", "V-Measure"]
    rows = []
    accuracy = evaluation.get("assignment_accuracy")
    for scope, key in (("Faces", "face_clustering"), ("Speakers", "speaker_clustering")):
        scores = evaluation.get(key)
        if not scores:
            continue
        correct = f"{accuracy:.0%}" if scope == "Speakers" and accuracy is not None else "-"
        incorrect = f"{1 - accuracy:.0%}" if scope == "Speakers" and accuracy is not None else "-"
        rows.append(
            [
                scope,
                correct,
                incorrect,
                f"{scores['homogeneity']:.2f}",
                f"{scores['completeness']:.2f}",
                f"{scores['v_measure']:.2f}",
            ]
        )
    lines = [_align_row(headers, headers)]
    lines += [_align_row(row, headers) for row in rows]

    collab = evaluation.get("collaborations")
    if collab:
        lines.append("")
        headers2 = ["Nodes", "Edges", "Collaborations", "Correct", "Incorrect"]
        row2 = [
            str(collab["node_count"]),
            str(collab["edge_count"]),
            str(collab["collaboration_count"]),
            str(collab.get("correct", "-")),
            str(collab.get("incorrect", "-")),
        ]
        lines.append(_align_row(headers2, headers2))
        lines.append(_align_row(row2, headers2))
    if "mean_der" in evaluation:
        lines.append("")
        lines.append(f"Mean DER: {evaluation['mean_der']:.4f}")
    if "growth_factor" in evaluation:
        lines.append(f"Collaboration view-growth factor: {evaluation['growth_factor']:.4f}")
    return "\n".join(lines) + "\n"


def _align_row(cells, headers) -> str:
    widths = [max(12, len(h) + 2) for h in headers]
    out = [f"{cells[0]:<{widths[0]}}"]
    out += [f"{cell:>{width}}" for cell, width in zip(cells[1:], widths[1:])]
    return "".join(out)
