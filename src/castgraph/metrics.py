"""Clustering-quality and diarization-quality metrics.

Entropies use natural logarithms; any base cancels in the ratios the scores
are built from. The noise label (-1) is treated as an ordinary cluster so
unclustered points lower the scores instead of silently disappearing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

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

def _active_sets(timeline, at):
    """Speaker set per interval of the grid; interval k lies in [start, end) when at[start] <= k < at[end]."""
    sets = [set() for _ in range(len(at) - 1)]
    for start, end, speaker in timeline:
        for k in range(at[start], at[end]):
            sets[k].add(speaker)
    return sets


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
    Both timelines are lists of (start_s, end_s, speaker) triples.
    """
    if not reference:
        raise EmptyReference("reference timeline is empty")

    boundaries = sorted({t for start, end, _ in (*reference, *hypothesis) for t in (start, end)})
    at = {t: k for k, t in enumerate(boundaries)}
    ref_sets = _active_sets(reference, at)
    hyp_sets = _active_sets(hypothesis, at)
    widths = [boundaries[k + 1] - boundaries[k] for k in range(len(boundaries) - 1)]

    ref_speakers = sorted({speaker for _, _, speaker in reference})
    hyp_speakers = sorted({speaker for _, _, speaker in hypothesis})
    overlap = [[0.0] * len(hyp_speakers) for _ in ref_speakers]
    for k, width in enumerate(widths):
        for i, r in enumerate(ref_speakers):
            if r not in ref_sets[k]:
                continue
            for j, h in enumerate(hyp_speakers):
                if h in hyp_sets[k]:
                    overlap[i][j] += width

    mapping: dict[str, str] = {}
    if ref_speakers and hyp_speakers:
        cost = [[-overlap[i][j] for j in range(len(hyp_speakers))] for i in range(len(ref_speakers))]
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if overlap[i][j] > 0.0:
                mapping[hyp_speakers[j]] = ref_speakers[i]

    total_ref = 0.0
    error = 0.0
    for k, width in enumerate(widths):
        n_ref = len(ref_sets[k])
        n_hyp = len(hyp_sets[k])
        matched = sum(
            1 for h in hyp_sets[k] if h in mapping and mapping[h] in ref_sets[k]
        )
        total_ref += n_ref * width
        # missed + false alarm + confused speakers: |n_ref - n_hyp| + min(n_ref, n_hyp) - matched
        error += (max(n_ref, n_hyp) - matched) * width
    if total_ref == 0.0:
        raise EmptyReference("reference timeline has zero speech time")
    return error / total_ref


# --- pipeline evaluation -----------------------------------------------------------

def _scores(truth_labels, pred_labels) -> dict:
    h, c = homogeneity(truth_labels, pred_labels), completeness(truth_labels, pred_labels)
    return {"homogeneity": h, "completeness": c, "v_measure": v_from_scores(h, c)}


def evaluate_run(run, truth) -> dict:
    """Score a finished PipelineRun's results against generator ground truth.

    An entity's true identity is the most frequent one among its member
    tracks, and a video's predicted host is its most frequent speaker
    label; both take the smallest on ties. DER is averaged over videos
    with reference speech. growth_factor is left out when no channel has
    both collaboration and non-collaboration view histories, as mean_der is
    when no video has reference speech.
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

    video_truth: dict[str, int] = {}
    video_pred: dict[str, int] = {}
    ders = []
    for video_id in sorted(run.ds.videos):
        segments = run.segments_by_video.get(video_id, [])
        hyp = [
            (s.start_s, s.end_s, run.speaker_labels[s.segment_id])
            for s in segments
            if s.segment_id in run.speaker_labels
        ]
        host = truth.video_hosts.get(video_id)
        if hyp and host is not None:
            counts = Counter(label for _, _, label in hyp)
            best = max(counts.values())
            video_pred[video_id] = min(l for l, c in counts.items() if c == best)
            video_truth[video_id] = host
        ref = [
            (s.start_s, s.end_s, str(truth.segment_identity[s.segment_id]))
            for s in segments
            if s.segment_id in truth.segment_identity
        ]
        if ref:
            ders.append(der(ref, [(start, end, str(label)) for start, end, label in hyp]))
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
