"""Output check for one pipeline run, and the quality metrics it yields.

The check reads the run's artifacts, not the process that wrote them: the
evaluation block of ``report.json`` must be present and complete, the label
files must agree with the report's counts, and the speaker V-measure is
recomputed from ``06_speaker_labels.csv`` and the generator's ground truth.
Workloads marked exact must recover the ground truth exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

# artifacts that must be byte-identical across repeats of one workload
ARTIFACTS = (
    "05_face_labels.csv",
    "06_speaker_labels.csv",
    "07_identities.json",
    "08_graph.json",
    "report.json",
)


def digests(out_dir: Path) -> dict[str, str | None]:
    """SHA-256 of each artifact in ARTIFACTS, None where it is missing."""
    out = {}
    for name in ARTIFACTS:
        path = Path(out_dir) / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def read_labels(path: Path) -> dict[str, int]:
    labels = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if line.strip():
                point_id, label = line.rstrip("\n").rsplit(",", 1)
                labels[point_id] = int(label)
    return labels


def _entropy(counts, total: int) -> float:
    return -sum(c / total * math.log(c / total) for c in counts if c)


def _homogeneity(truth, pred) -> float:
    h_truth = _entropy(Counter(truth).values(), len(truth))
    if h_truth == 0.0:
        return 1.0
    pred_counts = Counter(pred)
    h_cond = -sum(
        joint / len(truth) * math.log(joint / pred_counts[p])
        for (p, _), joint in Counter(zip(pred, truth)).items()
    )
    return 1.0 - h_cond / h_truth


def v_measure(truth, pred) -> float:
    """V-measure with noise as an ordinary cluster, as castgraph.metrics defines it."""
    h, c = _homogeneity(truth, pred), _homogeneity(pred, truth)
    return 0.0 if h + c == 0.0 else 2.0 * h * c / (h + c)


def check_run(out_dir: Path, truth, has_faces: bool, exact: bool) -> tuple[list[str], dict[str, float]]:
    """Problems found in one run's outputs, and its quality metrics."""
    out_dir = Path(out_dir)
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        face_labels = read_labels(out_dir / "05_face_labels.csv")
        speaker_labels = read_labels(out_dir / "06_speaker_labels.csv")
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"], {}
    evaluation = report.get("evaluation")
    required = ["speaker_clustering", "mean_der", "assignment_accuracy", "collaborations"]
    if has_faces:
        required.append("face_clustering")
    if not isinstance(evaluation, dict) or any(k not in evaluation for k in required):
        return [f"evaluation block missing or incomplete: {sorted(evaluation or {})}"], {}

    problems = []
    if len(face_labels) != report["entities"]:
        problems.append(f"{len(face_labels)} face labels for {report['entities']} entities")
    if not has_faces and report["entities"] != 0:
        problems.append(f"{report['entities']} face entities on a corpus without faces")
    for labels, key in ((face_labels, "face_clusters"), (speaker_labels, "speaker_clusters")):
        found = len({l for l in labels.values() if l != -1})
        if found != report[key]:
            problems.append(f"{found} clusters in labels, report says {key}={report[key]}")

    ids = sorted(speaker_labels)
    recomputed = v_measure(
        [truth.segment_identity[i] for i in ids], [speaker_labels[i] for i in ids]
    )
    reported = evaluation["speaker_clustering"]["v_measure"]
    if abs(recomputed - reported) > 1e-9:
        problems.append(f"speaker V-measure {reported} in report, {recomputed} from labels")

    collabs = evaluation["collaborations"]
    planted = len(truth.event_triples())
    if collabs["correct"] + collabs["missed"] != planted:
        problems.append(f"correct + missed != {planted} planted collaborations")
    detected = collabs["correct"] + collabs["incorrect"]
    quality = {
        # a corpus without faces has an empty face clustering, which is perfect
        "face_v_measure": evaluation["face_clustering"]["v_measure"] if has_faces else 1.0,
        "speaker_v_measure": reported,
        "one_minus_der": 1.0 - evaluation["mean_der"],
        "assignment_accuracy": evaluation["assignment_accuracy"],
        "collab_precision": collabs["correct"] / detected if detected else 0.0,
        "collab_recall": collabs["correct"] / planted if planted else 0.0,
    }
    if exact:
        misses = {
            "face_v_measure": quality["face_v_measure"] != 1.0,
            "speaker_v_measure": quality["speaker_v_measure"] != 1.0,
            "mean_der": evaluation["mean_der"] != 0.0,
            "incorrect": collabs["incorrect"] != 0,
            "missed": collabs["missed"] != 0,
        }
        problems += [f"exact recovery failed on {key}" for key, bad in misses.items() if bad]
    return problems, quality
