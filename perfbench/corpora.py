"""Seeded synthetic corpora for the benchmark workloads.

Every workload is a ``castgraph.generate`` call (optionally followed by
``castgraph.corrupt``) written to disk with ``castgraph.write``. The seed is
the only free input: one seed gives the same dataset directory and the same
ground truth byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import castgraph

COMMON = {"collaboration_rate": 0.3, "planted_growth_ratio": 1.34}
MIXED = {
    "n_videos": 2304,
    "n_identities": 72,
    "n_channels": 36,
    "angular_noise_deg": 5.0,
    "offscreen_speaker_fraction": 0.5,
}
HALF = {"n_videos": 1152, "n_identities": 36, "n_channels": 18}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    # (dropout_rate, confidence_noise) for castgraph.corrupt, or None
    corrupt: tuple[float, float] | None = None
    # run over a checkpoint directory primed by a fresh run of the same corpus
    resume: bool = False
    # ground truth must be recovered exactly (precision = recall = V = 1, DER = 0)
    exact: bool = False
    has_faces: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-2304", MIXED, corrupt=(0.1, 0.2)),
        Workload("voices-6k", {**MIXED, "offscreen_speaker_fraction": 1.0}, has_faces=False),
        Workload(
            "dupes-0deg",
            {**HALF, "angular_noise_deg": 0.0, "offscreen_speaker_fraction": 0.5},
            exact=True,
        ),
        Workload("resume-mixed", MIXED, corrupt=(0.1, 0.2), resume=True),
    )
}


def synth_config(workload: Workload, seed: int, **overrides) -> castgraph.SynthConfig:
    """The generator settings of a workload; overrides shrink it for self-tests."""
    return castgraph.SynthConfig(**{**COMMON, **workload.synth, **overrides, "rng_seed": seed})


def build(workload: Workload, seed: int, data_dir: Path, **overrides) -> castgraph.GroundTruth:
    """Generate the workload's corpus, write it to data_dir, return its ground truth."""
    ds, truth = castgraph.generate(synth_config(workload, seed, **overrides))
    if workload.corrupt is not None:
        dropout, conf_noise = workload.corrupt
        ds = castgraph.corrupt(ds, dropout, conf_noise, seed=seed)
    castgraph.write(ds, data_dir)
    return truth
