"""Cross-video identity resolution and collaboration-graph mining.

The pipeline ingests face tracks and speech segments carrying precomputed
embeddings, resolves person identities across videos by clustering each
modality and bridging them through active-speaker evidence, and emits a
directed channel-collaboration graph plus evaluation metrics.
"""

# set before the submodule imports: pipeline stamps its checkpoints with it
__version__ = "0.1.0"

from .catalog import Dataset, ingest, normalize, validate, write
from .distcluster import (
    ClusterLabels,
    CondensedDistanceMatrix,
    DbscanConfig,
    HdbscanParams,
    cluster_with_fallback,
    cosine_distance,
    dbscan,
    distance_matrix,
    hdbscan,
)
from .pipeline import PipelineConfig, PipelineRun, run_pipeline
from .synth import GroundTruth, SynthConfig, corrupt, generate

__all__ = [
    "ClusterLabels",
    "CondensedDistanceMatrix",
    "Dataset",
    "DbscanConfig",
    "GroundTruth",
    "HdbscanParams",
    "PipelineConfig",
    "PipelineRun",
    "SynthConfig",
    "cluster_with_fallback",
    "corrupt",
    "cosine_distance",
    "dbscan",
    "distance_matrix",
    "generate",
    "hdbscan",
    "ingest",
    "normalize",
    "run_pipeline",
    "validate",
    "write",
]
