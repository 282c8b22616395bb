"""Cross-video identity resolution and collaboration-graph mining.

The pipeline ingests face tracks and speech segments carrying precomputed
embeddings, resolves person identities across videos by clustering each
modality and bridging them through active-speaker evidence, and emits a
directed channel-collaboration graph plus evaluation metrics.
"""

# set before the submodule imports: pipeline stamps its checkpoints with it
__version__ = "0.2.0"

from .catalog import Dataset, ingest, normalize, validate, write
from .distcluster import ClusterLabels, HdbscanParams, cluster_points
from .pipeline import PipelineConfig, PipelineRun, run_pipeline
from .synth import GroundTruth, SynthConfig, corrupt, generate

__all__ = [
    "ClusterLabels",
    "Dataset",
    "GroundTruth",
    "HdbscanParams",
    "PipelineConfig",
    "PipelineRun",
    "SynthConfig",
    "cluster_points",
    "corrupt",
    "generate",
    "ingest",
    "normalize",
    "run_pipeline",
    "validate",
    "write",
]
