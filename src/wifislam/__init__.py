"""Wi-Fi-signature gating for visual loop-closure search, on simulated indoor worlds."""

__version__ = "0.1.0"

from .clustering import ClusterStore, assign, members_of, similar_clusters
from .gating import PolicyParams, RunRecord, run_pipeline
from .posegraph import Pose2, PoseGraph, kabsch_align, optimize, rmse
from .signature import Scans, Signature, cosine_similarity, mask_bssid, signatures_of
from .simworld import Dataset, preset_worlds, synthesize

__all__ = [  # one line per module, as imported above
    "ClusterStore", "assign", "members_of", "similar_clusters",
    "PolicyParams", "RunRecord", "run_pipeline",
    "Pose2", "PoseGraph", "kabsch_align", "optimize", "rmse",
    "Scans", "Signature", "cosine_similarity", "mask_bssid", "signatures_of",
    "Dataset", "preset_worlds", "synthesize",
]
