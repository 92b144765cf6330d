"""affectfuse: continuous emotion annotation fusion and sequence baselines.

The package covers the full path from raw rater traces to evaluated models:
rater alignment and weighting (:mod:`affectfuse.align`, :mod:`affectfuse.fuse`),
physiology-assisted fusion, discretization of continuous gold standards into
sentiment classes (:mod:`affectfuse.discretize`), lightweight sequence models
trained with a concordance loss (:mod:`affectfuse.seqmodel`), late fusion of
prediction streams (:mod:`affectfuse.latefusion`), file formats and windowing
(:mod:`affectfuse.dataio`), and a synthetic corpus generator
(:mod:`affectfuse.synth`). The ``affectfuse`` command wires these together.
"""

from __future__ import annotations

from .align import AlignmentResult, WarpPath, default_band, dtw, multi_align, warp_to_reference
from .core import (
    AnnotationTrace,
    RaterSet,
    resample_values,
    savgol_smooth,
    standardize,
    standardize_values,
)
from .dataio import FeatureSequence, Partition, Segment, WindowSpec, align_to_labels, window
from .discretize import (
    ClusterModel,
    ClusterReport,
    PcaBasis,
    assign_nearest,
    feature_names,
    fit_class_model,
    fit_pca,
    gmm_em,
    kmeans,
    pca_project,
    segment_features,
    validate_clusters,
)
from .errors import DataError, DegenerateInputError, NumericError, ParameterError
from .fuse import (
    FusionConfig,
    GoldStandard,
    PhysioConfig,
    agreement_stats,
    ewe_fuse,
    ewe_weights,
    physio_fuse,
    prepare_physio,
    raaw,
)
from .latefusion import fuse_predictions
from .metrics import ScoreReport, ccc, macro_f1, partition_ccc, pearson
from .seqmodel import (
    Adam,
    RegressorConfig,
    SequenceModel,
    TrainHistory,
    ccc_loss,
    cross_entropy_loss,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .synth import SynthConfig, gen_eda, gen_features, gen_latent, gen_raters, write_corpus

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnnotationTrace",
    "RaterSet",
    "standardize",
    "standardize_values",
    "resample_values",
    "savgol_smooth",
    "WarpPath",
    "AlignmentResult",
    "dtw",
    "default_band",
    "warp_to_reference",
    "multi_align",
    "FusionConfig",
    "PhysioConfig",
    "GoldStandard",
    "ewe_weights",
    "ewe_fuse",
    "raaw",
    "prepare_physio",
    "physio_fuse",
    "agreement_stats",
    "ccc",
    "pearson",
    "macro_f1",
    "partition_ccc",
    "ScoreReport",
    "FeatureSequence",
    "WindowSpec",
    "Partition",
    "Segment",
    "align_to_labels",
    "window",
    "segment_features",
    "feature_names",
    "PcaBasis",
    "fit_pca",
    "pca_project",
    "kmeans",
    "gmm_em",
    "ClusterModel",
    "ClusterReport",
    "fit_class_model",
    "assign_nearest",
    "validate_clusters",
    "RegressorConfig",
    "SequenceModel",
    "Adam",
    "TrainHistory",
    "ccc_loss",
    "cross_entropy_loss",
    "train",
    "evaluate",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
    "fuse_predictions",
    "SynthConfig",
    "gen_latent",
    "gen_raters",
    "gen_eda",
    "gen_features",
    "write_corpus",
    "ParameterError",
    "DegenerateInputError",
    "DataError",
    "NumericError",
]
