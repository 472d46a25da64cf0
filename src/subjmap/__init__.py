"""Subject-specific manifold learning.

Interchangeable subject-conditional input/output layer families (group,
per-subject, and decomposed with per-subject singular values), MLP and
(variational) autoencoder models built on them with exact analytic
gradients, synthetic multi-subject benchmarks, unseen-subject fine-tuning,
kernel probes, and a FastICA + FDR group-difference pipeline.  The
``subjmap`` CLI drives reproducible end-to-end experiments.
"""

from .linalg import SeededRng, pca, qr_orthonormalize, svd_small
from .maps import DecomposedMap, GroupMap, ParamRegime, SubjectMap, param_count
from .models import LatentBatch, Model, ModelSpec, build_model, decode, encode, latent_traversal, loss
from .datasets import (
    MultiSubjectDataset,
    SubjectData,
    half_moons,
    load_dataset,
    rotate_subjects,
    save_dataset,
    split,
    synth_group_dataset,
)
from .training import (
    TrainConfig,
    TrainHistory,
    finetune_subjects,
    grad_check,
    hyperparameter_sweep,
    train,
)
from .evaluation import circle_fit, circular_correlation, probe_classify, recon_improvement, subject_weight_pca
from .stats import bh_fdr, fastica, group_difference_pipeline, welch_t_test

__version__ = "0.1.0"

__all__ = [
    "SeededRng", "pca", "qr_orthonormalize", "svd_small",
    "DecomposedMap", "GroupMap", "SubjectMap", "ParamRegime", "param_count",
    "LatentBatch", "Model", "ModelSpec", "build_model", "decode", "encode",
    "latent_traversal", "loss",
    "MultiSubjectDataset", "SubjectData", "half_moons", "load_dataset",
    "rotate_subjects", "save_dataset", "split", "synth_group_dataset",
    "TrainConfig", "TrainHistory", "finetune_subjects", "grad_check",
    "hyperparameter_sweep", "train",
    "circle_fit", "circular_correlation", "probe_classify", "recon_improvement",
    "subject_weight_pca",
    "bh_fdr", "fastica", "group_difference_pipeline", "welch_t_test",
]
