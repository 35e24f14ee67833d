"""connectogen: predict all views of a brain multigraph from one source view.

The package trains an adversarially regularized graph autoencoder (a GCN
encoder, cluster-specific GCN generators, and a critic/classifier
discriminator) with a topology-preserving loss, on top of a small from-
scratch tape autodiff engine.  Weighted-graph centrality metrics run as
batched numpy array code over stacks of graphs.
"""

__version__ = "0.1.0"

from . import autodiff, topology
from .affinity import MKMLConfig, learn_affinity, normalize_adjacency, sub_affinity
from .clustering import cluster_source_embeddings, kmeans, spectral_embed
from .data import (
    PopulationDataset,
    devectorize,
    kfold_split,
    load_dataset,
    ratio_split,
    save_dataset,
    simulate_population,
    vectorize_upper,
)
from .evaluation import (
    EvaluationReport,
    HistogramSpec,
    evaluate,
    kl_divergence,
    mae_graphs,
    mae_topology,
    paired_ttest,
)
from .losses import LossWeights
from .models import Dims, ModelBundle, init_params, load_bundle, save_bundle
from .training import TrainingConfig, TrainingTrace, predict_multigraph, train

__all__ = [
    "MKMLConfig", "PopulationDataset", "EvaluationReport", "HistogramSpec",
    "LossWeights", "Dims", "ModelBundle", "TrainingConfig", "TrainingTrace",
    "autodiff", "topology", "cluster_source_embeddings", "devectorize",
    "evaluate", "init_params", "kfold_split", "kl_divergence", "kmeans",
    "learn_affinity", "load_bundle", "load_dataset", "mae_graphs",
    "mae_topology", "normalize_adjacency", "paired_ttest",
    "predict_multigraph", "ratio_split", "save_bundle", "save_dataset",
    "simulate_population", "spectral_embed", "sub_affinity", "train",
    "vectorize_upper",
]
