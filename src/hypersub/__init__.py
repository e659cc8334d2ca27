"""Inductive classification of variable-sized node subsets of a hypergraph.

The package couples a dual attention message passing backbone over a
hypergraph, attention pooling of each subject's weighted member nodes, a
smoothness regularizer on the normalized hypergraph adjacency and a small
classifier head, trained end to end by a built-in reverse-mode autodiff.
"""

__version__ = "0.1.0"

from .hypergraph import Hypergraph, build_hypergraph, theta
from .kernel import Tensor, backward
from .model import ModelParams, SubgraphBatch, forward, init_model, subgraph_scores
from .training import TrainConfig, TrainReport, micro_f1, train

__all__ = [
    "Hypergraph", "build_hypergraph", "theta",
    "Tensor", "backward",
    "ModelParams", "SubgraphBatch", "forward", "init_model", "subgraph_scores",
    "TrainConfig", "TrainReport", "micro_f1", "train",
    "__version__",
]
