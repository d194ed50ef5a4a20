"""Matchable image pair retrieval for structure-from-motion.

Given per-image global descriptors, build an enclosing subgraph around
each query image and classify its nodes with a graph convolutional
network, producing exactly the set of image pairs worth matching instead
of a fixed top-k list.
"""

__version__ = "0.1.0"

from .embeddings import EmbeddingMatrix, load_embeddings, save_embeddings
from .gcn import GcnModel, aggregation_matrix, init_model, load_model, model_forward, save_model
from .knn import Index, build_index, query_knn
from .overlaps import OverlapRecord, OverlapStore, label_pair
from .retrieval import RetrievalResult, export_pairs, gcn_retrieve, threshold_retrieve, topk_retrieve
from .subgraph import Qes, QesParams, build_qes
from .synthetic import SceneConfig, generate_scene
from .trainer import TrainConfig, train

__all__ = [
    "EmbeddingMatrix",
    "GcnModel",
    "Index",
    "OverlapRecord",
    "OverlapStore",
    "Qes",
    "QesParams",
    "RetrievalResult",
    "SceneConfig",
    "TrainConfig",
    "aggregation_matrix",
    "build_index",
    "build_qes",
    "export_pairs",
    "gcn_retrieve",
    "generate_scene",
    "init_model",
    "label_pair",
    "load_embeddings",
    "load_model",
    "model_forward",
    "query_knn",
    "save_embeddings",
    "save_model",
    "threshold_retrieve",
    "topk_retrieve",
    "train",
]
