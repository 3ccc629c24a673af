"""Direction-aware attributed graph embeddings (DIAGRAM) and evaluation."""

from .data import (
    DirectedGraph,
    FeatureMatrix,
    LabelVector,
    build_undirected_union,
    compute_tfidf,
    dataset_fingerprint,
    dataset_summary,
    load_citation_dataset,
)
from .evaluation import (
    EvalReport,
    LinkSample,
    auc_score,
    link_prediction_eval,
    micro_macro_f1,
    network_reconstruction,
    node_classification_eval,
    run_link_prediction_protocol,
    sample_link_prediction,
)
from .exceptions import (
    DatasetError,
    DiagramError,
    EmbeddingFormatError,
    EvaluationError,
    FingerprintMismatchError,
    SamplingError,
    TrainingError,
)
from .model import (
    DiagramModel,
    EmbeddingSet,
    TrainConfig,
    TrainResult,
    compute_embeddings,
    export_embeddings,
    import_embeddings,
    load_model,
    save_model,
    train_edge_model,
    train_node_model,
)

__version__ = "0.1.0"
