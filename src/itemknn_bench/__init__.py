"""Item-based KNN recommendation with pluggable similarity-matrix strategies,
scoring modes, and nDCG semantics, plus a deterministic experiment harness."""

from .errors import ContractError, ExperimentError, RowParseError, SchemaError
from .harness import ExperimentConfig, emit_report, run_experiment
from .ingest import (
    ImplicitThreshold,
    InteractionDataset,
    load_interactions,
    save_interactions,
    stats,
    to_implicit,
)
from .knn import (
    SimilarityMatrix,
    build_matrix,
    cosine_similarity,
    load_similarity,
    save_similarity,
    truncate_topk,
)
from .metrics import (
    IDCG_FIXED_K,
    IDCG_TRUNCATED,
    MetricReport,
    UserMetrics,
    evaluate,
)
from .recommend import (
    PRESETS,
    Preset,
    RecommendationList,
    Recommendations,
    ScoringMode,
    recommend_all,
    score_user,
)
from .split import split_holdout

__version__ = "0.1.0"
