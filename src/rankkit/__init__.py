"""rankkit: listwise/pairwise reranking orchestration, embedding-based data
curation, Plackett-Luce ranking math, teacher-label distillation, and
TREC-style IR evaluation."""

from .types import (
    CandidateList,
    Document,
    Permutation,
    Query,
    identity_permutation,
    validate_permutation,
)
from .embedding import (
    CorpusIndex,
    EmbeddingRecord,
    EmbeddingRows,
    SelectionResult,
    cosine_sim,
    euclidean_dist,
    greedy_diversity_select,
    kmeans_centroid_select,
    quality_filter,
    random_select,
    stack_records,
    top_k_by_distance,
)
from .ranking_math import (
    LossReport,
    listwise_loss,
    listwise_loss_grad,
    plackett_luce_prob,
)
from .engine import WindowConfig, rerank_listwise, rerank_pairwise
from .metrics import Qrels, RunEntry, kendall_tau, mrr, ndcg_at_k, ranked_by_query, recall_at_k
from .pipeline import PipelineConfig, TeacherLabel, confidence_filter, distill

__version__ = "0.1.0"
