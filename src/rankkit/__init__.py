"""rankkit: listwise/pairwise reranking orchestration, embedding-based data
curation, Plackett-Luce ranking math, teacher-label distillation, and
TREC-style IR evaluation.

Each exported name loads its submodule on first access (PEP 562), so
``import rankkit`` loads none of them, and NumPy loads only with the
embedding, ranking-math and pipeline names.
"""

import importlib

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_SOURCES = {name: module for module, names in {
    "types": ("CandidateList", "Document", "Permutation", "Query", "identity_permutation",
              "validate_permutation"),
    "embedding": ("EmbeddingRecord", "EmbeddingRows", "SelectionResult",
                  "cosine_sim", "euclidean_dist", "greedy_diversity_select",
                  "kmeans_centroid_select", "quality_filter", "random_select", "stack_records",
                  "top_k_by_distance"),
    "ranking_math": ("LossReport", "listwise_loss", "listwise_loss_grad", "plackett_luce_prob"),
    "engine": ("rerank_listwise", "rerank_pairwise"),
    "metrics": ("Qrels", "RunEntry", "kendall_tau", "mrr", "ndcg_at_k", "ranked_by_query",
                "recall_at_k"),
    "config": ("PipelineConfig", "WindowConfig"),
    "pipeline": ("TeacherLabel", "confidence_filter", "distill"),
}.items() for name in names}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    # not cached in this module's namespace: the name always reads the
    # submodule's current binding, as a profiler or a test may rebind it
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
