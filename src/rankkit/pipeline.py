"""Teacher-label distillation.

The pipeline retrieves each query's top-k candidates as ``retrieve`` ranks
them, asks a teacher backend to rerank them, scores each label's
confidence, and keeps the best labels up to a budget.

Confidence is a proxy: the Kendall tau between the teacher's ordering and
the retrieval-similarity order the candidates were presented in, minus 0.1
per output repair, clamped to [-1, 1].  The formula is recorded in every
manifest so downstream consumers know exactly what the number means.
"""

from __future__ import annotations

import json
import logging
from typing import Iterable, Mapping, Sequence

from .backends import Backend, RetryPolicy
from .config import PipelineConfig
from .embedding import CorpusIndex, EmbeddingRows, top_k_by_distance
from .engine import RerankReport, map_ordered, rank_window, resolve_docs
from .errors import ConfigError, MalformedLine, RankkitError, Unparseable
from .metrics import kendall_tau
from .prompts import build_listwise_prompt
from .types import (
    Document,
    Permutation,
    Query,
    Value,
    check_id,
    identity_permutation,
    read_jsonl,
    validate_permutation,
)

logger = logging.getLogger(__name__)

CONFIDENCE_FORMULA = "kendall_tau(teacher_perm, retrieval_order) - 0.1 * repair_count, clamped to [-1, 1]"

REPAIR_PENALTY = 0.1


class TeacherLabel(Value, frozen=True):
    __slots__ = ("query_id", "candidate_ids", "teacher_perm", "confidence", "repair_count",
                 "backend_tag")

    def __init__(self, query_id: str, candidate_ids: tuple[str, ...], teacher_perm: Permutation,
                 confidence: float, repair_count: int = 0, backend_tag: str = "mock"):
        check_id("query", query_id)
        for did in candidate_ids:
            check_id("candidate", did)
        if len(set(candidate_ids)) != len(candidate_ids):
            raise ConfigError(f"label {query_id}: duplicate candidate ids")
        if len(candidate_ids) != len(teacher_perm):
            raise ConfigError(
                f"label {query_id}: {len(candidate_ids)} candidates vs "
                f"permutation of {len(teacher_perm)}"
            )
        if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
            raise ConfigError(f"label {query_id}: confidence must be a number, got {confidence!r}")
        if not -1.0 <= confidence <= 1.0:
            raise ConfigError(f"label {query_id}: confidence {confidence} out of bounds")
        if isinstance(repair_count, bool) or not isinstance(repair_count, int) or repair_count < 0:
            raise ConfigError(f"label {query_id}: repair_count must be an int >= 0, "
                              f"got {repair_count!r}")
        if not isinstance(backend_tag, str):
            raise ConfigError(f"label {query_id}: backend_tag must be a string, "
                              f"got {backend_tag!r}")
        self._set(query_id, candidate_ids, teacher_perm, confidence, repair_count, backend_tag)

    @property
    def id(self) -> str:
        """The key of a label file record, unique per file like any record id."""
        return self.query_id

    def to_json(self) -> dict:
        return {
            "query_id": self.query_id,
            "candidate_ids": list(self.candidate_ids),
            "teacher_perm": list(self.teacher_perm.order),
            "confidence": self.confidence,
            "repair_count": self.repair_count,
            "backend_tag": self.backend_tag,
        }


def raw_confidence(teacher_perm: Permutation, repair_count: int) -> float:
    n = len(teacher_perm)
    tau = 1.0 if n < 2 else kendall_tau(teacher_perm, identity_permutation(n))
    return max(-1.0, min(1.0, tau - REPAIR_PENALTY * repair_count))


def confidence_filter(labels: Sequence[TeacherLabel], budget: int) -> list[TeacherLabel]:
    """Top ``budget`` labels by confidence descending, ties by query id."""
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if len(labels) < budget:
        logger.warning("only %d labels for a budget of %d; keeping all", len(labels), budget)
    ordered = sorted(labels, key=lambda l: (-l.confidence, l.query_id))
    return ordered[:budget]


def _placeholder_doc(doc_id: str, mode: str) -> Document:
    if mode == "multimodal":
        return Document(id=doc_id, image_ref=doc_id, modality="image")
    return Document(id=doc_id, text=doc_id, modality="text")


def distill_one(
    query: Query,
    candidate_ids: Sequence[str],
    backend: Backend,
    cfg: PipelineConfig,
    corpus: Mapping[str, Document] | None = None,
) -> TeacherLabel:
    """Prompt the teacher over one query's retrieved candidates, parse and
    repair its reply, and score the label.  A teacher whose reply and parse
    retry are both unparseable ranked nothing, so the query fails with
    ``Unparseable`` instead of taking the input order as a label of
    confidence 1."""
    if corpus is None:
        corpus = {did: _placeholder_doc(did, cfg.mode) for did in candidate_ids}
    docs = resolve_docs(query.id, candidate_ids, corpus, cfg.mode)
    report = RerankReport()
    if len(docs) == 1:
        perm = identity_permutation(1)
    else:
        prompt = build_listwise_prompt(query, docs, mode=cfg.mode)
        perm = rank_window(backend, prompt, len(docs), RetryPolicy(), report=report)
        if report.fallbacks:
            raise Unparseable("the teacher's reply and its parse retry were both unparseable")
    return TeacherLabel(
        query_id=query.id,
        candidate_ids=tuple(candidate_ids),
        teacher_perm=perm,
        confidence=raw_confidence(perm, report.repair_count),
        repair_count=report.repair_count,
        backend_tag=type(backend).__name__,
    )


class DistillSummary(Value):
    __slots__ = ("emitted", "skipped", "failed_query_ids")

    def __init__(self, emitted: int, skipped: int, failed_query_ids: list[str]):
        self._set(emitted, skipped, failed_query_ids)


def distill(
    queries: Sequence[Query],
    query_embs: EmbeddingRows,
    corpus_embs: EmbeddingRows,
    backend: Backend,
    cfg: PipelineConfig,
    corpus: Mapping[str, Document] | None = None,
) -> tuple[list[TeacherLabel], DistillSummary]:
    """Produce one teacher label per query.

    Retrieval is ``retrieve``'s, before any backend call: one index, one
    ``CorpusIndex.candidates`` block for the queries that have an
    embedding, and ``top_k_by_distance`` for each; an empty corpus, or
    query vectors of another width, raise.  Per-query failures (missing
    embedding, dead backend, unresolvable docs) are ``map_ordered``'s:
    logged and counted, never fatal.  Labels are
    returned in query input order regardless of worker parallelism, so
    output files are reproducible.
    """
    index = CorpusIndex(corpus_embs)
    row_of = {qid: i for i, qid in enumerate(query_embs.ids)}
    embedded = [q.id for q in queries if q.id in row_of]
    block = query_embs.matrix[[row_of[qid] for qid in embedded]]
    ranked = {qid: top_k_by_distance(q, index, cfg.top_k, rows)
              for qid, q, rows in zip(embedded, block, index.candidates(block, cfg.top_k))}

    def one(q: Query) -> TeacherLabel:
        if q.id not in ranked:
            raise ConfigError(f"query {q.id} has no embedding")
        return distill_one(q, ranked[q.id], backend, cfg, corpus)

    labels, failed = map_ordered(one, queries, cfg.parallelism)
    return labels, DistillSummary(len(labels), len(failed), failed)


def write_labels(
    labels: Iterable[TeacherLabel],
    path: str,
    cfg: PipelineConfig,
) -> None:
    """Stream labels to JSON-lines with a manifest header, flushing after
    every label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest": dict(cfg.to_json(), confidence=CONFIDENCE_FORMULA)}) + "\n")
        for label in labels:
            fh.write(json.dumps(label.to_json()) + "\n")
            fh.flush()


def read_labels(path: str) -> tuple[dict, list[TeacherLabel]]:
    """Manifest and labels of a file written by ``write_labels``; its first
    record must be the ``{"manifest": ...}`` header.  A query id repeated
    on a later line is a ``MalformedLine`` at the repeat."""
    manifest: list[dict] = []

    def build(rec: dict) -> TeacherLabel | None:
        if manifest:
            return _label_from_json(rec)
        if not isinstance(rec.get("manifest"), dict):
            raise ConfigError('first record is not the {"manifest": ...} header')
        manifest.append(rec["manifest"])
        return None

    records = read_jsonl(path, build)
    if not manifest:
        raise MalformedLine(path, 1, "", 'no {"manifest": ...} header in an empty file')
    return manifest[0], records[1:]


def _label_from_json(rec: dict) -> TeacherLabel:
    for name in ("candidate_ids", "teacher_perm"):
        if not isinstance(rec[name], list):
            raise ConfigError(f"{name} must be a JSON array, got {rec[name]!r}")
    candidate_ids = tuple(rec["candidate_ids"])
    try:
        perm = validate_permutation(rec["teacher_perm"], len(candidate_ids))
    except (RankkitError, TypeError, ValueError) as exc:
        raise ConfigError(f"teacher_perm: {exc}") from exc
    return TeacherLabel(
        query_id=rec["query_id"],
        candidate_ids=candidate_ids,
        teacher_perm=perm,
        confidence=rec["confidence"],
        repair_count=rec.get("repair_count", 0),
        backend_tag=rec.get("backend_tag", ""),
    )
