"""Reranking orchestration: sliding-window listwise reranking and yes/no
pairwise reranking against a pluggable backend.

Long candidate lists are processed in overlapping windows from the back of
the list to the front, so strong candidates discovered deep in the list are
promoted window by window toward the top.  Windows within one query are
inherently sequential (each consumes the previous window's promotions);
distinct queries can be processed concurrently.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

from .backends import Backend, RetryPolicy, call_with_retries
from .config import WindowConfig
from .errors import BackendError, ConfigError, InvariantViolation, MissingDoc, RankkitError, Unparseable
from .parsing import parse_ranking, parse_yes_no
from .prompts import (
    PARSE_RETRY_REMINDER,
    PromptScript,
    Turn,
    append_turns,
    build_listwise_prompt,
    build_pairwise_prompt,
    check_modality,
)
from .types import CandidateList, Document, Permutation, Query, Value, identity_permutation

logger = logging.getLogger(__name__)


class RerankReport(Value):
    """Per-query bookkeeping: backend calls made and repairs applied."""

    __slots__ = ("backend_calls", "repair_count", "parse_retries", "fallbacks")

    def __init__(self, backend_calls: int = 0, repair_count: int = 0, parse_retries: int = 0,
                 fallbacks: int = 0):
        self._set(backend_calls, repair_count, parse_retries, fallbacks)


def window_starts(n: int, window: WindowConfig) -> list[int]:
    """0-based window start offsets, back of the list first."""
    if n <= window.window_size:
        return [0]
    starts = []
    s = n - window.window_size
    while s > 0:
        starts.append(s)
        s -= window.stride
    starts.append(0)
    return starts


def resolve_docs(query_id: str, doc_ids: Sequence[str], docs: Mapping[str, Document],
                 mode: str) -> list[Document]:
    """``docs[i]`` for each of ``doc_ids``: every ranked query's one step
    before its first backend call.  It refuses an empty list, then an id not
    in ``docs`` (``MissingDoc``), then a breach of ``check_modality``."""
    if not doc_ids:
        raise InvariantViolation(f"query {query_id}: empty candidate list")
    resolved = []
    for did in doc_ids:
        if did not in docs:
            raise MissingDoc(f"candidate {did} not in corpus")
        resolved.append(docs[did])
    check_modality(resolved, mode)
    return resolved


def rank_window(
    backend: Backend,
    prompt: PromptScript,
    n: int,
    retry: RetryPolicy,
    report: RerankReport | None = None,
) -> Permutation:
    """One backend round-trip with transport retries, a single parse retry,
    and repair (or input-order fallback) as the last resort.  A backend that
    fails on the retry raises ``BackendError``, as on the first call."""
    report = report if report is not None else RerankReport()
    raw = call_with_retries(backend, prompt, retry)
    report.backend_calls += 1
    try:
        perm, log = parse_ranking(raw, n)
    except Unparseable:
        report.parse_retries += 1
        retry_prompt = append_turns(
            prompt, Turn("assistant", raw), Turn("user", PARSE_RETRY_REMINDER)
        )
        raw2 = call_with_retries(backend, retry_prompt, retry)
        report.backend_calls += 1
        try:
            perm, log = parse_ranking(raw2, n)
        except Unparseable:
            report.fallbacks += 1
            logger.warning("unparseable ranking for query %s; falling back to input order",
                           prompt.query_id)
            return identity_permutation(n)
    report.repair_count += log.count
    return perm


def rerank_listwise(
    query: Query,
    candidates: CandidateList,
    docs: Mapping[str, Document],
    backend: Backend,
    window: WindowConfig | None = None,
    mode: str = "text",
    retry: RetryPolicy | None = None,
    report: RerankReport | None = None,
) -> CandidateList:
    """Sliding-window listwise rerank of one candidate list.

    The result is always a permutation of the input ids, best first.  Every
    candidate is looked up in ``docs`` and held to the modality rule of
    ``mode`` before the first backend call.
    """
    ranked = resolve_docs(query.id, candidates.doc_ids, docs, mode)
    window = window or WindowConfig()
    retry = retry or RetryPolicy()
    if len(ranked) == 1:
        return CandidateList(query.id, candidates.doc_ids)
    for w_index, s in enumerate(window_starts(len(ranked), window)):
        chunk = ranked[s : s + window.window_size]
        prompt = build_listwise_prompt(query, chunk, mode=mode)
        try:
            perm = rank_window(backend, prompt, len(chunk), retry, report=report)
        except BackendError as exc:
            raise BackendError(f"window {w_index}: {exc}", window_index=w_index) from exc
        ranked[s : s + window.window_size] = [chunk[i - 1] for i in perm.order]
    return CandidateList(query.id, tuple(d.id for d in ranked))


def rerank_pairwise(
    query: Query,
    candidates: CandidateList,
    docs: Mapping[str, Document],
    backend: Backend,
    mode: str = "text",
    retry: RetryPolicy | None = None,
) -> CandidateList:
    """Pairwise rerank: one relevance question per candidate, relevant docs
    promoted ahead of irrelevant ones with stable order inside each part.
    Every candidate is looked up and held to the modality rule of ``mode``
    before the first backend call."""
    resolved = resolve_docs(query.id, candidates.doc_ids, docs, mode)
    retry = retry or RetryPolicy()
    relevant: list[str] = []
    irrelevant: list[str] = []
    for did, doc in zip(candidates.doc_ids, resolved):
        prompt = build_pairwise_prompt(query, doc, mode=mode)
        raw = call_with_retries(backend, prompt, retry)
        try:
            is_rel = parse_yes_no(raw)
        except Unparseable:
            is_rel = False
        (relevant if is_rel else irrelevant).append(did)
    return CandidateList(query.id, tuple(relevant + irrelevant))


def map_ordered(fn: Callable, queries: Iterable, parallelism: int) -> tuple[list, list[str]]:
    """``fn`` over ``queries``: the results of the queries that succeeded and
    the ids of those that failed, both in input order.  A ``RankkitError``
    fails only its own query and is logged once; any other exception
    propagates.  At ``parallelism <= 1`` every call runs on the calling
    thread, otherwise on a pool of that many worker threads."""

    def attempt(q):
        try:
            return q, fn(q), None
        except RankkitError as exc:
            return q, None, exc

    if parallelism <= 1:
        outcomes = map(attempt, queries)
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(attempt, queries))
    results, failed = [], []
    for q, result, exc in outcomes:
        if exc is None:
            results.append(result)
        else:
            logger.error("query %s failed: %s", q.id, exc)
            failed.append(q.id)
    return results, failed


def rerank_many(
    queries: Sequence[Query],
    candidate_lists: Mapping[str, CandidateList],
    docs: Mapping[str, Document],
    backend: Backend,
    method: str = "listwise",
    window: WindowConfig | None = None,
    mode: str = "text",
    retry: RetryPolicy | None = None,
    parallelism: int = 1,
) -> tuple[list[CandidateList], list[str]]:
    """Rerank many queries, optionally in parallel; windows within a query
    stay sequential.  Returns ``map_ordered``'s results and failed query
    ids.  The queries with a candidate list are reranked in input order; a
    candidate list whose query is not in ``queries`` fails its query."""
    known = {q.id for q in queries}

    def one(q) -> CandidateList:
        if q.id not in known:
            raise ConfigError(f"query {q.id} is in the run but not in the queries")
        cands = candidate_lists[q.id]
        if method == "listwise":
            return rerank_listwise(q, cands, docs, backend, window=window, mode=mode, retry=retry)
        return rerank_pairwise(q, cands, docs, backend, mode=mode, retry=retry)

    items = [q for q in queries if q.id in candidate_lists]
    items += [SimpleNamespace(id=qid) for qid in candidate_lists if qid not in known]
    return map_ordered(one, items, parallelism)
