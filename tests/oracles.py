"""Literal oracles for the selection kernels in ``rankkit.embedding`` and
for the run-file reader in ``rankkit.metrics``.

Each oracle recomputes its answer the slow, obvious way, so the tests can
pin the optimized code against it.  Nothing in the package calls them.
"""

import math
import sys
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from rankkit.embedding import KMEANS_MAX_ITERS, SelectionResult, cosine_sim, stack_records
from rankkit.errors import (
    EmptyCollection,
    InvariantViolation,
    KTooLarge,
    MalformedLine,
    RankkitError,
    ZeroVector,
)
from rankkit.metrics import RunEntry
from rankkit.types import read_lines

ORACLE_MAX_N = 32


class TooLarge(RankkitError):
    """The input is past what a brute-force oracle replays."""


def stacked(records):
    """``records`` (``EmbeddingRows`` or a record list) stacked into a new
    matrix; no records, or rows of different widths, raise."""
    if not len(records):
        raise EmptyCollection("no embedding records")
    return stack_records(records)


def brute_force_diversity_oracle(records, k, keep_trace=False):
    """Literal replay of greedy diversity selection with no incremental state.

    Every step recomputes each candidate's average similarity to the current
    selection from scratch with scalar cosine calls.  Capped at small N; this
    exists only to pin the optimized implementation.
    """
    if len(records) > ORACLE_MAX_N:
        raise TooLarge(f"oracle is capped at N={ORACLE_MAX_N}, got {len(records)}")
    stacked(records)  # dimension + emptiness checks
    for r in records:
        if not np.any(r.vector):
            raise ZeroVector(r.id)
    n = len(records)
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    k = min(k, n)
    selected = [0]
    trace = [(records[0].id, 0.0)]
    while len(selected) < k:
        best_j = -1
        best_avg = np.inf
        for j in range(n):
            if j in selected:
                continue
            total = 0.0
            for i in selected:
                total += cosine_sim(records[i].vector, records[j].vector)
            avg = total / len(selected)
            if avg < best_avg:
                best_avg = avg
                best_j = j
        selected.append(best_j)
        trace.append((records[best_j].id, best_avg))
    return SelectionResult(
        selected_ids=tuple(records[i].id for i in selected),
        trace=tuple(trace) if keep_trace else None,
    )


def kmeans_oracle(records, k, seed):
    """Lloyd's k-means with the literal N x k x d distance tensor: every
    step takes ``argmin`` of ``np.square(x - c).sum(axis=2)`` over all rows
    and centroids, and an emptied cluster grabs the row farthest from its
    own centroid among clusters of two or more."""
    rows = stacked(records)
    x = rows.matrix
    n = x.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds N={n}")
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    centroids = x[rng.permutation(n)[:k]].copy()
    assign = np.zeros(n, dtype=int)
    diff = np.empty((n, k, x.shape[1]))
    d2 = np.empty((n, k))
    for _ in range(KMEANS_MAX_ITERS):
        np.subtract(x[:, None, :], centroids[None, :, :], out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=2, out=d2)
        new_assign = np.argmin(d2, axis=1)
        sizes = np.bincount(new_assign, minlength=k)
        for c in np.flatnonzero(sizes == 0):
            far_d2 = np.where(sizes[new_assign] > 1, d2[np.arange(n), new_assign], -np.inf)
            far = int(np.argmax(far_d2))
            sizes[new_assign[far]] -= 1
            sizes[c] = 1
            new_assign[far] = c
        if np.array_equal(new_assign, assign) and _ > 0:
            assign = new_assign
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = x[assign == c].mean(axis=0)
    reps = []
    for c in range(k):
        members = np.flatnonzero(assign == c)
        dists = np.linalg.norm(x[members] - centroids[c], axis=1)
        reps.append(int(members[int(np.argmin(dists))]))
    return SelectionResult(selected_ids=tuple(rows.ids[i] for i in reps))


def row_norm(row):
    """The norm of one row as greedy selection takes it: that of the row as
    the one row of a matrix, ``np.linalg.norm(row[None], axis=1)``, but
    where the row's squared norm is inf, 0 or subnormal and the row is not
    zero, the norm of the row divided by its largest magnitude, times that
    magnitude."""
    with np.errstate(over="ignore"):
        sq = float(np.add.reduce(row * row))
        if not sys.float_info.min <= sq < math.inf and np.any(row):
            top = float(np.max(np.abs(row)))
            return float(np.linalg.norm(row[None] / top, axis=1)[0]) * top
        return float(np.linalg.norm(row[None], axis=1)[0])


def greedy_oracle(records, k, keep_trace=False):
    """Literal greedy diversity selection over the whole float64 unit matrix
    ``u = x / norms[:, None]``, each norm a ``row_norm``: every step scores every unpicked row with
    ``(u * P).sum(axis=1)``, ``P`` being the sum of the picked unit rows,
    and takes the ``argmin``, lowest index on ties.  The trace holds each
    pick's score divided by the number of picks before it."""
    rows = stacked(records)
    x = rows.matrix
    n = x.shape[0]
    norms = np.array([row_norm(row) for row in x])
    if np.any(norms == 0.0):
        raise ZeroVector(rows.ids[int(np.argmax(norms == 0.0))])
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    u = x / norms[:, None]
    selected = [0]
    trace = [(rows.ids[0], 0.0)]
    p = u[0].copy()
    while len(selected) < min(k, n):
        scores = (u * p).sum(axis=1)
        scores[selected] = np.inf
        j = int(np.argmin(scores))
        trace.append((rows.ids[j], float(scores[j] / len(selected))))
        selected.append(j)
        p = p + u[j]
    return SelectionResult(
        selected_ids=tuple(rows.ids[i] for i in selected),
        trace=tuple(trace) if keep_trace else None,
    )


# The run-file reader as it was with one ``RunEntry`` per line: it parses
# each line on its own and validates the run by sorting each query's
# entries.  ``read_run_oracle`` returns the entry list.


def ranked_entries_oracle(run: Iterable[RunEntry]) -> dict[str, list[RunEntry]]:
    """Each query's entries sorted by (rank, doc_id), queries in order of
    first appearance in ``run``."""
    by_query: dict[str, list[RunEntry]] = {}
    for qid, entries in groupby(run, key=attrgetter("query_id")):
        by_query.setdefault(qid, []).extend(entries)
    key = attrgetter("rank", "doc_id")
    for group in by_query.values():
        group.sort(key=key)
    return by_query


def _validate_run_oracle(entries: Sequence[RunEntry]) -> None:
    for qid, group in ranked_entries_oracle(entries).items():
        if [e.rank for e in group] != list(range(1, len(group) + 1)):
            raise InvariantViolation(f"query {qid}: ranks are not 1..{len(group)} without gaps")
        if len({e.doc_id for e in group}) != len(group):
            raise InvariantViolation(f"query {qid}: duplicate doc ids")
        for prev, cur in zip(group, group[1:]):
            if cur.score > prev.score:
                raise InvariantViolation(
                    f"query {qid}: score increases from rank {prev.rank} to {cur.rank}"
                )


def read_run_oracle(path: str) -> list[RunEntry]:
    entries = []
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise MalformedLine(path, lineno, line, f"expected 6 fields, got {len(fields)}")
        qid, _, did, rank, score, tag = fields
        try:
            entry = RunEntry(qid, did, int(rank), float(score), tag)
            if not math.isfinite(entry.score):
                raise ValueError(f"non-finite score {score!r}")
            entries.append(entry)
        except ValueError as exc:
            raise MalformedLine(path, lineno, line, str(exc)) from exc
    _validate_run_oracle(entries)
    return entries
