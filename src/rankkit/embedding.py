"""Embedding-space geometry and data selection.

Covers cosine/Euclidean similarity, quality filtering of query-document
pairs, greedy maximum-diversity subset selection, exact top-k retrieval,
and the random / k-means-centroid baseline selectors used by the selection
ablation.

Selection is deterministic: every argmin/argmax tie is broken by lowest
input index, and the similarities and distances that decide a pick are
computed in float64 regardless of the storage precision of the vectors.

Greedy diversity selection scores a row by ``s_i = (u_i * P).sum()``: its
unit row ``u_i = x_i / norms[i]`` against the float64 sum ``P`` of the
picked unit rows.  That is a per-row numpy reduction, so scoring a subset
of rows gives the same bits as scoring them all.  A norm is that of
``np.linalg.norm``, but for a row whose squared norm overflows or
underflows, which is scaled by its largest magnitude first (``_row_norms``;
``cosine_sim`` does the same), so the picks do not depend on the rows'
scale.  Each step scans every row in float32 with one matrix-vector product
over a float32 copy of the unit rows, and ``_scan_slack`` bounds the scan's
error for every row at once by one scalar E, proportional to ``|P|``: the
rounding of ``u`` and ``P`` to float32, Higham's gamma_{d+1} for the
float32 dot product in any summation order, with or without FMA,
gamma_{d+1} for the float64 score, and an absolute term for float32
subnormals.  The unpicked rows whose scan lies within 2E of the least are
the candidates, and every row that could score as low as the winner is
one.  A lone candidate, about 98 steps in 100 on the benchmark's clustered
data, is the pick; two or more are re-scored in float64, as every pick is
when a trace is kept, so the pick is that of the float64 rule over every
row.

One certificate decides every nearest-row test, in retrieval (x a query,
y the corpus rows) and in k-means (x a row, y the centroids).  One matrix
product, with the -2 folded exactly into one operand, plus ``|y|^2`` gives
``a = |y|^2 - 2 x.y`` for each x and y; ``|x|^2`` is left out, as it is the
same for every y.  The rounding of ``a + |x|^2`` against the literal
squared distance is bounded from ``a`` and ``|x|^2`` alone, by a slack that
rises with ``a`` (``_sq_dist_slack``), so no row norm enters a
certificate, and one far row widens no other row's slack.  What the
certificate leaves undecided is settled by the literal formula, so the
results are those of the literal formula over every row, whatever the
BLAS kernel, blocking or thread split.

Retrieval goes through the corpus' ``EmbeddingRows``: each command reads
its corpus once and nominates the candidates of all its queries before it
ranks any (``EmbeddingRows.candidates``), in blocks of queries with one
matrix product each: the rows whose ``a`` is at most ``(kth + 10 kappa
|q|^2 + 2t) / (1 - 4 kappa)``, kth being the query's k-th least ``a``.
``top_k_by_distance`` then re-scores one query's candidates exactly as
``norm(x[rows] - q, axis=1)`` and stably sorts them by (distance, row), so
the ids returned are those of a stable sort of the literal distances of
every row, ties included.  No id -> row map is kept: a caller that needs
the rows of the ids it got looks them up among that query's candidates
(``EmbeddingRows.rows_of``).  ``euclidean_dist`` forms one distance with
the reduction of that row-wise norm, so a distance written beside a rank
is its sort key.

k-means keeps two bounds per row, an upper bound on its distance to its own
centroid and a lower bound on its distance to every other one (Hamerly,
"Making k-means even faster", SDM 2010), and widens both after each update
by how far the centroids moved.  A step re-scores only the rows whose
bounds, less a rounding margin (``_widen_bounds``), no longer prove that
their centroid's literal ``np.square(x_i - c).sum()`` is strictly the least:
every row on the first step, then the rows near a boundary between
clusters or in a cluster that moved far, and any row that the empty-cluster
repair moved.  A re-scored row's nearest centroid is certified from its two
least ``a``, m1 and m2, formed in one rows x k work array, where ``m2 (1 -
4 kappa) > m1 + 10 kappa |x|^2 + 2t``, and the rows it leaves undecided
are re-scored with the literal formula.  The same two values give the
row's new bounds.  A cluster whose members did not change keeps its
centroid, bit for bit.
Each step therefore gives the assignment of the literal formula over every
row, with one rows x k work array, not the N x k x d tensor.

``read_embeddings`` returns ``EmbeddingRows``, the one input type of every
kernel: a read-only C-contiguous float64 matrix and a tuple of ids, each
record a view of its row, so retrieval and the selectors take the file's
matrix without another copy.  The file is streamed in chunks of about
256 KiB.  A chunk takes the fast path when every line has the exact shape
``{"id": "<id>", "vector": [<numbers>]}`` that ``write_embeddings`` writes,
the id holds no quote, backslash or control byte, and the bodies pass
``_json_numbers``; then one ``np.loadtxt`` call parses all of its vectors,
and their row count and width are checked.  ``EmbeddingRows`` checks the
ids once, and the finiteness of the matrix in the one pass that forms its
squared row norms, which retrieval and k-means then take as they are, so a
command passes over its corpus matrix once before any product.  Any line,
chunk or matrix that fails a check sends the whole file through the
JSON-per-line reader (``types.read_jsonl``), which is the specification: it
reports every ``MalformedLine`` with its file:line (a row of another width
than the first too), then stacks the rows.  Both give the same ids and
bit-identical rows.

Each file is parsed once while its bytes stay the same.  The first pass
over a regular file, which counts its lines, also takes the SHA-256 of its
bytes in the same blocks.  What a read parsed is kept in
``__rankkit_cache__/<name>.npy`` beside the file, four ``numpy.lib.format``
arrays (that digest, the ids, the matrix and a stat record), written to a
temporary file and moved into place.  The stat record is the file's
``st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns`` from the stat taken
before hashing, and the time read just before that stat.  A later read
whose ``os.stat`` equals a trusted record is a hit without hashing: a
record is trusted when its time is more than ``_RACY_NS`` (2 s, FAT's
timestamp step) past the file's last change, which proves that the
timestamp step of that change had closed before the hash began, so any
later write moves ``st_ctime_ns``, which ``os.utime`` cannot set back
(git's "racy git" rule; CPython's default ``.pyc`` check trusts mtime and
size alone).  Any other read hashes the file, and a digest that matches is
a hit; the entry is then rewritten only if its new record is trusted, so a
``touch`` costs one hash and a file changed in the last 2 s is hashed on
each read.  On a network filesystem whose clock runs more than 2 s behind
this host's, a write in the same timestamp step as the hashing stat may go
unseen until the file changes again.  A hit maps the entry's matrix
read-only instead of copying it, after checking that its header fits the
file, and builds ``EmbeddingRows`` from it, which checks the rows again in
the pass that forms their squared norms, so a hit gives the rows and
squared norms of a parse.  rankkit only ever replaces an entry with
``os.replace``, so rows mapped from the old entry keep their values; an entry truncated in place by
another hand can crash a reader that has it mapped.  Any entry that fails
to load or check is a miss that parses the file and replaces it; any
failure to read or write the cache is logged at debug level and changes
nothing else, and each read logs one debug line with its outcome:
``stat hit``, ``digest hit``, ``miss`` or ``uncached``.
A cache directory or entry that is not the current user's, or that others
may write to, is not used.
A path that is not a regular file (a pipe, a FIFO, ``/dev/stdin``) can be
read only once: it goes through the JSON-per-line reader alone, uncached.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import re
import stat
import threading
from collections import Counter, abc
from functools import partial
from itertools import product
from time import time_ns
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.lib.format as npy_format

from .errors import (
    DimensionMismatch,
    EmptyCollection,
    InvariantViolation,
    KTooLarge,
    RankkitError,
    ZeroVector,
)
from .types import Value, check_id, read_jsonl

logger = logging.getLogger(__name__)

KMEANS_MAX_ITERS = 50
# bytes of a k-means block: the rows x k work array, or rows x k x d literal differences
_BLOCK_BYTES = 1 << 19
# bytes of a retrieval block's B x N product, queries by corpus rows, formed
# by one matrix product, which OpenBLAS blocks and splits over its threads
_PRODUCT_BYTES = 1 << 26

# the characters that str.split() splits at, as `\s` matches exactly
# the characters for which str.isspace() is true
_WHITESPACE = re.compile(r"\s")

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# 1 +- 4u: a non-negative sum, difference or square root that rounded to
# nearest, times _WIDEN (_NARROW) and rounded again, is at least (at most)
# its exact value; a subnormal sum or difference is exact, and a square root
# is never subnormal
_WIDEN = 1.0 + 4 * _UNIT_ROUNDOFF
_NARROW = 1.0 - 4 * _UNIT_ROUNDOFF
_UNIT_ROUNDOFF32 = float(np.finfo(np.float32).eps) / 2
# half the spacing of float32's subnormals: the most that rounding a value
# into that range, or a product that underflows, moves it
_SUBNORMAL32 = float(np.finfo(np.float32).smallest_subnormal) / 2


class EmbeddingRecord(Value, frozen=True):
    __slots__ = ("id", "vector")

    def __init__(self, id: str, vector: np.ndarray):
        check_id("embedding record", id)
        v = np.asarray(vector)
        if v.ndim != 1 or v.shape[0] == 0:
            raise DimensionMismatch(f"record {id}: vector must be 1-d and non-empty")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch(f"record {id}: non-finite entries")
        self._set(id, v)


class SelectionResult(Value, frozen=True):
    """Selected ids in selection order, with an optional per-step trace of
    (chosen id, average similarity to the prior selection)."""

    __slots__ = ("selected_ids", "trace")

    def __init__(self, selected_ids: tuple[str, ...],
                 trace: tuple[tuple[str, float], ...] | None = None):
        self._set(selected_ids, trace)


class FilterResult(Value, frozen=True):
    __slots__ = ("kept", "kept_count", "dropped_below", "dropped_zero")

    def __init__(self, kept: tuple, kept_count: int, dropped_below: int, dropped_zero: int):
        self._set(kept, kept_count, dropped_below, dropped_zero)


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")


def cosine_sim(a: Sequence[float], b: Sequence[float]) -> float:
    """The cosine of the angle between ``a`` and ``b``, ``a.b / (|a| |b|)``.
    A non-zero vector whose squared norm overflows, underflows to 0 or is
    subnormal is first divided by its largest magnitude, as greedy selection
    forms its norm (``_row_norms``), so the cosine does not depend on the
    vectors' scale; every other vector keeps the bits of ``np.linalg.norm``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    a, na = _vector_and_norm(a)
    b, nb = _vector_and_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector()
    return float(np.dot(a, b) / (na * nb))


def _vector_and_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` and its norm ``sqrt(v.v)``, the 1-D ``np.linalg.norm``; or, when
    ``v.v`` is inf, 0 or subnormal and ``v`` is not zero, ``v`` divided by
    its largest magnitude and the norm of that."""
    with np.errstate(over="ignore"):
        sq = float(v.dot(v))
    if not _TINY <= sq < math.inf:
        top = float(np.abs(v).max(initial=0.0))
        if top > 0.0:
            v = v / top
            sq = float(v.dot(v))
    return v, math.sqrt(sq)


def euclidean_dist(a: Sequence[float], b: Sequence[float]) -> float:
    """``|a - b|`` from ``np.add.reduce`` of the squared differences: the
    reduction of the row-wise ``np.linalg.norm(x - b, axis=1)`` that
    ``top_k_by_distance`` sorts by, so ``a = x[i]`` gives the bits of row i
    (the 1-D norm's BLAS dot does not).  A square that overflows gives inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    d = a - b
    return math.sqrt(np.add.reduce(d * d))


def quality_filter(
    pairs: Iterable[tuple[Sequence[float], Sequence[float], object]],
    threshold: float,
) -> FilterResult:
    """Keep pairs whose query/doc cosine similarity is >= threshold.

    Zero-vector pairs are dropped and counted instead of aborting the run;
    a poisoned pair should not kill a long curation job.
    """
    kept = []
    dropped_below = 0
    dropped_zero = 0
    for q_emb, d_emb, payload in pairs:
        try:
            sim = cosine_sim(q_emb, d_emb)
        except ZeroVector:
            dropped_zero += 1
            continue
        if sim >= threshold:
            kept.append((q_emb, d_emb, payload))
        else:
            dropped_below += 1
    return FilterResult(
        kept=tuple(kept),
        kept_count=len(kept),
        dropped_below=dropped_below,
        dropped_zero=dropped_zero,
    )


class EmbeddingRows(abc.Sequence):
    """Embedding records as the rows of one C-contiguous float64 matrix (any
    other matrix is copied into one): ``rows[i]`` is ``EmbeddingRecord(ids[i],
    matrix[i])``, a view of its row, and a slice is again ``EmbeddingRows``.

    The one place where rows are checked, whoever builds them: one id per
    row, each a valid id and none repeated, rows of one or more values,
    and only finite values.  The finiteness check is the one pass over the
    matrix that ``_sq_norms`` makes, and its result stays as ``sq_norms``
    (read-only), which ``candidates`` and ``kmeans_centroid_select`` take
    instead of a pass of their own.  A row of finite values whose squares
    overflow has an infinite ``sq_norms`` entry.  Rows are the corpus of
    exact retrieval as they are (``candidates``, ``rows_of``)."""

    def __init__(self, matrix: np.ndarray, ids: Sequence[str]):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        ids = tuple(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise InvariantViolation(f"{len(ids)} ids for a matrix of shape {matrix.shape}")
        if ids and not matrix.shape[1]:  # as EmbeddingRecord refuses an empty vector
            raise DimensionMismatch(f"record {ids[0]}: vector must be 1-d and non-empty")
        # one pass over all ids for check_id's rule, non-empty strings with
        # no whitespace; the loop names the first bad one
        try:
            valid = all(ids) and _WHITESPACE.search("".join(ids)) is None
        except TypeError:  # an id that is not a string
            valid = False
        if not valid:
            for ident in ids:
                check_id("embedding record", ident)
        if len(set(ids)) < len(ids):
            repeat = next(i for i, count in Counter(ids).items() if count > 1)
            raise InvariantViolation(f"embedding record id {repeat!r} repeats")
        sq_norms = _sq_norms(matrix)
        bad = _non_finite_rows(matrix, sq_norms)
        if bad.size:
            raise InvariantViolation(f"embedding record {ids[int(bad[0])]}: non-finite entries")
        sq_norms.flags.writeable = False
        self.matrix = matrix
        self.ids = ids
        self.sq_norms = sq_norms

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EmbeddingRows(self.matrix[i], self.ids[i])
        return EmbeddingRecord(self.ids[i], self.matrix[i])

    def rows_of(self, ids: Sequence[str], candidates: np.ndarray) -> list[int]:
        """The row of each of ``ids``, looked up among one query's
        ``candidates`` (the rows that ``top_k_by_distance`` ranked them from),
        not among every row."""
        row_of = {self.ids[i]: i for i in candidates.tolist()}
        return [row_of[ident] for ident in ids]

    def candidates(self, queries: np.ndarray, k: int) -> list[np.ndarray]:
        """For each row of the matrix ``queries``, in ascending order, the
        rows that could be among its k nearest by the literal ``norm(x -
        q)``, ties included.  No rows raise ``EmptyCollection``, before any
        other check; then k < 1 raises ``KTooLarge``, a shape other than
        (B, d) or (0, 0) ``DimensionMismatch``, and a query with a NaN or an
        inf ``InvariantViolation``, with its row.

        A block of queries, its B x N product within ``_PRODUCT_BYTES`` (one
        query at least), takes one matrix product of the block times -2
        (exact, unless it overflows) with the matrix, plus ``|x|^2``:
        ``a_i = |x_i|^2 - 2 x_i.q``, one contiguous row per query.  A query,
        Q its computed ``|q|^2``, keeps the rows with ``not a_i > (kth +
        10 kappa Q + 2t) / (1 - 4 kappa)``, kth being its k-th least ``a``
        (``_sq_dist_slack``), or every row if Q or that limit exceeds 2^1020.

        Proof (s', kappa', t': ``_sq_dist_slack``).  For Q <= 2^1020 no
        ``a_i`` is -inf, nor NaN unless ``|x_i|^2`` overflowed.  For a finite
        kth, the k rows of least ``a`` have ``D_j <= a_j + Q + s'(a_j) <= B =
        kth + Q + s'(kth)``, D being the squared literal norm, so every row
        that a stable sort of the literal norms puts among the first k has
        ``D_i <= B``.  A finite ``a_i`` then has ``a_i - s'(a_i) <= kth +
        s'(kth)``, so ``a_i <= (kth + 10 kappa' Q + 2t') / (1 - 4 kappa')``,
        which the limit exceeds.  An infinite ``a_i`` has D_i > 2^1021
        (``|x_i| >= 2^511.5`` against ``|q| <= 2^510``, or an exact ``a_i``
        past the float range), but ``B <= limit + Q <= 2^1021``, as ``kth >=
        -Q(1 + 3 kappa') - t'``.  ``not >`` keeps a NaN ``a_i``, and a NaN or
        infinite kth keeps every row."""
        x = _matrix(self, k)
        queries = np.asarray(queries, dtype=np.float64)
        n, d = x.shape
        if queries.shape[1:] != (d,) and queries.shape != (0, 0):
            raise DimensionMismatch(f"query shape {queries.shape[1:]} vs corpus dim {d}")
        q_sq = _sq_norms(queries)
        bad = _non_finite_rows(queries, q_sq)
        if bad.size:
            raise InvariantViolation(f"query row {int(bad[0])}: non-finite entries")
        k = min(k, n)
        kappa, t = _sq_dist_slack(d)
        step = max(1, _PRODUCT_BYTES // (8 * n))
        product = np.empty((min(step, len(queries)), n))
        out = []
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = np.where(q_sq <= 2.0**1020, q_sq * (10 * kappa) + 2 * t, np.inf)
            for start in range(0, len(queries), step):
                block = queries[start:start + step]
                a = product[:len(block)]
                np.matmul(block * -2.0, x.T, out=a)
                a += self.sq_norms
                for row, offset in zip(a, offsets[start:]):
                    limit = (np.partition(row, k - 1)[k - 1] + offset) / (1 - 4 * kappa)
                    out.append(np.flatnonzero(~(row > (limit if limit <= 2.0**1020 else np.inf))))
        return out


def stack_records(records: Sequence[EmbeddingRecord]) -> EmbeddingRows:
    """A record list built in memory as ``EmbeddingRows`` over one new
    read-only matrix; no records give zero rows, rows of different widths raise."""
    dim = records[0].vector.shape[0] if records else 0
    for r in records:
        if r.vector.shape[0] != dim:
            raise DimensionMismatch(f"record {r.id}: dim {r.vector.shape[0]} != {dim}")
    matrix = np.array([r.vector for r in records], dtype=np.float64).reshape(len(records), dim)
    matrix.flags.writeable = False
    return EmbeddingRows(matrix, [r.id for r in records])


def _matrix(rows: EmbeddingRows, k: int = 1) -> np.ndarray:
    """The matrix of ``rows`` to pick ``k`` rows from; no rows or k < 1 raise."""
    if not rows.ids:
        raise EmptyCollection("no embedding records")
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    return rows.matrix


def greedy_diversity_select(
    rows: EmbeddingRows,
    k: int,
    keep_trace: bool = False,
) -> SelectionResult:
    """Greedy maximum-diversity subset selection.

    Seeds with the first record, then repeatedly adds the unpicked record of
    least score ``s_i = (u_i * P).sum()``, lowest index on ties.  Here
    ``u_i = x_i / norms[i]`` is record i's unit row (``_row_norms``) and
    ``P`` the running float64 sum of the picked unit rows, so ``s_i / t`` is
    the record's mean cosine similarity to the ``t`` records picked so far;
    the trace reports that mean for each pick.

    Each step scans every row in float32, ``u32 @ float32(P)``, which reads
    half the bytes of a float64 scan, plus a penalty of inf at each picked
    row; the candidates are the unpicked rows whose scan lies within ``2E``
    of the least one.  ``E`` (``_scan_slack``) bounds every row's scan
    error, so every row that could score as low as the winner is a
    candidate: a lone candidate is the pick, and only two or more, or a
    kept trace, are re-scored with the rule above.  The selection is
    therefore that of the rule applied to every row, whatever the BLAS
    kernel, summation order or thread split.  No float64 unit matrix is
    kept: ``u32`` is built in row blocks, and the candidates' unit rows are
    recomputed from ``x``.
    """
    x = _matrix(rows, k)
    n, d = x.shape
    norms, u32, u_max = _unit_rows32(rows)
    k = min(k, n)
    chosen = np.zeros(k, dtype=np.intp)
    # 0 at an unpicked row, inf at a picked one, added to each scan
    penalty = np.zeros(n, dtype=np.float32)
    penalty[0] = np.inf
    trace = [(rows.ids[0], 0.0)] if keep_trace else None
    slack = _scan_slack(d, u_max)
    p = x[0] / norms[0]
    s32 = np.empty(n, dtype=np.float32)
    for t in range(1, k):
        np.matmul(u32, p.astype(np.float32), out=s32)
        s32 += penalty
        # round the threshold up to float32, so the comparison loses no row;
        # `not >` keeps NaN scans
        limit = np.float32(float(s32.min()) + 2.0 * slack(p))
        limit = np.nextafter(limit, np.float32(np.inf))
        cand = np.flatnonzero(~(s32 > limit))
        cand = cand[penalty[cand] == 0.0]  # an inf or NaN limit keeps picked rows
        if cand.size == 1 and trace is None:
            j = int(cand[0])
        else:
            scores = (x[cand] / norms[cand, None] * p).sum(axis=1)
            best = int(np.argmin(scores))  # the first occurrence: lowest index wins ties
            j = int(cand[best])
            if trace is not None:
                trace.append((rows.ids[j], float(scores[best] / t)))
        chosen[t] = j
        penalty[j] = np.inf
        p += x[j] / norms[j]
    return SelectionResult(
        selected_ids=tuple(rows.ids[i] for i in chosen),
        trace=None if trace is None else tuple(trace),
    )


def _unit_rows32(rows: EmbeddingRows) -> tuple[np.ndarray, np.ndarray, float]:
    """The row norms ``_row_norms(x)``, the unit rows ``x / norms[:, None]``
    rounded to float32 and the largest norm of a float64 unit row, built in
    row blocks so that no float64 temporary has N x d entries.  A zero row
    raises ``ZeroVector`` with its id."""
    x = rows.matrix
    norms = np.empty(x.shape[0])
    u32 = np.empty(x.shape, dtype=np.float32)
    u_max = 0.0
    step = max(1, _BLOCK_BYTES // (8 * x.shape[1]))
    for start in range(0, x.shape[0], step):
        block = slice(start, start + step)
        norms[block] = _row_norms(x[block])
        zero = np.flatnonzero(norms[block] == 0.0)
        if zero.size:
            raise ZeroVector(rows.ids[start + int(zero[0])])
        u = x[block] / norms[block, None]
        u32[block] = u
        u_max = max(u_max, float(np.sqrt(_sq_norms(u).max())))
    return norms, u32, u_max


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The norms of the rows of ``x``: ``np.linalg.norm(x, axis=1)``, which
    is ``sqrt`` of the ``np.add.reduce`` of the squares, except where that
    squared norm is inf, 0 or subnormal and the row is not zero.  Such a
    row takes the norm of the row divided by its largest magnitude, times
    that magnitude, so its norm neither overflows nor loses its bits to
    underflow."""
    with np.errstate(over="ignore"):
        sq = np.add.reduce(x * x, axis=1)
    norms = np.sqrt(sq)
    outside = np.flatnonzero(~((sq >= _TINY) & (sq < np.inf)))
    if outside.size:
        top = np.abs(x[outside]).max(axis=1)
        outside, top = outside[top > 0.0], top[top > 0.0]
        norms[outside] = np.linalg.norm(x[outside] / top[:, None], axis=1) * top
    return norms


def _gamma(n: int, unit: float) -> float:
    """``n u / (1 - n u)``: the relative error bound of an n-term dot product
    in any summation order, with or without FMA (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1); inf once
    ``n u`` reaches 1."""
    nu = n * unit
    return nu / (1.0 - nu) if nu < 1.0 else np.inf


def _scan_slack(d: int, u_max: float) -> Callable[[np.ndarray], float]:
    """E(p): a bound on ``|s32_i - s_i|`` for every row i, ``s32_i`` being
    the float32 scan of ``greedy_diversity_select`` and ``s_i`` the float64
    score ``(u_i * p).sum()``; ``u_max`` bounds each ``|u_i|`` within
    rounding.  The factors of E that depend on d and ``u_max`` alone are
    formed here, once per selection, in the order of evaluation of the one
    formula that the returned function completes with ``|p|``, so each E has
    the bits of that formula.

    With a = u_i and a' = float32(a), p' = float32(p), and u32 and u64 the
    unit roundoffs: rounding to float32 moves each entry by at most
    u32 times its size plus eta = 2^-150 (a value in float32's subnormal
    range), so ``|a'.p' - a.p| <= (2 u32 + u32^2)|a||p| + 2 eta sqrt(d)(|a| + |p|)
    + d eta^2``.  The float32 dot product errs by at most
    ``gamma_{d+1}(u32)|a'||p'|`` plus ``2 d eta`` for products that underflow,
    and the float64 score by ``gamma_{d+1}(u64)|a||p|`` plus d times the much
    smaller float64 eta.  With ``|a'| <= (1 + u32)|a| + sqrt(d) eta`` and
    gamma <= 1 (else E is inf and every row is re-scored), the sum is at most
    ``(3 u32 + gamma_{d+1}(u32)(1 + u32)^2 + gamma_{d+1}(u64))|a||p|`` plus
    ``4 eta (d + 1)(1 + sqrt(d)(|a| + |p|))``.  The computed ``u_max`` and
    ``|p|`` each lie within ``gamma_{d+2}(u64)`` of the true norms, or their
    squares underflowed and the eta term dominates; the factor
    ``1 + gamma_{2d+12}(u64)`` covers that and forming E itself.
    """
    rel_u_max = (3 * _UNIT_ROUNDOFF32 + _gamma(d + 1, _UNIT_ROUNDOFF32) * (1 + _UNIT_ROUNDOFF32) ** 2
                 + _gamma(d + 1, _UNIT_ROUNDOFF)) * u_max
    tiny = 4 * _SUBNORMAL32 * (d + 1)
    root_d = np.sqrt(d)
    widen = 1 + _gamma(2 * d + 12, _UNIT_ROUNDOFF)

    def slack(p: np.ndarray) -> float:
        p_norm = float(np.sqrt(p @ p))
        return (rel_u_max * p_norm + tiny * (1 + root_d * (u_max + p_norm))) * widen

    return slack


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of ``x`` (or of the vector ``x``)."""
    return np.einsum("...j,...j->...", x, x)  # einsum overflows to inf silently


def _non_finite_rows(x: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """The rows of ``x`` with a NaN or an inf; only the rows whose squared
    norm ``sq_norms`` is not finite take the scan, a bool per entry."""
    suspect = np.flatnonzero(~np.isfinite(sq_norms))
    return suspect[~np.isfinite(x[suspect]).all(axis=1)]


def _sq_dist_slack(d: int) -> tuple[float, float]:
    """kappa = 8(d + 8)u and t = (d + 8) tiny, u the unit roundoff and tiny
    the least normal float: the terms of every nearest-row certificate's
    slack, twice what its proof needs.

    Let ``a = |y|^2 - 2 x.y`` be formed as the certificates form it (the dot
    product of x and -2y, or -2x and y, in any order, with or without FMA,
    plus the computed ``|y|^2``; or that sum before it rounds), Q the
    computed ``|x|^2`` and D the exact squared distance, the literal one or
    the literal norm's square.  For d < 2^25, kappa' = kappa / 2 and t' =
    t / 2, ``|a + Q - D| <= s'(a) = (kappa'(5Q + 2a) + t') / (1 - 2 kappa')``,
    and s' and ``a - s'(a)`` rise with a.  Proof: with X, Y the exact
    squared norms, delta the exact squared distance and eta = 2^-1074,
    Higham's gamma for dot products, plus eta per product that underflows,
    gives ``|a + Q - delta| <= 2 gamma_{d+1}(X + Y) + 4d eta`` (as ``2|x_i
    y_i| <= x_i^2 + y_i^2``, and the addition errs by ``u(X + 2Y)``) and
    ``|D - delta| <= gamma_{d+4} delta + 2d eta``, so ``E = |a + Q - D| <=
    c(X + Y) + 6d eta`` with c = 4 gamma_{d+4}.  As ``Y <= 2X + 2 delta``
    and ``delta <= a + Q + E`` (solved at D = delta first), ``E <= (c(3X +
    2Q + 2a) + 6d eta) / (1 - 2c)``.  Last, ``X <= (Q + d eta) / (1 -
    gamma_d)`` and ``a + Q >= -E``, kappa' exceeds ``c(1 + 2 gamma_d)(1 +
    3 kappa')`` while d < 2^25, and t' covers the eta terms.

    Each rule forms, from one a and Q, a limit or a bound that its proof
    needs on one side of its exact value at kappa' and t'.  At kappa and t
    that value lies farther on that side, by at least ``(kappa - kappa')(|a|
    + Q) + t' / 2``, as D >= 0 gives ``a >= -Q(1 + 3 kappa') - t'``; its at
    most five roundings move it by less than ``6u(|a| + Q + t) + eta``, and
    kappa - kappa' >= 36u."""
    return 8 * (d + 8) * _UNIT_ROUNDOFF, (d + 8) * _TINY


def top_k_by_distance(
    query_emb: Sequence[float],
    corpus: EmbeddingRows | Sequence[EmbeddingRecord],
    k: int,
    rows: np.ndarray | None = None,
) -> list[str]:
    """Exact top-k by ascending Euclidean distance; ties keep input order.

    ``corpus``: ``EmbeddingRows``, shared across queries and taken as it
    is, or any other record sequence, stacked for this one call.  ``rows``:
    the query's candidates from ``EmbeddingRows.candidates`` for this k or
    a larger one (any ascending row array that holds them will do), or None
    to nominate them here, as a block of one.  The candidates are re-scored
    with the literal ``np.linalg.norm(x[rows] - q, axis=1)`` and stably
    sorted, so the ids are those of a stable sort of the literal distances
    of every row.
    """
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    if not isinstance(corpus, EmbeddingRows):
        corpus = stack_records(corpus)
    x = _matrix(corpus)
    q = np.asarray(query_emb, dtype=np.float64)
    if q.shape != (x.shape[1],):
        raise DimensionMismatch(f"query shape {q.shape} vs corpus dim {x.shape[1]}")
    if rows is None:
        rows = corpus.candidates(q[None], k)[0]
    with np.errstate(over="ignore"):
        exact = np.linalg.norm(x[rows] - q, axis=1)
    return [corpus.ids[int(i)] for i in rows[np.argsort(exact, kind="stable")[:k]]]


def nearest_pairs(
    queries: EmbeddingRows,
    docs: EmbeddingRows,
) -> list[tuple[np.ndarray, np.ndarray, tuple[str, str]]]:
    """(query vector, doc vector, (query id, doc id)) for each query and its
    nearest document (top-1 by Euclidean distance), in query order: the
    pairs that ``quality_filter`` takes."""
    pairs = []
    for qid, q, rows in zip(queries.ids, queries.matrix, docs.candidates(queries.matrix, 1)):
        top = top_k_by_distance(q, docs, 1, rows)
        pairs.append((q, docs.matrix[docs.rows_of(top, rows)[0]], (qid, top[0])))
    return pairs


def random_select(rows: EmbeddingRows, k: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement; order follows the seeded draw."""
    n = len(_matrix(rows, k))
    if k > n:
        raise KTooLarge(f"k={k} exceeds N={n}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)[:k]
    return SelectionResult(selected_ids=tuple(rows.ids[int(i)] for i in idx))


def kmeans_centroid_select(
    rows: EmbeddingRows,
    k: int,
    seed: int,
) -> SelectionResult:
    """Lloyd's k-means, then one representative per cluster: the member record
    nearest its centroid in Euclidean distance, ties by lowest input index.

    Each step assigns every row the centroid of least literal squared
    distance ``np.square(x_i - c).sum()``, lowest index on ties, and an
    emptied cluster grabs the row farthest from its own centroid among
    clusters of two or more.  A step re-scores only the rows whose bounds
    do not prove that their centroid still wins (see ``_widen_bounds``), and
    only the clusters whose members changed recompute their mean.

    Rows whose largest squared norm S is not in [2^-896, 2^1020] (an inf
    included) are clustered times the power of two that brings their largest
    magnitude into [1/2, 1), on a copy with its own squared norms.  Below
    2^1020 no squared distance to a mean (at most 4S) and no cluster sum (at
    most N sqrt(S)) overflows; from 2^-896 up a squared difference of one
    unit in the last place of the largest magnitude (at least S 2^-106 / d)
    is normal for d up to 2^20.  A power of two scales each sum, product and
    square exactly while it stays normal, so the rows times any power of two
    give the picks of the rows at a scale in range, unless a value falls
    below the normal range at one scale and not at the other.
    """
    x = _matrix(rows, k)
    n = x.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds N={n}")
    x_sq = rows.sq_norms
    if not 2.0**-896 <= x_sq.max() <= 2.0**1020:
        x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        x_sq = _sq_norms(x)
    rng = np.random.default_rng(seed)
    centroids = x[rng.permutation(n)[:k]].copy()
    # one work array per run: a fresh one per block faults its pages in anew
    # (twice the time of a step) and shifts the heap layout
    work = np.empty((max(1, min(n, _BLOCK_BYTES // (8 * k))), k))
    # the narrowest dtype: a stable argsort of 8- or 16-bit keys is a radix sort
    assign = np.zeros(n, dtype=np.min_scalar_type(k - 1))
    # each row's bounds on its distance to its own centroid and to every other
    upper, lower = np.empty(n), np.empty(n)
    stale = None  # the rows to re-score; None: every row, read in place
    for it in range(KMEANS_MAX_ITERS):
        new_assign = assign.copy()
        _assign_rows(x, x_sq, centroids, stale, work, new_assign, upper, lower)
        sizes = np.bincount(new_assign, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            with np.errstate(over="ignore"):
                own_d2 = np.square(x - centroids[new_assign]).sum(axis=1)
            for c in empty:
                # an emptied cluster grabs the point farthest from its centroid
                # among clusters of two or more, so no cluster is left empty
                far = int(np.argmax(np.where(sizes[new_assign] > 1, own_d2, -np.inf)))
                sizes[new_assign[far]] -= 1
                sizes[c] = 1
                new_assign[far] = c
                upper[far] = np.inf  # its bounds are for the centroid it left
        moved = np.flatnonzero(new_assign != assign)
        if it > 0 and not moved.size:
            break
        # the clusters a row left or joined; an unchanged member list gives
        # its mean the same bits, so the others move by exactly 0
        changed = np.arange(k) if it == 0 else np.flatnonzero(
            np.bincount(assign[moved], minlength=k) + np.bincount(new_assign[moved], minlength=k))
        assign = new_assign
        old = centroids[changed]
        members = _cluster_members(assign, k)
        for c in changed:
            centroids[c] = x[members[c]].mean(axis=0)
        stale = _widen_bounds(upper, lower, assign, changed, old, centroids)
    reps = []
    for c, members in enumerate(_cluster_members(assign, k)):
        with np.errstate(over="ignore"):
            reps.append(members[np.argmin(np.linalg.norm(x[members] - centroids[c], axis=1))])
    return SelectionResult(selected_ids=tuple(rows.ids[i] for i in reps))


def _cluster_members(assign: np.ndarray, k: int) -> list[np.ndarray]:
    """The rows of each of the k clusters in ascending order, as
    ``np.flatnonzero(assign == c)`` gives them, from one stable sort of
    ``assign`` instead of k scans of it."""
    order = np.argsort(assign, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])


def _assign_rows(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray,
                 rows: np.ndarray | None, work: np.ndarray, assign: np.ndarray,
                 upper: np.ndarray, lower: np.ndarray) -> None:
    """Re-score ``rows`` of ``x`` (None: every row, read in place; else an
    index array, gathered a block at a time): set ``assign`` to each row's
    centroid of least literal squared distance, lowest index on ties, and
    ``upper`` and ``lower`` to bounds on its distance to that centroid and
    to every other.  ``x_sq``: ``_sq_norms(x)``.

    Each block forms ``a = |c|^2 - 2 x.c`` for its rows and every centroid
    in ``work`` (rows x k), as one matrix product with ``-2 c`` plus
    ``|c|^2``.  A row's least entry m1, at ``best``, its next least m2 and
    Q, its ``|x|^2``, give ``up = (m1 + Q(1 + 3 kappa) + t) / (1 - 2 kappa)``
    and ``lo = (m2(1 - 4 kappa) + Q(1 - 7 kappa) - t) / (1 - 2 kappa)``
    (``_sq_dist_slack``), which are ``m1 + Q + s'(m1)`` and ``m2 + Q -
    s'(m2)`` rounded outward.  As ``a - s'(a)`` rises, they bound the
    squared distance, literal or exact, to ``best`` from above and to every
    other centroid from below.  So where ``lo > up``, that is where ``m2(1 -
    4 kappa) > m1 + 10 kappa Q + 2t``, ``best`` is the literal answer,
    strictly.  That needs every a finite, as it is while Q is finite and no
    ``|c|^2`` exceeds 2^1020; a larger one makes t inf for the whole call,
    and an infinite Q makes ``up`` inf or NaN, so neither certifies a row,
    nor does a NaN.  The undecided rows are re-scored literally, and their
    bounds left open (``upper`` inf).  ``lo`` is clamped to 2^1020, as an
    infinite lower bound would outlast any finite move of the centroids.
    The square roots of ``up`` and ``lo``, rounded outward, are the row's
    new bounds."""
    count = x.shape[0] if rows is None else rows.size
    kappa, t = _sq_dist_slack(x.shape[1])
    c_sq = _sq_norms(centroids)
    if not c_sq.max() <= 2.0**1020:
        t = np.inf  # a product or a sum may overflow
    with np.errstate(over="ignore"):
        scaled = -2.0 * centroids
    for start in range(0, count, work.shape[0]):
        at = slice(start, start + work.shape[0])
        if rows is not None:
            at = rows[at]
        block = x[at]
        m = block.shape[0]
        a = work[:m]
        i = np.arange(m)
        q = x_sq[at]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(block, scaled.T, out=a)
            a += c_sq
            best = np.argmin(a, axis=1)  # a NaN is the least, and fails the test
            m1 = a[i, best]
            a[i, best] = np.inf
            up = (m1 + q * (1 + 3 * kappa) + t) / (1 - 2 * kappa)
            lo = (a.min(axis=1) * (1 - 4 * kappa) + q * (1 - 7 * kappa) - t) / (1 - 2 * kappa)
            np.minimum(lo, 2.0**1020, out=lo)
        undecided = np.flatnonzero(~(lo > up))  # NaN too
        best[undecided] = _literal_nearest(block[undecided], centroids)
        up[undecided] = np.inf
        assign[at] = best
        # the bounds hold the exact squared distances too
        upper[at] = np.sqrt(up) * _WIDEN
        lower[at] = np.sqrt(np.maximum(lo, 0.0)) * _NARROW


def _widen_bounds(upper: np.ndarray, lower: np.ndarray, assign: np.ndarray,
                  changed: np.ndarray, old: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Widen each row's bounds by how far the centroids moved, and return
    the rows whose bounds no longer prove that their centroid wins: the
    rows a step must re-score.  ``changed``: the clusters that recomputed
    their mean, ``old``: their centroids before, ``centroids``: after.

    The bounds are on exact distances between the stored vectors, so the
    triangle inequality holds: a row's distance to its own centroid grows
    by at most that centroid's move, and to any other by at most the
    largest move of another centroid.  Each sum, difference and square
    root is rounded outward by ``_WIDEN`` or ``_NARROW``, so the bounds stay
    on their side of the exact distances.  A centroid's move is bounded from
    its literal squared distance ``m = np.square(new - old).sum()``, below.

    The skip test.  With u the unit roundoff, eta = 2^-1074 and
    g = gamma_{d+2}(u), the literal ``D = np.square(x_i - c).sum()`` lies
    within ``g delta + d eta`` of the exact squared distance delta: the
    difference and the square each round once, a sum of d non-negative
    terms errs by gamma_{d-1} in any order, and d squares may underflow by
    eta / 2 each.  So with U >= sqrt(delta_own) and L <= sqrt(delta_other)
    for every other centroid, ``L^2 (1 - g) > U^2 (1 + g) + 2 d eta``
    gives ``D_own < D_other`` strictly, whatever the centroids' indices.
    The test computes ``U^2 rho + tau < L^2`` with rho = 1 + 8 g and
    tau = 4 (d + 2) eta: its four roundings (and that of rho) cost at most
    a factor (1 + u)^5 and 3 eta, which the excess of rho over
    (1 + g) / (1 - g), about 1 + 2 g with g >= 3 u, and of tau over
    2 d eta cover while g <= 1/16 (past that rho is inf, and every row is
    re-scored).  The same rho and tau bound a move, as the literal
    distance of the old centroid to the new one:
    ``m_exact^2 <= (m + d eta) / (1 - g) <= (m + tau) rho`` after rounding.
    The test fails, and the row is re-scored, when a bound is NaN or inf
    (a huge vector overflowed), when ``U^2 rho`` overflows, so that the
    literal D_own could, or when L is 0, as a lower bound that a move took
    below 0 is clamped."""
    d = centroids.shape[1]
    g = _gamma(d + 2, _UNIT_ROUNDOFF)
    rho = 1.0 + 8.0 * g if g <= 1 / 16 else np.inf
    tau = 4 * (d + 2) * _SUBNORMAL
    moves = np.zeros(centroids.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = np.square(centroids[changed] - old).sum(axis=1)
        moves[changed] = np.sqrt((m2 + tau) * rho) * _WIDEN
        first = int(np.argmax(moves))  # NaN counts as the largest
        others = np.full_like(moves, moves[first])
        others[first] = np.max(np.delete(moves, first), initial=0.0)
        upper += moves[assign]
        upper *= _WIDEN
        lower -= others[assign]
        lower *= _NARROW
        np.maximum(lower, 0.0, out=lower)
        proven = np.square(upper) * rho + tau < np.square(lower)
    return np.flatnonzero(~proven)


def _literal_nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's ``argmin`` of ``np.square(x_i - centroids).sum(axis=1)``."""
    out = np.empty(x.shape[0], dtype=np.intp)
    step = max(1, _BLOCK_BYTES // (8 * centroids.size))
    with np.errstate(over="ignore"):
        for start in range(0, x.shape[0], step):
            d2 = np.square(x[start:start + step, None, :] - centroids[None]).sum(axis=2)
            out[start:start + step] = np.argmin(d2, axis=1)
    return out


# --- JSON-lines embedding I/O ---


def read_embeddings(path: str) -> EmbeddingRows:
    """The records of a JSONL embeddings file in file order, over one read-only
    matrix; a blank file gives zero rows (see the module docstring)."""
    try:
        st = os.stat(path)
    except OSError:
        st = None  # the reader's open names the error
    if st is None or not stat.S_ISREG(st.st_mode):  # a pipe or FIFO can be read only once
        logger.debug("embeddings %s: uncached", path)
        return _read_json_rows(path)
    entry = _cache_entry(path)
    stored_digest, stored_record, stored_rows = _NO_ENTRY if entry is None else _load_entry(entry)
    if _trusted(stored_record) and stored_record[:5] == _stat_key(st):
        logger.debug("embeddings %s: stat hit", path)
        return stored_rows
    with open(path, "rb") as fh:
        now = time_ns()
        before = os.fstat(fh.fileno())
        digest, capacity = _scan(fh)
    record = (*_stat_key(before), now)
    if stored_digest == digest:
        if _trusted(record):  # once per change, not once per read
            _store_entry(entry, digest, stored_rows, record)
        logger.debug("embeddings %s: digest hit", path)
        return stored_rows
    logger.debug("embeddings %s: %s", path, "uncached" if entry is None else "miss")
    rows = _read_rows(path, capacity)
    if rows is None:
        rows = _read_json_rows(path)
    if entry is not None and _stat_key(before) == _stat_key(os.stat(path)):
        _store_entry(entry, digest, rows, record)
    return rows


def _read_json_rows(path: str) -> EmbeddingRows:
    """``read_embeddings`` by the JSON-per-line reader alone, in one pass."""
    first: dict[str, int] = {}

    def build(rec: dict) -> EmbeddingRecord:
        r = EmbeddingRecord(id=rec["id"], vector=np.asarray(rec["vector"], dtype=np.float64))
        if len(r.vector) != first.setdefault("dim", len(r.vector)):
            raise DimensionMismatch(f"dim {len(r.vector)} != {first['dim']}, the first vector's")
        return r

    return stack_records(read_jsonl(path, build))


_CHUNK_BYTES = 1 << 18
_CACHE_DIR = "__rankkit_cache__"
# how long after a file's last change a stat of it must be taken for a cache
# entry to trust that stat instead of hashing; covers FAT's 2 s timestamps
_RACY_NS = 2_000_000_000
_HEAD = b'{"id": "'
_MID = b'", "vector": ['
_TAIL = b"]}"
_ID_BAD_BYTES = bytes(range(0x20)) + b'"\\'


def _scan(fh) -> tuple[bytes, int]:
    """The SHA-256 digest of the bytes of ``fh`` and their newline count, in
    one pass of ``_CHUNK_BYTES`` blocks."""
    sha = hashlib.sha256()
    newlines = 0
    for block in iter(partial(fh.read, _CHUNK_BYTES), b""):
        sha.update(block)
        newlines += block.count(b"\n")
    return sha.digest(), newlines


def _read_rows(path: str, capacity: int) -> EmbeddingRows | None:
    """The fast path of ``read_embeddings``: the whole file as
    ``EmbeddingRows``, or None when any line or chunk fails a check, the
    rows fail ``EmbeddingRows``' checks or the file holds no record.
    ``capacity``: the file's newline count, which sizes the matrix."""
    with open(path, "rb") as fh:
        matrix = None
        ids: list[str] = []
        try:
            for lines in iter(partial(fh.readlines, _CHUNK_BYTES), []):
                part_ids, x = _parse_chunk(lines)
                if x is None:
                    continue
                if matrix is None:
                    matrix = np.empty((capacity + 1, x.shape[1]))
                elif x.shape[1] != matrix.shape[1]:
                    return None
                matrix[len(ids):len(ids) + len(part_ids)] = x
                ids.extend(part_ids)
        except ValueError:
            return None
    if matrix is None:
        return None
    matrix = matrix[:len(ids)]
    matrix.flags.writeable = False
    try:
        return EmbeddingRows(matrix, ids)
    except RankkitError:  # the JSON reader names the bad line
        return None


def _parse_chunk(lines: list[bytes]) -> tuple[list[str], np.ndarray | None]:
    """Ids and vector matrix (None if there is no record) of the non-blank
    ``lines``.  Raises ``ValueError`` when a line is not in the canonical
    shape; ``EmbeddingRows`` checks the ids and values."""
    ids, bodies = [], []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        mid = line.find(_MID, len(_HEAD))
        if mid < 0 or not line.startswith(_HEAD) or not line.endswith(_TAIL):
            raise ValueError("not a canonical embedding line")
        raw_id = line[len(_HEAD):mid]
        body = line[mid + len(_MID):-len(_TAIL)]
        if len(raw_id.translate(None, _ID_BAD_BYTES)) != len(raw_id) or not body.strip():
            raise ValueError("an id with escapes or control bytes, or an empty vector")
        ids.append(raw_id.decode("utf-8"))
        bodies.append(body)
    if not bodies:
        return ids, None
    if not _json_numbers(b"\n".join([b"", *bodies, b""])):
        raise ValueError("not JSON numbers")
    x = np.loadtxt(bodies, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    if x.shape[0] != len(bodies):
        raise ValueError("rows lost")
    # json.loads reads an integer token as an int, so "-0" becomes +0.0
    # where np.loadtxt gives -0.0; "-0.0" and "-0e0" are -0.0 for both
    for flat in np.flatnonzero((x == 0.0) & np.signbit(x)):
        row, col = divmod(int(flat), x.shape[1])
        if bodies[row].split(b",")[col].strip().lstrip(b"-").isdigit():
            raise ValueError("the integer -0")
    return ids, x


# Byte classes of a vector body; "-" is deleted or is a separator.
_SEP, _DOT, _ZERO, _DIGIT, _EXP, _OTHER = range(6)


def _class_table() -> bytes:
    table = bytearray([_OTHER]) * 256
    for chars, cls in ((b", \t\n-", _SEP), (b".+", _DOT), (b"0", _ZERO),
                       (b"123456789", _DIGIT), (b"eE", _EXP)):
        for ch in chars:
            table[ch] = cls
    return bytes(table)


def _bad_trigram_table() -> bytes:
    bad_pairs = {(_SEP, _DOT), (_DOT, _SEP), (_DOT, _EXP)}
    bad_triples = {(_SEP, _ZERO, _ZERO), (_SEP, _ZERO, _DIGIT)}
    table = bytearray(256)
    for a, b, c in product(range(6), repeat=3):
        table[36 * a + 6 * b + c] = (_OTHER in (a, b, c) or (a, b) in bad_pairs
                                     or (b, c) in bad_pairs or (a, b, c) in bad_triples)
    return bytes(table)


_NUMBER_CLASSES = _class_table()
_BAD_TRIGRAMS = _bad_trigram_table()


def _json_numbers(text: bytes) -> bool:
    """Whether the vector bodies in ``text``, each with a newline before and
    after it, hold only JSON numbers, for bodies that ``np.loadtxt`` parses.
    False also for JSON that is left to ``json.loads``: a carriage return
    between numbers.

    loadtxt splits each body at commas and requires each field to be
    whitespace around a token that ``float()`` parses in full,
    ``[+-]?(digits[.digits?] | .digits)([eE][+-]?digits)?`` or an inf/nan
    spelling, and it strips whitespace that JSON does not allow (vertical
    tab, form feed, no-break space).  RFC 8259, section 6, also requires no
    "+" before the integer part, an integer part without a leading zero and
    digits on both sides of a ".".  With every "-" deleted and bytes mapped
    to classes (separator: comma, space, tab, newline; dot: "." or "+";
    zero; digit 1-9; exponent: "e" or "E"; other), a token breaks one of
    these rules or holds a byte other than the number alphabet, space and
    tab exactly when a trigram of classes holds "other", a separator next to
    a dot (a leading ".", "+" or "-.", a trailing "."), a dot before an
    exponent ("1.e5"), or a separator, zero and digit ("01", "-01").  An
    exponent's leading zeros are legal and pass, as its "e" is not a
    separator.  The check is one ``translate`` into classes, a trigram code
    per byte (36a + 6b + c <= 215), one ``translate`` of codes to a bad flag
    and one ``memchr``.

    Where no body holds an exponent, "-" is read as a separator instead of
    being deleted: a plain ``translate`` takes less than half the time, a
    sign that JSON allows ("-0.5") passes as it does once deleted, and any
    other "-" is left to loadtxt as before.  An exponent's sign must be
    deleted, so that "1e-05" does not read as a leading zero ("01").
    """
    delete = b"-" if b"e" in text or b"E" in text else b""
    c = np.frombuffer(text.translate(_NUMBER_CLASSES, delete), np.uint8)
    trigrams = c[:-2] * 36
    trigrams += c[1:-1] * 6
    trigrams += c[2:]
    return 1 not in trigrams.tobytes().translate(_BAD_TRIGRAMS)


def _cache_entry(path: str) -> str | None:
    """Where the parsed copy of ``path`` lives, ``<dir>/__rankkit_cache__/<name>.npy``
    beside the file that ``path`` resolves to; the directory is made if it is
    missing.  None when it cannot be made or is not ``_private``."""
    source = os.path.realpath(path)
    folder = os.path.join(os.path.dirname(source), _CACHE_DIR)
    try:
        with contextlib.suppress(FileExistsError):
            os.mkdir(folder, 0o700)
        st = os.lstat(folder)
    except OSError as exc:
        logger.debug("no embeddings cache for %s: %s", path, exc)
        return None
    if not (stat.S_ISDIR(st.st_mode) and _private(st)):
        logger.debug("embeddings cache %s is not a private directory; not used", folder)
        return None
    return os.path.join(folder, os.path.basename(source) + ".npy")


def _private(st: os.stat_result) -> bool:
    """Whether a cache directory or entry is the current user's and no one
    else may write to it, so no other user can plant vectors in it."""
    return st.st_uid == os.geteuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _stat_key(st: os.stat_result) -> tuple[int, ...]:
    """``st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns`` of ``st``, each
    wrapped to a signed 64-bit value as a cache entry stores it.  Nothing
    wrote to a file between two stats with the same key: a write moves
    ``st_ctime_ns``, which ``os.utime`` cannot set back."""
    fields = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    return tuple((f + (1 << 63)) % (1 << 64) - (1 << 63) for f in fields)


def _trusted(record: tuple[int, ...] | None) -> bool:
    """Whether a stat record (``_stat_key`` and the time just before that
    stat) proves that the file's last change was more than ``_RACY_NS``
    before it, so that any later write moves the key."""
    return record is not None and record[5] - max(record[3], record[4]) > _RACY_NS


# what _load_entry gives for a missing, damaged or foreign entry
_NO_ENTRY = (None, None, None)


def _load_entry(entry: str) -> tuple[bytes | None, tuple[int, ...] | None, EmbeddingRows | None]:
    """The SHA-256 digest, the stat record (None in an entry without one) and
    the rows of a cache entry, if it is ``_private``; ``_NO_ENTRY`` on any
    failure, a miss.  The matrix is mapped read-only, not copied, and the
    rows pass ``EmbeddingRows``' checks again."""
    # a cache never fails a read: whatever a damaged entry raises is a miss
    try:
        with open(os.open(entry, os.O_RDONLY | os.O_NOFOLLOW), "rb") as fh:
            st = os.fstat(fh.fileno())
            if not (stat.S_ISREG(st.st_mode) and _private(st)):
                logger.debug("embeddings cache %s is not a private file; not used", entry)
                return _NO_ENTRY
            digest, ids = (np.load(fh, allow_pickle=False) for _ in range(2))
            if npy_format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 array")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
            if fortran_order or dtype != np.float64 or len(shape) != 2:
                raise ValueError(f"a matrix of dtype {dtype}, shape {shape}")
            offset = fh.tell()
            end = offset + 8 * shape[0] * shape[1]
            if end > st.st_size:  # a map past the end of the file raises SIGBUS when read
                raise ValueError(f"a matrix that ends at byte {end} of {st.st_size}")
            matrix = np.memmap(fh, np.float64, "r", offset, shape)
            fh.seek(end)
            record = None if end == st.st_size else np.load(fh, allow_pickle=False)
        if digest.dtype != np.uint8 or ids.dtype.kind != "U" or ids.ndim != 1:
            raise ValueError(f"a digest of dtype {digest.dtype}, ids of dtype {ids.dtype}")
        if record is not None and (record.dtype != np.int64 or record.shape != (6,)):
            raise ValueError(f"a stat record of dtype {record.dtype}, shape {record.shape}")
        rows = EmbeddingRows(matrix, ids.tolist())
    except FileNotFoundError:
        return _NO_ENTRY
    except Exception:
        logger.debug("embeddings cache %s not used", entry, exc_info=True)
        return _NO_ENTRY
    return digest.tobytes(), None if record is None else tuple(record.tolist()), rows


def _store_entry(entry: str, digest: bytes, rows: EmbeddingRows, record: tuple[int, ...]) -> None:
    """Write ``rows`` to a cache entry for a file of SHA-256 ``digest`` and
    stat ``record``: to a temporary file beside it, moved into place, so a
    reader that maps the old entry keeps its rows.  Any failure leaves the
    cache as it was."""
    ids = np.array(rows.ids, dtype=str)
    if ids.tolist() != list(rows.ids):  # a NumPy string drops trailing NULs
        return
    tmp = f"{entry}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600)
        with open(fd, "wb") as fh:
            for array in (np.frombuffer(digest, np.uint8), ids, rows.matrix,
                          np.array(record, np.int64)):
                np.save(fh, array, allow_pickle=False)
        os.replace(tmp, entry)
    except Exception:  # a cache never fails a read
        logger.debug("embeddings cache %s not written", entry, exc_info=True)
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def write_embeddings(records: Iterable[EmbeddingRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.id, "vector": [float(v) for v in r.vector]}) + "\n")


def write_selection(result: SelectionResult, path: str, meta: dict) -> None:
    """Selection output: one metadata header line, then one id per line."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"meta": dict(meta, count=len(result.selected_ids))}
        if result.trace is not None:
            header["meta"]["trace"] = [[i, s] for i, s in result.trace]
        fh.write(json.dumps(header) + "\n")
        for ident in result.selected_ids:
            fh.write(json.dumps({"id": ident}) + "\n")
