"""Embedding-space geometry and data selection.

Covers cosine/Euclidean similarity, quality filtering of query-document
pairs, greedy maximum-diversity subset selection, exact top-k retrieval,
and the random / k-means-centroid baseline selectors used by the selection
ablation.

Selection is deterministic: every argmin/argmax tie is broken by lowest
input index, and similarities are computed in float64 regardless of the
storage precision of the vectors.

Retrieval goes through a ``CorpusIndex``: each command stacks its corpus
once and ranks every query against it with one matrix-vector product,
``|x|^2 - 2 x.q + |q|^2``.  That expansion rounds differently from the
literal ``norm(x - q)``, so it only nominates candidates: every row whose
distance could, within a rigorous floating-point error bound, reach the
k-th smallest is re-scored exactly as ``norm(x[rows] - q, axis=1)`` and
stably sorted by (distance, row).  The ids returned are therefore the same,
ties included, as a stable sort of the literal distances of every row.  The
k-means assignment step certifies each row's nearest centroid with the same
bound (``_sq_dist_bounds``) and re-scores the rows it leaves undecided with
the literal ``np.square(x - c).sum()``: its selections are those of the
literal computation, with rows x k temporaries, not the N x k x d tensor.

``read_embeddings`` returns ``EmbeddingRows``: one C-contiguous float64
matrix and a tuple of ids, each record a view of its row, so the index and
the selectors take the file's matrix without another copy (a record list
built in memory is stacked once).  The file is streamed in chunks of about
256 KiB.  A chunk takes the fast path when every line has the exact shape
``{"id": "<id>", "vector": [<numbers>]}`` that ``write_embeddings`` writes,
the id holds no quote, backslash or control byte, and the bodies pass
``_json_numbers``; then one ``np.loadtxt`` call parses all of its vectors,
and their row count, width and finiteness are checked.  Any line or chunk
that fails a check sends the whole file through the JSON-per-line reader
(``types.read_jsonl``), which is the specification: it reports every
``MalformedLine`` with its file:line and returns a plain record list,
ragged or not.  Both paths give the same ids and bit-identical vectors.
"""

from __future__ import annotations

import json
import logging
from collections import abc
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCollection,
    InvariantViolation,
    KTooLarge,
    RankkitError,
    ZeroVector,
)
from .types import check_id, read_jsonl

logger = logging.getLogger(__name__)

KMEANS_MAX_ITERS = 50
# bytes of a k-means block: rows x k bounds, or rows x k x d literal differences
_BLOCK_BYTES = 1 << 19

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class EmbeddingRecord:
    id: str
    vector: np.ndarray

    def __post_init__(self):
        check_id("embedding record", self.id)
        v = np.asarray(self.vector)
        object.__setattr__(self, "vector", v)
        if v.ndim != 1 or v.shape[0] == 0:
            raise DimensionMismatch(f"record {self.id}: vector must be 1-d and non-empty")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch(f"record {self.id}: non-finite entries")


@dataclass(frozen=True)
class SelectionResult:
    """Selected ids in selection order, with an optional per-step trace of
    (chosen id, average similarity to the prior selection)."""

    selected_ids: tuple[str, ...]
    trace: tuple[tuple[str, float], ...] | None = None


@dataclass(frozen=True)
class FilterResult:
    kept: tuple
    kept_count: int
    dropped_below: int
    dropped_zero: int


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")


def cosine_sim(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector()
    return float(np.dot(a, b) / (na * nb))


def euclidean_dist(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    return float(np.linalg.norm(a - b))


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
    """Embedding records whose vectors are the rows of one float64 matrix:
    ``rows[i]`` is ``EmbeddingRecord(ids[i], matrix[i])``, its vector a view
    of the row, and a slice is again ``EmbeddingRows``."""

    def __init__(self, matrix: np.ndarray, ids: tuple[str, ...]):
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise InvariantViolation(f"{len(ids)} ids for a matrix of shape {matrix.shape}")
        self.matrix = matrix
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EmbeddingRows(self.matrix[i], self.ids[i])
        return EmbeddingRecord(self.ids[i], self.matrix[i])

    def __iter__(self):
        return map(EmbeddingRecord, self.ids, self.matrix)


def _rows(records: Sequence[EmbeddingRecord]) -> EmbeddingRows:
    """``records`` as one matrix: ``EmbeddingRows`` as they are, any other
    record list stacked into a new one.  Empty input or rows of different
    dimensions raise."""
    if not records:
        raise EmptyCollection("no embedding records")
    if isinstance(records, EmbeddingRows):
        return records
    dim = records[0].vector.shape[0]
    for r in records:
        if r.vector.shape[0] != dim:
            raise DimensionMismatch(f"record {r.id}: dim {r.vector.shape[0]} != {dim}")
    return EmbeddingRows(np.stack([r.vector for r in records], dtype=np.float64),
                         tuple(r.id for r in records))


def _unit_rows(rows: EmbeddingRows) -> np.ndarray:
    x = rows.matrix
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(rows.ids[int(zero[0])])
    return x / norms[:, None]


def greedy_diversity_select(
    records: Sequence[EmbeddingRecord],
    k: int,
    keep_trace: bool = False,
) -> SelectionResult:
    """Greedy maximum-diversity subset selection.

    Seeds with the first record, then repeatedly adds the
    candidate with the lowest average cosine similarity to everything chosen
    so far.  Per-candidate similarity sums are maintained incrementally, so
    each step is one matrix-vector product: O(k * N * d) total rather than
    the O(k^2 * N * d) of recomputing averages from scratch.
    """
    rows = _rows(records)
    u = _unit_rows(rows)
    n = u.shape[0]
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    k = min(k, n)
    chosen = [0]
    trace = [(rows.ids[0], 0.0)]
    picked = np.zeros(n, dtype=bool)
    picked[0] = True
    sums = u @ u[0]
    for _ in range(k - 1):
        avg = sums / len(chosen)
        avg[picked] = np.inf
        j = int(np.argmin(avg))  # argmin takes the first occurrence: lowest index wins ties
        chosen.append(j)
        trace.append((rows.ids[j], float(avg[j])))
        picked[j] = True
        sums = sums + u @ u[j]
    return SelectionResult(
        selected_ids=tuple(rows.ids[i] for i in chosen),
        trace=tuple(trace) if keep_trace else None,
    )


def _sq_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms and norms of the rows of ``x`` (or of the vector ``x``)."""
    sq = np.einsum("...j,...j->...", x, x)  # einsum overflows to inf silently
    return sq, np.sqrt(sq)


def _sq_dist_bounds(x: np.ndarray, x_sq: np.ndarray, x_norms: np.ndarray, y: np.ndarray,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the literal squared distance of each row of
    ``x`` to each row of ``y`` (or to the vector ``y``) from one product
    ``x @ y.T``.  ``x_sq``, ``x_norms``: ``_sq_norms(x)``, broadcastable to
    its shape; ``out``: None or three arrays of its shape to work in.  An
    overflowed bound is inf or NaN, which callers send to the literal path."""
    d = x.shape[1]
    y_sq, y_norms = _sq_norms(y)
    approx, slack, lower = (None, None, None) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        approx = np.matmul(x, y.T, out=approx)
        approx *= -2.0
        approx += x_sq
        approx += y_sq
        # slack bounds |approx - s|, s being the literal sum of squared
        # differences or the square of the literal norm of the difference:
        # the three length-d dot products in `approx` err by at most
        # d*u*(|x| + |y|)^2 together, s lies within (d + 4)*u*|x - y|^2 of
        # the true squared distance, and |x - y| <= |x| + |y|.  The factor 4
        # and the +8 cover combining the terms and forming the bound itself;
        # the tiny term covers underflow.
        slack = np.add(x_norms, y_norms, out=slack)
        slack *= slack
        slack *= 4 * (d + 8) * _UNIT_ROUNDOFF
        slack += (d + 8) * _TINY
        lower = np.subtract(approx, slack, out=lower)
        approx += slack
        return lower, approx


class CorpusIndex:
    """A corpus stacked once for exact top-k queries by Euclidean distance.

    Holds the float64 matrix (the matrix of ``EmbeddingRows`` itself, not a
    copy), its squared row norms, the ids in input order and an id -> row
    map (for a repeated id the last row wins).  Build one per command and
    pass it to every ``top_k_by_distance`` call; an empty corpus or rows of
    different dimensions fail here, once.
    """

    def __init__(self, records: Sequence[EmbeddingRecord]):
        rows = _rows(records)
        self.matrix = rows.matrix
        self.sq_norms, self.norms = _sq_norms(self.matrix)
        self.ids = rows.ids
        self.by_id = {ident: i for i, ident in enumerate(self.ids)}

    def nearest_rows(self, q: np.ndarray, k: int) -> np.ndarray:
        """Rows of the k nearest records to ``q``, in the order of
        ``np.argsort(np.linalg.norm(matrix - q, axis=1), kind="stable")[:k]``."""
        x = self.matrix
        k = min(k, x.shape[0])
        lower, upper = _sq_dist_bounds(x, self.sq_norms, self.norms, q)
        kth_upper = upper[np.argpartition(upper, k - 1)[k - 1]]
        # `not >` keeps the rows whose bound overflowed to NaN; at k = n,
        # kth_upper is the largest bound (or NaN), so every row is kept
        rows = np.flatnonzero(~(lower > kth_upper))
        with np.errstate(over="ignore"):
            exact = np.linalg.norm(x[rows] - q, axis=1)
        return rows[np.argsort(exact, kind="stable")[:k]]


def top_k_by_distance(
    query_emb: Sequence[float],
    corpus: CorpusIndex | Sequence[EmbeddingRecord],
    k: int,
) -> list[str]:
    """Exact top-k by ascending Euclidean distance; ties keep input order.

    ``corpus`` is a ``CorpusIndex`` shared across queries, or a record list
    that is indexed for this one call.
    """
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    index = corpus if isinstance(corpus, CorpusIndex) else CorpusIndex(corpus)
    q = np.asarray(query_emb, dtype=np.float64)
    dim = index.matrix.shape[1]
    if q.shape != (dim,):
        raise DimensionMismatch(f"query shape {q.shape} vs corpus dim {dim}")
    return [index.ids[int(i)] for i in index.nearest_rows(q, k)]


def nearest_pairs(
    queries: Sequence[EmbeddingRecord],
    index: CorpusIndex,
) -> list[tuple[np.ndarray, np.ndarray, tuple[str, str]]]:
    """(query vector, doc vector, (query id, doc id)) for each query and its
    nearest document (top-1 by Euclidean distance), in query order: the
    pairs that ``quality_filter`` takes."""
    pairs = []
    for q in queries:
        top = top_k_by_distance(q.vector, index, 1)[0]
        pairs.append((q.vector, index.matrix[index.by_id[top]], (q.id, top)))
    return pairs


def random_select(records: Sequence[EmbeddingRecord], k: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement; order follows the seeded draw."""
    if not records:
        raise EmptyCollection("no embedding records")
    if k > len(records):
        raise KTooLarge(f"k={k} exceeds N={len(records)}")
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(records))[:k]
    return SelectionResult(selected_ids=tuple(records[int(i)].id for i in idx))


def kmeans_centroid_select(
    records: Sequence[EmbeddingRecord],
    k: int,
    seed: int,
) -> SelectionResult:
    """Lloyd's k-means, then one representative per cluster: the member record
    nearest its centroid in Euclidean distance, ties by lowest input index.
    """
    rows = _rows(records)
    x = rows.matrix
    n = x.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds N={n}")
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    centroids = x[rng.permutation(n)[:k]].copy()
    # one set of work arrays per run: fresh ones per block fault their pages
    # in anew (twice the time of a step) and shift the heap layout
    work = np.empty((3, max(1, min(n, _BLOCK_BYTES // (8 * k))), k))
    assign = np.zeros(n, dtype=int)
    for it in range(KMEANS_MAX_ITERS):
        new_assign = _nearest_centroids(x, centroids, work)
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
        if np.array_equal(new_assign, assign) and it > 0:
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = x[assign == c].mean(axis=0)
    reps = []
    for c in range(k):
        members = np.flatnonzero(assign == c)
        with np.errstate(over="ignore"):
            reps.append(members[np.argmin(np.linalg.norm(x[members] - centroids[c], axis=1))])
    return SelectionResult(selected_ids=tuple(rows.ids[i] for i in reps))


def _nearest_centroids(x: np.ndarray, centroids: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Each row's centroid of least literal squared distance, lowest index on
    ties: its best centroid when no other centroid's lower bound reaches that
    one's upper bound, else re-scored literally.  ``work``: 3 x rows x k."""
    out = np.empty(x.shape[0], dtype=np.intp)
    x_sq, x_norms = _sq_norms(x)
    for start in range(0, x.shape[0], work.shape[1]):
        block = slice(start, start + work.shape[1])
        rows = x[block]
        lower, upper = _sq_dist_bounds(rows, x_sq[block, None], x_norms[block, None],
                                       centroids, work[:, :rows.shape[0]])
        at = np.arange(rows.shape[0])
        out[block] = best = np.argmin(upper, axis=1)
        best_upper = upper[at, best]
        lower[at, best] = np.inf
        undecided = start + np.flatnonzero(~(lower.min(axis=1) > best_upper))  # NaN too
        out[undecided] = _literal_nearest(x[undecided], centroids)
    return out


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


def read_embeddings(path: str) -> Sequence[EmbeddingRecord]:
    """The records of a JSONL embeddings file, in file order: ``EmbeddingRows``
    over one read-only matrix when the fast path takes the file, otherwise
    the record list of ``read_jsonl``.  See the module docstring."""
    rows = _read_rows(path)
    if rows is not None:
        return rows
    return read_jsonl(path, lambda rec: EmbeddingRecord(
        id=rec["id"], vector=np.asarray(rec["vector"], dtype=np.float64)))


_CHUNK_BYTES = 1 << 18
_HEAD = b'{"id": "'
_MID = b'", "vector": ['
_TAIL = b"]}"
_ID_BAD_BYTES = bytes(range(0x20)) + b'"\\'


def _read_rows(path: str) -> EmbeddingRows | None:
    """The fast path of ``read_embeddings``: the whole file as
    ``EmbeddingRows``, or None when any line or chunk fails a check, an id
    repeats or the file holds no record.  A first pass counts lines to
    size the matrix."""
    with open(path, "rb") as fh:
        capacity = sum(block.count(b"\n") for block in iter(partial(fh.read, _CHUNK_BYTES), b""))
        fh.seek(0)
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
        except (ValueError, RankkitError):
            return None
    if matrix is None or len(set(ids)) < len(ids):
        return None
    matrix = matrix[:len(ids)]
    matrix.flags.writeable = False
    return EmbeddingRows(matrix, tuple(ids))


def _parse_chunk(lines: list[bytes]) -> tuple[list[str], np.ndarray | None]:
    """Ids and vector matrix (None if there is no record) of the non-blank
    ``lines``.  Raises ``ValueError`` or ``RankkitError`` when a line is not
    in the canonical shape or fails a check."""
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
        ident = raw_id.decode("utf-8")
        check_id("embedding record", ident)
        ids.append(ident)
        bodies.append(body)
    if not bodies:
        return ids, None
    if not _json_numbers(b"\n".join([b"", *bodies, b""])):
        raise ValueError("not JSON numbers")
    x = np.loadtxt(bodies, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    if x.shape[0] != len(bodies) or not np.isfinite(x).all():
        raise ValueError("rows lost or non-finite values")
    # json.loads reads an integer token as an int, so "-0" becomes +0.0
    # where np.loadtxt gives -0.0; "-0.0" and "-0e0" are -0.0 for both
    for flat in np.flatnonzero((x == 0.0) & np.signbit(x)):
        row, col = divmod(int(flat), x.shape[1])
        if bodies[row].split(b",")[col].strip().lstrip(b"-").isdigit():
            raise ValueError("the integer -0")
    return ids, x


# Byte classes of a vector body once every "-" is deleted.
_SEP, _DOT, _ZERO, _DIGIT, _EXP, _OTHER = range(6)


def _class_table() -> bytes:
    table = bytearray([_OTHER]) * 256
    for chars, cls in ((b", \t\n", _SEP), (b".+", _DOT), (b"0", _ZERO),
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
    """
    c = np.frombuffer(text.translate(_NUMBER_CLASSES, b"-"), np.uint8)
    trigrams = c[:-2] * 36
    trigrams += c[1:-1] * 6
    trigrams += c[2:]
    return 1 not in trigrams.tobytes().translate(_BAD_TRIGRAMS)


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
