"""TREC-style IR evaluation: nDCG@k, MRR, Recall@k with macro/micro
aggregation, Kendall tau, and bit-exact qrels/run file I/O.

Conventions follow trec_eval where the choice matters: nDCG defaults to
linear gain, queries present in the qrels but absent from the run score 0
and stay in the mean, and IDCG is computed from all judged grades of the
query (not just the retrieved ones).

``read_run`` returns a ``Run``: the file's columns (query ids, doc ids,
ranks, scores, tags) as lists in file order, with no object per line; a
``RunEntry`` is built only when a caller indexes or iterates the run.  Each
chunk of lines is decoded and split in one call, and a chunk that fails a
check is parsed again line by line, so a bad line raises ``MalformedLine``
with its file:line.  The run's grouping by query is computed once and kept:
in the common case (each query's lines contiguous, ranks 1..n in file
order) one linear pass over the columns finds it with no sort.

The metrics take a run grouped by ``ranked_by_query`` (each query's doc
ids, best first), so a caller that computes several metrics groups the run
once.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import OrderedDict, abc
from functools import cached_property
from itertools import chain, groupby
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvariantViolation, LengthMismatch, MalformedLine, TooShort
from .types import Permutation, Value, chunk_lines, line_chunks, read_json_object, read_lines


# the largest grade a judgment may carry: far above TREC's 0-4 and the
# distinct grades that rank 100 candidates in tests/test_acceptance.py, and
# small enough that no sum of exponential gains 2^g - 1 overflows a float
MAX_GRADE = 255


def _check_grade(query_id: str, doc_id: str, grade: int) -> None:
    if grade < 0:
        raise InvariantViolation(f"negative grade for ({query_id}, {doc_id})")
    if grade > MAX_GRADE:
        raise InvariantViolation(f"grade above {MAX_GRADE} for ({query_id}, {doc_id})")


class Qrels(Value):
    """Graded relevance judgments, with optional query grouping for macro
    aggregation.

    ``judgments`` is the source of truth; a per-query index of it is built
    on construction and kept up to date by ``add``, so change judgments
    only through ``add``.  ``None`` stands for a new empty dict.
    """

    __slots__ = ("judgments", "group_of", "_by_query")

    def __init__(self, judgments: dict[tuple[str, str], int] | None = None,
                 group_of: dict[str, str] | None = None):
        self._set({} if judgments is None else judgments, {} if group_of is None else group_of)
        self._by_query: dict[str, dict[str, int]] = {}
        for (q, d), g in self.judgments.items():
            _check_grade(q, d, g)
            self._by_query.setdefault(q, {})[d] = g

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        _check_grade(query_id, doc_id, grade)
        self.judgments[query_id, doc_id] = grade
        self._by_query.setdefault(query_id, {})[doc_id] = grade

    def query_ids(self) -> list[str]:
        return sorted(self._by_query)

    def grades_for(self, query_id: str) -> dict[str, int]:
        """A copy of the query's {doc_id: grade}, in judgment insertion order."""
        return dict(self._by_query.get(query_id, {}))


class RunEntry(NamedTuple):
    """One line of a TREC run file."""

    query_id: str
    doc_id: str
    rank: int
    score: float
    tag: str = "run"


class MetricReport(Value):
    __slots__ = ("name", "per_query", "mean", "extras")

    def __init__(self, name: str, per_query: "OrderedDict[str, float]", mean: float,
                 extras: dict | None = None):
        self._set(name, per_query, mean, {} if extras is None else extras)

    def to_json(self) -> dict:
        return {
            "metric": self.name,
            "mean": self.mean,
            "per_query": dict(self.per_query),
            **self.extras,
        }


# (query id, start, stop) of each query's rows, in the grouped row order
Bounds = list[tuple[str, int, int]]


class Run(abc.Sequence):
    """The lines of a run file as columns, lists in file order.

    ``run[i]`` is ``RunEntry(query_ids[i], doc_ids[i], ranks[i], scores[i],
    tags[i])``, built on demand for an integer ``i``.  ``==`` compares the
    entries with those of any sequence of ``RunEntry``.  The columns are
    read-only: the run keeps its grouping by query.
    """

    def __init__(self, query_ids: list[str], doc_ids: list[str], ranks: list[int],
                 scores: list[float], tags: list[str]):
        self.query_ids = query_ids
        self.doc_ids = doc_ids
        self.ranks = ranks
        self.scores = scores
        self.tags = tags

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, i: int) -> RunEntry:
        i = operator.index(i)
        return RunEntry(self.query_ids[i], self.doc_ids[i], self.ranks[i], self.scores[i],
                        self.tags[i])

    def __iter__(self):
        return map(RunEntry, self.query_ids, self.doc_ids, self.ranks, self.scores, self.tags)

    def __eq__(self, other):
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    @cached_property
    def _groups(self) -> tuple[list[int] | None, Bounds]:
        """The row order of ``ranked_by_query`` (None for file order) and
        each query's bounds in it."""
        return _group_rows(self.query_ids, self.doc_ids, self.ranks)


def _group_rows(query_ids: list[str], doc_ids: list[str],
                ranks: list[int]) -> tuple[list[int] | None, Bounds]:
    """Queries in order of first appearance, each query's rows sorted by
    (rank, doc_id), stably.  When every query's rows are one contiguous
    block with ranks 1..n in file order, that is file order, found in one
    linear pass; otherwise the rows are sorted per query."""
    bounds, stop = [], 0
    for qid, rows in groupby(query_ids):
        start, stop = stop, stop + len(list(rows))
        bounds.append((qid, start, stop))
    if (len({qid for qid, _, _ in bounds}) == len(bounds)
            and ranks == list(chain.from_iterable(range(1, stop - start + 1)
                                                  for _, start, stop in bounds))):
        return None, bounds
    rows_of: dict[str, list[int]] = {}
    for qid, start, stop in bounds:
        rows_of.setdefault(qid, []).extend(range(start, stop))
    order: list[int] = []
    bounds = []
    for qid, rows in rows_of.items():
        rows.sort(key=lambda i: (ranks[i], doc_ids[i]))
        bounds.append((qid, len(order), len(order) + len(rows)))
        order += rows
    return order, bounds


# query id -> that query's doc ids, best first: what ``ranked_by_query`` returns
RankedRun = Mapping[str, Sequence[str]]


def ranked_by_query(run: Iterable[RunEntry]) -> dict[str, list[str]]:
    """Each query's doc ids sorted by (rank, doc_id), queries in order of
    first appearance in ``run``.  This is the run that the metrics take."""
    if not isinstance(run, Run):
        run = Run(*([list(col) for col in zip(*run)] or [[], [], [], [], []]))
    order, bounds = run._groups
    doc_ids = run.doc_ids if order is None else [run.doc_ids[i] for i in order]
    return {qid: doc_ids[start:stop] for qid, start, stop in bounds}


def _gain(grade: int, gain: str) -> float:
    if gain == "linear":
        return float(grade)
    if gain == "exponential":
        return float(2**grade - 1)
    raise InvariantViolation(f"unknown gain {gain!r}")


def ndcg_at_k(
    qrels: Qrels,
    ranked: RankedRun,
    k: int,
    gain: str = "linear",
) -> MetricReport:
    """nDCG@k per query plus the mean over all judged queries.

    Unjudged retrieved docs count as grade 0; a query whose judged grades are
    all zero scores 0.0.
    """
    if k < 1:
        raise InvariantViolation(f"k must be >= 1, got {k}")
    per_query: "OrderedDict[str, float]" = OrderedDict()
    for qid in qrels.query_ids():
        grades = qrels.grades_for(qid)
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum(_gain(g, gain) / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        if idcg == 0.0:
            per_query[qid] = 0.0
            continue
        dcg = sum(
            _gain(grades.get(did, 0), gain) / math.log2(r + 1)
            for r, did in enumerate(ranked.get(qid, [])[:k], start=1)
        )
        per_query[qid] = dcg / idcg
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricReport(f"ndcg@{k}", per_query, mean, {"gain": gain})


def mrr(qrels: Qrels, ranked: RankedRun, rel_threshold: int = 1) -> MetricReport:
    """Reciprocal rank of the first retrieved doc with grade >= threshold."""
    per_query: "OrderedDict[str, float]" = OrderedDict()
    for qid in qrels.query_ids():
        grades = qrels.grades_for(qid)
        rr = 0.0
        for r, did in enumerate(ranked.get(qid, []), start=1):
            if grades.get(did, 0) >= rel_threshold:
                rr = 1.0 / r
                break
        per_query[qid] = rr
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricReport("mrr", per_query, mean, {"rel_threshold": rel_threshold})


def recall_at_k(
    qrels: Qrels,
    ranked: RankedRun,
    k: int,
    rel_threshold: int = 1,
) -> MetricReport:
    """Recall@k with micro (per-query mean) and macro (per-group mean of
    per-query means) aggregation.

    Queries with no relevant documents are excluded from both averages and
    reported separately; without grouping metadata macro equals micro.
    """
    if k < 1:
        raise InvariantViolation(f"k must be >= 1, got {k}")
    per_query: "OrderedDict[str, float]" = OrderedDict()
    skipped: list[str] = []
    for qid in qrels.query_ids():
        grades = qrels.grades_for(qid)
        relevant = {d for d, g in grades.items() if g >= rel_threshold}
        if not relevant:
            skipped.append(qid)
            continue
        hits = sum(1 for did in ranked.get(qid, [])[:k] if did in relevant)
        per_query[qid] = hits / len(relevant)
    micro = sum(per_query.values()) / len(per_query) if per_query else 0.0
    if qrels.group_of:
        groups: dict[str, list[float]] = {}
        for qid, val in per_query.items():
            groups.setdefault(qrels.group_of.get(qid, qid), []).append(val)
        group_means = [sum(v) / len(v) for v in groups.values()]
        macro = sum(group_means) / len(group_means) if group_means else 0.0
    else:
        macro = micro
    return MetricReport(
        f"recall@{k}",
        per_query,
        micro,
        {"micro": micro, "macro": macro, "rel_threshold": rel_threshold,
         "skipped_no_relevant": skipped},
    )


def kendall_tau(perm_a: Permutation, perm_b: Permutation) -> float:
    """Rank correlation over all index pairs: (concordant - discordant) / C(n,2).

    A pair is discordant when ``perm_a`` and ``perm_b`` order its two items
    differently; orderings have no ties, so every other pair is concordant.
    """
    n = len(perm_a)
    if n != len(perm_b):
        raise LengthMismatch(f"{n} vs {len(perm_b)}")
    if n < 2:
        raise TooShort("kendall tau needs n >= 2")
    pos_b = {v: i for i, v in enumerate(perm_b.order)}
    ranks = [pos_b[v] for v in perm_a.order]
    # the pairs that ``ranks`` holds out of order, counted directly: at a
    # window's 20 candidates this beats a merge sort, which wins past about 50
    discordant = 0
    for i, r in enumerate(ranks):
        for later in ranks[i + 1:]:
            if r > later:
                discordant += 1
    concordant = n * (n - 1) // 2 - discordant
    return (concordant - discordant) / (n * (n - 1) / 2)


# --- TREC file I/O ---


def read_qrels(path: str, groups_path: str | None = None) -> Qrels:
    """Parse whitespace-separated ``qid 0 docid grade`` lines; an optional
    JSON sidecar maps query ids to group keys for macro aggregation.  A
    second judgment of one (qid, docid) is a malformed line."""
    qrels = Qrels()
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise MalformedLine(path, lineno, line, f"expected 4 fields, got {len(fields)}")
        qid, _, did, grade = fields
        if (qid, did) in qrels.judgments:  # rare: read the file again for the first line
            first = next(n for n, old in read_lines(path) if old.split()[::2] == [qid, did])
            raise MalformedLine(path, lineno, line, f"repeats the judgment of line {first}")
        try:
            qrels.add(qid, did, int(grade))
        except (ValueError, InvariantViolation) as exc:
            raise MalformedLine(path, lineno, line, str(exc)) from exc
    if groups_path:
        qrels.group_of = {str(k): str(v) for k, v in read_json_object(groups_path).items()}
    return qrels


def _validate_run(run: Run) -> None:
    """Each query's ranks are 1..n, its doc ids distinct and its scores
    non-increasing, in the order of ``ranked_by_query``.  File order (no
    row order) has already proved every query's ranks 1..n."""
    order, bounds = run._groups
    ranks, doc_ids, scores = (col if order is None else [col[i] for i in order]
                              for col in (run.ranks, run.doc_ids, run.scores))
    for qid, start, stop in bounds:
        if order is not None and ranks[start:stop] != list(range(1, stop - start + 1)):
            raise InvariantViolation(f"query {qid}: ranks are not 1..{stop - start} without gaps")
        if len(set(doc_ids[start:stop])) != stop - start:
            raise InvariantViolation(f"query {qid}: duplicate doc ids")
        group = scores[start:stop]
        if not all(map(operator.ge, group, group[1:])):
            r = next(r for r in range(1, len(group)) if group[r] > group[r - 1])
            raise InvariantViolation(f"query {qid}: score increases from rank {r} to {r + 1}")


# a token for each line end in ``_parse_run_chunk``: not whitespace to split()
_LINE_END = "\x00"


def read_run(path: str) -> Run:
    """The run file ``path``: whitespace-separated six-field lines ``qid Q0
    docid rank score tag`` with an integer rank and a finite score, and
    per query ranks 1..n, distinct doc ids and non-increasing scores."""
    cols: list[list] = [[], [], [], [], []]
    for start, chunk in line_chunks(path):
        part = _parse_run_chunk(chunk) or _parse_run_lines(path, start, chunk)
        for col, values in zip(cols, part):
            col += values
    run = Run(*cols)
    _validate_run(run)
    return run


def _parse_run_chunk(chunk: list[bytes]) -> list[list] | None:
    """The columns of a chunk of lines that are all UTF-8, six fields, a
    rank that ``int`` takes and a finite score that ``float`` takes; None
    for any other chunk, blank lines included.

    One decode and one ``str.split()`` of the whole chunk, with a
    ``_LINE_END`` token put at each line end: then every line has six
    fields exactly when the tokens are seven per line and every seventh is
    a line end."""
    try:
        text = b"".join(chunk).decode("utf-8")
    except UnicodeDecodeError:
        return None
    if _LINE_END in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    tokens = text.replace("\n", f" {_LINE_END} ").split()
    n = len(chunk)
    if len(tokens) != 7 * n or tokens[6::7].count(_LINE_END) != n:
        return None
    try:
        ranks = list(map(int, tokens[3::7]))
        scores = list(map(float, tokens[4::7]))
    except ValueError:
        return None
    if not all(map(math.isfinite, scores)):
        return None
    return [list(map(sys.intern, tokens[0::7])), tokens[2::7], ranks, scores,
            list(map(sys.intern, tokens[5::7]))]


def _parse_run_lines(path: str, start: int, chunk: list[bytes]) -> list[list]:
    """The columns of a chunk, line by line: the first bad line raises
    ``MalformedLine`` with its path:line."""
    cols: list[list] = [[], [], [], [], []]
    for lineno, line in chunk_lines(path, start, chunk):
        fields = line.split()
        if len(fields) != 6:
            raise MalformedLine(path, lineno, line, f"expected 6 fields, got {len(fields)}")
        qid, _, did, rank, score, tag = fields
        try:
            values = (sys.intern(qid), did, int(rank), float(score), sys.intern(tag))
            if not math.isfinite(values[3]):
                raise ValueError(f"non-finite score {score!r}")
        except ValueError as exc:
            raise MalformedLine(path, lineno, line, str(exc)) from exc
        for col, value in zip(cols, values):
            col.append(value)
    return cols


def write_run(entries: Iterable[RunEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.query_id} Q0 {e.doc_id} {e.rank} {e.score} {e.tag}\n")


def run_from_candidates(query_id: str, doc_ids: Sequence[str],
                        scores: Sequence[float] | None = None,
                        tag: str = "run") -> list[RunEntry]:
    n = len(doc_ids)
    if scores is None:
        scores = [float(n - r) for r in range(n)]
    return [
        RunEntry(query_id, did, r + 1, float(scores[r]), tag)
        for r, did in enumerate(doc_ids)
    ]
