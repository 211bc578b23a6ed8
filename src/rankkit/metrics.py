"""TREC-style IR evaluation: nDCG@k, MRR, Recall@k with macro/micro
aggregation, Kendall tau, and bit-exact qrels/run file I/O.

Conventions follow trec_eval where the choice matters: nDCG defaults to
linear gain, queries present in the qrels but absent from the run score 0
and stay in the mean, and IDCG is computed from all judged grades of the
query (not just the retrieved ones).

The metrics take a run grouped by ``ranked_by_query``, so a caller that
computes several metrics groups the run once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvariantViolation, LengthMismatch, MalformedLine, TooShort
from .types import Permutation, read_json_object, read_lines


@dataclass
class Qrels:
    """Graded relevance judgments, with optional query grouping for macro
    aggregation.

    ``judgments`` is the source of truth; a per-query index of it is built
    on construction and kept up to date by ``add``, so change judgments
    only through ``add``.
    """

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    group_of: dict[str, str] = field(default_factory=dict)
    _by_query: dict[str, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for (q, d), g in self.judgments.items():
            self._by_query.setdefault(q, {})[d] = g

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise InvariantViolation(f"negative grade for ({query_id}, {doc_id})")
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


@dataclass
class MetricReport:
    name: str
    per_query: "OrderedDict[str, float]"
    mean: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "metric": self.name,
            "mean": self.mean,
            "per_query": dict(self.per_query),
            **self.extras,
        }


# query id -> that query's entries, best first: what ``ranked_by_query`` returns
RankedRun = Mapping[str, Sequence[RunEntry]]


def ranked_by_query(run: Iterable[RunEntry]) -> dict[str, list[RunEntry]]:
    """Each query's entries sorted by (rank, doc_id), queries in order of
    first appearance in ``run``.  This is the run that the metrics take."""
    by_query: dict[str, list[RunEntry]] = {}
    for qid, entries in groupby(run, key=attrgetter("query_id")):
        by_query.setdefault(qid, []).extend(entries)
    key = attrgetter("rank", "doc_id")
    for group in by_query.values():
        group.sort(key=key)
    return by_query


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
            _gain(grades.get(e.doc_id, 0), gain) / math.log2(r + 1)
            for r, e in enumerate(ranked.get(qid, [])[:k], start=1)
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
        for r, e in enumerate(ranked.get(qid, []), start=1):
            if grades.get(e.doc_id, 0) >= rel_threshold:
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
        hits = sum(1 for e in ranked.get(qid, [])[:k] if e.doc_id in relevant)
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


def _sort_counting_inversions(seq: list[int]) -> tuple[list[int], int]:
    """``seq`` sorted, and the number of pairs i < j with seq[i] > seq[j]:
    a merge sort, O(n log n)."""
    n = len(seq)
    if n < 2:
        return seq, 0
    left, inv_left = _sort_counting_inversions(seq[: n // 2])
    right, inv_right = _sort_counting_inversions(seq[n // 2 :])
    merged: list[int] = []
    count = inv_left + inv_right
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    merged += left[i:]
    merged += right[j:]
    return merged, count


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
    if len(pos_b) != n or set(perm_a.order) != pos_b.keys():
        raise InvariantViolation("kendall tau needs two orderings of the same items")
    _, discordant = _sort_counting_inversions([pos_b[v] for v in perm_a.order])
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


def _validate_run(entries: Sequence[RunEntry]) -> None:
    for qid, group in ranked_by_query(entries).items():
        if [e.rank for e in group] != list(range(1, len(group) + 1)):
            raise InvariantViolation(f"query {qid}: ranks are not 1..{len(group)} without gaps")
        if len({e.doc_id for e in group}) != len(group):
            raise InvariantViolation(f"query {qid}: duplicate doc ids")
        for prev, cur in zip(group, group[1:]):
            if cur.score > prev.score:
                raise InvariantViolation(
                    f"query {qid}: score increases from rank {prev.rank} to {cur.rank}"
                )


def read_run(path: str) -> list[RunEntry]:
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
    _validate_run(entries)
    return entries


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
