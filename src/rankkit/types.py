"""Core domain types: documents, queries, candidate lists, permutations.

All types are immutable after construction and validate their invariants
eagerly, so instances can be shared freely across threads.  Ranking indices
are 1-based everywhere; the bracket grammar used by reranking backends
("[1] > [2]") makes 0-based indices a standing source of off-by-one bugs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import (
    ConfigError,
    DuplicateIndex,
    InvariantViolation,
    LengthMismatch,
    MalformedLine,
    OutOfRange,
    PermutationError,
    RankkitError,
    WrongLength,
)

T = TypeVar("T")

MODALITIES = ("text", "image", "hybrid")


def check_id(kind: str, ident: object) -> None:
    """An id is a non-empty string with no whitespace, because it is one
    whitespace-separated field of a TREC run or qrels line."""
    if not isinstance(ident, str):
        raise InvariantViolation(f"{kind} id must be a string, got {ident!r}")
    if ident.split() != [ident]:
        raise InvariantViolation(f"{kind} id must be non-empty with no whitespace, got {ident!r}")


@dataclass(frozen=True)
class Document:
    """One rerankable unit; may carry text, an image reference, or both."""

    id: str
    text: str | None = None
    image_ref: str | None = None
    modality: str = "text"

    def __post_init__(self):
        check_id("document", self.id)
        if self.modality not in MODALITIES:
            raise InvariantViolation(f"unknown modality {self.modality!r}")
        if self.modality in ("text", "hybrid") and not self.text:
            raise InvariantViolation(f"doc {self.id}: modality {self.modality} requires text")
        if self.modality in ("image", "hybrid") and not self.image_ref:
            raise InvariantViolation(f"doc {self.id}: modality {self.modality} requires image_ref")


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self):
        check_id("query", self.id)
        if not self.text:
            raise InvariantViolation(f"query {self.id}: empty text")


@dataclass(frozen=True)
class CandidateList:
    """First-stage retrieval output for one query."""

    query_id: str
    doc_ids: tuple[str, ...]
    first_stage_scores: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise InvariantViolation(f"query {self.query_id}: duplicate candidate ids")
        if self.first_stage_scores is not None:
            object.__setattr__(self, "first_stage_scores", tuple(self.first_stage_scores))
            if len(self.first_stage_scores) != len(self.doc_ids):
                raise LengthMismatch("first_stage_scores length differs from doc_ids")

    def __len__(self) -> int:
        return len(self.doc_ids)


@dataclass(frozen=True)
class Permutation:
    """A total ordering: order[i] is the 1-based index ranked at position i.

    ``order`` must be a bijection on 1..n of integral entries (an integral
    float is taken as its int); positions in errors are 1-based."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
        ints: list[int] = []
        seen: set[int] = set()
        for pos, raw in enumerate(order, start=1):
            try:
                idx = int(raw)
                integral = idx == raw
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise PermutationError(f"non-integer index {raw!r} at position {pos}")
            if idx < 1 or idx > len(order):
                raise OutOfRange(pos, idx, len(order))
            if idx in seen:
                raise DuplicateIndex(pos, idx)
            seen.add(idx)
            ints.append(idx)
        object.__setattr__(self, "order", tuple(ints))

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)


def validate_permutation(order: Sequence[int], n: int) -> Permutation:
    """``order`` as a ``Permutation`` of 1..n: a length other than n raises
    ``WrongLength``, and ``Permutation`` checks the entries."""
    if len(order) != n:
        raise WrongLength(n, len(order))
    return Permutation(tuple(order))


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


# --- JSON-lines corpus / query I/O ---


# bytes of a line_chunks chunk; all of a chunk's lines are alive at once, and
# larger chunks read no faster but raised the peak RSS of a run-file read
_LINES_CHUNK_BYTES = 1 << 14


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for each non-blank line of ``path``.

    Lines end at "\\n" alone.  The file is read as bytes in chunks of whole
    lines (``line_chunks``), and each chunk is decoded in one call
    (``chunk_lines``).
    """
    for start, chunk in line_chunks(path):
        yield from chunk_lines(path, start, chunk)


def line_chunks(path: str) -> Iterator[tuple[int, list[bytes]]]:
    """(number of its first line, raw lines) for each chunk of whole lines
    of ``path``, about ``_LINES_CHUNK_BYTES`` each; the last line may lack
    its "\\n"."""
    with open(path, "rb") as fh:
        start = 1
        for chunk in iter(partial(fh.readlines, _LINES_CHUNK_BYTES), []):
            yield start, chunk
            start += len(chunk)


def chunk_lines(path: str, start: int, chunk: list[bytes]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for each non-blank line of a chunk that
    ``line_chunks`` gave.

    The chunk is decoded in one call: no UTF-8 sequence holds a newline
    byte, so that gives the lines that decoding each on its own would.  A
    chunk that is not UTF-8 is decoded again line by line, so the first bad
    line raises ``MalformedLine`` naming its own path:line.
    """
    try:
        lines = b"".join(chunk).decode("utf-8").split("\n")[:len(chunk)]
    except UnicodeDecodeError:
        lines = (_decode_line(path, n, raw) for n, raw in enumerate(chunk, start))
    for n, line in enumerate(lines, start):
        line = line.strip()
        if line:
            yield n, line


def _decode_line(path: str, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(path, lineno, raw.decode("utf-8", "replace").strip(),
                            str(exc)) from exc


def read_jsonl(path: str, build: Callable[[dict], T]) -> list[T]:
    """``build(rec)`` for each JSON object line of ``path``, in file order.

    Blank lines are skipped.  A line that is not UTF-8 or not a JSON object,
    that ``build`` rejects (a number too large for a float included), or
    whose built record repeats the ``id`` of an earlier one (documents,
    queries, embedding records, teacher labels) raises ``MalformedLine`` naming path:line.
    """
    out = []
    seen: dict[str, int] = {}  # id -> line of its first record
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
            item = build(rec)
        except (ValueError, KeyError, TypeError, OverflowError, RankkitError) as exc:
            raise MalformedLine(path, lineno, line, str(exc)) from exc
        ident = getattr(item, "id", None)
        if ident is not None and seen.setdefault(ident, lineno) != lineno:
            raise MalformedLine(path, lineno, line, f"id {ident!r} repeats line {seen[ident]}")
        out.append(item)
    return out


def read_json_object(path: str) -> dict:
    """The JSON object that the UTF-8 file ``path`` holds; anything else
    raises ``ConfigError`` naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_documents(path: str) -> list[Document]:
    return read_jsonl(path, lambda rec: Document(
        id=rec["id"],
        text=rec.get("text"),
        image_ref=rec.get("image_ref"),
        modality=rec.get("modality", "text"),
    ))


def read_queries(path: str) -> list[Query]:
    return read_jsonl(path, lambda rec: Query(id=rec["id"], text=rec["text"]))
