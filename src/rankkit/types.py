"""Core domain types: documents, queries, candidate lists, permutations.

All types are immutable after construction and validate their invariants
eagerly, so instances can be shared freely across threads.  Ranking indices
are 1-based everywhere; the bracket grammar used by reranking backends
("[1] > [2]") makes 0-based indices a standing source of off-by-one bugs.
"""

from __future__ import annotations

import json
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


def check_id(kind: str, ident: object) -> None:
    """An id is a non-empty string with no whitespace, because it is one
    whitespace-separated field of a TREC run or qrels line."""
    if not isinstance(ident, str):
        raise InvariantViolation(f"{kind} id must be a string, got {ident!r}")
    if ident.split() != [ident]:
        raise InvariantViolation(f"{kind} id must be non-empty with no whitespace, got {ident!r}")


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} "
                         f"of a frozen {type(self).__name__}")


def _hash_fields(self) -> int:
    return hash(self._values())


class Value:
    """Base of rankkit's value types: a ``__slots__`` class whose slots not
    starting with "_" are its fields, in constructor order (a subclass's
    after its base's).  Two objects are equal when they have the same class
    and equal fields, and the repr lists the fields.  A class declared with
    ``frozen=True`` refuses assignment and deletion once ``__init__`` stored
    its fields, and hashes by them; the others are unhashable.

    Written by hand rather than generated by the standard library's class
    decorator, whose import and per-class code generation cost every
    command about 18 ms of start-up (see the README, "Start-up")."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_"))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = _hash_fields

    def _set(self, *values) -> None:
        """Store ``values`` as the fields, in order; frozen or not."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default for a slots
        # class restores each slot by setattr, which a frozen class refuses
        return type(self), self._values()


class Document(Value, frozen=True):
    """One rerankable unit: text, an image reference, or both."""

    __slots__ = ("id", "text", "image_ref")

    def __init__(self, id: str, text: str | None = None, image_ref: str | None = None):
        check_id("document", id)
        for name, value in (("text", text), ("image_ref", image_ref)):
            if value is not None and not isinstance(value, str):
                raise InvariantViolation(f"doc {id}: {name} must be a string, got {value!r}")
        if not text and not image_ref:
            raise InvariantViolation(f"doc {id}: needs a non-empty text or image_ref")
        self._set(id, text, image_ref)


class Query(Value, frozen=True):
    __slots__ = ("id", "text")

    def __init__(self, id: str, text: str):
        check_id("query", id)
        if not isinstance(text, str):
            raise InvariantViolation(f"query {id}: text must be a string, got {text!r}")
        if not text:
            raise InvariantViolation(f"query {id}: empty text")
        self._set(id, text)


class CandidateList(Value, frozen=True):
    """First-stage retrieval output for one query."""

    __slots__ = ("query_id", "doc_ids", "first_stage_scores")

    def __init__(self, query_id: str, doc_ids: tuple[str, ...],
                 first_stage_scores: tuple[float, ...] | None = None):
        doc_ids = tuple(doc_ids)
        if len(set(doc_ids)) != len(doc_ids):
            raise InvariantViolation(f"query {query_id}: duplicate candidate ids")
        if first_stage_scores is not None:
            first_stage_scores = tuple(first_stage_scores)
            if len(first_stage_scores) != len(doc_ids):
                raise LengthMismatch("first_stage_scores length differs from doc_ids")
        self._set(query_id, doc_ids, first_stage_scores)

    def __len__(self) -> int:
        return len(self.doc_ids)


class Permutation(Value, frozen=True):
    """A total ordering: order[i] is the 1-based index ranked at position i.

    ``order`` must be a bijection on 1..n of integral entries (an integral
    float is taken as its int, and a bool is no index); positions in errors
    are 1-based."""

    __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...]):
        order = tuple(order)
        ints: list[int] = []
        seen: set[int] = set()
        for pos, raw in enumerate(order, start=1):
            try:
                idx = int(raw)
                integral = idx == raw and not isinstance(raw, bool)
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
        self._set(tuple(ints))

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

    Blank lines are skipped.  A line that is not UTF-8 or not a JSON object
    (one nested too deep to decode included), that ``build`` rejects (a
    number too large for a float included), or whose built record repeats
    the ``id`` of an earlier one (documents, queries, embedding records,
    teacher labels) raises ``MalformedLine`` naming path:line.
    """
    out = []
    seen: dict[str, int] = {}  # id -> line of its first record
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
            item = build(rec)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError,
                RankkitError) as exc:
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
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_documents(path: str) -> list[Document]:
    return read_jsonl(path, lambda rec: Document(rec["id"], rec.get("text"), rec.get("image_ref")))


def read_queries(path: str) -> list[Query]:
    return read_jsonl(path, lambda rec: Query(id=rec["id"], text=rec["text"]))
