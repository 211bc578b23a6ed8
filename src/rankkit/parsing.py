"""Parsing and repair of backend ranking output.

Reranking backends are asked for ``[1] > [2] > ...`` but real model output
drifts: duplicated ids, ids outside the window, prose around the ranking,
truncated lists.  ``parse_ranking`` is total over any string containing at
least one bracketed integer — it always produces a valid permutation and
logs every correction it had to make.
"""

from __future__ import annotations

import re

from .errors import Unparseable
from .types import Permutation, Value, validate_permutation

_BRACKETED_INT = re.compile(r"\[(\d+)\]")
# a bracketed id of more digits than this, past its leading zeros, is out of
# range for every window; int() would refuse one of more than 4300 digits
_ID_DIGITS = 18
_YES_NO = re.compile(r"^\W*(yes|no)\b", re.IGNORECASE)


class RepairLog(Value):
    """Every correction applied while coercing raw output to a permutation;
    ``None`` stands for a new empty list.  An id of more than ``_ID_DIGITS``
    digits past its leading zeros is out of range for every window: it is
    not converted, and ``dropped_out_of_range`` records it as -1, a value no
    reply can hold."""

    __slots__ = ("dropped_out_of_range", "dropped_duplicates", "appended_missing")

    def __init__(self, dropped_out_of_range: list[int] | None = None,
                 dropped_duplicates: list[int] | None = None,
                 appended_missing: list[int] | None = None):
        self._set([] if dropped_out_of_range is None else dropped_out_of_range,
                  [] if dropped_duplicates is None else dropped_duplicates,
                  [] if appended_missing is None else appended_missing)

    @property
    def count(self) -> int:
        return (
            len(self.dropped_out_of_range)
            + len(self.dropped_duplicates)
            + len(self.appended_missing)
        )

    def __bool__(self) -> bool:
        return self.count > 0


def parse_ranking(raw: str, n: int) -> tuple[Permutation, RepairLog]:
    """Extract a permutation of 1..n from raw model output.

    Bracketed integers are taken in order of appearance.  Repairs: ids
    outside 1..n are dropped, repeats keep their first occurrence, and any
    missing ids are appended in ascending order.  Raises Unparseable only
    when no bracketed integer is present at all.
    """
    if n < 1:
        raise Unparseable(f"cannot parse a ranking of size {n}")
    found = [_bracketed_id(m) for m in _BRACKETED_INT.findall(raw)]
    if not found:
        raise Unparseable(f"no bracketed integer in {raw!r}")
    log = RepairLog()
    order: list[int] = []
    seen: set[int] = set()
    for idx in found:
        if idx < 1 or idx > n:
            log.dropped_out_of_range.append(idx)
        elif idx in seen:
            log.dropped_duplicates.append(idx)
        else:
            order.append(idx)
            seen.add(idx)
    for idx in range(1, n + 1):
        if idx not in seen:
            order.append(idx)
            log.appended_missing.append(idx)
    return validate_permutation(order, n), log


def _bracketed_id(digits: str) -> int:
    """The value of a bracketed id, or -1 if it has more than ``_ID_DIGITS``
    digits past its leading zeros."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= _ID_DIGITS else -1


def render_ranking(perm: Permutation) -> str:
    """Inverse of parse_ranking for well-formed output: ``[a] > [b] > ...``."""
    return " > ".join(f"[{i}]" for i in perm.order)


def parse_yes_no(raw: str) -> bool:
    """Case-insensitive yes/no on the first word of the response."""
    m = _YES_NO.match(raw.strip())
    if not m:
        raise Unparseable(f"neither yes nor no in {raw!r}")
    return m.group(1).lower() == "yes"
