"""Chat prompt construction for listwise and pairwise reranking.

The listwise prompt follows the multi-turn RankGPT convention: a system
line, an announcement of how many candidates follow, one user/assistant turn
pair per candidate (the assistant acknowledges receipt), and a final
instruction turn that pins the ``[1] > [2]`` output grammar.  The pairwise
template is a single yes/no relevance question.

Both modes build that one turn sequence, but each keeps its own wording
verbatim (``_LISTWISE_WORDING``): it differs in small ways (passage vs
document, acknowledgement phrasing) and backends may be sensitive to either.
Only the body of a document turn differs by mode: ``[i] text`` in text mode,
the attached image with any text in multimodal mode.
"""

from __future__ import annotations

from typing import Sequence

from .config import MODES
from .errors import InvariantViolation, MissingModality, TooFewDocs
from .types import Document, Query, Value

ROLES = ("system", "user", "assistant")


class Turn(Value, frozen=True):
    __slots__ = ("role", "text", "image_refs")

    def __init__(self, role: str, text: str, image_refs: tuple[str, ...] = ()):
        if role not in ROLES:
            raise InvariantViolation(f"unknown role {role!r}")
        if image_refs and role != "user":
            raise InvariantViolation("attachments are only allowed on user turns")
        self._set(role, text, tuple(image_refs))


class PromptScript(Value, frozen=True):
    """An ordered multi-turn conversation ready for a chat backend.

    ``kind``, ``query_id`` and ``doc_ids`` are engine-side metadata (used by
    deterministic mock backends); wire adapters serialize only the turns.
    """

    __slots__ = ("turns", "kind", "query_id", "doc_ids")

    def __init__(self, turns: tuple[Turn, ...], kind: str = "listwise", query_id: str = "",
                 doc_ids: tuple[str, ...] = ()):
        turns = tuple(turns)
        doc_ids = tuple(doc_ids)
        if not turns or turns[0].role != "system":
            raise InvariantViolation("first turn must be system")
        for prev, cur in zip(turns[1:], turns[2:]):
            if prev.role == cur.role:
                raise InvariantViolation("user/assistant turns must alternate")
        self._set(turns, kind, query_id, doc_ids)


# Per mode, the listwise wording: the system line, the announcement, the
# acknowledgement, the receipt of document [i] and the final instruction.
# ``str.format`` fills {n}, {query} and {i} and leaves the query text as it is.
_LISTWISE_WORDING = {
    "text": (
        "You are RankGPT, an intelligent assistant that can rank passages based on "
        "their relevancy to the query.",
        "I will provide you with {n} passages, each indicated by number identifier []. "
        "Rank the passages based on their relevance to query: {query}.",
        "Okay, please provide the passages.",
        "Received passage [{i}].",
        "Search Query: {query}. Rank the {n} passages above based on their relevance. "
        "The output format should be [] > [], e.g., [1] > [2]. Only response the ranking "
        "results, do not say any word or explain.",
    ),
    "multimodal": (
        "You are a multimodal reranking assistant. Rank documents containing both "
        "text and images based on their relevance to the query.",
        "I will provide you with {n} multimodal documents, each containing text and "
        "images. Rank them by relevance to query: {query}.",
        "Understood. Please provide the documents.",
        "Received document [{i}].",
        "Query: {query}. Rank the {n} documents considering both textual and visual "
        "content. Output format: [] > [], e.g., [1] > [2]. Only provide the ranking, "
        "no explanation.",
    ),
}

PAIRWISE_SYSTEM = (
    "You are an expert relevance assessor for multimodal documents. Determine "
    "whether the given document is relevant to the user query."
)

PARSE_RETRY_REMINDER = (
    "Your previous response could not be parsed. Respond with the ranking only, "
    "in the format [] > [], e.g., [1] > [2]."
)


def check_modality(docs: Sequence[Document], mode: str) -> None:
    """The modality rule of every prompt: in text mode each doc needs text,
    in multimodal mode an image_ref."""
    if mode not in MODES:
        raise InvariantViolation(f"unknown prompt mode {mode!r}")
    for d in docs:
        if mode == "text" and not d.text:
            raise MissingModality(f"doc {d.id} has no text for text-mode ranking")
        if mode == "multimodal" and not d.image_ref:
            raise MissingModality(f"doc {d.id} has no image_ref for multimodal ranking")


def build_listwise_prompt(
    query: Query,
    docs: Sequence[Document],
    mode: str = "text",
) -> PromptScript:
    """Build the multi-turn listwise ranking script for one window of docs."""
    n = len(docs)
    if n < 2:
        raise TooFewDocs(f"listwise ranking needs at least 2 docs, got {n}")
    check_modality(docs, mode)
    system, announce, ack, received, instruction = _LISTWISE_WORDING[mode]
    turns = [
        Turn("system", system),
        Turn("user", announce.format(n=n, query=query.text)),
        Turn("assistant", ack),
    ]
    for i, d in enumerate(docs, start=1):
        if mode == "text":
            turns.append(Turn("user", f"[{i}] {d.text}"))
        else:
            text = f"Text: {d.text}\n" if d.text else ""
            turns.append(Turn("user", f"[{i}] {text}Image: [Attached image_{i}]",
                              image_refs=(d.image_ref,)))
        turns.append(Turn("assistant", received.format(i=i)))
    turns.append(Turn("user", instruction.format(n=n, query=query.text)))
    return PromptScript(
        turns=tuple(turns),
        kind="listwise",
        query_id=query.id,
        doc_ids=tuple(d.id for d in docs),
    )


def build_pairwise_prompt(query: Query, doc: Document, mode: str = "text") -> PromptScript:
    """Single yes/no relevance question for one document.  Text mode sends
    the doc's text and no image; multimodal mode sends its image and any
    text."""
    check_modality((doc,), mode)
    lines = [f"Query: {query.text}"]
    if doc.text:
        lines.append(f"Document Text: {doc.text}")
    refs: tuple[str, ...] = ()
    if mode == "multimodal":
        lines.append("Document Image: [Attached]")
        refs = (doc.image_ref,)
    lines.append("Is this document relevant to the query? Answer only 'Yes' or 'No'.")
    return PromptScript(
        turns=(
            Turn("system", PAIRWISE_SYSTEM),
            Turn("user", "\n".join(lines), image_refs=refs),
        ),
        kind="pairwise",
        query_id=query.id,
        doc_ids=(doc.id,),
    )


def append_turns(script: PromptScript, *turns: Turn) -> PromptScript:
    return PromptScript(
        turns=script.turns + tuple(turns),
        kind=script.kind,
        query_id=script.query_id,
        doc_ids=script.doc_ids,
    )
