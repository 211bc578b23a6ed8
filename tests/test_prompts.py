import pytest

from rankkit.errors import InvariantViolation, MissingModality, TooFewDocs
from rankkit.prompts import (
    PromptScript,
    Turn,
    build_listwise_prompt,
    build_pairwise_prompt,
    check_modality,
)
from rankkit.types import Document, Query

Q = Query(id="q1", text="what is deep learning?")

TEXT_DOCS = [
    Document(id="d1", text="Machine learning is a subset of AI."),
    Document(id="d2", text="Deep learning uses neural networks."),
    Document(id="d3", text="Python is a programming language."),
]

HYBRID_DOCS = [
    Document(id="h1", text="Transformers use attention.", image_ref="a.png"),
    Document(id="h2", text="BERT is a language model.", image_ref="b.png"),
]


class TestListwisePrompt:
    def test_text_turn_structure(self):
        script = build_listwise_prompt(Q, TEXT_DOCS, mode="text")
        roles = [t.role for t in script.turns]
        # system, announce, ack, then a user/assistant pair per passage, final instruction
        assert roles == ["system", "user", "assistant",
                         "user", "assistant", "user", "assistant", "user", "assistant",
                         "user"]
        assert "RankGPT" in script.turns[0].text
        assert "3 passages" in script.turns[1].text
        assert script.turns[3].text == "[1] Machine learning is a subset of AI."
        assert script.turns[4].text == "Received passage [1]."
        assert script.turns[-1].text.endswith(
            "Only response the ranking results, do not say any word or explain."
        )
        assert "[] > [], e.g., [1] > [2]" in script.turns[-1].text
        assert script.doc_ids == ("d1", "d2", "d3")
        assert script.query_id == "q1"

    def test_multimodal_attachments(self):
        script = build_listwise_prompt(Q, HYBRID_DOCS, mode="multimodal")
        doc_turns = [t for t in script.turns if t.image_refs]
        assert [t.image_refs for t in doc_turns] == [("a.png",), ("b.png",)]
        assert doc_turns[0].text.startswith("[1] Text: Transformers use attention.")
        assert "Image: [Attached image_1]" in doc_turns[0].text
        acks = [t.text for t in script.turns if t.role == "assistant"][1:]
        assert acks == ["Received document [1].", "Received document [2]."]
        assert "considering both textual and visual content" in script.turns[-1].text

    def test_image_only_doc_elides_text(self):
        docs = [
            Document(id="i1", image_ref="x.png"),
            Document(id="i2", image_ref="y.png"),
        ]
        script = build_listwise_prompt(Q, docs, mode="multimodal")
        body = [t for t in script.turns if t.image_refs][0].text
        assert "Text:" not in body

    def test_too_few_docs(self):
        with pytest.raises(TooFewDocs):
            build_listwise_prompt(Q, TEXT_DOCS[:1], mode="text")

    def test_multimodal_requires_image_ref(self):
        with pytest.raises(MissingModality, match="doc d1 has no image_ref for multimodal"):
            check_modality(TEXT_DOCS, "multimodal")
        with pytest.raises(MissingModality, match="doc i1 has no text for text-mode"):
            check_modality([Document(id="i1", image_ref="x.png")], "text")
        check_modality(HYBRID_DOCS, "text")
        check_modality(HYBRID_DOCS, "multimodal")

    def test_unknown_mode_raises(self):
        with pytest.raises(InvariantViolation, match="unknown prompt mode 'audio'"):
            check_modality(TEXT_DOCS, "audio")


def _turns(script):
    return [(t.role, t.text, t.image_refs) for t in script.turns]


class TestListwiseTemplatesVerbatim:
    """Every turn of one prompt per mode, word for word: the templates are
    part of the model contract, so a change to any of them shows here."""

    def test_text_prompt(self):
        script = build_listwise_prompt(Q, TEXT_DOCS, mode="text")
        assert _turns(script) == [
            ("system", "You are RankGPT, an intelligent assistant that can rank passages "
                       "based on their relevancy to the query.", ()),
            ("user", "I will provide you with 3 passages, each indicated by number identifier "
                     "[]. Rank the passages based on their relevance to query: what is deep "
                     "learning?.", ()),
            ("assistant", "Okay, please provide the passages.", ()),
            ("user", "[1] Machine learning is a subset of AI.", ()),
            ("assistant", "Received passage [1].", ()),
            ("user", "[2] Deep learning uses neural networks.", ()),
            ("assistant", "Received passage [2].", ()),
            ("user", "[3] Python is a programming language.", ()),
            ("assistant", "Received passage [3].", ()),
            ("user", "Search Query: what is deep learning?. Rank the 3 passages above based "
                     "on their relevance. The output format should be [] > [], e.g., "
                     "[1] > [2]. Only response the ranking results, do not say any word or "
                     "explain.", ()),
        ]
        assert (script.kind, script.query_id, script.doc_ids) == ("listwise", "q1",
                                                                  ("d1", "d2", "d3"))

    def test_multimodal_prompt(self):
        docs = [HYBRID_DOCS[0], Document(id="i2", image_ref="chart.png")]
        script = build_listwise_prompt(Q, docs, mode="multimodal")
        assert _turns(script) == [
            ("system", "You are a multimodal reranking assistant. Rank documents containing "
                       "both text and images based on their relevance to the query.", ()),
            ("user", "I will provide you with 2 multimodal documents, each containing text "
                     "and images. Rank them by relevance to query: what is deep learning?.",
             ()),
            ("assistant", "Understood. Please provide the documents.", ()),
            ("user", "[1] Text: Transformers use attention.\nImage: [Attached image_1]",
             ("a.png",)),
            ("assistant", "Received document [1].", ()),
            ("user", "[2] Image: [Attached image_2]", ("chart.png",)),
            ("assistant", "Received document [2].", ()),
            ("user", "Query: what is deep learning?. Rank the 2 documents considering both "
                     "textual and visual content. Output format: [] > [], e.g., [1] > [2]. "
                     "Only provide the ranking, no explanation.", ()),
        ]
        assert (script.kind, script.query_id, script.doc_ids) == ("listwise", "q1",
                                                                  ("h1", "i2"))


class TestPairwisePrompt:
    def test_text_doc(self):
        script = build_pairwise_prompt(Q, TEXT_DOCS[0])
        assert len(script.turns) == 2
        assert script.turns[0].role == "system"
        assert "Is this document relevant to the query?" in script.turns[1].text
        assert "Answer only 'Yes' or 'No'." in script.turns[1].text
        assert script.turns[1].image_refs == ()

    def test_hybrid_doc_attaches_image(self):
        script = build_pairwise_prompt(Q, HYBRID_DOCS[0], mode="multimodal")
        assert "Document Text:" in script.turns[1].text
        assert "Document Image: [Attached]" in script.turns[1].text
        assert script.turns[1].image_refs == ("a.png",)

    def test_image_only_doc_omits_text_line(self):
        doc = Document(id="i1", image_ref="x.png")
        script = build_pairwise_prompt(Q, doc, mode="multimodal")
        assert "Document Text:" not in script.turns[1].text
        assert script.turns[1].image_refs == ("x.png",)


class TestScriptInvariants:
    def test_first_turn_must_be_system(self):
        with pytest.raises(InvariantViolation):
            PromptScript(turns=(Turn("user", "hi"),))

    def test_roles_must_alternate(self):
        with pytest.raises(InvariantViolation):
            PromptScript(turns=(Turn("system", "s"), Turn("user", "a"), Turn("user", "b")))

    def test_attachments_only_on_user_turns(self):
        with pytest.raises(InvariantViolation):
            Turn("assistant", "x", image_refs=("a.png",))
