import json
import re

import numpy as np
import pytest

from rankkit.backends import IdentityBackend, OracleBackend, ReverseBackend, ScriptedBackend
from rankkit.embedding import EmbeddingRecord, stack_records
from rankkit.engine import WindowConfig
from rankkit.errors import ConfigError, MalformedLine
from rankkit.config import PipelineConfig, config_from_json
from rankkit.pipeline import (
    CONFIDENCE_FORMULA,
    TeacherLabel,
    confidence_filter,
    distill,
    raw_confidence,
    read_labels,
    write_labels,
)
from rankkit.types import Document, Permutation, Query


def line_corpus(n, d=4):
    """Embeddings spread along one axis so distance order is predictable."""
    recs = []
    for i in range(1, n + 1):
        v = np.zeros(d)
        v[0] = float(i)
        v[1] = 0.1  # keep vectors off the axis so cosine is defined
        recs.append(EmbeddingRecord(f"d{i}", v))
    return stack_records(recs)


def origin_query(qid="q1", d=4):
    v = np.zeros(d)
    v[1] = 0.1
    return Query(id=qid, text=f"query {qid}"), {qid: v}


CFG3 = PipelineConfig(top_k=3, selection_k=2, window=WindowConfig(5, 2))


class TestDistill:
    def test_identity_backend_full_agreement(self):
        q, qembs = origin_query()
        labels, summary = distill([q], qembs, line_corpus(5), IdentityBackend(), CFG3)
        assert summary.emitted == 1
        label = labels[0]
        assert label.candidate_ids == ("d1", "d2", "d3")  # ascending distance
        assert label.teacher_perm.order == (1, 2, 3)
        assert label.confidence == pytest.approx(1.0)
        assert label.repair_count == 0

    def test_reverse_backend_full_disagreement(self):
        q, qembs = origin_query()
        labels, _ = distill([q], qembs, line_corpus(5), ReverseBackend(), CFG3)
        assert labels[0].confidence == pytest.approx(-1.0)

    def test_repairs_penalize_confidence(self):
        q, qembs = origin_query()
        backend = ScriptedBackend(["[2] > [2] > [1]"])
        labels, _ = distill([q], qembs, line_corpus(5), backend, CFG3)
        label = labels[0]
        assert label.teacher_perm.order == (2, 1, 3)
        assert label.repair_count == 2
        # tau([2,1,3], identity) = 1/3; penalty 0.2
        assert label.confidence == pytest.approx(1 / 3 - 0.2)

    def test_a_teacher_that_never_ranks_fails_every_query(self, caplog):
        # the input order is not the teacher's ranking: labelling it with
        # confidence 1 would rank the failures first under --budget-filter
        class ProseBackend:
            def complete(self, prompt):
                return "These passages all look relevant to me."

        queries, qembs = [], {}
        for i in range(3):
            q, e = origin_query(f"q{i}")
            queries.append(q)
            qembs.update(e)
        labels, summary = distill(queries, qembs, line_corpus(5), ProseBackend(), CFG3)
        assert labels == []
        assert (summary.emitted, summary.skipped) == (0, 3)
        assert summary.failed_query_ids == ["q0", "q1", "q2"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert all("both unparseable" in e for e in errors) and len(errors) == 3

    def test_missing_embedding_is_skipped_not_fatal(self):
        q1, qembs = origin_query("q1")
        q2 = Query(id="q2", text="no embedding")
        labels, summary = distill([q1, q2], qembs, line_corpus(4), IdentityBackend(), CFG3)
        assert summary.emitted == 1
        assert summary.skipped == 1
        assert summary.failed_query_ids == ["q2"]

    def test_a_query_vector_of_another_width_fails_only_its_query(self, caplog):
        # the other queries' candidates are nominated in one block first
        q1, qembs = origin_query("q1")
        q2, wide = origin_query("q2", d=5)
        q3, _ = origin_query("q3")
        qembs.update(wide, q3=qembs["q1"])
        labels, summary = distill([q1, q2, q3], qembs, line_corpus(5), IdentityBackend(), CFG3)
        assert [(l.query_id, l.candidate_ids) for l in labels] == [
            ("q1", ("d1", "d2", "d3")), ("q3", ("d1", "d2", "d3"))]
        assert summary.failed_query_ids == ["q2"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q2 failed: query shape (5,) vs corpus dim 4"]

    def test_candidate_missing_from_the_corpus_fails_only_its_query(self, caplog):
        q1, qembs = origin_query("q1")
        q2 = Query(id="q2", text="query q2")
        qembs["q2"] = np.array([4.0, 0.1, 0.0, 0.0])  # nearest d4, d3, d5
        corpus = {f"d{i}": Document(id=f"d{i}", text=f"passage {i}") for i in (1, 3, 4, 5)}
        labels, summary = distill([q1, q2], qembs, line_corpus(5), IdentityBackend(), CFG3,
                                  corpus=corpus)
        assert [l.candidate_ids for l in labels] == [("d4", "d3", "d5")]
        assert summary.failed_query_ids == ["q1"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q1 failed: candidate d2 not in corpus"]

    def test_oracle_backend_sorts_by_grade_end_to_end(self):
        q, qembs = origin_query()
        grades = {("q1", "d1"): 0, ("q1", "d2"): 5, ("q1", "d3"): 2}
        labels, _ = distill([q], qembs, line_corpus(5), OracleBackend(grades), CFG3)
        perm = labels[0].teacher_perm
        ranked = [labels[0].candidate_ids[i - 1] for i in perm.order]
        assert ranked == ["d2", "d3", "d1"]

    def test_parallel_emission_order_is_input_order(self):
        queries, qembs = [], {}
        for i in range(8):
            q, e = origin_query(f"q{i}")
            queries.append(q)
            qembs.update(e)
        cfg = PipelineConfig(top_k=3, selection_k=2, parallelism=4)
        par, _ = distill(queries, qembs, line_corpus(6), IdentityBackend(), cfg)
        ser, _ = distill(queries, qembs, line_corpus(6), IdentityBackend(), CFG3)
        assert [l.query_id for l in par] == [l.query_id for l in ser]


class TestConfidence:
    def test_bounds_enforced(self):
        with pytest.raises(ConfigError):
            TeacherLabel("q", ("a", "b"), Permutation((1, 2)), confidence=1.5)

    def test_score_matches_stored(self):
        label = TeacherLabel("q", ("a", "b", "c"), Permutation((2, 1, 3)),
                             confidence=1 / 3 - 0.2, repair_count=2)
        assert raw_confidence(label.teacher_perm, label.repair_count) == pytest.approx(label.confidence)

    def test_clamped_at_minus_one(self):
        label = TeacherLabel("q", ("a", "b"), Permutation((2, 1)),
                             confidence=-1.0, repair_count=7)
        assert raw_confidence(label.teacher_perm, label.repair_count) == -1.0


class TestConfidenceFilter:
    @staticmethod
    def label(qid, conf):
        return TeacherLabel(qid, ("a", "b"), Permutation((1, 2)), confidence=conf)

    def test_keeps_top_budget(self):
        labels = [self.label(f"q{i}", c) for i, c in enumerate([0.1, 0.9, 0.5, 0.3, 0.7])]
        kept = confidence_filter(labels, 2)
        assert [l.confidence for l in kept] == [0.9, 0.7]

    def test_budget_exceeds_count_keeps_all(self):
        labels = [self.label("q1", 0.5)]
        assert confidence_filter(labels, 10) == labels

    def test_ties_break_by_query_id(self):
        labels = [self.label(q, 0.5) for q in ("qb", "qa", "qc")]
        kept = confidence_filter(labels, 2)
        assert [l.query_id for l in kept] == ["qa", "qb"]

    def test_output_confidences_non_increasing(self):
        rng = np.random.default_rng(0)
        labels = [self.label(f"q{i}", float(c)) for i, c in enumerate(rng.uniform(-1, 1, 30))]
        kept = confidence_filter(labels, 12)
        assert len(kept) == 12
        assert all(a.confidence >= b.confidence for a, b in zip(kept, kept[1:]))


class TestLabelIO:
    def test_roundtrip_with_manifest(self, tmp_path):
        labels = [
            TeacherLabel("q1", ("a", "b", "c"), Permutation((2, 1, 3)),
                         confidence=0.25, repair_count=1, backend_tag="mock"),
        ]
        path = tmp_path / "labels.jsonl"
        write_labels(labels, str(path), CFG3)
        manifest, loaded = read_labels(str(path))
        assert manifest["top_k"] == 3
        assert manifest["confidence"] == CONFIDENCE_FORMULA
        assert loaded == labels

    def test_read_rejects_invalid_permutation_with_file_and_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_labels([TeacherLabel("q1", ("a", "b", "c"), Permutation((1, 2, 3)), confidence=1.0)],
                     str(path), CFG3)
        bad = {"query_id": "q2", "candidate_ids": ["a", "b", "c"], "teacher_perm": [1, 1, 7],
               "confidence": 0.0}
        with open(path, "a") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: teacher_perm")):
            read_labels(str(path))

    def test_read_rejects_a_repeated_query_id_naming_its_first_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        label = TeacherLabel("q1", ("a", "b"), Permutation((1, 2)), confidence=1.0)
        write_labels([label, label], str(path), CFG3)
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: id 'q1' repeats line 2")):
            read_labels(str(path))

    def test_checkpoint_removed_on_completion(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_labels([], str(path), CFG3)
        assert not (tmp_path / "labels.jsonl.ckpt").exists()

    def test_deterministic_bytes(self, tmp_path):
        q, qembs = origin_query()
        out = []
        for name in ("a.jsonl", "b.jsonl"):
            labels, _ = distill([q], qembs, line_corpus(5), IdentityBackend(), CFG3)
            p = tmp_path / name
            write_labels(labels, str(p), CFG3)
            out.append(p.read_bytes())
        assert out[0] == out[1]


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.top_k == 20
        assert cfg.budget == 4000
        assert cfg.quality_threshold == 0.25
        assert cfg.window.window_size == 20
        assert cfg.window.stride == 10

    def test_from_json(self):
        cfg = config_from_json({"top_k": 5, "window_size": 8, "stride": 4, "budget": 2100})
        assert cfg.top_k == 5
        assert cfg.window == WindowConfig(8, 4)
        assert cfg.budget == 2100

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(top_k=0)
        with pytest.raises(ConfigError):
            PipelineConfig(quality_threshold=2.0)
