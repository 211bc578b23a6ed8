import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankkit.errors import (
    InvariantViolation,
    LengthMismatch,
    MalformedLine,
    TooShort,
)
from rankkit.metrics import (
    Qrels,
    RunEntry,
    kendall_tau,
    mrr,
    ndcg_at_k,
    read_qrels,
    ranked_by_query,
    read_run,
    recall_at_k,
    run_from_candidates,
    write_run,
)
from rankkit.types import Permutation


def make_run(qid, doc_ids):
    return run_from_candidates(qid, doc_ids)


def make_qrels(entries, groups=None):
    qrels = Qrels()
    for qid, did, grade in entries:
        qrels.add(qid, did, grade)
    if groups:
        qrels.group_of = dict(groups)
    return qrels


class TestNdcg:
    def test_ideal_ranking_scores_one(self):
        qrels = make_qrels([("q1", "d1", 3), ("q1", "d2", 2), ("q1", "d3", 1)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q1", ["d1", "d2", "d3"])), 10)
        assert report.per_query["q1"] == pytest.approx(1.0)

    def test_hand_derived_fixture(self):
        # qrels {d1:3, d2:1}, run [d2, d1]:
        # DCG = 1/log2(2) + 3/log2(3); IDCG = 3/log2(2) + 1/log2(3)
        qrels = make_qrels([("q1", "d1", 3), ("q1", "d2", 1)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q1", ["d2", "d1"])), 10, gain="linear")
        expected = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        assert report.per_query["q1"] == pytest.approx(expected, abs=1e-9)

    def test_no_relevant_docs_scores_zero(self):
        qrels = make_qrels([("q1", "d1", 0), ("q1", "d2", 0)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q1", ["d1", "d2"])), 10)
        assert report.per_query["q1"] == 0.0

    def test_query_missing_from_run_scores_zero_and_counts(self):
        qrels = make_qrels([("q1", "d1", 1), ("q2", "d1", 1)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q1", ["d1"])), 10)
        assert report.per_query["q2"] == 0.0
        assert report.mean == pytest.approx(0.5)

    def test_exponential_gain(self):
        qrels = make_qrels([("q1", "d1", 2), ("q1", "d2", 1)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q1", ["d2", "d1"])), 10,
                           gain="exponential")
        expected = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        assert report.per_query["q1"] == pytest.approx(expected)

    def test_swapping_higher_grade_up_never_decreases(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 8
            grades = rng.integers(0, 4, size=n)
            qrels = make_qrels([("q", f"d{i}", int(g)) for i, g in enumerate(grades)])
            order = list(rng.permutation(n))
            before = ndcg_at_k(qrels, ranked_by_query(make_run("q", [f"d{i}" for i in order])),
                               n).per_query["q"]
            # find an adjacent inversion and fix it
            for pos in range(n - 1):
                if grades[order[pos]] < grades[order[pos + 1]]:
                    order[pos], order[pos + 1] = order[pos + 1], order[pos]
                    break
            after = ndcg_at_k(qrels, ranked_by_query(make_run("q", [f"d{i}" for i in order])),
                              n).per_query["q"]
            assert after >= before - 1e-12

    def test_binary_grades_all_relevant_first_is_one(self):
        qrels = make_qrels([("q", "d1", 1), ("q", "d2", 0), ("q", "d3", 1)])
        report = ndcg_at_k(qrels, ranked_by_query(make_run("q", ["d1", "d3", "d2"])), 10)
        assert report.per_query["q"] == pytest.approx(1.0)


class TestMrr:
    def test_first_ranked_relevant(self):
        qrels = make_qrels([("q", "d1", 1)])
        assert mrr(qrels, ranked_by_query(make_run("q", ["d1", "d2"]))).per_query["q"] == 1.0

    def test_first_relevant_at_rank_three(self):
        qrels = make_qrels([("q", "d3", 2)])
        assert mrr(qrels, ranked_by_query(make_run("q", ["d1", "d2", "d3"]))).per_query["q"] == \
            pytest.approx(1 / 3)

    def test_no_relevant_retrieved(self):
        qrels = make_qrels([("q", "dX", 1)])
        assert mrr(qrels, ranked_by_query(make_run("q", ["d1", "d2"]))).per_query["q"] == 0.0

    def test_threshold_respected(self):
        qrels = make_qrels([("q", "d1", 1), ("q", "d2", 2)])
        report = mrr(qrels, ranked_by_query(make_run("q", ["d1", "d2"])), rel_threshold=2)
        assert report.per_query["q"] == pytest.approx(0.5)


class TestRecall:
    def test_all_relevant_in_top_k(self):
        qrels = make_qrels([("q", "d1", 1), ("q", "d2", 1)])
        report = recall_at_k(qrels, ranked_by_query(make_run("q", ["d1", "d2", "d3"])), 3)
        assert report.per_query["q"] == 1.0

    def test_partial_recall(self):
        qrels = make_qrels([("q", "d1", 1), ("q", "d2", 1), ("q", "d9", 1)])
        report = recall_at_k(qrels, ranked_by_query(make_run("q", ["d1", "d2", "d3"])), 3)
        assert report.per_query["q"] == pytest.approx(2 / 3)

    def test_zero_relevant_excluded_and_reported(self):
        qrels = make_qrels([("q1", "d1", 1), ("q2", "d1", 0)])
        report = recall_at_k(qrels, ranked_by_query(make_run("q1", ["d1"])), 1)
        assert "q2" not in report.per_query
        assert report.extras["skipped_no_relevant"] == ["q2"]

    def test_macro_micro_grouping(self):
        # group A: one query at 1.0; group B: three queries at 0.5 each
        entries = [("a1", "d1", 1), ("a1", "d2", 1)]
        run = make_run("a1", ["d1", "d2"])
        for q in ("b1", "b2", "b3"):
            entries += [(q, "d1", 1), (q, "d2", 1)]
            run += make_run(q, ["d1", "dX"])
        qrels = make_qrels(entries, groups={"a1": "A", "b1": "B", "b2": "B", "b3": "B"})
        report = recall_at_k(qrels, ranked_by_query(run), 2)
        assert report.extras["macro"] == pytest.approx(0.75)
        assert report.extras["micro"] == pytest.approx((1.0 + 0.5 * 3) / 4)

    def test_macro_defaults_to_micro_without_groups(self):
        qrels = make_qrels([("q1", "d1", 1), ("q2", "d1", 1)])
        run = make_run("q1", ["d1"]) + make_run("q2", ["dX"])
        report = recall_at_k(qrels, ranked_by_query(run), 1)
        assert report.extras["macro"] == report.extras["micro"]


class TestRunEntry:
    def test_is_immutable_with_named_fields_and_default_tag(self):
        e = RunEntry("q1", "d1", 1, 2.5)
        with pytest.raises(AttributeError):
            e.rank = 2
        assert e.tag == "run"
        assert (e.query_id, e.doc_id, e.rank, e.score) == ("q1", "d1", 1, 2.5)
        assert RunEntry(query_id="q1", doc_id="d1", rank=1, score=2.5, tag="bm25").tag == "bm25"


def kendall_tau_oracle(perm_a, perm_b):
    """The O(n^2) pair loop that ``kendall_tau`` replaced, kept as its oracle."""
    n = len(perm_a)
    pos_a = {v: i for i, v in enumerate(perm_a.order)}
    pos_b = {v: i for i, v in enumerate(perm_b.order)}
    concordant = discordant = 0
    items = list(pos_a)
    for i in range(n):
        for j in range(i + 1, n):
            da = pos_a[items[i]] - pos_a[items[j]]
            db = pos_b[items[i]] - pos_b[items[j]]
            if da * db > 0:
                concordant += 1
            elif da * db < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestKendallTau:
    def test_identical(self):
        p = Permutation((3, 1, 2))
        assert kendall_tau(p, p) == 1.0

    def test_reversal(self):
        p = Permutation((1, 2, 3, 4))
        assert kendall_tau(p, Permutation((4, 3, 2, 1))) == -1.0

    def test_one_swap(self):
        assert kendall_tau(Permutation((1, 2, 3)), Permutation((1, 3, 2))) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau(Permutation((1, 2)), Permutation((1, 2, 3)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            kendall_tau(Permutation((1,)), Permutation((1,)))

    @given(st.integers(2, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    @settings(max_examples=50)
    def test_self_and_reverse_bounds(self, order):
        p = Permutation(tuple(order))
        r = Permutation(tuple(reversed(order)))
        assert kendall_tau(p, p) == 1.0
        assert kendall_tau(p, r) == -1.0

    @given(st.integers(2, 200).flatmap(lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))), st.permutations(list(range(1, n + 1))))))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_pair_loop_exactly(self, orders):
        a, b = (Permutation(tuple(o)) for o in orders)
        assert kendall_tau(a, b) == kendall_tau_oracle(a, b)

    @pytest.mark.parametrize("other", [(1, 2, 4), (1, 1, 2)])
    def test_orderings_of_different_items_are_rejected(self, other):
        with pytest.raises(InvariantViolation):
            kendall_tau(Permutation((1, 2, 3)), Permutation(other))
        with pytest.raises(InvariantViolation):
            kendall_tau(Permutation(other), Permutation((1, 2, 3)))


QIDS = ["q1", "q2", "q10"]
DIDS = ["d1", "d2", "d3", "d4"]
judgment_keys = st.tuples(st.sampled_from(QIDS), st.sampled_from(DIDS))


def scan_grades(qrels, query_id):
    return {d: g for (q, d), g in qrels.judgments.items() if q == query_id}


class TestQrelsIndex:
    """The per-query index against a literal scan of ``judgments``."""

    @given(st.dictionaries(judgment_keys, st.integers(0, 3), max_size=8),
           st.lists(st.tuples(judgment_keys, st.integers(0, 3)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_scan(self, initial, added):
        qrels = Qrels(judgments=dict(initial))
        for (qid, did), grade in added:
            qrels.add(qid, did, grade)  # overwrites keep their position
        for qid in QIDS + ["absent"]:
            assert list(qrels.grades_for(qid).items()) == list(scan_grades(qrels, qid).items())
        assert qrels.query_ids() == sorted({q for q, _ in qrels.judgments})

    def test_overwrite_keeps_position_and_takes_new_grade(self):
        qrels = Qrels(judgments={("q1", "d1"): 1, ("q2", "d9"): 2, ("q1", "d2"): 0})
        qrels.add("q1", "d3", 3)
        qrels.add("q1", "d1", 2)
        assert list(qrels.grades_for("q1").items()) == [("d1", 2), ("d2", 0), ("d3", 3)]
        assert qrels.grades_for("q2") == {"d9": 2}
        assert qrels.query_ids() == ["q1", "q2"]

    def test_grades_for_returns_a_copy(self):
        qrels = make_qrels([("q1", "d1", 1)])
        qrels.grades_for("q1")["d1"] = 9
        qrels.grades_for("absent")["d1"] = 9
        assert qrels.grades_for("q1") == {"d1": 1}
        assert qrels.grades_for("absent") == {}

    def test_rejected_add_leaves_index_unchanged(self):
        qrels = make_qrels([("q1", "d1", 1)])
        with pytest.raises(InvariantViolation):
            qrels.add("q2", "d1", -1)
        assert qrels.grades_for("q1") == {"d1": 1}
        assert qrels.query_ids() == ["q1"]


@st.composite
def shuffled_runs(draw):
    """A run with repeated ranks and repeated doc ids, a shuffle of it, and
    qrels that also judge a query the run lacks."""
    run = [RunEntry(qid, did, rank, 0.0)
           for qid, did, rank in draw(st.lists(
               st.tuples(st.sampled_from(QIDS), st.sampled_from(DIDS), st.integers(1, 3)),
               max_size=20))]
    qrels = Qrels(judgments=draw(st.dictionaries(
        st.tuples(st.sampled_from(QIDS + ["unranked"]), st.sampled_from(DIDS)),
        st.integers(0, 3), max_size=12)))
    return run, draw(st.permutations(run)), qrels


class TestRankedByQuery:
    """``ranked_by_query`` against a literal per-query sort by (rank, doc_id)."""

    @given(shuffled_runs())
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_sort_and_metrics_ignore_run_order(self, case):
        run, shuffled, qrels = case
        for entries in (run, shuffled):
            first_seen = list(dict.fromkeys(e.query_id for e in entries))
            expected = [(q, sorted((e for e in entries if e.query_id == q),
                                   key=lambda e: (e.rank, e.doc_id)))
                        for q in first_seen]
            assert list(ranked_by_query(entries).items()) == expected
        for metric in (lambda r: ndcg_at_k(qrels, r, 2), lambda r: mrr(qrels, r),
                       lambda r: recall_at_k(qrels, r, 2)):
            assert metric(ranked_by_query(run)).to_json() == \
                metric(ranked_by_query(shuffled)).to_json()


class TestTrecIO:
    def test_qrels_field_mapping(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 2\nq1 0 d8 0\n")
        qrels = read_qrels(str(path))
        assert qrels.judgments[("q1", "d7")] == 2
        assert qrels.judgments[("q1", "d8")] == 0

    def test_qrels_malformed_line_has_lineno(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 2\nq1 0 d8\n")
        with pytest.raises(MalformedLine) as exc:
            read_qrels(str(path))
        assert exc.value.lineno == 2

    def test_qrels_strict_duplicate(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 2\nq2 0 d7 1\nq1 0 d8 0\nq1 0 d7 1\n")
        with pytest.raises(MalformedLine, match="repeats the judgment of line 1") as exc:
            read_qrels(str(path))
        assert exc.value.lineno == 4

    def test_qrels_groups_sidecar(self, tmp_path):
        qpath = tmp_path / "qrels.txt"
        qpath.write_text("q1 0 d1 1\n")
        gpath = tmp_path / "groups.json"
        gpath.write_text('{"q1": "docA"}')
        qrels = read_qrels(str(qpath), groups_path=str(gpath))
        assert qrels.group_of == {"q1": "docA"}

    def test_run_roundtrip_byte_exact(self, tmp_path):
        entries = make_run("q1", ["d3", "d1", "d2"]) + make_run("q2", ["d9"])
        path = tmp_path / "a.run"
        write_run(entries, str(path))
        original = path.read_bytes()
        reread = read_run(str(path))
        path2 = tmp_path / "b.run"
        write_run(reread, str(path2))
        assert path2.read_bytes() == original

    def test_canonical_file_roundtrip(self, tmp_path):
        canonical = "q1 Q0 d3 1 3.0 tag\nq1 Q0 d1 2 2.0 tag\nq1 Q0 d2 3 1.0 tag\n"
        path = tmp_path / "c.run"
        path.write_text(canonical)
        path2 = tmp_path / "d.run"
        write_run(read_run(str(path)), str(path2))
        assert path2.read_text() == canonical

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 3 1.0 t\n")
        with pytest.raises(InvariantViolation):
            read_run(str(path))

    def test_increasing_scores_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 2.0 t\n")
        with pytest.raises(InvariantViolation):
            read_run(str(path))

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(InvariantViolation):
            read_run(str(path))

    def test_malformed_run_line(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(MalformedLine) as exc:
            read_run(str(path))
        assert exc.value.lineno == 1

    @pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_score_rejected_with_file_and_line(self, tmp_path, score):
        # a nan score would make the score-monotonicity check pass vacuously
        path = tmp_path / "bad.run"
        path.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(MalformedLine) as exc:
            read_run(str(path))
        assert str(exc.value).startswith(f"{path}:2: non-finite score")

    @pytest.mark.parametrize("reader,good_line", [
        (read_run, b"q1 Q0 d1 1 2.0 t\n"),
        (read_qrels, b"q1 0 d1 1\n"),
    ])
    def test_non_utf8_line_is_malformed_with_its_line(self, tmp_path, reader, good_line):
        # 5000 valid lines first, so the bad byte lies well past the first read
        # buffer; each names its own doc, as a repeated judgment is malformed too
        path = tmp_path / "bad.txt"
        valid = b"".join(good_line.replace(b"d1", b"d%d" % i) for i in range(5000))
        path.write_bytes(valid + b"x \xff y\n" + good_line)
        lineno = 5001
        with pytest.raises(MalformedLine) as exc:
            reader(str(path))
        assert exc.value.lineno == lineno
        assert str(exc.value).startswith(f"{path}:{lineno}: ")
