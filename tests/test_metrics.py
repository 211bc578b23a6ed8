import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ranked_entries_oracle, read_run_oracle
from rankkit import types
from rankkit.errors import (
    InvariantViolation,
    LengthMismatch,
    MalformedLine,
    PermutationError,
    RankkitError,
    TooShort,
)
from rankkit.metrics import (
    MAX_GRADE,
    Qrels,
    Run,
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
        # neither is a permutation of 1..3, so it fails before kendall_tau
        with pytest.raises(PermutationError):
            kendall_tau(Permutation((1, 2, 3)), Permutation(other))
        with pytest.raises(PermutationError):
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

    def test_constructor_rejects_a_negative_grade(self):
        # stored unchecked, it scored nDCG 1.0 for a doc judged -3
        with pytest.raises(InvariantViolation, match="negative grade for \\(q1, d1\\)"):
            ndcg_at_k(Qrels({("q1", "d1"): -3}), {"q1": ["d1"]}, 10)

    def test_constructor_rejects_a_grade_whose_gain_overflows(self):
        # stored unchecked, 2^1100 - 1 raised OverflowError inside the metric
        with pytest.raises(InvariantViolation, match=f"grade above {MAX_GRADE}"):
            ndcg_at_k(Qrels({("q1", "d1"): 1100}), {"q1": ["d1"]}, 10, gain="exponential")


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
            expected = [(q, [e.doc_id for e in sorted((e for e in entries if e.query_id == q),
                                                      key=lambda e: (e.rank, e.doc_id))])
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

    @pytest.mark.parametrize("grade", [str(MAX_GRADE + 1), "1100", "1" + "0" * 400],
                             ids=["cap+1", "1100", "1e400"])
    def test_qrels_grade_above_the_cap_is_malformed(self, tmp_path, grade):
        # 1100 overflowed the exponential gain, 10^400 even the linear one
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d7 {MAX_GRADE}\nq1 0 d8 {grade}\n")
        with pytest.raises(MalformedLine) as exc:
            read_qrels(str(path))
        assert str(exc.value).startswith(f"{path}:2: grade above {MAX_GRADE} for (q1, d8)")

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

    def test_a_huge_doc_id_is_quoted_by_its_head_and_length(self, tmp_path, monkeypatch):
        # the message once quoted all 300 012 characters of the line
        monkeypatch.chdir(tmp_path)
        line = "q1 Q0 " + "d" * 300_000 + " 1 x t"
        (tmp_path / "bad.run").write_text(line + "\n")
        with pytest.raises(MalformedLine) as exc:
            read_run("bad.run")
        message = str(exc.value)
        assert len(message) < 300
        assert message.startswith("bad.run:1: could not convert string to float: 'x': ")
        assert message.endswith("... (300012 characters)")
        assert exc.value.content == line

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

    def test_runs_of_different_files_with_the_same_length_differ(self, tmp_path):
        a, b = tmp_path / "a.run", tmp_path / "b.run"
        a.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        b.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 0.5 t\n")
        assert len(read_run(str(a))) == len(read_run(str(b)))
        assert read_run(str(a)) != read_run(str(b))
        assert read_run(str(a)) == read_run(str(a))
        assert read_run(str(a)) == [RunEntry("q1", "d1", 1, 2.0, "t"),
                                    RunEntry("q1", "d2", 2, 1.0, "t")]
        assert read_run(str(a)) != list(read_run(str(b)))

    def test_run_is_a_sequence_of_entries(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\nq2 Q0 d1 1 0.5 u\n")
        run = read_run(str(path))
        entries = read_run_oracle(str(path))
        assert len(run) == 3
        assert [run[i] for i in range(-3, 3)] == entries + entries
        assert list(run)[1:] == entries[1:] and list(reversed(run)) == entries[::-1]
        assert RunEntry("q2", "d1", 1, 0.5, "u") in run
        with pytest.raises(IndexError):
            run[3]
        with pytest.raises(TypeError):
            run[1:]


# Whitespace that str.split() splits at, "\x1c" and an em space included, so
# a run line's fields may be separated by any of them
SEPARATORS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\u2003", " \t "]
RUN_QIDS = ["q1", "q2", "q10", "qé"]
RUN_DIDS = ["d1", "d2", "d3", "dé", "文", "d٣"]
RANK_FORMS = [str, str, str, lambda r: f"+{r}", lambda r: f"0{r}", lambda r: "_".join(str(r))]
SCORE_TOKENS = ["nan", "1e999", "-inf", "-0.0", "0.0", "1_0.5", "0x1", "1e-5"]


@st.composite
def run_files(draw):
    """The bytes of a run file: queries contiguous, interleaved, shuffled or
    with one query in two blocks; ranks 1..n in any spelling int() takes,
    now and then out of order or with a gap; scores falling, now and then
    not; any whitespace and blank lines; and in some files a bad line (5 or
    7 fields, a bad rank, a byte that is not UTF-8) or a line of 5 fields
    and then one of 7."""
    qids = draw(st.lists(st.sampled_from(RUN_QIDS), min_size=1, max_size=4, unique=True))
    groups = []
    for qid in qids:
        dids = draw(st.lists(st.sampled_from(RUN_DIDS), min_size=1, max_size=6,
                             unique=not draw(st.integers(0, 9)) == 9))
        ranks = list(range(1, len(dids) + 1))
        if draw(st.integers(0, 9)) == 9:
            ranks = draw(st.permutations(ranks)) if draw(st.booleans()) else \
                [draw(st.integers(1, 12)) for _ in ranks]
        top = draw(st.floats(-1e6, 1e6))
        drops = draw(st.lists(st.floats(0, 10), min_size=len(dids), max_size=len(dids)))
        scores = [repr(top - sum(drops[:i])) for i in range(len(dids))]
        if draw(st.integers(0, 9)) == 9:
            scores[draw(st.integers(0, len(dids) - 1))] = draw(st.sampled_from(SCORE_TOKENS))
        groups.append([[qid, "Q0", did, draw(st.sampled_from(RANK_FORMS))(rank), score, "t"]
                       for did, rank, score in zip(dids, ranks, scores)])
    order = draw(st.sampled_from(["contiguous", "interleaved", "shuffled", "split"]))
    if order == "split":  # the first query's lines in two blocks, the second one last
        at = draw(st.integers(0, len(groups[0])))
        head, tail = groups[0][:at], groups[0][at:]
        if draw(st.booleans()):  # each block ranked from 1
            tail = [row[:3] + [str(r)] + row[4:] for r, row in enumerate(tail, start=1)]
        groups = [head] + groups[1:] + [tail]
    if order in ("contiguous", "split"):
        rows = [row for group in groups for row in group]
    elif order == "interleaved":
        rows = [group[i] for i in range(6) for group in groups if i < len(group)]
    else:
        rows = draw(st.permutations([row for group in groups for row in group]))
    lines = []
    for fields in rows:
        sep = draw(st.sampled_from(SEPARATORS))
        line = draw(st.sampled_from(["", " ", "\r"])) + sep.join(fields) + \
            draw(st.sampled_from(["", "\r", " \x1c"]))
        lines.append(line.encode("utf-8"))
        if draw(st.integers(0, 9)) == 9:
            lines.append(draw(st.sampled_from([b"", b" ", b"\r", b"\x0c"])))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from([
            b"q1 Q0 d1 1 2.0", b"q1 Q0 d1 1 2.0 t x", b"q1 Q0 d1 1.0 2.0 t", b"q1 \xff d1",
            b"q1 Q0 d1 1 2.0\nx q1 Q0 d2 2 1.0 t"]))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


def raised(read, path):
    """What ``read(path)`` returns, or its exception's type, line and text."""
    try:
        return read(path)
    except RankkitError as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)


class TestReadRunOracle:
    """``read_run`` against the literal per-line reader it replaced."""

    @given(run_files(), st.sampled_from([1, 40, 1 << 14]))
    @settings(max_examples=500, deadline=None)
    def test_same_entries_or_same_error(self, tmp_path_factory, data, chunk_bytes):
        path = str(tmp_path_factory.mktemp("runs") / "r.run")
        with open(path, "wb") as fh:
            fh.write(data)
        with mock.patch.object(types, "_LINES_CHUNK_BYTES", chunk_bytes):
            got, expected = raised(read_run, path), raised(read_run_oracle, path)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert isinstance(got, Run)
        assert list(got) == expected
        assert got == expected
        assert list(ranked_by_query(got).items()) == \
            [(q, [e.doc_id for e in g]) for q, g in ranked_entries_oracle(expected).items()]

    def test_file_of_many_chunks(self, tmp_path):
        # 3000 lines of 2 interleaved queries, well past one read chunk
        path = tmp_path / "long.run"
        rows = [f"q{i % 2}\x0bQ0\td{i}  {i // 2 + 1} {-i / 7!r} run" for i in range(3000)]
        path.write_text("\n".join(rows))
        got = read_run(str(path))
        assert len(got) == 3000 and got == read_run_oracle(str(path))
        assert list(ranked_by_query(got)) == ["q0", "q1"]
        assert ranked_by_query(got)["q1"] == [f"d{i}" for i in range(1, 3000, 2)]
