import json
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import set_api_key, write_documents
from hypothesis import given, settings
from hypothesis import strategies as st

from rankkit import backends, cli
from rankkit.embedding import (
    EmbeddingRecord,
    euclidean_dist,
    quality_filter,
    read_embeddings,
    write_embeddings,
)
from rankkit.errors import DimensionMismatch, MalformedLine
from rankkit.metrics import read_run, run_from_candidates, write_run
from rankkit.pipeline import CONFIDENCE_FORMULA, read_labels
from rankkit.types import Document, Query, read_documents, read_queries


@pytest.fixture
def workspace(tmp_path):
    """Synthetic corpus of 3 queries x 10 candidates with distinct grades."""
    rng = np.random.default_rng(99)
    n_docs, n_queries = 10, 3
    docs = [Document(id=f"d{i}", text=f"passage about topic {i}") for i in range(1, n_docs + 1)]
    write_documents(docs, str(tmp_path / "corpus.jsonl"))

    queries = [Query(id=f"q{i}", text=f"question {i}") for i in range(1, n_queries + 1)]
    with open(tmp_path / "queries.jsonl", "w") as fh:
        for q in queries:
            fh.write(json.dumps({"id": q.id, "text": q.text}) + "\n")

    entries = []
    qrels_lines = []
    for q in queries:
        order = [f"d{i}" for i in rng.permutation(n_docs) + 1]
        entries.extend(run_from_candidates(q.id, order, tag="bm25"))
        # distinct grades, decoupled from the first-stage order
        for grade, i in enumerate(rng.permutation(n_docs) + 1):
            qrels_lines.append(f"{q.id} 0 d{i} {grade}")
    write_run(entries, str(tmp_path / "input.run"))
    (tmp_path / "qrels.txt").write_text("\n".join(qrels_lines) + "\n")

    doc_embs = [EmbeddingRecord(d.id, rng.normal(size=6)) for d in docs]
    write_embeddings(doc_embs, str(tmp_path / "doc_embs.jsonl"))
    query_embs = [EmbeddingRecord(q.id, rng.normal(size=6)) for q in queries]
    write_embeddings(query_embs, str(tmp_path / "query_embs.jsonl"))
    return tmp_path


def run_cli(*args):
    return cli.main([str(a) for a in args])


class ReplySession:
    """Stands in for ``backends.HttpTransport``: each post answers with the next
    chat-completions body; a post with no body left fails the test."""

    def __init__(self, bodies=()):
        self.bodies = list(bodies)

    def post(self, body, headers):
        if not self.bodies:
            pytest.fail(f"unexpected request: {body[:80]!r}")
        return json.dumps(self.bodies.pop(0)).encode()


class WindowSession:
    """Stands in for ``backends.HttpTransport``: answers each listwise request
    in presented order and records how many documents it held."""

    def __init__(self):
        self.sizes = []

    def post(self, body, headers):
        n = (len(json.loads(body)["messages"]) - 4) // 2
        self.sizes.append(n)
        return json.dumps(reply(" > ".join(f"[{i}]" for i in range(1, n + 1)))).encode()


def reply(content):
    return {"choices": [{"message": {"content": content}}]}


HTTP = ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1", "--model", "m"]

# brackets that nest past the JSON decoder's recursion limit
DEEP = 100_000


class TestSelect:
    @pytest.mark.parametrize("algorithm", ["greedy", "random", "kmeans"])
    def test_each_algorithm(self, workspace, algorithm):
        out = workspace / f"sel_{algorithm}.jsonl"
        code = run_cli("select", "--embeddings", workspace / "doc_embs.jsonl",
                       "--algorithm", algorithm, "--k", 4, "--seed", 7, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["meta"]["algorithm"] == algorithm
        assert header["meta"]["count"] == 4
        assert len(lines) == 5

    def test_trace_flag(self, workspace):
        out = workspace / "sel.jsonl"
        run_cli("select", "--embeddings", workspace / "doc_embs.jsonl",
                "--k", 3, "--trace", "--out", out)
        header = json.loads(out.read_text().splitlines()[0])
        assert len(header["meta"]["trace"]) == 3

    @pytest.mark.parametrize("algorithm", ["random", "kmeans"])
    def test_trace_with_another_algorithm_exits_1_without_output(self, workspace, caplog,
                                                                 algorithm):
        out = workspace / "sel.jsonl"
        code = run_cli("select", "--embeddings", workspace / "doc_embs.jsonl",
                       "--algorithm", algorithm, "--k", 3, "--trace", "--out", out)
        assert code == 1
        assert "--trace applies to --algorithm greedy only" in caplog.text
        assert not out.exists()

    def test_trace_with_another_algorithm_is_refused_before_any_file_is_read(self, tmp_path,
                                                                             caplog):
        code = run_cli("select", "--embeddings", tmp_path / "missing.jsonl",
                       "--config", tmp_path / "missing.json",
                       "--algorithm", "kmeans", "--trace", "--out", tmp_path / "sel.jsonl")
        assert code == 1
        assert "--trace applies to --algorithm greedy only, not kmeans" in caplog.text
        assert "missing" not in caplog.text


@st.composite
def grid_corpora(draw):
    """Docs and queries on a small integer grid, scaled: distinct rows lie
    at equal distances from a query, rows repeat, half the queries are
    corpus rows, and a row or a query may be zero.  With a k past N at times
    and a filter threshold."""
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    queries = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    copies = rng.random(m) < 0.5
    queries[copies] = x[rng.integers(0, n, size=int(copies.sum()))]
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 1e3]))
    return (x * scale, queries * scale, draw(st.integers(1, n + 2)),
            draw(st.sampled_from([-1.0, 0.0, 0.5])))


class TestFilterRetrieve:
    @settings(max_examples=40, deadline=None)
    @given(grid_corpora())
    def test_filter_retrieve_and_distill_match_the_literal_oracle(self, case):
        x, queries, k, threshold = case
        orders = [np.argsort(np.linalg.norm(x - q, axis=1), kind="stable") for q in queries]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            docs, qembs = tmp / "docs.jsonl", tmp / "qembs.jsonl"
            write_embeddings([EmbeddingRecord(f"d{i}", v) for i, v in enumerate(x)], str(docs))
            write_embeddings([EmbeddingRecord(f"q{i}", v) for i, v in enumerate(queries)],
                             str(qembs))
            (tmp / "queries.jsonl").write_text("".join(
                json.dumps({"id": f"q{i}", "text": "question"}) + "\n"
                for i in range(len(queries))))
            assert run_cli("filter", "--query-embeddings", qembs, "--doc-embeddings", docs,
                           "--quality-threshold", threshold, "--out", tmp / "kept.jsonl") == 0
            assert run_cli("retrieve", "--query-embeddings", qembs, "--doc-embeddings", docs,
                           "--k", k, "--out", tmp / "retrieved.run") == 0
            assert run_cli("distill", "--queries", tmp / "queries.jsonl",
                           "--query-embeddings", qembs, "--doc-embeddings", docs,
                           "--backend", "identity", "--top-k", k,
                           "--out", tmp / "labels.jsonl") == 0
            kept = [json.loads(line) for line in (tmp / "kept.jsonl").read_text().splitlines()]
            run = (tmp / "retrieved.run").read_text().splitlines()
            assert len(read_run(str(tmp / "retrieved.run"))) == len(run)  # scores fall with rank
            labels = (tmp / "labels.jsonl").read_text().splitlines()[1:]
        expected = quality_filter([(q, x[order[0]], (f"q{qi}", f"d{order[0]}"))
                                   for qi, (q, order) in enumerate(zip(queries, orders))],
                                  threshold)
        assert kept[0]["meta"] == {"threshold": threshold, "kept": expected.kept_count,
                                   "dropped_below": expected.dropped_below,
                                   "dropped_zero": expected.dropped_zero}
        assert [(r["query_id"], r["doc_id"]) for r in kept[1:]] == [p for _, _, p in expected.kept]
        assert run == [f"q{qi} Q0 d{i} {rank} {-euclidean_dist(q, x[i])!r} retrieve"
                       for qi, (q, order) in enumerate(zip(queries, orders))
                       for rank, i in enumerate(order[:k], 1)]
        assert [json.loads(line)["candidate_ids"] for line in labels] == \
               [[f"d{i}" for i in order[:k]] for order in orders]

    def test_filter_top1_pairing(self, workspace):
        out = workspace / "pairs.jsonl"
        code = run_cli("filter", "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--quality-threshold", -1.0, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["kept"] == 3
        assert meta["dropped_below"] == 0

    def test_retrieve_emits_valid_run(self, workspace):
        out = workspace / "retrieved.run"
        code = run_cli("retrieve", "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--k", 5, "--out", out)
        assert code == 0
        entries = read_run(str(out))
        assert len(entries) == 15

    def test_retrieve_scores_are_the_row_wise_distances_in_oracle_order(self, tmp_path):
        # 4-decimal data: on some rows the 1-D np.linalg.norm of x[i] - q
        # differs in the last bit from the row-wise one, which the ranking
        # sorts by; the run file holds the row-wise value
        rng = np.random.default_rng(5)
        x = np.round(rng.normal(size=(120, 16)), 4)
        queries = np.round(rng.normal(size=(3, 16)), 4)
        write_embeddings([EmbeddingRecord(f"d{i}", v) for i, v in enumerate(x)],
                         str(tmp_path / "docs.jsonl"))
        write_embeddings([EmbeddingRecord(f"q{i}", v) for i, v in enumerate(queries)],
                         str(tmp_path / "queries.jsonl"))
        out = tmp_path / "retrieved.run"
        code = run_cli("retrieve", "--query-embeddings", tmp_path / "queries.jsonl",
                       "--doc-embeddings", tmp_path / "docs.jsonl", "--k", 50, "--out", out)
        assert code == 0
        expected = []
        for qi, q in enumerate(queries):
            dist = np.linalg.norm(x - q, axis=1)
            for rank, i in enumerate(np.argsort(dist, kind="stable")[:50], 1):
                expected.append((f"q{qi}", f"d{i}", str(rank), repr(-float(dist[i]))))
        got = [tuple(line.split()[i] for i in (0, 2, 3, 4)) for line in out.read_text().splitlines()]
        assert got == expected

    def test_a_near_tie_writes_equal_scores_that_eval_reads(self, tmp_path):
        # b is a with two coordinates of a - q swapped, so both lie at one
        # distance from q; on the 11th draw the 1-D norm of b - q is a bit
        # below that of a - q, so a run that wrote it rose from rank 1 to 2
        rng = np.random.default_rng(0)
        for _ in range(11):
            q, a = rng.normal(size=8), rng.normal(size=8)
        d = a - q
        d[[0, 1]] = d[[1, 0]]
        write_embeddings([EmbeddingRecord("a", a), EmbeddingRecord("b", q + d)],
                         str(tmp_path / "docs.jsonl"))
        write_embeddings([EmbeddingRecord("q1", q)], str(tmp_path / "queries.jsonl"))
        (tmp_path / "qrels.txt").write_text("q1 0 a 1\n")
        out = tmp_path / "retrieved.run"
        assert run_cli("retrieve", "--query-embeddings", tmp_path / "queries.jsonl",
                       "--doc-embeddings", tmp_path / "docs.jsonl", "--k", 2, "--out", out) == 0
        scores = [line.split()[4] for line in out.read_text().splitlines()]
        assert scores == [repr(-float(np.linalg.norm(a - q)))] * 2
        assert run_cli("eval", "--run", out, "--qrels", tmp_path / "qrels.txt") == 0

    @pytest.mark.parametrize("k,code", [(2, 1), (1, 0)])
    def test_retrieve_refuses_a_distance_that_overflows(self, tmp_path, caplog, k, code):
        write_embeddings([EmbeddingRecord("a", np.array([1.0, 0.0])),
                          EmbeddingRecord("b", np.array([1e200, 0.0]))],
                         str(tmp_path / "docs.jsonl"))
        write_embeddings([EmbeddingRecord("q1", np.zeros(2))], str(tmp_path / "queries.jsonl"))
        out = tmp_path / "retrieved.run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("retrieve", "--query-embeddings", tmp_path / "queries.jsonl",
                           "--doc-embeddings", tmp_path / "docs.jsonl", "--k", k,
                           "--out", out) == code
        if code:
            assert "query q1: its distance to doc b overflows" in caplog.text
            assert not out.exists()
        else:
            assert out.read_text() == "q1 Q0 a 1 -1.0 retrieve\n"

    @pytest.mark.parametrize("command", ["retrieve", "distill"])
    def test_queries_of_another_width_are_fatal(self, workspace, caplog, command):
        queries = workspace / "wide_queries.jsonl"
        write_embeddings([EmbeddingRecord("q1", np.ones(7))], str(queries))
        argv = [command, "--query-embeddings", queries,
                "--doc-embeddings", workspace / "doc_embs.jsonl", "--out", workspace / "out"]
        if command == "retrieve":
            argv += ["--k", 3]
        else:
            argv += ["--queries", workspace / "queries.jsonl", "--backend", "identity"]
        assert run_cli(*argv) == 1
        assert "query shape (7,) vs corpus dim 6" in caplog.text
        assert not (workspace / "out").exists()
        with pytest.raises(DimensionMismatch):
            args = cli.build_parser().parse_args([str(a) for a in argv])
            args.func(args)

    def test_filter_pairs_with_unknown_id_is_fatal_with_file_and_line(self, workspace, caplog):
        pairs = workspace / "pairs_in.jsonl"
        pairs.write_text(json.dumps({"query_id": "q1", "doc_id": "d1"}) + "\n"
                         + json.dumps({"query_id": "q2", "doc_id": "nope"}) + "\n")
        code = run_cli("filter", "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--pairs", pairs, "--out", workspace / "kept.jsonl")
        assert code == 1
        assert f"{pairs}:2: unknown doc_id 'nope'" in caplog.text


    def test_filter_drops_zero_and_below_threshold_and_repeats_a_shared_doc(self, tmp_path):
        rng = np.random.default_rng(8)
        docs = [EmbeddingRecord(f"d{i}", v) for i, v in enumerate(rng.normal(size=(12, 4)))]
        qvecs = list(rng.normal(size=(10, 4)))
        # a zero-vector query, and a copy of q0 under another id
        queries = [EmbeddingRecord(f"q{i}", v)
                   for i, v in enumerate(qvecs + [np.zeros(4), qvecs[0]])]
        write_embeddings(docs, str(tmp_path / "docs.jsonl"))
        write_embeddings(queries, str(tmp_path / "queries.jsonl"))
        out = tmp_path / "kept.jsonl"
        code = run_cli("filter", "--query-embeddings", tmp_path / "queries.jsonl",
                       "--doc-embeddings", tmp_path / "docs.jsonl",
                       "--quality-threshold", 0.3, "--out", out)
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        kept = {rec["query_id"]: rec["doc_id"] for rec in lines[1:]}
        assert lines[0]["meta"]["dropped_zero"] == 1
        assert "q10" not in kept
        assert lines[0]["meta"]["dropped_below"] >= 1
        assert len(kept) == lines[0]["meta"]["kept"]
        # q0 and its copy keep the same doc, and it is written once for each
        assert kept["q0"] == kept["q11"]
        assert [rec["doc_id"] for rec in lines[1:]].count(kept["q0"]) >= 2


class TestRerank:
    def test_identity_backend_preserves_input_order(self, workspace):
        out = workspace / "identity.run"
        code = run_cli("rerank", "--listwise",
                       "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "identity", "--out", out)
        assert code == 0
        inp = read_run(str(workspace / "input.run"))
        got = read_run(str(out))
        assert [(e.query_id, e.doc_id, e.rank) for e in got] == \
               [(e.query_id, e.doc_id, e.rank) for e in inp]

    def test_oracle_backend_then_eval_is_perfect(self, workspace, capsys):
        out = workspace / "oracle.run"
        code = run_cli("rerank", "--listwise",
                       "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "oracle", "--qrels", workspace / "qrels.txt",
                       "--window-size", 4, "--stride", 2, "--out", out)
        assert code == 0
        report_path = workspace / "report.json"
        code = run_cli("eval", "--run", out, "--qrels", workspace / "qrels.txt",
                       "--metrics", "ndcg@2,mrr,recall@5", "--out", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        # window 4 / stride 2 carries the best 2 candidates to the front, so
        # nDCG@2 is exact even though deeper ranks are only window-sorted
        ndcg = next(m for m in report["metrics"] if m["metric"] == "ndcg@2")
        assert ndcg["mean"] == 1.0
        assert read_run(str(out)) != read_run(str(workspace / "input.run"))

    def test_pairwise_mode(self, workspace):
        out = workspace / "pairwise.run"
        code = run_cli("rerank", "--pairwise",
                       "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "oracle", "--qrels", workspace / "qrels.txt",
                       "--out", out)
        assert code == 0
        grades = {}
        for line in (workspace / "qrels.txt").read_text().splitlines():
            qid, _, did, grade = line.split()
            grades[qid, did] = int(grade)
        # docs of grade >= 1 first, then the rest, each part in input order
        expected = []
        for qid in ("q1", "q2", "q3"):
            ids = [e.doc_id for e in read_run(str(workspace / "input.run")) if e.query_id == qid]
            expected += [(qid, d) for d in ids if grades[qid, d] >= 1]
            expected += [(qid, d) for d in ids if grades[qid, d] < 1]
        assert [(e.query_id, e.doc_id) for e in read_run(str(out))] == expected

    def test_run_queries_missing_from_queries_fail_alone(self, workspace, caplog):
        first = (workspace / "queries.jsonl").read_text().splitlines()[0]
        (workspace / "q1_only.jsonl").write_text(first + "\n")
        out = workspace / "partial.run"
        code = run_cli("rerank", "--run", workspace / "input.run",
                       "--queries", workspace / "q1_only.jsonl",
                       "--corpus", workspace / "corpus.jsonl", "--out", out)
        assert code == 2
        assert {e.query_id for e in read_run(str(out))} == {"q1"}
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q2 failed: query q2 is in the run but not in the queries",
                          "query q3 failed: query q3 is in the run but not in the queries",
                          "2 queries failed: q2, q3"]


    def test_image_only_doc_in_text_mode_fails_only_its_query(self, workspace):
        with open(workspace / "corpus.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "img", "image_ref": "img.png", "modality": "image"}) + "\n")
        with open(workspace / "queries.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "q4", "text": "find the image"}) + "\n")
        run = list(read_run(str(workspace / "input.run")))
        write_run(run + run_from_candidates("q4", ["d1", "img"], tag="bm25"),
                  str(workspace / "mixed.run"))
        out = workspace / "text_mode.run"
        code = run_cli("rerank", "--run", workspace / "mixed.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "identity", "--mode", "text", "--out", out)
        assert code == 2
        assert [(e.query_id, e.doc_id) for e in read_run(str(out))] == \
               [(e.query_id, e.doc_id) for e in run]


    @pytest.mark.parametrize("method,candidates", [
        ("--listwise", ["img"]),
        ("--pairwise", ["img"]),
        ("--pairwise", ["d1", "img"]),
    ])
    def test_every_method_fails_an_image_only_doc_in_text_mode(self, workspace, caplog,
                                                                method, candidates):
        with open(workspace / "corpus.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "img", "image_ref": "img.png", "modality": "image"}) + "\n")
        with open(workspace / "queries.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "q4", "text": "find the image"}) + "\n")
        run = list(read_run(str(workspace / "input.run")))
        write_run(run + run_from_candidates("q4", candidates, tag="bm25"),
                  str(workspace / "mixed.run"))
        out = workspace / "text_mode.run"
        code = run_cli("rerank", method, "--run", workspace / "mixed.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "identity", "--mode", "text", "--out", out)
        assert code == 2
        assert {e.query_id for e in read_run(str(out))} == {"q1", "q2", "q3"}
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors[0] == "query q4 failed: doc img has no text for text-mode ranking"

    def test_listwise_and_pairwise_set_one_method(self):
        base = ["rerank", "--run", "r", "--queries", "q", "--corpus", "c", "--out", "o"]
        parse = cli.build_parser().parse_args
        assert vars(parse(base))["method"] == "listwise"
        assert vars(parse(base + ["--listwise"]))["method"] == "listwise"
        assert vars(parse(base + ["--pairwise"]))["method"] == "pairwise"
        assert "pairwise" not in vars(parse(base + ["--pairwise"]))

    @pytest.mark.parametrize("method", ["--listwise", "--pairwise"])
    def test_run_file_scores_are_n_minus_rank_not_first_stage_scores(self, workspace, method):
        first = [e for e in read_run(str(workspace / "input.run")) if e.query_id == "q1"]
        ids = [e.doc_id for e in first]
        write_run(run_from_candidates("q1", ids, [0.5 ** r for r in range(10)], tag="bm25"),
                  str(workspace / "scored.run"))
        out = workspace / "reverse.run"
        code = run_cli("rerank", method, "--run", workspace / "scored.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "reverse", "--tag", "rev", "--out", out)
        assert code == 0
        # the reverse backend mirrors each listwise window and answers no to
        # every pairwise question
        expected = ids[::-1] if method == "--listwise" else ids
        assert [(e.doc_id, e.rank, e.score, e.tag) for e in read_run(str(out))] == \
               [(d, r + 1, float(10 - r), "rev") for r, d in enumerate(expected)]

    @pytest.mark.parametrize("method", ["--listwise", "--pairwise"])
    def test_a_candidate_missing_from_the_corpus_fails_its_query(self, workspace, caplog, method):
        with open(workspace / "queries.jsonl", "a") as fh:
            for qid in ("q4", "q5"):
                fh.write(json.dumps({"id": qid, "text": "lost"}) + "\n")
        run = list(read_run(str(workspace / "input.run")))
        write_run(run + run_from_candidates("q4", ["nope"], tag="bm25")
                  + run_from_candidates("q5", ["d1", "nope"], tag="bm25"),
                  str(workspace / "gap.run"))
        out = workspace / "gap_out.run"
        code = run_cli("rerank", method, "--run", workspace / "gap.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl", "--out", out)
        assert code == 2
        assert {e.query_id for e in read_run(str(out))} == {"q1", "q2", "q3"}
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q4 failed: candidate nope not in corpus",
                          "query q5 failed: candidate nope not in corpus",
                          "2 queries failed: q4, q5"]

    def test_an_unreadable_image_fails_only_its_query(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "a.png").write_bytes(b"png")
        (tmp_path / "b.png").write_bytes(b"png")
        write_documents([Document(id=d, image_ref=str(tmp_path / f"{d}.png"), modality="image")
                         for d in ("a", "b", "gone")], str(tmp_path / "corpus.jsonl"))
        (tmp_path / "queries.jsonl").write_text(
            "".join(json.dumps({"id": q, "text": "chart"}) + "\n" for q in ("q1", "q2")))
        write_run(run_from_candidates("q1", ["a", "b"]) + run_from_candidates("q2", ["a", "gone"]),
                  str(tmp_path / "first.run"))
        monkeypatch.setattr(backends, "HttpTransport",
                            lambda endpoint, timeout: ReplySession([reply("[2] > [1]")]))
        out = tmp_path / "out.run"
        code = run_cli("rerank", "--run", tmp_path / "first.run",
                       "--queries", tmp_path / "queries.jsonl",
                       "--corpus", tmp_path / "corpus.jsonl", "--mode", "multimodal",
                       *HTTP, "--out", out)
        assert code == 2
        assert [(e.query_id, e.doc_id) for e in read_run(str(out))] == [("q1", "b"), ("q1", "a")]
        assert f"query q2 failed: image {str(tmp_path / 'gone.png')!r} cannot be read" \
            in caplog.text

    @pytest.mark.parametrize("line", [
        {"id": "d1", "image_ref": ["x.png"], "modality": "image"},
        {"id": "d1", "text": 5, "image_ref": "x.png", "modality": "hybrid"},
    ])
    def test_a_corpus_field_that_is_not_a_string_exits_1_before_any_request(
            self, tmp_path, monkeypatch, caplog, line):
        (tmp_path / "y.png").write_bytes(b"png")
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"id": "d0", "image_ref": str(tmp_path / "y.png"), "modality": "image"})
            + "\n"
            + json.dumps(line) + "\n")
        (tmp_path / "queries.jsonl").write_text(json.dumps({"id": "q1", "text": "chart"}) + "\n")
        write_run(run_from_candidates("q1", ["d0", "d1"]), str(tmp_path / "first.run"))
        # ReplySession fails the test on any request
        monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: ReplySession())
        out = tmp_path / "out.run"
        code = run_cli("rerank", "--run", tmp_path / "first.run",
                       "--queries", tmp_path / "queries.jsonl",
                       "--corpus", tmp_path / "corpus.jsonl", "--mode", "multimodal",
                       *HTTP, "--out", out)
        assert code == 1
        assert f"{tmp_path / 'corpus.jsonl'}:2: doc d1: " in caplog.text
        assert not out.exists()

    def test_window_size_alone_takes_a_stride_that_fits_the_window(self, tmp_path, monkeypatch):
        """25 candidates: window 5 takes stride 2 (11 windows), and window 15
        keeps stride 10 (2 windows, where stride 7 would make 3)."""
        docs = [Document(id=f"d{i}", text=f"passage {i}") for i in range(25)]
        write_documents(docs, str(tmp_path / "corpus.jsonl"))
        (tmp_path / "queries.jsonl").write_text(json.dumps({"id": "q1", "text": "x"}) + "\n")
        write_run(run_from_candidates("q1", [d.id for d in docs]), str(tmp_path / "first.run"))
        for window, sizes in ((5, [5] * 11), (15, [15, 15])):
            session = WindowSession()
            monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: session)
            out = tmp_path / f"w{window}.run"
            code = run_cli("rerank", "--run", tmp_path / "first.run",
                           "--queries", tmp_path / "queries.jsonl",
                           "--corpus", tmp_path / "corpus.jsonl", "--window-size", window,
                           *HTTP, "--out", out)
            assert code == 0
            assert session.sizes == sizes
            assert [e.doc_id for e in read_run(str(out))] == [d.id for d in docs]

    def test_a_reply_without_string_content_fails_only_its_query(self, workspace, monkeypatch,
                                                                 caplog):
        identity = reply(" > ".join(f"[{i}]" for i in range(1, 11)))
        session = ReplySession([{"choices": None}, reply(None), identity])
        monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: session)
        out = workspace / "out.run"
        code = run_cli("rerank", "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl", *HTTP, "--out", out)
        assert code == 2
        assert {e.query_id for e in read_run(str(out))} == {"q3"}
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert [e.split(":")[0] for e in errors] == ["query q1 failed", "query q2 failed",
                                                     "2 queries failed"]
        assert all("malformed completion response" in e for e in errors[:2])

    def test_a_reply_nested_too_deep_fails_only_its_query(self, workspace, monkeypatch, caplog):
        deep = b'{"choices": ' + b"[" * DEEP + b"]" * DEEP + b"}"
        identity = json.dumps(reply(" > ".join(f"[{i}]" for i in range(1, 11)))).encode()
        bodies = [deep, identity, identity]
        session = SimpleNamespace(post=lambda body, headers: bodies.pop(0))
        monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: session)
        out = workspace / "out.run"
        code = run_cli("rerank", "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl", *HTTP, "--out", out)
        assert code == 2
        assert {e.query_id for e in read_run(str(out))} == {"q2", "q3"}
        assert "query q1 failed: window 0: malformed completion response: RecursionError" \
            in caplog.text


class TestDistill:
    def test_distill_writes_labels_with_manifest(self, workspace):
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--backend", "identity", "--top-k", 4, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        manifest = json.loads(lines[0])["manifest"]
        assert manifest["top_k"] == 4
        labels = [json.loads(l) for l in lines[1:]]
        assert len(labels) == 3
        assert all(l["confidence"] == 1.0 for l in labels)

    def test_distill_partial_failure_exit_code(self, workspace):
        # remove one query embedding to force a per-query failure
        embs = (workspace / "query_embs.jsonl").read_text().splitlines()
        (workspace / "query_embs_partial.jsonl").write_text("\n".join(embs[:-1]) + "\n")
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs_partial.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--backend", "identity", "--top-k", 4, "--out", out)
        assert code == 2

    def test_distill_empty_corpus_is_fatal(self, workspace):
        (workspace / "no_docs.jsonl").write_text("")
        code = run_cli("distill", "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "no_docs.jsonl",
                       "--backend", "identity", "--top-k", 4, "--out", workspace / "labels.jsonl")
        assert code == 1

    def test_one_candidate_obeys_the_modality_rule(self, workspace, caplog):
        # q1's only candidate is an image-only doc: text mode has nothing to label
        with open(workspace / "corpus.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "img", "image_ref": "img.png", "modality": "image"}) + "\n")
        q1 = read_embeddings(str(workspace / "query_embs.jsonl"))[0]
        docs = list(read_embeddings(str(workspace / "doc_embs.jsonl")))
        write_embeddings(docs + [EmbeddingRecord("img", q1.vector)], str(workspace / "with_img.jsonl"))
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "with_img.jsonl",
                       "--corpus", workspace / "corpus.jsonl", "--mode", "text",
                       "--backend", "identity", "--top-k", 1, "--out", out)
        assert code == 2
        labels = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert "q1" not in {label["query_id"] for label in labels}
        assert all(label["candidate_ids"] != ["img"] for label in labels)
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors[0] == "query q1 failed: doc img has no text for text-mode ranking"

    def test_deterministic_across_runs(self, workspace):
        outs = []
        for name in ("l1.jsonl", "l2.jsonl"):
            out = workspace / name
            run_cli("distill", "--queries", workspace / "queries.jsonl",
                    "--query-embeddings", workspace / "query_embs.jsonl",
                    "--doc-embeddings", workspace / "doc_embs.jsonl",
                    "--backend", "identity", "--top-k", 4, "--seed", 3, "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEval:
    def test_line_order_of_the_run_does_not_change_the_report(self, workspace):
        lines = (workspace / "input.run").read_text().splitlines(keepends=True)
        shuffled = [lines[i] for i in np.random.default_rng(5).permutation(len(lines))]
        qids = [line.split()[0] for line in shuffled]
        # interleaved: far more query changes between neighbours than queries
        assert sum(a != b for a, b in zip(qids, qids[1:])) > 2 * len(set(qids))
        (workspace / "shuffled.run").write_text("".join(shuffled))
        # round robin: each query's lines in rank order, but never two in a row
        by_query = [[line for line in lines if line.split()[0] == q] for q in ("q1", "q2", "q3")]
        (workspace / "interleaved.run").write_text("".join(sum(zip(*by_query), ())))
        reports = []
        for name in ("input.run", "shuffled.run", "interleaved.run"):
            out = workspace / f"{name}.eval.json"
            assert run_cli("eval", "--run", workspace / name, "--qrels", workspace / "qrels.txt",
                           "--metrics", "ndcg@3,mrr,recall@5", "--out", out) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]


class TestConfigAndErrors:
    def test_config_file_sets_defaults(self, workspace):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"selection_k": 2, "seed": 5}))
        out = workspace / "sel.jsonl"
        code = run_cli("select", "--config", cfg, "--embeddings",
                       workspace / "doc_embs.jsonl", "--algorithm", "random", "--out", out)
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["meta"]["k"] == 2

    def test_missing_file_is_fatal(self, workspace):
        code = run_cli("eval", "--run", workspace / "nope.run",
                       "--qrels", workspace / "qrels.txt")
        assert code == 1

    def test_oracle_without_qrels_is_fatal(self, workspace):
        code = run_cli("rerank", "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl",
                       "--backend", "oracle", "--out", workspace / "x.run")
        assert code == 1

    @pytest.mark.parametrize("content", [
        b'{"q1": "\xff"}', b"[1, 2]", b"{not json",
        pytest.param(b'{"q1": ' + b"[" * DEEP + b"]" * DEEP + b"}", id="nested-too-deep"),
    ])
    @pytest.mark.parametrize("flag", ["--config", "--groups"])
    def test_malformed_json_sidecar_is_fatal_and_named(self, workspace, caplog, flag, content):
        bad = workspace / "bad.json"
        bad.write_bytes(content)
        if flag == "--config":
            args = ["select", "--embeddings", workspace / "doc_embs.jsonl", "--algorithm",
                    "random", "--k", 2, "--out", workspace / "sel.jsonl"]
        else:
            args = ["eval", "--run", workspace / "input.run", "--qrels", workspace / "qrels.txt"]
        assert run_cli(*args, flag, bad) == 1
        assert f"{bad}: " in caplog.text

    @pytest.mark.parametrize("config,key", [
        ({"topk": 5}, "topk"),
        ({"top_k": "abc"}, "top_k"),
        ({"top_k": None}, "top_k"),
        ({"top_k": 2.7}, "top_k"),
        ({"mode": "image"}, "mode"),
        ({"top_k": True}, "top_k"),
        ({"window_size": 5, "stride": 10}, "stride"),
        ({"window_size": 1, "stride": 1}, "window_size"),
    ])
    def test_bad_config_is_fatal_and_names_the_key(self, workspace, caplog, config, key):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--config", cfg, "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl", "--out", out)
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and key in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["--timeout", "0"], "timeout"),
        (["--timeout", "-1"], "timeout"),
        (["--timeout", "nan"], "timeout"),
        (["--endpoint", "localhost:8000/v1"], "endpoint"),
        (["--window-size", "1", "--stride", "1"], "window_size"),
        (["--endpoint", "http://"], "endpoint"),
        (["--endpoint", "http:///v1"], "endpoint"),
        (["--endpoint", "http://h:x/v1"], "endpoint"),
    ])
    def test_bad_rerank_setting_is_fatal_before_any_request(self, workspace, monkeypatch,
                                                           caplog, argv, key):
        monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: ReplySession())
        out = workspace / "out.run"
        code = run_cli("rerank", "--run", workspace / "input.run",
                       "--queries", workspace / "queries.jsonl",
                       "--corpus", workspace / "corpus.jsonl", *HTTP, *argv, "--out", out)
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and key in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("config,manifest", [
        ({"top_k": 5.0}, {"top_k": 5, "quality_threshold": 0.25}),
        ({"quality_threshold": 0}, {"top_k": 20, "quality_threshold": 0.0}),
    ])
    def test_config_values_are_coerced_into_the_manifest(self, workspace, config, manifest):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--config", cfg, "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl", "--out", out)
        assert code == 0
        header = {"manifest": {
            "top_k": manifest["top_k"], "selection_k": 1000,
            "quality_threshold": manifest["quality_threshold"], "window_size": 20,
            "stride": 10, "budget": 4000, "seed": 0, "mode": "text",
            "confidence": CONFIDENCE_FORMULA}}
        assert out.read_text().splitlines()[0] == json.dumps(header)

    @pytest.mark.parametrize("window_size,stride", [(5, 2), (15, 10)])
    def test_the_manifest_records_the_default_stride(self, workspace, window_size, stride):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"window_size": window_size}))
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--config", cfg, "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl", "--out", out)
        assert code == 0
        manifest = json.loads(out.read_text().splitlines()[0])["manifest"]
        assert (manifest["window_size"], manifest["stride"]) == (window_size, stride)

    @pytest.mark.parametrize("command", ["rerank", "distill"])
    @pytest.mark.parametrize("key", ["k\n", "k\x00", "k\u00e9"])
    def test_a_bad_api_key_exits_1_before_any_request(self, workspace, monkeypatch, caplog,
                                                       command, key):
        set_api_key(monkeypatch, key)
        monkeypatch.setattr(backends, "HttpTransport", lambda endpoint, timeout: ReplySession())
        out = workspace / "out"
        if command == "rerank":
            inputs = ["--run", workspace / "input.run", "--corpus", workspace / "corpus.jsonl"]
        else:
            inputs = ["--query-embeddings", workspace / "query_embs.jsonl",
                      "--doc-embeddings", workspace / "doc_embs.jsonl"]
        code = run_cli(command, "--queries", workspace / "queries.jsonl", *inputs, *HTTP,
                       "--out", out)
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "$RERANK_API_KEY" in errors[0] and key not in errors[0]
        assert not out.exists()

    def test_malformed_qrels_is_fatal(self, workspace):
        bad = workspace / "bad_qrels.txt"
        bad.write_text("not enough fields\n")
        code = run_cli("eval", "--run", workspace / "input.run", "--qrels", bad)
        assert code == 1

    @pytest.mark.parametrize("grade,gain", [("1100", "exponential"), ("1" + "0" * 400, "linear")],
                             ids=["1100-exponential", "1e400-linear"])
    def test_a_grade_too_large_for_a_float_gain_is_fatal_with_its_line(self, workspace, caplog,
                                                                        grade, gain):
        # both once crashed eval with an OverflowError traceback
        bad = workspace / "huge_qrels.txt"
        bad.write_text(f"q1 0 d1 {grade}\n")
        code = run_cli("eval", "--run", workspace / "input.run", "--qrels", bad, "--gain", gain)
        assert code == 1
        assert f"{bad}:1: grade above 255 for (q1, d1)" in caplog.text

    def test_repeated_judgment_is_fatal_and_names_both_lines(self, workspace, caplog):
        lines = (workspace / "qrels.txt").read_text().splitlines()
        qid, _, did, grade = lines[2].split()
        bad = workspace / "repeat_qrels.txt"
        bad.write_text("\n".join(lines + [f"{qid} 0 {did} {int(grade) + 1}"]) + "\n")
        out = workspace / "eval.json"
        code = run_cli("eval", "--run", workspace / "input.run", "--qrels", bad, "--out", out)
        assert code == 1
        assert f"{bad}:{len(lines) + 1}: repeats the judgment of line 3: '{qid} 0 {did}" in caplog.text
        assert not out.exists()


HEADER = json.dumps({"manifest": {"top_k": 2}})
LABEL = {"query_id": "q1", "candidate_ids": ["d1", "d2"], "teacher_perm": [2, 1],
         "confidence": 1.0}
VALID = {
    "documents": json.dumps({"id": "d1", "text": "passage"}),
    "queries": json.dumps({"id": "q1", "text": "question"}),
    "embeddings": json.dumps({"id": "q1", "vector": [1.0, 0.0]}),
    "pairs": json.dumps({"query_id": "q1", "doc_id": "d1"}),
    "labels": HEADER,
}
READERS = {
    "documents": read_documents,
    "queries": read_queries,
    "embeddings": read_embeddings,
    "labels": read_labels,
}
COMMANDS = {
    "documents": lambda ws, bad: ["rerank", "--run", ws / "input.run", "--queries",
                                  ws / "queries.jsonl", "--corpus", bad, "--out", ws / "o.run"],
    "queries": lambda ws, bad: ["rerank", "--run", ws / "input.run", "--queries", bad,
                                "--corpus", ws / "corpus.jsonl", "--out", ws / "o.run"],
    "embeddings": lambda ws, bad: ["retrieve", "--query-embeddings", bad,
                                   "--doc-embeddings", ws / "doc_embs.jsonl", "--out", ws / "o.run"],
    "pairs": lambda ws, bad: ["filter", "--query-embeddings", ws / "query_embs.jsonl",
                              "--doc-embeddings", ws / "doc_embs.jsonl", "--pairs", bad,
                              "--out", ws / "o.jsonl"],
}


def _label(**changes) -> str:
    return json.dumps({k: v for k, v in dict(LABEL, **changes).items() if v is not None})


# (reader, file lines); the last line is the malformed one
MALFORMED = [
    ("documents", ['{"id": 5, "text": "x"}']),
    ("queries", ['{"id": 5, "text": "x"}']),
    ("queries", ['{"id": "q1"}']),
    ("embeddings", ['{"id": "q1", "vector": "abc"}']),
    ("embeddings", ['{"id": "q1", "vector": [[1.0, 0.0]]}']),
    ("pairs", ['{"query_id": "q1"}']),
    ("pairs", ['{"query_id": ["q1"], "doc_id": "d1"}']),
    ("labels", [HEADER, _label(candidate_ids=None)]),
    ("labels", [HEADER, _label(teacher_perm=[1.5, 2])]),
    ("labels", [_label()]),
    ("labels", []),
] + [
    (reader, [VALID[reader], "", line])
    for reader in VALID
    for line in ("[1, 2]", "null", '"a string"', "{not json")
] + [
    ("documents", ['{"id": null, "text": "x"}']),
    ("queries", ['{"id": ["q1"], "text": "x"}']),
    ("embeddings", ['{"id": 5, "vector": [1.0, 0.0]}']),
    ("embeddings", ['{"id": null, "vector": [1.0, 0.0]}']),
    ("embeddings", ['{"id": "q 1", "vector": [1.0, 0.0]}']),
    ("embeddings", ['{"id": "", "vector": [1.0, 0.0]}']),
    ("embeddings", ['{"id": "q1", "vector": [1.0, ' + "9" * 400 + "]}"]),
    ("documents", [VALID["documents"], VALID["documents"]]),
    ("queries", [VALID["queries"], '{"id": "q2", "text": "x"}', "", VALID["queries"]]),
    ("embeddings", [VALID["embeddings"], VALID["embeddings"]]),
    ("labels", [HEADER, _label(), _label(teacher_perm=[1, 2])]),
    ("labels", [HEADER, _label(query_id="q 2")]),
    ("labels", [HEADER, _label(candidate_ids=["d1", "d1"])]),
    ("labels", [HEADER, _label(candidate_ids=["d1", 2])]),
    ("embeddings", ['{"id": "a", "vector": [1.0, 0.0]}', '{"id": "b", "vector": [1.0, 0.0, 0.0]}']),
    ("queries", [VALID["queries"], '{"id": "q2", "text": ' + "[" * DEEP + "]" * DEEP + "}"]),
]


class TestMalformedInput:
    @pytest.mark.parametrize("reader,lines", MALFORMED,
                             ids=[f"{r}-{i}" for i, (r, _) in enumerate(MALFORMED)])
    def test_names_file_and_line_and_cli_exits_1(self, workspace, caplog, reader, lines):
        bad = workspace / "bad.jsonl"
        bad.write_text("".join(line + "\n" for line in lines))
        prefix = f"{bad}:{max(len(lines), 1)}: "
        if reader in READERS:
            with pytest.raises(MalformedLine) as exc:
                READERS[reader](str(bad))
            assert str(exc.value).startswith(prefix)
        if reader in COMMANDS:
            assert run_cli(*COMMANDS[reader](workspace, bad)) == 1
            assert prefix in caplog.text

    @pytest.mark.parametrize("reader", sorted(VALID))
    def test_non_utf8_line_names_its_line(self, workspace, caplog, reader):
        # 3000 valid lines first, so the bad byte lies past the first read buffer;
        # each record id is made distinct, as the id-keyed readers require
        bad = workspace / "bad.jsonl"
        head = [HEADER] if reader == "labels" else []
        valid = VALID[reader] if reader != "labels" else _label()
        key = '"query_id": "' if reader == "labels" else '"id": "'
        body = [valid.replace(key, f"{key}x{i}", 1) for i in range(3000)]
        lines = [line.encode() for line in head + body] + [b'{"id": "\xff"}']
        bad.write_bytes(b"\n".join(lines) + b"\n")
        prefix = f"{bad}:{len(lines)}: "
        if reader in READERS:
            with pytest.raises(MalformedLine) as exc:
                READERS[reader](str(bad))
            assert str(exc.value).startswith(prefix)
        if reader in COMMANDS:
            assert run_cli(*COMMANDS[reader](workspace, bad)) == 1
            assert prefix in caplog.text

    @pytest.mark.parametrize("flag", ["--run", "--qrels"])
    def test_eval_on_non_utf8_trec_file_exits_1(self, workspace, caplog, flag):
        bad = workspace / "bad.txt"
        good = (workspace / ("input.run" if flag == "--run" else "qrels.txt")).read_bytes()
        bad.write_bytes(good + b"\xff\n")
        files = {"--run": workspace / "input.run", "--qrels": workspace / "qrels.txt", flag: bad}
        assert run_cli("eval", *[a for kv in files.items() for a in kv]) == 1
        lineno = len(good.splitlines()) + 1
        assert f"{bad}:{lineno}: " in caplog.text

    def test_select_on_non_utf8_embeddings_exits_1(self, workspace, caplog):
        bad = workspace / "bad.jsonl"
        bad.write_bytes((workspace / "doc_embs.jsonl").read_bytes() + b"\xff\n")
        code = run_cli("select", "--embeddings", bad, "--algorithm", "greedy", "--k", 2,
                       "--out", workspace / "sel.jsonl")
        assert code == 1
        assert f"{bad}:11: " in caplog.text


class TestArgumentChecks:
    @pytest.mark.parametrize("argv,key", [
        (["select", "--algorithm", "random", "--k", 0], "selection_k"),
        (["select", "--algorithm", "greedy", "--k", -2], "selection_k"),
        (["select", "--algorithm", "kmeans", "--k", 2, "--seed", -1], "seed"),
        (["select", "--algorithm", "random", "--k", 2, "--seed", -1], "seed"),
        (["rerank", "--parallelism", 0], "parallelism"),
        (["retrieve", "--k", 0], "top_k"),
        (["distill", "--top-k", 2, "--parallelism", -1], "parallelism"),
    ])
    def test_bad_argument_is_fatal_and_names_its_key(self, workspace, caplog, argv, key):
        files = {"select": ["--embeddings", workspace / "doc_embs.jsonl"],
                 "retrieve": ["--query-embeddings", workspace / "query_embs.jsonl",
                              "--doc-embeddings", workspace / "doc_embs.jsonl"],
                 "rerank": ["--run", workspace / "input.run",
                            "--queries", workspace / "queries.jsonl",
                            "--corpus", workspace / "corpus.jsonl"],
                 "distill": ["--queries", workspace / "queries.jsonl",
                             "--query-embeddings", workspace / "query_embs.jsonl",
                             "--doc-embeddings", workspace / "doc_embs.jsonl"]}[argv[0]]
        out = workspace / "out.txt"
        assert run_cli(*argv, *files, "--out", out) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and key in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["ndcg@x", "recall@x", "ndcg@", "recall@-1", "mrr@5", "map"])
    def test_unknown_eval_metric_is_fatal_and_named(self, workspace, caplog, metric):
        out = workspace / "eval.json"
        code = run_cli("eval", "--run", workspace / "input.run", "--qrels", workspace / "qrels.txt",
                       "--metrics", f"mrr,{metric}", "--out", out)
        assert code == 1
        assert repr(metric) in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ndcg", "recall"])
    def test_a_cutoff_past_the_int_digit_limit_is_fatal_and_named(self, workspace, caplog, name):
        # int() refuses more than 4300 digits; this once ended in a traceback
        out = workspace / "eval.json"
        code = run_cli("eval", "--run", workspace / "input.run", "--qrels", workspace / "qrels.txt",
                       "--metrics", f"mrr,{name}@{'9' * 5000}", "--out", out)
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"metric {name}@K: a cutoff of 5000 digits is too long"]
        assert not out.exists()


class TestRepeatedIds:
    def test_retrieve_rejects_a_repeated_doc_id(self, tmp_path, caplog):
        docs, queries = tmp_path / "docs.jsonl", tmp_path / "queries.jsonl"
        write_embeddings([EmbeddingRecord("d1", [1.0, 0.0]), EmbeddingRecord("d2", [0.0, 1.0]),
                          EmbeddingRecord("d1", [-1.0, 0.0])], str(docs))
        write_embeddings([EmbeddingRecord("q1", [0.9, 0.1])], str(queries))
        out = tmp_path / "retrieved.run"
        code = run_cli("retrieve", "--query-embeddings", queries, "--doc-embeddings", docs,
                       "--k", 3, "--out", out)
        assert code == 1
        assert f"{docs}:3: id 'd1' repeats line 1" in caplog.text
        assert not out.exists()

    def test_rerank_rejects_a_repeated_query_id(self, workspace, caplog):
        queries = workspace / "queries.jsonl"
        with open(queries, "a") as fh:
            fh.write(json.dumps({"id": "q1", "text": "question 1 again"}) + "\n")
        out = workspace / "reranked.run"
        code = run_cli("rerank", "--run", workspace / "input.run", "--queries", queries,
                       "--corpus", workspace / "corpus.jsonl", "--out", out)
        assert code == 1
        assert f"{queries}:4: id 'q1' repeats line 1" in caplog.text
        assert not out.exists()


RERANK = ["rerank", "--run", "@input.run", "--queries", "@queries.jsonl",
          "--corpus", "@corpus.jsonl", "--out", "@o"]


class TestExitCodes:
    def test_failed_queries_give_one_summary_error_and_exit_2(self, workspace, caplog):
        embs = (workspace / "query_embs.jsonl").read_text().splitlines()
        (workspace / "query_embs_partial.jsonl").write_text(embs[0] + "\n")
        out = workspace / "labels.jsonl"
        code = run_cli("distill", "--queries", workspace / "queries.jsonl",
                       "--query-embeddings", workspace / "query_embs_partial.jsonl",
                       "--doc-embeddings", workspace / "doc_embs.jsonl",
                       "--backend", "identity", "--top-k", 4, "--out", out)
        assert code == 2
        assert [json.loads(l)["query_id"] for l in out.read_text().splitlines()[1:]] == ["q1"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q2 failed: query q2 has no embedding",
                          "query q3 failed: query q3 has no embedding",
                          "2 queries failed: q2, q3"]

    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["eval", "--qrels", "@qrels.txt"],
        ["eval", "--run", "@input.run", "--qrels", "@qrels.txt", "--bogus"],
        ["eval", "--run", "@input.run", "--qrels", "@qrels.txt", "--gain", "cubic"],
        ["select", "--embeddings", "@doc_embs.jsonl", "--algorithm", "nope", "--out", "@o"],
        ["retrieve", "--query-embeddings", "@query_embs.jsonl",
         "--doc-embeddings", "@doc_embs.jsonl", "--k", "x", "--out", "@o"],
        # eval takes no config options
        ["eval", "--run", "@input.run", "--qrels", "@qrels.txt",
         "--config", "/nonexistent.json", "--seed", "-5", "--parallelism", "0"],
        ["eval", "--run", "@input.run", "--qrels", "@qrels.txt", "--seed", "3"],
        # each command takes only the options it reads
        ["filter", "--query-embeddings", "@query_embs.jsonl", "--doc-embeddings",
         "@doc_embs.jsonl", "--seed", "3", "--out", "@o"],
        ["retrieve", "--query-embeddings", "@query_embs.jsonl", "--doc-embeddings",
         "@doc_embs.jsonl", "--k", "2", "--parallelism", "2", "--out", "@o"],
        ["select", "--embeddings", "@doc_embs.jsonl", "--k", "2", "--parallelism", "2",
         "--out", "@o"],
        RERANK + ["--seed", "3"],
        # the tag is the last field of every run line
        RERANK + ["--tag", "a b"],
        RERANK + ["--tag", ""],
        RERANK + ["--listwise", "--pairwise"],
    ])
    def test_usage_error_exits_1_with_usage_on_stderr(self, workspace, capsys, argv):
        code = run_cli(*[workspace / a[1:] if a.startswith("@") else a for a in argv])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: rankkit") and "error: " in captured.err
        assert captured.out == ""
        assert not (workspace / "o").exists()

    def test_every_run_command_trims_the_heap_whatever_its_outcome(self, workspace,
                                                                   monkeypatch):
        cli._trim_heap()  # callable as it stands, glibc or not
        trims = []
        monkeypatch.setattr(cli, "_trim_heap", lambda: trims.append(1))
        select = ["select", "--embeddings", workspace / "doc_embs.jsonl", "--k", 2]
        assert run_cli(*select, "--out", workspace / "sel.jsonl") == 0
        assert run_cli(*select[:2], workspace / "missing.jsonl", *select[3:],
                       "--out", workspace / "o") == 1
        assert len(trims) == 2

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["rerank", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: rankkit")
