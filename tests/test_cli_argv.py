"""``cli.main`` over drawn argument lists: whatever the flags and files, it
returns 0, 1 or 2 and never raises, and 2 (completed with per-query
failures) always comes with the output file written."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import write_documents

from rankkit import cli
from rankkit.embedding import EmbeddingRecord, write_embeddings
from rankkit.metrics import run_from_candidates, write_run
from rankkit.types import Document

FLAG = object()  # a store_true flag, which takes no value

CONFIG = {"--config": ["@cfg.json", "@bad_cfg.json", "@missing.json"]}
SEED = {"--seed": ["3", "-1", "x"]}
PARALLELISM = {"--parallelism": ["1", "2", "0"]}
# no --endpoint: the http backend must fail before any connection
BACKEND = {"--backend": ["identity", "reverse", "oracle", "http", "nope"],
           "--qrels": ["@qrels.txt", "@non_utf8.jsonl"]}
QUERY_EMBS = ["@query_embs.jsonl", "@partial_query_embs.jsonl", "@dup_embs.jsonl",
              "@missing.jsonl"]
DOC_EMBS = ["@doc_embs.jsonl", "@dup_embs.jsonl", "@non_utf8.jsonl", "@empty.jsonl"]
QUERIES = ["@queries.jsonl", "@dup_queries.jsonl"]
RUNS = ["@first.run", "@gap.run", "@non_utf8.jsonl"]
K = ["2", "0", "-1", "9", "x"]

# (required flags, optional flags) of each subcommand, each with its values,
# valid ones first
FLAGS = {
    "filter": ({"--query-embeddings": QUERY_EMBS, "--doc-embeddings": DOC_EMBS},
               {"--pairs": ["@pairs.jsonl", "@non_utf8.jsonl"],
                "--quality-threshold": ["0.3", "-1", "x"], **CONFIG}),
    "select": ({"--embeddings": DOC_EMBS},
               {"--algorithm": ["greedy", "random", "kmeans", "nope"], "--k": K,
                "--trace": [FLAG], **CONFIG, **SEED}),
    "retrieve": ({"--query-embeddings": QUERY_EMBS, "--doc-embeddings": DOC_EMBS},
                 {"--k": K, **CONFIG}),
    "rerank": ({"--run": RUNS, "--queries": QUERIES,
                "--corpus": ["@docs.jsonl", "@dup_docs.jsonl"]},
               {"--listwise": [FLAG], "--pairwise": [FLAG], "--window-size": ["2", "0", "1"],
                "--stride": ["1", "3"], "--mode": ["text", "multimodal", "nope"],
                "--tag": ["t", "a b", ""], **CONFIG, **PARALLELISM, **BACKEND}),
    "distill": ({"--queries": QUERIES, "--query-embeddings": QUERY_EMBS,
                 "--doc-embeddings": DOC_EMBS},
                {"--corpus": ["@docs.jsonl", "@dup_docs.jsonl"], "--top-k": K,
                 "--mode": ["text", "multimodal"], "--budget": ["1", "0"],
                 "--budget-filter": [FLAG], **CONFIG, **SEED, **PARALLELISM, **BACKEND}),
    "eval": ({"--run": RUNS, "--qrels": ["@qrels.txt", "@non_utf8.jsonl"]},
             {"--metrics": ["ndcg@2,mrr", "recall@3", "ndcg@x"],
              "--gain": ["linear", "exponential", "cubic"], "--rel-threshold": ["1", "x"]}),
}


@st.composite
def argvs(draw):
    """A subcommand and its flags: each required flag now and then left out,
    each optional flag in or out, each value mostly the valid one."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    argv = [command]
    flags = [(flag, values, draw(st.integers(0, 9)) > 0) for flag, values in required.items()]
    flags += [(flag, values, draw(st.integers(0, 2)) == 0) for flag, values in optional.items()]
    flags.append(("--out", ["@out"], draw(st.integers(0, 9)) > 0))
    for flag, values, present in flags:
        if present:
            value = values[0] if draw(st.integers(0, 3)) else draw(st.sampled_from(values))
            argv += [flag] if value is FLAG else [flag, value]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    ws = tmp_path_factory.mktemp("argv")
    docs = [Document(id=f"d{i}", text=f"passage {i}") for i in range(1, 5)]
    write_documents(docs, str(ws / "docs.jsonl"))
    write_documents(docs + docs[:1], str(ws / "dup_docs.jsonl"))
    vectors = {"d1": [1.0, 0.0, 0.2], "d2": [0.0, 1.0, 0.2], "d3": [0.5, 0.5, 0.2],
               "d4": [-1.0, 0.3, 0.2]}
    write_embeddings([EmbeddingRecord(i, v) for i, v in vectors.items()],
                     str(ws / "doc_embs.jsonl"))
    write_embeddings([EmbeddingRecord(i, vectors[i]) for i in ("d1", "d2", "d1")],
                     str(ws / "dup_embs.jsonl"))
    queries = {"q1": [0.9, 0.1, 0.0], "q2": [0.1, 0.9, 0.0]}
    write_embeddings([EmbeddingRecord(i, v) for i, v in queries.items()],
                     str(ws / "query_embs.jsonl"))
    write_embeddings([EmbeddingRecord("q1", queries["q1"])],
                     str(ws / "partial_query_embs.jsonl"))
    (ws / "queries.jsonl").write_text("".join(
        json.dumps({"id": q, "text": f"question {q}"}) + "\n" for q in queries))
    (ws / "dup_queries.jsonl").write_text("".join(
        json.dumps({"id": q, "text": f"question {q}"}) + "\n" for q in ("q1", "q2", "q1")))
    ranked = ["d3", "d1", "d4", "d2"]
    write_run([e for q in queries for e in run_from_candidates(q, ranked, tag="first")],
              str(ws / "first.run"))
    # q2's list names a document the corpus lacks, so reranking fails q2 alone
    write_run(run_from_candidates("q1", ranked, tag="first")
              + run_from_candidates("q2", ["d1", "d9"], tag="first"), str(ws / "gap.run"))
    (ws / "qrels.txt").write_text("".join(
        f"{q} 0 d{i} {i % 3}\n" for q in queries for i in range(1, 5)))
    (ws / "pairs.jsonl").write_text(json.dumps({"query_id": "q1", "doc_id": "d2"}) + "\n")
    (ws / "cfg.json").write_text(json.dumps({"top_k": 3, "selection_k": 2, "window_size": 3,
                                             "stride": 1}))
    (ws / "bad_cfg.json").write_text(json.dumps({"top_k": 0}))
    (ws / "non_utf8.jsonl").write_bytes(b'{"id": "\xff"}\n')
    (ws / "empty.jsonl").write_text("")
    return ws


@given(argv=argvs())
@example(argv=["eval", "--run", "@first.run", "--qrels", "@qrels.txt", "--config",
               "/nonexistent.json", "--seed", "-5", "--parallelism", "0", "--out", "@out"])
@example(argv=["retrieve", "--query-embeddings", "@query_embs.jsonl",
               "--doc-embeddings", "@dup_embs.jsonl", "--k", "3", "--out", "@out"])
@example(argv=["rerank", "--run", "@first.run", "--queries", "@dup_queries.jsonl",
               "--corpus", "@docs.jsonl", "--out", "@out"])
@example(argv=["select", "--embeddings", "@doc_embs.jsonl", "--algorithm", "random",
               "--k", "0", "--out", "@out"])
@example(argv=["select", "--embeddings", "@doc_embs.jsonl", "--algorithm", "kmeans",
               "--k", "2", "--seed", "-1", "--out", "@out"])
@example(argv=["retrieve", "--query-embeddings", "@query_embs.jsonl",
               "--doc-embeddings", "@doc_embs.jsonl", "--k", "x", "--out", "@out"])
@example(argv=["eval", "--run", "@first.run", "--qrels", "@qrels.txt",
               "--metrics", "ndcg@x", "--out", "@out"])
@example(argv=["rerank", "--run", "@gap.run", "--queries", "@queries.jsonl",
               "--corpus", "@docs.jsonl", "--parallelism", "2", "--out", "@out"])
@example(argv=["distill", "--queries", "@queries.jsonl",
               "--query-embeddings", "@partial_query_embs.jsonl",
               "--doc-embeddings", "@doc_embs.jsonl", "--out", "@out"])
@example(argv=["filter", "--query-embeddings", "@query_embs.jsonl",
               "--doc-embeddings", "@doc_embs.jsonl", "--seed", "3", "--out", "@out"])
@example(argv=["retrieve", "--query-embeddings", "@query_embs.jsonl",
               "--doc-embeddings", "@doc_embs.jsonl", "--parallelism", "2", "--out", "@out"])
@example(argv=["select", "--embeddings", "@doc_embs.jsonl", "--parallelism", "2",
               "--out", "@out"])
@example(argv=["rerank", "--run", "@first.run", "--queries", "@queries.jsonl",
               "--corpus", "@docs.jsonl", "--seed", "3", "--out", "@out"])
@example(argv=["rerank", "--run", "@first.run", "--queries", "@queries.jsonl",
               "--corpus", "@docs.jsonl", "--tag", "a b", "--out", "@out"])
@example(argv=["rerank", "--run", "@first.run", "--queries", "@queries.jsonl",
               "--corpus", "@docs.jsonl", "--listwise", "--pairwise", "--out", "@out"])
@example(argv=["rerank", "--run", "@first.run", "--queries", "@queries.jsonl",
               "--corpus", "@docs.jsonl", "--window-size", "1", "--stride", "1", "--out", "@out"])
@settings(max_examples=150, deadline=None)
def test_main_returns_an_exit_code_and_2_only_with_its_output(files, argv):
    out = files / "out"
    out.unlink(missing_ok=True)
    code = cli.main([str(files / a[1:]) if a.startswith("@") else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.exists()
