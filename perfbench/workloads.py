"""Seeded input generators and per-pass command plans for the four workloads.

Each workload writes its inputs into a work directory and returns a spec:
the input sizes, the steps of one pass, the files a pass writes, and what
the output checks need.  A step is ``[name, argv or library-step config,
cpu_bound]``; a step that is not CPU-bound (it waits on the stub) is timed
as measured, the others at reference speed (``speed.py``).  The same
seed always yields byte-identical inputs.  Only the generated files reach
rankkit; the seed never does.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Sizes are scaled so that one pass fits several times into one run of
# BENCHMARK.json's run_seconds on a 2-core box.  "small" is for the
# benchmark's own tests.
SIZES = {
    "curate-distill": {
        "full": {"n_docs": 6000, "dim": 384, "clusters": 40, "n_queries": 16},
        "small": {"n_docs": 400, "dim": 32, "clusters": 8, "n_queries": 10},
    },
    "select-ablation": {
        "full": {"greedy_n": 8000, "greedy_dim": 256, "greedy_k": 2100,
                 "kmeans_n": 8000, "kmeans_dim": 8, "kmeans_k": 32, "clusters": 64},
        "small": {"greedy_n": 300, "greedy_dim": 16, "greedy_k": 40,
                  "kmeans_n": 600, "kmeans_dim": 4, "kmeans_k": 6, "clusters": 12},
    },
    "rerank-http": {
        "full": {"n_queries": 30, "cands": 100, "doc_words": 80, "vocab": 4000,
                 "window": 20, "stride": 10, "parallelism": 2, "latency_ms": 20.0},
        "small": {"n_queries": 4, "cands": 30, "doc_words": 20, "vocab": 500,
                  "window": 20, "stride": 10, "parallelism": 2, "latency_ms": 1.0},
    },
    "score-bulk": {
        "full": {"n_queries": 800, "cands": 100, "judged": 10, "pool": 50000, "tau": 0.1},
        "small": {"n_queries": 40, "cands": 30, "judged": 6, "pool": 2000, "tau": 0.1},
    },
}

WORKLOADS = tuple(SIZES)

EVAL_METRICS = "ndcg@10,mrr,recall@100"

# k-means runs on low-dimensional records with many points per cluster.
# There Lloyd's iterations reach rankkit's cap of 50 for any input seed, so
# the work in a pass does not depend on the seed's initial draw.
KMEANS_SEED = 11


def _write_vectors(path: str, ids: list[str], x: np.ndarray) -> None:
    """JSONL embeddings with four decimals.  ``x`` must already be rounded to
    four decimals, so parsing a written value gives back exactly ``x``."""
    fmt = "[" + ", ".join(["%.4f"] * x.shape[1]) + "]"
    with open(path, "w", encoding="utf-8") as fh:
        for ident, row in zip(ids, x.tolist()):
            fh.write('{"id": "%s", "vector": ' % ident + fmt % tuple(row) + "}\n")


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_qrels(path: str, judgments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, did, grade in judgments:
            fh.write(f"{qid} 0 {did} {grade}\n")


def _clustered(rng: np.random.Generator, n: int, dim: int, clusters: int,
               spread: float) -> tuple[np.ndarray, np.ndarray]:
    centers = rng.standard_normal((clusters, dim))
    labels = rng.integers(0, clusters, n)
    x = np.round(centers[labels] + spread * rng.standard_normal((n, dim)), 4)
    return x, labels


def gen_curate_distill(rng: np.random.Generator, work: str, size: dict) -> dict:
    n, dim, q = size["n_docs"], size["dim"], size["n_queries"]
    x, labels = _clustered(rng, n, dim, size["clusters"], 0.6)
    doc_ids = [f"d{i:06d}" for i in range(n)]
    qids = [f"q{i:04d}" for i in range(q)]
    qvecs = np.empty((q, dim))
    judgments = []
    for i, qid in enumerate(qids):
        if i % 5 == 4:
            # Off-topic query: its nearest document fails the cosine filter.
            qvecs[i] = rng.standard_normal(dim)
            judgments.append((qid, doc_ids[int(rng.integers(n))], 1))
            continue
        anchor = int(rng.integers(n))
        qvecs[i] = x[anchor] + 0.3 * rng.standard_normal(dim)
        judgments.append((qid, doc_ids[anchor], 2))
        same = np.flatnonzero(labels == labels[anchor])
        same = same[same != anchor]
        for j in rng.choice(same, size=min(9, same.size), replace=False):
            judgments.append((qid, doc_ids[int(j)], 1))
    qvecs = np.round(qvecs, 4)
    p = lambda name: os.path.join(work, name)  # noqa: E731
    _write_vectors(p("docs.emb.jsonl"), doc_ids, x)
    _write_vectors(p("queries.emb.jsonl"), qids, qvecs)
    np.save(p("docs.npy"), x)
    np.save(p("queries.npy"), qvecs)
    _write_jsonl(p("queries.jsonl"), ({"id": qid, "text": f"synthetic query {qid}"} for qid in qids))
    _write_qrels(p("qrels.txt"), judgments)
    budget = q * 3 // 4
    common = ["--query-embeddings", p("queries.emb.jsonl"), "--doc-embeddings", p("docs.emb.jsonl")]
    return {
        "inputs": {"n_docs": n, "dim": dim, "n_queries": q, "judgments": len(judgments),
                   "corpus_matrix_mb": round(x.nbytes / 2**20, 1),
                   "docs_file_mb": round(os.path.getsize(p("docs.emb.jsonl")) / 2**20, 1)},
        "steps": [
            ["filter", ["filter", *common, "--out", p("filter.jsonl")], True],
            ["retrieve", ["retrieve", *common, "--k", "100", "--out", p("retrieve.run")], True],
            ["eval", ["eval", "--run", p("retrieve.run"), "--qrels", p("qrels.txt"),
                      "--metrics", EVAL_METRICS, "--out", p("eval.json")], True],
            ["distill", ["distill", "--queries", p("queries.jsonl"), *common,
                         "--top-k", "20", "--backend", "identity", "--budget", str(budget),
                         "--budget-filter", "--out", p("labels.jsonl")], True],
        ],
        "outputs": ["filter.jsonl", "retrieve.run", "eval.json", "labels.jsonl"],
        "items": q,
        "check": {"budget": budget, "top_k": 20, "k": 100, "threshold": 0.25},
    }


def gen_select_ablation(rng: np.random.Generator, work: str, size: dict) -> dict:
    p = lambda name: os.path.join(work, name)  # noqa: E731
    xg, _ = _clustered(rng, size["greedy_n"], size["greedy_dim"], size["clusters"], 1.0)
    xk, _ = _clustered(rng, size["kmeans_n"], size["kmeans_dim"], size["clusters"], 1.0)
    _write_vectors(p("greedy.emb.jsonl"), [f"g{i:06d}" for i in range(len(xg))], xg)
    _write_vectors(p("kmeans.emb.jsonl"), [f"k{i:06d}" for i in range(len(xk))], xk)
    np.save(p("greedy.npy"), xg)
    np.save(p("kmeans.npy"), xk)
    return {
        "inputs": {k: size[k] for k in ("greedy_n", "greedy_dim", "greedy_k", "kmeans_n",
                                         "kmeans_dim", "kmeans_k")},
        "steps": [
            ["select_greedy", ["select", "--embeddings", p("greedy.emb.jsonl"),
                               "--algorithm", "greedy", "--k", str(size["greedy_k"]),
                               "--out", p("greedy.sel.jsonl")], True],
            ["select_kmeans", ["select", "--embeddings", p("kmeans.emb.jsonl"),
                               "--algorithm", "kmeans", "--k", str(size["kmeans_k"]),
                               "--seed", str(KMEANS_SEED), "--out", p("kmeans.sel.jsonl")], True],
        ],
        "outputs": ["greedy.sel.jsonl", "kmeans.sel.jsonl"],
        "items": 2,
        "check": {"greedy_k": size["greedy_k"], "kmeans_k": size["kmeans_k"],
                  "kmeans_seed": KMEANS_SEED},
    }


def _vocab(rng: np.random.Generator, n: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < n:
        words.add("".join(letters[rng.integers(0, 26, int(rng.integers(4, 10)))]))
    return sorted(words)


def gen_rerank_http(rng: np.random.Generator, work: str, size: dict) -> dict:
    p = lambda name: os.path.join(work, name)  # noqa: E731
    vocab = _vocab(rng, size["vocab"])
    nq, cands, words = size["n_queries"], size["cands"], size["doc_words"]
    queries, docs, run_lines, judgments = [], [], [], []
    for i in range(nq):
        qid = f"q{i:04d}"
        topic = [vocab[int(j)] for j in rng.choice(len(vocab), 4, replace=False)]
        queries.append({"id": qid, "text": " ".join(topic)})
        for r in range(cands):
            did = f"{qid}-d{r:03d}"
            body = [vocab[int(j)] for j in rng.integers(0, len(vocab), words)]
            grade = int(rng.choice(3, p=[0.7, 0.2, 0.1]))
            for slot, w in zip(rng.choice(words, grade * 2, replace=False), topic * 2):
                body[int(slot)] = w
            docs.append({"id": did, "text": " ".join(body)})
            if grade:
                judgments.append((qid, did, grade))
        # First stage: a random order with descending scores.
        for rank, r in enumerate(rng.permutation(cands), start=1):
            run_lines.append(f"{qid} Q0 {qid}-d{int(r):03d} {rank} {float(cands - rank)} bm25\n")
    _write_jsonl(p("queries.jsonl"), queries)
    _write_jsonl(p("corpus.jsonl"), docs)
    _write_qrels(p("qrels.txt"), judgments)
    with open(p("first.run"), "w", encoding="utf-8") as fh:
        fh.writelines(run_lines)
    windows = 1 + -(-(cands - size["window"]) // size["stride"]) if cands > size["window"] else 1
    return {
        "inputs": {"n_queries": nq, "cands": cands, "doc_words": words, "corpus_docs": len(docs),
                   "window": size["window"], "stride": size["stride"],
                   "windows_per_query": windows, "parallelism": size["parallelism"],
                   "stub_latency_ms": size["latency_ms"]},
        "steps": [
            ["rerank", ["rerank", "--run", p("first.run"), "--queries", p("queries.jsonl"),
                        "--corpus", p("corpus.jsonl"), "--listwise", "--backend", "http",
                        "--endpoint", "{endpoint}", "--model", "stub",
                        "--parallelism", str(size["parallelism"]),
                        "--window-size", str(size["window"]), "--stride", str(size["stride"]),
                        "--out", p("rerank.run")], False],
            ["eval", ["eval", "--run", p("rerank.run"), "--qrels", p("qrels.txt"),
                      "--metrics", EVAL_METRICS, "--out", p("eval.json")], True],
        ],
        "outputs": ["rerank.run", "eval.json"],
        "items": nq,
        "stub": {"latency_ms": size["latency_ms"]},
        "check": {"window": size["window"], "stride": size["stride"]},
    }


def gen_score_bulk(rng: np.random.Generator, work: str, size: dict) -> dict:
    p = lambda name: os.path.join(work, name)  # noqa: E731
    nq, cands, judged, pool = size["n_queries"], size["cands"], size["judged"], size["pool"]
    run_lines, judgments = [], []
    for i in range(nq):
        qid = f"q{i:05d}"
        docs = rng.choice(pool, cands, replace=False)
        gaps = np.round(rng.exponential(0.25, cands), 6)
        scores = np.round(30.0 - np.cumsum(gaps), 6)
        for rank, (d, s) in enumerate(zip(docs, scores), start=1):
            run_lines.append(f"{qid} Q0 d{int(d):06d} {rank} {float(s)!r} bulk\n")
        # About 70% of the judged docs were retrieved, the rest were missed.
        n_in = int(round(judged * 0.7))
        in_run = rng.choice(docs, n_in, replace=False)
        retrieved = set(docs.tolist())
        missed = [d for d in rng.choice(pool, judged * 2, replace=False) if d not in retrieved]
        for d in list(in_run) + missed[: judged - n_in]:
            judgments.append((qid, f"d{int(d):06d}", int(rng.integers(0, 4))))
    with open(p("bulk.run"), "w", encoding="utf-8") as fh:
        fh.writelines(run_lines)
    _write_qrels(p("qrels.txt"), judgments)
    return {
        "inputs": {"n_queries": nq, "cands": cands, "run_entries": len(run_lines),
                   "judgments": len(judgments), "tau": size["tau"]},
        "steps": [
            ["eval", ["eval", "--run", p("bulk.run"), "--qrels", p("qrels.txt"),
                      "--metrics", EVAL_METRICS, "--out", p("eval.json")], True],
            ["loss_grad", {"run": p("bulk.run"), "qrels": p("qrels.txt"),
                           "tau": size["tau"], "out": p("loss_grad.json")}, True],
        ],
        "outputs": ["eval.json", "loss_grad.json"],
        "items": nq,
        "check": {"tau": size["tau"]},
    }


GENERATORS = {
    "curate-distill": gen_curate_distill,
    "select-ablation": gen_select_ablation,
    "rerank-http": gen_rerank_http,
    "score-bulk": gen_score_bulk,
}


def generate(workload: str, seed: int, work: str, size: str = "full") -> dict:
    """Write the workload's inputs under ``work`` and return its spec."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = GENERATORS[workload](rng, work, SIZES[workload][size])
    spec.update(workload=workload, seed=seed, size=size, work=work)
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return spec
