"""Acceptance suite.

Each test prints one PASS/FAIL line so the whole contract can be read
off a ``pytest -v -s`` run.  Tolerances are part of the contract and
must not be loosened.
"""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np
import pytest
from helpers import write_documents
from oracles import brute_force_diversity_oracle

from rankkit import cli
from rankkit.embedding import EmbeddingRecord, EmbeddingRows, greedy_diversity_select
from rankkit.errors import Unparseable
from rankkit.metrics import (
    mrr, ndcg_at_k, ranked_by_query, read_run, recall_at_k, run_from_candidates, write_run,
)
from rankkit.parsing import parse_ranking, render_ranking
from rankkit.ranking_math import listwise_loss, listwise_loss_grad, plackett_luce_prob
from rankkit.types import Document, Permutation


def verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


class TestRankingModel:
    def test_probability_normalization_and_loss_consistency(self):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        max_sum_err = 0.0
        max_loss_err = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            scores = rng.normal(scale=2.0, size=n)
            total = 0.0
            for order in itertools.permutations(range(1, n + 1)):
                total += plackett_luce_prob(scores, Permutation(order))
            max_sum_err = max(max_sum_err, abs(total - 1.0))
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            perm = Permutation(tuple(rng.permutation(n) + 1))
            loss = listwise_loss(scores, perm, tau).loss
            ref = -math.log(plackett_luce_prob(scores / tau, perm))
            max_loss_err = max(max_loss_err, abs(loss - ref))
        elapsed = time.monotonic() - start
        verdict(
            "ranking model: permutation probabilities sum to 1 and loss matches "
            f"-log prob within 1e-9 (sum err {max_sum_err:.2e}, loss err "
            f"{max_loss_err:.2e}, {elapsed:.1f}s)",
            max_sum_err < 1e-9 and max_loss_err < 1e-9 and elapsed < 10.0,
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        worst_rel = 0.0
        worst_sum = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            scores = rng.normal(scale=1.5, size=n)
            tau = float(rng.choice([0.1, 1.0]))
            perm = Permutation(tuple(rng.permutation(n) + 1))
            grad = listwise_loss_grad(scores, perm, tau)
            fd = np.empty(n)
            for k in range(n):
                up, down = scores.copy(), scores.copy()
                up[k] += h
                down[k] -= h
                fd[k] = (listwise_loss(up, perm, tau).loss
                         - listwise_loss(down, perm, tau).loss) / (2 * h)
            # zero components of the true gradient are compared absolutely
            denom = np.maximum(np.abs(fd), 1e-3)
            worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd) / denom)))
            worst_sum = max(worst_sum, abs(float(grad.sum())))
        verdict(
            "gradient: analytic matches central differences within 1e-4 and sums "
            f"to 0 within 1e-9 (max rel err {worst_rel:.2e}, max sum {worst_sum:.2e})",
            worst_rel < 1e-4 and worst_sum < 1e-9,
        )

    def test_uniform_scores_give_log_factorial_loss(self):
        loss = listwise_loss([0.4, 0.4, 0.4], Permutation((2, 3, 1)), tau=1.0).loss
        err = abs(loss - math.log(6))
        verdict(
            f"uniform scores: n=3 loss equals ln 6 within 1e-9 (err {err:.2e})",
            err < 1e-9,
        )


class TestDiversitySelection:
    def test_greedy_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        start = time.monotonic()
        ok = True
        for _ in range(200):
            n = int(rng.integers(2, 16))
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(n, 6) + 1))
            recs = EmbeddingRows(rng.normal(size=(n, d)), [f"r{i}" for i in range(n)])
            fast = greedy_diversity_select(recs, k)
            slow = brute_force_diversity_oracle(recs, k)
            ok = ok and fast.selected_ids == slow.selected_ids
            scaled = EmbeddingRows(recs.matrix * 3.7, recs.ids)
            ok = ok and greedy_diversity_select(scaled, k).selected_ids == fast.selected_ids
        elapsed = time.monotonic() - start
        verdict(
            "diversity selection: greedy equals the brute-force oracle on 200 "
            f"instances and is scale invariant ({elapsed:.1f}s)",
            ok and elapsed < 30.0,
        )

    def test_large_scale_selection_under_budget(self):
        rng = np.random.default_rng(3)
        n, d, k = 50_000, 512, 2_100
        recs = EmbeddingRows(rng.normal(size=(n, d)), [f"r{i}" for i in range(n)])
        start = time.monotonic()
        result = greedy_diversity_select(recs, k)
        elapsed = time.monotonic() - start
        prefix = recs[:15]
        spot = greedy_diversity_select(prefix, 5).selected_ids == \
            brute_force_diversity_oracle(prefix, 5).selected_ids
        verdict(
            f"diversity selection: 50k x 512 picks {k} records in {elapsed:.0f}s "
            "(limit 600s) and spot-matches the oracle on a 15-record prefix",
            len(result.selected_ids) == k and elapsed < 600.0 and spot,
        )


def reference_metrics(grades, ranked, k, rel_threshold=1):
    """Deliberately naive re-implementation used only to cross-check."""
    def gain(g):
        return float(g)

    dcg = sum(gain(grades.get(doc, 0)) / math.log2(pos + 2)
              for pos, doc in enumerate(ranked[:k]))
    ideal = sorted((gain(g) for g in grades.values()), reverse=True)[:k]
    idcg = sum(g / math.log2(pos + 2) for pos, g in enumerate(ideal))
    ndcg = dcg / idcg if idcg > 0 else 0.0

    rr = 0.0
    for pos, doc in enumerate(ranked):
        if grades.get(doc, 0) >= rel_threshold:
            rr = 1.0 / (pos + 1)
            break

    relevant = {doc for doc, g in grades.items() if g >= rel_threshold}
    recall = None
    if relevant:
        recall = len(relevant & set(ranked[:k])) / len(relevant)
    return ndcg, rr, recall


class TestMetricOracle:
    def test_against_independent_reimplementation(self):
        rng = np.random.default_rng(5)
        ok = True
        for case in range(100):
            n = int(rng.integers(3, 20))
            grades = {f"d{i}": int(g) for i, g in enumerate(rng.integers(0, 4, size=n))}
            ranked = [f"d{i}" for i in rng.permutation(n)]
            from rankkit.metrics import Qrels

            qrels = Qrels()
            for doc, g in grades.items():
                qrels.add("q", doc, g)
            run = ranked_by_query(run_from_candidates("q", ranked))
            for k in (10, 50):
                ref, _, _ = reference_metrics(grades, ranked, k)
                got = ndcg_at_k(qrels, run, k).per_query["q"]
                ok = ok and abs(got - ref) < 1e-12
            _, ref_rr, _ = reference_metrics(grades, ranked, n)
            ok = ok and abs(mrr(qrels, run).per_query["q"] - ref_rr) < 1e-12
            for k in (1, 3, 5):
                _, _, ref_rec = reference_metrics(grades, ranked, k)
                report = recall_at_k(qrels, run, k)
                if ref_rec is None:
                    ok = ok and "q" not in report.per_query
                else:
                    ok = ok and abs(report.per_query["q"] - ref_rec) < 1e-12
                    ok = ok and abs(report.extras["macro"] - report.extras["micro"]) < 1e-12
        verdict(
            "metrics: nDCG@{10,50}, MRR and Recall@{1,3,5} match an independent "
            "re-implementation on 100 fixtures to 1e-12",
            ok,
        )

    def test_hand_derived_ndcg_fixture(self):
        from rankkit.metrics import Qrels

        qrels = Qrels()
        qrels.add("q1", "d1", 3)
        qrels.add("q1", "d2", 1)
        ranked = ranked_by_query(run_from_candidates("q1", ["d2", "d1"]))
        got = ndcg_at_k(qrels, ranked, 10).per_query["q1"]
        expected = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        verdict(
            f"metrics: hand-derived nDCG fixture matches within 1e-9 "
            f"(err {abs(got - expected):.2e})",
            abs(got - expected) < 1e-9,
        )


class TestParserTotality:
    def test_fuzzed_strings_never_yield_malformed_output(self):
        rng = np.random.default_rng(17)
        alphabets = [
            list("[]0123456789> "),
            list("[]0123456789> abcdefXYZ,;.\n\t-"),
            [chr(c) for c in range(32, 127)],
        ]
        ok = True
        for trial in range(10_000):
            chars = alphabets[trial % len(alphabets)]
            length = int(rng.integers(0, 60))
            raw = "".join(rng.choice(chars, size=length))
            n = int(rng.integers(1, 12))
            try:
                perm, _ = parse_ranking(raw, n)
            except Unparseable:
                continue
            ok = ok and sorted(perm.order) == list(range(1, n + 1))
        for n in (1, 2, 5, 9):
            for _ in range(20):
                perm = Permutation(tuple(rng.permutation(n) + 1))
                reparsed, log = parse_ranking(render_ranking(perm), n)
                ok = ok and reparsed == perm and log.count == 0
        verdict(
            "parser: 10,000 fuzzed strings give a valid permutation or a parse "
            "error, and render/parse round-trips exactly",
            ok,
        )


@pytest.fixture(scope="class")
def rerank_workspace(tmp_path_factory):
    """50 queries x 100 candidates with distinct relevance grades."""
    root = tmp_path_factory.mktemp("e2e")
    rng = np.random.default_rng(23)
    n_docs, n_queries = 100, 50
    docs = [Document(id=f"d{i}", text=f"passage {i}") for i in range(n_docs)]
    write_documents(docs, str(root / "corpus.jsonl"))
    with open(root / "queries.jsonl", "w") as fh:
        for i in range(n_queries):
            fh.write(json.dumps({"id": f"q{i}", "text": f"query {i}"}) + "\n")
    entries = []
    qrels_lines = []
    for i in range(n_queries):
        order = [f"d{j}" for j in rng.permutation(n_docs)]
        entries.extend(run_from_candidates(f"q{i}", order, tag="first"))
        # grades are distinct and independent of the first-stage order, so a
        # perfect score is only reachable by actually moving documents
        for grade, j in enumerate(rng.permutation(n_docs)):
            qrels_lines.append(f"q{i} 0 d{j} {grade}")
    write_run(entries, str(root / "input.run"))
    (root / "qrels.txt").write_text("\n".join(qrels_lines) + "\n")
    return root


class TestEndToEndRerank:
    def test_oracle_and_identity_mock_pipelines(self, rerank_workspace):
        ws = rerank_workspace
        start = time.monotonic()
        code1 = cli.main([
            "rerank", "--listwise",
            "--run", str(ws / "input.run"),
            "--queries", str(ws / "queries.jsonl"),
            "--corpus", str(ws / "corpus.jsonl"),
            "--backend", "oracle", "--qrels", str(ws / "qrels.txt"),
            "--out", str(ws / "oracle.run"),
        ])
        with contextlib.redirect_stdout(io.StringIO()):
            code2 = cli.main([
                "eval", "--run", str(ws / "oracle.run"),
                "--qrels", str(ws / "qrels.txt"),
                "--metrics", "ndcg@10",
                "--out", str(ws / "report.json"),
            ])
        code3 = cli.main([
            "rerank", "--listwise",
            "--run", str(ws / "input.run"),
            "--queries", str(ws / "queries.jsonl"),
            "--corpus", str(ws / "corpus.jsonl"),
            "--backend", "identity",
            "--out", str(ws / "identity.run"),
        ])
        elapsed = time.monotonic() - start
        report = json.loads((ws / "report.json").read_text())
        ndcg = report["metrics"][0]
        perfect = ndcg["mean"] == 1.0 and all(v == 1.0 for v in ndcg["per_query"].values())
        inp = read_run(str(ws / "input.run"))
        ident = read_run(str(ws / "identity.run"))
        order_kept = [(e.query_id, e.doc_id, e.rank) for e in ident] == \
            [(e.query_id, e.doc_id, e.rank) for e in inp]
        from rankkit.metrics import read_qrels

        qrels = read_qrels(str(ws / "qrels.txt"))
        input_score = ndcg_at_k(qrels, ranked_by_query(inp), 10).mean
        moved = input_score < 1.0
        verdict(
            "end to end: oracle mock rerank lifts nDCG@10 from "
            f"{input_score:.3f} to 1.0 exactly and the identity mock preserves "
            f"input order ({elapsed:.1f}s, no network)",
            code1 == 0 and code2 == 0 and code3 == 0
            and perfect and order_kept and moved and elapsed < 30.0,
        )


class TestDistillationDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        from rankkit.embedding import write_embeddings

        docs = [Document(id=f"d{i}", text=f"passage {i}") for i in range(20)]
        write_documents(docs, str(tmp_path / "corpus.jsonl"))
        with open(tmp_path / "queries.jsonl", "w") as fh:
            for i in range(6):
                fh.write(json.dumps({"id": f"q{i}", "text": f"query {i}"}) + "\n")
        write_embeddings(
            [EmbeddingRecord(d.id, rng.normal(size=8)) for d in docs],
            str(tmp_path / "doc_embs.jsonl"))
        write_embeddings(
            [EmbeddingRecord(f"q{i}", rng.normal(size=8)) for i in range(6)],
            str(tmp_path / "query_embs.jsonl"))
        blobs = []
        for name in ("one.jsonl", "two.jsonl"):
            code = cli.main([
                "distill",
                "--queries", str(tmp_path / "queries.jsonl"),
                "--query-embeddings", str(tmp_path / "query_embs.jsonl"),
                "--doc-embeddings", str(tmp_path / "doc_embs.jsonl"),
                "--backend", "identity", "--seed", "9", "--top-k", "5",
                "--out", str(tmp_path / name),
            ])
            assert code == 0
            blobs.append((tmp_path / name).read_bytes())
        verdict(
            "distillation: repeated runs with the same seed, config and mock "
            "backend produce byte-identical label files",
            blobs[0] == blobs[1],
        )

    def test_confidence_filter_size_and_order(self):
        from rankkit.pipeline import TeacherLabel, confidence_filter

        rng = np.random.default_rng(41)
        labels = [
            TeacherLabel(f"q{i}", ("a", "b"), Permutation((1, 2)), confidence=float(c))
            for i, c in enumerate(rng.uniform(-1, 1, size=40))
        ]
        ok = True
        for budget in (1, 17, 40, 99):
            kept = confidence_filter(labels, budget)
            ok = ok and len(kept) == min(budget, len(labels))
            ok = ok and all(a.confidence >= b.confidence for a, b in zip(kept, kept[1:]))
        verdict(
            "distillation: confidence filter keeps min(budget, count) labels in "
            "non-increasing confidence order",
            ok,
        )


class TestTrecIO:
    def test_roundtrip_and_malformed_rejection(self, tmp_path):
        from rankkit.errors import MalformedLine
        from rankkit.metrics import read_qrels

        canonical_run = (
            "q1 Q0 d3 1 3.0 tag\n"
            "q1 Q0 d1 2 2.0 tag\n"
            "q2 Q0 d2 1 0.5 tag\n"
        )
        (tmp_path / "in.run").write_text(canonical_run)
        write_run(read_run(str(tmp_path / "in.run")), str(tmp_path / "out.run"))
        run_ok = (tmp_path / "out.run").read_text() == canonical_run

        canonical_qrels = "q1 0 d3 2\nq1 0 d1 0\nq2 0 d2 1\n"
        (tmp_path / "qrels.txt").write_text(canonical_qrels)
        qrels = read_qrels(str(tmp_path / "qrels.txt"))
        qrels_ok = qrels.judgments == {
            ("q1", "d3"): 2, ("q1", "d1"): 0, ("q2", "d2"): 1,
        }

        (tmp_path / "bad.run").write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2\n")
        (tmp_path / "bad_qrels.txt").write_text("q1 0 d1 1\nnope\n")
        lineno_ok = True
        try:
            read_run(str(tmp_path / "bad.run"))
            lineno_ok = False
        except MalformedLine as exc:
            lineno_ok = lineno_ok and exc.lineno == 2
        try:
            read_qrels(str(tmp_path / "bad_qrels.txt"))
            lineno_ok = False
        except MalformedLine as exc:
            lineno_ok = lineno_ok and exc.lineno == 2
        verdict(
            "trec io: canonical qrels/run files round-trip byte-exact and "
            "malformed lines are rejected with their line numbers",
            run_ok and qrels_ok and lineno_ok,
        )
