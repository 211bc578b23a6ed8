"""Output checks, one per workload, against references that do not use the
code under test (except where noted).

Each check returns ``(failed_items, notes)``: how many of the workload's
items (queries, or selection commands for select-ablation) have a wrong or
missing output in the checked pass, and one line per finding.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TOL = 1e-9


# --- independent TREC metrics, following rankkit's documented conventions ---


def read_qrels(path: str) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, did, grade = line.split()
            out.setdefault(qid, {})[did] = int(grade)
    return out


def read_run(path: str) -> dict[str, list[tuple[int, str, float]]]:
    out: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, did, rank, score, _tag = line.split()
            out.setdefault(qid, []).append((int(rank), did, float(score)))
    for rows in out.values():
        rows.sort()
    return out


def reference_metrics(qrels: dict, ranked: dict[str, list[str]]) -> dict[str, dict[str, float]]:
    """Per-query ndcg@10 (linear gain, ideal from all judged grades), mrr and
    recall@100 (grade >= 1 is relevant; queries with none are skipped)."""
    ndcg, rr, recall = {}, {}, {}
    for qid in sorted(qrels):
        grades = qrels[qid]
        docs = ranked.get(qid, [])
        ideal = sorted(grades.values(), reverse=True)[:10]
        idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        dcg = sum(grades.get(d, 0) / math.log2(r + 1) for r, d in enumerate(docs[:10], start=1))
        ndcg[qid] = dcg / idcg if idcg else 0.0
        rr[qid] = next((1.0 / r for r, d in enumerate(docs, start=1) if grades.get(d, 0) >= 1), 0.0)
        relevant = {d for d, g in grades.items() if g >= 1}
        if relevant:
            recall[qid] = sum(d in relevant for d in docs[:100]) / len(relevant)
    return {"ndcg@10": ndcg, "mrr": rr, "recall@100": recall}


def check_eval(path: str, qrels: dict, ranked: dict[str, list[str]]) -> tuple[set, list[str]]:
    """Compare an ``rankkit eval`` output file with the reference metrics."""
    with open(path, encoding="utf-8") as fh:
        got = {m["metric"]: m for m in json.load(fh)["metrics"]}
    bad: set[str] = set()
    notes = []
    for name, ref in reference_metrics(qrels, ranked).items():
        if name not in got:
            notes.append(f"eval: metric {name} missing")
            bad.update(ref)
            continue
        per_query = got[name]["per_query"]
        for qid, val in ref.items():
            if qid not in per_query or abs(per_query[qid] - val) > TOL:
                bad.add(qid)
        mean = sum(ref.values()) / len(ref) if ref else 0.0
        if abs(got[name]["mean"] - mean) > TOL:
            notes.append(f"eval: {name} mean {got[name]['mean']} != reference {mean}")
    if bad:
        notes.append(f"eval: {len(bad)} queries differ from the reference metrics")
    return bad, notes


# --- curate-distill ---


def _nearest(x: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    dists = np.linalg.norm(x - q, axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    return order, dists[order]


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


def check_curate_distill(spec: dict) -> tuple[int, list[str]]:
    work, chk = spec["work"], spec["check"]
    x = np.load(os.path.join(work, "docs.npy"))
    qv = np.load(os.path.join(work, "queries.npy"))
    qids = [f"q{i:04d}" for i in range(len(qv))]
    doc_ids = [f"d{i:06d}" for i in range(len(x))]
    bad: set[str] = set()
    notes: list[str] = []

    ref_top = {}
    kept = []
    for qid, q in zip(qids, qv):
        order, dists = _nearest(x, q, chk["k"])
        ref_top[qid] = ([doc_ids[i] for i in order], dists)
        if _cosine(q, x[order[0]]) >= chk["threshold"]:
            kept.append((qid, doc_ids[order[0]]))

    run = read_run(os.path.join(work, "retrieve.run"))
    for qid, (ids, dists) in ref_top.items():
        rows = run.get(qid, [])
        if [d for _, d, _ in rows] != ids or [r for r, _, _ in rows] != list(range(1, len(ids) + 1)):
            bad.add(qid)
        elif not np.allclose([s for _, _, s in rows], -dists, rtol=1e-12, atol=0.0):
            bad.add(qid)
    if bad:
        notes.append(f"retrieve: {len(bad)} queries differ from the brute-force top-{chk['k']}")

    with open(os.path.join(work, "filter.jsonl"), encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["meta"]
        got = [(r["query_id"], r["doc_id"]) for r in map(json.loads, fh)]
    if got != kept or meta["kept"] != len(kept) or meta["dropped_below"] != len(qids) - len(kept):
        notes.append(f"filter: kept {len(got)} pairs, reference keeps {len(kept)}")
        bad.update(q for q, _ in set(got) ^ set(kept))

    qrels = read_qrels(os.path.join(work, "qrels.txt"))
    eval_bad, eval_notes = check_eval(os.path.join(work, "eval.json"), qrels,
                                      {q: ids for q, (ids, _) in ref_top.items()})
    bad |= eval_bad
    notes += eval_notes

    # Identity teacher: every label keeps retrieval order with confidence 1,
    # so the budget keeps the first query ids in sorted order.
    with open(os.path.join(work, "labels.jsonl"), encoding="utf-8") as fh:
        manifest = json.loads(fh.readline())["manifest"]
        labels = [json.loads(line) for line in fh]
    expect = sorted(qids)[: chk["budget"]]
    if [lab["query_id"] for lab in labels] != expect or manifest["budget"] != chk["budget"]:
        notes.append(f"distill: labels for {[lab['query_id'] for lab in labels]}, expected {expect}")
        bad.update(set(expect) ^ {lab["query_id"] for lab in labels})
    for lab in labels:
        n = chk["top_k"]
        if (lab["candidate_ids"] != ref_top.get(lab["query_id"], ([],))[0][:n]
                or lab["teacher_perm"] != list(range(1, n + 1))
                or lab["confidence"] != 1.0 or lab["repair_count"] != 0):
            bad.add(lab["query_id"])
            notes.append(f"distill: label for {lab['query_id']} differs from the reference")
    if os.path.exists(os.path.join(work, "labels.jsonl.ckpt")):
        notes.append("distill: checkpoint file left behind")
    return len(bad), notes


# --- select-ablation ---


def _read_selection(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return [json.loads(line)["id"] for line in fh]


def _valid(ids: list[str], prefix: str, n: int, k: int) -> bool:
    return (len(ids) == k and len(set(ids)) == k
            and all(i.startswith(prefix) and i[1:].isdigit() and int(i[1:]) < n for i in ids))


def check_greedy(x: np.ndarray, chosen: list[int]) -> int:
    """Steps at which ``chosen`` is not the greedy choice: the unpicked record
    with the lowest mean cosine similarity to those picked before it, lowest
    index first among ties.  Step sums come from one matrix product per
    block of steps instead of rankkit's running mat-vec, so an exact tie is
    accepted within rounding."""
    u = x / np.linalg.norm(x, axis=1)[:, None]
    if chosen[0] != 0:
        return 1
    picked_at = np.full(len(x), len(chosen))
    picked_at[chosen] = np.arange(len(chosen))
    prefix = np.cumsum(u[chosen], axis=0)  # prefix[t-1] = sum of the first t picks
    wrong = 0
    for lo in range(1, len(chosen), 256):
        hi = min(len(chosen), lo + 256)
        steps = np.arange(lo, hi)
        avg = (u @ prefix[lo - 1:hi - 1].T) / steps
        avg[picked_at[:, None] < steps[None, :]] = np.inf
        best = avg.min(axis=0)
        got = avg[np.asarray(chosen[lo:hi]), np.arange(hi - lo)]
        wrong += int(np.sum(got > best + 1e-12 * np.maximum(1.0, np.abs(best))))
    return wrong


def reference_kmeans(x: np.ndarray, k: int, seed: int, iters: int = 50) -> tuple[list[int], int]:
    """Lloyd's k-means as rankkit specifies it, with the distance tensor built
    in row blocks so the reference needs no N x k x d temporary.  Returns the
    representatives and the number of assignment steps."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = x[rng.permutation(n)[:k]].copy()
    assign = np.zeros(n, dtype=int)
    steps = 0
    for it in range(iters):
        steps += 1
        d2 = np.vstack([((x[i:i + 256, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
                        for i in range(0, n, 256)])
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                new_assign[int(np.argmax(d2[np.arange(n), new_assign]))] = c
        if np.array_equal(new_assign, assign) and it > 0:
            assign = new_assign
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = x[assign == c].mean(axis=0)
    reps = []
    for c in range(k):
        members = np.flatnonzero(assign == c)
        reps.append(int(members[int(np.argmin(np.linalg.norm(x[members] - centroids[c], axis=1)))]))
    return reps, steps


def check_select_ablation(spec: dict) -> tuple[int, list[str]]:
    work, chk = spec["work"], spec["check"]
    failed = 0
    notes: list[str] = []
    xg = np.load(os.path.join(work, "greedy.npy"))
    ids = _read_selection(os.path.join(work, "greedy.sel.jsonl"))
    if not _valid(ids, "g", len(xg), chk["greedy_k"]):
        failed += 1
        notes.append("select greedy: not k distinct valid ids")
    else:
        wrong = check_greedy(xg, [int(i[1:]) for i in ids])
        if wrong:
            failed += 1
            notes.append(f"select greedy: {wrong} steps are not the greedy choice")
    xk = np.load(os.path.join(work, "kmeans.npy"))
    ids = _read_selection(os.path.join(work, "kmeans.sel.jsonl"))
    ref, iters = reference_kmeans(xk, chk["kmeans_k"], chk["kmeans_seed"])
    notes.append(f"select kmeans: reference took {iters} Lloyd iterations")
    if not _valid(ids, "k", len(xk), chk["kmeans_k"]):
        failed += 1
        notes.append("select kmeans: not k distinct valid ids")
    elif [int(i[1:]) for i in ids] != ref:
        failed += 1
        notes.append("select kmeans: differs from the reference")
    return failed, notes


# --- rerank-http ---


def reference_rerank(spec: dict, src: str) -> tuple[dict[str, list[str]], dict[str, int]]:
    """Reranked order per query from rankkit's own ``engine.rerank_many``
    in-process, with a backend that answers through the stub's reply
    function, plus a count of the stub's reply kinds."""
    import sys

    if src not in sys.path:
        sys.path.insert(0, src)
    import stub
    from rankkit import backends, engine, types

    work, seed = spec["work"], spec["seed"]
    kinds: dict[str, int] = {}

    class StubReplyBackend:
        supports_images = False
        max_candidates_hint = None

        def complete(self, prompt):
            messages = json.loads(json.dumps(backends.script_to_messages(prompt)))
            kind = stub.reply_kind(messages, seed)
            kinds[kind] = kinds.get(kind, 0) + 1
            return stub.reply(messages, seed)

    queries = types.read_queries(os.path.join(work, "queries.jsonl"))
    corpus = {d.id: d for d in types.read_documents(os.path.join(work, "corpus.jsonl"))}
    first = read_run(os.path.join(work, "first.run"))
    cands = {q: types.CandidateList(q, tuple(d for _, d, _ in rows), tuple(s for _, _, s in rows))
             for q, rows in first.items()}
    window = engine.WindowConfig(spec["check"]["window"], spec["check"]["stride"])
    results, failed = engine.rerank_many(queries, cands, corpus, StubReplyBackend(),
                                         window=window, parallelism=1)
    if failed:
        raise RuntimeError(f"reference rerank failed for {failed}")
    return {cl.query_id: list(cl.doc_ids) for cl in results}, kinds


def check_rerank_http(spec: dict, src: str) -> tuple[int, list[str], dict]:
    work = spec["work"]
    ref, kinds = reference_rerank(spec, src)
    run = read_run(os.path.join(work, "rerank.run"))
    bad = set()
    for qid, ids in ref.items():
        rows = run.get(qid, [])
        n = len(ids)
        if ([d for _, d, _ in rows] != ids or [r for r, _, _ in rows] != list(range(1, n + 1))
                or [s for _, _, s in rows] != [float(n - r) for r in range(n)]):
            bad.add(qid)
    notes = [f"rerank: {len(bad)} queries differ from the in-process reference"] if bad else []
    eval_bad, eval_notes = check_eval(os.path.join(work, "eval.json"),
                                      read_qrels(os.path.join(work, "qrels.txt")), ref)
    return len(bad | eval_bad), notes + eval_notes, kinds


# --- score-bulk ---


def reference_loss(scores: list[float], perm: list[int], tau: float) -> float:
    t = np.asarray(scores)[np.asarray(perm) - 1] / tau
    suffix_lse = np.logaddexp.accumulate(t[::-1])[::-1]
    return float(np.sum(suffix_lse - t))


def check_score_bulk(spec: dict) -> tuple[int, list[str]]:
    work, tau = spec["work"], spec["check"]["tau"]
    qrels = read_qrels(os.path.join(work, "qrels.txt"))
    run = read_run(os.path.join(work, "bulk.run"))
    bad, notes = check_eval(os.path.join(work, "eval.json"), qrels,
                            {q: [d for _, d, _ in rows] for q, rows in run.items()})
    with open(os.path.join(work, "loss_grad.json"), encoding="utf-8") as fh:
        got = json.load(fh)
    missing = set(run) - set(got)
    bad |= missing
    for qid, rec in got.items():
        if not abs(rec["grad_sum"]) <= 1e-9 * max(1.0, rec["grad_abs_max"]) * len(run[qid]):
            bad.add(qid)
            notes.append(f"loss_grad: gradient of {qid} sums to {rec['grad_sum']}")
    # The loss itself on a fixed sample of queries, against a log-space reference.
    for qid in sorted(run)[:: max(1, len(run) // 50)]:
        rows = run[qid]
        g = qrels.get(qid, {})
        perm = [i + 1 for i in sorted(range(len(rows)), key=lambda i: (-g.get(rows[i][1], 0), i))]
        ref = reference_loss([s for _, _, s in rows], perm, tau)
        if qid not in got or abs(got[qid]["loss"] - ref) > 1e-9 * max(1.0, abs(ref)):
            bad.add(qid)
            notes.append(f"loss_grad: loss of {qid} differs from the reference")
    return len(bad), notes
