"""End-to-end synthetic reranking experiment with mock backends.

Builds a synthetic retrieval task (queries, candidates, graded qrels),
reranks the shuffled first-stage run with each mock backend, and prints
nDCG@10 and MRR before and after. The oracle backend shows the sliding
window ceiling; the identity backend is a no-op control.
"""

import argparse
import contextlib
import logging
import tempfile
from pathlib import Path

import numpy as np

from rankkit.backends import IdentityBackend, OracleBackend, ReverseBackend
from rankkit.engine import WindowConfig, rerank_many
from rankkit.metrics import Qrels, mrr, ndcg_at_k, ranked_by_query, run_from_candidates, write_run
from rankkit.types import CandidateList, Document, Query

logger = logging.getLogger("run_synthetic_rerank")


def build_task(n_queries, n_candidates, seed):
    rng = np.random.default_rng(seed)
    docs = {f"d{i}": Document(id=f"d{i}", text=f"passage {i}") for i in range(n_candidates)}
    queries, lists, qrels = [], {}, Qrels()
    for i in range(n_queries):
        qid = f"q{i}"
        queries.append(Query(id=qid, text=f"query {i}"))
        order = [f"d{j}" for j in rng.permutation(n_candidates)]
        lists[qid] = CandidateList(qid, tuple(order))
        # a handful of graded relevant docs per query, independent of the
        # first-stage order, so reranking has room to improve
        relevant = rng.choice(n_candidates, size=5, replace=False)
        for grade, j in enumerate(relevant, start=1):
            qrels.add(qid, f"d{j}", grade)
    return queries, lists, docs, qrels


def evaluate(qrels, run):
    ranked = ranked_by_query(run)
    return (ndcg_at_k(qrels, ranked, 10).mean,
            mrr(qrels, ranked, rel_threshold=1).mean)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--candidates", type=int, default=100)
    parser.add_argument("--window-size", type=int, default=20)
    parser.add_argument("--stride", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", help="also write the run files here")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    queries, lists, docs, qrels = build_task(args.queries, args.candidates, args.seed)
    window = WindowConfig(args.window_size, args.stride)
    # without --out-dir the run files go to a directory removed at the end
    keep = contextlib.nullcontext(args.out_dir) if args.out_dir else tempfile.TemporaryDirectory()
    with keep as out:
        report(queries, lists, docs, qrels, window, Path(out))
    if args.out_dir:
        logger.info("run files written to %s", args.out_dir)


def report(queries, lists, docs, qrels, window, out_dir):
    """Print nDCG@10 and MRR of the input run and of each mock backend's
    rerank, writing each reranked run to ``out_dir``."""
    baseline = []
    for q in queries:
        baseline.extend(run_from_candidates(q.id, lists[q.id].doc_ids, tag="first"))
    ndcg0, mrr0 = evaluate(qrels, baseline)
    print(f"{'backend':<10} {'nDCG@10':>9} {'MRR':>9}")
    print(f"{'(input)':<10} {ndcg0:>9.4f} {mrr0:>9.4f}")

    backends = {
        "identity": IdentityBackend(),
        "reverse": ReverseBackend(),
        "oracle": OracleBackend(qrels.judgments),
    }
    for name, backend in backends.items():
        results, failed = rerank_many(queries, lists, docs, backend, window=window)
        if failed:
            logger.warning("%s backend failed on %d queries", name, len(failed))
        run = []
        for cl in results:
            run.extend(run_from_candidates(cl.query_id, cl.doc_ids, tag=name))
        n, m = evaluate(qrels, run)
        print(f"{name:<10} {n:>9.4f} {m:>9.4f}")
        write_run(run, str(out_dir / f"{name}.run"))

if __name__ == "__main__":
    main()
