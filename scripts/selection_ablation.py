"""Compare coreset selection strategies on synthetic clustered embeddings.

Generates a Gaussian-mixture corpus, runs greedy max-diversity selection
against the random and k-means baselines, and reports two proxies for
coverage: mean pairwise cosine similarity within the selection (lower is
more diverse) and the number of distinct source clusters hit.
"""

import argparse
import logging

import numpy as np

from rankkit.embedding import (
    EmbeddingRows,
    greedy_diversity_select,
    kmeans_centroid_select,
    random_select,
)

logger = logging.getLogger("selection_ablation")


def make_corpus(n, d, clusters, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(clusters, d))
    assignments = rng.integers(0, clusters, size=n)
    vectors = centers[assignments] + rng.normal(scale=0.5, size=(n, d))
    rows = EmbeddingRows(vectors, [f"r{i}" for i in range(n)])
    cluster_of = {f"r{i}": int(assignments[i]) for i in range(n)}
    return rows, cluster_of


def mean_pairwise_similarity(rows, selected_ids):
    by_id = dict(zip(rows.ids, rows.matrix))
    x = np.stack([by_id[i] for i in selected_ids])
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    sims = x @ x.T
    n = len(selected_ids)
    return float((sims.sum() - n) / (n * (n - 1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--clusters", type=int, default=12)
    parser.add_argument("--k", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    rows, cluster_of = make_corpus(args.n, args.dim, args.clusters, args.seed)
    strategies = {
        "greedy": lambda: greedy_diversity_select(rows, args.k),
        "random": lambda: random_select(rows, args.k, args.seed),
        "kmeans": lambda: kmeans_centroid_select(rows, args.k, args.seed),
    }
    print(f"{'strategy':<10} {'mean cos sim':>14} {'clusters hit':>14}")
    for name, run in strategies.items():
        result = run()
        sim = mean_pairwise_similarity(rows, result.selected_ids)
        hit = len({cluster_of[i] for i in result.selected_ids})
        print(f"{name:<10} {sim:>14.4f} {hit:>9}/{args.clusters}")


if __name__ == "__main__":
    main()
