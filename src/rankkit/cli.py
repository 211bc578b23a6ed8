"""Command-line interface.

Subcommands: filter, select, retrieve, distill, rerank, eval.
Exit codes: 0 success, 1 usage error or fatal config/IO error, 2 completed
with per-query failures (the output is written without them).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

# the parser needs only the config schema: each command imports the layers
# it runs when it runs, so --help loads none of them, eval and retrieve no
# rerank engine, and rerank and eval no NumPy
from . import config, types
from .errors import RankkitError

logger = logging.getLogger("rankkit")

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def _load_config(args: argparse.Namespace) -> config.PipelineConfig:
    data: dict = {}
    if args.config:
        data = types.read_json_object(args.config)
    for name in config.CONFIG_KEYS:
        val = getattr(args, name, None)
        if val is not None:
            data[name] = val
    return config.config_from_json(data)


def _make_backend(args: argparse.Namespace):
    from . import backends, metrics

    kind = args.backend
    if kind == "identity":
        return backends.IdentityBackend()
    if kind == "reverse":
        return backends.ReverseBackend()
    if kind == "oracle":
        if not args.qrels:
            raise RankkitError("--backend oracle requires --qrels")
        qrels = metrics.read_qrels(args.qrels)
        return backends.OracleBackend(qrels.judgments)
    if kind == "http":
        if not args.endpoint or not args.model:
            raise RankkitError("--backend http requires --endpoint and --model")
        return backends.HttpBackend(endpoint=args.endpoint, model=args.model,
                                    timeout=args.timeout)
    raise RankkitError(f"unknown backend {kind!r}")


def _close_backend(backend) -> None:
    """Close an HTTP backend's idle connections when its command ends; the
    mocks hold none."""
    from . import backends

    if isinstance(backend, backends.HttpBackend):
        backend.close()


def cmd_filter(args: argparse.Namespace) -> None:
    from . import embedding

    cfg = _load_config(args)
    query_embs = embedding.read_embeddings(args.query_embeddings)
    doc_embs = embedding.read_embeddings(args.doc_embeddings)
    if args.pairs:
        pairs = _read_pairs(args.pairs, query_embs, doc_embs)
    else:
        pairs = embedding.nearest_pairs(query_embs, embedding.CorpusIndex(doc_embs))
    result = embedding.quality_filter(pairs, cfg.quality_threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": {
            "threshold": cfg.quality_threshold,
            "kept": result.kept_count,
            "dropped_below": result.dropped_below,
            "dropped_zero": result.dropped_zero,
        }}) + "\n")
        for _, _, (qid, did) in result.kept:
            fh.write(json.dumps({"query_id": qid, "doc_id": did}) + "\n")
    logger.info("kept %d pairs (%d below threshold, %d zero vectors)",
                result.kept_count, result.dropped_below, result.dropped_zero)


def _read_pairs(path: str, query_embs, doc_embs) -> list:
    """(query vector, doc vector, (query id, doc id)) for each line of a
    JSONL file of {query_id, doc_id}; unknown ids are fatal with file:line."""
    q_by_id = dict(zip(query_embs.ids, query_embs.matrix))
    d_by_id = dict(zip(doc_embs.ids, doc_embs.matrix))
    return types.read_jsonl(path, lambda rec: (
        _vector(q_by_id, rec, "query_id"),
        _vector(d_by_id, rec, "doc_id"),
        (rec["query_id"], rec["doc_id"]),
    ))


def _vector(by_id: dict, rec: dict, field: str):
    ident = rec[field]
    if ident not in by_id:
        raise RankkitError(f"unknown {field} {ident!r}")
    return by_id[ident]


def cmd_select(args: argparse.Namespace) -> None:
    if args.trace and args.algorithm != "greedy":
        raise RankkitError(f"--trace applies to --algorithm greedy only, not {args.algorithm}")
    from . import embedding

    cfg = _load_config(args)
    rows = embedding.read_embeddings(args.embeddings)
    k = cfg.selection_k
    if args.algorithm == "greedy":
        result = embedding.greedy_diversity_select(rows, k, keep_trace=args.trace)
    elif args.algorithm == "random":
        result = embedding.random_select(rows, k, cfg.seed)
    else:
        result = embedding.kmeans_centroid_select(rows, k, cfg.seed)
    embedding.write_selection(result, args.out, {
        "algorithm": args.algorithm, "k": k, "seed": cfg.seed,
        "threshold": cfg.quality_threshold,
    })


def cmd_retrieve(args: argparse.Namespace) -> None:
    import numpy as np

    from . import embedding, metrics

    cfg = _load_config(args)
    query_embs = embedding.read_embeddings(args.query_embeddings)
    index = embedding.CorpusIndex(embedding.read_embeddings(args.doc_embeddings))
    candidates = index.candidates(query_embs.matrix, cfg.top_k)
    entries = []
    # a squared distance past the float range is refused below, as a score
    # of -inf that no run file can hold
    with np.errstate(over="ignore"):
        for qid, q, rows in zip(query_embs.ids, query_embs.matrix, candidates):
            ids = embedding.top_k_by_distance(q, index, cfg.top_k, rows)
            scores = [-embedding.euclidean_dist(q, index.matrix[i])
                      for i in index.rows_of(ids, rows)]
            if -np.inf in scores:
                raise RankkitError(f"query {qid}: its distance to doc "
                                   f"{ids[scores.index(-np.inf)]} overflows")
            entries.extend(metrics.run_from_candidates(qid, ids, scores, tag="retrieve"))
    metrics.write_run(entries, args.out)


def cmd_rerank(args: argparse.Namespace) -> list[str]:
    from . import engine, metrics

    cfg = _load_config(args)
    queries = types.read_queries(args.queries)
    corpus = {d.id: d for d in types.read_documents(args.corpus)}
    candidate_lists = {
        qid: types.CandidateList(qid, doc_ids)
        for qid, doc_ids in metrics.ranked_by_query(metrics.read_run(args.run)).items()
    }
    backend = _make_backend(args)
    try:
        results, failed = engine.rerank_many(
            queries, candidate_lists, corpus, backend,
            method=args.method,
            window=cfg.window,
            mode=cfg.mode,
            parallelism=cfg.parallelism,
        )
    finally:
        _close_backend(backend)
    entries = []
    for cl in results:
        entries.extend(metrics.run_from_candidates(cl.query_id, cl.doc_ids, tag=args.tag))
    metrics.write_run(entries, args.out)
    return failed


def cmd_distill(args: argparse.Namespace) -> list[str]:
    from . import embedding, pipeline

    cfg = _load_config(args)
    queries = types.read_queries(args.queries)
    query_embs = embedding.read_embeddings(args.query_embeddings)
    corpus_embs = embedding.read_embeddings(args.doc_embeddings)
    corpus = None
    if args.corpus:
        corpus = {d.id: d for d in types.read_documents(args.corpus)}
    backend = _make_backend(args)
    try:
        labels, summary = pipeline.distill(queries, query_embs, corpus_embs, backend, cfg,
                                           corpus=corpus)
    finally:
        _close_backend(backend)
    if args.budget_filter:
        labels = pipeline.confidence_filter(labels, cfg.budget)
    pipeline.write_labels(labels, args.out, cfg)
    logger.info("emitted %d labels, skipped %d", summary.emitted, summary.skipped)
    return summary.failed_query_ids


def cmd_eval(args: argparse.Namespace) -> None:
    from . import metrics

    qrels = metrics.read_qrels(args.qrels, groups_path=args.groups)
    ranked = metrics.ranked_by_query(metrics.read_run(args.run))
    reports = []
    for item in args.metrics.split(","):
        item = item.strip().lower()
        name, _, cutoff = item.partition("@")
        if item == "mrr":
            reports.append(metrics.mrr(qrels, ranked, rel_threshold=args.rel_threshold))
            continue
        if name not in ("ndcg", "recall") or not cutoff.isdecimal():
            raise RankkitError(f"unknown metric {item!r}; expected ndcg@K, recall@K or mrr")
        try:
            k = int(cutoff)
        except ValueError:  # past int()'s digit limit, 4300 by default
            raise RankkitError(
                f"metric {name}@K: a cutoff of {len(cutoff)} digits is too long") from None
        if name == "ndcg":
            reports.append(metrics.ndcg_at_k(qrels, ranked, k, gain=args.gain))
        else:
            reports.append(metrics.recall_at_k(qrels, ranked, k, rel_threshold=args.rel_threshold))
    payload = {
        "config": {
            "gain": args.gain,
            "rel_threshold": args.rel_threshold,
            "grouping": args.groups or None,
        },
        "metrics": [r.to_json() for r in reports],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _run_tag(text: str) -> str:
    """A ``--tag`` value: the run id, which is the last field of every run line."""
    try:
        types.check_id("run", text)
    except RankkitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with pipeline settings")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default="identity",
                   choices=["identity", "reverse", "oracle", "http"])
    p.add_argument("--qrels", help="qrels file (oracle backend)")
    p.add_argument("--endpoint", help="chat-completions URL (http backend)")
    p.add_argument("--model", help="model name (http backend)")
    p.add_argument("--timeout", type=float, default=120.0)


# Each ``_add_*`` below adds one subcommand's parser to the subparsers
# action ``sub``, with the ``cmd_*`` function that the module binds when the
# parser is built.


def _add_filter(sub) -> None:
    f = sub.add_parser("filter", help="quality-filter query/doc pairs")
    _add_config_flag(f)
    f.add_argument("--query-embeddings", required=True)
    f.add_argument("--doc-embeddings", required=True)
    f.add_argument("--pairs", help="JSONL of {query_id, doc_id}; default pairs each query with its top-1 doc")
    f.add_argument("--quality-threshold", dest="quality_threshold", type=float, default=None)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_filter)


def _add_select(sub) -> None:
    s = sub.add_parser("select", help="coreset selection")
    _add_config_flag(s)
    s.add_argument("--embeddings", required=True)
    s.add_argument("--algorithm", default="greedy", choices=["greedy", "random", "kmeans"])
    s.add_argument("--k", dest="selection_k", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--trace", action="store_true",
                   help="record each greedy pick's mean cosine similarity to the earlier "
                        "picks in the selection header (greedy only)")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_select)


def _add_retrieve(sub) -> None:
    r = sub.add_parser("retrieve", help="exact top-k retrieval by distance")
    _add_config_flag(r)
    r.add_argument("--query-embeddings", required=True)
    r.add_argument("--doc-embeddings", required=True)
    r.add_argument("--k", dest="top_k", type=int, default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_retrieve)


def _add_rerank(sub) -> None:
    rr = sub.add_parser("rerank", help="rerank a run file")
    _add_config_flag(rr)
    _add_backend_flags(rr)
    rr.add_argument("--run", required=True)
    rr.add_argument("--queries", required=True)
    rr.add_argument("--corpus", required=True)
    group = rr.add_mutually_exclusive_group()
    group.add_argument("--listwise", dest="method", action="store_const", const="listwise")
    group.add_argument("--pairwise", dest="method", action="store_const", const="pairwise")
    rr.add_argument("--parallelism", type=int, default=None)
    rr.add_argument("--window-size", dest="window_size", type=int, default=None)
    rr.add_argument("--stride", type=int, default=None)
    rr.add_argument("--mode", choices=config.MODES, default=None)
    rr.add_argument("--tag", type=_run_tag, default="rankkit")
    rr.add_argument("--out", required=True)
    rr.set_defaults(func=cmd_rerank, method="listwise")


def _add_distill(sub) -> None:
    d = sub.add_parser("distill", help="teacher labeling")
    _add_config_flag(d)
    _add_backend_flags(d)
    d.add_argument("--queries", required=True)
    d.add_argument("--query-embeddings", required=True)
    d.add_argument("--doc-embeddings", required=True)
    d.add_argument("--corpus", help="optional document corpus JSONL")
    d.add_argument("--top-k", dest="top_k", type=int, default=None)
    d.add_argument("--mode", choices=config.MODES, default=None)
    d.add_argument("--budget", type=int, default=None)
    d.add_argument("--budget-filter", action="store_true",
                   help="apply confidence filtering to the budget before writing")
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--parallelism", type=int, default=None)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_distill)


def _add_eval(sub) -> None:
    e = sub.add_parser("eval", help="evaluate a run against qrels")
    e.add_argument("--run", required=True)
    e.add_argument("--qrels", required=True)
    e.add_argument("--groups", help="JSON sidecar mapping query id to group key")
    e.add_argument("--metrics", default="ndcg@10,mrr,recall@5")
    e.add_argument("--gain", choices=["linear", "exponential"], default="linear")
    e.add_argument("--rel-threshold", dest="rel_threshold", type=int, default=1)
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)


# every subcommand, in the order that usage and --help list them
_SUBCOMMANDS = {"filter": _add_filter, "select": _add_select, "retrieve": _add_retrieve,
               "rerank": _add_rerank, "distill": _add_distill, "eval": _add_eval}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with every subcommand's parser, or with ``command``'s
    alone."""
    p = argparse.ArgumentParser(prog="rankkit", description=__doc__)
    # unrecognized arguments print the root usage, which lists every command
    # whichever were built; the full parser's errors name the argument "command"
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        _SUBCOMMANDS[name](sub)
    return p


def _trim_heap() -> None:
    """Hand the heap pages the command freed back to the OS (glibc only).

    Freeing a corpus-sized matrix raises glibc's mmap threshold past its
    size, so the next command's matrix comes from the heap, and a freed heap
    block stays resident.  Once small objects land in it, a later command in
    the same process cannot reuse it and holds two corpus matrices: its peak
    RSS would depend on the heap layout, by one matrix."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and map its outcome to the exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    # a command builds only its own parser; --help, a usage error with no
    # command and an unknown one build every command's
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has already reported
        return EXIT_OK if exc.code == 0 else EXIT_FATAL
    try:
        failed = args.func(args)
    except (RankkitError, OSError, json.JSONDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_FATAL
    finally:
        _trim_heap()
    if failed:
        logger.error("%d queries failed: %s", len(failed), ", ".join(failed))
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
