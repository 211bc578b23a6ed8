"""Spans around calls into rankkit's public functions, for the traced run.

The tracer wraps each target function and rebinds the wrapper under every
name that refers to the original in any loaded ``rankkit`` module, because
modules import one another's functions by name (``pipeline`` binds
``top_k_by_distance``, ``rank_window`` and ``kendall_tau``; ``engine`` binds
``call_with_retries``, ``parse_ranking`` and ``build_listwise_prompt``).
Methods are wrapped on their class.  Each thread keeps its own span stack,
because ``rerank`` runs queries in a thread pool; a span carries the query id
of its arguments or, failing that, of its parent.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
import time

# (module, qualified name) of each traced function; `_extras` adds counters.
TARGETS = [
    ("cli", "cmd_filter"), ("cli", "cmd_select"), ("cli", "cmd_retrieve"),
    ("cli", "cmd_rerank"), ("cli", "cmd_distill"), ("cli", "cmd_eval"),
    ("embedding", "read_embeddings"), ("embedding", "top_k_by_distance"),
    ("embedding", "euclidean_dist"), ("embedding", "cosine_sim"),
    ("embedding", "quality_filter"), ("embedding", "greedy_diversity_select"),
    ("embedding", "kmeans_centroid_select"), ("embedding", "write_selection"),
    ("pipeline", "distill"), ("pipeline", "distill_one"),
    ("pipeline", "confidence_filter"), ("pipeline", "write_labels"),
    ("engine", "rerank_many"), ("engine", "rerank_listwise"), ("engine", "rank_window"),
    ("backends", "call_with_retries"), ("backends", "HttpBackend.complete"),
    ("backends", "IdentityBackend.complete"), ("backends", "script_to_messages"),
    ("prompts", "build_listwise_prompt"), ("prompts", "append_turns"),
    ("parsing", "parse_ranking"),
    ("ranking_math", "listwise_loss"), ("ranking_math", "listwise_loss_grad"),
    ("metrics", "read_run"), ("metrics", "read_qrels"), ("metrics", "ndcg_at_k"),
    ("metrics", "mrr"), ("metrics", "recall_at_k"), ("metrics", "write_run"),
    ("metrics", "kendall_tau"), ("metrics", "Qrels.grades_for"),
    ("types", "read_documents"), ("types", "read_queries"),
]


def _extras(name: str, args: tuple, result) -> dict:
    """Work counters that a span's arguments or result reveal."""
    if name == "embedding.read_embeddings":
        return {"records": len(result)}
    if name == "metrics.read_run":
        return {"entries": len(result)}
    if name == "metrics.read_qrels":
        return {"judgments": len(result.judgments)}
    if name == "metrics.write_run" and hasattr(args[0], "__len__"):
        return {"entries": len(args[0])}
    if name == "pipeline.distill":
        return {"skipped": result[1].skipped}
    if name == "parsing.parse_ranking":
        repairs = result[1].count
        return {"repairs": repairs, "clean": int(repairs == 0)}
    return {}


def _query_id(args: tuple) -> str:
    for a in args:
        qid = getattr(a, "query_id", None)
        if isinstance(qid, str) and qid:
            return qid
        if hasattr(a, "id") and hasattr(a, "text") and isinstance(a.id, str):
            return a.id
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            qid = _query_id(args) or (parent[1] if parent else "")
            frame = [name, qid, 0.0]
            stack.append(frame)
            error = ""
            extras: dict = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                extras = _extras(name, args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                spans.append((name, qid, threading.get_ident(), t0, t1, frame[2],
                              parent[0] if parent else "", error, extras))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = [(importlib.import_module(f"rankkit.{m}"), m, q) for m, q in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rankkit" or n.startswith("rankkit."))]
        for mod, mod_name, qual in targets:
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path: str, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, qid, tid, t0, t1, child, parent, error, extras in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name, "query_id": qid,
                                     "thread": tid, "start": t0, "end": t1,
                                     "child_s": child, "parent": parent,
                                     "error": error, **extras}) + "\n")


def aggregate(spans: list[tuple]) -> dict:
    """Per-function totals of one traced pass: calls, inclusive and self
    seconds, errors, summed extra counters, and per-call durations."""
    out: dict[str, dict] = {}
    for name, _qid, _tid, t0, t1, child, _parent, error, extras in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                    "durations": []})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child
        agg["errors"] += bool(error)
        if error == "Unparseable":
            agg["unparseable"] = agg.get("unparseable", 0) + 1
        for key, val in extras.items():
            agg[key] = agg.get(key, 0) + val
        agg["durations"].append(t1 - t0)
    return out


def percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[int(q) - 1] * 1000.0
