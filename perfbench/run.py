"""rankkit benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload curate-distill --seed 1 --seconds 25 --trace 0

The run generates the workload's inputs from the seed under
``.perfbench_work/``, times a fresh interpreter importing ``rankkit.cli``
(``setup_s``), starts the loopback stub when the workload needs one, runs
the workload's passes in a separate timing process (``worker.py``), checks
every output against an independent reference (``checks.py``), prints a
table of every metric with its median, high percentile and sample count,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics.  The
full record, with the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import speed
import workloads
from tracer import percentile_ms

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
SETUP_CODE = "import rankkit.cli as cli; cli.build_parser()"

# Spans whose time each workload claims dominates it (see README.md).
CLAIMED = {
    "curate-distill": ["embedding.top_k_by_distance.s", "embedding.read_embeddings.s"],
    "select-ablation": ["embedding.greedy_diversity_select.s",
                        "embedding.kmeans_centroid_select.s"],
    "rerank-http": ["backends.HttpBackend.complete.s"],
    "score-bulk": ["metrics.self_s", "ranking_math.self_s"],
}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

COMMANDS = ["filter", "retrieve", "eval", "distill", "select_greedy", "select_kmeans",
            "rerank", "loss_grad"]

# Per-layer span statistics, as "<module>.<function>.<stat>".
SPAN_STATS = {
    "embedding.read_embeddings": ["s", "records"],
    "embedding.top_k_by_distance": ["calls", "s", "p50_ms"],
    "embedding.euclidean_dist": ["calls", "s"],
    "embedding.cosine_sim": ["calls"],
    "embedding.quality_filter": ["s"],
    "embedding.greedy_diversity_select": ["s"],
    "embedding.kmeans_centroid_select": ["s"],
    "embedding.write_selection": ["s"],
    "pipeline.distill": ["s", "skipped"],
    "pipeline.distill_one": ["calls", "p50_ms", "p99_ms"],
    "pipeline.confidence_filter": ["s"],
    "pipeline.write_labels": ["s"],
    "engine.rerank_many": ["s"],
    "engine.rerank_listwise": ["calls", "p50_ms", "p99_ms"],
    "engine.rank_window": ["calls", "self_s"],
    "backends.call_with_retries": ["calls"],
    "backends.HttpBackend.complete": ["calls", "s", "p50_ms", "p99_ms", "errors"],
    "backends.IdentityBackend.complete": ["calls"],
    "backends.script_to_messages": ["s"],
    "prompts.build_listwise_prompt": ["calls", "s"],
    "prompts.append_turns": ["calls"],
    "parsing.parse_ranking": ["calls", "s", "unparseable", "repairs"],
    "ranking_math.listwise_loss": ["s"],
    "ranking_math.listwise_loss_grad": ["calls", "s", "p50_ms"],
    "metrics.read_run": ["s", "entries"],
    "metrics.read_qrels": ["s", "judgments"],
    "metrics.ndcg_at_k": ["s"],
    "metrics.mrr": ["s"],
    "metrics.recall_at_k": ["s"],
    "metrics.write_run": ["s", "entries"],
    "metrics.kendall_tau": ["calls", "s"],
    "metrics.Qrels.grades_for": ["calls", "s"],
    "types.read_documents": ["s"],
    "types.read_queries": ["s"],
}
LAYERS = ["cli", "embedding", "pipeline", "engine", "backends", "prompts", "parsing",
          "ranking_math", "metrics", "types"]
STAT_UNITS = {"s": "s", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}
DERIVED = [
    ("backends.inflight_mean", "ratio", "higher"),
    ("backends.calls_per_window", "ratio", "lower"),
    ("parsing.clean_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.claimed_share", "ratio", "higher"),
    ("trace.counts_repeat", "bool", "higher"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for fn, stats in SPAN_STATS.items():
        for st in stats:
            out.append((f"{fn}.{st}", STAT_UNITS.get(st, "count"), "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += DERIVED
    out += [(f"cmd.{c}_s", "s", "lower") for c in COMMANDS]
    out += [("cmd.failed_frac", "ratio", "lower"), ("cmd.raw_wall_s", "s", "lower"),
            ("speed.kernel_ms", "ms", "lower")]
    return out


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else 0.0, "n": n}
    if n >= 11:
        out["high"] = vals[n - 11]
        out["high_pct"] = int(100 * (n - 10) / n)
    return out


def baseline_counts(size: str, workload: str, seed: int) -> dict | None:
    path = os.path.join(HERE, "baseline_counts.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(seed))


def source_digest(src: str) -> str:
    """Stands in for the commit: the checkout the benchmark runs in is not a
    git repository, so the rankkit sources are hashed instead."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "rankkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(root: str, env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing rankkit.cli, each bracketed by a bare
    interpreter start: times at reference speed, and raw."""
    samples, raw = [], []
    before = speed.spawn_seconds("pass", root, env)
    for _ in range(SETUP_SAMPLES):
        raw.append(speed.spawn_seconds(SETUP_CODE, root, env))
        after = speed.spawn_seconds("pass", root, env)
        samples.append(speed.scaled(raw[-1], before, after, speed.SPAWN_REFERENCE_S))
        before = after
    return samples, raw


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, seed: int, latency_ms: float, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--seed", str(seed),
             "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE, text=True, env=env)
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub did not start")
        self.endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def layer_metrics(workload: str, result: dict, timed_steps: dict) -> dict[str, float]:
    """Per-layer numbers per traced pass, from the worker's span aggregates."""
    traced = [p for p in result["passes"] if p["kind"] == "traced"]
    timed = [p for p in result["passes"] if p["kind"] == "timed"]
    n = len(traced)
    out: dict[str, float] = {}
    for fn, stats in SPAN_STATS.items():
        for st in stats:
            if st.endswith("_ms"):
                out[f"{fn}.{st}"] = percentile_ms(result["durations"].get(fn, []), int(st[1:3]))
            else:
                out[f"{fn}.{st}"] = sum(p["layers"].get(fn, {}).get(st, 0) for p in traced) / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(agg["self_s"] for p in traced
                                     for fn, agg in p["layers"].items()
                                     if fn.split(".")[0] == layer) / n

    if "rerank" in traced[0]["steps"]:
        out["backends.inflight_mean"] = sum(
            p["layers"].get("backends.HttpBackend.complete", {}).get("s", 0.0)
            / p["raw_steps"]["rerank"] for p in traced) / n
    else:
        out["backends.inflight_mean"] = 0.0
    windows = out["engine.rank_window.calls"]
    calls = out["backends.HttpBackend.complete.calls"] + out["backends.IdentityBackend.complete.calls"]
    out["backends.calls_per_window"] = calls / windows if windows else 0.0
    parse = [p["layers"].get("parsing.parse_ranking", {}) for p in traced]
    parses = sum(agg.get("calls", 0) for agg in parse)
    out["parsing.clean_ratio"] = sum(agg.get("clean", 0) for agg in parse) / parses if parses else 0.0
    plain = statistics.median(p["wall"] for p in timed)
    out["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / plain - 1.0
    claimed = sum(out[m] for m in CLAIMED[workload])
    out["trace.claimed_share"] = claimed / statistics.median(p["raw_wall"] for p in traced)
    counts = [{fn: agg["calls"] for fn, agg in p["layers"].items()} for p in traced]
    out["trace.counts_repeat"] = float(all(c == counts[0] for c in counts))
    for c in COMMANDS:
        out[f"cmd.{c}_s"] = timed_steps.get(c, {}).get("median", 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one rankkit benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="input sizes; 'small' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rankkit", "cli.py")):
        print("perfbench: no rankkit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(root, ".perfbench_out")
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup, setup_raw = measure_setup(root, env)
        t0 = time.perf_counter()
        spec = workloads.generate(args.workload, args.seed, work, args.size)
        generate_s = time.perf_counter() - t0
        stub = Stub(args.seed, spec["stub"]["latency_ms"], env) if "stub" in spec else None
        try:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec",
                   os.path.join(work, "spec.json"), "--src", src, "--seconds",
                   str(args.seconds), "--trace", str(args.trace),
                   "--result", os.path.join(work, "result.json")]
            if stub:
                cmd += ["--endpoint", stub.endpoint]
            with open(os.path.join(work, "worker.out"), "w") as wout, \
                    open(os.path.join(work, "worker.err"), "w") as werr:
                proc = subprocess.run(cmd, cwd=root, env=env, stdout=wout, stderr=werr,
                                      timeout=args.seconds * 3 + 60)
        finally:
            if stub:
                stub.close()
        if proc.returncode != 0:
            with open(os.path.join(work, "worker.err")) as fh:
                sys.stderr.write(fh.read()[-4000:])
            print(f"perfbench: timing process failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        record = report(args, spec, src, root, result, setup, setup_raw, generate_s)
        if args.trace and os.path.exists(os.path.join(work, "spans.jsonl")):
            shutil.copy(os.path.join(work, "spans.jsonl"),
                        os.path.join(out_dir, f"{tag}.spans.jsonl"))
        with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps(record["summary"]))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, spec: dict, src: str, root: str, result: dict, setup: list[float],
           setup_raw: list[float], generate_s: float) -> dict:
    workload = args.workload
    passes = result["passes"]
    timed = [p for p in passes if p["kind"] == "timed"]

    # Output checks on the last pass; every other pass must match it byte for byte.
    kinds = None
    items = spec["items"]
    try:
        if workload == "curate-distill":
            failed_items, notes = checks.check_curate_distill(spec)
        elif workload == "select-ablation":
            failed_items, notes = checks.check_select_ablation(spec)
        elif workload == "rerank-http":
            failed_items, notes, kinds = checks.check_rerank_http(spec, src)
        else:
            failed_items, notes = checks.check_score_bulk(spec)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        # Missing or unreadable outputs fail every item of the pass.
        failed_items, notes = items, [f"outputs could not be checked: {exc!r}"]
    bad_passes = sum(p["digests"] != passes[-1]["digests"] for p in passes)
    if bad_passes:
        notes.append(f"{bad_passes} passes wrote outputs that differ from the checked pass")
    nonzero = sorted({k for p in passes for k, c in p["codes"].items() if c != 0})
    if nonzero:
        notes.append(f"commands exited non-zero: {', '.join(nonzero)}")
    attempted = items * len(passes)
    if nonzero:
        failed = attempted
    else:
        failed = min(attempted, failed_items * len(passes) + bad_passes * items)

    walls = [p["wall"] for p in timed]
    steps = {name: summarize([p["steps"][name] for p in timed]) for name in timed[0]["steps"]}
    wall = summarize(walls)
    e2e = {
        "setup_s": summarize(setup),
        "wall_s": wall,
        "items_per_s": {"median": items / wall["median"], "n": wall["n"]},
        "peak_rss_mb": {"median": result["peak_rss_kib"] / 1024.0, "n": 1},
    }
    units = {name: unit for name, unit, _ in END_TO_END}

    print(f"# perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    env = dict(result["env"], commit=git_commit(root), source_digest=source_digest(src),
               stub_latency_ms=spec.get("stub", {}).get("latency_ms"))
    print("# env " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps(dict(spec["inputs"], seed=args.seed,
                                        generate_s=round(generate_s, 3))))
    print(f"# passes: 1 warm-up, {len(timed)} timed"
          + (f", {len(passes) - len(timed) - 1} traced" if args.trace else ""))
    print(f"{'metric':<44}{'unit':>7}{'median':>14}{'high':>14}{'pct':>5}{'n':>6}")
    kernel = [k for p in timed for k in p["kernel"]]
    rows = [(name, units[name], s) for name, s in e2e.items()]
    rows += [(f"cmd.{name}_s", "s", s) for name, s in steps.items()]
    rows += [("raw.setup_s (unscaled)", "s", summarize(setup_raw)),
             ("raw.wall_s (unscaled)", "s", summarize([p["raw_wall"] for p in timed])),
             ("speed.kernel_ms", "ms", summarize([k * 1000.0 for k in kernel]))]
    rows.append(("cmd.failed_frac", "ratio", {"median": failed / attempted, "n": attempted}))
    for name, unit, s in rows:
        high = f"{s['high']:.6g}" if "high" in s else "-"
        pct = f"p{s['high_pct']}" if "high" in s else "-"
        print(f"{name:<44}{unit:>7}{s['median']:>14.6g}{high:>14}{pct:>5}{s['n']:>6}")
    for note in notes:
        print(f"# check: {note}")
    print(f"# checks: {'all passed' if not failed else f'{failed} of {attempted} items failed'}")
    if kinds is not None:
        print("# stub replies (reference run): " + json.dumps(kinds, sort_keys=True))

    if args.trace:
        layers = layer_metrics(workload, result, steps)
        layers["cmd.failed_frac"] = failed / attempted
        layers["cmd.raw_wall_s"] = statistics.median(p["raw_wall"] for p in timed)
        layers["speed.kernel_ms"] = statistics.median(kernel) * 1000.0
        baseline = baseline_counts(args.size, workload, args.seed)
        if baseline is not None:
            differ = sorted(k for k, v in baseline.items() if layers.get(k) != v)
            print("# exact counts vs baseline_counts.json: "
                  + ("match" if not differ else "differ in " + ", ".join(differ)))
        for name, unit, _ in per_layer_metrics():
            print(f"{name:<44}{unit:>7}{layers[name]:>14.6g}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    else:
        layers = {}
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return {"summary": summary, "env": env, "inputs": spec["inputs"], "seed": args.seed,
            "e2e": e2e, "commands": steps, "notes": notes, "stub_replies": kinds,
            "layers": layers, "passes": passes, "setup_samples": setup,
            "setup_raw_samples": setup_raw}


if __name__ == "__main__":
    sys.exit(main())
