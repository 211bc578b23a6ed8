"""Tests of the benchmark itself, at the small input size.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count",)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(tmp_path, workload):
    digests = []
    for name in ("a", "b", "c"):
        work = tmp_path / name
        work.mkdir()
        workloads.generate(workload, 7 if name != "c" else 8, str(work), "small")
        digests.append({f: (work / f).read_bytes() for f in sorted(os.listdir(work))
                        if f != "spec.json"})
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_written_vectors_parse_back_exactly(tmp_path):
    workloads.generate("curate-distill", 3, str(tmp_path), "small")
    x = np.load(tmp_path / "docs.npy")
    with open(tmp_path / "docs.emb.jsonl") as fh:
        parsed = np.array([json.loads(line)["vector"] for line in fh])
    assert np.array_equal(parsed, x)


def _listwise_messages(query: str, passages: list[str]) -> list[dict]:
    from rankkit import backends, prompts, types

    docs = [types.Document(id=f"d{i}", text=t) for i, t in enumerate(passages)]
    script = prompts.build_listwise_prompt(types.Query("q1", query), docs)
    return json.loads(json.dumps(backends.script_to_messages(script)))


def test_stub_reply_is_pure_and_covers_every_malformation():
    from rankkit import parsing
    from rankkit.errors import Unparseable

    rng = np.random.default_rng(0)
    seen = set()
    for i in range(300):
        words = [f"w{int(j)}" for j in rng.integers(0, 50, 40)]
        passages = [" ".join(words[j:j + 8]) for j in range(0, 40, 4)]
        msgs = _listwise_messages(" ".join(words[:3]), passages)
        text = stub.reply(msgs, 5)
        assert text == stub.reply(msgs, 5)
        kind = stub.reply_kind(msgs, 5)
        seen.add(kind)
        if kind == "no_ranking":
            with pytest.raises(Unparseable):
                parsing.parse_ranking(text, len(passages))
            retry = msgs + [{"role": "assistant", "content": text},
                            {"role": "user", "content": stub.RETRY_PREFIX + "."}]
            assert stub.reply_kind(retry, 5) == "clean"
        else:
            perm, log = parsing.parse_ranking(text, len(passages))
            assert bool(log) == (kind in ("duplicates", "out_of_range"))
    assert seen == {"clean", "no_ranking", "duplicates", "out_of_range", "prose"}


def test_stub_server_answers_with_the_reply_function():
    import requests

    server = run.Stub(seed=9, latency_ms=1.0, env=dict(os.environ))
    try:
        msgs = _listwise_messages("alpha beta", ["alpha one", "beta alpha two", "gamma"])
        resp = requests.post(server.endpoint, json={"model": "stub", "messages": msgs},
                             timeout=10)
        assert resp.json()["choices"][0]["message"]["content"] == stub.reply(msgs, 9)
    finally:
        server.close()
    assert server.proc.poll() is not None


def test_tracer_rebinds_every_import_site_and_restores():
    from rankkit import embedding, engine, pipeline

    orig_topk, orig_rank = embedding.top_k_by_distance, engine.rank_window
    tr = tracer.Tracer()
    tr.install()
    try:
        assert pipeline.top_k_by_distance is embedding.top_k_by_distance
        assert pipeline.top_k_by_distance.__wrapped__ is orig_topk
        assert pipeline.rank_window.__wrapped__ is orig_rank
        x = [embedding.EmbeddingRecord(f"d{i}", np.array([float(i), 1.0])) for i in range(5)]
        assert pipeline.top_k_by_distance(np.array([2.0, 1.0]), x, 2) == ["d2", "d1"]
    finally:
        tr.uninstall()
    assert pipeline.top_k_by_distance is orig_topk and engine.rank_window is orig_rank
    agg = tracer.aggregate(tr.spans)
    assert agg["embedding.top_k_by_distance"]["calls"] == 1


def test_benchmark_json_lists_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_is_correct(workload):
    res = result_of(bench("--workload", workload, "--seed", "2", "--seconds", "2",
                          "--size", "small"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [n for n, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(bench("--workload", workload, "--seed", "1", "--seconds", "2",
                            "--trace", "1", "--size", "small"))
    second = result_of(bench("--workload", workload, "--seed", "1", "--seconds", "2",
                             "--trace", "1", "--size", "small"))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [n for n, _, _ in run.per_layer_metrics()]
    assert counts(first) == counts(second)
    assert first["metrics"]["trace.counts_repeat"]["value"] == 1.0
    with open(os.path.join(BENCH, "baseline_counts.json")) as fh:
        baseline = json.load(fh)["small"][workload]["1"]
    assert counts(first) == baseline


def test_checks_catch_a_wrong_retrieval(tmp_path):
    import rankkit.cli as cli

    spec = workloads.generate("curate-distill", 4, str(tmp_path), "small")
    for _, argv, _ in spec["steps"]:
        assert cli.main(argv) == 0
    assert checks.check_curate_distill(spec)[0] == 0
    path = tmp_path / "retrieve.run"
    lines = path.read_text().splitlines(keepends=True)
    a, b = lines[0].split(), lines[1].split()
    lines[0] = " ".join([a[0], a[1], b[2], a[3], a[4], a[5]]) + "\n"
    lines[1] = " ".join([b[0], b[1], a[2], b[3], b[4], b[5]]) + "\n"
    path.write_text("".join(lines))
    failed, notes = checks.check_curate_distill(spec)
    assert failed >= 1 and any("retrieve" in n for n in notes)


def test_checks_catch_a_wrong_selection(tmp_path):
    import rankkit.cli as cli

    spec = workloads.generate("select-ablation", 4, str(tmp_path), "small")
    for _, argv, _ in spec["steps"]:
        assert cli.main(argv) == 0
    assert checks.check_select_ablation(spec)[0] == 0
    path = tmp_path / "greedy.sel.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("".join(lines))
    assert checks.check_select_ablation(spec)[0] == 1


def test_fails_without_the_repository(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score-bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
