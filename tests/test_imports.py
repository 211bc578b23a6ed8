"""Every module of the package uses each name it imports, importing the
CLI loads no HTTP client and no ``dataclasses``, the commands that do no
embedding work start without NumPy, and the parser loads only the config
schema, not the rerank engine.

A name that a module imports and never reads is left over from deleted
code; nothing else in the suite notices it.  ``__init__.py`` is checked
too: its exports load on first use, so it imports none of them.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import rankkit

PACKAGE = pathlib.Path(rankkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no
    expression of it reads, in order of first binding."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, json as j\nfrom typing import Any\nj.dumps(Any)\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "config.py", "engine.py",
                                        "pipeline.py", "types.py"}


def fresh(code: str) -> str:
    """The stripped stdout of ``code`` run in a new interpreter that imports
    rankkit from this tree; a non-zero exit fails the test."""
    setup = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    out = subprocess.run([sys.executable, "-c", setup + code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_cli_loads_no_http_client():
    """``http.client`` and ``ssl`` load on the first HTTP backend, so the
    start-up of every command that never builds one does not pay for them."""
    out = fresh("import rankkit.cli\n"
                "print([m for m in ('requests', 'http.client', 'ssl') if m in sys.modules])")
    assert out == "[]"


NUMPY_MODULES = ("numpy", "rankkit.embedding", "rankkit.pipeline", "rankkit.ranking_math")


@pytest.mark.parametrize("start", ["import rankkit", "import rankkit.cli as cli\ncli.build_parser()"],
                         ids=["package", "cli-parser"])
def test_start_up_loads_no_numpy(start):
    assert fresh(f"{start}\nprint([m for m in {NUMPY_MODULES!r} if m in sys.modules])") == "[]"


def test_start_up_loads_no_dataclasses_or_inspect():
    """The value types are plain ``__slots__`` classes: ``dataclasses``, and
    the ``inspect`` it imports, cost every command about 18 ms."""
    out = fresh("import rankkit.cli as cli\ncli.build_parser()\n"
                "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert out == "[]"


def test_no_module_of_the_package_loads_dataclasses():
    # NumPy itself imports inspect, so only dataclasses is checked here
    names = [f"rankkit.{p.stem}" for p in MODULES if p.stem != "__init__"]
    out = fresh(f"import importlib\nfor name in {names!r}:\n    importlib.import_module(name)\n"
                "print('dataclasses' in sys.modules, len([n for n in sys.modules "
                "if n.startswith('rankkit.')]))")
    assert out == f"False {len(names)}"


def test_rerank_and_eval_run_with_numpy_unimportable(tmp_path):
    """With ``sys.modules["numpy"] = None`` any import of NumPy raises, so
    both commands exiting 0 shows that neither needs it."""
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": f"d{i}", "text": f"passage {i}"}) + "\n" for i in (1, 2, 3)))
    (tmp_path / "queries.jsonl").write_text(json.dumps({"id": "q1", "text": "question"}) + "\n")
    (tmp_path / "in.run").write_text("".join(f"q1 Q0 d{i} {i} {4 - i} bm25\n" for i in (1, 2, 3)))
    (tmp_path / "qrels.txt").write_text("q1 0 d3 2\nq1 0 d1 1\n")
    p = {name: str(tmp_path / name) for name in ("corpus.jsonl", "queries.jsonl", "in.run",
                                                  "qrels.txt", "out.run")}
    rerank = ["rerank", "--backend", "reverse", "--run", p["in.run"], "--queries",
              p["queries.jsonl"], "--corpus", p["corpus.jsonl"], "--out", p["out.run"]]
    evaluate = ["eval", "--run", p["out.run"], "--qrels", p["qrels.txt"]]
    out = fresh("sys.modules['numpy'] = None\nimport rankkit.cli as cli\n"
                f"codes = [cli.main({rerank!r}), cli.main({evaluate!r})]\n"
                "print('codes', codes)")
    assert out.splitlines()[-1] == "codes [0, 0]"
    assert [line.split()[2] for line in (tmp_path / "out.run").read_text().splitlines()] \
        == ["d3", "d2", "d1"]


START_UP_MODULES = ["rankkit", "rankkit.cli", "rankkit.config", "rankkit.errors", "rankkit.types"]
# the rerank stack, which only rerank and distill run
RERANK_MODULES = ("rankkit.backends", "rankkit.engine", "rankkit.prompts", "rankkit.parsing")
BLOCK_RERANK = "".join(f"sys.modules[{m!r}] = None\n" for m in RERANK_MODULES)


def test_the_parser_loads_only_the_config_schema():
    """What a command pays before it runs: the CLI, the config schema and
    the leaves they import, and no other layer of the package."""
    out = fresh("import rankkit.cli as cli\ncli.build_parser()\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rankkit'))\n"
                "print('concurrent.futures' in sys.modules)")
    assert out.splitlines() == [str(START_UP_MODULES), "False"]


def test_eval_runs_with_the_rerank_stack_unimportable(tmp_path):
    (tmp_path / "in.run").write_text("".join(f"q1 Q0 d{i} {i} {4 - i} bm25\n" for i in (1, 2, 3)))
    (tmp_path / "qrels.txt").write_text("q1 0 d3 2\nq1 0 d1 1\n")
    evaluate = ["eval", "--run", str(tmp_path / "in.run"), "--qrels", str(tmp_path / "qrels.txt")]
    out = fresh(f"{BLOCK_RERANK}import rankkit.cli as cli\nprint('code', cli.main({evaluate!r}))")
    assert out.splitlines()[-1] == "code 0"


def test_every_help_runs_with_the_rerank_stack_unimportable():
    commands = ["filter", "select", "retrieve", "rerank", "distill", "eval"]
    argvs = [["--help"]] + [[c, "--help"] for c in commands]
    out = fresh(f"{BLOCK_RERANK}import rankkit.cli as cli\n"
                f"print('codes', [cli.main(argv) for argv in {argvs!r}])")
    assert out.splitlines()[-1] == f"codes {[0] * len(argvs)}"


def test_the_rerank_layers_share_the_config_schema():
    out = fresh("from rankkit import config, engine, prompts\n"
                "print(engine.WindowConfig is config.WindowConfig, prompts.MODES is config.MODES)")
    assert out == "True True"


def test_the_package_window_config_loads_no_rerank_engine():
    out = fresh("import rankkit\nrankkit.WindowConfig\n"
                "print([m for m in ('rankkit.engine', 'rankkit.backends', 'concurrent.futures') "
                "if m in sys.modules])")
    assert out == "[]"


# the names the package exported when it imported them all eagerly
EXPORTS = {
    "CandidateList", "Document", "Permutation", "Query", "identity_permutation",
    "validate_permutation", "EmbeddingRecord", "EmbeddingRows",
    "SelectionResult", "cosine_sim", "euclidean_dist", "greedy_diversity_select",
    "kmeans_centroid_select", "quality_filter", "random_select", "stack_records",
    "top_k_by_distance", "LossReport", "listwise_loss", "listwise_loss_grad",
    "plackett_luce_prob", "WindowConfig", "rerank_listwise", "rerank_pairwise", "Qrels",
    "RunEntry", "kendall_tau", "mrr", "ndcg_at_k", "ranked_by_query", "recall_at_k",
    "PipelineConfig", "TeacherLabel", "confidence_filter", "distill",
}


def test_every_export_resolves_to_its_defining_module():
    out = fresh("import json\nimport rankkit\n"
                "bad = [n for n in rankkit.__all__ if getattr(rankkit, n) is not "
                "getattr(sys.modules[getattr(rankkit, n).__module__], n)]\n"
                "print(json.dumps([rankkit.__all__, bad, sorted(set(rankkit.__all__) - "
                "set(dir(rankkit)))]))")
    exported, bad, undir = json.loads(out)
    assert set(exported) == EXPORTS and len(exported) == len(EXPORTS)
    assert bad == [] and undir == []


def test_an_unknown_package_name_raises_attribute_error():
    out = fresh("import rankkit\n"
                "try:\n    rankkit.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
                "print(hasattr(rankkit, 'no_such_name'))")
    assert out.splitlines() == ["module 'rankkit' has no attribute 'no_such_name'", "False"]
