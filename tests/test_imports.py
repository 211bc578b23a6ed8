"""Every module of the package uses each name it imports, and importing
the CLI loads no HTTP client.

A name that a module imports and never reads is left over from deleted
code; nothing else in the suite notices it.  ``__init__.py`` is skipped,
because its imports are the package's re-exports.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import rankkit

PACKAGE = pathlib.Path(rankkit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    assert {p.name for p in MODULES} >= {"cli.py", "engine.py", "pipeline.py", "types.py"}


def test_importing_the_cli_loads_no_http_client():
    """``http.client`` and ``ssl`` load on the first HTTP backend, so the
    start-up of every command that never builds one does not pay for them."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import rankkit.cli; "
            "print([m for m in ('requests', 'http.client', 'ssl') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
