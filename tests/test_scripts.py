"""The experiment scripts leave no files behind unless asked to write them."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, tmpdir: pathlib.Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout


def test_synthetic_rerank_removes_its_run_files(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    table = run_script("run_synthetic_rerank.py", "--queries", "3", tmpdir=tmpdir)
    assert [row.split()[0] for row in table.splitlines()] == [
        "backend", "(input)", "identity", "reverse", "oracle"]
    assert list(tmpdir.iterdir()) == []
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    assert run_script("run_synthetic_rerank.py", "--queries", "3", "--out-dir", str(out_dir),
                      tmpdir=tmpdir) == table
    assert sorted(p.name for p in out_dir.iterdir()) == ["identity.run", "oracle.run", "reverse.run"]
    assert list(tmpdir.iterdir()) == []
