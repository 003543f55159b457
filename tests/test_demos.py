"""Smoke test of the demo scripts: each runs to completion in a scratch
working directory, exits 0 with no traceback, and writes nothing into the
repository (its relative output paths and its temporary directory both
resolve inside the scratch directory).  No temporary directory of a demo
outlives it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
                ".bench_out"}


def _repo_files() -> dict[str, int]:
    """Relative path -> mtime of every repository file outside the caches."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS]
        for name in filenames:
            path = Path(dirpath) / name
            files[str(path.relative_to(ROOT))] = path.stat().st_mtime_ns
    return files


def test_every_demo_is_listed():
    assert [path.name for path in DEMOS] == [
        "band_structure.py", "cli_pipeline.py", "coupling_sweep.py",
        "ground_state.py", "hardy_constants.py"]


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               PYTHONDONTWRITEBYTECODE="1")
    before = _repo_files()
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    assert _repo_files() == before
    assert not list(tmp_path.glob("latticegap_demo_*"))
