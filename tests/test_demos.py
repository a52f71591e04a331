"""The narrative demo scripts must stay runnable end to end, with pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs_clean(script):
    env = dict(os.environ)
    src = str(DEMO_DIR.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    path = GOLDEN_DIR / f"demo_{Path(script).stem}.txt"
    if os.environ.get("REGEN_GOLDENS") == "1":
        path.write_text(result.stdout, encoding="utf-8")
    assert path.exists(), f"golden file {path.name} missing; run with REGEN_GOLDENS=1"
    assert result.stdout == path.read_text(encoding="utf-8")
