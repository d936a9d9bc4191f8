"""Every Python code block in README.md runs as written from a plain checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    # Only the checkout's src on the path, and an empty working directory for any files a block writes.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
