"""Every fenced ``python`` block of README.md runs as written.

Each block runs in its own interpreter with ``PYTHONPATH=src`` and a
scratch working directory (the Observability block writes
``trace.json``), under a wall timeout: a documented example that hangs
or raises fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.M | re.S)
#: seconds per block; together they take well under half a minute
TIMEOUT_S = 30


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"README block did not finish in {TIMEOUT_S} s:\n{code}")
    assert proc.returncode == 0, proc.stderr
