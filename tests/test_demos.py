"""Every demo script runs to completion against the current package.

The demos call public names (``TASK_CLASSES``, ``mean_all``,
``Tensor.backward``, ``bootstrap_ci``, ...) that no other test reaches
through a script, so a deleted or renamed name would otherwise break them
silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneegrade

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.path.dirname(os.path.dirname(kneegrade.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
