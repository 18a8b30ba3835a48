"""The torus and adapted-mesh demos run to completion as scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["torus_period_matrix.py", "abelian_integrals.py",
                                  "adapted_meshes.py"])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
