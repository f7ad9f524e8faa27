"""Demos 01-05 run to completion, each in its own interpreter.

Demo 06 times the kernels and backbones for several seconds and is left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fovea

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("0[1-5]_*.py"))


def test_five_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(fovea.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
