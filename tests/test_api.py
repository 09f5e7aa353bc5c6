"""The public API: the exported names, and a library that runs without the
test oracles or mpmath."""

import os
import subprocess
import sys
from pathlib import Path

import lle

_STANDALONE = """
import importlib.util
import sys

sys.modules["mpmath"] = None
assert importlib.util.find_spec("oracles") is None
import lle
from lle.cli import main
assert main(["coeff", "--levels", "single:0", "--f", "renyi:1"]) == 0
sys.exit(main(["verify", "--suite", "all", "--cases", "5"]))
"""


def test_public_names_resolve():
    assert len(set(lle.__all__)) == len(lle.__all__)
    assert [name for name in lle.__all__ if not hasattr(lle, name)] == []


def test_library_runs_without_oracles_or_mpmath(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(lle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _STANDALONE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"renyi:1"' in proc.stdout
