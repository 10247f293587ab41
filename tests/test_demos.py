"""Every demo script runs to completion without a word on stderr, and
prints what it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forbor

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: sha256 of each demo's stdout; a change to one is a change of output
#: and must be named
STDOUT_SHA256 = {
    "01_words_and_paths": "d3bf9c6069f3cc5229a1878914c5562683de4d1584b0dd4937e9b96e083a3109",
    "02_bipartite_pipeline": "c804b162308bd16cecfb2e0b5a4e19b62e5455ce366811b423e7c1473b02d3c8",
    "03_colourings_and_chordal": "f5d43c3875f64df3893f8167d0fb1f88ceae5f58480cb935a65d70d1c50f42a2",
    "04_duality_pairs": "37e57bc3fa0d421e101384d341dbb9748b8b593cc9b6709c9180c83a87177524",
    "05_hole_classes": "65071cd56cfb28776a26289ed41b798a4e52ee51f6a46044384d894df73c762f",
    "06_overlap_and_unions": "9df95d4dd31c5211732a40d8c3b1f6766d49e9b5d5e999823cedc4c3a8245808",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(forbor.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
