"""The benchmark's own self-check runs against the current sources."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
