"""The benchmark's self-check passes against the current code."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    # the benchmark traces library functions by module and name, and reads
    # their reports; a renamed or re-signatured one fails here first
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck ok"
