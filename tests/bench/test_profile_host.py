"""``benchmarks/profile_host.py``: a sampling profile of a benchmark workload."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "benchmarks" / "profile_host.py"


def test_profiles_the_smoke_serve_ladder():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "serve-ladder", "--smoke", "--reps", "2",
         "--top", "1000"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    samples = re.fullmatch(r"(\d+) samples over 2 reps, [\d.]+ CPU s \(one per .* ms\)", lines[0])
    assert samples, lines[0]
    if int(samples.group(1)):
        assert "  share  innermost frame's package" in lines
        assert "  self%    cum%  repro function" in lines
        rows = lines[lines.index("  self%    cum%  repro function") + 1:]
        assert rows and all(re.fullmatch(r" *[\d.]+% +[\d.]+%  repro\.\S+", row) for row in rows)
        # The serve loop is on every sampled stack of the timed call.
        assert any(row.endswith("repro.serve.loop.ExplanationService.process") for row in rows)


def test_rejects_a_bad_rep_count():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "serve-ladder", "--reps", "0"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert completed.returncode == 2
    assert "--reps must be at least 1" in completed.stderr
