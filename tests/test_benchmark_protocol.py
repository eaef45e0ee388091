"""The benchmark's traced protocol on the one workload that starts the sweep
pool: the last line of stdout is the JSON result.

perfbench/run.py runs `sweep-1q` traced through two sweep workers under
redirect_stdout, so anything a pool worker or an exit handler writes to
the process's stdout would land after the result line, which is what the
benchmark parses.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pool_run_ends_with_its_json_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-1q", "--seed", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
