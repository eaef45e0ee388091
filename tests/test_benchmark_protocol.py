"""The benchmark's traced protocol: the last line of stdout is the JSON
result, strict JSON with a finite value for every metric.

perfbench/run.py runs `sweep-1q` traced through two sweep workers under
redirect_stdout, so anything a pool worker or an exit handler writes to
the process's stdout would land after the result line, which is what the
benchmark parses. A metric with no samples reads nan, which json.dumps
writes as the bare token NaN: Python's parser takes it, a strict one
does not.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("workload", ["sweep-1q", "presets", "two-copy"])
def test_traced_run_ends_with_its_strict_json_result(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_no_constant)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values and all(math.isfinite(v) for v in values.values()), values
    assert result["correct"] is True and result["failed"] == 0
