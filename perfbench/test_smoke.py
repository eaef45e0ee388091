"""Smoke test of the benchmark itself, on the one-rate fig3-green input.

    python3 -m pytest -q perfbench/test_smoke.py     # from the repository root
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.WORKLOADS["smoke"]


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_named_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _run(trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_wrong_reference_counts_as_failure():
    outcomes = SMOKE.run_pass(SMOKE.prepare(0))
    good = {o.op: o.rate_bits for o in outcomes}
    assert workloads.check(outcomes, good)[:2] == (1, 0)
    off = {op: r + 10 * workloads.RATE_TOL for op, r in good.items()}
    assert workloads.check(outcomes, off)[:2] == (1, 1)
    missing = {**good, "fig3-absent": 1.0}
    assert workloads.check(outcomes, missing)[:2] == (2, 1)


def test_no_wrapper_leaks_into_untraced_run():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.leaked_wrappers()  # the detector sees installed wrappers
        SMOKE.run_pass(SMOKE.prepare(0), tracer.op_span)
    finally:
        tracer.uninstall()
    assert spans.leaked_wrappers() == []
    n_spans = len(tracer.spans)
    assert n_spans > 0
    SMOKE.run_pass(SMOKE.prepare(0))
    assert len(tracer.spans) == n_spans
