"""mdirand benchmark: certified-rate time, CPU and memory per workload.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run. See README.md in this directory for the workloads
and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

SETUP_PROBES = 5


def _import_program():
    if not (SRC / "mdirand" / "__init__.py").is_file():
        raise SystemExit(f"error: no mdirand sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mdirand

    if Path(mdirand.__file__).resolve().parent != SRC / "mdirand":
        raise SystemExit(f"error: imported mdirand from {mdirand.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment_stamp() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }
    # recorded, never set: the measured program keeps its default BLAS threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        stamp[var] = os.environ.get(var)
    return stamp


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until the workload is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return t1 - t0


def _metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def measured_run(wl, reference: dict, seed: int, seconds: float) -> dict:
    """End-to-end metrics; tracing is off throughout."""
    from spans import leaked_wrappers
    from workloads import check

    setup = statistics.median(_setup_probe(wl.name, seed) for _ in range(SETUP_PROBES))
    inputs = wl.prepare(seed)
    leaked = leaked_wrappers()
    if leaked:
        raise RuntimeError(f"tracing wrappers present in an untraced run: {leaked}")
    walls, cpus, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        outcomes = wl.run_pass(inputs)
        t1, c1 = time.perf_counter(), _cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        a, f, p = check(outcomes, reference)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    for p in problems:
        print(f"failed: {p}", file=sys.stderr)
    print(f"passes: {len(walls)}  wall_s: {[round(w, 3) for w in walls]}  "
          f"cpu_s: {[round(c, 3) for c in cpus]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics({
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }),
    }


def traced_run(wl, reference: dict, seed: int, env: dict) -> dict:
    """Per-layer metrics: two untraced passes, then one traced set-up and
    pass.

    For sweep-1q both passes run the grid serially in this process; a
    further untraced sweep of every other grid point on a two-worker pool
    gives the pool efficiency.
    """
    from spans import Tracer, layer_metrics, leaked_wrappers
    from workloads import POOL_JOBS, POOL_STEPS, check, pool_reference, run_sweep

    inputs = wl.prepare(seed)
    # the first pass of a process pays first-call costs (lazy imports, BLAS
    # buffers, fresh heap pages), about a tenth of a presets pass; the
    # second one is the untraced baseline the traced pass is compared with
    first = wl.run_pass(inputs)
    t0 = time.perf_counter()
    plain = wl.run_pass(inputs)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            traced_inputs = wl.prepare(seed)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            traced = wl.run_pass(traced_inputs, tracer.op_span)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    leaked = leaked_wrappers()
    if leaked:
        raise RuntimeError(f"tracing wrappers left installed: {leaked}")

    checks = [(first, reference), (plain, reference), (traced, reference)]
    op_times = tracer.op_durations()
    if wl.uses_pool:
        t0 = time.perf_counter()
        pooled = run_sweep(jobs=POOL_JOBS, steps=POOL_STEPS)
        pool_wall = time.perf_counter() - t0
        sub = pool_reference(reference)
        checks.append((pooled, sub))
        serial = sum(t for op, t in op_times if op in sub)
        pool_efficiency = serial / (POOL_JOBS * pool_wall)
    else:
        # no pool: one worker, so the ratio is operation time over pass time
        pool_wall = None
        pool_efficiency = sum(t for _, t in op_times) / traced_wall

    attempted = failed = 0
    for outcomes, ref in checks:
        a, f, problems = check(outcomes, ref)
        attempted, failed = attempted + a, failed + f
        for p in problems:
            print(f"failed: {p}", file=sys.stderr)

    values = layer_metrics(tracer)
    values["cli.pool_efficiency"] = (pool_efficiency, "ratio")
    values["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "env": env,
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "pool_wall_s": pool_wall, "spans": tracer.spans,
    }) + "\n")
    print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(dict(sorted(values.items()))),
    }


def write_reference(names: list[str]) -> None:
    """Store the rate of every operation of one pass (seed 0) as reference."""
    from workloads import WORKLOADS

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        wl = WORKLOADS[name]
        outcomes = wl.run_pass(wl.prepare(0))
        bad = [o for o in outcomes if not o.ok]
        if bad:
            raise SystemExit(f"error: {name}: operations failed: {bad}")
        ref[name] = {o.op: o.rate_bits for o in sorted(outcomes, key=lambda o: o.op)}
        print(f"{name}: {len(outcomes)} reference rates")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; passes repeat while another fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", nargs="+", metavar="WORKLOAD",
                    help="recompute and store the reference rates, then exit")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.write_reference:
        write_reference(args.write_reference)
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload: choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.prepare(args.seed)
        print("ready", flush=True)
        return 0

    reference = json.loads(REFERENCE.read_text())[wl.name]
    env = environment_stamp()
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        result = traced_run(wl, reference, args.seed, env)
    else:
        result = measured_run(wl, reference, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
