"""The benchmark's workloads: which certified rates one pass asks for.

Every workload goes through mdirand's public API or its CLI, as a user
would, and turns each certified rate into an ``Outcome``. All calls into
mdirand go through module attributes (``cli.realize``,
``mdi.guessing_probability`` ...) so that the wrappers of a traced run
see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from mdirand import cli, mdi

RATE_TOL = 1e-7  # ROADMAP gate: a rate may move by at most this much

SWEEP_PRESET = "fig3-blue"
SWEEP_GRID = ["--param", "eta", "--from", "0.8", "--to", "1.0"]
SWEEP_STEPS = 21
# The traced run measures the pool on every other point of the grid: the
# whole grid on two workers has taken 70-95 s, too close to the 180 s a
# run may last.
POOL_JOBS = 2
POOL_STEPS = 11

# Raises at the default constraint cap and takes minutes with the cap raised;
# see README.md.
EXCLUDED_PRESETS = ("fig6-2s-m3",)

# The two presets that pair with two_copy_detail: the tomographic source at
# eta 0.9 with each device.
TWO_COPY_PRESETS = {"extremal3": "fig7-3o", "sigma_z": "fig7-proj"}


@dataclass(frozen=True)
class Outcome:
    """One operation: one certified rate, or the error that replaced it."""

    op: str
    rate_bits: float
    ok: bool
    error: str = ""


@dataclass(frozen=True)
class Workload:
    """prepare(seed) -> inputs; run_pass(inputs, op_span) -> outcomes.

    op_span(op_id) is a context manager around one operation; the traced
    run uses it to tag spans, the untraced run keeps the no-op default.
    """

    name: str
    prepare: Callable[[int], object]
    run_pass: Callable[[object, Callable], list[Outcome]]
    uses_pool: bool = False


def _rate_outcome(op: str, res) -> Outcome:
    return Outcome(op, res.rate_bits, res.ok, "" if res.ok else f"status {res.status}")


# --- presets: one rate per bundled preset, in the preset's own mode ------

def _presets_workload(name: str, presets: tuple[str, ...] | None) -> Workload:
    def prepare(seed: int):
        names = presets or tuple(
            p for p in cli.preset_names() if p not in EXCLUDED_PRESETS
        )
        ops = [(p, cli.realize(cli.load_scenario_spec(p))) for p in names]
        random.Random(seed).shuffle(ops)
        return ops

    def run_pass(ops, op_span=contextlib.nullcontext) -> list[Outcome]:
        out = []
        for op, scenario in ops:
            with op_span(op):
                try:
                    out.append(_rate_outcome(op, mdi.guessing_probability(scenario)))
                except Exception as exc:  # counted as a failed operation
                    out.append(Outcome(op, math.nan, False, repr(exc)))
        return out

    return Workload(name, prepare, run_pass)


# --- two-copy: the doubling study behind acceptance test 6 ---------------

def _two_copy_prepare(seed: int):
    ops = [(dev, cli.realize(cli.load_scenario_spec(preset)))
           for dev, preset in TWO_COPY_PRESETS.items()]
    random.Random(seed).shuffle(ops)
    return ops


def _two_copy_pass(ops, op_span=contextlib.nullcontext) -> list[Outcome]:
    out = []
    for dev, scenario in ops:
        with op_span(dev):
            try:
                res = mdi.two_copy_detail(scenario)
            except Exception as exc:  # both rates of the study fail
                out += [Outcome(f"{dev}/{part}", math.nan, False, repr(exc))
                        for part in ("single", "doubled")]
                continue
        out.append(_rate_outcome(f"{dev}/single", res.single))
        out.append(_rate_outcome(f"{dev}/doubled", res.doubled))
    return out


# --- sweep-1q: the ROADMAP's 21-point eta sweep, through cli.main --------

def parse_sweep_csv(text: str) -> list[Outcome]:
    lines = text.splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        return []
    out = []
    for line in lines[1:]:
        param, rate, _, _, _, status = line.split(",", 5)
        ok = status in (mdi.OPTIMAL, mdi.NEAR_OPTIMAL)
        out.append(Outcome(f"eta={param}", float(rate), ok, "" if ok else status))
    return out


def run_sweep(jobs: int, steps: int = SWEEP_STEPS) -> list[Outcome]:
    """One `mdirand sweep` over the grid; the CSV it prints is the result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["sweep", SWEEP_PRESET, *SWEEP_GRID, "--steps", str(steps),
                         "--jobs", str(jobs)])
    if code != cli.EXIT_OK:
        return [Outcome("sweep", math.nan, False, f"exit code {code}")]
    return parse_sweep_csv(buf.getvalue())


def pool_reference(reference: dict[str, float]) -> dict[str, float]:
    """Reference rates of the POOL_STEPS grid: every other full-grid point."""
    ops = sorted(reference, key=lambda op: float(op.split("=")[1]))
    return {op: reference[op] for op in ops[::2]}


def _sweep_prepare(seed: int):
    # the grid is fixed; the seed has nothing to vary here
    return cli.realize(cli.load_scenario_spec(SWEEP_PRESET))


def _sweep_pass(_prepared, op_span=contextlib.nullcontext) -> list[Outcome]:
    # end-to-end runs use one process: with two workers the wall time of
    # the same sweep varies several-fold (see README.md); the pool is
    # measured in the traced run instead
    return run_sweep(jobs=1)


WORKLOADS: dict[str, Workload] = {
    "sweep-1q": Workload("sweep-1q", _sweep_prepare, _sweep_pass, uses_pool=True),
    "presets": _presets_workload("presets", None),
    "two-copy": Workload("two-copy", _two_copy_prepare, _two_copy_pass),
    # tiny input for the benchmark's own smoke test; not in BENCHMARK.json
    "smoke": _presets_workload("smoke", ("fig3-green",)),
}


def check(outcomes: list[Outcome], reference: dict[str, float]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass against stored rates.

    An operation fails if it raised, its status is not ok, or its rate is
    more than RATE_TOL from the reference. Reference operations missing
    from the pass count as attempted and failed.
    """
    problems = []
    seen = set()
    for o in outcomes:
        seen.add(o.op)
        ref = reference.get(o.op)
        if not o.ok:
            problems.append(f"{o.op}: {o.error}")
        elif ref is None:
            problems.append(f"{o.op}: no reference rate")
        elif not abs(o.rate_bits - ref) <= RATE_TOL:
            problems.append(f"{o.op}: rate {o.rate_bits!r} != reference {ref!r}")
    missing = sorted(set(reference) - seen)
    problems += [f"{op}: missing from the pass" for op in missing]
    return len(outcomes) + len(missing), len(problems), problems
