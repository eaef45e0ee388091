"""Command-line front end: scenario files, sweeps to CSV, validation.

Scenario files are UTF-8 JSON with an explicit schema_version. Complex
matrices are stored as separate real/imag nested arrays so the files stay
diffable. A handful of named presets ship with the package (see the
presets/ data directory); commands accept either a file path or a preset
name.

A loaded scenario is the file's JSON object itself. `parse_scenario_dict`
checks it once, numbers included, and returns it in canonical form: the
mode alias "asymptotic-asymmetric" reads "asymptotic", and `mode`,
`generation_index` and `copies` are filled in when absent. Parsing the
canonical form again returns it unchanged, and it survives a JSON round
trip. `realize` and the commands read it by key.

Exit codes: 0 success (rate: solver status optimal or near-optimal),
1 schema, file, flag or scenario problems, 2 solver failure. `sweep`
realizes the file's own scenario before its grid, so only an error that
depends on the swept value becomes an `error:` row (exit 0); any other
exits 1 before any solve.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from importlib import resources
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import mdi
from .quantum import (
    NAMED_DEVICES,
    BlochPovmSpec,
    DensityMatrix,
    ObservedStatistics,
    Povm,
    StateEnsemble,
    angle_states,
    bloch_to_density,
    check_unbiased,
    extremal_diagnosis,
    povm_from_bloch,
    require_distribution,
    tensor_ensemble,
    tensor_povm,
)
# not called: the benchmark traces these names; the import goes when
# ROADMAP item 1 drops those span targets
from .quantum import sigma_x_povm, sigma_z_povm  # noqa: F401
from .sdp_solver import SolverOptions

__all__ = [
    "SchemaError",
    "parse_scenario_dict",
    "load_scenario_spec",
    "realize",
    "preset_names",
    "main",
]

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_SOLVER = 2

SCHEMA_VERSION = 1
CSV_HEADER = "param,rate_bits,rate_per_qubit,p_guess_upper,classical_bound_bits,status"

_NAMED_POVMS = tuple(NAMED_DEVICES)
# the list field of each source kind that holds one entry per state
_STATE_FIELDS = {"bloch": "vectors", "density": "matrices"}


class SchemaError(ValueError):
    """Scenario file violates the schema; message names the field."""


@contextlib.contextmanager
def _naming(where: str):
    """Re-raise a ValueError of the enclosed code as a SchemaError naming
    the field `where`."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return d[key]


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(v).__name__}")
    if not abs(v) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise SchemaError(f"{where}: expected a finite number, got {v}")
    return float(v)


def _positive_int(d: dict, key: str) -> int:
    v = d.get(key, 1)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise SchemaError(f"{key}: expected a positive integer")
    return v


def _array(v, depth: int, where: str) -> np.ndarray:
    """Non-empty JSON lists nested `depth` deep around numbers, as floats."""
    def check(x, k: int, at: str) -> None:
        if k == 0:
            _number(x, at)
            return
        if not isinstance(x, list) or not x:
            raise SchemaError(f"{at}: expected a non-empty list")
        for i, y in enumerate(x):
            check(y, k - 1, f"{at}[{i}]")

    check(v, depth, where)
    try:
        return np.array(v, dtype=float)
    except ValueError:
        raise SchemaError(f"{where}: rows differ in length") from None


def _check_matrices(v, where: str) -> None:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{where}: expected a non-empty list of matrices")
    for i, m in enumerate(v):
        at = f"{where}[{i}]"
        if not isinstance(m, dict) or "real" not in m:
            raise SchemaError(f"{at}: expected an object with 'real' (and optional 'imag')")
        re = _array(m["real"], 2, f"{at}.real")
        if re.shape[0] != re.shape[1]:
            raise SchemaError(f"{at}: 'real' must be a square matrix")
        if m.get("imag") is not None and _array(m["imag"], 2, f"{at}.imag").shape != re.shape:
            raise SchemaError(f"{at}: 'imag' shape differs from 'real'")


def parse_scenario_dict(d: dict) -> dict:
    """Validate raw JSON contents against schema_version 1.

    Returns the canonical scenario: a shallow copy of `d` with the mode
    alias resolved and `mode`, `generation_index` and `copies` filled in.
    Parsing the result again returns it unchanged.
    """
    if not isinstance(d, dict):
        raise SchemaError("top level: expected a JSON object")
    version = _need(d, "schema_version", "top level")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: unsupported value {version!r} (expected {SCHEMA_VERSION})")

    mode = d.get("mode", mdi.MODE_ASYMPTOTIC)
    if mode == "asymptotic-asymmetric":
        mode = mdi.MODE_ASYMPTOTIC
    if mode not in (mdi.MODE_ASYMPTOTIC, mdi.MODE_FINITE_Q):
        raise SchemaError(f"mode: unknown value {mode!r}")

    gen = _positive_int(d, "generation_index")

    src = _need(d, "source", "top level")
    if not isinstance(src, dict):
        raise SchemaError("source: expected an object")
    kind = _need(src, "kind", "source")
    if kind == "bloch":
        if _array(_need(src, "vectors", "source"), 2, "source.vectors").shape[1] != 3:
            raise SchemaError("source.vectors: expected three components per vector")
    elif kind == "angle":
        alpha = _number(_need(src, "alpha", "source"), "source.alpha")
        if not 0.0 <= alpha <= 1.0:
            raise SchemaError("source.alpha: must lie in [0, 1]")
    elif kind == "density":
        _check_matrices(_need(src, "matrices", "source"), "source.matrices")
    else:
        raise SchemaError(f"source.kind: unknown value {kind!r}")

    if "probs" in d:
        p = _array(d["probs"], 1, "probs")
        if p.size != _n_states(src):
            raise SchemaError(f"probs: {p.size} entries for {_n_states(src)} states")
        with _naming("probs"):
            require_distribution(p, "input probabilities")

    copies = _positive_int(d, "copies")

    has_device = "device" in d
    if has_device == ("statistics" in d):
        raise SchemaError("top level: provide exactly one of 'device' or 'statistics'")

    if has_device:
        dev = d["device"]
        if not isinstance(dev, dict):
            raise SchemaError("device: expected an object")
        eta = _number(_need(dev, "eta", "device"), "device.eta")
        if not 0.0 <= eta <= 1.0:
            raise SchemaError("device.eta: must lie in [0, 1]")
        dev_kind = _need(dev, "kind", "device")
        if dev_kind == "named":
            dev_name = _need(dev, "name", "device")
            if dev_name not in _NAMED_POVMS:
                raise SchemaError(
                    f"device.name: unknown POVM {dev_name!r} (known: {', '.join(_NAMED_POVMS)})"
                )
        elif dev_kind == "bloch":
            _array(_need(dev, "weights", "device"), 1, "device.weights")
            _array(_need(dev, "directions", "device"), 2, "device.directions")
        elif dev_kind == "elements":
            _check_matrices(_need(dev, "elements", "device"), "device.elements")
        else:
            raise SchemaError(f"device.kind: unknown value {dev_kind!r}")
    else:
        st = d["statistics"]
        if not isinstance(st, dict) or "conditionals" not in st:
            raise SchemaError("statistics: expected an object with 'conditionals'")
        _array(st["conditionals"], 2, "statistics.conditionals")
        if copies != 1:
            raise SchemaError("copies: tensor powers need an honest device, not a raw table")

    for key in ("name", "description"):
        if d.get(key) is not None and not isinstance(d[key], str):
            raise SchemaError(f"{key}: expected a string")

    return {**d, "mode": mode, "generation_index": gen, "copies": copies}


def preset_names() -> list[str]:
    root = resources.files("mdirand").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario_spec(token: str) -> dict:
    """Load from a file path, or fall back to a bundled preset name."""
    path = Path(token)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        name = token[:-5] if token.endswith(".json") else token
        res = resources.files("mdirand").joinpath("presets", f"{name}.json")
        if not res.is_file():
            raise SchemaError(
                f"{token}: no such file or preset (presets: {', '.join(preset_names())})"
            )
        text = res.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{token}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    return parse_scenario_dict(raw)


def _complex_matrix(m: dict) -> np.ndarray:
    re = np.array(m["real"], dtype=float)
    im = m.get("imag")
    return re.astype(complex) if im is None else re + 1.0j * np.array(im, dtype=float)


def _n_states(src: dict) -> int:
    """The number of states a source declares, before any tensor power."""
    return 2 if src["kind"] == "angle" else len(src[_STATE_FIELDS[src["kind"]]])


def _build_states(spec: dict, alpha: float | None) -> tuple:
    src = spec["source"]
    if src["kind"] == "angle":
        with _naming("source.alpha"):
            return angle_states(float(src["alpha"] if alpha is None else alpha)).states
    key = _STATE_FIELDS[src["kind"]]
    states = []
    for i, v in enumerate(src[key]):
        with _naming(f"source.{key}[{i}]"):
            states.append(bloch_to_density(v) if key == "vectors"
                          else DensityMatrix(_complex_matrix(v)))
    return tuple(states)


def _device_bloch(dev: dict) -> BlochPovmSpec | None:
    """The Bloch form of a named or Bloch device; None for explicit elements."""
    if dev["kind"] == "named":
        return NAMED_DEVICES[dev["name"]]
    if dev["kind"] == "bloch":
        with _naming("device"):
            return BlochPovmSpec(
                np.array(dev["weights"], dtype=float), np.array(dev["directions"], dtype=float)
            )
    return None


def _build_povm(spec: dict) -> Povm:
    bloch = _device_bloch(spec["device"])
    if bloch is None:
        with _naming("device.elements"):
            base = Povm(tuple(_complex_matrix(m) for m in spec["device"]["elements"]))
    else:
        base = povm_from_bloch(bloch)
    with _naming("copies"):
        return tensor_povm(base, spec["copies"]) if spec["copies"] > 1 else base


def realize(
    spec: dict,
    eta: float | None = None,
    alpha: float | None = None,
    q: float | None = None,
) -> mdi.Scenario:
    """Build the quantum objects of a canonical scenario (see
    `parse_scenario_dict`); keyword overrides feed parameter sweeps and
    must pass `_check_overrides`. A ValueError from the scenario's own
    data names its field."""
    overrides = {k: v for k, v in (("eta", eta), ("alpha", alpha), ("q", q)) if v is not None}
    _check_overrides(spec, {k: k for k in overrides}, overrides)
    states = _build_states(spec, alpha)
    if q is not None:
        probs = np.array([q, 1.0 - q])
    else:
        probs = np.array(spec.get("probs", [1.0 / len(states)] * len(states)), dtype=float)
    ensemble = StateEnsemble(states, probs)
    if spec["copies"] > 1:
        with _naming("copies"):
            ensemble = tensor_ensemble(ensemble, spec["copies"])

    if "statistics" in spec:
        # the row count is checked by Scenario against the states
        with _naming("statistics.conditionals"):
            scenario = mdi.Scenario(
                ensemble, ObservedStatistics(spec["statistics"]["conditionals"]), mode=spec["mode"]
            )
    else:
        povm = _build_povm(spec)
        with _naming("device"):
            scenario = mdi.honest_scenario(
                ensemble,
                povm,
                eta=float(spec["device"]["eta"] if eta is None else eta),
                mode=spec["mode"],
            )
    # outside the field naming: its error names generation_index itself
    return dataclasses.replace(scenario, generation_index=spec["generation_index"])


# the range of each override parameter: its test and the error's words
_OVERRIDE_RANGES = {
    "eta": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "alpha": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "q": (lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
}


def _check_overrides(spec: dict, flags: dict, values: dict | None = None) -> None:
    """Reject an override of a quantity the scenario does not have, or a
    value outside its range.

    `flags` maps each overridden parameter to the flag that set it, which
    the error names; `values` maps parameters to their values where they
    are known (a sweep's grid points are checked one by one). The one rule
    of overrides: the commands apply it to their flags, `realize` to its
    keyword overrides.
    """
    if "alpha" in flags and spec["source"]["kind"] != "angle":
        raise SchemaError(f"{flags['alpha']}: scenario source must have kind 'angle'")
    if "eta" in flags and "statistics" in spec:
        raise SchemaError(
            f"{flags['eta']}: scenario has a raw statistics table, no device to degrade"
        )
    if "q" in flags and _n_states(spec["source"]) != 2:
        raise SchemaError(f"{flags['q']}: scenario source must have exactly two states")
    for param, value in (values or {}).items():
        in_range, words = _OVERRIDE_RANGES[param]
        if not in_range(value):
            raise SchemaError(f"{flags[param]}: {words}")


def _solver_options(args) -> SolverOptions:
    """The solver flags that were given; SolverOptions supplies the rest."""
    kwargs = {f: getattr(args, f) for f in ("gap_tol", "feas_tol", "max_iter", "relax")
              if getattr(args, f) is not None}
    try:
        return SolverOptions(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"solver options: {exc}") from None


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return format(v, ".9g")


def cmd_rate(args) -> int:
    spec = load_scenario_spec(args.scenario)
    overrides = {p: v for p in ("eta", "alpha", "q") if (v := getattr(args, p)) is not None}
    _check_overrides(spec, {p: f"--{p}" for p in overrides}, overrides)
    res = mdi.guessing_probability(realize(spec, **overrides), _solver_options(args))
    record = {"scenario": spec.get("name"), **dataclasses.asdict(res)}
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        if record["scenario"]:
            print(f"scenario: {record['scenario']}")
        print(f"status: {res.status}")
        for key in (
            "rate_bits",
            "rate_per_qubit",
            "p_guess_upper",
            "classical_bound_bits",
            "input_cost_bits",
            "net_expansion_bits",
        ):
            print(f"{key}: {_fmt(record[key])}")
        for note in res.notes:
            print(f"note: {note}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n",
                                  encoding="utf-8")
    return EXIT_OK if res.ok else EXIT_SOLVER


def _sweep_worker(task):
    spec, param, value, opts = task
    try:
        res = mdi.guessing_probability(realize(spec, **{param: value}), opts)
        return (value, res.rate_bits, res.rate_per_qubit, res.p_guess_upper,
                res.classical_bound_bits, res.status)
    except Exception as exc:  # recorded per row, the sweep continues
        msg = f"error: {exc}".replace(",", ";").replace("\n", " ")
        return (value, math.nan, math.nan, math.nan, math.nan, msg)


def cmd_sweep(args) -> int:
    spec = load_scenario_spec(args.scenario)
    if args.steps < 1:
        raise SchemaError("--steps: need at least one grid point")
    if args.jobs is not None and args.jobs < 1:
        raise SchemaError("--jobs: need at least one worker process")
    _check_overrides(spec, {args.param: f"--param {args.param}"})
    opts = _solver_options(args)
    # the file's own scenario: an error that no swept value can mend
    # exits here, before the grid
    realize(spec)
    grid = [float(g) for g in np.linspace(args.start, args.stop, args.steps)]
    tasks = [(spec, args.param, g, opts) for g in grid]
    jobs = min(args.jobs or len(tasks), len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            rows = pool.map(_sweep_worker, tasks)
    else:
        rows = [_sweep_worker(t) for t in tasks]
    lines = [CSV_HEADER]
    for value, rate, per_qubit, p_up, classical, status in rows:
        lines.append(
            f"{_fmt(value)},{_fmt(rate)},{_fmt(per_qubit)},{_fmt(p_up)},{_fmt(classical)},{status}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _validate_report(spec: dict) -> list[tuple[str, str, str]]:
    """(check, verdict, detail) triples; verdict in {pass, FAIL, skipped}."""
    out: list[tuple[str, str, str]] = []

    class SkipCheck(Exception):
        pass

    def check(name: str, fn):
        try:
            detail = fn()
            out.append((name, "pass", detail or ""))
        except SkipCheck as sk:
            out.append((name, "skipped", str(sk)))
        except Exception as exc:
            out.append((name, "FAIL", str(exc)))

    def states_ok():
        states = _build_states(spec, None)
        return f"{len(states)} valid state(s), dim {states[0].dim}"

    def probs_ok():
        # the schema has applied the distribution rule
        return f"{len(spec['probs'])} entries" if "probs" in spec else "uniform (default)"

    def povm_ok():
        if "statistics" in spec:
            raise SkipCheck("raw statistics table, no device")
        povm = _build_povm(spec)
        return f"{povm.n_outcomes} outcomes, dim {povm.dim}, complete and PSD"

    def device_bloch() -> BlochPovmSpec:
        if "statistics" in spec:
            raise SkipCheck("raw statistics table, no device")
        bloch = _device_bloch(spec["device"])
        if bloch is None:
            raise SkipCheck("explicit matrix elements carry no Bloch form")
        return bloch

    def unbiased_ok():
        b = device_bloch()
        if not check_unbiased(b):
            raise ValueError("outcome probabilities on the |+> input are not uniform")
        return "uniform outcomes on |+>"

    def extremal_ok():
        diag = extremal_diagnosis(device_bloch())
        if diag is not None:
            raise ValueError(diag)
        return "rank-one elements, linearly independent"

    def stats_ok():
        if "statistics" not in spec:
            raise SkipCheck("honest device generates the table")
        # the record realize builds, so the rule realize applies
        stats = ObservedStatistics(spec["statistics"]["conditionals"])
        return f"{stats.n_states} rows, {stats.n_outcomes} outcomes"

    def build_ok():
        scen = realize(spec)
        sym = mdi.symmetry_summary(scen)
        return (f"n_s={scen.n_states}, n_o={scen.n_outcomes}, d={scen.dim}, mode={scen.mode}"
                + (f", symmetry {sym}" if sym else ""))

    check("state validity", states_ok)
    check("input distribution", probs_ok)
    check("povm validity", povm_ok)
    check("unbiasedness", unbiased_ok)
    check("extremality", extremal_ok)
    check("statistics table", stats_ok)
    check("scenario build", build_ok)
    return out


def cmd_validate(args) -> int:
    spec = load_scenario_spec(args.scenario)
    if spec.get("name"):
        print(f"scenario: {spec['name']}")
    report = _validate_report(spec)
    failures = 0
    for name, verdict, detail in report:
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {verdict}{suffix}")
        failures += verdict == "FAIL"
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return EXIT_OK


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gap-tol", dest="gap_tol", type=float, default=None,
                   help="relative duality-gap tolerance (default 1e-8)")
    p.add_argument("--feas-tol", dest="feas_tol", type=float, default=None,
                   help="feasibility tolerance (default 1e-8)")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                   help="interior-point iteration cap (default 200)")
    p.add_argument("--relax", type=float, default=None,
                   help="half-width of the statistics equality band (default 0)")
    p.add_argument("--verbose", action="store_true",
                   help="print the solver iteration log")


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=None,
                   help="override the device quality of the scenario file")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the angle parameter (angle sources only)")
    p.add_argument("--q", type=float, default=None,
                   help="override the first-input probability (two-state sources)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdirand",
        description="Certified randomness rates for trusted-source, untrusted-detector setups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="solve one scenario and print the rate")
    p_rate.add_argument("scenario", help="scenario JSON path or preset name")
    _add_override_flags(p_rate)
    _add_solver_flags(p_rate)
    p_rate.add_argument("--json", action="store_true", help="machine-readable output")
    p_rate.add_argument("--out", default=None, help="also write the JSON record to a file")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="grid sweep over one parameter, CSV output")
    p_sweep.add_argument("scenario", help="scenario JSON path or preset name")
    p_sweep.add_argument("--param", required=True, choices=("eta", "alpha", "q"))
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count)")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="report semantic checks for a scenario file")
    p_val.add_argument("scenario", help="scenario JSON path or preset name")
    p_val.set_defaults(func=cmd_validate)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its message: 2 for malformed flags, 0 for --help
        return EXIT_SCHEMA if exc.code == 2 else exc.code
    # --verbose: the solver's DEBUG lines on stderr, for this call alone
    log = logging.getLogger("mdirand")
    handler, level = logging.StreamHandler(), log.level
    if getattr(args, "verbose", False):
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
