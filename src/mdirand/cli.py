"""Command-line front end: scenario files, sweeps to CSV, validation.

Scenario files are UTF-8 JSON with an explicit schema_version. Complex
matrices are stored as separate real/imag nested arrays so the files stay
diffable. A handful of named presets ship with the package (see the
presets/ data directory); commands accept either a file path or a preset
name.

Exit codes: 0 success (rate: solver status optimal or near-optimal),
1 schema or file problems, 2 solver failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import mdi
from .quantum import (
    BlochPovmSpec,
    DensityMatrix,
    ObservedStatistics,
    Povm,
    StateEnsemble,
    angle_states,
    bloch_to_density,
    check_unbiased,
    extremal3,
    extremal4,
    extremal_diagnosis,
    povm_from_bloch,
    sigma_x_povm,
    sigma_z_povm,
    tensor_ensemble,
    tensor_povm,
)
from .sdp_solver import SolverOptions

__all__ = [
    "SchemaError",
    "ScenarioSpec",
    "parse_scenario_dict",
    "spec_to_dict",
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

_NAMED_POVMS = ("sigma_z", "sigma_x", "extremal3", "extremal4")

_ENV_PREFIX = "MDIRAND_"
_ENV_FIELDS = {
    "gap_tol": float,
    "feas_tol": float,
    "max_iter": int,
    "relax": float,
    "max_constraints": int,
    "max_block_dim": int,
}


class SchemaError(ValueError):
    """Scenario file violates the schema; message names the field."""


def _tup(rows):
    """Nested lists of numbers to nested tuples (hashable, eq-comparable)."""
    if isinstance(rows, (list, tuple)):
        return tuple(_tup(r) for r in rows)
    return float(rows)


def _untup(rows):
    if isinstance(rows, tuple):
        return [_untup(r) for r in rows]
    return rows


@dataclass(frozen=True)
class ScenarioSpec:
    """Parsed, canonical scenario file contents (plain data, no numpy)."""

    name: str | None = None
    description: str | None = None
    mode: str = mdi.MODE_ASYMPTOTIC
    generation_index: int = 1
    source_kind: str = "bloch"
    bloch_vectors: tuple | None = None
    alpha: float | None = None
    matrices: tuple | None = None
    probs: tuple | None = None
    copies: int = 1
    device_kind: str | None = None
    device_name: str | None = None
    device_weights: tuple | None = None
    device_directions: tuple | None = None
    device_elements: tuple | None = None
    eta: float | None = None
    statistics: tuple | None = None


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return d[key]


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(v).__name__}")
    return float(v)


def _matrix_list(v, where: str) -> tuple:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{where}: expected a non-empty list of matrices")
    out = []
    for i, m in enumerate(v):
        if not isinstance(m, dict) or "real" not in m:
            raise SchemaError(f"{where}[{i}]: expected an object with 'real' (and optional 'imag')")
        re = m["real"]
        im = m.get("imag")
        try:
            re_t = _tup(re)
            im_t = _tup(im) if im is not None else None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}[{i}]: non-numeric entry ({exc})") from None
        out.append((re_t, im_t))
    return tuple(out)


def parse_scenario_dict(d: dict) -> ScenarioSpec:
    """Validate raw JSON contents against schema_version 1."""
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

    gen = d.get("generation_index", 1)
    if not isinstance(gen, int) or isinstance(gen, bool) or gen < 1:
        raise SchemaError("generation_index: expected a positive integer (1-based)")

    src = _need(d, "source", "top level")
    if not isinstance(src, dict):
        raise SchemaError("source: expected an object")
    kind = _need(src, "kind", "source")
    bloch = alpha = matrices = None
    if kind == "bloch":
        vecs = _need(src, "vectors", "source")
        if not isinstance(vecs, list) or not vecs:
            raise SchemaError("source.vectors: expected a non-empty list")
        for i, v in enumerate(vecs):
            if not isinstance(v, list) or len(v) != 3:
                raise SchemaError(f"source.vectors[{i}]: expected three components")
        bloch = _tup(vecs)
    elif kind == "angle":
        alpha = _number(_need(src, "alpha", "source"), "source.alpha")
        if not 0.0 <= alpha <= 1.0:
            raise SchemaError("source.alpha: must lie in [0, 1]")
    elif kind == "density":
        matrices = _matrix_list(_need(src, "matrices", "source"), "source.matrices")
    else:
        raise SchemaError(f"source.kind: unknown value {kind!r}")

    probs = None
    if "probs" in d:
        p = d["probs"]
        if not isinstance(p, list) or not p:
            raise SchemaError("probs: expected a non-empty list of numbers")
        vals = [_number(v, f"probs[{i}]") for i, v in enumerate(p)]
        if any(v < 0.0 for v in vals):
            raise SchemaError("probs: entries must be non-negative")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise SchemaError(f"probs: must sum to 1 (got {sum(vals):.6g})")
        probs = tuple(vals)

    copies = d.get("copies", 1)
    if not isinstance(copies, int) or isinstance(copies, bool) or copies < 1:
        raise SchemaError("copies: expected a positive integer")

    has_device = "device" in d
    has_stats = "statistics" in d
    if has_device == has_stats:
        raise SchemaError("top level: provide exactly one of 'device' or 'statistics'")

    dev_kind = dev_name = None
    dev_w = dev_m = dev_el = None
    eta = None
    statistics = None
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
            dev_w = _tup(_need(dev, "weights", "device"))
            dev_m = _tup(_need(dev, "directions", "device"))
        elif dev_kind == "elements":
            dev_el = _matrix_list(_need(dev, "elements", "device"), "device.elements")
        else:
            raise SchemaError(f"device.kind: unknown value {dev_kind!r}")
    else:
        st = d["statistics"]
        if not isinstance(st, dict) or "conditionals" not in st:
            raise SchemaError("statistics: expected an object with 'conditionals'")
        rows = st["conditionals"]
        if not isinstance(rows, list) or not rows:
            raise SchemaError("statistics.conditionals: expected a non-empty table")
        statistics = _tup(rows)
        if copies != 1:
            raise SchemaError("copies: tensor powers need an honest device, not a raw table")

    name = d.get("name")
    desc = d.get("description")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name: expected a string")
    if desc is not None and not isinstance(desc, str):
        raise SchemaError("description: expected a string")

    return ScenarioSpec(
        name=name,
        description=desc,
        mode=mode,
        generation_index=gen,
        source_kind=kind,
        bloch_vectors=bloch,
        alpha=alpha,
        matrices=matrices,
        probs=probs,
        copies=copies,
        device_kind=dev_kind,
        device_name=dev_name,
        device_weights=dev_w,
        device_directions=dev_m,
        device_elements=dev_el,
        eta=eta,
        statistics=statistics,
    )


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Canonical JSON form; parse(spec_to_dict(s)) == s."""
    d: dict = {"schema_version": SCHEMA_VERSION}
    if spec.name is not None:
        d["name"] = spec.name
    if spec.description is not None:
        d["description"] = spec.description
    d["mode"] = spec.mode
    d["generation_index"] = spec.generation_index
    if spec.source_kind == "bloch":
        d["source"] = {"kind": "bloch", "vectors": _untup(spec.bloch_vectors)}
    elif spec.source_kind == "angle":
        d["source"] = {"kind": "angle", "alpha": spec.alpha}
    else:
        d["source"] = {
            "kind": "density",
            "matrices": [
                {"real": _untup(re), **({"imag": _untup(im)} if im is not None else {})}
                for re, im in spec.matrices
            ],
        }
    if spec.probs is not None:
        d["probs"] = _untup(spec.probs)
    if spec.copies != 1:
        d["copies"] = spec.copies
    if spec.statistics is not None:
        d["statistics"] = {"conditionals": _untup(spec.statistics)}
    else:
        dev: dict = {"kind": spec.device_kind, "eta": spec.eta}
        if spec.device_kind == "named":
            dev["name"] = spec.device_name
        elif spec.device_kind == "bloch":
            dev["weights"] = _untup(spec.device_weights)
            dev["directions"] = _untup(spec.device_directions)
        else:
            dev["elements"] = [
                {"real": _untup(re), **({"imag": _untup(im)} if im is not None else {})}
                for re, im in spec.device_elements
            ]
        d["device"] = dev
    return d


def preset_names() -> list[str]:
    root = resources.files("mdirand").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario_spec(token: str) -> ScenarioSpec:
    """Load from a file path, or fall back to a bundled preset name."""
    path = Path(token)
    if path.exists():
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


def _complex_matrix(re_t, im_t, where: str) -> np.ndarray:
    re = np.array(_untup(re_t), dtype=float)
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise SchemaError(f"{where}: 'real' must be a square matrix")
    if im_t is None:
        return re.astype(complex)
    im = np.array(_untup(im_t), dtype=float)
    if im.shape != re.shape:
        raise SchemaError(f"{where}: 'imag' shape differs from 'real'")
    return re + 1.0j * im


def _build_states(spec: ScenarioSpec, alpha: float | None) -> tuple:
    if spec.source_kind == "bloch":
        return tuple(bloch_to_density(np.array(v)) for v in spec.bloch_vectors)
    if spec.source_kind == "angle":
        a = spec.alpha if alpha is None else float(alpha)
        return angle_states(a).states
    return tuple(
        DensityMatrix(_complex_matrix(re, im, f"source.matrices[{i}]"))
        for i, (re, im) in enumerate(spec.matrices)
    )


def _build_povm(spec: ScenarioSpec) -> Povm:
    if spec.device_kind == "named":
        base = {
            "sigma_z": sigma_z_povm,
            "sigma_x": sigma_x_povm,
            "extremal3": lambda: povm_from_bloch(extremal3()),
            "extremal4": lambda: povm_from_bloch(extremal4()),
        }[spec.device_name]()
    elif spec.device_kind == "bloch":
        base = povm_from_bloch(
            BlochPovmSpec(np.array(spec.device_weights), np.array(spec.device_directions))
        )
    else:
        base = Povm(tuple(
            _complex_matrix(re, im, f"device.elements[{i}]")
            for i, (re, im) in enumerate(spec.device_elements)
        ))
    return tensor_povm(base, spec.copies) if spec.copies > 1 else base


def realize(
    spec: ScenarioSpec,
    eta: float | None = None,
    alpha: float | None = None,
    q: float | None = None,
) -> mdi.Scenario:
    """Build the quantum objects; keyword overrides feed parameter sweeps."""
    states = _build_states(spec, alpha)
    if q is not None:
        if len(states) != 2:
            raise SchemaError("q override needs a two-state source")
        if not 0.0 < q < 1.0:
            raise SchemaError("q: must lie strictly between 0 and 1")
        probs = np.array([q, 1.0 - q])
    elif spec.probs is not None:
        if len(spec.probs) != len(states):
            raise SchemaError(
                f"probs: {len(spec.probs)} entries for {len(states)} states"
            )
        probs = np.array(spec.probs)
    else:
        probs = np.full(len(states), 1.0 / len(states))
    ensemble = StateEnsemble(states, probs)
    if spec.copies > 1:
        ensemble = tensor_ensemble(ensemble, spec.copies)

    if spec.statistics is not None:
        table = np.array(_untup(spec.statistics), dtype=float)
        observed = ObservedStatistics(table, ensemble.probs)
        return mdi.Scenario(
            ensemble, observed, mode=spec.mode, generation_index=spec.generation_index
        )
    e = spec.eta if eta is None else float(eta)
    return mdi.honest_scenario(
        ensemble,
        _build_povm(spec),
        eta=e,
        mode=spec.mode,
        generation_index=spec.generation_index,
    )


def _env_override(field: str):
    raw = os.environ.get(_ENV_PREFIX + field.upper())
    if raw is None or raw == "":
        return None
    try:
        return _ENV_FIELDS[field](raw)
    except ValueError:
        raise SchemaError(f"environment {_ENV_PREFIX + field.upper()}: cannot parse {raw!r}") from None


def _solver_options(args) -> SolverOptions:
    """Flags beat MDIRAND_* environment variables beat defaults."""
    kwargs = {}
    for field, flag_name in (
        ("gap_tol", "gap_tol"),
        ("feas_tol", "feas_tol"),
        ("max_iter", "max_iter"),
        ("relax", "relax"),
    ):
        val = getattr(args, flag_name, None)
        if val is None:
            val = _env_override(field)
        if val is not None:
            kwargs[field] = val
    for field in ("max_constraints", "max_block_dim"):
        val = _env_override(field)
        if val is not None:
            kwargs[field] = val
    if getattr(args, "verbose", False):
        kwargs["verbose"] = True
    try:
        return SolverOptions(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"solver options: {exc}") from None


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return format(v, ".9g")


def _rate_record(spec: ScenarioSpec, res: mdi.RateResult) -> dict:
    return {
        "scenario": spec.name,
        "status": res.status,
        "rate_bits": res.rate_bits,
        "rate_per_qubit": res.rate_per_qubit,
        "p_guess_upper": res.p_guess_upper,
        "classical_bound_bits": res.classical_bound_bits,
        "input_cost_bits": res.input_cost_bits,
        "net_expansion_bits": res.net_expansion_bits,
        "sdp_primal_value": res.sdp_primal_value,
        "duality_gap": res.duality_gap,
        "primal_residual": res.primal_residual,
        "dual_min_eigenvalue": res.dual_min_eigenvalue,
        "n_iterations": res.n_iterations,
        "notes": list(res.notes),
    }


def cmd_rate(args) -> int:
    spec = load_scenario_spec(args.scenario)
    try:
        scenario = realize(spec, eta=args.eta, alpha=args.alpha, q=args.q)
    except (SchemaError, ValueError) as exc:
        raise SchemaError(str(exc)) from None
    res = mdi.guessing_probability(scenario, _solver_options(args))
    record = _rate_record(spec, res)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        if spec.name:
            print(f"scenario: {spec.name}")
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
        overrides = {param: value}
        res = mdi.guessing_probability(realize(spec, **overrides), opts)
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
    if args.param == "alpha" and spec.source_kind != "angle":
        raise SchemaError("--param alpha: scenario source must have kind 'angle'")
    if args.param in ("eta",) and spec.statistics is not None:
        raise SchemaError("--param eta: scenario has a raw statistics table, no device to degrade")
    opts = _solver_options(args)
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


def _validate_report(spec: ScenarioSpec) -> list[tuple[str, str, str]]:
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
        if spec.probs is None:
            return "uniform (default)"
        p = np.array(spec.probs)
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")
        return f"{p.size} entries"

    def povm_ok():
        if spec.statistics is not None:
            raise SkipCheck("raw statistics table, no device")
        povm = _build_povm(spec)
        return f"{povm.n_outcomes} outcomes, dim {povm.dim}, complete and PSD"

    def _device_bloch_spec() -> BlochPovmSpec:
        if spec.statistics is not None:
            raise SkipCheck("raw statistics table, no device")
        if spec.device_kind == "named":
            if spec.device_name == "extremal4":
                return extremal4()
            if spec.device_name == "extremal3":
                return extremal3()
            z = 1.0 if spec.device_name == "sigma_z" else 0.0
            x = 1.0 - z
            return BlochPovmSpec(
                np.array([0.5, 0.5]), np.array([[x, 0.0, z], [-x, 0.0, -z]])
            )
        if spec.device_kind == "bloch":
            return BlochPovmSpec(
                np.array(spec.device_weights), np.array(spec.device_directions)
            )
        raise SkipCheck("explicit matrix elements carry no Bloch form")

    def unbiased_ok():
        b = _device_bloch_spec()
        if not check_unbiased(b, b.n_outcomes):
            raise ValueError("outcome probabilities on the |+> input are not uniform")
        return "uniform outcomes on |+>"

    def extremal_ok():
        b = _device_bloch_spec()
        diag = extremal_diagnosis(b)
        if diag is not None:
            raise ValueError(diag)
        return "rank-one elements, linearly independent"

    def stats_ok():
        if spec.statistics is None:
            raise SkipCheck("honest device generates the table")
        table = np.array(_untup(spec.statistics), dtype=float)
        if table.ndim != 2:
            raise ValueError("conditionals must form a 2-d table")
        if np.any(table < -1e-12) or np.any(table > 1.0 + 1e-12):
            raise ValueError("entries must lie in [0, 1]")
        sums = table.sum(axis=1)
        bad = np.argmax(np.abs(sums - 1.0))
        if abs(sums[bad] - 1.0) > 1e-9:
            raise ValueError(f"row {bad} sums to {sums[bad]:.6g}, not 1")
        return f"{table.shape[0]} rows, {table.shape[1]} outcomes"

    def build_ok():
        scen = realize(spec)
        return (
            f"n_s={scen.n_states}, n_o={scen.n_outcomes}, d={scen.dim}, "
            f"mode={scen.mode}"
        )

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
    if spec.name:
        print(f"scenario: {spec.name}")
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

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
