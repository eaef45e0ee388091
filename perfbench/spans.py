"""Span tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` replaces public mdirand functions by timing wrappers
under the names their callers bind them to (for example ``mdi.solve``,
which ``guessing_probability`` calls, or ``sdp_core.row_space_basis``,
which ``preprocess`` calls). ``uninstall`` puts the originals back. Spans
(name, start, end, parent, operation id) stay in memory until the run
writes them out; self times are computed from them afterwards.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict

from mdirand import cli, linalg, mdi, sdp_core, sdp_solver

WRAPPED_MARK = "__perfbench_wrapped__"

_QUANTUM_IN_CLI = ("bloch_to_density", "angle_states", "povm_from_bloch", "sigma_z_povm",
                   "sigma_x_povm", "tensor_ensemble", "tensor_povm")
_QUANTUM_IN_MDI = ("honest_statistics", "mix_white_noise", "double_ensemble",
                   "double_statistics")

# (module, attribute the caller looks up, span name)
TARGETS = [
    (cli, "load_scenario_spec", "cli.load_scenario_spec"),
    (cli, "realize", "cli.realize"),
    (cli, "_sweep_worker", "cli.sweep_point"),
    *[(cli, f, f"quantum.{f}") for f in _QUANTUM_IN_CLI],
    *[(mdi, f, f"quantum.{f}") for f in _QUANTUM_IN_MDI],
    (mdi, "guessing_probability", "mdi.guessing_probability"),
    (mdi, "face_bases", "mdi.face_bases"),
    (mdi, "build_sdp", "mdi.build_sdp"),
    (mdi, "preprocess", "sdp_core.preprocess"),
    (mdi, "row_space_basis", "linalg.row_space_basis"),
    (sdp_core, "row_space_basis", "linalg.row_space_basis"),
    (mdi, "eigh_hermitian", "linalg.jacobi"),
    (linalg, "min_eigenvalue", "linalg.jacobi"),
    (sdp_solver, "jacobi_eigvalsh", "linalg.jacobi"),
    (mdi, "solve", "sdp_solver.solve"),
]

OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.rate_results: list = []
        self.sdp_sizes: list[dict] = []
        self.iterations = 0

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "start": time.perf_counter(), "end": math.nan,
               "parent": parent, "op": op}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def op_span(self, op_id: str):
        return self.span(OP_SPAN, op=op_id)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        on_result = {
            "mdi.guessing_probability": self.rate_results.append,
            "mdi.build_sdp": self._record_sdp,
            "sdp_solver.solve": self._record_solve,
        }.get(name)

        def wrapper(*args, **kwargs):
            op = None
            if name == "cli.sweep_point":
                # one sweep point is one operation, named as its CSV row
                op = f"eta={cli._fmt(args[0][2])}"
            with tracer.span(name, op=op):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _record_sdp(self, result) -> None:
        problem, report = result
        self.sdp_sizes.append({
            "blocks": problem.n_blocks,
            "raw_rows": report.n_raw,
            "kept_rows": len(report.kept_rows),
            "gram_route": any(n.startswith("gram-matrix") for n in report.notes),
            "cert_direction": problem.cert_vector is not None,
        })

    def _record_solve(self, sol) -> None:
        self.iterations += sol.n_iterations

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child spans)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s["name"]] += t
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s["name"]] += 1
        return out

    def op_durations(self) -> list[tuple[str, float]]:
        """(operation id, duration) of every operation span."""
        names = (OP_SPAN, "cli.sweep_point")
        return [(s["op"], s["end"] - s["start"]) for s in self.spans if s["name"] in names]


def leaked_wrappers() -> list[str]:
    """Attributes of mdirand modules that are still tracing wrappers."""
    found = []
    for modname, module in sorted(sys.modules.items()):
        if modname == "mdirand" or modname.startswith("mdirand."):
            for attr, value in vars(module).items():
                if getattr(value, WRAPPED_MARK, False):
                    found.append(f"{modname}.{attr}")
    return found


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    st = tr.self_times()
    n = tr.counts()
    sizes = tr.sdp_sizes
    raw = sum(s["raw_rows"] for s in sizes)
    kept = sum(s["kept_rows"] for s in sizes)
    solve_s = st["sdp_solver.solve"]
    brackets = [r.p_guess_upper - r.sdp_primal_value for r in tr.rate_results
                if math.isfinite(r.p_guess_upper - r.sdp_primal_value)]
    return {
        "cli.load_spec_s": (st["cli.load_scenario_spec"], "s"),
        "cli.realize_s": (st["cli.realize"], "s"),
        "quantum.scenario_s": (sum(t for k, t in st.items() if k.startswith("quantum.")), "s"),
        "mdi.face_bases_s": (st["mdi.face_bases"], "s"),
        "mdi.assembly_s": (st["mdi.build_sdp"], "s"),
        "mdi.blocks": (sum(s["blocks"] for s in sizes), "count"),
        "mdi.raw_rows": (raw, "count"),
        "sdp_core.preprocess_s": (st["sdp_core.preprocess"], "s"),
        "sdp_core.kept_rows": (kept, "count"),
        "sdp_core.kept_ratio": (kept / raw if raw else math.nan, "ratio"),
        "sdp_core.gram_route_ops": (sum(s["gram_route"] for s in sizes), "count"),
        "sdp_core.cert_direction_ops": (sum(s["cert_direction"] for s in sizes), "count"),
        "linalg.row_space_basis_s": (st["linalg.row_space_basis"], "s"),
        "linalg.row_space_basis_calls": (n["linalg.row_space_basis"], "count"),
        "linalg.jacobi_s": (st["linalg.jacobi"], "s"),
        "linalg.jacobi_calls": (n["linalg.jacobi"], "count"),
        "sdp_solver.solve_s": (solve_s, "s"),
        "sdp_solver.iterations": (tr.iterations, "count"),
        "sdp_solver.s_per_iteration": (solve_s / tr.iterations if tr.iterations else math.nan,
                                       "s"),
        # computed from the kept row count m, not measured
        "sdp_solver.schur_bytes": (max((8 * s["kept_rows"] ** 2 for s in sizes), default=0),
                                   "bytes"),
        "sdp_solver.cert_bracket_max": (max(brackets, default=math.nan), "prob"),
        "sdp_solver.cert_shift_ops": (sum(r.dual_min_eigenvalue < 0 for r in tr.rate_results),
                                      "count"),
        "trace.op_median_s": (statistics.median([t for _, t in tr.op_durations()] or [math.nan]), "s"),
    }
