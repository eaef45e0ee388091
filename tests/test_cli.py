import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mdirand import cli, mdi
from mdirand.quantum import extremal4, povm_from_bloch, tomographic_set
from mdirand.sdp_solver import SolverOptions

ALL_PRESETS = [
    "fig3-blue", "fig3-red", "fig3-green", "fig4", "fig5",
    "fig6-4s-m1", "fig6-4s-m2", "fig6-2s-m1", "fig6-2s-m2", "fig6-2s-m3",
    "fig7-3o", "fig7-proj",
]


def test_preset_inventory():
    assert cli.preset_names() == sorted(ALL_PRESETS)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_round_trips(name):
    # the loaded spec is the file's JSON object plus the three defaults;
    # parsing it again and a JSON round trip both leave it unchanged
    path = Path(cli.__file__).parent / "presets" / f"{name}.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    spec = cli.load_scenario_spec(name)
    assert spec == {"mode": "asymptotic", "generation_index": 1, "copies": 1, **raw}
    assert cli.parse_scenario_dict(spec) == spec
    assert json.loads(json.dumps(spec)) == spec


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_realizes_to_valid_scenario(name):
    scen = cli.realize(cli.load_scenario_spec(name))
    assert scen.n_states >= 1
    assert scen.observed.conditionals.shape == (scen.n_states, scen.n_outcomes)


def test_rate_preset_and_eta_override_match_library(capsys):
    code = cli.main(["rate", "fig3-blue", "--eta", "0.9", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    lib = mdi.guessing_probability(
        mdi.honest_scenario(tomographic_set(), povm_from_bloch(extremal4()), eta=0.9)
    )
    assert record["rate_bits"] == lib.rate_bits
    assert record["p_guess_upper"] == lib.p_guess_upper
    assert record["status"] == "optimal"


def test_rate_human_output_lists_fields(capsys):
    code = cli.main(["rate", "fig3-green"])
    out = capsys.readouterr().out
    assert code == 0
    for key in ("status:", "rate_bits:", "rate_per_qubit:", "p_guess_upper:",
                "classical_bound_bits:", "input_cost_bits:", "net_expansion_bits:"):
        assert key in out


def test_rate_writes_json_record(tmp_path, capsys):
    out_file = tmp_path / "record.json"
    code = cli.main(["rate", "fig3-green", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    record = json.loads(out_file.read_text())
    assert record["scenario"] == "fig3-green"
    assert record["status"] == "optimal"


def test_unknown_scenario_is_schema_error(capsys):
    assert cli.main(["rate", "no-such-preset"]) == cli.EXIT_SCHEMA
    assert "no such file or preset" in capsys.readouterr().err


def test_malformed_probability_row_is_schema_error(tmp_path, capsys):
    bad = {
        "schema_version": 1,
        "mode": "finite-q",
        "source": {"kind": "bloch", "vectors": [[0.0, 0.0, 1.0]]},
        "probs": [0.9],
        "statistics": {"conditionals": [[0.5, 0.5]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    assert "probs" in capsys.readouterr().err


def test_single_state_uniform_statistics_rate_zero(tmp_path, capsys):
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {"kind": "bloch", "vectors": [[0.0, 0.0, 1.0]]},
        "statistics": {"conditionals": [[0.5, 0.5]]},
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(scen))
    code = cli.main(["rate", str(path), "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["rate_bits"] == 0.0


def test_infeasible_statistics_exit_solver_failure(tmp_path, capsys):
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {
            "kind": "bloch",
            "vectors": [[1.0, 0, 0], [0, 0, 1.0], [0, 0, -1.0], [0, 1.0, 0]],
        },
        "statistics": {"conditionals": [[1, 0], [0, 1], [1, 0], [0.5, 0.5]]},
    }
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(scen))
    code = cli.main(["rate", str(path)])
    capsys.readouterr()
    assert code == cli.EXIT_SOLVER


@pytest.mark.parametrize("max_iter", [2, 3, 5, None])
def test_nonpositive_certified_bound_reports_infeasible(tmp_path, capsys, max_iter):
    # |0> and |+> cannot give P(0|0) = 0.99 and P(0|+) = 0.01; cut short,
    # the solver ends numerical-failure with a negative certified bound,
    # whose log2 raised "math domain error" (exit 1, the schema's code);
    # at the default cap it ends infeasible-detected on its diverging
    # bound, which its iterates log and which is the same proof
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "source": {"kind": "bloch", "vectors": [[0, 0, 1], [1, 0, 0]]},
        "statistics": {"conditionals": [[0.99, 0.01], [0.01, 0.99]]},
    }))
    cap = [] if max_iter is None else ["--max-iter", str(max_iter)]
    code = cli.main(["rate", str(path), *cap, "--json"])
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ""
    record = json.loads(captured.out)
    assert record["status"] == "infeasible-detected"
    assert math.isnan(record["rate_bits"]) and math.isnan(record["p_guess_upper"])
    note, = record["notes"]
    assert re.fullmatch(r"certified guessing bound -\d\.\d{3}e[+-]\d\d <= 0: no strategy "
                        r"reproduces the statistics", note)


def test_schema_rejects_device_and_statistics_together():
    with pytest.raises(cli.SchemaError):
        cli.parse_scenario_dict({
            "schema_version": 1,
            "source": {"kind": "bloch", "vectors": [[0, 0, 1.0]]},
            "device": {"kind": "named", "name": "sigma_z", "eta": 1.0},
            "statistics": {"conditionals": [[1.0, 0.0]]},
        })
    with pytest.raises(cli.SchemaError):
        cli.parse_scenario_dict({
            "schema_version": 1,
            "source": {"kind": "bloch", "vectors": [[0, 0, 1.0]]},
        })


def test_schema_rejects_unknown_version_and_kinds():
    base = {"schema_version": 2, "source": {"kind": "bloch", "vectors": [[0, 0, 1.0]]},
            "device": {"kind": "named", "name": "sigma_z", "eta": 1.0}}
    with pytest.raises(cli.SchemaError):
        cli.parse_scenario_dict(base)
    with pytest.raises(cli.SchemaError):
        cli.parse_scenario_dict({**base, "schema_version": 1,
                                 "source": {"kind": "mystery"}})
    with pytest.raises(cli.SchemaError):
        cli.parse_scenario_dict({**base, "schema_version": 1,
                                 "device": {"kind": "named", "name": "nope", "eta": 1.0}})


def test_density_matrix_source_parses_and_runs(tmp_path, capsys):
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {
            "kind": "density",
            "matrices": [
                {"real": [[1.0, 0.0], [0.0, 0.0]]},
                {"real": [[0.5, 0.0], [0.0, 0.5]], "imag": [[0.0, -0.5], [0.5, 0.0]]},
            ],
        },
        "device": {"kind": "named", "name": "sigma_z", "eta": 0.95},
    }
    path = tmp_path / "dens.json"
    path.write_text(json.dumps(scen))
    code = cli.main(["rate", str(path), "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] in ("optimal", "near-optimal")


def test_rate_json_verbose_keeps_stdout_parseable(capsys):
    code = cli.main(["rate", "fig3-green", "--json", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 1
    assert json.loads(captured.out)["status"] == "optimal"
    assert "iter" in captured.err


def test_sweep_csv_shape_and_monotone_eta(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "fig3-blue", "--param", "eta",
        "--from", "0.8", "--to", "1.0", "--steps", "21", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 22
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == sorted(params)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-5
    assert all(line.split(",")[5] == "optimal" for line in lines[1:])


def test_sweep_is_byte_deterministic_across_runs_and_jobs(tmp_path, capsys):
    # finite-q q sweeps build a new constraint map at every point; on the
    # eta sweep the points 0.98 and 0.99 share one, and eta = 1 (faces of
    # lower rank) has its own, in this process and in each pool worker
    for name, argv in (
            ("q", ["sweep", "fig5", "--param", "q", "--from", "0.3", "--to", "0.7"]),
            ("eta", ["sweep", "fig3-blue", "--param", "eta", "--from", "0.98", "--to", "1.0"])):
        outs = []
        for jobs, tag in (("1", "a"), ("1", "b"), ("2", "c")):
            path = tmp_path / f"{name}-{tag}.csv"
            assert cli.main(argv + ["--steps", "3", "--jobs", jobs, "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].count(b",optimal\n") == 3


def test_sweep_jobs_validated_and_capped(monkeypatch, capsys):
    argv = ["sweep", "fig3-green", "--param", "eta", "--from", "0.9", "--to", "1.0"]
    pools = []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.main(argv + ["--steps", "2", "--jobs", "64"]) == 0
    assert cli.main(argv + ["--steps", "6", "--jobs", "64"]) == 0
    assert pools == [2, 4]
    for jobs in ("0", "-3"):
        assert cli.main(argv + ["--steps", "2", "--jobs", jobs]) == cli.EXIT_SCHEMA
        assert "--jobs" in capsys.readouterr().err
    assert pools == [2, 4]


def test_sweep_records_per_point_errors_and_continues(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code = cli.main(["sweep", "fig5", "--param", "q",
                     "--from", "0.0", "--to", "1.0", "--steps", "3",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[5].startswith("error:")
    assert lines[3].split(",")[5].startswith("error:")
    assert lines[2].split(",")[5] == "optimal"


def test_sweep_alpha_matches_classical_bound_at_unit_eta(tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    code = cli.main(["sweep", "fig4", "--param", "alpha",
                     "--from", "0.3", "--to", "0.7", "--steps", "3",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert abs(float(cells[1]) - float(cells[4])) < 1e-4


def test_deterministic_table_reports_positive_zero_bounds(capsys):
    # -log2(1) and -sum 1 log2 1 are -0.0: the classical bound of a
    # deterministic table and the input cost of a deterministic input were
    # printed as -0 in the sweep CSV and in rate's output
    argv = ["sweep", "fig4", "--param", "alpha", "--from", "0.9", "--to", "1",
            "--steps", "2", "--jobs", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1,0,0,1,0,optimal"
    scen = cli.realize(cli.load_scenario_spec("fig4"), alpha=1.0)
    asymptotic = mdi.Scenario(scen.ensemble, scen.observed)
    for bound in (mdi.classical_min_entropy(scen.observed, scen.ensemble.probs),
                  mdi.guessing_probability(asymptotic).classical_bound_bits,
                  mdi.input_cost(np.array([1.0, 0.0]))):
        assert bound == 0.0 and math.copysign(1.0, bound) == 1.0


def test_sweep_alpha_requires_angle_source(capsys):
    code = cli.main(["sweep", "fig3-blue", "--param", "alpha",
                     "--from", "0.0", "--to", "1.0", "--steps", "2"])
    assert code == cli.EXIT_SCHEMA
    assert "angle" in capsys.readouterr().err


def test_validate_coplanar_extremality_diagnosis(tmp_path, capsys):
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {"kind": "bloch", "vectors": [[1.0, 0, 0], [0, 0, 1.0]]},
        "device": {
            "kind": "bloch",
            "weights": [0.25, 0.25, 0.25, 0.25],
            "directions": [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]],
            "eta": 1.0,
        },
    }
    path = tmp_path / "coplanar.json"
    path.write_text(json.dumps(scen))
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "extremality: FAIL" in out
    assert "coplanar" in out


def test_validate_bad_bloch_norm_reports_state_failure(tmp_path, capsys):
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {"kind": "bloch", "vectors": [[1.2, 0.0, 0.0]]},
        "device": {"kind": "named", "name": "sigma_z", "eta": 1.0},
    }
    path = tmp_path / "longvec.json"
    path.write_text(json.dumps(scen))
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "state validity: FAIL" in out
    assert "check(s) failed" in out


def test_validate_statistics_uses_the_rate_rule(tmp_path, capsys):
    # a row off 1 by 5e-10 is inside a 1e-9 tolerance but outside the
    # 1e-10 that ObservedStatistics, and so rate, allows
    scen = {
        "schema_version": 1,
        "mode": "asymptotic",
        "source": {"kind": "bloch", "vectors": [[0.0, 0.0, 1.0]]},
        "statistics": {"conditionals": [[0.5, 0.5000000005]]},
    }
    path = tmp_path / "offsum.json"
    path.write_text(json.dumps(scen))
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "statistics table: FAIL" in out
    assert "scenario build: FAIL" in out
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    capsys.readouterr()


def test_statistics_row_count_error_names_its_field(tmp_path, capsys):
    # a 3-row table for a 2-state source: Scenario's row rule, the one
    # check of the count, names both counts and realize names the field
    scen = {
        "schema_version": 1,
        "source": {"kind": "bloch", "vectors": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
        "statistics": {"conditionals": [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]},
    }
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(scen))
    msg = "statistics.conditionals: 3 statistics rows for 2 states"
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == f"error: {msg}\n"
    assert captured.out == ""
    assert cli.main(["validate", str(path)]) == 0
    assert f"scenario build: FAIL ({msg})\n" in capsys.readouterr().out
    # a generation index out of range is not blamed on the table
    scen["statistics"]["conditionals"].pop()
    scen["generation_index"] = 3
    path.write_text(json.dumps(scen))
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == "error: generation_index 3 out of range 1..2\n"


def test_validate_input_distribution_uses_the_rate_rule(tmp_path, capsys):
    # fig4 with inputs off 1 by 5e-10: outside the 1e-10 of the one
    # distribution rule, which the schema applies, so validate stops at
    # the schema as rate does
    scen = cli.load_scenario_spec("fig4")
    scen["probs"] = [0.5, 0.5000000005]
    path = tmp_path / "offsum-probs.json"
    path.write_text(json.dumps(scen))
    for command in ("validate", "rate"):
        assert cli.main([command, str(path)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: probs: input probabilities must sum to 1")
        assert captured.out == ""


# the validate report of every preset, as the parent of the one-rule
# validation change printed it, one report per paragraph
_VALIDATE_PINS = {
    report.split("\n", 1)[0].removeprefix("scenario: "): report + "\n"
    for report in (Path(__file__).parent / "validate_presets.txt")
    .read_text(encoding="utf-8").rstrip("\n").split("\n\n")
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_validate_report_of_every_preset_is_pinned(name, capsys):
    assert cli.main(["validate", name]) == 0
    assert capsys.readouterr().out == _VALIDATE_PINS[name]


def test_validate_extremal4_preset_all_pass(capsys):
    assert cli.main(["validate", "fig3-blue"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def _namespace(**kw):
    base = dict(gap_tol=None, feas_tol=None, max_iter=None, relax=None, verbose=False)
    base.update(kw)
    return argparse.Namespace(**base)


def test_env_vars_are_ignored_and_flags_set_the_options(monkeypatch):
    # a run's settings are its flags: MDIRAND_* values, valid or not,
    # change nothing
    for values in (("1e-6", "57", "3"), ("not-a-number", "", "many")):
        for name, value in zip(("GAP_TOL", "MAX_ITER", "MAX_CONSTRAINTS"), values):
            monkeypatch.setenv(f"MDIRAND_{name}", value)
        assert cli._solver_options(_namespace()) == SolverOptions()
        assert cli._solver_options(_namespace(gap_tol=1e-7)) == SolverOptions(gap_tol=1e-7)


def test_invalid_solver_flag_is_schema_error(capsys):
    code = cli.main(["rate", "fig3-green", "--gap-tol", "-1"])
    assert code == cli.EXIT_SCHEMA
    assert "solver options" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child process imports the same mdirand as this one, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdirand", "rate", "fig3-green", "--json"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "optimal"


def test_cli_and_rate_load_no_scipy():
    # numpy is the only runtime dependency: importing the CLI and running a
    # rate must not pull in scipy (nor its second BLAS)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import io, contextlib, sys\n"
        "import mdirand.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert mdirand.cli.main(['rate', 'fig3-blue']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _rate_under_2_gib(path):
    """`rate` on a scenario file in a subprocess limited to 2 GiB of
    address space."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mdirand", "rate", str(path)],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_oversized_scenario_fails_before_assembly(tmp_path):
    # fig6-2s-m3 at five copies, generating on the state (0, 0, 0, 0, 1):
    # the copy permutations move it, so no symmetry reduces the 33761 raw
    # rows on 1024 blocks of size 32, about 18 GB of stacks. The row cap
    # stops it once the rows are counted, so it exits with a size message
    # even under a 2 GiB address-space limit. Never run this spec without
    # such a limit.
    spec = cli.load_scenario_spec("fig6-2s-m3")
    spec.update(copies=5, generation_index=2)
    path = tmp_path / "m5.json"
    path.write_text(json.dumps(spec))
    proc = _rate_under_2_gib(path)
    assert proc.returncode == cli.EXIT_SCHEMA
    assert "33761" in proc.stderr
    assert "MemoryError" not in proc.stderr


def test_symmetric_oversized_scenario_fails_before_the_orbit_count(tmp_path):
    # fig6-2s-m3 at five copies in finite-q mode keeps S_5, but one family
    # per input makes 2064385 raw rows, at least 8871 of them left by S_5.
    # That bound stops it before any per-row array exists, so it exits
    # with a size message even under a 2 GiB address-space limit. Never
    # run this spec without such a limit.
    spec = cli.load_scenario_spec("fig6-2s-m3")
    spec.update(copies=5, mode="finite-q")
    del spec["generation_index"]
    path = tmp_path / "m5q.json"
    path.write_text(json.dumps(spec))
    proc = _rate_under_2_gib(path)
    assert proc.returncode == cli.EXIT_SCHEMA
    assert "at least 8871 constraint rows on 792 blocks of size up to 32 exceed the cap 5000" \
        in proc.stderr
    assert "MemoryError" not in proc.stderr


def test_every_solver_option_is_a_command_line_flag():
    # a run's settings are its flags: each SolverOptions field is one of
    # the solver flags of rate and sweep, and reaches the options it builds
    parser = argparse.ArgumentParser()
    cli._add_solver_flags(parser)
    dests = {a.dest for a in parser._actions} - {"help"}
    assert dests == {f.name for f in dataclasses.fields(SolverOptions)}
    args = parser.parse_args(["--gap-tol", "1e-7", "--feas-tol", "2e-7", "--max-iter", "5",
                              "--relax", "0.01", "--verbose"])
    assert cli._solver_options(args) == SolverOptions(1e-7, 2e-7, 5, 0.01, True)


def test_canonical_form_resolves_the_alias_and_fills_defaults():
    raw = {
        "schema_version": 1,
        "mode": "asymptotic-asymmetric",
        "source": {"kind": "angle", "alpha": 0.5},
        "device": {"kind": "named", "name": "sigma_x", "eta": 1},
    }
    spec = cli.parse_scenario_dict(raw)
    assert spec == {**raw, "mode": "asymptotic", "generation_index": 1, "copies": 1}
    assert cli.parse_scenario_dict(spec) == spec
    assert raw["mode"] == "asymptotic-asymmetric"


def _two_state_table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "source": {"kind": "bloch", "vectors": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]},
        "statistics": {"conditionals": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    return str(path)


_BAD_NUMBERS = [
    pytest.param("source.vectors", lambda s: s["source"]["vectors"][1].__setitem__(2, None),
                 id="vectors-null"),
    pytest.param("source.vectors", lambda s: s["source"]["vectors"][0].append(0.0),
                 id="vectors-four-components"),
    pytest.param("statistics.conditionals",
                 lambda s: s["statistics"]["conditionals"][0].__setitem__(0, None),
                 id="conditionals-null"),
    pytest.param("statistics.conditionals", lambda s: s["statistics"]["conditionals"][1].pop(),
                 id="conditionals-ragged"),
    pytest.param("probs", lambda s: s.__setitem__("probs", [0.5, float("nan")]),
                 id="probs-nan"),
    pytest.param("device.weights", lambda s: s.update(device={
        "kind": "bloch", "weights": [0.5, "x"], "eta": 1.0,
        "directions": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]}), id="weights-string"),
    pytest.param("device.directions", lambda s: s.update(device={
        "kind": "bloch", "weights": [0.5, 0.5], "eta": 1.0,
        "directions": [[0.0, 0.0, 1.0], 0.0]}), id="directions-too-shallow"),
    pytest.param("device.elements[1]", lambda s: s.update(device={
        "kind": "elements", "eta": 1.0,
        "elements": [{"real": [[1.0, 0.0], [0.0, 0.0]]}, {"real": [[0.0, 0.0, 1.0]]}]}),
        id="element-not-square"),
]


@pytest.mark.parametrize("command", ["rate", "validate"])
@pytest.mark.parametrize("field, spoil", _BAD_NUMBERS)
def test_bad_numbers_are_schema_errors_naming_the_field(tmp_path, capsys, command, field, spoil):
    scen = json.loads(Path(_two_state_table(tmp_path)).read_text())
    spoil(scen)
    if "device" in scen:
        del scen["statistics"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scen))
    assert cli.main([command, str(path)]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["rate", "fig3-blue", "--alpha", "0.3"], "--alpha"),
    (["rate", "TABLE", "--eta", "0.5"], "--eta"),
    (["sweep", "TABLE", "--param", "eta", "--from", "0.5", "--to", "1", "--steps", "2"],
     "--param eta"),
])
def test_overrides_without_a_target_are_rejected(tmp_path, capsys, argv, flag):
    argv = [_two_state_table(tmp_path) if a == "TABLE" else a for a in argv]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}:")
    assert captured.out == ""


def test_preset_name_skips_a_directory_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig4").mkdir()
    assert cli.load_scenario_spec("fig4")["name"] == "fig4"
    assert cli.main(["validate", "fig4"]) == 0
    assert capsys.readouterr().out.startswith("scenario: fig4\n")


def _spoiled_preset(tmp_path, name, spoil):
    spec = cli.load_scenario_spec(name)
    spoil(spec)
    path = tmp_path / f"{name}-spoiled.json"
    path.write_text(json.dumps(spec))
    return str(path)


_GRID = ["--from", "0.5", "--to", "1.0", "--steps", "3", "--jobs", "1"]


@pytest.mark.parametrize("command", ["rate", "sweep"])
@pytest.mark.parametrize("case", ["bloch-norm-2", "probs-off-sum", "q-on-four-states"])
def test_errors_no_swept_value_mends_exit_before_any_solve(tmp_path, capsys, monkeypatch,
                                                          command, case):
    # a Bloch vector of norm 2; inputs summing to 1 + 5e-10; a q override
    # of a four-state source. rate and sweep stop alike, naming the field
    # or flag, with nothing on stdout
    def no_solve(*args):
        raise AssertionError("solved a scenario that should have been rejected")

    monkeypatch.setattr(cli.mdi, "guessing_probability", no_solve)
    if case == "bloch-norm-2":
        scen = _spoiled_preset(tmp_path, "fig3-green",
                               lambda s: s["source"]["vectors"].__setitem__(1, [0.0, 0.0, 2.0]))
        argv, name = {"rate": [], "sweep": ["--param", "eta"]}[command], "source.vectors[1]"
    elif case == "probs-off-sum":
        scen = _spoiled_preset(tmp_path, "fig4", lambda s: s.update(probs=[0.5, 0.5000000005]))
        argv, name = {"rate": [], "sweep": ["--param", "eta"]}[command], "probs"
    else:
        scen = "fig3-blue"
        argv, name = {"rate": (["--q", "0.5"], "--q"),
                      "sweep": (["--param", "q"], "--param q")}[command]
    assert cli.main([command, scen, *argv, *(_GRID if command == "sweep" else [])]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name}:")
    assert captured.out == ""


@pytest.mark.parametrize("preset, override", [
    ("fig3-blue", {"alpha": 0.3}),
    ("fig3-blue", {"q": 0.5}),
    ("TABLE", {"eta": 0.5}),
], ids=["alpha-on-bloch-source", "q-on-four-states", "eta-on-raw-table"])
def test_realize_rejects_overrides_without_a_target(tmp_path, preset, override):
    spec = cli.load_scenario_spec(_two_state_table(tmp_path) if preset == "TABLE" else preset)
    with pytest.raises(cli.SchemaError, match=f"^{next(iter(override))}: "):
        cli.realize(spec, **override)


def _qutrit_source(spec):
    spec["source"] = {"kind": "density",
                      "matrices": [{"real": np.diag(e).tolist()} for e in np.eye(3)[:2]]}


@pytest.mark.parametrize("spoil, argv, msg, checks", [
    (lambda s: s.update(copies=6), [],
     "copies: tensor product dimension 2^6 exceeds 32", ["povm validity", "scenario build"]),
    (_qutrit_source, [], "device: ensemble and POVM dimensions differ", ["scenario build"]),
    (None, ["--alpha", "2"], "--alpha: must lie in [0, 1]", []),
], ids=["copies-6", "qutrit-source", "alpha-flag"])
def test_realize_names_the_field_of_every_scenario_error(tmp_path, capsys, spoil, argv,
                                                         msg, checks):
    # six copies of a qubit; qutrit states for a qubit device; an angle
    # override outside [0, 1], which names the flag that set it
    scen = _spoiled_preset(tmp_path, "fig3-green", spoil) if spoil else "fig4"
    assert cli.main(["rate", scen, *argv]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == f"error: {msg}\n"
    assert captured.out == ""
    if checks:
        assert cli.main(["validate", scen]) == 0
        out = capsys.readouterr().out
        for check in checks:
            assert f"{check}: FAIL ({msg})\n" in out


def test_huge_copies_of_a_qutrit_are_refused_at_once(tmp_path, capsys):
    # the guard compares copies with the largest admissible exponent:
    # forming 3**10000000 first took seconds before the refusal
    path = tmp_path / "qutrit.json"
    diag = [{"real": np.diag(e).tolist()} for e in np.eye(3)]
    path.write_text(json.dumps({
        "schema_version": 1,
        "source": {"kind": "density", "matrices": diag[:2]},
        "device": {"kind": "elements", "elements": diag, "eta": 1.0},
        "copies": 10_000_000,
    }))
    t0 = time.perf_counter()
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == (
        "error: copies: tensor product dimension 3^10000000 exceeds 32\n")


@pytest.mark.parametrize("preset, argv, msg", [
    ("fig3-blue", ["--eta", "2"], "--eta: must lie in [0, 1]"),
    ("fig3-blue", ["--eta", "-0.1"], "--eta: must lie in [0, 1]"),
    ("fig3-blue", ["--eta", "nan"], "--eta: must lie in [0, 1]"),
    ("fig4", ["--alpha", "2"], "--alpha: must lie in [0, 1]"),
    ("fig4", ["--q", "0"], "--q: must lie strictly between 0 and 1"),
    ("fig4", ["--q", "1"], "--q: must lie strictly between 0 and 1"),
])
def test_out_of_range_override_flags_name_the_flag(capsys, monkeypatch, preset, argv, msg):
    # the range of an override is checked with its applicability, before
    # anything is built, and the error names the flag, as for a flag the
    # scenario has no quantity for
    def no_solve(*args):
        raise AssertionError("solved a scenario with an out-of-range override")

    monkeypatch.setattr(cli.mdi, "guessing_probability", no_solve)
    assert cli.main(["rate", preset, *argv]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == f"error: {msg}\n"
    assert captured.out == ""


@pytest.mark.parametrize("override, msg", [
    ({"eta": 1.5}, "eta: must lie in [0, 1]"),
    ({"alpha": -1.0}, "alpha: must lie in [0, 1]"),
    ({"q": 1.0}, "q: must lie strictly between 0 and 1"),
])
def test_realize_names_an_out_of_range_override(override, msg):
    # a library call or a sweep's grid point names the parameter, and a
    # sweep writes it on the point's row
    spec = cli.load_scenario_spec("fig4")
    with pytest.raises(cli.SchemaError) as exc:
        cli.realize(spec, **override)
    assert str(exc.value) == msg


def test_finite_q_endgame_on_one_blas_thread(tmp_path):
    # finite-q fig6-4s-m2 at eta 0.95 with single-threaded OpenBLAS: solved
    # on its copy-swap orbits it ends ok (optimal in 11 iterations when
    # measured), at the rate that the full problem reached on one thread
    spec = dict(cli.load_scenario_spec("fig6-4s-m2"), mode="finite-q")
    spec["device"] = dict(spec["device"], eta=0.95)
    path = tmp_path / "fq.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "mdirand", "rate", str(path), "--json"],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["status"] in ("optimal", "near-optimal")
    assert abs(record["rate_bits"] - 0.5790300632077048) <= 1e-7


@pytest.mark.parametrize("command", ["rate", "sweep"])
@pytest.mark.parametrize("flag, value", [
    ("--gap-tol", "nan"), ("--gap-tol", "inf"), ("--feas-tol", "nan"), ("--feas-tol", "inf"),
    ("--relax", "nan"), ("--relax", "inf"),
])
def test_non_finite_solver_flags_exit_before_any_solve(capsys, monkeypatch, command, flag, value):
    # a nan tolerance ended numerical-failure, an infinite one optimal at a
    # looser bound, and a nan or infinite band "b must be finite" from the
    # assembled problem; each now stops at the options, naming the field
    def no_solve(*args):
        raise AssertionError("solved with a non-finite solver option")

    monkeypatch.setattr(cli.mdi, "guessing_probability", no_solve)
    extra = ["--param", "eta", *_GRID] if command == "sweep" else []
    assert cli.main([command, "fig3-green", flag, value, *extra]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    field = flag[2:].replace("-", "_")
    assert captured.err.startswith(f"error: solver options: {field} must be finite (got {value})")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["rate", "fig3-green", "--bogus"],
    ["rate", "fig3-green", "--gap-tol", "abc"],
    ["rate", "fig3-green", "--feas-tol", "-inf"],
    ["sweep", "fig3-green", "--param", "eta", "--from", "0", "--to", "1"],
])
def test_malformed_flags_exit_1_with_the_usage_message(capsys, argv):
    # README: exit 1 for malformed scenarios or flags, 2 for solver
    # failures; argparse's own usage errors exited 2
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: mdirand ") and "error: " in captured.err
    assert captured.out == ""
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: mdirand ")


def test_serial_sweep_reaches_every_traced_call(monkeypatch, capsys):
    # the benchmark's traced run wraps these module attributes, and its
    # per-operation times come from the cli._sweep_worker spans: a serial
    # sweep that called the worker, or one of the layers below it, under
    # another name would leave those spans empty
    calls = []
    for module, name in ((cli, "_sweep_worker"), (mdi, "guessing_probability"),
                         (mdi, "build_sdp"), (mdi, "solve")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["sweep", "fig3-blue", "--param", "eta", *_GRID]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["optimal"] * 3
    assert calls == ["_sweep_worker", "guessing_probability", "build_sdp", "solve"] * 3
