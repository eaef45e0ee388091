import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdirand import cli, mdi
from mdirand.quantum import extremal4, povm_from_bloch, tomographic_set

ALL_PRESETS = [
    "fig3-blue", "fig3-red", "fig3-green", "fig4", "fig5",
    "fig6-4s-m1", "fig6-4s-m2", "fig6-2s-m1", "fig6-2s-m2", "fig6-2s-m3",
    "fig7-3o", "fig7-proj",
]


def test_preset_inventory():
    assert cli.preset_names() == sorted(ALL_PRESETS)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_round_trips(name):
    spec = cli.load_scenario_spec(name)
    d = cli.spec_to_dict(spec)
    again = cli.parse_scenario_dict(d)
    assert again == spec
    assert json.dumps(cli.spec_to_dict(again), sort_keys=True) == json.dumps(d, sort_keys=True)


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
    argv = ["sweep", "fig5", "--param", "q", "--from", "0.3", "--to", "0.7",
            "--steps", "3"]
    outs = []
    for jobs, tag in (("1", "a"), ("1", "b"), ("2", "c")):
        path = tmp_path / f"{tag}.csv"
        assert cli.main(argv + ["--jobs", jobs, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


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


def test_validate_input_distribution_uses_the_rate_rule(tmp_path, capsys):
    # fig4 with inputs off 1 by 5e-10: inside a 1e-9 tolerance but outside
    # the 1e-10 that StateEnsemble, and so rate, allows
    scen = cli.spec_to_dict(cli.load_scenario_spec("fig4"))
    scen["probs"] = [0.5, 0.5000000005]
    path = tmp_path / "offsum-probs.json"
    path.write_text(json.dumps(scen))
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "input distribution: FAIL" in out
    assert "scenario build: FAIL" in out
    assert cli.main(["rate", str(path)]) == cli.EXIT_SCHEMA
    capsys.readouterr()


def test_validate_extremal4_preset_all_pass(capsys):
    assert cli.main(["validate", "fig3-blue"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def _namespace(**kw):
    base = dict(gap_tol=None, feas_tol=None, max_iter=None, relax=None, verbose=False)
    base.update(kw)
    return argparse.Namespace(**base)


def test_env_var_overrides_and_flag_precedence(monkeypatch):
    monkeypatch.setenv("MDIRAND_GAP_TOL", "1e-6")
    monkeypatch.setenv("MDIRAND_MAX_ITER", "57")
    opts = cli._solver_options(_namespace())
    assert opts.gap_tol == 1e-6
    assert opts.max_iter == 57
    opts = cli._solver_options(_namespace(gap_tol=1e-7))
    assert opts.gap_tol == 1e-7
    monkeypatch.setenv("MDIRAND_GAP_TOL", "not-a-number")
    with pytest.raises(cli.SchemaError):
        cli._solver_options(_namespace())


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
