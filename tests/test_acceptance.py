"""Acceptance gate: one test per advertised guarantee of the package.

Each test is self-contained and states its tolerance inline, so a plain
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee.  Runtime targets are asserted where the guarantee includes one.
"""
import json
import math
import time

import numpy as np
import pytest

from mdirand import cli, mdi
from mdirand.quantum import (
    StateEnsemble,
    bloch_to_density,
    extremal3,
    extremal4,
    povm_from_bloch,
    sigma_z_povm,
    tensor_ensemble,
    tensor_povm,
    tomographic_set,
)
from mdirand import sdp_core, sdp_solver
from sdp_rows import from_rows, row_maps
from strategy import honest_strategy


def _rate(ensemble, povm, eta, mode=mdi.MODE_ASYMPTOTIC):
    res = mdi.guessing_probability(mdi.honest_scenario(ensemble, povm, eta=eta, mode=mode))
    assert res.ok, res.status
    return res


def test_1_noiseless_four_outcome_device_gives_two_bits():
    t0 = time.monotonic()
    res = _rate(tomographic_set(), povm_from_bloch(extremal4()), eta=1.0)
    elapsed = time.monotonic() - t0
    assert abs(res.rate_bits - 2.0) <= 1e-3
    assert elapsed < 30.0


def test_2_four_outcome_device_above_one_bit_at_eta_097():
    res = _rate(tomographic_set(), povm_from_bloch(extremal4()), eta=0.97)
    assert res.rate_bits >= 1.0 - 1e-3


def test_3_noiseless_projective_device_capped_at_one_bit():
    res = _rate(tomographic_set(), sigma_z_povm(), eta=1.0)
    assert abs(res.rate_bits - 1.0) <= 1e-3


def test_4_angle_sweep_endpoints_and_classical_coincidence():
    # identical inputs carry no randomness; orthogonal inputs with a
    # noiseless aligned device leak the outcome completely
    (_, at_zero), = mdi.angle_sweep([0.0], eta=1.0, q=0.5)
    assert at_zero.rate_bits == 0.0
    (_, at_one), = mdi.angle_sweep([1.0], eta=1.0, q=0.5)
    assert at_one.rate_bits <= 1e-6
    # with a noiseless device the quantum bound meets the classical one
    interior = mdi.angle_sweep(np.linspace(0.1, 0.9, 9), eta=1.0, q=0.5)
    for alpha, res in interior:
        assert res.ok, (alpha, res.status)
        assert abs(res.rate_bits - res.classical_bound_bits) < 1e-4, alpha


def _two_state_rate(q: float, eta: float) -> float:
    ens = StateEnsemble(
        (bloch_to_density(np.array([1.0, 0, 0])), bloch_to_density(np.array([0, 0, 1.0]))),
        np.array([q, 1.0 - q]),
    )
    return _rate(ens, sigma_z_povm(), eta=eta, mode=mdi.MODE_FINITE_Q).rate_bits


def test_5_asymmetry_preference_flips_with_detector_quality():
    assert _two_state_rate(0.999, eta=0.9) > _two_state_rate(0.5, eta=0.9)
    assert _two_state_rate(0.5, eta=0.5) > _two_state_rate(0.999, eta=0.5)


def test_6_two_copy_attack_never_beats_independent_attacks():
    devices = [povm_from_bloch(extremal3()), sigma_z_povm()]
    for povm in devices:
        t0 = time.monotonic()
        for eta in (0.80, 0.85, 0.90, 0.95, 1.00):
            scen = mdi.honest_scenario(tomographic_set(), povm, eta=eta)
            assert mdi.two_copy_detail(scen).delta_bits >= -1e-6, (povm.n_outcomes, eta)
        assert time.monotonic() - t0 < 120.0


def test_7_per_qubit_rate_ordering_under_doubling():
    povm = sigma_z_povm()
    four = tomographic_set()
    two = StateEnsemble(
        (bloch_to_density(np.array([1.0, 0, 0])), bloch_to_density(np.array([0, 0, 1.0]))),
        np.array([0.5, 0.5]),
    )
    eta = 0.9
    for ens, check in ((four, "ge"), (two, "le")):
        m1 = _rate(ens, povm, eta=eta).rate_per_qubit
        m2 = _rate(tensor_ensemble(ens, 2), tensor_povm(povm, 2), eta=eta).rate_per_qubit
        if check == "ge":
            assert m2 >= m1 - 1e-3
        else:
            assert m2 <= m1 + 1e-3
    # the two-state source (the last pass above) keeps losing per-qubit
    # rate at three copies
    m3 = _rate(tensor_ensemble(two, 3), tensor_povm(povm, 3), eta=eta).rate_per_qubit
    assert m3 <= m2 + 1e-3


def _reference_optimum(problem):
    cp = pytest.importorskip("cvxpy")
    xs = [cp.Variable((dim, dim), symmetric=True) for dim in problem.block_dims]
    cons = [x >> 0 for x in xs]
    objective, constraints = row_maps(problem)
    # the oracle instances are real: their complex stacks carry zero
    # imaginary parts, and real symmetric variables state them exactly
    assert not any(np.any(m.imag) for blk in [objective, *constraints] for m in blk.values())
    for i in range(len(problem.b)):
        expr = 0
        for j, x in enumerate(xs):
            a = constraints[i].get(j)
            if a is not None:
                expr = expr + cp.sum(cp.multiply(a.real, x))
        cons.append(expr == problem.b[i])
    obj = 0
    for j, x in enumerate(xs):
        c = objective.get(j)
        if c is not None:
            obj = obj + cp.sum(cp.multiply(c.real, x))
    prob = cp.Problem(cp.Maximize(obj), cons)
    prob.solve(solver=cp.CLARABEL)
    assert prob.status in ("optimal", "optimal_inaccurate"), prob.status
    return float(prob.value)


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def test_8_solver_matches_reference_oracle():
    hits = 0
    for seed in range(40):
        if hits >= 20:
            break
        rng = np.random.default_rng(seed)
        n_extra = int(rng.integers(1, 6))  # 1 trace row + up to 5 others
        x0 = rng.standard_normal((3, 3))
        x0 = x0 @ x0.T + 0.3 * np.eye(3)
        rows = [np.eye(3)] + [_sym(rng, 3) for _ in range(n_extra)]
        raw = from_rows(
            block_dims=[3],
            objective={0: _sym(rng, 3)},
            constraints=[{0: a} for a in rows],
            b=np.array([float(np.sum(a * x0)) for a in rows]),
        )
        problem, _ = sdp_core.preprocess(raw)
        sol = sdp_solver.solve(problem, sdp_solver.SolverOptions())
        if sol.status != sdp_core.OPTIMAL:
            continue
        ref = _reference_optimum(problem)
        scale = max(1.0, abs(ref))
        assert abs(sol.certified_upper_bound - ref) <= 1e-6 * scale, seed
        hits += 1
    assert hits >= 20

    # analytic: largest eigenvalue of a rotated diag(2, 1, 0) is 2
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    c = q @ np.diag([2.0, 1.0, 0.0]) @ q.T
    raw = from_rows(
        block_dims=[3], objective={0: c},
        constraints=[{0: np.eye(3)}], b=np.array([1.0]),
    )
    problem, _ = sdp_core.preprocess(raw)
    sol = sdp_solver.solve(problem, sdp_solver.SolverOptions())
    assert abs(sol.certified_upper_bound - 2.0) <= 1e-8

    # analytic: constraints pin X = I/2 entrywise, optimum tr(C)/2
    target = 0.5 * np.eye(3)
    rows, vals = [], []
    for i in range(3):
        for j in range(i, 3):
            e = np.zeros((3, 3))
            e[i, j] = e[j, i] = 1.0
            rows.append(e)
            vals.append(float(np.sum(e * target)))
    c = _sym(np.random.default_rng(11), 3)
    raw = from_rows(
        block_dims=[3], objective={0: c},
        constraints=[{0: a} for a in rows], b=np.array(vals),
    )
    problem, _ = sdp_core.preprocess(raw)
    sol = sdp_solver.solve(problem, sdp_solver.SolverOptions())
    assert abs(sol.certified_upper_bound - 0.5 * float(np.trace(c))) <= 1e-8


def test_9_module_invariants_hold(tmp_path):
    rng = np.random.default_rng(3)

    # POVM validity: elements PSD and summing to identity
    for povm in (povm_from_bloch(extremal4()), povm_from_bloch(extremal3()), sigma_z_povm()):
        total = sum(povm.elements)
        assert np.allclose(total, np.eye(povm.dim), atol=1e-12)
        for el in povm.elements:
            assert np.min(np.linalg.eigvalsh(el)) >= -1e-12

    # embedding trace identity on certified faces
    scen = mdi.honest_scenario(tomographic_set(), povm_from_bloch(extremal4()), eta=0.9)
    for v in mdi.face_bases(scen):
        h = _sym(rng, 2) + 1.0j * (lambda m: m - m.T)(rng.standard_normal((2, 2)))
        h = 0.5 * (h + h.conj().T)
        r = v.shape[1]
        s = rng.standard_normal((r, r)) + 1.0j * rng.standard_normal((r, r))
        s = s @ s.conj().T
        lhs = np.trace(h @ (v @ s @ v.conj().T))
        rhs = np.trace((v.conj().T @ h @ v) @ s)
        assert abs(lhs - rhs) < 1e-10

    # weak duality: every certified bound dominates the known optimum
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    c = q @ np.diag([2.0, 1.0, 0.0]) @ q.T
    problem, _ = sdp_core.preprocess(from_rows(
        block_dims=[3], objective={0: c},
        constraints=[{0: np.eye(3)}], b=np.array([1.0]),
    ))
    sol = sdp_solver.solve(problem, sdp_solver.SolverOptions())
    for it in sol.iterations:
        if math.isfinite(it.certified_bound):
            assert it.certified_bound >= 2.0 - 1e-9

    # rate bounded by the classical bound and by 2 log2(d)
    res = _rate(tomographic_set(), povm_from_bloch(extremal4()), eta=0.93)
    assert 0.0 <= res.rate_bits <= res.classical_bound_bits + 1e-9
    assert res.rate_bits <= 2.0 * math.log2(2) + 1e-9

    # the honest device is feasible, so it lower-bounds the SDP optimum
    scen = mdi.honest_scenario(tomographic_set(), sigma_z_povm(), eta=0.8)
    strat = honest_strategy(scen, sigma_z_povm(), eta=0.8)
    strat.validate(scen)
    res = mdi.guessing_probability(scen)
    assert strat.objective_value(scen) <= res.p_guess_upper + 1e-7

    # CSV output is byte-deterministic across repeated runs
    argv = ["sweep", "fig3-green", "--param", "eta",
            "--from", "0.9", "--to", "1.0", "--steps", "3"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert cli.main(argv + ["--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == "param,rate_bits,rate_per_qubit,p_guess_upper,classical_bound_bits,status"
