import dataclasses
import math

import numpy as np
import pytest

from mdirand import cli, mdi, sdp_solver
from mdirand import sdp_core as core
from mdirand.linalg import jacobi_eigvalsh
from mdirand.quantum import double_ensemble, double_statistics
from mdirand.sdp_core import SCHUR_CHUNK
from mdirand.sdp_solver import (
    CertificationError,
    SolverOptions,
    _dual_slack,
    _min_eigenvalue,
    _step_length,
    certify_upper_bound,
    solve,
)


def _sym(m):
    return 0.5 * (m + m.T)


def _prep(dims, objective, constraints, b):
    raw = core.SdpProblem(tuple(dims), objective, constraints, np.asarray(b, float))
    out, _ = core.preprocess(raw)
    return out


def _max_eig_problem(c):
    d = c.shape[0]
    return _prep((d,), {0: c}, [{0: np.eye(d)}], [1.0])


def _random_bounded(rng, dims=(3,), extra=5):
    """Strictly feasible, bounded random instance: trace row plus b = A(X0)."""
    x0 = []
    for s in dims:
        r = rng.standard_normal((s, s))
        x0.append(r @ r.T + 0.3 * np.eye(s))
    cons = [{k: np.eye(s) for k, s in enumerate(dims)}]
    for _ in range(extra):
        cons.append({k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)})
    b = [sum(float(np.sum(mm * x0[k])) for k, mm in blk.items()) for blk in cons]
    obj = {k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)}
    return _prep(dims, obj, cons, b)


def _reference_optimum(p):
    cp = pytest.importorskip("cvxpy")
    xs = [cp.Variable((s, s), symmetric=True) for s in p.block_dims]
    cons = [x >> 0 for x in xs]
    for i, blk in enumerate(p.constraints):
        cons.append(
            sum(cp.sum(cp.multiply(mm, xs[k])) for k, mm in blk.items()) == p.b[i]
        )
    obj = sum(cp.sum(cp.multiply(mm, xs[k])) for k, mm in p.objective.items())
    prob = cp.Problem(cp.Maximize(obj), cons)
    prob.solve(solver=cp.CLARABEL)
    assert prob.status in ("optimal", "optimal_inaccurate")
    return float(prob.value)


def test_max_eigenvalue_diagonal():
    # max tr(CX) with tr X = 1, X >= 0 picks out the largest eigenvalue
    p = _max_eig_problem(np.diag([1.0, 2.0]))
    sol = solve(p)
    assert sol.status == core.OPTIMAL
    assert abs(sol.primal_objective - 2.0) < 1e-8
    assert abs(sol.certified_upper_bound - 2.0) < 1e-8
    assert sol.certified_upper_bound >= 2.0 - 1e-9


def test_max_eigenvalue_rotated():
    c, s = math.cos(0.7), math.sin(0.7)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    cmat = q @ np.diag([2.0, -1.0, 0.5]) @ q.T
    sol = solve(_max_eig_problem(_sym(cmat)))
    assert sol.status == core.OPTIMAL
    assert abs(sol.certified_upper_bound - 2.0) < 1e-8


def test_fully_determined_instance():
    # constraints pin X = I/2 entirely; optimum is trace(C)/2
    rng = np.random.default_rng(11)
    c = _sym(rng.standard_normal((2, 2)))
    e01 = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = _prep(
        (2,),
        {0: c},
        [{0: np.diag([1.0, 0.0])}, {0: np.diag([0.0, 1.0])}, {0: e01}],
        [0.5, 0.5, 0.0],
    )
    sol = solve(p)
    assert sol.status == core.OPTIMAL
    assert abs(sol.certified_upper_bound - 0.5 * np.trace(c)) < 1e-8
    assert np.max(np.abs(sol.x_blocks[0] - 0.5 * np.eye(2))) < 1e-7


def test_solution_iterate_quality_when_optimal():
    rng = np.random.default_rng(21)
    p = _random_bounded(rng)
    sol = solve(p)
    assert sol.status == core.OPTIMAL
    assert sol.primal_residual < 1e-8
    for blk in sol.x_blocks:
        assert np.min(np.linalg.eigvalsh(blk)) > -1e-9
    assert sol.certified_upper_bound >= sol.primal_objective - 1e-6
    assert sol.certified_upper_bound >= sol.dual_objective - 1e-12


def test_certify_matches_solution_field():
    rng = np.random.default_rng(22)
    p = _random_bounded(rng)
    sol = solve(p)
    again = certify_upper_bound(p, sol)
    assert abs(again - sol.certified_upper_bound) < 1e-12


def test_certified_bound_valid_under_small_dual_perturbations():
    p = _max_eig_problem(np.diag([1.0, 2.0]))
    sol = solve(p)
    assert p.cert_vector is not None
    for t in (0.0, 1e-9, 1e-7, 1e-5):
        moved = dataclasses.replace(sol, y=sol.y - t * p.cert_vector)
        bound = certify_upper_bound(p, moved)
        assert bound >= 2.0 - 1e-9
    # sliding further along the identity direction only flattens the bound
    far = dataclasses.replace(sol, y=sol.y - 5e-5 * p.cert_vector)
    assert certify_upper_bound(p, far) >= 2.0 - 1e-9


def test_certify_refuses_badly_infeasible_dual():
    p = _max_eig_problem(np.diag([1.0, 2.0]))
    sol = solve(p)
    wrecked = dataclasses.replace(sol, y=sol.y - 1.0 * p.cert_vector)
    with pytest.raises(CertificationError):
        certify_upper_bound(p, wrecked)


def test_certify_refuses_without_identity_direction():
    # row space without the identity: no shift is available, small dual
    # infeasibility cannot be repaired
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = _prep((2,), {0: -np.eye(2)}, [{0: a}], [0.0])
    assert p.cert_vector is None
    sol = solve(p)
    assert sol.status == core.OPTIMAL
    # rows are unit-Frobenius after preprocessing, so A = (E01+E10)/sqrt(2)
    # and the slack y*A + I first goes negative at y = sqrt(2)
    bad = dataclasses.replace(sol, y=np.array([math.sqrt(2.0) * (1.0 + 1e-5)]))
    with pytest.raises(CertificationError):
        certify_upper_bound(p, bad)


@pytest.mark.parametrize("y", [[1e308, -math.inf], [math.nan, math.nan]])
def test_certify_refuses_non_finite_dual(y):
    # b.y is -inf or nan and the slack has nan entries: max(0, -nan) is 0,
    # so without a finiteness guard this would pass as "no shift needed"
    p = _prep((2,), {0: np.diag([1.0, 2.0])},
              [{0: np.eye(2)}, {0: np.diag([1.0, 0.0])}], [2.0, 0.5])
    sol = solve(p)
    with np.errstate(invalid="ignore"), pytest.raises(CertificationError):
        certify_upper_bound(p, dataclasses.replace(sol, y=np.array(y)))


def _jacobi_min(blocks):
    return min(float(jacobi_eigvalsh(blk)[0]) for blk in blocks)


def _doubled(scen):
    g = scen.generation_index - 1
    return mdi.Scenario(double_ensemble(scen.ensemble), double_statistics(scen.observed),
                        mode=scen.mode, generation_index=g * scen.n_states + g + 1)


@pytest.mark.parametrize("name, doubled", [
    ("fig3-blue", False), ("fig6-2s-m2", False), ("fig6-4s-m2", False), ("fig7-3o", True),
])
def test_slack_eigenvalue_matches_jacobi_on_presets(name, doubled):
    # the batched LAPACK minimum over the final slack agrees with the
    # per-block cyclic Jacobi minimum to Jacobi's own stopping tolerance
    scen = cli.realize(cli.load_scenario_spec(name))
    p, _ = mdi.build_sdp(_doubled(scen) if doubled else scen)
    sol = solve(p)
    slack = sol.slack_blocks
    lam = _min_eigenvalue(p.stack_groups(slack))
    scale = max(1.0, max(float(np.linalg.norm(blk)) for blk in slack))
    assert abs(lam - _jacobi_min(slack)) <= 1e-12 * scale
    assert sol.dual_min_eigenvalue == lam
    assert certify_upper_bound(p, sol) == sol.certified_upper_bound


@pytest.mark.parametrize("worst", [2, 3, 4])
def test_slack_eigenvalue_reads_every_size_group(worst):
    # sizes (1, 3, 2, 3, 1) group as [0, 4], [1, 3], [2]; the most negative
    # slack eigenvalue sits in block `worst`: the later size-2 group, the
    # second block of the size-3 group, or the second 1x1 block
    dims = (1, 3, 2, 3, 1)
    rng = np.random.default_rng(50 + worst)
    obj = {}
    for k, s in enumerate(dims):
        q, _ = np.linalg.qr(rng.standard_normal((s, s)))
        top = 1.0 + 1e-6 if k == worst else 0.9 - 0.1 * k
        obj[k] = _sym(q @ np.diag(np.linspace(top, top - 1.0, s)) @ q.T)
    p = _prep(dims, obj, [{k: np.eye(s) for k, s in enumerate(dims)}], [1.0])
    assert p.size_groups == [[0, 4], [1, 3], [2]]
    # y = w makes A*(y) the identity, so the slack is I - C with floor -1e-6
    slack, lam = _dual_slack(p, p.cert_vector)
    assert [len(st) for st in slack] == [2, 2, 1]
    assert abs(lam + 1e-6) <= 1e-12
    assert abs(lam - _jacobi_min(p.unstack_groups(slack))) <= 1e-12
    sol = dataclasses.replace(solve(p), y=p.cert_vector)
    assert certify_upper_bound(p, sol) == float(p.b @ p.cert_vector) - lam * p.cert_b


def _random_pd(rng, s):
    r = rng.standard_normal((s, s))
    return r @ r.T + 0.1 * np.eye(s)


def test_schur_matrix_matches_dense_oracle():
    # 24 blocks of size 12 touched by uneven row counts (padded, and more
    # than two chunks), 1x1 and 3x3 blocks, and a 3x3 block no row touches
    rng = np.random.default_rng(77)
    dims = (12,) * 24 + (1, 3, 1, 3)
    m = 30
    cons = []
    for i in range(m):
        blk = {k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims[:-1])
               if rng.random() < 0.6}
        blk.setdefault(i % 24, _sym(rng.standard_normal((12, 12))))
        cons.append(blk)
    p = core.SdpProblem(dims, {}, cons, rng.standard_normal(m))
    assert p.size_groups[2] == [25, 27] and np.all(p.group_rows[2][1] == m)
    big = p.size_groups[0]
    counts = [int(np.sum(rows < m)) for rows in p.group_rows[0]]
    r = max(counts)
    assert len(set(counts)) > 1
    assert len(big) > 2 * (SCHUR_CHUNK // (r * max(r, 12 * 12)))
    xs = [_random_pd(rng, s) for s in dims]
    zinvs = [np.linalg.inv(_random_pd(rng, s)) for s in dims]
    zinvs = [_sym(z) for z in zinvs]
    got = p.schur_matrix(p.stack_groups(xs), p.stack_groups(zinvs))
    want = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            want[i, j] = sum(
                float(np.trace(a @ xs[k] @ cons[j][k] @ zinvs[k]))
                for k, a in cons[i].items() if k in cons[j]
            )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["fig7-3o", "fig3-blue", "fig5"])
def test_preprocess_and_solver_share_the_row_product_kernel(name, monkeypatch):
    # preprocessing's Gram matrix is one kernel call; the solver makes one
    # per iteration that takes a step, so not after the last logged one
    calls = []
    kernel = core.SdpProblem.schur_matrix

    def spy(self, x, w):
        calls.append(self)
        return kernel(self, x, w)

    monkeypatch.setattr(core.SdpProblem, "schur_matrix", spy)
    prob, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec(name)))
    assert len(calls) == 1 and calls[0] is not prob
    sol = solve(prob)
    assert sol.status == core.OPTIMAL
    assert len(calls) == sol.n_iterations
    assert all(q is prob for q in calls[1:])


# iteration counts of every preset but fig6-2s-m3 (solved by two other
# tests) and of the doubled two-copy problems; a rewrite of the solver
# loop must keep them
TRAJECTORY_PINS = [
    ("fig3-blue", False, 8), ("fig3-green", False, 8), ("fig3-red", False, 7),
    ("fig4", False, 9), ("fig5", False, 11), ("fig6-2s-m1", False, 9),
    ("fig6-2s-m2", False, 13), ("fig6-4s-m1", False, 9), ("fig6-4s-m2", False, 10),
    ("fig7-3o", False, 9), ("fig7-proj", False, 9),
    ("fig7-3o", True, 11), ("fig7-proj", True, 12),
]


@pytest.mark.parametrize("name, doubled, iterations", TRAJECTORY_PINS)
def test_solver_trajectory_is_pinned(name, doubled, iterations):
    scen = cli.realize(cli.load_scenario_spec(name))
    res = mdi.guessing_probability(_doubled(scen) if doubled else scen)
    assert res.status == core.OPTIMAL
    assert res.n_iterations == iterations


def _min_eig(blocks):
    return min(float(np.linalg.eigvalsh(blk)[0]) for blk in blocks)


@pytest.mark.parametrize("seed", range(6))
def test_step_length_matches_eigvalsh_oracle(seed):
    # random PD blocks of mixed sizes (1x1 included), grouped by size as the
    # solver groups them, against numpy.linalg.eigvalsh on each trial point
    rng = np.random.default_rng(300 + seed)
    dims = [3, 1, 4, 3, 1, 2]
    groups = [[0, 3], [1, 4], [2], [5]]
    fraction = 0.98
    xs = []
    for s in dims:
        r = rng.standard_normal((s, s))
        xs.append(r @ r.T + 0.1 * np.eye(s))
    x_norm = max(np.linalg.norm(x, 2) for x in xs)
    def stacked(blocks):
        return [np.stack([blocks[k] for k in g]) for g in groups]

    for scale in (0.05, 0.5, 5.0):
        ds = [scale * _sym(rng.standard_normal((s, s))) for s in dims]
        alpha = _step_length(stacked(xs), stacked(ds), fraction)
        assert 0.0 < alpha <= 1.0
        assert _min_eig([x + alpha * d for x, d in zip(xs, ds)]) > 0.0
        if alpha == 1.0:
            assert _min_eig([x + d / fraction for x, d in zip(xs, ds)]) > 0.0
        else:
            edge = [x + (alpha / fraction) * d for x, d in zip(xs, ds)]
            assert abs(_min_eig(edge)) <= 1e-9 * x_norm
    psd = [r @ r.T for r in (rng.standard_normal((s, s)) for s in dims)]
    assert _step_length(stacked(xs), stacked(psd), fraction) == 1.0


def test_weak_duality_on_logged_iterates():
    # every finite per-iteration certified bound is a true upper bound
    p = _max_eig_problem(np.diag([1.0, 2.0]))
    sol = solve(p)
    seen = 0
    for rec in sol.iterations:
        if math.isfinite(rec.certified_bound):
            assert rec.certified_bound >= 2.0 - 1e-9
            seen += 1
    assert seen > 0
    assert sol.certified_upper_bound == min(
        rec.certified_bound for rec in sol.iterations
        if math.isfinite(rec.certified_bound)
    )


def test_every_bound_comes_from_the_one_certificate_rule(monkeypatch):
    # one _shifted_bound call per logged iteration plus the final one, and
    # each logged bound is that iteration's result (nan where it refused)
    calls = []
    real = sdp_solver._shifted_bound

    def spy(p, dual, min_eig):
        try:
            out = real(p, dual, min_eig)
        except CertificationError:
            calls.append(math.nan)
            raise
        calls.append(out)
        return out

    monkeypatch.setattr(sdp_solver, "_shifted_bound", spy)
    scen = cli.realize(cli.load_scenario_spec("fig7-3o"))
    p, _ = mdi.build_sdp(scen)
    sol = solve(p)
    logged = [rec.certified_bound for rec in sol.iterations]
    assert len(calls) == len(logged) + 1
    for got, want in zip(logged, calls):
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert sol.certified_upper_bound == calls[-1]
    assert sol.certified_upper_bound == min(v for v in logged if math.isfinite(v))


def test_determinism_bit_identical_logs():
    def build():
        rng = np.random.default_rng(33)
        return _random_bounded(rng, dims=(3, 2), extra=6)

    a = solve(build())
    b = solve(build())
    assert len(a.iterations) == len(b.iterations)
    for ra, rb in zip(a.iterations, b.iterations):
        for f in dataclasses.fields(ra):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb
    for xa, xb in zip(a.x_blocks, b.x_blocks):
        assert np.array_equal(xa, xb)
    assert np.array_equal(a.y, b.y)
    assert a.certified_upper_bound == b.certified_upper_bound


def test_primal_infeasible_instance_detected():
    # X00 = X11 = 1 with X01 = 5 admits no PSD completion
    e01 = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = _prep(
        (2,),
        {0: np.eye(2)},
        [{0: np.diag([1.0, 0.0])}, {0: np.diag([0.0, 1.0])}, {0: e01}],
        [1.0, 1.0, 10.0],
    )
    sol = solve(p)
    assert sol.status == core.INFEASIBLE


def test_trace_negative_infeasible_detected():
    p = _prep((1,), {0: np.eye(1)}, [{0: np.eye(1)}], [-1.0])
    sol = solve(p)
    assert sol.status == core.INFEASIBLE


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(feas_tol=-1e-9)
    with pytest.raises(ValueError):
        SolverOptions(relax=-0.1)


def test_solve_rejects_unpreprocessed_or_oversized():
    raw = core.SdpProblem((2,), {0: np.eye(2)}, [{0: np.eye(2)}], np.array([1.0]))
    with pytest.raises(ValueError):
        solve(raw)
    with pytest.raises(ValueError):
        solve(
            _prep((2,), {0: np.eye(2)},
                  [{0: np.diag([1.0, 0.0])}, {0: np.diag([0.0, 1.0])}],
                  [0.3, 0.3]),
            SolverOptions(max_constraints=1),
        )


@pytest.mark.parametrize("seed", range(12))
def test_random_instances_match_reference_single_block(seed):
    rng = np.random.default_rng(1000 + seed)
    p = _random_bounded(rng, dims=(3,), extra=int(rng.integers(2, 6)))
    ref = _reference_optimum(p)
    sol = solve(p)
    assert sol.status in (core.OPTIMAL, core.NEAR_OPTIMAL)
    scale = 1.0 + abs(ref)
    assert abs(sol.certified_upper_bound - ref) / scale < 1e-6
    # logged per-iterate bounds must sit above the reference optimum
    for rec in sol.iterations:
        if math.isfinite(rec.certified_bound):
            assert rec.certified_bound >= ref - 1e-7 * scale


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_match_reference_multi_block(seed):
    rng = np.random.default_rng(2000 + seed)
    p = _random_bounded(rng, dims=(3, 2), extra=int(rng.integers(3, 7)))
    ref = _reference_optimum(p)
    sol = solve(p)
    assert sol.status in (core.OPTIMAL, core.NEAR_OPTIMAL)
    assert abs(sol.certified_upper_bound - ref) / (1.0 + abs(ref)) < 1e-6
