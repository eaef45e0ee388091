import dataclasses
import math

import numpy as np
import pytest

from mdirand import cli, mdi, sdp_solver
from mdirand import sdp_core as core
from mdirand.linalg import jacobi_eigvalsh, lowest_eigenvalues
from mdirand.sdp_core import SCHUR_CHUNK
from mdirand.sdp_solver import (
    STEP_FRACTION,
    CertificationError,
    SolverOptions,
    _dual_slack,
    _inverse_cholesky,
    _step_lengths,
    certify_upper_bound,
    solve,
)
from scenarios import doubled_scenario
from sdp_rows import from_rows, real_embed, row_maps, stack_groups


def _sym(m):
    return 0.5 * (m + m.T)


def _prep(dims, objective, constraints, b):
    raw = from_rows(tuple(dims), objective, constraints, np.asarray(b, float))
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
    objective, constraints = row_maps(p)
    # the random instances are real: their complex stacks carry zero
    # imaginary parts, and real symmetric variables state them exactly
    assert not any(np.any(mm.imag) for blk in [objective, *constraints] for mm in blk.values())
    for i, blk in enumerate(constraints):
        cons.append(
            sum(cp.sum(cp.multiply(mm.real, xs[k])) for k, mm in blk.items()) == p.b[i]
        )
    obj = sum(cp.sum(cp.multiply(mm.real, xs[k])) for k, mm in objective.items())
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


@pytest.mark.parametrize("at", [(0, 0), (0, 2), (1, 0), (1, 1)])
def test_non_finite_slack_is_never_certified(at):
    # numpy's batched eigvalsh returns -0.5 for a stack of -0.5 I with a
    # nan at some diagonal entries; the smallest eigenvalue must be nan,
    # and a slack with such an entry must not give a bound
    st = np.stack([-0.5 * np.eye(3)] * 2).astype(complex)
    st[at[0], at[1], at[1]] = math.nan
    assert np.isnan(lowest_eigenvalues(st)).tolist() == [at[0] == 0, at[0] == 1]
    p = _prep((2,), {0: np.diag([1.0, 2.0])},
              [{0: np.eye(2)}, {0: np.diag([1.0, 0.0])}], [2.0, 0.5])
    sol = solve(p)
    c = p.objective_stacks[0].copy()
    c[0, at[1] % 2, at[1] % 2] = math.nan
    with pytest.raises(CertificationError, match="slack eigenvalue nan"):
        certify_upper_bound(dataclasses.replace(p, objective_stacks=[c]), sol)


def _jacobi_min(blocks):
    # Jacobi is real symmetric only; the real embedding of a Hermitian
    # block carries the same eigenvalues, each twice
    return min(float(jacobi_eigvalsh(real_embed(blk))[0]) for blk in blocks)


@pytest.mark.parametrize("name, doubled", [
    ("fig3-blue", False), ("fig6-2s-m2", False), ("fig6-4s-m2", False), ("fig7-3o", True),
])
def test_slack_eigenvalue_matches_jacobi_on_presets(name, doubled):
    # the batched LAPACK minimum over the final slack agrees with the
    # per-block cyclic Jacobi minimum to Jacobi's own stopping tolerance
    scen = cli.realize(cli.load_scenario_spec(name))
    p, _ = mdi.build_sdp(doubled_scenario(scen) if doubled else scen)
    sol = solve(p)
    slack = sol.slack_blocks
    lam = float(np.concatenate([lowest_eigenvalues(st) for st in stack_groups(p, slack)]).min())
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
    p = from_rows(dims, {}, cons, rng.standard_normal(m))
    assert p.size_groups[2] == [25, 27] and np.all(p.group_rows[2][1] == m)
    big = p.size_groups[0]
    counts = [int(np.sum(rows < m)) for rows in p.group_rows[0]]
    r = max(counts)
    assert len(set(counts)) > 1
    assert len(big) > 2 * (SCHUR_CHUNK // (r * max(r, 12 * 12)))
    xs = [_random_pd(rng, s) for s in dims]
    zinvs = [np.linalg.inv(_random_pd(rng, s)) for s in dims]
    zinvs = [_sym(z) for z in zinvs]
    got = p.schur_matrix(stack_groups(p, xs), stack_groups(p, zinvs))
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


# kept-row counts and iteration counts of every preset but fig6-2s-m3
# (solved by two other tests) and of the doubled two-copy problems; a
# rewrite of the solver loop must keep the iterations, a rewrite of the
# assembly or the row selection the kept rows (the dimension of the row
# space). fig6-2s-m2, fig6-4s-m2 and the doubled problems are solved on
# one block per orbit of their copy swap: kept rows of the reduced problem
TRAJECTORY_PINS = [
    ("fig3-blue", False, 13, 7), ("fig3-green", False, 8, 9), ("fig3-red", False, 3, 7),
    ("fig4", False, 20, 10), ("fig5", False, 20, 11), ("fig6-2s-m1", False, 9, 12),
    ("fig6-2s-m2", False, 41, 12), ("fig6-4s-m1", False, 11, 9),
    ("fig6-4s-m2", False, 60, 10), ("fig7-3o", False, 18, 8), ("fig7-proj", False, 11, 9),
    ("fig7-3o", True, 141, 12), ("fig7-proj", True, 60, 12),
]


@pytest.mark.parametrize("name, doubled, kept, iterations", TRAJECTORY_PINS,
                         ids=[f"{n}-{d}-{i}" for n, d, _, i in TRAJECTORY_PINS])
def test_solver_trajectory_is_pinned(name, doubled, kept, iterations):
    scen = cli.realize(cli.load_scenario_spec(name))
    prob, rep = mdi.build_sdp(doubled_scenario(scen) if doubled else scen)
    assert len(rep.kept_rows) == kept
    sol = solve(prob)
    assert sol.status == core.OPTIMAL
    assert sol.n_iterations == iterations


def _stopped_status(sol, opts):
    """The status solve gives a run that the iteration cap, a stall, a
    singular S or vanishing steps stopped: near-optimal if some bound was
    certified and the best score is below 1e5."""
    scores = [max(r.rel_gap / opts.gap_tol, r.primal_residual / opts.feas_tol,
                  r.dual_residual / opts.feas_tol) for r in sol.iterations]
    certified = any(math.isfinite(r.certified_bound) for r in sol.iterations)
    return core.NEAR_OPTIMAL if certified and min(scores) < 1e5 else core.NUMERICAL_FAILURE


def _assert_best_bound_returned(sol):
    # the returned y is the first iterate with the smallest finite bound;
    # with no finite bound it is the best-score iterate, here y = 0
    finite = [r for r in sol.iterations if math.isfinite(r.certified_bound)]
    if not finite:
        assert math.isnan(sol.certified_upper_bound) and not np.any(sol.y)
        return
    rec = min(finite, key=lambda r: r.certified_bound)
    assert sol.certified_upper_bound == rec.certified_bound
    assert sol.dual_objective == rec.dual_objective
    assert float(np.linalg.norm(sol.y)) == rec.y_norm


def _fig7_3o_pinned_iterations():
    return next(i for n, d, _, i in TRAJECTORY_PINS if n == "fig7-3o" and not d)


@pytest.mark.parametrize("max_iter", [_fig7_3o_pinned_iterations() - 2, 0])
def test_iteration_cap_stops_with_the_post_loop_status(max_iter):
    # max_iter + 1 iterates are logged: the pinned count minus one, or one
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec("fig7-3o")))
    opts = SolverOptions(max_iter=max_iter)
    sol = solve(p, opts)
    assert sol.n_iterations == max_iter + 1
    assert sol.status == _stopped_status(sol, opts)
    _assert_best_bound_returned(sol)


def _elimination_raising_at(k, monkeypatch):
    """Make the elimination of the k-th Newton direction raise as LU does
    for an exactly singular S; odd k is a predictor, even k a corrector,
    of iteration (k - 1) // 2. Returns the list that records, for each
    direction, the Schur matrix last factored and the right-hand side."""
    real_factor, real_solve, schur, calls = core.ArrowPlan.factor, core.ArrowFactor.solve, [], []

    def factor(self, s):
        schur.append(s)
        return real_factor(self, s)

    def solve_or_raise(self, rhs):
        calls.append((schur[-1], rhs))
        if len(calls) == k:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(self, rhs)

    monkeypatch.setattr(core.ArrowPlan, "factor", factor)
    monkeypatch.setattr(core.ArrowFactor, "solve", solve_or_raise)
    return calls


@pytest.mark.parametrize("k", [3, 12])
def test_singular_schur_takes_the_least_squares_direction(k, monkeypatch):
    # the direction of the failed elimination comes from lstsq with the
    # same dense S and right-hand side, and the run goes on to the
    # unpatched optimum
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec("fig7-3o")))
    reference = solve(p)
    real_lstsq, lstsq_calls = np.linalg.lstsq, []

    def lstsq(a, rhs, rcond):
        lstsq_calls.append(len(calls))
        schur, given = calls[-1]
        assert a is schur and a.shape == (p.n_constraints,) * 2
        assert np.array_equal(rhs, given)
        return real_lstsq(a, rhs, rcond=rcond)

    calls = _elimination_raising_at(k, monkeypatch)
    monkeypatch.setattr(sdp_solver.np.linalg, "lstsq", lstsq)
    sol = solve(p)
    assert lstsq_calls == [k]
    assert len(calls) > k
    step = sol.iterations[(k - 1) // 2]
    assert step.step_primal > 0.0 and step.step_dual > 0.0
    assert sol.status == core.OPTIMAL
    assert abs(sol.certified_upper_bound - reference.certified_upper_bound) <= 1e-9


@pytest.mark.parametrize("k", [3, 12])
def test_singular_schur_stops_with_the_post_loop_status(k, monkeypatch):
    # the k-th elimination raises and so does its least-squares fallback:
    # iteration (k - 1) // 2 then takes no step and the loop stops
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec("fig7-3o")))
    calls = _elimination_raising_at(k, monkeypatch)

    def lstsq_raises(a, rhs, rcond):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp_solver.np.linalg, "lstsq", lstsq_raises)
    sol = solve(p)
    assert len(calls) == k
    assert sol.n_iterations == (k - 1) // 2 + 1
    assert sol.iterations[-1].step_primal == sol.iterations[-1].step_dual == 0.0
    assert sol.status == _stopped_status(sol, SolverOptions())
    _assert_best_bound_returned(sol)


@pytest.mark.parametrize("j", [1, 5])
def test_singular_factor_takes_least_squares_for_both_directions(j, monkeypatch):
    # the factorization of iteration j raises: its predictor and corrector
    # both come from lstsq with that iteration's S, the others from the
    # elimination, and the run reaches the unpatched optimum
    scen = cli.realize(cli.load_scenario_spec("fig7-3o"))
    p, _ = mdi.build_sdp(doubled_scenario(scen))
    assert p.arrow.blocks  # the doubled problem keeps its diagonal blocks
    reference = solve(p)
    real_factor, real_lstsq, factored, lstsq_calls = core.ArrowPlan.factor, np.linalg.lstsq, [], []

    def factor_or_raise(self, s):
        factored.append(s)
        if len(factored) == j + 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_factor(self, s)

    def lstsq(a, rhs, rcond):
        assert a is factored[-1]
        lstsq_calls.append(len(factored) - 1)
        return real_lstsq(a, rhs, rcond=rcond)

    monkeypatch.setattr(core.ArrowPlan, "factor", factor_or_raise)
    monkeypatch.setattr(sdp_solver.np.linalg, "lstsq", lstsq)
    sol = solve(p)
    assert lstsq_calls == [j, j]
    assert sol.status == core.OPTIMAL
    assert abs(sol.certified_upper_bound - reference.certified_upper_bound) <= 1e-9


@pytest.mark.parametrize("k", [2, 5])
def test_failed_cholesky_of_z_stops_with_the_post_loop_status(k, monkeypatch):
    # Z^-1 comes from Z's Cholesky factor, so when that factor fails at
    # iteration k there is no Newton step: iterate k is the last logged
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec("fig7-3o")))
    n_groups, real, calls = len(p.size_groups), np.linalg.cholesky, []
    # each iteration factors one [X; Z] stack per group; when one raises,
    # Z's groups are factored alone: fail group 0's [X; Z] at iteration k,
    # and then Z's own group 0
    joint = n_groups * k + 1
    fail = {joint, joint + 1}

    def cholesky_or_raise(a):
        calls.append(None)
        if len(calls) in fail:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a)

    monkeypatch.setattr(sdp_solver.np.linalg, "cholesky", cholesky_or_raise)
    sol = solve(p)
    assert len(calls) == joint + 1  # [X; Z] of group 0, then Z's group 0
    assert sol.n_iterations == k + 1
    assert sol.iterations[-1].step_primal == sol.iterations[-1].step_dual == 0.0
    assert sol.status == _stopped_status(sol, SolverOptions())
    _assert_best_bound_returned(sol)


def test_failed_cholesky_of_x_takes_only_a_dual_step(monkeypatch):
    # without X's factor the primal step length has no eigenvalue to come
    # from: that iteration takes no primal step, its dual step comes from
    # Z's factor alone, and the run goes on. Each iteration factors [X; Z]
    # once; at iteration 3 (the fourth factorization) that fails, and Z
    # alone (the fifth) does not, so X is the one not positive definite
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec("fig7-3o")))
    real, calls = sdp_solver._inverse_cholesky, []

    def inverse_cholesky_or_none(stacks):
        calls.append(len(stacks[0]))
        return None if len(calls) == 4 else real(stacks)

    monkeypatch.setattr(sdp_solver, "_inverse_cholesky", inverse_cholesky_or_none)
    sol = solve(p)
    n = len(p.size_groups[0])  # the blocks of group 0: Z's, and twice as many in [X; Z]
    assert calls[2:6] == [2 * n, 2 * n, n, 2 * n]
    assert sol.iterations[3].step_primal == 0.0 and sol.iterations[3].step_dual > 0.0
    assert sol.status in (core.OPTIMAL, _stopped_status(sol, SolverOptions()))
    assert math.isfinite(sol.certified_upper_bound)


@pytest.mark.parametrize("doubled", [False, True])
def test_each_iterate_and_the_kept_gram_block_factored_once(doubled, monkeypatch):
    # build_sdp's only factorization is preprocess's elimination of the
    # kept Gram block, applied once; each Newton step factors its Schur
    # matrix once and applies it twice (predictor and corrector), and
    # Cholesky-factors the stack [X; Z] once per size group and inverts
    # that factor, Z^-1 being formed from its lower half
    counts = {"factor": 0, "apply": 0, "cholesky": 0, "inv": 0}

    def counted(owner, attr, name):
        real = getattr(owner, attr)

        def spy(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, attr, spy)

    counted(core.ArrowPlan, "factor", "factor")
    counted(core.ArrowFactor, "solve", "apply")
    for name in ("cholesky", "inv"):
        counted(np.linalg, name, name)
    scen = cli.realize(cli.load_scenario_spec("fig7-3o"))
    p, _ = mdi.build_sdp(doubled_scenario(scen) if doubled else scen)
    assert counts == {"factor": 1, "apply": 1, "cholesky": 0, "inv": 0}
    sol = solve(p)
    assert sol.status == core.OPTIMAL
    steps = sol.n_iterations - 1
    assert counts["factor"] == 1 + steps and counts["apply"] == 1 + 2 * steps
    assert counts["cholesky"] == counts["inv"] == len(p.size_groups) * steps


def _min_eig(blocks):
    return min(float(np.linalg.eigvalsh(blk)[0]) for blk in blocks)


@pytest.mark.parametrize("seed", range(6))
def test_step_length_matches_eigvalsh_oracle(seed):
    # random PD blocks of mixed sizes (1x1 included), grouped by size as the
    # solver groups them, against numpy.linalg.eigvalsh on each trial point
    rng = np.random.default_rng(300 + seed)
    dims = [3, 1, 4, 3, 1, 2]
    groups = [[0, 3], [1, 4], [2], [5]]
    fraction = STEP_FRACTION
    xs = []
    for s in dims:
        r = rng.standard_normal((s, s))
        xs.append(r @ r.T + 0.1 * np.eye(s))
    x_norm = max(np.linalg.norm(x, 2) for x in xs)
    def stacked(blocks):
        return [np.stack([blocks[k] for k in g]) for g in groups]

    for scale in (0.05, 0.5, 5.0):
        ds = [scale * _sym(rng.standard_normal((s, s))) for s in dims]
        alpha = _step_lengths(_inverse_cholesky(stacked(xs)), [stacked(ds)])[0]
        assert 0.0 < alpha <= 1.0
        assert _min_eig([x + alpha * d for x, d in zip(xs, ds)]) > 0.0
        if alpha == 1.0:
            assert _min_eig([x + d / fraction for x, d in zip(xs, ds)]) > 0.0
        else:
            edge = [x + (alpha / fraction) * d for x, d in zip(xs, ds)]
            assert abs(_min_eig(edge)) <= 1e-9 * x_norm
    psd = [r @ r.T for r in (rng.standard_normal((s, s)) for s in dims)]
    assert _step_lengths(_inverse_cholesky(stacked(xs)), [stacked(psd)])[0] == 1.0


@pytest.mark.parametrize("bad", [None, "primal", "dual"])
def test_merged_step_lengths_match_each_side_alone(bad):
    # the factors of [X; Z] and [dX; dZ] stacked per group give each
    # side's step bit for bit as one side at a time; a non-finite direction
    # on one side gets 0.0 and leaves the other side's step as it is
    rng = np.random.default_rng(310)
    groups = [[0, 3], [1, 4], [2]]
    dims = [3, 1, 4, 3, 1]

    def stacked(blocks):
        return [np.stack([blocks[k] for k in g]).astype(complex) for g in groups]

    x, z = (stacked([_random_pd(rng, s) for s in dims]) for _ in range(2))
    lx, lz = _inverse_cholesky(x), _inverse_cholesky(z)
    dx, dz = (stacked([_sym(rng.standard_normal((s, s))) for s in dims]) for _ in range(2))
    if bad is not None:
        (dx if bad == "primal" else dz)[2][0, 1, 1] = np.nan
    both = _step_lengths(_inverse_cholesky([np.concatenate(p) for p in zip(x, z)]), [dx, dz])
    alone = [_step_lengths(lx, [dx])[0], _step_lengths(lz, [dz])[0]]
    assert both == alone
    assert (both[0] == 0.0) == (bad == "primal") and (both[1] == 0.0) == (bad == "dual")


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
    # one _shifted_bound call per logged iteration, and each logged bound
    # is that iteration's result (nan where it refused)
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
    assert len(calls) == len(logged)
    for got, want in zip(logged, calls):
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert sol.certified_upper_bound == min(v for v in logged if math.isfinite(v))


@pytest.mark.parametrize("preset", ["fig7-3o", "fig3-green"])
def test_solve_certifies_each_iterate_once(monkeypatch, preset):
    # the returned bound, y and slack are those the loop certified: no
    # slack or bound is recomputed after the last logged iteration
    counts = {"_dual_slack": 0, "_shifted_bound": 0}

    def counted(name):
        real = getattr(sdp_solver, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(sdp_solver, name, counted(name))
    p, _ = mdi.build_sdp(cli.realize(cli.load_scenario_spec(preset)))
    sol = solve(p)
    assert counts == {name: sol.n_iterations for name in counts}
    certified = [rec for rec in sol.iterations if math.isfinite(rec.certified_bound)]
    least = min(certified, key=lambda rec: rec.certified_bound)
    assert sol.certified_upper_bound == least.certified_bound
    assert sol.dual_objective == least.dual_objective


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
    # nan fails every comparison and inf passes "> 0": neither may reach
    # the stopping rule or the statistics band
    for field in ("gap_tol", "feas_tol", "relax"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SolverOptions(**{field: value})


def test_options_reject_negative_max_iter():
    # max_iter = -1 would log no iterate, leaving nothing to return
    with pytest.raises(ValueError, match="max_iter"):
        SolverOptions(max_iter=-1)


def test_solve_rejects_unpreprocessed_or_oversized(monkeypatch):
    raw = from_rows((2,), {0: np.eye(2)}, [{0: np.eye(2)}], np.array([1.0]))
    with pytest.raises(ValueError):
        solve(raw)
    monkeypatch.setattr(sdp_solver, "MAX_CONSTRAINTS", 1)
    with pytest.raises(ValueError, match="2 constraint rows on 1 blocks of size up to 2 exceed"):
        solve(
            _prep((2,), {0: np.eye(2)},
                  [{0: np.diag([1.0, 0.0])}, {0: np.diag([0.0, 1.0])}],
                  [0.3, 0.3]),
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
