import numpy as np
import pytest

from mdirand import sdp_core as core
from mdirand import cli, mdi
from mdirand.quantum import (
    extremal4,
    povm_from_bloch,
    sigma_z_povm,
    tomographic_set,
)
from mdirand.sdp_solver import solve
from scenarios import doubled_preset, force_order_one_group
from sdp_rows import from_rows, real_coords, row_maps, stack_groups


def _sym(m):
    return 0.5 * (m + m.T)


def _random_rows(rng, dims=(3, 2), m=6):
    """Random symmetric-constraint rows, no dependencies planted, as the
    (block_dims, objective, constraints, b) that sdp_rows.from_rows takes."""
    constraints = []
    for _ in range(m):
        constraints.append({k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)})
    objective = {k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)}
    b = rng.standard_normal(m)
    return tuple(dims), objective, constraints, b


def _random_problem(rng, dims=(3, 2), m=6):
    return from_rows(*_random_rows(rng, dims, m))


def _gram(p):
    """The Gram matrix <A_i, A_j> as preprocess builds it."""
    identity = stack_groups(p, [np.eye(s) for s in p.block_dims])
    g = p.schur_matrix(identity, identity)
    return 0.5 * (g + g.T)


def _dense_rows(block_dims, constraints):
    """One row of real coordinates per constraint: <A_i, X> = rows[i] @ x
    for x the concatenated real_coords of the blocks."""
    offs = np.concatenate([[0], np.cumsum([2 * s * s for s in block_dims])])
    rows = np.zeros((len(constraints), offs[-1]))
    for i, blk in enumerate(constraints):
        for k, mm in blk.items():
            rows[i, offs[k]:offs[k + 1]] = real_coords(mm)
    return rows


def test_problem_rejects_wrong_block_shape():
    # a wrong objective block, then a wrong constraint block
    for objective, constraint in ((np.eye(3), np.eye(2)), (np.eye(2), np.eye(3))):
        with pytest.raises(ValueError, match="wrong shape"):
            from_rows((2,), {0: objective}, [{0: constraint}], np.array([1.0]))


def test_problem_rejects_asymmetric_constraint():
    # an asymmetric constraint block, then an asymmetric objective block
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for objective, constraint in ((np.eye(2), a), (a, np.eye(2))):
        with pytest.raises(ValueError, match="symmetric"):
            from_rows((2,), {0: objective}, [{0: constraint}], np.array([1.0]))


@pytest.mark.parametrize("objective, b", [
    ([[np.inf]], [1.0]), ([[1.0]], [np.nan]), ([[1.0]], [np.inf]),
])
def test_problem_rejects_non_finite_data(objective, b):
    # NaN compares False against any tolerance, so the Hermitian rule tests
    # finiteness first; solve would otherwise start from a non-finite iterate
    with pytest.raises(ValueError, match="finite"):
        from_rows((1,), {0: objective}, [{0: np.eye(1)}], b)


def test_problem_rejects_complex_symmetric_constraint():
    # [[0, 1j], [1j, 0]] equals its transpose but not its conjugate
    # transpose: a transpose-only check would accept it
    a = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        from_rows((2,), {0: np.eye(2)}, [{0: a}], np.array([1.0]))


def test_problem_rejects_b_length_mismatch():
    with pytest.raises(ValueError):
        from_rows((2,), {0: np.eye(2)}, [{0: np.eye(2)}], np.array([1.0, 2.0]))


def test_adjoint_is_adjoint_of_constraint_map():
    # <A(X), y> = <X, A*(y)> is the defining identity; random data, then
    # the same with a third block that no constraint touches, then blocks
    # of one size touched by uneven row counts (the padded group layout)
    rng = np.random.default_rng(7)
    dims, obj, cons, b = _random_rows(rng)
    p = from_rows(dims, obj, cons, b)
    untouched = from_rows(dims + (2,), obj, cons, b)
    assert untouched.size_groups[1] == [1, 2]
    assert np.all(untouched.group_rows[1][1] == untouched.n_constraints)
    dims = (2, 3, 2, 1, 2)
    cons_u = [{k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)
               if rng.random() < 0.5 or k == i % len(dims)} for i in range(7)]
    # a dependent row between independent ones: preprocessing drops it
    cons_u.insert(3, {k: 2.0 * mm for k, mm in cons_u[0].items()})
    b_u = rng.standard_normal(len(cons_u))
    b_u[3] = 2.0 * b_u[0]
    uneven = from_rows(dims, {}, cons_u, b_u)
    counts = [int(np.sum(rows < uneven.n_constraints)) for rows in uneven.group_rows[0]]
    assert len(set(counts)) > 1
    assert uneven.group_rows[0].shape == (3, max(counts))
    for q, q_cons in ((p, cons), (untouched, cons), (uneven, cons_u)):
        xs = [_sym(rng.standard_normal((s, s))) for s in q.block_dims]
        y = rng.standard_normal(q.n_constraints)
        rows = _dense_rows(q.block_dims, q_cons)
        ax = q.apply_constraints(stack_groups(q, xs))
        assert np.allclose(ax, rows @ np.concatenate([real_coords(x) for x in xs]),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(_gram(q), rows @ rows.T, rtol=1e-12, atol=1e-12)
        lhs = float(ax @ y)
        adj = q.unstack_groups(q.adjoint(y))
        rhs = sum(float(real_coords(adj[k]) @ real_coords(xs[k])) for k in range(q.n_blocks))
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))
        # raw layout: each block's rows increase ahead of its padding, and
        # every padding slot is exactly zero
        for rows_g, st in zip(q.group_rows, q.group_stacks):
            pad = rows_g == q.n_constraints
            assert np.all(np.diff(pad.astype(int), axis=1) >= 0)
            assert np.all((np.diff(rows_g, axis=1) > 0) | pad[:, 1:])
            assert not np.any(st[pad])
    y = rng.standard_normal(untouched.n_constraints)
    assert np.array_equal(untouched.unstack_groups(untouched.adjoint(y))[2], np.zeros((2, 2)))
    # preprocessing keeps the raw layout: the dropped row 3 becomes a dummy
    # slot mid-block, and A, A* and the kernel are the raw ones on the
    # kept rows, each kept row divided by its norm
    out, rep = core.preprocess(uneven)
    assert rep.dropped_rows == [3]
    k = out.n_constraints
    rows_0 = out.group_rows[0]
    assert np.any((rows_0[:, :-1] == k) & (rows_0[:, 1:] < k))
    kept = rep.kept_rows
    scales = np.sqrt(np.diag(_gram(uneven)))[kept]
    xs = stack_groups(uneven, [_sym(rng.standard_normal((s, s))) for s in dims])
    ws = stack_groups(uneven, [a @ a.T for a in (rng.standard_normal((s, s)) for s in dims)])
    assert np.allclose(out.apply_constraints(xs), uneven.apply_constraints(xs)[kept] / scales,
                       rtol=1e-12, atol=1e-12)
    y = rng.standard_normal(k)
    y_raw = np.zeros(uneven.n_constraints)
    y_raw[kept] = y / scales
    for got, want in zip(out.adjoint(y), uneven.adjoint(y_raw)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    want = uneven.schur_matrix(xs, ws)[np.ix_(kept, kept)] / np.outer(scales, scales)
    assert np.allclose(out.schur_matrix(xs, ws), want, rtol=1e-12, atol=1e-12)


def _herm(rng, s):
    m = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    return 0.5 * (m + m.conj().T)


def test_complex_hermitian_products_match_dense_oracle():
    # A, A* and the row-product kernel on genuinely complex Hermitian data
    # (the random problems above are real), against the trace formulas
    # Re tr(A_i X), sum_i y_i A_i and Re tr(A_i X A_j W) evaluated per block
    rng = np.random.default_rng(8)
    dims, m = (3, 2, 3), 5
    cons = [{k: _herm(rng, s) for k, s in enumerate(dims) if rng.random() < 0.7 or k == i % 3}
            for i in range(m)]
    p = from_rows(dims, {0: _herm(rng, 3)}, cons, rng.standard_normal(m))
    xs = [_herm(rng, s) for s in dims]
    ws = [a @ a.conj().T for a in (_herm(rng, s) for s in dims)]
    y = rng.standard_normal(m)
    ax = [sum(np.trace(a @ xs[k]).real for k, a in blk.items()) for blk in cons]
    assert np.allclose(p.apply_constraints(stack_groups(p, xs)), ax, rtol=1e-12, atol=1e-12)
    for k, got in enumerate(p.unstack_groups(p.adjoint(y))):
        want = sum(y[i] * blk[k] for i, blk in enumerate(cons) if k in blk)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    want = np.array([[sum(np.trace(a @ xs[k] @ cons[j][k] @ ws[k]).real
                          for k, a in cons[i].items() if k in cons[j])
                      for j in range(m)] for i in range(m)])
    got = p.schur_matrix(stack_groups(p, xs), stack_groups(p, ws))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_duplicate_constraint_removed_and_reported():
    rng = np.random.default_rng(0)
    dims, obj, rows, b0 = _random_rows(rng, m=4)
    dup = {k: mm.copy() for k, mm in rows[1].items()}
    cons = rows + [dup]
    b = np.concatenate([b0, [b0[1]]])
    raw = from_rows(dims, obj, cons, b)
    out, rep = core.preprocess(raw)
    assert rep.n_raw == 5
    assert rep.dropped_rows == [4]
    assert rep.kept_rows == [0, 1, 2, 3]
    assert rep.max_consistency_residual < 1e-12
    assert out.n_constraints == 4


def test_contradictory_duplicate_is_infeasible():
    rng = np.random.default_rng(1)
    dims, obj, rows, b0 = _random_rows(rng, m=3)
    dup = {k: mm.copy() for k, mm in rows[0].items()}
    cons = rows + [dup]
    b = np.concatenate([b0, [b0[0] + 0.5]])
    raw = from_rows(dims, obj, cons, b)
    with pytest.raises(core.InfeasibleProblemError):
        core.preprocess(raw)


def test_linear_combination_row_dropped_consistently():
    rng = np.random.default_rng(2)
    dims, obj, rows, b0 = _random_rows(rng, m=4)
    combo = {}
    for k in range(len(dims)):
        combo[k] = 2.0 * rows[0].get(k, 0.0) - 3.0 * rows[2].get(k, 0.0)
    cons = rows + [combo]
    b = np.concatenate([b0, [2.0 * b0[0] - 3.0 * b0[2]]])
    out, rep = core.preprocess(from_rows(dims, obj, cons, b))
    assert rep.dropped_rows == [4]
    assert rep.max_consistency_residual < 1e-9
    assert out.n_constraints == 4


@pytest.mark.parametrize("seed", range(8))
def test_kept_count_matches_svd_rank_oracle(seed):
    # oracle: numpy SVD rank of the dense row matrix
    rng = np.random.default_rng(seed)
    dims, obj, rows, b0 = _random_rows(rng, dims=(3, 2), m=5)
    cons = list(rows)
    b = list(b0)
    # plant seed-many dependent rows as random combinations of the originals
    for j in range(seed % 4):
        w = rng.standard_normal(5)
        combo = {}
        for k in range(len(dims)):
            combo[k] = sum(w[i] * cons[i].get(k, 0.0) for i in range(5))
        cons.append(combo)
        b.append(float(w @ np.array(b[:5])))
    raw = from_rows(dims, obj, cons, np.array(b))
    out, rep = core.preprocess(raw)
    rank = np.linalg.matrix_rank(_dense_rows(dims, cons), tol=1e-9)
    assert len(rep.kept_rows) == rank
    assert len(rep.kept_rows) + len(rep.dropped_rows) == rep.n_raw


def test_mdi_instance_rank_matches_svd_oracle():
    scen = mdi.honest_scenario(tomographic_set(), sigma_z_povm(), eta=0.9)
    prob, rep = mdi.build_sdp(scen)
    assert rep.n_raw == 15
    # reconstruct the raw rows independently: rebuild without preprocessing
    # is not exposed, so check the invariants the report promises instead
    assert len(rep.kept_rows) + len(rep.dropped_rows) == 15
    assert prob.n_constraints == len(rep.kept_rows)
    assert rep.max_consistency_residual < 1e-8
    # kept rows must be linearly independent per the SVD oracle
    rows = _dense_rows(prob.block_dims, row_maps(prob)[1])
    assert np.linalg.matrix_rank(rows, tol=1e-9) == prob.n_constraints


def test_preprocess_scales_rows_to_unit_norm():
    rng = np.random.default_rng(3)
    raw = _random_problem(rng, m=5)
    out, _ = core.preprocess(raw)
    for blk in row_maps(out)[1]:
        norm = np.sqrt(sum(float(np.vdot(mm, mm).real) for mm in blk.values()))
        assert abs(norm - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_feasible_points_still_satisfy_kept_rows(seed):
    # preprocess must not move the feasible set: a point satisfying the raw
    # system satisfies the rescaled kept system with the rescaled b
    rng = np.random.default_rng(100 + seed)
    dims = (3, 2, 2)
    x0 = [_sym(rng.standard_normal((s, s))) for s in dims]
    cons = []
    for _ in range(6):
        cons.append({k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)})
    # consistent b by construction, plus one dependent row
    b = [sum(float(np.sum(mm * x0[k])) for k, mm in blk.items()) for blk in cons]
    cons.append({k: cons[0][k] + cons[1][k] for k in range(len(dims))})
    b.append(b[0] + b[1])
    raw = from_rows(dims, {0: np.eye(3)}, cons, np.array(b))
    out, rep = core.preprocess(raw)
    resid = out.apply_constraints(stack_groups(out, x0)) - out.b
    assert np.max(np.abs(resid)) < 1e-9


def test_certificate_vector_reproduces_identity():
    rng = np.random.default_rng(4)
    dims = (3, 2, 2)
    cons = [{k: np.eye(s) for k, s in enumerate(dims)}]  # total trace row
    for _ in range(4):
        cons.append({k: _sym(rng.standard_normal((s, s))) for k, s in enumerate(dims)})
    raw = from_rows(dims, {0: np.eye(3)}, cons, rng.standard_normal(5))
    out, rep = core.preprocess(raw)
    assert out.cert_vector is not None
    assert rep.cert_residual < 1e-9
    adj = out.unstack_groups(out.adjoint(out.cert_vector))
    for k, s in enumerate(dims):
        assert np.max(np.abs(adj[k] - np.eye(s))) < 1e-8
    assert abs(out.cert_b - float(out.b @ out.cert_vector)) < 1e-10


def test_no_certificate_when_identity_not_reachable():
    # single off-diagonal constraint cannot combine to the identity
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    raw = from_rows((2,), {0: np.eye(2)}, [{0: a}], np.array([0.3]))
    out, rep = core.preprocess(raw)
    assert out.cert_vector is None
    assert any("identity" in n for n in rep.notes)


def test_preprocess_is_idempotent():
    rng = np.random.default_rng(5)
    out, _ = core.preprocess(_random_problem(rng, m=4))
    again, rep = core.preprocess(out)
    assert again is out
    assert rep.dropped_rows == []


def test_preprocessed_is_read_off_the_row_map():
    # one fact, not two fields that preprocess sets together
    raw = _random_problem(np.random.default_rng(5), m=4)
    assert not raw.preprocessed and raw.row_map is None
    out, _ = core.preprocess(raw)
    assert out.preprocessed and out.row_map is not None
    with pytest.raises(AttributeError):
        out.preprocessed = False


# every bundled preset whose raw SDP has at most 150 rows
SMALL_PRESETS = ["fig3-blue", "fig3-green", "fig3-red", "fig4", "fig5",
                 "fig6-2s-m1", "fig6-2s-m2", "fig6-4s-m1", "fig6-4s-m2",
                 "fig7-3o", "fig7-proj"]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_row_selection_matches_dense_rank_oracle(name, monkeypatch):
    raws = []

    def capture(p, *args, **kwargs):
        raws.append(p)
        return core.preprocess(p, *args, **kwargs)

    monkeypatch.setattr(mdi, "preprocess", capture)
    _, rep = mdi.build_sdp(cli.realize(cli.load_scenario_spec(name)))
    raw = raws[0]
    assert rep.n_raw == raw.n_constraints <= 150
    rows = _dense_rows(raw.block_dims, row_maps(raw)[1])
    # project onto the row space once: every subset keeps its singular values
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    rows_c = rows @ vt.T
    kept_before: list[int] = []
    for i in range(raw.n_constraints):
        with_i = np.linalg.matrix_rank(rows_c[kept_before + [i]], tol=1e-9)
        without = np.linalg.matrix_rank(rows_c[kept_before], tol=1e-9) if kept_before else 0
        if with_i > without:
            kept_before.append(i)
    assert rep.kept_rows == kept_before
    g = _gram(raw)
    kept, dropped = core.row_space_basis(g)
    assert (kept, dropped) == (rep.kept_rows, rep.dropped_rows)
    if dropped:
        coeffs = np.linalg.solve(g[np.ix_(kept, kept)], g[np.ix_(kept, dropped)])
        for j, i in enumerate(dropped):
            resid = np.linalg.norm(rows[i] - coeffs[:, j] @ rows[kept])
            assert resid < 1e-9 * max(1.0, np.linalg.norm(rows[i]))


def _random_arrow(rng, m, groups):
    """A random symmetric positive definite m x m matrix whose entries
    between the rows of two different groups are exactly zero."""
    label = np.full(m, -1)
    for g, rows in enumerate(groups):
        label[rows] = g
    a = _sym(rng.standard_normal((m, m)))
    a[(label[:, None] != label[None, :]) & (label[:, None] >= 0) & (label[None, :] >= 0)] = 0.0
    return a + (1.0 - np.min(np.linalg.eigvalsh(a))) * np.eye(m)


# equal groups, unequal groups (two of size 4 apart, interleaved rows, a
# single row), and no groups: the whole system is the border
ARROW_LAYOUTS = {
    "equal": (30, [[3, 4, 5], [10, 11, 12], [20, 21, 22], [6, 7, 8]]),
    "unequal": (31, [[1, 2, 3, 4], [7, 9], [15, 16, 17, 18], [25], [8, 10, 30]]),
    "none": (12, []),
}


@pytest.mark.parametrize("layout", ARROW_LAYOUTS)
@pytest.mark.parametrize("n_rhs", [None, 1, 4])
def test_arrow_elimination_matches_dense_solve(layout, n_rhs):
    m, groups = ARROW_LAYOUTS[layout]
    rng = np.random.default_rng(len(groups) + (n_rhs or 0))
    s = _random_arrow(rng, m, groups)
    plan = core.ArrowPlan.from_groups([np.array(g) for g in groups], m)
    assert sum(rows.size for rows in plan.blocks) + plan.border.size == m
    if layout == "unequal":
        assert [rows.shape for rows in plan.blocks] == [(2, 4), (1, 2), (1, 1), (1, 3)]
    rhs = rng.standard_normal(m if n_rhs is None else (m, n_rhs))
    got = plan.factor(s).solve(rhs)
    want = np.linalg.solve(s, rhs)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_arrow_factor_leaves_the_matrix_and_right_hand_side_alone():
    # the solver passes the same S to lstsq when an LU solve fails, and
    # the same right-hand side to both directions' checks
    m, groups = ARROW_LAYOUTS["unequal"]
    rng = np.random.default_rng(9)
    s = _random_arrow(rng, m, groups)
    rhs = rng.standard_normal((m, 2))
    s0, rhs0 = s.copy(), rhs.copy()
    core.ArrowPlan.from_groups(groups, m).factor(s).solve(rhs)
    assert np.array_equal(s, s0) and np.array_equal(rhs, rhs0)


def test_arrow_plan_renumbers_with_the_kept_rows():
    # rows 2 and 7 of 9 dropped: the kept rows are renumbered in order and
    # the first group loses its dropped row, so the two groups then differ
    # in size
    plan = core.ArrowPlan.from_groups([np.array([1, 2, 3]), np.array([4, 5, 6])], 9)
    kept = [0, 1, 3, 4, 5, 6, 8]
    new_index = np.full(10, len(kept))
    new_index[kept] = np.arange(len(kept))
    out = plan.renumber(new_index, len(kept))
    assert [rows.tolist() for rows in out.blocks] == [[[1, 2]], [[3, 4, 5]]]
    assert out.border.tolist() == [0, 6]


def _two_block_problem(groups):
    # block 0 is touched by rows 0 and 1, block 1 by rows 1 and 2
    dims = (2, 2)
    rows = [np.array([0, 1]), np.array([1, 2])]
    coeffs = [np.stack([np.eye(2), np.diag([1.0, -1.0])])] * 2
    return core.SdpProblem.from_blocks(dims, np.ones(3), rows, coeffs, [np.eye(2), None],
                                       groups)


@pytest.mark.parametrize("groups, msg", [
    ([[0], [1]], "touched by the rows of two row groups"),
    ([[2], [1]], "touched by the rows of two row groups"),
    ([[0, 1], [1]], "disjoint"),
    ([[0, 0]], "disjoint"),
    ([[3]], "disjoint"),
])
def test_from_blocks_rejects_groups_that_share_a_block(groups, msg):
    with pytest.raises(ValueError, match=msg):
        _two_block_problem([np.array(g) for g in groups])


def test_from_blocks_keeps_groups_that_share_no_block():
    p = _two_block_problem([np.array([0])])
    assert [rows.tolist() for rows in p.arrow.blocks] == [[[0]]]
    assert p.arrow.border.tolist() == [1, 2]


def _assert_arrow(p):
    # the Schur matrix at random positive definite X and W is exactly zero
    # between the rows of two different row groups, and block elimination
    # over them solves with it
    rng = np.random.default_rng(12)
    x, w = (stack_groups(p, [a @ a.conj().T + np.eye(len(a))
                             for a in (_herm(rng, k) for k in p.block_dims)]) for _ in range(2))
    s = p.schur_matrix(x, w)
    label = np.full(p.n_constraints, -1)
    for j, rows in enumerate(r for blocks in p.arrow.blocks for r in blocks):
        label[rows] = j
    between = (label[:, None] != label[None, :]) & (label[:, None] >= 0) & (label[None, :] >= 0)
    assert np.all(s[between] == 0.0)
    y = p.arrow.factor(s).solve(p.b)
    assert np.linalg.norm(s @ y - p.b) <= 1e-10 * np.linalg.norm(p.b)


def test_block_weights_default_to_one_and_must_be_positive():
    p = _two_block_problem(())
    assert [w.tolist() for w in p.group_weights] == [[1.0, 1.0]]
    dims, rows = (2, 1), [np.array([0]), np.array([0])]
    coeffs = [np.eye(2)[None], np.ones((1, 1, 1))]
    p = core.SdpProblem.from_blocks(dims, np.ones(1), rows, coeffs, [None, None], (), [3, 2])
    assert [w.tolist() for w in p.group_weights] == [[3.0], [2.0]]
    for bad in ([1.0], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValueError, match="one positive weight per block"):
            core.SdpProblem.from_blocks(dims, np.ones(1), rows, coeffs, [None, None], (), bad)


@pytest.mark.parametrize("weights", [None, [1.0, 1.0, 1.0], [4.0, 1.0, 2.0]])
def test_block_weights_move_the_path_not_the_optimum(weights):
    # the weights scale each block's barrier term: unit weights are the
    # unweighted run, bit for bit, and any weights reach the same optimum
    rng = np.random.default_rng(5)
    dims, objective, constraints, b = _random_rows(rng, (3, 2, 2), 4)
    constraints = [{k: np.eye(s) for k, s in enumerate(dims)}] + constraints
    x0 = [np.eye(s) for s in dims]
    b = np.array([sum(float(np.sum(mm * x0[k])) for k, mm in row.items())
                  for row in constraints])
    plain = from_rows(dims, objective, constraints, b)
    rows = [np.arange(len(constraints))] * 3
    coeffs = [np.array([row[k] for row in constraints]) for k in range(3)]
    p = core.SdpProblem.from_blocks(dims, b, rows, coeffs, [objective[k] for k in range(3)],
                                    (), weights)
    want = solve(core.preprocess(plain)[0])
    got = solve(core.preprocess(p)[0])
    assert got.status == want.status == core.OPTIMAL
    if weights is None or weights == [1.0, 1.0, 1.0]:
        assert got.y.tobytes() == want.y.tobytes()
        assert got.n_iterations == want.n_iterations
    assert abs(got.certified_upper_bound - want.certified_upper_bound) <= 1e-7


def test_schur_matrix_is_an_arrow_over_the_guess_groups(monkeypatch):
    # doubled extremal3 on all its blocks (no copy symmetry): preprocessing
    # keeps the layout [row 0 | 9 groups of 15 | border]
    force_order_one_group(monkeypatch)
    p, _ = mdi.build_sdp(doubled_preset("fig7-3o"))
    assert [rows.shape for rows in p.arrow.blocks] == [(9, 15)]
    assert np.array_equal(p.arrow.blocks[0].reshape(-1), np.arange(1, 136))
    assert p.arrow.border.size == p.n_constraints - 135 == 129
    _assert_arrow(p)


def test_reduced_schur_matrix_is_an_arrow_over_the_guess_orbits():
    # doubled extremal3 on one block per orbit of the copy swap: the guess
    # rows of each orbit of guesses form one group, three of 9 rows (the
    # guesses (e, e)) and three of 15 (the pairs {(e, e'), (e', e)})
    p, _ = mdi.build_sdp(doubled_preset("fig7-3o"))
    assert [rows.shape for rows in p.arrow.blocks] == [(3, 9), (3, 15)]
    assert p.arrow.border.size == p.n_constraints - 72 == 69
    _assert_arrow(p)


@pytest.mark.parametrize("name, doubled", [
    *[pytest.param(n, False, id=n) for n in SMALL_PRESETS],
    *[pytest.param(n, True, id=f"{n}-doubled") for n in ("fig7-3o", "fig7-proj")],
])
def test_no_lu_solve_reaches_a_threaded_size(name, doubled, monkeypatch):
    # OpenBLAS runs numpy.linalg.solve on two threads from 100 rows on,
    # whose spinning second thread doubles the CPU time of a small solve:
    # preprocessing and every Newton step of each preset and of both
    # doubled two-copy problems solve smaller systems only, and no arrow
    # border reaches that size (fig6-4s-m2, reduced by its copy swap:
    # 60 rows, all border; doubled extremal3: three blocks of 9 rows,
    # three of 15 and a border of 69)
    sizes, real = [], np.linalg.solve

    def spy(a, rhs):
        sizes.append(a.shape[-1])
        return real(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    p, _ = mdi.build_sdp(doubled_preset(name) if doubled else cli.realize(cli.load_scenario_spec(name)))
    assert solve(p).status == core.OPTIMAL
    assert sizes and max(sizes) < 100
    assert p.arrow.border.size < 100
    if name == "fig6-4s-m2":
        assert p.arrow.blocks == () and p.arrow.border.size == 60
    if (name, doubled) == ("fig7-3o", True):
        assert [rows.shape for rows in p.arrow.blocks] == [(3, 9), (3, 15)]
        assert p.arrow.border.size == 69


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["constraint", "objective"])
def test_problem_names_a_non_finite_block_entry(bad, where):
    a = np.eye(2)
    a[1, 0] = a[0, 1] = bad
    objective, constraint = (np.eye(2), a) if where == "constraint" else (a, np.eye(2))
    with pytest.raises(ValueError, match=r"^matrix entry \((0, )?0, 1\) is .*not finite$"):
        from_rows((2,), {0: objective}, [{0: constraint}], np.array([1.0]))
