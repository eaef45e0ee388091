import ast
import dataclasses
import hashlib
import math
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from mdirand import cli, mdi, sdp_core, sdp_solver
from mdirand.linalg import lowest_eigenvalues, row_space_basis
from mdirand.quantum import (
    DensityMatrix,
    ObservedStatistics,
    Povm,
    StateEnsemble,
    bloch_to_density,
    double_ensemble,
    double_statistics,
    extremal3,
    extremal4,
    honest_statistics,
    povm_from_bloch,
    sigma_x_povm,
    sigma_z_povm,
    tomographic_set,
)
from mdirand.sdp_core import INFEASIBLE, OPTIMAL, InfeasibleProblemError
from mdirand.sdp_solver import SolverOptions
import orbit_tables
from scenarios import doubled_preset, force_order_one_group
from sdp_rows import hermitian_basis, real_coords, stack_groups
from strategy import EffectiveStrategy, honest_strategy


def _fig3_blue(eta=1.0, mode=mdi.MODE_ASYMPTOTIC):
    return mdi.honest_scenario(
        tomographic_set(), povm_from_bloch(extremal4()), eta=eta, mode=mode
    )


def _fig3_red(eta=1.0):
    return mdi.honest_scenario(tomographic_set(), sigma_z_povm(), eta=eta)


def _finite_q(scen):
    return mdi.Scenario(scen.ensemble, scen.observed, mode=mdi.MODE_FINITE_Q)


def test_raw_row_count_formula():
    # asymptotic, one family: 1 + n_o*(d^2-1) + n_s*L by hand, L live
    # outcomes: sigma_z: 1 + 6 + 8 = 15; extremal4: 1 + 12 + 16 = 29
    _, rep = mdi.build_sdp(_fig3_red(eta=0.9))
    assert rep.n_raw == 15
    assert len(rep.kept_rows) + len(rep.dropped_rows) == 15
    _, rep4 = mdi.build_sdp(_fig3_blue(eta=0.9))
    assert rep4.n_raw == 29
    # finite-q keeps one family per input:
    # 1 + n_s*n_o*(d^2-1) + (n_s-1)*L*d^2 + n_s*L by hand:
    # sigma_z: 1 + 24 + 24 + 8 = 57; extremal4: 1 + 48 + 48 + 16 = 113
    _, rep_q = mdi.build_sdp(_finite_q(_fig3_red(eta=0.9)))
    assert rep_q.n_raw == 57
    _, rep4_q = mdi.build_sdp(_finite_q(_fig3_blue(eta=0.9)))
    assert rep4_q.n_raw == 113


def test_raw_row_cap_checked_before_assembly(monkeypatch):
    # fig6-2s-m3 has 569 raw rows on 64 blocks of size 8, and 137 rows on
    # 20 orbit blocks once reduced by S_3; a cap below the reduced count
    # fires once the orbits are counted, before any tensor of the
    # problem's size exists
    scen = cli.realize(cli.load_scenario_spec("fig6-2s-m3"))
    monkeypatch.setattr(sdp_solver, "MAX_CONSTRAINTS", 136)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="137 constraint rows on 20 blocks of size up to 8"):
            mdi.build_sdp(scen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_reduced_row_bound_checked_before_any_row_array():
    # fig6-2s-m3 at five copies in finite-q mode has 2064385 raw rows, of
    # which 999936 are antisymmetric; an S_5 orbit holds at most 120 rows,
    # so at least ceil(1064449 / 120) = 8871 rows are left, above the cap.
    # That bound fires before any array over the raw rows (16 MB each)
    # exists
    spec = dict(cli.load_scenario_spec("fig6-2s-m3"), copies=5, mode=mdi.MODE_FINITE_Q)
    scen = cli.realize(spec)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at least 8871 constraint rows on 792 blocks of "
                                             "size up to 32 exceed the cap 5000"):
            mdi.build_sdp(scen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**23


def test_row_cap_reads_the_reduced_rows(monkeypatch):
    # a cap between the 137 reduced and the 569 raw rows of fig6-2s-m3
    # admits it: the build and the solve (133 kept rows) both fit
    monkeypatch.setattr(sdp_solver, "MAX_CONSTRAINTS", 200)
    res = mdi.guessing_probability(cli.realize(cli.load_scenario_spec("fig6-2s-m3")))
    assert res.status == OPTIMAL
    assert abs(res.rate_bits - 0.4851337486) <= 1e-7


def test_build_checks_each_stack_once(monkeypatch):
    # fig3-blue at eta 0.9 has four full faces, one coefficient stack each,
    # and one block size: from_blocks checks the four stacks and the one
    # stack of objective matrices, not each objective matrix again
    calls = []
    real = sdp_core.require_hermitian
    monkeypatch.setattr(sdp_core, "require_hermitian", lambda a: calls.append(a) or real(a))
    mdi.build_sdp(_fig3_blue(eta=0.9))
    assert len(calls) == 5


def test_built_problem_holds_its_stacks_once():
    # A and C live only in the group stacks: the problem build_sdp returns
    # holds little beyond them, and building it never holds more than
    # three times their size (warm-up call first, then the traced one)
    scen = cli.realize(cli.load_scenario_spec("fig6-2s-m3"))
    mdi.build_sdp(scen)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        prob, _ = mdi.build_sdp(scen)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stacks = sum(st.nbytes for st in prob.group_stacks)
    assert held - base <= 1.25 * stacks
    assert peak - base <= 3.0 * stacks


@pytest.mark.parametrize("name", [n for n in cli.preset_names() if n != "fig6-2s-m3"])
def test_honest_strategy_satisfies_every_kept_row(name):
    # a check of the assembled A, b and C that needs no solver: the honest
    # device is feasible, so its operators compressed onto each face, in
    # block order (f, live x, e), satisfy every kept row and give its
    # objective value, read off the real views; in the preset's mode and
    # in finite-q. The honest device is symmetric under the copy
    # permutations of a product preset, so on its reduced problem the
    # block of each orbit's first member, times the orbit size, does (the
    # order-1 group of every other preset has orbits of size one)
    spec = cli.load_scenario_spec(name)
    base = cli.realize(spec)
    povm = cli._build_povm(spec)
    for scen in {base.mode: base, mdi.MODE_FINITE_Q: _finite_q(base)}.values():
        prob, _ = mdi.build_sdp(scen)
        n_fam = scen.n_states if scen.mode == mdi.MODE_FINITE_Q else 1
        # the honest device's one family, on each of the SDP's families
        ops = np.broadcast_to(honest_strategy(scen, povm, spec["device"]["eta"]).operators,
                              (n_fam, scen.n_outcomes, scen.n_outcomes, scen.dim, scen.dim))
        faces = mdi.face_bases(scen)
        blocks = [v.conj().T @ ops[f, x, e] @ v for f in range(n_fam)
                  for x, v in enumerate(faces) if v.shape[1] > 0
                  for e in range(scen.n_outcomes)]
        sym = mdi._copy_symmetry(scen, faces)
        live = [x for x, v in enumerate(faces) if v.shape[1] > 0]
        canon = orbit_tables.block_canon(sym, n_fam, live, scen.n_outcomes)
        size = np.bincount(canon)
        blocks = [size[k] * blocks[k] for k in np.unique(canon)]
        assert len(blocks) == prob.n_blocks
        xs = stack_groups(prob, blocks)
        assert np.max(np.abs(prob.apply_constraints(xs) - prob.b)) <= 1e-12
        value = sum(float(real_coords(c) @ real_coords(x))
                    for c, x in zip(prob.objective_stacks, xs))
        assert abs(value - EffectiveStrategy(ops).objective_value(scen)) <= 1e-12


def _haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("name, seed", [
    *[pytest.param(n, 0, id=n) for n in cli.preset_names()
      if cli.load_scenario_spec(n)["device"]["eta"] < 1.0 and n != "fig6-2s-m3"],
    # eta = 1: rank-deficient faces, where LU found the rotated fig3-green
    # Schur matrix exactly singular on seeds 3 and 5
    *[pytest.param(n, seed, id=f"{n}-seed{seed}")
      for n in ("fig3-blue", "fig3-green", "fig3-red", "fig4") for seed in (0, 3, 5)],
])
def test_rate_invariant_under_common_unitary(name, seed):
    # conjugating every state by one unitary U^(x copies) and keeping the
    # statistics maps each feasible strategy M to U M U^dag with the same
    # objective, so the rate cannot move; a fixed complex U makes every
    # state and face complex, real presets included
    spec = cli.load_scenario_spec(name)
    scen = cli.realize(spec)
    u = reduce(np.kron, [_haar_unitary(np.random.default_rng(seed))] * spec["copies"])
    states = tuple(DensityMatrix(u @ s.mat @ u.conj().T) for s in scen.ensemble.states)
    rotated = mdi.Scenario(StateEnsemble(states, scen.ensemble.probs), scen.observed,
                           mode=scen.mode, generation_index=scen.generation_index)
    base, rot = mdi.guessing_probability(scen), mdi.guessing_probability(rotated)
    assert base.status == rot.status == OPTIMAL
    assert abs(rot.rate_bits - base.rate_bits) <= 1e-7


def test_single_state_family_iii_empty_and_rate_zero():
    # one input state: 1 + 6 + 0 + 2 = 9 raw rows, and nothing constrains
    # the guess, so the guessing probability is 1
    ens = StateEnsemble((bloch_to_density([0.0, 0.0, 1.0]),), np.array([1.0]))
    scen = mdi.honest_scenario(ens, sigma_z_povm(), eta=1.0)
    _, rep = mdi.build_sdp(scen)
    assert rep.n_raw == 9
    res = mdi.guessing_probability(scen)
    assert res.ok
    assert abs(res.p_guess_upper - 1.0) < 1e-6
    assert res.rate_bits == 0.0


def test_classical_min_entropy_deterministic_is_zero():
    stats = ObservedStatistics(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert mdi.classical_min_entropy(stats, np.array([0.5, 0.5])) == 0.0


def test_classical_min_entropy_uniform_four_outcomes():
    stats = ObservedStatistics(np.full((3, 4), 0.25))
    assert abs(mdi.classical_min_entropy(stats, np.array([0.2, 0.5, 0.3])) - 2.0) < 1e-12


def test_classical_min_entropy_weighted_sigma_z_example():
    # hand evaluation: per-input max outcome probs are (1/2, 1, 1, 1/2), so
    # sum p_a max_x = 1/2*1/2 + 1/6 + 1/6 + 1/6*1/2 = 2/3
    ens = tomographic_set().with_probs(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))
    stats = honest_statistics(ens, sigma_z_povm())
    val = mdi.classical_min_entropy(stats, ens.probs)
    assert abs(val - (-math.log2(2 / 3))) < 1e-12
    assert round(val, 3) == 0.585


def test_input_cost_examples():
    assert abs(mdi.input_cost(np.array([0.5, 0.5])) - 1.0) < 1e-15
    assert mdi.input_cost(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    # (1/2, 1/6, 1/6, 1/6): H = 1/2 + (1/2) log2 6
    want = 0.5 + 0.5 * math.log2(6.0)
    got = mdi.input_cost(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))
    assert abs(got - want) < 1e-12
    assert round(got, 4) == 1.7925


def test_scenario_validation():
    ens = tomographic_set()
    stats = honest_statistics(ens, sigma_z_povm())
    with pytest.raises(ValueError):
        mdi.Scenario(ens, stats, mode="bogus")
    with pytest.raises(ValueError):
        mdi.Scenario(ens, stats, generation_index=0)
    with pytest.raises(ValueError):
        mdi.Scenario(ens, stats, generation_index=5)
    with pytest.raises(ValueError, match="^3 statistics rows for 4 states$"):
        mdi.Scenario(ens, ObservedStatistics(stats.conditionals[:3]))


def test_face_bases_generic_full_rank():
    faces = mdi.face_bases(mdi.honest_scenario(tomographic_set(), sigma_z_povm(), 0.9))
    assert [v.shape for v in faces] == [(2, 2), (2, 2)]


def test_face_bases_noiseless_rank_one():
    # eta=1 pins each outcome marginal to a rank-one operator, so every
    # block compresses to one dimension
    for scen in (_fig3_blue(eta=1.0), _fig3_red(eta=1.0)):
        faces = mdi.face_bases(scen)
        assert all(v.shape == (2, 1) for v in faces)


def _tomographic_doubled(eta):
    single = _fig3_red(eta)
    return mdi.Scenario(double_ensemble(single.ensemble), double_statistics(single.observed))


def _preset(name):
    return lambda eta: cli.realize(cli.load_scenario_spec(name), eta=eta)


@pytest.mark.parametrize("make, spanning, ranks_noiseless", [
    (_fig3_red, True, [1, 1]),
    (_tomographic_doubled, True, [1, 1, 1, 1]),
    (_preset("fig6-2s-m1"), False, [2, 1]),
    (_preset("fig6-2s-m2"), False, [4, 2, 2, 1]),
], ids=["tomographic", "tomographic-doubled", "fig6-2s-m1", "fig6-2s-m2"])
def test_face_bases_spanning_and_zero_pattern_routes(make, spanning, ranks_noiseless,
                                                     monkeypatch):
    # spanning ensembles read the faces off the unique marginals N_x; the
    # two-state sources fall back to the common kernel of zero-probability
    # states. Ranks at eta = 1 pin the faces of either route; at eta = 0.9
    # every face is full.
    n_kept = []

    def spy(gram):
        out = row_space_basis(gram)
        n_kept.append(len(out[0]))
        return out

    monkeypatch.setattr(mdi, "row_space_basis", spy)
    for eta, ranks in ((0.9, None), (1.0, ranks_noiseless)):
        scen = make(eta)
        faces = mdi.face_bases(scen)
        assert (n_kept[-1] == scen.dim ** 2) is spanning
        assert [v.shape[1] for v in faces] == (ranks or [scen.dim] * len(faces))


def _isometry(rng, d, r, real=False):
    z = rng.standard_normal((d, d)) + (0.0 if real else 1j * rng.standard_normal((d, d)))
    return np.linalg.qr(z + 0j)[0][:, :r]


def _random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [2, 3, 4])
def test_elements_compress_as_the_dense_products(d):
    # bytes, not only values: a signed zero can steer LAPACK's Householder
    # signs, and so the faces; q = I gives the dense elements themselves
    basis, traceless = hermitian_basis(d)
    rng = np.random.default_rng(d)
    rhos = np.stack([_random_density(rng, d) for _ in range(3)])
    qs = [_isometry(rng, d, r, real) for r in range(1, d + 1) for real in (False, True)]
    for q in [np.eye(d, dtype=complex), *qs]:
        full = np.array_equal(q, np.eye(d))
        for got, h in zip(mdi._on_face(q, rhos), (basis, traceless, rhos)):
            want = h if full else q.conj().T @ h @ q
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("source", ["qutrit", "tomographic"])
def test_face_bases_coordinates_and_marginals_are_the_dense_products(source, monkeypatch):
    # t = Re tr(B_j rho_a) and the marginals sum_j c_j B_j, read off and
    # scattered without a basis, equal byte for byte the products with the
    # dense basis; the tomographic source has exactly zero imaginary parts,
    # and the qutrit source one real state whose upper entries have -0 ones
    rng = np.random.default_rng(3)
    if source == "qutrit":
        real = _random_density(rng, 3).real + 0j
        upper = np.triu_indices(3, 1)
        real[upper] = real[upper].conj()
        states = (DensityMatrix(real), *(DensityMatrix(_random_density(rng, 3)) for _ in range(9)))
        u = _isometry(rng, 3, 3)
        scen = mdi.honest_scenario(StateEnsemble(states, np.full(10, 0.1)),
                                   Povm(tuple(np.outer(c, c.conj()) for c in u.T)), eta=0.9)
    else:
        scen = _fig3_blue(eta=0.9)
    seen = {"marginals": []}
    lstsq, eigh = np.linalg.lstsq, mdi.eigh_hermitian

    def spy_lstsq(t, cond, rcond=None):
        seen["t"], seen["fit"] = t.copy(), lstsq(t, cond, rcond=rcond)
        return seen["fit"]

    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    monkeypatch.setattr(mdi, "eigh_hermitian",
                        lambda m: seen["marginals"].append(m.copy()) or eigh(m))
    mdi.face_bases(scen)
    d = scen.dim
    basis, _ = hermitian_basis(d)
    span_rows = np.stack([s.mat for s in scen.ensemble.states]).view(float)
    dense_t = span_rows.reshape(scen.n_states, -1) @ basis.view(float).reshape(d * d, -1).T
    assert seen["t"].tobytes() == dense_t.tobytes()
    dense = np.tensordot(seen["fit"][0], basis, axes=(0, 0))
    # one eigh_hermitian call, on the stack of every outcome's marginal
    assert len(seen["marginals"]) == 1 and len(seen["marginals"][0]) == scen.n_outcomes
    assert seen["marginals"][0].tobytes() == dense.tobytes()


def test_face_bases_zero_probability_outcome_dropped():
    # pad sigma_z statistics with a third outcome that never fires; the
    # padded scenario must reproduce the unpadded rate
    base = _fig3_red(eta=0.9)
    padded = np.hstack([base.observed.conditionals, np.zeros((4, 1))])
    scen3 = mdi.Scenario(
        base.ensemble,
        ObservedStatistics(padded),
        mode=base.mode,
    )
    faces = mdi.face_bases(scen3)
    assert faces[2].shape == (2, 0)
    r2 = mdi.guessing_probability(base)
    r3 = mdi.guessing_probability(scen3)
    assert r3.ok
    assert abs(r3.p_guess_upper - r2.p_guess_upper) < 1e-7


def test_zero_outcome_without_spanning_states():
    # two states only: the marginal is not pinned, but an impossible
    # outcome still collapses to an empty face via the kernel route
    ens = StateEnsemble(
        (bloch_to_density([1.0, 0, 0]), bloch_to_density([0, 0, 1.0])),
        np.array([0.5, 0.5]),
    )
    stats = honest_statistics(ens, sigma_z_povm())
    padded = np.hstack([stats.conditionals, np.zeros((2, 1))])
    scen = mdi.Scenario(ens, ObservedStatistics(padded))
    faces = mdi.face_bases(scen)
    assert faces[0].shape == (2, 2)
    assert faces[2].shape == (2, 0)


def test_impossible_statistics_raise_or_flag():
    # table forces an outcome marginal with a negative eigenvalue
    bad = mdi.Scenario(
        tomographic_set(),
        ObservedStatistics(np.array([[1, 0], [0, 1], [1, 0], [0.5, 0.5]], dtype=float)),
    )
    with pytest.raises(InfeasibleProblemError):
        mdi.face_bases(bad)
    res = mdi.guessing_probability(bad)
    assert res.status == INFEASIBLE
    assert math.isnan(res.p_guess_upper)
    assert not res.ok


def test_honest_strategy_is_feasible_and_lower_bounds_sdp():
    povm = povm_from_bloch(extremal4())
    scen = mdi.honest_scenario(tomographic_set(), povm, eta=0.9)
    strat = honest_strategy(scen, povm, eta=0.9)
    strat.validate(scen)
    obj = strat.objective_value(scen)
    assert abs(obj - (0.9 / 4 + 0.1)) < 1e-12
    res = mdi.guessing_probability(scen)
    assert obj <= res.p_guess_upper + 1e-7


def test_effective_strategy_round_trip():
    # validate() checks every input's normalization, statistics and input
    # independence, so the asymptotic single family, shared by every input,
    # is feasible for the per-input problem, and finite-q families f > 0,
    # normalized only through input independence, are normalized; the
    # eta = 1 fig3-green faces have ranks 1 and 2
    from mdirand.sdp_solver import solve

    green = _finite_q(cli.realize(cli.load_scenario_spec("fig3-green")))
    for scen in (_fig3_red(eta=0.9), _finite_q(_fig3_blue(eta=0.9)), green):
        prob, _ = mdi.build_sdp(scen)
        sol = solve(prob)
        strat = EffectiveStrategy.from_solution(scen, sol)
        strat.validate(scen)
        assert abs(strat.objective_value(scen) - sol.primal_objective) < 1e-9


def test_strategy_validate_rejects_bad_shapes_and_violations():
    scen = _fig3_red(eta=0.9)
    with pytest.raises(ValueError):
        EffectiveStrategy(np.zeros((4, 2, 2, 2)))
    wrong = honest_strategy(scen, sigma_z_povm(), eta=0.5)  # stats mismatch
    with pytest.raises(ValueError):
        wrong.validate(scen)
    # one family shared by every input, or one per input: two of four is neither
    two = np.repeat(honest_strategy(scen, sigma_z_povm(), eta=0.9).operators, 2, axis=0)
    with pytest.raises(ValueError, match="strategy shape does not match the scenario"):
        EffectiveStrategy(two).validate(scen)


def test_asymptotic_classical_bound_uses_generation_row():
    scen = _fig3_blue(eta=1.0)
    res = mdi.guessing_probability(scen)
    # the 4-outcome device is unbiased on |+>, so the classical bound is 2
    assert abs(res.classical_bound_bits - 2.0) < 1e-12
    assert res.input_cost_bits == 0.0
    assert res.net_expansion_bits == res.rate_bits


def test_rate_within_range_and_below_classical():
    for scen in (_fig3_blue(0.9), _fig3_blue(1.0), _fig3_red(1.0)):
        res = mdi.guessing_probability(scen)
        assert res.ok
        assert 0.0 <= res.rate_bits <= 2.0 * math.log2(scen.dim) + 1e-9
        assert res.rate_bits <= res.classical_bound_bits + 1e-6
        assert res.rate_per_qubit == res.rate_bits / math.log2(scen.dim)


def test_rate_monotone_in_detector_quality():
    rates = []
    for eta in (0.85, 0.9, 0.95, 1.0):
        rates.append(mdi.guessing_probability(_fig3_blue(eta)).rate_bits)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-5


def test_finite_q_limit_approaches_asymptotic():
    asym = mdi.guessing_probability(_fig3_blue(1.0)).rate_bits
    q = 1.0 - 1e-3
    ens = tomographic_set().with_probs(np.array([q, (1 - q) / 3, (1 - q) / 3, (1 - q) / 3]))
    scen = mdi.honest_scenario(
        ens, povm_from_bloch(extremal4()), eta=1.0, mode=mdi.MODE_FINITE_Q
    )
    fin = mdi.guessing_probability(scen)
    assert fin.ok
    assert abs(fin.rate_bits - asym) < 5e-3
    # finite-q accounting subtracts the input entropy
    assert abs(fin.net_expansion_bits - (fin.rate_bits - mdi.input_cost(ens.probs))) < 1e-12


def test_two_copy_wiring_and_deterministic_case():
    scen = _fig3_red(eta=0.9)
    detail = mdi.two_copy_detail(scen)
    assert detail.delta_bits == detail.single.rate_bits - 0.5 * detail.doubled.rate_bits
    assert mdi.two_copy_detail(scen).delta_bits == detail.delta_bits
    # deterministic statistics: both rates vanish, delta exactly 0
    ens = StateEnsemble(
        (bloch_to_density([0, 0, 1.0]), bloch_to_density([0, 0, -1.0])),
        np.array([0.5, 0.5]),
    )
    det = mdi.two_copy_detail(mdi.honest_scenario(ens, sigma_z_povm(), eta=1.0))
    assert det.delta_bits == 0.0
    assert det.single.rate_bits == 0.0 and det.doubled.rate_bits == 0.0


def test_angle_sweep_endpoints():
    out = mdi.angle_sweep([0.0, 1.0], eta=1.0, q=0.5)
    assert out[0][1].rate_bits == 0.0
    assert abs(out[1][1].rate_bits) < 1e-6


def test_angle_sweep_matches_direct_call():
    (alpha, via_sweep), = mdi.angle_sweep([0.5], eta=0.8, q=0.5)
    from mdirand.quantum import angle_states

    ens = angle_states(0.5).with_probs(np.array([0.5, 0.5]))
    scen = mdi.honest_scenario(ens, sigma_x_povm(), eta=0.8, mode=mdi.MODE_FINITE_Q)
    direct = mdi.guessing_probability(scen)
    assert alpha == 0.5
    assert via_sweep.rate_bits == direct.rate_bits
    assert via_sweep.p_guess_upper == direct.p_guess_upper


@pytest.mark.parametrize("relax", [1e-3, 1e-2])
@pytest.mark.parametrize("name", ["fig3-blue", "fig3-green", "fig3-red"])
def test_relaxed_rate_is_bounded_by_a_table_inside_the_band(name, relax):
    # the honest table at eta' = 1 - relax / max|1/n_o - P(x|a)| is within
    # relax of the eta = 1 table P in every entry, so the band around P
    # contains it and cannot certify more than it does; the band must not
    # keep P's rank-deficient faces
    spec = cli.load_scenario_spec(name)
    scen = cli.realize(spec)
    assert spec["device"]["eta"] == 1.0
    eta = 1.0 - relax / np.max(np.abs(1.0 / scen.n_outcomes - scen.observed.conditionals))
    relaxed = mdi.guessing_probability(scen, SolverOptions(relax=relax))
    inside = mdi.guessing_probability(cli.realize(spec, eta=eta))
    assert relaxed.status == inside.status == OPTIMAL
    assert relaxed.rate_bits <= inside.rate_bits + 1e-7


def test_relaxation_band_widens_feasible_set():
    scen = _fig3_blue(eta=0.95)
    exact = mdi.guessing_probability(scen)
    relaxed = mdi.guessing_probability(scen, SolverOptions(relax=1e-3))
    assert relaxed.ok
    assert relaxed.p_guess_upper >= exact.p_guess_upper - 1e-9
    prob_exact, rep_exact = mdi.build_sdp(scen)
    prob_rel, rep_rel = mdi.build_sdp(scen, SolverOptions(relax=1e-3))
    # one extra row and two 1x1 slack blocks per statistics constraint
    assert rep_rel.n_raw == rep_exact.n_raw + 16
    assert prob_rel.n_blocks == prob_exact.n_blocks + 2 * 16


# rate_bits of the per-input asymptotic formulation (one family per input,
# tied by family iii), as stored in perfbench/reference.json; fig6-2s-m3,
# which is not benchmarked, was solved with that formulation under a
# constraint cap raised to 10000 (7232 kept rows, 51 iterations). The
# single-family SDP has the same optimum, so it must match within 1e-7,
# the ROADMAP gate for any change to the formulation.
PER_INPUT_RATES = {
    "fig3-blue": 1.9999999920415559,
    "fig3-green": 0.9999999600984173,
    "fig3-red": 0.9999999966370762,
    "fig6-2s-m1": 0.23920233424456097,
    "fig6-2s-m2": 0.3921278493989788,
    "fig6-2s-m3": 0.4851337118465017,
    "fig6-4s-m1": 0.4780548696544787,
    "fig6-4s-m2": 0.955665768557404,
    "fig7-3o": 0.6805517779465675,
    "fig7-proj": 0.4780548696544787,
}
PER_INPUT_DOUBLED_RATES = {
    "fig7-3o": 1.035438946501201,
    "fig7-proj": 0.8837962394157692,
}


@pytest.mark.parametrize("name", sorted(PER_INPUT_RATES))
def test_single_family_matches_per_input_rates(name):
    scen = cli.realize(cli.load_scenario_spec(name))
    assert scen.mode == mdi.MODE_ASYMPTOTIC
    res = mdi.guessing_probability(scen)
    assert res.ok
    assert abs(res.rate_bits - PER_INPUT_RATES[name]) <= 1e-7


@pytest.mark.parametrize("name", sorted(PER_INPUT_DOUBLED_RATES))
def test_single_family_matches_per_input_doubled_rates(name):
    detail = mdi.two_copy_detail(cli.realize(cli.load_scenario_spec(name)))
    assert detail.doubled.ok
    assert abs(detail.doubled.rate_bits - PER_INPUT_DOUBLED_RATES[name]) <= 1e-7


@pytest.mark.parametrize("name", cli.preset_names())
def test_recovered_strategy_brackets_certified_bound(name):
    # a check that needs no reference solver: the strategy read back from
    # the primal blocks is feasible at the default tolerance, so its value
    # lower-bounds the optimum that the certified bound sits above
    from mdirand.sdp_solver import solve

    scen = cli.realize(cli.load_scenario_spec(name))
    prob, _ = mdi.build_sdp(scen)
    sol = solve(prob)
    strat = EffectiveStrategy.from_solution(scen, sol)
    strat.validate(scen)
    lower = strat.objective_value(scen)
    assert lower <= sol.certified_upper_bound + 1e-9
    assert sol.certified_upper_bound - lower <= 1e-6


def test_production_paths_call_no_jacobi(monkeypatch):
    # every eigenvalue and face comes from LAPACK: the Jacobi kernels stay
    # only as a test reference, so the pipeline must run with them broken
    from mdirand import linalg, sdp_solver
    from mdirand.sdp_solver import solve

    def boom(*args, **kwargs):
        raise AssertionError("a production path called a Jacobi kernel")

    for module in (linalg, sdp_solver):
        for attr in list(vars(module)):
            if attr.startswith(("jacobi", "_jacobi")):
                monkeypatch.setattr(module, attr, boom)
    for name in ("fig3-blue", "fig3-red", "fig6-4s-m2"):
        scen = cli.realize(cli.load_scenario_spec(name))
        assert mdi.guessing_probability(scen).ok
    scen = cli.realize(cli.load_scenario_spec("fig3-blue"))
    prob, _ = mdi.build_sdp(scen)
    EffectiveStrategy.from_solution(scen, solve(prob)).validate(scen)


@pytest.mark.parametrize("name", [
    "fig3-green", "fig3-red", "fig4", "fig5", "fig6-2s-m1", "fig6-2s-m2",
    "fig6-2s-m3", "fig6-4s-m1", "fig6-4s-m2", "fig7-proj",
])
def test_real_scenarios_get_exactly_real_faces(name):
    # these scenarios have real marginals N_x (up to lstsq rounding), so
    # each face must be exactly real, as a real-block SDP needs
    faces = mdi.face_bases(cli.realize(cli.load_scenario_spec(name)))
    assert all(np.all(v.imag == 0.0) for v in faces)


@pytest.mark.parametrize("name", cli.preset_names())
def test_full_rank_faces_are_exactly_identity(name):
    # a face that cuts no eigenvalue is V_x = I, not a rotation by the
    # eigenvectors of N_x, so the compressed blocks keep the raw data
    scen = cli.realize(cli.load_scenario_spec(name))
    for v in mdi.face_bases(scen):
        if v.shape[1] == scen.dim:
            assert np.array_equal(v, np.eye(scen.dim))


def _swap_symmetric_dead_corner():
    # a raw table on two copies of {|0>, |+>}, symmetric under the copy
    # swap, where outcome (1, 1) never occurs but (0, 1) and (1, 0) do:
    # the last block, (x, e) = ((1, 0), (1, 1)), is not the first of its
    # orbit, so the largest first block lies below the block count
    qubit = StateEnsemble([bloch_to_density(np.array(r, float)) for r in ([0, 0, 1], [1, 0, 0])],
                          np.full(2, 0.5))
    table = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.25, 0.25, 0.0], [0.5, 0.25, 0.25, 0.0],
             [0.25, 0.375, 0.375, 0.0]]
    return mdi.Scenario(double_ensemble(qubit), ObservedStatistics(table), generation_index=4)


SYMMETRIC_CASES = {
    "fig6-2s-m2": lambda: cli.realize(cli.load_scenario_spec("fig6-2s-m2")),
    "fig6-2s-m3": lambda: cli.realize(cli.load_scenario_spec("fig6-2s-m3")),
    "fig6-4s-m2": lambda: cli.realize(cli.load_scenario_spec("fig6-4s-m2")),
    "fig6-2s-m2-finite-q": lambda: _finite_q(cli.realize(cli.load_scenario_spec("fig6-2s-m2"))),
    "fig7-3o-doubled": lambda: doubled_preset("fig7-3o"),
    "fig7-proj-doubled": lambda: doubled_preset("fig7-proj"),
    "dead-corner": _swap_symmetric_dead_corner,
}


def _build_raw(scen, monkeypatch, opts=None):
    """build_sdp's problem, its report and the raw problem it preprocessed."""
    raws = []
    real = mdi.preprocess
    monkeypatch.setattr(mdi, "preprocess", lambda p: raws.append(p) or real(p))
    prob, rep = mdi.build_sdp(scen, opts)
    monkeypatch.setattr(mdi, "preprocess", real)
    return prob, rep, raws[0]


@pytest.mark.parametrize("name, relax", [
    *[pytest.param(n, 0.0, id=n) for n in sorted(SYMMETRIC_CASES)],
    *[pytest.param(n, 1e-3, id=f"{n}-band") for n in ("fig6-2s-m2", "fig6-2s-m2-finite-q")],
])
def test_reduced_problem_certifies_the_full_one(name, relax, monkeypatch):
    # the problem on one block per orbit of the copy permutations has the
    # full problem's optimum, and its dual y, expanded to the full problem's
    # raw rows as y_i = s_i y_R / |R|, is a dual point of the full problem
    # with the same value b.y; under a band too, whose slack pair of each
    # statistics-row orbit R stands for the pairs of R's rows
    from mdirand.sdp_solver import solve

    scen = SYMMETRIC_CASES[name]()
    opts = SolverOptions(relax=relax)
    faces = (mdi.face_bases(scen) if relax == 0.0
             else [np.eye(scen.dim, dtype=complex)] * scen.n_outcomes)
    sym, live, _ = mdi._block_orbits(scen, faces)
    assert sym.copies > 1
    prob, rep, raw = _build_raw(scen, monkeypatch, opts)
    sol = solve(prob)
    force_order_one_group(monkeypatch)
    full, _, raw_full = _build_raw(scen, monkeypatch, opts)
    full_sol = solve(full)
    assert prob.n_blocks < full.n_blocks
    assert sol.status == full_sol.status == OPTIMAL
    rate, full_rate = (-math.log2(s.certified_upper_bound) for s in (sol, full_sol))
    assert abs(rate - full_rate) <= 1e-7
    # y on the reduced problem's raw rows: y / scale on kept rows, 0 on dropped
    identity = stack_groups(raw, [np.eye(s) for s in raw.block_dims])
    scales = np.sqrt(np.diag(raw.schur_matrix(identity, identity))[rep.kept_rows])
    y_red = np.zeros(raw.n_constraints)
    y_red[rep.kept_rows] = sol.y / scales
    n_fam = scen.n_states if scen.mode == mdi.MODE_FINITE_Q else 1
    kept, red, wt = mdi._row_orbits(sym, n_fam, live, relax > 0.0)
    assert kept.size == raw.n_constraints
    y = np.where(red >= 0, wt * y_red[red], 0.0)
    slack = [a - c for a, c in zip(raw_full.adjoint(y), raw_full.objective_stacks)]
    assert all(lowest_eigenvalues(0.5 * (s + s.conj().transpose(0, 2, 1))).min() >= -1e-9
               for s in slack)
    assert abs(float(raw_full.b @ y) - sol.certified_upper_bound) <= 1e-9


ORBIT_CASES = {
    **{name: (make, 0.0) for name, make in SYMMETRIC_CASES.items()},
    "fig6-2s-m4": (lambda: cli.realize(dict(cli.load_scenario_spec("fig6-2s-m3"), copies=4)), 0.0),
    "fig6-4s-m4": (lambda: cli.realize(dict(cli.load_scenario_spec("fig6-4s-m2"), copies=4)), 0.0),
    "fig6-2s-m3-finite-q": (lambda: _finite_q(cli.realize(cli.load_scenario_spec("fig6-2s-m3"))),
                            0.0),
    "fig6-2s-m2-band": (lambda: cli.realize(cli.load_scenario_spec("fig6-2s-m2")), 1e-3),
}


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_orbits_by_canonical_form_match_the_image_tables(name):
    # the block and row orbits read off sorted per-copy digits equal, bit
    # for bit, those of the tables of every image under every copy
    # permutation (orbit_tables), in the preset's mode and in finite-q
    # (7681 raw rows for fig6-2s-m3) and under a band (its band rows
    # permuted with the statistics rows)
    make, relax = ORBIT_CASES[name]
    scen = make()
    n_fam = scen.n_states if scen.mode == mdi.MODE_FINITE_Q else 1
    faces = (mdi.face_bases(scen) if relax == 0.0
             else [np.eye(scen.dim, dtype=complex)] * scen.n_outcomes)
    sym, live, canon = mdi._block_orbits(scen, faces)
    assert sym.copies > 1
    assert np.array_equal(canon, orbit_tables.block_canon(sym, n_fam, live, scen.n_outcomes))
    for new, ref in zip(mdi._row_orbits(sym, n_fam, live, relax > 0.0),
                        orbit_tables.row_orbits(sym, n_fam, live, relax > 0.0)):
        assert new.dtype == ref.dtype and np.array_equal(new, ref)


def _random_orbit_solution(scen):
    """A solution of the scenario's exact problem whose blocks, one per
    block orbit, are random Hermitian matrices of their face's rank, which
    no stabilizer leaves unchanged."""
    faces = mdi.face_bases(scen)
    _, live, canon = mdi._block_orbits(scen, faces)
    rng = np.random.default_rng(0)
    blocks = []
    for k in np.flatnonzero(canon == np.arange(canon.size)):
        r = faces[live[k // scen.n_outcomes % len(live)]].shape[1]
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        blocks.append(g + g.conj().T)
    return sdp_core.SdpSolution(OPTIMAL, blocks, np.zeros(0), [], *[math.nan] * 7)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES))
def test_strategy_from_orbit_blocks_is_the_full_group_average(name):
    # from_solution spreads each orbit block over its orbit by transposing
    # the copies' digits along a coset chain; it equals the average over
    # every copy permutation, each moving the blocks by its index maps
    # (orbit_tables.twirl), on random Hermitian blocks that no stabilizer
    # leaves unchanged
    scen = SYMMETRIC_CASES[name]()
    sol = _random_orbit_solution(scen)
    ops = EffectiveStrategy.from_solution(scen, sol).operators
    assert np.max(np.abs(ops - orbit_tables.twirl(scen, sol.x_blocks))) <= 1e-15


@pytest.mark.parametrize("name, relax", [
    *[pytest.param(n, 0.0, id=n) for n in cli.preset_names()
      if cli.load_scenario_spec(n)["copies"] == 1],
    pytest.param("fig3-blue", 1e-3, id="fig3-blue-band"),
])
def test_order_one_group_maps_every_row_and_block_to_itself(name, relax, monkeypatch):
    # a scenario without copy symmetry, with or without a band, is solved
    # through the order-1 group: the identity on every raw row (the band
    # rows too, as _raw_rows numbers them) and on every block, each of
    # weight 1
    scen = cli.realize(cli.load_scenario_spec(name))
    n_fam = scen.n_states if scen.mode == mdi.MODE_FINITE_Q else 1
    faces = (mdi.face_bases(scen) if relax == 0.0
             else [np.eye(scen.dim, dtype=complex)] * scen.n_outcomes)
    sym, live, canon = mdi._block_orbits(scen, faces)
    assert sym.copies == 1
    assert np.array_equal(canon, np.arange(n_fam * len(live) * scen.n_outcomes))
    kept, red, wt = mdi._row_orbits(sym, n_fam, live, band=relax > 0.0)
    sizes = (n_fam, scen.n_states, scen.n_outcomes, len(live))
    m = sum(r.size for r in mdi._raw_rows(*sizes, scen.dim, relax > 0.0))
    assert mdi._row_starts(*sizes, scen.dim**2, relax > 0.0)[-1] == m
    assert np.array_equal(kept, np.arange(m)) and np.array_equal(red, np.arange(m))
    assert np.array_equal(wt, np.ones(m))
    _, rep, raw = _build_raw(scen, monkeypatch, SolverOptions(relax=relax))
    assert rep.n_raw == raw.n_constraints == m
    assert raw.n_blocks == canon.size + (2 * scen.n_states * len(live) if relax else 0)
    assert all(np.array_equal(w, np.ones(w.size)) for w in raw.group_weights)
    if relax == 0.0:
        assert mdi.symmetry_summary(scen) is None


def test_no_function_compares_the_copy_group_with_none():
    # every scenario goes through its copy group, the order-1 group
    # included; a group that may be None, and a test of it against None,
    # would split the build path in two again
    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def is_group(node):  # sym, _CopySymmetry, _copy_symmetry(...), x.sym
        name = getattr(node, "id", getattr(node, "attr", ""))
        return "sym" in name.lower() or isinstance(node, ast.Call) and is_group(node.func)

    pkg = Path(mdi.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                pair = [node.left, *node.comparators]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                pair = [node.left, node.right]  # an annotation _CopySymmetry | None
            else:
                continue
            if any(map(is_none, pair)) and any(map(is_group, pair)):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(pkg.glob("*.py"))) > 5
    assert found == []


@pytest.mark.parametrize("spoil", ["generation", "table", "state", "probs", "face", "face-rank"])
def test_broken_copy_symmetry_keeps_the_full_problem(spoil):
    # fig6-2s-m2 with a generation input that the copy swap moves, with one
    # table entry moved by 1e-9 (and its row mended), with state (0, 1)
    # mixed with 1e-9 of white noise or, in finite-q, with the input
    # probabilities of the swap partners (0, 1) and (1, 0) moved by +-1e-9,
    # has no symmetry: build_sdp keeps all 16 blocks (64, not 36, in
    # finite-q). At eta = 1 (face ranks 4, 2, 2, 1) the face of outcome
    # (0, 1), turned by 1e-9 towards |00> or cut to rank 1, breaks it too.
    # A move of 1e-14 is within tolerance
    base = cli.realize(cli.load_scenario_spec("fig6-2s-m2"), eta=1.0 if "face" in spoil else None)
    scen = _finite_q(base) if spoil == "probs" else base
    n_sym, n_full = (36, 64) if spoil == "probs" else (10, 16)
    assert mdi._copy_symmetry(scen, mdi.face_bases(scen)).copies == 2

    def spoiled(eps):
        """The spoiled scenario and its faces."""
        ens, table, faces = scen.ensemble, scen.observed.conditionals.copy(), None
        if spoil == "generation":  # state (0, 1): the swap maps it to (1, 0)
            return mdi.Scenario(ens, scen.observed, generation_index=2), None
        if spoil == "state":
            rho = (1.0 - eps) * ens.states[1].mat + eps / 4.0 * np.eye(4)
            ens = StateEnsemble((ens.states[0], DensityMatrix(rho), *ens.states[2:]), ens.probs)
        elif spoil == "probs":
            ens = ens.with_probs(ens.probs + np.array([0.0, eps, -eps, 0.0]))
        elif spoil == "table":
            table[1, 0] += eps
            table[1, 1] -= eps
        else:
            faces = mdi.face_bases(scen)
            turn = np.eye(4)
            turn[:2, :2] = [[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]]
            faces[1] = faces[1][:, :1] if spoil == "face-rank" else turn @ faces[1]
        return mdi.Scenario(ens, ObservedStatistics(table), mode=scen.mode), faces

    def group(eps):
        new, faces = spoiled(eps)
        return mdi._copy_symmetry(new, mdi.face_bases(new) if faces is None else faces).copies

    assert group(1e-9) == 1
    if spoil not in ("generation", "face-rank"):
        assert group(1e-14) == 2
    if "face" in spoil:  # the faces are no input of build_sdp
        return
    assert mdi.build_sdp(scen)[0].n_blocks == n_sym
    prob, _ = mdi.build_sdp(spoiled(1e-9)[0])
    assert prob.n_blocks == n_full
    assert mdi.guessing_probability(spoiled(1e-9)[0]).ok
    if spoil != "generation":
        assert mdi.build_sdp(spoiled(1e-14)[0])[0].n_blocks == n_sym


def test_four_copies_solve_on_their_orbits():
    # fig6-2s-m3 at four copies: S_4 leaves 35 of 256 blocks; the rate
    # matches the 0.5516150510 bits of the full problem (4321 kept rows)
    spec = dict(cli.load_scenario_spec("fig6-2s-m3"), copies=4)
    scen = cli.realize(spec)
    assert mdi.symmetry_summary(scen) == "S_4: 35 of 256 blocks"
    res = mdi.guessing_probability(scen)
    assert res.status == OPTIMAL
    assert abs(res.rate_bits - 0.5516150510) <= 1e-7


def test_four_state_four_copies_fit_the_default_cap():
    # fig6-4s-m2 at four copies: 8177 raw rows, 656 on the S_4 orbits,
    # within the default cap
    spec = dict(cli.load_scenario_spec("fig6-4s-m2"), copies=4)
    res = mdi.guessing_probability(cli.realize(spec), SolverOptions())
    assert res.status == OPTIMAL
    assert abs(res.rate_bits - 1.8077114351) <= 1e-7


def test_four_copy_strategies_hold_one_family():
    # the asymptotic SDP and the honest device each have one family, which
    # every input shares: at four copies of fig6-4s-m2 (256 inputs, d = 16)
    # neither is copied to the inputs, where 256 copies took 258 MiB
    # (from_solution) and 1073 MiB (honest_strategy, validate and
    # objective_value)
    spec = dict(cli.load_scenario_spec("fig6-4s-m2"), copies=4)
    scen, eta = cli.realize(spec), spec["device"]["eta"]
    sol = _random_orbit_solution(scen)
    tracemalloc.start()
    try:
        ops = EffectiveStrategy.from_solution(scen, sol).operators
        _, solved_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        honest = honest_strategy(scen, cli._build_povm(spec), eta)
        honest.validate(scen)
        value = honest.objective_value(scen)
        _, honest_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ops.shape == (1, 16, 16, 16, 16)
    assert honest.operators.shape == (1, 16, 16, 16, 16)
    assert abs(value - (eta / scen.n_outcomes + 1.0 - eta)) <= 1e-12
    assert solved_peak < 8 * 2**20
    assert honest_peak < 16 * 2**20


@pytest.mark.parametrize("make, solved, message", [
    pytest.param(lambda: cli.realize(cli.load_scenario_spec("fig6-2s-m2")), None,
                 r"solution has 30 blocks, exact problem 10$", id="fig6-2s-m2-band"),
    pytest.param(lambda: cli.realize(cli.load_scenario_spec("fig3-blue")), None,
                 r"solution has 48 blocks, exact problem 16; block 0 has size 2, its face "
                 r"rank 1$", id="fig3-blue-band"),
    pytest.param(_fig3_blue, lambda: _fig3_blue(eta=0.9),
                 r"solution has 16 blocks, exact problem 16; block 0 has size 2, its face "
                 r"rank 1$", id="fig3-blue-full-faces"),
])
def test_strategy_from_solution_refuses_another_problem(make, solved, message):
    # from_solution pairs the exact problem's orbit representatives with
    # the solution's blocks: a --relax band (identity faces, two slack
    # blocks per statistics-row orbit) or a scenario with
    # other faces solves another problem, whose blocks it refuses before
    # expanding any; a band solution of fig6-2s-m2 was read as a strategy
    # of value 0.188 against the SDP's 0.770
    from mdirand.sdp_solver import solve

    scen = make()
    opts = SolverOptions(relax=1e-3 if solved is None else 0.0)
    prob, _ = mdi.build_sdp(scen if solved is None else solved(), opts)
    with pytest.raises(ValueError, match=message):
        EffectiveStrategy.from_solution(scen, solve(prob, opts))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_strategy_validate_rejects_non_finite_operators(bad):
    # an all-nan strategy passed every check before: each comparison of a
    # nan deviation against STRATEGY_TOL is False
    scen = _fig3_red(eta=0.9)
    shape = (scen.n_states, scen.n_outcomes, scen.n_outcomes, scen.dim, scen.dim)
    with pytest.raises(ValueError, match=r"operator is not finite at \(a=0, x=0, e=0\)"):
        EffectiveStrategy(np.full(shape, bad, dtype=complex)).validate(scen)
    ops = np.repeat(honest_strategy(scen, sigma_z_povm(), eta=0.9).operators,
                    scen.n_states, axis=0)
    ops[1, 0, 1, 1, 0] = bad
    with pytest.raises(ValueError, match=r"operator is not finite at \(a=1, x=0, e=1\)"):
        EffectiveStrategy(ops).validate(scen)


# --- the kept constraint maps --------------------------------------------

def _digest(x, h=None):
    """sha256 over every array and value of a problem, its row map and its
    arrow plan, with dtypes and shapes."""
    h = h or hashlib.sha256()
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            _digest(getattr(x, f.name), h)
    elif isinstance(x, (list, tuple)):
        h.update(f"[{len(x)}".encode())
        for v in x:
            _digest(v, h)
    else:
        h.update(repr(x).encode())
    return h.hexdigest()


def _leaves(x):
    """Every array and bytes object in x, through every list, tuple and
    dataclass field, as _digest walks it."""
    if isinstance(x, (np.ndarray, bytes)):
        return [x]
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    return [a for v in x for a in _leaves(v)] if isinstance(x, (list, tuple)) else []


def _held_bytes(entry):
    """The bytes of every array and bytes object in a kept map's key, row
    orbits and problem."""
    return sum(a.nbytes if isinstance(a, np.ndarray) else len(a) for a in _leaves(entry))


def _cold(scen, opts=None):
    """build_sdp of scen with no kept maps: its problem's digest and its report."""
    mdi._maps.clear()
    prob, rep = mdi.build_sdp(scen, opts)
    return _digest(prob), repr(rep)


def _count_preprocess(monkeypatch):
    calls = []
    real = mdi.preprocess
    monkeypatch.setattr(mdi, "preprocess", lambda p: calls.append(p) or real(p))
    return calls


def test_eta_grid_built_warm_equals_each_point_built_cold(monkeypatch):
    # the statistics enter only b: the 20 points eta < 1 of the fig3-blue
    # grid share one map, and eta = 1, whose faces are of lower rank, has
    # its own; each warm build is bit for bit the cold one
    grid = [_fig3_blue(eta=float(e)) for e in np.linspace(0.8, 1.0, 21)]
    calls = _count_preprocess(monkeypatch)
    warm = []
    for scen in grid:
        prob, rep = mdi.build_sdp(scen)
        warm.append((_digest(prob), repr(rep)))
    assert len(calls) == 2
    assert warm == [_cold(scen) for scen in grid]
    assert len(calls) == 23


def test_rebuilt_identical_scenario_factors_nothing(monkeypatch):
    scen = _fig3_blue(eta=0.9)
    mdi.build_sdp(scen)
    factors = []
    real = sdp_core.ArrowPlan.factor
    monkeypatch.setattr(sdp_core.ArrowPlan, "factor",
                        lambda self, s: factors.append(s) or real(self, s))
    prob, _ = mdi.build_sdp(scen)
    assert factors == []
    # the kept map is read-only: the problem it lends out shares its stacks
    assert not prob.group_stacks[0].flags.writeable
    with pytest.raises(ValueError):
        prob.group_stacks[0][0] = 0.0


def test_reused_map_checks_every_dropped_row(monkeypatch):
    # |0>, |1>, |+>, |->: rho_0 + rho_1 = rho_+ + rho_-, so one statistics
    # row per outcome is dropped, and a table must satisfy
    # P(x|0) + P(x|1) = P(x|+) + P(x|-); no zero entry, so both tables
    # below have full faces and share one map
    ens = StateEnsemble(tuple(bloch_to_density(v) for v in
                              ([0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0])),
                       np.full(4, 0.25))
    good = mdi.honest_scenario(ens, sigma_z_povm(), eta=0.9)
    bad = mdi.Scenario(ens, ObservedStatistics(np.array([[0.9, 0.1], [0.9, 0.1],
                                                         [0.5, 0.5], [0.5, 0.5]])))
    mdi.build_sdp(good)
    calls = _count_preprocess(monkeypatch)
    with pytest.raises(InfeasibleProblemError, match="contradicts the rows it depends on"):
        mdi.build_sdp(bad)
    assert calls == []
    # and so does a cold build
    mdi._maps.clear()
    with pytest.raises(InfeasibleProblemError, match="contradicts the rows it depends on"):
        mdi.build_sdp(bad)
    assert len(calls) == 1


def _fig5(q):
    return cli.realize(cli.load_scenario_spec("fig5"), q=q)


@pytest.mark.parametrize("before, after, opts_before, opts_after", [
    pytest.param(lambda: _fig3_blue(eta=0.9), lambda: _fig3_blue(eta=1.0), None, None,
                 id="faces"),
    pytest.param(lambda: _fig5(0.3), lambda: _fig5(0.5), None, None, id="input-weights"),
    pytest.param(lambda: _fig3_blue(eta=0.9),
                 lambda: mdi.Scenario(*(lambda s: (s.ensemble, s.observed))(_fig3_blue(eta=0.9)),
                                      generation_index=2), None, None, id="generation-index"),
    pytest.param(lambda: _fig3_blue(eta=0.9), lambda: _fig3_blue(eta=0.9), None,
                 SolverOptions(relax=1e-3), id="relax"),
])
def test_a_changed_input_rebuilds_the_map(before, after, opts_before, opts_after, monkeypatch):
    mdi.build_sdp(before(), opts_before)
    calls = _count_preprocess(monkeypatch)
    prob, rep = mdi.build_sdp(after(), opts_after)
    assert len(calls) == 1
    assert (_digest(prob), repr(rep)) == _cold(after(), opts_after)


def test_band_width_is_no_input_of_the_map(monkeypatch):
    # a band's faces are the identity and its slack blocks carry 1/|R|:
    # the width enters only b, so two widths share one map
    scen = _fig3_blue(eta=0.9)
    mdi.build_sdp(scen, SolverOptions(relax=1e-3))
    calls = _count_preprocess(monkeypatch)
    prob, rep = mdi.build_sdp(scen, SolverOptions(relax=2e-3))
    assert calls == []
    assert (_digest(prob), repr(rep)) == _cold(scen, SolverOptions(relax=2e-3))


def _fig7_3o():
    return cli.realize(cli.load_scenario_spec("fig7-3o"))


@pytest.mark.parametrize("make_a, make_b", [
    pytest.param(lambda: _fig3_blue(eta=0.9), lambda: _fig3_blue(eta=1.0), id="faces"),
    pytest.param(_fig7_3o, lambda: doubled_preset("fig7-3o"), id="two-copy"),
])
def test_interleaved_maps_are_each_built_once(make_a, make_b, monkeypatch):
    # A B A B: both maps stay, so the second A and the second B build nothing
    scens = [make_a(), make_b()] * 2
    calls = _count_preprocess(monkeypatch)
    warm = [(_digest(prob), repr(rep)) for prob, rep in map(mdi.build_sdp, scens)]
    assert len(calls) == 2
    assert warm == [_cold(scen) for scen in scens]


def test_two_copy_study_builds_each_map_once(monkeypatch):
    # the loop of acceptance test 6: the doubled and the single maps no
    # longer evict each other, so its 20 builds need the 8 distinct maps
    # (eta < 1 shares one single and one doubled map per device)
    calls = _count_preprocess(monkeypatch)
    for povm in (povm_from_bloch(extremal3()), sigma_z_povm()):
        for eta in (0.80, 0.85, 0.90, 0.95, 1.00):
            mdi.two_copy_detail(mdi.honest_scenario(tomographic_set(), povm, eta=eta))
    assert len(calls) == 8
    assert len(mdi._maps) == 8


def _map_sequence():
    """Scenarios of 8 distinct maps, some revisited, one twice in a row."""
    grid = [_fig3_blue(eta=0.9), _fig3_blue(eta=1.0), _fig3_red(eta=0.9), _fig3_red(eta=1.0),
            _finite_q(_fig3_blue(eta=0.9)), _fig5(0.3), _fig5(0.5), _fig7_3o()]
    return [grid[i] for i in (0, 1, 2, 0, 3, 4, 4, 1, 5, 6, 7, 2, 0)]


def test_zero_budget_keeps_only_the_newest_map(monkeypatch):
    # as with one kept map: a different map is built on an empty store
    monkeypatch.setattr(mdi, "MAP_BUDGET", 0)
    held = []
    real = mdi.preprocess
    monkeypatch.setattr(mdi, "preprocess", lambda p: held.append(len(mdi._maps)) or real(p))
    last = None
    for scen in _map_sequence():
        n = len(held)
        mdi.build_sdp(scen)
        (key,) = mdi._maps
        assert len(held) - n == (key != last)
        last = key
    assert len(held) == 12 and set(held) == {0}


@pytest.mark.parametrize("budget", [None, 20_000])
def test_maps_behind_the_newest_stay_within_the_budget(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(mdi, "MAP_BUDGET", budget)
    used = []  # keys, most recently used last
    for scen in _map_sequence():
        mdi.build_sdp(scen)
        key = list(mdi._maps)[-1]
        used = [k for k in used if k != key] + [key]
        maps = list(mdi._maps.values())
        assert sum(n for _, _, n in maps[:-1]) <= mdi.MAP_BUDGET
        # the recorded bytes are those of the key the store holds, counted once
        assert all(n == _held_bytes((k, orbits, prob))
                   for k, (orbits, prob, n) in mdi._maps.items())
        # the store holds the most recently used maps, in the order of use
        assert list(mdi._maps) == used[-len(maps):]
    assert (len(maps) == 8) is (budget is None)


def test_every_array_of_a_kept_map_is_read_only_and_counted():
    # maps of the order-1 group and of S_2, full and cut faces, finite-q
    # and a band: whatever array the key, the orbits, the problem, its
    # arrow plan or its row map holds is read-only and in the recorded bytes
    for scen, opts in [(s, None) for s in _map_sequence()[:10]] + [
            (doubled_preset("fig7-3o"), None), (_fig3_blue(eta=0.9), SolverOptions(relax=1e-3))]:
        mdi.build_sdp(scen, opts)
    assert len(mdi._maps) == 9
    for key, (orbits, prob, n) in mdi._maps.items():
        leaves = _leaves((key, orbits, prob))
        arrays = [a for a in leaves if isinstance(a, np.ndarray)]
        assert len(arrays) > len(_leaves(prob.row_map)) > 0
        assert not any(a.flags.writeable for a in arrays)
        assert n == _held_bytes((key, orbits, prob))


# the distinct constraint maps of the 12 presets in their own modes:
# fig7-proj is fig6-4s-m1 with another name, so they share one
PRESET_MAPS = 11


def test_every_preset_built_again_takes_its_kept_map(monkeypatch):
    # A B A C B D ...: the second build of each preset follows the first
    # build of the next one, and takes its own kept map, bit for bit
    scens = [cli.realize(cli.load_scenario_spec(name)) for name in cli.preset_names()]
    cold = [_cold(scen) for scen in scens]
    mdi._maps.clear()
    order = [0, *(i for pair in zip(range(1, len(scens)), range(len(scens))) for i in pair),
             len(scens) - 1]
    calls = _count_preprocess(monkeypatch)
    for i in order:
        prob, rep = mdi.build_sdp(scens[i])
        assert (_digest(prob), repr(rep)) == cold[i]
    assert len(calls) == PRESET_MAPS


def test_unproven_infeasibility_is_named(monkeypatch):
    # a solver exit on a diverging primal residual, with only positive
    # certified bounds logged, proves nothing: the note says so
    real = mdi.solve

    def diverged(p, opts=None):
        return dataclasses.replace(real(p, opts), status=INFEASIBLE,
                                   certified_upper_bound=math.nan)

    monkeypatch.setattr(mdi, "solve", diverged)
    res = mdi.guessing_probability(_fig3_blue(eta=0.9))
    assert res.status == INFEASIBLE and math.isnan(res.rate_bits)
    assert math.isnan(res.p_guess_upper)
    assert res.notes == ["primal residual diverged; infeasibility is not proven"]
