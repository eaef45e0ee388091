import math

import numpy as np
import pytest

from mdirand import cli, mdi
from mdirand.linalg import row_space_basis
from mdirand.quantum import (
    ObservedStatistics,
    StateEnsemble,
    bloch_to_density,
    double_ensemble,
    double_statistics,
    extremal4,
    honest_statistics,
    povm_from_bloch,
    sigma_x_povm,
    sigma_z_povm,
    tomographic_set,
)
from mdirand.sdp_core import INFEASIBLE, InfeasibleProblemError
from mdirand.sdp_solver import SolverOptions


def _fig3_blue(eta=1.0, mode=mdi.MODE_ASYMPTOTIC):
    return mdi.honest_scenario(
        tomographic_set(), povm_from_bloch(extremal4()), eta=eta, mode=mode
    )


def _fig3_red(eta=1.0):
    return mdi.honest_scenario(tomographic_set(), sigma_z_povm(), eta=eta)


def _finite_q(scen):
    return mdi.Scenario(scen.ensemble, scen.observed, mode=mdi.MODE_FINITE_Q)


def test_raw_row_count_formula():
    # asymptotic, one family: d^2 + n_o*(d^2-1) + n_s*n_o by hand:
    # sigma_z: 4 + 6 + 8 = 18; extremal4: 4 + 12 + 16 = 32
    _, rep = mdi.build_sdp(_fig3_red(eta=0.9))
    assert rep.n_raw == 18
    assert len(rep.kept_rows) + len(rep.dropped_rows) == 18
    _, rep4 = mdi.build_sdp(_fig3_blue(eta=0.9))
    assert rep4.n_raw == 32
    # finite-q keeps one family per input:
    # n_s*d^2 + n_s*n_o*(d^2-1) + (n_s-1)*n_o*d^2 + n_s*n_o by hand:
    # sigma_z: 16 + 24 + 24 + 8 = 72; extremal4: 16 + 48 + 48 + 16 = 128
    _, rep_q = mdi.build_sdp(_finite_q(_fig3_red(eta=0.9)))
    assert rep_q.n_raw == 72
    _, rep4_q = mdi.build_sdp(_finite_q(_fig3_blue(eta=0.9)))
    assert rep4_q.n_raw == 128


def test_single_state_family_iii_empty_and_rate_zero():
    # one input state: 4 + 6 + 0 + 2 = 12 raw rows, and nothing constrains
    # the guess, so the guessing probability is 1
    ens = StateEnsemble((bloch_to_density([0.0, 0.0, 1.0]),), np.array([1.0]))
    scen = mdi.honest_scenario(ens, sigma_z_povm(), eta=1.0)
    _, rep = mdi.build_sdp(scen)
    assert rep.n_raw == 12
    res = mdi.guessing_probability(scen)
    assert res.ok
    assert abs(res.p_guess_upper - 1.0) < 1e-6
    assert res.rate_bits == 0.0


def test_classical_min_entropy_deterministic_is_zero():
    stats = ObservedStatistics(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
    assert mdi.classical_min_entropy(stats) == 0.0


def test_classical_min_entropy_uniform_four_outcomes():
    stats = ObservedStatistics(np.full((3, 4), 0.25), np.array([0.2, 0.5, 0.3]))
    assert abs(mdi.classical_min_entropy(stats) - 2.0) < 1e-12


def test_classical_min_entropy_weighted_sigma_z_example():
    # hand evaluation: per-input max outcome probs are (1/2, 1, 1, 1/2), so
    # sum p_a max_x = 1/2*1/2 + 1/6 + 1/6 + 1/6*1/2 = 2/3
    ens = tomographic_set().with_probs(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))
    stats = honest_statistics(ens, sigma_z_povm())
    val = mdi.classical_min_entropy(stats)
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
    with pytest.raises(ValueError):
        mdi.Scenario(ens.with_probs(np.array([0.4, 0.2, 0.2, 0.2])), stats)


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


def test_face_bases_zero_probability_outcome_dropped():
    # pad sigma_z statistics with a third outcome that never fires; the
    # padded scenario must reproduce the unpadded rate
    base = _fig3_red(eta=0.9)
    padded = np.hstack([base.observed.conditionals, np.zeros((4, 1))])
    scen3 = mdi.Scenario(
        base.ensemble,
        ObservedStatistics(padded, base.ensemble.probs),
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
    scen = mdi.Scenario(ens, ObservedStatistics(padded, ens.probs))
    faces = mdi.face_bases(scen)
    assert faces[0].shape == (2, 2)
    assert faces[2].shape == (2, 0)


def test_impossible_statistics_raise_or_flag():
    # table forces an outcome marginal with a negative eigenvalue
    bad = mdi.Scenario(
        tomographic_set(),
        ObservedStatistics(
            np.array([[1, 0], [0, 1], [1, 0], [0.5, 0.5]], dtype=float),
            np.full(4, 0.25),
        ),
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
    strat = mdi.honest_strategy(scen, povm, eta=0.9)
    strat.validate(scen)
    obj = strat.objective_value(scen)
    assert abs(obj - (0.9 / 4 + 0.1)) < 1e-12
    res = mdi.guessing_probability(scen)
    assert obj <= res.p_guess_upper + 1e-7


def test_effective_strategy_round_trip():
    # validate() checks every input's statistics and input independence,
    # so the asymptotic single family copied to every input is feasible
    # for the per-input problem
    from mdirand.sdp_solver import solve

    for scen in (_fig3_red(eta=0.9), _finite_q(_fig3_blue(eta=0.9))):
        prob, _ = mdi.build_sdp(scen)
        sol = solve(prob)
        strat = mdi.EffectiveStrategy.from_solution(scen, sol)
        strat.validate(scen)
        assert abs(strat.objective_value(scen) - sol.primal_objective) < 1e-9


def test_strategy_validate_rejects_bad_shapes_and_violations():
    scen = _fig3_red(eta=0.9)
    with pytest.raises(ValueError):
        mdi.EffectiveStrategy(np.zeros((4, 2, 2, 2)))
    wrong = mdi.honest_strategy(scen, sigma_z_povm(), eta=0.5)  # stats mismatch
    with pytest.raises(ValueError):
        wrong.validate(scen)


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
    assert mdi.two_copy_delta(scen) == detail.delta_bits
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


def test_relaxation_band_widens_feasible_set():
    scen = _fig3_blue(eta=0.95)
    exact = mdi.guessing_probability(scen)
    relaxed = mdi.guessing_probability(scen, SolverOptions(relax=1e-3))
    assert relaxed.ok
    assert relaxed.p_guess_upper >= exact.p_guess_upper - 1e-9
    prob_exact, rep_exact = mdi.build_sdp(scen)
    prob_rel, rep_rel = mdi.build_sdp(scen, relax=1e-3)
    # one extra row and two 1x1 slack blocks per statistics constraint
    assert rep_rel.n_raw == rep_exact.n_raw + 16
    assert prob_rel.n_blocks == prob_exact.n_blocks + 2 * 16


# rate_bits of the per-input asymptotic formulation (one family per input,
# tied by family iii), as stored in perfbench/reference.json; fig6-2s-m3,
# which is not benchmarked, was solved with that formulation under
# MDIRAND_MAX_CONSTRAINTS=10000 (7232 kept rows, 51 iterations). The
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
    strat = mdi.EffectiveStrategy.from_solution(scen, sol)
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
    mdi.EffectiveStrategy.from_solution(scen, solve(prob)).validate(scen)


@pytest.mark.parametrize("name", [
    "fig3-green", "fig3-red", "fig4", "fig5", "fig6-2s-m1", "fig6-2s-m2",
    "fig6-2s-m3", "fig6-4s-m1", "fig6-4s-m2", "fig7-proj",
])
def test_real_scenarios_get_exactly_real_faces(name):
    # these scenarios have real marginals N_x (up to lstsq rounding), so
    # each face must be exactly real, as a real-block SDP needs
    faces = mdi.face_bases(cli.realize(cli.load_scenario_spec(name)))
    assert all(np.all(v.imag == 0.0) for v in faces)
