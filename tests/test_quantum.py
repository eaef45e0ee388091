import math
import re
import tracemalloc

import numpy as np
import pytest

from mdirand import quantum as q


def test_bloch_to_density_pure_states():
    plus = q.bloch_to_density([1.0, 0.0, 0.0])
    assert np.allclose(plus.mat, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)
    zero = q.bloch_to_density([0.0, 0.0, 1.0])
    assert np.allclose(zero.mat, np.diag([1.0, 0.0]), atol=1e-12)


def test_bloch_to_density_rejects_long_vector():
    with pytest.raises(ValueError):
        q.bloch_to_density([1.2, 0.0, 0.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        q.DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        q.DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_tomographic_set_bloch_vectors():
    ens = q.tomographic_set()
    assert ens.n_states == 4
    assert np.allclose(ens.probs, 0.25)
    # order: |+>, |0>, |1>, |+i>
    assert np.allclose(ens.states[0].mat, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert np.allclose(ens.states[1].mat, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(ens.states[2].mat, np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(
        ens.states[3].mat, 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]]), atol=1e-12
    )


def test_extremal4_constants():
    spec = q.extremal4()
    assert np.allclose(spec.weights, [1 / 8, 7 / 24, 7 / 24, 7 / 24], atol=1e-15)
    assert np.allclose(np.linalg.norm(spec.directions, axis=1), 1.0, atol=1e-12)
    assert np.allclose(spec.weights @ spec.directions, 0.0, atol=1e-12)
    assert q.check_unbiased(spec)
    assert q.extremal_diagnosis(spec) is None


def test_extremal3_constants():
    spec = q.extremal3()
    assert np.allclose(spec.weights, 1 / 3, atol=1e-15)
    assert np.allclose(np.linalg.norm(spec.directions, axis=1), 1.0, atol=1e-12)
    assert np.allclose(spec.weights @ spec.directions, 0.0, atol=1e-12)
    assert q.check_unbiased(spec)
    assert q.extremal_diagnosis(spec) is None


def test_extremal4_outcome_probabilities_on_zero_state():
    # oracle: Bloch arithmetic w_k (1 + m_k . e3) with the frozen constants
    # gives (1/8, 7/24, (7/24)(13/7), (7/24)(1/7)) = (3, 7, 13, 1)/24
    povm = q.povm_from_bloch(q.extremal4())
    stats = q.honest_statistics(
        q.StateEnsemble((q.bloch_to_density([0, 0, 1.0]),), np.array([1.0])), povm
    )
    assert np.allclose(stats.conditionals[0], [3 / 24, 7 / 24, 13 / 24, 1 / 24], atol=1e-12)


def test_povm_from_bloch_completeness_enforced():
    with pytest.raises(ValueError):
        q.BlochPovmSpec(np.array([0.5, 0.5]), np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    with pytest.raises(ValueError):
        q.BlochPovmSpec(np.array([0.6, 0.5]), np.array([[1.0, 0, 0], [-1.0, 0, 0]]))


def test_povm_validation_rejects_incomplete_elements():
    with pytest.raises(ValueError):
        q.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))


def test_check_unbiased_fails_for_biased_directions():
    spec = q.BlochPovmSpec(
        np.array([0.5, 0.5]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    )
    assert q.check_unbiased(spec)  # orthogonal to e1: both outcomes 1/2
    biased = q.BlochPovmSpec(
        np.array([0.5, 0.5]), np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    )
    assert not q.check_unbiased(biased)


def test_check_extremal_rejects_coplanar_and_shrunk():
    # four unit directions in the e1-e2 plane: valid POVM, not extremal
    dirs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    )
    spec = q.BlochPovmSpec(np.full(4, 0.25), dirs)
    assert q.extremal_diagnosis(spec) == "directions are coplanar"
    shrunk = q.BlochPovmSpec(np.array([0.5, 0.5]), np.array([[0, 0, 0.9], [0, 0, -0.9]]))
    assert "rank one" in q.extremal_diagnosis(shrunk)


def test_angle_states_overlap():
    for alpha in (0.0, 0.3, 0.5, 1.0):
        ens = q.angle_states(alpha)
        # oracle: |<phi|psi>|^2 = (1 - alpha)^2 via tr(rho_phi rho_psi)
        ov = np.trace(ens.states[0].mat @ ens.states[1].mat).real
        assert ov == pytest.approx((1.0 - alpha) ** 2, abs=1e-12)
    assert np.allclose(
        q.angle_states(1.0).states[0].mat, 0.5 * np.ones((2, 2)), atol=1e-12
    )
    with pytest.raises(ValueError):
        q.angle_states(1.5)


def test_honest_statistics_sigma_z_on_tomographic_set():
    stats = q.honest_statistics(q.tomographic_set(), q.sigma_z_povm())
    want = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert np.allclose(stats.conditionals, want, atol=1e-12)


@pytest.mark.parametrize("copies", [1, 2])
def test_honest_statistics_matches_the_per_entry_born_rule(copies):
    # the batched table equals tr(rho_a M_x) taken one entry at a time, bit
    # for bit: the arithmetic is the same products and the same trace
    ens = q.tensor_ensemble(q.tomographic_set(), copies)
    povm = q.tensor_povm(q.povm_from_bloch(q.extremal4()), copies)
    want = np.array([[np.trace(s.mat @ m).real for m in povm.elements] for s in ens.states])
    raw = q.ObservedStatistics(want).conditionals
    assert np.array_equal(q.honest_statistics(ens, povm).conditionals, raw)


def test_honest_statistics_holds_no_per_entry_product():
    # four copies of the tomographic source with extremal4: 256 states and
    # 256 outcomes of dimension 16, whose (states, outcomes, d, d) product
    # would be 256 MiB; the table is taken one state at a time
    ens = q.tensor_ensemble(q.tomographic_set(), 4)
    povm = q.tensor_povm(q.povm_from_bloch(q.extremal4()), 4)
    tracemalloc.start()
    try:
        q.honest_statistics(ens, povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_require_distribution_is_the_rule_of_every_probability_check():
    q.require_distribution([0.5, 0.5 + 5e-11], "p")
    q.require_distribution([[1.0 + 1e-10, -1e-10], [0.25, 0.75]], "rows")
    for bad, msg in (([0.5, 0.5000000005], "p must sum to 1 (got 1.0000000005)"),
                     ([1.0 + 2e-10, -2e-10], "p must be non-negative"),
                     ([0.5, float("nan")], "p must be non-negative"),
                     ([[0.5, 0.5], [0.5, 0.7]], "p must sum to 1 (got 1.2)")):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            q.require_distribution(bad, "p")
    zero, one = q.bloch_to_density([0.0, 0.0, 1.0]), q.bloch_to_density([0.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="^input probabilities must sum to 1"):
        q.StateEnsemble((zero, one), np.array([0.5, 0.5000000005]))
    with pytest.raises(ValueError, match="^conditional rows must sum to 1"):
        q.ObservedStatistics(np.array([[1.0, 0.0], [0.5, 0.5000000005]]))


def test_povm_names_its_first_negative_element():
    with pytest.raises(ValueError, match="^POVM element 1 has a negative eigenvalue$"):
        q.Povm((np.diag([1.0, 1.5]), np.diag([0.0, -0.5])))


def test_mix_white_noise_limits():
    stats = q.honest_statistics(q.tomographic_set(), q.sigma_z_povm())
    flat = q.mix_white_noise(stats, 0.0)
    assert np.allclose(flat.conditionals, 0.5, atol=1e-12)
    same = q.mix_white_noise(stats, 1.0)
    assert np.allclose(same.conditionals, stats.conditionals, atol=1e-12)
    mid = q.mix_white_noise(stats, 0.7)
    assert np.allclose(np.sum(mid.conditionals, axis=1), 1.0, atol=1e-12)
    assert mid.conditionals[1, 0] == pytest.approx(0.7 + 0.15, abs=1e-12)
    with pytest.raises(ValueError):
        q.mix_white_noise(stats, 1.1)


def test_observed_statistics_clipping_and_errors():
    ok = q.ObservedStatistics(np.array([[1.0 + 5e-13, -5e-13]]))
    assert ok.conditionals[0, 1] == 0.0
    assert np.sum(ok.conditionals[0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        q.ObservedStatistics(np.array([[1.001, -0.001]]))
    with pytest.raises(ValueError):
        q.ObservedStatistics(np.array([[0.7, 0.2]]))


def test_tensor_ensemble_ordering_and_cap():
    base = q.tomographic_set()
    two = q.tensor_ensemble(base, 2)
    assert two.n_states == 16
    assert two.dim == 4
    # row-major: joint index 1 pairs state 0 with state 1
    assert np.allclose(
        two.states[1].mat, np.kron(base.states[0].mat, base.states[1].mat), atol=1e-12
    )
    assert np.allclose(two.probs, 1 / 16)
    with pytest.raises(ValueError):
        q.tensor_ensemble(base, 6)  # 2**6 = 64 > 32


def test_copies_guard_reads_the_largest_exponent():
    # the cap is met at 2^5 and 3^3 and refused one copy later, with the
    # power named as written, never formed
    q._check_copies(2, 5)
    q._check_copies(3, 3)
    for dim, copies in [(2, 6), (3, 4), (33, 1), (3, 10_000_000)]:
        with pytest.raises(ValueError, match=rf"^tensor product dimension {dim}\^{copies} "
                                             r"exceeds 32$"):
            q._check_copies(dim, copies)
    # a 1-dimensional factor passes every dimension test; its copies would
    # only multiply the states
    q._check_copies(1, 1)
    with pytest.raises(ValueError, match=r"^copies 2 of dimension 1: "):
        q._check_copies(1, 2)


def test_tensor_povm_matches_kron():
    z2 = q.tensor_povm(q.sigma_z_povm(), 2)
    assert z2.n_outcomes == 4
    assert np.allclose(z2.elements[2], np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])), atol=1e-12)
    total = sum(z2.elements)
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_double_statistics_marginals():
    stats = q.mix_white_noise(
        q.honest_statistics(q.tomographic_set(), q.sigma_z_povm()), 0.85
    )
    dbl = q.double_statistics(stats)
    assert dbl.conditionals.shape == (16, 4)
    n_s, n_o = stats.n_states, stats.n_outcomes
    joint = dbl.conditionals.reshape(n_s, n_s, n_o, n_o)
    # oracle: summing the second outcome recovers the single-copy table
    for a1 in range(n_s):
        for a2 in range(n_s):
            assert np.allclose(
                joint[a1, a2].sum(axis=1), stats.conditionals[a1], atol=1e-12
            )
            assert np.allclose(
                joint[a1, a2].sum(axis=0), stats.conditionals[a2], atol=1e-12
            )


def test_double_ensemble_matches_kron_of_states():
    base = q.angle_states(0.4)
    dbl = q.double_ensemble(base)
    assert dbl.n_states == 4
    assert np.allclose(
        dbl.states[2].mat, np.kron(base.states[1].mat, base.states[0].mat), atol=1e-12
    )


def test_unbiasedness_identity_for_extremal_specs():
    # w_k (1 + m_k . e1) = 1/n for every element of both shipped POVMs
    for spec, n in ((q.extremal4(), 4), (q.extremal3(), 3)):
        probs = spec.weights * (1.0 + spec.directions[:, 0])
        assert np.allclose(probs, 1.0 / n, atol=1e-12)
        # cross-check through matrices on the |+> state
        povm = q.povm_from_bloch(spec)
        plus = q.bloch_to_density([1.0, 0.0, 0.0])
        for e in povm.elements:
            assert np.trace(plus.mat @ e).real == pytest.approx(1.0 / n, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_states_and_povms_reject_non_finite_entries(bad):
    # nan fails no tolerance comparison: the trace, norm, completeness and
    # eigenvalue checks all passed such inputs before linalg's Hermitian
    # rule tested finiteness
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[1, 1] = bad
    with pytest.raises(ValueError, match=r"matrix entry \(1, 1\) is .*not finite"):
        q.DensityMatrix(rho)
    with pytest.raises(ValueError, match=r"Bloch vector component 0 is .*not finite"):
        q.bloch_to_density([bad, 0.0, 0.0])
    elems = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    elems[1] = elems[1].astype(complex)
    elems[1][0, 1] = elems[1][1, 0] = bad
    with pytest.raises(ValueError, match=r"matrix entry \(1, 0, 1\) is .*not finite"):
        q.Povm(tuple(elems))
