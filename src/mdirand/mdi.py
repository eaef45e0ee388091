"""Randomness certification for trusted-source, untrusted-detector setups.

The adversarial detector is modelled by one effective measurement operator
per (outcome x, guess e, input a) triple. Feasible strategies reproduce the
observed statistics, are input-independent after summing over guesses, and
collapse to a multiple of the identity after summing over outcomes. The
maximal probability that the guess matches the outcome on the generation
state is an SDP; its certified optimum converts to a min-entropy rate
-log2(p_guess).

Two accounting modes:

* ``finite-q``: every round both generates and tests; the objective weights
  each input by its probability p_a and the classical side information cost
  is the Shannon entropy of p_a. The SDP keeps one operator family per
  input, tied together by the input-independence constraints.
* ``asymptotic``: vanishing test fraction; statistics constrain the device
  for every input but the objective only sees the generation state, and the
  input cost is zero in the limit. The SDP has a single family M_{x,e}
  that must reproduce every input's statistics. This is exact: input
  independence makes every input's outcome marginal the same operator, so
  the generation input's family of any feasible per-input strategy meets
  all statistics with the same objective, and one family shared by every
  input is a feasible per-input strategy.

Every scenario is solved on one block per orbit of its copy group (see
build_sdp): S_m for a product scenario of m copies that the copy
permutations leave unchanged, else the order-1 group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import sdp_solver
from .linalg import eigh_hermitian, row_space_basis
from .quantum import (
    ObservedStatistics,
    Povm,
    StateEnsemble,
    double_ensemble,
    double_statistics,
    honest_statistics,
    mix_white_noise,
    sigma_x_povm,
    angle_states,
)
from .sdp_core import (
    INFEASIBLE,
    NEAR_OPTIMAL,
    OPTIMAL,
    InfeasibleProblemError,
    PreprocessReport,
    SdpProblem,
    apply_rhs,
    preprocess,
)
from .sdp_solver import SolverOptions, solve

__all__ = [
    "MODE_ASYMPTOTIC",
    "MODE_FINITE_Q",
    "Scenario",
    "RateResult",
    "TwoCopyResult",
    "honest_scenario",
    "face_bases",
    "build_sdp",
    "symmetry_summary",
    "guessing_probability",
    "classical_min_entropy",
    "input_cost",
    "two_copy_detail",
    "angle_sweep",
]

MODE_ASYMPTOTIC = "asymptotic"
MODE_FINITE_Q = "finite-q"

# face eigenvalues at or below this times max(1, lambda_max) count as zero
FACE_TOL_ZERO = 1e-11


@dataclass(frozen=True)
class Scenario:
    """States, observed statistics and accounting mode for one setup.

    The ensemble is the trusted source and owns the input probabilities;
    the statistics hold one row of P(x|a) per state. generation_index is
    1-based (default 1: the first state generates randomness).
    """

    ensemble: StateEnsemble
    observed: ObservedStatistics
    mode: str = MODE_ASYMPTOTIC
    generation_index: int = 1

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ASYMPTOTIC, MODE_FINITE_Q):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.observed.n_states != self.ensemble.n_states:
            raise ValueError(
                f"{self.observed.n_states} statistics rows for {self.ensemble.n_states} states"
            )
        if not 1 <= self.generation_index <= self.ensemble.n_states:
            raise ValueError(f"generation_index {self.generation_index} out of range "
                             f"1..{self.ensemble.n_states}")

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    @property
    def n_states(self) -> int:
        return self.ensemble.n_states

    @property
    def n_outcomes(self) -> int:
        return self.observed.n_outcomes


def honest_scenario(
    ensemble: StateEnsemble,
    povm: Povm,
    eta: float = 1.0,
    mode: str = MODE_ASYMPTOTIC,
    generation_index: int = 1,
) -> Scenario:
    """Scenario whose statistics come from an honest device plus white noise."""
    stats = mix_white_noise(honest_statistics(ensemble, povm), eta)
    return Scenario(ensemble, stats, mode=mode, generation_index=generation_index)


def _basis_pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian basis of d x d matrices as index pairs, the one place
    that states its order: element j is (k[j], l[j], anti[j]). The d^2
    basis elements come first: e_kk (j = k < d), then for each k < l, in
    row order, the symmetric element (1 at (k, l) and (l, k)) and the
    antisymmetric imaginary one (i at (k, l), -i at (l, k)). The d^2 - 1
    traceless elements follow: the off-diagonal elements, then e_kk - e_00
    (-1 at (0, 0)) for k = 1..d-1, each with the pair of its e_kk."""
    k, l = (np.concatenate([np.arange(d), np.repeat(v, 2)])
            for v in np.nonzero(np.arange(d)[:, None] < np.arange(d)))
    anti = np.concatenate([np.zeros(d, dtype=bool), np.arange(d * d - d) % 2 == 1])
    order = np.concatenate([np.arange(d * d), np.arange(d, d * d), np.arange(1, d)])
    return k[order], l[order], anti[order]


def _on_face(q: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis and the traceless elements (_basis_pairs) and the states
    rhos compressed onto the isometry q (d x r) as Q^dag H Q; q = I exactly
    gives them as they are. No element is multiplied as a d x d matrix:
    column c of an element B is zero or v e_i (v one of 1, i, -i, -1), so
    column c of Q^dag B is column c of Q^dag P for the probe P that holds
    v e_i in every column, or for the zero probe. The probes go through
    the d x d product that B would, so every entry of Q^dag B, a signed
    zero too, is the one that product gives; Q^dag B is then multiplied
    by q, as the states are. Any isometry will do, not only a face."""
    d = len(q)
    k, l, anti = _basis_pairs(d)
    j, p = np.arange(k.size), np.arange(4 * d)
    # probe u d + i: v e_i in every column, v the u-th of 1, i, -i, -1; the last: zero
    probes = np.zeros((4 * d + 1, d, d), dtype=complex)
    probes[p, p % d] = np.repeat(np.array([1.0, 1.0j, -1.0j, -1.0]), d)[:, None]
    full = np.array_equal(q, np.eye(d))
    src = probes if full else q.conj().T @ probes
    out = np.broadcast_to(src[4 * d], (k.size, *src.shape[1:])).copy()  # the zero columns
    # v at (k, l) and (l, k), and -1 at (0, 0) for e_kk - e_00
    out[j, :, l], out[j, :, k] = src[d * anti + k, :, l], src[2 * d * anti + l, :, k]
    out[2 * d * d - d:, :, 0] = src[3 * d, :, 0]
    out, rhos = (out, rhos) if full else (out @ q, q.conj().T @ rhos @ q)
    return out[:d * d], out[d * d:], rhos


# largest entry mismatch that a copy permutation may leave between the
# states (relative to max(1, largest entry)), the statistics, the face
# projectors or the input probabilities it relates; on the bundled product
# presets and the doubled qubit presets, eta from 0 to 1, the largest is
# 1.5e-15 (face projectors of rank-deficient faces at eta = 1)
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class _CopySymmetry:
    """S_m permuting the m copies of a product scenario; m = 1: the order-1 group.

    roots holds the number of states, outcomes and computational-basis
    vectors of one copy (the scenario's own under the order-1 group); an
    index is the tuple of its m per-copy digits, first copy slowest, as
    tensor_ensemble orders them, and a copy permutation acts on an array
    by transposing those digits (_permuted).
    """

    copies: int
    roots: tuple[int, int, int]


def _smallest_images(tuples, roots: tuple[int, ...], m: int) -> np.ndarray:
    """The smallest image under the copy permutations of each tuple of
    indices, the index arrays broadcast together, raveled as
    np.ravel_multi_index does over the sizes roots[i]**m. Index i is the
    tuple of its m per-copy digits in base roots[i], first copy slowest, so
    the smallest image puts the copies in increasing order of their
    per-copy digit tuples, each read as one number c in the mixed radix
    of roots."""
    r = np.array(roots)
    power = r[:, None] ** np.arange(m - 1, -1, -1)  # of each copy's digit
    # the per-copy numbers of each tuple, sorted
    code = sum(np.take(np.arange(n**m)[:, None] // p % n * w, i, axis=0)
               for i, n, p, w in zip(tuples, roots, power, np.cumprod([1, *r[:0:-1]])[::-1]))
    code.sort(axis=-1)
    return np.ravel_multi_index([c @ p for c, p in zip(np.unravel_index(code, roots), power)], r**m)


def _permuted(a: np.ndarray, roots: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """The image of a under the copy permutation perm: each axis i, of size
    roots[i]**m, split into its m per-copy digits (first copy slowest, as
    tensor_ensemble orders them), and copy k of the image given the digit
    of copy perm[k]. On a (states, d, d) stack this maps state a to g.a and
    conjugates by the permutation unitary U_g."""
    m = len(perm)
    axes = [i * m + k for i in range(a.ndim) for k in perm]
    return a.reshape([r for r in roots for _ in perm]).transpose(axes).reshape(a.shape)


def _copy_symmetry(scenario: Scenario, faces: list[np.ndarray]) -> _CopySymmetry:
    """The copy-permutation group of the scenario: S_m of a product
    scenario, else the order-1 group (copies == 1).

    Candidates have d = d0^m, n_s = n0^m and n_o = o0^m, m >= 2, tried from
    the largest m down. S_m is kept when every adjacent transposition
    leaves each of these unchanged within SYMMETRY_TOL: the states (over
    max(1, largest entry)), the statistics, the face projectors (so the
    face ranks, their traces, exactly) and the input probabilities
    (finite-q) or the indicator of the generation input (asymptotic: its m
    digits are equal). They are stacked once per candidate. A dimension
    that is no power m >= 2 (every qubit scenario) tries no candidate.
    """
    sizes = (scenario.n_states, scenario.n_outcomes, scenario.dim)
    for m in range(int(math.log2(scenario.dim)), 1, -1):
        roots = tuple(round(n ** (1.0 / m)) for n in sizes)
        if any(r**m != n for r, n in zip(roots, sizes)):
            continue
        n0, o0, d0 = roots
        rhos = np.stack([s.mat for s in scenario.ensemble.states])
        rhos /= max(1.0, float(np.max(np.abs(rhos))))
        source = (scenario.ensemble.probs if scenario.mode == MODE_FINITE_Q
                  else np.eye(sizes[0])[scenario.generation_index - 1])
        data = [(rhos, (n0, d0, d0)),
                (scenario.observed.conditionals, (n0, o0)),
                (np.stack([v @ v.conj().T for v in faces]), (o0, d0, d0)), (source, (n0,))]
        swaps = [(*range(k), k + 1, k, *range(k + 2, m)) for k in range(m - 1)]
        if all(np.max(np.abs(_permuted(a, r, p) - a)) <= SYMMETRY_TOL
               for p in swaps for a, r in data):
            return _CopySymmetry(m, roots)
    return _CopySymmetry(1, sizes)


def _block_orbits(
    scenario: Scenario, faces: list[np.ndarray]
) -> tuple[_CopySymmetry, list[int], np.ndarray]:
    """build_sdp's blocks: the copy group (see _copy_symmetry), the live
    outcomes (nonempty face) and, for every block k in the numbering
    (f L + x') n_o + e, canon[k], the first block of its orbit, the
    smallest image of (f, x, e) (k itself under the order-1 group)."""
    n_o = scenario.n_outcomes
    n_fam = scenario.n_states if scenario.mode == MODE_FINITE_Q else 1
    live = [x for x in range(n_o) if faces[x].shape[1] > 0]
    sym = _copy_symmetry(scenario, faces)
    if sym.copies == 1:
        return sym, live, np.arange(n_fam * len(live) * n_o)
    blocks = np.ix_(range(n_fam), live, range(n_o))
    first = _smallest_images(blocks, sym.roots[:2] + sym.roots[1:2], sym.copies)  # n0, o0, o0
    ident = np.ravel_multi_index(blocks, (scenario.n_states, n_o, n_o))
    return sym, live, np.searchsorted(ident.reshape(-1), first.reshape(-1))


def _row_starts(n_fam: int, n_s: int, n_o: int, n_l: int, d2: int,
                band: bool) -> tuple[int, int, int]:
    """Where build_sdp's raw rows of families iii and iv start, and the raw
    row count, for n_fam families, n_s inputs, n_o outcomes, n_l live ones
    and d2 basis elements: counted without allocating a row."""
    o3 = 1 + n_fam * n_o * (d2 - 1)
    o4 = o3 + (n_fam - 1) * n_l * d2
    return o3, o4, o4 + n_s * n_l * (1 + band)


def _raw_rows(n_fam: int, n_s: int, n_o: int, n_l: int, d: int,
              band: bool) -> tuple[np.ndarray, ...]:
    """The numbers of build_sdp's raw rows, the one place that numbers them
    (at the starts of _row_starts): the rows of family i (one row), ii
    (f, e, j), iii (a - 1, x', j), iv (a, x') and the band rows (a, x';
    none unless band), in these shapes, each family in C order; j is a
    traceless (ii) or basis (iii) element and x' the position of x among
    the n_l live outcomes."""
    o3, o4, n_raw = _row_starts(n_fam, n_s, n_o, n_l, d * d, band)
    shapes = [(1,), (n_fam, n_o, d * d - 1), (n_fam - 1, n_l, d * d), (n_s, n_l), (n_s * band, n_l)]
    parts = np.split(np.arange(n_raw), [1, o3, o4, o4 + n_s * n_l])
    return tuple(p.reshape(s) for p, s in zip(parts, shapes))


def _row_orbits(
    sym: _CopySymmetry, n_fam: int, live: list[int], band: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row orbits of build_sdp's raw rows, with its band rows if band.

    A raw row is the tuple of an input a (the family f for ii), an outcome
    (the guess e for ii) and the pair (k, l) of its element of
    _basis_pairs: e_kk (k = l; e_kk - e_00 for ii, every permutation fixing
    index 0) or the symmetric or antisymmetric element of k < l; rows i,
    iv and the band have (0, 0). A copy permutation maps the row to the row of the permuted
    tuple, its pair put in order, and negates an antisymmetric element
    whose pair it turns round. So the first row of an orbit is the smaller
    of the smallest images (_smallest_images) of the tuple with (k, l) and
    with (l, k); an antisymmetric row takes the sign -1 when the second is
    smaller, and when they are equal some stabilizer element maps the row
    to its own negative. A band row moves with its statistics row.

    Returns the canonical rows (the smallest index of each orbit that no
    stabilizer element maps to its own negative, in increasing order),
    each raw row's reduced index (-1 when its orbit is negated: such rows
    vanish on symmetric points) and its weight s_i / |R|, s_i the sign
    that carries the canonical row onto row i and |R| the orbit size (0
    when dropped). The order-1 group maps every row to itself with weight
    1. Memory and time grow with the raw rows times the copies.
    """
    (n0, o0, d0), m = sym.roots, sym.copies
    n_s, n_o, n_l, d = n0**m, o0**m, len(live), d0**m
    n_raw = _row_starts(n_fam, n_s, n_o, n_l, d * d, band)[-1]
    rows = np.arange(n_raw)
    if m == 1:  # the identity
        return rows, rows, np.ones(n_raw)
    # every raw row as (family, input, outcome, element of _basis_pairs):
    # a traceless element (ii) or a basis element (iii)
    f, a, x, j = tup = np.zeros((4, n_raw), dtype=np.intp)
    fam, xs = np.arange(n_s)[:, None, None], np.asarray(live)[:, None]
    for raw, values in zip(_raw_rows(n_fam, n_s, n_o, n_l, d, band)[1:], (  # ii, iii, iv, band
            (1, fam[:n_fam], np.arange(n_o)[:, None], d * d + np.arange(d * d - 1)),
            (2, fam[1:n_fam], xs, np.arange(d * d)), (3, fam[:, 0], xs[:, 0], 0),
            (4, fam[:n_s * band, 0], xs[:, 0], 0))):
        for field, v in zip(tup, values):
            field[raw] = v
    k, l, anti = (v[j] for v in _basis_pairs(d))
    both = _smallest_images((a, x, np.array([k, l]), np.array([l, k])), (n0, o0, d0, d0), m)
    # a row is its family, its tuple and its kind, the first of its orbit
    # the same with the smaller image; negation holds for a whole orbit
    lead = f * (n_s * n_o * d * d)
    row = (lead + np.ravel_multi_index((a, x, k, l), (n_s, n_o, d, d))) * 2 + anti
    order = np.argsort(row)
    canon = order[np.searchsorted(row, (lead + np.minimum(*both)) * 2 + anti, sorter=order)]
    negated = anti & (both[0] == both[1])
    kept = np.flatnonzero((canon == rows) & ~negated)
    red = np.where(negated, -1, np.searchsorted(kept, canon))
    s = np.where(anti & (both[1] < both[0]), -1.0, 1.0) / np.bincount(canon, minlength=n_raw)[canon]
    return kept, red, np.where(red >= 0, s, 0.0)


def _orbit_sums(rows: np.ndarray, coef: np.ndarray, red: np.ndarray,
                wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative block's rows in reduced numbering and their
    coefficients: (1/|R|) sum_{i in R} s_i A_i over each row orbit R, one
    real product over the stack's real view. A block whose rows are each
    their own orbit (weight 1) keeps its stack, the same array."""
    r, w = red[rows], wt[rows]
    if (w == 1.0).all():
        return r, coef
    on = np.flatnonzero(r >= 0)
    touched = np.zeros(red.max() + 1, dtype=bool)
    touched[r[on]] = True
    mix = np.zeros((np.count_nonzero(touched), rows.size))
    mix[np.cumsum(touched)[r[on]] - 1, on] = w[on]
    s = coef.shape[-1]
    sums = mix @ coef.view(float).reshape(rows.size, -1)
    return np.flatnonzero(touched), sums.view(complex).reshape(-1, s, s)


def face_bases(scenario: Scenario) -> list[np.ndarray]:
    """Range certificates V_x for the effective measurement operators.

    Every feasible family satisfies M_{x,e|a} <= N_x where N_x is the
    input-independent outcome marginal, so range(M) lies inside range(N_x).
    Two cases pin that range from the observed data alone:

    * spanning ensemble (states span the Hermitian space): N_x is the
      unique operator reproducing column x, and its eigenvectors with
      eigenvalue above FACE_TOL_ZERO * max(1, lambda_max) form V_x, which
      is exactly the identity when no eigenvalue is cut;
    * otherwise, every exactly-zero entry P(x|a) forces N_x to annihilate
      the support of state a, so V_x spans the common kernel.

    The spanning test is the row selection of row_space_basis on the
    Gram matrix Re tr(rho_a rho_b) of the states' real views, so a state
    counts as independent only if its residual exceeds about 1e-6 of its
    norm. A near-degenerate ensemble can therefore fall back to the
    zero-pattern faces; those are valid for every ensemble, so the rate is
    unchanged in exact arithmetic.

    Restricting block (a,x,e) to V_x S V_x^dag is an exact reparametrization
    of the feasible set (eigenvalues are only cut at the 1e-11 noise floor,
    far below every reported tolerance). Statistics that force a negative
    marginal raise InfeasibleProblemError.

    No basis matrix is formed. The coordinates t[a, j] = Re tr(B_j rho_a)
    of the states in the basis B_j of _basis_pairs are read off their
    entries, and the marginals sum_j c_j B_j are scattered from their
    coefficients c; every zero of either is made +0, the sign that a BLAS
    product with the dense basis gives it.
    """
    d, n_s, n_o = scenario.dim, scenario.n_states, scenario.n_outcomes
    rhos = np.stack([s.mat for s in scenario.ensemble.states])
    cond = scenario.observed.conditionals
    part = rhos.view(float).reshape(n_s, d, d, 2)  # the real and imaginary parts
    span_rows = part.reshape(n_s, -1)
    kept, _ = row_space_basis(span_rows @ span_rows.T)
    faces: list[np.ndarray] = []
    if len(kept) == d * d:
        k, l, anti = (v[:d * d] for v in _basis_pairs(d))
        # t[a, j] = Re tr(B_j rho_a): Re rho_kk, Re(rho_kl + rho_lk) or
        # Im(rho_kl - rho_lk); lower weighs the entry (l, k)
        comp, lower = 1 * anti, np.where(anti, -1.0, k < l)
        t = part[:, l, k, comp] * lower + part[:, k, l, comp] + 0.0
        coef, *_ = np.linalg.lstsq(t, cond, rcond=None)
        resid = np.max(np.abs(t @ coef - cond), axis=0)
        # the marginals sum_j coef[j, x] B_j, scattered onto their parts
        marginals = np.zeros((n_o, d, d, 2))
        marginals[:, l, k, comp], marginals[:, k, l, comp] = coef.T * lower, coef.T
        marginals = marginals.view(complex)[..., 0] + 0.0
        vals, vecs = eigh_hermitian(marginals)
        for x in range(n_o):
            if resid[x] > 1e-9:
                raise InfeasibleProblemError(
                    f"outcome {x}: statistics are inconsistent with any "
                    "input-independent measurement"
                )
            if vals[x, 0] < -1e-8:
                raise InfeasibleProblemError(
                    f"outcome {x}: statistics force a marginal with "
                    f"eigenvalue {vals[x, 0]:.3e}"
                )
            cut = FACE_TOL_ZERO * max(1.0, float(vals[x, -1]))
            faces.append(vecs[x][:, vals[x] > cut] if vals[x, 0] <= cut
                         else np.eye(d, dtype=complex))
    else:
        zeros = [[a for a in range(n_s) if cond[a, x] <= 1e-14] for x in range(n_o)]
        cut_off = [x for x in range(n_o) if zeros[x]]
        faces = [np.eye(d, dtype=complex) for _ in range(n_o)]
        if cut_off:
            vals, vecs = eigh_hermitian(np.stack([sum(rhos[a] for a in zeros[x]) for x in cut_off]))
            for x, v, u in zip(cut_off, vals, vecs):
                faces[x] = u[:, v <= FACE_TOL_ZERO * max(1.0, float(v[-1]))]
    return faces


# the bytes that build_sdp's kept constraint maps, all but the most
# recently used one, may hold together: sized so that the four-copy maps of
# both Fig. 6 sources (15 and 29 MiB, the doubled maps of their two-copy
# study) fit together and no five-copy map fits. A process pays up to this
# much also when it never reuses a map (alpha and q sweeps build a new map
# at each point), and so does each sweep worker.
MAP_BUDGET = 64 << 20
# build_sdp's kept constraint maps by key, the most recently used last
_maps: dict[tuple, _ConstraintMap] = {}


@dataclass(frozen=True)
class _ConstraintMap:
    """The statistics-free part of build_sdp for the inputs of _assemble
    whose exact form (_exact) is key: their row orbits (_row_orbits) and
    the preprocessed problem, whose row map apply_rhs applies to the b of
    each scenario. Every array is read-only. nbytes, what it costs to keep,
    counts the bytes of the key, the orbits and every array of the problem
    and of its row map."""

    key: tuple
    orbits: tuple[np.ndarray, np.ndarray, np.ndarray]
    problem: SdpProblem

    @cached_property
    def nbytes(self) -> int:
        return _nbytes((self.key, self.orbits, _arrays(self.problem)))


def _nbytes(x) -> int:
    """The bytes of every array and bytes object in x, also inside lists and tuples."""
    if isinstance(x, (list, tuple)):
        return sum(map(_nbytes, x))
    return x.nbytes if isinstance(x, np.ndarray) else len(x) if isinstance(x, bytes) else 0


def _exact(x):
    """x with every array, also inside lists and tuples, replaced by its
    dtype, shape and bytes: two of these are equal exactly when every
    array is the same bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(_exact(v) for v in x)
    return x


def _arrays(p: SdpProblem) -> list:
    """Every array of p's data and of its row map, None where there is none."""
    rm = p.row_map
    return [p.b, p.cert_vector, *p.group_rows, *p.group_stacks, *p.objective_stacks,
            *p.group_weights, *p.arrow.blocks, p.arrow.border, rm.kept, rm.dropped,
            rm.scales, rm.dependence, rm.cert_u]


def _read_only(p: SdpProblem) -> SdpProblem:
    """p, with every array of its data and of its row map made read-only."""
    for a in _arrays(p):
        if a is not None:
            a.flags.writeable = False
    return p


def _assemble(rhos: np.ndarray, mode: str, source, band: bool, faces: list[np.ndarray],
              sym: _CopySymmetry, live: list[int], canon: np.ndarray,
              orbits: tuple[np.ndarray, np.ndarray, np.ndarray], b: np.ndarray) -> SdpProblem:
    """build_sdp's raw problem on one block per orbit, for the states rhos,
    the mode, its source (the input probabilities in finite-q, the
    generation index in asymptotic), a band or none, the faces, the copy
    group, the live outcomes, the block orbits canon and the row orbits
    (kept, red, wt) of _row_orbits; b, the orbit-mean right-hand side, is
    only carried into the problem. Nothing else is read."""
    n_s, d = rhos.shape[:2]
    n_o, n_l = len(faces), len(live)
    finite_q = mode == MODE_FINITE_Q
    n_fam = n_s if finite_q else 1
    kept, red, wt = orbits
    first_of_orbit = canon == np.arange(canon.size)
    emit = first_of_orbit.tolist()
    norm, guess, ind, stat, _ = _raw_rows(n_fam, n_s, n_o, n_l, d, band)
    n_band = n_s * n_l * band
    slack = kept[np.searchsorted(kept, red.size - n_band):]
    # the guess-marginal rows of one orbit of (f, e), the kept rows in the
    # range of its first member: one row group
    ends = np.searchsorted(kept, [guess[..., :1], guess[..., -1:] + 1]).reshape(2, -1)
    groups = [np.arange(lo, hi) for lo, hi in ends.T]

    weights = np.bincount(canon, minlength=canon.size)[first_of_orbit]
    block_dims, rows, coeffs, objective = [], [], [], []  # per block, as from_blocks takes them
    for f in range(n_fam):
        # i: family 0 only; iii: -basis on family 0, +basis on family a
        norm_f, ind_f = ([norm], ind) if f == 0 else ([], ind[f - 1:f])
        stat_f = stat[f:f + 1] if finite_q else stat
        for xi, x in enumerate(live):
            first = (f * n_l + xi) * n_o
            if not any(emit[first:first + n_o]):
                continue
            # basis, traceless and states compressed onto V_x
            bx, tx, rx = _on_face(faces[x], rhos)
            if finite_q:
                stat_c = float(source[f]) * rx[f:f + 1]
                obj = stat_c[0] if source[f] > 0.0 else None
            else:
                stat_c, obj = rx, rx[source - 1]
            norm_c = [np.eye(bx.shape[-1])[None]] if f == 0 else []
            coef = np.concatenate([*norm_c, tx, *[-bx if f == 0 else bx] * len(ind_f), stat_c])
            for e in range(n_o):
                if not emit[first + e]:
                    continue
                r, c = _orbit_sums(np.concatenate([*norm_f, guess[f, e], *ind_f[:, xi],
                                                   stat_f[:, xi]]), coef, red, wt)
                rows.append(r)
                coeffs.append(c)
                objective.append(obj if e == x else None)
                block_dims.append(coef.shape[-1])
    if band:  # the slack blocks t, t' of each statistics-row orbit R and
        # its band row: coefficients 1 on the rows i and j, as orbit means
        # 1/|R| (one pair of stacks per |R|, so from_blocks checks each once)
        stacks = {w: [np.full((k, 1, 1), w) for k in (2, 1)] for w in set(wt[slack].tolist())}
        for j in slack.tolist():
            i = j - n_band
            rows += [red[[i, j]], red[[j]]]
            coeffs += stacks[wt[j]]
        objective += [None, None] * slack.size
        block_dims += [1, 1] * slack.size
        weights = np.concatenate([weights, np.repeat(np.rint(1.0 / wt[slack]), 2)])  # |R|
    return SdpProblem.from_blocks(block_dims, b, rows, coeffs, objective, groups, weights)


def build_sdp(
    scenario: Scenario, opts: SolverOptions | None = None
) -> tuple[SdpProblem, PreprocessReport]:
    """Assemble and preprocess the guessing-probability SDP.

    One PSD block per (family f, outcome x, guess e): one family M_{x,e|a}
    per input a in ``finite-q``, a single family M_{x,e} in ``asymptotic``,
    which has the same optimum (see the module docstring).

    Each block is compressed onto the certified range V_x of its outcome
    marginal (see face_bases; the generic full-rank case keeps the full
    dimension d): a complex Hermitian block of the face rank r_x, with
    coefficients V_x^dag H V_x (_on_face, which reads the basis elements
    off their index pairs). The faces are exact for the exact table
    only: a table inside a band of opts.relax > 0 may have full-rank
    marginals where the observed one has not, so with a band every V_x is
    the identity. Only outcomes with a nonempty face (live x, L of them)
    get blocks, numbered (f, x, e) in that order, then the slack blocks.
    Constraint families, in row order:

    i.   normalization: sum_{x,e} tr M_{x,e|0} = d, one row, I_r = V_x^dag V_x
         on each family-0 block; ii makes the sum a multiple of the
         identity, and iii carries the identity to every other family;
    ii.  guess-marginal proportionality: sum_x M_{x,e|f} is a multiple of
         the identity (off-diagonals vanish, diagonals equal the first),
         d^2 - 1 rows per (f, e);
    iii. input independence of the outcome marginal (``finite-q`` only):
         sum_e M_{x,e|a} equals its a=1 counterpart, d^2 rows per
         (a > 1, live x);
    iv.  observed statistics, one row per (a, live x) on input a's family;
         with opts.relax > 0 each row is widened to a +-relax band by two
         1x1 slack blocks t, t' and one band row per statistics row:
         stat + t = target + relax and t + t' = 2 relax; the band rows
         come last.

    Rows are numbered family by family by _raw_rows, whose identity image
    gives every row list, the place of b and the band rows. So block
    (f, x, e) meets, in increasing row order, the identity (i, family 0
    only), the traceless basis (ii), -basis on family 0 and +basis on the
    others (iii) and the weighted states (iv), and is written directly in
    the layout of SdpProblem.from_blocks, with the family-ii rows of each
    (f, e) as one row group. Rows whose coefficients vanish (the statistics
    of an input with probability 0) are still emitted; the row selection of
    preprocessing drops them. A nonzero target on an outcome with an empty
    face raises InfeasibleProblemError.

    Every scenario is solved on the symmetric points of its copy group G
    (see _copy_symmetry), with or without a band: S_m for a product
    scenario of m copies whose data the copy permutations leave unchanged,
    else the order-1 group. They hold an optimum: averaging a feasible
    point over G keeps it feasible and keeps its value (a band has the
    same width on every row, and its faces are the identity). g moves
    block k to g.k by the permutation unitary U_g, conjugated onto the
    faces, and maps each raw row i to s_i times a row (_row_orbits). The problem keeps the first
    block of each block orbit O_k and the first row of each row orbit R, and
    leaves out a row orbit that a stabilizer element maps to its own
    negative (it vanishes on symmetric points). X_k stands for the sum over
    the orbit, |O_k| times its member; the data are group averages in closed
    form: A'_{R,k} = (1/|R|) sum_{i in R} s_i A_{i,k} and b_R the mean of
    s_i b_i. On symmetric data A'_{R,k} equals the average (1/|G|) sum_g
    Q_g^dag A_{i,g.k} Q_g, Q_g = V_{g.x}^dag U_g V_x, which k's stabilizer
    leaves unchanged, so no invariance rows are needed; C_k, invariant too,
    is kept. The family-ii rows of one orbit of (f, e) form one row group,
    and the blocks get the weights |O_k| (SdpProblem.from_blocks), so that
    the solver follows the full problem's central path; the unreduced
    stacks are never formed. A dual y_R gives the full problem the dual
    y_i = s_i y_R / |R| of the same value, whose slack on block g.k is the
    reduced slack of k conjugated by U_g (up to SYMMETRY_TOL times |y|), so
    the certified bound holds for both. A band row moves with its
    statistics row, so the slack pairs of the rows of a statistics-row
    orbit R form one block orbit: the pair of R's first row stands for
    their sum, with coefficients 1/|R| in the orbit-mean rows of R and of
    its band rows and the weight |R|. Under the order-1 group each orbit
    is one block or one row, of weight 1.

    The cap sdp_solver.MAX_CONSTRAINTS bounds the reduced rows, checked
    twice before any face compression or any coefficient stack exists;
    each refusal raises ValueError naming the count, the blocks (two slack
    blocks per statistics-row orbit under a band) and the largest block
    size. First, before any array over the raw rows, bounds
    in closed form: only antisymmetric rows of ii and iii can vanish, and
    an orbit holds at most |G| rows, so at least
    ceil((raw rows - antisymmetric rows) / |G|) rows and
    ceil(statistics rows / |G|) statistics-row orbits remain ("at least"
    in the message; under the order-1 group the raw counts, exact). Then
    the counts of _row_orbits.

    The statistics enter only b and the checks; the rest, the constraint
    map, is _assemble's, a function of the states, the mode with its input
    probabilities (finite-q) or its generation index (asymptotic), whether
    there is a band, the faces, the copy group, the live outcomes and the
    block orbits. build_sdp keeps the maps it builds, read-only, keyed by
    these inputs, bit for bit, the most recently used last. When a kept
    map has this scenario's inputs, it skips the row orbits, the assembly
    and preprocess, and applies this scenario's b to that map through
    sdp_core.apply_rhs, with which preprocess ends too: every dropped row
    is checked against its kept rows as on a new map. face_bases, both
    caps and the dead-outcome check run for every scenario. The maps other
    than the one just used hold at most MAP_BUDGET bytes, counted by
    _ConstraintMap.nbytes: the oldest are dropped until they do, before a
    new map is built, so a map above the budget is dropped before any
    other is built.
    """
    opts = opts or SolverOptions()
    relax = opts.relax
    band = relax > 0.0
    d, n_s, n_o = scenario.dim, scenario.n_states, scenario.n_outcomes
    finite_q = scenario.mode == MODE_FINITE_Q
    n_fam = n_s if finite_q else 1

    faces = [np.eye(d, dtype=complex)] * n_o if band else face_bases(scenario)
    # the blocks and rows to emit: one per orbit of the copy group
    sym, live, canon = _block_orbits(scenario, faces)
    n_l = len(live)
    # the cap on the closed-form bounds, then on the counts (see above)
    order, n_band = math.factorial(sym.copies), n_s * n_l * band
    n_blocks, size = np.count_nonzero(canon == np.arange(canon.size)), max(v.shape[1] for v in faces)
    anti = (n_fam * n_o + (n_fam - 1) * n_l) * (d * (d - 1) // 2) * (sym.copies > 1)
    n_raw = _row_starts(n_fam, n_s, n_o, n_l, d * d, band)[-1]
    sdp_solver.check_rows(-(-(n_raw - anti) // order), n_blocks + 2 * -(-n_band // order), size,
                          sym.copies > 1)
    rhos = np.stack([s.mat for s in scenario.ensemble.states])
    inputs = (rhos, scenario.mode, scenario.ensemble.probs if finite_q
              else scenario.generation_index, band, faces, sym, live, canon)
    key = _exact(inputs)
    cmap = _maps.pop(key, None)
    # the maps that this one will follow: the oldest go until they fit the budget
    while sum(m.nbytes for m in _maps.values()) > MAP_BUDGET:
        del _maps[next(iter(_maps))]
    if cmap is not None:
        _maps[cmap.key] = cmap  # under its own key: one copy of the key's bytes
        kept, red, wt = orbits = cmap.orbits
    else:
        kept, red, wt = orbits = _row_orbits(sym, n_fam, live, band)
    # under a band, the first band row j of each statistics-row orbit: the
    # band rows are the last raw rows, and j - n_band is j's statistics row
    slack = kept[np.searchsorted(kept, n_raw - n_band):]
    sdp_solver.check_rows(kept.size, n_blocks + 2 * slack.size, size)

    cond = scenario.observed.conditionals
    weights = scenario.ensemble.probs if finite_q else np.ones(n_s)
    dead = [x for x in range(n_o) if x not in live]
    if np.any(np.abs(weights[:, None] * cond[:, dead]) > 1e-12):
        raise InfeasibleProblemError(
            "constraint places a nonzero value on an impossible outcome"
        )
    _, _, _, stat, band_rows = _raw_rows(n_fam, n_s, n_o, n_l, d, band)
    b = np.zeros(red.size)
    b[0] = d
    b[stat] = weights[:, None] * cond[:, live] + relax
    b[band_rows] = 2.0 * relax
    # orbit means; a left-out row (red -1, weight 0) falls into the dropped bin
    b = np.bincount(red + 1, wt * b, minlength=kept.size + 1)[1:]
    if cmap is not None:
        return apply_rhs(cmap.problem, b)
    problem, report = preprocess(_assemble(*inputs, orbits, b))
    _maps[key] = _ConstraintMap(key, orbits, _read_only(problem))
    return problem, report


def symmetry_summary(scenario: Scenario) -> str | None:
    """'S_m: k of n blocks' when build_sdp (relax = 0) solves the scenario
    on one block per orbit of its copy permutations; None for the order-1
    group, and when the statistics force no face (build_sdp then reports
    them infeasible)."""
    try:
        faces = face_bases(scenario)
    except InfeasibleProblemError:
        return None
    sym, _, canon = _block_orbits(scenario, faces)
    if sym.copies == 1:
        return None
    orbits = np.count_nonzero(canon == np.arange(canon.size))
    return f"S_{sym.copies}: {orbits} of {canon.size} blocks"


def classical_min_entropy(stats: ObservedStatistics, probs: np.ndarray) -> float:
    """Min-entropy of the outcome given the input, from the conditional
    table and the source's input probabilities."""
    best = float(probs @ np.max(stats.conditionals, axis=1))
    return 0.0 - math.log2(best)  # +0.0, not -0.0, for a deterministic table


def input_cost(probs: np.ndarray) -> float:
    """Shannon entropy (bits) of the input distribution."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return 0.0 - float(np.sum(p * np.log2(p)))  # +0.0 for a deterministic input


@dataclass
class RateResult:
    status: str
    p_guess_upper: float
    rate_bits: float
    rate_per_qubit: float
    classical_bound_bits: float
    input_cost_bits: float
    net_expansion_bits: float
    sdp_primal_value: float = math.nan
    duality_gap: float = math.nan
    primal_residual: float = math.nan
    dual_min_eigenvalue: float = math.nan
    n_iterations: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, NEAR_OPTIMAL)


def _classical_bound(scenario: Scenario) -> float:
    # vanishing test fraction (asymptotic): only the generation state contributes
    probs = (scenario.ensemble.probs if scenario.mode == MODE_FINITE_Q
             else np.eye(1, scenario.n_states, scenario.generation_index - 1)[0])
    return classical_min_entropy(scenario.observed, probs)


def guessing_probability(
    scenario: Scenario, opts: SolverOptions | None = None
) -> RateResult:
    """Certified upper bound on the guessing probability and the rate.

    The reported rate -log2(p_guess_upper) is a one-sided lower bound on
    the certifiable randomness; bounds above 1 are clamped (with a note
    beyond 1 + 1e-8) and rates below 1e-7 snap to zero. A finite bound at
    or below 0, whatever the solver's status, proves the statistics
    infeasible: averaging a feasible point over the cyclic relabelings of
    the guess keeps it feasible at value 1/n_o, so every feasible optimum
    is at least 1/n_o. It is reported infeasible-detected, with no bound
    and a note naming it. When the solver itself reports infeasible-detected
    (with no bound), the smallest finite certified bound of its iterates is
    that proof when it is at most 0; otherwise a note says that the primal
    residual diverged and infeasibility is not proven.
    """
    opts = opts or SolverOptions()
    cost = input_cost(scenario.ensemble.probs) if scenario.mode == MODE_FINITE_Q else 0.0
    classical = _classical_bound(scenario)
    try:
        problem, report = build_sdp(scenario, opts)
    except InfeasibleProblemError as exc:
        return RateResult(
            status=INFEASIBLE,
            p_guess_upper=math.nan,
            rate_bits=math.nan,
            rate_per_qubit=math.nan,
            classical_bound_bits=classical,
            input_cost_bits=cost,
            net_expansion_bits=math.nan,
            notes=[str(exc)],
        )
    sol = solve(problem, opts)
    notes = list(report.notes)
    status, p_up = sol.status, sol.certified_upper_bound
    if status == INFEASIBLE:  # the solver reports no bound; its iterates may hold a proof
        p_up = min((r.certified_bound for r in sol.iterations
                    if math.isfinite(r.certified_bound)), default=math.nan)
    if math.isfinite(p_up) and p_up <= 0.0:
        notes.append(f"certified guessing bound {p_up:.3e} <= 0: no strategy reproduces "
                     "the statistics")
        status, p_up = INFEASIBLE, math.nan
    elif status == INFEASIBLE:
        notes.append("primal residual diverged; infeasibility is not proven")
        p_up = math.nan
    if math.isfinite(p_up):
        if p_up > 1.0 + 1e-8:
            notes.append(f"guessing bound {p_up:.3e} above 1; clamped")
        p_eff = min(p_up, 1.0)
        rate = -math.log2(p_eff)
        if rate < 1e-7:
            rate = 0.0
    else:
        rate = math.nan
    log_d = math.log2(scenario.dim)
    return RateResult(
        status=status,
        p_guess_upper=p_up,
        rate_bits=rate,
        rate_per_qubit=rate / log_d if log_d > 0 else math.nan,
        classical_bound_bits=classical,
        input_cost_bits=cost,
        net_expansion_bits=rate - cost,
        sdp_primal_value=sol.primal_objective,
        duality_gap=sol.duality_gap,
        primal_residual=sol.primal_residual,
        dual_min_eigenvalue=sol.dual_min_eigenvalue,
        n_iterations=sol.n_iterations,
        notes=notes,
    )


@dataclass(frozen=True)
class TwoCopyResult:
    delta_bits: float
    single: RateResult
    doubled: RateResult


def two_copy_detail(
    scenario: Scenario, opts: SolverOptions | None = None
) -> TwoCopyResult:
    """Per-copy penalty of a joint attack on two identical rounds.

    Solves the scenario and its two-copy product (product states, product
    statistics, squared input distribution) and reports
    rate(single) - rate(doubled) / 2. Nonnegative values mean joint
    measurements of the guessing side can only help the adversary.
    """
    single = guessing_probability(scenario, opts)
    g = scenario.generation_index - 1
    dbl = Scenario(
        ensemble=double_ensemble(scenario.ensemble),
        observed=double_statistics(scenario.observed),
        mode=scenario.mode,
        generation_index=g * scenario.n_states + g + 1,
    )
    doubled = guessing_probability(dbl, opts)
    delta = single.rate_bits - 0.5 * doubled.rate_bits
    return TwoCopyResult(delta_bits=delta, single=single, doubled=doubled)


def angle_sweep(
    alphas,
    eta: float = 1.0,
    q: float = 0.5,
    opts: SolverOptions | None = None,
) -> list[tuple[float, RateResult]]:
    """Rates for the two-state family with overlap 1 - alpha, x-basis device."""
    out = []
    povm = sigma_x_povm()
    for alpha in alphas:
        ens = angle_states(float(alpha)).with_probs(np.array([q, 1.0 - q]))
        scen = honest_scenario(ens, povm, eta=eta, mode=MODE_FINITE_Q)
        out.append((float(alpha), guessing_probability(scen, opts)))
    return out
