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
  all statistics with the same objective, and copying one family to every
  input gives a feasible per-input strategy back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import eigh_hermitian, min_eigenvalue, real_embed, row_space_basis
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
    SdpSolution,
    preprocess,
)
from .sdp_solver import SolverOptions, solve

__all__ = [
    "MODE_ASYMPTOTIC",
    "MODE_FINITE_Q",
    "Scenario",
    "EffectiveStrategy",
    "RateResult",
    "TwoCopyResult",
    "honest_scenario",
    "face_bases",
    "build_sdp",
    "guessing_probability",
    "classical_min_entropy",
    "input_cost",
    "two_copy_delta",
    "two_copy_detail",
    "angle_sweep",
    "honest_strategy",
]

MODE_ASYMPTOTIC = "asymptotic"
MODE_FINITE_Q = "finite-q"

# face eigenvalues at or below this times max(1, lambda_max) count as zero
FACE_TOL_ZERO = 1e-11


@dataclass(frozen=True)
class Scenario:
    """States, observed statistics and accounting mode for one setup.

    generation_index is 1-based (default 1: the first state generates
    randomness). Input probabilities live on the statistics record and must
    match the ensemble's.
    """

    ensemble: StateEnsemble
    observed: ObservedStatistics
    mode: str = MODE_ASYMPTOTIC
    generation_index: int = 1

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ASYMPTOTIC, MODE_FINITE_Q):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.observed.n_states != self.ensemble.n_states:
            raise ValueError("statistics rows must match the number of states")
        if not 1 <= self.generation_index <= self.ensemble.n_states:
            raise ValueError("generation_index out of range")
        if np.max(np.abs(self.observed.input_probs - self.ensemble.probs)) > 1e-10:
            raise ValueError("ensemble and statistics disagree on input probabilities")

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


def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[k, l] = s[l, k] = 1.0
            basis.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[k, l] = 1.0j
            a[l, k] = -1.0j
            basis.append(a)
    return basis


def _emb(h: np.ndarray) -> np.ndarray:
    # factor 2 of the real embedding compensated here, once
    return 0.5 * real_embed(h)


def face_bases(scenario: Scenario) -> list[np.ndarray]:
    """Range certificates V_x for the effective measurement operators.

    Every feasible family satisfies M_{x,e|a} <= N_x where N_x is the
    input-independent outcome marginal, so range(M) lies inside range(N_x).
    Two cases pin that range from the observed data alone:

    * spanning ensemble (states span the Hermitian space): N_x is the
      unique operator reproducing column x, and its eigenvectors with
      eigenvalue above FACE_TOL_ZERO * max(1, lambda_max) form V_x;
    * otherwise, every exactly-zero entry P(x|a) forces N_x to annihilate
      the support of state a, so V_x spans the common kernel.

    The spanning test is the row selection of row_space_basis on the
    states' Gram matrix, so a state counts as independent only if its
    residual exceeds about 1e-6 of its norm. A near-degenerate ensemble
    can therefore fall back to the zero-pattern faces; those are valid for
    every ensemble, so the rate is unchanged in exact arithmetic.

    Restricting block (a,x,e) to V_x S V_x^dag is an exact reparametrization
    of the feasible set (eigenvalues are only cut at the 1e-11 noise floor,
    far below every reported tolerance). Statistics that force a negative
    marginal raise InfeasibleProblemError.
    """
    d = scenario.dim
    n_s = scenario.n_states
    n_o = scenario.n_outcomes
    rhos = [s.mat for s in scenario.ensemble.states]
    cond = scenario.observed.conditionals
    span_rows = np.stack([real_embed(r).reshape(-1) for r in rhos])
    kept, _, _ = row_space_basis(span_rows @ span_rows.T)
    faces: list[np.ndarray] = []
    if len(kept) == d * d:
        basis = _hermitian_basis(d)
        t = np.array(
            [[float(np.trace(bj @ ra).real) for bj in basis] for ra in rhos]
        )
        for x in range(n_o):
            coef, *_ = np.linalg.lstsq(t, cond[:, x], rcond=None)
            if float(np.max(np.abs(t @ coef - cond[:, x]))) > 1e-9:
                raise InfeasibleProblemError(
                    f"outcome {x}: statistics are inconsistent with any "
                    "input-independent measurement"
                )
            n_x = sum(c * bj for c, bj in zip(coef, basis))
            vals, vecs = eigh_hermitian(n_x)
            if vals[0] < -1e-8:
                raise InfeasibleProblemError(
                    f"outcome {x}: statistics force a marginal with "
                    f"eigenvalue {vals[0]:.3e}"
                )
            cut = FACE_TOL_ZERO * max(1.0, float(vals[-1]))
            faces.append(vecs[:, vals > cut])
    else:
        for x in range(n_o):
            zeros = [a for a in range(n_s) if cond[a, x] <= 1e-14]
            if not zeros:
                faces.append(np.eye(d, dtype=complex))
                continue
            f = sum(rhos[a] for a in zeros)
            vals, vecs = eigh_hermitian(f)
            cut = FACE_TOL_ZERO * max(1.0, float(vals[-1]))
            faces.append(vecs[:, vals <= cut])
    return faces


def build_sdp(
    scenario: Scenario, relax: float = 0.0
) -> tuple[SdpProblem, PreprocessReport]:
    """Assemble and preprocess the guessing-probability SDP.

    One PSD block per (family f, outcome x, guess e). ``finite-q`` keeps
    one family M_{x,e|a} per input a, because its objective weighs every
    input's guess. ``asymptotic`` uses a single family M_{x,e}: its
    objective reads only the generation input, and with family iii every
    input's outcome marginal is the same operator, so the generation
    family of any feasible point meets every statistics row with the same
    objective; conversely, copying one family to every input satisfies
    i-iv. Both problems therefore have the same optimum.

    Each block is first compressed onto the certified range V_x of its
    outcome marginal (see face_bases; the generic full-rank case keeps the
    full dimension d), then embedded as a real block of twice the
    compressed size. Constraint families, in order:

    i.   normalization: sum_{x,e} M_{x,e|f} = identity, d^2 rows per f;
    ii.  guess-marginal proportionality: sum_x M_{x,e|f} is a multiple of
         the identity (off-diagonals vanish, diagonals equal the first),
         d^2 - 1 rows per (f, e);
    iii. input independence of the outcome marginal (``finite-q`` only):
         sum_e M_{x,e|a} equals its a=1 counterpart, d^2 rows per
         (x, a > 1);
    iv.  observed statistics, one row per (a, x) on input a's family; with
         relax > 0 each row is widened to a +-relax band by two 1x1 slack
         blocks t, t': stat + t = target + relax and t + t' = 2 relax.

    Rows whose reduced coefficients all vanish are emitted only if their
    target is (numerically) zero; a nonzero target on an impossible
    outcome raises InfeasibleProblemError.
    """
    d = scenario.dim
    n_s = scenario.n_states
    n_o = scenario.n_outcomes
    finite_q = scenario.mode == MODE_FINITE_Q
    n_fam = n_s if finite_q else 1

    faces = face_bases(scenario)
    r_dims = [v.shape[1] for v in faces]

    index: dict[tuple[int, int, int], int] = {}
    block_dims: list[int] = []
    for f in range(n_fam):
        for x in range(n_o):
            if r_dims[x] == 0:
                continue
            for e in range(n_o):
                index[(f, x, e)] = len(block_dims)
                block_dims.append(2 * r_dims[x])

    basis = _hermitian_basis(d)
    # deviations from multiples of the identity: off-diagonal elements and
    # e_kk - e_00, d^2 - 1 of them
    traceless = basis[d:] + [basis[k] - basis[0] for k in range(1, d)]
    rhos = [s.mat for s in scenario.ensemble.states]
    probs = scenario.ensemble.probs
    cond = scenario.observed.conditionals
    gen = scenario.generation_index - 1

    def emb_x(h: np.ndarray, x: int) -> np.ndarray:
        v = faces[x]
        return _emb(v.conj().T @ h @ v)

    live = [x for x in range(n_o) if r_dims[x] > 0]
    basis_x = {x: [emb_x(h, x) for h in basis] for x in live}
    traceless_x = {x: [emb_x(h, x) for h in traceless] for x in live}
    rho_x = {x: [emb_x(r, x) for r in rhos] for x in live}

    constraints: list[dict[int, np.ndarray]] = []
    b_vals: list[float] = []

    def push(row: dict[int, np.ndarray], bval: float) -> None:
        if row:
            constraints.append(row)
            b_vals.append(bval)
        elif abs(bval) > 1e-12:
            raise InfeasibleProblemError(
                "constraint places a nonzero value on an impossible outcome"
            )

    # i. normalization per family
    for f in range(n_fam):
        for j, h in enumerate(basis):
            push(
                {index[(f, x, e)]: basis_x[x][j] for x in live for e in range(n_o)},
                float(np.trace(h).real),
            )

    # ii. guess marginals proportional to the identity
    for f in range(n_fam):
        for e in range(n_o):
            for j in range(len(traceless)):
                push({index[(f, x, e)]: traceless_x[x][j] for x in live}, 0.0)

    # iii. outcome marginals independent of the input (per-input families only)
    for f in range(1, n_fam):
        for x in live:
            for j in range(len(basis)):
                row = {index[(f, x, e)]: basis_x[x][j] for e in range(n_o)}
                for e in range(n_o):
                    row[index[(0, x, e)]] = -basis_x[x][j]
                push(row, 0.0)

    # iv. statistics reproduction
    slack_dims: list[int] = []
    slack_rows: list[dict[int, np.ndarray]] = []
    slack_b: list[float] = []
    one = np.ones((1, 1))
    n_main = len(block_dims)
    for a in range(n_s):
        f = a if finite_q else 0
        weight = float(probs[a]) if finite_q else 1.0
        for x in range(n_o):
            target = weight * float(cond[a, x])
            if x not in live:
                push({}, target)
                continue
            row = {index[(f, x, e)]: weight * rho_x[x][a] for e in range(n_o)}
            if relax > 0.0:
                u = n_main + len(slack_dims)
                slack_dims.extend([1, 1])
                row[u] = one
                target += relax
                slack_rows.append({u: one, u + 1: one})
                slack_b.append(2.0 * relax)
            constraints.append(row)
            b_vals.append(target)
    constraints.extend(slack_rows)
    b_vals.extend(slack_b)
    block_dims.extend(slack_dims)

    objective: dict[int, np.ndarray] = {}
    if finite_q:
        for a in range(n_s):
            if probs[a] > 0.0:
                for x in live:
                    objective[index[(a, x, x)]] = float(probs[a]) * rho_x[x][a]
    else:
        for x in live:
            objective[index[(0, x, x)]] = rho_x[x][gen]

    raw = SdpProblem(
        block_dims=tuple(block_dims),
        objective=objective,
        constraints=constraints,
        b=np.array(b_vals),
    )
    return preprocess(raw)


def classical_min_entropy(stats: ObservedStatistics) -> float:
    """Min-entropy of the outcome given the input, from the joint table."""
    best = float(stats.input_probs @ np.max(stats.conditionals, axis=1))
    return -math.log2(best)


def input_cost(probs: np.ndarray) -> float:
    """Shannon entropy (bits) of the input distribution."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


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
    if scenario.mode == MODE_FINITE_Q:
        return classical_min_entropy(scenario.observed)
    # vanishing test fraction: only the generation state contributes
    return -math.log2(float(np.max(
        scenario.observed.conditionals[scenario.generation_index - 1]
    )))


def guessing_probability(
    scenario: Scenario, opts: SolverOptions | None = None
) -> RateResult:
    """Certified upper bound on the guessing probability and the rate.

    The reported rate -log2(p_guess_upper) is a one-sided lower bound on
    the certifiable randomness; bounds above 1 are clamped (with a note
    beyond 1 + 1e-8) and rates below 1e-7 snap to zero.
    """
    opts = opts or SolverOptions()
    cost = input_cost(scenario.ensemble.probs) if scenario.mode == MODE_FINITE_Q else 0.0
    classical = _classical_bound(scenario)
    try:
        problem, report = build_sdp(scenario, relax=opts.relax)
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
    p_up = sol.certified_upper_bound
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
        status=sol.status,
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


def two_copy_delta(scenario: Scenario, opts: SolverOptions | None = None) -> float:
    """Rate difference rate(single) - rate(two copies)/2, in bits."""
    return two_copy_detail(scenario, opts).delta_bits


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


@dataclass
class EffectiveStrategy:
    """Detector-side strategy: one operator per (input, outcome, guess)."""

    operators: np.ndarray  # complex, shape (n_s, n_o, n_o, d, d), [a, x, e]

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 5 or ops.shape[1] != ops.shape[2] or ops.shape[3] != ops.shape[4]:
            raise ValueError("operators must have shape (n_s, n_o, n_o, d, d)")
        object.__setattr__(self, "operators", ops)

    @classmethod
    def from_solution(cls, scenario: Scenario, sol: SdpSolution) -> "EffectiveStrategy":
        """Recover complex operators from the embedded primal blocks.

        Re-derives the outcome faces from the scenario (build_sdp is
        deterministic), de-embeds each compressed block and expands it back
        to the full space as V S V^dag. In asymptotic mode the SDP holds a
        single family, which is copied to every input.
        """
        d = scenario.dim
        n_s, n_o = scenario.n_states, scenario.n_outcomes
        n_fam = n_s if scenario.mode == MODE_FINITE_Q else 1
        faces = face_bases(scenario)
        ops = np.zeros((n_fam, n_o, n_o, d, d), dtype=complex)
        i = 0
        for f in range(n_fam):
            for x in range(n_o):
                v = faces[x]
                r = v.shape[1]
                if r == 0:
                    continue
                for e in range(n_o):
                    yb = sol.x_blocks[i]
                    i += 1
                    re = 0.5 * (yb[:r, :r] + yb[r:, r:])
                    im = 0.5 * (yb[r:, :r] - yb[:r, r:])
                    s = re + 1.0j * im
                    s = 0.5 * (s + s.conj().T)
                    ops[f, x, e] = v @ s @ v.conj().T
        return cls(np.broadcast_to(ops, (n_s,) + ops.shape[1:]).copy())

    def objective_value(self, scenario: Scenario) -> float:
        rho = [s.mat for s in scenario.ensemble.states]
        if scenario.mode == MODE_FINITE_Q:
            total = 0.0
            for a in range(scenario.n_states):
                pa = float(scenario.ensemble.probs[a])
                for x in range(scenario.n_outcomes):
                    total += pa * float(np.trace(self.operators[a, x, x] @ rho[a]).real)
            return total
        g = scenario.generation_index - 1
        return float(sum(
            np.trace(self.operators[g, x, x] @ rho[g]).real
            for x in range(scenario.n_outcomes)
        ))

    def validate(self, scenario: Scenario, tol: float = DEFAULT_TOLS.strategy) -> None:
        """Raise unless all feasibility conditions hold within tol."""
        ops = self.operators
        n_s, n_o, d = scenario.n_states, scenario.n_outcomes, scenario.dim
        if ops.shape != (n_s, n_o, n_o, d, d):
            raise ValueError("strategy shape does not match the scenario")
        eye = np.eye(d)
        for a in range(n_s):
            for x in range(n_o):
                for e in range(n_o):
                    if min_eigenvalue(ops[a, x, e], tol=1e-8) < -tol:
                        raise ValueError(f"operator ({a},{x},{e}) is not PSD")
            total = ops[a].sum(axis=(0, 1))
            if np.max(np.abs(total - eye)) > tol:
                raise ValueError(f"normalization fails for input {a}")
            for e in range(n_o):
                marg = ops[a, :, e].sum(axis=0)
                if np.max(np.abs(marg - marg[0, 0] * eye)) > tol:
                    raise ValueError(f"guess marginal ({a},{e}) is not proportional to identity")
        base = ops[0].sum(axis=1)
        for a in range(1, n_s):
            if np.max(np.abs(ops[a].sum(axis=1) - base)) > tol:
                raise ValueError(f"outcome marginal depends on the input (a={a})")
        rho = [s.mat for s in scenario.ensemble.states]
        for a in range(n_s):
            for x in range(n_o):
                got = float(np.trace(ops[a, x].sum(axis=0) @ rho[a]).real)
                if abs(got - float(scenario.observed.conditionals[a, x])) > tol:
                    raise ValueError(f"statistics mismatch at (a={a}, x={x})")


def honest_strategy(scenario: Scenario, povm: Povm, eta: float) -> EffectiveStrategy:
    """Feasible strategy for honest statistics mixed with white noise.

    With probability eta the device measures honestly and the guess is an
    independent uniform coin; with probability 1 - eta it outputs uniform
    noise the guesser already knows. Objective value eta/n_o + (1 - eta).
    """
    if povm.dim != scenario.dim or povm.n_outcomes != scenario.n_outcomes:
        raise ValueError("POVM does not match the scenario")
    n_s, n_o, d = scenario.n_states, scenario.n_outcomes, scenario.dim
    ops = np.zeros((n_s, n_o, n_o, d, d), dtype=complex)
    eye = np.eye(d)
    for x in range(n_o):
        for e in range(n_o):
            m = (eta / n_o) * povm.elements[x]
            if x == e:
                m = m + ((1.0 - eta) / n_o) * eye
            ops[:, x, e] = m
    return EffectiveStrategy(ops)
