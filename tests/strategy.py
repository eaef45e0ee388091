"""The tests' oracle of the assembled SDP: detector-side strategies, the
honest device's and one read back from a solution, with the SDP's
objective and feasibility conditions checked on the full operators."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mdirand.linalg import min_eigenvalue
from mdirand.mdi import MODE_FINITE_Q, Scenario, _block_orbits, _permuted, face_bases
from mdirand.quantum import Povm
from mdirand.sdp_core import SdpSolution

# largest residual of each EffectiveStrategy.validate condition
STRATEGY_TOL = 1e-8


@dataclass
class EffectiveStrategy:
    """Detector-side strategy: one operator per (family, outcome, guess).

    A family holds the operators M_{x,e} that one input sees. There is
    either one family per input, as finite-q solves it, or a single family
    shared by every input: the asymptotic SDP's one family, or any
    input-independent strategy such as the honest device.
    """

    operators: np.ndarray  # complex, shape (n_f, n_o, n_o, d, d), [f, x, e]; n_f = 1 or n_s

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 5 or ops.shape[1] != ops.shape[2] or ops.shape[3] != ops.shape[4]:
            raise ValueError("operators must have shape (n_f, n_o, n_o, d, d)")
        object.__setattr__(self, "operators", ops)

    @classmethod
    def from_solution(cls, scenario: Scenario, sol: SdpSolution) -> "EffectiveStrategy":
        """Recover complex operators from the primal blocks.

        Re-derives the outcome faces and the copy group from the scenario
        (build_sdp is deterministic) and expands each compressed Hermitian
        block S back to the full space as V S V^dag; sol must solve the
        exact problem (relax = 0), whose faces those are, and a solution
        whose blocks are not one per orbit, each of its face's rank, raises
        ValueError. Each block X_k stands for an orbit of the group (itself
        under the order-1 group) and is spread over it as M_b = (1/|G|)
        sum_{g: g.k = b} U_g V X_k V^dag U_g^dag: the expanded blocks, in a
        zero operator tensor, are summed over S_m along the coset chain
        S_{j+1} = U_{k<=j} (k j) S_j, each (k j) one transpose of the
        copies' digits (_permuted). The strategy has the SDP's families:
        one per input in finite-q, the single shared one in asymptotic mode.
        """
        d, n_o = scenario.dim, scenario.n_outcomes
        n_fam = scenario.n_states if scenario.mode == MODE_FINITE_Q else 1
        faces = face_bases(scenario)
        sym, live, canon = _block_orbits(scenario, faces)
        reps = np.flatnonzero(canon == np.arange(canon.size))
        fs, xs, es = np.unravel_index(reps, (n_fam, len(live), n_o))  # k = (f L + x') n_o + e
        sizes, ranks = [len(blk) for blk in sol.x_blocks], [faces[live[xi]].shape[1] for xi in xs]
        if sizes != ranks:
            k = next((k for k, (s, r) in enumerate(zip(sizes, ranks)) if s != r), None)
            at = "" if k is None else f"; block {k} has size {sizes[k]}, its face rank {ranks[k]}"
            raise ValueError(f"solution has {len(sizes)} blocks, exact problem {len(ranks)}{at}")
        ops = np.zeros((n_fam, n_o, n_o, d, d), dtype=complex)
        for f, xi, e, blk in zip(fs, xs, es, sol.x_blocks):
            v = faces[live[xi]]
            ops[f, live[xi], e] = v @ blk @ v.conj().T
        (n0, o0, d0), m = sym.roots, sym.copies
        roots = (n0 if n_fam > 1 else 1, o0, o0, d0, d0)
        for j in range(1, m):
            swaps = [(*range(k), j, *range(k + 1, j), k, *range(j + 1, m)) for k in range(j)]
            ops = sum((_permuted(ops, roots, p) for p in swaps), ops)
        return cls(ops / math.factorial(m))

    def objective_value(self, scenario: Scenario) -> float:
        """Probability that the guess matches the outcome, weighted as the
        SDP objective weighs it; a single family serves every input."""
        rho = np.stack([s.mat for s in scenario.ensemble.states])
        # per input a: sum_x tr(M_{x,x|a} rho_a), a single family broadcast
        hits = np.einsum("axxij,aji->a", self.operators, rho).real
        if scenario.mode == MODE_FINITE_Q:
            return float(scenario.ensemble.probs @ hits)
        return float(hits[scenario.generation_index - 1])

    def validate(self, scenario: Scenario) -> None:
        """Raise unless all feasibility conditions hold within STRATEGY_TOL;
        the message names the first violating index. The operators hold one
        family per input or a single family that every input shares (its
        index a is then 0); each input's statistics are read from its own
        family or the shared one by broadcasting, with no per-input copy."""
        ops = self.operators
        n_s, n_o, d = scenario.n_states, scenario.n_outcomes, scenario.dim
        if ops.shape[0] not in (1, n_s) or ops.shape[1:] != (n_o, n_o, d, d):
            raise ValueError("strategy shape does not match the scenario")
        finite = np.isfinite(ops).all(axis=(-2, -1))
        ops = np.where(finite[..., None, None], ops, 0.0)  # the first check names them
        eye = np.eye(d)
        guess = ops.sum(axis=1)  # sum over x: [a, e]
        outcome = ops.sum(axis=2)  # sum over e: [a, x]
        rho = np.stack([s.mat for s in scenario.ensemble.states])
        stats = np.einsum("axij,aji->ax", outcome, rho).real

        def dev(m):
            return np.max(np.abs(m), axis=(-2, -1))

        for bad, names, what in (
            (~finite, "axe", "operator is not finite"),
            (min_eigenvalue(ops) < -STRATEGY_TOL, "axe", "operator is not PSD"),
            (dev(guess.sum(axis=1) - eye) > STRATEGY_TOL, "a", "normalization fails"),
            (dev(guess - guess[..., :1, :1] * eye) > STRATEGY_TOL, "ae",
             "guess marginal is not proportional to identity"),
            (dev(outcome - outcome[:1]) > STRATEGY_TOL, "ax",
             "outcome marginal depends on the input"),
            (np.abs(stats - scenario.observed.conditionals) > STRATEGY_TOL, "ax",
             "statistics mismatch"),
        ):
            if bad.any():
                at = ", ".join(f"{n}={i}" for n, i in zip(names, np.argwhere(bad)[0]))
                raise ValueError(f"{what} at ({at})")


def honest_strategy(scenario: Scenario, povm: Povm, eta: float) -> EffectiveStrategy:
    """Feasible strategy for honest statistics mixed with white noise.

    With probability eta the device measures honestly and the guess is an
    independent uniform coin; with probability 1 - eta it outputs uniform
    noise the guesser already knows. Objective value eta/n_o + (1 - eta).
    The device does not depend on the input, so the strategy is one family
    that every input shares.
    """
    if povm.dim != scenario.dim or povm.n_outcomes != scenario.n_outcomes:
        raise ValueError("POVM does not match the scenario")
    n_o, d = scenario.n_outcomes, scenario.dim
    ops = np.repeat((eta / n_o) * np.stack(povm.elements)[None, :, None], n_o, axis=2)  # [f, x, e]
    ops[0, range(n_o), range(n_o)] += ((1.0 - eta) / n_o) * np.eye(d)
    return EffectiveStrategy(ops)
