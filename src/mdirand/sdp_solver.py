"""Primal-dual interior-point solver for small block-diagonal SDPs.

Infeasible-start path following with Mehrotra predictor-corrector steps in
the HKM scaling. The iterates X, Z and every direction are held as one
complex Hermitian (n_g, s, s) stack per block-size group of the problem,
so each step of an iteration is a few batched numpy/LAPACK calls per
group, not one call per block (transposes are conjugate transposes). The
Schur complement S_ij = Re tr(A_i X A_j Z^-1) is formed densely, and
symmetric, by SdpProblem.schur_matrix, the row-product kernel that
preprocessing also uses for its Gram matrix; its chunk budget SCHUR_CHUNK
lives in sdp_core. S is an arrow over the problem's row groups (the
guess-marginal rows of each guess, see SdpProblem.arrow): each Newton step
factors it once by block elimination (ArrowPlan.factor: batched LAPACK LU
solves with the diagonal blocks, then the border's Schur complement; an
all-border S is its own factor, not copied), and one Newton-direction
routine applies that factor for the predictor and the corrector, every
solve an LU solve (numpy.linalg.solve), which needs no positive
definiteness: no jitter, no refinement. When LU finds a block or the
border system exactly singular, as the rank-deficient faces of eta = 1
scenarios can make S near the optimum, the direction is the minimum-norm
least-squares solution with the dense S (numpy.linalg.lstsq) and the
iteration goes on; only if that fails too does it end with the best
iterate so far. Each iteration Cholesky-factors the stack [X; Z] of each
group and inverts the factor, one call each; Z^-1 = L^-dag L^-1 comes
from its lower half L_z^-1. Only when that fails is Z factored alone,
to learn which of X and Z is not positive definite. Step lengths use
fraction-to-boundary STEP_FRACTION of the exact step to the PSD
boundary, read off [L_x^-1; L_z^-1] and its conjugate transpose, formed
once per iteration, with one batched eigenvalue call per group for both
steps of a direction. Each block's barrier term carries
the problem's block weight (its multiplicity, one unless the problem was
reduced by a symmetry; see solve).
Deterministic for a fixed BLAS thread count: fixed initialization, fixed
reduction order, no randomization anywhere; a threaded BLAS sums in
another order, which can move an ill-conditioned endgame.

The dual value b.y of any y whose slack A*(y) - C is PSD upper-bounds the
primal optimum (weak duality). Every iterate's slack is recomputed from y
and its smallest eigenvalue read with one batched LAPACK eigvalsh per
block-size group. When that eigenvalue is -eps < 0, adding eps times the
certificate direction (multipliers that reproduce the identity on every
block) restores dual feasibility, so b.y + eps * (b . w_identity) is still
an upper bound (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007).
That one rule gives each logged bound, once per iterate, and
certified_upper_bound is the smallest of them, returned with the logged
iterate it belongs to. It rests on a backward-stable floating-point
eigenvalue, not a verified one; an exact verifier is still open (see
ROADMAP.md).

The certificate and the step lengths read every eigenvalue from
linalg.lowest_eigenvalues, the library's one rule: a slack with a nan
eigenvalue (a non-finite entry, no LAPACK convergence) gives no bound,
and a side of a step with one gets no step.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# not called: the benchmark traces this name; the import goes when
# ROADMAP item 1 drops that span target
from .linalg import jacobi_eigvalsh  # noqa: F401
from .linalg import lowest_eigenvalues
from .sdp_core import (
    INFEASIBLE,
    NEAR_OPTIMAL,
    NUMERICAL_FAILURE,
    OPTIMAL,
    IterationRecord,
    SdpProblem,
    SdpSolution,
)

__all__ = [
    "MAX_CONSTRAINTS",
    "SolverOptions",
    "SolverError",
    "CertificationError",
    "solve",
    "certify_upper_bound",
]


class SolverError(RuntimeError):
    pass


class CertificationError(SolverError):
    pass


STEP_FRACTION = 0.98  # fraction-to-boundary of every primal and dual step
# most constraint rows of a problem (its dense Schur matrix is then 200 MB):
# solve checks its kept rows, mdi.build_sdp its reduced rows before assembly
MAX_CONSTRAINTS = 5000


def check_rows(rows: int, blocks: int, size: int, bound: bool = False) -> None:
    """Raise ValueError, naming the rows, the blocks and the largest block
    size, when the rows (at least rows, if bound) exceed MAX_CONSTRAINTS."""
    if rows > MAX_CONSTRAINTS:
        raise ValueError(f"{'at least ' * bound}{rows} constraint rows on {blocks} blocks of "
                         f"size up to {size} exceed the cap {MAX_CONSTRAINTS}")


@dataclass(frozen=True)
class SolverOptions:
    """The settings of one solve, each one a command-line flag of `rate`
    and `sweep` (see cli); the size cap is MAX_CONSTRAINTS, not a
    setting."""

    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    relax: float = 0.0          # half-width of the statistics band, 0 = exact
    verbose: bool = False

    def __post_init__(self) -> None:
        for name in ("gap_tol", "feas_tol", "relax"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)})")
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.relax < 0 or self.max_iter < 0:
            raise ValueError("relax and max_iter must be non-negative")


@dataclass(frozen=True)
class _Iterate:
    """A logged iterate that solve may return. Its arrays are rebound each
    step, never written in place, so they are kept without a copy."""

    index: int
    x: list[np.ndarray]
    y: np.ndarray
    slack: list[np.ndarray]
    min_eig: float


def _inverse_cholesky(stacks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """(L^-1, L^-dag) for L = chol(X) of every group stack; None when a
    block is not numerically positive definite."""
    try:
        l_inv = [np.linalg.inv(np.linalg.cholesky(st)) for st in stacks]
    except np.linalg.LinAlgError:
        return None
    return [(li, li.conj().transpose(0, 2, 1)) for li in l_inv]


def _step_lengths(l_inv: list[tuple[np.ndarray, np.ndarray]],
                  sides: list[list[np.ndarray]]) -> list[float]:
    """min(1, STEP_FRACTION * alpha_max) for each side, alpha_max the
    largest step keeping every X + alpha_max * dX PSD, from one
    lowest_eigenvalues call per group for all sides.

    alpha_max = 1 / max(0, -lambda_min(L^-1 dX L^-dag)) for X = L L^dag.
    sides lists the directions dX, each one stack per group; l_inv[g] is
    _inverse_cholesky's (L^-1, L^-dag) of every side's group g stacked in
    the same order, as the solver factors [X; Z] once per iteration. A side with a nan eigenvalue gets 0.0 and
    leaves the other sides' steps as they are.
    """
    lam = np.inf
    for (li, lh), *ds in zip(l_inv, *sides):
        prod = li @ np.concatenate(ds) @ lh
        lam = np.minimum(lam, lowest_eigenvalues(prod).reshape(len(sides), -1).min(axis=1))
    return [0.0 if math.isnan(v) else min(1.0, STEP_FRACTION / -v) if v < 0.0 else 1.0
            for v in lam.tolist()]


def _sym(m: np.ndarray) -> np.ndarray:
    """Hermitian part of every matrix of the stack."""
    return 0.5 * (m + m.conj().transpose(0, 2, 1))


def _inner(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """Trace inner product Re tr(AB) summed over Hermitian group stacks."""
    return sum(float(np.vdot(ag, bg).real) for ag, bg in zip(a, b))


def _max_norm(stacks: list[np.ndarray]) -> float:
    """Largest Frobenius norm of any block, by the expression
    numpy.linalg.norm evaluates for it, without the wrapper."""
    return math.sqrt(max(float((st.conj() * st).real.sum(axis=(1, 2)).max()) for st in stacks))


def _dual_slack(p: SdpProblem, y: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The true slack A*(y) - C as group stacks, Hermitian part, and its
    smallest eigenvalue, nan if any block's is.

    LAPACK's eigvalsh (linalg.lowest_eigenvalues) is backward stable: its
    eigenvalues are exact for some S + E with ||E||_2 of order
    n * u * ||S||_2 (u = 2**-53, n the block size), not a verified bound.
    """
    slack = [_sym(a - c) for a, c in zip(p.adjoint(y), p.objective_stacks)]
    return slack, float(np.concatenate([lowest_eigenvalues(st) for st in slack]).min())


def _shifted_bound(p: SdpProblem, dual: float, min_eig: float) -> float:
    """Upper bound from a dual value b.y and its slack's smallest eigenvalue.

    If min_eig is -eps < 0, the multipliers of the identity-reproducing
    direction are shifted by eps, which is only possible when
    preprocessing found that direction. Refuses when eps > 1e-4 or when
    b.y or min_eig is not finite.
    """
    if not (math.isfinite(dual) and math.isfinite(min_eig)):
        raise CertificationError(
            f"cannot certify dual value {dual} with slack eigenvalue {min_eig}"
        )
    eps = max(0.0, -min_eig)
    if eps == 0.0:
        return dual
    if eps > 1e-4:
        raise CertificationError(
            f"dual slack eigenvalue {-eps:.3e} too negative to certify"
        )
    if p.cert_vector is None:
        raise CertificationError(
            "identity direction unavailable; cannot repair dual infeasibility"
        )
    return dual + eps * p.cert_b


def certify_upper_bound(p: SdpProblem, sol: SdpSolution) -> float:
    """Hard upper bound on the primal optimum from the dual iterate of sol.

    Recomputes the true slack A*(y) - C and shifts b.y along the identity
    direction by its negative part, as solve does for every iterate.
    """
    _, min_eig = _dual_slack(p, sol.y)
    return _shifted_bound(p, float(p.b @ sol.y), min_eig)


def solve(p: SdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Maximize the problem objective; always returns a solution record.

    The returned fields are those of two logged iterates, kept by the loop
    and not recomputed. The best-score iterate (score: the largest ratio
    of its relative gap and residuals to their tolerances) gives x, the
    primal objective, the residuals and the gap. The iterate with the
    smallest certified bound gives y, the slack and its smallest
    eigenvalue, the dual objective and certified_upper_bound, valid
    whenever finite regardless of status (it rests only on weak duality
    plus the identity-shift repair); with no certified bound they are the
    best-score iterate's and the bound is nan. Status: optimal when gap
    and residuals meet the tolerances and some bound was certified (else
    numerical-failure), infeasible-detected (bound nan) when the primal
    residual or the bound diverges. The iteration cap, a 12-step stall, a
    failed Cholesky factorization of Z, a failed least-squares direction
    and vanishing steps stop the loop; the status is then near-optimal if
    some bound was certified and the best score is below 1e5, else
    numerical-failure.

    The barrier weighs block k by its weight w_k (p.group_weights): the
    start is X_k = w_k b_scale I and Z_k = b_scale I, mu = <X, Z> / n with
    n = sum_k w_k s_k, and the centering target is X_k Z_k = nu w_k I. A
    block that stands for the sum of w_k symmetric copies so follows their
    central path; unit weights are the plain barrier. A problem with no
    constraint or more than MAX_CONSTRAINTS raises ValueError.
    """
    opts = opts or SolverOptions()
    if not p.preprocessed:
        raise ValueError("problem must be preprocessed before solving")
    if p.n_constraints == 0:
        raise ValueError("problem has no constraints")
    check_rows(p.n_constraints, p.n_blocks, max(p.block_dims))

    m = p.n_constraints
    c = p.objective_stacks
    # block weights w_k: the barrier term of block k is w_k log det X_k
    w = [wg[:, None, None] for wg in p.group_weights]
    n_total = float(sum(float(wg.sum()) * st.shape[1] for wg, st in zip(w, c)))

    b_scale = 1.0 + float(np.max(np.abs(p.b)))
    z = [b_scale * np.broadcast_to(np.eye(st.shape[1], dtype=st.dtype), st.shape) for st in c]
    x = [wg * zg for wg, zg in zip(w, z)]
    y = np.zeros(m)
    c_scale = 1.0 + _max_norm(c)

    log: list[IterationRecord] = []
    best: _Iterate | None = None  # the best score so far
    best_score = math.inf
    bound_best: _Iterate | None = None  # the smallest certified bound so far
    status: str | None = None  # set by the exits that decide it; the others just break
    stall = 0

    for it in range(opts.max_iter + 1):
        rp = p.b - p.apply_constraints(x)
        slack, min_eig = _dual_slack(p, y)
        rd = [zg - sg for zg, sg in zip(z, slack)]
        pobj = _inner(c, x)
        dobj = float(p.b @ y)
        compl = _inner(x, z)
        mu = compl / n_total
        denom = 1.0 + abs(pobj) + abs(dobj)
        rel_gap = max(compl, abs(dobj - pobj)) / denom
        rp_inf = float(np.abs(rp).max())
        rd_norm = _max_norm(rd)

        if not (math.isfinite(pobj) and math.isfinite(dobj) and math.isfinite(compl)):
            status = NUMERICAL_FAILURE
            break

        here = _Iterate(len(log), x, y, slack, min_eig)
        score = max(rel_gap / opts.gap_tol, rp_inf / opts.feas_tol, rd_norm / opts.feas_tol)
        score_progress = score < 0.97 * best_score  # against the earlier iterates
        if best is None or score < best_score:
            best, best_score = here, score

        try:
            bound = _shifted_bound(p, dobj, min_eig)
        except CertificationError:
            bound = math.nan
        bound_progress = False
        if math.isfinite(bound):
            least = math.inf if bound_best is None else log[bound_best.index].certified_bound
            bound_progress = bound < least - max(1e-10, 1e-9 * (1.0 + abs(bound)))
            if bound < least:
                bound_best = here

        log.append(IterationRecord(
            iteration=it,
            mu=mu,
            primal_objective=pobj,
            dual_objective=dobj,
            complementarity=compl,
            rel_gap=rel_gap,
            primal_residual=rp_inf,
            dual_residual=rd_norm,
            step_primal=0.0,
            step_dual=0.0,
            x_norm=_max_norm(x),
            y_norm=math.sqrt(y.dot(y)),  # numpy.linalg.norm(y)
            certified_bound=bound,
        ))
        if opts.verbose:
            print(
                f"iter {it:3d}  mu {mu:9.2e}  gap {rel_gap:9.2e}  "
                f"rp {rp_inf:9.2e}  rd {rd_norm:9.2e}  pobj {pobj:+.9e}  "
                f"dobj {dobj:+.9e}  cert {bound:+.9e}",
                file=sys.stderr,
            )

        if rel_gap < opts.gap_tol and rp_inf < opts.feas_tol and rd_norm < opts.feas_tol:
            status = OPTIMAL
            break
        if rp_inf > 1e8 * b_scale:
            status = INFEASIBLE
            break
        if math.isfinite(bound) and bound < -1e10 * c_scale * max(1.0, b_scale):
            # certified bound diverging below any plausible optimum: the
            # dual is following an unbounded improving ray, the standard
            # signature of an infeasible primal
            status = INFEASIBLE
            break
        stall = 0 if bound_progress or score_progress else stall + 1
        if it == opts.max_iter or stall >= 12:
            break

        # factor [X; Z] once per group. When that fails, X or Z is not
        # numerically positive definite: Z alone tells which; if Z, there is
        # no Newton step, if X, no primal step. Z^-1 = L^-dag L^-1 from
        # Z = L L^dag, then the Schur complement S_ij = Re tr(A_i X A_j Z^-1),
        # factored once for both directions
        l_inv = _inverse_cholesky([np.concatenate(xz) for xz in zip(x, z)])
        dual_only = l_inv is None
        if dual_only and (l_inv := _inverse_cholesky(z)) is None:
            break
        zinv = [_sym(lh[-len(zg):] @ li[-len(zg):]) for (li, lh), zg in zip(l_inv, z)]
        schur = p.schur_matrix(x, zinv)
        try:
            schur_lu = p.arrow.factor(schur)
        except np.linalg.LinAlgError:  # a block or the border exactly singular for LU
            schur_lu = None

        def direction(rc, rhs):
            """Newton direction for centering residual rc and Schur
            right-hand side rhs, with its primal and dual step lengths."""
            try:
                dy = None if schur_lu is None else schur_lu.solve(rhs)
            except np.linalg.LinAlgError:
                dy = None
            if dy is None:  # the factor or its solve failed: least squares with S
                dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            dz = [ag - rg for ag, rg in zip(p.adjoint(dy), rd)]
            dx = [rg - _sym(xg @ dg @ zg) for rg, xg, dg, zg in zip(rc, x, dz, zinv)]
            if dual_only:
                return dx, dy, dz, 0.0, _step_lengths(l_inv, [dz])[0]
            return dx, dy, dz, *_step_lengths(l_inv, [dx, dz])

        # shared right-hand-side piece <A_i, X Rd Z^-1>
        hxrz = p.apply_constraints([xg @ rg @ zg for xg, rg, zg in zip(x, rd, zinv)])
        try:
            # predictor: affine direction (target nu = 0, Rc = -X)
            dx_aff, _, dz_aff, ap_aff, ad_aff = direction([-xg for xg in x], hxrz - p.b)
            mu_aff = _inner(
                [xg + ap_aff * dg for xg, dg in zip(x, dx_aff)],
                [zg + ad_aff * dg for zg, dg in zip(z, dz_aff)],
            ) / n_total
            sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3)) if mu > 0 else 1e-8
            # late-stage safeguard: keep the barrier from collapsing while the
            # residuals are still the dominant error, otherwise degenerate
            # problems freeze with tiny mu and a stuck duality gap
            if rel_gap < 1e-2:
                infeas_rel = max(rp_inf / b_scale, rd_norm / c_scale)
                if infeas_rel > mu:
                    sigma = max(sigma, 0.9)
                elif infeas_rel > 0.1 * mu:
                    sigma = max(sigma, 0.5)
            nu = sigma * mu
            # corrector with Mehrotra second-order term
            rc = [
                (nu * wg) * zg - xg - _sym(dxg @ dzg @ zg)
                for xg, zg, dxg, dzg, wg in zip(x, zinv, dx_aff, dz_aff, w)
            ]
            dx, dy, dz, alpha_p, alpha_d = direction(rc, p.apply_constraints(rc) + hxrz - rp)
        except np.linalg.LinAlgError:  # the least-squares solve failed too
            break
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            break
        log[-1].step_primal = alpha_p
        log[-1].step_dual = alpha_d
        x = [_sym(xg + alpha_p * dg) for xg, dg in zip(x, dx)]
        z = [_sym(zg + alpha_d * dg) for zg, dg in zip(z, dz)]
        y = y + alpha_d * dy
        del schur_lu  # its blocks and border go before the next S is formed

    assert best is not None
    if status is None:  # cap, stall, Z not PD, failed direction or vanishing steps
        near = bound_best is not None and best_score < 1e5
        status = NEAR_OPTIMAL if near else NUMERICAL_FAILURE
    elif status == OPTIMAL and bound_best is None:  # no iterate's bound was certified
        status = NUMERICAL_FAILURE
    out = best if bound_best is None else bound_best
    rec, out_rec = log[best.index], log[out.index]
    certified = math.nan if status == INFEASIBLE else out_rec.certified_bound

    return SdpSolution(
        status=status,
        x_blocks=p.unstack_groups(best.x),
        y=out.y,
        slack_blocks=p.unstack_groups(out.slack),
        primal_objective=rec.primal_objective,
        dual_objective=out_rec.dual_objective,
        certified_upper_bound=certified,
        dual_min_eigenvalue=out.min_eig,
        primal_residual=rec.primal_residual,
        dual_residual=rec.dual_residual,
        duality_gap=rec.dual_objective - rec.primal_objective,
        iterations=log,
    )
