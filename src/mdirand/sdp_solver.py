"""Primal-dual interior-point solver for small block-diagonal SDPs.

Infeasible-start path following with Mehrotra predictor-corrector steps in
the HKM scaling. The iterates X, Z and every direction are held as one
(n_g, s, s) stack per block-size group of the problem, so each step of an
iteration is a few batched numpy/LAPACK calls per group, not one call per
block. The Schur complement S_ij = tr(A_i X A_j Z^-1) is formed densely
by SdpProblem.schur_matrix, the row-product kernel that preprocessing
also uses for its Gram matrix; its chunk budget SCHUR_CHUNK lives in
sdp_core. S is factored by Cholesky; step lengths use
fraction-to-boundary STEP_FRACTION of the exact step to the PSD boundary,
read off one batched eigenvalue call per group. Deterministic: fixed
initialization, fixed reduction order, no randomization anywhere.

The dual value b.y of any y whose slack A*(y) - C is PSD upper-bounds the
primal optimum (weak duality). Every iterate's slack is recomputed from y
and its smallest eigenvalue read with one batched LAPACK eigvalsh per
block-size group. When that eigenvalue is -eps < 0, adding eps times the
certificate direction (multipliers that reproduce the identity on every
block) restores dual feasibility, so b.y + eps * (b . w_identity) is still
an upper bound (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007).
That one rule gives each logged bound and certified_upper_bound, the
smallest of them. It rests on a backward-stable floating-point
eigenvalue, not a verified one; an exact verifier is still open (see
ROADMAP.md).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# not called: the benchmark traces this name; the import goes when
# ROADMAP item 1 drops that span target
from .linalg import jacobi_eigvalsh  # noqa: F401
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


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    relax: float = 0.0          # half-width of the statistics band, 0 = exact
    max_constraints: int = 5000
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.relax < 0:
            raise ValueError("relax must be non-negative")


def _min_eigenvalue(stacks: list[np.ndarray]) -> float:
    """Smallest eigenvalue over all group stacks; nan if an entry is not
    finite.

    One batched LAPACK eigvalsh per stack; each matrix is read from its
    lower triangle.
    """
    try:
        return float(np.min([np.min(np.linalg.eigvalsh(st)) for st in stacks]))
    except np.linalg.LinAlgError:  # non-finite entries
        return math.nan


def _step_length(xs: list[np.ndarray], ds: list[np.ndarray], fraction: float) -> float:
    """min(1, fraction * alpha_max), alpha_max the largest step keeping
    every xs + alpha_max * ds PSD.

    With L = chol(X), alpha_max = 1 / max(0, -lambda_min(L^-1 dX L^-T));
    one batched Cholesky and one batched eigvalsh per group stack.
    Returns 0.0 when a block is not numerically positive definite or the
    direction is not finite.
    """
    try:
        lams = []
        for x, d in zip(xs, ds):
            l_inv = np.linalg.inv(np.linalg.cholesky(x))
            lams.append(np.min(np.linalg.eigvalsh(l_inv @ d @ l_inv.transpose(0, 2, 1))))
        lam = float(np.min(lams))
    except np.linalg.LinAlgError:
        lam = math.nan
    if math.isnan(lam):
        return 0.0
    return min(1.0, fraction / -lam) if lam < 0.0 else 1.0


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.transpose(0, 2, 1))


def _inner(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """Trace inner product summed over group stacks."""
    return sum(float(np.vdot(ag, bg)) for ag, bg in zip(a, b))


def _max_norm(stacks: list[np.ndarray]) -> float:
    """Largest Frobenius norm of any block."""
    return max(float(np.linalg.norm(st, axis=(1, 2)).max()) for st in stacks)


def _dual_slack(p: SdpProblem, y: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The true slack A*(y) - C as group stacks, symmetrized, and its
    smallest eigenvalue.

    The eigenvalue comes from _min_eigenvalue. LAPACK's eigvalsh is
    backward stable: its eigenvalues are exact for some S + E with
    ||E||_2 of order n * u * ||S||_2 (u = 2**-53, n the block size).
    That is not a verified bound.
    """
    slack = [_sym(a - c) for a, c in zip(p.adjoint(y), p.objective_stacks)]
    return slack, _min_eigenvalue(slack)


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

    The returned y is the iterate with the smallest certified bound, and
    certified_upper_bound is that bound, valid whenever finite regardless
    of termination status (it only depends on weak duality plus the
    identity-shift repair). Status reports iterate quality: optimal when
    gap and residuals meet the tolerances, near-optimal within 100x.
    """
    opts = opts or SolverOptions()
    if not p.preprocessed:
        raise ValueError("problem must be preprocessed before solving")
    if p.n_constraints == 0:
        raise ValueError("problem has no constraints")
    if p.n_constraints > opts.max_constraints:
        raise ValueError(
            f"{p.n_constraints} constraints exceed the cap {opts.max_constraints}"
        )

    m = p.n_constraints
    n_total = float(sum(p.block_dims))
    c = p.objective_stacks

    b_scale = 1.0 + float(np.max(np.abs(p.b)))
    x = [b_scale * np.broadcast_to(np.eye(st.shape[1]), st.shape) for st in c]
    z = [xg.copy() for xg in x]
    y = np.zeros(m)
    c_scale = 1.0 + _max_norm(c)

    log: list[IterationRecord] = []
    best: dict | None = None
    bound_best: dict | None = None
    status = NUMERICAL_FAILURE
    stall = 0
    prev_score = math.inf

    def record_best(score: float) -> None:
        nonlocal best
        if best is None or score < best["score"]:
            best = {
                "score": score,
                "x": x,  # iterates are rebound each step, never written in place
                "y": y.copy(),
                "pobj": pobj,
                "rp": rp_inf,
                "rd": rd_norm,
                "gap": dobj - pobj,
            }

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
        rp_inf = float(np.max(np.abs(rp)))
        rd_norm = _max_norm(rd)

        if not (math.isfinite(pobj) and math.isfinite(dobj) and math.isfinite(compl)):
            status = NUMERICAL_FAILURE
            break

        score = max(rel_gap / opts.gap_tol, rp_inf / opts.feas_tol, rd_norm / opts.feas_tol)
        record_best(score)

        try:
            bound = _shifted_bound(p, dobj, min_eig)
        except CertificationError:
            bound = math.nan
        bound_progress = False
        if math.isfinite(bound):
            if bound_best is None or bound < bound_best["value"] - max(
                1e-10, 1e-9 * (1.0 + abs(bound))
            ):
                bound_progress = True
            if bound_best is None or bound < bound_best["value"]:
                bound_best = {"value": bound, "y": y.copy()}

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
            y_norm=float(np.linalg.norm(y)),
            certified_bound=bound,
        ))
        if opts.verbose:
            print(
                f"iter {it:3d}  mu {mu:9.2e}  gap {rel_gap:9.2e}  "
                f"rp {rp_inf:9.2e}  rd {rd_norm:9.2e}  pobj {pobj:+.9e}  "
                f"dobj {dobj:+.9e}  cert {bound:+.9e}",
                file=sys.stderr,
            )

        def _early_status() -> str:
            if bound_best is not None and best is not None and best["score"] < 1e5:
                return NEAR_OPTIMAL
            return NUMERICAL_FAILURE

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
        if it == opts.max_iter:
            status = _early_status()
            break
        if bound_progress or score < 0.97 * prev_score:
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                status = _early_status()
                break
        prev_score = min(prev_score, score)

        # invert Z and assemble the Schur complement S_ij = tr(A_i X A_j Z^-1)
        try:
            zinv = [_sym(np.linalg.inv(zg)) for zg in z]
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        schur = p.schur_matrix(x, zinv)
        schur_sym = 0.5 * (schur + schur.T)
        factor = None
        jitter = 0.0
        base = float(np.mean(np.diag(schur_sym))) or 1.0
        for attempt in range(4):
            try:
                factor = sla.cho_factor(
                    schur_sym + (jitter * base) * np.eye(m) if jitter else schur_sym,
                    lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                jitter = 1e-12 if jitter == 0.0 else jitter * 1e2
        if factor is None:
            status = _early_status()
            break

        def _solve_schur(rhs: np.ndarray) -> np.ndarray:
            # two rounds of iterative refinement against the unjittered
            # matrix recover direction accuracy lost to ill conditioning
            dy = sla.cho_solve(factor, rhs, check_finite=False)
            for _ in range(2):
                resid = rhs - schur_sym @ dy
                if not np.all(np.isfinite(resid)):
                    break
                dy = dy + sla.cho_solve(factor, resid, check_finite=False)
            return dy

        # shared right-hand-side piece <A_i, X Rd Z^-1>
        hxrz = p.apply_constraints([xg @ rg @ zg for xg, rg, zg in zip(x, rd, zinv)])

        # predictor: affine direction (target nu = 0, Rc = -X)
        rhs_aff = hxrz - p.b
        dy_aff = _solve_schur(rhs_aff)
        dz_aff = [ag - rg for ag, rg in zip(p.adjoint(dy_aff), rd)]
        dx_aff = [-xg - _sym(xg @ dg @ zg) for xg, dg, zg in zip(x, dz_aff, zinv)]
        ap_aff = _step_length(x, dx_aff, STEP_FRACTION)
        ad_aff = _step_length(z, dz_aff, STEP_FRACTION)
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
            nu * zg - xg - _sym(dxg @ dzg @ zg)
            for xg, zg, dxg, dzg in zip(x, zinv, dx_aff, dz_aff)
        ]
        rhs = p.apply_constraints(rc) + hxrz - rp
        dy = _solve_schur(rhs)
        dz = [ag - rg for ag, rg in zip(p.adjoint(dy), rd)]
        dx = [rg - _sym(xg @ dg @ zg) for rg, xg, dg, zg in zip(rc, x, dz, zinv)]
        alpha_p = _step_length(x, dx, STEP_FRACTION)
        alpha_d = _step_length(z, dz, STEP_FRACTION)
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            status = _early_status()
            break
        log[-1].step_primal = alpha_p
        log[-1].step_dual = alpha_d
        x = [_sym(xg + alpha_p * dg) for xg, dg in zip(x, dx)]
        z = [_sym(zg + alpha_d * dg) for zg, dg in zip(z, dz)]
        y = y + alpha_d * dy

    assert best is not None
    x_best = best["x"]
    y_out = bound_best["y"] if bound_best is not None else best["y"]
    slack, min_eig = _dual_slack(p, y_out)
    dual_out = float(p.b @ y_out)
    certified = math.nan
    if status != INFEASIBLE:
        try:
            certified = _shifted_bound(p, dual_out, min_eig)
        except CertificationError:
            status = NUMERICAL_FAILURE

    return SdpSolution(
        status=status,
        x_blocks=p.unstack_groups(x_best),
        y=y_out,
        slack_blocks=p.unstack_groups(slack),
        primal_objective=best["pobj"],
        dual_objective=dual_out,
        certified_upper_bound=certified,
        dual_min_eigenvalue=min_eig,
        primal_residual=best["rp"],
        dual_residual=best["rd"],
        duality_gap=best["gap"],
        iterations=log,
    )
