"""Per-row and real views of an SdpProblem, for oracles that state a
problem row by row or need real symmetric matrices."""
import numpy as np


def row_maps(p):
    """The objective {block: C_k} and one {block: A_ik} map per row i,
    read back from the group stacks; padding and dummy slots are skipped."""
    constraints = [{} for _ in range(p.n_constraints)]
    objective = {}
    for g, rows, st, obj in zip(p.size_groups, p.group_rows, p.group_stacks,
                                p.objective_stacks):
        for j, k in enumerate(g):
            objective[k] = obj[j]
            for t, i in enumerate(rows[j]):
                if i < p.n_constraints:
                    constraints[i][k] = st[j, t]
    return objective, constraints


def real_coords(m):
    """The real coordinates of a matrix, real and imaginary parts
    interleaved: Re tr(AB) = real_coords(A) @ real_coords(B) for
    Hermitian A and B."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1)


def real_embed(h):
    """The real embedding [[Re h, -Im h], [Im h, Re h]]: real symmetric for
    Hermitian h, with every eigenvalue of h twice."""
    a, b = np.real(h), np.imag(h)
    return np.block([[a, -b], [b, a]])
