"""Per-row, per-block and real views of an SdpProblem, for oracles that
state a problem row by row, pack per-block points into its group stacks
or need real symmetric matrices, and the dense Hermitian basis that
mdi's index-pair basis is checked against."""
import numpy as np

from mdirand.sdp_core import SdpProblem


def from_rows(block_dims, objective, constraints, b):
    """Problem from an objective map {block: C_k} and one map
    {block: A_ik} per constraint row i, packed by SdpProblem.from_blocks."""
    if len(constraints) != np.size(b):
        raise ValueError("need one b value per constraint")
    rows = [[i for i, row in enumerate(constraints) if k in row]
            for k in range(len(block_dims))]
    coeffs = [np.array([constraints[i][k] for i in r] or np.zeros((0, s, s)))
              for k, (r, s) in enumerate(zip(rows, block_dims))]
    obj = [objective.get(k) for k in range(len(block_dims))]
    return SdpProblem.from_blocks(block_dims, b, rows, coeffs, obj)


def stack_groups(p, blocks):
    """Per-block list -> one (n_g, s, s) complex stack per size group of p."""
    return [np.stack([blocks[k] for k in g], dtype=complex) for g in p.size_groups]


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


def hermitian_basis(d):
    """The dense (d^2, d, d) Hermitian basis, set entry by entry in the
    order of mdi._basis_pairs: the e_kk, then for each k < l the symmetric
    and the antisymmetric imaginary element; and its d^2 - 1 traceless
    elements, the off-diagonal ones, then e_kk - e_00."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    j = d
    for k in range(d):
        for l in range(k + 1, d):
            basis[j, k, l] = basis[j, l, k] = 1.0
            basis[j + 1, k, l], basis[j + 1, l, k] = 1.0j, -1.0j
            j += 2
    return basis, np.concatenate([basis[d:], basis[1:d] - basis[0]])
