"""Per-row view of an SdpProblem, for oracles that state a problem row by row."""


def row_maps(p):
    """The objective {block: C_k} and one {block: A_ik} map per row i,
    read back from the group stacks; the padding is skipped."""
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

