"""Reference versions of two reconstruction systems, kept as differential
oracles for the faster code in `path_algebra` and `reconstruct`.

Both solve one dense system with `kernel_basis_oracle` and touch the
algebra only through its structure constants (`product_indices`), module
bases and idempotents.
"""

from quivertt.linalg import Matrix

from linalg_oracles import kernel_basis_oracle


def _right_mult_rows(alg, n, elem):
    """Rows of the matrix of x -> x * elem on M_n, in module basis order."""
    field = alg.field
    mb_n = alg.module_basis(n)
    pos_n = {gi: k for k, gi in enumerate(mb_n)}
    rows = [[field.zero] * len(mb_n) for _ in mb_n]
    for j, c in elem.items():
        if not c:
            continue
        for k, gi in enumerate(mb_n):
            for gk, x in alg.product_indices(gi, j).items():
                rows[pos_n[gk]][k] = rows[pos_n[gk]][k] + c * x
    return rows


def module_hom_space_oracle(alg, n, m):
    """Basis of right-module maps M_m -> M_n: the kernel of Lambda -> M_m
    gives every relation of the generator, all of their constraint rows
    are stacked into one matrix, and its kernel holds the admissible
    images of the generator."""
    field = alg.field
    mb_m = alg.module_basis(m)
    dm, dn = len(mb_m), len(alg.module_basis(n))
    pos_m = {gi: k for k, gi in enumerate(mb_m)}

    e_m = alg.idempotent_index[m]
    cols = []
    for j in range(alg.dim):
        col = [field.zero] * dm
        for gi, c in alg.product_indices(e_m, j).items():
            col[pos_m[gi]] = c
        cols.append(col)
    action = Matrix.from_columns(cols, field, rows=dm)

    constraint_rows = []
    for kappa in kernel_basis_oracle(action):
        constraint_rows.extend(_right_mult_rows(alg, n, dict(enumerate(kappa))))
    sys_mat = Matrix.from_rows(constraint_rows, field, cols=dn)

    maps = []
    for v in kernel_basis_oracle(sys_mat):
        fcols = [[sum((a * b for a, b in zip(row, v)), field.zero)
                  for row in _right_mult_rows(alg, n, {gi: field.one})]
                 for gi in mb_m]
        maps.append(Matrix.from_columns(fcols, field, rows=dn))
    return maps


def center_basis_oracle(alg):
    """Basis of the center: solve x * b - b * x = 0 against every basis
    class b."""
    field = alg.field
    d = alg.dim
    rows = []
    for b in range(d):
        blocks = {}   # output basis index -> linear form in the unknowns
        for i in range(d):
            for gi, c in alg.product_indices(i, b).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] + c
            for gi, c in alg.product_indices(b, i).items():
                row = blocks.setdefault(gi, [field.zero] * d)
                row[i] = row[i] - c
        rows.extend(r for r in blocks.values() if any(r))
    vecs = kernel_basis_oracle(Matrix.from_rows(rows, field, cols=d))
    return [{i: v[i] for i in range(d) if v[i]} for v in vecs]
