"""Dimension formulas and a dense Gauss-Jordan oracle that only the tests
use; the formulas run on the dict Echelon, the oracle on none of it."""

from entrolen.exact_linalg import _descending, _same_field, Echelon, Subspace


def span_dim(field, vectors) -> int:
    return Echelon(field, vectors).dim


def quotient_dim(U: Subspace, W: Subspace) -> int:
    """dim((U + W) / W) = dim(U + W) - dim(W)."""
    _same_field(U, W)
    return Echelon(U.field, _descending(W.rows) + _descending(U.rows)).dim - W.dim


def gauss_jordan(field, vectors) -> dict:
    """The reduced row echelon form of the span of sparse vectors, as
    pivot label -> row, by textbook Gauss-Jordan elimination on the dense
    matrix whose columns are the sorted labels."""
    labels = sorted({lbl for vec in vectors for lbl in vec})
    matrix = [[vec.get(lbl, field.zero) for lbl in labels] for vec in vectors]
    pivots = []
    for col in range(len(labels)):
        r = len(pivots)
        pick = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[r], matrix[pick] = matrix[pick], matrix[r]
        inv = field.inv(matrix[r][col])
        matrix[r] = [field.mul(inv, a) for a in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[col]:
                f = row[col]
                matrix[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(row, matrix[r])]
        pivots.append(col)
    return {
        labels[col]: {labels[j]: a for j, a in enumerate(row) if a}
        for col, row in zip(pivots, matrix)
    }


def normal_form(field, rref: dict, vec: dict) -> dict:
    """vec minus, for each pivot, vec's coefficient there times its reduced
    row: the representative of vec's coset with no entry at any pivot."""
    labels = sorted(set(vec).union(*rref.values()))
    dense = {lbl: vec.get(lbl, field.zero) for lbl in labels}
    for piv, row in rref.items():
        c = vec.get(piv, field.zero)
        for lbl in labels:
            dense[lbl] = field.sub(dense[lbl], field.mul(c, row.get(lbl, field.zero)))
    return {lbl: a for lbl, a in dense.items() if a}
