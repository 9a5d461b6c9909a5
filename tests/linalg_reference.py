"""Dimension formulas that only the tests use, over the dict Echelon."""

from entrolen.exact_linalg import _descending, _same_field, Echelon, Subspace


def span_dim(field, vectors) -> int:
    return Echelon(field, vectors).dim


def quotient_dim(U: Subspace, W: Subspace) -> int:
    """dim((U + W) / W) = dim(U + W) - dim(W)."""
    _same_field(U, W)
    return Echelon(U.field, _descending(W.rows) + _descending(U.rows)).dim - W.dim
