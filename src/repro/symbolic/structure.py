"""Nonzero structure of the Cholesky factor L.

Computes, for each column j, the sorted row indices of L[:, j] (diagonal
included).  This is the fill-in computation: entries appear either because
A has them or because an outer-product update of a descendant column
introduces them (Figure 1c in the paper).

The recurrence (processed in any topological order of the etree):

    struct(j) = rows(A lower, col j)  ∪  { union over children c of j of
                 struct(c) \\ {c} }

Complexity is O(nnz(L)) unions of sorted arrays; memory is O(nnz(L)).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import etree_children


def column_structures(
    matrix: CSCMatrix, parent: np.ndarray
) -> list[np.ndarray]:
    """Per-column sorted row-index structure of L (diagonal included).

    Args:
        matrix: square matrix with symmetric pattern (only the lower
            triangle is read).
        parent: elimination tree parent array for the same matrix.
    """
    n = matrix.n_cols
    children = etree_children(parent)
    structs: list[np.ndarray | None] = [None] * n
    # Columns in increasing order: children have smaller indices than
    # parents in an etree, so this is a valid topological order.
    for j in range(n):
        rows = matrix.col_rows(j)
        pieces = [rows[rows >= j]]
        if not len(pieces[0]) or pieces[0][0] != j:
            # Ensure the diagonal is present even if A(j, j) is absent.
            pieces.insert(0, np.array([j], dtype=np.int64))
        for c in children[j]:
            child = structs[c]
            pieces.append(child[child > c])
        if len(pieces) == 1:
            structs[j] = pieces[0].astype(np.int64, copy=True)
        else:
            structs[j] = sorted_union(pieces)
    return structs  # type: ignore[return-value]


def sorted_union(pieces: list[np.ndarray]) -> np.ndarray:
    """Sorted union of index arrays: ``np.unique`` of their
    concatenation, without its per-call overhead (this runs once per
    column and once per supernode merge)."""
    merged = np.concatenate(pieces)
    merged.sort()
    keep = np.empty(len(merged), dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def column_counts(matrix: CSCMatrix, parent: np.ndarray) -> np.ndarray:
    """nnz of each column of L (including the diagonal)."""
    return np.array(
        [len(s) for s in column_structures(matrix, parent)], dtype=np.int64
    )


def factor_nnz(matrix: CSCMatrix, parent: np.ndarray) -> int:
    """Total nonzeros of L — the fill-in headline number.

    The paper notes L typically has 10-150x the nonzeros of A; tests use
    this to verify orderings actually reduce fill.
    """
    return int(column_counts(matrix, parent).sum())


def cholesky_flops_from_counts(counts: np.ndarray) -> int:
    """Exact FLOP count of sparse Cholesky from column counts.

    Column j with c = counts[j] nonzeros (incl. diagonal) costs:
      1 sqrt + (c-1) divides + (c-1) * c multiply-subtract pairs
    for the outer-product update, i.e. 1 + (c-1) + (c-1)*c flops.
    """
    c = counts.astype(np.int64)
    return int(np.sum(1 + (c - 1) + (c - 1) * c))


def lu_flops_from_counts(counts: np.ndarray) -> int:
    """FLOP count of sparse LU on a symmetric-pattern factorization.

    With static pivoting and symmetric structure, LU does roughly twice the
    Cholesky work (Section 2.4): the U part mirrors L.
    Column j costs (c-1) divides + 2 * (c-1)^2 update flops.
    """
    c = counts.astype(np.int64) - 1
    return int(np.sum(c + 2 * c * c))
