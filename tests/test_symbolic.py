"""Tests for fill structures, supernodes, assembly trees, and the
one-call symbolic factorization."""

import numpy as np
import pytest

from repro.sparse import grid_laplacian_2d
from repro.sparse.csc import CSCMatrix
from repro.symbolic import symbolic_factorize
from repro.symbolic.etree import elimination_tree
from repro.symbolic.structure import (
    cholesky_flops_from_counts,
    column_counts,
    column_structures,
    factor_nnz,
    lu_flops_from_counts,
    sorted_union,
)
from repro.symbolic.supernodes import find_supernodes


def dense_chol_pattern(dense):
    """Ground-truth fill pattern via brute-force symbolic elimination."""
    n = dense.shape[0]
    pattern = dense != 0
    np.fill_diagonal(pattern, True)
    for k in range(n):
        below = np.nonzero(pattern[k + 1:, k])[0] + k + 1
        pattern[np.ix_(below, below)] = True
    return np.tril(pattern)


class TestColumnStructures:
    @pytest.mark.parametrize(
        "fixture", ["spd_small", "spd_medium", "spd_irregular"]
    )
    def test_matches_numeric_fill(self, fixture, request):
        matrix = request.getfixturevalue(fixture)
        parent = elimination_tree(matrix)
        structs = column_structures(matrix, parent)
        pattern = dense_chol_pattern(matrix.to_dense())
        for j, struct in enumerate(structs):
            assert np.array_equal(struct, np.nonzero(pattern[:, j])[0])

    def test_structures_sorted_and_start_at_diagonal(self, spd_medium):
        parent = elimination_tree(spd_medium)
        for j, s in enumerate(column_structures(spd_medium, parent)):
            assert s[0] == j
            assert np.all(np.diff(s) > 0)

    def test_counts_consistent(self, spd_medium):
        parent = elimination_tree(spd_medium)
        counts = column_counts(spd_medium, parent)
        structs = column_structures(spd_medium, parent)
        assert np.array_equal(counts, [len(s) for s in structs])
        assert factor_nnz(spd_medium, parent) == counts.sum()

    def test_diagonal_matrix_no_fill(self):
        m = CSCMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        assert factor_nnz(m, elimination_tree(m)) == 3

    def test_fill_monotone_in_pattern(self):
        sparse = grid_laplacian_2d(6, seed=1)
        parent = elimination_tree(sparse)
        base = factor_nnz(sparse, parent)
        # Densify: add one long-range symmetric entry.
        dense = sparse.to_dense()
        dense[0, 30] = dense[30, 0] = -0.5
        richer = CSCMatrix.from_dense(dense)
        assert factor_nnz(richer, elimination_tree(richer)) >= base

    def test_sorted_union_matches_unique(self, rng):
        for size in (1, 2, 7, 40):
            pieces = [np.unique(rng.integers(0, 60, size))
                      for _ in range(3)]
            want = np.unique(np.concatenate(pieces))
            got = sorted_union(pieces)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestFlopFormulas:
    def test_dense_matrix_flops_cubic(self):
        n = 30
        counts = np.arange(n, 0, -1)  # dense lower triangle
        flops = cholesky_flops_from_counts(counts)
        assert abs(flops - n ** 3 / 3) / (n ** 3 / 3) < 0.2

    def test_lu_roughly_double_cholesky(self):
        counts = np.arange(50, 0, -1)
        chol = cholesky_flops_from_counts(counts)
        lu = lu_flops_from_counts(counts)
        assert 1.5 < lu / chol < 2.5

    def test_diagonal_minimal(self):
        counts = np.ones(10, dtype=np.int64)
        assert cholesky_flops_from_counts(counts) == 10  # one sqrt each


class TestSupernodes:
    def _setup(self, matrix, **kw):
        parent = elimination_tree(matrix)
        structs = column_structures(matrix, parent)
        return find_supernodes(parent, structs, **kw), structs

    def test_columns_partitioned(self, spd_medium):
        sns, _ = self._setup(spd_medium)
        covered = np.zeros(spd_medium.n_cols, dtype=bool)
        for sn in sns:
            cols = np.arange(sn.first_col, sn.last_col + 1)
            assert not covered[cols].any()
            covered[cols] = True
        assert covered.all()

    def test_rows_start_with_own_columns(self, spd_medium):
        sns, _ = self._setup(spd_medium)
        for sn in sns:
            assert np.array_equal(
                sn.rows[: sn.n_cols],
                np.arange(sn.first_col, sn.last_col + 1),
            )

    def test_rows_superset_of_structures(self, spd_medium):
        # Amalgamation may add rows but never lose them.
        sns, structs = self._setup(spd_medium)
        for sn in sns:
            for j in range(sn.first_col, sn.last_col + 1):
                local = structs[j]
                assert not len(np.setdiff1d(local, sn.rows,
                                            assume_unique=True))

    def test_parent_links_consistent(self, spd_irregular):
        sns, _ = self._setup(spd_irregular)
        for sn in sns:
            if sn.parent >= 0:
                assert sn.index in sns[sn.parent].children
                assert sn.parent > sn.index
            for c in sn.children:
                assert sns[c].parent == sn.index

    def test_dense_matrix_single_supernode(self):
        dense = np.eye(8) * 10 - np.ones((8, 8)) * 0.5
        sns, _ = self._setup(CSCMatrix.from_dense(dense))
        assert len(sns) == 1
        assert sns[0].n_cols == 8

    def test_diagonal_matrix_all_singletons(self):
        m = CSCMatrix.from_dense(np.diag(np.arange(1.0, 7.0)))
        sns, _ = self._setup(m)
        assert len(sns) == 6
        assert all(sn.front_size == 1 for sn in sns)

    def test_amalgamation_reduces_count(self, spd_medium):
        strict, _ = self._setup(spd_medium, relax_small=0, relax_ratio=0.0)
        relaxed, _ = self._setup(spd_medium, relax_small=16,
                                 relax_ratio=0.5, force_small=32)
        assert len(relaxed) < len(strict)

    def test_force_small_merges_regardless_of_fill(self, spd_small):
        loose, _ = self._setup(spd_small, relax_small=0, relax_ratio=0.0,
                               force_small=spd_small.n_rows)
        strict, _ = self._setup(spd_small, relax_small=0, relax_ratio=0.0)
        assert len(loose) < len(strict)


class TestSymbolicFactorize:
    def test_tree_validates(self, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky")
        sf.tree.validate()

    def test_lu_on_unsymmetric(self, unsym_small):
        sf = symbolic_factorize(unsym_small, kind="lu")
        sf.tree.validate()
        assert sf.kind == "lu"

    def test_rejects_bad_kind(self, spd_small):
        with pytest.raises(ValueError):
            symbolic_factorize(spd_small, kind="qr")

    def test_rejects_rectangular(self):
        m = CSCMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            symbolic_factorize(m)

    def test_explicit_perm_respected(self, spd_small):
        n = spd_small.n_rows
        perm = np.arange(n)[::-1].copy()
        sf = symbolic_factorize(spd_small, perm=perm)
        # Post-order folding may reorder further, but the result must be a
        # valid permutation and a valid analysis.
        assert sorted(sf.perm.tolist()) == list(range(n))
        sf.tree.validate()

    def test_factor_nnz_matches_numeric(self, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky", ordering="amd")
        pattern = dense_chol_pattern(sf.permuted.to_dense())
        assert sf.factor_nnz == int(pattern.sum())

    def test_postordered_supernode_columns_contiguous(self, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky", ordering="amd")
        # After postorder folding, each parent supernode's first column is
        # right after some child's last column (when it has children).
        for sn in sf.tree.supernodes:
            if sn.children:
                assert any(
                    sf.tree.supernodes[c].last_col + 1 == sn.first_col
                    for c in sn.children
                )

    def test_supernode_sizes_and_flops_align(self, spd_medium):
        sf = symbolic_factorize(spd_medium)
        assert len(sf.supernode_sizes()) == sf.n_supernodes
        assert len(sf.supernode_flops()) == sf.n_supernodes
        assert sf.supernode_flops().sum() > 0

    def test_ordering_label_stored(self, spd_small):
        sf = symbolic_factorize(spd_small, ordering="rcm")
        assert sf.ordering == "rcm"
