"""Supernode detection and relaxed amalgamation (Section 2.3).

A *fundamental supernode* is a maximal run of consecutive columns
j, j+1, ..., j+k whose factor structures nest perfectly: each column's
structure is the previous one's minus its own index, and each column is the
etree parent of its predecessor.  The columns of a supernode share one CSQ
frontal matrix (Figure 4).

Pure fundamental supernodes are often tiny on irregular matrices, so like
every real multifrontal package we also perform *relaxed amalgamation*:
a child supernode is merged into its parent when the extra (logically zero)
entries this introduces are below a threshold.  This trades a little extra
compute for much larger, better-structured fronts — and directly shapes the
supernode-size distribution that Figure 6 studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.symbolic.structure import sorted_union


@dataclass
class Supernode:
    """One supernode of the assembly tree.

    Attributes:
        index: position in postorder (0-based; parents follow children).
        first_col / last_col: column range [first_col, last_col] (inclusive).
        rows: sorted row indices of the front, the first ``n_cols`` of which
            are the supernode's own columns (CSQ coordinates, Figure 3).
        parent: index of the parent supernode, or -1 for roots.
        children: indices of child supernodes.
    """

    index: int
    first_col: int
    last_col: int
    rows: np.ndarray
    parent: int = -1
    children: list[int] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        """Number of columns factored in this supernode (N_k in the paper)."""
        return self.last_col - self.first_col + 1

    @property
    def front_size(self) -> int:
        """Rows/cols of the frontal CSQ matrix (|rows|)."""
        return len(self.rows)

    @property
    def n_update_rows(self) -> int:
        """Rows of the update matrix passed to the parent (U_k columns)."""
        return self.front_size - self.n_cols


def _structures_nest(
    prev_struct: np.ndarray, cur_struct: np.ndarray, prev_col: int
) -> bool:
    """True if cur_struct == prev_struct \\ {prev_col}."""
    if len(cur_struct) != len(prev_struct) - 1:
        return False
    return bool(np.array_equal(cur_struct, prev_struct[1:]))


def find_supernodes(
    parent: np.ndarray,
    structs: list[np.ndarray],
    relax_small: int = 8,
    relax_ratio: float = 0.3,
    force_small: int = 0,
) -> list[Supernode]:
    """Partition columns into supernodes and build the assembly forest.

    Args:
        parent: elimination-tree parent array.
        structs: per-column L structures from
            :func:`repro.symbolic.structure.column_structures`.
        relax_small: child supernodes with at most this many columns are
            candidates for amalgamation into their parent.
        relax_ratio: a merge is accepted when the fraction of logically-zero
            entries it introduces into the merged front stays below this.
        force_small: merges whose combined front stays at or below this size
            are always accepted (packages do this to avoid fronts smaller
            than the hardware's natural panel width — Spatula's tile).

    Returns:
        supernodes in postorder (children precede parents), with parent /
        children links filled in.
    """
    n = len(parent)
    if n == 0:
        return []

    # Step 1: fundamental supernodes — consecutive-column runs.
    sn_of_col = np.empty(n, dtype=np.int64)
    starts: list[int] = [0]
    sn_of_col[0] = 0
    for j in range(1, n):
        fundamental = (
            parent[j - 1] == j
            and _structures_nest(structs[j - 1], structs[j], j - 1)
        )
        if not fundamental:
            starts.append(j)
        sn_of_col[j] = len(starts) - 1

    n_sn = len(starts)
    ends = [s - 1 for s in starts[1:]] + [n - 1]

    # Step 2: supernode tree. Parent supernode owns the first structure row
    # past this supernode's own columns.
    sn_parent = np.full(n_sn, -1, dtype=np.int64)
    for k in range(n_sn):
        last = ends[k]
        below = structs[last][structs[last] > last]
        if len(below):
            sn_parent[k] = sn_of_col[int(below[0])]

    # Step 3: relaxed amalgamation, processed leaves-to-root. A merge keeps
    # column ranges contiguous only when the child is the supernode
    # immediately preceding its parent's columns; fundamental supernode
    # numbering guarantees child index < parent index but not contiguity,
    # so check it.
    merged = list(range(n_sn))

    def find(k: int) -> int:
        while merged[k] != k:
            merged[k] = merged[merged[k]]
            k = merged[k]
        return k

    sn_cols = {k: (starts[k], ends[k]) for k in range(n_sn)}
    sn_rows = {k: structs[starts[k]].copy() for k in range(n_sn)}
    parents = sn_parent.tolist()
    # A merge test depends only on the two roots' column ranges and rows,
    # which change only when a root absorbs a child (its version bumps),
    # so a rejected (child root, parent root) pair stays rejected until
    # then.
    version = [0] * n_sn
    rejected: set[tuple[int, int, int, int]] = set()

    # Merges cascade (absorbing the last child makes the previous sibling
    # column-contiguous), so iterate to a fixpoint.  A supernode already
    # in its parent's group stays there, so later passes skip it.
    active = [k for k in range(n_sn) if parents[k] >= 0]
    changed = True
    while changed:
        changed = False
        pending = []
        for k in active:
            root_k = find(k)
            root_p = find(parents[k])
            if root_p == root_k:
                continue
            pending.append(k)
            c0, c1 = sn_cols[root_k]
            p0, p1 = sn_cols[root_p]
            if c1 + 1 != p0:
                continue  # not column-contiguous; cannot merge into one CSQ
            key = (root_k, root_p, version[root_k], version[root_p])
            if key in rejected:
                continue
            rows_k, rows_p = sn_rows[root_k], sn_rows[root_p]
            # The union is at least as long as either side, so a wide
            # child can only be forced when both fronts fit force_small.
            if (c1 - c0 + 1 > relax_small
                    and max(len(rows_k), len(rows_p)) > force_small):
                rejected.add(key)
                continue
            merged_rows = sorted_union([rows_k, rows_p])
            forced = len(merged_rows) <= force_small
            if not forced and c1 - c0 + 1 > relax_small:
                rejected.add(key)
                continue
            exact = _front_entries(len(rows_k)) + _front_entries(len(rows_p))
            relaxed = _front_entries(len(merged_rows))
            if (not forced and relaxed > 0
                    and (relaxed - exact) / relaxed > relax_ratio):
                rejected.add(key)
                continue
            # Accept the merge: child absorbs into parent representative.
            merged[root_k] = root_p
            version[root_p] += 1
            sn_cols[root_p] = (c0, p1)
            sn_rows[root_p] = merged_rows
            del sn_cols[root_k], sn_rows[root_k]
            changed = True
        active = pending

    # Step 4: renumber surviving supernodes in column order (still a valid
    # postorder-compatible order because children columns precede parents'),
    # and rebuild tree links.
    survivors = sorted(sn_cols, key=lambda k: sn_cols[k][0])
    supernodes: list[Supernode] = []
    col_to_sn = np.empty(n, dtype=np.int64)
    for new, old in enumerate(survivors):
        c0, c1 = sn_cols[old]
        col_to_sn[c0:c1 + 1] = new
        supernodes.append(
            Supernode(index=new, first_col=c0, last_col=c1, rows=sn_rows[old])
        )
    for sn in supernodes:
        below = sn.rows[sn.rows > sn.last_col]
        if len(below):
            sn.parent = int(col_to_sn[int(below[0])])
            supernodes[sn.parent].children.append(sn.index)
    return supernodes


def _front_entries(front_size: int) -> int:
    """Lower-triangle entry count of a front, the amalgamation cost metric."""
    return front_size * (front_size + 1) // 2
