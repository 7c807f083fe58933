"""Quotient-graph approximate minimum degree ordering (AMD).

This is the ordering family packages like CHOLMOD use by default.  We
implement the quotient-graph formulation with Amestoy-Davis-Duff
approximate degrees: eliminated vertices become *elements*; a variable's
adjacency is its remaining direct neighbors plus the union of the
variables of its adjacent elements.

The degree of a neighbor u of the pivot p is estimated as

    d(u) = |direct vars| + |L_p \\ u| + sum over elements e of |L_e \\ L_p|

where the overlap |L_e intersect L_p| is computed for all touched elements
in one counting pass (the "w" trick of the AMD paper).  This is exact when
u's elements overlap only through L_p — the common case — and an upper
bound otherwise, which is what makes AMD fast *and* high-quality on mesh
problems.  Elements fully covered by L_p are absorbed.  Indistinguishable
variables are merged into supervariables (weighted by member count), which
also seeds good supernodes.

Hub/dense vertices are deferred to the end of the ordering (the standard
dense-row guard), which matters for the power-law circuit matrices in the
evaluation suite.

Element sizes are maintained, never recomputed.  Invariant: for every
live element e, ``esz[e]`` is the total weight of the *alive* variables
in ``elem_vars[e]``.  It is set to ``|L_p|`` (by weight) when element p
is formed, loses ``weight[v]`` in each element of a variable v deferred
as dense, and is dropped with the element when it is absorbed.  A
supervariable merge leaves it unchanged: the absorbed variable and its
twin share the same elements, and the twin takes over its weight.
Variables only leave elements by these routes (elimination absorbs every
element of the pivot), so the invariant holds at every counting pass.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ordering.graph import pattern_graph
from repro.sparse.csc import CSCMatrix


def minimum_degree(matrix: CSCMatrix,
                   dense_threshold: float = 0.5) -> np.ndarray:
    """Compute an approximate-minimum-degree permutation.

    Args:
        matrix: the matrix to order; its symmetrized pattern is used.
        dense_threshold: variables whose degree exceeds this fraction of the
            remaining vertices are deferred to the end (the usual "dense
            row" guard against hub vertices).

    Returns:
        perm mapping new index -> old index.
    """
    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("minimum degree requires a square matrix")
    indptr, indices = pattern_graph(matrix)

    var_nbrs: list[set[int]] = [
        set(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(n)
    ]
    elem_nbrs: list[set[int]] = [set() for _ in range(n)]
    elem_vars: dict[int, set[int]] = {}
    esz: dict[int, int] = {}  # live element -> alive weight of its vars
    weight = [1] * n  # supervariable member counts
    members: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n
    degree = [len(s) for s in var_nbrs]

    # Heap keys degree * n + v order exactly like (degree, v) tuples and
    # compare faster.  Entries go stale when a degree changes; a popped
    # key counts only if it matches the vertex's current degree.
    heap = [degree[v] * n + v for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    deferred: list[tuple[int, int]] = []
    remaining = n

    while remaining > 0:
        entry = None
        while heap:
            deg, v = divmod(heapq.heappop(heap), n)
            if alive[v] and deg == degree[v]:
                entry = (deg, v)
                break
        if entry is None:
            live = [u for u in range(n) if alive[u]]
            if not live:
                break
            heap = [degree[u] * n + u for u in live]
            heapq.heapify(heap)
            continue
        deg, v = entry
        if remaining > 32 and deg > dense_threshold * remaining:
            alive[v] = False
            deferred.append((deg, v))
            remaining -= len(members[v])
            wv = weight[v]
            for e in elem_nbrs[v]:
                esz[e] -= wv
            continue

        # Form element p = v: its variables are v's full adjacency.
        adj = set(var_nbrs[v])
        for e in elem_nbrs[v]:
            adj |= elem_vars[e]
        adj.discard(v)
        adj = {u for u in adj if alive[u]}

        alive[v] = False
        order.extend(members[v])
        remaining -= len(members[v])
        elem_vars[v] = adj
        absorbed = set(elem_nbrs[v])
        for e in absorbed:
            elem_vars.pop(e, None)
            esz.pop(e, None)
        # Amestoy's counting pass (the "w" trick), fused with the
        # quotient-graph update: ext_of[e] = |L_e \ L_p| for every
        # element touched by L_p, from the maintained element sizes.
        ext_of: dict[int, int] = {}
        adj_weight = 0
        for u in adj:
            wu = weight[u]
            adj_weight += wu
            eu = elem_nbrs[u]
            eu -= eu & absorbed
            for e in eu:
                if e in ext_of:
                    ext_of[e] -= wu
                else:
                    ext_of[e] = esz[e] - wu
            eu.add(v)
            nb = var_nbrs[u]
            nb.discard(v)
            # Clique edges become implicit via p.  Deleting only the
            # members of the (usually small) intersection is O(min) per
            # vertex and leaves the same hash table, so the same order.
            nb -= nb & adj
        esz[v] = adj_weight
        ext_of[v] = -1  # p itself: neither outside L_p nor absorbed

        # Degree update + element absorption + supervariable merging.
        limit = remaining - 1
        signature: dict[tuple, int] = {}
        for u in list(adj):
            if not alive[u]:
                continue
            eu = elem_nbrs[u]
            nb = var_nbrs[u]
            ext = adj_weight - weight[u]
            for x in nb:
                if alive[x]:
                    ext += weight[x]
            # Elements entirely covered by L_p (nothing outside) are
            # absorbed; the rest add their part outside L_p.
            dead_elems = []
            for e in eu:
                out = ext_of[e]
                if out > 0:
                    ext += out
                elif out == 0:
                    dead_elems.append(e)
            for e in dead_elems:
                eu.discard(e)
                elem_vars.pop(e, None)
                esz.pop(e, None)
            if limit <= 0:
                degree[u] = 0
            elif ext >= limit:
                degree[u] = limit
            else:
                degree[u] = ext if ext > 1 else 1

            # Supervariable detection: cheap exact signature on small
            # adjacencies (the common interior-of-mesh case).
            if len(nb) <= 8 and len(eu) <= 4:
                sig = (frozenset(eu), frozenset(nb))
                twin = signature.get(sig)
                if twin is not None and alive[twin] and twin != u:
                    # twin has u's elements, so their sizes do not
                    # change: u's weight moves onto twin.
                    members[twin].extend(members[u])
                    weight[twin] += weight[u]
                    alive[u] = False
                    for e in eu:
                        if e in elem_vars:
                            elem_vars[e].discard(u)
                    for x in nb:
                        var_nbrs[x].discard(u)
                    heapq.heappush(heap, degree[twin] * n + twin)
                    continue
                signature[sig] = u
            heapq.heappush(heap, degree[u] * n + u)

    for _deg, v in sorted(deferred):
        order.extend(members[v])
    if len(order) != n:
        raise AssertionError(
            f"minimum degree ordered {len(order)} of {n} vertices"
        )
    return np.asarray(order, dtype=np.int64)
