"""Pure-Python reference implementation of the search kernels.

The compiled extension (_kernels_cy) implements byte-for-byte the same
algorithms; either backend must produce identical results for identical
inputs.  Vertex bitsets are plain Python integers here.

Kernels:
  exact_coloring                 DSATUR-style branch and bound for chi(G)
  best_weighted_independent_set  branch and bound maximizing pair-weight/size
"""

from __future__ import annotations

from collections.abc import Sequence

BUDGET_EXCEEDED = 1
OK = 0


def greedy_clique(n: int, adj: list[int]) -> list[int]:
    """Deterministic greedy clique, restarted from the highest-degree seeds."""
    if n == 0:
        return []
    degs = [a.bit_count() for a in adj]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    best: list[int] = [order[0]]
    for start in order[:min(n, 8)]:
        clique = [start]
        cand = adj[start]
        while cand:
            pick, pick_deg = -1, -1
            m = cand
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                d = (adj[v] & cand).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return best


def dsatur_greedy(n: int, adj: list[int],
                  rank: Sequence[int] | None = None) -> tuple[int, list[int]]:
    """Plain DSATUR heuristic (ties by degree, then lowest rank; the rank
    defaults to the index); returns an upper bound and a proper colouring
    using colours 0..ub-1."""
    if n == 0:
        return 0, []
    if rank is None:
        rank = range(n)
    degs = [a.bit_count() for a in adj]
    colors = [-1] * n
    forbid = [0] * n
    used = 0
    for _ in range(n):
        pick, key = -1, (-1, -1, 1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            cand = (forbid[v].bit_count(), degs[v], -rank[v])
            if cand > key:
                pick, key = v, cand
        c = 0
        fb = forbid[pick]
        while (fb >> c) & 1:
            c += 1
        colors[pick] = c
        used = max(used, c + 1)
        bit = 1 << c
        m = adj[pick]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if colors[u] < 0:
                forbid[u] |= bit
    return used, colors


class _Budget(Exception):
    pass


def _decide(n: int, adj: list[int], neigh: list[list[int]], degs: list[int],
            t: int, clique: list[int], counter: list[int]):
    """Find a proper colouring with at most t colours, or None.

    Vertices of the seed clique are pre-assigned distinct colours; branching
    follows max saturation / max degree / min index; a vertex may only open
    one colour index beyond the highest used so far (symmetry breaking).
    """
    colors = [-1] * n
    forbid = [0] * n
    for i, v in enumerate(clique):
        colors[v] = i
        bit = 1 << i
        for u in neigh[v]:
            forbid[u] |= bit
    uncoloured = n - len(clique)
    max_used = len(clique) - 1

    def rec(uncoloured: int, max_used: int) -> bool:
        if uncoloured == 0:
            return True
        counter[0] -= 1
        if counter[0] <= 0:
            raise _Budget
        pick, key = -1, (-1, -1, 1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            cand = (forbid[v].bit_count(), degs[v], -v)
            if cand > key:
                pick, key = v, cand
        top = min(max_used + 1, t - 1)
        avail = ~forbid[pick] & ((1 << (top + 1)) - 1)
        while avail:
            c = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            colors[pick] = c
            bit = 1 << c
            touched = []
            for u in neigh[pick]:
                if colors[u] < 0 and not (forbid[u] >> c) & 1:
                    forbid[u] |= bit
                    touched.append(u)
            if rec(uncoloured - 1, max(max_used, c)):
                return True
            for u in touched:
                forbid[u] &= ~bit
            colors[pick] = -1
        return False

    if len(clique) > t:
        return None
    return list(colors) if rec(uncoloured, max_used) else None


def exact_coloring(n: int, adj: list[int], budget: int):
    """Exact chromatic number.

    Returns (status, chi_or_best_upper, lower, colouring).  status is OK when
    the value is exact; BUDGET_EXCEEDED carries the best (lower, upper)
    bracket and the colouring achieving the upper bound.
    """
    if n == 0:
        return (OK, 0, 0, [])
    if all(a == 0 for a in adj):
        return (OK, 1, 1, [0] * n)
    clique = greedy_clique(n, adj)
    lb = len(clique)
    ub, best = dsatur_greedy(n, adj)
    if ub <= lb:
        return (OK, ub, ub, best)
    neigh = [[] for _ in range(n)]
    for v in range(n):
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            neigh[v].append(u)
    degs = [a.bit_count() for a in adj]
    counter = [budget]
    while ub > lb:
        t = ub - 1
        try:
            res = _decide(n, adj, neigh, degs, t, clique, counter)
        except _Budget:
            return (BUDGET_EXCEEDED, ub, lb, best)
        if res is None:
            lb = ub
            break
        best = res
        ub = max(res) + 1
    return (OK, ub, ub, best)


def best_weighted_independent_set(n: int, adj: list[int], weights,
                                  node_limit: int):
    """Maximise (sum of pair weights inside U) / |U| over independent U.

    `weights` is a flat, symmetric, nonnegative n*n sequence.  Returns
    (status, best_value, best_mask, nodes_used); ties keep the first set in
    depth-first order, so results are deterministic.
    """
    if n == 0:
        raise ValueError("empty graph has no nonempty independent set")
    maxw = max(weights) if n > 1 else 0.0
    best = [0.0, 1]  # value, mask: the singleton {0}
    state = [0, node_limit]  # nodes used, limit
    members: list[int] = []

    def rec(fsum: float, size: int, cand: int) -> bool:
        state[0] += 1
        if state[0] > state[1]:
            return False
        total = size + cand.bit_count()
        if total >= 1 and (total - 1) * maxw / 2.0 <= best[0]:
            # no set in this subtree can strictly beat the incumbent
            return True
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            add = 0.0
            base = v * n
            for u in members:
                add += weights[base + u]
            fv = fsum + add
            sz = size + 1
            h = fv / sz
            if h > best[0]:
                best[0] = h
                best[1] = _mask_from(members) | (1 << v)
            members.append(v)
            if not rec(fv, sz, m & ~adj[v]):
                members.pop()
                return False
            members.pop()
        return True

    finished = rec(0.0, 0, (1 << n) - 1)
    return (OK if finished else BUDGET_EXCEEDED, best[0], best[1], state[0])


def _mask_from(members: list[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m
