"""Pure-Python reference implementation of the search kernels.

The compiled extension (_kernels_c, from _kernels_c.c) implements the same
search, node order, node counts and results with vertex sets in 64-bit
words.  Either backend must produce identical results for identical inputs;
the parity tests compare them.  Vertex bitsets are plain Python integers
here.  DSATUR keeps, per colour, the set of vertices with a neighbour of
that colour, and every vertex's saturation as bit-sliced counters, so a
pick or a colouring step costs O(log n) big-integer operations and no loop
over the vertices.

Kernels:
  exact_coloring                 DSATUR-style branch and bound for chi(G)
  best_weighted_independent_set  branch and bound maximizing pair-weight/size,
                                 pruned before each child by a weighted bound
                                 on the classes of the node's greedy clique
                                 cover that meet the candidates from that
                                 child on (the colouring bound of max-clique
                                 search, on the complement)
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


def _static_planes(adj: list[int],
                   rank: Sequence[int] | None = None) -> list[int]:
    """Bit planes, top plane first, of each vertex's static DSATUR priority:
    higher degree first, then lower rank.  Vertices with equal keys are
    left to the lowest index."""
    degs = [a.bit_count() for a in adj]
    if rank is None:
        prio = degs
    else:
        keys = list(zip(degs, (-r for r in rank)))
        pos = {k: i for i, k in enumerate(sorted(set(keys)))}
        prio = [pos[k] for k in keys]
    planes = []
    for j in range(max(prio, default=0).bit_length() - 1, -1, -1):
        m = 0
        for v, p in enumerate(prio):
            if p >> j & 1:
                m |= 1 << v
        planes.append(m)
    return planes


def _pick(cand: int, sat: list[int], static: list[int]) -> int:
    """The DSATUR pick among the vertex set `cand`: max saturation (its
    bit-sliced counters `sat`, lowest plane first), then max static
    priority, then the lowest index."""
    for p in reversed(sat):
        x = cand & p
        if x:
            cand = x
    if cand & (cand - 1):
        for p in static:
            x = cand & p
            if x:
                cand = x
    return (cand & -cand).bit_length() - 1


def _add(planes: list[int], x: int) -> list[int]:
    """Bit-sliced counters plus one for every vertex in `x` (ripple carry)."""
    out = []
    for p in planes:
        out.append(p ^ x)
        x &= p
    if x:
        out.append(x)
    return out


def _dsatur(n: int, adj: list[int], static: list[int]):
    """DSATUR with first-fit colours; `static` from `_static_planes`."""
    colors = [-1] * n
    fb: list[int] = []  # fb[c]: vertices with a neighbour of colour c
    sat: list[int] = []
    uncoloured = (1 << n) - 1
    while uncoloured:
        pick = _pick(uncoloured, sat, static)
        bit = 1 << pick
        uncoloured ^= bit
        c = 0
        while c < len(fb) and fb[c] & bit:
            c += 1
        if c == len(fb):
            fb.append(0)
        colors[pick] = c
        touched = adj[pick] & uncoloured & ~fb[c]
        fb[c] |= touched
        sat = _add(sat, touched)
    return len(fb), colors


def dsatur_greedy(n: int, adj: list[int],
                  rank: Sequence[int] | None = None) -> tuple[int, list[int]]:
    """Plain DSATUR heuristic (ties by degree, then lowest rank, then lowest
    index; the rank defaults to the index); returns an upper bound and a
    proper colouring using colours 0..ub-1."""
    return _dsatur(n, adj, _static_planes(adj, rank))


class _Budget(Exception):
    pass


def _decide(n: int, adj: list[int], static: list[int], t: int,
            clique: list[int], counter: list[int]):
    """Find a proper colouring with at most t colours, or None.

    Vertices of the seed clique are pre-assigned distinct colours; branching
    follows max saturation / max degree / min index; a vertex may only open
    one colour index beyond the highest used so far (symmetry breaking).
    """
    if len(clique) > t:
        return None
    colors = [-1] * n
    fb = [0] * t
    sat: list[int] = []
    uncoloured = (1 << n) - 1
    for v in clique:
        uncoloured ^= 1 << v
    for i, v in enumerate(clique):
        colors[v] = i
        fb[i] = adj[v] & uncoloured
        sat = _add(sat, fb[i])

    def rec(uncoloured: int, sat: list[int], max_used: int) -> bool:
        if not uncoloured:
            return True
        counter[0] -= 1
        if counter[0] <= 0:
            raise _Budget
        # _pick and _add are inlined, and min and max are not called: this
        # runs at every node
        cand = uncoloured
        for p in reversed(sat):
            x = cand & p
            if x:
                cand = x
        if cand & (cand - 1):
            for p in static:
                x = cand & p
                if x:
                    cand = x
        bit = cand & -cand
        pick = bit.bit_length() - 1
        uncoloured ^= bit
        nbrs = adj[pick] & uncoloured
        # colours 0..max_used + 1, at most t of them
        for c in range(max_used + 2 if max_used + 2 < t else t):
            old = fb[c]
            if old & bit:
                continue
            colors[pick] = c
            touched = nbrs & ~old
            fb[c] = old | touched
            x = touched
            plus = []
            for p in sat:
                plus.append(p ^ x)
                x &= p
            if x:
                plus.append(x)
            if rec(uncoloured, plus, c if c > max_used else max_used):
                return True
            fb[c] = old
        colors[pick] = -1
        return False

    try:
        return list(colors) if rec(uncoloured, sat, len(clique) - 1) else None
    finally:
        del rec  # see best_weighted_independent_set


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
    static = _static_planes(adj)
    ub, best = _dsatur(n, adj, static)
    if ub <= lb:
        return (OK, ub, ub, best)
    counter = [budget]
    while ub > lb:
        t = ub - 1
        try:
            res = _decide(n, adj, static, t, clique, counter)
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
        # b(s) = (fsum + s*(size + (s-1)/2)*maxw) / (size + s) bounds h of
        # U plus any s candidates, since each new pair weighs at most maxw,
        # and it is non-decreasing in s.  In exact arithmetic it never
        # exceeds the all-maxw bound (size + s - 1)*maxw/2; testing that one
        # too keeps all of its prunes under rounding, so no search visits
        # more nodes than with it alone.
        inc = best[0]
        s = cand.bit_count()
        total = size + s
        if ((fsum + s * (size + (s - 1) / 2.0) * maxw) / total <= inc
                or (total - 1) * maxw / 2.0 <= inc):
            # no set in this subtree can strictly beat the incumbent
            return True
        # A greedy clique cover of cand, built from the top: each class
        # starts at the highest vertex left, its leader, and takes the
        # highest vertex adjacent to every member so far.  A class lies at
        # or below its leader, so r = |leaders >> v| classes meet the
        # candidates from v up; an independent set meets each class at most
        # once, so b(r) bounds child v's subtree and every later child's.
        leaders = 0
        rest = cand
        while rest:
            top = rest.bit_length() - 1
            bit = 1 << top
            leaders |= bit
            rest ^= bit
            grow = rest & adj[top]
            while grow:
                top = grow.bit_length() - 1
                rest ^= 1 << top
                grow &= adj[top]
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            r = (leaders >> v).bit_count()
            if (fsum + r * (size + (r - 1) / 2.0) * maxw) / (size + r) <= best[0]:
                return True
            m ^= low
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
    # rec refers to itself through its closure cell; breaking that cycle
    # frees the search state now instead of at the next cyclic collection
    # (an experiment's peak memory otherwise follows the collector's cadence)
    del rec
    return (OK if finished else BUDGET_EXCEEDED, best[0], best[1], state[0])


def _mask_from(members: list[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m
