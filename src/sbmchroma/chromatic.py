"""Chromatic-number computation (exact and heuristic), maximum average
degree, independence probabilities, the weighted independence number, and
the balanced-extraction colouring.

h(U) denotes -ln Pr(U independent) / |U|; the weighted independence number
is its maximum over nonempty independent sets.  The balanced-extraction
colouring repeatedly carves out independent sets whose per-block counts
follow the scaled remaining-block profile, then finishes leftovers with
DSATUR.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels_py, kernels
from .functionals import (Decomposition, GuardError, _w_batch,
                          near_optimal_integer_system)
from .graphs import SbmGraph
from .model import BlockVector, ModelError, ModelInstance
from .seeds import derive_seed, rng_from_seed

__all__ = [
    "BudgetExceededError",
    "Colouring",
    "WeightedIndepResult",
    "exact_chromatic",
    "exact_colouring",
    "dsatur_colouring",
    "max_avg_degree",
    "partition_objective",
    "independent_set_probability",
    "alpha_h",
    "find_balanced_independent_set",
    "balanced_extraction_colouring",
]

DEFAULT_COLOURING_BUDGET = 10 ** 8
_ALPHA_EXACT_HARD_N = 512    # beyond this even the node-capped search refuses
_ALPHA_ENUM_GUARD = 10 ** 7
# node budget of the exact first try in alpha_h's "exact-first" mode: about
# 0.1 s of pure Python, one or two local searches' worth at n <= 100
_ALPHA_FIRST_TRY_NODES = 10 ** 5
# node budget of the exact profile check before the balanced extraction's
# ruin-and-recreate search; past it the search decides alone
_PROFILE_CHECK_NODES = 2 * 10 ** 4
_MAD_BRUTE_MAX_N = 20


class BudgetExceededError(RuntimeError):
    """Exact search ran out of budget; carries the best (lower, upper) bracket."""

    def __init__(self, lower: int, upper: int):
        super().__init__(f"colouring budget exceeded; chi in [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class Colouring:
    """Proper colouring with colours 0..num_colours-1, each used at least once."""

    colour_of: np.ndarray
    num_colours: int
    method: str

    def class_sizes(self) -> list[int]:
        return np.bincount(self.colour_of, minlength=self.num_colours).tolist()

    def check_proper(self, g: SbmGraph) -> None:
        col = self.colour_of
        if col.shape != (g.n,):
            raise ModelError("colouring does not cover the vertex set")
        mono = col[g.edges[:, 0]] == col[g.edges[:, 1]]
        if mono.any():
            u, v = g.edges[np.argmax(mono)]
            raise ModelError(f"monochromatic edge ({u},{v})")
        used = np.unique(col)
        if g.n and (used.size != self.num_colours or used[0] != 0
                    or used[-1] != self.num_colours - 1):
            raise ModelError("colours must be 0..num_colours-1, all used")


def _canonical_colouring(raw: Sequence[int], method: str) -> Colouring:
    """Relabel colours by first appearance so outputs are canonical."""
    relabel: dict[int, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, c in enumerate(raw):
        if c not in relabel:
            relabel[c] = len(relabel)
        out[i] = relabel[c]
    return Colouring(colour_of=out, num_colours=len(relabel), method=method)


@dataclass(frozen=True)
class WeightedIndepResult:
    """A set U attaining `h_value` = h(U); `exact` says it is a proven
    maximum.  `nodes` counts the branch-and-bound nodes spent (0 when only
    the local search ran)."""

    best_set: frozenset[int]
    h_value: float
    exact: bool
    nodes: int = 0


# ---------------------------------------------------------------------------
# Exact and heuristic colouring
# ---------------------------------------------------------------------------

def exact_colouring(g: SbmGraph, budget: int = DEFAULT_COLOURING_BUDGET) -> Colouring:
    """Optimal proper colouring by branch and bound (clique lower bound,
    DSATUR upper bound, one-new-colour symmetry breaking)."""
    status, chi, lower, colours = kernels.exact_coloring(
        g.n, g.adjacency_bits(), budget)
    if status == kernels.BUDGET_EXCEEDED:
        raise BudgetExceededError(lower, chi)
    col = _canonical_colouring(colours, "exact")
    col.check_proper(g)
    return col


def exact_chromatic(g: SbmGraph, budget: int = DEFAULT_COLOURING_BUDGET) -> int:
    """chi(g), exactly."""
    return exact_colouring(g, budget).num_colours


def dsatur_colouring(g: SbmGraph, seed: int = 0) -> Colouring:
    """DSATUR heuristic; ties on (saturation, degree) break by a seeded
    shuffle."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[rng_from_seed(seed).permutation(g.n)] = np.arange(g.n)
    _, colors = _kernels_py.dsatur_greedy(g.n, g.adjacency_bits(),
                                          rank.tolist())
    col = _canonical_colouring(colors, "dsatur")
    col.check_proper(g)
    return col


# ---------------------------------------------------------------------------
# Maximum average degree (exact rational)
# ---------------------------------------------------------------------------

def _mad_bruteforce(n: int, adj: list[int]) -> Fraction:
    best_num, best_den = 0, 1  # density 2|E(S)| / |S|
    edge_cnt = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        edge_cnt[mask] = edge_cnt[rest] + (adj[v] & rest).bit_count()
        num = 2 * edge_cnt[mask]
        den = mask.bit_count()
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def _densest_improve(n: int, edges: np.ndarray, degs: list[int],
                     g: Fraction) -> Optional[list[int]]:
    """Vertex set of density strictly above g = a/b, or None.

    Goldberg's network: s -> v of capacity b*m, v -> t of capacity
    b*m + 2a - b*deg(v), and capacity b both ways along each edge.  Dinic's
    max flow (BFS levels, then a blocking flow by DFS with one arc pointer
    per vertex) runs until a BFS no longer reaches t.  That BFS visits what
    s reaches in the residual network of a maximum flow: the smallest
    source side of a minimum cut, which is s alone exactly when every
    s-arc is saturated, that is when no set is denser than g.
    """
    m = edges.shape[0]
    a, b = g.numerator, g.denominator
    s, t = n, n + 1
    to: list[int] = []   # arc e goes to to[e]; its twin e ^ 1 comes back
    cap: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(n + 2)]
    for u, v, c, back in ([(s, v, b * m, 0) for v in range(n)]
                          + [(v, t, b * m + 2 * a - b * d, 0)
                             for v, d in enumerate(degs)]
                          + [(u, v, b, b) for u, v in edges.tolist()]):
        arcs[u].append(len(to))
        arcs[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, back)

    def push(u: int, limit: int) -> int:
        if u == t:
            return limit
        out = arcs[u]
        while ptr[u] < len(out):
            e = out[ptr[u]]
            v = to[e]
            if cap[e] > 0 and level[v] == level[u] + 1:
                got = push(v, min(limit, cap[e]))
                if got:
                    cap[e] -= got
                    cap[e ^ 1] += got
                    return got
            ptr[u] += 1
        return 0

    while True:
        level = [-1] * (n + 2)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in arcs[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            break
        ptr = [0] * (n + 2)
        while push(s, b * m):
            pass
    del push  # push refers to itself through its closure cell
    return [v for v in range(n) if level[v] >= 0] or None


def max_avg_degree(g: SbmGraph) -> Fraction:
    """Exact mad(g) = max over nonempty S of 2|E(g[S])| / |S|.

    Subset brute force up to 20 vertices, exact min-cut density search
    (integer-scaled capacities) above; both agree on the overlap.
    """
    if g.n == 0:
        raise ModelError("mad of the empty graph is undefined")
    if g.m == 0:
        return Fraction(0)
    if g.n <= _MAD_BRUTE_MAX_N:
        return _mad_bruteforce(g.n, g.adjacency_bits())
    degs = [a.bit_count() for a in g.adjacency_bits()]
    best = Fraction(g.m, g.n)  # density of the whole graph
    while True:
        improved = _densest_improve(g.n, g.edges, degs, best)
        if improved is None:
            return 2 * best
        cnt = g.edge_count_within(improved)
        cand = Fraction(cnt, len(improved))
        if cand <= best:
            return 2 * best
        best = cand


def partition_objective(g: SbmGraph, partition: Iterable[Iterable[int]]) -> Fraction:
    """Sum over parts S of (1 + mad(g[S])); partition must cover V exactly."""
    parts = [sorted(set(int(v) for v in part)) for part in partition]
    seen: set[int] = set()
    for part in parts:
        if not part:
            raise ModelError("empty part in partition")
        if seen.intersection(part):
            raise ModelError("partition parts overlap")
        seen.update(part)
    if seen != set(range(g.n)):
        raise ModelError("partition does not cover the vertex set")
    total = Fraction(0)
    for part in parts:
        sub, _ = g.subgraph(part)
        total += 1 + max_avg_degree(sub)
    return total


# ---------------------------------------------------------------------------
# Independence probabilities and the weighted independence number
# ---------------------------------------------------------------------------

def independent_set_probability(m: ModelInstance, vertices: Iterable[int],
                                block_of: Optional[np.ndarray] = None) -> float:
    """ln Pr(U independent) = sum over pairs in U of ln(1 - p(u, v)).

    Blocks default to the model's contiguous layout; pass `block_of` to
    evaluate subsets of a relabelled graph.
    """
    if block_of is None:
        block_of = np.repeat(np.arange(m.k), m.sizes.values.astype(np.int64))
    elif block_of.size and not 0 <= block_of.min() <= block_of.max() < m.k:
        raise ModelError(f"block index outside the model's {m.k} blocks")
    vs = sorted(set(int(v) for v in vertices))
    if any(v < 0 or v >= block_of.size for v in vs):
        raise ModelError("vertex out of range")
    p = m.probs.entries
    total = 0.0
    for i, u in enumerate(vs):
        bu = block_of[u]
        for v in vs[i + 1:]:
            total += math.log1p(-p[bu, block_of[v]])
    return total


def _pair_weights(m: ModelInstance, g: SbmGraph) -> np.ndarray:
    q = m.q.entries
    return q[np.ix_(g.block_of, g.block_of)]


def alpha_h(m: ModelInstance, g: SbmGraph, mode: str = "exact",
            seed: int = 0) -> WeightedIndepResult:
    """Weighted independence number: maximise h(U) over independent sets.

    "exact" enumerates independent sets by branch and bound, and raises
    GuardError past 1e7 nodes or n > 512.  A branch that extends the set S
    (pair weight F) by at most r more vertices is pruned when
    (F + r (|S| + (r-1)/2) max_q) / (|S| + r) cannot beat the best h so far;
    r is the number of candidates or, tighter, the number of classes of a
    greedy clique cover of them, since an independent set takes at most one
    vertex of a clique.  The cover is built once per node and checked before
    each child v, with r the classes that meet the candidates from v on, so
    one failed check prunes v and every later child.  "heuristic" is the
    local search alone: the seeded `_ruin_and_recreate` search that the
    balanced extraction also runs, scored by h with no block limit, plus a
    drop pass on every set.
    "exact-first" runs the branch and bound under a budget of 1e5 nodes
    and returns its proven maximum when it finishes; otherwise it runs the
    local search and returns whichever of its set and the enumeration's
    incumbent has the larger h, with exact=False.  So it is never below
    "heuristic" at the same seed.  Past n = 512 it runs the local search
    alone.  Both budgets count nodes, so every mode is deterministic.
    """
    if g.n == 0:
        raise ModelError("alpha_h of the empty graph is undefined")
    if m.k != g.k:
        raise ModelError(f"dimension mismatch: model k={m.k}, graph k={g.k}")
    if mode not in ("exact", "heuristic", "exact-first"):
        raise ValueError(f"unknown alpha_h mode {mode!r}")
    if mode == "exact" and g.n > _ALPHA_EXACT_HARD_N:
        raise GuardError(f"exact alpha_h refuses n > {_ALPHA_EXACT_HARD_N}")
    if mode == "heuristic" or g.n > _ALPHA_EXACT_HARD_N:
        local = _alpha_h_local_search(m, g, seed)
        return WeightedIndepResult(local, _h_of_set(m, g, local), False)
    limit = _ALPHA_ENUM_GUARD if mode == "exact" else _ALPHA_FIRST_TRY_NODES
    status, _, mask, nodes = kernels.best_weighted_independent_set(
        g.n, g.adjacency_bits(), _pair_weights(m, g).ravel().tolist(), limit)
    if status != kernels.OK and mode == "exact":
        raise GuardError("independent-set enumeration exceeded 1e7 nodes")
    best = frozenset(v for v in range(g.n) if (mask >> v) & 1)
    h = _h_of_set(m, g, best)
    if status == kernels.OK:
        return WeightedIndepResult(best, h, True, nodes)
    # out of budget: the incumbent unless the local search beats it
    local = _alpha_h_local_search(m, g, seed)
    h_local = _h_of_set(m, g, local)
    if h_local > h:
        best, h = local, h_local
    return WeightedIndepResult(best, h, False, nodes)


def _h_of_set(m: ModelInstance, g: SbmGraph, members: frozenset[int]) -> float:
    """h(U) = -ln Pr(U independent) / |U| for a nonempty U."""
    return (-independent_set_probability(m, members, block_of=g.block_of)
            / len(members))


def _block_bits(block_of: Sequence[int], k: int) -> list[int]:
    """Per-block vertex bitsets: bit v of entry b is set when v is in
    block b."""
    bits = [0] * k
    for v, b in enumerate(block_of):
        bits[b] |= 1 << v
    return bits


def _refill(adj: list[int], block_bits: list[int], block_of: np.ndarray,
            ind: np.ndarray, free: int, room: np.ndarray, rng) -> None:
    """Adaptive randomized greedy fill of `ind`, in place.

    A vertex is addable when it is in the bitset `free` (outside `ind`,
    with no neighbour in it) and its block b has room[b] > 0 left (the
    cap minus b's count in `ind`; used up in place).  Each step adds a
    random one of the 30 % of addable vertices with the fewest addable
    neighbours (ties by index), until none is addable.
    """
    addable = free
    for b, left in enumerate(room):
        if left <= 0:
            addable &= ~block_bits[b]
    while addable:
        cand = []
        rest = addable
        while rest:
            low = rest & -rest
            cand.append(low.bit_length() - 1)
            rest ^= low
        top = sorted(cand, key=lambda u: (adj[u] & addable).bit_count())
        v = top[rng.integers(max(1, math.ceil(0.3 * len(cand))))]
        ind[v] = 1.0
        addable &= ~adj[v] & ~(1 << v)
        b = block_of[v]
        room[b] -= 1
        if room[b] == 0:
            addable &= ~block_bits[b]


def _ruin(adj: list[int], ind: np.ndarray, universe: int, rng) -> int:
    """Remove a random 40 % of the members of `ind` (at least one), in
    place; returns the bitset of vertices of `universe` outside what is
    left that have no neighbour in it."""
    members = np.nonzero(ind > 0.0)[0]
    if members.size:
        kill = rng.choice(members, size=max(1, int(0.4 * members.size)),
                          replace=False)
        ind[kill] = 0.0
    taken = 0
    for v in np.nonzero(ind > 0.0)[0].tolist():
        taken |= adj[v] | 1 << v
    return universe & ~taken


def _ruin_and_recreate(g: SbmGraph, universe: int, cap: np.ndarray,
                       seed: int, starts: int, iters: int,
                       score: Callable[[np.ndarray], float]
                       ) -> Iterator[tuple[np.ndarray, float]]:
    """Seeded ruin-and-recreate search over independent sets of g inside
    the vertex bitset `universe` with at most cap[b] vertices in block b.

    Each of `starts` starts (its own rng, derived from `seed` and the start
    index) fills an empty set, then `iters` times ruins and refills a copy
    of its current set, which the copy replaces when its score is no lower.
    Every refill gets cap minus the block counts of the set as room.
    Yields (set, score) for every set built, the set as a 0/1 vector that
    the caller must not write.
    """
    adj = g.adjacency_bits()
    blocks = g.block_of
    bbits = _block_bits(blocks.tolist(), g.k)
    for start in range(starts):
        rng = rng_from_seed(derive_seed(seed, start))
        cur, cur_score = np.zeros(g.n), -math.inf
        for _ in range(iters + 1):
            ind = cur.copy()
            # ruining the empty first set draws nothing and frees universe
            free = _ruin(adj, ind, universe, rng)
            room = cap - np.bincount(blocks[ind > 0.0], minlength=g.k)
            _refill(adj, bbits, blocks, ind, free, room, rng)
            value = score(ind)
            yield ind, value
            if value >= cur_score:  # accept ties to keep wandering
                cur, cur_score = ind, value


def _alpha_h_local_search(m: ModelInstance, g: SbmGraph,
                          seed: int) -> frozenset[int]:
    """Ruin-and-recreate search (6 starts of 40 steps) scored by h, with no
    block limit; a drop pass on every set built trades large light sets for
    small heavy ones.  The best h seen anywhere is kept."""
    w = _pair_weights(m, g)

    def h_of(ind: np.ndarray) -> float:
        size = float(ind.sum())
        if size < 1.0:
            return 0.0
        return float(ind @ w @ ind - np.diag(w) @ ind) / 2.0 / size

    def drop_pass(ind: np.ndarray) -> np.ndarray:
        changed = True
        while changed and ind.sum() > 1.0:
            changed = False
            cur_h = h_of(ind)
            for u in np.nonzero(ind > 0.0)[0]:
                trial = ind.copy()
                trial[u] = 0.0
                if h_of(trial) > cur_h + 1e-12:
                    ind = trial
                    cur_h = h_of(ind)
                    changed = True
        return ind

    best_ind = np.zeros(g.n)
    best_ind[0] = 1.0
    best_h = 0.0
    for ind, h in _ruin_and_recreate(g, (1 << g.n) - 1, g.block_sizes(),
                                     seed, 6, 40, h_of):
        dropped = drop_pass(ind)
        for cand, cand_h in ((ind, h), (dropped, h_of(dropped))):
            if cand_h > best_h:
                best_h, best_ind = cand_h, cand
    return frozenset(int(v) for v in np.nonzero(best_ind > 0.0)[0])


# ---------------------------------------------------------------------------
# Balanced extraction
# ---------------------------------------------------------------------------

def _profile_feasible(adj: list[int], block_of: list[int], need: list[int],
                      limit: int, within: int = -1) -> Optional[bool]:
    """Whether some independent set inside the vertex bitset `within` (all
    vertices by default) has exactly `need[b]` vertices in each block b:
    True or False once a branch and bound settles it, None when it runs
    past `limit` nodes.

    The candidates are the vertices of `within` in blocks still below
    target that no chosen vertex sees.  A branch dies when a block has
    fewer candidates than it still needs; otherwise it branches on the
    block with the least slack, taking that block's candidates lowest index
    first.  `need` is restored before returning.
    """
    bmask = _block_bits(block_of, len(need))
    nodes = 0

    def rec(cand: int) -> Optional[bool]:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            return None
        b, slack = -1, 0
        for c, k in enumerate(need):
            if k:
                s = (cand & bmask[c]).bit_count() - k
                if s < 0:
                    return False
                if b < 0 or s < slack:
                    b, slack = c, s
        if b < 0:
            return True
        pool = cand & bmask[b]
        while pool.bit_count() >= need[b]:
            low = pool & -pool
            pool ^= low
            cand ^= low
            need[b] -= 1
            nxt = cand & ~adj[low.bit_length() - 1]
            if not need[b]:
                nxt &= ~bmask[b]
            found = rec(nxt)
            need[b] += 1
            if found is not False:
                return found
        return False

    found = rec(within & sum(mask for mask, k in zip(bmask, need) if k))
    del rec  # rec refers to itself through its closure cell
    return found


def find_balanced_independent_set(g: SbmGraph, vertices: Iterable[int],
                                  target: BlockVector, seed: int = 0,
                                  effort: int = 8) -> Optional[frozenset[int]]:
    """Independent set of g inside `vertices` whose per-block counts equal
    `target` exactly, or None.  It runs on g's neighbour bitsets restricted
    to `vertices`, and gives g.subgraph(vertices)'s result in g's indices.

    Returns None at once when an exact check (`_profile_feasible`, at most
    `_PROFILE_CHECK_NODES` nodes) proves the profile impossible.  Otherwise
    it runs `_ruin_and_recreate` with cap `target`, `effort` (>= 1) starts
    of 12 steps, scoring a set by minus its unmet demand, and returns the
    first set that meets the target.
    """
    if effort < 1:
        raise ValueError("effort must be >= 1")
    if not target.is_integer:
        raise ModelError("target must be an integer block profile")
    tgt = np.asarray(target.as_ints(), dtype=np.int64)
    if tgt.size != g.k:
        raise ModelError("target dimension does not match the graph")
    inside = {int(v) for v in vertices}
    if np.any(tgt > g.b_vector(inside)):  # ModelError for a vertex outside g
        raise ModelError("target exceeds remaining block counts")
    if tgt.sum() == 0:
        return frozenset()
    within = sum(1 << v for v in inside)
    if _profile_feasible(g.adjacency_bits(), g.block_of.tolist(), tgt.tolist(),
                         _PROFILE_CHECK_NODES, within) is False:
        return None
    # no block exceeds its target, so the deficit is the vertices missing
    need = int(tgt.sum())
    for ind, score in _ruin_and_recreate(
            g, within, tgt, seed, effort, 12,
            lambda ind: int(ind.sum()) - need):
        if score == 0:
            return frozenset(int(v) for v in np.nonzero(ind > 0.0)[0])
    return None


def balanced_extraction_colouring(m: ModelInstance, g: SbmGraph,
                                  epsilon: float = 0.2, seed: int = 0,
                                  effort: int = 8,
                                  system: Optional[Decomposition] = None
                                  ) -> Colouring:
    """Colouring built the way the upper-bound argument colours the graph:

    1. split the block-size vector by a near-optimal integer system;
    2. inside each part, repeatedly extract independent sets with target
       profile floor(nu * ||n|| / ||n_rem|| * n_rem), where
       nu = (2 - epsilon) ln(w(n_rem)) / w(n_rem), degrading the target by
       0.8 on failure (down to singletons, which always succeed);
    3. colour whatever remains with DSATUR.

    w(n_rem) is the _w_batch value.  Step 2 searches g's own bitsets, so
    step 3's is the only subgraph built.

    `system` is the integer system of step 1.  It depends on the model
    only, so graphs sampled from one model can share it; its target must
    equal g.size_vector().  None computes it here with
    near_optimal_integer_system, seeded from `seed`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ModelError("epsilon must lie in (0, 1)")
    sizes = g.size_vector()
    if system is not None and not np.array_equal(system.target.values,
                                                  sizes.values):
        raise ModelError(f"system target {system.target.values.tolist()} is not "
                         f"the graph's block sizes {sizes.values.tolist()}")
    if g.n == 0:
        return Colouring(np.zeros(0, dtype=np.int64), 0, "extraction")
    q = m.q
    k = g.k
    colour_of = np.full(g.n, -1, dtype=np.int64)
    next_colour = 0

    if system is None:
        system = near_optimal_integer_system(sizes, q, seed=derive_seed(seed, 0))

    # part t takes the next part.values[b] vertices of each block b
    by_block = [np.flatnonzero(g.block_of == b) for b in range(k)]
    cuts = np.cumsum([np.zeros(k)] + [p.values for p in system.parts],
                     axis=0).astype(np.int64)
    call = 1
    for lo, hi in zip(cuts, cuts[1:]):
        remaining = {int(v) for b in range(k)
                     for v in by_block[b][lo[b]:hi[b]]}
        part_norm = float(len(remaining))
        while remaining:
            rem_counts = g.b_vector(remaining)
            rem_total = int(rem_counts.sum())
            wj = float(_w_batch(rem_counts[None].astype(np.float64),
                                q.entries)[0])
            if wj <= 1.0:
                break  # nu would be nonpositive; leave the rest to DSATUR
            nu = (2.0 - epsilon) * math.log(wj) / wj
            scale = nu * part_norm / rem_total
            target = np.minimum(np.floor(scale * rem_counts).astype(np.int64),
                                rem_counts)
            if target.sum() == 0:
                break
            requested = int(target.sum())
            while True:  # every target here has a positive sum
                found = find_balanced_independent_set(
                    g, remaining, BlockVector(target, integer=True),
                    seed=derive_seed(seed, call), effort=effort)
                call += 1
                if found is not None:
                    break
                degraded = np.floor(0.8 * target).astype(np.int64)
                if degraded.sum() == 0:
                    degraded = np.zeros(k, dtype=np.int64)
                    degraded[int(np.argmax(rem_counts))] = 1
                    if np.array_equal(degraded, target):
                        break
                target = degraded
            if not found:
                break
            if len(found) < max(3.0, 0.5 * requested) and len(found) < rem_total:
                break  # independent structure exhausted; DSATUR packs the
                       # dense remainder better than forced tiny classes
            for v in found:
                colour_of[v] = next_colour
                remaining.discard(v)
            next_colour += 1

    leftovers = np.flatnonzero(colour_of < 0)
    if leftovers.size:
        sub, mapping = g.subgraph(leftovers)
        fill = dsatur_colouring(sub, seed=derive_seed(seed, 999_999))
        colour_of[mapping] = next_colour + fill.colour_of

    col = _canonical_colouring(colour_of.tolist(), "extraction")
    col.check_proper(g)
    return col
