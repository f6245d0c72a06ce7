"""Solvers for the box-constrained quadratic-ratio functional w(x, Q), its
decomposition infimum w*(x, Q), and the fixed-part-count relaxation.

w(x, Q)  = max over 0 <= y <= x of y^T Q y / ||y||, attained at a corner
           (y_i in {0, x_i}); computed here by corner enumeration.
w*(x, Q) = infimum over finite systems of nonnegative vectors summing to x
           of the sum of their w values; at most k parts are ever needed.

w* has no known efficient exact algorithm, so this module pairs a multi-start
local-search heuristic with a small exact brute-force oracle over integer
decompositions, used for cross-validation in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import BlockVector, ModelError, QMatrix, q_hat, q_star
from .seeds import derive_seed, rng_from_seed

__all__ = [
    "GuardError",
    "CornerSolution",
    "Decomposition",
    "w_value",
    "w_value_sampled",
    "w_star_bruteforce",
    "w_star_solve",
    "w_ell",
    "near_optimal_integer_system",
    "round_integer_system",
    "is_pseudodefinite",
    "w_star_bounds",
]

MAX_CORNER_K = 30          # 2^k corner enumeration refuses beyond this
_CHUNK_BITS = 16           # corners are enumerated in chunks of 2^16
_ORACLE_STATE_GUARD = 10 ** 7
_FULL_SEARCH_MAX_K = 10    # above this the w* heuristic uses the light path
_PSEUDODEF_TOL = -1e-9


class GuardError(RuntimeError):
    """An exact routine was asked for an instance beyond its guard."""


@dataclass(frozen=True)
class CornerSolution:
    """Maximiser of y^T Q y / ||y|| over the box [0, x]."""

    value: float
    support: tuple[int, ...]
    maximizer: BlockVector


@dataclass
class Decomposition:
    """A system of nonnegative vectors summing to `target`, with its w-sum."""

    parts: list[BlockVector]
    target: BlockVector
    w_sum: float
    method: str = "unspecified"
    w_sum_exact: Optional[Fraction] = field(default=None, repr=False)
    moves: int = 0          # local-search moves accepted, all starts
    evaluations: int = 0    # rows the local search passed to _w_batch

    def validate(self, tol: float = 1e-9) -> None:
        total = np.zeros(self.target.k)
        for p in self.parts:
            if p.k != self.target.k:
                raise ModelError("decomposition part has wrong dimension")
            if p.norm <= 0.0:
                raise ModelError("decomposition parts must be nonzero")
            total += p.values
        if self.target.is_integer and all(p.is_integer for p in self.parts):
            if not np.array_equal(total, self.target.values):
                raise ModelError("integer decomposition does not sum to target")
        elif np.max(np.abs(total - self.target.values), initial=0.0) > tol:
            raise ModelError("decomposition does not sum to target")


# ---------------------------------------------------------------------------
# Corner enumeration
# ---------------------------------------------------------------------------

_mask_cache: dict[int, np.ndarray] = {}
_pair_cache: dict[int, np.ndarray] = {}


def _corner_masks(k: int) -> np.ndarray:
    """(2^k, k) float array of all 0/1 corner selectors (k <= _CHUNK_BITS)."""
    masks = _mask_cache.get(k)
    if masks is None:
        bits = (np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k)) & 1
        masks = np.ascontiguousarray(bits, dtype=np.float64)
        masks.setflags(write=False)
        _mask_cache[k] = masks
    return masks


def _chunk_masks(k: int, lo: int, hi: int) -> np.ndarray:
    bits = (np.arange(lo, hi, dtype=np.uint64)[:, None]
            >> np.arange(k, dtype=np.uint64)) & 1
    return bits.astype(np.float64)


def _pair_masks(k: int) -> np.ndarray:
    """(k*k, 2^k) read-only table PM[(i, j), c] = mask_ci * mask_cj, so that
    the quadratic form of every corner of a row is one matrix product."""
    pm = _pair_cache.get(k)
    if pm is None:
        masks = _corner_masks(k)
        pairs = (masks[:, :, None] * masks[:, None, :]).reshape(1 << k, k * k)
        pm = np.ascontiguousarray(pairs.T)
        pm.setflags(write=False)
        _pair_cache[k] = pm
    return pm


def _corner_ratios(rows: np.ndarray, qm: np.ndarray):
    """Yield (i, lo, vals): vals[r, c] is y^T Q y / ||y|| (0 when empty) at
    corner lo + c (bit j keeps block j) of y = rows[i + r].  Up to
    _FULL_SEARCH_MAX_K blocks that is one product with the cached pair table
    for all rows; above, the table would be too large (134 MB at k = 16),
    so each row scans its corners alone, 2^16 at a time.  A one-row batch
    goes through the table doubled: numpy sends a one-row product to BLAS
    gemv, which rounds differently from the gemm of larger batches."""
    m, k = rows.shape
    if k <= _FULL_SEARCH_MAX_K:
        both = np.repeat(rows, 2, axis=0) if m == 1 else rows
        outer = both[:, :, None] * both[:, None, :] * qm[None, :, :]
        quad = (outer.reshape(len(both), k * k) @ _pair_masks(k))[:m]
        norms = (both @ _corner_masks(k).T)[:m]
        yield 0, 0, np.divide(quad, norms, out=np.zeros_like(quad),
                              where=norms > 0.0)
        return
    step = 1 << _CHUNK_BITS
    for i, y in enumerate(rows):
        for lo in range(0, 1 << k, step):
            masks = (_corner_masks(k) if k <= _CHUNK_BITS
                     else _chunk_masks(k, lo, lo + step))
            z = masks * y
            norms = z.sum(axis=1)
            quad = ((z @ qm) * z).sum(axis=1)
            yield i, lo, np.divide(quad, norms, out=np.zeros_like(quad),
                                   where=norms > 0.0)[None]


def _w_batch(rows: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """w values for a batch of nonnegative vectors, one per row: the
    largest corner ratio of each row."""
    m, k = rows.shape
    if k > MAX_CORNER_K:
        raise GuardError(f"corner enumeration refuses k={k} > {MAX_CORNER_K}")
    best = np.full(m, -np.inf)
    for i, _, vals in _corner_ratios(rows, qm):
        top = best[i:i + vals.shape[0]]
        np.maximum(top, vals.max(axis=1), out=top)
    return best


def w_value(x: BlockVector, q: QMatrix) -> CornerSolution:
    """Exact w(x, Q) by enumerating all 2^k corners of the box [0, x].

    The value is the _w_batch value, bit for bit.  The maximizer is the
    corner of smallest, then lexicographically first, support within 1e-12
    of the value.
    """
    if x.k != q.k:
        raise ModelError(f"dimension mismatch: x has k={x.k}, Q has k={q.k}")
    if x.k > MAX_CORNER_K:
        raise GuardError(f"corner enumeration refuses k={x.k} > {MAX_CORNER_K}; "
                         "use w_value_sampled")
    xv = x.values
    positive = sum(1 << j for j in range(x.k) if xv[j] > 0.0)
    best, near = -math.inf, []  # near: (ratios, support bitsets) a chunk
    for _, lo, vals in _corner_ratios(xv[None], q.entries):
        if vals.max() > best:
            best = float(vals.max())
            floor = best - 1e-12 * max(1.0, abs(best))
            near = [(r[r >= floor], s[r >= floor]) for r, s in near]
        idx = np.flatnonzero(vals[0] >= floor)
        near.append((vals[0, idx], (lo + idx) & positive))
    # all 2^k corners can tie, so only the smallest supports become tuples
    masks = np.concatenate([s for _, s in near])
    sizes = sum((masks >> j) & 1 for j in range(x.k))
    support = min(tuple(j for j in range(x.k) if mask >> j & 1)
                  for mask in masks[sizes == sizes.min()].tolist())
    z = np.where([j in support for j in range(x.k)], xv, 0.0)
    return CornerSolution(value=best, support=support,
                          maximizer=BlockVector(z, integer=x.is_integer))


def _w_sum(parts: Sequence[np.ndarray], qm: np.ndarray) -> float:
    """Sum of the w values of a system, added in part order."""
    return sum(_w_batch(np.asarray(parts, dtype=np.float64), qm).tolist())


def w_value_sampled(x: BlockVector, q: QMatrix, trials: int, seed: int) -> float:
    """Best ratio found by uniform box sampling plus all singleton corners.

    A lower bound on w(x, Q); used to cross-check the corner theorem.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    xv = x.values
    qm = q.entries
    best = 0.0
    for i in range(x.k):  # singleton corners
        if xv[i] > 0.0:
            best = max(best, xv[i] * qm[i, i])
    if x.norm == 0.0:
        return 0.0
    rng = rng_from_seed(seed)
    done = 0
    while done < trials:
        m = min(trials - done, 1 << 16)
        y = rng.random((m, x.k)) * xv
        norms = y.sum(axis=1)
        quad = ((y @ qm) * y).sum(axis=1)
        good = norms > 0.0
        if np.any(good):
            best = max(best, float((quad[good] / norms[good]).max()))
        done += m
    return best


# ---------------------------------------------------------------------------
# Pseudodefiniteness and bounds
# ---------------------------------------------------------------------------

def is_pseudodefinite(q: QMatrix) -> bool:
    """True iff y^T Q y >= 0 for all zero-sum y (within -1e-9 eigen slack).

    Decided from the restriction of Q to the zero-sum subspace: project with
    M = I - J/k and test the smallest eigenvalue of M Q M.
    """
    k = q.k
    if k == 1:
        return True
    proj = np.eye(k) - np.full((k, k), 1.0 / k)
    restricted = proj @ q.entries @ proj
    restricted = (restricted + restricted.T) / 2.0
    return bool(np.linalg.eigvalsh(restricted)[0] >= _PSEUDODEF_TOL)


def w_star_bounds(x: BlockVector, q: QMatrix) -> tuple[float, float]:
    """(lower, upper) with lower <= w*(x, Q) <= upper.

    upper = q_hat(x) * ||x|| (the all-singletons system);
    lower = q_hat(x)^2 * ||x|| / sum_i q_ii, or 0 when q* = 0.
    """
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    if x.norm == 0.0:
        return (0.0, 0.0)
    qh = q_hat(x, q)
    upper = qh * x.norm
    diag_sum = float(np.sum(np.diag(q.entries)))
    lower = 0.0 if q_star(q) <= 0.0 else qh * qh * x.norm / diag_sum
    return (lower, upper)


# ---------------------------------------------------------------------------
# Heuristic w* solver: multi-start local search over allocation matrices
# ---------------------------------------------------------------------------
# The system is a (parts x k) allocation matrix with column sums x, which
# keeps feasibility exact by construction.  A move shifts a fraction of one
# column entry between two rows; fractions follow a geometric cooling
# schedule with full transfers first so corner systems stay reachable.

_MOVE_FRACS = (1.0, 0.5, 0.25, 0.1, 0.04, 0.015, 0.005, 1.0)


def _local_search(rows: np.ndarray, qm: np.ndarray
                  ) -> tuple[float, np.ndarray, int, int]:
    """Steepest descent on the allocation matrix `rows` (changed in place):
    (w-sum, rows, accepted moves, rows passed to _w_batch).

    Candidate c = (t1, t2, j), pairs in lexicographic order and then j,
    moves frac * rows[t1, j] from row t1 to row t2.  Its gain needs w of
    the giver row (rows[t1] less that amount at j, the same for every t2)
    and of the receiver row (rows[t2] plus it).  Both are cached for the
    current frac: `give[t1 * k + j]` and `take[c]`.

    Cache invariant: an entry not marked stale holds w of its row as the
    matrix stands.  A move of column j on rows a and b stales the givers
    of a and b, the receivers of every candidate with t2 in {a, b}, and
    the receivers of every candidate that moves entry (a, j) or (b, j),
    whose amount changed.  No other receiver row or amount changes, and
    the accepted candidate's giver and receiver values are w of rows a
    and b as they now stand.  Each iteration evaluates the stale live rows
    in one _w_batch call and forms the gains in candidate order, so argmin
    and the acceptance test see the numbers a full re-evaluation would,
    because _w_batch gives a row the same bits in any batch.
    """
    n_parts, k = rows.shape
    tol = 1e-12 * max(1.0, float(rows.sum()))
    roww = _w_batch(rows, qm)
    total = float(roww.sum())
    moves, evaluations = 0, n_parts
    pairs = [(t1, t2) for t1 in range(n_parts) for t2 in range(n_parts) if t1 != t2]
    t1s_all = np.array([p[0] for p in pairs for _ in range(k)])
    t2s_all = np.array([p[1] for p in pairs for _ in range(k)])
    js_all = np.array([j for _ in pairs for j in range(k)])
    src_all = t1s_all * k + js_all  # flat index of the entry a candidate moves
    receives = [t2s_all == t for t in range(n_parts)]
    give, take = np.zeros(n_parts * k), np.zeros(src_all.size)
    give_stale = np.empty(n_parts * k, dtype=bool)
    take_stale = np.empty(src_all.size, dtype=bool)
    while_guard = 64 * n_parts * k  # accepted-move cap, never hit in practice
    for frac in _MOVE_FRACS:
        give_stale.fill(True)
        take_stale.fill(True)
        for _ in range(while_guard):
            amounts = rows.ravel() * frac
            giving = amounts > tol
            live = giving[src_all]
            if not live.any():
                break
            gs = (give_stale & giving).nonzero()[0]
            tc = (take_stale & live).nonzero()[0]
            if gs.size + tc.size:
                gt, gj = np.divmod(gs, k)
                batch = rows[np.concatenate((gt, t2s_all[tc]))]
                # givers add -amount: x + (-a) rounds exactly as x - a
                batch[np.arange(batch.shape[0]),
                      np.concatenate((gj, js_all[tc]))] += np.concatenate(
                          (-amounts[gs], amounts[src_all[tc]]))
                vals = _w_batch(batch, qm)
                give[gs], take[tc] = vals[:gs.size], vals[gs.size:]
                give_stale[gs] = take_stale[tc] = False
                evaluations += vals.size
            cand = live.nonzero()[0]
            t1s, t2s = t1s_all[cand], t2s_all[cand]
            gains = (give[src_all[cand]] + take[cand]) - (roww[t1s] + roww[t2s])
            pick = gains.argmin()
            if gains[pick] >= -1e-12 * max(1.0, abs(total)):
                break
            c = cand[pick]
            a, b, j = t1s_all[c], t2s_all[c], js_all[c]
            rows[a, j] -= amounts[src_all[c]]
            rows[b, j] += amounts[src_all[c]]
            roww[a], roww[b] = give[src_all[c]], take[c]
            total = float(roww.sum())
            moves += 1
            give_stale[a * k:(a + 1) * k] = give_stale[b * k:(b + 1) * k] = True
            take_stale |= (receives[a] | receives[b] | (src_all == a * k + j)
                           | (src_all == b * k + j))
    return total, rows, moves, evaluations


def _snap_and_repair(rows: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """Zero out numerically-dead entries and restore exact column sums."""
    rows = rows.copy()
    for j in range(rows.shape[1]):
        col = rows[:, j].copy()
        col[col < 1e-12 * max(1.0, xv[j])] = 0.0
        deficit = xv[j] - col.sum()
        if col.max() > 0.0:
            col[int(np.argmax(col))] += deficit
        elif xv[j] > 0.0:
            col[0] = xv[j]
        rows[:, j] = col
    return rows


def _light_candidates(xv: np.ndarray, qm: np.ndarray, rng: np.random.Generator,
                      one_part: float) -> tuple[float, list[np.ndarray]]:
    """Cheap w* search for large k: canonical systems, greedy merging of
    singletons, and a sample of support bipartitions.  `one_part` is the
    w-sum of the one-part system [xv], the first one compared."""
    k = xv.size

    best, best_parts = one_part, [xv.copy()]
    cand = [xv * (np.arange(k) == i) for i in range(k) if xv[i] > 0.0]
    cand_vals = _w_batch(np.asarray(cand), qm).tolist()
    if sum(cand_vals) < best:
        best, best_parts = sum(cand_vals), [p.copy() for p in cand]
    merged = True
    while merged and len(cand) > 1:
        merged = False
        best_gain, best_pair = 1e-12, None
        pairs = list(itertools.combinations(range(len(cand)), 2))
        merged_vals = _w_batch(np.asarray([cand[a] + cand[b] for a, b in pairs]),
                               qm).tolist()
        for (a, b), wab in zip(pairs, merged_vals):
            gain = cand_vals[a] + cand_vals[b] - wab
            if gain > best_gain:
                best_gain, best_pair = gain, (a, b, wab)
        if best_pair is not None:
            a, b, wab = best_pair
            cand[a] = cand[a] + cand[b]
            cand_vals[a] = wab
            del cand[b], cand_vals[b]
            merged = True
    if sum(cand_vals) < best:
        best, best_parts = sum(cand_vals), [p.copy() for p in cand]
    for _ in range(64):
        side = rng.random(k) < 0.5
        a, b = xv * side, xv * ~side
        if a.sum() <= 0.0 or b.sum() <= 0.0:
            continue
        v = _w_sum([a, b], qm)
        if v < best:
            best, best_parts = v, [a, b]
    return best, best_parts


def _solve_system(xv: np.ndarray, qm: np.ndarray, n_parts: int, restarts: int,
                  seed: int) -> tuple[float, list[np.ndarray], int, int]:
    """Best system of at most n_parts vectors found by one search run,
    with the moves and evaluations of all its starts."""
    k = xv.size
    starts: list[np.ndarray] = []
    a = np.zeros((n_parts, k))
    a[0] = xv
    starts.append(a)
    a = np.zeros((n_parts, k))
    for j in range(k):
        a[j % n_parts, j] = xv[j]
    starts.append(a)
    for r in range(restarts):
        rng = rng_from_seed(derive_seed(seed, r + 1))
        a = np.zeros((n_parts, k))
        for j in range(k):
            if rng.random() < 0.5:
                a[rng.integers(n_parts), j] = xv[j]
            else:
                cuts = np.sort(rng.random(n_parts - 1))
                a[:, j] = xv[j] * np.diff(np.concatenate(([0.0], cuts, [1.0])))
        starts.append(a)

    best_total, best_rows = math.inf, starts[0]
    moves = evaluations = 0
    for a in starts:
        total, rows, n_moves, n_evals = _local_search(a.copy(), qm)
        moves += n_moves
        evaluations += n_evals
        if total < best_total - 1e-12:
            best_total, best_rows = total, rows
    rows = _snap_and_repair(best_rows, xv)
    parts = [rows[t].copy() for t in range(rows.shape[0]) if rows[t].sum() > 0.0]
    return _w_sum(parts, qm), parts, moves, evaluations


def _search_parts(x: BlockVector, q: QMatrix, max_parts: int, restarts: int,
                  seed: int) -> tuple[float, list[np.ndarray], str, int, int]:
    """(w-sum, parts, method, moves, evaluations) of the best system of at
    most max_parts vectors found for a nonzero x: the one-part system, then
    the best over part counts 2..max_parts (each count a feasible set
    containing the previous ones), or the light search above
    _FULL_SEARCH_MAX_K blocks.  Moves and evaluations count the local
    search over all part counts, and are 0 on the other paths."""
    xv = x.values
    qm = q.entries
    best, parts = _w_sum([xv], qm), [xv.copy()]
    if is_pseudodefinite(q):
        return best, parts, "pseudodefinite-shortcut", 0, 0
    if x.k > _FULL_SEARCH_MAX_K:
        val, cand = _light_candidates(xv, qm, rng_from_seed(derive_seed(seed, 0)),
                                      best)
        if len(cand) <= max_parts:  # only systems within the part budget count
            best, parts = val, cand
        return best, parts, "light-search", 0, 0
    moves = evaluations = 0
    for m in range(2, max_parts + 1):
        total, cand, n_moves, n_evals = _solve_system(xv, qm, m, restarts,
                                                      derive_seed(seed, m))
        moves += n_moves
        evaluations += n_evals
        if total < best - 1e-12:
            best, parts = total, cand
    return best, parts, "local-search", moves, evaluations


def w_star_solve(x: BlockVector, q: QMatrix, restarts: int = 4,
                 seed: int = 0) -> Decomposition:
    """Heuristic w*(x, Q): best-found system of at most k parts.

    Restarts use derived sub-seeds; the result is the deterministic minimum
    over all starts.  When Q is pseudodefinite the single-part system is
    returned directly (it is provably optimal).  `moves` and `evaluations`
    give the local search's effort over all starts and part counts; both
    are 0 when no local search ran.
    """
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    target = BlockVector(x.values, integer=x.is_integer)
    if x.norm == 0.0:
        return Decomposition(parts=[], target=target, w_sum=0.0, method="empty")
    best, parts, method, moves, evaluations = _search_parts(x, q, x.k,
                                                            restarts, seed)
    integer = x.is_integer and method == "pseudodefinite-shortcut"
    dec = Decomposition(parts=[BlockVector(p, integer=integer) for p in parts],
                        target=target, w_sum=best, method=method,
                        moves=moves, evaluations=evaluations)
    dec.validate()
    return dec


def w_ell(x: BlockVector, q: QMatrix, ell: int, seed: int = 0,
          restarts: int = 4) -> float:
    """Heuristic value of the at-most-ell-part relaxation.

    The same search as w_star_solve with the part count capped at ell, so
    the values are monotone nonincreasing in ell and w_ell at ell = k is
    the w_star_solve value for the same seed.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    if x.norm == 0.0:
        return 0.0
    return _search_parts(x, q, ell, restarts, seed)[0]


# ---------------------------------------------------------------------------
# Exact integer oracle
# ---------------------------------------------------------------------------

def _w_exact(part: tuple[int, ...], qfrac: list[list[Fraction]]) -> Fraction:
    """Exact corner maximum for an integer vector, in rational arithmetic."""
    support = [i for i, v in enumerate(part) if v > 0]
    best = Fraction(0)
    for r in range(1, len(support) + 1):
        for sub in itertools.combinations(support, r):
            quad = Fraction(0)
            norm = 0
            for ai, a in enumerate(sub):
                norm += part[a]
                quad += qfrac[a][a] * part[a] * part[a]
                for b in sub[ai + 1:]:
                    quad += 2 * qfrac[a][b] * part[a] * part[b]
            val = quad / norm
            if val > best:
                best = val
    return best


def _descending_box(rem: tuple[int, ...], bound: Optional[tuple[int, ...]]):
    """Nonzero integer vectors v <= rem componentwise, lexicographically at
    most `bound`, in descending lexicographic order."""
    for v in itertools.product(*(range(r, -1, -1) for r in rem)):
        if bound is not None and v > bound:
            continue
        if any(v):
            yield v


def oracle_guard_states(x: Sequence[int], k: int) -> int:
    """Crude upper estimate of enumeration states for the guard."""
    box = 1
    for c in x:
        box *= int(c) + 1
    parts_allowed = max(1, min(k, sum(int(c) for c in x)))
    return box ** max(1, parts_allowed - 1)


def w_star_bruteforce(x: BlockVector, q: QMatrix) -> Decomposition:
    """Globally minimal w-sum over decompositions of integer x into at most
    k nonzero integer vectors, in exact rational arithmetic.

    Guarded: refuses instances whose enumeration could exceed ~10^7 states.
    The result carries `w_sum_exact` (a Fraction) next to the float `w_sum`.
    """
    if not x.is_integer:
        raise ModelError("brute-force oracle needs an integer-flagged vector")
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    xi = x.as_ints()
    k = x.k
    if oracle_guard_states(xi, k) > _ORACLE_STATE_GUARD:
        raise GuardError("instance too large for the brute-force oracle "
                         f"(guard {_ORACLE_STATE_GUARD} states)")
    target = BlockVector(x.values, integer=True)
    if sum(xi) == 0:
        return Decomposition(parts=[], target=target, w_sum=0.0,
                             method="bruteforce", w_sum_exact=Fraction(0))

    qfrac = [[Fraction(float(q.entries[i, j])) for j in range(k)] for i in range(k)]
    diag = np.diag(q.entries)
    diag_sum = float(diag.sum())
    memo: dict[tuple[int, ...], tuple[Fraction, float]] = {}

    def part_w(v: tuple[int, ...]) -> tuple[Fraction, float]:
        got = memo.get(v)
        if got is None:
            exact = _w_exact(v, qfrac)
            got = (exact, float(exact))
            memo[v] = got
        return got

    def lower_bound(rem: tuple[int, ...]) -> float:
        norm = sum(rem)
        if norm == 0 or diag_sum <= 0.0:
            return 0.0
        s = float(np.dot(np.asarray(rem, dtype=float), diag))
        return s * s / (norm * diag_sum) - 1e-9

    best: dict = {"sum": None, "float": math.inf, "parts": None}

    def recurse(rem, bound, parts_left, acc, acc_sum, acc_float):
        if not any(rem):
            if best["sum"] is None or acc_sum < best["sum"]:
                best["sum"], best["float"], best["parts"] = acc_sum, acc_float, list(acc)
            return
        if parts_left == 0:
            return
        for v in _descending_box(rem, bound):
            exact, flt = part_w(v)
            nxt = tuple(r - c for r, c in zip(rem, v))
            if acc_float + flt + lower_bound(nxt) > best["float"] + 1e-6:
                continue
            acc.append(v)
            recurse(nxt, v, parts_left - 1, acc, acc_sum + exact, acc_float + flt)
            acc.pop()

    recurse(xi, None, min(k, sum(xi)), [], Fraction(0), 0.0)
    parts = [BlockVector(p, integer=True) for p in best["parts"]]
    dec = Decomposition(parts=parts, target=target, w_sum=float(best["sum"]),
                        method="bruteforce", w_sum_exact=best["sum"])
    dec.validate()
    return dec


# ---------------------------------------------------------------------------
# Near-optimal integer system
# ---------------------------------------------------------------------------

def near_optimal_integer_system(x: BlockVector, q: QMatrix,
                                seed: int = 0) -> Decomposition:
    """Integer system of at most k parts summing exactly to x, with w-sum
    within k^2 q* (plus solver tolerance) of the heuristic real optimum:
    round_integer_system applied to w_star_solve(x, q)."""
    if not x.is_integer:
        raise ModelError("near-optimal integer system needs an integer vector")
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    return round_integer_system(w_star_solve(x, q, seed=derive_seed(seed, 0)), q)


def round_integer_system(real: Decomposition, q: QMatrix) -> Decomposition:
    """Integer system of at most k parts summing exactly to real.target.

    Floors the parts of the real system, then re-adds every
    rounding-remainder unit to whichever part (or fresh part, while fewer
    than k exist) grows the least; the all-singletons and one-part systems
    compete as fallbacks.  A pseudodefinite-shortcut system is its one
    integral part, which no system beats, so it is returned unpriced.
    Depends on the real system only, so one solve can be rounded once and
    shared.
    """
    x = real.target
    if not x.is_integer:
        raise ModelError("rounding to an integer system needs an integer target")
    if x.k != q.k:
        raise ModelError("dimension mismatch")
    k = x.k
    xi = np.asarray(x.as_ints(), dtype=np.int64)
    qm = q.entries
    if xi.sum() == 0:
        return Decomposition(parts=[], target=x, w_sum=0.0,
                             method="integer-empty")
    if real.method == "pseudodefinite-shortcut":
        return Decomposition(parts=[BlockVector(xi, integer=True)], target=x,
                             w_sum=real.w_sum, method="integer-greedy")

    def greedy_round(real_parts: list[np.ndarray]) -> list[np.ndarray]:
        parts = [np.floor(p + 1e-9).astype(np.int64) for p in real_parts]
        parts = [p for p in parts if p.sum() > 0]
        have = np.sum(parts, axis=0) if parts else np.zeros(k, dtype=np.int64)
        rem = xi - have
        for i in range(k):
            for _ in range(int(rem[i])):
                best_cost, best_t = math.inf, None
                if parts:
                    cur = np.asarray(parts, dtype=np.float64)
                    trial = cur.copy()
                    trial[:, i] += 1.0
                    costs = _w_batch(trial, qm) - _w_batch(cur, qm)
                    best_t = int(np.argmin(costs))
                    best_cost = float(costs[best_t])
                if len(parts) < k and qm[i, i] < best_cost - 1e-12:
                    best_t = None
                if best_t is None:
                    fresh = np.zeros(k, dtype=np.int64)
                    fresh[i] = 1
                    parts.append(fresh)
                else:
                    parts[best_t] = parts[best_t].copy()
                    parts[best_t][i] += 1
        return parts

    candidates: list[list[np.ndarray]] = [
        greedy_round([p.values for p in real.parts]),
        [xi * (np.arange(k) == i) for i in range(k) if xi[i] > 0],  # singletons
        [xi.copy()],                                                # one part
    ]
    best_val, best_idx = min((_w_sum(c, qm), idx)
                             for idx, c in enumerate(candidates))
    parts = [BlockVector(p, integer=True) for p in candidates[best_idx]]
    dec = Decomposition(parts=parts, target=x, w_sum=best_val,
                        method="integer-greedy")
    dec.validate()
    return dec
