import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmchroma import functionals
from sbmchroma.functionals import (GuardError, is_pseudodefinite,
                                   near_optimal_integer_system,
                                   round_integer_system, w_ell,
                                   w_star_bounds, w_star_bruteforce,
                                   w_star_solve, w_value, w_value_sampled)
from sbmchroma.model import BlockVector, ModelError, QMatrix, q_star
from sbmchroma.seeds import derive_seed


def rand_qmatrix(rng, k, hi=3.0):
    a = rng.uniform(0.0, hi, (k, k))
    return QMatrix((a + a.T) / 2.0)


Q_CROSS = QMatrix([[1.0, 3.0], [3.0, 1.0]])
I2 = QMatrix(np.eye(2))


class TestWValue:
    def test_tied_corners_pick_smallest_support(self):
        sol = w_value(BlockVector([2, 2]), I2)
        assert sol.value == pytest.approx(2.0)
        assert sol.support == (0,)

    def test_all_corners_tied_at_k17(self):
        # every nonempty corner of 2^17 ties; only the singletons are
        # compared as supports
        sol = w_value(BlockVector.integral([2] * 17), QMatrix(np.eye(17)))
        assert sol.value == 2.0
        assert sol.support == (0,)
        assert sol.maximizer.values.tolist() == [2.0] + [0.0] * 16

    def test_cross_heavy_prefers_full_box(self):
        sol = w_value(BlockVector([1, 1]), Q_CROSS)
        assert sol.value == pytest.approx(4.0)
        assert sol.support == (0, 1)
        assert np.array_equal(sol.maximizer.values, [1.0, 1.0])

    def test_zero_vector(self):
        sol = w_value(BlockVector([0, 0]), Q_CROSS)
        assert sol.value == 0.0
        assert sol.support == ()

    def test_corner_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.uniform(0, 5, k))
            sol = w_value(x, q)
            for zi, xi in zip(sol.maximizer.values, x.values):
                assert zi == 0.0 or zi == xi

    def test_guard(self):
        k = 31
        with pytest.raises(GuardError):
            w_value(BlockVector(np.ones(k)), QMatrix(np.eye(k)))

    def test_scaling_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            x = rng.uniform(0, 5, k)
            s = rng.uniform(0.1, 4.0)
            v1 = w_value(BlockVector(s * x), q).value
            v2 = s * w_value(BlockVector(x), q).value
            assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            x = rng.uniform(0, 5, k)
            xs = x * rng.uniform(0, 1, k)
            assert (w_value(BlockVector(xs), q).value
                    <= w_value(BlockVector(x), q).value + 1e-9)


def exact_w(row, q):
    qfrac = [[Fraction(float(v)) for v in r] for r in q.entries]
    return float(functionals._w_exact(tuple(int(v) for v in row), qfrac))


def einsum_w_batch(rows, qm):
    """The corner engine as an einsum over the masks, kept as a reference."""
    m, k = rows.shape
    if m == 0:
        return np.zeros(0)
    masks = functionals._corner_masks(k)
    outer = rows[:, :, None] * rows[:, None, :] * qm[None, :, :]
    quad = np.einsum("ck,mkl,cl->mc", masks, outer, masks, optimize=True)
    norms = rows @ masks.T
    vals = np.divide(quad, norms, out=np.zeros_like(quad), where=norms > 0.0)
    return vals.max(axis=1)


def disassortative_q(rng, k):
    a = rng.uniform(1.0, 3.0, (k, k))
    q = (a + a.T) / 2.0
    np.fill_diagonal(q, rng.uniform(0.0, 0.3, k))
    return QMatrix(q)


class TestCornerEngine:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_matches_rational_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        q = rand_qmatrix(rng, k)
        n_rows = 8 if k <= 8 else 2
        rows = rng.integers(0, 6, (n_rows, k)) * (rng.random((n_rows, k)) < 0.7)
        rows[0] = 0  # all-zero row
        got = functionals._w_batch(rows.astype(np.float64), q.entries)
        want = [exact_w(r, q) for r in rows]
        assert got[0] == 0.0
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [2, 5, 7, 10, 11])
    def test_batch_agrees_with_single_rows(self, k):
        rng = np.random.default_rng(200 + k)
        q = rand_qmatrix(rng, k)
        rows = rng.uniform(0, 5, (6, k)) * (rng.random((6, k)) < 0.7)
        rows[1] = 0.0
        batch = functionals._w_batch(rows, q.entries)
        for r, b in zip(rows, batch):
            one = functionals._w_batch(r[None], q.entries)[0]
            assert one == pytest.approx(b, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_row_has_the_same_bits_alone_and_in_a_batch(self, k):
        # a one-row product would go to BLAS gemv and round differently
        rng = np.random.default_rng(1200 + k)
        q = rand_qmatrix(rng, k)
        rows = rng.uniform(0, 5, (40, k)) * (rng.random((40, k)) < 0.8)
        batch = functionals._w_batch(rows, q.entries)
        for r, b in zip(rows, batch):
            assert functionals._w_batch(r[None], q.entries)[0] == b
            assert w_value(BlockVector(r), q).value == b

    def test_guard_refuses_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("corners enumerated past the guard")
        monkeypatch.setattr(functionals, "_corner_masks", refuse)
        monkeypatch.setattr(functionals, "_chunk_masks", refuse)
        k = functionals.MAX_CORNER_K + 1
        with pytest.raises(GuardError):
            functionals._w_batch(np.ones((2, k)), np.eye(k))
        with pytest.raises(GuardError):
            w_star_solve(BlockVector(np.ones(k)), QMatrix(np.eye(k)))

    @pytest.mark.parametrize("k", [5, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solver_matches_einsum_engine(self, k, seed, monkeypatch):
        rng = np.random.default_rng(300 + 10 * k + seed)
        q = disassortative_q(rng, k)
        assert not is_pseudodefinite(q)
        x = BlockVector.integral(rng.integers(1, 8, k))
        dec = w_star_solve(x, q, seed=seed)
        monkeypatch.setattr(functionals, "_w_batch", einsum_w_batch)
        ref = w_star_solve(x, q, seed=seed)
        assert dec.method == ref.method == "local-search"
        assert len(dec.parts) == len(ref.parts)
        assert dec.w_sum == pytest.approx(ref.w_sum, rel=1e-9, abs=1e-9)


def corner_scan_w_value(x, q):
    """w_value as it was with its own corner arithmetic, kept as a
    reference: (value, support, maximizer, number of distinct supports
    within the tie tolerance of the value)."""
    xv, qm, k = x.values, q.entries, x.k
    if k <= functionals._CHUNK_BITS:
        chunks = [functionals._corner_masks(k)]
    else:
        step = 1 << functionals._CHUNK_BITS
        chunks = (functionals._chunk_masks(k, lo, lo + step)
                  for lo in range(0, 1 << k, step))
    best_val, best_key, best_z = 0.0, (0, ()), np.zeros(k)
    seen = {}
    for masks in chunks:
        z = masks * xv
        norms = z.sum(axis=1)
        quad = ((z @ qm) * z).sum(axis=1)
        vals = np.divide(quad, norms, out=np.zeros_like(quad),
                         where=norms > 0.0)
        vmax = float(vals.max())
        tol = 1e-12 * max(1.0, abs(vmax), abs(best_val))
        if vmax < best_val - tol:
            continue
        for idx in np.nonzero(vals >= max(vmax, best_val) - tol)[0]:
            zi = z[idx]
            supp = tuple(int(i) for i in np.nonzero(zi > 0.0)[0])
            key = (len(supp), supp)
            seen[key] = max(seen.get(key, -math.inf), float(vals[idx]))
            if vals[idx] > best_val + tol or (vals[idx] >= best_val - tol
                                              and key < best_key):
                best_val, best_key, best_z = float(vals[idx]), key, zi.copy()
    tol = 1e-12 * max(1.0, abs(best_val))
    tied = sum(v >= best_val - tol for v in seen.values())
    return best_val, best_key[1], best_z, tied


def one_engine_cases():
    """500 seeded (x, Q): 40 at each k = 1..12 and 20 at k = 17 (chunked).
    Every third case is integer, where corners can tie exactly: a constant
    x under a multiple of the identity (every nonempty corner ties; up to
    k = 12), or 0/1 entries in both x and Q."""
    cases = []
    for k, count in [(k, 40) for k in range(1, 13)] + [(17, 20)]:
        rng = np.random.default_rng(900 + k)
        for i in range(count):
            if i % 6 == 0 and k <= 12:  # at k = 17, 2^17 tied corners
                q = QMatrix(float(rng.integers(1, 4)) * np.eye(k))
                x = BlockVector.integral([int(rng.integers(1, 4))] * k)
            elif i % 6 == 3:
                a = rng.integers(0, 2, (k, k)).astype(np.float64)
                q = QMatrix(np.triu(a) + np.triu(a, 1).T)
                x = BlockVector.integral(rng.integers(0, 2, k))
            else:
                q = rand_qmatrix(rng, k)
                x = BlockVector(rng.uniform(0, 5, k) * (rng.random(k) < 0.8))
            cases.append((k, x, q))
    return cases


class TestOneCornerEngine:
    """w_value and _w_batch read one corner engine."""

    def test_value_is_one_row_batch_and_maximizer_is_corner_scan(self):
        cases = one_engine_cases()
        assert len(cases) == 500
        tied_cases = 0
        for k, x, q in cases:
            sol = w_value(x, q)
            one_row = functionals._w_batch(x.values[None], q.entries)[0]
            assert sol.value == one_row, (k, x.values.tolist())
            value, support, maximizer, tied = corner_scan_w_value(x, q)
            assert sol.support == support, (k, x.values.tolist())
            assert np.array_equal(sol.maximizer.values, maximizer)
            assert sol.value == pytest.approx(value, rel=1e-12, abs=0.0)
            tied_cases += tied > 1
        assert tied_cases >= 80  # the tie-break is exercised


class TestWValueSampled:
    def test_approaches_corner_max(self):
        got = w_value_sampled(BlockVector([1, 1]), Q_CROSS, trials=10_000, seed=1)
        assert 3.9 < got <= 4.0

    def test_zero_cases(self):
        assert w_value_sampled(BlockVector([0, 0]), Q_CROSS, 100, 0) == 0.0
        assert w_value_sampled(BlockVector([2, 2]), QMatrix(np.zeros((2, 2))),
                               100, 0) == 0.0

    def test_never_exceeds_corner_value(self):
        rng = np.random.default_rng(4)
        for i in range(30):
            k = int(rng.integers(1, 6))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.uniform(0, 5, k))
            assert (w_value_sampled(x, q, 10_000, seed=i)
                    <= w_value(x, q).value + 1e-9)


class TestPseudodefinite:
    def test_identity_is_pseudodefinite(self):
        assert is_pseudodefinite(QMatrix(np.eye(3)))

    def test_cross_heavy_is_not(self):
        assert not is_pseudodefinite(Q_CROSS)  # y=(1,-1): y^T Q y = -4

    def test_k2_boundary_classifies_true(self):
        q = QMatrix([[1.0, 1.5], [1.5, 2.0]])  # q12 == (q11+q22)/2
        assert is_pseudodefinite(q)

    def test_scalar(self):
        assert is_pseudodefinite(QMatrix([[0.7]]))


class TestOracle:
    def test_split_beats_mixing(self):
        dec = w_star_bruteforce(BlockVector.integral([1, 1]), Q_CROSS)
        assert dec.w_sum == pytest.approx(2.0)
        assert sorted(tuple(p.values) for p in dec.parts) == [(0.0, 1.0), (1.0, 0.0)]
        assert dec.w_sum_exact == Fraction(2)

    def test_identity_matrix(self):
        dec = w_star_bruteforce(BlockVector.integral([2, 2]), I2)
        assert dec.w_sum == pytest.approx(2.0)

    def test_single_block(self):
        dec = w_star_bruteforce(BlockVector.integral([1, 0]), Q_CROSS)
        assert len(dec.parts) == 1
        assert tuple(dec.parts[0].values) == (1.0, 0.0)
        assert dec.w_sum == pytest.approx(1.0)  # q11

    def test_guard_trips(self):
        with pytest.raises(GuardError):
            w_star_bruteforce(BlockVector.integral([9] * 6),
                              QMatrix(np.eye(6)))

    def test_zero_target(self):
        dec = w_star_bruteforce(BlockVector.integral([0, 0]), I2)
        assert dec.parts == [] and dec.w_sum == 0.0


class TestSolver:
    def test_matches_oracle_on_cross(self):
        dec = w_star_solve(BlockVector([1, 1]), Q_CROSS, seed=0)
        assert dec.w_sum == pytest.approx(2.0, abs=1e-6)

    def test_pseudodefinite_shortcut(self):
        dec = w_star_solve(BlockVector([2, 2]), I2)
        assert dec.method == "pseudodefinite-shortcut"
        assert dec.w_sum == pytest.approx(2.0)
        assert len(dec.parts) == 1

    def test_empty(self):
        dec = w_star_solve(BlockVector([0, 0]), Q_CROSS)
        assert dec.parts == [] and dec.w_sum == 0.0

    def test_never_beats_lower_bound_and_never_exceeds_w(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.uniform(0, 5, k))
            dec = w_star_solve(x, q, seed=i)
            lower, upper = w_star_bounds(x, q)
            assert dec.w_sum >= lower - 1e-9
            assert dec.w_sum <= w_value(x, q).value + 1e-9
            assert dec.w_sum <= upper + 1e-6

    def test_oracle_agreement(self):
        # heuristic over reals never sits above the integer oracle; report
        # (not fail) if it finds a strictly better real relaxation
        rng = np.random.default_rng(6)
        flagged = []
        for i in range(40):
            k = int(rng.integers(2, 4))
            q = rand_qmatrix(rng, k)
            xi = rng.integers(0, 5, k)
            if xi.sum() == 0:
                continue
            x = BlockVector(xi, integer=True)
            oracle = w_star_bruteforce(x, q)
            heur = w_star_solve(x, q, seed=i)
            assert heur.w_sum <= oracle.w_sum + 1e-6
            if heur.w_sum < oracle.w_sum - 1e-6:
                flagged.append((xi.tolist(), heur.w_sum, oracle.w_sum))
        if flagged:  # real relaxation strictly below the integer optimum
            print(f"real-vs-integer gap instances for review: {flagged}")

    def test_scaling_heuristic(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            k = int(rng.integers(1, 4))
            q = rand_qmatrix(rng, k)
            x = rng.uniform(0.2, 4, k)
            s = rng.uniform(0.5, 2.0)
            v1 = w_star_solve(BlockVector(s * x), q, seed=i).w_sum
            v2 = s * w_star_solve(BlockVector(x), q, seed=i).w_sum
            assert v1 == pytest.approx(v2, rel=1e-6, abs=1e-6)


def full_local_search(rows, qm):
    """The w* local search as it was before its candidate cache: every
    iteration rebuilds and re-evaluates both rows of every live candidate.
    Kept as the reference; the only addition is the move counter."""
    _w_batch = functionals._w_batch
    _MOVE_FRACS = functionals._MOVE_FRACS
    moves = 0
    n_parts, k = rows.shape
    tol = 1e-12 * max(1.0, float(rows.sum()))
    roww = _w_batch(rows, qm)
    total = float(roww.sum())
    pairs = [(t1, t2) for t1 in range(n_parts) for t2 in range(n_parts) if t1 != t2]
    t1s_all = np.array([p[0] for p in pairs for _ in range(k)])
    t2s_all = np.array([p[1] for p in pairs for _ in range(k)])
    js_all = np.array([j for _ in pairs for j in range(k)])
    while_guard = 64 * n_parts * k  # accepted-move cap, never hit in practice
    for frac in _MOVE_FRACS:
        for _ in range(while_guard):
            amounts = rows[t1s_all, js_all] * frac
            live = amounts > tol
            if not np.any(live):
                break
            t1s, t2s, js, amt = (t1s_all[live], t2s_all[live],
                                 js_all[live], amounts[live])
            m = t1s.size
            r1 = rows[t1s].copy()
            r1[np.arange(m), js] -= amt
            r2 = rows[t2s].copy()
            r2[np.arange(m), js] += amt
            gains = (_w_batch(r1, qm) + _w_batch(r2, qm)) - (roww[t1s] + roww[t2s])
            pick = int(np.argmin(gains))
            if gains[pick] >= -1e-12 * max(1.0, abs(total)):
                break
            rows[t1s[pick]] = r1[pick]
            rows[t2s[pick]] = r2[pick]
            roww[[t1s[pick], t2s[pick]]] = _w_batch(
                rows[[t1s[pick], t2s[pick]]], qm)
            total = float(roww.sum())
            moves += 1
    return total, rows, moves


def search_start(rng, k, n_parts):
    """A seeded allocation matrix with a zero column (dead candidates), a
    column held whole by one row, and random splits elsewhere."""
    xv = rng.integers(1, 9, k).astype(np.float64)
    xv[rng.integers(k)] = 0.0
    rows = np.zeros((n_parts, k))
    for j in range(k):
        if j % 2 == 0:
            rows[rng.integers(n_parts), j] = xv[j]
        else:
            cuts = np.sort(rng.random(n_parts - 1))
            rows[:, j] = xv[j] * np.diff(np.concatenate(([0.0], cuts, [1.0])))
    return rows


class TestCachedLocalSearch:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_bitwise_equal_to_full_reevaluation(self, k):
        rng = np.random.default_rng(400 + k)
        for q in (disassortative_q(rng, k), rand_qmatrix(rng, k, hi=0.9)):
            for n_parts in range(2, k + 1):
                start = search_start(rng, k, n_parts)
                total, rows, moves, _ = functionals._local_search(
                    start.copy(), q.entries)
                ref_total, ref_rows, ref_moves = full_local_search(
                    start.copy(), q.entries)
                assert total == ref_total
                assert np.array_equal(rows, ref_rows)
                assert moves == ref_moves

    def test_evaluations_count_rows_passed_to_the_engine(self, monkeypatch):
        rng = np.random.default_rng(410)
        q = disassortative_q(rng, 5).entries
        start = search_start(rng, 5, 3)
        seen = []
        engine = functionals._w_batch

        def counted(rows, qm):
            seen.append(rows.shape[0])
            return engine(rows, qm)

        monkeypatch.setattr(functionals, "_w_batch", counted)
        _, _, moves, evals = functionals._local_search(start, q)
        assert moves > 0
        assert evals == sum(seen)
        assert all(m != 1 for m in seen)  # one-row batches take another BLAS path

    @pytest.mark.parametrize("seed", [0, 1])
    def test_w_star_solve_matches_full_reevaluation(self, seed, monkeypatch):
        rng = np.random.default_rng(420 + seed)
        q = disassortative_q(rng, 6)
        x = BlockVector.integral(rng.integers(1, 8, 6))
        dec = w_star_solve(x, q, seed=seed)
        ref_moves = []

        def reference(rows, qm):
            total, rows, moves = full_local_search(rows, qm)
            ref_moves.append(moves)
            return total, rows, moves, 0

        monkeypatch.setattr(functionals, "_local_search", reference)
        ref = w_star_solve(x, q, seed=seed)
        assert dec.method == ref.method == "local-search"
        assert dec.w_sum == ref.w_sum
        assert len(dec.parts) == len(ref.parts)
        for p, r in zip(dec.parts, ref.parts):
            assert np.array_equal(p.values, r.values)
            assert p.is_integer == r.is_integer
        assert np.array_equal(dec.target.values, ref.target.values)
        assert dec.moves == sum(ref_moves) > 0
        assert dec.evaluations > 0

    def test_effort_is_zero_without_a_search(self):
        shortcut = w_star_solve(BlockVector([2, 2]), I2)
        empty = w_star_solve(BlockVector([0, 0]), Q_CROSS)
        assert shortcut.method == "pseudodefinite-shortcut"
        assert (shortcut.moves, shortcut.evaluations) == (0, 0)
        assert (empty.moves, empty.evaluations) == (0, 0)


class TestWEll:
    def test_ell_one_is_w(self):
        assert w_ell(BlockVector([1, 1]), Q_CROSS, 1) == pytest.approx(
            w_value(BlockVector([1, 1]), Q_CROSS).value)

    def test_two_part_split(self):
        assert w_ell(BlockVector([1, 1]), Q_CROSS, 2, seed=0) == pytest.approx(
            2.0, abs=1e-6)

    def test_monotone_and_sandwiched(self):
        rng = np.random.default_rng(8)
        for i in range(25):
            k = int(rng.integers(2, 5))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.uniform(0, 5, k))
            vals = [w_ell(x, q, ell, seed=i) for ell in (1, 2, 3)]
            assert vals[1] <= vals[0] + 1e-9
            assert vals[2] <= vals[1] + 1e-9
            star = w_star_solve(x, q, seed=i).w_sum
            top = w_value(x, q).value
            for v in vals:
                assert star - 1e-6 <= v <= top + 1e-9


    def test_ell_k_is_the_w_star_solve_value(self):
        # one part-count loop serves both
        rng = np.random.default_rng(12)
        for i in range(12):
            k = int(rng.integers(2, 5))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.uniform(0.1, 5, k))
            assert w_ell(x, q, k, seed=i) == w_star_solve(x, q, seed=i).w_sum

class TestNearOptimalIntegerSystem:
    def test_cross_instance(self):
        x = BlockVector.integral([1, 1])
        dec = near_optimal_integer_system(x, Q_CROSS, seed=0)
        assert dec.w_sum == pytest.approx(2.0, abs=1e-6)
        assert dec.w_sum <= (w_star_solve(x, Q_CROSS).w_sum
                             + 4 * q_star(Q_CROSS) + 1e-6)

    def test_single_block_vector(self):
        dec = near_optimal_integer_system(BlockVector.integral([5, 0]),
                                          Q_CROSS, seed=0)
        assert [tuple(p.values) for p in dec.parts] == [(5.0, 0.0)]
        assert dec.w_sum == pytest.approx(5.0)

    def test_parts_sum_exactly(self):
        rng = np.random.default_rng(9)
        for i in range(100):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            xi = rng.integers(0, 6, k)
            x = BlockVector(xi, integer=True)
            dec = near_optimal_integer_system(x, q, seed=i)
            total = np.zeros(k)
            for p in dec.parts:
                assert p.is_integer
                total += p.values
            assert np.array_equal(total, x.values.astype(float))
            assert len(dec.parts) <= k

    def test_is_the_rounding_of_one_solve(self):
        rng = np.random.default_rng(13)
        for i in range(20):
            k = int(rng.integers(1, 5))
            q = rand_qmatrix(rng, k)
            x = BlockVector(rng.integers(0, 7, k), integer=True)
            real = w_star_solve(x, q, seed=derive_seed(i, 0))
            a = near_optimal_integer_system(x, q, seed=i)
            b = round_integer_system(real, q)
            assert (a.w_sum, a.method) == (b.w_sum, b.method)
            assert ([p.values.tolist() for p in a.parts]
                    == [p.values.tolist() for p in b.parts])

    def test_one_part_system_rounds_to_itself_unpriced(self, monkeypatch):
        q = QMatrix([[1.0, 0.2, 0.4], [0.2, 0.8, 0.3], [0.4, 0.3, 1.2]])
        assert is_pseudodefinite(q)
        x = BlockVector.integral([3, 5, 2])
        real = w_star_solve(x, q)
        assert real.method == "pseudodefinite-shortcut"
        priced, engine = [], functionals._w_batch

        def counting(rows, qm):
            priced.append(len(rows))
            return engine(rows, qm)
        monkeypatch.setattr(functionals, "_w_batch", counting)
        dec = round_integer_system(real, q)
        assert priced == []
        assert [p.values.tolist() for p in dec.parts] == [[3.0, 5.0, 2.0]]
        assert dec.parts[0].is_integer
        assert (dec.w_sum, dec.method) == (real.w_sum, "integer-greedy")

    def test_rounding_needs_an_integer_target_of_q_dimension(self):
        with pytest.raises(ModelError):
            round_integer_system(w_star_solve(BlockVector([1.5, 2.0]), Q_CROSS),
                                 Q_CROSS)
        with pytest.raises(ModelError):
            round_integer_system(w_star_solve(BlockVector.integral([1, 2]),
                                              Q_CROSS), QMatrix(np.eye(3)))

    def test_within_k_squared_qstar_of_heuristic(self):
        rng = np.random.default_rng(10)
        for i in range(60):
            k = int(rng.integers(2, 5))
            q = rand_qmatrix(rng, k)
            xi = rng.integers(0, 6, k)
            if xi.sum() == 0:
                continue
            x = BlockVector(xi, integer=True)
            dec = near_optimal_integer_system(x, q, seed=i)
            base = w_star_solve(x, q, seed=i).w_sum
            assert dec.w_sum <= base + k * k * q_star(q) + 1e-6


class TestBounds:
    def test_identity_example(self):
        lower, upper = w_star_bounds(BlockVector([1, 1]), I2)
        assert (lower, upper) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_cross_example(self):
        lower, upper = w_star_bounds(BlockVector([1, 1]), Q_CROSS)
        assert (lower, upper) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_zero_matrix(self):
        assert w_star_bounds(BlockVector([1, 1]),
                             QMatrix(np.zeros((2, 2)))) == (0.0, 0.0)

    def test_sandwich_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            q = rand_qmatrix(rng, k)
            xi = rng.integers(0, 5, k)
            if xi.sum() == 0:
                continue
            x = BlockVector(xi, integer=True)
            lower, upper = w_star_bounds(x, q)
            dec = w_star_bruteforce(x, q)
            assert lower - 1e-9 <= dec.w_sum <= upper + 1e-9


class TestTriangleInequality:
    def test_on_integer_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            q = rand_qmatrix(rng, k)
            a = rng.integers(0, 5, k)
            b = rng.integers(0, 5, k)
            if a.sum() == 0 or b.sum() == 0:
                continue
            wa = w_star_bruteforce(BlockVector(a, integer=True), q).w_sum
            wb = w_star_bruteforce(BlockVector(b, integer=True), q).w_sum
            wab = w_star_bruteforce(BlockVector(a + b, integer=True), q).w_sum
            assert wa + wb >= wab - 1e-9


@st.composite
def vector_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    elems = st.floats(min_value=0.0, max_value=5.0)
    y = draw(st.lists(elems, min_size=k, max_size=k))
    z = draw(st.lists(elems, min_size=k, max_size=k))
    q = [[draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(k)]
         for _ in range(k)]
    return y, z, q


@settings(max_examples=200, deadline=None)
@given(vector_pairs())
def test_split_merge_identity(data):
    """f(y) + f(z) - f(y+z) equals the weighted difference form, where
    f(v) = v^T Q v / ||v||."""
    y, z, qraw = data
    k = len(y)
    q = np.array(qraw)
    q = (q + q.T) / 2.0
    y = np.array(y)
    z = np.array(z)
    ny, nz = y.sum(), z.sum()

    def f(v):
        nv = v.sum()
        return 0.0 if nv == 0.0 else float(v @ q @ v) / nv

    lhs = f(y) + f(z) - f(y + z)
    if ny == 0.0 or nz == 0.0:
        rhs = 0.0
    else:
        d = y / ny - z / nz
        rhs = (ny * nz) / (ny + nz) * float(d @ q @ d)
    assert lhs == pytest.approx(rhs, abs=1e-9)
