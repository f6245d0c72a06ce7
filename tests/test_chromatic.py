import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sbmchroma import chromatic
from sbmchroma.chromatic import (BudgetExceededError, Colouring, alpha_h,
                                 balanced_extraction_colouring,
                                 dsatur_colouring, exact_chromatic,
                                 exact_colouring, find_balanced_independent_set,
                                 independent_set_probability, max_avg_degree,
                                 partition_objective)
from sbmchroma.functionals import GuardError, near_optimal_integer_system
from sbmchroma.graphs import BlowUpSpec, SbmGraph, blow_up, sample_sbm
from sbmchroma.model import BlockVector, ModelError, ModelInstance, ProbMatrix
from sbmchroma.seeds import derive_seed


def complete_graph(n):
    return SbmGraph(n, [0] * n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n)], k=1)


def cycle_graph(n):
    return SbmGraph(n, [0] * n, [(i, (i + 1) % n) for i in range(n)], k=1)


PETERSEN = SbmGraph(10, [0] * 10,
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)], k=1)


def messy_graph(n, seed):
    """Graph from a random pair list with duplicated and reversed pairs."""
    u, v = np.random.default_rng(seed).integers(0, n, (2, 4 * n))
    pairs = np.column_stack((u, v))[u != v]
    return SbmGraph(n, [0] * n, np.vstack([pairs, pairs[::2, ::-1]]), k=1)


def brute_force_chromatic(g: SbmGraph) -> int:
    """Independent oracle: try all assignments with c colours, c ascending."""
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges):
                return c
    return 0


class TestExactChromatic:
    def test_complete(self):
        assert exact_chromatic(complete_graph(4)) == 4

    def test_odd_cycle(self):
        assert exact_chromatic(cycle_graph(5)) == 3

    def test_petersen_vs_bruteforce(self):
        assert brute_force_chromatic(PETERSEN) == 3
        assert exact_chromatic(PETERSEN) == 3

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(0)
        for i in range(25):
            n = int(rng.integers(1, 8))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = SbmGraph(n, [0] * n, edges, k=1)
            assert exact_chromatic(g) == brute_force_chromatic(g)

    def test_budget_error_carries_bracket(self):
        g = sample_sbm(ModelInstance.gnp(40, 0.5), 5)
        with pytest.raises(BudgetExceededError) as err:
            exact_chromatic(g, budget=3)
        assert 1 <= err.value.lower <= err.value.upper <= 40

    def test_colouring_is_proper_and_canonical(self):
        g = sample_sbm(ModelInstance.gnp(30, 0.4), 9)
        col = exact_colouring(g)
        col.check_proper(g)
        assert sorted(set(col.colour_of.tolist())) == list(range(col.num_colours))


class TestDsatur:
    def test_empty_graph_one_colour(self):
        g = SbmGraph(5, [0] * 5, [], k=1)
        assert dsatur_colouring(g, 0).num_colours == 1

    def test_complete_graph(self):
        assert dsatur_colouring(complete_graph(6), 0).num_colours == 6

    def test_exact_on_bipartite(self):
        rng = np.random.default_rng(1)
        for i in range(40):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            edges = [(u, n1 + v) for u in range(n1) for v in range(n2)
                     if rng.random() < 0.5]
            g = SbmGraph(n1 + n2, [0] * (n1 + n2), edges, k=1)
            col = dsatur_colouring(g, seed=i)
            col.check_proper(g)
            assert col.num_colours <= 2

    def test_deterministic_given_seed(self):
        g = sample_sbm(ModelInstance.gnp(40, 0.5), 3)
        a = dsatur_colouring(g, seed=5)
        b = dsatur_colouring(g, seed=5)
        assert np.array_equal(a.colour_of, b.colour_of)

    def test_never_below_exact(self):
        rng = np.random.default_rng(2)
        for i in range(20):
            n = int(rng.integers(2, 30))
            g = sample_sbm(ModelInstance.gnp(n, float(rng.uniform(0.2, 0.8))),
                           100 + i)
            assert dsatur_colouring(g, i).num_colours >= exact_chromatic(g)


class TestMad:
    def test_triangle(self):
        assert max_avg_degree(complete_graph(3)) == Fraction(2)

    def test_path_three(self):
        g = SbmGraph(3, [0] * 3, [(0, 1), (1, 2)], k=1)
        assert max_avg_degree(g) == Fraction(4, 3)

    def test_edgeless(self):
        assert max_avg_degree(SbmGraph(4, [0] * 4, [], k=1)) == Fraction(0)

    def test_flow_path_matches_bruteforce(self, monkeypatch):
        # same graph through both code paths (padding forces the flow path)
        rng = np.random.default_rng(3)
        for i in range(10):
            n = int(rng.integers(4, 15))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g_small = SbmGraph(n, [0] * n, edges, k=1)
            pad = 22 - n  # isolated vertices leave mad unchanged
            g_big = SbmGraph(22, [0] * 22, edges, k=1)
            assert max_avg_degree(g_big) == max_avg_degree(g_small)
        # cores of 4-20 vertices, every other one with a planted clique,
        # padded to one to three bitset words; rounds counts the min cuts
        rounds, improve = [], chromatic._densest_improve

        def counting(*args):
            rounds[-1] += 1
            return improve(*args)
        monkeypatch.setattr(chromatic, "_densest_improve", counting)
        rng = np.random.default_rng(30)
        for i in range(8):
            n = 20 if i == 0 else int(rng.integers(4, 21))
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3}
            if i % 2:
                clique = sorted(rng.choice(n, min(n, 6), replace=False).tolist())
                edges |= set(itertools.combinations(clique, 2))
            want = max_avg_degree(SbmGraph(n, [0] * n, sorted(edges), k=1))
            for size in (21, 40, 65, 129):
                rounds.append(0)
                g = SbmGraph(size, [0] * size, sorted(edges), k=1)
                assert max_avg_degree(g) == want, (i, size)
        assert max(rounds) >= 2

    def test_chi_at_most_one_plus_floor_mad(self):
        rng = np.random.default_rng(4)
        for i in range(20):
            n = int(rng.integers(2, 26))
            g = sample_sbm(ModelInstance.gnp(n, float(rng.uniform(0.2, 0.8))),
                           200 + i)
            if g.m == 0:
                continue
            assert exact_chromatic(g) <= 1 + math.floor(max_avg_degree(g))


class TestPartitionObjective:
    def test_k3_examples(self):
        g = complete_graph(3)
        assert partition_objective(g, [[0], [1], [2]]) == Fraction(3)
        assert partition_objective(g, [[0, 1, 2]]) == Fraction(3)

    def test_colour_classes_give_chi(self):
        g = sample_sbm(ModelInstance.gnp(12, 0.5), 11)
        col = exact_colouring(g)
        classes = [[v for v in range(g.n) if col.colour_of[v] == c]
                   for c in range(col.num_colours)]
        assert partition_objective(g, classes) == Fraction(col.num_colours)

    def test_rejects_bad_partition(self):
        g = complete_graph(3)
        with pytest.raises(ModelError):
            partition_objective(g, [[0, 1]])
        with pytest.raises(ModelError):
            partition_objective(g, [[0, 1], [1, 2]])


class TestIndependenceProbability:
    def test_small_sets_are_certain(self):
        m = ModelInstance.gnp(5, 0.7)
        assert independent_set_probability(m, []) == 0.0
        assert independent_set_probability(m, [2]) == 0.0

    def test_three_vertices_one_block(self):
        m = ModelInstance.gnp(5, 0.5)
        got = independent_set_probability(m, [0, 1, 2])
        assert got == pytest.approx(-3 * math.log(2), abs=1e-12)

    def test_matrix_identity(self):
        # b^T Q b == -2 lnPr + sum_i q_ii b_i
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            sizes = rng.integers(1, 6, k)
            a = rng.uniform(0, 0.9, (k, k))
            m = ModelInstance(BlockVector(sizes, integer=True),
                              ProbMatrix((a + a.T) / 2))
            n = int(sizes.sum())
            picks = [v for v in range(n) if rng.random() < 0.6]
            block_of = np.repeat(np.arange(k), sizes)
            b = np.bincount(block_of[picks], minlength=k) if picks else np.zeros(k)
            lnp = independent_set_probability(m, picks)
            lhs = float(b @ m.q.entries @ b)
            rhs = -2.0 * lnp + float(np.diag(m.q.entries) @ b)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("block_of", [[0, 1, 2], [0, -1, 1]])
    def test_block_index_outside_model(self, block_of):
        m = ModelInstance(BlockVector.integral([2, 1]),
                          ProbMatrix([[0.5, 0.2], [0.2, 0.4]]))
        with pytest.raises(ModelError, match="block index"):
            independent_set_probability(m, [0, 1, 2],
                                        block_of=np.array(block_of))


class TestAlphaH:
    def test_edgeless_block_takes_everything(self):
        m = ModelInstance.gnp(3, 0.5)
        g = SbmGraph(3, [0] * 3, [], k=1)
        res = alpha_h(m, g, "exact")
        assert res.exact
        assert res.best_set == frozenset({0, 1, 2})
        assert res.h_value == pytest.approx(math.log(2), abs=1e-12)

    def test_single_vertex(self):
        m = ModelInstance.gnp(1, 0.5)
        g = SbmGraph(1, [0], [], k=1)
        assert alpha_h(m, g, "exact").h_value == 0.0

    def test_complete_graph_gives_zero(self):
        m = ModelInstance.gnp(6, 0.5)
        res = alpha_h(m, complete_graph(6), "exact")
        assert res.h_value == 0.0
        assert len(res.best_set) == 1

    def test_exact_equals_subset_bruteforce(self):
        rng = np.random.default_rng(6)
        for i in range(15):
            k = int(rng.integers(1, 3))
            sizes = rng.integers(2, 8, k)
            n = int(sizes.sum())
            if n > 15:
                continue
            a = rng.uniform(0.1, 0.8, (k, k))
            m = ModelInstance(BlockVector(sizes, integer=True),
                              ProbMatrix((a + a.T) / 2))
            g = sample_sbm(m, 300 + i)
            adj = g.adjacency_bits()
            best = 0.0
            for mask in range(1, 1 << n):
                vs = [v for v in range(n) if (mask >> v) & 1]
                if any((adj[u] >> v) & 1 for u in vs for v in vs if v > u):
                    continue
                h = -independent_set_probability(m, vs,
                                                 block_of=g.block_of) / len(vs)
                best = max(best, h)
            got = alpha_h(m, g, "exact").h_value
            assert got == pytest.approx(best, abs=1e-12)

    def test_heuristic_matches_exact_on_small(self):
        for i in range(5):
            m = ModelInstance.gnp(30, 0.5)
            g = sample_sbm(m, 400 + i)
            ex = alpha_h(m, g, "exact").h_value
            he = alpha_h(m, g, "heuristic", seed=i).h_value
            assert he <= ex + 1e-12
            assert he == pytest.approx(ex, abs=1e-9)

    def test_exact_mode_beyond_40_vertices_when_enumeration_fits(self):
        # the guard is "n <= 40 OR enumeration <= 1e7 nodes": dense graphs
        # at moderate n keep the count small and stay in-guard
        m = ModelInstance.gnp(50, 0.5)
        g = sample_sbm(m, 77)
        res = alpha_h(m, g, "exact")
        assert res.exact and res.h_value > 0

    def test_exact_node_cap_guard(self, monkeypatch):
        # sparse mid-size instance: the search on this graph takes 153,989
        # nodes, past the lowered cap of 1e5 (it finishes under the shipped
        # 1e7), so the lowered cap reaches the same guard in about a second
        assert chromatic._ALPHA_ENUM_GUARD == 10 ** 7
        monkeypatch.setattr(chromatic, "_ALPHA_ENUM_GUARD", 10 ** 5)
        m = ModelInstance.gnp(90, 0.08)
        g = sample_sbm(m, 1)
        with pytest.raises(GuardError):
            alpha_h(m, g, "exact")

    def test_exact_hard_size_guard(self):
        m = ModelInstance.gnp(600, 0.5)
        g = sample_sbm(m, 0)
        with pytest.raises(GuardError):
            alpha_h(m, g, "exact")

    def test_exact_first_is_exact_when_the_search_finishes(self):
        m = ModelInstance.gnp(40, 0.5)
        for s in range(3):
            g = sample_sbm(m, 500 + s)
            first = alpha_h(m, g, "exact-first", seed=s)
            exact = alpha_h(m, g, "exact")
            assert first == exact
            assert first.exact and 0 < first.nodes < 10 ** 5

    def test_exact_first_falls_back_past_its_budget(self):
        # the sparse instance of the 1e7-node guard above
        m = ModelInstance.gnp(90, 0.08)
        g = sample_sbm(m, 1)
        for s in range(3):
            res = alpha_h(m, g, "exact-first", seed=s)
            local = alpha_h(m, g, "heuristic", seed=s)
            assert not res.exact
            assert res.nodes == 10 ** 5
            assert res.h_value >= local.h_value
            members = res.best_set
            assert not any(int(u) in members and int(v) in members
                           for u, v in g.edges)
            assert res.h_value == pytest.approx(
                -independent_set_probability(m, members, block_of=g.block_of)
                / len(members), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_first_is_exact_on_sparse_graphs(self, seed):
        # the clique-cover bound, checked before each child, finishes these
        # sparse searches in 735-4,361 nodes, inside the 1e5 budget
        m = ModelInstance.gnp(62, 0.08)
        res = alpha_h(m, sample_sbm(m, seed), "exact-first", seed=seed)
        assert res.exact and 0 < res.nodes < 10 ** 5

    def test_exact_first_past_hard_n_is_the_local_search(self):
        m = ModelInstance.gnp(513, 0.9)
        g = sample_sbm(m, 0)
        assert alpha_h(m, g, "exact-first", seed=4) == alpha_h(
            m, g, "heuristic", seed=4)

    def test_node_counts(self):
        m = ModelInstance.gnp(30, 0.5)
        g = sample_sbm(m, 9)
        assert alpha_h(m, g, "exact").nodes > 0
        assert alpha_h(m, g, "heuristic").nodes == 0

    @pytest.mark.parametrize("mode", ["exact", "heuristic", "exact-first"])
    @pytest.mark.parametrize("model_k, graph_k", [(2, 3), (3, 2)])
    def test_model_and_graph_blocks_must_match(self, mode, model_k, graph_k):
        # a 3-block model on a 2-block graph used to score h with the
        # model's first two blocks; the other way round it hit IndexError
        p = [[0.3 if i == j else 0.6 for j in range(model_k)]
             for i in range(model_k)]
        m = ModelInstance(BlockVector.integral([2] * model_k), ProbMatrix(p))
        g = SbmGraph(2 * graph_k, np.repeat(np.arange(graph_k), 2),
                     [(0, 2)], k=graph_k)
        with pytest.raises(ModelError, match="dimension mismatch"):
            alpha_h(m, g, mode)

    def test_unknown_mode(self):
        m = ModelInstance.gnp(3, 0.5)
        with pytest.raises(ValueError):
            alpha_h(m, SbmGraph(3, [0] * 3, [], k=1), "greedy")


class TestFindBalanced:
    def test_singleton_target(self):
        m = ModelInstance(BlockVector.integral([3, 3]),
                          ProbMatrix([[0.5, 0.5], [0.5, 0.5]]))
        g = sample_sbm(m, 1)
        got = find_balanced_independent_set(g, range(g.n),
                                            BlockVector.integral([0, 1]),
                                            seed=0)
        assert got is not None and len(got) == 1
        assert g.block_of[next(iter(got))] == 1

    def test_empty_graph_any_feasible_target(self):
        m = ModelInstance(BlockVector.integral([4, 4]),
                          ProbMatrix(np.zeros((2, 2))))
        g = sample_sbm(m, 2)
        got = find_balanced_independent_set(g, range(g.n),
                                            BlockVector.integral([3, 2]),
                                            seed=0)
        assert got is not None
        assert g.b_vector(got).tolist() == [3, 2]

    def test_dense_infeasible_target_fails(self):
        # expected number of independent 10-sets in G(30, .9) is << 1
        m = ModelInstance.gnp(30, 0.9)
        for seed in range(20):
            g = sample_sbm(m, 500 + seed)
            got = find_balanced_independent_set(
                g, range(g.n), BlockVector.integral([10]), seed=seed, effort=4)
            assert got is None

    def test_result_is_independent(self):
        m = ModelInstance(BlockVector.integral([6, 6]),
                          ProbMatrix([[0.2, 0.1], [0.1, 0.2]]))
        g = sample_sbm(m, 3)
        got = find_balanced_independent_set(g, range(g.n),
                                            BlockVector.integral([2, 2]),
                                            seed=1)
        if got is not None:
            vs = sorted(got)
            assert not any(g.has_edge(u, v) for u in vs for v in vs if v > u)

    # one, two and three bitset words
    @pytest.mark.parametrize("m, gs", [
        (ModelInstance.gnp(8, 0.3), 31),
        (ModelInstance.gnp(30, 0.5), 32),
        (ModelInstance.gnp(64, 0.2), 33),
        (ModelInstance(BlockVector.integral([20, 25, 20]),
                       ProbMatrix([[0.3, 0.1, 0.05], [0.1, 0.25, 0.1],
                                   [0.05, 0.1, 0.35]])), 34),
        (ModelInstance.gnp(129, 0.15), 35),
        (ModelInstance(BlockVector.integral([65, 67]),
                       ProbMatrix([[0.2, 0.05], [0.05, 0.3]])), 36),
    ], ids=["n8", "n30", "n64", "n65", "n129", "n132"])
    def test_masked_search_equals_subgraph_search(self, m, gs, monkeypatch):
        checks = []
        check = chromatic._profile_feasible

        def recorded(*args):
            checks.append(check(*args))
            return checks[-1]

        def search(graph, vertices, target, seed):
            checks.clear()
            found = find_balanced_independent_set(graph, vertices, target,
                                                  seed=seed, effort=3)
            return found, list(checks)

        monkeypatch.setattr(chromatic, "_profile_feasible", recorded)
        g = sample_sbm(m, gs)
        rng = np.random.default_rng(gs)
        got = []
        for trial in range(4):
            inside = np.flatnonzero(rng.random(g.n) < rng.uniform(0.3, 0.9))
            sub, mapping = g.subgraph(inside)
            have = sub.block_sizes()
            # all of S is infeasible as soon as S has an edge
            for tgt in (np.minimum(have, 1), have // 4, have // 2, have):
                target = BlockVector(tgt, integer=True)
                seed = 10 * gs + trial
                found, found_checks = search(g, set(inside.tolist()),
                                             target, seed)
                ref, ref_checks = search(sub, range(sub.n), target, seed)
                want = None if ref is None else frozenset(mapping[i]
                                                          for i in ref)
                assert found == want, (trial, tgt.tolist())
                assert found_checks == ref_checks  # the exact check, too
                got.append(found)
        assert None in got and any(got)

    def test_vertex_outside_graph_rejected(self):
        g = sample_sbm(ModelInstance.gnp(10, 0.3), 1)
        for bad in ([0, 10], [-1, 3]):
            with pytest.raises(ModelError, match="out of range"):
                find_balanced_independent_set(g, bad,
                                              BlockVector.integral([1]))

    def test_target_above_counts_inside_vertices_rejected(self):
        m = ModelInstance(BlockVector.integral([4, 4]),
                          ProbMatrix(np.zeros((2, 2))))
        g = sample_sbm(m, 2)
        assert find_balanced_independent_set(
            g, range(8), BlockVector.integral([3, 2])) is not None
        with pytest.raises(ModelError, match="exceeds"):  # 2 of block 0 in S
            find_balanced_independent_set(g, [0, 1, 4, 5, 6],
                                          BlockVector.integral([3, 2]))

    @pytest.mark.parametrize("effort", [0, -3])
    def test_nonpositive_effort_rejected(self, effort):
        g = sample_sbm(ModelInstance.gnp(10, 0.3), 1)
        with pytest.raises(ValueError, match="effort"):
            find_balanced_independent_set(g, range(g.n),
                                          BlockVector.integral([1]),
                                          effort=effort)


class TestBalancedExtraction:
    def test_edgeless_graph_single_colour(self):
        m = ModelInstance(BlockVector.integral([6]), ProbMatrix([[0.0]]))
        g = sample_sbm(m, 0)
        col = balanced_extraction_colouring(m, g, seed=0)
        assert col.num_colours == 1

    def test_complete_blowup_needs_all_colours(self):
        spec = BlowUpSpec.from_edges(1, [], [5])
        g = blow_up(spec)
        m = ModelInstance(BlockVector.integral([5]), ProbMatrix([[0.9]]))
        col = balanced_extraction_colouring(m, g, seed=0)
        col.check_proper(g)
        assert col.num_colours == 5

    def test_proper_and_close_to_dsatur(self):
        m = ModelInstance.gnp(120, 0.5)
        ratios = []
        for seed in range(5):
            g = sample_sbm(m, 600 + seed)
            ext = balanced_extraction_colouring(m, g, epsilon=0.2, seed=seed)
            ext.check_proper(g)
            base = dsatur_colouring(g, seed=seed).num_colours
            ratios.append(ext.num_colours / base)
        assert np.median(ratios) <= 1.15

    def test_rejects_bad_epsilon(self):
        m = ModelInstance.gnp(5, 0.5)
        g = sample_sbm(m, 1)
        with pytest.raises(ModelError):
            balanced_extraction_colouring(m, g, epsilon=1.5)

    def test_given_system_colours_like_the_default(self):
        m = ModelInstance(BlockVector.integral([7, 6, 8]),
                          ProbMatrix([[0.1, 0.6, 0.7], [0.6, 0.2, 0.5],
                                      [0.7, 0.5, 0.15]]))
        for s in range(4):
            g = sample_sbm(m, 40 + s)
            system = near_optimal_integer_system(g.size_vector(), m.q,
                                                 seed=derive_seed(s, 0))
            assert len(system.parts) > 1
            assert np.array_equal(
                balanced_extraction_colouring(m, g, seed=s, system=system).colour_of,
                balanced_extraction_colouring(m, g, seed=s).colour_of)

    @pytest.mark.parametrize("target", [[5, 4], [4, 5, 0], [9]])
    def test_rejects_system_for_other_sizes(self, target):
        m = ModelInstance(BlockVector.integral([4, 5]),
                          ProbMatrix([[0.1, 0.6], [0.6, 0.2]]))
        g = sample_sbm(m, 2)
        q = m.q if len(target) == 2 else ModelInstance(
            BlockVector.integral(target),
            ProbMatrix(np.full((len(target),) * 2, 0.3))).q
        system = near_optimal_integer_system(BlockVector.integral(target), q)
        with pytest.raises(ModelError, match="block sizes"):
            balanced_extraction_colouring(m, g, system=system)

    def test_exact_never_above_heuristics(self):
        rng = np.random.default_rng(8)
        for i in range(12):
            k = int(rng.integers(1, 3))
            sizes = rng.integers(4, 14, k)
            if sizes.sum() > 40:
                continue
            a = rng.uniform(0.2, 0.7, (k, k))
            m = ModelInstance(BlockVector(sizes, integer=True),
                              ProbMatrix((a + a.T) / 2))
            g = sample_sbm(m, 700 + i)
            chi = exact_chromatic(g)
            assert chi <= dsatur_colouring(g, seed=i).num_colours
            assert chi <= balanced_extraction_colouring(m, g, seed=i).num_colours


class TestMinPartitionEqualsChi:
    def test_small_graphs(self):
        # min over ALL partitions of sum(1 + mad) == chi, exactly
        from tests_util_partitions import all_partitions  # local helper
        rng = np.random.default_rng(7)
        for i in range(20):
            n = int(rng.integers(1, 7))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = SbmGraph(n, [0] * n, edges, k=1)
            best = min(partition_objective(g, parts)
                       for parts in all_partitions(list(range(n))))
            assert best == Fraction(exact_chromatic(g))


# Five disassortative blocks of ten vertices (the shape of the mixed
# benchmark workload).  The pinned values below are the outputs of the
# searches on three draws; any change in how the searches consume their
# random streams moves them.
P_MIXED = [
    [0.20, 0.58, 0.69, 0.76, 0.47],
    [0.58, 0.17, 0.59, 0.65, 0.67],
    [0.69, 0.59, 0.24, 0.70, 0.66],
    [0.76, 0.65, 0.70, 0.06, 0.57],
    [0.47, 0.67, 0.66, 0.57, 0.23],
]
PINNED_DSATUR = {
    3: [0, 1, 2, 1, 2, 3, 0, 4, 3, 1, 3, 5, 6, 2, 5, 6, 5, 3, 0, 7, 8, 8, 8,
        8, 5, 8, 2, 8, 2, 8, 9, 9, 9, 10, 10, 10, 10, 10, 10, 10, 4, 0, 6,
        9, 6, 1, 4, 9, 1, 1],
    4: [0, 0, 1, 2, 3, 4, 0, 0, 4, 1, 5, 2, 2, 5, 0, 5, 6, 2, 0, 2, 1, 7, 7,
        7, 5, 1, 7, 7, 5, 2, 8, 8, 3, 8, 8, 8, 8, 8, 8, 8, 4, 4, 6, 4, 4, 6,
        6, 6, 4, 6],
    5: [0, 1, 2, 3, 3, 4, 3, 3, 3, 1, 5, 1, 6, 6, 4, 6, 5, 6, 5, 6, 4, 2, 2,
        7, 7, 7, 1, 8, 2, 1, 9, 9, 10, 7, 9, 9, 9, 9, 9, 9, 0, 10, 5, 4, 10,
        0, 0, 0, 10, 10],
}
PINNED_ALPHA_H = {
    3: [2, 13, 25, 27, 28, 30],
    4: [13, 15, 26, 31, 36, 42],
    5: [7, 14, 16, 27, 41, 49],
}
PINNED_ONE_PER_BLOCK = {
    3: [1, 15, 25, 37, 41],
    4: [4, 14, 24, 32, 42],
    5: [6, 10, 25, 37, 47],
}


def independence_number(g: SbmGraph) -> int:
    adj = g.adjacency_bits()

    def grow(cand: int, size: int) -> int:
        best = size
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            best = max(best, grow(cand & ~adj[v], size + 1))
        return best

    return grow((1 << g.n) - 1, 0)


class TestPinnedSearchOutputs:
    MODEL = ModelInstance(BlockVector.integral([10] * 5), ProbMatrix(P_MIXED))

    @pytest.mark.parametrize("gs", sorted(PINNED_DSATUR))
    def test_dsatur(self, gs):
        g = sample_sbm(self.MODEL, gs)
        col = dsatur_colouring(g, seed=gs + 100)
        assert col.colour_of.tolist() == PINNED_DSATUR[gs]

    @pytest.mark.parametrize("gs", sorted(PINNED_ALPHA_H))
    def test_heuristic_alpha_h(self, gs):
        g = sample_sbm(self.MODEL, gs)
        res = alpha_h(self.MODEL, g, mode="heuristic", seed=gs + 200)
        assert sorted(res.best_set) == PINNED_ALPHA_H[gs]

    @pytest.mark.parametrize("gs", sorted(PINNED_ONE_PER_BLOCK))
    def test_balanced_feasible(self, gs):
        g = sample_sbm(self.MODEL, gs)
        found = find_balanced_independent_set(
            g, range(g.n), BlockVector(np.ones(5, dtype=np.int64), integer=True),
            seed=gs + 300)
        assert sorted(found) == PINNED_ONE_PER_BLOCK[gs]

    @pytest.mark.parametrize("gs", sorted(PINNED_ONE_PER_BLOCK))
    def test_balanced_infeasible(self, gs):
        g = sample_sbm(self.MODEL, gs)
        assert independence_number(g) < 10  # so two per block cannot exist
        target = BlockVector(np.full(5, 2, dtype=np.int64), integer=True)
        assert find_balanced_independent_set(g, range(g.n), target,
                                             seed=gs + 300) is None


def independent_profiles(g: SbmGraph) -> set[tuple[int, ...]]:
    """Per-block counts of every independent set of g, by enumeration."""
    adj = g.adjacency_bits()
    found = set()

    def grow(v: int, cand: int, counts: list[int]) -> None:
        if v == g.n:
            found.add(tuple(counts))
            return
        grow(v + 1, cand, counts)
        if (cand >> v) & 1:
            b = g.block_of[v]
            counts[b] += 1
            grow(v + 1, cand & ~adj[v], counts)
            counts[b] -= 1

    grow(0, (1 << g.n) - 1, [0] * g.k)
    return found


class TestRuinAndRecreate:
    """The one search behind alpha_h's local search and the balanced
    extraction, on one to three bitset words."""

    @pytest.mark.parametrize("n", [8, 30, 64, 65, 129])
    def test_every_set_is_independent_inside_universe_and_cap(self, n):
        rng = np.random.default_rng(1800 + n)
        for trial in range(4):
            k = int(rng.integers(1, 5))
            sizes = rng.multinomial(n - k, np.ones(k) / k) + 1
            a = rng.uniform(0.0, 0.6, (k, k))
            g = sample_sbm(ModelInstance(BlockVector(sizes, integer=True),
                                         ProbMatrix((a + a.T) / 2)),
                           100 * n + trial)
            universe = sum(1 << v for v in range(n) if rng.random() < 0.7)
            cap = rng.integers(0, sizes + 1)
            starts, iters = int(rng.integers(1, 4)), int(rng.integers(0, 6))
            weights = rng.uniform(-1.0, 1.0, n)
            adj = g.adjacency_bits()
            built = 0
            for ind, score in chromatic._ruin_and_recreate(
                    g, universe, cap, trial, starts, iters,
                    lambda ind: float(weights @ ind)):
                members = np.flatnonzero(ind).tolist()
                assert set(np.unique(ind).tolist()) <= {0.0, 1.0}
                assert score == float(weights @ ind)
                bits = sum(1 << v for v in members)
                assert bits & ~universe == 0
                assert all(adj[v] & bits == 0 for v in members)
                counts = np.bincount(g.block_of[members], minlength=g.k)
                assert np.all(counts <= cap), (n, trial)
                built += 1
            assert built == starts * (iters + 1)


class TestProfileCheck:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(90)
        for i in range(200):
            k = int(rng.integers(1, 5))
            sizes = rng.integers(1, 14 // k + 1, k)
            a = rng.uniform(0.0, 1.0, (k, k))
            m = ModelInstance(BlockVector(sizes, integer=True),
                              ProbMatrix((a + a.T) / 2))
            g = sample_sbm(m, 700 + i)
            assert g.n <= 14
            exists = independent_profiles(g)
            adj, blocks = g.adjacency_bits(), g.block_of.tolist()
            for tgt in itertools.product(*(range(s + 1) for s in sizes)):
                need = list(tgt)
                got = chromatic._profile_feasible(adj, blocks, need, 10 ** 6)
                assert need == list(tgt)  # restored
                assert got is (tgt in exists), (i, tgt)

    def test_impossible_target_never_refills(self, monkeypatch):
        def no_refill(*args):
            raise AssertionError("ruin-and-recreate ran on an impossible "
                                 "target")
        monkeypatch.setattr(chromatic, "_refill", no_refill)
        cases = [(TestPinnedSearchOutputs.MODEL, gs, [2] * 5)
                 for gs in sorted(PINNED_ONE_PER_BLOCK)]
        cases += [(ModelInstance.gnp(30, 0.9), 500 + s, [10])
                  for s in range(5)]
        for m, gs, tgt in cases:
            g = sample_sbm(m, gs)
            assert find_balanced_independent_set(
                g, range(g.n), BlockVector.integral(tgt), seed=gs) is None

    @pytest.mark.parametrize("gs", sorted(PINNED_ONE_PER_BLOCK))
    def test_undecided_check_runs_the_unchanged_search(self, monkeypatch, gs):
        # a check cut off after one node must leave the pinned outputs of
        # the ruin-and-recreate search as they are
        outcomes = []
        check = chromatic._profile_feasible

        def recorded(*args):
            outcomes.append(check(*args))
            return outcomes[-1]

        monkeypatch.setattr(chromatic, "_PROFILE_CHECK_NODES", 1)
        monkeypatch.setattr(chromatic, "_profile_feasible", recorded)
        pinned = TestPinnedSearchOutputs()
        pinned.test_balanced_feasible(gs)
        pinned.test_balanced_infeasible(gs)
        assert outcomes == [None, None]


# Ten graphs from 8 to 132 vertices, across one, two and three bitset
# words: the outputs of the heuristic alpha_h and of the balanced search
# for three targets each (one vertex a block, an eighth of each block, a
# third of each block).  The None entries are infeasible targets; on
# gnp64, gnp129 and sbm132 the exact check runs out of nodes and the
# ruin-and-recreate search fails on its own.
def _wide_sbm(sizes, p):
    return ModelInstance(BlockVector.integral(sizes), ProbMatrix(p))


WIDE_CASES = {
    "gnp8": (ModelInstance.gnp(8, 0.3), 11),
    "sbm3x": (_wide_sbm([6, 7, 8], [[0.5, 0.1, 0.2], [0.1, 0.6, 0.15],
                                    [0.2, 0.15, 0.4]]), 12),
    "gnp30": (ModelInstance.gnp(30, 0.5), 13),
    "sbm4dis": (_wide_sbm([10, 12, 9, 11], [[0.1, 0.6, 0.5, 0.7],
                                            [0.6, 0.05, 0.55, 0.6],
                                            [0.5, 0.55, 0.2, 0.65],
                                            [0.7, 0.6, 0.65, 0.15]]), 14),
    "gnp64": (ModelInstance.gnp(64, 0.2), 15),
    "sbm67": (_wide_sbm([20, 25, 22], [[0.3, 0.1, 0.05], [0.1, 0.25, 0.1],
                                       [0.05, 0.1, 0.35]]), 16),
    "gnp90": (ModelInstance.gnp(90, 0.1), 17),
    "sbm110": (_wide_sbm([22, 20, 24, 21, 23],
                         [[0.05, 0.4, 0.3, 0.35, 0.45],
                          [0.4, 0.1, 0.3, 0.4, 0.3],
                          [0.3, 0.3, 0.08, 0.35, 0.4],
                          [0.35, 0.4, 0.35, 0.12, 0.3],
                          [0.45, 0.3, 0.4, 0.3, 0.06]]), 18),
    "gnp129": (ModelInstance.gnp(129, 0.15), 19),
    "sbm132": (_wide_sbm([65, 67], [[0.2, 0.05], [0.05, 0.3]]), 20),
}
PINNED_WIDE_ALPHA_H = {
    "gnp8": [1, 3, 4, 5, 6],
    "sbm3x": [2, 3, 8, 10, 15, 17, 18, 20],
    "gnp30": [3, 4, 6, 7, 14, 24],
    "sbm4dis": [15, 19, 23, 30, 34, 38, 40],
    "gnp64": [0, 1, 3, 8, 10, 11, 13, 14, 22, 26, 34, 35, 46, 51, 54, 59, 60,
        62],
    "sbm67": [0, 4, 12, 25, 26, 28, 33, 34, 37, 39, 41, 43, 44, 45, 47, 55, 59,
        61, 63],
    "gnp90": [3, 4, 5, 7, 10, 12, 15, 16, 17, 21, 24, 25, 27, 30, 37, 38, 45,
        49, 50, 51, 54, 55, 56, 58, 64, 70, 71, 75, 80, 81, 84],
    "sbm110": [0, 8, 10, 21, 34, 52, 61, 62, 71, 75, 79, 99, 100],
    "gnp129": [2, 11, 20, 21, 23, 27, 28, 31, 33, 36, 40, 59, 62, 64, 68, 83,
        84, 85, 88, 93, 96, 102, 103, 107, 118],
    "sbm132": [1, 5, 7, 14, 16, 17, 19, 25, 27, 29, 31, 34, 37, 40, 46, 59, 71,
        73, 81, 85, 101, 107, 109, 114, 119, 129],
}
PINNED_WIDE_BALANCED = {
    "gnp8": [[1], [6], [3, 6]],
    "sbm3x": [[2, 11, 18], [1, 7, 17], [1, 5, 9, 11, 14, 19]],
    "gnp30": [[7], [1, 4, 7], None],
    "sbm4dis": [[0, 14, 25, 31], [0, 14, 25, 31], None],
    "gnp64": [[3], [1, 8, 11, 13, 25, 35, 46, 51], None],
    "sbm67": [[5, 29, 64], [2, 4, 29, 36, 39, 45, 55], None],
    "gnp90": [[3], [9, 12, 17, 25, 38, 54, 58, 62, 70, 72, 86], [4, 5, 7, 8,
        12, 13, 15, 16, 17, 19, 21, 24, 25, 27, 37, 38, 45, 49, 50, 51, 58, 60,
        62, 64, 70, 71, 75, 80, 81, 84]],
    "sbm110": [[7, 23, 59, 83, 101], [10, 16, 23, 40, 43, 47, 61, 75, 79, 96,
        99], None],
    "gnp129": [[38], [4, 5, 30, 39, 46, 52, 54, 59, 62, 68, 87, 91, 92, 114,
        119, 122], None],
    "sbm132": [[51, 117], [2, 13, 17, 27, 50, 56, 57, 62, 67, 75, 95, 101, 107,
        114, 126, 129], None],
}


class TestPinnedWideSearchOutputs:
    @pytest.mark.parametrize("name", sorted(WIDE_CASES))
    def test_heuristic_alpha_h(self, name):
        m, gs = WIDE_CASES[name]
        g = sample_sbm(m, gs)
        res = alpha_h(m, g, "heuristic", seed=gs + 1)
        assert sorted(res.best_set) == PINNED_WIDE_ALPHA_H[name]

    @pytest.mark.parametrize("name", sorted(WIDE_CASES))
    def test_balanced(self, name):
        m, gs = WIDE_CASES[name]
        g = sample_sbm(m, gs)
        sizes = g.block_sizes()
        targets = [np.ones(g.k, dtype=np.int64), np.maximum(sizes // 8, 1),
                   sizes // 3]
        got = []
        for i, tgt in enumerate(targets):
            found = find_balanced_independent_set(
                g, range(g.n), BlockVector(tgt, integer=True), seed=gs + 2 + i)
            got.append(None if found is None else sorted(found))
        assert got == PINNED_WIDE_BALANCED[name]


class TestAdjacencyMatrix:
    """The adjacency matrix is stored once, as packed rows: the neighbour
    bitsets."""

    @pytest.mark.parametrize("g", [
        sample_sbm(ModelInstance(BlockVector.integral([10] * 5),
                                 ProbMatrix(P_MIXED)), 3),
        PETERSEN,
        SbmGraph(4, [0] * 4, [], k=1),
        SbmGraph(0, [], [], k=0),
        SbmGraph(1, [0], [], k=1),
        sample_sbm(ModelInstance.gnp(70, 0.3), 5),   # rows past one word
        sample_sbm(ModelInstance.gnp(9, 0.6), 2),    # rows past one byte
        messy_graph(65, 1),                          # duplicated, reversed
        messy_graph(129, 2),
    ])
    def test_matches_bitsets(self, g):
        by_edge = [0] * g.n  # the bitsets built edge by edge
        for u, v in g.edges.tolist():
            by_edge[u] |= 1 << v
            by_edge[v] |= 1 << u
        assert g.adjacency_bits() == by_edge
        assert all(type(b) is int for b in g.adjacency_bits())

    def test_cached_and_read_only(self):
        bits = PETERSEN.adjacency_bits()
        assert PETERSEN.adjacency_bits() is bits
        # the edges the cache is packed from cannot change under it
        with pytest.raises(ValueError):
            PETERSEN.edges[0, 0] = 1


class TestCheckProper:
    def test_names_first_monochromatic_edge(self):
        rng = np.random.default_rng(4)
        g = sample_sbm(ModelInstance.gnp(10, 0.25), 1)  # 52 of 300 proper
        for _ in range(300):
            col = rng.integers(0, 4, g.n)
            col[:4] = np.arange(4)  # every colour used
            mono = [(u, v) for u, v in g.edges.tolist() if col[u] == col[v]]
            c = Colouring(colour_of=col, num_colours=4, method="test")
            if mono:
                with pytest.raises(ModelError,
                                   match=r"monochromatic edge \(%d,%d\)$" % mono[0]):
                    c.check_proper(g)
            else:
                c.check_proper(g)

    def test_edgeless_and_empty(self):
        Colouring(np.zeros(3, dtype=np.int64), 1, "t").check_proper(
            SbmGraph(3, [0] * 3, [], k=1))
        Colouring(np.zeros(0, dtype=np.int64), 0, "t").check_proper(
            SbmGraph(0, [], [], k=0))
