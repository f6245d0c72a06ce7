import json
import math

import numpy as np
import pytest

from sbmchroma.graphs import (BlowUpSpec, SbmGraph, blow_up, blow_up_as_model,
                              check_chung_lu, chung_lu_model, percolate,
                              sample_chung_lu, sample_sbm, union_graphs,
                              union_model)
from sbmchroma.model import BlockVector, ModelError, ModelInstance, ProbMatrix
from sbmchroma.predictions import predict_chung_lu
from sbmchroma.seeds import rng_from_seed


def gnp(n, p):
    return ModelInstance.gnp(n, p)


# --- reference implementations: one Python step per pair or per edge --------

def ref_sample_sbm_edges(m, seed):
    """Per-row loop: row u draws the pairs (u, u+1..n-1) in one call."""
    sizes = m.sizes.values.astype(np.int64)
    block_of = np.repeat(np.arange(sizes.size), sizes)
    n = int(sizes.sum())
    rng = rng_from_seed(seed)
    p = m.probs.entries
    edges = []
    for u in range(n - 1):
        draws = rng.random(n - u - 1)
        for off in np.nonzero(draws < p[block_of[u], block_of[u + 1:]])[0]:
            edges.append([u, u + 1 + int(off)])
    return edges


def ref_chung_lu_edges(u, p, kind, seed):
    uv = np.asarray(u, dtype=np.float64)
    n = uv.size
    rng = rng_from_seed(seed)
    edges = []
    for a in range(n - 1):
        if kind == "times":
            probs = p * uv[a] * uv[a + 1:]
        else:
            probs = p * (uv[a] + uv[a + 1:])
        draws = rng.random(n - a - 1)
        for off in np.nonzero(draws < probs)[0]:
            edges.append([a, a + 1 + int(off)])
    return edges


def ref_blow_up_edges(spec):
    """Every pair inside a block, and every pair across a template edge."""
    sizes = spec.sizes.values.astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    edges = []
    for i in range(spec.k):
        vs = range(starts[i], starts[i + 1])
        edges.extend([u, v] for u in vs for v in vs if u < v)
        for j in range(i + 1, spec.k):
            if spec.h_adjacency[i, j]:
                edges.extend([u, v] for u in vs
                             for v in range(starts[j], starts[j + 1]))
    return sorted(edges)


def ref_subgraph(g, vertices):
    """(block_of, edges, mapping) of the induced subgraph, through a dict."""
    keep = sorted(set(int(v) for v in vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = sorted([index[int(u)], index[int(v)]] for u, v in g.edges
                   if int(u) in index and int(v) in index)
    return [int(g.block_of[v]) for v in keep], edges, keep


def subset_inputs(rng, n):
    """Vertex subsets in the shapes callers pass: empty, all, unsorted
    lists, lists with repeats, sets and numpy arrays."""
    picks = [v for v in range(n) if rng.random() < 0.5]
    shuffled = [int(v) for v in rng.permutation(picks)]
    return [[], list(range(n)), picks, shuffled, shuffled + picks[:3],
            set(picks), np.array(shuffled, dtype=np.int64)]


class TestSbmGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ModelError):
            SbmGraph(3, [0, 0, 0], [(1, 1)], k=1)

    def test_rejects_non_contiguous_blocks(self):
        with pytest.raises(ModelError):
            SbmGraph(3, [0, 1, 0], [], k=2)

    def test_deduplicates_and_sorts_edges(self):
        g = SbmGraph(3, [0, 0, 0], [(2, 1), (1, 2), (0, 2)], k=1)
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    def test_json_round_trip(self, tmp_path):
        g = SbmGraph(4, [0, 0, 1, 1], [(0, 2), (1, 3)],
                     provenance={"kind": "test"}, k=3)
        path = tmp_path / "g.json"
        g.save(path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "blocks", "edges", "provenance"}
        g2 = SbmGraph.load(path)
        assert g2.n == 4 and g2.k == 3
        assert np.array_equal(g2.block_of, g.block_of)
        assert np.array_equal(g2.edges, g.edges)

    def test_b_vector(self):
        g = SbmGraph(5, [0, 0, 0, 1, 1], [], k=2)
        assert g.b_vector([0, 1, 4]).tolist() == [2, 1]

    def test_rejects_first_bad_edge_in_input_order(self):
        with pytest.raises(ModelError, match=r"edge \(0,5\) out of range"):
            SbmGraph(3, [0] * 3, [(0, 1), (0, 5), (2, 2)], k=1)
        with pytest.raises(ModelError, match="self-loop at vertex 2"):
            SbmGraph(3, [0] * 3, [(0, 1), (2, 2), (0, 5)], k=1)
        with pytest.raises(ModelError, match="self-loop at vertex 7"):
            SbmGraph(3, [0] * 3, [(7, 7)], k=1)
        with pytest.raises(ModelError, match=r"edge \(-1,2\) out of range"):
            SbmGraph(3, [0] * 3, [(-1, 2)], k=1)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 2)],                   # a triple
        [[0, 1], [1, 2, 0]],           # ragged
        [[0, 1], [1]],                 # ragged
        [[]],                          # an empty pair
        [(0, 1.5)],                    # non-integer
        [(0.0, 1.0)],                  # float entries
        [("0", "1")],                  # strings
        [(0, None)],
        [(True, False)],
        np.array([0, 1, 1, 2]),        # flat, not m x 2
    ])
    def test_rejects_malformed_edge_list(self, edges):
        with pytest.raises(ModelError, match="integer vertex pairs"):
            SbmGraph(3, [0] * 3, edges, k=1)

    @pytest.mark.parametrize("edges", [[], (), np.empty((0, 2)),
                                       np.zeros((0, 2), dtype=np.int32)])
    def test_accepts_empty_edge_list(self, edges):
        g = SbmGraph(3, [0] * 3, edges, k=1)
        assert g.m == 0 and g.edges.shape == (0, 2)
        assert g.edges.dtype == np.int64

    def test_edges_sorted_int64_read_only(self):
        g = SbmGraph(5, [0] * 5, np.array([[4, 0], [1, 3], [0, 4], [3, 1],
                                           [2, 1]], dtype=np.int32), k=1)
        assert g.edges.tolist() == [[0, 4], [1, 2], [1, 3]]
        assert g.edges.dtype == np.int64 and g.edges.shape == (3, 2)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129, 200])
    def test_edges_canonical_on_messy_pair_lists(self, n):
        rng = np.random.default_rng(n)
        u, v = rng.integers(0, max(n, 1), (2, 3 * n))
        pairs = np.column_stack((u, v))[u != v]
        # every pair again reversed, and a third of them a third time
        pairs = np.vstack([pairs, pairs[:, ::-1], pairs[: len(pairs) // 3]])
        rng.shuffle(pairs)
        g = SbmGraph(n, [0] * n, pairs, k=1)
        expected = sorted({(min(a, b), max(a, b)) for a, b in pairs.tolist()})
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(expected), 2)
        assert [tuple(e) for e in g.edges.tolist()] == expected
        with pytest.raises(ValueError):
            g.edges[...] = 0

    def test_has_edge(self):
        g = SbmGraph(3, [0] * 3, [(0, 2)], k=1)
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1) and not g.has_edge(1, 1)
        for u, v in [(-1, 0), (0, -1), (0, 3), (3, 0)]:
            with pytest.raises(ModelError, match="vertex index out of range"):
                g.has_edge(u, v)

    @pytest.mark.parametrize("vertices", [[-1, 2], [0, 4], {5}])
    def test_vertex_subsets_out_of_range(self, vertices):
        g = SbmGraph(4, [0, 0, 1, 1], [(0, 3), (2, 3)], k=2)
        for call in (g.subgraph, g.edge_count_within, g.b_vector):
            with pytest.raises(ModelError, match="vertex index out of range"):
                call(vertices)

    def test_subgraph_keeps_block_labels(self):
        g = SbmGraph(4, [0, 0, 1, 1], [(0, 1), (1, 2), (2, 3)], k=2)
        sub, mapping = g.subgraph([1, 2, 3])
        assert mapping == [1, 2, 3]
        assert sub.block_of.tolist() == [0, 1, 1]
        assert sub.edges.tolist() == [[0, 1], [1, 2]]


class TestSampleSbm:
    def test_zero_matrix_gives_empty_graph(self):
        m = ModelInstance(BlockVector.integral([5, 5]),
                          ProbMatrix(np.zeros((2, 2))))
        for seed in range(5):
            assert sample_sbm(m, seed).m == 0

    def test_deterministic(self):
        m = gnp(6, 0.5)
        a, b = sample_sbm(m, 7), sample_sbm(m, 7)
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(sample_sbm(m, 8).edges, a.edges)

    def test_cross_block_mean(self):
        # 2500 cross pairs at p = 0.3 over 200 samples: mean within 3 SE
        m = ModelInstance(BlockVector.integral([50, 50]),
                          ProbMatrix([[0.0, 0.3], [0.3, 0.0]]))
        counts = [sample_sbm(m, seed).m for seed in range(200)]
        mean = float(np.mean(counts))
        se = math.sqrt(2500 * 0.3 * 0.7 / 200)
        assert abs(mean - 750.0) <= 3 * se

    def test_blocks_assigned_contiguously(self):
        m = ModelInstance(BlockVector.integral([3, 2]),
                          ProbMatrix([[0.5, 0.5], [0.5, 0.5]]))
        g = sample_sbm(m, 0)
        assert g.block_of.tolist() == [0, 0, 0, 1, 1]


class TestAgainstReferences:
    """The numpy edge pipeline gives exactly the edges of the per-pair
    loops: same draws, same pairs, same order."""

    LAYOUTS = [[38], [1], [2], [3, 0, 4], [5, 1, 8], [4, 4, 4, 4]]

    @pytest.mark.parametrize("sizes", LAYOUTS)
    def test_sample_sbm_matches_per_row_draws(self, sizes):
        rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
        k = len(sizes)
        p = rng.uniform(0.0, 0.95, (k, k))
        m = ModelInstance(BlockVector.integral(sizes), ProbMatrix((p + p.T) / 2))
        for seed in range(12):
            g = sample_sbm(m, seed)
            assert g.edges.tolist() == ref_sample_sbm_edges(m, seed)
            assert g.block_of.tolist() == np.repeat(np.arange(k), sizes).tolist()

    def test_gnp_half_matches_per_row_draws(self):
        m = gnp(38, 0.5)
        for seed in range(50):
            assert sample_sbm(m, seed).edges.tolist() == ref_sample_sbm_edges(m, seed)

    @pytest.mark.parametrize("kind,p", [("times", 0.9), ("times", 0.37),
                                        ("plus", 0.45), ("plus", 0.2)])
    def test_chung_lu_matches_per_row_draws(self, kind, p):
        rng = np.random.default_rng(int(p * 100))
        for n in (1, 2, 25):
            for seed in range(20):
                u = rng.random(n)
                g = sample_chung_lu(u, p, kind, seed)
                assert g.edges.tolist() == ref_chung_lu_edges(u, p, kind, seed)

    def test_blow_up_matches_pair_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            h = np.triu((rng.random((k, k)) < 0.5).astype(np.int64), 1)
            sizes = rng.integers(0, 5, k)
            spec = BlowUpSpec(h + h.T, BlockVector(sizes, integer=True))
            g = blow_up(spec)
            assert g.edges.tolist() == ref_blow_up_edges(spec)
            assert g.provenance["h_edges"] == np.argwhere(np.triu(h, 1)).tolist()

    def test_subgraph_matches_dict_reference(self):
        rng = np.random.default_rng(11)
        m = ModelInstance(BlockVector.integral([4, 6, 5]),
                          ProbMatrix([[0.3, 0.6, 0.5], [0.6, 0.2, 0.7],
                                      [0.5, 0.7, 0.4]]))
        for seed in range(8):
            g = sample_sbm(m, seed)
            for vertices in subset_inputs(rng, g.n):
                sub, mapping = g.subgraph(vertices)
                blocks, edges, keep = ref_subgraph(g, vertices)
                assert mapping == keep
                assert all(type(v) is int for v in mapping)
                assert sub.n == len(keep) and sub.k == g.k
                assert sub.block_of.tolist() == blocks
                assert sub.edges.tolist() == edges
                assert sub.provenance == {"kind": "induced",
                                          "parent": g.provenance}

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(12)
        m = ModelInstance(BlockVector.integral([3, 7, 5]),
                          ProbMatrix([[0.5, 0.4, 0.3], [0.4, 0.6, 0.2],
                                      [0.3, 0.2, 0.5]]))
        for seed in range(8):
            g = sample_sbm(m, seed)
            for vertices in subset_inputs(rng, g.n):
                vs = [int(v) for v in vertices]
                inside = set(vs)
                count = sum(1 for u, v in g.edges.tolist()
                            if u in inside and v in inside)
                assert g.edge_count_within(vertices) == count
                expect = np.zeros(g.k, dtype=np.int64)
                for v in vs:  # every occurrence counts
                    expect[g.block_of[v]] += 1
                got = g.b_vector(vertices)
                assert got.dtype == np.int64
                assert got.tolist() == expect.tolist()


class TestChungLuWeights:
    """The exact sampler, the bucketed sandwich and the prediction refuse a
    bad `u` with one and the same error."""

    @pytest.mark.parametrize("u", [[[0.2, 0.3], [0.4, 0.5]], [], [0.2, -0.1],
                                   [0.5, 1.5], [0.5, math.nan]])
    def test_same_error_everywhere(self, u):
        messages = []
        for call in (lambda: check_chung_lu(u, 0.3, "times"),
                     lambda: sample_chung_lu(u, 0.3, "times", 0),
                     lambda: chung_lu_model(u, 0.3, "times", buckets=2),
                     lambda: predict_chung_lu(u, 0.3, "times")):
            with pytest.raises(ModelError) as info:
                call()
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert messages[0] in ("u must be a nonempty vector",
                               "u components must lie in [0, 1]")

    @pytest.mark.parametrize("u, p, kind, message", [
        *[([0.5, 0.6, 0.7], p, kind, "Chung-Lu p must lie in (0, 1)")
          for p in (math.nan, 0.0, 1.0, -0.1, math.inf)
          for kind in ("times", "plus")],
        ([0.1, 0.1], 2.0, "plus", "Chung-Lu p must lie in (0, 1)"),
        ([0.5, 0.6, 0.7], 0.3, "minus", "unknown Chung-Lu kind 'minus'"),
        ([1.0, 1.0, 0.2], 0.5, "plus",
         "plus kind pairwise probability reaches 1.000 >= 1"),
    ])
    def test_same_parameter_error_everywhere(self, u, p, kind, message):
        for call in (lambda: check_chung_lu(u, p, kind),
                     lambda: sample_chung_lu(u, p, kind, 0),
                     lambda: chung_lu_model(u, p, kind, buckets=2),
                     lambda: predict_chung_lu(u, p, kind)):
            with pytest.raises(ModelError) as info:
                call()
            assert str(info.value) == message

    def test_each_entry_point_keeps_its_own_rule(self):
        u = [0.5, 0.5, 0.5, 0.5]
        check_chung_lu(u, 0.5, "plus")
        sample_chung_lu(u, 0.5, "plus", 0)
        predict_chung_lu(u, 0.5, "plus")
        with pytest.raises(ModelError, match="top bucket"):
            chung_lu_model(u, 0.5, "plus", buckets=2)
        check_chung_lu([0.1] * 4, 0.6, "plus")
        with pytest.raises(ModelError, match=r"needs p in \(0, 1/2\]"):
            predict_chung_lu([0.1] * 4, 0.6, "plus")
        with pytest.raises(ModelError, match="pn > 1"):
            predict_chung_lu([0.5], 0.3, "times")

    @pytest.mark.parametrize("kind", ["times", "plus"])
    def test_sandwich_entries_keep_their_bits(self, kind):
        p, kk = 0.3, 5
        ij = np.arange(1, kk + 1, dtype=np.float64)
        if kind == "times":
            lower = p * np.outer(ij - 1, ij - 1) / kk ** 2
            upper = p * np.outer(ij, ij) / kk ** 2
        else:
            lower = p * ((ij - 1)[:, None] + (ij - 1)[None, :]) / kk
            upper = p * (ij[:, None] + ij[None, :]) / kk
        lo, up = chung_lu_model([0.1, 0.45, 0.9], p, kind, buckets=kk)
        assert np.array_equal(lo.probs.entries, lower)
        assert np.array_equal(up.probs.entries, upper)
        assert lo.sizes.values.tolist() == [1, 0, 1, 0, 1]


class TestBlowUp:
    def test_single_edge_template_is_complete(self):
        g = blow_up(BlowUpSpec.from_edges(2, [[0, 1]], [2, 3]))
        assert g.n == 5 and g.m == 10  # K5

    def test_empty_template_disjoint_cliques(self):
        g = blow_up(BlowUpSpec.from_edges(2, [], [2, 3]))
        assert g.m == 4  # K2 + K3

    def test_unit_sizes_reproduce_template(self):
        g = blow_up(BlowUpSpec.from_edges(3, [[0, 1], [1, 2]], [1, 1, 1]))
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("h_edges, message", [
        ([[0, 5]], r"edge \(0,5\) out of range"),
        ([[0, -1]], r"edge \(0,-1\) out of range"),
        ([[0, 1], [2, 2]], "self-loop at vertex 2"),
    ])
    def test_rejects_template_edge_outside_k(self, h_edges, message):
        with pytest.raises(ModelError, match=message):
            BlowUpSpec.from_edges(3, h_edges, [2, 2, 2])

    def test_blow_up_quadratic_identity(self):
        # b(U)^T (I + A_H) b(U) == |U| + 2 |E(G[U])| exactly, in integers
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            h = (rng.random((k, k)) < 0.5).astype(int)
            h = np.triu(h, 1)
            h = h + h.T
            sizes = rng.integers(1, 5, k)
            spec = BlowUpSpec(h, BlockVector(sizes, integer=True))
            g = blow_up(spec)
            picks = [v for v in range(g.n) if rng.random() < 0.5]
            b = g.b_vector(picks)
            q_tilde = np.eye(k, dtype=np.int64) + h
            lhs = int(b @ q_tilde @ b)
            rhs = len(picks) + 2 * g.edge_count_within(picks)
            assert lhs == rhs


class TestPercolate:
    def test_rejects_bad_probability(self):
        g = blow_up(BlowUpSpec.from_edges(1, [], [4]))
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ModelError):
                percolate(g, p, 0)

    def test_near_one_keeps_almost_everything(self):
        g = blow_up(BlowUpSpec.from_edges(1, [], [10]))  # K10, 45 edges
        hits = sum(percolate(g, 0.999999, seed).m >= 44 for seed in range(1000))
        assert hits >= 990

    def test_retention_mean(self):
        g = blow_up(BlowUpSpec.from_edges(1, [], [12]))  # 66 edges
        counts = [percolate(g, 0.4, seed).m for seed in range(500)]
        se = math.sqrt(66 * 0.4 * 0.6 / 500)
        assert abs(float(np.mean(counts)) - 66 * 0.4) <= 3 * se

    def test_empty_graph(self):
        g = SbmGraph(4, [0] * 4, [], k=1)
        assert percolate(g, 0.5, 1).m == 0

    def test_vertices_and_blocks_unchanged(self):
        g = blow_up(BlowUpSpec.from_edges(2, [[0, 1]], [3, 3]))
        h = percolate(g, 0.5, 3)
        assert h.n == g.n and np.array_equal(h.block_of, g.block_of)


class TestBlowUpAsModel:
    def test_entries(self):
        spec = BlowUpSpec.from_edges(2, [[0, 1]], [2, 2])
        m = blow_up_as_model(spec, 0.5)
        assert np.allclose(m.probs.entries, 0.5)

    def test_empty_template_diagonal(self):
        spec = BlowUpSpec.from_edges(2, [], [2, 2])
        m = blow_up_as_model(spec, 0.3)
        assert np.allclose(m.probs.entries, 0.3 * np.eye(2))

    def test_distributionally_identical_to_percolation(self):
        # edge counts from the two samplers over 500 seeds each
        from scipy.stats import mannwhitneyu
        spec = BlowUpSpec.from_edges(2, [[0, 1]], [6, 6])
        base = blow_up(spec)
        m = blow_up_as_model(spec, 0.35)
        a = [percolate(base, 0.35, s).m for s in range(500)]
        b = [sample_sbm(m, 10_000 + s).m for s in range(500)]
        assert mannwhitneyu(a, b).pvalue > 0.01


class TestChungLuModel:
    def test_all_mass_in_top_bucket(self):
        lo, up = chung_lu_model(np.ones(5), 0.3, "times", buckets=4)
        assert lo.sizes.values.tolist() == [0, 0, 0, 5]
        assert up.probs.entries[3, 3] == pytest.approx(0.3)

    def test_two_bucket_example(self):
        lo, up = chung_lu_model([0.1, 0.9], 0.4, "times", buckets=2)
        assert lo.sizes.values.tolist() == [1, 1]
        assert np.allclose(lo.probs.entries, [[0.0, 0.0], [0.0, 0.1]])
        assert np.allclose(up.probs.entries, [[0.1, 0.2], [0.2, 0.4]])

    def test_sandwich_property(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            u = rng.random(n)
            p = rng.uniform(0.05, 0.9)
            kind = "times" if rng.random() < 0.5 else "plus"
            if kind == "plus":
                p = rng.uniform(0.05, 0.49)
            buckets = int(rng.integers(1, 6))
            lo, up = chung_lu_model(u, p, kind, buckets)
            cell = np.clip(np.ceil(u * buckets).astype(int), 1, buckets) - 1
            for a in range(n):
                for b in range(n):
                    exact = p * u[a] * u[b] if kind == "times" else p * (u[a] + u[b])
                    assert lo.probs.entries[cell[a], cell[b]] <= exact + 1e-12
                    assert up.probs.entries[cell[a], cell[b]] >= exact - 1e-12

    def test_plus_rejects_large_p(self):
        with pytest.raises(ModelError):
            chung_lu_model([0.5, 0.5], 0.6, "plus", buckets=2)

    def test_zero_assigned_to_first_cell(self):
        lo, _ = chung_lu_model([0.0, 1.0], 0.2, "times", buckets=3)
        assert lo.sizes.values.tolist() == [1, 0, 1]


class TestSampleChungLu:
    def test_zero_weights_give_empty_graph(self):
        assert sample_chung_lu(np.zeros(6), 0.5, "times", 0).m == 0

    def test_all_ones_times_matches_gnp_mean(self):
        counts = [sample_chung_lu(np.ones(20), 0.5, "times", s).m
                  for s in range(200)]
        pairs = 190
        se = math.sqrt(pairs * 0.25 / 200)
        assert abs(float(np.mean(counts)) - pairs * 0.5) <= 3 * se

    def test_plus_uniform_half(self):
        counts = [sample_chung_lu(np.full(20, 0.5), 0.4, "plus", s).m
                  for s in range(200)]
        pairs = 190
        se = math.sqrt(pairs * 0.4 * 0.6 / 200)
        assert abs(float(np.mean(counts)) - pairs * 0.4) <= 3 * se

    def test_plus_rejects_certain_edges(self):
        with pytest.raises(ModelError):
            sample_chung_lu([1.0, 1.0], 0.5, "plus", 0)

    def test_vertexwise_blocks(self):
        g = sample_chung_lu([0.2, 0.8, 0.5], 0.4, "times", 1)
        assert g.k == 3 and g.block_of.tolist() == [0, 1, 2]


class TestUnion:
    def test_identity_and_idempotence(self):
        g = sample_sbm(gnp(8, 0.4), 1)
        empty = SbmGraph(8, [0] * 8, [], k=1)
        assert np.array_equal(union_graphs(g, empty).edges, g.edges)
        assert np.array_equal(union_graphs(g, g).edges, g.edges)

    def test_rejects_mismatched_structure(self):
        a = SbmGraph(3, [0, 0, 0], [], k=1)
        b = SbmGraph(4, [0, 0, 0, 0], [], k=1)
        with pytest.raises(ModelError):
            union_graphs(a, b)

    def test_union_model_q_additive(self):
        m1 = gnp(10, 0.3)
        m2 = gnp(10, 0.4)
        mu = union_model(m1, m2)
        assert np.allclose(mu.q.entries, m1.q.entries + m2.q.entries,
                           atol=1e-12)

    def test_union_sampler_matches_union_model(self):
        # per-pair presence probability 1-(1-p1)(1-p2): compare edge-count
        # means of "union of two samples" vs "one sample of the union model"
        m1 = gnp(16, 0.3)
        m2 = gnp(16, 0.4)
        mu = union_model(m1, m2)
        a = [union_graphs(sample_sbm(m1, 2 * s), sample_sbm(m2, 2 * s + 1)).m
             for s in range(300)]
        b = [sample_sbm(mu, 7000 + s).m for s in range(300)]
        p_union = 1 - 0.7 * 0.6
        pairs = 120
        se = math.sqrt(2 * pairs * p_union * (1 - p_union) / 300)
        assert abs(float(np.mean(a)) - float(np.mean(b))) <= 3 * se
