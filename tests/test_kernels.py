import importlib.util
import os
import shutil
import sysconfig
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sbmchroma import _kernels_py as kpy
from sbmchroma import kernels
from sbmchroma.graphs import sample_sbm
from sbmchroma.model import ModelInstance

SRC = Path(__file__).resolve().parent.parent / "src" / "sbmchroma"


@pytest.fixture(scope="session")
def kcy(tmp_path_factory):
    """The compiled kernels, built from _kernels_c.c into a temporary
    directory and imported from there, so that parity runs wherever a C
    compiler exists, installed extension or not.  With gcc or clang every
    warning is an error, and, as in setup.py, no multiply-add is fused."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC")
                or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build the compiled kernels")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("kernels_c")
    strict = any(name in Path(compiler).name for name in ("gcc", "clang"))
    ext = Extension("sbmchroma._kernels_c", [str(SRC / "_kernels_c.c")],
                    extra_compile_args=(["-Wall", "-Wextra", "-Werror",
                                         "-ffp-contract=off"]
                                        if strict else []))
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib, build.build_temp = str(out), str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(
        ext.name, build.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def join_adj(a: list[int], b: list[int]) -> list[int]:
    """Adjacency of the join of two graphs: every vertex of `a` is joined
    to every vertex of `b`, whose vertices come after those of `a`."""
    na, nb = len(a), len(b)
    all_a, all_b = (1 << na) - 1, ((1 << nb) - 1) << na
    return [m | all_b for m in a] + [(m << na) | all_a for m in b]


def clique_adj(n: int) -> list[int]:
    return [((1 << n) - 1) & ~(1 << v) for v in range(n)]


def random_weights(rng, n):
    w = rng.uniform(0, 2, (n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return [float(v) for v in w.ravel()]


def block_weights(rng, n):
    """Block-constant weights -ln(1 - P_ab) of a random SBM with 1 to 5
    blocks, diagonal included, as alpha_h passes them."""
    k = int(rng.integers(1, 6))
    block_of = rng.integers(0, k, n)
    probs = rng.uniform(0.05, 0.9, (k, k))
    q = -np.log1p(-(probs + probs.T) / 2)
    return [float(v) for v in q[np.ix_(block_of, block_of)].ravel()]


def equal_weights(n, p):
    """G(n, p)'s weights: every entry -ln(1 - p), so ties are exact."""
    return [float(-np.log1p(-p))] * (n * n)


class TestBackendParity:
    def test_exact_coloring_identical(self, kcy):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 24))
            adj = random_adj(rng, n, float(rng.uniform(0.05, 0.95)))
            assert (kpy.exact_coloring(n, adj, 10 ** 8)
                    == kcy.exact_coloring(n, adj, 10 ** 8))

    def test_weighted_independent_set_identical(self, kcy):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            adj = random_adj(rng, n, float(rng.uniform(0.05, 0.95)))
            flat = random_weights(rng, n)
            assert (kpy.best_weighted_independent_set(n, adj, flat, 10 ** 7)
                    == kcy.best_weighted_independent_set(n, adj, flat, 10 ** 7))

    def test_budget_exceeded_status_matches(self, kcy):
        rng = np.random.default_rng(2)
        adj = random_adj(rng, 30, 0.5)
        s_py = kpy.exact_coloring(30, adj, 5)
        s_cy = kcy.exact_coloring(30, adj, 5)
        assert s_py[0] == s_cy[0] == kernels.BUDGET_EXCEEDED
        assert s_py[1:3] == s_cy[1:3]

    def test_exact_coloring_identical_24_to_48(self, kcy):
        rng = np.random.default_rng(3)
        searched = 0
        for _ in range(40):
            n = int(rng.integers(24, 49))
            adj = random_adj(rng, n, float(rng.uniform(0.1, 0.9)))
            ub, _ = kpy.dsatur_greedy(n, adj)
            searched += ub > len(kpy.greedy_clique(n, adj))
            assert (kpy.exact_coloring(n, adj, 10 ** 6)
                    == kcy.exact_coloring(n, adj, 10 ** 6)), n
        assert searched >= 20  # most graphs need the branch and bound

    def test_weighted_independent_set_identical_20_to_64(self, kcy):
        rng = np.random.default_rng(4)
        for n in [*rng.integers(20, 41, size=24), 63, 64]:
            n = int(n)
            adj = random_adj(rng, n, float(rng.uniform(0.1, 0.9)))
            flat = random_weights(rng, n)
            # a node limit that some searches hit: the partial results
            # must agree too
            assert (kpy.best_weighted_independent_set(n, adj, flat, 10 ** 5)
                    == kcy.best_weighted_independent_set(n, adj, flat, 10 ** 5)), n

    @pytest.mark.parametrize("kind", ["block", "equal"])
    def test_weighted_independent_set_identical_sbm_and_gnp_weights(
            self, kcy, kind):
        # the weights the bound is tight on: ties between sets are exact
        # with equal weights, and with block-constant ones they recur
        rng = np.random.default_rng(12 if kind == "block" else 13)
        hit = 0
        cases = [(n, None) for n in [*range(20, 41), 63, 64]]
        if kind == "equal":
            cases.append((64, 0.04))  # sparse: still reaches the limit
        for n, p in cases:
            if p is None:
                p = float(rng.uniform(0.05, 0.6))
            adj = random_adj(rng, n, p)
            flat = (block_weights(rng, n) if kind == "block"
                    else equal_weights(n, p))
            got = kpy.best_weighted_independent_set(n, adj, flat, 10 ** 4)
            assert got == kcy.best_weighted_independent_set(
                n, adj, flat, 10 ** 4), n
            hit += got[0] == kernels.BUDGET_EXCEEDED
        assert hit >= 1  # the partial results agree too

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_independent_set_identical_sparse_gnp(self, kcy, seed):
        # alpha_h's search on G(62, 0.08): small cover classes and many
        # children per node; the searches take 735-4,361 nodes, so most
        # of them reach the lower limit
        g = sample_sbm(ModelInstance.gnp(62, 0.08), seed)
        adj, flat = g.adjacency_bits(), equal_weights(62, 0.08)
        for limit in (10 ** 3, 10 ** 5):
            assert (kpy.best_weighted_independent_set(62, adj, flat, limit)
                    == kcy.best_weighted_independent_set(62, adj, flat, limit))

    @pytest.mark.parametrize("n", [65, 127, 128, 129, 200, 512])
    def test_exact_coloring_identical_multi_word(self, kcy, n):
        rng = np.random.default_rng(n)
        for p in (0.02, 0.1, 0.3):
            adj = random_adj(rng, n, p)
            assert (kpy.exact_coloring(n, adj, 10 ** 4)
                    == kcy.exact_coloring(n, adj, 10 ** 4)), p


class _Recording:
    """Stands in for the compiled module and counts colouring calls."""

    def __init__(self, inner):
        self.MAX_VERTICES = getattr(inner, "MAX_VERTICES", 512)
        self.calls = 0
        self._inner = inner

    def exact_coloring(self, n, adj, budget):
        self.calls += 1
        return self._inner.exact_coloring(n, adj, budget)


class TestDispatcherWithCompiled:
    @pytest.fixture
    def compiled(self, kcy, monkeypatch):
        rec = _Recording(kcy)
        monkeypatch.setattr(kernels, "_compiled", rec)
        return rec

    def test_compiled_runs_at_high_degree_when_colours_fit(self, compiled):
        rng = np.random.default_rng(5)
        adj = random_adj(rng, 200, 0.5)  # degrees near 100, DSATUR < 64
        assert max(a.bit_count() for a in adj) >= 64
        assert (kernels.exact_coloring(200, adj, 10 ** 3)
                == kpy.exact_coloring(200, adj, 10 ** 3))
        assert compiled.calls == 1

    def test_compiled_matches_below_degree_64(self, compiled):
        g = sample_sbm(ModelInstance.gnp(300, 0.05), 6)
        adj = g.adjacency_bits()
        assert (kernels.exact_coloring(g.n, adj, 10 ** 4)
                == kpy.exact_coloring(g.n, adj, 10 ** 4))
        assert compiled.calls == 1

    @pytest.mark.parametrize("adj, chi", [
        pytest.param(clique_adj(65), 65, id="K65"),
        pytest.param(clique_adj(70), 70, id="K70"),
        # clique 66, chi 67: the search runs above 64 colours
        pytest.param(join_adj(clique_adj(64), [0b10010, 0b00101, 0b01010,
                                               0b10100, 0b01001]),
                     67, id="K64-join-C5"),
        # 200 vertices: clique 65, DSATUR 67, and the search proves 66
        pytest.param(join_adj(clique_adj(62), random_adj(
            np.random.default_rng(1), 138, 0.06)), 66, id="K62-join-G138"),
    ])
    def test_compiled_runs_above_64_colours(self, kcy, compiled, adj, chi):
        n = len(adj)
        got = kcy.exact_coloring(n, adj, 10 ** 6)
        assert got[:3] == (kernels.OK, chi, chi)
        assert kernels.exact_coloring(n, adj, 10 ** 6) == got
        assert compiled.calls == 1
        assert kpy.exact_coloring(n, adj, 10 ** 6) == got


class TestDispatcher:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("c", "python")

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_independent_set_nodes_clamped_to_the_limit(
            self, request, monkeypatch, backend):
        compiled = request.getfixturevalue("kcy") if backend == "compiled" else None
        monkeypatch.setattr(kernels, "_compiled", compiled)
        kernel = compiled or kpy
        rng = np.random.default_rng(11)
        adj, flat = random_adj(rng, 40, 0.1), random_weights(rng, 40)
        raw = kernel.best_weighted_independent_set(40, adj, flat, 1000)
        assert raw[0] == kernels.BUDGET_EXCEEDED and raw[3] == 1001
        assert (kernels.best_weighted_independent_set(40, adj, flat, 1000)
                == (*raw[:3], 1000))
        # a search that finishes keeps its count
        adj, flat = random_adj(rng, 20, 0.5), random_weights(rng, 20)
        done = kernel.best_weighted_independent_set(20, adj, flat, 10 ** 6)
        assert done[0] == kernels.OK
        assert kernels.best_weighted_independent_set(20, adj, flat, 10 ** 6) == done

    def test_no_dsatur_pre_check_below_degree_64(self, monkeypatch):
        def no_dsatur(*args):
            raise AssertionError("pure-Python DSATUR ran before the kernel")
        compiled = _Recording(SimpleNamespace(
            exact_coloring=lambda n, adj, budget: "compiled"))
        monkeypatch.setattr(kernels, "_compiled", compiled)
        monkeypatch.setattr(kpy, "dsatur_greedy", no_dsatur)
        assert kernels.exact_coloring(64, clique_adj(64), 10) == "compiled"
        assert compiled.calls == 1

    def test_dispatch_still_correct_beyond_compiled_limits(self):
        g = sample_sbm(ModelInstance.gnp(70, 0.1), 3)
        status, chi, lower, colours = kernels.exact_coloring(
            g.n, g.adjacency_bits(), 10 ** 8)
        assert status == kernels.OK
        assert chi == lower
        for u, v in g.edges:
            assert colours[u] != colours[v]


class TestPurePythonKernels:
    @pytest.fixture
    def kernel(self):
        return kpy

    def test_empty_and_edgeless(self, kernel):
        assert kernel.exact_coloring(0, [], 100) == (0, 0, 0, [])
        assert kernel.exact_coloring(3, [0, 0, 0], 100) == (0, 1, 1, [0, 0, 0])

    def test_independent_set_rejects_empty(self, kernel):
        with pytest.raises(ValueError):
            kernel.best_weighted_independent_set(0, [], [], 100)

    def test_zero_weights(self, kernel):
        status, h, mask, _ = kernel.best_weighted_independent_set(
            3, [0, 0, 0], [0.0] * 9, 100)
        assert status == kernels.OK and h == 0.0 and mask == 1


class TestCompiledKernels(TestPurePythonKernels):
    """The same edge cases on the compiled kernels, and their size limits."""

    @pytest.fixture
    def kernel(self, kcy):
        return kcy

    def test_refuses_past_its_limits(self, kernel):
        with pytest.raises(ValueError):
            kernel.exact_coloring(513, [0] * 513, 100)
        with pytest.raises(ValueError):
            kernel.best_weighted_independent_set(65, [0] * 65, [0.0] * 65 ** 2, 100)


# Loop-based references for the bitset DSATUR in _kernels_py: the pick
# rule builds a (saturation, degree, -rank) key for every uncoloured vertex.

def ref_dsatur_greedy(n, adj, rank=None):
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
        while (forbid[pick] >> c) & 1:
            c += 1
        colors[pick] = c
        used = max(used, c + 1)
        for u in range(n):
            if (adj[pick] >> u) & 1 and colors[u] < 0:
                forbid[u] |= 1 << c
    return used, colors


class _RefBudget(Exception):
    pass


def _ref_decide(n, adj, degs, t, clique, counter):
    neigh = [[u for u in range(n) if (adj[v] >> u) & 1] for v in range(n)]
    colors = [-1] * n
    forbid = [0] * n
    for i, v in enumerate(clique):
        colors[v] = i
        for u in neigh[v]:
            forbid[u] |= 1 << i

    def rec(uncoloured, max_used):
        if uncoloured == 0:
            return True
        counter[0] -= 1
        if counter[0] <= 0:
            raise _RefBudget
        pick, key = -1, (-1, -1, 1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            cand = (forbid[v].bit_count(), degs[v], -v)
            if cand > key:
                pick, key = v, cand
        top = min(max_used + 1, t - 1)
        for c in range(top + 1):
            if (forbid[pick] >> c) & 1:
                continue
            colors[pick] = c
            touched = [u for u in neigh[pick]
                       if colors[u] < 0 and not (forbid[u] >> c) & 1]
            for u in touched:
                forbid[u] |= 1 << c
            if rec(uncoloured - 1, max(max_used, c)):
                return True
            for u in touched:
                forbid[u] &= ~(1 << c)
            colors[pick] = -1
        return False

    if len(clique) > t:
        return None
    return list(colors) if rec(n - len(clique), len(clique) - 1) else None


def ref_exact_coloring(n, adj, budget):
    if n == 0:
        return (kernels.OK, 0, 0, [])
    if all(a == 0 for a in adj):
        return (kernels.OK, 1, 1, [0] * n)
    clique = kpy.greedy_clique(n, adj)
    lb = len(clique)
    ub, best = ref_dsatur_greedy(n, adj)
    if ub <= lb:
        return (kernels.OK, ub, ub, best)
    degs = [a.bit_count() for a in adj]
    counter = [budget]
    while ub > lb:
        try:
            res = _ref_decide(n, adj, degs, ub - 1, clique, counter)
        except _RefBudget:
            return (kernels.BUDGET_EXCEEDED, ub, lb, best)
        if res is None:
            lb = ub
            break
        best = res
        ub = max(res) + 1
    return (kernels.OK, ub, ub, best)


@pytest.fixture(scope="module")
def graphs():
    """300 seeded graphs, n = 1-130, with the multi-word sizes that only the
    pure-Python kernel runs."""
    rng = np.random.default_rng(8)
    sizes = [65, 127, 128, 129, *rng.integers(1, 131, size=296)]
    return [(int(n), random_adj(rng, int(n), float(rng.uniform(0.05, 0.95))))
            for n in sizes]


class TestBitsetDsaturMatchesLoopReference:
    def test_exact_coloring(self, graphs):
        searched = Counter()
        for n, adj in graphs:
            search = ref_dsatur_greedy(n, adj)[0] > len(kpy.greedy_clique(n, adj))
            # the small budgets run out mid-search, so brackets are compared
            for budget in (5, 50, 10 ** 5 if n <= 40 else 300):
                got = kpy.exact_coloring(n, adj, budget)
                assert got == ref_exact_coloring(n, adj, budget), (n, budget)
                searched[got[0]] += search
        assert searched[kernels.OK] >= 50
        assert searched[kernels.BUDGET_EXCEEDED] >= 100

    def test_dsatur_greedy(self, graphs):
        rng = np.random.default_rng(9)
        for n, adj in graphs:
            assert kpy.dsatur_greedy(n, adj) == ref_dsatur_greedy(n, adj), n
            rank = rng.permutation(n).tolist()
            assert (kpy.dsatur_greedy(n, adj, rank)
                    == ref_dsatur_greedy(n, adj, rank)), n

    def test_dsatur_repeated_ranks_tie_to_lowest_index(self, graphs):
        rng = np.random.default_rng(10)
        for n, adj in graphs:
            rank = rng.integers(0, 3, size=n).tolist()
            assert (kpy.dsatur_greedy(n, adj, rank)
                    == ref_dsatur_greedy(n, adj, rank)), n

    def test_dsatur_ties_on_a_path(self):
        # path 0-1-2-3-4: vertices 1, 2 and 3 tie on degree, so the lowest
        # index or the lowest rank among them takes colour 0
        adj = [0b00010, 0b00101, 0b01010, 0b10100, 0b01000]
        assert kpy.dsatur_greedy(5, adj, [0] * 5) == (2, [1, 0, 1, 0, 1])
        assert kpy.dsatur_greedy(5, adj, [1, 1, 0, 1, 1]) == (2, [0, 1, 0, 1, 0])


# Loop-based reference for the weighted independent-set search: the search
# with the all-maxw prune (|U| + |cand| - 1) * maxw / 2 alone, as it was
# before the weighted bound and the clique cover.  The kernels branch in the
# same order and sum the weights in the same order, so where the reference
# finishes they must return its result, in no more nodes.

def ref_best_weighted_independent_set(n, adj, weights, node_limit):
    maxw = max(weights) if n > 1 else 0.0
    best = [0.0, 1]
    nodes = [0]
    members = []

    def rec(fsum, cand):
        nodes[0] += 1
        if nodes[0] > node_limit:
            return False
        total = len(members) + bin(cand).count("1")
        if (total - 1) * maxw / 2.0 <= best[0]:
            return True
        for v in range(n):
            if not (cand >> v) & 1:
                continue
            add = 0.0
            for u in members:
                add += weights[v * n + u]
            fv = fsum + add
            h = fv / (len(members) + 1)
            if h > best[0]:
                best[0] = h
                best[1] = sum(1 << u for u in members) | (1 << v)
            later = cand >> (v + 1) << (v + 1)
            members.append(v)
            done = rec(fv, later & ~adj[v])
            members.pop()
            if not done:
                return False
        return True

    status = kernels.OK if rec(0.0, (1 << n) - 1) else kernels.BUDGET_EXCEEDED
    return status, best[0], best[1], nodes[0]


def brute_force_weighted_alpha(n, adj, weights):
    """max over nonempty independent U of (pair weight in U) / |U|, over
    every vertex subset."""
    fsum = [0.0] * (1 << n)
    indep = [True] * (1 << n)
    best = 0.0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        indep[mask] = indep[rest] and not adj[v] & rest
        if indep[mask]:
            fsum[mask] = fsum[rest] + sum(weights[v * n + u] for u in range(n)
                                          if rest >> u & 1)
            best = max(best, fsum[mask] / mask.bit_count())
    return best


def three_kinds_of_weights(rng, i, n, p):
    """Equal, block-constant and random weights, by turns."""
    if i % 3 == 0:
        return equal_weights(n, p)
    return block_weights(rng, n) if i % 3 == 1 else random_weights(rng, n)


_REF_LIMIT = 2 * 10 ** 4


@pytest.fixture(scope="module")
def weighted_instances():
    """300 seeded instances, n = 1-40, with the reference's result under a
    limit of 2e4 nodes, which some of them run out of."""
    rng = np.random.default_rng(12)
    out = []
    for i in range(300):
        n, p = int(rng.integers(1, 41)), float(rng.uniform(0.1, 0.9))
        adj = random_adj(rng, n, p)
        flat = three_kinds_of_weights(rng, i, n, p)
        out.append((n, adj, flat,
                    ref_best_weighted_independent_set(n, adj, flat, _REF_LIMIT)))
    return out


@pytest.mark.parametrize("backend", ["python", "compiled"])
class TestWeightedBoundMatchesLoopReference:
    @pytest.fixture
    def kernel(self, request, backend):
        return request.getfixturevalue("kcy") if backend == "compiled" else kpy

    def test_same_result_in_no_more_nodes(self, kernel, weighted_instances):
        outcomes = Counter()
        for n, adj, flat, ref in weighted_instances:
            got = kernel.best_weighted_independent_set(n, adj, flat, _REF_LIMIT)
            assert got[3] <= ref[3], n
            if ref[0] == kernels.OK:
                assert got[:3] == ref[:3], n
            else:
                # the same incumbents in the same order, each reached in no
                # more nodes: at the limit, one at least as good
                assert got[1] >= ref[1], n
            outcomes[ref[0], got[3] < ref[3]] += 1
        assert outcomes[kernels.OK, True] >= 150
        assert outcomes[kernels.BUDGET_EXCEEDED, True] >= 1

    def test_brute_force_up_to_14_vertices(self, kernel):
        rng = np.random.default_rng(13)
        for i in range(150):
            n, p = int(rng.integers(1, 15)), float(rng.uniform(0.1, 0.9))
            adj = random_adj(rng, n, p)
            flat = three_kinds_of_weights(rng, i, n, p)
            status, value, mask, _ = kernel.best_weighted_independent_set(
                n, adj, flat, 10 ** 7)
            assert status == kernels.OK
            assert value == pytest.approx(
                brute_force_weighted_alpha(n, adj, flat), rel=1e-12, abs=1e-12)
            members = [v for v in range(n) if mask >> v & 1]
            assert members and not any(adj[v] & mask for v in members)
            pairs = sum(flat[u * n + v] for u in members for v in members if u < v)
            assert pairs / len(members) == pytest.approx(value, rel=1e-12, abs=1e-12)
