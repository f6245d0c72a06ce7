import json
import re
from pathlib import Path

import numpy as np
import pytest

from sbmchroma import _kernels_py as kpy
from sbmchroma import kernels
from sbmchroma.graphs import sample_sbm
from sbmchroma.model import ModelInstance

try:
    from sbmchroma import _kernels_cy as kcy
except ImportError:
    kcy = None

needs_compiled = pytest.mark.skipif(kcy is None,
                                    reason="compiled kernels unavailable")


def random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@needs_compiled
class TestBackendParity:
    def test_exact_coloring_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 24))
            adj = random_adj(rng, n, float(rng.uniform(0.05, 0.95)))
            assert (kpy.exact_coloring(n, adj, 10 ** 8)
                    == kcy.exact_coloring(n, adj, 10 ** 8))

    def test_weighted_independent_set_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            adj = random_adj(rng, n, float(rng.uniform(0.05, 0.95)))
            w = rng.uniform(0, 2, (n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            flat = [float(v) for v in w.ravel()]
            assert (kpy.best_weighted_independent_set(n, adj, flat, 10 ** 7)
                    == kcy.best_weighted_independent_set(n, adj, flat, 10 ** 7))

    def test_budget_exceeded_status_matches(self):
        rng = np.random.default_rng(2)
        adj = random_adj(rng, 30, 0.5)
        s_py = kpy.exact_coloring(30, adj, 5)
        s_cy = kcy.exact_coloring(30, adj, 5)
        assert s_py[0] == s_cy[0] == kernels.BUDGET_EXCEEDED
        assert s_py[1:3] == s_cy[1:3]


class TestDispatcher:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("cython", "python")

    def test_dispatch_still_correct_beyond_compiled_limits(self):
        g = sample_sbm(ModelInstance.gnp(70, 0.1), 3)
        status, chi, lower, colours = kernels.exact_coloring(
            g.n, g.adjacency_bits(), 10 ** 8)
        assert status == kernels.OK
        assert chi == lower
        for u, v in g.edges:
            assert colours[u] != colours[v]


class TestPurePythonKernels:
    def test_empty_and_edgeless(self):
        assert kpy.exact_coloring(0, [], 100) == (0, 0, 0, [])
        assert kpy.exact_coloring(3, [0, 0, 0], 100) == (0, 1, 1, [0, 0, 0])

    def test_independent_set_rejects_empty(self):
        with pytest.raises(ValueError):
            kpy.best_weighted_independent_set(0, [], [], 100)

    def test_zero_weights(self):
        status, h, mask, _ = kpy.best_weighted_independent_set(
            3, [0, 0, 0], [0.0] * 9, 100)
        assert status == kernels.OK and h == 0.0 and mask == 1


SRC = Path(__file__).resolve().parent.parent / "src" / "sbmchroma"
_ORIGIN = re.compile(r'^\s*/\* "sbmchroma/_kernels_cy\.pyx":(\d+)$')
_MARK = "             # <<<<<<<<<<<<<<"


def quoted_pyx_lines(c_lines: list[str]) -> list[tuple[int, str]]:
    """(pyx line number, quoted text) for every source line that the
    generated C quotes in its origin comments."""
    out = []
    for i, line in enumerate(c_lines):
        origin = _ORIGIN.match(line)
        if origin is None:
            continue
        block = []
        for quoted in c_lines[i + 1:]:
            if quoted == "*/":
                break
            block.append(quoted)
        marked = [j for j, q in enumerate(block) if q.endswith(_MARK)]
        assert len(marked) == 1, f"origin comment at C line {i + 1}"
        first = int(origin.group(1)) - marked[0]
        for j, quoted in enumerate(block):
            text = quoted[3:]  # drop the " * " prefix
            if j == marked[0]:
                text = text[:-len(_MARK)]
            out.append((first + j, text))
    return out


class TestGeneratedSourceMatchesPyx:
    """The shipped C is what the build compiles when Cython is missing; it
    must be generated from the .pyx as it stands."""

    c_lines = (SRC / "_kernels_cy.c").read_text().splitlines()
    pyx_lines = (SRC / "_kernels_cy.pyx").read_text().splitlines()

    def test_metadata_names_the_pyx_as_only_source(self):
        text = "\n".join(self.c_lines[:40])
        meta = re.search(r"BEGIN: Cython Metadata\n(.*?)\nEND: Cython Metadata",
                         text, re.S)
        assert meta is not None
        info = json.loads(meta.group(1))
        assert info["distutils"]["sources"] == ["src/sbmchroma/_kernels_cy.pyx"]
        assert info["module_name"] == "sbmchroma._kernels_cy"

    def test_quoted_lines_equal_the_pyx(self):
        quoted = quoted_pyx_lines(self.c_lines)
        assert len({num for num, _ in quoted}) > 0.9 * len(self.pyx_lines)
        for num, text in quoted:
            assert text == self.pyx_lines[num - 1], f".pyx line {num}"
