"""Kernel backend selection.

The compiled Cython extension is used when it imported successfully and the
instance fits its fixed-width bitsets; otherwise the pure-Python fallback
runs.  Setting SBMCHROMA_PURE_PYTHON=1 forces the fallback (useful for the
backend-parity tests and the benchmark).
"""

from __future__ import annotations

import os

from . import _kernels_py

OK = _kernels_py.OK
BUDGET_EXCEEDED = _kernels_py.BUDGET_EXCEEDED

_compiled = None
if not os.environ.get("SBMCHROMA_PURE_PYTHON"):
    try:
        from . import _kernels_cy as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None

BACKEND = "cython" if _compiled is not None else "python"

# compiled limits: colour masks are single 64-bit words; vertex masks in the
# independent-set kernel are too
_CY_MAX_COLORS = 64
_CY_MAX_IS_VERTICES = 64


def exact_coloring(n: int, adj: list[int], budget: int):
    if _compiled is not None and n <= _compiled.MAX_VERTICES:
        ub, _ = _kernels_py.dsatur_greedy(n, adj)
        if ub <= _CY_MAX_COLORS:
            return _compiled.exact_coloring(n, adj, budget)
    return _kernels_py.exact_coloring(n, adj, budget)


def best_weighted_independent_set(n: int, adj: list[int], weights,
                                  node_limit: int):
    if _compiled is not None and n <= _CY_MAX_IS_VERTICES:
        return _compiled.best_weighted_independent_set(n, adj, weights,
                                                       node_limit)
    return _kernels_py.best_weighted_independent_set(n, adj, weights,
                                                     node_limit)
