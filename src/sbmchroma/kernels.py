"""Kernel backend selection.

The compiled extension (_kernels_c, built from _kernels_c.c by setup.py) is
used when it imported and the instance is within its size limits; otherwise
the pure-Python module _kernels_py runs.  An unbuilt checkout therefore runs
pure Python.  Both backends give identical results.
"""

from __future__ import annotations

from . import _kernels_py

OK = _kernels_py.OK
BUDGET_EXCEEDED = _kernels_py.BUDGET_EXCEEDED

try:
    from . import _kernels_c as _compiled
except ImportError:
    _compiled = None

BACKEND = "c" if _compiled is not None else "python"

# the compiled independent-set kernel keeps vertex sets in one 64-bit word
_C_MAX_IS_VERTICES = 64


def exact_coloring(n: int, adj: list[int], budget: int):
    if _compiled is not None and n <= _compiled.MAX_VERTICES:
        return _compiled.exact_coloring(n, adj, budget)
    return _kernels_py.exact_coloring(n, adj, budget)


def best_weighted_independent_set(n: int, adj: list[int], weights,
                                  node_limit: int):
    """The kernels' (status, value, mask, nodes), with `nodes` clamped to
    `node_limit`: both kernels also count the node whose visit fails the
    limit check, which they never explore."""
    kernel = (_compiled if _compiled is not None and n <= _C_MAX_IS_VERTICES
              else _kernels_py)
    status, value, mask, nodes = kernel.best_weighted_independent_set(
        n, adj, weights, node_limit)
    return status, value, mask, min(nodes, node_limit)
