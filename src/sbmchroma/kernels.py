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


def _fits_compiled_colours(n: int, adj: list[int]) -> bool:
    """True when the compiled DSATUR needs at most 64 colours.

    That DSATUR never reaches its own "more than 64 colours" refusal: at a
    vertex that sees all 64 colours its search for a free colour shifts a
    64-bit mask by 64 or more and does not end.  A greedy colouring uses at
    most max degree + 1 colours, so only graphs with a vertex of degree 64
    or more pay for the pure-Python DSATUR, which colours like the compiled
    one.
    """
    if max((a.bit_count() for a in adj), default=0) < _CY_MAX_COLORS:
        return True
    return _kernels_py.dsatur_greedy(n, adj)[0] <= _CY_MAX_COLORS


def exact_coloring(n: int, adj: list[int], budget: int):
    if (_compiled is not None and n <= _compiled.MAX_VERTICES
            and _fits_compiled_colours(n, adj)):
        return _compiled.exact_coloring(n, adj, budget)
    return _kernels_py.exact_coloring(n, adj, budget)


def best_weighted_independent_set(n: int, adj: list[int], weights,
                                  node_limit: int):
    """The kernels' (status, value, mask, nodes), with `nodes` clamped to
    `node_limit`: both kernels also count the node whose visit fails the
    limit check, which they never explore."""
    kernel = (_compiled if _compiled is not None and n <= _CY_MAX_IS_VERTICES
              else _kernels_py)
    status, value, mask, nodes = kernel.best_weighted_independent_set(
        n, adj, weights, node_limit)
    return status, value, mask, min(nodes, node_limit)
