"""The benchmark's workloads, each an `sbmchroma experiment` config.

A workload is a function of the seed alone: the seed becomes the config's
`base_seed`, everything else is fixed here.  So two runs with one seed do
identical work (same graphs, same search, byte-identical report), and
steadiness depends only on the machine.  Sizes and replicate counts keep
every single graph a small share of a round, so the cost of a round moves
little from one seed to the next.
"""

from __future__ import annotations

DEFAULT_SEED = 20260810

MEASURES = ["chi", "alpha_h", "edge_count"]

# 5-block disassortative SBM: within-block densities 0.06-0.24 against
# 0.47-0.76 across, so Q is not pseudodefinite and w* needs the full search.
P_MIXED = [
    [0.20, 0.58, 0.69, 0.76, 0.47],
    [0.58, 0.17, 0.59, 0.65, 0.67],
    [0.69, 0.59, 0.24, 0.70, 0.66],
    [0.76, 0.65, 0.70, 0.06, 0.57],
    [0.47, 0.67, 0.66, 0.57, 0.23],
]

# 7-block disassortative SBM, same shape.  At k = 7 one full w* solve
# takes ~0.4 s here; at k = 8 it takes ~3 s, which leaves room for only a
# handful of rows per run, too few for steady means or a filtered time.
P_WSTAR = [
    [0.28, 0.64, 0.67, 0.74, 0.60, 0.70, 0.72],
    [0.64, 0.10, 0.66, 0.67, 0.72, 0.70, 0.68],
    [0.67, 0.66, 0.26, 0.60, 0.49, 0.78, 0.61],
    [0.74, 0.67, 0.60, 0.09, 0.58, 0.76, 0.55],
    [0.60, 0.72, 0.49, 0.58, 0.29, 0.68, 0.73],
    [0.70, 0.70, 0.78, 0.76, 0.68, 0.21, 0.68],
    [0.72, 0.68, 0.61, 0.55, 0.73, 0.68, 0.20],
]


def gnp_exact(seed: int) -> dict:
    """G(n, 1/2) swept over n like the criterion-7 trend config, exact chi
    and exact alpha_h: the two branch-and-bound kernels do the work and w*
    takes the pseudodefinite shortcut.  n stops at 42 because exact
    colouring has a heavy tail from n = 50 on (one G(60, 1/2) graph can
    take over a minute)."""
    return {
        "model": {"kind": "gnp", "n": 30, "p": 0.5},
        "sweep": [{"param": "n", "values": [30, 34, 38]}],
        "replicates": 200,
        "base_seed": seed,
        "chi_methods": ["exact"],
        "measures": MEASURES,
        "alpha_h_mode": "exact",
        "exact_budget": 2_000_000_000,
        "workers": 1,
    }


def sbm_mixed(seed: int) -> dict:
    """5 blocks of 10 vertices, all three chi methods, heuristic alpha_h:
    no layer dominates."""
    return {
        "model": {"kind": "sbm", "sizes": [10] * 5, "P": P_MIXED},
        "replicates": 24,
        "base_seed": seed,
        "chi_methods": ["exact", "dsatur", "extraction"],
        "measures": MEASURES,
        "alpha_h_mode": "heuristic",
        "workers": 1,
    }


def sbm_wstar(seed: int) -> dict:
    """7 blocks of 6 vertices, DSATUR and extraction, heuristic alpha_h:
    the full w* local search (one solve per grid point for the prediction,
    one per row inside extraction) takes nearly all the time."""
    return {
        "model": {"kind": "sbm", "sizes": [6] * 7, "P": P_WSTAR},
        "replicates": 8,
        "base_seed": seed,
        "chi_methods": ["dsatur", "extraction"],
        "measures": MEASURES,
        "alpha_h_mode": "heuristic",
        "workers": 1,
    }


WORKLOADS = {
    "gnp-exact": gnp_exact,
    "sbm-mixed": sbm_mixed,
    "sbm-wstar": sbm_wstar,
}
