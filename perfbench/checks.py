"""Output checks and the output-derived end-to-end metrics.

Every check rests on an independent computation (closed forms, a corner
loop written here, networkx oracles) or on a property the method
guarantees; none compares against a stored copy of earlier output.  A row
that fails a check counts as failed.

`check_report` runs on every run's report.  `check_traced_calls` runs in
the traced run on the arguments and results the tracer kept.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

REL_TOL = 1e-8            # the report prints 10 significant digits
EDGE_SIGMAS = 5.0
CHI_COLUMNS = ("chi_exact", "chi_dsatur", "chi_extraction")
RATIOS = {
    "ratio_chi_exact_qstar": ("chi_exact", "chi_pred_qstar"),
    "ratio_chi_exact_sigma": ("chi_exact", "chi_pred_sigma"),
    "ratio_chi_exact_model": ("chi_exact", "chi_pred_model"),
    "ratio_chi_dsatur_qstar": ("chi_dsatur", "chi_pred_qstar"),
    "ratio_chi_dsatur_sigma": ("chi_dsatur", "chi_pred_sigma"),
    "ratio_chi_dsatur_model": ("chi_dsatur", "chi_pred_model"),
    "ratio_chi_extraction_qstar": ("chi_extraction", "chi_pred_qstar"),
    "ratio_chi_extraction_sigma": ("chi_extraction", "chi_pred_sigma"),
    "ratio_chi_extraction_model": ("chi_extraction", "chi_pred_model"),
    "ratio_alpha_h_qstar": ("alpha_h", "alpha_pred_qstar"),
    "ratio_alpha_h_sigma": ("alpha_h", "alpha_pred_sigma"),
    "ratio_edge_count": ("edge_count", "edges_pred"),
}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# The block model behind a report row, computed here from the config
# ---------------------------------------------------------------------------

def block_model(cfg: dict, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """(block sizes, P) of the model at one grid point; gnp is one block."""
    spec = dict(cfg["model"], **params)
    if spec["kind"] == "gnp":
        return (np.array([int(spec["n"])], dtype=np.int64),
                np.array([[float(spec["p"])]]))
    if spec["kind"] == "sbm":
        return (np.asarray(spec["sizes"], dtype=np.int64),
                np.asarray(spec["P"], dtype=np.float64))
    raise ValueError(f"no independent model for kind {spec['kind']!r}")


def corner_w(x: np.ndarray, qm: np.ndarray) -> float:
    """max over the 2^k corners z of the box [0, x] of z^T Q z / sum(z)."""
    k = x.size
    bits = (np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1
    z = bits * np.asarray(x, dtype=np.float64)
    norms = z.sum(axis=1)
    live = norms > 0.0
    if not np.any(live):
        return 0.0
    return float((((z @ qm) * z).sum(axis=1)[live] / norms[live]).max())


def _pair_moments(sizes: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the edge count of one draw."""
    pairs = np.outer(sizes, sizes).astype(np.float64)
    np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
    upper = np.triu(np.ones_like(p, dtype=bool))
    mean = float((pairs * p)[upper].sum())
    var = float((pairs * p * (1.0 - p))[upper].sum())
    return mean, var


# ---------------------------------------------------------------------------
# Report checks (every run)
# ---------------------------------------------------------------------------

def read_report(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def _num(row: dict, col: str):
    cell = row.get(col, "")
    return float(cell) if cell != "" else None


def _row_params(cfg: dict, row: dict) -> dict:
    return {entry["param"]: float(row[f"param_{entry['param']}"])
            for entry in cfg.get("sweep", [])}


def _row_problems(cfg: dict, row: dict) -> list[str]:
    out = []
    if row["status"] != "ok":
        out.append(f"status {row['status']}")
    needed = [f"chi_{m}" for m in cfg["chi_methods"]] + ["alpha_h", "edge_count"]
    for col in needed:
        if _num(row, col) is None:
            out.append(f"{col} missing")
    exact = _num(row, "chi_exact")
    for col in ("chi_dsatur", "chi_extraction"):
        other = _num(row, col)
        if exact is not None and other is not None and exact > other:
            out.append(f"chi_exact {exact} > {col} {other}")
    for ratio, (meas, pred) in RATIOS.items():
        m, p, r = _num(row, meas), _num(row, pred), _num(row, ratio)
        if m is None or p is None or not p > 0.0:
            if r is not None:
                out.append(f"{ratio} present without its operands")
        elif r is None or not _close(r, m / p):
            out.append(f"{ratio} {r} != {meas}/{pred} = {m / p}")

    sizes, p = block_model(cfg, _row_params(cfg, row))
    q = -np.log1p(-p)
    norm = float(sizes.sum())
    qs = float(np.max(np.diag(q)))
    chi_qstar = _num(row, "chi_pred_qstar")
    if chi_qstar is None:
        return out + ["chi_pred_qstar missing"]
    if cfg["model"]["kind"] == "gnp":
        n, pp, qq = norm, float(p[0, 0]), float(q[0, 0])
        want_model = n * qq / (2.0 * math.log(pp * n))
        want_qstar = n * qq / (2.0 * math.log(qq * n))
        got_model = _num(row, "chi_pred_model")
        if got_model is None or not _close(got_model, want_model):
            out.append(f"chi_pred_model {got_model} != n q / 2 ln(pn) = {want_model}")
        if not _close(chi_qstar, want_qstar):
            out.append(f"chi_pred_qstar {chi_qstar} != n q / 2 ln(qn) = {want_qstar}")
    else:
        wstar = chi_qstar * 2.0 * math.log(qs * norm)
        diag = np.diag(q)
        upper = float(sizes @ diag)                       # all singletons
        lower = (upper / norm) ** 2 * norm / float(diag.sum())
        w_one = corner_w(sizes, q)                        # one-part system
        slack = REL_TOL * max(1.0, abs(wstar))
        if not lower - slack <= wstar <= upper + slack:
            out.append(f"w* {wstar} outside [{lower}, {upper}]")
        if wstar > w_one + slack:
            out.append(f"w* {wstar} above w(n, Q) = {w_one}")
    return out


def check_report(cfg: dict, rows: list[dict]) -> dict:
    """{(point, replicate): [problems]} for every row that fails a check."""
    failed = {}
    for row in rows:
        problems = _row_problems(cfg, row)
        if problems:
            failed[(int(row["point"]), int(row["replicate"]))] = problems
    mean = var = 0.0
    for row in rows:
        m, v = _pair_moments(*block_model(cfg, _row_params(cfg, row)))
        mean, var = mean + m, var + v
    total = sum(_num(row, "edge_count") or 0.0 for row in rows)
    if abs(total - mean) > EDGE_SIGMAS * math.sqrt(var):
        problem = (f"total edge_count {total} is more than {EDGE_SIGMAS} sigma "
                   f"from its mean {mean:.1f}")
        for row in rows:
            key = (int(row["point"]), int(row["replicate"]))
            failed.setdefault(key, []).append(problem)
    return failed


def quality_metrics(rows: list[dict]) -> dict:
    """colours_mean, pred_chi_qstar_sum and alpha_h_mean of one report."""
    chis = [v for row in rows for col in CHI_COLUMNS
            if (v := _num(row, col)) is not None]
    alphas = [v for row in rows if (v := _num(row, "alpha_h")) is not None]
    per_point = {}
    for row in rows:
        per_point.setdefault(row["point"], _num(row, "chi_pred_qstar") or 0.0)
    return {
        "colours_mean": sum(chis) / len(chis),
        "pred_chi_qstar_sum": sum(per_point.values()),
        "alpha_h_mean": sum(alphas) / len(alphas),
    }


# ---------------------------------------------------------------------------
# Traced-run checks (on the calls the tracer kept)
# ---------------------------------------------------------------------------

def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nx_graph(g):
    import networkx as nx
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from((int(u), int(v)) for u, v in g.edges)
    return graph


def _colouring_problems(edges: np.ndarray, colours: np.ndarray,
                        num_colours: int) -> list[str]:
    out = []
    if edges.size and np.any(colours[edges[:, 0]] == colours[edges[:, 1]]):
        out.append("colouring has a monochromatic edge")
    if np.unique(colours).size != num_colours:
        out.append(f"colouring uses {np.unique(colours).size} colours, "
                   f"reports {num_colours}")
    return out


def _decomposition_problems(x, q, dec) -> list[str]:
    target = np.asarray(x.values, dtype=np.float64)
    qm = np.asarray(q.entries)
    parts = [np.asarray(p.values, dtype=np.float64) for p in dec.parts]
    out = []
    if any(np.any(p < 0.0) for p in parts):
        out.append("w* part with a negative entry")
    total = np.sum(parts, axis=0) if parts else np.zeros_like(target)
    if not np.allclose(total, target, rtol=REL_TOL, atol=REL_TOL):
        out.append(f"w* parts sum to {total.tolist()}, not {target.tolist()}")
    w_sum = sum(corner_w(p, qm) for p in parts)
    if not _close(w_sum, dec.w_sum):
        out.append(f"w* w-sum {dec.w_sum} != corner loop {w_sum}")
    return out


def _call_problems(cfg: dict, name: str, args: tuple, kwargs: dict,
                   out) -> list[str]:
    import networkx as nx

    if name == "kernels.exact_coloring":
        n, adj = args[0], args[1]
        status, chi, _, colours = out
        if status != 0:
            return [f"exact colouring status {status}"]
        edges = np.array([(v, u) for v in range(n) for u in _bits(adj[v])
                          if u > v], dtype=np.int64).reshape(-1, 2)
        return _colouring_problems(edges, np.asarray(colours), chi)
    if name == "chromatic.exact_chromatic":
        graph = _nx_graph(args[0])
        clique = nx.max_weight_clique(graph, weight=None)[1]
        greedy = max(nx.coloring.greedy_color(graph, "DSATUR").values(),
                     default=-1) + 1
        if not clique <= out <= greedy:
            return [f"chi_exact {out} outside [clique {clique}, "
                    f"networkx DSATUR {greedy}]"]
        return []
    if name in ("chromatic.dsatur_colouring",
                "chromatic.balanced_extraction_colouring"):
        g = args[0] if name == "chromatic.dsatur_colouring" else args[1]
        return _colouring_problems(np.asarray(g.edges), out.colour_of,
                                   out.num_colours)
    if name == "chromatic.alpha_h":
        m, g = args[0], args[1]
        members = sorted(out.best_set)
        inside = set(members)
        problems = []
        if any(int(u) in inside and int(v) in inside for u, v in g.edges):
            problems.append("alpha_h set is not independent")
        p = np.asarray(m.probs.entries)
        blocks = [int(g.block_of[v]) for v in members]
        log_indep = sum(math.log1p(-p[a, b]) for i, a in enumerate(blocks)
                        for b in blocks[i + 1:])
        h = -log_indep / len(members)
        if not _close(h, out.h_value, 1e-9):
            problems.append(f"alpha_h h {out.h_value} != recomputed {h}")
        if cfg["model"]["kind"] == "gnp" and kwargs.get("mode") == "exact":
            alpha = nx.max_weight_clique(nx.complement(_nx_graph(g)),
                                         weight=None)[1]
            want = (alpha - 1) * -math.log1p(-float(p[0, 0])) / 2.0
            if not _close(want, out.h_value, 1e-9):
                problems.append(f"exact alpha_h {out.h_value} != "
                                f"(alpha - 1) q / 2 = {want}")
        return problems
    if name in ("functionals.w_star_solve",
                "functionals.near_optimal_integer_system"):
        return _decomposition_problems(args[0], args[1], out)
    raise ValueError(f"no check for {name}")


def check_traced_calls(cfg: dict, calls: list[tuple]) -> dict:
    """{row or None: [problems]}; None marks calls made outside any row."""
    failed: dict = {}
    for name, row, args, kwargs, out in calls:
        for problem in _call_problems(cfg, name, args, kwargs, out):
            failed.setdefault(row, []).append(f"{name}: {problem}")
    return failed
