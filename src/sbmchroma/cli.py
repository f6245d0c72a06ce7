"""Command-line interface.

Subcommands: gen, solve-w, solve-wstar, chromatic, predict, experiment,
plotdata.  Inputs are JSON files (model, graph, blow-up spec, experiment
config); results print as JSON on stdout or are written to --out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import chromatic as chrom
from . import functionals as fn
from . import graphs as gr
from . import predictions as pred
from .experiment import (ConfigError, ExperimentConfig, emit_plotdata,
                         run_experiment)
from .model import BlockVector, ModelError, ModelInstance, read_json

__all__ = ["main"]


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_blowup_spec(path: str) -> gr.BlowUpSpec:
    data = read_json(path)
    try:
        return gr.BlowUpSpec.from_edges(int(data["k"]), data.get("h_edges", []),
                                        data["sizes"])
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed blow-up spec {path}: {exc}") from exc


def _parse_u(args) -> list[float]:
    if args.u_file:
        raw = read_json(args.u_file)
    elif args.u:
        raw = args.u.split(",")
    else:
        raise ModelError("provide --u or --u-file")
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ModelError(f"u weights must be numbers: {exc}") from exc


def _cmd_gen(args) -> None:
    model = args.model
    if model == "sbm":
        if not args.model_file:
            raise ModelError("gen --model sbm needs --model-file")
        g = gr.sample_sbm(ModelInstance.load(args.model_file), args.seed)
    elif model == "blowup":
        if not args.spec_file:
            raise ModelError("gen --model blowup needs --spec-file")
        g = gr.blow_up(_load_blowup_spec(args.spec_file))
    elif model == "percolate":
        if not args.graph or args.p is None:
            raise ModelError("gen --model percolate needs --graph and --p")
        g = gr.percolate(gr.SbmGraph.load(args.graph), args.p, args.seed)
    elif model in ("chunglu-times", "chunglu-plus"):
        if args.p is None:
            raise ModelError(f"gen --model {model} needs --p")
        g = gr.sample_chung_lu(_parse_u(args), args.p,
                               model.removeprefix("chunglu-"), args.seed)
    elif model == "union":
        if not args.graph or not args.graph2:
            raise ModelError("gen --model union needs --graph and --graph2")
        g = gr.union_graphs(gr.SbmGraph.load(args.graph),
                            gr.SbmGraph.load(args.graph2))
    else:
        raise ModelError(f"unknown model {model!r}")
    g.save(args.out)
    _emit({"written": args.out, "n": g.n, "m": g.m, "k": g.k})


def _cmd_solve_w(args) -> None:
    m = ModelInstance.load(args.model)
    sol = fn.w_value(m.sizes, m.q)
    lower, upper = fn.w_star_bounds(m.sizes, m.q)
    _emit({
        "value": sol.value,
        "support": list(sol.support),
        "maximizer": sol.maximizer.values.tolist(),
        "bounds": {"wstar_lower": lower, "wstar_upper": upper},
        "method": "corner-enumeration",
    })


def _cmd_solve_wstar(args) -> None:
    m = ModelInstance.load(args.model)
    lower, upper = fn.w_star_bounds(m.sizes, m.q)
    if args.oracle:
        dec = fn.w_star_bruteforce(m.sizes, m.q)
    else:
        dec = fn.w_star_solve(m.sizes, m.q, restarts=args.restarts,
                              seed=args.seed)
    _emit({
        "value": dec.w_sum,
        "parts": [p.values.tolist() for p in dec.parts],
        "bounds": {"wstar_lower": lower, "wstar_upper": upper},
        "method": dec.method,
    })


def _cmd_chromatic(args) -> None:
    g = gr.SbmGraph.load(args.graph)
    t0 = time.perf_counter()
    if args.method == "exact":
        try:
            col = chrom.exact_colouring(g, budget=args.budget)
            chi: object = col.num_colours
            sizes = col.class_sizes()
        except chrom.BudgetExceededError as exc:
            _emit({"chi_or_bound": [exc.lower, exc.upper], "method": "exact",
                   "colour_sizes": [], "status": "budget-exceeded",
                   "runtime_ms": (time.perf_counter() - t0) * 1000.0})
            return
    elif args.method == "dsatur":
        col = chrom.dsatur_colouring(g, seed=args.seed)
        chi, sizes = col.num_colours, col.class_sizes()
    elif args.method == "extraction":
        if not args.model:
            raise ModelError("extraction needs --model for edge probabilities")
        m = ModelInstance.load(args.model)
        col = chrom.balanced_extraction_colouring(m, g, epsilon=args.epsilon,
                                                  seed=args.seed)
        chi, sizes = col.num_colours, col.class_sizes()
    else:
        raise ModelError(f"unknown method {args.method!r}")
    _emit({"chi_or_bound": chi, "method": args.method, "colour_sizes": sizes,
           "runtime_ms": (time.perf_counter() - t0) * 1000.0})


def _cmd_predict(args) -> None:
    out: dict
    if args.theorem == "gnp":
        if args.n is None or args.p is None:
            raise ModelError("predict gnp needs --n and --p")
        p = pred.predict_gnp(args.n, args.p)
        out = {"chi_predicted": p.chi_predicted,
               "normalization": p.normalization, "sigma": p.sigma_used}
    elif args.theorem == "sbm":
        m = ModelInstance.load(args.model)
        if args.wstar is not None:
            wstar = args.wstar
        else:
            wstar = fn.w_star_solve(m.sizes, m.q, seed=args.seed).w_sum
        p = pred.predict_sbm(m, wstar, normalization=args.normalization)
        out = {"chi_predicted": p.chi_predicted, "normalization": p.normalization,
               "sigma": p.sigma_used, "chi_sigma_form": p.chi_sigma_form,
               "chi_qstar_form": p.chi_qstar_form, "wstar": wstar}
    elif args.theorem == "two-block":
        m = ModelInstance.load(args.model)
        if m.k != 2:
            raise ModelError("two-block prediction needs a k=2 model")
        n1, n2 = (int(v) for v in m.sizes.values)
        p11, p22 = float(m.probs[0, 0]), float(m.probs[1, 1])
        p12 = float(m.probs[0, 1])
        thr = pred.two_block_thresholds(n1, n2, p11, p22, p12)
        p = pred.predict_two_block(n1, n2, p11, p22, p12,
                                   normalization=args.normalization)
        out = {"chi_predicted": p.chi_predicted, "normalization": p.normalization,
               "sigma": p.sigma_used, "regime": thr.regime,
               "p_bar": thr.p_bar, "p_low": thr.p_low}
    elif args.theorem == "percolation":
        if not args.spec_file or args.p is None:
            raise ModelError("predict percolation needs --spec-file and --p")
        spec = _load_blowup_spec(args.spec_file)
        p = pred.predict_percolation(spec, args.p)
        out = {"chi_predicted": p.chi_predicted,
               "normalization": p.normalization, "sigma": p.sigma_used,
               "chi_scale": p.inputs_echo["chi_scale"]}
    elif args.theorem in ("chunglu-times", "chunglu-plus"):
        if args.p is None:
            raise ModelError("predict chunglu needs --p")
        kind = args.theorem.removeprefix("chunglu-")
        p = pred.predict_chung_lu(_parse_u(args), args.p, kind)
        out = {"chi_predicted": p.chi_predicted,
               "normalization": p.normalization, "sigma": p.sigma_used}
    else:
        raise ModelError(f"unknown theorem {args.theorem!r}")
    _emit(out)


def _cmd_experiment(args) -> None:
    cfg = ExperimentConfig.load(args.config)
    rows = run_experiment(cfg, args.out)
    _emit({"written": args.out, "rows": len(rows),
           "summary": f"{args.out}.summary.json",
           "timing": f"{args.out}.timing.csv"})


def _cmd_plotdata(args) -> None:
    emit_plotdata(args.report, args.x, args.y, args.out, group=args.group)
    _emit({"written": args.out})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sbmchroma",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample or construct a graph")
    g.add_argument("--model", required=True,
                   choices=["sbm", "blowup", "percolate", "chunglu-times",
                            "chunglu-plus", "union"])
    g.add_argument("--model-file", help="model JSON (sbm)")
    g.add_argument("--spec-file", help="blow-up spec JSON (blowup)")
    g.add_argument("--graph", help="input graph JSON (percolate, union)")
    g.add_argument("--graph2", help="second graph JSON (union)")
    g.add_argument("--u", help="comma-separated weights (chunglu)")
    g.add_argument("--u-file", help="JSON list of weights (chunglu)")
    g.add_argument("--p", type=float, help="probability parameter")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    w = sub.add_parser("solve-w", help="corner maximum w(n, Q) of a model")
    w.add_argument("--model", required=True)
    w.set_defaults(func=_cmd_solve_w)

    ws = sub.add_parser("solve-wstar", help="decomposition optimum w*(n, Q)")
    ws.add_argument("--model", required=True)
    ws.add_argument("--oracle", action="store_true",
                    help="exact integer brute force (guarded)")
    ws.add_argument("--restarts", type=int, default=4)
    ws.add_argument("--seed", type=int, default=0)
    ws.set_defaults(func=_cmd_solve_wstar)

    c = sub.add_parser("chromatic", help="colour a graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--method", required=True,
                   choices=["exact", "dsatur", "extraction"])
    c.add_argument("--model", help="model JSON (needed for extraction)")
    c.add_argument("--epsilon", type=float, default=0.2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=chrom.DEFAULT_COLOURING_BUDGET)
    c.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("predict", help="closed-form chromatic prediction")
    p.add_argument("--theorem", required=True,
                   choices=["gnp", "sbm", "two-block", "percolation",
                            "chunglu-times", "chunglu-plus"])
    p.add_argument("--model", help="model JSON (sbm, two-block)")
    p.add_argument("--spec-file", help="blow-up spec JSON (percolation)")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--u", help="comma-separated weights (chunglu)")
    p.add_argument("--u-file")
    p.add_argument("--wstar", type=float, help="override the solved w*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalization", default="qstar_form",
                   choices=["qstar_form", "sigma_form"])
    p.set_defaults(func=_cmd_predict)

    e = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_experiment)

    pl = sub.add_parser("plotdata", help="extract plot columns from a report")
    pl.add_argument("--report", required=True)
    pl.add_argument("--x", required=True)
    pl.add_argument("--y", required=True)
    pl.add_argument("--group")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_plotdata)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ModelError, ConfigError, fn.GuardError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
