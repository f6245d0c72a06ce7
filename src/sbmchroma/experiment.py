"""Seeded Monte Carlo driver: sample graphs over a parameter grid, measure
chromatic numbers / weighted independence / edge counts, compare against the
closed-form predictions, and emit a CSV report plus a JSON summary.

Determinism contract: a config maps to byte-identical report and summary
files on every rerun.  Per-row seeds come from an injective mix of
(base_seed, grid point, replicate).  Wall-clock timings are real data but
not reproducible, so they go to a separate `.timing.csv` sidecar instead of
the report itself.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from . import chromatic as chrom
from .functionals import (Decomposition, GuardError, round_integer_system,
                          w_star_solve)
from .graphs import (BlowUpSpec, blow_up_as_model, chung_lu_probs,
                     sample_chung_lu, sample_sbm, union_graphs, union_model)
from .model import (BlockVector, ModelError, ModelInstance, ProbMatrix, q_star,
                    read_json)
from .predictions import (predict_chung_lu, predict_gnp, predict_percolation,
                          predict_sbm, predict_two_block, sigma_estimate)
from .seeds import derive_seed, mix_seed

__all__ = ["ConfigError", "ExperimentConfig", "ReportRow", "run_experiment",
           "emit_plotdata", "REPORT_VERSION"]

REPORT_VERSION = "sbmchroma-report v1"

_CHI_METHODS = ("exact", "dsatur", "extraction")
_MEASURES = ("chi", "alpha_h", "edge_count")
_MODEL_KINDS = ("sbm", "gnp", "blowup-percolate", "chunglu-times",
                "chunglu-plus", "union-sbm")
DEFAULT_EXACT_GUARD = 70


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# how ExperimentConfig.from_dict reads each config key; no other key is valid
_READ = {"model": dict, "replicates": int, "base_seed": int,
         "chi_methods": list, "measures": list,
         "sweep": lambda entries: [dict(e) for e in entries], "epsilon": float,
         "exact_budget": int, "exact_guard": int, "alpha_h_mode": str,
         "extraction_effort": int, "workers": int}


@dataclass
class ExperimentConfig:
    model: dict
    replicates: int
    base_seed: int
    chi_methods: list[str] = field(default_factory=lambda: ["dsatur"])
    measures: list[str] = field(default_factory=lambda: ["chi"])
    sweep: list[dict] = field(default_factory=list)
    epsilon: float = 0.2
    exact_budget: int = chrom.DEFAULT_COLOURING_BUDGET
    exact_guard: int = DEFAULT_EXACT_GUARD
    alpha_h_mode: str = "heuristic"
    extraction_effort: int = 8
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("an experiment config must be a JSON object")
        unknown = sorted(set(data) - set(_READ))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        try:
            cfg = cls(**{k: _READ[k](v) for k, v in data.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed experiment config: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, ConfigError))

    def validate(self) -> None:
        kind = self.model.get("kind")
        if kind not in _MODEL_KINDS:
            raise ConfigError(f"model kind must be one of {_MODEL_KINDS}, "
                              f"got {kind!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.measures:
            raise ConfigError("at least one measure is required")
        for meth in self.chi_methods:
            if meth not in _CHI_METHODS:
                raise ConfigError(f"unknown chi method {meth!r}")
        for meas in self.measures:
            if meas not in _MEASURES:
                raise ConfigError(f"unknown measure {meas!r}")
        if "chi" in self.measures and not self.chi_methods:
            raise ConfigError("measure 'chi' needs at least one chi method")
        for entry in self.sweep:
            if "param" not in entry or "values" not in entry or not entry["values"]:
                raise ConfigError("sweep entries need 'param' and nonempty 'values'")
        if self.alpha_h_mode not in ("heuristic", "exact"):
            raise ConfigError("alpha_h_mode must be 'heuristic' or 'exact'")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.extraction_effort < 1:
            raise ConfigError("extraction_effort must be >= 1")

    # --- grid handling ------------------------------------------------------

    def grid_points(self) -> list[dict]:
        """Cartesian product of the sweep values, in config order."""
        points = [{}]
        for entry in self.sweep:
            points = [dict(pt, **{entry["param"]: v})
                      for pt in points for v in entry["values"]]
        return points

    def model_at(self, point: dict) -> dict:
        spec = json.loads(json.dumps(self.model))  # deep copy
        for name, value in point.items():
            _apply_param(spec, name, value)
        return spec

    def param_names(self) -> list[str]:
        return [entry["param"] for entry in self.sweep]


def _apply_param(spec: dict, name: str, value) -> None:
    """Set sweep parameter `name` of a model spec: `p12`, one `P.i.j`
    entry (kept symmetric), or a key the spec has other than `kind`."""
    if name == "p12":
        if spec.get("kind") != "sbm" or len(spec.get("P", [])) != 2:
            raise ConfigError("sweeping p12 needs a two-block sbm model")
        spec["P"][0][1] = spec["P"][1][0] = value
    elif name.startswith("P."):
        try:
            _, i, j = name.split(".")
            i, j = int(i), int(j)
            if min(i, j) < 0:
                raise IndexError("negative index")
            spec["P"][i][j] = spec["P"][j][i] = value
        except (KeyError, ValueError, IndexError) as exc:
            raise ConfigError(f"cannot sweep {name!r}: {exc}") from exc
    elif name in spec and name != "kind":
        spec[name] = value
    else:
        raise ConfigError(f"cannot sweep {name!r}: not a sweepable model key")


# --- one grid point ---------------------------------------------------------

def _models(spec: dict) -> tuple[Optional[ModelInstance],
                                 Optional[ModelInstance], Callable,
                                 Optional[Callable]]:
    """The one reader of a model spec: (block model, colouring model, row
    seed -> graph sampler, unevaluated chi formula or None).  The Chung-Lu
    kinds have no block model and colour with one block per vertex (k = n),
    or with no model when an entry reaches 1 (plus kind, 2 p max(u) >= 1).
    ModelError for invalid parameters, ConfigError for malformed keys.
    """
    kind = spec["kind"]
    try:
        if kind in ("chunglu-times", "chunglu-plus"):
            u, p = spec["u"], float(spec["p"])
            sub = kind.removeprefix("chunglu-")
            pm = chung_lu_probs(u, p, sub)
            model = (ModelInstance(BlockVector.integral([1] * len(pm)),
                                   ProbMatrix(pm)) if pm.max() < 1.0 else None)
            return (None, model, partial(sample_chung_lu, u, p, sub),
                    partial(predict_chung_lu, u, p, sub))
        if kind == "union-sbm":
            if len(spec["of"]) != 2:
                raise ConfigError("a union-sbm model takes exactly two parts")
            (m1, _, sample1, _), (m2, _, sample2, _) = map(_models, spec["of"])
            for part, inst in zip(spec["of"], (m1, m2)):
                if inst is None:
                    raise ModelError(f"union-sbm part of kind "
                                     f"{part['kind']!r} is not a block model")
            inst = union_model(m1, m2)
            return inst, inst, partial(_sample_union, sample1, sample2), None
        chi = None
        if kind == "sbm":
            inst = ModelInstance(BlockVector.integral(spec["sizes"]),
                                 ProbMatrix(spec["P"]),
                                 sigma_hint=spec.get("sigma_hint"))
            if inst.k == 2:
                (p11, p12), (_, p22) = spec["P"]
                chi = partial(predict_two_block, *map(int, spec["sizes"]),
                              float(p11), float(p22), float(p12))
        elif kind == "gnp":
            n, p = int(spec["n"]), float(spec["p"])
            inst, chi = ModelInstance.gnp(n, p), partial(predict_gnp, n, p)
        elif kind == "blowup-percolate":
            bspec = BlowUpSpec.from_edges(int(spec["k"]), spec["h_edges"],
                                          spec["sizes"])
            p = float(spec["p"])
            inst = blow_up_as_model(bspec, p)
            chi = partial(predict_percolation, bspec, p)
        else:
            raise ConfigError(f"unknown model kind {kind!r}")
        return inst, inst, partial(sample_sbm, inst), chi
    except (ModelError, ConfigError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind!r} model spec: "
                          f"{type(exc).__name__}: {exc}") from exc


def _sample_union(sample1: Callable, sample2: Callable, seed: int):
    """One draw of a union-sbm: its two parts, drawn independently."""
    return union_graphs(sample1(derive_seed(seed, 1)),
                        sample2(derive_seed(seed, 2)))


@dataclass(frozen=True)
class _GridPoint:
    """What every row of one grid point shares, from one read of its spec."""

    params: dict
    sample: Callable                # row seed -> graph; pickles for workers
    model: Optional[ModelInstance]  # the colouring model; None if none
    preds: dict                     # the prediction columns
    system: Union[Decomposition, GuardError, None]  # the extraction system
    status: tuple[str, ...]         # notes in the status of every row


def _grid_point(params: dict, spec: dict, cfg: ExperimentConfig) -> _GridPoint:
    """The replicate-independent part of a grid point's rows, from one
    `_models` read of its spec; a ModelError or GuardError from the chi
    formula leaves `chi_pred_model` empty.  One w* solve serves the block
    model's chi predictions and the extraction system.
    The system is None when no row extracts, and the solve's GuardError
    when the model is too large for it; then the w*-based predictions stay
    empty and, when the point predicts, its rows record `wstar_guard[...]`.
    """
    inst, model, sample, chi_formula = _models(spec)
    preds = dict.fromkeys(_PRED_COLS)
    if chi_formula is not None:
        with suppress(ModelError, GuardError):
            preds["chi_pred_model"] = chi_formula().chi_predicted
    if model is not None:
        preds["edges_pred"] = model.expected_edges()
        norm = model.sizes.norm
        qn = q_star(model.q) * norm
        if qn > 1.0 and norm >= 2:
            preds["alpha_pred_qstar"] = math.log(qn)
    # sigma is defined wherever alpha_pred_qstar is (q* ||n|| > 1, ||n|| >= 2)
    predicts = inst is not None and preds["alpha_pred_qstar"] is not None
    if predicts:
        sigma = sigma_estimate(inst)
        preds["alpha_pred_sigma"] = (1.0 - sigma) * math.log(norm)
    extracts = ("chi" in cfg.measures and "extraction" in cfg.chi_methods
                and model is not None)
    system = None
    status: tuple[str, ...] = ()
    if predicts or extracts:
        try:
            real = w_star_solve(model.sizes, model.q,
                                seed=derive_seed(cfg.base_seed, 777))
        except GuardError as exc:
            system = exc
            if predicts:
                status = (f"wstar_guard[{exc}]",)
        else:
            if extracts:
                system = round_integer_system(real, model.q)
            if predicts:
                pred = predict_sbm(inst, real.w_sum)
                preds["chi_pred_qstar"] = pred.chi_qstar_form
                preds["chi_pred_sigma"] = pred.chi_sigma_form
    return _GridPoint(params, sample, model, preds, system, status)


@dataclass
class ReportRow:
    point: int
    replicate: int
    seed: int
    params: dict
    status: str
    values: dict            # measured columns
    predictions: dict       # per-point prediction columns
    runtime_ms: float

    def ratio(self, measure_col: str, pred_col: str) -> Optional[float]:
        v = self.values.get(measure_col)
        p = self.predictions.get(pred_col)
        if v is None or p is None or not p > 0.0:
            return None
        return v / p


_MEASURE_COLS = ("chi_exact", "chi_dsatur", "chi_extraction", "alpha_h",
                 "edge_count")
_PRED_COLS = ("chi_pred_qstar", "chi_pred_sigma", "chi_pred_model",
              "alpha_pred_qstar", "alpha_pred_sigma", "edges_pred")
_RATIO_SPEC = (
    ("ratio_chi_exact_qstar", "chi_exact", "chi_pred_qstar"),
    ("ratio_chi_exact_sigma", "chi_exact", "chi_pred_sigma"),
    ("ratio_chi_exact_model", "chi_exact", "chi_pred_model"),
    ("ratio_chi_dsatur_qstar", "chi_dsatur", "chi_pred_qstar"),
    ("ratio_chi_dsatur_sigma", "chi_dsatur", "chi_pred_sigma"),
    ("ratio_chi_dsatur_model", "chi_dsatur", "chi_pred_model"),
    ("ratio_chi_extraction_qstar", "chi_extraction", "chi_pred_qstar"),
    ("ratio_chi_extraction_sigma", "chi_extraction", "chi_pred_sigma"),
    ("ratio_chi_extraction_model", "chi_extraction", "chi_pred_model"),
    ("ratio_alpha_h_qstar", "alpha_h", "alpha_pred_qstar"),
    ("ratio_alpha_h_sigma", "alpha_h", "alpha_pred_sigma"),
    ("ratio_edge_count", "edge_count", "edges_pred"),
)


# the alpha_h mode each config value runs (see chromatic.alpha_h)
_ALPHA_H_MODES = {"heuristic": "exact-first", "exact": "exact"}


def _measure_row(cfg: ExperimentConfig, point_idx: int, replicate: int,
                 point: _GridPoint) -> ReportRow:
    seed = mix_seed(cfg.base_seed, point_idx, replicate)
    t0 = time.perf_counter()
    status: list[str] = list(point.status)
    values: dict = {}
    g = point.sample(seed)
    inst, system = point.model, point.system
    if "edge_count" in cfg.measures:
        values["edge_count"] = float(g.m)
    if "chi" in cfg.measures:
        for method in cfg.chi_methods:
            col = f"chi_{method}"
            try:
                if method == "exact":
                    if g.n > cfg.exact_guard:
                        status.append(f"exact_skipped_n>{cfg.exact_guard}")
                        continue
                    values[col] = float(chrom.exact_chromatic(g, cfg.exact_budget))
                elif method == "dsatur":
                    values[col] = float(chrom.dsatur_colouring(
                        g, seed=derive_seed(seed, 10)).num_colours)
                elif inst is None:
                    status.append("extraction_skipped_no_model")
                elif isinstance(system, GuardError):
                    status.append(f"extraction_guard[{system}]")
                else:
                    values[col] = float(chrom.balanced_extraction_colouring(
                        inst, g, epsilon=cfg.epsilon,
                        seed=derive_seed(seed, 11),
                        effort=cfg.extraction_effort,
                        system=system).num_colours)
            except chrom.BudgetExceededError as exc:
                status.append(f"{method}_budget[{exc.lower}..{exc.upper}]")
            except GuardError as exc:
                status.append(f"{method}_guard[{exc}]")
    if "alpha_h" in cfg.measures:
        if inst is None:
            status.append("alpha_h_skipped_no_model")
        else:
            try:
                values["alpha_h"] = chrom.alpha_h(
                    inst, g, mode=_ALPHA_H_MODES[cfg.alpha_h_mode],
                    seed=derive_seed(seed, 12)).h_value
            except GuardError as exc:
                status.append(f"alpha_h_guard[{exc}]")
    runtime = (time.perf_counter() - t0) * 1000.0
    return ReportRow(point=point_idx, replicate=replicate, seed=seed,
                     params=point.params, status=";".join(status) or "ok",
                     values=values, predictions=point.preds,
                     runtime_ms=runtime)


def _fmt(x) -> str:
    """One report field; a list is written [a;b;...] so that it holds no
    comma."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return "[" + ";".join(_fmt(v) for v in x) + "]"
    if isinstance(x, float):
        if float(x).is_integer() and abs(x) < 1e15:
            return str(int(x))
        return f"{x:.10g}"
    return str(x)


def run_experiment(cfg: ExperimentConfig, out_path: str) -> list[ReportRow]:
    """Execute the full grid x replicate plan and write:

    out_path                the report CSV (deterministic, versioned header)
    out_path.summary.json   per-point median and IQR of every ratio column
    out_path.timing.csv     wall-clock per row (not reproducible by nature)

    Each file is replaced whole, so an interrupted write keeps the old one.
    """
    cfg.validate()
    points = cfg.grid_points()
    # an invalid model fails here, before any row runs
    grid = [_grid_point(pt, cfg.model_at(pt), cfg) for pt in points]
    cells = [(cfg, idx, replicate, point) for idx, point in enumerate(grid)
             for replicate in range(cfg.replicates)]

    # a forked pool starts all its processes at the first submit
    workers = min(cfg.workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_measure_row, *zip(*cells), chunksize=1))
    else:
        rows = [_measure_row(*cell) for cell in cells]
    rows.sort(key=lambda r: (r.point, r.replicate))

    param_names = cfg.param_names()
    columns = (["point", "replicate", "seed", "status"]
               + [f"param_{p}" for p in param_names]
               + list(_MEASURE_COLS) + list(_PRED_COLS)
               + [name for name, _, _ in _RATIO_SPEC])
    lines = [f"# {REPORT_VERSION}", ",".join(columns)]
    for r in rows:
        rec = [str(r.point), str(r.replicate), str(r.seed), r.status]
        rec += [_fmt(r.params.get(p)) for p in param_names]
        rec += [_fmt(r.values.get(c)) for c in _MEASURE_COLS]
        rec += [_fmt(r.predictions.get(c)) for c in _PRED_COLS]
        rec += [_fmt(r.ratio(mc, pc)) for _, mc, pc in _RATIO_SPEC]
        lines.append(",".join(rec))
    _write_atomic(out_path, "\n".join(lines) + "\n")

    _write_summary(rows, points, param_names, f"{out_path}.summary.json")
    timing = "".join(f"{r.point},{r.replicate},{r.runtime_ms:.3f}\n"
                     for r in rows)
    _write_atomic(f"{out_path}.timing.csv",
                  "point,replicate,runtime_ms\n" + timing)
    return rows


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same
    directory and os.replace: a failure part-way leaves an existing file at
    `path` as it was and no partial file behind."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_summary(rows: list[ReportRow], points: list[dict],
                   param_names: list[str], path: str) -> None:
    summary = {"version": REPORT_VERSION, "points": []}
    for idx, params in enumerate(points):
        entry: dict = {"point": idx,
                       "params": {p: params.get(p) for p in param_names}}
        point_rows = [r for r in rows if r.point == idx]
        for name, mc, pc in _RATIO_SPEC:
            vals = [r.ratio(mc, pc) for r in point_rows]
            vals = sorted(v for v in vals if v is not None)
            if not vals:
                continue
            arr = np.asarray(vals)
            entry[name] = {
                "count": len(vals),
                "median": float(f"{np.median(arr):.10g}"),
                "iqr": float(f"{np.percentile(arr, 75) - np.percentile(arr, 25):.10g}"),
            }
        summary["points"].append(entry)
    _write_atomic(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def emit_plotdata(report_path: str, x: str, y: str, out_path: str,
                  group: Optional[str] = None) -> None:
    """Two-column (plus optional group key) plot table from a report CSV.

    Rows with a numeric x come first, by value; the other rows (blank or
    text cells) follow, by string; the group breaks ties.  No rendering
    here.
    """
    with open(report_path, "r", encoding="utf-8") as fh:
        recs = [(no, ln.rstrip("\n").split(",")) for no, ln in enumerate(fh, 1)
                if ln.rstrip("\n") and not ln.startswith("#")]
    if not recs:
        raise ModelError("empty report")
    header = recs[0][1]
    for col in [x, y] + ([group] if group else []):
        if col not in header:
            raise ModelError(f"unknown column {col!r}")
    xi, yi = header.index(x), header.index(y)
    gi = header.index(group) if group else None

    def sort_key(rec: list[str]):
        group_key = rec[gi] if gi is not None else ""
        try:
            xv = float(rec[xi])
        except ValueError:
            xv = math.nan
        if math.isnan(xv):  # blank, text or "nan": after the numbers
            return (1, 0.0, rec[xi], group_key)
        return (0, xv, "", group_key)

    for no, rec in recs[1:]:
        if len(rec) != len(header):
            raise ModelError(f"report line {no} has {len(rec)} fields, "
                             f"its header {len(header)}")
    body = sorted((rec for _, rec in recs[1:]), key=sort_key)
    cols = [xi, yi] + ([gi] if gi is not None else [])
    _write_atomic(out_path, "".join("\t".join(rec[c] for c in cols) + "\n"
                                    for rec in [header] + body))
