"""Closed-form chromatic-number predictions.

Two normalizations are reported everywhere:
  sigma_form  w* / (2 (1 - sigma) ln ||n||)
  qstar_form  w* / (2 ln(q* ||n||))
They agree asymptotically; the qstar form is the finite-n shape of the
tail bounds and is the default for empirical comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functionals import w_star_solve
from .graphs import BlowUpSpec, check_chung_lu
from .model import (BlockVector, ModelError, ModelInstance, ProbMatrix,
                    QMatrix, build_q, log_factor, q_star)

__all__ = [
    "Prediction",
    "TwoBlockThresholds",
    "sigma_estimate",
    "predict_gnp",
    "predict_sbm",
    "two_block_thresholds",
    "predict_two_block",
    "predict_percolation",
    "predict_chung_lu",
]

SIGMA_CAP = 0.25 - 1e-9


@dataclass(frozen=True)
class Prediction:
    chi_predicted: float
    normalization: str           # "sigma_form" or "qstar_form"
    sigma_used: float
    chi_sigma_form: float
    chi_qstar_form: float
    inputs_echo: dict

    def __post_init__(self):
        if not (self.chi_predicted >= 0.0 and math.isfinite(self.chi_predicted)):
            raise ModelError("prediction must be finite and nonnegative")


@dataclass(frozen=True)
class TwoBlockThresholds:
    p_bar: float
    p_low: float
    regime: str                  # "below", "middle", "above"


def sigma_estimate(m: ModelInstance) -> float:
    """Density exponent: sigma with q* = ||n||^(-sigma), clamped to [0, 1/4).

    Uses the model's sigma_hint when present.  A single finite instance does
    not pin sigma down; this is the documented default estimator.
    """
    if m.sigma_hint is not None:
        return float(m.sigma_hint)
    qs = q_star(m.q)
    norm = m.sizes.norm
    if qs <= 0.0:
        raise ModelError("sigma undefined: no within-block density (q* = 0)")
    if norm < 2:
        raise ModelError("sigma undefined for ||n|| < 2")
    return float(min(max(-math.log(qs) / math.log(norm), 0.0), SIGMA_CAP))


def _prediction(wstar: float, norm: float, sigma: float, qs: float,
                normalization: str, echo: dict) -> Prediction:
    if wstar < 0.0:
        raise ModelError("w* must be nonnegative")
    den_sigma = 2.0 * (1.0 - sigma) * math.log(norm)
    den_qstar = 2.0 * math.log(qs * norm) if qs > 0.0 else 0.0
    if den_sigma <= 0.0 or (normalization == "qstar_form" and den_qstar <= 0.0):
        raise ModelError("nonpositive normalization denominator")
    chi_sigma = wstar / den_sigma
    chi_qstar = wstar / den_qstar if den_qstar > 0.0 else float("nan")
    if normalization == "sigma_form":
        chi = chi_sigma
    elif normalization == "qstar_form":
        chi = chi_qstar
    else:
        raise ModelError(f"unknown normalization {normalization!r}")
    return Prediction(chi_predicted=chi, normalization=normalization,
                      sigma_used=sigma, chi_sigma_form=chi_sigma,
                      chi_qstar_form=chi_qstar, inputs_echo=echo)


def predict_gnp(n: int, p: float) -> Prediction:
    """chi(G(n, p)) ~ n ln(1/(1-p)) / (2 ln(pn)).

    Reported as a sigma-form prediction with sigma = 1 - ln(pn)/ln(n), the
    exponent that makes 2 (1-sigma) ln n equal the formula's denominator.
    """
    if not 0.0 < p < 1.0:
        raise ModelError("p must lie in (0, 1)")
    if p * n <= 1.0:
        raise ModelError("prediction needs pn > 1")
    q = log_factor(p)
    sigma = 1.0 - math.log(p * n) / math.log(n)
    chi = n * q / (2.0 * math.log(p * n))
    return Prediction(chi_predicted=chi, normalization="sigma_form",
                      sigma_used=sigma, chi_sigma_form=chi,
                      chi_qstar_form=n * q / (2.0 * math.log(q * n)),
                      inputs_echo={"kind": "gnp", "n": n, "p": p})


def predict_sbm(m: ModelInstance, wstar: float,
                normalization: str = "qstar_form") -> Prediction:
    """Block-model prediction from a supplied w* value."""
    if m.sizes.norm < 2:
        raise ModelError("prediction needs ||n|| >= 2")
    sigma = sigma_estimate(m)
    return _prediction(wstar, m.sizes.norm, sigma, q_star(m.q), normalization,
                       echo={"kind": "sbm", "n": [int(v) for v in m.sizes.values],
                             "wstar": wstar})


def two_block_thresholds(n1: int, n2: int, p11: float, p22: float,
                         p12: Optional[float] = None) -> TwoBlockThresholds:
    """The two threshold probabilities for k = 2, and the regime of p12.

    p_bar = 1 - sqrt((1-p11)(1-p22));
    p_low = 1 - min((1-p11)^(1/2) (1-p22)^(-n2/2n1),
                    (1-p22)^(1/2) (1-p11)^(-n1/2n2)).
    Regime classification happens in q space for numerical stability; the
    boundaries belong to the middle regime (closed interval).
    """
    if not (0.0 < p11 < 1.0 and 0.0 < p22 < 1.0):
        raise ModelError("p11 and p22 must lie in (0, 1)")
    if n1 < 0 or n2 < 0 or n1 + n2 == 0:
        raise ModelError("block sizes must be nonnegative, not both zero")
    q11, q22 = log_factor(p11), log_factor(p22)
    q_bar = 0.5 * (q11 + q22)
    # a zero-size block drops its candidate (the n_i/n_j ratio degenerates)
    cands = []
    if n1 > 0:
        cands.append(0.5 * q11 - (n2 / (2.0 * n1)) * q22)
    if n2 > 0:
        cands.append(0.5 * q22 - (n1 / (2.0 * n2)) * q11)
    q_low = max(cands)
    p_bar = -math.expm1(-q_bar)
    p_low = -math.expm1(-q_low)
    regime = "middle"
    if p12 is not None:
        if not 0.0 <= p12 < 1.0:
            raise ModelError("p12 must lie in [0, 1)")
        q12 = log_factor(p12)
        if q12 > q_bar:
            regime = "above"
        elif q12 < q_low:
            regime = "below"
    return TwoBlockThresholds(p_bar=p_bar, p_low=p_low, regime=regime)


def predict_two_block(n1: int, n2: int, p11: float, p22: float, p12: float,
                      normalization: str = "qstar_form") -> Prediction:
    """Case formula for two blocks:

    middle: n^T Q n / (2 (1-sigma) ||n|| ln ||n||);
    above:  (n1 q11 + n2 q22) / (2 (1-sigma) ln ||n||);
    below:  max(n1 q11, n2 q22) / (2 (1-sigma) ln ||n||).
    """
    thr = two_block_thresholds(n1, n2, p11, p22, p12)
    m = ModelInstance(BlockVector.integral([n1, n2]),
                      ProbMatrix([[p11, p12], [p12, p22]]))
    q = m.q.entries
    nv = np.array([n1, n2], dtype=np.float64)
    norm = float(nv.sum())
    if thr.regime == "middle":
        wstar = float(nv @ q @ nv) / norm
    elif thr.regime == "above":
        wstar = float(n1 * q[0, 0] + n2 * q[1, 1])
    else:
        wstar = float(max(n1 * q[0, 0], n2 * q[1, 1]))
    sigma = sigma_estimate(m)
    pred = _prediction(wstar, norm, sigma, q_star(m.q), normalization,
                       echo={"kind": "two-block", "n": [n1, n2],
                             "p": [p11, p22, p12], "regime": thr.regime})
    return pred


def percolation_chi_scale(spec: BlowUpSpec) -> float:
    """The deterministic blow-up's chromatic scale w*(n, I + A_H)."""
    q_tilde = QMatrix(np.eye(spec.k) + spec.h_adjacency.astype(np.float64))
    return w_star_solve(spec.sizes, q_tilde, seed=0).w_sum


def predict_percolation(spec: BlowUpSpec, p: float) -> Prediction:
    """chi of the percolated blow-up: [ln(1/(1-p)) / (2 ln(p ||n||))] * chi_G
    with chi_G taken as w*(n, I + A_H); sigma = -ln(p)/ln(||n||)."""
    if not 0.0 < p < 1.0:
        raise ModelError("p must lie in (0, 1)")
    norm = spec.sizes.norm
    if p * norm <= 1.0:
        raise ModelError("prediction needs p ||n|| > 1")
    q = log_factor(p)
    scale = percolation_chi_scale(spec)
    chi = q / (2.0 * math.log(p * norm)) * scale
    return Prediction(chi_predicted=chi, normalization="sigma_form",
                      sigma_used=-math.log(p) / math.log(norm),
                      chi_sigma_form=chi,
                      chi_qstar_form=q * scale / (2.0 * math.log(q * norm)),
                      inputs_echo={"kind": "percolation", "p": p,
                                   "chi_scale": scale})


def prefix_quadratic_max(u: Sequence[float]) -> float:
    """max over U of (sum_{i in U} u_i)^2 / |U|, by descending prefix scan.

    The maximiser is a top-m prefix of the sorted values: swapping any
    chosen element for a larger unchosen one never decreases the objective.
    """
    vals = np.sort(np.asarray(u, dtype=np.float64))[::-1]
    if vals.size == 0:
        raise ModelError("u must be nonempty")
    prefixes = np.cumsum(vals)
    sizes = np.arange(1, vals.size + 1, dtype=np.float64)
    return float(np.max(prefixes * prefixes / sizes))


def predict_chung_lu(u: Sequence[float], p: float, kind: str) -> Prediction:
    """times: (p / (2 ln(pn))) max_U (sum u)^2/|U|;
    plus:  (p / ln(pn)) sum_i u_i.  sigma = -ln(p)/ln(n)."""
    uv, op = check_chung_lu(u, p, kind)
    if op is np.add and p > 0.5:
        raise ModelError("plus kind needs p in (0, 1/2]")
    if uv.sum() <= 0.0:
        raise ModelError("sum of u must be positive")
    n = uv.size
    if p * n <= 1.0:
        raise ModelError("prediction needs pn > 1")
    if op is np.multiply:
        chi = p / (2.0 * math.log(p * n)) * prefix_quadratic_max(uv)
    else:
        chi = p / math.log(p * n) * float(uv.sum())
    # the theorem's formula is already in its finite-n shape; both reported
    # forms coincide here
    return Prediction(chi_predicted=chi, normalization="sigma_form",
                      sigma_used=max(0.0, -math.log(p) / math.log(n)),
                      chi_sigma_form=chi, chi_qstar_form=chi,
                      inputs_echo={"kind": f"chunglu-{kind}", "n": n, "p": p})
