"""Core model types: edge-probability matrices, their log-space transform,
block-size vectors, and full model instances.

The central object is the symmetric matrix Q with q_ij = ln(1/(1 - p_ij)).
Everything downstream (the w functionals, predictions, independence weights)
is phrased in terms of Q, block-size vectors and their 1-norms.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ModelError",
    "read_json",
    "ProbMatrix",
    "QMatrix",
    "BlockVector",
    "ModelInstance",
    "build_q",
    "q_star",
    "q_hat",
    "quadratic_form",
]


class ModelError(ValueError):
    """Invalid model data (asymmetric matrix, probability out of range, ...)."""


def read_json(path, error: type[ValueError] = ModelError):
    """Contents of the JSON file at `path`; `error`, naming the file, when
    the file does not hold valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path} is not valid JSON: {exc}") from exc


def _as_square(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ModelError("matrix entries must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ModelError(f"expected a nonempty square matrix, got shape {arr.shape}")
    return arr


class ProbMatrix:
    """Symmetric k x k matrix of edge probabilities, each in [0, 1).

    Probability 1 is rejected outright: it would push the log transform to
    infinity and deterministic edges are modelled through blow-up graphs
    instead.
    """

    __slots__ = ("entries", "k")

    def __init__(self, entries):
        arr = _as_square(entries)
        if not np.array_equal(arr, arr.T):
            raise ModelError("probability matrix must be symmetric")
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ModelError("probabilities must lie in [0, 1)")
        arr.setflags(write=False)
        self.entries = arr
        self.k = arr.shape[0]

    def __getitem__(self, idx):
        return self.entries[idx]

    def __repr__(self):
        return f"ProbMatrix(k={self.k})"


class QMatrix:
    """Symmetric nonnegative matrix in log space (nats)."""

    __slots__ = ("entries", "k")

    def __init__(self, entries):
        arr = _as_square(entries)
        if not np.allclose(arr, arr.T, rtol=0.0, atol=0.0):
            raise ModelError("Q matrix must be symmetric")
        if np.any(arr < 0.0):
            raise ModelError("Q entries must be nonnegative")
        arr.setflags(write=False)
        self.entries = arr
        self.k = arr.shape[0]

    def __getitem__(self, idx):
        return self.entries[idx]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def __repr__(self):
        return f"QMatrix(k={self.k})"


class BlockVector:
    """Nonnegative k-vector of block sizes or relaxed weights.

    `norm` caches the 1-norm. Integer-flagged instances must have integral
    components; they are stored as exact integer values in a float array.
    """

    __slots__ = ("values", "norm", "is_integer")

    def __init__(self, values: Sequence[float], integer: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError("block vector must be a nonempty 1-d sequence")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ModelError("block vector components must be finite and >= 0")
        if integer:
            rounded = np.rint(arr)
            if not np.array_equal(rounded, arr):
                raise ModelError("integer-flagged block vector has fractional components")
            arr = rounded
        arr.setflags(write=False)
        self.values = arr
        self.norm = float(arr.sum())
        self.is_integer = bool(integer)

    @classmethod
    def integral(cls, values: Sequence[int]) -> "BlockVector":
        return cls(values, integer=True)

    @property
    def k(self) -> int:
        return self.values.size

    def as_ints(self) -> tuple[int, ...]:
        if not self.is_integer:
            raise ModelError("block vector is not integer-flagged")
        return tuple(int(v) for v in self.values)

    def __len__(self):
        return self.values.size

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"BlockVector({self.values.tolist()}, integer={self.is_integer})"


def build_q(p: ProbMatrix) -> QMatrix:
    """Entrywise q_ij = -ln(1 - p_ij)."""
    with np.errstate(divide="raise"):
        q = -np.log1p(-p.entries)
    q = (q + q.T) / 2.0  # exact symmetry despite rounding
    return QMatrix(q)


def q_star(q: QMatrix) -> float:
    """Maximum diagonal entry of Q."""
    return float(np.max(np.diag(q.entries)))


def q_hat(x: BlockVector, q: QMatrix) -> float:
    """Size-weighted mean diagonal (sum x_i q_ii) / ||x||; q* when x = 0."""
    if x.k != q.k:
        raise ModelError(f"dimension mismatch: x has k={x.k}, Q has k={q.k}")
    if x.norm == 0.0:
        return q_star(q)
    return float(np.dot(x.values, np.diag(q.entries)) / x.norm)


def quadratic_form(y: BlockVector, q: QMatrix) -> float:
    """y^T Q y."""
    if y.k != q.k:
        raise ModelError(f"dimension mismatch: y has k={y.k}, Q has k={q.k}")
    return float(y.values @ q.entries @ y.values)


class ModelInstance:
    """A block model: integer block sizes, probabilities, and the derived Q.

    `sigma_hint` optionally pins the density exponent used by predictions;
    when absent the estimator in the predictions module is used.
    """

    __slots__ = ("sizes", "probs", "q", "sigma_hint")

    def __init__(self, sizes: BlockVector, probs: ProbMatrix,
                 sigma_hint: Optional[float] = None):
        if not sizes.is_integer:
            raise ModelError("model block sizes must be integer-flagged")
        if sizes.k != probs.k:
            raise ModelError(f"sizes have k={sizes.k} but P has k={probs.k}")
        if sigma_hint is not None and not (0.0 <= sigma_hint < 0.25):
            raise ModelError("sigma_hint must lie in [0, 1/4)")
        self.sizes = sizes
        self.probs = probs
        self.q = build_q(probs)
        self.sigma_hint = sigma_hint

    @property
    def k(self) -> int:
        return self.sizes.k

    @property
    def n_total(self) -> int:
        return int(round(self.sizes.norm))

    def expected_edges(self) -> float:
        n = self.sizes.values
        p = self.probs.entries
        total = 0.0
        for i in range(self.k):
            total += p[i, i] * n[i] * (n[i] - 1) / 2.0
            for j in range(i + 1, self.k):
                total += p[i, j] * n[i] * n[j]
        return total

    # --- JSON model files: {"k": int, "sizes": [...], "P": [[...]]} ---

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "sizes": [int(v) for v in self.sizes.values],
            "P": [[float(v) for v in row] for row in self.probs.entries],
        }
        if self.sigma_hint is not None:
            out["sigma_hint"] = self.sigma_hint
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelInstance":
        try:
            k = int(data["k"])
            sizes = BlockVector.integral(data["sizes"])
            probs = ProbMatrix(data["P"])
        except ModelError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed model JSON: {exc}") from exc
        if sizes.k != k or probs.k != k:
            raise ModelError("model JSON: 'k' disagrees with sizes/P dimensions")
        return cls(sizes, probs, sigma_hint=data.get("sigma_hint"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelInstance":
        return cls.from_json_dict(read_json(path))

    @classmethod
    def gnp(cls, n: int, p: float) -> "ModelInstance":
        """Single-block model: the binomial random graph G(n, p)."""
        return cls(BlockVector.integral([n]), ProbMatrix([[p]]))

    def __repr__(self):
        return (f"ModelInstance(k={self.k}, n={self.n_total}, "
                f"sigma_hint={self.sigma_hint})")


def log_factor(p: float) -> float:
    """Scalar ln(1/(1-p)) for p in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise ModelError("probability must lie in [0, 1)")
    return -math.log1p(-p)
