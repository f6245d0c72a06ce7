"""Random-graph samplers and deterministic constructors.

Every sampler is a pure function of (parameters, seed): draws come from a
PCG64 stream and per-pair Bernoulli decisions are consumed in lexicographic
pair order (u, v) with u < v, so identical inputs give identical graphs on
any platform.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from .model import (BlockVector, ModelError, ModelInstance, ProbMatrix,
                    read_json)
from .seeds import rng_from_seed

__all__ = [
    "SbmGraph",
    "BlowUpSpec",
    "sample_sbm",
    "blow_up",
    "percolate",
    "blow_up_as_model",
    "chung_lu_model",
    "check_chung_lu",
    "chung_lu_probs",
    "sample_chung_lu",
    "union_graphs",
]


class SbmGraph:
    """Labelled simple graph: contiguous blocks, sorted edge list, provenance.

    `edges` is the one edge representation: an m x 2 int64 array of pairs
    u < v in lexicographic order, read with numpy masks by every operation.
    Immutable after construction.  The one adjacency structure, the
    per-vertex neighbour bitsets that every graph search reads, is packed
    in the constructor from the same boolean matrix that yields `edges`.
    """

    __slots__ = ("n", "k", "block_of", "edges", "provenance", "_adj_bits")

    def __init__(self, n: int, block_of: Sequence[int], edges,
                 provenance: Optional[dict] = None, k: Optional[int] = None):
        block_arr = np.asarray(block_of, dtype=np.int64)
        if block_arr.shape != (n,):
            raise ModelError("block_of must assign a block to every vertex")
        if n > 0:
            if block_arr.min(initial=0) < 0:
                raise ModelError("negative block index")
            if np.any(np.diff(block_arr) < 0):
                raise ModelError("blocks must occupy contiguous vertex ranges")
        self.n = int(n)
        self.k = int(k) if k is not None else (int(block_arr.max()) + 1 if n else 0)
        if n > 0 and block_arr.max() >= self.k:
            raise ModelError("block index out of range")
        block_arr.setflags(write=False)
        self.block_of = block_arr

        lo, hi = _ordered_pairs(edges, n)
        # the upper triangle read row by row: one sorted (lo, hi) per pair
        mat = np.zeros((self.n, self.n), dtype=bool)
        mat[lo, hi] = True
        self.edges = np.argwhere(mat)
        self.edges.setflags(write=False)
        rows = np.packbits(mat | mat.T, axis=1, bitorder="little")
        self._adj_bits = [int.from_bytes(row.tobytes(), "little")
                          for row in rows]
        self.provenance = dict(provenance or {})

    # --- derived views -----------------------------------------------------

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of, minlength=self.k)

    def size_vector(self) -> BlockVector:
        return BlockVector(self.block_sizes(), integer=True)

    def adjacency_bits(self) -> list[int]:
        """Per-vertex neighbour bitsets (python ints): bit v of entry u is
        set when uv is an edge."""
        return self._adj_bits

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ModelError("vertex index out of range")
        return bool(self.adjacency_bits()[u] >> v & 1)

    def _picks(self, vertices) -> np.ndarray:
        """`vertices` as an int64 array; ModelError for a vertex outside
        [0, n), which numpy indexing would otherwise wrap or refuse."""
        picks = np.fromiter(vertices, dtype=np.int64)
        if picks.size and (picks.min() < 0 or picks.max() >= self.n):
            raise ModelError("vertex index out of range")
        return picks

    def _inside(self, vertices) -> np.ndarray:
        """Boolean vertex mask of `vertices`."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self._picks(vertices)] = True
        return mask

    def b_vector(self, vertices) -> np.ndarray:
        """Per-block counts of a vertex subset (a repeated vertex counts
        once per occurrence)."""
        return np.bincount(self.block_of[self._picks(vertices)],
                           minlength=self.k)

    def edge_count_within(self, vertices) -> int:
        inside = self._inside(vertices)
        return int(np.count_nonzero(inside[self.edges].all(axis=1)))

    def subgraph(self, vertices) -> tuple["SbmGraph", list[int]]:
        """Induced subgraph on `vertices` (kept in index order) plus the map
        from new indices back to the original ones."""
        inside = self._inside(vertices)
        keep = np.flatnonzero(inside)
        index = np.cumsum(inside) - 1  # new index of each kept vertex
        kept = self.edges[inside[self.edges].all(axis=1)]
        sub = SbmGraph(keep.size, self.block_of[keep], index[kept],
                       provenance={"kind": "induced", "parent": self.provenance},
                       k=self.k)
        return sub, keep.tolist()

    # --- JSON graph files ---------------------------------------------------

    def to_json_dict(self) -> dict:
        prov = dict(self.provenance)
        prov.setdefault("k", self.k)
        return {
            "n": self.n,
            "blocks": self.block_of.tolist(),
            "edges": self.edges.tolist(),
            "provenance": prov,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SbmGraph":
        try:
            n = int(data["n"])
            blocks = np.asarray(data["blocks"], dtype=np.int64)
            edges = data["edges"]
            prov = dict(data.get("provenance", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed graph JSON: {exc}") from exc
        return cls(n, blocks, edges, provenance=prov, k=prov.get("k"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SbmGraph":
        return cls.from_json_dict(read_json(path))

    def __repr__(self):
        return f"SbmGraph(n={self.n}, m={self.m}, k={self.k})"


class BlowUpSpec:
    """Template graph H on [k] plus integer multiplicities per vertex."""

    __slots__ = ("h_adjacency", "sizes", "k")

    def __init__(self, h_adjacency, sizes: BlockVector):
        adj = np.asarray(h_adjacency, dtype=np.int64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ModelError("H adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise ModelError("H adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ModelError("H must have no self-loops")
        if not np.all((adj == 0) | (adj == 1)):
            raise ModelError("H adjacency entries must be 0/1")
        if not sizes.is_integer:
            raise ModelError("blow-up sizes must be integer")
        if sizes.k != adj.shape[0]:
            raise ModelError("sizes dimension must match H")
        adj.setflags(write=False)
        self.h_adjacency = adj
        self.sizes = sizes
        self.k = adj.shape[0]

    @classmethod
    def from_edges(cls, k: int, h_edges, sizes) -> "BlowUpSpec":
        i, j = _ordered_pairs(h_edges, k)
        adj = np.zeros((k, k), dtype=np.int64)
        adj[i, j] = adj[j, i] = 1
        return cls(adj, BlockVector(sizes, integer=True))


def _as_pairs(edges) -> np.ndarray:
    """`edges` as an m x 2 int64 array; ModelError unless it is a sequence
    of integer pairs (a triple, a ragged list or a non-integer entry is
    refused, not reshaped)."""
    try:
        arr = np.asarray(edges)
    except ValueError:  # ragged nesting
        arr = None
    if arr is not None and arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if (arr is None or arr.ndim != 2 or arr.shape[1] != 2
            or (arr.size and not np.issubdtype(arr.dtype, np.integer))):
        raise ModelError("edges must be a sequence of integer vertex pairs")
    return arr.astype(np.int64, copy=False)


def _ordered_pairs(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`edges` as (lo, hi) index arrays with lo < hi; ModelError naming the
    first self-loop or pair with an endpoint outside [0, n)."""
    u, v = _as_pairs(edges).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        first = int(np.argmax(bad))
        if u[first] == v[first]:
            raise ModelError(f"self-loop at vertex {int(u[first])}")
        raise ModelError(f"edge ({int(u[first])},{int(v[first])}) out of range")
    return lo, hi


def _block_of_from_sizes(sizes: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(sizes.size), sizes.astype(np.int64))


def _sample_pairs(probs: np.ndarray, seed: int) -> np.ndarray:
    """Edges of one draw in which pair {u, v} appears independently with
    probability probs[u, v]: one uniform per pair u < v, all from one
    `random` call in lexicographic pair order."""
    pairs = ~np.tri(probs.shape[0], dtype=bool)  # u < v, read row by row
    hit = np.zeros_like(pairs)
    draws = probs[pairs]
    hit[pairs] = rng_from_seed(seed).random(draws.size) < draws
    return np.argwhere(hit)


def sample_sbm(m: ModelInstance, seed: int) -> SbmGraph:
    """One draw from the block model: pair {u,v} appears independently with
    probability p[block(u), block(v)]."""
    sizes = m.sizes.values.astype(np.int64)
    block_of = _block_of_from_sizes(sizes)
    edges = _sample_pairs(m.probs.entries[np.ix_(block_of, block_of)], seed)
    prov = {"kind": "sbm", "seed": int(seed), "k": m.k,
            "sizes": [int(s) for s in sizes]}
    return SbmGraph(block_of.size, block_of, edges, provenance=prov, k=m.k)


def blow_up(spec: BlowUpSpec) -> SbmGraph:
    """Deterministic blow-up: block i is a clique of size n_i; blocks i, j
    are completely joined iff ij is an edge of H."""
    sizes = spec.sizes.values.astype(np.int64)
    block_of = _block_of_from_sizes(sizes)
    joined = np.eye(spec.k, dtype=np.int64) + spec.h_adjacency  # I + A_H
    edges = np.argwhere(np.triu(joined[np.ix_(block_of, block_of)], 1))
    prov = {"kind": "blowup", "k": spec.k, "sizes": [int(s) for s in sizes],
            "h_edges": np.argwhere(np.triu(spec.h_adjacency, 1)).tolist()}
    return SbmGraph(block_of.size, block_of, edges, provenance=prov, k=spec.k)


def percolate(g: SbmGraph, p: float, seed: int) -> SbmGraph:
    """Keep each edge independently with probability p; vertices and blocks
    are unchanged."""
    if not 0.0 < p < 1.0:
        raise ModelError("percolation probability must lie in (0, 1)")
    rng = rng_from_seed(seed)
    draws = rng.random(g.m)
    kept = g.edges[draws < p]
    prov = {"kind": "percolate", "p": float(p), "seed": int(seed),
            "parent": g.provenance, "k": g.k}
    return SbmGraph(g.n, g.block_of, kept, provenance=prov, k=g.k)


def blow_up_as_model(spec: BlowUpSpec, p: float) -> ModelInstance:
    """Block model with P = p (I + A_H); sampling it is distribution-identical
    to percolating the blow-up with retention probability p."""
    if not 0.0 < p < 1.0:
        raise ModelError("percolation probability must lie in (0, 1)")
    pm = p * (np.eye(spec.k) + spec.h_adjacency.astype(np.float64))
    return ModelInstance(spec.sizes, ProbMatrix(pm))


def _bucket_index(values: np.ndarray, buckets: int) -> np.ndarray:
    """1-based cell of each value for cells (0, 1/k], ..., ((k-1)/k, 1];
    0 is assigned to cell 1."""
    idx = np.ceil(values * buckets).astype(np.int64)
    return np.clip(idx, 1, buckets)


def check_chung_lu(u: Sequence[float], p: float,
                   kind: str) -> tuple[np.ndarray, np.ufunc]:
    """The one validity rule for Chung-Lu parameters: u a nonempty vector
    in [0, 1], kind 'times' or 'plus', 0 < p < 1 (so no NaN), and for
    'plus' every pair probability p*(u_a+u_b), a != b, below 1.  Returns u
    as a float vector and the kind's pair operator (np.multiply or np.add);
    each caller adds only its own rule."""
    uv = np.asarray(u, dtype=np.float64)
    if uv.ndim != 1 or uv.size == 0:
        raise ModelError("u must be a nonempty vector")
    if not np.all((uv >= 0.0) & (uv <= 1.0)):
        raise ModelError("u components must lie in [0, 1]")
    op = {"times": np.multiply, "plus": np.add}.get(kind)
    if op is None:
        raise ModelError(f"unknown Chung-Lu kind {kind!r}")
    if not 0.0 < p < 1.0:
        raise ModelError("Chung-Lu p must lie in (0, 1)")
    if op is np.add and uv.size >= 2:
        top = p * np.sort(uv)[-2:].sum()
        if top >= 1.0:
            raise ModelError("plus kind pairwise probability reaches "
                             f"{top:.3f} >= 1")
    return uv, op


def chung_lu_model(u: Sequence[float], p: float, kind: str,
                   buckets: int) -> tuple[ModelInstance, ModelInstance]:
    """Bucketed block-model sandwich (lower, upper) for the exact pairwise
    probabilities p*u_a*u_b ('times') or p*(u_a+u_b) ('plus')."""
    uv, op = check_chung_lu(u, p, kind)
    if op is np.add and not p < 0.5:
        raise ModelError("plus kind needs p in (0, 1/2): the top bucket "
                         "pair probability p*(i+j)/k reaches 2p")
    if buckets < 1:
        raise ModelError("buckets must be >= 1")
    kk = buckets
    ij = np.arange(1, kk + 1, dtype=np.float64)
    scale = kk ** 2 if op is np.multiply else kk
    lower = p * op.outer(ij - 1, ij - 1) / scale
    upper = p * op.outer(ij, ij) / scale
    counts = np.bincount(_bucket_index(uv, kk) - 1, minlength=kk)
    sizes = BlockVector(counts, integer=True)
    return (ModelInstance(sizes, ProbMatrix(lower)),
            ModelInstance(sizes, ProbMatrix(upper)))


def chung_lu_probs(u: Sequence[float], p: float, kind: str) -> np.ndarray:
    """Pair probabilities p*(u_a*u_b) or p*(u_a+u_b), symmetric bit for bit."""
    uv, op = check_chung_lu(u, p, kind)
    return p * op.outer(uv, uv)


def sample_chung_lu(u: Sequence[float], p: float, kind: str,
                    seed: int) -> SbmGraph:
    """Exact (unbucketed) sampler: pair {a,b} appears with p*(u_a*u_b) or
    p*(u_a+u_b).  Every vertex is its own block in the provenance."""
    probs = chung_lu_probs(u, p, kind)
    n = probs.shape[0]
    edges = _sample_pairs(probs, seed)
    prov = {"kind": f"chunglu-{kind}", "p": float(p), "seed": int(seed),
            "u": [float(v) for v in u], "k": n}
    return SbmGraph(n, np.arange(n), edges, provenance=prov, k=n)


def union_graphs(g1: SbmGraph, g2: SbmGraph) -> SbmGraph:
    """Edge union of two graphs on the same vertex and block structure."""
    if g1.n != g2.n or g1.k != g2.k or not np.array_equal(g1.block_of, g2.block_of):
        raise ModelError("union requires identical vertex and block structure")
    edges = np.vstack([g1.edges, g2.edges])
    prov = {"kind": "union", "parents": [g1.provenance, g2.provenance],
            "k": g1.k}
    return SbmGraph(g1.n, g1.block_of, edges, provenance=prov, k=g1.k)


def union_model(m1: ModelInstance, m2: ModelInstance) -> ModelInstance:
    """Block model of the union of independent draws: 1-p = (1-p1)(1-p2),
    equivalently Q = Q1 + Q2."""
    if m1.k != m2.k or not np.array_equal(m1.sizes.values, m2.sizes.values):
        raise ModelError("union requires identical block sizes")
    p = 1.0 - (1.0 - m1.probs.entries) * (1.0 - m2.probs.entries)
    return ModelInstance(m1.sizes, ProbMatrix(p))
