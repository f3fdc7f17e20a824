"""Epipolar correspondence-graph construction.

Nodes carry the stacked 6-D normalized match coordinates; edges come from
a spatial k-NN (four variants) on the first-image points, pruned by the
Sampson distance against an initial essential estimate E0.

Edges are stored directed (dst in the neighborhood of src);
``nn.graph_tensors`` adds the reverse edges, as closeness is undirected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .epipolar import estimate_E0
from .errors import EmptyGraphError, InvalidInputError
from .geom import sampson_distances

VARIANTS = ("hard", "soft", "radius", "mutual")


@dataclass(frozen=True)
class GraphParams:
    """Construction knobs, defaults matching the training configuration."""

    k: int = 6
    tau: float = 1e-4
    variant: str = "hard"
    radius: float | None = None  # radius variant only; None = auto
    e0_m: int = 16
    e0_iters: int = 32

    def __post_init__(self):
        # a value no graph can be built with is refused here, named as the
        # config file and the checkpoint meta spell it
        checks = (
            ("variant", self.variant in VARIANTS, "one of " + ", ".join(VARIANTS)),
            ("k", self.k >= 1, ">= 1"),
            ("tau", self.tau > 0, "> 0"),
            ("radius", self.radius is None or self.radius > 0, "> 0 or none"),
            ("e0_m", self.e0_m >= 8, ">= 8"),
            ("e0_iters", self.e0_iters >= 0, ">= 0"),
        )
        for name, ok, want in checks:
            if not ok:
                raise InvalidInputError(
                    f"graph.{name} must be {want}, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class Edges:
    """Directed edges src[e] -> dst[e] with weight[e] > 0, as parallel
    (E,) arrays; ``len`` is the edge count."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class EpipolarGraph:
    node_features: np.ndarray             # (N, 6) stacked (x1^T, x2^T)
    edges: Edges
    kept_indices: np.ndarray              # node -> original correspondence index
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_features)


# ---------------------------------------------------------------------------
# Edge construction
# ---------------------------------------------------------------------------

def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """(N, N) Euclidean distances, summing the squared coordinate
    differences in coordinate order without an (N, N, d) temporary."""
    sq = np.zeros((len(coords), len(coords)))
    for c in coords.T:
        sq += (c[:, None] - c[None, :]) ** 2
    return np.sqrt(sq)


def _knn_lists(D: np.ndarray, k: int) -> np.ndarray:
    """(N, k) nearest neighbors per row, nearest first, self excluded, ties
    by smaller index."""
    n = len(D)
    D = D.copy()
    np.fill_diagonal(D, np.inf)
    rows = np.arange(n)[:, None]
    nbrs = np.sort(np.argpartition(D, k - 1, axis=1)[:, :k], axis=1)
    # argpartition splits a tie at the k-th distance arbitrarily; rows with
    # such a tie take the first k of a stable sort instead
    kth = D[rows, nbrs].max(axis=1, keepdims=True)
    split = (D <= kth).sum(axis=1) > k
    if split.any():
        nbrs[split] = np.sort(np.argsort(D[split], axis=1, kind="stable")[:, :k],
                              axis=1)
    # candidate indices ascend, so a stable sort by distance breaks ties
    # toward the smaller index
    order = np.argsort(D[rows, nbrs], axis=1, kind="stable")
    return np.take_along_axis(nbrs, order, axis=1)


def build_edges(coords, variant: str = "hard", k: int | None = None,
                radius: float | None = None) -> Edges:
    """Directed neighborhood edges on point coordinates.

    hard:   i -> j iff j is among the k nearest neighbors of i (weight 1).
    soft:   hard support with Gaussian weights exp(-d^2 / 2 sigma^2),
            sigma = mean k-th-neighbor distance.
    radius: i -> j iff dist(i, j) < radius (weight 1).
    mutual: hard edges kept only when reciprocated.

    Ties in the k-th distance break toward the smaller index.  Fewer than
    two points give no edges; k >= N is clamped to N-1 with a warning.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if variant not in VARIANTS:
        raise InvalidInputError(f"unknown edge variant {variant!r}")
    if n < 2:
        return Edges(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    D = _pairwise_distances(coords)

    if variant == "radius":
        if radius is None or radius <= 0:
            raise InvalidInputError("radius variant needs radius > 0")
        src, dst = np.nonzero((D < radius) & ~np.eye(n, dtype=bool))
        return Edges(src, dst, np.ones(len(src)))

    if k is None or k < 1:
        raise InvalidInputError("k-NN variants need k >= 1")
    if k >= n:
        warnings.warn(f"k={k} >= {n} points; clamped to {n - 1}")
        k = n - 1
    nbrs = _knn_lists(D, k)
    src = np.repeat(np.arange(n), k)
    dst = nbrs.ravel()

    if variant == "mutual":
        adj = np.zeros((n, n), dtype=bool)
        adj[src, dst] = True
        keep = adj[dst, src]
        src, dst = src[keep], dst[keep]
    if variant == "soft":
        sigma = max(float(D[np.arange(n), nbrs[:, -1]].mean()), 1e-12)
        w = np.exp(-D[src, dst] ** 2 / (2 * sigma ** 2))
    else:
        w = np.ones(len(src))
    return Edges(src, dst, w)


def median_kth_distance(coords, k: int = 6) -> float:
    """Median k-th-neighbor distance; the default radius for the radius variant."""
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n < 2:
        raise InvalidInputError("need at least two points")
    kk = min(k, n - 1)
    D = _pairwise_distances(coords)
    nbrs = _knn_lists(D, kk)
    return float(np.median(D[np.arange(n), nbrs[:, -1]]))


# ---------------------------------------------------------------------------
# Sampson pruning and the full pipeline
# ---------------------------------------------------------------------------

def sampson_filter(corr, E0, tau: float, points=None) -> np.ndarray:
    """Indices whose Sampson distance under E0 is below tau, order preserved;
    ``points``, if given, are ``corr.normalized_points()``."""
    if not tau > 0:
        raise InvalidInputError("tau must be positive")
    n = len(corr)
    if np.isinf(tau):
        kept = np.arange(n)
    else:
        X1, X2 = corr.normalized_points() if points is None else points
        d = sampson_distances(X1, X2, E0)
        kept = np.nonzero(d < tau)[0]
    if len(kept) == 0:
        raise EmptyGraphError("no correspondence survived the Sampson filter")
    return kept


def build_graph(corr, params: GraphParams = GraphParams(),
                E0: np.ndarray | None = None) -> EpipolarGraph:
    """Construct the pruned correspondence graph.

    Pipeline: intrinsics-normalize, estimate E0 (seed 0) from a confidence-
    seeded minimal subset (unless one is supplied), Sampson-filter at tau,
    then build edges over the survivors' image-1 points.  ``k_clamped`` is
    set when k reaches the match count or, on a k-NN variant, the survivor
    count.
    """
    points = X1, X2 = corr.normalized_points()
    n = len(X1)

    if E0 is None:
        E0 = estimate_E0(corr, params.tau, params.e0_m, params.e0_iters, points=points)
    else:
        E0 = np.asarray(E0, dtype=float)

    kept = sampson_filter(corr, E0, params.tau, points)
    # the homogeneous third coordinate is 1 everywhere and adds nothing to a distance
    coords = X1[kept, :2]

    k, radius, m = params.k, params.radius, len(coords)
    if params.variant == "radius":
        if radius is None and m >= 2:
            radius = median_kth_distance(coords, k)
    elif 2 <= m <= k:
        k = m - 1  # the clamp build_edges would warn about
    edges = build_edges(coords, params.variant, k=k, radius=radius)
    clamped = params.k >= n >= 2 or k < params.k

    features = np.hstack([X1[kept], X2[kept]])
    meta = {
        "k": params.k,
        "tau": params.tau,
        "variant": params.variant,
        "radius": radius,
        "k_clamped": clamped,
        "e0": E0,
    }
    return EpipolarGraph(features, edges, np.asarray(kept, dtype=int), meta)
