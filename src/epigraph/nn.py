"""Message-passing stack with analytic gradients.

A model is one row of ``PRESETS`` (its GCN, GAT and GIN layer kinds, GAT
head count and pooling) at a hidden width; ``ModelConfig`` names the row
and the width, and every tensor shape follows from the two.  Around the
graph layers sit global pooling, a shared MLP trunk with separate
translation/quaternion heads, a bias-corrected Adam optimizer, plain-text
checkpoints that record the preset and width, and a finite-difference
gradient checker whose probes rerun the stack only from the probed
tensor's layer onward.  GCN and GIN propagate through dense (N, N)
operators; GAT takes its softmax over an edge list and its message sums
as one dense (N, N) product per head.

Graph structure (adjacency, attention topology, degrees) is constant
under differentiation; only feature and parameter paths carry gradients.
A model instance is single-writer: forward, backward and updates must be
externally serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyGraphError,
    FormatError,
    InvalidInputError,
    SchemaVersionError,
    ShapeError,
    StateError,
)

FEATURE_DIM = 6     # width of a node's features, the first layer's input


class Preset(NamedTuple):
    kinds: tuple[str, ...]  # graph layers, input side first
    heads: int              # attention heads of each GAT layer (1 without one)
    pooling: str            # "mean" or "sum"


# The model table: every model is one of these stacks at some hidden width,
# each layer mapping to ``hidden`` columns.  Layer order follows the name.
PRESETS = {
    "GAT+2GCN": Preset(("gat", "gcn", "gcn"), 4, "mean"),
    "3GCN+GAT": Preset(("gcn", "gcn", "gcn", "gat"), 4, "mean"),
    "GIN_SumPool": Preset(("gin", "gin"), 1, "sum"),
}
PRESET_NAMES = tuple(PRESETS)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    """A preset at a hidden width: the whole model description."""

    preset: str
    hidden: int

    @property
    def pooling(self) -> str:
        return PRESETS[self.preset].pooling

    @cached_property
    def layers(self) -> tuple[_LayerPlan, ...]:
        """Per graph layer, what the stack needs to call it."""
        p, h = PRESETS[self.preset], self.hidden
        return tuple(_LayerPlan.of(i, kind, FEATURE_DIM if i == 0 else h, h,
                                   p.heads if kind == "gat" else 1)
                     for i, kind in enumerate(p.kinds))

    @cached_property
    def tensor_specs(self) -> dict[str, tuple[tuple, tuple | None]]:
        """Every tensor's shape and Glorot fans (None: zeros), in
        ``init_params`` draw order, which is also the checkpoint's."""
        h = self.hidden
        specs = {key: spec for layer in self.layers
                 for key, spec in zip(layer.keys, layer.specs)}
        specs.update({"mlp1.W": ((h, h), (h, h)), "mlp1.b": ((h,), None),
                      "head_t.W": ((h, 4), (h, 4)), "head_t.b": ((4,), None),
                      "head_q.W": ((h, 4), (h, 4)), "head_q.b": ((4,), None)})
        return specs


def preset_config(name: str, hidden: int = 64) -> ModelConfig:
    """The named stack from the experiment tables at width ``hidden``."""
    if name not in PRESETS:
        raise InvalidInputError(f"unknown preset {name!r}")
    heads = PRESETS[name].heads
    if hidden < 1 or hidden % heads:
        raise InvalidInputError(f"{name} needs a hidden width that is a positive "
                                f"multiple of {heads}, got {hidden}")
    return ModelConfig(name, hidden)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ModelParams:
    """Named tensors with paired Adam moment buffers.

    The tensors, the first moments ``m`` and the second moments ``v`` each
    live in one contiguous float vector (``flat``, ``flat_m``, ``flat_v``).
    The three dicts hold reshaped views into those vectors, keyed and
    ordered like the tensors passed in, so Adam updates every tensor in a
    few whole-vector operations.  Write into a view to change a tensor:
    assigning a new array to a dict key detaches it from its vector.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        arrays = {k: np.asarray(v, dtype=float) for k, v in tensors.items()}
        self._shapes = {k: a.shape for k, a in arrays.items()}
        flat = np.concatenate([np.zeros(0), *(a.ravel() for a in arrays.values())])
        self._bind(flat, np.zeros_like(flat), np.zeros_like(flat), 0)

    def _bind(self, flat, flat_m, flat_v, step) -> None:
        self.flat, self.flat_m, self.flat_v = flat, flat_m, flat_v
        self.tensors, self.m, self.v = (self._views(x) for x in (flat, flat_m, flat_v))
        self.step = step

    def _views(self, vec) -> dict[str, np.ndarray]:
        out, start = {}, 0
        for k, shape in self._shapes.items():
            size = math.prod(shape)
            out[k] = vec[start:start + size].reshape(shape)
            start += size
        return out

    def pack(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """One flat vector of ``grads``, keyed like the tensors, in their order."""
        return np.concatenate([np.zeros(0), *(np.ravel(grads[k]) for k in self._shapes)])

    def copy(self) -> ModelParams:
        """Independent copy of the tensors, Adam moments and step."""
        out = object.__new__(ModelParams)
        out._shapes = self._shapes
        out._bind(self.flat.copy(), self.flat_m.copy(), self.flat_v.copy(), self.step)
        return out


def _glorot(rng, fan_in, fan_out, shape):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# The one layer table: per kind, from the layer's (in, out, heads), each
# tensor's shape and Glorot fans (None for zeros), in the order its forward
# takes them.  ``init_params`` draws in this order, so the RNG draws and the
# checkpoint's tensor order follow the table.  The layer functions are found
# by module-global name at call time (``f"{kind}_forward"``), never held
# here, so rebinding ``nn.gcn_forward`` and the others reaches every call.
_LAYER_TENSORS = {
    "gcn": lambda i, o, h: {"W": ((i, o), (i, o)), "b": ((o,), None)},
    "gat": lambda i, o, h: {"W": ((h, i, o // h), (i, o // h)),
                            "a_src": ((h, o // h), (2 * (o // h), 1)),
                            "a_dst": ((h, o // h), (2 * (o // h), 1)),
                            "b": ((o,), None)},
    "gin": lambda i, o, h: {"eps": ((), None), "W1": ((i, o), (i, o)),
                            "b1": ((o,), None), "W2": ((o, o), (o, o)),
                            "b2": ((o,), None)},
}
LAYER_KINDS = tuple(_LAYER_TENSORS)


class _LayerPlan(NamedTuple):
    """One graph layer: its kind, widths and heads, the module-global names
    of its forward and backward, its tensor names, their ``L{i}.{name}``
    keys and (shape, fans) specs, and a getter of those tensors in forward
    order."""

    kind: str
    in_dim: int
    out_dim: int
    heads: int
    forward: str
    backward: str
    names: tuple[str, ...]
    keys: tuple[str, ...]
    specs: tuple
    tensors: itemgetter

    @classmethod
    def of(cls, i: int, kind: str, in_dim: int, out_dim: int, heads: int) -> _LayerPlan:
        table = _LAYER_TENSORS[kind](in_dim, out_dim, heads)
        keys = tuple(f"L{i}.{name}" for name in table)
        return cls(kind, in_dim, out_dim, heads, f"{kind}_forward", f"{kind}_backward",
                   tuple(table), keys, tuple(table.values()), itemgetter(*keys))


def init_params(config: ModelConfig, seed=0) -> ModelParams:
    """Uniform Glorot weights, zero biases, zero GIN epsilon."""
    rng = np.random.default_rng(seed)
    return ModelParams({key: _glorot(rng, *fans, shape) if fans else np.zeros(shape)
                        for key, (shape, fans) in config.tensor_specs.items()})


# ---------------------------------------------------------------------------
# Graph tensors
# ---------------------------------------------------------------------------

class GraphTensors:
    """Constants derived from a graph: features, weighted adjacency, the
    GCN-normalized operator, and the GAT attention edge list.

    Attention edges are the nonzeros of ``adj`` plus every self-loop, in
    row-major order: ``rows`` (attending node) is sorted, ``cols`` is the
    attended node, and ``row_starts[i]`` is the first edge of node i.
    Every node has its self-loop, so no segment is empty.  ``flat`` is
    ``rows * n + cols``, each edge's index into a row-major (N, N) array,
    so it is increasing.  ``adj`` may be asymmetric, and a symmetric one
    need not give a bitwise-symmetric ``a_hat``, so backward uses
    transposes."""

    def __init__(self, features: np.ndarray, adj: np.ndarray):
        self.x = np.asarray(features, dtype=float)
        self.n = len(self.x)
        self.adj = np.asarray(adj, dtype=float)
        a_tilde = self.adj + np.eye(self.n)
        d = a_tilde.sum(axis=1)
        dinv = 1.0 / np.sqrt(d)
        self.a_hat = a_tilde * dinv[:, None] * dinv[None, :]
        self.rows, self.cols = np.nonzero((self.adj > 0) | np.eye(self.n, dtype=bool))
        self.row_starts = np.searchsorted(self.rows, np.arange(self.n))
        self.flat = self.rows * self.n + self.cols


def graph_tensors(g) -> GraphTensors:
    """Build the dense operators and the attention edge list of an
    EpipolarGraph, its adjacency symmetrized as max(A, A^T)."""
    if g.n_nodes == 0:
        raise EmptyGraphError("graph has no nodes")
    A = np.zeros((g.n_nodes, g.n_nodes))
    A[g.edges.src, g.edges.dst] = g.edges.weight
    return GraphTensors(g.node_features, np.maximum(A, A.T))


# ---------------------------------------------------------------------------
# Small math
# ---------------------------------------------------------------------------

def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    e = np.exp(x)
    return float(e / (1.0 + e))


_LEAKY_SLOPE = 0.2


# ---------------------------------------------------------------------------
# Layer forward/backward
# ---------------------------------------------------------------------------

def gcn_forward(H, gt: GraphTensors, W, b):
    """H' = relu(A_hat @ H @ W + b) with A_hat = D^-1/2 (A + I) D^-1/2."""
    AH = gt.a_hat @ H
    P = AH @ W + b
    return np.maximum(P, 0.0), {"H": H, "AH": AH, "P": P, "W": W}


def gcn_backward(dY, cache, gt: GraphTensors):
    dP = dY * (cache["P"] > 0)
    dW = cache["AH"].T @ dP
    db = dP.sum(axis=0)
    dH = gt.a_hat.T @ (dP @ cache["W"].T)
    return dH, {"W": dW, "b": db}


def gat_forward(H, gt: GraphTensors, W, a_src, a_dst, b):
    """Multi-head attention over each node's neighborhood plus itself.

    Per head: logits leaky_relu(a_src . z_i + a_dst . z_j) softmaxed over
    j in N(i) u {i}; heads are concatenated, then bias and relu.
    The softmax runs on the attention edge list: ``raw`` and ``alpha`` are
    (heads, E), and per-node sums are segment reductions over the
    row-sorted edges.  The message sums are one dense product per head:
    ``alpha`` scattered into ``A`` (heads, N, N), zero off the edges, gives
    ``out = ZT @ A^T``.  That is O(N^2), as are the GCN and GIN operators;
    at 6-NN degree it beats edge-list segment sums up to N = 200, and
    loses from about N = 300 forward and N = 500 backward.  Node and edge
    axes come last (``ZT`` is (heads, dh, n)), so each elementwise pass
    runs along the long axis.
    """
    heads, _, dh = W.shape
    n = H.shape[0]
    rows, cols, starts = gt.rows, gt.cols, gt.row_starts
    ZT = W.transpose(0, 2, 1) @ H.T                       # (heads, dh, n)
    s1 = (a_src[:, None, :] @ ZT)[:, 0]                   # attending node
    s2 = (a_dst[:, None, :] @ ZT)[:, 0]                   # attended neighbor
    raw = s1.take(rows, axis=1) + s2.take(cols, axis=1)   # (heads, E); rows attend cols
    lrel = np.where(raw > 0, raw, _LEAKY_SLOPE * raw)
    mx = np.maximum.reduceat(lrel, starts, axis=1)
    e = np.exp(lrel - mx.take(rows, axis=1))
    alpha = e / np.add.reduceat(e, starts, axis=1).take(rows, axis=1)
    A = np.zeros((heads, n * n))
    A[:, gt.flat] = alpha
    A = A.reshape(heads, n, n)                            # A[h, i, j]: i attends j
    out = ZT @ A.transpose(0, 2, 1)                       # (heads, dh, n)
    P = out.transpose(2, 0, 1).reshape(n, heads * dh) + b
    return np.maximum(P, 0.0), {"H": H, "ZT": ZT, "raw": raw, "alpha": alpha, "A": A,
                                "P": P, "W": W, "a_src": a_src, "a_dst": a_dst}


def gat_backward(dY, cache, gt: GraphTensors):
    H, ZT, raw, alpha = cache["H"], cache["ZT"], cache["raw"], cache["alpha"]
    W, a_src, a_dst = cache["W"], cache["a_src"], cache["a_dst"]
    heads, dh, n = ZT.shape
    rows, cols, starts = gt.rows, gt.cols, gt.row_starts
    dP = dY * (cache["P"] > 0)
    db = dP.sum(axis=0)
    G = dP.reshape(n, heads, dh).transpose(1, 2, 0)       # (heads, dh, n)

    dalpha = (G.transpose(0, 2, 1) @ ZT).reshape(heads, n * n).take(gt.flat, axis=1)
    dZT = G @ cache["A"]                                  # value path, to cols
    # softmax rows: alpha * (dalpha - sum_j alpha dalpha)
    inner = np.add.reduceat(alpha * dalpha, starts, axis=1)
    dlrel = alpha * (dalpha - inner.take(rows, axis=1))
    draw = dlrel * np.where(raw > 0, 1.0, _LEAKY_SLOPE)
    ds1 = np.add.reduceat(draw, starts, axis=1)           # (heads, n)
    ds2 = np.bincount((cols + n * np.arange(heads)[:, None]).ravel(), draw.ravel(),
                      heads * n).reshape(heads, n)
    da_src = (ZT @ ds1[:, :, None])[:, :, 0]
    da_dst = (ZT @ ds2[:, :, None])[:, :, 0]
    dZT += a_src[:, :, None] * ds1[:, None, :]
    dZT += a_dst[:, :, None] * ds2[:, None, :]
    dW = H.T @ dZT.transpose(0, 2, 1)                     # (heads, f, dh)
    dH = dZT.reshape(heads * dh, n).T @ W.transpose(0, 2, 1).reshape(heads * dh, -1)
    return dH, {"W": dW, "a_src": da_src, "a_dst": da_dst, "b": db}


def gin_forward(H, gt: GraphTensors, eps, W1, b1, W2, b2):
    """H' = relu(MLP((1 + eps) H_i + sum_j A_ij H_j)); 2-layer relu MLP."""
    S = (1.0 + eps) * H + gt.adj @ H
    U1 = S @ W1 + b1
    A1 = np.maximum(U1, 0.0)
    P = A1 @ W2 + b2
    return np.maximum(P, 0.0), {"H": H, "S": S, "U1": U1, "A1": A1, "P": P,
                                "eps": eps, "W1": W1, "W2": W2}


def gin_backward(dY, cache, gt: GraphTensors):
    dP = dY * (cache["P"] > 0)
    dW2 = cache["A1"].T @ dP
    db2 = dP.sum(axis=0)
    dA1 = dP @ cache["W2"].T
    dU1 = dA1 * (cache["U1"] > 0)
    dW1 = cache["S"].T @ dU1
    db1 = dU1.sum(axis=0)
    dS = dU1 @ cache["W1"].T
    deps = np.asarray((dS * cache["H"]).sum())
    dH = (1.0 + cache["eps"]) * dS + gt.adj.T @ dS
    return dH, {"eps": deps, "W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def pool(H, mode: str) -> np.ndarray:
    """Columnwise mean or sum over nodes."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] == 0:
        raise EmptyGraphError("cannot pool an empty node set")
    if mode == "mean":
        return H.sum(axis=0) / len(H)   # H.mean(axis=0)'s bits, without its overhead
    if mode == "sum":
        return H.sum(axis=0)
    raise InvalidInputError(f"unknown pooling {mode!r}")


def _pool_backward(dz, n, mode):
    if mode == "mean":
        return np.tile(dz / n, (n, 1))
    return np.tile(dz, (n, 1))


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

class ModelOutput(NamedTuple):
    q: np.ndarray       # unit quaternion (w, x, y, z)
    t_dir: np.ndarray   # unit translation direction
    t_raw: float        # nonnegative magnitude

    @property
    def t(self) -> np.ndarray:
        return self.t_raw * self.t_dir


def _run_layers(gt: GraphTensors, params: ModelParams, config: ModelConfig,
                stop: int, base=(), start: int = 0):
    """Graph layers start..stop-1; returns the node embeddings and each
    layer's cache.  A ``start`` above 0 takes its input, and the earlier
    layers' caches, from ``base``, the layer caches of an earlier forward."""
    if start:
        H = base[start]["H"]
    else:
        H = gt.x
        if H.ndim != 2 or H.shape[1] != FEATURE_DIM:
            raise ShapeError(f"node features must be (N, {FEATURE_DIM}), got {H.shape}")
    T = params.tensors
    caches = list(base[:start])
    for plan in config.layers[start:stop]:
        H, c = globals()[plan.forward](H, gt, *plan.tensors(T))
        caches.append(c)
    return H, caches


def model_forward(gt: GraphTensors, params: ModelParams, config: ModelConfig,
                  resume=None):
    """Run the stack; returns (ModelOutput, cache) for a later backward.

    ``resume = (cache, start)`` reruns graph layers ``start`` onward, and
    only the head on the pooled ``z`` if ``start = len(config.layers)``,
    reusing the rest of ``cache``: a forward of the same graph whose
    tensors differ only from layer ``start`` on.  The bits are a full
    forward's."""
    if gt.n == 0:
        raise EmptyGraphError("empty graph")
    base, start = resume or ({"layers": ()}, 0)
    if start == len(config.layers):
        layer_caches, z = base["layers"], base["z"]
    else:
        H, layer_caches = _run_layers(gt, params, config, len(config.layers),
                                      base["layers"], start)
        z = pool(H, config.pooling)
    T = params.tensors
    m_pre = z @ T["mlp1.W"] + T["mlp1.b"]
    m = np.maximum(m_pre, 0.0)
    t_out = m @ T["head_t.W"] + T["head_t.b"]
    q_out = m @ T["head_q.W"] + T["head_q.b"]

    v = t_out[:3]
    nv = math.sqrt(v @ v)           # np.linalg.norm's bits
    if nv < 1e-300:
        raise InvalidInputError("translation head produced an exactly zero vector")
    t_dir = v / nv
    s_raw = float(t_out[3])
    t_raw = _softplus(s_raw)
    nq = math.sqrt(q_out @ q_out)
    if nq < 1e-300:
        raise InvalidInputError("quaternion head produced an exactly zero vector")
    q = q_out / nq

    cache = {"layers": layer_caches, "n": gt.n, "gt": gt, "z": z,
             "m_pre": m_pre, "m": m, "t_out": t_out, "q_out": q_out,
             "v": v, "nv": nv, "t_dir": t_dir, "s_raw": s_raw,
             "q": q, "nq": nq, "config": config}
    return ModelOutput(q, t_dir, t_raw), cache


def model_backward(cache, dq, dt_dir, dt_raw, params: ModelParams) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of every parameter.

    Upstream gradients are taken with respect to the normalized outputs
    (q, t_dir) and the scalar t_raw.
    """
    if cache is None:
        raise StateError("backward called without a cached forward pass")
    config: ModelConfig = cache["config"]
    gt: GraphTensors = cache["gt"]
    T = params.tensors
    grads = dict.fromkeys(T)    # every entry is set below

    dq = np.asarray(dq, dtype=float).reshape(4)
    dt_dir = np.asarray(dt_dir, dtype=float).reshape(3)
    dt_raw = float(dt_raw)

    q, nq = cache["q"], cache["nq"]
    dq_out = (dq - (q @ dq) * q) / nq
    t_dir, nv = cache["t_dir"], cache["nv"]
    dv = (dt_dir - (t_dir @ dt_dir) * t_dir) / nv
    ds_raw = dt_raw * _sigmoid(cache["s_raw"])
    dt_out = np.concatenate([dv, [ds_raw]])

    m = cache["m"]
    grads["head_t.W"] = np.outer(m, dt_out)
    grads["head_t.b"] = dt_out
    grads["head_q.W"] = np.outer(m, dq_out)
    grads["head_q.b"] = dq_out
    dm = T["head_t.W"] @ dt_out + T["head_q.W"] @ dq_out
    dm_pre = dm * (cache["m_pre"] > 0)
    grads["mlp1.W"] = np.outer(cache["z"], dm_pre)
    grads["mlp1.b"] = dm_pre
    dz = T["mlp1.W"] @ dm_pre

    dH = _pool_backward(dz, cache["n"], config.pooling)
    for plan, layer_cache in zip(reversed(config.layers),
                                 reversed(cache["layers"])):
        dH, g = globals()[plan.backward](dH, layer_cache, gt)
        for name, key in zip(plan.names, plan.keys):
            grads[key] = g[name]
    return grads


def forward_embeddings(gt: GraphTensors, params: ModelParams, config: ModelConfig,
                       layer: int):
    """Node embeddings H^(layer) plus their pooled descriptor.

    Layer 0 is the input feature matrix; layer L the output of the L-th
    graph layer."""
    if not (0 <= layer <= len(config.layers)):
        raise InvalidInputError(
            f"layer {layer} out of range 0..{len(config.layers)}")
    H, _ = _run_layers(gt, params, config, layer)
    return H, pool(H, config.pooling)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(params: ModelParams, grads, lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard bias-corrected Adam update from ``grads``: a dict keyed like
    the tensors, or a vector laid out like ``params.flat``.

    Runs in place over the flat vectors, in the elementwise order of
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``theta -= lr * (m/c1) / (sqrt(v/c2) + eps)``.
    """
    g = grads if isinstance(grads, np.ndarray) else params.pack(grads)
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m, v = params.flat_m, params.flat_v
    tmp = np.multiply(1.0 - beta1, g)
    m *= beta1
    m += tmp
    np.multiply(1.0 - beta2, g, out=tmp)
    tmp *= g
    v *= beta2
    v += tmp
    den = np.divide(v, c2)
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, c1, out=tmp)
    tmp *= lr
    tmp /= den
    params.flat -= tmp


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_HEADER = "# epigraph-ckpt v2"
_CKPT_V1 = "# epigraph-ckpt v1"


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    meta: dict | None = None) -> None:
    lines = [CKPT_HEADER, f"config preset {config.preset}", f"config hidden {config.hidden}"]
    for k, v in (meta or {}).items():
        lines.append(f"meta {k} {v}")
    lines.append(f"step {params.step}")
    for name, tensor in params.tensors.items():
        shape = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {name} {tensor.ndim}{(' ' + shape) if shape else ''}")
        # repr of a Python float is the shortest round-tripping decimal (``_fmt``)
        for a in (tensor, params.m[name], params.v[name]):
            lines.append(" ".join(map(repr, np.ravel(a).tolist())))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _v1_layers(config: ModelConfig) -> str:
    """The ``config layers`` value a v1 checkpoint wrote for ``config``."""
    return ",".join(f"{p.kind}:{p.in_dim}:{p.out_dim}:{p.heads}:relu" for p in config.layers)


def _checkpoint_config(records: dict, v1: bool) -> ModelConfig:
    """The model named by a checkpoint's ``config`` records, given as
    key -> (value, line number).  A v1 checkpoint spells its stack out and
    loads only as the preset whose stack, pooling and width it spells."""
    keys = ("layers", "pooling", "hidden") if v1 else ("preset", "hidden")
    for key in keys:
        if key not in records:
            raise FormatError(f"missing config {key} record")
    for key, (_, line) in records.items():
        if key not in keys:
            raise FormatError(f"unknown config record {key!r}", line=line)
    text, hidden_line = records["hidden"]
    try:
        hidden = int(text)
    except ValueError:
        raise FormatError(f"bad config hidden {text!r}", line=hidden_line) from None
    if v1:
        (layers, line), (pooling, pooling_line) = records["layers"], records["pooling"]
        name = next((n for n in PRESETS if _v1_layers(ModelConfig(n, hidden)) == layers),
                    None)
        if name is None:
            raise SchemaVersionError(f"v1 layer stack {layers!r} is no preset's at "
                                     f"hidden {hidden}", line=line)
        if pooling != PRESETS[name].pooling:
            raise SchemaVersionError(f"v1 pooling {pooling!r} is not {name}'s",
                                     line=pooling_line)
    else:
        name, line = records["preset"]
        if name not in PRESETS:
            raise FormatError(f"unknown preset {name!r}", line=line)
    try:    # hidden by keyword, so a preset_config with a bound width still takes it
        return preset_config(name, hidden=hidden)
    except InvalidInputError as e:
        raise FormatError(str(e), line=hidden_line) from None


def load_checkpoint(path):
    """Returns (params, config, meta) reproducing forwards bit-identically.

    The tensor records must name each tensor of the config once, at the
    shape the preset table gives it; any other checkpoint raises
    FormatError.  Each record's shape is checked before its values are
    read.
    """
    with open(path) as f:
        raw = f.read().splitlines()
    if not raw or raw[0] not in (CKPT_HEADER, _CKPT_V1):
        raise SchemaVersionError("missing or unsupported checkpoint header", line=1)
    pos = 1
    records = {}
    meta = {}
    while pos < len(raw) and raw[pos].startswith(("config ", "meta ")):
        tag, *rest = raw[pos].split(maxsplit=2)
        if not rest:
            raise FormatError(f"bad checkpoint record {raw[pos]!r}", line=pos + 1)
        val = rest[1] if len(rest) > 1 else ""
        if tag == "meta":
            meta[rest[0]] = val
        else:
            records[rest[0]] = (val, pos + 1)
        pos += 1
    config = _checkpoint_config(records, raw[0] == _CKPT_V1)
    if pos >= len(raw) or not raw[pos].startswith("step "):
        raise FormatError("missing step record", line=pos + 1)
    try:
        step = int(raw[pos].split()[1])
    except (IndexError, ValueError):
        raise FormatError(f"bad step record {raw[pos]!r}", line=pos + 1) from None
    pos += 1

    specs = config.tensor_specs
    tensors, ms, vs = {}, {}, {}
    while pos < len(raw) and raw[pos].startswith("tensor "):
        parts = raw[pos].split()
        try:
            name, ndim = parts[1], int(parts[2])
            shape = tuple(int(d) for d in parts[3:3 + ndim])
        except (IndexError, ValueError) as e:
            raise FormatError(f"bad tensor record: {e}", line=pos + 1) from None
        if name not in specs or name in tensors:
            raise FormatError(f"tensor {name} is not one of its config's or is repeated",
                              line=pos + 1)
        if shape != specs[name][0]:
            raise FormatError(f"tensor {name} has shape {shape}, its config needs "
                              f"{specs[name][0]}", line=pos + 1)
        if pos + 3 >= len(raw):
            raise FormatError(f"truncated record for tensor {name}", line=pos + 1)
        pos += 1

        def read_array(p):
            try:
                vals = np.array([float(v) for v in raw[p].split()]).reshape(shape)
            except ValueError as e:
                raise FormatError(f"bad values for tensor {name}: {e}",
                                  line=p + 1) from None
            if not np.isfinite(vals).all():
                raise FormatError(f"non-finite value for tensor {name}", line=p + 1)
            return vals

        tensors[name] = read_array(pos)
        ms[name] = read_array(pos + 1)
        vs[name] = read_array(pos + 2)
        pos += 3
    missing = [k for k in specs if k not in tensors]
    if missing:
        raise FormatError(f"checkpoint tensors do not match its config: missing {missing}")
    params = ModelParams(tensors)
    for name in tensors:
        params.m[name][...] = ms[name]
        params.v[name][...] = vs[name]
    params.step = step
    return params, config, meta


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    term: str
    tensor: str
    rel_err: float
    ok: bool
    one_sided: int = 0     # probes of ``tensor`` scored by a one-sided difference
    two_sided: int = 0     # probes whose +h and -h forwards both crossed a kink


def _kink_masks(cache) -> list[np.ndarray]:
    """Which side of its kink each ReLU input of a forward fell on: each
    layer's output relu, GIN's inner ReLU, GAT's leaky branch and mlp1."""
    masks = [cache["m_pre"] > 0]
    for c in cache["layers"]:
        masks += [c[site] > 0 for site in ("P", "U1", "raw") if site in c]
    return masks


def _crossed(base: list[np.ndarray], cache) -> bool:
    return not all(np.array_equal(a, b) for a, b in zip(base, _kink_masks(cache)))


def grad_check(config: ModelConfig, gtensors: GraphTensors, target,
               params: ModelParams | None = None, seed: int = 0,
               h: float = 1e-6, tolerance: float = 1e-5,
               terms=None, corrupt: str | None = None) -> list[GradCheckEntry]:
    """Compare analytic parameter gradients against central differences.

    Relative error per (loss term, tensor) is max|analytic - fd| divided
    by max(|analytic|_inf, |fd|_inf, 1e-3); the floor keeps finite-
    difference noise on zero-gradient tensors from dominating.  Each
    probe scores its two forwards with one ``losses.total_loss`` call
    each and reads every term off the breakdowns; the forwards resume the
    unperturbed one from the probed tensor's layer (``model_forward``'s
    ``resume``), so a head tensor reruns only the head.  The ``corrupt``
    hook perturbs one tensor's analytic gradient to verify the detector
    itself.

    A central difference whose step straddles a ReLU kink averages two
    slopes.  So a probe that differs from the analytic entry by
    ``tolerance * 1e-3`` or more in any term, enough to fail its row
    under the floor, has its +h and -h forwards' kink masks compared with
    the unperturbed forward's.  If one side crossed a kink, the probe
    takes the other side's one-sided difference against the unperturbed
    loss; if both did, its rows fail.  Every other probe keeps its central
    difference.
    """
    from . import losses

    if params is None:
        params = init_params(config, seed)
    if not params.tensors:
        return []
    if terms is None:
        terms = list(losses.TERM_GRADS)

    out, cache = model_forward(gtensors, params, config)
    analytic: dict[str, dict[str, np.ndarray]] = {}
    for term in terms:
        _, dq, dt = losses.TERM_GRADS[term](out.q, out.t, target)
        dt_raw = float(dt @ out.t_dir)
        dt_dir = out.t_raw * dt
        analytic[term] = model_backward(cache, dq, dt_dir, dt_raw, params)
    if corrupt is not None:
        for term in terms:
            analytic[term][corrupt] = analytic[term][corrupt] + 1e-3

    base_masks = _kink_masks(cache)
    base_loss = None            # the unperturbed breakdown, scored on first need
    floor = tolerance * 1e-3
    fd = {term: {k: np.zeros_like(v) for k, v in params.tensors.items()}
          for term in terms}
    kinks = {name: [0, 0] for name in params.tensors}
    starts = {key: i for i, plan in enumerate(config.layers) for key in plan.keys}
    for name, tensor in params.tensors.items():
        resume = (cache, starts.get(name, len(config.layers)))
        flat = tensor.reshape(-1)
        a_flat = [analytic[term][name].reshape(-1).tolist() for term in terms]
        fd_flat = [fd[term][name].reshape(-1) for term in terms]
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            out_p, cache_p = model_forward(gtensors, params, config, resume)
            flat[idx] = orig - h
            out_m, cache_m = model_forward(gtensors, params, config, resume)
            flat[idx] = orig
            bd_p = losses.total_loss(out_p.q, out_p.t, target)
            bd_m = losses.total_loss(out_m.q, out_m.t, target)
            diffs = [(getattr(bd_p, term) - getattr(bd_m, term)) / (2.0 * h)
                     for term in terms]
            if any(abs(d - a[idx]) >= floor for d, a in zip(diffs, a_flat)):
                crossed_p = _crossed(base_masks, cache_p)
                crossed_m = _crossed(base_masks, cache_m)
                if crossed_p and crossed_m:
                    kinks[name][1] += 1
                elif crossed_p or crossed_m:
                    kinks[name][0] += 1
                    if base_loss is None:
                        base_loss = losses.total_loss(out.q, out.t, target)
                    hi, lo = (base_loss, bd_m) if crossed_p else (bd_p, base_loss)
                    diffs = [(getattr(hi, term) - getattr(lo, term)) / h
                             for term in terms]
            for f, d in zip(fd_flat, diffs):
                f[idx] = d

    report = []
    for term in terms:
        for name in params.tensors:
            a = analytic[term][name]
            f = fd[term][name]
            scale = max(np.abs(a).max(initial=0.0), np.abs(f).max(initial=0.0), 1e-3)
            rel = float(np.abs(a - f).max(initial=0.0) / scale)
            one, two = kinks[name]
            report.append(GradCheckEntry(term, name, rel, rel < tolerance and not two,
                                         one, two))
    return report
