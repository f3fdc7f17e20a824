"""Message-passing stack with analytic gradients.

GCN, GAT and GIN layers, global pooling, a shared MLP trunk with
separate translation/quaternion heads, a bias-corrected Adam optimizer,
plain-text checkpoints, and a finite-difference gradient checker.  GCN
and GIN propagate through dense (N, N) operators; GAT attends over an
edge list with a segment softmax.

Graph structure (adjacency, attention topology, degrees) is constant
under differentiation; only feature and parameter paths carry gradients.
A model instance is single-writer: forward, backward and updates must be
externally serialized.
"""

from __future__ import annotations

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
from .synth import _fmt

ACTIVATIONS = ("relu", "none")
POOLINGS = ("mean", "sum")
PRESET_NAMES = ("GAT+2GCN", "3GCN+GAT", "GIN_SumPool")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    heads: int = 1
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InvalidInputError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if self.in_dim < 1 or self.out_dim < 1 or self.heads < 1:
            raise InvalidInputError("layer dimensions and heads must be >= 1")
        if self.kind == "gat" and self.out_dim % self.heads != 0:
            raise InvalidInputError("GAT out_dim must be divisible by heads")


@dataclass(frozen=True)
class ModelConfig:
    layers: tuple[LayerSpec, ...]
    pooling: str = "mean"
    hidden: int = 64

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.pooling not in POOLINGS:
            raise InvalidInputError(f"unknown pooling {self.pooling!r}")
        if not self.layers:
            raise InvalidInputError("a model needs at least one graph layer")
        if self.hidden < 1:
            raise InvalidInputError("hidden width must be >= 1")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @cached_property
    def layer_plan(self) -> tuple[_LayerPlan, ...]:
        """Per layer, what the stack needs to call it, built once per config."""
        return tuple(_LayerPlan.of(i, spec) for i, spec in enumerate(self.layers))


def preset_config(name: str, hidden: int = 64) -> ModelConfig:
    """Named stacks from the experiment tables; layer order follows the name,
    and the first layer takes the 6-D node features."""
    if name == "GAT+2GCN":
        layers = (LayerSpec("gat", 6, hidden, heads=4),
                  LayerSpec("gcn", hidden, hidden),
                  LayerSpec("gcn", hidden, hidden))
        return ModelConfig(layers, pooling="mean", hidden=hidden)
    if name == "3GCN+GAT":
        layers = (LayerSpec("gcn", 6, hidden),
                  LayerSpec("gcn", hidden, hidden),
                  LayerSpec("gcn", hidden, hidden),
                  LayerSpec("gat", hidden, hidden, heads=4))
        return ModelConfig(layers, pooling="mean", hidden=hidden)
    if name == "GIN_SumPool":
        layers = (LayerSpec("gin", 6, hidden),
                  LayerSpec("gin", hidden, hidden))
        return ModelConfig(layers, pooling="sum", hidden=hidden)
    raise InvalidInputError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ModelParams:
    """Named tensors with paired Adam moment buffers."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {k: np.asarray(v, dtype=float) for k, v in tensors.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.tensors.items()}
        self.step = 0

    def copy(self) -> ModelParams:
        """Independent copy of the tensors, Adam moments and step."""
        out = ModelParams({k: v.copy() for k, v in self.tensors.items()})
        out.m = {k: v.copy() for k, v in self.m.items()}
        out.v = {k: v.copy() for k, v in self.v.items()}
        out.step = self.step
        return out


def _glorot(rng, fan_in, fan_out, shape):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _dense(rng, spec):
    return _glorot(rng, spec.in_dim, spec.out_dim, (spec.in_dim, spec.out_dim))


def _bias(rng, spec):
    return np.zeros(spec.out_dim)


def _gat_w(rng, spec):
    dh = spec.out_dim // spec.heads
    return _glorot(rng, spec.in_dim, dh, (spec.heads, spec.in_dim, dh))


def _gat_a(rng, spec):
    dh = spec.out_dim // spec.heads
    return _glorot(rng, 2 * dh, 1, (spec.heads, dh))


# The one layer table: per kind, its tensors in the order its forward takes
# them, each with its initializer (called in this order, so the RNG draws and
# the checkpoint's tensor order follow the table).  The layer functions are
# found by module-global name at call time (``f"{kind}_forward"``), never
# held here, so rebinding ``nn.gcn_forward`` and the others reaches every call.
_LAYER_TENSORS = {
    "gcn": {"W": _dense, "b": _bias},
    "gat": {"W": _gat_w, "a_src": _gat_a, "a_dst": _gat_a, "b": _bias},
    "gin": {"eps": lambda rng, spec: np.zeros(()),
            "W1": _dense, "b1": _bias,
            "W2": lambda rng, spec: _glorot(rng, spec.out_dim, spec.out_dim,
                                            (spec.out_dim, spec.out_dim)),
            "b2": _bias},
}
LAYER_KINDS = tuple(_LAYER_TENSORS)


class _LayerPlan(NamedTuple):
    """One layer's dispatch data: its spec, the module-global names of its
    forward and backward, its tensor names and their ``L{i}.{name}`` keys,
    and a getter of those tensors in forward order."""

    spec: LayerSpec
    forward: str
    backward: str
    names: tuple[str, ...]
    keys: tuple[str, ...]
    tensors: itemgetter

    @classmethod
    def of(cls, i: int, spec: LayerSpec) -> _LayerPlan:
        names = tuple(_LAYER_TENSORS[spec.kind])
        keys = tuple(f"L{i}.{name}" for name in names)
        return cls(spec, f"{spec.kind}_forward", f"{spec.kind}_backward",
                   names, keys, itemgetter(*keys))


def init_params(config: ModelConfig, seed=0) -> ModelParams:
    """Uniform Glorot weights, zero biases, zero GIN epsilon."""
    rng = np.random.default_rng(seed)
    t: dict[str, np.ndarray] = {}
    for i, spec in enumerate(config.layers):
        for name, init in _LAYER_TENSORS[spec.kind].items():
            t[f"L{i}.{name}"] = init(rng, spec)
    trunk_in = config.layers[-1].out_dim
    t["mlp1.W"] = _glorot(rng, trunk_in, config.hidden, (trunk_in, config.hidden))
    t["mlp1.b"] = np.zeros(config.hidden)
    t["head_t.W"] = _glorot(rng, config.hidden, 4, (config.hidden, 4))
    t["head_t.b"] = np.zeros(4)
    t["head_q.W"] = _glorot(rng, config.hidden, 4, (config.hidden, 4))
    t["head_q.b"] = np.zeros(4)
    return ModelParams(t)


# ---------------------------------------------------------------------------
# Graph tensors
# ---------------------------------------------------------------------------

class GraphTensors:
    """Constants derived from a graph: features, weighted adjacency, the
    GCN-normalized operator, and the GAT attention edge list.

    Attention edges are the nonzeros of ``adj`` plus every self-loop, in
    row-major order: ``rows`` (attending node) is sorted, and
    ``row_starts[i]`` is the first edge of node i.  ``col_order`` is a
    stable sort of the edges by ``cols`` (attended node), with
    ``col_starts`` its segment starts.  Every node has its self-loop, so no
    segment is empty.  ``adj`` may be asymmetric, and a symmetric one need
    not give a bitwise-symmetric ``a_hat``, so backward uses transposes."""

    def __init__(self, features: np.ndarray, adj: np.ndarray):
        self.x = np.asarray(features, dtype=float)
        self.n = len(self.x)
        self.adj = np.asarray(adj, dtype=float)
        a_tilde = self.adj + np.eye(self.n)
        d = a_tilde.sum(axis=1)
        dinv = 1.0 / np.sqrt(d)
        self.a_hat = a_tilde * dinv[:, None] * dinv[None, :]
        nodes = np.arange(self.n)
        self.rows, self.cols = np.nonzero((self.adj > 0) | np.eye(self.n, dtype=bool))
        self.row_starts = np.searchsorted(self.rows, nodes)
        self.col_order = np.argsort(self.cols, kind="stable")
        self.col_starts = np.searchsorted(self.cols[self.col_order], nodes)


def graph_tensors(g) -> GraphTensors:
    """Build the dense operators and the attention edge list of an
    EpipolarGraph, its adjacency symmetrized as max(A, A^T)."""
    if g.n_nodes == 0:
        raise EmptyGraphError("graph has no nodes")
    A = np.zeros((g.n_nodes, g.n_nodes))
    A[g.edges.src, g.edges.dst] = g.edges.weight
    return GraphTensors(g.node_features, np.maximum(A, A.T))


# ---------------------------------------------------------------------------
# Activations / small math
# ---------------------------------------------------------------------------

def _act(P, kind):
    if kind == "relu":
        return np.maximum(P, 0.0)
    return P


def _act_back(dY, P, kind):
    if kind == "relu":
        return dY * (P > 0)
    return dY


def _softplus(x: float) -> float:
    return float(np.maximum(x, 0.0) + np.log1p(np.exp(-abs(x))))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    e = np.exp(x)
    return float(e / (1.0 + e))


_LEAKY_SLOPE = 0.2


# ---------------------------------------------------------------------------
# Layer forward/backward
# ---------------------------------------------------------------------------

def _check_shape(H, spec: LayerSpec):
    if H.ndim != 2 or H.shape[1] != spec.in_dim:
        raise ShapeError(f"{spec.kind} layer expects (N, {spec.in_dim}), got {H.shape}")


def gcn_forward(H, gt: GraphTensors, W, b, activation="none"):
    """H' = act(A_hat @ H @ W + b) with A_hat = D^-1/2 (A + I) D^-1/2."""
    AH = gt.a_hat @ H
    P = AH @ W + b
    Y = _act(P, activation)
    return Y, {"H": H, "AH": AH, "P": P, "W": W, "act": activation}


def gcn_backward(dY, cache, gt: GraphTensors):
    dP = _act_back(dY, cache["P"], cache["act"])
    dW = cache["AH"].T @ dP
    db = dP.sum(axis=0)
    dH = gt.a_hat.T @ (dP @ cache["W"].T)
    return dH, {"W": dW, "b": db}


def gat_forward(H, gt: GraphTensors, W, a_src, a_dst, b, activation="none"):
    """Multi-head attention over each node's neighborhood plus itself.

    Per head: logits leaky_relu(a_src . z_i + a_dst . z_j) softmaxed over
    j in N(i) u {i}; heads are concatenated, then bias and activation.
    Runs on the attention edge list: ``raw`` and ``alpha`` are (heads, E),
    and per-node sums are segment reductions over the row-sorted edges.
    Node and edge axes come last (``ZT`` is (heads, dh, n)), so each
    elementwise pass runs along the long axis.
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
    msg = ZT.take(cols, axis=2)                           # (heads, dh, E)
    msg *= alpha[:, None, :]
    out = np.add.reduceat(msg, starts, axis=2)            # (heads, dh, n)
    P = out.transpose(2, 0, 1).reshape(n, heads * dh) + b
    Y = _act(P, activation)
    return Y, {"H": H, "ZT": ZT, "raw": raw, "alpha": alpha, "P": P,
               "W": W, "a_src": a_src, "a_dst": a_dst, "act": activation}


def gat_backward(dY, cache, gt: GraphTensors):
    H, ZT, raw, alpha = cache["H"], cache["ZT"], cache["raw"], cache["alpha"]
    W, a_src, a_dst = cache["W"], cache["a_src"], cache["a_dst"]
    heads, dh, n = ZT.shape
    rows, cols, starts = gt.rows, gt.cols, gt.row_starts
    by_col, col_starts = gt.col_order, gt.col_starts
    dP = _act_back(dY, cache["P"], cache["act"])
    db = dP.sum(axis=0)
    G = dP.reshape(n, heads, dh).transpose(1, 2, 0)       # (heads, dh, n)

    G_rows = G.take(rows, axis=2)                         # (heads, dh, E)
    dalpha = (G_rows * ZT.take(cols, axis=2)).sum(axis=1)  # (heads, E)
    G_rows *= alpha[:, None, :]                           # value path, to cols
    dZT = np.add.reduceat(G_rows.take(by_col, axis=2), col_starts, axis=2)
    # softmax rows: alpha * (dalpha - sum_j alpha dalpha)
    inner = np.add.reduceat(alpha * dalpha, starts, axis=1)
    dlrel = alpha * (dalpha - inner.take(rows, axis=1))
    draw = dlrel * np.where(raw > 0, 1.0, _LEAKY_SLOPE)
    ds1 = np.add.reduceat(draw, starts, axis=1)           # (heads, n)
    ds2 = np.add.reduceat(draw.take(by_col, axis=1), col_starts, axis=1)
    da_src = (ZT @ ds1[:, :, None])[:, :, 0]
    da_dst = (ZT @ ds2[:, :, None])[:, :, 0]
    dZT += a_src[:, :, None] * ds1[:, None, :]
    dZT += a_dst[:, :, None] * ds2[:, None, :]
    dW = H.T @ dZT.transpose(0, 2, 1)                     # (heads, f, dh)
    dH = dZT.reshape(heads * dh, n).T @ W.transpose(0, 2, 1).reshape(heads * dh, -1)
    return dH, {"W": dW, "a_src": da_src, "a_dst": da_dst, "b": db}


def gin_forward(H, gt: GraphTensors, eps, W1, b1, W2, b2, activation="none"):
    """H' = act(MLP((1 + eps) H_i + sum_j A_ij H_j)); 2-layer relu MLP."""
    S = (1.0 + eps) * H + gt.adj @ H
    U1 = S @ W1 + b1
    A1 = np.maximum(U1, 0.0)
    P = A1 @ W2 + b2
    Y = _act(P, activation)
    return Y, {"H": H, "S": S, "U1": U1, "A1": A1, "P": P,
               "eps": eps, "W1": W1, "W2": W2, "act": activation}


def gin_backward(dY, cache, gt: GraphTensors):
    dP = _act_back(dY, cache["P"], cache["act"])
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
        return H.mean(axis=0)
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
                stop: int):
    """Graph layers 0..stop-1 on the input features; returns the node
    embeddings and each layer's cache."""
    H = gt.x
    T = params.tensors
    caches = []
    for plan in config.layer_plan[:stop]:
        _check_shape(H, plan.spec)
        H, c = globals()[plan.forward](H, gt, *plan.tensors(T), plan.spec.activation)
        caches.append(c)
    return H, caches


def model_forward(gt: GraphTensors, params: ModelParams, config: ModelConfig):
    """Run the stack; returns (ModelOutput, cache) for a later backward."""
    if gt.n == 0:
        raise EmptyGraphError("empty graph")
    H, layer_caches = _run_layers(gt, params, config, len(config.layers))
    z = pool(H, config.pooling)
    T = params.tensors
    m_pre = z @ T["mlp1.W"] + T["mlp1.b"]
    m = np.maximum(m_pre, 0.0)
    t_out = m @ T["head_t.W"] + T["head_t.b"]
    q_out = m @ T["head_q.W"] + T["head_q.b"]

    v = t_out[:3]
    nv = float(np.linalg.norm(v))
    if nv < 1e-300:
        raise InvalidInputError("translation head produced an exactly zero vector")
    t_dir = v / nv
    s_raw = float(t_out[3])
    t_raw = _softplus(s_raw)
    nq = float(np.linalg.norm(q_out))
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
    for plan, layer_cache in zip(reversed(config.layer_plan),
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

def adam_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard bias-corrected Adam update from ``grads``, keyed like the tensors."""
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, theta in params.tensors.items():
        g = grads[k]
        params.m[k] = beta1 * params.m[k] + (1.0 - beta1) * g
        params.v[k] = beta2 * params.v[k] + (1.0 - beta2) * g * g
        m_hat = params.m[k] / c1
        v_hat = params.v[k] / c2
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_HEADER = "# epigraph-ckpt v1"


def _spec_str(spec: LayerSpec) -> str:
    return f"{spec.kind}:{spec.in_dim}:{spec.out_dim}:{spec.heads}:{spec.activation}"


def _spec_parse(s: str) -> LayerSpec:
    kind, i, o, h, act = s.split(":")
    return LayerSpec(kind, int(i), int(o), int(h), act)


# config record -> parser of its value
_CONFIG_RECORDS = {
    "layers": lambda s: tuple(_spec_parse(x) for x in s.split(",")),
    "pooling": str,
    "hidden": int,
}


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    meta: dict | None = None) -> None:
    lines = [CKPT_HEADER]
    lines.append(f"config layers {','.join(_spec_str(s) for s in config.layers)}")
    lines.append(f"config pooling {config.pooling}")
    lines.append(f"config hidden {config.hidden}")
    for k, v in (meta or {}).items():
        lines.append(f"meta {k} {v}")
    lines.append(f"step {params.step}")
    for name, tensor in params.tensors.items():
        shape = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {name} {tensor.ndim}{(' ' + shape) if shape else ''}")
        lines.append(" ".join(_fmt(v) for v in np.ravel(tensor)))
        lines.append(" ".join(_fmt(v) for v in np.ravel(params.m[name])))
        lines.append(" ".join(_fmt(v) for v in np.ravel(params.v[name])))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Returns (params, config, meta) reproducing forwards bit-identically.

    The tensors must be exactly those ``init_params(config)`` makes, with
    the same shapes; a checkpoint that differs raises FormatError.
    """
    with open(path) as f:
        raw = f.read().splitlines()
    if not raw or raw[0] != CKPT_HEADER:
        raise SchemaVersionError("missing or unsupported checkpoint header", line=1)
    pos = 1
    cfg = {}
    meta = {}
    while pos < len(raw) and raw[pos].startswith(("config ", "meta ")):
        try:
            tag, key, *rest = raw[pos].split(maxsplit=2)
            val = rest[0] if rest else ""
            if tag == "meta":
                meta[key] = val
            else:
                cfg[key] = _CONFIG_RECORDS.get(key, str)(val)
        except (ValueError, InvalidInputError) as e:
            raise FormatError(f"bad checkpoint record: {e}", line=pos + 1) from None
        pos += 1
    try:
        config = ModelConfig(cfg["layers"], pooling=cfg["pooling"], hidden=cfg["hidden"])
    except (KeyError, InvalidInputError) as e:
        raise FormatError(f"bad checkpoint config: {e}") from None
    if pos >= len(raw) or not raw[pos].startswith("step "):
        raise FormatError("missing step record", line=pos + 1)
    try:
        step = int(raw[pos].split()[1])
    except (IndexError, ValueError):
        raise FormatError(f"bad step record {raw[pos]!r}", line=pos + 1) from None
    pos += 1

    tensors, ms, vs = {}, {}, {}
    while pos < len(raw) and raw[pos].startswith("tensor "):
        parts = raw[pos].split()
        try:
            name, ndim = parts[1], int(parts[2])
            shape = tuple(int(d) for d in parts[3:3 + ndim])
        except (IndexError, ValueError) as e:
            raise FormatError(f"bad tensor record: {e}", line=pos + 1) from None
        if pos + 3 >= len(raw):
            raise FormatError(f"truncated record for tensor {name}", line=pos + 1)
        pos += 1

        def read_array(p):
            try:
                vals = np.array([float(v) for v in raw[p].split()])
                return vals.reshape(shape)
            except ValueError as e:
                raise FormatError(f"bad values for tensor {name}: {e}",
                                  line=p + 1) from None

        tensors[name] = read_array(pos)
        ms[name] = read_array(pos + 1)
        vs[name] = read_array(pos + 2)
        pos += 3
    expected = init_params(config).tensors
    missing = [k for k in expected if k not in tensors]
    unexpected = [k for k in tensors if k not in expected]
    if missing or unexpected:
        raise FormatError(f"checkpoint tensors do not match its config: missing "
                          f"{missing}, unexpected {unexpected}")
    for name, ref in expected.items():
        if tensors[name].shape != ref.shape:
            raise FormatError(f"tensor {name} has shape {tensors[name].shape}, "
                              f"its config needs {ref.shape}")
    params = ModelParams(tensors)
    params.m = ms
    params.v = vs
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


def grad_check(config: ModelConfig, gtensors: GraphTensors, target,
               params: ModelParams | None = None, seed: int = 0,
               h: float = 1e-6, tolerance: float = 1e-5,
               terms=None, corrupt: str | None = None) -> list[GradCheckEntry]:
    """Compare analytic parameter gradients against central differences.

    Relative error per (loss term, tensor) is max|analytic - fd| divided
    by max(|analytic|_inf, |fd|_inf, 1e-3); the floor keeps finite-
    difference noise on zero-gradient tensors from dominating.  Each
    probe scores its two forwards with one ``losses.total_loss`` call
    each and reads every term off the breakdowns.  The ``corrupt`` hook
    perturbs one tensor's analytic gradient to verify the detector
    itself.
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

    fd = {term: {k: np.zeros_like(v) for k, v in params.tensors.items()}
          for term in terms}
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            out_p, _ = model_forward(gtensors, params, config)
            flat[idx] = orig - h
            out_m, _ = model_forward(gtensors, params, config)
            flat[idx] = orig
            bd_p = losses.total_loss(out_p.q, out_p.t, target)
            bd_m = losses.total_loss(out_m.q, out_m.t, target)
            for term in terms:
                fd[term][name].reshape(-1)[idx] = (
                    (getattr(bd_p, term) - getattr(bd_m, term)) / (2.0 * h))

    report = []
    for term in terms:
        for name in params.tensors:
            a = analytic[term][name]
            f = fd[term][name]
            scale = max(np.abs(a).max(initial=0.0), np.abs(f).max(initial=0.0), 1e-3)
            rel = float(np.abs(a - f).max(initial=0.0) / scale)
            report.append(GradCheckEntry(term, name, rel, rel < tolerance))
    return report
