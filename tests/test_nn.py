import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epigraph import nn
from epigraph.errors import (
    EmptyGraphError,
    InvalidInputError,
    SchemaVersionError,
    ShapeError,
    StateError,
)
from epigraph.geom import Pose, quat_from_axis_angle
from epigraph.graph import VARIANTS, Edges, EpipolarGraph, GraphParams, build_edges, build_graph
from epigraph.losses import LossWeights, PoseTarget
from epigraph.synth import generate_scene
from epigraph.train import TrainConfig, _ckpt_meta, graph_params_from_meta, weights_from_meta

# one layer of every kind
EVERY_KIND = (nn.LayerSpec("gcn", 6, 8), nn.LayerSpec("gat", 8, 8, heads=2),
              nn.LayerSpec("gin", 8, 8))


def random_edges(rng, n, degree):
    """``degree`` distinct random out-neighbors per node, weight 1."""
    src = np.repeat(np.arange(n), degree)
    dst = np.array([rng.choice([x for x in range(n) if x != i], degree, replace=False)
                    for i in range(n)], dtype=int).ravel()
    return Edges(src, dst, np.ones(len(dst)))


def random_graph(seed=0, n=10, feat_dim=6, degree=3):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, feat_dim))
    return nn.graph_tensors(EpipolarGraph(feats, random_edges(rng, n, degree), np.arange(n)))


def random_target(seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    return PoseTarget.from_pose(Pose(q / np.linalg.norm(q), rng.normal(size=3)))


def tuple_path_tensors(g):
    """Reference operators built through a (src, dst, weight) tuple list:
    the arrays go out through ``tolist`` and come back through ``zip``;
    the adjacency is symmetrized as max(A, A^T)."""
    edges = list(zip(g.edges.src.tolist(), g.edges.dst.tolist(),
                     g.edges.weight.tolist()))
    A = np.zeros((g.n_nodes, g.n_nodes))
    if edges:
        src, dst, w = zip(*edges)
        A[np.asarray(src, dtype=int), np.asarray(dst, dtype=int)] = np.asarray(w, dtype=float)
    return nn.GraphTensors(g.node_features, np.maximum(A, A.T))


class TestGraphTensorsFromEdgeArrays:
    FIELDS = ("adj", "a_hat", "rows", "cols", "row_starts", "col_order", "col_starts")

    def assert_bitwise(self, gt, ref):
        for name in self.FIELDS:
            a, b = getattr(gt, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("variant", ["hard", "soft", "radius", "mutual"])
    @pytest.mark.parametrize("reverse", [True, False])
    def test_built_graphs_match_tuple_path(self, variant, reverse):
        # symmetrization makes the tensors bitwise blind to edge direction
        rng = np.random.default_rng(31)
        pose = Pose(quat_from_axis_angle(rng.normal(size=3), 0.1), [0.3, 0.1, 0.5])
        corr = generate_scene(32, 120, (3.0, 10.0), pose, noise_px=0.5,
                              outlier_fraction=0.3)
        g = build_graph(corr, params=GraphParams(variant=variant))
        assert len(g.edges) == len(g.edges.src) == len(g.edges.dst) == len(g.edges.weight)
        assert len(g.edges) > 0
        e = g.edges
        built = EpipolarGraph(g.node_features, Edges(e.dst, e.src, e.weight),
                              g.kept_indices) if reverse else g
        self.assert_bitwise(nn.graph_tensors(built), tuple_path_tensors(g))

    def test_fewer_than_two_nodes(self):
        feats = np.random.default_rng(33).normal(size=(1, 6))
        g = EpipolarGraph(feats, build_edges(feats[:, :3], "hard", k=6), np.arange(1))
        assert len(g.edges) == 0
        self.assert_bitwise(nn.graph_tensors(g), tuple_path_tensors(g))
        empty = EpipolarGraph(np.zeros((0, 6)), g.edges, np.arange(0), {})
        with pytest.raises(EmptyGraphError):
            nn.graph_tensors(empty)


class TestGCN:
    def test_isolated_node_identity(self):
        gt = nn.GraphTensors(np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 1)))
        W = np.eye(3)
        Y, _ = nn.gcn_forward(gt.x, gt, W, np.zeros(3), activation="none")
        assert np.allclose(Y, gt.x)

    def test_two_node_symmetry(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0]])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        gt = nn.GraphTensors(feats, adj)
        rng = np.random.default_rng(0)
        W = rng.normal(size=(2, 4))
        Y, _ = nn.gcn_forward(feats, gt, W, rng.normal(size=4), "relu")
        assert np.allclose(Y[0], Y[1])

    def test_dense_formula_oracle(self):
        gt = random_graph(1, n=5, feat_dim=4)
        rng = np.random.default_rng(2)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        A_tilde = gt.adj + np.eye(5)
        D = np.diag(1.0 / np.sqrt(A_tilde.sum(axis=1)))
        expect = np.maximum(D @ A_tilde @ D @ gt.x @ W + b, 0.0)
        Y, _ = nn.gcn_forward(gt.x, gt, W, b, "relu")
        assert np.abs(Y - expect).max() < 1e-12

    def test_weighted_adjacency_enters_normalization(self):
        # soft-variant weights flow into A and its degree normalization
        rng = np.random.default_rng(40)
        n = 6
        A = rng.uniform(0.1, 1.0, size=(n, n))
        A = np.triu(A, 1)
        A = A + A.T
        gt = nn.GraphTensors(rng.normal(size=(n, 4)), A)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        A_tilde = A + np.eye(n)
        D = np.diag(1.0 / np.sqrt(A_tilde.sum(axis=1)))
        expect = np.maximum(D @ A_tilde @ D @ gt.x @ W + b, 0.0)
        Y, _ = nn.gcn_forward(gt.x, gt, W, b, "relu")
        assert np.abs(Y - expect).max() < 1e-12

    def test_linearity_without_activation_or_bias(self):
        gt = random_graph(3, n=6, feat_dim=4)
        rng = np.random.default_rng(4)
        W = rng.normal(size=(4, 4))
        b = np.zeros(4)
        H1 = rng.normal(size=(6, 4))
        H2 = rng.normal(size=(6, 4))
        f = lambda H: nn.gcn_forward(H, gt, W, b, "none")[0]
        assert np.allclose(f(2.0 * H1 - 3.0 * H2), 2.0 * f(H1) - 3.0 * f(H2))


def attention_mask(gt):
    """The dense (N, N) attention pattern: adjacency nonzeros plus self-loops."""
    return (gt.adj > 0) | np.eye(gt.n, dtype=bool)


def dense_gat_forward(H, gt, W, a_src, a_dst, b, activation="none"):
    """The dense (heads, N, N) masked-softmax GAT, kept as an oracle."""
    heads, _, dh = W.shape
    n = H.shape[0]
    Z = np.einsum("nf,hfd->hnd", H, W)
    s1 = np.einsum("hnd,hd->hn", Z, a_src)
    s2 = np.einsum("hnd,hd->hn", Z, a_dst)
    raw = s1[:, :, None] + s2[:, None, :]
    lrel = np.where(raw > 0, raw, 0.2 * raw)
    logits = np.where(attention_mask(gt)[None, :, :], lrel, -np.inf)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    alpha = e / e.sum(axis=2, keepdims=True)
    out = np.einsum("hij,hjd->hid", alpha, Z)
    P = out.transpose(1, 0, 2).reshape(n, heads * dh) + b
    Y = nn._act(P, activation)
    return Y, {"H": H, "Z": Z, "raw": raw, "alpha": alpha, "P": P,
               "W": W, "a_src": a_src, "a_dst": a_dst, "act": activation}


def dense_gat_backward(dY, cache, gt):
    H, Z, raw, alpha = cache["H"], cache["Z"], cache["raw"], cache["alpha"]
    W, a_src, a_dst = cache["W"], cache["a_src"], cache["a_dst"]
    heads, n, dh = Z.shape
    dP = nn._act_back(dY, cache["P"], cache["act"])
    db = dP.sum(axis=0)
    G = dP.reshape(n, heads, dh).transpose(1, 0, 2)
    dalpha = np.einsum("hid,hjd->hij", G, Z)
    dZ = np.einsum("hij,hid->hjd", alpha, G)
    inner = (alpha * dalpha).sum(axis=2, keepdims=True)
    draw = alpha * (dalpha - inner) * np.where(raw > 0, 1.0, 0.2)
    ds1 = draw.sum(axis=2)
    ds2 = draw.sum(axis=1)
    da_src = np.einsum("hn,hnd->hd", ds1, Z)
    da_dst = np.einsum("hn,hnd->hd", ds2, Z)
    dZ += ds1[:, :, None] * a_src[:, None, :]
    dZ += ds2[:, :, None] * a_dst[:, None, :]
    dW = np.einsum("nf,hnd->hfd", H, dZ)
    dH = np.einsum("hnd,hfd->nf", dZ, W)
    return dH, {"W": dW, "a_src": da_src, "a_dst": da_dst, "b": db}


class TestGAT:
    def test_self_loop_only_attention_is_one(self):
        gt = nn.GraphTensors(np.array([[0.5, -1.0]]), np.zeros((1, 1)))
        rng = np.random.default_rng(5)
        W = rng.normal(size=(2, 2, 2))
        Y, cache = nn.gat_forward(gt.x, gt, W, rng.normal(size=(2, 2)),
                                  rng.normal(size=(2, 2)), np.zeros(4), "none")
        assert cache["alpha"].shape == (2, 1)
        assert np.allclose(cache["alpha"][:, 0], 1.0)

    def test_uniform_logits_give_uniform_attention(self):
        gt = random_graph(6, n=8, feat_dim=3)
        W = np.random.default_rng(7).normal(size=(1, 3, 4))
        zeros = np.zeros((1, 4))
        _, cache = nn.gat_forward(gt.x, gt, W, zeros, zeros, np.zeros(4), "none")
        alpha = np.zeros((8, 8))
        alpha[gt.rows, gt.cols] = cache["alpha"][0]
        mask = attention_mask(gt)
        deg = mask.sum(axis=1)
        for i in range(8):
            nz = alpha[i][mask[i]]
            assert np.allclose(nz, 1.0 / deg[i])
            assert np.allclose(alpha[i][~mask[i]], 0.0)

    def test_edge_list_is_row_major_with_segments(self):
        gt = random_graph(31, n=9, feat_dim=3)
        rows, cols = np.nonzero(attention_mask(gt))
        assert np.array_equal(gt.rows, rows) and np.array_equal(gt.cols, cols)
        assert np.array_equal(gt.row_starts, np.searchsorted(rows, np.arange(9)))
        by_col = gt.cols[gt.col_order]
        assert np.all(np.diff(by_col) >= 0)
        assert np.array_equal(gt.col_starts, np.searchsorted(by_col, np.arange(9)))

    @pytest.mark.parametrize("case", [
        dict(n=1, heads=4), dict(n=12, heads=4), dict(n=80, heads=1),
        dict(n=80, heads=4), dict(n=200, heads=4),
        dict(n=12, heads=4, weighted=True), dict(n=80, heads=1, weighted=True),
        dict(n=12, heads=4, directed=True), dict(n=80, heads=4, directed=True),
        dict(n=12, heads=1, isolated=True), dict(n=80, heads=4, isolated=True,
                                                 directed=True),
    ])
    def test_edge_list_matches_dense_oracle(self, case):
        n, heads = case["n"], case["heads"]
        rng = np.random.default_rng(n + 7 * heads)
        feats = rng.normal(size=(n, 5))
        edges = random_edges(rng, n, min(6, n - 1))
        src, dst, w = edges.src, edges.dst, edges.weight
        if case.get("weighted"):
            w = rng.uniform(0.1, 1.0, size=len(src))
        if case.get("isolated"):
            keep = (src != 0) & (dst != 0)
            src, dst, w = src[keep], dst[keep], w[keep]
        if case.get("directed"):
            # an asymmetric adjacency, which graph_tensors never builds,
            # keeps the column-order sums of the backward covered
            A = np.zeros((n, n))
            A[src, dst] = w
            gt = nn.GraphTensors(feats, A)
            assert not np.array_equal(gt.adj, gt.adj.T)
        else:
            gt = nn.graph_tensors(EpipolarGraph(feats, Edges(src, dst, w), np.arange(n)))
        dh = 3
        args = (rng.normal(size=(heads, 5, dh)), rng.normal(size=(heads, dh)),
                rng.normal(size=(heads, dh)), rng.normal(size=heads * dh), "relu")
        Y, cache = nn.gat_forward(feats, gt, *args)
        Y_ref, cache_ref = dense_gat_forward(feats, gt, *args)
        assert np.abs(Y - Y_ref).max() < 1e-12
        assert np.abs(cache["alpha"] - cache_ref["alpha"][:, gt.rows, gt.cols]).max() < 1e-12
        dY = rng.normal(size=Y.shape)
        dH, grads = nn.gat_backward(dY, cache, gt)
        dH_ref, grads_ref = dense_gat_backward(dY, cache_ref, gt)
        assert np.abs(dH - dH_ref).max() < 1e-12
        assert grads.keys() == grads_ref.keys() == {"W", "a_src", "a_dst", "b"}
        for k in grads:
            assert grads[k].shape == grads_ref[k].shape
            assert np.abs(grads[k] - grads_ref[k]).max() < 1e-12, k

    def test_naive_double_loop_oracle(self):
        gt = random_graph(8, n=7, feat_dim=5)
        rng = np.random.default_rng(9)
        heads, dh = 2, 3
        W = rng.normal(size=(heads, 5, dh))
        a_src = rng.normal(size=(heads, dh))
        a_dst = rng.normal(size=(heads, dh))
        b = rng.normal(size=heads * dh)
        Y, _ = nn.gat_forward(gt.x, gt, W, a_src, a_dst, b, "relu")

        def leaky(x):
            return x if x > 0 else 0.2 * x

        expect = np.zeros((7, heads * dh))
        for h in range(heads):
            Z = gt.x @ W[h]
            for i in range(7):
                nbrs = [j for j in range(7) if attention_mask(gt)[i, j]]
                logits = np.array([leaky(a_src[h] @ Z[i] + a_dst[h] @ Z[j])
                                   for j in nbrs])
                e = np.exp(logits - logits.max())
                alpha = e / e.sum()
                expect[i, h * dh:(h + 1) * dh] = sum(
                    a * Z[j] for a, j in zip(alpha, nbrs))
        expect = np.maximum(expect + b, 0.0)
        assert np.abs(Y - expect).max() < 1e-12


class TestGIN:
    def test_isolated_node_is_mlp_of_input(self):
        gt = nn.GraphTensors(np.array([[0.3, 0.7]]), np.zeros((1, 1)))
        rng = np.random.default_rng(10)
        W1, b1 = rng.normal(size=(2, 3)), rng.normal(size=3)
        W2, b2 = rng.normal(size=(3, 3)), rng.normal(size=3)
        Y, _ = nn.gin_forward(gt.x, gt, np.zeros(()), W1, b1, W2, b2, "none")
        expect = np.maximum(gt.x @ W1 + b1, 0) @ W2 + b2
        assert np.allclose(Y, expect)

    def test_star_center_sum_rule(self):
        # identity MLP on positive features: center aggregates own + 3 leaves
        feats = np.ones((4, 2))
        adj = np.zeros((4, 4))
        adj[0, 1:] = 1.0
        adj[1:, 0] = 1.0
        gt = nn.GraphTensors(feats, adj)
        eye = np.eye(2)
        Y, cache = nn.gin_forward(feats, gt, np.zeros(()), eye, np.zeros(2),
                                  eye, np.zeros(2), "none")
        assert np.allclose(cache["S"][0], [4.0, 4.0])
        assert np.allclose(Y[0], [4.0, 4.0])
        assert np.allclose(Y[1], [2.0, 2.0])  # leaf: own + center

    def test_naive_loop_oracle(self):
        gt = random_graph(11, n=6, feat_dim=4)
        rng = np.random.default_rng(12)
        eps = np.array(0.3)
        W1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
        W2, b2 = rng.normal(size=(5, 5)), rng.normal(size=5)
        Y, _ = nn.gin_forward(gt.x, gt, eps, W1, b1, W2, b2, "relu")
        for i in range(6):
            s = (1 + eps) * gt.x[i] + sum(gt.adj[i, j] * gt.x[j] for j in range(6))
            expect = np.maximum(np.maximum(s @ W1 + b1, 0) @ W2 + b2, 0)
            assert np.abs(Y[i] - expect).max() < 1e-12


class TestPool:
    def test_identical_rows_mean(self):
        H = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert np.allclose(nn.pool(H, "mean"), [1, 2, 3])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        H = rng.normal(size=(9, 4))
        perm = rng.permutation(9)
        assert np.allclose(nn.pool(H, "mean"), nn.pool(H[perm], "mean"))
        assert np.allclose(nn.pool(H, "sum"), nn.pool(H[perm], "sum"))

    def test_sum_oracle(self):
        rng = np.random.default_rng(14)
        H = rng.normal(size=(3, 5))
        assert np.allclose(nn.pool(H, "sum"), H[0] + H[1] + H[2])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            nn.pool(np.zeros((0, 4)), "mean")


class TestModelForward:
    def test_golden_regression_fixture(self):
        gt = random_graph(99, n=10)
        cfg = nn.preset_config("3GCN+GAT")
        params = nn.init_params(cfg, seed=42)
        out, _ = nn.model_forward(gt, params, cfg)
        assert np.allclose(out.q, [0.2681743237420934, -0.7112004037663602,
                                   0.4206154637801745, -0.4953374096482378],
                           atol=1e-12)
        assert np.allclose(out.t_dir, [0.7439218577700913, -0.1461017634126745,
                                       0.6521001029440211], atol=1e-12)
        assert abs(out.t_raw - 0.7142737842286896) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        feats = rng.normal(size=(12, 6))
        edges = random_edges(rng, 12, 3)
        for preset in nn.PRESET_NAMES:
            cfg = nn.preset_config(preset)
            params = nn.init_params(cfg, seed=1)
            g = EpipolarGraph(feats, edges, np.arange(12))
            out, _ = nn.model_forward(nn.graph_tensors(g), params, cfg)
            perm = rng.permutation(12)
            inv = np.empty(12, dtype=int)
            inv[perm] = np.arange(12)
            pedges = Edges(inv[edges.src], inv[edges.dst], edges.weight)
            pg = EpipolarGraph(feats[perm], pedges, np.arange(12))
            pout, _ = nn.model_forward(nn.graph_tensors(pg), params, cfg)
            assert np.abs(out.q - pout.q).max() < 1e-10
            assert np.abs(pout.t_dir - out.t_dir).max() < 1e-10
            assert abs(out.t_raw - pout.t_raw) < 1e-10

    def test_output_manifold(self):
        for seed in range(5):
            gt = random_graph(seed, n=6)
            cfg = nn.preset_config("GIN_SumPool")
            params = nn.init_params(cfg, seed=seed)
            out, _ = nn.model_forward(gt, params, cfg)
            assert abs(np.linalg.norm(out.q) - 1.0) < 1e-12
            assert abs(np.linalg.norm(out.t_dir) - 1.0) < 1e-12
            assert out.t_raw >= 0.0

    def test_shape_error(self):
        gt = random_graph(16, n=5, feat_dim=4)
        cfg = nn.preset_config("3GCN+GAT")  # expects 6-dim features
        params = nn.init_params(cfg, seed=0)
        with pytest.raises(ShapeError):
            nn.model_forward(gt, params, cfg)

    def test_deterministic_across_runs(self):
        gt = random_graph(17)
        cfg = nn.preset_config("GAT+2GCN")
        a = nn.init_params(cfg, seed=3)
        b = nn.init_params(cfg, seed=3)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])
        oa, _ = nn.model_forward(gt, a, cfg)
        ob, _ = nn.model_forward(gt, b, cfg)
        assert np.array_equal(oa.q, ob.q) and oa.t_raw == ob.t_raw


class TestModelBackward:
    def test_zero_upstream_gives_zero_grads(self):
        gt = random_graph(18)
        cfg = nn.preset_config("3GCN+GAT")
        params = nn.init_params(cfg, seed=0)
        _, cache = nn.model_forward(gt, params, cfg)
        grads = nn.model_backward(cache, np.zeros(4), np.zeros(3), 0.0, params)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_upstream_linearity(self):
        gt = random_graph(19)
        cfg = nn.preset_config("GIN_SumPool")
        params = nn.init_params(cfg, seed=1)
        rng = np.random.default_rng(20)
        dq, dt_dir, dt_raw = rng.normal(size=4), rng.normal(size=3), 0.37
        _, cache = nn.model_forward(gt, params, cfg)
        g1 = nn.model_backward(cache, dq, dt_dir, dt_raw, params)
        g2 = nn.model_backward(cache, 2 * dq, 2 * dt_dir, 2 * dt_raw, params)
        for k in g1:
            assert np.allclose(2 * g1[k], g2[k], atol=0.0)

    def test_state_error_without_forward_cache(self):
        params = nn.init_params(nn.preset_config("3GCN+GAT"), seed=0)
        with pytest.raises(StateError):
            nn.model_backward(None, np.zeros(4), np.zeros(3), 0.0, params)


class TestLayerTable:
    def test_layer_calls_go_through_module_globals(self, monkeypatch):
        # a tracer rebinds nn.<kind>_forward / _backward; every layer call must
        # reach the rebound name, so the dispatch may not hold function objects
        names = [f"{kind}_{step}" for kind in nn.LAYER_KINDS
                 for step in ("forward", "backward")]
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _real=getattr(nn, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(nn, name, counted)
        gt = random_graph(30)
        cfg = nn.ModelConfig(EVERY_KIND, hidden=8)
        params = nn.init_params(cfg, seed=0)
        _, cache = nn.model_forward(gt, params, cfg)
        assert all(calls[n] == (n.endswith("forward")) for n in names), calls
        grads = nn.model_backward(cache, np.ones(4), np.ones(3), 1.0, params)
        assert all(calls[n] == 1 for n in names), calls
        nn.forward_embeddings(gt, params, cfg, len(EVERY_KIND))
        assert all(calls[n] == (2 if n.endswith("forward") else 1) for n in names), calls
        assert grads.keys() == params.tensors.keys()

    def test_init_draw_order(self):
        # checkpoints stay byte-identical only if the RNG is drawn in this order
        cfg = nn.ModelConfig(EVERY_KIND, hidden=8)
        params = nn.init_params(cfg, seed=3)
        assert list(params.tensors) == [
            "L0.W", "L0.b", "L1.W", "L1.a_src", "L1.a_dst", "L1.b",
            "L2.eps", "L2.W1", "L2.b1", "L2.W2", "L2.b2",
            "mlp1.W", "mlp1.b", "head_t.W", "head_t.b", "head_q.W", "head_q.b"]
        rng = np.random.default_rng(3)

        def glorot(fan_in, fan_out, shape):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-a, a, size=shape)

        drawn = {"L0.W": glorot(6, 8, (6, 8)), "L1.W": glorot(8, 4, (2, 8, 4)),
                 "L1.a_src": glorot(8, 1, (2, 4)), "L1.a_dst": glorot(8, 1, (2, 4)),
                 "L2.W1": glorot(8, 8, (8, 8)), "L2.W2": glorot(8, 8, (8, 8)),
                 "mlp1.W": glorot(8, 8, (8, 8)),
                 "head_t.W": glorot(8, 4, (8, 4)), "head_q.W": glorot(8, 4, (8, 4))}
        for name, tensor in params.tensors.items():
            expect = drawn.get(name, np.zeros(tensor.shape))
            assert np.array_equal(tensor, expect), name


class TestAdam:
    def test_zero_gradient_no_change(self):
        cfg = nn.preset_config("3GCN+GAT")
        params = nn.init_params(cfg, seed=0)
        before = {k: v.copy() for k, v in params.tensors.items()}
        nn.adam_step(params, {k: np.zeros_like(v) for k, v in before.items()})
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])
        assert params.step == 1

    def test_single_step_formula(self):
        # from zero moments: delta = -lr * g / (|g| + eps) elementwise
        params = nn.ModelParams({"w": np.array([1.0, -2.0, 3.0])})
        g = np.array([0.5, -1.5, 2.0])
        lr, eps = 1e-3, 1e-8
        nn.adam_step(params, {"w": g}, lr=lr, eps=eps)
        expect = np.array([1.0, -2.0, 3.0]) - lr * g / (np.abs(g) + eps)
        assert np.allclose(params.tensors["w"], expect, rtol=0, atol=1e-15)

    def test_constant_gradient_asymptotic_rate(self):
        params = nn.ModelParams({"w": np.array([0.0])})
        g = np.array([0.01])
        lr = 1e-3
        for _ in range(5000):
            nn.adam_step(params, {"w": g}, lr=lr)
        # per-step magnitude approaches lr once the moments saturate
        before = params.tensors["w"].copy()
        nn.adam_step(params, {"w": g}, lr=lr)
        assert abs(abs(params.tensors["w"][0] - before[0]) - lr) < 1e-6


class TestGradCheck:
    def test_one_preset_passes(self):
        gt = random_graph(22, n=12)
        report = nn.grad_check(nn.preset_config("GIN_SumPool"), gt,
                               random_target(1), seed=2)
        assert report and all(e.ok for e in report)
        assert max(e.rel_err for e in report) < 1e-5

    def test_corruption_detected(self):
        gt = random_graph(23, n=8)
        report = nn.grad_check(nn.preset_config("GIN_SumPool"), gt,
                               random_target(2), seed=3, corrupt="mlp1.b")
        bad = [e for e in report if e.tensor == "mlp1.b"]
        assert bad and any(not e.ok for e in bad)

    def test_one_loss_evaluation_per_probe_forward(self, monkeypatch):
        from epigraph import losses

        calls = []
        total_loss = losses.total_loss
        monkeypatch.setattr(losses, "total_loss",
                            lambda *a, **kw: calls.append(1) or total_loss(*a, **kw))
        cfg = nn.ModelConfig((nn.LayerSpec("gcn", 6, 2),), hidden=2)
        params = nn.init_params(cfg, seed=5)
        probes = sum(t.size for t in params.tensors.values())
        report = nn.grad_check(cfg, random_graph(26, n=5), random_target(4),
                               params=params)
        assert len(report) == len(losses.TERM_GRADS) * len(params.tensors)
        assert len(calls) == 2 * probes

    def test_empty_params_empty_report(self):
        gt = random_graph(24, n=5)
        cfg = nn.preset_config("3GCN+GAT")
        report = nn.grad_check(cfg, gt, random_target(3),
                               params=nn.ModelParams({}))
        assert report == []


class TestCheckpoint:
    def test_save_load_bit_identical_forward(self, tmp_path):
        gt = random_graph(25)
        cfg = nn.preset_config("GAT+2GCN")
        params = nn.init_params(cfg, seed=4)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["mlp1.W"][...] = 0.1
        nn.adam_step(params, grads)
        out, _ = nn.model_forward(gt, params, cfg)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, params, cfg, {"note": "fixture"})
        params2, cfg2, meta = nn.load_checkpoint(path)
        assert cfg2 == cfg
        assert meta["note"] == "fixture"
        assert params2.step == params.step
        for k in params.tensors:
            assert np.array_equal(params2.tensors[k], params.tensors[k])
            assert np.array_equal(params2.m[k], params.m[k])
            assert np.array_equal(params2.v[k], params.v[k])
        out2, _ = nn.model_forward(gt, params2, cfg2)
        assert np.array_equal(out.q, out2.q)
        assert np.array_equal(out.t_dir, out2.t_dir)
        assert out.t_raw == out2.t_raw

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("# epigraph-ckpt v7\n")
        with pytest.raises(SchemaVersionError):
            nn.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        from epigraph.errors import FormatError
        cfg = nn.preset_config("GIN_SumPool", hidden=8)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.init_params(cfg, 0), cfg, {})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)


    @staticmethod
    def _saved_lines(tmp_path):
        cfg = nn.preset_config("GAT+2GCN", hidden=8)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.init_params(cfg, 0), cfg, {})
        return path, path.read_text().splitlines()

    def test_dropped_tensor_rejected(self, tmp_path):
        from epigraph.errors import FormatError
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(next(ln for ln in lines if ln.startswith("tensor L0.W ")))
        path.write_text("\n".join(lines[:at] + lines[at + 4:]) + "\n")
        with pytest.raises(FormatError, match="missing \\['L0.W'\\]"):
            nn.load_checkpoint(path)

    def test_reshaped_tensor_rejected(self, tmp_path):
        from epigraph.errors import FormatError
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(next(ln for ln in lines if ln.startswith("tensor head_t.W ")))
        _, name, ndim, rows, cols = lines[at].split()
        lines[at] = f"tensor {name} {ndim} {cols} {rows}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="head_t.W has shape"):
            nn.load_checkpoint(path)


# float64 values that a text format can get wrong: the sign of zero,
# subnormals and the ends of the range
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308)
any_float = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
finite_weight = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from(nn.PRESET_NAMES), st.integers(0, 2 ** 62),
       st.builds(LossWeights, lambda_pose=finite_weight, lambda_frob=finite_weight,
                 lambda_yaw=finite_weight),
       st.builds(GraphParams, k=st.integers(1, 2 ** 40), tau=positive,
                 variant=st.sampled_from(VARIANTS), radius=st.none() | positive,
                 e0_m=st.integers(8, 2 ** 40), e0_iters=st.integers(0, 2 ** 40)),
       st.booleans(), st.integers(1, 10 ** 6), any_float)
def test_checkpoint_round_trip_is_bitwise(data, preset, step, weights, gp, normalized_e,
                                          epoch, val_total):
    cfg = nn.preset_config(preset, hidden=4)
    params = nn.init_params(cfg)
    for store in (params.tensors, params.m, params.v):
        for name, ref in list(store.items()):
            store[name] = data.draw(arrays(np.float64, ref.shape, elements=any_float))
    params.step = step
    meta = _ckpt_meta(TrainConfig(cfg, graph=gp, weights=weights,
                                  normalized_e=normalized_e), epoch, val_total)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        nn.save_checkpoint(path, params, cfg, meta)
        back, cfg2, meta2 = nn.load_checkpoint(path)
    assert cfg2 == cfg and back.step == step
    assert meta2 == {k: str(v) for k, v in meta.items()}
    assert weights_from_meta(meta2) == weights and graph_params_from_meta(meta2) == gp
    for store, store2 in ((params.tensors, back.tensors), (params.m, back.m),
                          (params.v, back.v)):
        assert list(store2) == list(store)
        for name in store:
            assert np.array_equal(bits(store2[name]), bits(store[name])), name


class TestConfigObjects:
    def test_preset_shapes(self):
        cfg = nn.preset_config("3GCN+GAT")
        kinds = [s.kind for s in cfg.layers]
        assert kinds == ["gcn", "gcn", "gcn", "gat"]
        cfg = nn.preset_config("GAT+2GCN")
        assert [s.kind for s in cfg.layers] == ["gat", "gcn", "gcn"]
        assert cfg.layers[0].heads == 4
        cfg = nn.preset_config("GIN_SumPool")
        assert all(s.kind == "gin" for s in cfg.layers)
        assert cfg.pooling == "sum"

    def test_gat_heads_divisibility(self):
        with pytest.raises(InvalidInputError):
            nn.LayerSpec("gat", 6, 62, heads=4)

    def test_dim_chain_validated(self):
        with pytest.raises(ShapeError):
            nn.ModelConfig((nn.LayerSpec("gcn", 6, 64), nn.LayerSpec("gcn", 32, 64)))

    def test_only_preset_kinds_and_nonempty_stacks(self):
        assert nn.LAYER_KINDS == ("gcn", "gat", "gin")
        assert nn.ACTIVATIONS == ("relu", "none")
        with pytest.raises(InvalidInputError, match="linear"):
            nn.LayerSpec("linear", 6, 8)
        with pytest.raises(InvalidInputError, match="tanh"):
            nn.LayerSpec("gcn", 6, 8, activation="tanh")
        with pytest.raises(InvalidInputError, match="at least one"):
            nn.ModelConfig(())

    def test_layerless_checkpoint_is_format_error(self, tmp_path):
        from epigraph.errors import FormatError
        cfg = nn.preset_config("GIN_SumPool", hidden=4)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.init_params(cfg, 0), cfg, {})
        lines = path.read_text().splitlines()
        assert lines[1] == "config layers gin:6:4:1:relu,gin:4:4:1:relu"
        lines[1] = "config layers none"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2:"):
            nn.load_checkpoint(path)


class TestForwardEmbeddings:
    def test_layer_zero_is_input(self):
        gt = random_graph(26)
        cfg = nn.preset_config("3GCN+GAT")
        params = nn.init_params(cfg, seed=5)
        H, z = nn.forward_embeddings(gt, params, cfg, 0)
        assert np.array_equal(H, gt.x)
        assert np.allclose(z, gt.x.mean(axis=0))

    def test_last_layer_matches_forward_path(self):
        gt = random_graph(27)
        cfg = nn.preset_config("GIN_SumPool")
        params = nn.init_params(cfg, seed=6)
        H, z = nn.forward_embeddings(gt, params, cfg, len(cfg.layers))
        out, cache = nn.model_forward(gt, params, cfg)
        assert np.array_equal(z, cache["z"])

    def test_out_of_range(self):
        gt = random_graph(28)
        cfg = nn.preset_config("GIN_SumPool")
        with pytest.raises(InvalidInputError):
            nn.forward_embeddings(gt, nn.init_params(cfg, 0), cfg, 5)
