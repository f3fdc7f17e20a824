import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epigraph import nn
from epigraph.config import ExperimentConfig
from epigraph.errors import (
    EmptyGraphError,
    FormatError,
    InvalidInputError,
    SchemaVersionError,
    ShapeError,
    StateError,
)
from epigraph.geom import Pose, quat_from_axis_angle
from epigraph.graph import VARIANTS, Edges, EpipolarGraph, GraphParams, build_edges, build_graph
from epigraph.losses import LossWeights, PoseTarget
from epigraph.synth import generate_scene
from epigraph.train import _ckpt_meta, graph_params_from_meta, weights_from_meta

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
    FIELDS = ("adj", "a_hat", "rows", "cols", "row_starts", "flat")

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
        Y, _ = nn.gcn_forward(gt.x, gt, W, np.zeros(3))
        assert np.allclose(Y, gt.x)

    def test_two_node_symmetry(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0]])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        gt = nn.GraphTensors(feats, adj)
        rng = np.random.default_rng(0)
        W = rng.normal(size=(2, 4))
        Y, _ = nn.gcn_forward(feats, gt, W, rng.normal(size=4))
        assert np.allclose(Y[0], Y[1])

    def test_dense_formula_oracle(self):
        gt = random_graph(1, n=5, feat_dim=4)
        rng = np.random.default_rng(2)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        A_tilde = gt.adj + np.eye(5)
        D = np.diag(1.0 / np.sqrt(A_tilde.sum(axis=1)))
        expect = np.maximum(D @ A_tilde @ D @ gt.x @ W + b, 0.0)
        Y, _ = nn.gcn_forward(gt.x, gt, W, b)
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
        Y, _ = nn.gcn_forward(gt.x, gt, W, b)
        assert np.abs(Y - expect).max() < 1e-12

    def test_linearity_without_activation_or_bias(self):
        # the pre-activation P is linear in H
        gt = random_graph(3, n=6, feat_dim=4)
        rng = np.random.default_rng(4)
        W = rng.normal(size=(4, 4))
        b = np.zeros(4)
        H1 = rng.normal(size=(6, 4))
        H2 = rng.normal(size=(6, 4))
        f = lambda H: nn.gcn_forward(H, gt, W, b)[1]["P"]
        assert np.allclose(f(2.0 * H1 - 3.0 * H2), 2.0 * f(H1) - 3.0 * f(H2))


def attention_mask(gt):
    """The dense (N, N) attention pattern: adjacency nonzeros plus self-loops."""
    return (gt.adj > 0) | np.eye(gt.n, dtype=bool)


def dense_gat_forward(H, gt, W, a_src, a_dst, b):
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
    return np.maximum(P, 0.0), {"H": H, "Z": Z, "raw": raw, "alpha": alpha, "P": P,
                                "W": W, "a_src": a_src, "a_dst": a_dst}


def dense_gat_backward(dY, cache, gt):
    H, Z, raw, alpha = cache["H"], cache["Z"], cache["raw"], cache["alpha"]
    W, a_src, a_dst = cache["W"], cache["a_src"], cache["a_dst"]
    heads, n, dh = Z.shape
    dP = dY * (cache["P"] > 0)
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
                                  rng.normal(size=(2, 2)), np.zeros(4))
        assert cache["alpha"].shape == (2, 1)
        assert np.allclose(cache["alpha"][:, 0], 1.0)

    def test_uniform_logits_give_uniform_attention(self):
        gt = random_graph(6, n=8, feat_dim=3)
        W = np.random.default_rng(7).normal(size=(1, 3, 4))
        zeros = np.zeros((1, 4))
        _, cache = nn.gat_forward(gt.x, gt, W, zeros, zeros, np.zeros(4))
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

    @pytest.mark.parametrize("n", [1, 9, 80])
    def test_flat_index_is_row_major(self, n):
        gt = random_graph(32, n=n, feat_dim=3, degree=min(3, n - 1))
        assert gt.flat.dtype == np.intp
        assert np.array_equal(gt.flat, gt.rows * n + gt.cols)
        assert np.array_equal(gt.flat, np.ravel_multi_index((gt.rows, gt.cols), (n, n)))
        assert np.all(np.diff(gt.flat) > 0)
        dense = np.zeros(n * n, dtype=bool)
        dense[gt.flat] = True
        assert np.array_equal(dense.reshape(n, n), attention_mask(gt))

    @pytest.mark.parametrize("case", [
        dict(n=1, heads=4), dict(n=12, heads=4), dict(n=80, heads=1),
        dict(n=80, heads=4), dict(n=200, heads=4),
        dict(n=12, heads=4, weighted=True), dict(n=80, heads=1, weighted=True),
        dict(n=12, heads=4, directed=True), dict(n=80, heads=4, directed=True),
        dict(n=12, heads=1, isolated=True), dict(n=80, heads=4, isolated=True,
                                                 directed=True),
        # from these sizes on, the dense message sums are slower than edge-list ones
        dict(n=300, heads=4), dict(n=500, heads=4),
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
                rng.normal(size=(heads, dh)), rng.normal(size=heads * dh))
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
        Y, _ = nn.gat_forward(gt.x, gt, W, a_src, a_dst, b)

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
        Y, cache = nn.gin_forward(gt.x, gt, np.zeros(()), W1, b1, W2, b2)
        expect = np.maximum(gt.x @ W1 + b1, 0) @ W2 + b2
        assert np.allclose(cache["P"], expect)
        assert np.allclose(Y, np.maximum(expect, 0))

    def test_star_center_sum_rule(self):
        # identity MLP on positive features: center aggregates own + 3 leaves
        feats = np.ones((4, 2))
        adj = np.zeros((4, 4))
        adj[0, 1:] = 1.0
        adj[1:, 0] = 1.0
        gt = nn.GraphTensors(feats, adj)
        eye = np.eye(2)
        Y, cache = nn.gin_forward(feats, gt, np.zeros(()), eye, np.zeros(2),
                                  eye, np.zeros(2))
        assert np.allclose(cache["S"][0], [4.0, 4.0])
        assert np.allclose(Y[0], [4.0, 4.0])
        assert np.allclose(Y[1], [2.0, 2.0])  # leaf: own + center

    def test_naive_loop_oracle(self):
        gt = random_graph(11, n=6, feat_dim=4)
        rng = np.random.default_rng(12)
        eps = np.array(0.3)
        W1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
        W2, b2 = rng.normal(size=(5, 5)), rng.normal(size=5)
        Y, _ = nn.gin_forward(gt.x, gt, eps, W1, b1, W2, b2)
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
        expected = dict.fromkeys(names, 0)
        for preset in nn.PRESET_NAMES:
            cfg = nn.preset_config(preset, hidden=8)
            params = nn.init_params(cfg, seed=0)
            _, cache = nn.model_forward(gt, params, cfg)
            grads = nn.model_backward(cache, np.ones(4), np.ones(3), 1.0, params)
            nn.forward_embeddings(gt, params, cfg, len(cfg.layers))
            assert grads.keys() == params.tensors.keys()
            for kind in nn.PRESETS[preset].kinds:
                expected[f"{kind}_forward"] += 2
                expected[f"{kind}_backward"] += 1
            assert calls == expected, preset
        assert all(calls.values())

    # per preset at hidden 8: its layer tensors in draw order, and the Glorot
    # fan_in, fan_out and shape of each drawn one; the rest are zeros
    DRAWS = {
        "GAT+2GCN": (["L0.W", "L0.a_src", "L0.a_dst", "L0.b", "L1.W", "L1.b",
                      "L2.W", "L2.b"],
                     {"L0.W": (6, 2, (4, 6, 2)), "L0.a_src": (4, 1, (4, 2)),
                      "L0.a_dst": (4, 1, (4, 2)), "L1.W": (8, 8, (8, 8)),
                      "L2.W": (8, 8, (8, 8))}),
        "GIN_SumPool": (["L0.eps", "L0.W1", "L0.b1", "L0.W2", "L0.b2",
                         "L1.eps", "L1.W1", "L1.b1", "L1.W2", "L1.b2"],
                        {"L0.W1": (6, 8, (6, 8)), "L0.W2": (8, 8, (8, 8)),
                         "L1.W1": (8, 8, (8, 8)), "L1.W2": (8, 8, (8, 8))}),
    }

    def test_init_draw_order(self):
        # checkpoints stay byte-identical only if the RNG is drawn in this order
        head = {"mlp1.W": (8, 8, (8, 8)), "head_t.W": (8, 4, (8, 4)),
                "head_q.W": (8, 4, (8, 4))}
        for preset, (layer_keys, drawn) in self.DRAWS.items():
            params = nn.init_params(nn.preset_config(preset, hidden=8), seed=3)
            assert list(params.tensors) == layer_keys + [
                "mlp1.W", "mlp1.b", "head_t.W", "head_t.b", "head_q.W", "head_q.b"]
            drawn = {**drawn, **head}
            rng = np.random.default_rng(3)
            for name, tensor in params.tensors.items():
                if name in drawn:
                    fan_in, fan_out, shape = drawn[name]
                    a = np.sqrt(6.0 / (fan_in + fan_out))
                    expect = rng.uniform(-a, a, size=shape)
                else:
                    expect = np.zeros(tensor.shape)
                assert np.array_equal(tensor, expect), (preset, name)


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


def adam_reference(params, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one tensor at a time, new moment arrays per step."""
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


class PerTensorParams:
    """Tensors, moments and step as separate arrays, as ``adam_reference`` updates."""

    def __init__(self, params):
        self.tensors = {k: v.copy() for k, v in params.tensors.items()}
        self.m = {k: v.copy() for k, v in params.m.items()}
        self.v = {k: v.copy() for k, v in params.v.items()}
        self.step = params.step


class TestFlatAdam:
    @pytest.mark.parametrize("preset", nn.PRESET_NAMES)
    def test_matches_per_tensor_loop_bitwise(self, preset):
        params = nn.init_params(nn.preset_config(preset, hidden=16), seed=3)
        ref = PerTensorParams(params)
        rng = np.random.default_rng(4)
        for step in range(6):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=v.shape)
                     for k, v in params.tensors.items()}
            if step % 2:
                nn.adam_step(params, grads, lr=1e-3)
            else:
                nn.adam_step(params, params.pack(grads), lr=1e-3)
            adam_reference(ref, grads, lr=1e-3)
        assert params.step == ref.step == 6
        for store, ref_store in ((params.tensors, ref.tensors), (params.m, ref.m),
                                 (params.v, ref.v)):
            assert list(store) == list(ref_store)
            for k in store:
                assert np.array_equal(bits(store[k]), bits(ref_store[k])), k

    def test_tensors_are_views_of_the_flat_vectors(self):
        params = nn.init_params(nn.preset_config("GIN_SumPool", hidden=8))
        for flat, store in ((params.flat, params.tensors), (params.flat_m, params.m),
                            (params.flat_v, params.v)):
            assert flat.ndim == 1 and flat.flags.c_contiguous
            assert flat.size == sum(a.size for a in store.values())
            for k, a in store.items():
                assert np.shares_memory(a, flat), k
            assert np.array_equal(params.pack(store), flat)
        params.tensors["L0.eps"][...] = 0.25
        assert 0.25 in params.flat

    def test_copy_shares_no_memory(self):
        params = nn.init_params(nn.preset_config("3GCN+GAT", hidden=8), seed=1)
        nn.adam_step(params, {k: np.ones_like(v) for k, v in params.tensors.items()})
        dup = params.copy()
        assert dup.step == params.step
        for a, b in ((params.flat, dup.flat), (params.flat_m, dup.flat_m),
                     (params.flat_v, dup.flat_v)):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        for k in params.tensors:
            assert np.shares_memory(dup.tensors[k], dup.flat)
            assert not np.shares_memory(dup.tensors[k], params.flat)
        nn.adam_step(dup, {k: np.ones_like(v) for k, v in params.tensors.items()})
        assert params.step == 1 and not np.array_equal(params.flat, dup.flat)


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

    @pytest.mark.parametrize("preset", nn.PRESET_NAMES)
    def test_corruption_fails_every_preset(self, preset):
        report = nn.grad_check(nn.preset_config(preset, hidden=8), random_graph(25, n=8),
                               random_target(5), seed=4, corrupt="mlp1.b")
        assert not all(e.ok for e in report if e.tensor == "mlp1.b")

    @staticmethod
    def kinked_model():
        """A width-4 model, its graph, and its mlp1 pre-activations.  The
        heads' biases keep the outputs nonzero when mlp1's outputs are."""
        cfg = nn.preset_config("GAT+2GCN", hidden=4)
        params = nn.init_params(cfg, seed=3)
        params.tensors["head_t.b"][:] = params.tensors["head_q.b"][:] = 0.5
        gt = random_graph(26, n=5)
        _, cache = nn.model_forward(gt, params, cfg)
        return cfg, params, gt, cache["m_pre"]

    def test_one_sided_difference_where_a_probe_straddles_a_kink(self):
        # mlp1's first pre-activation sits at 3e-7, inside the 1e-6 probe
        # step: the -h forward of mlp1.b[0] crosses the ReLU kink, and the
        # central difference would average the slopes of both sides
        cfg, params, gt, m_pre = self.kinked_model()
        params.tensors["mlp1.b"][0] -= m_pre[0] - 3e-7
        report = nn.grad_check(cfg, gt, random_target(4), params=params)
        assert all(e.ok for e in report), max(e.rel_err for e in report)
        assert max(e.rel_err for e in report) < 1e-5
        kinked = [e for e in report if e.tensor == "mlp1.b"]
        assert kinked and all(e.one_sided == 1 and e.two_sided == 0 for e in kinked)

    def test_kink_crossed_on_both_sides_fails(self):
        cfg, params, gt, m_pre = self.kinked_model()
        h, b = 1e-6, params.tensors["L0.b"]
        orig = b[1]
        b[1] = orig + h
        _, plus = nn.model_forward(gt, params, cfg)
        b[1] = orig
        slope = (plus["m_pre"] - m_pre) / h
        assert np.all(np.abs(slope) > 0.01)
        # the -h probe of L0.b[1] moves m_pre[0] and m_pre[2] across 0, the +h
        # probe m_pre[1] and m_pre[3]
        params.tensors["mlp1.b"] += np.array([0.5, -0.5, 0.5, -0.5]) * h * slope - m_pre
        report = nn.grad_check(cfg, gt, random_target(4), params=params)
        kinked = [e for e in report if e.tensor == "L0.b"]
        assert kinked and all(e.two_sided == 1 and not e.ok for e in kinked)

    def test_one_loss_evaluation_per_probe_forward(self, monkeypatch):
        from epigraph import losses

        calls, forwards = [], []
        total_loss = losses.total_loss
        monkeypatch.setattr(losses, "total_loss",
                            lambda *a, **kw: calls.append(1) or total_loss(*a, **kw))
        forward = nn.model_forward
        monkeypatch.setattr(nn, "model_forward",
                            lambda *a, **kw: forwards.append(1) or forward(*a, **kw))
        cfg = nn.preset_config("3GCN+GAT", hidden=4)
        params = nn.init_params(cfg, seed=5)
        probes = sum(t.size for t in params.tensors.values())
        report = nn.grad_check(cfg, random_graph(26, n=5), random_target(4),
                               params=params)
        assert len(report) == len(losses.TERM_GRADS) * len(params.tensors)
        assert len(calls) == 2 * probes
        assert len(forwards) == 1 + 2 * probes

    @staticmethod
    def start_layer(name, cfg):
        """The first layer a tensor feeds, read off its ``L{i}.`` prefix;
        a head tensor feeds none of them."""
        return int(name[1:name.index(".")]) if name.startswith("L") else len(cfg.layers)

    @pytest.mark.parametrize("preset", nn.PRESET_NAMES)
    def test_resumed_forward_is_bitwise_a_full_forward(self, preset):
        cfg = nn.preset_config(preset, hidden=8)
        params = nn.init_params(cfg, seed=6)
        gt = random_graph(27, n=8)
        out, base = nn.model_forward(gt, params, cfg)
        # the entry of each tensor that moves the outputs most
        grads = nn.model_backward(base, np.ones(4), np.ones(3), 1.0, params)

        def arrays(out, cache):
            # the outputs and every array _kink_masks reads
            return [out.q, out.t_dir, np.float64(out.t_raw), cache["m_pre"],
                    *(c[k] for c in cache["layers"] for k in ("P", "U1", "raw") if k in c)]

        unperturbed, starts = arrays(out, base), set()
        for name, tensor in params.tensors.items():
            start = self.start_layer(name, cfg)
            starts.add(start)
            idx = np.abs(grads[name]).argmax()
            tensor.reshape(-1)[idx] += 1e-3
            full = arrays(*nn.model_forward(gt, params, cfg))
            resumed = arrays(*nn.model_forward(gt, params, cfg, (base, start)))
            tensor.reshape(-1)[idx] -= 1e-3
            assert any(a.tobytes() != b.tobytes() for a, b in zip(full, unperturbed)), name
            assert len(full) == len(resumed)
            for a, b in zip(full, resumed):
                assert a.tobytes() == b.tobytes(), (name, start)
        assert starts == set(range(len(cfg.layers) + 1))

    @pytest.mark.parametrize("preset", nn.PRESET_NAMES)
    def test_probes_rerun_layers_from_their_tensor_on(self, preset, monkeypatch):
        cfg = nn.preset_config(preset, hidden=4)
        params = nn.init_params(cfg, seed=7)
        calls = {kind: 0 for kind in nn.LAYER_KINDS}
        for kind in nn.LAYER_KINDS:
            forward = getattr(nn, f"{kind}_forward")

            def counted(*a, kind=kind, forward=forward):
                calls[kind] += 1
                return forward(*a)
            monkeypatch.setattr(nn, f"{kind}_forward", counted)
        expected = {kind: 0 for kind in nn.LAYER_KINDS}
        for spec in cfg.layers:
            expected[spec.kind] += 1
        for name, tensor in params.tensors.items():
            for spec in cfg.layers[self.start_layer(name, cfg):]:
                expected[spec.kind] += 2 * tensor.size
        nn.grad_check(cfg, random_graph(28, n=5), random_target(6), params=params,
                      terms=["quat"])
        assert calls == expected

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

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = nn.preset_config("3GCN+GAT", hidden=8)
        params = nn.init_params(cfg, seed=2)
        rng = np.random.default_rng(5)
        for _ in range(3):
            nn.adam_step(params, {k: rng.normal(size=v.shape)
                                  for k, v in params.tensors.items()})
        params.tensors["L0.b"][:2] = (-0.0, 5e-324)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(first, params, cfg, {"note": "fixture"})
        back, cfg2, meta = nn.load_checkpoint(first)
        nn.save_checkpoint(second, back, cfg2, meta)
        assert first.read_bytes() == second.read_bytes()
        for flat, flat2 in ((params.flat, back.flat), (params.flat_m, back.flat_m),
                            (params.flat_v, back.flat_v)):
            assert np.array_equal(bits(flat), bits(flat2))

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

    @pytest.mark.parametrize("name", ["L0.W", "head_q.b"])
    def test_repeated_tensor_rejected(self, tmp_path, name):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(next(ln for ln in lines if ln.startswith(f"tensor {name} ")))
        write_lines(path, lines + lines[at:at + 4])
        with pytest.raises(FormatError, match=f"^line {len(lines) + 1}: tensor {name} "):
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
# a checkpoint refuses a tensor value that is not finite
finite_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
finite_weight = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from(nn.PRESET_NAMES), st.integers(0, 2 ** 62),
       st.builds(LossWeights, lambda_pose=finite_weight, lambda_frob=finite_weight,
                 lambda_yaw=finite_weight, normalized_e=st.booleans()),
       st.builds(GraphParams, k=st.integers(1, 2 ** 40), tau=positive,
                 variant=st.sampled_from(VARIANTS), radius=st.none() | positive,
                 e0_m=st.integers(8, 2 ** 40), e0_iters=st.integers(0, 2 ** 40)),
       st.integers(1, 10 ** 6), any_float)
def test_checkpoint_round_trip_is_bitwise(data, preset, step, weights, gp, epoch, val_total):
    cfg = nn.preset_config(preset, hidden=4)
    params = nn.init_params(cfg)
    for store in (params.tensors, params.m, params.v):
        for name, ref in list(store.items()):
            store[name] = data.draw(arrays(np.float64, ref.shape, elements=finite_float))
    params.step = step
    meta = _ckpt_meta(ExperimentConfig(graph=gp, loss=weights), epoch, val_total)
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
        with pytest.raises(InvalidInputError, match="multiple of 4, got 62"):
            nn.preset_config("GAT+2GCN", hidden=62)

    def test_only_preset_kinds_and_nonempty_stacks(self):
        assert nn.LAYER_KINDS == ("gcn", "gat", "gin")
        assert nn.PRESET_NAMES == tuple(nn.PRESETS)
        for preset in nn.PRESETS.values():
            assert preset.kinds and set(preset.kinds) <= set(nn.LAYER_KINDS)
            assert preset.pooling in ("mean", "sum")
        with pytest.raises(InvalidInputError, match="linear"):
            nn.preset_config("linear")
        with pytest.raises(InvalidInputError, match="got 0"):
            nn.preset_config("GIN_SumPool", hidden=0)

    def test_layerless_checkpoint_is_format_error(self, tmp_path):
        lines = v1_fixture("GIN_SumPool").read_text().splitlines()
        lines[1] = "config layers none"
        path = write_lines(tmp_path / "model.ckpt", lines)
        with pytest.raises(FormatError, match="line 2:"):
            nn.load_checkpoint(path)


def v1_fixture(preset):
    """A v1 checkpoint of ``preset`` at hidden 4, written by the last code
    that wrote v1: seeded weights after two Adam steps, and the meta
    ``train`` writes for a default config."""
    return Path(__file__).parent / "fixtures" / f"ckpt_v1_{preset}.txt"


def saved_lines(tmp_path, preset="GIN_SumPool", hidden=4):
    """The path and lines of a fresh checkpoint."""
    cfg = nn.preset_config(preset, hidden=hidden)
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, nn.init_params(cfg, 0), cfg, {})
    return path, path.read_text().splitlines()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCheckpointVersions:
    def test_v2_records_preset_and_hidden(self, tmp_path):
        _, lines = saved_lines(tmp_path, "3GCN+GAT")
        assert lines[:4] == ["# epigraph-ckpt v2", "config preset 3GCN+GAT",
                             "config hidden 4", "step 0"]

    @pytest.mark.parametrize("preset", nn.PRESET_NAMES)
    def test_v1_preset_loads_as_the_v2_it_rewrites_to(self, preset, tmp_path):
        v1 = v1_fixture(preset)
        params, cfg, meta = nn.load_checkpoint(v1)
        assert cfg == nn.preset_config(preset, hidden=4)
        v2 = tmp_path / "model.ckpt"
        nn.save_checkpoint(v2, params, cfg, meta)
        # only the header and the config records differ
        old, new = v1.read_text().splitlines(), v2.read_text().splitlines()
        assert old[4:] == new[3:]
        assert new[:3] == ["# epigraph-ckpt v2", f"config preset {preset}",
                           "config hidden 4"]
        params2, cfg2, meta2 = nn.load_checkpoint(v2)
        assert cfg2 == cfg and meta2 == meta and params2.step == params.step == 2
        for flat, flat2 in ((params.flat, params2.flat), (params.flat_m, params2.flat_m),
                            (params.flat_v, params2.flat_v)):
            assert np.array_equal(bits(flat), bits(flat2))
        gt = random_graph(40)
        out, _ = nn.model_forward(gt, params, cfg)
        out2, _ = nn.model_forward(gt, params2, cfg2)
        assert out.q.tobytes() == out2.q.tobytes()
        assert out.t_dir.tobytes() == out2.t_dir.tobytes() and out.t_raw == out2.t_raw

    # (fixture, line index, replacement): a v1 stack that spells no preset
    NOT_A_PRESET = {
        "gcn_sum_pooling": ("3GCN+GAT", 2, "config pooling sum"),
        "none_activation": ("3GCN+GAT", 1, "config layers gcn:6:4:1:none,gcn:4:4:1:relu,"
                                           "gcn:4:4:1:relu,gat:4:4:4:relu"),
        "warp_kind": ("3GCN+GAT", 1, "config layers warp:6:4:1:relu,gcn:4:4:1:relu,"
                                     "gcn:4:4:1:relu,gat:4:4:4:relu"),
        "gat_heads": ("GAT+2GCN", 1, "config layers gat:6:4:2:relu,gcn:4:4:1:relu,"
                                     "gcn:4:4:1:relu"),
        "other_hidden": ("GIN_SumPool", 3, "config hidden 8"),
        "gin_mean_pooling": ("GIN_SumPool", 2, "config pooling mean"),
    }

    @pytest.mark.parametrize("case", list(NOT_A_PRESET))
    def test_v1_stack_that_spells_no_preset_is_refused(self, case, tmp_path):
        preset, at, replacement = self.NOT_A_PRESET[case]
        lines = v1_fixture(preset).read_text().splitlines()
        lines[at] = replacement
        path = write_lines(tmp_path / "model.ckpt", lines)
        # a changed hidden leaves the layer line spelling another width
        line = 2 if case == "other_hidden" else at + 1
        with pytest.raises(SchemaVersionError, match=f"^line {line}: v1 "):
            nn.load_checkpoint(path)

    # widths no tensor record of a hidden-4 checkpoint matches; the first is
    # too wide for numpy to allocate, the second would take seconds to draw
    @pytest.mark.parametrize("hidden", ["9" * 30, "100000"])
    def test_hidden_no_tensor_matches_names_the_first_tensor(self, hidden, tmp_path):
        path, lines = saved_lines(tmp_path)
        lines[2] = f"config hidden {hidden}"
        write_lines(path, lines)
        # L0.eps is a scalar at every width; L0.W1 is (6, hidden)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("tensor L0.W1 "))
        with pytest.raises(FormatError, match=f"^line {at + 1}: tensor L0.W1 has shape"):
            nn.load_checkpoint(path)

    def test_loading_draws_no_weights(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew weights")

        path, _ = saved_lines(tmp_path, "3GCN+GAT")
        monkeypatch.setattr(nn, "init_params", refuse)
        monkeypatch.setattr(nn, "_glorot", refuse)
        for ckpt in (path, v1_fixture("GIN_SumPool")):
            params, _, _ = nn.load_checkpoint(ckpt)
            assert params.flat.size > 0

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_unknown_config_record_names_its_line(self, tmp_path, version):
        if version == "v1":
            lines = v1_fixture("GIN_SumPool").read_text().splitlines()
            lines.insert(4, "config heads 1")
        else:
            _, lines = saved_lines(tmp_path)
            lines.insert(3, "config pooling sum")
        path = write_lines(tmp_path / "model.ckpt", lines)
        with pytest.raises(FormatError, match="^line [45]: unknown config record"):
            nn.load_checkpoint(path)

    def test_unknown_v2_preset_names_its_line(self, tmp_path):
        path, lines = saved_lines(tmp_path)
        lines[1] = "config preset GIN_MeanPool"
        write_lines(path, lines)
        with pytest.raises(FormatError, match="^line 2: unknown preset 'GIN_MeanPool'"):
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
