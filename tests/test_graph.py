import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigraph.epipolar import canonicalize_essential, estimate_E0
from epigraph.errors import EmptyGraphError, InvalidInputError
from epigraph.geom import Intrinsics, Pose, quat_from_axis_angle
from epigraph.graph import (
    EpipolarGraph,
    _knn_lists,
    _pairwise_distances,
    GraphParams,
    build_edges,
    build_graph,
    median_kth_distance,
    sampson_filter,
)
from epigraph.synth import CorrespondenceSet, generate_scene
from helpers import essential_from_pose, stress_scene

WIDE_FOV = Intrinsics(100.0, 100.0, 320.0, 240.0)


def small_pose(seed=0, rot_deg=6.0, t=(0.3, 0.1, 0.5)):
    rng = np.random.default_rng(seed)
    return Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(rot_deg)),
                np.array(t, dtype=float))


def brute_force_knn(coords, k):
    """Independent all-pairs oracle with the (distance, index) tie rule."""
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    edges = set()
    for i in range(n):
        cand = sorted((np.linalg.norm(coords[i] - coords[j]), j)
                      for j in range(n) if j != i)
        for _, j in cand[:k]:
            edges.add((i, j))
    return edges


def triples(edges):
    """An Edges' (src, dst, weight) tuples, for set and list comparisons."""
    return list(zip(edges.src.tolist(), edges.dst.tolist(), edges.weight.tolist()))


class TestBuildEdges:
    collinear = np.array([[0.0, 0, 1], [1.0, 0, 1], [3.0, 0, 1]])

    def test_three_collinear_hard(self):
        edges = triples(build_edges(self.collinear, "hard", k=1))
        assert {(s, d) for s, d, _ in edges} == {(0, 1), (1, 0), (2, 1)}
        assert all(w == 1.0 for _, _, w in edges)

    def test_three_collinear_mutual(self):
        edges = triples(build_edges(self.collinear, "mutual", k=1))
        assert {(s, d) for s, d, _ in edges} == {(0, 1), (1, 0)}

    def test_random_cloud_against_oracle(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(100, 3))
        hard = {(s, d) for s, d, _ in triples(build_edges(coords, "hard", k=5))}
        assert hard == brute_force_knn(coords, 5)
        mutual = {(s, d) for s, d, _ in triples(build_edges(coords, "mutual", k=5))}
        assert mutual <= hard
        assert mutual == {(s, d) for (s, d) in hard if (d, s) in hard}
        r = 0.4
        for s, d, w in triples(build_edges(coords, "radius", radius=r)):
            assert np.linalg.norm(coords[s] - coords[d]) < r
            assert w == 1.0

    def test_soft_weights_in_unit_interval(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(50, 3))
        soft = triples(build_edges(coords, "soft", k=6))
        hard = {(s, d) for s, d, _ in triples(build_edges(coords, "hard", k=6))}
        assert {(s, d) for s, d, _ in soft} == hard
        ws = [w for _, _, w in soft]
        assert min(ws) > 0.0 and max(ws) <= 1.0

    def test_k_superset_monotonicity(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(40, 3))
        e4 = {(s, d) for s, d, _ in triples(build_edges(coords, "hard", k=4))}
        e7 = {(s, d) for s, d, _ in triples(build_edges(coords, "hard", k=7))}
        assert e4 <= e7

    def test_single_point_empty(self):
        edges = build_edges(np.array([[0.0, 0, 1]]), "hard", k=3)
        assert len(edges) == 0 and len(edges.dst) == 0 and len(edges.weight) == 0

    def test_k_clamped_with_warning(self):
        coords = np.array([[0.0, 0, 1], [1.0, 0, 1], [2.0, 0, 1]])
        with pytest.warns(UserWarning, match="clamped"):
            edges = build_edges(coords, "hard", k=10)
        assert {(s, d) for s, d, _ in triples(edges)} == brute_force_knn(coords, 2)

    def test_no_self_loops(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(30, 3))
        for variant, kw in (("hard", {"k": 6}), ("soft", {"k": 6}),
                            ("mutual", {"k": 6}), ("radius", {"radius": 5.0})):
            edges = build_edges(coords, variant, **kw)
            assert not np.any(edges.src == edges.dst)

    def test_bad_arguments(self):
        coords = np.zeros((5, 3))
        with pytest.raises(InvalidInputError):
            build_edges(coords, "hard", k=0)
        with pytest.raises(InvalidInputError):
            build_edges(coords, "radius", radius=0.0)
        with pytest.raises(InvalidInputError):
            build_edges(coords, "banana", k=3)



def knn_lexsort_reference(D, k):
    """Per-row lexsort on (distance, index) over the other points."""
    idx = np.arange(len(D))
    out = []
    for i in range(len(D)):
        others = idx[idx != i]
        out.append(others[np.lexsort((others, D[i, others]))[:k]])
    return np.array(out)


@st.composite
def tied_clouds(draw):
    """Small clouds on a coarse grid, so many distances tie exactly, and a
    k in 1..N-1."""
    n = draw(st.integers(2, 40))
    cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 0.25]))
    coords = np.column_stack([np.array(cells, dtype=float) * scale, np.ones(n)])
    return coords, draw(st.integers(1, n - 1))


class TestVectorizedKnn:
    @settings(max_examples=200, deadline=None)
    @given(tied_clouds())
    def test_knn_lists_match_lexsort_on_ties(self, case):
        coords, k = case
        D = _pairwise_distances(coords)
        assert np.array_equal(_knn_lists(D, k), knn_lexsort_reference(D, k))

    def test_knn_lists_match_lexsort_on_rounded_scene(self):
        corr = generate_scene(60, 200, (3, 10), small_pose(60), outlier_fraction=0.3)
        X1, _ = corr.normalized_points()
        for decimals in (1, 2, 8):
            D = _pairwise_distances(np.round(X1, decimals))
            for k in (1, 6, 30):
                assert np.array_equal(_knn_lists(D, k), knn_lexsort_reference(D, k))

    def test_pairwise_distances_bitwise(self):
        rng = np.random.default_rng(61)
        coords = rng.normal(size=(70, 3))
        diff = coords[:, None, :] - coords[None, :, :]
        assert np.array_equal(_pairwise_distances(coords),
                              np.sqrt((diff ** 2).sum(axis=2)))

    def test_edge_lists_keep_row_major_order(self):
        rng = np.random.default_rng(62)
        coords = np.round(rng.normal(size=(40, 3)), 1)
        D = _pairwise_distances(coords)
        nbrs = knn_lexsort_reference(D, 5)
        hard = build_edges(coords, "hard", k=5)
        assert triples(hard) == [(i, int(j), 1.0) for i in range(40) for j in nbrs[i]]
        mutual = build_edges(coords, "mutual", k=5)
        assert triples(mutual) == [(i, int(j), 1.0) for i in range(40) for j in nbrs[i]
                                   if i in nbrs[j]]
        for e in (hard, mutual, build_edges(coords, "soft", k=5)):
            assert e.src.dtype.kind == e.dst.dtype.kind == "i"
            assert e.weight.dtype == np.float64

class TestSampsonFilter:
    def test_noiseless_inliers_all_kept(self):
        pose = small_pose(5)
        corr = generate_scene(6, 100, (3, 10), pose)
        kept = sampson_filter(corr, essential_from_pose(pose), 1e-4)
        assert np.array_equal(kept, np.arange(100))

    def test_outlier_rejection_rate(self):
        # >= 99% of uniform outliers rejected at tau = 1e-4 over 10^4 pairs
        # (wide-FOV geometry; the narrow-FOV default is ledgered)
        pose = small_pose(7, rot_deg=3.0, t=(0.0, 0.4, 0.2))
        corr = generate_scene(8, 10000, (3, 10), pose, intrinsics=WIDE_FOV,
                              outlier_fraction=0.7)
        kept = sampson_filter(corr, essential_from_pose(pose), 1e-4)
        outliers = set(np.nonzero(corr.confidence < 1.0)[0].tolist())
        false_kept = len(outliers & set(kept.tolist()))
        assert false_kept / len(outliers) < 0.01

    def test_exact_predicate(self):
        from epigraph.geom import sampson_distances
        pose = small_pose(9)
        corr = generate_scene(10, 300, (3, 10), pose, noise_px=2.0,
                              outlier_fraction=0.4)
        E0 = canonicalize_essential(essential_from_pose(pose))
        tau = 1e-4
        kept = set(sampson_filter(corr, E0, tau).tolist())
        X1, X2 = corr.normalized_points()
        d = sampson_distances(X1, X2, E0)
        for i in range(len(corr)):
            assert (i in kept) == (d[i] < tau)

    def test_infinite_tau_identity(self):
        corr = generate_scene(11, 25, (3, 10), small_pose(11))
        kept = sampson_filter(corr, np.eye(3), np.inf)
        assert np.array_equal(kept, np.arange(25))

    def test_zero_survivors(self):
        corr = generate_scene(12, 20, (3, 10), small_pose(12))
        wrong_E = essential_from_pose(Pose([1, 0, 0, 0], [1.0, 0, 0]))
        with pytest.raises(EmptyGraphError):
            sampson_filter(corr, wrong_E, 1e-18)

    def test_tau_must_be_positive(self):
        corr = generate_scene(13, 20, (3, 10), small_pose(13))
        with pytest.raises(InvalidInputError):
            sampson_filter(corr, np.eye(3), 0.0)


class TestBuildGraph:
    def test_noiseless_all_kept_out_degree_six(self):
        corr = generate_scene(14, 50, (3, 10), small_pose(14))
        g = build_graph(corr, params=GraphParams(k=6))
        assert g.n_nodes == 50
        assert np.array_equal(np.bincount(g.edges.src, minlength=50), np.full(50, 6))
        assert np.array_equal(g.kept_indices, np.arange(50))

    def test_stress_preset_node_counts(self):
        # 200 pairs at 30% inliers: N stays within [0.9, 1.1] x 60 over 20
        # seeds (wide-FOV geometry keeps chance passes rare)
        pose = small_pose(15, rot_deg=3.0, t=(0.1, 0.4, 0.3))
        for seed in range(20):
            corr = stress_scene(seed, pose, n_points=200, intrinsics=WIDE_FOV)
            g = build_graph(corr)
            assert 0.9 * 60 <= g.n_nodes <= 1.1 * 60

    def test_duplicates_stay_distinct(self):
        corr = generate_scene(16, 30, (3, 10), small_pose(16))
        dup = CorrespondenceSet(
            np.vstack([corr.p1, corr.p1[:2]]), np.vstack([corr.p2, corr.p2[:2]]),
            np.concatenate([corr.confidence, corr.confidence[:2]]),
            corr.intrinsics, corr.width, corr.height, corr.gt_relative)
        g = build_graph(dup)
        assert g.n_nodes == 32
        assert np.array_equal(g.node_features[30], g.node_features[0])

    def test_homogeneous_feature_columns(self):
        corr = generate_scene(17, 40, (3, 10), small_pose(17))
        g = build_graph(corr)
        assert np.all(g.node_features[:, 2] == 1.0)
        assert np.all(g.node_features[:, 5] == 1.0)

    def test_permutation_covariance(self):
        corr = generate_scene(18, 40, (3, 10), small_pose(18))
        rng = np.random.default_rng(18)
        perm = rng.permutation(40)
        shuffled = CorrespondenceSet(corr.p1[perm], corr.p2[perm],
                                     corr.confidence[perm], corr.intrinsics,
                                     corr.width, corr.height, corr.gt_relative)
        E0 = essential_from_pose(corr.gt_relative)
        g = build_graph(corr, params=GraphParams(), E0=E0)
        h = build_graph(shuffled, params=GraphParams(), E0=E0)
        assert h.n_nodes == g.n_nodes
        # node for original correspondence i sits at position inv[i] in h
        inv = np.empty(40, dtype=int)
        inv[perm] = np.arange(40)
        assert np.array_equal(np.sort(perm[h.kept_indices]), np.sort(g.kept_indices))
        mapped = {(int(perm[h.kept_indices[s]]), int(perm[h.kept_indices[d]]), w)
                  for s, d, w in triples(h.edges)}
        orig = {(int(g.kept_indices[s]), int(g.kept_indices[d]), w)
                for s, d, w in triples(g.edges)}
        assert mapped == orig

    def test_metadata_recorded(self):
        corr = generate_scene(19, 60, (3, 10), small_pose(19))
        g = build_graph(corr, params=GraphParams(variant="radius"))
        assert g.meta["variant"] == "radius"
        assert g.meta["radius"] is not None and g.meta["radius"] > 0
        assert g.meta["e0"].shape == (3, 3)

    def test_radius_default_is_median_kth(self):
        corr = generate_scene(20, 60, (3, 10), small_pose(20))
        g = build_graph(corr, params=GraphParams(variant="radius", k=6),
                        E0=essential_from_pose(corr.gt_relative))
        X1, _ = corr.normalized_points()
        expect = median_kth_distance(X1[g.kept_indices], 6)
        assert np.isclose(g.meta["radius"], expect)

    def test_k_clamped(self):
        # 40 matches, 28 of them inliers that survive the filter under the true E
        corr = generate_scene(22, 40, (3, 10), small_pose(22), outlier_fraction=0.3)
        E0 = essential_from_pose(corr.gt_relative)

        def build(variant, k):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return build_graph(corr, GraphParams(k=k, variant=variant), E0=E0)

        m = len(build("hard", 6).kept_indices)
        assert 2 <= m < len(corr)
        for variant in ("hard", "soft", "mutual"):
            assert not build(variant, m - 1).meta["k_clamped"]
            for k in (m, len(corr) - 1):
                g = build(variant, k)
                assert g.meta["k_clamped"] and g.meta["k"] == k
                # the edges of k = m - 1, which is what the clamp gives
                want = build(variant, m - 1).edges
                assert all(np.array_equal(getattr(g.edges, a), getattr(want, a))
                           for a in ("src", "dst", "weight"))
        assert not build("radius", m).meta["k_clamped"]
        assert not build("radius", len(corr) - 1).meta["k_clamped"]
        for variant in ("hard", "soft", "radius", "mutual"):
            for k in (len(corr), len(corr) + 5):
                assert build(variant, k).meta["k_clamped"]

    def test_points_normalized_once(self, monkeypatch):
        corr = generate_scene(23, 120, (3, 10), small_pose(23), noise_px=0.5,
                              outlier_fraction=0.3)
        E0 = estimate_E0(corr)
        kept = sampson_filter(corr, E0, 1e-4)
        calls, real = [], corr.normalized_points
        monkeypatch.setattr(corr, "normalized_points", lambda: calls.append(1) or real())
        g = build_graph(corr)
        # E0 and the kept set are those of the calls that normalize on their own
        assert len(calls) == 1
        assert np.array_equal(g.meta["e0"], E0)
        assert np.array_equal(g.kept_indices, kept)

    def test_too_few_for_e0(self):
        from epigraph.errors import InsufficientCorrespondencesError
        corr = generate_scene(21, 7, (3, 10), small_pose(21))
        with pytest.raises(InsufficientCorrespondencesError):
            build_graph(corr)
