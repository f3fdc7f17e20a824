import numpy as np
import pytest

from epigraph import epipolar
from epigraph.epipolar import (
    _cheirality_counts,
    build_constraint_matrix,
    canonicalize_essential,
    cheirality_select,
    decompose_essential,
    estimate_E0,
    project_to_essential,
    recover_pose,
    solve_eight_point,
    triangulate_dlt,
)
from epigraph.errors import (
    AmbiguousCheiralityError,
    DegenerateGeometryError,
    InsufficientCorrespondencesError,
    InvalidEssentialError,
    InvalidInputError,
)
from epigraph.geom import Pose, essential_from_pose, quat_from_axis_angle, sampson_distances
from epigraph.synth import DEFAULT_INTRINSICS, generate_scene, stress_scene


def small_pose(seed=0, rot_deg=6.0, t=(0.3, 0.1, 0.5)):
    rng = np.random.default_rng(seed)
    return Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(rot_deg)),
                np.array(t, dtype=float))


def scene_points(pose, seed=0, n=60, noise=0.0):
    corr = generate_scene(seed, n, (3.0, 10.0), pose, noise_px=noise)
    return corr.normalized_points()


def e_gap(Ea, Eb):
    """Frobenius distance up to the overall sign."""
    return min(np.linalg.norm(Ea - Eb), np.linalg.norm(Ea + Eb))


class TestConstraintMatrix:
    def test_rows_encode_residuals(self):
        rng = np.random.default_rng(0)
        X1 = np.column_stack([rng.normal(size=(10, 2)), np.ones(10)])
        X2 = np.column_stack([rng.normal(size=(10, 2)), np.ones(10)])
        A = build_constraint_matrix((X1, X2))
        E = rng.normal(size=(3, 3))
        resid = np.array([x2 @ E @ x1 for x1, x2 in zip(X1, X2)])
        assert np.abs(A @ E.ravel() - resid).max() < 1e-12

    def test_annihilates_ground_truth(self):
        pose = small_pose(1)
        X1, X2 = scene_points(pose, seed=2, n=8)
        A = build_constraint_matrix((X1, X2))
        E = essential_from_pose(pose)
        assert np.abs(A @ E.ravel()).max() < 1e-10

    def test_duplicate_rows_keep_rank(self):
        pose = small_pose(3)
        X1, X2 = scene_points(pose, seed=4, n=10)
        A = build_constraint_matrix((X1, X2))
        A_dup = build_constraint_matrix((np.vstack([X1, X1[:3]]),
                                         np.vstack([X2, X2[:3]])))
        assert np.linalg.matrix_rank(A_dup) == np.linalg.matrix_rank(A)

    def test_all_points_at_principal_point_rank_one(self):
        X = np.tile([0.0, 0.0, 1.0], (8, 1))
        A = build_constraint_matrix((X, X))
        assert np.linalg.matrix_rank(A) == 1

    def test_too_few_pairs(self):
        X = np.tile([0.0, 0.0, 1.0], (7, 1))
        with pytest.raises(InsufficientCorrespondencesError):
            build_constraint_matrix((X, X))

    def test_stack_matches_per_set_matrices(self):
        rng = np.random.default_rng(12)
        S1 = np.concatenate([rng.normal(size=(5, 9, 2)), np.ones((5, 9, 1))], axis=2)
        S2 = np.concatenate([rng.normal(size=(5, 9, 2)), np.ones((5, 9, 1))], axis=2)
        A = build_constraint_matrix((S1, S2))
        assert A.shape == (5, 9, 9)
        assert np.array_equal(A, np.einsum("sni,snj->snij", S2, S1).reshape(5, 9, 9))
        for s in range(5):
            assert np.array_equal(A[s], build_constraint_matrix((S1[s], S2[s])))
        with pytest.raises(InsufficientCorrespondencesError):
            build_constraint_matrix((S1[:, :7], S2[:, :7]))

    def test_nullspace_fidelity_noiseless(self):
        pose = small_pose(5)
        X1, X2 = scene_points(pose, seed=6, n=40)
        A = build_constraint_matrix((X1, X2))
        s = np.linalg.svd(A, compute_uv=False)
        assert s[-1] < 1e-8 * s[0]
        E = solve_eight_point((X1, X2))
        assert np.abs(A @ E.ravel()).max() < 1e-6


class TestSolveEightPoint:
    def test_noiseless_recovery(self):
        pose = small_pose(7)
        X1, X2 = scene_points(pose, seed=8, n=30)
        E = solve_eight_point((X1, X2))
        E_gt = canonicalize_essential(essential_from_pose(pose))
        assert e_gap(E, E_gt) < 1e-6

    def test_exactly_eight_points(self):
        pose = small_pose(9)
        X1, X2 = scene_points(pose, seed=10, n=8)
        E = solve_eight_point((X1, X2))
        E_gt = canonicalize_essential(essential_from_pose(pose))
        assert e_gap(E, E_gt) < 1e-6

    def test_noise_monte_carlo_median(self):
        # 0.5 px noise at f = 500; independent Monte-Carlo oracle over 100 trials
        errs = []
        for trial in range(100):
            pose = small_pose(trial, rot_deg=6.0, t=(0.53, 0.2, 0.8))  # |t| = 1
            corr = generate_scene(1000 + trial, 100, (3.0, 8.0), pose,
                                  DEFAULT_INTRINSICS, noise_px=0.5)
            X1, X2 = corr.normalized_points()
            E = solve_eight_point((X1, X2))
            E_gt = canonicalize_essential(essential_from_pose(pose))
            errs.append(e_gap(E, E_gt))
        assert np.median(errs) < 1e-2

    def test_pure_rotation_coplanar_degenerate(self):
        # fronto-parallel plane, zero translation: no essential solution
        R = np.array(Pose(quat_from_axis_angle([0, 0, 1], 0.2), [0, 0, 0]).rotation())
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-0.5, 0.5, 20),
                               rng.uniform(-0.5, 0.5, 20), np.full(20, 5.0)])
        X1 = pts / pts[:, 2:3]
        X2p = (R @ pts.T).T
        X2 = X2p / X2p[:, 2:3]
        with pytest.raises(DegenerateGeometryError):
            solve_eight_point((X1, X2))

    def test_unit_frobenius_and_sign(self):
        pose = small_pose(12)
        E = solve_eight_point(scene_points(pose, seed=13, n=25))
        assert abs(np.linalg.norm(E) - 1.0) < 1e-12
        flat = E.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0


class TestProjectToEssential:
    def test_fixed_point(self):
        E = essential_from_pose(small_pose(14))
        assert np.abs(project_to_essential(E) - E).max() < 1e-10

    def test_identity_matrix(self):
        P = project_to_essential(np.eye(3))
        s = np.linalg.svd(P, compute_uv=False)
        assert np.allclose(s, [1, 1, 0], atol=1e-12)

    def test_random_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            M = rng.normal(size=(3, 3))
            P = project_to_essential(M)
            s = np.linalg.svd(P, compute_uv=False)
            assert abs(s[0] - s[1]) < 1e-10 and s[2] < 1e-10
            assert np.abs(project_to_essential(P) - P).max() < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            project_to_essential(np.zeros((3, 3)))


class TestDecomposeEssential:
    def test_known_pose_in_candidates(self):
        E = essential_from_pose(Pose([1, 0, 0, 0], [0, 0, 1]))
        cands = decompose_essential(E)
        hits = [c for c in cands
                if np.abs(c.rotation() - np.eye(3)).max() < 1e-8
                and np.abs(c.t - [0, 0, 1]).max() < 1e-8]
        assert len(hits) == 1

    def test_translations_antipodal(self):
        E = essential_from_pose(small_pose(16))
        cands = decompose_essential(E)
        ts = np.array([c.t for c in cands])
        assert np.allclose(ts[0], -ts[1], atol=1e-12)
        assert np.allclose(ts[2], -ts[3], atol=1e-12)

    def test_ground_truth_among_candidates(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            pose = small_pose(trial, rot_deg=rng.uniform(1, 30))
            t_unit = pose.t / np.linalg.norm(pose.t)
            E = essential_from_pose(pose)
            cands = decompose_essential(E)
            best = min(np.abs(c.rotation() - pose.rotation()).max()
                       + np.abs(c.t - t_unit).max() for c in cands)
            assert best < 1e-6

    def test_compose_consistency(self):
        pose = small_pose(18)
        E = canonicalize_essential(essential_from_pose(pose))
        for cand in decompose_essential(E):
            Ec = canonicalize_essential(essential_from_pose(cand))
            assert e_gap(Ec, E) < 1e-6

    def test_non_essential_rejected(self):
        with pytest.raises(InvalidEssentialError):
            decompose_essential(np.eye(3))
        with pytest.raises(InvalidEssentialError):
            decompose_essential(np.zeros((3, 3)))


class TestCheirality:
    def test_noiseless_scene_selects_ground_truth(self):
        pose = small_pose(19)
        X1, X2 = scene_points(pose, seed=20, n=40)
        cands = decompose_essential(essential_from_pose(pose))
        sel = cheirality_select(cands, (X1, X2))
        assert np.abs(sel.rotation() - pose.rotation()).max() < 1e-6
        assert np.abs(sel.t - pose.t / np.linalg.norm(pose.t)).max() < 1e-6

    def test_tie_raises_with_candidates(self):
        pose = small_pose(21)
        X1, X2 = scene_points(pose, seed=22, n=5)
        unit = Pose(pose.q, pose.t / np.linalg.norm(pose.t))
        with pytest.raises(AmbiguousCheiralityError) as exc:
            cheirality_select([unit, unit], (X1, X2))
        assert len(exc.value.candidates) == 2

    def test_single_correspondence_contract(self):
        # some maximal-count candidate is returned even with one point
        pose = small_pose(23)
        X1, X2 = scene_points(pose, seed=24, n=1)
        cands = decompose_essential(essential_from_pose(pose))
        try:
            sel = cheirality_select(cands, (X1, X2))
            assert any(np.abs(sel.matrix() - c.matrix()).max() < 1e-12 for c in cands)
        except AmbiguousCheiralityError as e:
            assert len(e.candidates) >= 2

    def test_requires_a_correspondence(self):
        cands = decompose_essential(essential_from_pose(small_pose(25)))
        with pytest.raises(InsufficientCorrespondencesError):
            cheirality_select(cands, (np.zeros((0, 3)), np.zeros((0, 3))))


def test_end_to_end_recovery_tight():
    from epigraph.metrics import dre, dte
    pose = small_pose(26)
    X1, X2 = scene_points(pose, seed=27, n=50)
    sel = recover_pose((X1, X2))
    assert dre(sel.rotation(), pose.rotation()) < 1e-4
    assert dte(sel.t, pose.t) < 1e-4


class TestEstimateE0:
    def test_outlier_heavy_confidence_seeded(self):
        pose = small_pose(28)
        corr = generate_scene(29, 120, (3.0, 10.0), pose, outlier_fraction=0.7)
        E0 = estimate_E0(corr, seed=0)
        E_gt = canonicalize_essential(essential_from_pose(pose))
        assert e_gap(E0, E_gt) < 1e-4

    def test_all_inliers_matches_full_solve(self):
        pose = small_pose(30)
        corr = generate_scene(31, 60, (3.0, 10.0), pose)
        E0 = estimate_E0(corr, seed=5)
        E_full = solve_eight_point(corr.normalized_points())
        assert e_gap(E0, E_full) < 1e-6

    def test_seven_correspondences_rejected(self):
        pose = small_pose(32)
        corr = generate_scene(33, 7, (3.0, 10.0), pose)
        with pytest.raises(InsufficientCorrespondencesError):
            estimate_E0(corr)

    def test_deterministic_given_seed(self):
        pose = small_pose(34)
        corr = generate_scene(35, 80, (3.0, 10.0), pose, outlier_fraction=0.5)
        a = estimate_E0(corr, seed=3)
        b = estimate_E0(corr, seed=3)
        assert np.array_equal(a, b)


def test_canonicalize_scale_and_sign():
    rng = np.random.default_rng(36)
    M = rng.normal(size=(3, 3))
    C = canonicalize_essential(M)
    assert abs(np.linalg.norm(C) - 1.0) < 1e-12
    assert np.allclose(canonicalize_essential(-3.7 * M), C, atol=1e-12)
    with pytest.raises(InvalidInputError):
        canonicalize_essential(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Stacked forms against scalar references
# ---------------------------------------------------------------------------

def dlt_reference(x1, x2, R, t):
    """One point at a time: the DLT system and its SVD as written per point."""
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, np.asarray(t, dtype=float).reshape(3, 1)])
    A = np.array([x1[0] * P1[2] - P1[0], x1[1] * P1[2] - P1[1],
                  x2[0] * P2[2] - P2[0], x2[1] * P2[2] - P2[1]])
    X = np.linalg.svd(A)[2][-1]
    return np.full(3, np.inf) if abs(X[3]) < 1e-15 else X[:3] / X[3]


class TestTriangulateBatch:
    def test_batch_matches_per_point_loop(self):
        pose = small_pose(40)
        X1, X2 = scene_points(pose, seed=41, n=50, noise=1.0)
        # parallel rays: the first point seen along the same direction in
        # both views with R = I triangulates to infinity (w -> 0)
        X2 = X2.copy()
        X2[0] = X1[0]
        R = np.eye(3)
        t = np.array([0.4, 0.1, 0.2])
        ref = np.array([dlt_reference(a, b, R, t) for a, b in zip(X1, X2)])
        assert np.all(np.isinf(ref[0]))
        batch = triangulate_dlt(X1, X2, R, t)
        assert batch.shape == (50, 3)
        assert np.array_equal(batch, ref)
        for i in (0, 7, 49):
            assert np.array_equal(triangulate_dlt(X1[i], X2[i], R, t), ref[i])

    def test_single_point_shape(self):
        pose = small_pose(42)
        X1, X2 = scene_points(pose, seed=43, n=1)
        X = triangulate_dlt(X1[0], X2[0], pose.rotation(), pose.t)
        assert X.shape == (3,)

    def test_cheirality_counts_match_per_point_loop(self):
        pose = small_pose(44, rot_deg=10.0)
        corr = generate_scene(45, 80, (3.0, 10.0), pose, noise_px=1.0,
                              outlier_fraction=0.4)
        X1, X2 = corr.normalized_points()
        cands = decompose_essential(solve_eight_point((X1, X2)))
        counts = []
        for c in cands:
            R, t = c.rotation(), c.t
            good = 0
            for x1, x2 in zip(X1, X2):
                X = dlt_reference(x1, x2, R, t)
                if np.all(np.isfinite(X)) and X[2] > 0 and (R @ X + t)[2] > 0:
                    good += 1
            counts.append(good)
        assert counts.count(max(counts)) == 1
        sel = cheirality_select(cands, (X1, X2))
        assert sel is cands[counts.index(max(counts))]


def four_solve_counts(candidates, X1, X2):
    """Cheirality counts with every candidate triangulated on its own: the
    reference that scoring (R, -t) from the points of (R, t) must match."""
    counts = []
    for cand in candidates:
        R = cand.rotation()
        X = triangulate_dlt(X1, X2, R, cand.t)
        X = X[np.isfinite(X).all(axis=1)]
        z2 = X @ R[2] + cand.t[2]
        counts.append(int(np.count_nonzero((X[:, 2] > 0) & (z2 > 0))))
    return counts


def assert_matches_four_solve(candidates, X1, X2):
    """Counts, the chosen candidate (by identity) and a tie's candidate
    list all agree with the four-solve oracle."""
    counts = four_solve_counts(candidates, X1, X2)
    assert _cheirality_counts(candidates, X1, X2) == counts
    winners = [c for c, n in zip(candidates, counts) if n == max(counts)]
    if len(winners) == 1:
        assert cheirality_select(candidates, (X1, X2)) is winners[0]
    else:
        with pytest.raises(AmbiguousCheiralityError) as exc:
            cheirality_select(candidates, (X1, X2))
        assert len(exc.value.candidates) == len(winners)
        assert all(a is b for a, b in zip(exc.value.candidates, winners))
    return counts


class TestPairedCheirality:
    """(R, -t) scored from the points of (R, t) against the four-solve
    oracle."""

    def test_stress_scenes(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            t = rng.normal(size=3)
            pose = Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(5.0)),
                        0.7 * t / np.linalg.norm(t))
            X1, X2 = stress_scene(seed, pose, n_points=200).normalized_points()
            for E in (essential_from_pose(pose), solve_eight_point((X1, X2))):
                assert_matches_four_solve(decompose_essential(E), X1, X2)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_noisy_pairs_with_outliers(self, seed):
        rng = np.random.default_rng(seed)
        for i in range(20):
            pose = Pose(quat_from_axis_angle(rng.normal(size=3),
                                             np.deg2rad(rng.uniform(1, 20))),
                        rng.normal(size=3))
            corr = generate_scene(1000 * seed + i, 200, (3.0, 10.0), pose,
                                  noise_px=0.5, outlier_fraction=0.3)
            X1, X2 = corr.normalized_points()
            cands = decompose_essential(solve_eight_point((X1, X2)))
            counts = assert_matches_four_solve(cands, X1, X2)
            assert_matches_four_solve(cands[::-1], X1, X2)
            # (R, -t) listed before (R, t)
            swapped = [cands[1], cands[0], cands[3], cands[2]]
            assert assert_matches_four_solve(swapped, X1, X2) == [
                counts[1], counts[0], counts[3], counts[2]]

    def test_single_point_and_ties(self):
        pose = small_pose(23)
        X1, X2 = scene_points(pose, seed=24, n=1)
        cands = decompose_essential(essential_from_pose(pose))
        assert_matches_four_solve(cands, X1, X2)
        X1, X2 = scene_points(pose, seed=22, n=5)
        unit = Pose(pose.q, pose.t / np.linalg.norm(pose.t))
        flipped = Pose(unit.q, -unit.t)
        for tied in ([unit, unit], [unit, flipped, unit, flipped],
                     [Pose(pose.q, np.zeros(3))] * 2):
            assert_matches_four_solve(tied, X1, X2)

    def test_two_solves_per_recover_pose(self, monkeypatch):
        calls = []
        real = epipolar.triangulate_dlt

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        eigh_shapes, svd_shapes = [], []
        real_eigh, real_svd = np.linalg.eigh, np.linalg.svd

        def counting_eigh(a):
            eigh_shapes.append(a.shape)
            return real_eigh(a)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(epipolar, "triangulate_dlt", counting)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        X1, X2 = scene_points(small_pose(46), seed=47, n=50, noise=0.5)
        recover_pose((X1, X2))
        assert len(calls) == 2
        # one Gram solve of the eight-point, then one (N, 4, 4) stack per DLT solve
        assert [s for s in eigh_shapes if s[1:] == (9, 9)] == [(1, 9, 9)]
        assert [s for s in eigh_shapes if s[1:] == (4, 4)] == [(50, 4, 4)] * 2
        assert len(eigh_shapes) == 3
        # the set is certified, so A (last axis 9) never goes through an SVD
        assert not [s for s in svd_shapes if s[-1] == 9]

    def test_decompose_converts_each_rotation_once(self, monkeypatch):
        E = essential_from_pose(small_pose(48))
        before = decompose_essential(E)
        calls = []
        real = epipolar.rot_to_quat

        def counting(R):
            calls.append(1)
            return real(R)

        monkeypatch.setattr(epipolar, "rot_to_quat", counting)
        after = decompose_essential(E)
        assert len(calls) == 2
        for a, b in zip(before, after):
            assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
        for a in after:
            for b in after:
                if a is not b:
                    assert not np.shares_memory(a.q, b.q)
                    assert not np.shares_memory(a.t, b.t)


def svd_cheirality_counts(candidates, X1, X2):
    """The vote with every point placed by ``triangulate_dlt``'s SVD, (R, -t)
    scored from the points of (R, t): the reference for the certified
    eigenvector signs."""
    rotations = [cand.rotation() for cand in candidates]
    counts = [None] * len(candidates)
    for i, (cand, R) in enumerate(zip(candidates, rotations)):
        if counts[i] is not None:
            continue
        X = triangulate_dlt(X1, X2, R, cand.t)
        X = X[np.isfinite(X).all(axis=1)]
        z1, z2 = X[:, 2], X @ R[2] + cand.t[2]
        counts[i] = int(np.count_nonzero((z1 > 0) & (z2 > 0)))
        for j in range(i + 1, len(candidates)):
            if (counts[j] is None and np.array_equal(rotations[j], R)
                    and np.array_equal(candidates[j].t, -cand.t)):
                counts[j] = int(np.count_nonzero((z1 < 0) & (z2 < 0)))
    return counts


def epipoles(pose):
    """The view-1 and view-2 epipoles of a pose, as normalized points."""
    R, t = pose.rotation(), pose.t
    e1 = -R.T @ t
    return e1 / e1[2], t / t[2]


class TestCertifiedVote:
    """Counts from the Gram eigenvectors' certified points, with the SVD
    fallback, against the all-SVD reference."""

    def vote(self, monkeypatch, candidates, X1, X2):
        """The counts, and the (u, v) of the view-1 points that went to the
        SVD."""
        expect = svd_cheirality_counts(candidates, X1, X2)
        fell = []
        real = epipolar._svd_points

        def recording(A):
            # the view-1 rows of a DLT system are (-1, 0, u, 0), (0, -1, v, 0)
            fell.extend(zip(A[:, 0, 2], A[:, 1, 2]))
            return real(A)

        monkeypatch.setattr(epipolar, "_svd_points", recording)
        counts = _cheirality_counts(candidates, X1, X2)
        assert counts == expect
        return counts, fell

    @pytest.mark.parametrize("noise,outliers,rot_deg", [
        (0.5, 0.3, 20.0),    # the eval regime
        (2.0, 0.7, 20.0),
    ])
    def test_noisy_scenes(self, monkeypatch, noise, outliers, rot_deg):
        rng = np.random.default_rng(int(10 * noise))
        for i in range(10):
            pose = Pose(quat_from_axis_angle(rng.normal(size=3),
                                             np.deg2rad(rng.uniform(1, rot_deg))),
                        rng.normal(size=3))
            corr = generate_scene(100 + i, 200, (3.0, 10.0), pose, noise_px=noise,
                                  outlier_fraction=outliers)
            X1, X2 = corr.normalized_points()
            self.vote(monkeypatch, decompose_essential(solve_eight_point((X1, X2))),
                      X1, X2)

    def test_wide_baseline(self, monkeypatch):
        pose = Pose(quat_from_axis_angle([0.1, 1.0, 0.0], np.deg2rad(40.0)),
                    [-3.0, 0.2, 1.0])
        corr = generate_scene(110, 200, (3.0, 10.0), pose, noise_px=0.5,
                              outlier_fraction=0.3)
        X1, X2 = corr.normalized_points()
        for E in (essential_from_pose(pose), solve_eight_point((X1, X2))):
            self.vote(monkeypatch, decompose_essential(E), X1, X2)

    def test_point_at_infinity_falls_back(self, monkeypatch):
        # the parallel-ray point of test_batch_matches_per_point_loop
        X1, X2 = scene_points(small_pose(40), seed=41, n=50, noise=1.0)
        X2 = X2.copy()
        X2[0] = X1[0]
        pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), [0.4, 0.1, 0.2])
        assert np.all(np.isinf(triangulate_dlt(X1[0], X2[0], np.eye(3), pose.t)))
        _, fell = self.vote(monkeypatch, [pose, Pose(pose.q, -pose.t)], X1, X2)
        assert tuple(X1[0, :2]) in fell

    def test_points_on_camera_one_plane(self, monkeypatch):
        # a match at the view-2 epipole triangulates to camera 1's centre,
        # where z1 = 0
        pose = small_pose(111)
        X1, X2 = scene_points(pose, seed=112, n=40, noise=0.5)
        X2 = X2.copy()
        X2[:5] = epipoles(pose)[1]
        _, fell = self.vote(monkeypatch, decompose_essential(essential_from_pose(pose)),
                            X1, X2)
        assert {tuple(x) for x in X1[:5, :2]} <= set(fell)

    def test_small_gap_rows_fall_back(self, monkeypatch):
        # matches within 1e-9 of both epipoles: both rays run along the
        # baseline, so the DLT system is nearly rank 2
        pose = small_pose(113)
        X1, X2 = scene_points(pose, seed=114, n=40, noise=0.5)
        X1, X2 = X1.copy(), X2.copy()
        e1, e2 = epipoles(pose)
        rng = np.random.default_rng(115)
        X1[:20] = e1 + np.c_[rng.normal(scale=1e-9, size=(20, 2)), np.zeros(20)]
        X2[:20] = e2 + np.c_[rng.normal(scale=1e-9, size=(20, 2)), np.zeros(20)]
        A = epipolar._dlt_systems(X1[:20], X2[:20], pose.rotation(), pose.t)
        lam = np.linalg.eigvalsh(A.transpose(0, 2, 1) @ A)
        assert np.all((lam[:, 1] - lam[:, 0]) / lam[:, 3] < 1e-12)
        _, fell = self.vote(monkeypatch, [pose, Pose(pose.q, -pose.t)], X1, X2)
        assert {tuple(x) for x in X1[:20, :2]} <= set(fell)

    def test_large_translation_near_camera_two_plane(self, monkeypatch):
        # |t| about 1000 and every point about 1e-4 from camera 2's plane:
        # z2 is tiny next to |t|, so the error that |t| adds to g must keep
        # these rows off the eigenvector
        pose = Pose(quat_from_axis_angle([0.2, 1.0, 0.0], 0.3),
                    -1000.0 * np.array([0.3, 0.2, 1.0]))
        R = pose.rotation()
        rng = np.random.default_rng(122)
        Y = np.c_[rng.uniform(-1, 1, (200, 2)), np.ones(200)] * 1e-4
        X = (Y - pose.t) @ R
        X1, X2 = X / X[:, 2:], Y / Y[:, 2:]
        X1[:, :2] += rng.normal(scale=1e-4, size=(200, 2))
        _, fell = self.vote(monkeypatch, [pose, Pose(pose.q, -pose.t)], X1, X2)
        assert len(fell) > 150

    def test_gram_points_match_the_svd(self):
        pose = small_pose(123)
        X1, X2 = scene_points(pose, seed=124, n=60, noise=1.0)
        X2 = X2.copy()
        X2[0] = X1[0]
        svd = triangulate_dlt(X1, X2, np.eye(3), pose.t)
        gram = triangulate_dlt(X1, X2, np.eye(3), pose.t, gram=True)
        assert np.all(np.isinf(svd[0])) and np.array_equal(gram[0], svd[0])
        np.testing.assert_allclose(gram[1:], svd[1:], rtol=1e-9)
        single = triangulate_dlt(X1[5], X2[5], np.eye(3), pose.t, gram=True)
        assert single.shape == (3,) and np.array_equal(single, gram[5])


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pairs(self, bad):
        pose = small_pose(116)
        X1, X2 = scene_points(pose, seed=117, n=20)
        X1 = X1.copy()
        X1[3, 0] = bad
        cands = decompose_essential(essential_from_pose(pose))
        for call in (lambda: solve_eight_point((X1, X2)),
                     lambda: solve_eight_point((X1[None], X2[None])),
                     lambda: build_constraint_matrix((X1, X2)),
                     lambda: cheirality_select(cands, (X1, X2)),
                     lambda: cheirality_select(cands, (X2, X1)),
                     lambda: recover_pose((X1, X2))):
            with pytest.raises(InvalidInputError, match="pairs"):
                call()

    def test_one_finiteness_check_per_solve(self, monkeypatch):
        calls = []
        check = epipolar._require_finite
        monkeypatch.setattr(epipolar, "_require_finite",
                            lambda name, *a: calls.append(name) or check(name, *a))
        pose = small_pose(122)
        X1, X2 = scene_points(pose, seed=123, n=20)
        solve_eight_point((X1, X2))
        solve_eight_point((X1[None], X2[None]))
        assert calls == ["pairs", "pairs"]
        build_constraint_matrix((X1, X2))
        assert calls == ["pairs", "pairs", "pairs"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_triangulate_arguments(self, bad):
        pose = small_pose(118)
        X1, X2 = scene_points(pose, seed=119, n=10)
        args = {"x1": X1, "x2": X2, "R": pose.rotation(), "t": pose.t}
        for name, a in args.items():
            a = a.copy()
            a.flat[-1] = bad
            with pytest.raises(InvalidInputError, match=f"^{name} "):
                triangulate_dlt(**{**args, name: a})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_candidate_translation(self, bad):
        pose = small_pose(120)
        X1, X2 = scene_points(pose, seed=121, n=10)
        cands = decompose_essential(essential_from_pose(pose))
        cands[2] = Pose(cands[2].q, [0.0, bad, 1.0])
        with pytest.raises(InvalidInputError, match="candidates"):
            cheirality_select(cands, (X1, X2))


class TestNonFiniteEssential:
    """A NaN or infinite essential matrix raises InvalidInputError naming
    E, never numpy's LinAlgError or a NaN result."""

    @staticmethod
    def broken(bad):
        E = canonicalize_essential(essential_from_pose(small_pose(124)))
        single = E.copy()
        single[1, 2] = bad
        return single, np.stack([E, single])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_canonicalize(self, bad):
        single, stack = self.broken(bad)
        for arg in (single, stack):
            with pytest.raises(InvalidInputError, match="^E "):
                canonicalize_essential(arg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_project(self, bad):
        single, stack = self.broken(bad)
        for arg in (single, stack):
            with pytest.raises(InvalidInputError, match="^E "):
                project_to_essential(arg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_decompose(self, bad):
        single, _ = self.broken(bad)
        with pytest.raises(InvalidInputError, match="^E "):
            decompose_essential(single)


def coplanar_pure_rotation(n, seed=11):
    """A fronto-parallel plane seen under zero translation: rank(A) < 8."""
    R = np.array(Pose(quat_from_axis_angle([0, 0, 1], 0.2), [0, 0, 0]).rotation())
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, n),
                           rng.uniform(-0.5, 0.5, n), np.full(n, 5.0)])
    X2p = (R @ pts.T).T
    return pts / pts[:, 2:3], X2p / X2p[:, 2:3]


class TestStackedEightPoint:
    @pytest.mark.parametrize("m", [8, 9, 20])
    def test_stack_matches_per_subset_calls(self, m):
        pose = small_pose(46)
        X1, X2 = scene_points(pose, seed=47, n=60, noise=0.5)
        rng = np.random.default_rng(48)
        idx = np.stack([rng.choice(60, size=m, replace=False) for _ in range(6)])
        S1, S2 = X1[idx], X2[idx]
        # member 2 is rank-deficient, member 4 has all points coinciding
        S1[2], S2[2] = coplanar_pure_rotation(m)
        S1[4] = S2[4] = [0.0, 0.0, 1.0]
        E, ok = solve_eight_point((S1, S2))
        assert E.shape == (6, 3, 3)
        assert ok.tolist() == [True, True, False, True, False, True]
        for s in range(6):
            if ok[s]:
                assert np.array_equal(E[s], solve_eight_point((S1[s], S2[s])))
            else:
                assert not E[s].any()
                with pytest.raises(DegenerateGeometryError):
                    solve_eight_point((S1[s], S2[s]))

    def test_stack_too_few_per_subset(self):
        X = np.tile([0.1, 0.2, 1.0], (3, 7, 1))
        with pytest.raises(InsufficientCorrespondencesError):
            solve_eight_point((X, X))

    def test_sampson_distances_stacked(self):
        pose = small_pose(49)
        X1, X2 = scene_points(pose, seed=50, n=30, noise=1.0)
        rng = np.random.default_rng(51)
        Es = np.stack([essential_from_pose(pose)] + [rng.normal(size=(3, 3))
                                                    for _ in range(3)])
        d = sampson_distances(X1, X2, Es)
        assert d.shape == (4, 30)
        for s in range(4):
            assert np.allclose(d[s], sampson_distances(X1, X2, Es[s]),
                               rtol=1e-12, atol=0)


def e0_reference(corr, tau=1e-4, m=16, iters=32, seed=0):
    """The resample loop one subset at a time, strict > on the inlier count."""
    X1, X2 = corr.normalized_points()
    n = len(X1)
    m = min(m, n)
    order = np.lexsort((np.arange(n), -np.asarray(corr.confidences(), dtype=float)))
    rng = np.random.default_rng(seed)
    subsets = [order[:m]] + [rng.choice(n, size=m, replace=False) for _ in range(iters)]
    best = None
    for idx in subsets:
        try:
            E = solve_eight_point((X1[idx], X2[idx]))
        except DegenerateGeometryError:
            continue
        count = int((sampson_distances(X1, X2, E) < tau).sum())
        if best is None or count > best[0]:
            best = (count, E)
    return best[1]


class TestStackedE0:
    @pytest.mark.parametrize("scene_seed,n,outliers,seed", [
        (29, 120, 0.7, 0),   # the fixtures of TestEstimateE0
        (31, 60, 0.0, 5),
        (35, 80, 0.5, 3),
        (52, 200, 0.3, 1),
        (53, 9, 0.0, 2),     # m clamps to n
    ])
    def test_matches_subset_loop(self, scene_seed, n, outliers, seed):
        corr = generate_scene(scene_seed, n, (3.0, 10.0), small_pose(scene_seed),
                              noise_px=0.5, outlier_fraction=outliers)
        E0 = estimate_E0(corr, seed=seed)
        assert np.allclose(E0, e0_reference(corr, seed=seed), rtol=0, atol=1e-12)

    def test_confidence_seed_wins_ties(self):
        # noiseless inliers only: every subset scores all N points as inliers,
        # so the confidence-seeded first candidate is the one returned
        corr = generate_scene(54, 40, (3.0, 10.0), small_pose(54))
        X1, X2 = corr.normalized_points()
        order = np.lexsort((np.arange(40), -corr.confidences()))
        first = solve_eight_point((X1[order[:16]], X2[order[:16]]))
        assert np.array_equal(estimate_E0(corr, seed=7), first)

    def test_subset_smaller_than_eight_is_degenerate(self):
        corr = generate_scene(55, 30, (3.0, 10.0), small_pose(55))
        with pytest.raises(DegenerateGeometryError):
            estimate_E0(corr, m=7)


def e0_one_stack(corr, tau=1e-4, m=16, iters=32, seed=0):
    """estimate_E0 without the early stop: the seeded and the ``iters``
    drawn subsets solved as one (1 + iters)-member stack, first maximum
    returned."""
    X1, X2 = corr.normalized_points()
    n = len(X1)
    m = min(m, n)
    order = np.lexsort((np.arange(n), -np.asarray(corr.confidences(), dtype=float)))
    rng = np.random.default_rng(seed)
    subsets = np.stack([order[:m]] + [rng.choice(n, size=m, replace=False)
                                      for _ in range(iters)])
    E, ok = solve_eight_point((X1[subsets], X2[subsets]))
    if not ok.any():
        raise DegenerateGeometryError("no candidate subset yielded a solvable system")
    counts = np.where(ok, (sampson_distances(X1, X2, E) < tau).sum(axis=1), -1)
    return E[np.argmax(counts)]


class PointSet:
    """The two accessors estimate_E0 reads, over given normalized points."""

    def __init__(self, X1, X2, conf):
        self.X1, self.X2, self.conf = X1, X2, conf

    def normalized_points(self):
        return self.X1, self.X2

    def confidences(self):
        return self.conf


def unsolvable_seed_set(n=60, coincide=16):
    """A clean scene whose ``coincide`` most confident matches are one
    repeated point, so the seeded subset cannot be conditioned."""
    X1, X2 = scene_points(small_pose(56), seed=57, n=n)
    X1, X2 = X1.copy(), X2.copy()
    X1[:coincide] = X1[0]
    X2[:coincide] = X2[0]
    conf = np.where(np.arange(n) < coincide, 1.0, 0.5)
    return PointSet(X1, X2, conf)


class TestEarlyStopE0:
    @pytest.mark.parametrize("scene_seed,n,noise,outliers,m,iters,seed", [
        (60, 80, 0.0, 0.0, 16, 32, 0),     # every match an inlier: early stop
        (61, 80, 0.5, 0.0, 16, 32, 1),
        (62, 200, 0.5, 0.3, 16, 32, 2),
        (63, 120, 0.5, 0.7, 16, 32, 3),
        (64, 11, 0.5, 0.3, 16, 32, 4),     # m clamps to n
        (65, 9, 0.0, 0.0, 16, 32, 5),
        (66, 100, 0.5, 0.3, 16, 0, 6),     # iters=0: the seeded candidate only
        (67, 100, 0.0, 0.0, 16, 0, 7),
        (68, 150, 0.5, 0.7, 8, 5, 8),
    ])
    def test_matches_one_stack(self, scene_seed, n, noise, outliers, m, iters, seed):
        corr = generate_scene(scene_seed, n, (3.0, 10.0), small_pose(scene_seed),
                              noise_px=noise, outlier_fraction=outliers)
        got = estimate_E0(corr, m=m, iters=iters, seed=seed)
        assert np.array_equal(got, e0_one_stack(corr, m=m, iters=iters, seed=seed))

    def test_unsolvable_seed_falls_back_to_draws(self):
        corr = unsolvable_seed_set()
        got = estimate_E0(corr, seed=9)
        assert np.array_equal(got, e0_one_stack(corr, seed=9))

    @pytest.mark.parametrize("iters", [0, 4])
    def test_no_solvable_candidate_is_degenerate(self, iters):
        corr = unsolvable_seed_set(coincide=60) if iters else unsolvable_seed_set()
        for estimate in (estimate_E0, e0_one_stack):
            with pytest.raises(DegenerateGeometryError):
                estimate(corr, iters=iters)

    def _count_calls(self, monkeypatch):
        calls = {"solve": 0, "choice": 0}
        solve = epipolar.solve_eight_point
        make_rng = np.random.default_rng

        def counting_solve(pairs):
            calls["solve"] += 1
            return solve(pairs)

        class CountingRng:
            def __init__(self, seed):
                self._rng = make_rng(seed)

            def choice(self, *args, **kwargs):
                calls["choice"] += 1
                return self._rng.choice(*args, **kwargs)

        monkeypatch.setattr(epipolar, "solve_eight_point", counting_solve)
        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        return calls

    def test_all_inliers_solve_once_and_draw_nothing(self, monkeypatch):
        corr = generate_scene(60, 80, (3.0, 10.0), small_pose(60))
        expect = e0_one_stack(corr)
        calls = self._count_calls(monkeypatch)
        assert np.array_equal(estimate_E0(corr), expect)
        assert calls == {"solve": 1, "choice": 0}

    def test_outliers_draw_every_subset(self, monkeypatch):
        corr = generate_scene(62, 200, (3.0, 10.0), small_pose(62), noise_px=0.5,
                              outlier_fraction=0.3)
        calls = self._count_calls(monkeypatch)
        estimate_E0(corr, iters=32)
        assert calls == {"solve": 2, "choice": 32}


def svd_eight_point(pairs):
    """The eight-point solve through the SVD of the constraint matrix A, as
    it was before the Gram solve; the oracle of TestGramSolve."""
    X1, X2 = (np.asarray(a, dtype=float) for a in pairs)
    stacked = X1.ndim == 3
    if not stacked:
        X1, X2 = X1[None], X2[None]
    m = X1.shape[1]
    X1c, T1, ok1 = epipolar._hartley_transform(X1)
    X2c, T2, ok2 = epipolar._hartley_transform(X2)
    A = epipolar._constraint_rows(X1c, X2c)
    _, S, Vt = np.linalg.svd(A, full_matrices=m < 9)
    ok = ok1 & ok2 & ~(S[:, 7] < 1e-10 * S[:, 0])
    E = np.zeros((len(X1), 3, 3))
    if ok.any():
        M = T2[ok].transpose(0, 2, 1) @ Vt[ok, -1].reshape(-1, 3, 3) @ T1[ok]
        E[ok] = canonicalize_essential(project_to_essential(M))
    return (E, ok) if stacked else (E[0], ok[0])


def near_rank_seven(delta, n=12, seed=70):
    """Points of a coplanar pure rotation (rank(A) < 8) with the view-2
    points moved by ``delta``: σ7/σ0 of the conditioned A is about delta."""
    X1, X2 = coplanar_pure_rotation(n, seed=seed)
    X2 = X2.copy()
    X2[:, :2] += delta * np.random.default_rng(seed).normal(size=(n, 2))
    return X1, X2


def conditioned_ratio(X1, X2):
    """σ7/σ0 of the Hartley-conditioned constraint matrix of one set."""
    X1c, _, _ = epipolar._hartley_transform(X1[None])
    X2c, _, _ = epipolar._hartley_transform(X2[None])
    S = np.linalg.svd(epipolar._constraint_rows(X1c, X2c)[0], compute_uv=False)
    return S[7] / S[0]


def record_svd_of_A(monkeypatch):
    """Patch np.linalg.svd to record the shape of every constraint-matrix
    (last axis 9) stack it factors."""
    shapes, real = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        if np.shape(a)[-1] == 9:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


class TestGramSolve:
    @pytest.mark.parametrize("n", [8, 9, 16, 200])
    @pytest.mark.parametrize("noise,outliers", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)])
    def test_single_sets_match_the_svd(self, n, noise, outliers):
        for seed in range(5):
            corr = generate_scene(80 + seed, n, (3.0, 10.0), small_pose(80 + seed),
                                  noise_px=noise, outlier_fraction=outliers)
            X1, X2 = corr.normalized_points()
            want, ok = svd_eight_point((X1, X2))
            assert ok
            np.testing.assert_allclose(solve_eight_point((X1, X2)), want,
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("noise,outliers", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)])
    def test_stacks_match_the_svd(self, noise, outliers):
        corr = generate_scene(90, 200, (3.0, 10.0), small_pose(90), noise_px=noise,
                              outlier_fraction=outliers)
        X1, X2 = corr.normalized_points()
        rng = np.random.default_rng(91)
        idx = np.stack([rng.choice(200, size=16, replace=False) for _ in range(32)])
        S1, S2 = X1[idx], X2[idx]
        # member 3 is rank-deficient, member 7 has all points coinciding
        S1[3], S2[3] = coplanar_pure_rotation(16)
        S1[7] = S2[7] = [0.0, 0.0, 1.0]
        E, ok = solve_eight_point((S1, S2))
        want, want_ok = svd_eight_point((S1, S2))
        assert np.array_equal(ok, want_ok) and ok.sum() == 30
        np.testing.assert_allclose(E, want, rtol=0, atol=1e-9)

    def test_certified_sets_take_no_svd(self, monkeypatch):
        X1, X2 = scene_points(small_pose(92), seed=93, n=200, noise=0.5)
        shapes = record_svd_of_A(monkeypatch)
        solve_eight_point((X1, X2))
        idx = np.random.default_rng(94).choice(200, size=(32, 16))
        solve_eight_point((X1[idx], X2[idx]))
        assert shapes == []

    @pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7])
    def test_near_rank_deficient_set_falls_back_to_the_svd(self, monkeypatch, delta):
        X1, X2 = near_rank_seven(delta)
        # eigh cannot certify these sets (λ1 <= 1e-12·λ8), but the SVD
        # still passes them as rank 8 (σ7 >= 1e-10·σ0)
        assert 1e-10 < conditioned_ratio(X1, X2) < 1e-6
        want, want_ok = svd_eight_point((X1, X2))
        assert want_ok
        good1, good2 = scene_points(small_pose(95), seed=96, n=12, noise=0.5)
        shapes = record_svd_of_A(monkeypatch)
        # judged, and solved, by the same SVD as before: bit for bit
        assert np.array_equal(solve_eight_point((X1, X2)), want)
        E, ok = solve_eight_point((np.stack([good1, X1, good1]),
                                   np.stack([good2, X2, good2])))
        assert ok.all() and np.array_equal(E[1], want)
        assert shapes == [(1, 12, 9), (1, 12, 9)]

    def test_barely_rank_deficient_set_is_refused(self, monkeypatch):
        X1, X2 = near_rank_seven(1e-13)
        assert conditioned_ratio(X1, X2) < 1e-10
        assert not svd_eight_point((X1, X2))[1]
        with pytest.raises(DegenerateGeometryError, match="rank-deficient"):
            solve_eight_point((X1, X2))

    @pytest.mark.parametrize("m", [8, 9])
    def test_exactly_rank_seven(self, m):
        X1, X2 = scene_points(small_pose(97), seed=98, n=m, noise=0.5)
        X1, X2 = X1.copy(), X2.copy()
        # two repeated matches leave at most 7 independent rows
        X1[1], X2[1] = X1[0], X2[0]
        if m == 9:
            X1[2], X2[2] = X1[0], X2[0]
        with pytest.raises(DegenerateGeometryError,
                           match="constraint matrix is rank-deficient"):
            solve_eight_point((X1, X2))
        good1, good2 = scene_points(small_pose(99), seed=100, n=m, noise=0.5)
        E, ok = solve_eight_point((np.stack([good1, X1]), np.stack([good2, X2])))
        assert ok.tolist() == [True, False] and not E[1].any()


class TestE0Draws:
    @pytest.mark.parametrize("n,m,iters,seed", [(200, 16, 32, 0), (40, 8, 5, 3),
                                                (9, 9, 4, 11)])
    def test_subsets_are_the_generator_draws(self, monkeypatch, n, m, iters, seed):
        corr = generate_scene(101, n, (3.0, 10.0), small_pose(101), noise_px=0.5,
                              outlier_fraction=0.5)
        X1, X2 = corr.normalized_points()
        rng = np.random.default_rng(seed)
        subsets = np.stack([rng.choice(n, size=m, replace=False) for _ in range(iters)])
        seen, solve = [], epipolar.solve_eight_point
        monkeypatch.setattr(epipolar, "solve_eight_point",
                            lambda pairs: seen.append(pairs) or solve(pairs))
        estimate_E0(corr, m=m, iters=iters, seed=seed)
        assert len(seen) == 2
        assert np.array_equal(seen[1][0], X1[subsets])
        assert np.array_equal(seen[1][1], X2[subsets])

    def test_given_points_are_used_as_they_are(self):
        corr = generate_scene(102, 120, (3.0, 10.0), small_pose(102), noise_px=0.5,
                              outlier_fraction=0.3)
        points = corr.normalized_points()
        assert np.array_equal(estimate_E0(corr, seed=4, points=points),
                              estimate_E0(corr, seed=4))
        swapped = estimate_E0(corr, seed=4, points=points[::-1])
        assert np.array_equal(swapped, estimate_E0(
            PointSet(points[1], points[0], corr.confidences()), seed=4))


class TestStackedSampson:
    def test_rows_match_single_calls(self):
        X1, X2 = scene_points(small_pose(103), seed=104, n=200, noise=0.5)
        rng = np.random.default_rng(105)
        Es = np.concatenate([rng.normal(size=(31, 3, 3)),
                             essential_from_pose(small_pose(103))[None]])
        d = sampson_distances(X1, X2, Es)
        assert d.shape == (32, 200)
        for s in range(32):
            np.testing.assert_allclose(d[s], sampson_distances(X1, X2, Es[s]),
                                       rtol=1e-12, atol=0)
        assert sampson_distances(X1, X2, Es[:1]).shape == (1, 200)

    def test_degenerate_denominators_in_a_stack(self):
        # E3 has only E[2, 2]: no first two components of E x1 or Eᵀ x2, so
        # the denominator vanishes over a residual of 1 (inf); the zero
        # matrix gives a zero residual over it (0)
        E3 = np.zeros((3, 3))
        E3[2, 2] = 1.0
        Es = np.stack([np.eye(3), E3, np.zeros((3, 3)), E3])
        X1 = [[0.1, 0.2, 1.0], [0.0, 0.0, 1.0]]
        X2 = [[0.3, 0.4, 1.0], [0.0, 0.0, 1.0]]
        d = sampson_distances(X1, X2, Es)
        assert d[1].tolist() == d[3].tolist() == [np.inf, np.inf]
        assert d[2].tolist() == [0.0, 0.0]
        # under I, the second pair's denominator vanishes too, over a residual of 1
        assert np.isfinite(d[0, 0]) and d[0, 1] == np.inf
        for s in range(4):
            assert np.array_equal(d[s], sampson_distances(X1, X2, Es[s]))
