import os
import tempfile
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigraph.config import DatasetSection
from epigraph.errors import (
    EmptySamplingError,
    FormatError,
    InvalidInputError,
    SchemaVersionError,
    UnprojectableSceneError,
    ValidationError,
)
from epigraph.geom import (
    Intrinsics,
    Pose,
    essential_from_pose,
    quat_from_axis_angle,
    relative_pose,
    sampson_distances,
    yaw_of,
)
from epigraph.synth import (
    CorrespondenceSet,
    SamplingSpec,
    Trajectory,
    generate_scene,
    generate_trajectory,
    load_correspondences,
    load_trajectory,
    sample_pairs,
    save_correspondences,
    save_trajectory,
    stress_scene,
)

WIDE_FOV = Intrinsics(100.0, 100.0, 320.0, 240.0)

# values a text format can get wrong: the sign of zero and subnormals
EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def pixels(limit):
    """Coordinates in [0, limit), down to the float just under limit."""
    return (st.floats(0.0, limit, exclude_max=True)
            | st.sampled_from((*EDGE_FLOATS, float(np.nextafter(limit, 0)))))


# every name the dataset.sequence check allows: printable, no whitespace
sequence_names = st.text(st.characters(blacklist_categories=(
    "Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs")), min_size=1)


@st.composite
def correspondence_sets(draw):
    width, height = draw(st.integers(1, 8192)), draw(st.integers(1, 8192))
    n = draw(st.integers(0, 12))
    p1, p2 = ([[draw(pixels(width)), draw(pixels(height))] for _ in range(n)]
              for _ in range(2))
    conf = [draw(st.floats(0.0, 1.0) | st.sampled_from(EDGE_FLOATS)) for _ in range(n)]
    focal = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    K = Intrinsics(draw(focal), draw(focal), draw(finite), draw(finite))
    q = draw(st.lists(st.floats(-1e6, 1e6) | st.sampled_from(EDGE_FLOATS),
                      min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-6))
    t = draw(st.lists(finite, min_size=3, max_size=3))
    gt = draw(st.sampled_from((None, Pose(q, t))))
    sequence = draw(sequence_names)
    assert DatasetSection(sequence=sequence).sequence == sequence
    pair_id = (sequence, draw(st.integers()), draw(st.integers()))
    return CorrespondenceSet(np.array(p1).reshape(-1, 2), np.array(p2).reshape(-1, 2),
                             np.array(conf), K, width, height, gt, pair_id)


def small_pose(seed=0, rot_deg=6.0, t=(0.3, 0.1, 0.5)):
    rng = np.random.default_rng(seed)
    return Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(rot_deg)),
                np.array(t, dtype=float))


class TestGenerateScene:
    def test_noiseless_satisfies_epipolar_constraint(self):
        pose = small_pose(1)
        corr = generate_scene(2, 80, (3, 10), pose)
        E = essential_from_pose(pose)
        X1, X2 = corr.normalized_points()
        resid = np.abs(np.einsum("ij,ij->i", X2, X1 @ E.T))
        assert resid.max() < 1e-10

    def test_outlier_count_exact(self):
        corr = generate_scene(3, 100, (3, 10), small_pose(1), outlier_fraction=0.7)
        assert (corr.confidence == 1.0).sum() == round(0.3 * 100)
        corr = generate_scene(3, 77, (3, 10), small_pose(1), outlier_fraction=0.31)
        assert (corr.confidence == 1.0).sum() == round(0.69 * 77)

    def test_deterministic(self):
        a = generate_scene(5, 50, (3, 10), small_pose(2), noise_px=0.3,
                           outlier_fraction=0.2)
        b = generate_scene(5, 50, (3, 10), small_pose(2), noise_px=0.3,
                           outlier_fraction=0.2)
        assert np.array_equal(a.p1, b.p1) and np.array_equal(a.p2, b.p2)
        assert np.array_equal(a.confidence, b.confidence)

    def test_confidence_split(self):
        corr = generate_scene(6, 60, (3, 10), small_pose(3), outlier_fraction=0.5)
        inl = corr.confidence == 1.0
        assert np.all(corr.confidence[~inl] < 0.5)
        assert np.all(corr.confidence[~inl] >= 0.0)

    def test_pixels_in_bounds(self):
        corr = generate_scene(7, 200, (3, 10), small_pose(4), noise_px=1.5,
                              outlier_fraction=0.3)
        for p in (corr.p1, corr.p2):
            assert p[:, 0].min() >= 0 and p[:, 0].max() < corr.width
            assert p[:, 1].min() >= 0 and p[:, 1].max() < corr.height

    def test_unprojectable_pose(self):
        # second camera looks away from the whole frustum
        about_face = Pose(quat_from_axis_angle([0, 1, 0], np.pi), [0, 0, 0])
        with pytest.raises(UnprojectableSceneError):
            generate_scene(8, 10, (3, 10), about_face)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            generate_scene(0, 0, (3, 10), small_pose(0))
        with pytest.raises(InvalidInputError):
            generate_scene(0, 5, (3, 10), small_pose(0), outlier_fraction=1.0)
        with pytest.raises(InvalidInputError):
            generate_scene(0, 5, (-1, 10), small_pose(0))

    def test_gt_relative_stored(self):
        pose = small_pose(5)
        corr = generate_scene(9, 20, (3, 10), pose)
        assert np.allclose(corr.gt_relative.matrix(), pose.matrix())


class TestInlierCalibration:
    def test_noiseless_fraction_and_chance_passes(self):
        # inliers pass exactly; uniform outliers sneak under tau = 1e-4 in
        # < 1% of cases for wide-FOV normalized geometry (see ledger for
        # the narrow-FOV caveat); asserted over 10^4 points
        pose = small_pose(11, rot_deg=3.0, t=(0.0, 0.4, 0.2))
        corr = generate_scene(12, 10000, (3, 10), pose, intrinsics=WIDE_FOV,
                              outlier_fraction=0.7)
        E = essential_from_pose(pose)
        X1, X2 = corr.normalized_points()
        d = sampson_distances(X1, X2, E)
        passing = d < 1e-4
        inl = corr.confidence == 1.0
        assert passing[inl].all()
        assert passing[~inl].mean() < 0.01

    def test_stress_preset_shape(self):
        corr = stress_scene(13, small_pose(13))
        assert len(corr) == 200
        assert (corr.confidence == 1.0).sum() == 60


class TestGenerateTrajectory:
    def test_forward_positions(self):
        traj = generate_trajectory(0, 10, "forward")
        for k, pose in enumerate(traj.poses):
            assert np.abs(pose.t - [0, 0, 0.1 * k]).max() < 1e-12
            assert np.allclose(pose.q, [1, 0, 0, 0])

    def test_forward_step_norm(self):
        traj = generate_trajectory(0, 10, "forward")
        for a, b in zip(traj.poses, traj.poses[1:]):
            rel = relative_pose(a, b)
            assert abs(np.linalg.norm(rel.t) - 0.1) < 1e-12

    def test_arc_constant_yaw_deltas(self):
        traj = generate_trajectory(0, 12, "arc")
        deltas = [yaw_of(relative_pose(a, b).q)
                  for a, b in zip(traj.poses, traj.poses[1:])]
        assert np.abs(np.diff(deltas)).max() < 1e-12
        assert abs(deltas[0]) > 1e-4  # actually turning

    def test_random_walk_smooth_and_deterministic(self):
        a = generate_trajectory(4, 20, "random-walk")
        b = generate_trajectory(4, 20, "random-walk")
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.q, pb.q) and np.array_equal(pa.t, pb.t)
        for x, y in zip(a.poses, a.poses[1:]):
            rel = relative_pose(x, y)
            assert np.linalg.norm(rel.t) < 0.5  # small per-frame motion

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            generate_trajectory(0, 1, "forward")
        with pytest.raises(InvalidInputError):
            generate_trajectory(0, 5, "teleport")
        for fps in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidInputError, match="frame rate"):
                generate_trajectory(0, 5, "forward", fps=fps)


class TestSamplePairs:
    def test_step_from_spacing(self):
        assert SamplingSpec(0.5, fps=10).step == 5
        assert SamplingSpec(0.1, fps=10).step == 1
        assert SamplingSpec(2.0, fps=10).step == 20

    def test_spacing_below_one_frame_rejected(self):
        with pytest.raises(InvalidInputError):
            SamplingSpec(0.01, fps=10)

    def test_pair_count(self):
        traj = generate_trajectory(0, 30, "forward")
        for s in (0.1, 0.5, 1.0):
            pairs = sample_pairs(traj, SamplingSpec(s, fps=10))
            assert len(pairs) == 30 - SamplingSpec(s, fps=10).step

    def test_static_trajectory_identity_relatives(self):
        pose = small_pose(20)
        traj = Trajectory([pose] * 6, fps=10.0)
        for pair in sample_pairs(traj, SamplingSpec(0.1, fps=10)):
            assert np.abs(pair.gt_relative.matrix() - np.eye(4)).max() < 1e-12

    def test_relative_is_composition(self):
        traj = generate_trajectory(3, 15, "random-walk")
        for pair in sample_pairs(traj, SamplingSpec(0.5, fps=10)):
            expect = relative_pose(traj.poses[pair.i], traj.poses[pair.j])
            assert np.abs(pair.gt_relative.matrix() - expect.matrix()).max() < 1e-12

    def test_step_exceeds_frames(self):
        traj = generate_trajectory(0, 15, "forward")
        with pytest.raises(EmptySamplingError):
            sample_pairs(traj, SamplingSpec(2.0, fps=10))  # d = 20 > 15

    def test_fps_mismatch(self):
        traj = generate_trajectory(0, 15, "forward", fps=10)
        with pytest.raises(ValidationError):
            sample_pairs(traj, SamplingSpec(0.5, fps=30))


class TestCorrespondenceIO:
    def test_round_trip_exact(self, tmp_path):
        corr = generate_scene(21, 40, (3, 10), small_pose(21), noise_px=0.7,
                              outlier_fraction=0.25)
        path = tmp_path / "pairs.txt"
        save_correspondences(corr, path)
        back = load_correspondences(path)
        assert np.array_equal(back.p1, corr.p1)
        assert np.array_equal(back.p2, corr.p2)
        assert np.array_equal(back.confidence, corr.confidence)
        assert back.intrinsics == corr.intrinsics
        assert (back.width, back.height) == (corr.width, corr.height)
        assert back.pair_id == corr.pair_id
        assert np.array_equal(back.gt_relative.q, corr.gt_relative.q)
        assert np.array_equal(back.gt_relative.t, corr.gt_relative.t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_is_bitwise(self, data):
        corr = data.draw(correspondence_sets())
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "pair.txt")
            save_correspondences(corr, path)
            back = load_correspondences(path)
        for name in ("p1", "p2", "confidence"):
            a, b = getattr(back, name), getattr(corr, name)
            assert a.shape == b.shape and np.array_equal(bits(a), bits(b)), name
        assert np.array_equal(bits(astuple(back.intrinsics)), bits(astuple(corr.intrinsics)))
        assert (back.width, back.height, back.pair_id) == (corr.width, corr.height,
                                                           corr.pair_id)
        if corr.gt_relative is None:
            assert back.gt_relative is None
        else:
            assert np.array_equal(bits(back.gt_relative.q), bits(corr.gt_relative.q))
            assert np.array_equal(bits(back.gt_relative.t), bits(corr.gt_relative.t))

    def test_empty_set(self, tmp_path):
        corr = CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0),
                                 Intrinsics(500, 500, 320, 240))
        path = tmp_path / "empty.txt"
        save_correspondences(corr, path)
        back = load_correspondences(path)
        assert len(back) == 0

    def test_four_fields_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# epigraph-corr v1 640 480 500.0 500.0 320.0 240.0\n"
                        "1.0 2.0 3.0 4.0 0.5\n"
                        "1.0 2.0 3.0 4.0\n")
        with pytest.raises(FormatError) as exc:
            load_correspondences(path)
        assert exc.value.line == 3

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# epigraph-corr v1 640 480 500.0 500.0 320.0 240.0\n"
                        "1.0 2.0 3.0 4.0 1.5\n")
        with pytest.raises(ValidationError):
            load_correspondences(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0 4.0 0.5\n")
        with pytest.raises(SchemaVersionError):
            load_correspondences(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# epigraph-corr v1 640 480 500.0 500.0 320.0 240.0\n"
                        "1.0 x 3.0 4.0 0.5\n")
        with pytest.raises(FormatError) as exc:
            load_correspondences(path)
        assert exc.value.line == 2


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        traj = generate_trajectory(22, 12, "random-walk")
        path = tmp_path / "traj.txt"
        save_trajectory(traj, path)
        back = load_trajectory(path, fps=traj.fps)
        assert len(back) == len(traj)
        for a, b in zip(traj.poses, back.poses):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-8

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(FormatError) as exc:
            load_trajectory(path)
        assert exc.value.line == 1


class TestCorrespondenceSetValidation:
    def test_out_of_bounds_pixels_rejected(self):
        with pytest.raises(ValidationError):
            CorrespondenceSet(np.array([[700.0, 10.0]]), np.array([[1.0, 1.0]]),
                              np.array([0.5]), Intrinsics(500, 500, 320, 240))

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValidationError):
            CorrespondenceSet(np.array([[10.0, 10.0]]), np.array([[1.0, 1.0]]),
                              np.array([1.5]), Intrinsics(500, 500, 320, 240))

    @pytest.mark.parametrize("where", ["p1", "p2", "confidence"])
    def test_nan_rejected(self, where):
        # NaN compares False against every bound, so each check must fail on it
        arrays = {"p1": np.array([[10.0, 10.0]]), "p2": np.array([[1.0, 1.0]]),
                  "confidence": np.array([0.5])}
        arrays[where].flat[0] = np.nan
        with pytest.raises(ValidationError):
            CorrespondenceSet(arrays["p1"], arrays["p2"], arrays["confidence"],
                              Intrinsics(500, 500, 320, 240))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            CorrespondenceSet(np.zeros((2, 2)) + 1, np.zeros((3, 2)) + 1,
                              np.array([1.0, 1.0]), Intrinsics(500, 500, 320, 240))
