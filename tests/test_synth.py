import hashlib
import os
import tempfile
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigraph import synth
from epigraph.cli import main
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

    # each of these ended in a raw numpy error or a silently noiseless scene
    @pytest.mark.parametrize("kwargs", [
        dict(depth_range=(3.0, np.inf)), dict(depth_range=(3.0, np.nan)),
        dict(depth_range=(np.nan, 10.0)), dict(depth_range=(np.inf, np.inf)),
        dict(width=3), dict(height=3), dict(width=3.999),
        dict(noise_px=np.nan), dict(noise_px=-1.0), dict(noise_px=np.inf)],
        ids=repr)
    def test_bad_inputs_raise_typed_error(self, kwargs):
        kwargs = {"depth_range": (3.0, 10.0), **kwargs}
        with pytest.raises(InvalidInputError):
            generate_scene(0, 20, pose=small_pose(0), **kwargs)

    def test_image_exactly_inside_the_margins_stays_valid(self):
        corr = generate_scene(0, 5, (3, 10), small_pose(0), Intrinsics(2.0, 2.0, 2.0, 2.0),
                              width=4, height=4)
        assert np.all(corr.p1 == 2.0)

    def test_gt_relative_stored(self):
        pose = small_pose(5)
        corr = generate_scene(9, 20, (3, 10), pose)
        assert np.allclose(corr.gt_relative.matrix(), pose.matrix())


def generate_scene_loop(seed, n_points, depth_range, pose,
                        intrinsics=synth.DEFAULT_INTRINSICS, noise_px=0.0,
                        outlier_fraction=0.0, width=640, height=480):
    """The reference generator: one attempt, one noise try per loop pass.
    generate_scene must give its arrays bit for bit; returns (p1, p2, conf)."""
    zmin, zmax = float(depth_range[0]), float(depth_range[1])
    rng = np.random.default_rng(seed)
    K = intrinsics.matrix()
    Kinv = intrinsics.inv_matrix()
    R = pose.rotation()
    t = pose.t

    margin = synth.SCENE_MARGIN_PX
    p1 = np.empty((n_points, 2))
    p2 = np.empty((n_points, 2))
    accepted = 0
    attempts = 0
    max_attempts = 2000 * n_points + 1000
    while accepted < n_points:
        attempts += 1
        if attempts > max_attempts:
            raise UnprojectableSceneError("could not place points visible in both views")
        u = rng.uniform(margin, width - margin)
        v = rng.uniform(margin, height - margin)
        z = rng.uniform(zmin, zmax)
        X1 = z * (Kinv @ np.array([u, v, 1.0]))
        X2 = R @ X1 + t
        if X2[2] < 1e-6:
            continue
        q = K @ (X2 / X2[2])
        if not (0 <= q[0] < width and 0 <= q[1] < height):
            continue
        p1[accepted] = (u, v)
        p2[accepted] = q[:2]
        accepted += 1

    if noise_px > 0:
        for arr in (p1, p2):
            for i in range(n_points):
                for _ in range(100):
                    cand = arr[i] + rng.normal(0.0, noise_px, 2)
                    if 0 <= cand[0] < width and 0 <= cand[1] < height:
                        arr[i] = cand
                        break

    confidence = np.ones(n_points)
    n_out = n_points - int(round((1.0 - outlier_fraction) * n_points))
    if n_out > 0:
        idx = rng.choice(n_points, size=n_out, replace=False)
        p2[idx, 0] = rng.uniform(0.0, width - 1e-9, n_out)
        p2[idx, 1] = rng.uniform(0.0, height - 1e-9, n_out)
        confidence[idx] = rng.uniform(0.0, 0.5, n_out)
    return p1, p2, confidence


def outcome(generate, *args, **kwargs):
    """(p1, p2, confidence) of a generator call, or the class it raised."""
    try:
        out = generate(*args, **kwargs)
    except Exception as e:
        return type(e)
    return (out.p1, out.p2, out.confidence) if isinstance(out, CorrespondenceSet) else out


def assert_same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
    else:
        for x, y in zip(a, b):
            assert x.shape == y.shape and np.array_equal(bits(x), bits(y))


def walk_pose(seed):
    """A relative pose like one frame of the random-walk motion model."""
    rng = np.random.default_rng(seed)
    return Pose(quat_from_axis_angle(rng.normal(size=3), rng.normal(0.0, np.deg2rad(1.5))),
                rng.normal(0.0, 0.02, 3) + [0.0, 0.0, 0.1])


def turn_pose(deg):
    """A turn that leaves most of the first view's frustum out of the second."""
    return Pose(quat_from_axis_angle([0.1, 1.0, 0.0], np.deg2rad(deg)), [0.5, 0.1, 0.3])


SMALL_K = Intrinsics(5.0, 5.0, 4.0, 3.0)
MID_K = Intrinsics(25.0, 25.0, 20.0, 15.0)
# name -> keyword arguments of both generators; with "turn", the pose of seed s
# is turn_pose(turn + s) and 16-31 % of the attempts are accepted
LOOP_REGIMES = {
    "eval": dict(n_points=200, noise_px=0.5, outlier_fraction=0.3),
    "train": dict(n_points=80),
    "8x6": dict(n_points=30, noise_px=0.5, outlier_fraction=0.3, intrinsics=SMALL_K,
                width=8, height=6, turn=45),
    "40x30": dict(n_points=50, noise_px=1.0, intrinsics=MID_K, width=40, height=30,
                  turn=45),
    "40x30_border": dict(n_points=200, noise_px=3.0, outlier_fraction=0.1,
                         intrinsics=MID_K, width=40, height=30),
    "wide_fov": dict(n_points=120, noise_px=2.0, outlier_fraction=0.5,
                     intrinsics=WIDE_FOV),
    "one_point": dict(n_points=1, noise_px=0.5),
    "noise_300px": dict(n_points=20, noise_px=300.0, outlier_fraction=0.2),
}


class TestSceneMatchesLoop:
    """generate_scene draws in chunks and rewinds its bit generator; its arrays
    and errors must be those of the per-attempt loop."""

    @pytest.mark.parametrize("regime", sorted(LOOP_REGIMES))
    def test_regime(self, regime):
        kwargs = dict(LOOP_REGIMES[regime])
        turn = kwargs.pop("turn", None)
        for seed in range(12):
            if turn is not None:
                pose = turn_pose(turn + seed)
            else:
                pose = walk_pose(seed) if seed % 2 else small_pose(seed, rot_deg=2 + seed)
            assert_same_outcome(outcome(generate_scene, seed, depth_range=(3.0, 10.0),
                                        pose=pose, **kwargs),
                                outcome(generate_scene_loop, seed, depth_range=(3.0, 10.0),
                                        pose=pose, **kwargs))

    def test_stress_scene(self):
        for seed in range(6):
            for K in (synth.DEFAULT_INTRINSICS, WIDE_FOV):
                assert_same_outcome(
                    outcome(stress_scene, seed, small_pose(seed), intrinsics=K),
                    outcome(generate_scene_loop, seed, 200, (3.0, 10.0), small_pose(seed),
                            K, outlier_fraction=0.7))

    def test_about_face_pose_raises_the_same(self, monkeypatch):
        tried = []

        def project(uvz, *args):
            tried.append(len(uvz))
            return project_attempts(uvz, *args)
        project_attempts = synth._project_attempts
        monkeypatch.setattr(synth, "_project_attempts", project)
        about_face = Pose(quat_from_axis_angle([0, 1, 0], np.pi), [0, 0, 0])
        for n in (1, 10):
            tried.clear()
            got = outcome(generate_scene, 8, n, (3, 10), about_face)
            assert got is UnprojectableSceneError
            assert got is outcome(generate_scene_loop, 8, n, (3, 10), about_face)
            # the loop gives up after exactly this many attempts
            assert sum(tried) == 2000 * n + 1000

    def test_capped_chunks(self, monkeypatch):
        # chunks at the cap, smaller than the first: the output must not move
        monkeypatch.setattr(synth, "_MAX_CHUNK", 7)
        kwargs = dict(LOOP_REGIMES["8x6"])
        del kwargs["turn"]
        for seed in range(4):
            assert_same_outcome(
                outcome(generate_scene, seed, depth_range=(3.0, 10.0),
                        pose=turn_pose(45 + seed), **kwargs),
                outcome(generate_scene_loop, seed, depth_range=(3.0, 10.0),
                        pose=turn_pose(45 + seed), **kwargs))
        about_face = Pose(quat_from_axis_angle([0, 1, 0], np.pi), [0, 0, 0])
        assert outcome(generate_scene, 8, 1, (3, 10), about_face) is UnprojectableSceneError

    def test_exhausted_noise_tries_match_and_are_no_slower(self):
        # at 1e5 px no row finds an in-image pixel in its 100 tries
        args = (4, 20, (3.0, 10.0), small_pose(4))
        want = outcome(generate_scene_loop, *args, noise_px=1e5)
        assert_same_outcome(outcome(generate_scene, *args, noise_px=1e5), want)
        clean = outcome(generate_scene_loop, *args)
        assert np.array_equal(want[0], clean[0]) and np.array_equal(want[1], clean[1])

        def fastest(generate):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                generate(*args, noise_px=1e5)
                times.append(time.perf_counter() - t0)
            return min(times)
        assert fastest(generate_scene) <= fastest(generate_scene_loop)


# SHA-256 of every file `epigraph generate` writes for this run, taken from
# the per-attempt loop generator
GENERATE_ARGS = ["--set", "run.seed=3", "--set", "dataset.motion=random-walk",
                 "--set", "dataset.n_frames=6", "--set", "dataset.n_points=30",
                 "--set", "dataset.noise_px=0.5", "--set", "dataset.outlier_fraction=0.3"]
GENERATE_SHA256 = {
    "dataset/manifest_s0p1.txt":
        "b5cfb39f05c57e4e65120c615fa026a7e206cf79a1c541c1483c52f8f1a0a341",
    "dataset/trajectory.txt":
        "3691419c59b0cb5753b40cfab5a794ce1582f2f14eca39139d9f951efa6f7adb",
    "dataset/pairs_s0p1/pair_00000_00001.txt":
        "14b26ca8015f90428e76ca9bf486a970ca32162aec072c4a59bcac1c1db1f122",
    "dataset/pairs_s0p1/pair_00001_00002.txt":
        "edd9a8ee90adb01f7a5b2c8949c2fd6571a641fe5c4d823969399d8193128158",
    "dataset/pairs_s0p1/pair_00002_00003.txt":
        "72932bf07ba36c624c39e37402f7d86a850eeeb4caf2de30445dc306c45dd941",
    "dataset/pairs_s0p1/pair_00003_00004.txt":
        "64fec3b285f0b3256e38fea4250e97b2917d2c8dce83b9a8f7149123bec26489",
    "dataset/pairs_s0p1/pair_00004_00005.txt":
        "e0c5865ce021e78f9534e5e714d608a52f34bd9bdf791496327856a38c31c51d",
}


def test_generate_files_are_pinned(tmp_path, capsys):
    assert main(["generate", "--set", f"run.out_root={tmp_path}", *GENERATE_ARGS]) == 0
    got = {}
    for dirpath, _, files in os.walk(tmp_path):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                got[os.path.relpath(path, tmp_path).replace(os.sep, "/")] = \
                    hashlib.sha256(f.read()).hexdigest()
    assert got == GENERATE_SHA256


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


def load_line_by_line(path):
    """The data lines of a correspondence file checked and converted one line
    at a time, in file order, trailers included; returns (p1, p2, conf)."""
    with open(path) as f:
        raw = f.read().splitlines()
    rows = []
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            synth._read_trailer(line, ln, None, None)
            continue
        fields = line.split()
        if len(fields) != 5:
            raise FormatError(f"expected 5 fields, got {len(fields)}", line=ln)
        vals = synth._numbers(fields, ln)
        if not (0.0 <= vals[4] <= 1.0):
            raise ValidationError(f"line {ln}: confidence {vals[4]} outside [0, 1]")
        rows.append(vals)
    data = np.array(rows, dtype=float).reshape(-1, 5)
    return data[:, :2], data[:, 2:4], data[:, 4]


CORR_HEAD = "# epigraph-corr v1 640 480 500.0 500.0 320.0 240.0\n"
GOOD_LINE = "1.5 2.25 3.0 4.125 0.5"
# one bad line of each kind the loader refuses
BAD_LINES = {
    "fields": "1.0 2.0 3.0 4.0",
    "extra": "1.0 2.0 3.0 4.0 0.5 6.0",
    "word": "1.0 x 3.0 4.0 0.5",
    "nan": "1.0 2.0 nan 4.0 0.5",
    "inf": "1.0 2.0 3.0 -inf 0.5",
    "huge": "1e400 2.0 3.0 4.0 0.5",
    "conf_high": "1.0 2.0 3.0 4.0 1.5",
    "conf_low": "1.0 2.0 3.0 4.0 -0.25",
    "conf_nan": "1.0 2.0 3.0 4.0 nan",
    "trailer": "# unknown_tag 1",
    "gt_count": "# gt_relative 1 0 0 0",
    "gt_value": "# gt_relative 1 0 0 0 0 0 nan",
    "pair_id": "# pair_id seq one 2",
}


def raised(load, path):
    try:
        load(path)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None)
    return None


class TestBulkCorrespondenceParse:
    @pytest.mark.parametrize("first", sorted(BAD_LINES))
    @pytest.mark.parametrize("second", ["fields", "word", "nan", "conf_high", "trailer"])
    def test_first_bad_line_wins(self, tmp_path, first, second):
        path = tmp_path / "bad.txt"
        lines = [GOOD_LINE, GOOD_LINE, BAD_LINES[first], GOOD_LINE, BAD_LINES[second],
                 GOOD_LINE]
        path.write_text(CORR_HEAD + "\n".join(lines) + "\n")
        got = raised(load_correspondences, path)
        # FormatError carries the line; ValidationError names it in its message
        assert got is not None and (got[2] == 4 or got[1].startswith("line 4:")), got
        assert got == raised(load_line_by_line, path)

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_each_kind_alone(self, tmp_path, kind):
        path = tmp_path / "bad.txt"
        path.write_text(CORR_HEAD + "\n".join([GOOD_LINE] * 3 + [BAD_LINES[kind]]) + "\n")
        got = raised(load_correspondences, path)
        assert got is not None and got == raised(load_line_by_line, path)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arrays_match_line_by_line(self, data):
        corr = data.draw(correspondence_sets())
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "pair.txt")
            save_correspondences(corr, path)
            back = load_correspondences(path)
            ref = load_line_by_line(path)
        for a, b in zip((back.p1, back.p2, back.confidence), ref):
            assert a.shape == b.shape and a.flags.c_contiguous
            assert np.array_equal(bits(a), bits(b))


def save_correspondences_line_by_line(corr, path):
    """The reference correspondence writer: one formatted value at a time."""
    fmt = synth._fmt
    K = corr.intrinsics
    lines = [f"{synth.CORR_HEADER} {corr.width} {corr.height} "
             f"{fmt(K.fx)} {fmt(K.fy)} {fmt(K.cx)} {fmt(K.cy)}"]
    for (x1, y1), (x2, y2), c in zip(corr.p1, corr.p2, corr.confidence):
        lines.append(f"{fmt(x1)} {fmt(y1)} {fmt(x2)} {fmt(y2)} {fmt(c)}")
    if corr.gt_relative is not None:
        g = corr.gt_relative
        lines.append("# gt_relative " + " ".join(fmt(v) for v in (*g.q, *g.t)))
    seq, i, j = corr.pair_id
    lines.append(f"# pair_id {seq} {i} {j}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def save_trajectory_line_by_line(traj, path):
    """The reference trajectory writer: one formatted value at a time."""
    with open(path, "w") as f:
        for pose in traj.poses:
            f.write(" ".join(synth._fmt(v) for v in pose.matrix()[:3, :].ravel()) + "\n")


def written(save, obj, path):
    save(obj, path)
    with open(path, "rb") as f:
        return f.read()


# the values a bulk formatter could write differently: -0.0, the smallest
# subnormal, a tiny normal and integral floats
WRITER_FLOATS = (-0.0, 5e-324, 1e-300, 0.0, 1.0, 3.0, 100.0)


class TestBulkWriters:
    def test_correspondences_edge_values(self, tmp_path):
        vals = np.array(WRITER_FLOATS)
        p1 = np.column_stack([vals, vals[::-1]])
        p2 = np.column_stack([vals[::-1], np.roll(vals, 3)])
        conf = np.array([-0.0, 5e-324, 1e-300, 0.0, 1.0, 0.5, 1.0])
        corr = CorrespondenceSet(p1, p2, conf, Intrinsics(500.0, 500.0, 320.0, 240.0),
                                 gt_relative=Pose([1.0, -0.0, 0.0, 0.0], [-0.0, 5e-324, 3.0]))
        got = written(save_correspondences, corr, tmp_path / "a.txt")
        assert b"-0.0 5e-324" in got and b"1e-300" in got and b" 100.0 " in got
        assert got == written(save_correspondences_line_by_line, corr, tmp_path / "b.txt")

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_correspondences_match_line_by_line(self, data):
        corr = data.draw(correspondence_sets())
        with tempfile.TemporaryDirectory() as d:
            assert (written(save_correspondences, corr, os.path.join(d, "a.txt"))
                    == written(save_correspondences_line_by_line, corr,
                               os.path.join(d, "b.txt")))

    def test_trajectory_match_line_by_line(self, tmp_path):
        edge = Trajectory([Pose([1.0, 0.0, 0.0, 0.0], [v, -v, 7.0]) for v in WRITER_FLOATS])
        got = written(save_trajectory, edge, tmp_path / "edge.txt")
        assert all(v in got for v in (b" -0.0 ", b" 5e-324 ", b" 1e-300 ", b" 100.0 "))
        for traj in (edge, generate_trajectory(3, 15, "random-walk"),
                     generate_trajectory(4, 6, "arc")):
            got = written(save_trajectory, traj, tmp_path / "a.txt")
            assert got == written(save_trajectory_line_by_line, traj, tmp_path / "b.txt")


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
