import numpy as np
import pytest

from epigraph import geom
from epigraph.errors import InvalidInputError, InvalidRotationError
from epigraph.geom import (
    Intrinsics,
    Pose,
    canonical_quat,
    essential_from_pose,
    normalize_pixels,
    quat_from_axis_angle,
    quat_to_rot,
    relative_pose,
    rot_to_quat,
    sampson_distances,
    skew,
    wrap_angle,
    yaw_of,
)


def rodrigues(axis, angle):
    """Independent rotation-matrix oracle from the axis-angle formula."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestQuatToRot:
    def test_identity(self):
        assert np.allclose(quat_to_rot([1, 0, 0, 0]), np.eye(3))

    def test_half_turn_about_z(self):
        assert np.allclose(quat_to_rot([0, 0, 0, 1]), np.diag([-1, -1, 1]))

    def test_30_deg_about_z_round_trip(self):
        q = np.array([np.cos(np.deg2rad(15)), 0, 0, np.sin(np.deg2rad(15))])
        R = quat_to_rot(q)
        assert np.allclose(R, rodrigues([0, 0, 1], np.deg2rad(30)), atol=1e-12)
        assert np.allclose(rot_to_quat(R), q, atol=1e-12)

    def test_rodrigues_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(-np.pi, np.pi)
            R = quat_to_rot(quat_from_axis_angle(axis, angle))
            assert np.allclose(R, rodrigues(axis, angle), atol=1e-12)

    def test_orthogonality_and_det(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            R = quat_to_rot(random_unit_quat(rng))
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_double_cover(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            q = random_unit_quat(rng)
            assert np.abs(quat_to_rot(q) - quat_to_rot(-q)).max() < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            quat_to_rot([0, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="not finite"):
            geom.normalize_quat([1.0, 0.0, bad, 0.0])


class TestRotToQuat:
    def test_identity(self):
        assert np.allclose(rot_to_quat(np.eye(3)), [1, 0, 0, 0])

    def test_half_turn_canonical_sign(self):
        # forced up to sign; the w >= 0 rule picks (0, 0, 0, 1)
        assert np.allclose(rot_to_quat(np.diag([-1, -1, 1])), [0, 0, 0, 1])

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = canonical_quat(random_unit_quat(rng))
            R = quat_to_rot(q)
            assert np.abs(quat_to_rot(rot_to_quat(R)) - R).max() < 1e-8
            assert np.abs(rot_to_quat(R) - q).max() < 1e-8

    def test_reflection_rejected(self):
        with pytest.raises(InvalidRotationError):
            rot_to_quat(np.diag([1, 1, -1]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidRotationError):
            rot_to_quat(np.eye(3) + 0.01)


class TestNormalizePixel:
    K = Intrinsics(100, 100, 320, 240)

    def test_principal_point(self):
        assert np.allclose(normalize_pixels([[320, 240]], self.K), [[0, 0, 1]])

    def test_one_focal_length_right(self):
        assert np.allclose(normalize_pixels([[420, 240]], self.K), [[1, 0, 1]])

    def test_unit_intrinsics_identity(self):
        K = Intrinsics(1, 1, 0, 0)
        for p in ([3.5, -2.0], [0, 0], [123.4, 567.8]):
            assert np.allclose(normalize_pixels([p], K), [[p[0], p[1], 1]])

    def test_third_component_exactly_one(self):
        X = normalize_pixels([[17.3, 412.9]], self.K)
        assert X.shape == (1, 3) and X[0, 2] == 1.0

    def test_invalid_intrinsics(self):
        with pytest.raises(InvalidInputError):
            Intrinsics(0, 100, 0, 0)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_intrinsics_name_the_field(self, field, bad):
        values = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, field: bad}
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            Intrinsics(**values)


class TestSkew:
    def test_unit_x(self):
        assert np.array_equal(skew([1, 0, 0]),
                              [[0, 0, 0], [0, 0, -1], [0, 1, 0]])

    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_cross_product_identity(self):
        assert np.allclose(skew([1, 2, 3]) @ [4, 5, 6], [-3, 6, -3])
        rng = np.random.default_rng(5)
        t, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(t) @ v, np.cross(t, v), atol=1e-12)

    def test_antisymmetric(self):
        S = skew([0.3, -1.2, 2.5])
        assert np.array_equal(S, -S.T)


def make_scene(seed, pose, n=60, noise=0.0, outliers=0.0):
    from epigraph.synth import generate_scene
    return generate_scene(seed, n, (3.0, 10.0), pose, noise_px=noise,
                          outlier_fraction=outliers)


def small_pose(seed=0, rot_deg=6.0, t=(0.3, 0.1, 0.5)):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    return Pose(quat_from_axis_angle(axis, np.deg2rad(rot_deg)), np.array(t))


class TestEssentialFromPose:
    def test_pure_forward_translation(self):
        E = essential_from_pose(Pose([1, 0, 0, 0], [0, 0, 1]))
        assert np.allclose(E, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])

    def test_zero_translation_degenerate(self):
        E = essential_from_pose(Pose([1, 0, 0, 0], [0, 0, 0]))
        assert np.array_equal(E, np.zeros((3, 3)))

    def test_annihilates_synthetic_correspondences(self):
        pose = small_pose(7)
        E = essential_from_pose(pose)
        corr = make_scene(11, pose)
        X1, X2 = corr.normalized_points()
        for x1, x2 in zip(X1, X2):
            assert abs(x2 @ E @ x1) < 1e-10

    def test_essential_structure_1000_poses(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            E = essential_from_pose(Pose(random_unit_quat(rng), t))
            s = np.linalg.svd(E, compute_uv=False)
            assert abs(s[0] / s[1] - 1.0) < 1e-8
            assert s[2] < 1e-8 * s[0]


class TestSampsonDistance:
    E_fwd = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0.0]])

    def test_perfect_correspondence(self):
        pose = small_pose(9)
        E = essential_from_pose(pose)
        corr = make_scene(13, pose)
        X1, X2 = corr.normalized_points()
        for x1, x2 in zip(X1, X2):
            assert sampson_distances([x1], [x2], E)[0] < 1e-18

    def test_zero_numerator_direct(self):
        # x2^T E x1 = 0 here even though the points differ
        assert sampson_distances([[0, 0, 1]], [[0, 0.1, 1]], self.E_fwd)[0] == 0.0

    def test_randomized_against_direct_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x1 = np.array([rng.normal(), rng.normal(), 1.0])
            x2 = np.array([rng.normal(), rng.normal(), 1.0])
            E = rng.normal(size=(3, 3))
            Ex1, Etx2 = E @ x1, E.T @ x2
            expect = (x2 @ Ex1) ** 2 / (Ex1[0] ** 2 + Ex1[1] ** 2
                                        + Etx2[0] ** 2 + Etx2[1] ** 2)
            assert np.isclose(sampson_distances([x1], [x2], E)[0], expect, rtol=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(11)
        x1 = np.array([0.1, -0.2, 1.0])
        x2 = np.array([0.3, 0.2, 1.0])
        E = rng.normal(size=(3, 3))
        base = sampson_distances([x1], [x2], E)[0]
        for c in (2.0, -3.0, 1e-3, 17.5):
            assert np.isclose(sampson_distances([x1], [x2], c * E)[0], base, rtol=1e-12)

    def test_degenerate_denominator(self):
        # E x1 and E^T x2 have no first two components: the residual is 1
        E = np.zeros((3, 3))
        E[2, 2] = 1.0
        assert sampson_distances([[0.1, 0.2, 1]], [[0.3, 0.4, 1]], E)[0] == np.inf
        # a zero residual over a vanishing denominator reads 0
        assert sampson_distances([[0.1, 0.2, 1]], [[0.3, 0.4, 1]],
                                 np.zeros((3, 3)))[0] == 0.0


class TestRelativePose:
    def test_same_pose_gives_identity(self):
        T = small_pose(12)
        rel = relative_pose(T, T)
        assert np.allclose(rel.q, [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(rel.t, 0, atol=1e-12)

    def test_from_identity_gives_target(self):
        T = small_pose(13)
        rel = relative_pose(Pose.identity(), T)
        assert np.allclose(rel.q, T.q, atol=1e-12)
        assert np.allclose(rel.t, T.t, atol=1e-12)

    def test_compose_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            Ti = Pose(random_unit_quat(rng), rng.normal(size=3))
            Tj = Pose(random_unit_quat(rng), rng.normal(size=3))
            back = Ti.compose(relative_pose(Ti, Tj))
            assert np.abs(back.matrix() - Tj.matrix()).max() < 1e-9

    def test_inverse_composition_is_identity(self):
        T = small_pose(15)
        I = T.compose(T.inverse())
        assert np.abs(I.matrix() - np.eye(4)).max() < 1e-9


class TestYaw:
    def test_identity(self):
        assert yaw_of([1, 0, 0, 0]) == 0.0

    def test_quarter_turn_about_z(self):
        q = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        assert abs(yaw_of(q) - np.pi / 2) < 1e-12

    def test_yaw_pitch_composition(self):
        # Euler-decomposition oracle: R = Rz(30deg) Rx(10deg) has yaw 30deg under ZYX
        qz = quat_from_axis_angle([0, 0, 1], np.deg2rad(30))
        qx = quat_from_axis_angle([1, 0, 0], np.deg2rad(10))
        q = geom.quat_mul(qz, qx)
        assert abs(yaw_of(q) - np.pi / 6) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            y = yaw_of(random_unit_quat(rng))
            assert -np.pi < y <= np.pi


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(2 * np.pi + 0.3) - 0.3) < 1e-12
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert abs(wrap_angle(np.deg2rad(340)) + np.deg2rad(20)) < 1e-12


def test_pose_canonical_hemisphere():
    p = Pose([-0.5, 0.5, 0.5, 0.5], [0, 0, 0])
    assert p.q[0] >= 0
    assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9
