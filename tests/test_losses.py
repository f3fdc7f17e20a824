import dataclasses

import numpy as np
import pytest

from epigraph.errors import InvalidInputError, ValidationError
from epigraph.geom import Pose, essential_from_pose, quat_from_axis_angle, yaw_of, wrap_angle
from epigraph.losses import (
    TERM_GRADS,
    TERM_VALUES,
    LossBreakdown,
    LossWeights,
    PoseTarget,
    frob_loss,
    frob_loss_grad,
    quat_loss,
    quat_loss_grad,
    svd_loss,
    svd_loss_grad,
    svd_loss_matrix,
    svd_loss_matrix_grad,
    t_dir_loss,
    t_dir_loss_grad,
    t_scale_loss,
    t_scale_loss_grad,
    total_loss,
    total_loss_grad,
    yaw_loss,
    yaw_loss_grad,
)


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestQuatLoss:
    def test_equal_is_zero(self):
        q = unit_quat(np.random.default_rng(0))
        assert quat_loss(q, q) == 0.0

    def test_hemisphere_flip_is_zero(self):
        q = unit_quat(np.random.default_rng(1))
        assert quat_loss(-q, q) == 0.0

    def test_hemisphere_invariance_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q, g = unit_quat(rng), unit_quat(rng)
            assert quat_loss(q, g) == quat_loss(-q, g)

    def test_90_deg_about_z_hand_oracle(self):
        q_gt = np.array([1.0, 0, 0, 0])
        q_pred = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        expect = np.sqrt((c - 1.0) ** 2 + s ** 2)
        assert abs(quat_loss(q_pred, q_gt) - expect) < 1e-12

    def test_l1_norm(self):
        q_gt = np.array([1.0, 0, 0, 0])
        q_pred = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        assert abs(quat_loss(q_pred, q_gt, norm="l1") - (abs(c - 1) + s)) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            quat_loss([1.1, 0, 0, 0], [1, 0, 0, 0])
        with pytest.raises(ValidationError):
            quat_loss([1, 0, 0, 0], [0.5, 0, 0, 0])


class TestTranslationLosses:
    def test_t_dir_reference_angles(self):
        assert abs(t_dir_loss([0, 0, 2.0], [0, 0, 0.5])) < 1e-15
        assert abs(t_dir_loss([0, 0, -1.0], [0, 0, 1.0]) - 2.0) < 1e-15
        assert abs(t_dir_loss([1.0, 0, 0], [0, 0, 1.0]) - 1.0) < 1e-15

    def test_t_dir_scale_invariance(self):
        rng = np.random.default_rng(3)
        t, g = rng.normal(size=3), rng.normal(size=3)
        base = t_dir_loss(t, g)
        for c in (0.1, 2.0, 300.0):
            assert abs(t_dir_loss(c * t, g) - base) < 1e-12

    def test_t_dir_zero_pred_defined_as_one(self):
        assert t_dir_loss([0.0, 0, 0], [1.0, 0, 0]) == 1.0

    def test_t_dir_zero_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            t_dir_loss([1.0, 0, 0], [0.0, 0, 0])

    def test_t_scale_direct(self):
        assert t_scale_loss([2.0, 0, 0], [0, 0.5, 0]) == 1.5
        assert t_scale_loss([1.0, 0, 0], [0, 1.0, 0]) == 0.0

    def test_t_scale_rotation_invariance(self):
        rng = np.random.default_rng(4)
        t, g = rng.normal(size=3), rng.normal(size=3)
        from epigraph.geom import quat_to_rot
        R = quat_to_rot(unit_quat(rng))
        assert abs(t_scale_loss(R @ t, g) - t_scale_loss(t, g)) < 1e-12

    def test_t_scale_random_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t, g = rng.normal(size=3), rng.normal(size=3)
            expect = abs(np.linalg.norm(t) - np.linalg.norm(g))
            assert abs(t_scale_loss(t, g) - expect) < 1e-15


class TestFrobLoss:
    def test_perfect_prediction_zero(self):
        pose = Pose(unit_quat(np.random.default_rng(6)), [0.3, -0.2, 0.8])
        E_gt = essential_from_pose(pose)
        assert frob_loss(pose.q, pose.t, E_gt) < 1e-15

    def test_zero_translation_gives_gt_norm(self):
        pose = Pose(unit_quat(np.random.default_rng(7)), [0.5, 0.1, 0.9])
        E_gt = essential_from_pose(pose)
        assert abs(frob_loss(pose.q, [0.0, 0, 0], E_gt)
                   - np.linalg.norm(E_gt)) < 1e-12

    def test_random_direct_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            q, t = unit_quat(rng), rng.normal(size=3)
            E_gt = rng.normal(size=(3, 3))
            from epigraph.geom import quat_to_rot, skew
            expect = np.linalg.norm(skew(t) @ quat_to_rot(q) - E_gt)
            assert abs(frob_loss(q, t, E_gt) - expect) < 1e-12

    def test_normalized_variant_scale_free(self):
        rng = np.random.default_rng(9)
        q, t = unit_quat(rng), rng.normal(size=3)
        E_gt = essential_from_pose(Pose(q, 5.0 * t))
        # same direction, very different magnitude: normalized variant is 0
        assert frob_loss(q, t, E_gt, normalized=True) < 1e-12
        assert frob_loss(q, t, E_gt) > 1.0


class TestSvdLoss:
    def test_exact_essential_vanishes_1000(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            q = unit_quat(rng)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            assert svd_loss(q, t) < 1e-12

    def test_identity_matrix_hook(self):
        assert abs(svd_loss_matrix(np.eye(3)) - 1.0) < 1e-15

    def test_positive_off_manifold(self):
        rng = np.random.default_rng(11)
        q = unit_quat(rng)
        t = np.array([0.3, 0.4, 0.5])
        E = essential_from_pose(Pose(q, t))
        E_perturbed = E + 1e-2 * np.eye(3)
        s = np.linalg.svd(E_perturbed, compute_uv=False)
        assert s[2] / s[0] > 1e-3
        assert svd_loss_matrix(E_perturbed) > 0.0

    def test_perturbed_vs_independent_svd_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            M = rng.normal(size=(3, 3))
            s = np.linalg.svd(M, compute_uv=False)
            assert abs(svd_loss_matrix(M) - ((s[0] - s[1]) ** 2 + s[2] ** 2)) < 1e-12


class TestYawLoss:
    def test_equal_zero(self):
        q = unit_quat(np.random.default_rng(13))
        assert yaw_loss(q, q) == 0.0

    def test_wrap_170_vs_minus_170(self):
        a = quat_from_axis_angle([0, 0, 1], np.deg2rad(170))
        b = quat_from_axis_angle([0, 0, 1], np.deg2rad(-170))
        assert abs(yaw_loss(a, b) - np.deg2rad(20)) < 1e-12

    def test_random_yaw_of_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a, b = unit_quat(rng), unit_quat(rng)
            expect = abs(wrap_angle(yaw_of(a) - yaw_of(b)))
            assert abs(yaw_loss(a, b) - expect) < 1e-15

    def test_range(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            v = yaw_loss(unit_quat(rng), unit_quat(rng))
            assert 0.0 <= v <= np.pi


class TestTotalLoss:
    def test_perfect_prediction_all_zero(self):
        pose = Pose(unit_quat(np.random.default_rng(16)), [0.4, -0.1, 0.7])
        target = PoseTarget.from_pose(pose)
        bd = total_loss(pose.q, pose.t, target)
        for v in (bd.quat, bd.t_dir, bd.t_scale, bd.frob, bd.yaw, bd.total):
            assert abs(v) < 1e-10
        assert bd.svd < 1e-12

    def test_zero_weights_zero_total(self):
        rng = np.random.default_rng(17)
        target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
        bd = total_loss(unit_quat(rng), rng.normal(size=3), target,
                        LossWeights(0, 0, 0, 0))
        assert bd.total == 0.0

    def test_weighted_sum_identity(self):
        rng = np.random.default_rng(18)
        gt_pose = Pose(unit_quat(rng), rng.normal(size=3))
        target = PoseTarget.from_pose(gt_pose)
        q, t = unit_quat(rng), rng.normal(size=3)
        w = LossWeights(0.7, 1.3, 2.0, 0.25)
        bd = total_loss(q, t, target, w)
        expect = (w.lambda_pose * (quat_loss(q, target.q) + t_dir_loss(t, target.t)
                                   + t_scale_loss(t, target.t))
                  + w.lambda_frob * frob_loss(q, t, target.E)
                  + w.lambda_svd * svd_loss(q, t)
                  + w.lambda_yaw * yaw_loss(q, target.q))
        assert abs(bd.total - expect) < 1e-12
        assert abs(bd.pose - (bd.quat + bd.t_dir + bd.t_scale)) < 1e-15

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(19)
        target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
        q, t = unit_quat(rng), rng.normal(size=3)
        base = total_loss(q, t, target, LossWeights(1, 1, 1, 1)).total
        for bumped in (LossWeights(2, 1, 1, 1), LossWeights(1, 2, 1, 1),
                       LossWeights(1, 1, 2, 1), LossWeights(1, 1, 1, 2)):
            assert total_loss(q, t, target, bumped).total >= base - 1e-15

    def test_term_tables_follow_breakdown_fields(self):
        names = [f.name for f in dataclasses.fields(LossBreakdown)]
        assert names[-1] == "total"
        assert list(TERM_VALUES) == names[:-1]
        assert list(TERM_GRADS) == names

    def test_nonnegative_terms(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
            bd = total_loss(unit_quat(rng), rng.normal(size=3), target)
            for v in (bd.quat, bd.t_dir, bd.t_scale, bd.frob, bd.svd, bd.yaw,
                      bd.total):
                assert v >= 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(lambda_pose=-0.1)


def fd_triple(value_fn, q, t_dir_raw, t_raw, h=1e-7):
    """Central differences of f(q_raw, t_dir_raw, t_raw) for all 8 inputs."""
    def f(qv, dv, rv):
        t = rv * (dv / np.linalg.norm(dv))
        return value_fn(qv, t)

    gq = np.zeros(4)
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        gq[k] = (f(q + e, t_dir_raw, t_raw) - f(q - e, t_dir_raw, t_raw)) / (2 * h)
    gd = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        gd[k] = (f(q, t_dir_raw + e, t_raw) - f(q, t_dir_raw - e, t_raw)) / (2 * h)
    gr = (f(q, t_dir_raw, t_raw + h) - f(q, t_dir_raw, t_raw - h)) / (2 * h)
    return gq, gd, gr


class TestGradientFidelity:
    """Analytic gradients of every term vs central differences with respect
    to (raw quaternion, raw direction, raw magnitude)."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.q = unit_quat(rng)
        self.t_dir_raw = rng.normal(size=3)
        self.t_raw = 0.8
        self.t = self.t_raw * self.t_dir_raw / np.linalg.norm(self.t_dir_raw)
        gt_pose = Pose(unit_quat(rng), rng.normal(size=3))
        self.target = PoseTarget.from_pose(gt_pose)

    def check(self, value_fn, grad_fn, tol=1e-5):
        val, dq, dt = grad_fn(self.q, self.t)
        assert abs(val - value_fn(self.q, self.t)) < 1e-12
        # chain (dq, dt) onto the raw inputs
        u = self.t_dir_raw / np.linalg.norm(self.t_dir_raw)
        nd = np.linalg.norm(self.t_dir_raw)
        gd_analytic = (self.t_raw / nd) * (dt - (u @ dt) * u)
        gr_analytic = float(dt @ u)
        gq_fd, gd_fd, gr_fd = fd_triple(value_fn, self.q, self.t_dir_raw, self.t_raw)
        scale = max(np.abs(dq).max(), np.abs(gq_fd).max(), 1e-3)
        assert np.abs(dq - gq_fd).max() / scale < tol
        scale = max(np.abs(gd_analytic).max(), np.abs(gd_fd).max(), 1e-3)
        assert np.abs(gd_analytic - gd_fd).max() / scale < tol
        scale = max(abs(gr_analytic), abs(gr_fd), 1e-3)
        assert abs(gr_analytic - gr_fd) / scale < tol

    def test_quat_grad(self):
        self.check(lambda q, t: quat_loss(q, self.target.q),
                   lambda q, t: quat_loss_grad(q, self.target.q))

    def test_t_dir_grad(self):
        self.check(lambda q, t: t_dir_loss(t, self.target.t),
                   lambda q, t: t_dir_loss_grad(t, self.target.t))

    def test_t_scale_grad(self):
        self.check(lambda q, t: t_scale_loss(t, self.target.t),
                   lambda q, t: t_scale_loss_grad(t, self.target.t))

    def test_frob_grad(self):
        self.check(lambda q, t: frob_loss(q, t, self.target.E),
                   lambda q, t: frob_loss_grad(q, t, self.target.E))

    def test_frob_grad_normalized(self):
        self.check(lambda q, t: frob_loss(q, t, self.target.E, normalized=True),
                   lambda q, t: frob_loss_grad(q, t, self.target.E, normalized=True))

    def test_yaw_grad(self):
        self.check(lambda q, t: yaw_loss(q, self.target.q),
                   lambda q, t: yaw_loss_grad(q, self.target.q))

    def test_total_grad(self):
        w = LossWeights(1.0, 0.6, 1.7, 0.9)
        self.check(lambda q, t: total_loss(q, t, self.target, w).total,
                   lambda q, t: (lambda bd, dq, dt: (bd.total, dq, dt))(
                       *total_loss_grad(q, t, self.target, w)))

    def test_svd_matrix_grad_off_manifold(self):
        # checked away from repeated singular values (perturbation >= 1e-3)
        rng = np.random.default_rng(22)
        E = essential_from_pose(Pose(unit_quat(rng), [0.3, 0.4, 0.5]))
        E = E + 5e-3 * rng.normal(size=(3, 3))
        s = np.linalg.svd(E, compute_uv=False)
        assert s[0] - s[1] > 1e-3
        val, G = svd_loss_matrix_grad(E)
        h = 1e-7
        for i in range(3):
            for j in range(3):
                P = E.copy()
                P[i, j] += h
                fp = svd_loss_matrix(P)
                P[i, j] -= 2 * h
                fm = svd_loss_matrix(P)
                fd = (fp - fm) / (2 * h)
                assert abs(G[i, j] - fd) / max(abs(G[i, j]), abs(fd), 1e-3) < 1e-5


def test_breakdown_total_consistency():
    bd = LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 21.0)
    assert bd.pose == 6.0
