import dataclasses

import numpy as np
import pytest

from epigraph.errors import InvalidInputError, ValidationError
from epigraph.geom import (
    Pose,
    quat_from_axis_angle,
    quat_to_rot,
    quat_to_rot_jacobian,
    skew,
    wrap_angle,
)
from epigraph.losses import (
    TERM_GRADS,
    TERM_VALUES,
    LossBreakdown,
    LossWeights,
    PoseTarget,
    PredictionState,
    total_loss,
    total_loss_grad,
)
from helpers import essential_from_pose, yaw_of


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


NO_Q = np.array([1.0, 0.0, 0.0, 0.0])
NO_T = np.zeros(3)


def term(name, target, q=NO_Q, t=NO_T):
    """One TERM_VALUES entry at (q, t), with total_loss's unit-norm check
    on q; the inputs a term does not read get placeholders."""
    return TERM_VALUES[name](PredictionState(q, t).check_unit(), target)


def q_target(q_gt):
    return PoseTarget(q_gt, None, None)


def t_target(t_gt):
    return PoseTarget(None, t_gt, None)


def e_target(E_gt, normalized=False):
    return PoseTarget(None, None, E_gt, normalized)


def spectral_gap(E):
    """(s1 - s2)^2 + s3^2 of a 3x3 matrix, from a numeric SVD."""
    s = np.linalg.svd(E, compute_uv=False)
    return (s[0] - s[1]) ** 2 + s[2] ** 2


class TestQuatLoss:
    def test_equal_is_zero(self):
        q = unit_quat(np.random.default_rng(0))
        assert term("quat", q_target(q), q) == 0.0

    def test_hemisphere_flip_is_zero(self):
        q = unit_quat(np.random.default_rng(1))
        assert term("quat", q_target(q), -q) == 0.0

    def test_hemisphere_invariance_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q, g = unit_quat(rng), unit_quat(rng)
            assert term("quat", q_target(g), q) == term("quat", q_target(g), -q)

    def test_90_deg_about_z_hand_oracle(self):
        q_gt = np.array([1.0, 0, 0, 0])
        q_pred = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        expect = np.sqrt((c - 1.0) ** 2 + s ** 2)
        assert abs(term("quat", q_target(q_gt), q_pred) - expect) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            term("quat", q_target([1, 0, 0, 0]), [1.1, 0, 0, 0])
        with pytest.raises(ValidationError):
            term("quat", q_target([0.5, 0, 0, 0]), [1, 0, 0, 0])


class TestTranslationLosses:
    def test_t_dir_reference_angles(self):
        assert abs(term("t_dir", t_target([0, 0, 0.5]), t=[0, 0, 2.0])) < 1e-15
        assert abs(term("t_dir", t_target([0, 0, 1.0]), t=[0, 0, -1.0]) - 2.0) < 1e-15
        assert abs(term("t_dir", t_target([0, 0, 1.0]), t=[1.0, 0, 0]) - 1.0) < 1e-15

    def test_t_dir_scale_invariance(self):
        rng = np.random.default_rng(3)
        t, g = rng.normal(size=3), rng.normal(size=3)
        base = term("t_dir", t_target(g), t=t)
        for c in (0.1, 2.0, 300.0):
            assert abs(term("t_dir", t_target(g), t=c * t) - base) < 1e-12

    def test_t_dir_zero_pred_defined_as_one(self):
        assert term("t_dir", t_target([1.0, 0, 0]), t=[0.0, 0, 0]) == 1.0

    def test_t_dir_zero_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            term("t_dir", t_target([0.0, 0, 0]), t=[1.0, 0, 0])

    def test_t_scale_direct(self):
        assert term("t_scale", t_target([0, 0.5, 0]), t=[2.0, 0, 0]) == 1.5
        assert term("t_scale", t_target([0, 1.0, 0]), t=[1.0, 0, 0]) == 0.0

    def test_t_scale_rotation_invariance(self):
        rng = np.random.default_rng(4)
        t, g = rng.normal(size=3), rng.normal(size=3)
        R = quat_to_rot(unit_quat(rng))
        assert abs(term("t_scale", t_target(g), t=R @ t)
                   - term("t_scale", t_target(g), t=t)) < 1e-12

    def test_t_scale_random_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t, g = rng.normal(size=3), rng.normal(size=3)
            expect = abs(np.linalg.norm(t) - np.linalg.norm(g))
            assert abs(term("t_scale", t_target(g), t=t) - expect) < 1e-15


class TestFrobLoss:
    def test_perfect_prediction_zero(self):
        pose = Pose(unit_quat(np.random.default_rng(6)), [0.3, -0.2, 0.8])
        E_gt = essential_from_pose(pose)
        assert term("frob", e_target(E_gt), pose.q, pose.t) < 1e-15

    def test_zero_translation_gives_gt_norm(self):
        pose = Pose(unit_quat(np.random.default_rng(7)), [0.5, 0.1, 0.9])
        E_gt = essential_from_pose(pose)
        assert abs(term("frob", e_target(E_gt), pose.q, [0.0, 0, 0])
                   - np.linalg.norm(E_gt)) < 1e-12

    def test_random_direct_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            q, t = unit_quat(rng), rng.normal(size=3)
            E_gt = rng.normal(size=(3, 3))
            expect = np.linalg.norm(skew(t) @ quat_to_rot(q) - E_gt)
            assert abs(term("frob", e_target(E_gt), q, t) - expect) < 1e-12

    def test_normalized_variant_scale_free(self):
        rng = np.random.default_rng(9)
        q, t = unit_quat(rng), rng.normal(size=3)
        E_gt = essential_from_pose(Pose(q, 5.0 * t))
        # same direction, very different magnitude: normalized variant is 0
        assert term("frob", e_target(E_gt, normalized=True), q, t) < 1e-12
        assert term("frob", e_target(E_gt), q, t) > 1.0


class TestSvdLoss:
    def test_exact_essential_vanishes_1000(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            q = unit_quat(rng)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            assert spectral_gap(essential_from_pose(Pose(q, t))) < 1e-12


class TestYawLoss:
    def test_equal_zero(self):
        q = unit_quat(np.random.default_rng(13))
        assert term("yaw", q_target(q), q) == 0.0

    def test_wrap_170_vs_minus_170(self):
        a = quat_from_axis_angle([0, 0, 1], np.deg2rad(170))
        b = quat_from_axis_angle([0, 0, 1], np.deg2rad(-170))
        assert abs(term("yaw", q_target(b), a) - np.deg2rad(20)) < 1e-12

    def test_random_yaw_of_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a, b = unit_quat(rng), unit_quat(rng)
            expect = abs(wrap_angle(yaw_of(a) - yaw_of(b)))
            assert abs(term("yaw", q_target(b), a) - expect) < 1e-15

    def test_range(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            a = unit_quat(rng)
            v = term("yaw", q_target(unit_quat(rng)), a)
            assert 0.0 <= v <= np.pi


class TestTotalLoss:
    def test_perfect_prediction_all_zero(self):
        pose = Pose(unit_quat(np.random.default_rng(16)), [0.4, -0.1, 0.7])
        target = PoseTarget.from_pose(pose)
        bd = total_loss(pose.q, pose.t, target)
        for v in (bd.quat, bd.t_dir, bd.t_scale, bd.frob, bd.yaw, bd.total):
            assert abs(v) < 1e-10

    def test_zero_weights_zero_total(self):
        rng = np.random.default_rng(17)
        target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
        bd = total_loss(unit_quat(rng), rng.normal(size=3), target,
                        LossWeights(0, 0, 0))
        assert bd.total == 0.0

    def test_weighted_sum_identity(self):
        rng = np.random.default_rng(18)
        gt_pose = Pose(unit_quat(rng), rng.normal(size=3))
        target = PoseTarget.from_pose(gt_pose)
        q, t = unit_quat(rng), rng.normal(size=3)
        w = LossWeights(0.7, 1.3, 0.25)
        bd = total_loss(q, t, target, w)
        expect = (w.lambda_pose * (term("quat", target, q, t) + term("t_dir", target, q, t)
                                   + term("t_scale", target, q, t))
                  + w.lambda_frob * term("frob", target, q, t)
                  + w.lambda_yaw * term("yaw", target, q, t))
        assert abs(bd.total - expect) < 1e-12
        assert abs(bd.pose - (bd.quat + bd.t_dir + bd.t_scale)) < 1e-15

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(19)
        target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
        q, t = unit_quat(rng), rng.normal(size=3)
        base = total_loss(q, t, target, LossWeights(1, 1, 1)).total
        for bumped in (LossWeights(2, 1, 1), LossWeights(1, 2, 1), LossWeights(1, 1, 2)):
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
            for v in (bd.quat, bd.t_dir, bd.t_scale, bd.frob, bd.yaw, bd.total):
                assert v >= 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(lambda_pose=-0.1)

    @pytest.mark.parametrize("field", ["lambda_pose", "lambda_frob", "lambda_yaw"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            LossWeights(**{field: value})


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

    def check_term(self, name, target=None):
        target = target or self.target
        self.check(lambda q, t: term(name, target, q, t),
                   lambda q, t: TERM_GRADS[name](q, t, target))

    def test_quat_grad(self):
        self.check_term("quat")

    def test_t_dir_grad(self):
        self.check_term("t_dir")

    def test_t_scale_grad(self):
        self.check_term("t_scale")

    def test_frob_grad(self):
        self.check_term("frob")

    def test_frob_grad_normalized(self):
        self.check_term("frob", dataclasses.replace(self.target, normalized_e=True))

    def test_yaw_grad(self):
        self.check_term("yaw")

    def test_total_grad(self):
        w = LossWeights(1.0, 0.6, 0.9)
        self.check(lambda q, t: total_loss(q, t, self.target, w).total,
                   lambda q, t: (lambda bd, dq, dt: (bd.total, dq, dt))(
                       *total_loss_grad(q, t, self.target, w)))


def test_breakdown_total_consistency():
    bd = LossBreakdown(1.0, 2.0, 3.0, 4.0, 6.0, 16.0)
    assert bd.pose == 6.0


# ---------------------------------------------------------------------------
# Oracle: the per-term loss code before the shared prediction state.  Each
# term renormalizes q and rebuilds R, its Jacobian and E on its own, the
# Frobenius gradient is chained through per-entry contractions.  The
# state-based terms must match it.
# ---------------------------------------------------------------------------

def o_unit(q, what):
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-6:
        raise ValidationError(f"{what} is not unit norm (|q| = {n})")
    return q / n


def o_project(vec, u, n):
    return (vec - (u @ vec) * u) / n


def o_yaw_of(q):
    R = quat_to_rot(q)
    return float(np.arctan2(R[1, 0], R[0, 0]))


def o_quat_loss(q_pred, q_gt):
    qp = o_unit(q_pred, "predicted quaternion")
    qg = o_unit(q_gt, "ground-truth quaternion")
    s = 1.0 if qp @ qg >= 0 else -1.0
    return float(np.linalg.norm(s * qp - qg))


def o_quat_loss_grad(q_pred, q_gt):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    qg = o_unit(q_gt, "ground-truth quaternion")
    s = 1.0 if u @ qg >= 0 else -1.0
    d = s * u - qg
    val = float(np.linalg.norm(d))
    du = s * d / val if val > 1e-12 else np.zeros(4)
    return val, o_project(du, u, n), np.zeros(3)


def o_t_dir_loss(t_pred, t_gt):
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ng = np.linalg.norm(t_gt)
    if ng <= 0:
        raise InvalidInputError("ground-truth translation must be nonzero")
    np_ = np.linalg.norm(t_pred)
    if np_ < 1e-15:
        return 1.0
    return float(1.0 - (t_pred @ t_gt) / (np_ * ng))


def o_t_dir_loss_grad(t_pred, t_gt):
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ng = np.linalg.norm(t_gt)
    if ng <= 0:
        raise InvalidInputError("ground-truth translation must be nonzero")
    np_ = np.linalg.norm(t_pred)
    if np_ < 1e-15:
        return 1.0, np.zeros(4), np.zeros(3)
    u = t_pred / np_
    v = t_gt / ng
    val = float(1.0 - u @ v)
    return val, np.zeros(4), -(v - (u @ v) * u) / np_


def o_t_scale_loss(t_pred, t_gt):
    return float(abs(np.linalg.norm(np.asarray(t_pred, dtype=float))
                     - np.linalg.norm(np.asarray(t_gt, dtype=float))))


def o_t_scale_loss_grad(t_pred, t_gt):
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    np_ = np.linalg.norm(t_pred)
    ng = np.linalg.norm(np.asarray(t_gt, dtype=float))
    val = float(abs(np_ - ng))
    if np_ < 1e-15:
        return val, np.zeros(4), np.zeros(3)
    return val, np.zeros(4), np.sign(np_ - ng) * t_pred / np_


def o_e_pred(q_pred, t_pred):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    t = np.asarray(t_pred, dtype=float).reshape(3)
    R = quat_to_rot(u)
    return skew(t) @ R, u, n, t, R


def o_chain_e_grads(G, u, n, t, R):
    J = quat_to_rot_jacobian(u)
    du = np.array([np.sum(G * (skew(t) @ J[k])) for k in range(4)])
    basis = np.eye(3)
    dt = np.array([np.sum(G * (skew(basis[k]) @ R)) for k in range(3)])
    return o_project(du, u, n), dt


def o_frob_loss(q_pred, t_pred, E_gt, normalized=False):
    E_p, *_ = o_e_pred(q_pred, t_pred)
    E_gt = np.asarray(E_gt, dtype=float)
    if normalized:
        npred = np.linalg.norm(E_p)
        ngt = np.linalg.norm(E_gt)
        if npred > 1e-15:
            E_p = E_p / npred
        if ngt > 1e-15:
            E_gt = E_gt / ngt
    return float(np.linalg.norm(E_p - E_gt))


def o_frob_loss_grad(q_pred, t_pred, E_gt, normalized=False):
    E_p, u, n, t, R = o_e_pred(q_pred, t_pred)
    E_gt = np.asarray(E_gt, dtype=float)
    if normalized:
        npred = np.linalg.norm(E_p)
        ngt = np.linalg.norm(E_gt)
        Eg = E_gt / ngt if ngt > 1e-15 else E_gt
        if npred < 1e-15:
            return float(np.linalg.norm(E_p - Eg)), np.zeros(4), np.zeros(3)
        Ep_hat = E_p / npred
        D = Ep_hat - Eg
        val = float(np.linalg.norm(D))
        if val < 1e-12:
            return val, np.zeros(4), np.zeros(3)
        G0 = D / val
        G = (G0 - np.sum(G0 * Ep_hat) * Ep_hat) / npred
    else:
        D = E_p - E_gt
        val = float(np.linalg.norm(D))
        if val < 1e-12:
            return val, np.zeros(4), np.zeros(3)
        G = D / val
    dq, dt = o_chain_e_grads(G, u, n, t, R)
    return val, dq, dt


def o_yaw_loss(q_pred, q_gt):
    qp = o_unit(q_pred, "predicted quaternion")
    qg = o_unit(q_gt, "ground-truth quaternion")
    return abs(wrap_angle(o_yaw_of(qp) - o_yaw_of(qg)))


def o_yaw_loss_grad(q_pred, q_gt):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    qg = o_unit(q_gt, "ground-truth quaternion")
    R = quat_to_rot(u)
    a, b = R[0, 0], R[1, 0]
    diff = wrap_angle(o_yaw_of(u) - o_yaw_of(qg))
    val = abs(diff)
    den = a * a + b * b
    if den < 1e-12 or val < 1e-12:
        return val, np.zeros(4), np.zeros(3)
    J = quat_to_rot_jacobian(u)
    dyaw = np.array([(a * J[k][1, 0] - b * J[k][0, 0]) / den for k in range(4)])
    return val, o_project(np.sign(diff) * dyaw, u, n), np.zeros(3)


O_TERM_VALUES = {
    "quat": lambda q, t, tgt: o_quat_loss(q, tgt.q),
    "t_dir": lambda q, t, tgt: o_t_dir_loss(t, tgt.t),
    "t_scale": lambda q, t, tgt: o_t_scale_loss(t, tgt.t),
    "frob": lambda q, t, tgt: o_frob_loss(q, t, tgt.E, normalized=tgt.normalized_e),
    "yaw": lambda q, t, tgt: o_yaw_loss(q, tgt.q),
}

O_TERM_GRADS = {
    "quat": lambda q, t, tgt: o_quat_loss_grad(q, tgt.q),
    "t_dir": lambda q, t, tgt: o_t_dir_loss_grad(t, tgt.t),
    "t_scale": lambda q, t, tgt: o_t_scale_loss_grad(t, tgt.t),
    "frob": lambda q, t, tgt: o_frob_loss_grad(q, t, tgt.E, normalized=tgt.normalized_e),
    "yaw": lambda q, t, tgt: o_yaw_loss_grad(q, tgt.q),
}


def o_weighted(w, quat, t_dir, t_scale, frob, yaw):
    return (w.lambda_pose * (quat + t_dir + t_scale) + w.lambda_frob * frob
            + w.lambda_yaw * yaw)


def o_total_loss(q, t, tgt, w=LossWeights()):
    vals = [value(q, t, tgt) for value in O_TERM_VALUES.values()]
    return LossBreakdown(*vals, o_weighted(w, *vals))


def o_total_loss_grad(q, t, tgt, w=LossWeights(), terms=None):
    if terms is None:
        terms = [grad(q, t, tgt) for grad in O_TERM_GRADS.values()]
    vals, dqs, dts = zip(*terms)
    return (LossBreakdown(*vals, o_weighted(w, *vals)),
            o_weighted(w, *dqs), o_weighted(w, *dts))


def assert_close(got, want, what):
    """|got - want| <= 1e-12 * max(|want|, 1), elementwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert err.max(initial=0.0) <= 1e-12, (what, got, want)


def assert_matches_oracle(q, t, tgt, w=LossWeights()):
    """total_loss (when q is unit), total_loss_grad and every TERM_GRADS
    entry against the oracle, term by term."""
    names = [f.name for f in dataclasses.fields(LossBreakdown)]
    if abs(np.linalg.norm(q) - 1.0) <= 1e-6:
        bd, want = total_loss(q, t, tgt, w), o_total_loss(q, t, tgt, w)
        for name in names:
            assert_close(getattr(bd, name), getattr(want, name), ("total_loss", name))
            assert type(getattr(bd, name)) is float, name
    want_terms = {term: grad(q, t, tgt) for term, grad in O_TERM_GRADS.items()}
    bd, dq, dt = total_loss_grad(q, t, tgt, w)
    want_bd, want_dq, want_dt = o_total_loss_grad(q, t, tgt, w, want_terms.values())
    for name in names:
        assert_close(getattr(bd, name), getattr(want_bd, name), ("total_loss_grad", name))
    assert_close(dq, want_dq, "dq")
    assert_close(dt, want_dt, "dt")
    total_bd, *total_grads = o_total_loss_grad(q, t, tgt, terms=want_terms.values())
    want_terms["total"] = (total_bd.total, *total_grads)
    for term, grad in TERM_GRADS.items():
        for got, want, part in zip(grad(q, t, tgt), want_terms[term], ("val", "dq", "dt")):
            assert_close(got, want, (term, part))


def random_case(rng, normalized_e):
    gt = Pose(unit_quat(rng), rng.normal(size=3))
    if rng.random() < 0.5:
        tgt = PoseTarget.from_pose(gt, normalized_e)
    else:  # E off the essential manifold
        tgt = PoseTarget(gt.q, gt.t, rng.normal(size=(3, 3)), normalized_e)
    q = rng.normal(size=4)
    if rng.random() < 0.5:
        q /= np.linalg.norm(q)
    return q, rng.normal(size=3) * rng.uniform(0.1, 3.0), tgt


class TestOracle:
    def test_random_cases(self):
        rng = np.random.default_rng(30)
        for i in range(2000):
            normalized_e = bool(i % 2)
            q, t, tgt = random_case(rng, normalized_e)
            w = LossWeights()
            if i % 4 >= 2:
                # the third draw weighted the deleted spectral term; it is
                # still drawn so the cases stay the same
                pose, frob, _, yaw = rng.uniform(0.0, 3.0, size=4).tolist()
                w = LossWeights(pose, frob, yaw)
            assert_matches_oracle(q, t, tgt, w)

    @pytest.mark.parametrize("normalized_e", [False, True])
    def test_perfect_prediction(self, normalized_e):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pose = Pose(unit_quat(rng), rng.normal(size=3))
            tgt = PoseTarget.from_pose(pose, normalized_e)
            for q in (pose.q, -pose.q):
                assert_matches_oracle(q, pose.t, tgt)
                # the target's constants come from the prediction's float code
                bd = total_loss(q, pose.t, tgt)
                assert (bd.quat, bd.t_scale, bd.frob, bd.yaw) == (0.0, 0.0, 0.0, 0.0)
                assert abs(bd.t_dir) < 1e-15
            _, dq, dt = total_loss_grad(pose.q, pose.t, tgt)
            assert np.abs(dq).max() < 1e-6 and np.abs(dt).max() < 1e-6

    def test_orthogonal_hemisphere(self):
        tgt = PoseTarget.from_pose(Pose([1.0, 0, 0, 0], [0.2, -0.1, 0.9]))
        for q in ([0.0, 1, 0, 0], [0.0, 0, 0, -1], [0.0, 0.6, 0, 0.8]):
            q = np.array(q)
            assert q @ tgt.q == 0.0
            assert_matches_oracle(q, np.array([0.3, 0.1, 0.5]), tgt)

    def test_yaw_gap_near_pi(self):
        t = np.array([0.1, 0.4, -0.3])
        for a, b in ((179.9, -179.9), (-179.9, 179.9), (180.0, 0.0), (90.0, -90.0)):
            q = quat_from_axis_angle([0, 0, 1], np.deg2rad(a))
            tgt = PoseTarget.from_pose(Pose(quat_from_axis_angle([0, 0, 1], np.deg2rad(b)), t))
            assert_matches_oracle(q, t, tgt)

    @pytest.mark.parametrize("normalized_e", [False, True])
    def test_zero_norm_translation(self, normalized_e):
        rng = np.random.default_rng(32)
        tgt = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)), normalized_e)
        assert_matches_oracle(unit_quat(rng), np.zeros(3), tgt)
        assert total_loss(unit_quat(rng), np.zeros(3), tgt).t_dir == 1.0
        if normalized_e:    # E = 0 is left unscaled and has no gradient
            _, dq, dt = TERM_GRADS["frob"](unit_quat(rng), np.zeros(3), tgt)
            assert np.array_equal(dq, np.zeros(4)) and np.array_equal(dt, np.zeros(3))

    def test_yaw_undefined_at_gimbal_lock(self):
        q = quat_from_axis_angle([0, 1, 0], np.pi / 2)
        R = quat_to_rot(q)
        assert R[0, 0] ** 2 + R[1, 0] ** 2 < 1e-12
        tgt = PoseTarget.from_pose(Pose(quat_from_axis_angle([0, 0, 1], 0.7), [0.5, 0, 0.5]))
        assert_matches_oracle(q, np.array([0.4, 0.2, 0.1]), tgt)
        _, dq, _ = TERM_GRADS["yaw"](q, np.array([0.4, 0.2, 0.1]), tgt)
        assert np.array_equal(dq, np.zeros(4))

    def test_prediction_opposite_to_target(self):
        # equal norms: t_scale's gradient is np.sign(0) * ..., exactly 0
        t = np.array([0.3, -0.7, 0.2])
        tgt = PoseTarget.from_pose(Pose(quat_from_axis_angle([1, 2, 0], 0.4), t))
        assert term("t_scale", tgt, t=-t) == 0.0
        assert_matches_oracle(tgt.q, -t, tgt)
        _, dq, dt = TERM_GRADS["t_scale"](tgt.q, -t, tgt)
        assert np.array_equal(dq, np.zeros(4)) and np.array_equal(dt, np.zeros(3))

    def test_yaw_gap_exactly_zero_and_pi(self):
        t = np.array([0.1, 0.4, -0.3])
        half_turn, identity = np.array([0.0, 0, 0, 1]), np.array([1.0, 0, 0, 0])
        for q, q_gt, gap in ((half_turn, half_turn, 0.0), (identity, identity, 0.0),
                             (half_turn, identity, np.pi), (identity, half_turn, np.pi)):
            tgt = PoseTarget.from_pose(Pose(q_gt, t))
            assert term("yaw", tgt, q, t) == gap
            assert_matches_oracle(q, t, tgt)
            if gap == 0.0:
                assert np.array_equal(TERM_GRADS["yaw"](q, t, tgt)[1], np.zeros(4))

    def test_non_unit_quaternions_rejected(self):
        t = np.array([0.3, 0.1, 0.5])
        good = PoseTarget.from_pose(Pose([1.0, 0, 0, 0], t))
        bad_gt = PoseTarget(np.array([1.1, 0, 0, 0]), t, good.E)
        with pytest.raises(ValidationError, match="predicted"):
            total_loss(np.array([1.1, 0, 0, 0]), t, good)
        with pytest.raises(ValidationError, match="predicted"):
            o_total_loss(np.array([1.1, 0, 0, 0]), t, good)
        for fn in (total_loss, total_loss_grad, o_total_loss, o_total_loss_grad):
            with pytest.raises(ValidationError, match="ground-truth"):
                fn(np.array([1.0, 0, 0, 0]), t, bad_gt)

    def test_target_constants_derived_once(self):
        rng = np.random.default_rng(33)
        tgt = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)), True)
        total_loss_grad(rng.normal(size=4), rng.normal(size=3), tgt)
        cached = {k: tgt.__dict__[k] for k in ("q_unit", "t_norm", "t_unit", "yaw", "E_ref")}
        total_loss(unit_quat(rng), rng.normal(size=3), tgt)
        total_loss_grad(rng.normal(size=4), rng.normal(size=3), tgt)
        assert all(tgt.__dict__[k] is v for k, v in cached.items())


BAD_VALUES = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteInputs:
    """A NaN or infinite prediction or target ends in InvalidInputError
    naming the argument, from every entry point that reads it."""

    def setup_method(self):
        rng = np.random.default_rng(39)
        self.pose = Pose(unit_quat(rng), rng.normal(size=3))
        self.q, self.t = unit_quat(rng), rng.normal(size=3)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["q_pred", "t_pred"])
    def test_prediction(self, arg, bad):
        tgt = PoseTarget.from_pose(self.pose)
        q, t = self.q.copy(), self.t.copy()
        (q if arg == "q_pred" else t)[1] = bad
        for fn in (total_loss, total_loss_grad, *TERM_GRADS.values()):
            with pytest.raises(InvalidInputError, match=f"^{arg} must be finite"):
                fn(q, t, tgt)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("field", ["q", "t", "E"])
    def test_target(self, field, bad):
        good = PoseTarget.from_pose(self.pose)
        value = getattr(good, field).copy()
        value.flat[1] = bad
        tgt = dataclasses.replace(good, **{field: value})
        for fn in (total_loss, total_loss_grad, TERM_GRADS["total"]):
            with pytest.raises(InvalidInputError, match=f"^target {field} must be finite"):
                fn(self.q, self.t, tgt)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_pose_translation(self, bad):
        pose = Pose(self.pose.q, [0.1, bad, 0.2])
        with pytest.raises(InvalidInputError, match="^target t must be finite"):
            PoseTarget.from_pose(pose)

    def test_zero_quaternion(self):
        tgt = PoseTarget.from_pose(self.pose)
        for fn in (total_loss, total_loss_grad):
            with pytest.raises(InvalidInputError, match="^q_pred must be nonzero"):
                fn(np.zeros(4), self.t, tgt)


class TestOnePredictionState:
    """Each total_loss/total_loss_grad call builds one prediction state,
    evaluates each TERM_VALUES entry once and runs no SVD."""

    @pytest.mark.parametrize("fn", [total_loss, total_loss_grad])
    def test_guard(self, fn, monkeypatch):
        from epigraph import losses

        built, calls = [], []
        state = losses.PredictionState
        monkeypatch.setattr(losses, "PredictionState",
                            lambda *a, **kw: built.append(1) or state(*a, **kw))
        for term, value in list(TERM_VALUES.items()):
            monkeypatch.setitem(TERM_VALUES, term,
                                lambda *a, term=term, value=value, **kw:
                                calls.append(term) or value(*a, **kw))

        def no_svd(*a, **kw):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rng = np.random.default_rng(34)
        tgt = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))
        fn(unit_quat(rng), rng.normal(size=3), tgt, LossWeights(0.5, 1.5, 0.3))
        assert len(built) == 1
        assert calls == list(TERM_VALUES)


class TestClosedFormSvd:
    """[t]x R has singular values (|t|, |t|, 0), so the paper's spectral
    term adds nothing beyond t_scale on targets built as [t]x R."""

    def test_numeric_identity_1000_predictions(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            u, t = unit_quat(rng), rng.normal(size=3)
            assert spectral_gap(skew(t) @ quat_to_rot(u)) < 1e-12

    def test_paper_term_is_sqrt2_t_scale_or_zero(self):
        rng = np.random.default_rng(36)
        for normalized_e in (False, True):
            tgt = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)), normalized_e)
            for _ in range(20):
                q, t = unit_quat(rng), rng.normal(size=3)
                E = skew(t) @ quat_to_rot(q)
                if normalized_e:
                    E = E / np.linalg.norm(E)
                E_ref = np.reshape(tgt.E_ref, (3, 3))
                gap = np.linalg.norm(np.linalg.svd(E, compute_uv=False)
                                     - np.linalg.svd(E_ref, compute_uv=False))
                expect = 0.0 if normalized_e else np.sqrt(2) * term("t_scale", tgt, q, t)
                assert abs(gap - expect) < 1e-12
