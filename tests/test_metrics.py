import json

import numpy as np
import pytest

from epigraph.errors import InvalidInputError, InvalidRotationError, ValidationError
from epigraph.geom import Pose, quat_from_axis_angle, quat_to_rot, relative_pose
from epigraph.metrics import (
    EvalRecord,
    ape,
    ape_r,
    ate,
    build_record,
    chain,
    dre,
    dte,
    run_report,
)
from epigraph.synth import Trajectory, generate_trajectory


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestDre:
    def test_identical(self):
        R = quat_to_rot(unit_quat(np.random.default_rng(0)))
        assert dre(R, R) < 1e-8

    def test_rotation_angle_recovered(self):
        rng = np.random.default_rng(1)
        for deg in (1, 5, 30, 90, 150, 179):
            axis = rng.normal(size=3)
            R = quat_to_rot(quat_from_axis_angle(axis, np.deg2rad(deg)))
            assert abs(dre(R, np.eye(3)) - deg) < 1e-9

    def test_quaternion_angle_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            qa, qb = unit_quat(rng), unit_quat(rng)
            expect = np.degrees(2 * np.arccos(min(abs(qa @ qb), 1.0)))
            assert abs(dre(quat_to_rot(qa), quat_to_rot(qb)) - expect) < 1e-7

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            A, B, C = (quat_to_rot(unit_quat(rng)) for _ in range(3))
            assert abs(dre(A, B) - dre(B, A)) < 1e-9
            assert dre(A, C) <= dre(A, B) + dre(B, C) + 1e-9

    def test_clamped_no_nan(self):
        # slightly denormalized rotations still in tolerance must not NaN
        R = quat_to_rot(unit_quat(np.random.default_rng(4)))
        R_eps = R * (1 + 1e-9)
        assert np.isfinite(dre(R_eps, R))
        assert np.isfinite(dre(R, R))

    def test_invalid_rotation_rejected(self):
        with pytest.raises(InvalidRotationError):
            dre(np.eye(3) * 2.0, np.eye(3))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = dre(quat_to_rot(unit_quat(rng)), quat_to_rot(unit_quat(rng)))
            assert 0.0 <= v <= 180.0


class TestDte:
    def test_reference_angles(self):
        assert dte([0, 0, 2.0], [0, 0, 1.0]) < 1e-12
        assert abs(dte([1.0, 0, 0], [0, 1.0, 0]) - 90.0) < 1e-12
        assert abs(dte([0, 0, -1.0], [0, 0, 1.0]) - 180.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        base = dte(t1, t2)
        for a, b in ((2.0, 3.0), (0.01, 700.0)):
            assert abs(dte(a * t1, b * t2) - base) < 1e-9

    def test_zero_pred_is_90(self):
        assert dte([0.0, 0, 0], [1.0, 0, 0]) == 90.0

    def test_zero_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            dte([1.0, 0, 0], [0.0, 0, 0])


class TestChain:
    def test_identity_relatives_constant(self):
        traj = chain([Pose.identity()] * 5)
        assert len(traj) == 6
        for p in traj.poses:
            assert np.abs(p.matrix() - np.eye(4)).max() < 1e-12

    def test_constant_forward_steps(self):
        step = Pose([1, 0, 0, 0], [0, 0, 0.1])
        traj = chain([step] * 10)
        for k, p in enumerate(traj.poses):
            assert np.abs(p.t - [0, 0, 0.1 * k]).max() < 1e-12

    def test_chain_of_relatives_reproduces_trajectory(self):
        gt = generate_trajectory(7, 20, "random-walk")
        rels = [relative_pose(a, b) for a, b in zip(gt.poses, gt.poses[1:])]
        rebuilt = chain(rels, start=gt.poses[0], fps=gt.fps)
        for a, b in zip(gt.poses, rebuilt.poses):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-9

    def test_origin_anchor_default(self):
        rebuilt = chain([Pose([1, 0, 0, 0], [1.0, 0, 0])])
        assert np.array_equal(rebuilt.poses[0].t, np.zeros(3))


class TestApeAte:
    def make_pair(self, seed=8, n=15):
        gt = generate_trajectory(seed, n, "random-walk")
        return gt, Trajectory([Pose(p.q, p.t + [1.0, 0, 0]) for p in gt.poses],
                              fps=gt.fps)

    def test_identical_zero(self):
        gt, _ = self.make_pair()
        assert np.all(ape(gt, gt) == 0.0)
        assert np.all(ape_r(gt, gt) < 1e-8)
        assert ate(gt, gt) == 0.0

    def test_constant_offset(self):
        gt, shifted = self.make_pair()
        assert np.allclose(ape(shifted, gt), 1.0)
        assert abs(ate(shifted, gt) - 1.0) < 1e-12

    def test_two_frame_rms(self):
        a = Trajectory([Pose.identity(), Pose([1, 0, 0, 0], [0, 0, 1.0])])
        b = Trajectory([Pose.identity(), Pose([1, 0, 0, 0], [2.0, 0, 1.0])])
        errs = ape(b, a)
        assert np.allclose(errs, [0.0, 2.0])
        assert abs(ate(b, a) - np.sqrt(2.0)) < 1e-12

    def test_random_perturbation_oracle(self):
        rng = np.random.default_rng(9)
        gt = generate_trajectory(10, 12, "random-walk")
        pred_poses = [Pose(unit_quat(rng), p.t + rng.normal(size=3) * 0.1)
                      for p in gt.poses]
        pred = Trajectory(pred_poses, fps=gt.fps)
        e = ape(pred, gt)
        er = ape_r(pred, gt)
        for k in range(len(gt)):
            assert abs(e[k] - np.linalg.norm(pred_poses[k].t - gt.poses[k].t)) < 1e-12
            expect = dre(pred_poses[k].rotation(), gt.poses[k].rotation())
            assert abs(er[k] - expect) < 1e-12

    def test_ate_zero_iff_all_ape_zero(self):
        gt, shifted = self.make_pair()
        assert ate(gt, gt) == 0.0 and np.all(ape(gt, gt) == 0.0)
        assert ate(shifted, gt) > 0.0 and np.any(ape(shifted, gt) > 0.0)

    def test_length_mismatch(self):
        gt, _ = self.make_pair()
        short = Trajectory(gt.poses[:-1], fps=gt.fps)
        with pytest.raises(ValidationError):
            ape(short, gt)
        with pytest.raises(ValidationError):
            ape_r(short, gt)
        with pytest.raises(ValidationError):
            ate(short, gt)

    def test_pure_offset_is_not_aligned_away(self):
        # ape/ate compare positions as chained, with no alignment
        gt, shifted = self.make_pair()
        assert np.allclose(ape(shifted, gt), 1.0, rtol=0, atol=1e-12)
        assert abs(ate(shifted, gt) - 1.0) < 1e-12


class TestRecordAndReport:
    def make_record(self, n=6, seed=11):
        rng = np.random.default_rng(seed)
        gts, preds = [], []
        base = generate_trajectory(seed, n + 1, "random-walk")
        for a, b in zip(base.poses, base.poses[1:]):
            rel = relative_pose(a, b)
            gts.append(rel)
            preds.append(Pose(rel.q, rel.t + rng.normal(size=3) * 0.01))
        ids = [f"seq:{i}:{i+1}" for i in range(n)]
        return build_record(ids, preds, gts, fps=10.0), ids, preds, gts

    def test_empty_record_header_only(self, tmp_path):
        paths = run_report(EvalRecord(), tmp_path, prefix="empty")
        assert open(paths["pairs"]).read() == "pair_id,dre_deg,dte_deg\n"
        assert open(paths["frames"]).read() == "frame,ape_m,ape_r_deg\n"
        summary = json.loads(open(paths["summary"]).read())
        assert summary["n_pairs"] == 0 and summary["dre_deg_mean"] is None

    def test_single_record_summary_equals_record(self):
        rec, *_ = self.make_record(n=1)
        s = rec.summary()
        assert abs(s["dre_deg_mean"] - rec.dre_deg[0]) < 1e-12
        assert abs(s["dre_deg_median"] - rec.dre_deg[0]) < 1e-12

    def test_summary_matches_independent_aggregation(self):
        rec, *_ = self.make_record(n=9, seed=12)
        s = rec.summary()
        assert abs(s["dre_deg_mean"] - float(np.mean(rec.dre_deg))) < 1e-12
        assert abs(s["dte_deg_median"] - float(np.median(rec.dte_deg))) < 1e-12
        assert abs(s["ape_m_mean"] - float(np.mean(rec.ape_m))) < 1e-12
        assert abs(s["ate_m"] - float(np.sqrt(np.mean(rec.ape_m ** 2)))) < 1e-12

    def test_chained_metrics_match_direct_recomputation(self):
        rec, ids, preds, gts = self.make_record(n=7, seed=13)
        pred_traj = chain(preds)
        gt_traj = chain(gts)
        assert np.abs(rec.ape_m - ape(pred_traj, gt_traj)).max() < 1e-12
        assert np.abs(rec.ape_r_deg - ape_r(pred_traj, gt_traj)).max() < 1e-12
        assert abs(rec.ate_m - ate(pred_traj, gt_traj)) < 1e-12

    def test_report_files_deterministic(self, tmp_path):
        rec, *_ = self.make_record(n=4, seed=14)
        p1 = run_report(rec, tmp_path / "a", prefix="x")
        p2 = run_report(rec, tmp_path / "b", prefix="x")
        for kind in p1:
            assert open(p1[kind]).read() == open(p2[kind]).read()
