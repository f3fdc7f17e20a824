"""Relative and absolute pose metrics, trajectory chaining, reporting.

DRE is the geodesic rotation angle acos((tr(Rg^T Rp) - 1) / 2); DTE the
angular gap between translation directions; APE/APE-R/ATE compare a
chained trajectory against ground truth with both anchored at the origin,
without alignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidRotationError, ValidationError
from .geom import Pose
from .synth import Trajectory, _fmt


def _check_rotation(R, what):
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or np.abs(R @ R.T - np.eye(3)).max() > 1e-6 \
            or np.linalg.det(R) < 0:
        raise InvalidRotationError(f"{what} is not a rotation matrix")
    return R


def dre(R_pred, R_gt) -> float:
    """Geodesic rotation error in degrees, clamped into [0, 180]."""
    R_pred = _check_rotation(R_pred, "R_pred")
    R_gt = _check_rotation(R_gt, "R_gt")
    c = (np.trace(R_gt.T @ R_pred) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def dte(t_pred, t_gt) -> float:
    """Angle between translation directions in degrees.

    A zero-norm prediction is reported as 90 degrees (undetermined
    direction, orthogonal-equivalent)."""
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ng = np.linalg.norm(t_gt)
    if ng <= 0:
        raise InvalidInputError("ground-truth translation must be nonzero")
    np_ = np.linalg.norm(t_pred)
    if np_ < 1e-15:
        return 90.0
    c = (t_pred @ t_gt) / (np_ * ng)
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def chain(relatives, start: Pose | None = None, fps: float = 10.0) -> Trajectory:
    """Compose relative transforms: T_k = T_{k-1} @ rel_k, T_0 = identity."""
    poses = [start if start is not None else Pose.identity()]
    for rel in relatives:
        poses.append(poses[-1].compose(rel))
    return Trajectory(poses, fps=fps)


def ape(traj_pred: Trajectory, traj_gt: Trajectory) -> np.ndarray:
    """Per-frame position error in meters."""
    if len(traj_pred) != len(traj_gt):
        raise ValidationError("trajectory length mismatch")
    return np.linalg.norm(traj_pred.positions() - traj_gt.positions(), axis=1)


def ape_r(traj_pred: Trajectory, traj_gt: Trajectory) -> np.ndarray:
    """Per-frame rotational error in degrees, via R_rel = R_gt^T R_pred."""
    if len(traj_pred) != len(traj_gt):
        raise ValidationError("trajectory length mismatch")
    return np.array([dre(p.rotation(), g.rotation())
                     for p, g in zip(traj_pred.poses, traj_gt.poses)])


def ate(traj_pred: Trajectory, traj_gt: Trajectory) -> float:
    """RMS of the per-frame position errors."""
    if len(traj_pred) < 1:
        raise ValidationError("empty trajectory")
    e = ape(traj_pred, traj_gt)
    return float(np.sqrt(np.mean(e ** 2)))


# ---------------------------------------------------------------------------
# Records and reports
# ---------------------------------------------------------------------------

@dataclass
class EvalRecord:
    """Per-pair relative errors plus chained-trajectory absolute errors."""

    pair_ids: list[str] = field(default_factory=list)
    dre_deg: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dte_deg: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ape_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ape_r_deg: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ate_m: float | None = None

    def summary(self) -> dict:
        def stats(prefix, arr):
            if len(arr) == 0:
                return {f"{prefix}_mean": None, f"{prefix}_median": None}
            return {f"{prefix}_mean": float(np.mean(arr)),
                    f"{prefix}_median": float(np.median(arr))}

        out = {"n_pairs": len(self.pair_ids), "ate_m": self.ate_m}
        out.update(stats("ape_m", self.ape_m))
        out.update(stats("ape_r_deg", self.ape_r_deg))
        out.update(stats("dte_deg", self.dte_deg))
        out.update(stats("dre_deg", self.dre_deg))
        return out


def build_record(pair_ids, preds, gts, chain_indices=None, fps: float = 10.0) -> EvalRecord:
    """Assemble per-pair and chained metrics.

    ``chain_indices`` selects the pairs (in order) whose relatives are
    composed into trajectories; default is all pairs in sequence.
    """
    rec = EvalRecord(pair_ids=list(pair_ids))
    rec.dre_deg = np.array([dre(p.rotation(), g.rotation())
                            for p, g in zip(preds, gts)])
    rec.dte_deg = np.array([dte(p.t, g.t) for p, g in zip(preds, gts)])
    if chain_indices is None:
        chain_indices = range(len(preds))
    chain_pred = chain([preds[i] for i in chain_indices], fps=fps)
    chain_gt = chain([gts[i] for i in chain_indices], fps=fps)
    rec.ape_m = ape(chain_pred, chain_gt)
    rec.ape_r_deg = ape_r(chain_pred, chain_gt)
    rec.ate_m = ate(chain_pred, chain_gt)
    return rec


def run_report(record: EvalRecord, out_dir, prefix: str = "eval") -> dict:
    """Write per-pair / per-frame CSVs and a JSON summary block.

    Returns {kind: path}. Empty records yield header-only CSVs."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    pair_path = os.path.join(out_dir, f"{prefix}_pairs.csv")
    with open(pair_path, "w") as f:
        f.write("pair_id,dre_deg,dte_deg\n")
        for pid, a, b in zip(record.pair_ids, record.dre_deg, record.dte_deg):
            f.write(f"{pid},{_fmt(a)},{_fmt(b)}\n")
    paths["pairs"] = pair_path

    frame_path = os.path.join(out_dir, f"{prefix}_frames.csv")
    with open(frame_path, "w") as f:
        f.write("frame,ape_m,ape_r_deg\n")
        for k, (a, b) in enumerate(zip(record.ape_m, record.ape_r_deg)):
            f.write(f"{k},{_fmt(a)},{_fmt(b)}\n")
    paths["frames"] = frame_path

    summary_path = os.path.join(out_dir, f"{prefix}_summary.json")
    with open(summary_path, "w") as f:
        f.write(json.dumps(record.summary(), indent=2, sort_keys=True) + "\n")
    paths["summary"] = summary_path
    return paths
