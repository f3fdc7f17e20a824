"""Helpers the tests share and no command calls: the essential matrix and
the yaw of a pose, and the outlier-heavy stress scene."""

import numpy as np

from epigraph.geom import Intrinsics, Pose, quat_to_rot, skew
from epigraph.synth import DEFAULT_INTRINSICS, CorrespondenceSet, generate_scene


def essential_from_pose(pose: Pose) -> np.ndarray:
    """E = [t]x R. Zero translation yields the (degenerate) zero matrix."""
    return skew(pose.t) @ pose.rotation()


def yaw_of(q) -> float:
    """Yaw angle in radians, in (-pi, pi]: atan2(R[1,0], R[0,0])."""
    R = quat_to_rot(q)
    return float(np.arctan2(R[1, 0], R[0, 0]))


def stress_scene(seed, pose: Pose, n_points: int = 200,
                 intrinsics: Intrinsics = DEFAULT_INTRINSICS) -> CorrespondenceSet:
    """The ~30%-inlier stress regime: noiseless inliers, 70% uniform outliers."""
    return generate_scene(seed, n_points, (3.0, 10.0), pose, intrinsics,
                          noise_px=0.0, outlier_fraction=0.7)
