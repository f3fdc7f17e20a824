"""Ground-truth data source.

Synthetic scenes (a stand-in for dense-matcher correspondence dumps),
smooth camera trajectories, temporal pair sampling, and text-file
ingestion/serialization of correspondences and trajectories.

All generators are pure functions of their seed and parameters.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySamplingError,
    FormatError,
    InvalidInputError,
    SchemaVersionError,
    UnprojectableSceneError,
    ValidationError,
)
from .geom import (
    Intrinsics,
    Pose,
    normalize_pixels,
    quat_from_axis_angle,
    relative_pose,
    rot_to_quat,
)

DEFAULT_INTRINSICS = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
DEFAULT_WIDTH = 640
DEFAULT_HEIGHT = 480

CORR_HEADER = "# epigraph-corr v1"


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips a float64 exactly."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class CorrespondenceSet:
    """Matched pixel pairs with confidences for one image pair."""

    p1: np.ndarray              # (N, 2) pixels in view 1
    p2: np.ndarray              # (N, 2) pixels in view 2
    confidence: np.ndarray      # (N,) in [0, 1]
    intrinsics: Intrinsics
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    gt_relative: Pose | None = None
    pair_id: tuple[str, int, int] = ("pair", 0, 1)

    def __post_init__(self):
        self.p1 = np.asarray(self.p1, dtype=float).reshape(-1, 2)
        self.p2 = np.asarray(self.p2, dtype=float).reshape(-1, 2)
        self.confidence = np.asarray(self.confidence, dtype=float).reshape(-1)
        n = len(self.p1)
        if len(self.p2) != n or len(self.confidence) != n:
            raise ValidationError("p1, p2 and confidence must have equal length")
        if n > 0:
            # written so that a NaN, which compares False, fails them
            if not (self.confidence.min() >= 0 and self.confidence.max() <= 1):
                raise ValidationError("confidences must lie in [0, 1]")
            for name, p in (("p1", self.p1), ("p2", self.p2)):
                if not (p[:, 0].min() >= 0 and p[:, 0].max() < self.width
                        and p[:, 1].min() >= 0 and p[:, 1].max() < self.height):
                    raise ValidationError(f"{name} pixels fall outside image bounds")

    def __len__(self) -> int:
        return len(self.p1)

    def normalized_points(self):
        """Intrinsics-normalized homogeneous points: two (N, 3) arrays."""
        return (normalize_pixels(self.p1, self.intrinsics),
                normalize_pixels(self.p2, self.intrinsics))

    def confidences(self) -> np.ndarray:
        return self.confidence

    def pair_label(self) -> str:
        seq, i, j = self.pair_id
        return f"{seq}:{i}:{j}"

    def cache_token(self) -> str:
        """Content digest; pair ids alone may collide across datasets."""
        if not hasattr(self, "_cache_token"):
            h = hashlib.sha256()
            K = self.intrinsics
            h.update(repr((self.width, self.height, K.fx, K.fy, K.cx, K.cy)).encode())
            for arr in (self.p1, self.p2, self.confidence):
                h.update(np.ascontiguousarray(arr).tobytes())
            object.__setattr__(self, "_cache_token", h.hexdigest())
        return self._cache_token


@dataclass
class Trajectory:
    """Absolute camera-to-world poses at strictly increasing frame indices."""

    poses: list[Pose]
    fps: float = 10.0

    def __post_init__(self):
        if not self.fps > 0:
            raise InvalidInputError("frame rate must be positive")

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.array([p.t for p in self.poses]).reshape(-1, 3)


@dataclass(frozen=True)
class SamplingSpec:
    """Temporal spacing in seconds; the derived index step is round(fps * s)."""

    spacing: float
    fps: float = 10.0

    def __post_init__(self):
        if self.step < 1:
            raise InvalidInputError(
                f"spacing {self.spacing}s at {self.fps} fps yields step < 1")

    @property
    def step(self) -> int:
        return int(round(self.fps * self.spacing))


@dataclass(frozen=True)
class PairSample:
    i: int
    j: int
    gt_relative: Pose


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_scene(seed, n_points: int, depth_range, pose: Pose,
                   intrinsics: Intrinsics = DEFAULT_INTRINSICS,
                   noise_px: float = 0.0, outlier_fraction: float = 0.0,
                   width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                   pair_id=("synthetic", 0, 1)) -> CorrespondenceSet:
    """Project random 3-D points through a two-view geometry.

    Points are uniform in the first camera's frustum within depth_range and
    must project inside both images (rejection sampling).  Gaussian pixel
    noise is added to both views; an outlier_fraction of the pairs has p2
    replaced by a uniform in-bounds pixel.  Inliers carry confidence 1,
    outliers a uniform draw from [0, 0.5].
    """
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    if not (0 <= outlier_fraction < 1):
        raise InvalidInputError("outlier_fraction must lie in [0, 1)")
    zmin, zmax = float(depth_range[0]), float(depth_range[1])
    if zmin <= 0 or zmax < zmin:
        raise InvalidInputError("depth_range must be positive and ordered")

    rng = np.random.default_rng(seed)
    K = intrinsics.matrix()
    Kinv = intrinsics.inv_matrix()
    R = pose.rotation()
    t = pose.t

    margin = 2.0
    p1 = np.empty((n_points, 2))
    p2 = np.empty((n_points, 2))
    accepted = 0
    attempts = 0
    max_attempts = 2000 * n_points + 1000
    while accepted < n_points:
        attempts += 1
        if attempts > max_attempts:
            raise UnprojectableSceneError(
                "could not place points visible in both views; "
                "the pose may put the scene behind the second camera")
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

    return CorrespondenceSet(p1, p2, confidence, intrinsics, width, height,
                             gt_relative=pose, pair_id=tuple(pair_id))


def stress_scene(seed, pose: Pose, n_points: int = 200,
                 intrinsics: Intrinsics = DEFAULT_INTRINSICS) -> CorrespondenceSet:
    """The ~30%-inlier stress regime: noiseless inliers, 70% uniform outliers."""
    return generate_scene(seed, n_points, (3.0, 10.0), pose, intrinsics,
                          noise_px=0.0, outlier_fraction=0.7)


def generate_trajectory(seed, n_frames: int, motion_model: str = "forward",
                        fps: float = 10.0, step_m: float = 0.1) -> Trajectory:
    """Smooth absolute pose sequence (camera-to-world) at the given rate.

    Models: ``forward`` moves 0.1 m per frame along +z with identity
    rotation; ``arc`` turns at a constant yaw rate while stepping in the
    rotated frame; ``random-walk`` accumulates small random increments.
    """
    if n_frames < 2:
        raise InvalidInputError("need at least two frames")
    rng = np.random.default_rng(seed)
    poses = [Pose.identity()]
    if motion_model == "forward":
        for k in range(1, n_frames):
            poses.append(Pose(np.array([1.0, 0, 0, 0]), np.array([0.0, 0.0, step_m * k])))
    elif motion_model == "arc":
        yaw_rate = 0.02  # rad per frame
        for k in range(1, n_frames):
            prev = poses[-1]
            delta = Pose(quat_from_axis_angle([0, 0, 1.0], yaw_rate),
                         np.array([0.25 * step_m, 0.0, step_m]))
            poses.append(prev.compose(delta))
    elif motion_model == "random-walk":
        for k in range(1, n_frames):
            axis = rng.normal(size=3)
            angle = rng.normal(0.0, np.deg2rad(1.5))
            dt = np.array([rng.normal(0.0, 0.2 * step_m),
                           rng.normal(0.0, 0.2 * step_m),
                           step_m + rng.normal(0.0, 0.2 * step_m)])
            poses.append(poses[-1].compose(Pose(quat_from_axis_angle(axis, angle), dt)))
    else:
        raise InvalidInputError(f"unknown motion model {motion_model!r}")
    return Trajectory(poses, fps=fps)


def sample_pairs(traj: Trajectory, spec: SamplingSpec) -> list[PairSample]:
    """All (i, i+d) pairs with gt_relative = T_i^-1 T_{i+d}."""
    if abs(spec.fps - traj.fps) > 1e-12:
        raise ValidationError(
            f"sampling spec fps {spec.fps} does not match trajectory fps {traj.fps}")
    d = spec.step
    n = len(traj)
    if d >= n:
        raise EmptySamplingError(f"step {d} >= number of frames {n}")
    return [PairSample(i, i + d, relative_pose(traj.poses[i], traj.poses[i + d]))
            for i in range(n - d)]


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def save_correspondences(corr: CorrespondenceSet, path) -> None:
    K = corr.intrinsics
    lines = [f"{CORR_HEADER} {corr.width} {corr.height} "
             f"{_fmt(K.fx)} {_fmt(K.fy)} {_fmt(K.cx)} {_fmt(K.cy)}"]
    for (x1, y1), (x2, y2), c in zip(corr.p1, corr.p2, corr.confidence):
        lines.append(f"{_fmt(x1)} {_fmt(y1)} {_fmt(x2)} {_fmt(y2)} {_fmt(c)}")
    if corr.gt_relative is not None:
        g = corr.gt_relative
        vals = " ".join(_fmt(v) for v in (*g.q, *g.t))
        lines.append(f"# gt_relative {vals}")
    seq, i, j = corr.pair_id
    lines.append(f"# pair_id {seq} {i} {j}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _numbers(fields, ln: int) -> list[float]:
    """The values of a line's numeric fields; a field that is not a finite
    number raises FormatError naming line ``ln``."""
    try:
        vals = [float(v) for v in fields]
    except ValueError as e:
        raise FormatError(f"non-numeric value: {e}", line=ln) from None
    for v, raw in zip(vals, fields):
        if not math.isfinite(v):
            raise FormatError(f"non-finite value {raw!r}", line=ln)
    return vals


def load_correspondences(path) -> CorrespondenceSet:
    with open(path) as f:
        raw = f.read().splitlines()
    if not raw or not raw[0].startswith(CORR_HEADER):
        raise SchemaVersionError("missing or unsupported correspondence header", line=1)
    head = raw[0].split()
    if len(head) != 9:
        raise FormatError("header must carry width height fx fy cx cy", line=1)
    try:
        width, height = int(head[3]), int(head[4])
    except ValueError as e:
        raise FormatError(f"bad header value: {e}", line=1) from None
    fx, fy, cx, cy = _numbers(head[5:9], 1)

    p1, p2, conf = [], [], []
    gt = None
    pair_id = ("pair", 0, 1)
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            try:
                if parts[:2] == ["#", "gt_relative"]:
                    if len(parts) != 9:
                        raise FormatError("gt_relative needs qw qx qy qz tx ty tz", line=ln)
                    vals = np.array(_numbers(parts[2:], ln))
                    gt = Pose(vals[:4], vals[4:])
                    # normalizing a saved unit quaternion again can move its last bit
                    if np.abs(gt.q - vals[:4]).max() <= 4 * np.finfo(float).eps:
                        object.__setattr__(gt, "q", vals[:4])
                elif parts[:2] == ["#", "pair_id"]:
                    if len(parts) != 5:
                        raise FormatError("pair_id needs sequence i j", line=ln)
                    pair_id = (parts[2], int(parts[3]), int(parts[4]))
                else:
                    what = parts[1] if len(parts) > 1 else line
                    raise FormatError(f"unknown trailer {what!r}", line=ln)
            except ValueError as e:
                raise FormatError(f"bad {parts[1]} value: {e}", line=ln) from None
            continue
        fields = line.split()
        if len(fields) != 5:
            raise FormatError(f"expected 5 fields, got {len(fields)}", line=ln)
        vals = _numbers(fields, ln)
        if not (0.0 <= vals[4] <= 1.0):
            raise ValidationError(f"line {ln}: confidence {vals[4]} outside [0, 1]")
        p1.append(vals[0:2])
        p2.append(vals[2:4])
        conf.append(vals[4])

    return CorrespondenceSet(
        np.array(p1, dtype=float).reshape(-1, 2),
        np.array(p2, dtype=float).reshape(-1, 2),
        np.array(conf, dtype=float),
        Intrinsics(fx, fy, cx, cy), width, height,
        gt_relative=gt, pair_id=pair_id)


def save_trajectory(traj: Trajectory, path) -> None:
    """KITTI-odometry layout: 12 row-major values of [R|t] per frame."""
    with open(path, "w") as f:
        for pose in traj.poses:
            M = pose.matrix()[:3, :]
            f.write(" ".join(_fmt(v) for v in M.ravel()) + "\n")


def load_trajectory(path, fps: float = 10.0) -> Trajectory:
    poses = []
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            vals = line.split()
            if len(vals) != 12:
                raise FormatError(f"expected 12 values, got {len(vals)}", line=ln)
            M = np.array(_numbers(vals, ln)).reshape(3, 4)
            poses.append(Pose(rot_to_quat(M[:, :3]), M[:, 3]))
    return Trajectory(poses, fps=fps)
