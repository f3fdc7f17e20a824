"""Ground-truth data source.

Synthetic scenes (a stand-in for dense-matcher correspondence dumps),
smooth camera trajectories, temporal pair sampling, and text-file
ingestion/serialization of correspondences and trajectories.

All generators are pure functions of their seed and parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySamplingError,
    EpigraphError,
    FormatError,
    InvalidInputError,
    InvalidRotationError,
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

@dataclass(eq=False)
class CorrespondenceSet:
    """Matched pixel pairs with confidences for one image pair.  A set is
    equal only to itself, so it can key a cache by identity."""

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

# generate_scene draws view-1 pixels at least this far inside the image border
SCENE_MARGIN_PX = 2.0
# generate_scene draws its first rejection chunk at 2 attempts a point and
# each later one at twice the last, up to this many attempts
_MAX_CHUNK = 1 << 16


def _in_image(p: np.ndarray, width, height) -> np.ndarray:
    """Per row of (k, 2) pixels p: whether it lies inside the image."""
    inside = (p >= 0) & (p < (width, height))
    return inside[:, 0] & inside[:, 1]


def _project_attempts(uvz: np.ndarray, K, Kinv, R, t, width, height):
    """(visible, q) for rejection-sampling attempts, rows (u, v, z): whether
    the point lies in front of the second camera and projects inside its
    image, and its view-2 pixel (meaningless where not visible)."""
    h = np.column_stack([uvz[:, :2], np.ones(len(uvz))])
    X1 = uvz[:, 2:3] * (Kinv @ h[:, :, None])[:, :, 0]
    X2 = (R @ X1[:, :, None])[:, :, 0] + t
    front = X2[:, 2] >= 1e-6
    depth = np.where(front, X2[:, 2], 1.0)
    q = (K @ (X2 / depth[:, None])[:, :, None])[:, :2, 0]
    return front & _in_image(q, width, height), q


def _add_noise(rng, arr: np.ndarray, noise_px: float, width, height) -> None:
    """Add N(0, noise_px) to each row of arr in place, trying each row up to
    100 times for a pixel inside the image and leaving it as it is if none
    is; the draws are those of that per-row loop."""
    start = 0
    while start < len(arr):
        state = rng.bit_generator.state
        cand = arr[start:] + rng.normal(0.0, noise_px, (len(arr) - start, 2))
        inside = _in_image(cand, width, height)
        if inside.all():
            arr[start:] = cand
            return
        # row start + i leaves the image: rewind and draw its 100 tries at once
        i = int(np.argmin(inside))
        arr[start:start + i] = cand[:i]
        rng.bit_generator.state = state
        tries = arr[start + i] + rng.normal(0.0, noise_px, (i + 100, 2))[i:]
        inside = _in_image(tries, width, height)
        if inside.any():
            j = int(np.argmax(inside))
            arr[start + i] = tries[j]
            rng.bit_generator.state = state
            rng.normal(0.0, noise_px, (i + j + 1, 2))
        start += i + 1


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

    The output is a function of the random stream of a per-point loop: per
    attempt, u, v and z; per noise try, two normals, for every p1 row and
    then every p2 row, up to 100 tries a row; then the outlier draws.  The
    attempts are drawn in chunks and the noise for all remaining rows at
    once.  Where a chunk or a noise draw goes past what the loop uses, the
    bit generator is rewound to its start and exactly the used rows are
    drawn again, so every later draw, and every output, is the loop's bit
    for bit.  The projections are batched matrix-vector products,
    (k, 3, 3) @ (k, 3, 1): each runs the same 3x3 product as ``R @ x`` on
    one point, where ``X @ R.T`` sums in another order and moves the last
    bits of p2.
    """
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    if not (0 <= outlier_fraction < 1):
        raise InvalidInputError("outlier_fraction must lie in [0, 1)")
    zmin, zmax = float(depth_range[0]), float(depth_range[1])
    # written so that a NaN, which compares False, fails it
    if not (0 < zmin <= zmax < math.inf):
        raise InvalidInputError("depth_range must be finite, positive and ordered")
    margin = SCENE_MARGIN_PX
    if not (width >= 2 * margin and height >= 2 * margin):
        raise InvalidInputError(
            f"width and height must be >= {2 * margin:g} pixels (a {margin:g}-pixel "
            f"margin on each side), got {width!r} x {height!r}")
    if not (0 <= noise_px < math.inf):
        raise InvalidInputError(f"noise_px must be finite and >= 0, got {noise_px!r}")

    rng = np.random.default_rng(seed)
    K = intrinsics.matrix()
    Kinv = intrinsics.inv_matrix()
    R = pose.rotation()
    t = pose.t

    low = np.array([margin, margin, zmin])
    high = np.array([width - margin, height - margin, zmax])
    p1_parts, p2_parts = [], []
    accepted = 0
    attempts = 0
    max_attempts = 2000 * n_points + 1000
    chunk = 2 * n_points
    while accepted < n_points:
        k = min(chunk, max_attempts - attempts)
        if k == 0:
            raise UnprojectableSceneError(
                "could not place points visible in both views; "
                "the pose may put the scene behind the second camera")
        state = rng.bit_generator.state
        uvz = rng.uniform(low, high, size=(k, 3))
        visible, q = _project_attempts(uvz, K, Kinv, R, t, width, height)
        idx = np.flatnonzero(visible)[:n_points - accepted]
        if accepted + len(idx) == n_points:
            # the loop stops at the attempt that places the last point
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(idx[-1] + 1, 3))
        p1_parts.append(uvz[idx, :2])
        p2_parts.append(q[idx])
        accepted += len(idx)
        attempts += k
        chunk = min(2 * chunk, _MAX_CHUNK)
    p1 = np.concatenate(p1_parts)
    p2 = np.concatenate(p2_parts)

    if noise_px > 0:
        for arr in (p1, p2):
            _add_noise(rng, arr, noise_px, width, height)

    confidence = np.ones(n_points)
    n_out = n_points - int(round((1.0 - outlier_fraction) * n_points))
    if n_out > 0:
        idx = rng.choice(n_points, size=n_out, replace=False)
        p2[idx, 0] = rng.uniform(0.0, width - 1e-9, n_out)
        p2[idx, 1] = rng.uniform(0.0, height - 1e-9, n_out)
        confidence[idx] = rng.uniform(0.0, 0.5, n_out)

    return CorrespondenceSet(p1, p2, confidence, intrinsics, width, height,
                             gt_relative=pose, pair_id=tuple(pair_id))


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
    # repr of a Python float is _fmt of it
    rows = np.column_stack([corr.p1, corr.p2, corr.confidence]).tolist()
    lines.extend(" ".join(map(repr, row)) for row in rows)
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


def _read_trailer(line: str, ln: int, gt, pair_id):
    """(gt, pair_id) after the ``#`` trailer ``line`` (line number ``ln``)."""
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
    return gt, pair_id


def load_correspondences(path) -> CorrespondenceSet:
    """Read a correspondence file; the first bad line, in file order,
    raises FormatError or ValidationError naming it."""
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

    # Data lines are split here and converted in bulk below.  A bad trailer
    # or field count ends the scan and is raised only if no data line
    # before it is bad.
    rows, row_lines = [], []
    pending = None
    gt = None
    pair_id = ("pair", 0, 1)
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                gt, pair_id = _read_trailer(line, ln, gt, pair_id)
                continue
            fields = line.split()
            if len(fields) != 5:
                raise FormatError(f"expected 5 fields, got {len(fields)}", line=ln)
        except EpigraphError as e:
            pending = e
            break
        rows.append(fields)
        row_lines.append(ln)

    try:
        data = np.array([float(v) for fields in rows for v in fields]).reshape(-1, 5)
        ok = np.isfinite(data).all(axis=1) & (data[:, 4] >= 0.0) & (data[:, 4] <= 1.0)
        first = len(rows) if ok.all() else int(np.argmin(ok))
    except ValueError:
        first = 0
    # the line-by-line checks from the first suspect row on raise its error
    for fields, ln in zip(rows[first:], row_lines[first:]):
        vals = _numbers(fields, ln)
        if not (0.0 <= vals[4] <= 1.0):
            raise ValidationError(f"line {ln}: confidence {vals[4]} outside [0, 1]")
    if pending is not None:
        raise pending

    try:
        return CorrespondenceSet(
            np.ascontiguousarray(data[:, 0:2]), np.ascontiguousarray(data[:, 2:4]),
            np.ascontiguousarray(data[:, 4]),
            Intrinsics(fx, fy, cx, cy), width, height,
            gt_relative=gt, pair_id=pair_id)
    except ValidationError:
        # every row passed the checks above, so a pixel lies outside the image
        xy = data[:, :4].reshape(-1, 2, 2)
        outside = ((xy < 0) | (xy >= (width, height))).any(axis=2)
        row = int(outside.any(axis=1).argmax())
        view = 0 if outside[row, 0] else 1
        pixel = tuple(xy[row, view].tolist())
        raise ValidationError(f"{path}: line {row_lines[row]}: p{view + 1} pixel {pixel} "
                              f"falls outside the {width}x{height} image") from None


def save_trajectory(traj: Trajectory, path) -> None:
    """KITTI-odometry layout: 12 row-major values of [R|t] per frame."""
    rows = [pose.matrix()[:3, :].ravel().tolist() for pose in traj.poses]
    with open(path, "w") as f:
        f.writelines(" ".join(map(repr, row)) + "\n" for row in rows)


def load_trajectory(path, fps: float = 10.0) -> Trajectory:
    """Read a trajectory file; a row that is not 12 finite numbers, or whose
    3x3 block is not a rotation, raises FormatError naming its line."""
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
            try:
                with np.errstate(over="raise", invalid="raise"):
                    q = rot_to_quat(M[:, :3])
            except (InvalidRotationError, FloatingPointError) as e:
                raise FormatError(f"not a rotation: {e}", line=ln) from None
            poses.append(Pose(q, M[:, 3]))
    return Trajectory(poses, fps=fps)
