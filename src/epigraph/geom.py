"""Core geometric types and closed-form two-view operations.

Conventions
-----------
- Quaternions are float64 arrays of shape (4,), ordered (w, x, y, z).
  Stored values are unit norm with w >= 0 (canonical hemisphere).
- A Pose (q, t) maps view-1 camera coordinates into view-2 camera
  coordinates: X2 = R(q) @ X1 + t.  The essential matrix E = [t]x R
  then satisfies x2^T E x1 = 0 for intrinsics-normalized points.
- Normalized points are homogeneous 3-vectors with third component
  exactly 1.
- Angles are radians everywhere; degrees appear only in reports.
- Yaw is the Z-rotation of the ZYX (yaw-pitch-roll) Euler split:
  yaw = atan2(R[1,0], R[0,0]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidRotationError

_UNIT_TOL = 1e-6


# ---------------------------------------------------------------------------
# Quaternion helpers
# ---------------------------------------------------------------------------

def normalize_quat(q) -> np.ndarray:
    """Return q scaled to unit norm. Zero-norm or non-finite input is invalid."""
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if not 1e-12 <= n < np.inf:  # a NaN norm fails this too
        raise InvalidInputError(f"quaternion norm {n} is zero or not finite")
    return q / n


def canonical_quat(q) -> np.ndarray:
    """Unit quaternion flipped onto the w >= 0 hemisphere."""
    q = normalize_quat(q)
    return -q if q[0] < 0 else q


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a*b, both (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise InvalidInputError("zero-norm rotation axis")
    h = 0.5 * angle
    return np.concatenate([[np.cos(h)], np.sin(h) * axis / n])


def rot_entries(w: float, x: float, y: float, z: float) -> tuple[float, ...]:
    """The nine entries of R(q), row by row, for a unit quaternion given
    as Python floats."""
    return (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def quat_to_rot(q) -> np.ndarray:
    """3x3 rotation matrix of a quaternion (renormalized internally)."""
    return np.array(rot_entries(*normalize_quat(q).tolist())).reshape(3, 3)


def rot_to_quat(R) -> np.ndarray:
    """Quaternion (w >= 0) of a rotation matrix.

    Uses the numerically stable four-case trace method.  Raises
    InvalidRotationError if R is not special orthogonal within 1e-6.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidRotationError(f"expected 3x3 matrix, got {R.shape}")
    if np.abs(R @ R.T - np.eye(3)).max() > _UNIT_TOL:
        raise InvalidRotationError("matrix is not orthogonal")
    if np.linalg.det(R) < 0:
        raise InvalidRotationError("matrix has negative determinant")

    if R[2, 2] < 0:
        if R[0, 0] > R[1, 1]:
            t = 1 + R[0, 0] - R[1, 1] - R[2, 2]
            q = np.array([R[2, 1] - R[1, 2], t, R[0, 1] + R[1, 0], R[2, 0] + R[0, 2]])
        else:
            t = 1 - R[0, 0] + R[1, 1] - R[2, 2]
            q = np.array([R[0, 2] - R[2, 0], R[0, 1] + R[1, 0], t, R[1, 2] + R[2, 1]])
    else:
        if R[0, 0] < -R[1, 1]:
            t = 1 - R[0, 0] - R[1, 1] + R[2, 2]
            q = np.array([R[1, 0] - R[0, 1], R[0, 2] + R[2, 0], R[1, 2] + R[2, 1], t])
        else:
            t = 1 + R[0, 0] + R[1, 1] + R[2, 2]
            q = np.array([t, R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    q *= 0.5 / np.sqrt(t)
    return canonical_quat(q)


def quat_to_rot_jacobian(q) -> np.ndarray:
    """d vec(R)/d q as a (4, 3, 3) array, for the unit-quaternion formula.

    The caller is responsible for chaining through any normalization of q.
    """
    w, x, y, z = (2.0 * np.asarray(q, dtype=float)).tolist()
    return np.array([
        [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]],
        [[0.0, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
        [[-2 * y, x, w], [x, 0.0, z], [-w, z, -2 * y]],
        [[-2 * z, -w, x], [w, -2 * z, y], [x, y, 0.0]],
    ])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(
                    f"intrinsics {name} must be finite, got {getattr(self, name)!r}")
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidInputError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0, self.cx], [0, self.fy, self.cy], [0, 0, 1.0]])

    def inv_matrix(self) -> np.ndarray:
        return np.array([
            [1.0 / self.fx, 0, -self.cx / self.fx],
            [0, 1.0 / self.fy, -self.cy / self.fy],
            [0, 0, 1.0],
        ])


@dataclass
class Pose:
    """Rigid transform as unit quaternion (w >= 0) plus translation in meters."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", canonical_quat(self.q))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3).copy())

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    def rotation(self) -> np.ndarray:
        return quat_to_rot(self.q)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation()
        T[:3, 3] = self.t
        return T

    def compose(self, other: "Pose") -> "Pose":
        """self followed-by-other in the matrix sense: result = self @ other."""
        q = quat_mul(self.q, other.q)
        t = self.rotation() @ other.t + self.t
        return Pose(q, t)

    def inverse(self) -> "Pose":
        qi = quat_conj(self.q)
        return Pose(qi, -(quat_to_rot(qi) @ self.t))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def normalize_pixels(P, K: Intrinsics) -> np.ndarray:
    """Batch of pixels (N, 2) -> normalized homogeneous points (N, 3)."""
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    X = np.column_stack([P, np.ones(len(P))]) @ K.inv_matrix().T
    return X / X[:, 2:3]


def skew(t) -> np.ndarray:
    """Cross-product matrix: skew(t) @ v == cross(t, v)."""
    x, y, z = np.asarray(t, dtype=float).reshape(3).tolist()
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def sampson_distances(X1, X2, E) -> np.ndarray:
    """Vectorized Sampson distances (Hartley & Zisserman, MVG, 11.4.3);
    degenerate denominators map to +inf (0 when the residual is exactly 0 too).

    ``E`` is one (3, 3) matrix, giving (N,) distances, or a (S, 3, 3)
    stack, giving (S, N): every point pair under every matrix, with E·x1
    and Eᵀ·x2 each one (3S, 3) @ (3, N) product (S = 1 for a single E).
    """
    X1, X2 = np.asarray(X1, dtype=float), np.asarray(X2, dtype=float)
    E = np.asarray(E, dtype=float)
    Es = E.reshape(-1, 3, 3)
    shape = (len(Es), 3, len(X1))
    Ex1 = (Es.reshape(-1, 3) @ X1.T).reshape(shape)
    Etx2 = (Es.transpose(0, 2, 1).reshape(-1, 3) @ X2.T).reshape(shape)
    r2 = (Ex1 * X2.T).sum(axis=1) ** 2
    den = Ex1[:, 0] ** 2 + Ex1[:, 1] ** 2 + Etx2[:, 0] ** 2 + Etx2[:, 1] ** 2
    bad = den < 1e-18
    d = np.where(bad, np.where(r2 == 0.0, 0.0, np.inf), r2 / np.where(bad, 1.0, den))
    return d.reshape(E.shape[:-2] + d.shape[-1:])


def relative_pose(Ti: Pose, Tj: Pose) -> Pose:
    """Relative transform with Ti @ result == Tj (i.e. Ti^-1 Tj)."""
    return Ti.inverse().compose(Tj)


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    a = (a + np.pi) % (2 * np.pi) - np.pi
    return float(np.pi) if a == -np.pi else float(a)
