"""Geometry-coupled composite training objective.

Terms: hemisphere-aligned quaternion distance, translation direction
(1 - cosine) and scale (absolute norm gap), Frobenius alignment of the
reconstructed essential matrix, its spectral regularizer
(s1 - s2)^2 + s3^2, and the heading (yaw) gap.  Total is the
lambda-weighted sum with L_pose = L_quat + L_t_dir + L_t_scale.

Each term has an analytic gradient with respect to the raw predicted
quaternion (differentiated through its renormalization) and the full
predicted translation vector.  The hemisphere sign and the yaw wrap are
chosen in the forward pass and frozen for the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError, ValidationError
from .geom import (
    Pose,
    essential_from_pose,
    quat_to_rot,
    quat_to_rot_jacobian,
    skew,
    wrap_angle,
    yaw_of,
)

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class LossWeights:
    lambda_pose: float = 1.0
    lambda_frob: float = 1.0
    lambda_svd: float = 1.0
    lambda_yaw: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidInputError(f"{f.name} must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    quat: float
    t_dir: float
    t_scale: float
    frob: float
    svd: float
    yaw: float
    total: float

    @property
    def pose(self) -> float:
        return self.quat + self.t_dir + self.t_scale


@dataclass(frozen=True)
class PoseTarget:
    """Supervision payload: ground-truth pose plus its derived essential
    matrix (full-magnitude translation unless normalized_e is set)."""

    q: np.ndarray
    t: np.ndarray
    E: np.ndarray
    normalized_e: bool = False

    @classmethod
    def from_pose(cls, pose: Pose, normalized_e: bool = False) -> "PoseTarget":
        E = essential_from_pose(pose)
        if normalized_e:
            n = np.linalg.norm(E)
            if n > 1e-15:
                E = E / n
        return cls(pose.q.copy(), pose.t.copy(), E, normalized_e)


def _unit(q, what: str) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValidationError(f"{what} is not unit norm (|q| = {n})")
    return q / n


def _project(vec, u, n):
    """Chain a gradient through x -> x/|x| at the unit point u with |x| = n."""
    vec = np.asarray(vec, dtype=float)
    return (vec - (u @ vec) * u) / n


# ---------------------------------------------------------------------------
# Quaternion term
# ---------------------------------------------------------------------------

def quat_loss(q_pred, q_gt, norm: str = "l2") -> float:
    """Distance after flipping q_pred onto the hemisphere of q_gt."""
    qp = _unit(q_pred, "predicted quaternion")
    qg = _unit(q_gt, "ground-truth quaternion")
    s = 1.0 if qp @ qg >= 0 else -1.0
    d = s * qp - qg
    if norm == "l2":
        return float(np.linalg.norm(d))
    if norm == "l1":
        return float(np.abs(d).sum())
    raise InvalidInputError(f"unknown norm {norm!r}")


def quat_loss_grad(q_pred, q_gt, norm: str = "l2"):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    qg = _unit(q_gt, "ground-truth quaternion")
    s = 1.0 if u @ qg >= 0 else -1.0
    d = s * u - qg
    if norm == "l2":
        val = float(np.linalg.norm(d))
        du = s * d / val if val > 1e-12 else np.zeros(4)
    elif norm == "l1":
        val = float(np.abs(d).sum())
        du = s * np.sign(d)
    else:
        raise InvalidInputError(f"unknown norm {norm!r}")
    return val, _project(du, u, n), np.zeros(3)


# ---------------------------------------------------------------------------
# Translation terms
# ---------------------------------------------------------------------------

def t_dir_loss(t_pred, t_gt) -> float:
    """1 - cos angle; a zero-norm prediction counts as orthogonal (loss 1)."""
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ng = np.linalg.norm(t_gt)
    if ng <= 0:
        raise InvalidInputError("ground-truth translation must be nonzero")
    np_ = np.linalg.norm(t_pred)
    if np_ < 1e-15:
        return 1.0
    return float(1.0 - (t_pred @ t_gt) / (np_ * ng))


def t_dir_loss_grad(t_pred, t_gt):
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
    dt = -(v - (u @ v) * u) / np_
    return val, np.zeros(4), dt


def t_scale_loss(t_pred, t_gt) -> float:
    """| |t_pred| - |t_gt| |."""
    np_ = np.linalg.norm(np.asarray(t_pred, dtype=float))
    ng = np.linalg.norm(np.asarray(t_gt, dtype=float))
    return float(abs(np_ - ng))


def t_scale_loss_grad(t_pred, t_gt):
    t_pred = np.asarray(t_pred, dtype=float).reshape(3)
    np_ = np.linalg.norm(t_pred)
    ng = np.linalg.norm(np.asarray(t_gt, dtype=float))
    val = float(abs(np_ - ng))
    if np_ < 1e-15:
        return val, np.zeros(4), np.zeros(3)
    dt = np.sign(np_ - ng) * t_pred / np_
    return val, np.zeros(4), dt


# ---------------------------------------------------------------------------
# Essential-matrix terms
# ---------------------------------------------------------------------------

def _e_pred(q_pred, t_pred):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    t = np.asarray(t_pred, dtype=float).reshape(3)
    R = quat_to_rot(u)
    return skew(t) @ R, u, n, t, R


def _chain_e_grads(G, u, n, t, R):
    """Map dL/dE_pred onto (raw quaternion, translation) gradients."""
    J = quat_to_rot_jacobian(u)
    du = np.array([np.sum(G * (skew(t) @ J[k])) for k in range(4)])
    basis = np.eye(3)
    dt = np.array([np.sum(G * (skew(basis[k]) @ R)) for k in range(3)])
    return _project(du, u, n), dt


def frob_loss(q_pred, t_pred, E_gt, normalized: bool = False) -> float:
    """Frobenius gap between [t_pred]x R(q_pred) and E_gt.

    ``normalized`` compares unit-Frobenius versions of both matrices
    (scale-free variant)."""
    E_p, *_ = _e_pred(q_pred, t_pred)
    E_gt = np.asarray(E_gt, dtype=float)
    if normalized:
        npred = np.linalg.norm(E_p)
        ngt = np.linalg.norm(E_gt)
        if npred > 1e-15:
            E_p = E_p / npred
        if ngt > 1e-15:
            E_gt = E_gt / ngt
    return float(np.linalg.norm(E_p - E_gt))


def frob_loss_grad(q_pred, t_pred, E_gt, normalized: bool = False):
    E_p, u, n, t, R = _e_pred(q_pred, t_pred)
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
    dq, dt = _chain_e_grads(G, u, n, t, R)
    return val, dq, dt


def svd_loss_matrix(E) -> float:
    """(s1 - s2)^2 + s3^2 of any 3x3 matrix (test hook)."""
    S = np.linalg.svd(np.asarray(E, dtype=float), compute_uv=False)
    return float((S[0] - S[1]) ** 2 + S[2] ** 2)


def svd_loss_matrix_grad(E):
    """Value and dL/dE of the spectral regularizer for any 3x3 matrix.

    Uses d sigma_k / dE = u_k v_k^T; the (s1, s2) pair term is dropped
    inside a 1e-9 gap guard where its coefficient vanishes anyway."""
    E = np.asarray(E, dtype=float)
    U, S, Vt = np.linalg.svd(E)
    val = float((S[0] - S[1]) ** 2 + S[2] ** 2)
    G = 2.0 * S[2] * np.outer(U[:, 2], Vt[2])
    if S[0] - S[1] > 1e-9:
        G = G + 2.0 * (S[0] - S[1]) * (np.outer(U[:, 0], Vt[0]) - np.outer(U[:, 1], Vt[1]))
    return val, G


def svd_loss(q_pred, t_pred) -> float:
    """Spectral regularizer of the reconstructed essential matrix."""
    E_p, *_ = _e_pred(q_pred, t_pred)
    return svd_loss_matrix(E_p)


def svd_loss_grad(q_pred, t_pred):
    E_p, u, n, t, R = _e_pred(q_pred, t_pred)
    val, G = svd_loss_matrix_grad(E_p)
    dq, dt = _chain_e_grads(G, u, n, t, R)
    return val, dq, dt


# ---------------------------------------------------------------------------
# Yaw term
# ---------------------------------------------------------------------------

def yaw_loss(q_pred, q_gt) -> float:
    """|wrapped yaw gap| in [0, pi]."""
    qp = _unit(q_pred, "predicted quaternion")
    qg = _unit(q_gt, "ground-truth quaternion")
    return abs(wrap_angle(yaw_of(qp) - yaw_of(qg)))


def yaw_loss_grad(q_pred, q_gt):
    q_raw = np.asarray(q_pred, dtype=float).reshape(4)
    n = np.linalg.norm(q_raw)
    u = q_raw / n
    qg = _unit(q_gt, "ground-truth quaternion")
    R = quat_to_rot(u)
    a, b = R[0, 0], R[1, 0]     # yaw = atan2(b, a)
    diff = wrap_angle(yaw_of(u) - yaw_of(qg))
    val = abs(diff)
    den = a * a + b * b
    if den < 1e-12 or val < 1e-12:
        return val, np.zeros(4), np.zeros(3)
    J = quat_to_rot_jacobian(u)
    dyaw = np.array([(a * J[k][1, 0] - b * J[k][0, 0]) / den for k in range(4)])
    du = np.sign(diff) * dyaw
    return val, _project(du, u, n), np.zeros(3)


# ---------------------------------------------------------------------------
# Total
# ---------------------------------------------------------------------------

# Uniform-signature registries, keyed by LossBreakdown's fields in field
# order: every entry maps (q_pred, t_pred, target) to a value / (value,
# dq, dt) triple.  Only TERM_GRADS has "total"; the gradient checker reads
# its central differences off total_loss's breakdown.
TERM_VALUES = {
    "quat": lambda q, t, tgt: quat_loss(q, tgt.q),
    "t_dir": lambda q, t, tgt: t_dir_loss(t, tgt.t),
    "t_scale": lambda q, t, tgt: t_scale_loss(t, tgt.t),
    "frob": lambda q, t, tgt: frob_loss(q, t, tgt.E, normalized=tgt.normalized_e),
    "svd": lambda q, t, tgt: svd_loss(q, t),
    "yaw": lambda q, t, tgt: yaw_loss(q, tgt.q),
}

TERM_GRADS = {
    "quat": lambda q, t, tgt: quat_loss_grad(q, tgt.q),
    "t_dir": lambda q, t, tgt: t_dir_loss_grad(t, tgt.t),
    "t_scale": lambda q, t, tgt: t_scale_loss_grad(t, tgt.t),
    "frob": lambda q, t, tgt: frob_loss_grad(q, t, tgt.E, normalized=tgt.normalized_e),
    "svd": lambda q, t, tgt: svd_loss_grad(q, t),
    "yaw": lambda q, t, tgt: yaw_loss_grad(q, tgt.q),
    "total": lambda q, t, tgt: _total_grad_triple(q, t, tgt),
}


def _weighted(w: LossWeights, quat, t_dir, t_scale, frob, svd, yaw):
    """The lambda-weighted sum of per-term values or gradients."""
    return (w.lambda_pose * (quat + t_dir + t_scale) + w.lambda_frob * frob
            + w.lambda_svd * svd + w.lambda_yaw * yaw)


def total_loss(q_pred, t_pred, target: PoseTarget,
               weights: LossWeights = LossWeights()) -> LossBreakdown:
    vals = [value(q_pred, t_pred, target) for value in TERM_VALUES.values()]
    return LossBreakdown(*vals, _weighted(weights, *vals))


def total_loss_grad(q_pred, t_pred, target: PoseTarget,
                    weights: LossWeights = LossWeights()):
    """Breakdown plus gradients wrt (raw quaternion, full translation)."""
    vals, dqs, dts = zip(*(TERM_GRADS[term](q_pred, t_pred, target)
                           for term in TERM_VALUES))
    bd = LossBreakdown(*vals, _weighted(weights, *vals))
    return bd, _weighted(weights, *dqs), _weighted(weights, *dts)


def _total_grad_triple(q, t, tgt):
    bd, dq, dt = total_loss_grad(q, t, tgt)
    return bd.total, dq, dt
