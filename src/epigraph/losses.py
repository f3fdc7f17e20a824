"""Geometry-coupled composite training objective.

Terms: hemisphere-aligned quaternion distance, translation direction
(1 - cosine) and scale (absolute norm gap), Frobenius alignment of the
reconstructed essential matrix E = [t]x R, its spectral regularizer
(s1 - s2)^2 + s3^2, and the heading (yaw) gap.  Total is the
lambda-weighted sum with L_pose = L_quat + L_t_dir + L_t_scale.

The spectral regularizer is identically 0: [t]x R has singular values
(|t|, |t|, 0) for every rotation R (Hartley & Zisserman, *Multiple View
Geometry*, 9.6), so the term and its gradient are exact zeros, and
``svd_loss`` keeps the numeric SVD only as a check of the identity.
Found with this: the paper's term (iii) compares the estimated with the
ground-truth singular values, which this term does not; changing the
objective is out of scope here.

Each total_loss/total_loss_grad call builds one PredictionState that
every term reads; a PoseTarget derives its constants once.  Gradients
are taken with respect to the raw predicted quaternion (through its
renormalization) and the full predicted translation vector.  The
hemisphere sign and the yaw wrap are chosen in the forward pass and
frozen for the backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

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


def _norm(x) -> float:
    """Euclidean (Frobenius) norm, as np.linalg.norm computes it."""
    x = x.ravel()
    return math.sqrt(x @ x)


def _check_unit(n, what: str) -> None:
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValidationError(f"{what} is not unit norm (|q| = {n})")


@dataclass(frozen=True)
class PoseTarget:
    """Supervision payload: ground-truth pose plus its essential matrix
    (compared at unit Frobenius norm when normalized_e is set).

    The constants the terms read are derived on first use and kept.  A
    field that no evaluated term reads may be None."""

    q: np.ndarray
    t: np.ndarray
    E: np.ndarray
    normalized_e: bool = False

    @classmethod
    def from_pose(cls, pose: Pose, normalized_e: bool = False) -> "PoseTarget":
        return cls(pose.q.copy(), pose.t.copy(), essential_from_pose(pose), normalized_e)

    @cached_property
    def q_unit(self) -> np.ndarray:
        """q scaled to unit norm; ValidationError if |q| is off 1 by > 1e-6."""
        q = np.asarray(self.q, dtype=float).reshape(4)
        n = _norm(q)
        _check_unit(n, "ground-truth quaternion")
        return q / n

    @cached_property
    def t_norm(self) -> float:
        return _norm(np.asarray(self.t, dtype=float))

    @cached_property
    def t_unit(self) -> np.ndarray:
        if self.t_norm <= 0:
            raise InvalidInputError("ground-truth translation must be nonzero")
        return np.asarray(self.t, dtype=float).reshape(3) / self.t_norm

    @cached_property
    def yaw(self) -> float:
        return yaw_of(self.q_unit)

    @cached_property
    def E_ref(self) -> np.ndarray:
        """The matrix the Frobenius term compares with: E, scaled to unit
        norm when normalized_e is set."""
        E = np.asarray(self.E, dtype=float)
        if self.normalized_e:
            n = _norm(E)
            if n > 1e-15:
                return E / n
        return E


class PredictionState:
    """One predicted pose in the form every term reads: u = q/|q| and
    |q|, R = R(u), t and |t|, [t]x and E = [t]x R, and, when built for a
    gradient, J = dR/du as a (4, 3, 3) array."""

    __slots__ = ("u", "n", "R", "t", "t_norm", "tx", "E", "J")

    def __init__(self, q, t, grad: bool = False):
        q = np.asarray(q, dtype=float).reshape(4)
        self.n = _norm(q)
        self.u = q / self.n
        self.t = np.asarray(t, dtype=float).reshape(3)
        self.t_norm = _norm(self.t)
        self.R = quat_to_rot(self.u)
        self.tx = skew(self.t)
        self.E = self.tx @ self.R
        self.J = quat_to_rot_jacobian(self.u) if grad else None

    def check_unit(self) -> "PredictionState":
        _check_unit(self.n, "predicted quaternion")
        return self

    def chain(self, du) -> np.ndarray:
        """Map dL/du onto the raw quaternion through u = q/|q|."""
        return (du - (self.u @ du) * self.u) / self.n


# ---------------------------------------------------------------------------
# Terms.  Each maps (state, target) to its value or, with grad=True, to
# (value, dL/du, dL/dt); the caller chains dL/du through u = q/|q|.
# ---------------------------------------------------------------------------

def _quat(p: PredictionState, g: PoseTarget, grad: bool = False, norm: str = "l2"):
    """Distance after flipping u onto the hemisphere of q_gt."""
    if norm not in ("l1", "l2"):
        raise InvalidInputError(f"unknown norm {norm!r}")
    qg = g.q_unit
    s = 1.0 if p.u @ qg >= 0 else -1.0
    d = s * p.u - qg
    if norm == "l1":
        val = float(np.abs(d).sum())
        return (val, s * np.sign(d), np.zeros(3)) if grad else val
    val = _norm(d)
    if not grad:
        return val
    return val, (s * d / val if val > 1e-12 else np.zeros(4)), np.zeros(3)


def _t_dir(p: PredictionState, g: PoseTarget, grad: bool = False):
    """1 - cos angle; a zero-norm prediction counts as orthogonal (loss 1)."""
    v = g.t_unit
    if p.t_norm < 1e-15:
        return (1.0, np.zeros(4), np.zeros(3)) if grad else 1.0
    u = p.t / p.t_norm
    c = u @ v
    val = float(1.0 - c)
    if not grad:
        return val
    return val, np.zeros(4), -(v - c * u) / p.t_norm


def _t_scale(p: PredictionState, g: PoseTarget, grad: bool = False):
    """| |t_pred| - |t_gt| |."""
    diff = p.t_norm - g.t_norm
    val = abs(diff)
    if not grad:
        return val
    if p.t_norm < 1e-15:
        return val, np.zeros(4), np.zeros(3)
    return val, np.zeros(4), np.sign(diff) * p.t / p.t_norm


def _frob(p: PredictionState, g: PoseTarget, grad: bool = False):
    """Frobenius gap between E = [t]x R(u) and the target's E.

    Under normalized_e both matrices are compared at unit Frobenius norm
    (scale-free variant); a zero-norm prediction is left unscaled."""
    E, npred = p.E, _norm(p.E)
    scaled = g.normalized_e and npred > 1e-15
    if scaled:
        E = E / npred
    D = E - g.E_ref
    val = _norm(D)
    if not grad:
        return val
    if val < 1e-12 or g.normalized_e and not scaled:
        return val, np.zeros(4), np.zeros(3)
    G = D / val
    if scaled:
        G = (G - np.vdot(G, E) * E) / npred
    # dL/dR = [t]x^T G; dL/dt is the vee of G R^T - R G^T.
    du = p.J.reshape(4, 9) @ (p.tx.T @ G).ravel()
    M = G @ p.R.T
    dt = np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]])
    return val, du, dt


def _svd(p: PredictionState, g: PoseTarget, grad: bool = False):
    """Spectral regularizer of [t]x R: identically 0 (module docstring)."""
    return (0.0, np.zeros(4), np.zeros(3)) if grad else 0.0


def _yaw(p: PredictionState, g: PoseTarget, grad: bool = False):
    """|wrapped yaw gap| in [0, pi]."""
    a, b = p.R[0, 0], p.R[1, 0]     # yaw = atan2(b, a)
    diff = wrap_angle(float(np.arctan2(b, a)) - g.yaw)
    val = abs(diff)
    if not grad:
        return val
    den = a * a + b * b
    if den < 1e-12 or val < 1e-12:
        return val, np.zeros(4), np.zeros(3)
    dyaw = (a * p.J[:, 1, 0] - b * p.J[:, 0, 0]) / den
    return val, np.sign(diff) * dyaw, np.zeros(3)


# ---------------------------------------------------------------------------
# Public per-term functions: adapters over the terms above.  Arguments a
# term does not read are filled with placeholders.
# ---------------------------------------------------------------------------

_NO_Q = np.array([1.0, 0.0, 0.0, 0.0])
_NO_T = np.zeros(3)


def _grad(term, q_pred, t_pred, target: PoseTarget, **kw):
    """(value, dL/dq_raw, dL/dt) of one term."""
    p = PredictionState(q_pred, t_pred, grad=True)
    val, du, dt = term(p, target, True, **kw)
    return val, p.chain(du), dt


def quat_loss(q_pred, q_gt, norm: str = "l2") -> float:
    """Distance after flipping q_pred onto the hemisphere of q_gt."""
    return _quat(PredictionState(q_pred, _NO_T).check_unit(), PoseTarget(q_gt, None, None),
                 norm=norm)


def quat_loss_grad(q_pred, q_gt, norm: str = "l2"):
    return _grad(_quat, q_pred, _NO_T, PoseTarget(q_gt, None, None), norm=norm)


def t_dir_loss(t_pred, t_gt) -> float:
    """1 - cos angle; a zero-norm prediction counts as orthogonal (loss 1)."""
    return _t_dir(PredictionState(_NO_Q, t_pred), PoseTarget(None, t_gt, None))


def t_dir_loss_grad(t_pred, t_gt):
    return _grad(_t_dir, _NO_Q, t_pred, PoseTarget(None, t_gt, None))


def t_scale_loss(t_pred, t_gt) -> float:
    """| |t_pred| - |t_gt| |."""
    return _t_scale(PredictionState(_NO_Q, t_pred), PoseTarget(None, t_gt, None))


def t_scale_loss_grad(t_pred, t_gt):
    return _grad(_t_scale, _NO_Q, t_pred, PoseTarget(None, t_gt, None))


def frob_loss(q_pred, t_pred, E_gt, normalized: bool = False) -> float:
    """Frobenius gap between [t_pred]x R(q_pred) and E_gt.

    ``normalized`` compares unit-Frobenius versions of both matrices
    (scale-free variant)."""
    return _frob(PredictionState(q_pred, t_pred), PoseTarget(None, None, E_gt, normalized))


def frob_loss_grad(q_pred, t_pred, E_gt, normalized: bool = False):
    return _grad(_frob, q_pred, t_pred, PoseTarget(None, None, E_gt, normalized))


def svd_loss_matrix(E) -> float:
    """(s1 - s2)^2 + s3^2 of any 3x3 matrix (test hook)."""
    S = np.linalg.svd(np.asarray(E, dtype=float), compute_uv=False)
    return float((S[0] - S[1]) ** 2 + S[2] ** 2)


def svd_loss(q_pred, t_pred) -> float:
    """Numeric spectral regularizer of [t_pred]x R(q_pred): a check of
    the identity that makes the training term exactly 0."""
    return svd_loss_matrix(PredictionState(q_pred, t_pred).E)


def yaw_loss(q_pred, q_gt) -> float:
    """|wrapped yaw gap| in [0, pi]."""
    return _yaw(PredictionState(q_pred, _NO_T).check_unit(), PoseTarget(q_gt, None, None))


def yaw_loss_grad(q_pred, q_gt):
    return _grad(_yaw, q_pred, _NO_T, PoseTarget(q_gt, None, None))


# ---------------------------------------------------------------------------
# Total
# ---------------------------------------------------------------------------

# The terms, keyed by LossBreakdown's fields in field order.  total_loss
# and total_loss_grad call each entry once per call, as (state, target)
# or (state, target, True).  TERM_GRADS maps (q_pred, t_pred, target) to
# a (value, dq, dt) triple for every term and "total"; the gradient
# checker reads its central differences off total_loss's breakdown.
TERM_VALUES = {
    "quat": _quat,
    "t_dir": _t_dir,
    "t_scale": _t_scale,
    "frob": _frob,
    "svd": _svd,
    "yaw": _yaw,
}

TERM_GRADS = {
    **{term: (lambda q, t, tgt, term=term: _grad(TERM_VALUES[term], q, t, tgt))
       for term in TERM_VALUES},
    "total": lambda q, t, tgt: _total_grad_triple(q, t, tgt),
}


def _weighted(w: LossWeights, quat, t_dir, t_scale, frob, svd, yaw):
    """The lambda-weighted sum of per-term values or gradients."""
    return (w.lambda_pose * (quat + t_dir + t_scale) + w.lambda_frob * frob
            + w.lambda_svd * svd + w.lambda_yaw * yaw)


def total_loss(q_pred, t_pred, target: PoseTarget,
               weights: LossWeights = LossWeights()) -> LossBreakdown:
    p = PredictionState(q_pred, t_pred).check_unit()
    vals = [term(p, target) for term in TERM_VALUES.values()]
    return LossBreakdown(*vals, _weighted(weights, *vals))


def total_loss_grad(q_pred, t_pred, target: PoseTarget,
                    weights: LossWeights = LossWeights()):
    """Breakdown plus gradients wrt (raw quaternion, full translation)."""
    p = PredictionState(q_pred, t_pred, grad=True)
    vals, dus, dts = zip(*(term(p, target, True) for term in TERM_VALUES.values()))
    bd = LossBreakdown(*vals, _weighted(weights, *vals))
    return bd, p.chain(_weighted(weights, *dus)), _weighted(weights, *dts)


def _total_grad_triple(q, t, tgt):
    bd, dq, dt = total_loss_grad(q, t, tgt)
    return bd.total, dq, dt
