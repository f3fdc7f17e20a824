"""Geometry-coupled composite training objective.

Five terms: hemisphere-aligned quaternion distance, translation direction
(1 - cosine) and scale (absolute norm gap), Frobenius alignment of the
reconstructed essential matrix E = [t]x R, and the heading (yaw) gap.
Total is the lambda-weighted sum with L_pose = L_quat + L_t_dir + L_t_scale.

The paper's loss has a further term, the difference between the singular
values of the estimated and the ground-truth essential matrix.  It adds
nothing here: [t]x R has singular values (|t|, |t|, 0) for every rotation
R (Hartley & Zisserman, *Multiple View Geometry*, 9.6), and every target
is built as [t]x R.  Under an L2 norm that difference is sqrt(2) times
the t_scale term, and under normalized_e both sets are (1/sqrt(2),
1/sqrt(2), 0), so it is 0.

Each total_loss/total_loss_grad call builds one PredictionState that
every term reads; a PoseTarget derives its constants once, with the same
code.  Both hold Python floats: on vectors of 3, 4 and 9 entries a numpy
call costs far more than its arithmetic, and a gradient check scores the
loss twice per probe.  The gradient branches build their arrays from
those floats once per state.

Gradients are taken with respect to the raw predicted quaternion
(through its renormalization) and the full predicted translation vector.
The hemisphere sign and the yaw wrap are chosen in the forward pass and
frozen for the backward pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, ValidationError
from .geom import Pose, quat_to_rot_jacobian, rot_entries, skew, wrap_angle

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class LossWeights:
    """The ``[loss]`` config section: the lambda weights of the total, and
    whether targets compare E scaled to unit Frobenius norm.  The loss
    reads only the lambdas; ``normalized_e`` is fixed in each PoseTarget."""

    lambda_pose: float = 1.0
    lambda_frob: float = 1.0
    lambda_yaw: float = 1.0
    normalized_e: bool = False

    def __post_init__(self):
        for name in ("lambda_pose", "lambda_frob", "lambda_yaw"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"loss.{name} must be finite and nonnegative, "
                                        f"got {value!r}")


@dataclass(frozen=True)
class LossBreakdown:
    quat: float
    t_dir: float
    t_scale: float
    frob: float
    yaw: float
    total: float

    @property
    def pose(self) -> float:
        return self.quat + self.t_dir + self.t_scale


def _floats(v, size: int, what: str) -> tuple[list[float], float]:
    """v as ``size`` Python floats and its Euclidean norm; InvalidInputError
    naming ``what`` unless that norm is finite."""
    v = np.asarray(v, dtype=float).reshape(size).tolist()
    n = math.hypot(*v)
    if not math.isfinite(n):
        raise InvalidInputError(f"{what} must be finite, got {v}")
    return v, n


def _unit(q, what: str) -> tuple[list[float], float]:
    """q/|q| and |q| of a quaternion, as Python floats."""
    q, n = _floats(q, 4, what)
    if not n:
        raise InvalidInputError(f"{what} must be nonzero")
    return [x / n for x in q], n


def _essential(t, R) -> tuple[float, ...]:
    """The nine entries of E = [t]x R, row by row, from t's three floats
    and R's nine."""
    x, y, z = t
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = R
    return (y * c0 - z * b0, y * c1 - z * b1, y * c2 - z * b2,
            z * a0 - x * c0, z * a1 - x * c1, z * a2 - x * c2,
            x * b0 - y * a0, x * b1 - y * a1, x * b2 - y * a2)


def _check_unit(n, what: str) -> None:
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValidationError(f"{what} is not unit norm (|q| = {n})")


@dataclass(frozen=True)
class PoseTarget:
    """Supervision payload: ground-truth pose plus its essential matrix
    (compared at unit Frobenius norm when normalized_e is set).

    The constants the terms read are derived on first use and kept, as
    Python floats from the same code as the prediction's, so a perfect
    prediction scores 0.  A field that no evaluated term reads may be
    None."""

    q: np.ndarray
    t: np.ndarray
    E: np.ndarray
    normalized_e: bool = False

    @classmethod
    def from_pose(cls, pose: Pose, normalized_e: bool = False) -> "PoseTarget":
        u, _ = _unit(pose.q, "target q")
        E = _essential(_floats(pose.t, 3, "target t")[0], rot_entries(*u))
        return cls(pose.q.copy(), pose.t.copy(), np.reshape(E, (3, 3)), normalized_e)

    @cached_property
    def q_unit(self) -> list[float]:
        """q scaled to unit norm; ValidationError if |q| is off 1 by > 1e-6."""
        u, n = _unit(self.q, "target q")
        _check_unit(n, "ground-truth quaternion")
        return u

    @cached_property
    def t_norm(self) -> float:
        return _floats(self.t, 3, "target t")[1]

    @cached_property
    def t_unit(self) -> list[float]:
        t, n = _floats(self.t, 3, "target t")
        if n <= 0:
            raise InvalidInputError("ground-truth translation must be nonzero")
        return [x / n for x in t]

    @cached_property
    def yaw(self) -> float:
        R = rot_entries(*self.q_unit)
        return math.atan2(R[3], R[0])

    @cached_property
    def E_ref(self) -> list[float]:
        """The nine entries, row by row, of the matrix the Frobenius term
        compares with: E, scaled to unit norm when normalized_e is set."""
        E, n = _floats(self.E, 9, "target E")
        if self.normalized_e and n > 1e-15:
            return [e / n for e in E]
        return E


class PredictionState:
    """One predicted pose in the form every term reads, as Python floats:
    u = q/|q| and |q|, t and |t|, and the nine entries of R = R(u) and of
    E = [t]x R, row by row.  Built for a gradient, it also holds u, t and
    R as arrays, [t]x, and J = dR/du as a (4, 3, 3) array."""

    __slots__ = ("u", "n", "t", "t_norm", "R", "E", "u_vec", "t_vec", "R_mat", "tx", "J")

    def __init__(self, q, t, grad: bool = False):
        self.u, self.n = _unit(q, "q_pred")
        self.t, self.t_norm = _floats(t, 3, "t_pred")
        self.R = rot_entries(*self.u)
        self.E = _essential(self.t, self.R)
        if grad:
            self.u_vec, self.t_vec = np.array(self.u), np.array(self.t)
            self.R_mat = np.reshape(self.R, (3, 3))
            self.tx = skew(self.t)
            self.J = quat_to_rot_jacobian(self.u_vec)

    def check_unit(self) -> "PredictionState":
        _check_unit(self.n, "predicted quaternion")
        return self

    def chain(self, du) -> np.ndarray:
        """Map dL/du onto the raw quaternion through u = q/|q|."""
        return (du - (self.u_vec @ du) * self.u_vec) / self.n


# ---------------------------------------------------------------------------
# Terms.  Each maps (state, target) to its value or, with grad=True, to
# (value, dL/du, dL/dt); the caller chains dL/du through u = q/|q|.
# ---------------------------------------------------------------------------

def _quat(p: PredictionState, g: PoseTarget, grad: bool = False):
    """Distance after flipping u onto the hemisphere of q_gt."""
    qg = g.q_unit
    s = 1.0 if sum(map(operator.mul, p.u, qg)) >= 0 else -1.0
    d = [s * a - b for a, b in zip(p.u, qg)]
    val = math.hypot(*d)
    if not grad:
        return val
    return val, (s * np.array(d) / val if val > 1e-12 else np.zeros(4)), np.zeros(3)


def _t_dir(p: PredictionState, g: PoseTarget, grad: bool = False):
    """1 - cos angle; a zero-norm prediction counts as orthogonal (loss 1)."""
    v = g.t_unit
    if p.t_norm < 1e-15:
        return (1.0, np.zeros(4), np.zeros(3)) if grad else 1.0
    u = [x / p.t_norm for x in p.t]
    c = sum(map(operator.mul, u, v))
    val = 1.0 - c
    if not grad:
        return val
    return val, np.zeros(4), -(np.array(v) - c * np.array(u)) / p.t_norm


def _t_scale(p: PredictionState, g: PoseTarget, grad: bool = False):
    """| |t_pred| - |t_gt| |."""
    diff = p.t_norm - g.t_norm
    val = abs(diff)
    if not grad:
        return val
    if p.t_norm < 1e-15:
        return val, np.zeros(4), np.zeros(3)
    return val, np.zeros(4), np.sign(diff) * p.t_vec / p.t_norm


def _frob(p: PredictionState, g: PoseTarget, grad: bool = False):
    """Frobenius gap between E = [t]x R(u) and the target's E.

    Under normalized_e both matrices are compared at unit Frobenius norm
    (scale-free variant); a zero-norm prediction is left unscaled."""
    E, npred = p.E, math.hypot(*p.E)
    scaled = g.normalized_e and npred > 1e-15
    if scaled:
        E = [e / npred for e in E]
    D = [e - r for e, r in zip(E, g.E_ref)]
    val = math.hypot(*D)
    if not grad:
        return val
    if val < 1e-12 or g.normalized_e and not scaled:
        return val, np.zeros(4), np.zeros(3)
    G = np.reshape(D, (3, 3)) / val
    if scaled:
        E = np.reshape(E, (3, 3))
        G = (G - np.vdot(G, E) * E) / npred
    # dL/dR = [t]x^T G; dL/dt is the vee of G R^T - R G^T.
    du = p.J.reshape(4, 9) @ (p.tx.T @ G).ravel()
    M = G @ p.R_mat.T
    dt = np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]])
    return val, du, dt


def _yaw(p: PredictionState, g: PoseTarget, grad: bool = False):
    """|wrapped yaw gap| in [0, pi]."""
    a, b = p.R[0], p.R[3]           # yaw = atan2(R[1, 0], R[0, 0])
    diff = wrap_angle(math.atan2(b, a) - g.yaw)
    val = abs(diff)
    if not grad:
        return val
    den = a * a + b * b
    if den < 1e-12 or val < 1e-12:
        return val, np.zeros(4), np.zeros(3)
    dyaw = (a * p.J[:, 1, 0] - b * p.J[:, 0, 0]) / den
    return val, np.sign(diff) * dyaw, np.zeros(3)


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
    "yaw": _yaw,
}


def _grad(term, q_pred, t_pred, target: PoseTarget):
    """(value, dL/dq_raw, dL/dt) of one term."""
    p = PredictionState(q_pred, t_pred, grad=True)
    val, du, dt = term(p, target, True)
    return val, p.chain(du), dt


TERM_GRADS = {
    **{term: (lambda q, t, tgt, term=term: _grad(TERM_VALUES[term], q, t, tgt))
       for term in TERM_VALUES},
    "total": lambda q, t, tgt: _total_grad_triple(q, t, tgt),
}


def _weighted(w: LossWeights, quat, t_dir, t_scale, frob, yaw):
    """The lambda-weighted sum of per-term values or gradients."""
    return (w.lambda_pose * (quat + t_dir + t_scale) + w.lambda_frob * frob
            + w.lambda_yaw * yaw)


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
