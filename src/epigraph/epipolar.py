"""Classical essential-matrix estimation.

Constraint-matrix assembly, nullspace solve with Hartley renormalization
through the 9x9 Gram matrix (the SVD only where its eigenvalues cannot
certify the rank), projection onto the essential manifold, four-way
decomposition with cheirality disambiguation, and the confidence-seeded
initial estimate E0 used for graph pruning.

Estimated matrices are canonicalized: unit Frobenius norm, sign fixed so
the largest-magnitude entry is positive.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AmbiguousCheiralityError,
    DegenerateGeometryError,
    InsufficientCorrespondencesError,
    InvalidEssentialError,
    InvalidInputError,
)
from .geom import Pose, rot_to_quat, sampson_distances

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _require_finite(name: str, *arrays) -> None:
    """Raise InvalidInputError naming ``name`` if an array holds a NaN or
    an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError(f"{name} holds non-finite values")


def _as_point_arrays(pairs):
    """An (X1, X2) tuple of finite normalized points -> two float arrays."""
    X1, X2 = pairs
    X1, X2 = np.asarray(X1, dtype=float), np.asarray(X2, dtype=float)
    _require_finite("pairs", X1, X2)
    return X1, X2


def _frobenius(M) -> np.ndarray:
    """Frobenius norm of each 3x3 matrix of a (S, 3, 3) stack, computed as
    the dot product ``np.linalg.norm`` uses for a single matrix."""
    flat = M.reshape(-1, 1, 9)
    return np.sqrt((flat @ flat.transpose(0, 2, 1)).reshape(-1))


def canonicalize_essential(E) -> np.ndarray:
    """Frobenius-normalize and sign-fix (largest-|entry| positive).

    ``E`` is one (3, 3) matrix or a (S, 3, 3) stack, canonicalized member
    by member.
    """
    E = np.asarray(E, dtype=float)
    _require_finite("E", E)
    return _canonicalize(E)


def _canonicalize(E) -> np.ndarray:
    """canonicalize_essential on a finite float array."""
    flat = E.reshape(-1, 9)
    n = _frobenius(flat)
    if np.any(n < 1e-15):
        raise InvalidInputError("cannot canonicalize the zero matrix")
    flat = flat / n[:, None]
    top = np.take_along_axis(flat, np.abs(flat).argmax(axis=1)[:, None], axis=1)
    return np.where(top < 0, -flat, flat).reshape(E.shape)


def build_constraint_matrix(pairs) -> np.ndarray:
    """N x 9 matrix A with A @ vec(E) = [x2_i^T E x1_i]_i (row-major vec).

    ``pairs`` is a tuple of two (N, 3) arrays, or of two (S, m, 3) arrays,
    giving the (S, m, 9) stack of the S subsets' matrices.
    """
    X1, X2 = _as_point_arrays(pairs)
    n = X1.shape[-2]
    if n < 8:
        raise InsufficientCorrespondencesError(f"need >= 8 correspondences, got {n}")
    return _constraint_rows(X1, X2)


def _constraint_rows(X1, X2) -> np.ndarray:
    """build_constraint_matrix's rows, for points already checked."""
    return np.einsum("...i,...j->...ij", X2, X1).reshape(*X1.shape[:-1], 9)


def _hartley_transform(X):
    """Isotropic conditioning transforms for a (S, m, 3) stack of
    homogeneous point sets.

    Returns the conditioned points, the (S, 3, 3) transforms and a (S,)
    mask of the sets whose points do not all coincide; a set that does
    gets a finite stand-in transform and a False mask entry.
    """
    c = X[:, :, :2].mean(axis=1)
    d = np.sqrt(((X[:, :, :2] - c[:, None, :]) ** 2).sum(axis=2)).mean(axis=1)
    ok = ~(d < 1e-12)
    s = np.sqrt(2.0) / np.where(ok, d, 1.0)
    T = np.zeros((len(X), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * c
    T[:, 2, 2] = 1.0
    return X @ T.transpose(0, 2, 1), T, ok


def project_to_essential(M) -> np.ndarray:
    """Nearest (Frobenius) matrix with singular values (s, s, 0).

    ``M`` is one (3, 3) matrix or a (S, 3, 3) stack, projected member by
    member.
    """
    M = np.asarray(M, dtype=float)
    _require_finite("E", M)
    return _project(M)


def _project(M) -> np.ndarray:
    """project_to_essential on a finite float array."""
    if np.any(_frobenius(M) < 1e-15):
        raise InvalidInputError("cannot project the zero matrix")
    U, S, Vt = np.linalg.svd(M)
    D = np.zeros(M.shape)
    D[..., 0, 0] = D[..., 1, 1] = 0.5 * (S[..., 0] + S[..., 1])
    return U @ D @ Vt


def solve_eight_point(pairs):
    """Normalized eight-point solve on intrinsics-normalized pairs.

    Hartley isotropic renormalization is applied internally as a
    conditioning safeguard.  E's null vector is the smallest eigenvector of
    the 9x9 Gram matrix AᵀA; ``eigh`` resolves λ to about ε·λ8, so a set
    with λ1 > 1e-12·λ8 is certainly rank 8 (σ7 >= 1e-10·σ0), and any other
    set is judged and solved by the SVD of A.  The result is projected to
    the essential manifold and canonicalized (unit Frobenius norm, fixed sign).

    ``pairs`` is a tuple of two (N, 3) arrays, N >= 8, returning E (3, 3);
    an unsolvable set raises DegenerateGeometryError.  It may instead be a
    tuple of two (S, m, 3) arrays, S subsets of m >= 8 pairs each, solved
    in one batched ``eigh``: the result is then ``(E, ok)``, E (S, 3, 3)
    and ok an (S,) mask of the solvable subsets, whose E equals the single
    solve of that subset; the other members of E are zero.
    """
    X1, X2 = _as_point_arrays(pairs)
    stacked = X1.ndim == 3
    if not stacked:
        X1, X2 = X1[None], X2[None]
    n_sets, m = X1.shape[:2]
    if m < 8:
        raise InsufficientCorrespondencesError(f"need >= 8 correspondences, got {m}")
    X1c, T1, ok1 = _hartley_transform(X1)
    X2c, T2, ok2 = _hartley_transform(X2)
    if not stacked and not (ok1[0] and ok2[0]):
        raise DegenerateGeometryError("all points coincide; cannot condition")
    A = _constraint_rows(X1c, X2c)
    lam, V = np.linalg.eigh(A.transpose(0, 2, 1) @ A)
    null = V[:, :, 0]
    ok = ok1 & ok2
    unsure = ok & ~(lam[:, 1] > 1e-12 * lam[:, 8])
    if unsure.any():
        # U is discarded; a reduced SVD still yields the whole 9x9 Vt when m >= 9
        _, S, Vt = np.linalg.svd(A[unsure], full_matrices=m < 9)
        ok[unsure] = ~(S[:, 7] < 1e-10 * S[:, 0])
        null[unsure] = Vt[:, -1]
    if not stacked and not ok[0]:
        raise DegenerateGeometryError("constraint matrix is rank-deficient (rank < 8)")
    E = T2[ok].transpose(0, 2, 1) @ null[ok].reshape(-1, 3, 3) @ T1[ok]
    if not stacked:
        return _canonicalize(_project(E))[0]
    out = np.zeros((n_sets, 3, 3))
    if ok.any():
        out[ok] = _canonicalize(_project(E))
    return out, ok


def decompose_essential(E) -> list[Pose]:
    """Four (R, unit-t) candidates of an essential matrix, whose singular
    values must be (s, s, 0) within 1e-6·s."""
    E = np.asarray(E, dtype=float)
    if E.shape != (3, 3):
        raise InvalidEssentialError(f"expected 3x3 matrix, got {E.shape}")
    _require_finite("E", E)
    U, S, Vt = np.linalg.svd(E)
    if S[0] < 1e-15:
        raise InvalidEssentialError("zero matrix is not essential")
    if S[2] / S[0] > 1e-6 or abs(S[0] - S[1]) / S[0] > 1e-6:
        raise InvalidEssentialError(
            f"singular values {S} violate the essential structure")
    if np.linalg.det(U) < 0:
        U = U.copy()
        U[:, -1] *= -1
    if np.linalg.det(Vt) < 0:
        Vt = Vt.copy()
        Vt[-1, :] *= -1
    u3 = U[:, 2]
    # one quaternion per rotation; Pose copies it, so no array is shared
    q1 = rot_to_quat(U @ _W @ Vt)
    q2 = rot_to_quat(U @ _W.T @ Vt)
    return [Pose(q1, u3), Pose(q1, -u3), Pose(q2, u3), Pose(q2, -u3)]


def _dlt_systems(x1, x2, R, t) -> np.ndarray:
    """The (N, 4, 4) DLT systems of (N, 3) homogeneous point stacks seen by
    P1 = [I | 0] and P2 = [R | t]; the null vector of each is its point."""
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, np.asarray(t, dtype=float).reshape(3, 1)])
    return np.stack([
        x1[:, 0:1] * P1[2] - P1[0],
        x1[:, 1:2] * P1[2] - P1[1],
        x2[:, 0:1] * P2[2] - P2[0],
        x2[:, 1:2] * P2[2] - P2[1],
    ], axis=1)


def _svd_points(A) -> np.ndarray:
    """The points of (N, 4, 4) DLT systems from their SVD null vectors; a
    point whose homogeneous scale has |w| < 1e-15 is a row of inf."""
    _, _, Vt = np.linalg.svd(A)
    X = Vt[:, -1]
    finite = ~(np.abs(X[:, 3:]) < 1e-15)
    return np.divide(X[:, :3], X[:, 3:], out=np.full((len(X), 3), np.inf),
                     where=finite)


# Smallest certificate min(|w|, |x[2]|, |g|/|p|) * gap of a row that the
# Gram eigenvector places; about 4.5e4 machine epsilons.
_SURE = 1e-11


def _gram_points(A, R, t) -> np.ndarray:
    """The points of (N, 4, 4) DLT systems, each from the smallest
    eigenvector x of its Gram matrix AᵀA where that vector certifies the
    SVD's depth signs, and from ``_svd_points`` elsewhere.

    With p = P2[2] = (R[2], t[2]) and g = p·x, the depths of the point
    x[:3]/w (w = x[3]) are z1 = x[2]/w and z2 = g/w.  A row is *sure* when
    min(|w|, |x[2]|, |g|/|p|) · gap exceeds 1e-11, where
    gap = (λ1 − λ0)/λ3 is the relative gap above the Gram spectrum's
    smallest eigenvalue.  Both ``eigh``'s vector and the SVD's right
    singular vector lie within about 100·ε/gap of the exact unit null
    vector (the SVD's gap, (σ1 − σ0)/σ3, is at least half the Gram's), so
    w, x[2] and g/|p| (an error in x moves g by at most |p| times it)
    have the same signs in both, by a margin of over 200.  The rounding of
    z2 = X·R[2] + t[2] is a few ε·|p|/|w|, far below |z2| = |g|/|w|.  So
    on a sure row the SVD's point is finite (|w| > 1e-15) and its computed
    depths have these signs, though its bits differ.  Every other row, a
    near-infinite point, one near a camera's plane or a near-degenerate
    system, is solved by the SVD.
    """
    lam, V = np.linalg.eigh(A.transpose(0, 2, 1) @ A)
    x = V[:, :, 0]
    p = np.append(R[2], t[2])
    g = x @ p
    gap = (lam[:, 1] - lam[:, 0]) / lam[:, 3]
    sure = ((np.minimum(np.abs(x[:, 3]), np.abs(x[:, 2])) * gap > _SURE)
            & (np.abs(g) * gap > _SURE * np.linalg.norm(p)))
    if sure.all():
        return x[:, :3] / x[:, 3:]
    out = np.empty((len(A), 3))
    out[sure] = x[sure, :3] / x[sure, 3:]
    out[~sure] = _svd_points(A[~sure])
    return out


def triangulate_dlt(x1, x2, R, t, *, gram: bool = False) -> np.ndarray:
    """Linear two-view triangulation; returns 3-D points in view-1 coords.

    ``x1`` and ``x2`` are one homogeneous point each, giving a (3,) point,
    or (N, 3) stacks, giving (N, 3) points triangulated in one batched SVD
    of the (N, 4, 4) DLT systems.  A point whose homogeneous scale has
    |w| < 1e-15 comes back as a row of inf.  A non-finite argument raises
    InvalidInputError naming it.

    ``gram=True`` places each well-conditioned point from one batched
    ``eigh`` of the 4x4 Gram matrices instead, which is faster.  Such a
    point differs from the SVD's in its last bits but, as ``_gram_points``
    shows, is finite exactly where the SVD's is and has the same depth
    signs in both views; the other points are the SVD's.
    """
    single = np.ndim(x1) == 1
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    for name, a in (("x1", x1), ("x2", x2), ("R", R), ("t", t)):
        _require_finite(name, a)
    A = _dlt_systems(x1, x2, R, t)
    if gram:
        out = _gram_points(A, np.asarray(R, dtype=float), np.asarray(t, dtype=float))
    else:
        out = _svd_points(A)
    return out[0] if single else out


def _cheirality_counts(candidates, X1, X2) -> list[int]:
    """Per candidate, the number of finite triangulated points in front of
    both cameras.  The points come from ``triangulate_dlt(..., gram=True)``,
    whose depth signs, and so these counts, are those of its SVD.

    A candidate (R, -t) whose partner (R, t) was already triangulated is
    scored from the partner's points: its DLT system is the partner's with
    the last column negated, so its points are their negatives, and its
    count is that of the finite points with both depths below 0.  Pairing
    asks for exact equality of R and of -t, so the four candidates of
    ``decompose_essential`` cost two DLT solves.
    """
    rotations = [cand.rotation() for cand in candidates]
    counts: list = [None] * len(candidates)
    for i, (cand, R) in enumerate(zip(candidates, rotations)):
        if counts[i] is not None:
            continue
        X = triangulate_dlt(X1, X2, R, cand.t, gram=True)
        X = X[np.isfinite(X).all(axis=1)]
        z1, z2 = X[:, 2], X @ R[2] + cand.t[2]
        counts[i] = int(np.count_nonzero((z1 > 0) & (z2 > 0)))
        for j in range(i + 1, len(candidates)):
            if (counts[j] is None and np.array_equal(rotations[j], R)
                    and np.array_equal(candidates[j].t, -cand.t)):
                counts[j] = int(np.count_nonzero((z1 < 0) & (z2 < 0)))
    return counts


def cheirality_select(candidates, pairs) -> Pose:
    """Pick the candidate with the most triangulated points in front of
    both cameras.  Ties raise AmbiguousCheiralityError carrying the tied
    candidates; a non-finite point or translation raises InvalidInputError
    naming ``pairs`` or ``candidates``."""
    X1, X2 = _as_point_arrays(pairs)
    if len(X1) < 1:
        raise InsufficientCorrespondencesError("need at least one correspondence")
    _require_finite("candidates", *(cand.t for cand in candidates))
    counts = _cheirality_counts(candidates, X1, X2)
    best = max(counts)
    winners = [c for c, n in zip(candidates, counts) if n == best]
    if len(winners) > 1:
        raise AmbiguousCheiralityError(
            f"cheirality tie at {best} positive-depth points", winners)
    return winners[0]


def recover_pose(pairs) -> Pose:
    """Full classical pipeline: eight-point -> decompose -> cheirality."""
    E = solve_eight_point(pairs)
    return cheirality_select(decompose_essential(E), pairs)


def estimate_E0(corr, tau: float = 1e-4, m: int = 16, iters: int = 32,
                seed: int = 0, points=None) -> np.ndarray:
    """Initial essential estimate from a minimal high-confidence subset.

    Seeds with the m most confident correspondences and scores that
    candidate by its Sampson inlier count at threshold tau over the whole
    set.  If every match is an inlier it is returned at once: no later
    candidate could beat it, and no random subset is drawn.  Otherwise
    ``iters`` random m-subsets are drawn, solved in one stacked
    ``solve_eight_point`` call as an (iters, m, 3) stack of points per
    image, and scored all at once as an (iters, N) distance array.  The
    first of the 1 + iters candidates with the most inliers is returned,
    so the confidence-seeded one wins ties.  Deterministic given the seed.
    ``points``, if given, are ``corr.normalized_points()``.
    """
    X1, X2 = corr.normalized_points() if points is None else points
    n = len(X1)
    if n < 8:
        raise InsufficientCorrespondencesError(f"need >= 8 correspondences, got {n}")
    m = min(m, n)
    if m < 8:
        raise DegenerateGeometryError("no candidate subset yielded a solvable system")
    conf = np.asarray(corr.confidences(), dtype=float)
    # stable top-m by confidence, ties by original index
    order = np.lexsort((np.arange(n), -conf))

    def solve_and_score(subsets):
        E, ok = solve_eight_point((X1[subsets], X2[subsets]))
        return E, ok, np.where(ok, (sampson_distances(X1, X2, E) < tau).sum(axis=1), -1)

    E, ok, counts = solve_and_score(order[None, :m])
    if counts[0] == n:
        return E[0]
    if iters > 0:
        rng = np.random.default_rng(seed)
        drawn = solve_and_score(np.stack([rng.choice(n, size=m, replace=False)
                                          for _ in range(iters)]))
        E, ok, counts = (np.concatenate(pair) for pair in zip((E, ok, counts), drawn))
    if not ok.any():
        raise DegenerateGeometryError("no candidate subset yielded a solvable system")
    return E[np.argmax(counts)]
