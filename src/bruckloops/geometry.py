"""Affine subspaces of F^n, their directions at infinity, and affinities.

A subspace is stored in canonical form: an orthonormal direction frame
plus the minimum-norm point (the base is orthogonal to the frame's span).
Canonicalization is bit-for-bit idempotent thanks to the snap threshold
in the orthonormalizer and a second projection of the base, so subspace
equality reduces to a plain numeric comparison.

``meet`` serves the checks; the loop operations find their intersection
points by one solve.  Its decisions use singular values with the relative
threshold 1e-8 * sigma_max, and an ambiguity band turns a silent
misclassification into an IllConditioned error: least-squares residuals
below tau_abs mean the subspaces intersect, residuals above 10*tau_abs
mean they are disjoint, anything in between refuses to decide.

Over the complex field subspaces are complex-linear spans and projectors
are hermitian; "dimension" always means the F-dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, IllConditioned, TransversalityViolated
from .groups import SigmaElement, matrix_from_json, matrix_to_json
from .linalg import _SNAP, DEFAULT_TOL, Tolerance, dag, eig_hermitian, fro, orthonormalize

_RANK_REL = 1e-8


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Canonical pair (base point, orthonormal direction frame)."""

    base: np.ndarray
    frame: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def ambient(self) -> int:
        return self.frame.shape[0]

    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        gap = point - self.base
        return float(np.linalg.norm(gap - self.frame @ (dag(self.frame) @ gap))) <= tolerance

    def to_json(self) -> dict:
        return {"base": matrix_to_json(self.base.reshape(1, -1))[0], "frame": matrix_to_json(self.frame)}


def subspace(base: np.ndarray, directions: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> AffineSubspace:
    """Build the canonical subspace through ``base`` spanned by the columns
    of ``directions`` (which need not be orthonormal)."""
    base = np.asarray(base)
    directions = np.asarray(directions)
    if directions.shape[0] != base.shape[0]:
        raise DimensionMismatch(
            f"directions live in dim {directions.shape[0]}, base in {base.shape[0]}"
        )
    frame = orthonormalize(directions, tol=tol) if directions.shape[1] else directions.astype(
        np.result_type(directions.dtype, base.dtype, np.float64)
    )
    dtype = np.result_type(frame.dtype, base.dtype, np.float64)
    base = base.astype(dtype)
    frame = frame.astype(dtype)
    if frame.shape[1]:
        # Twice is enough: the frame may be off-orthonormal by up to _SNAP,
        # so one projection can leave a component of size _SNAP * |base|;
        # a second one shrinks it below the skip threshold, which makes
        # canonical() an exact fixed point.
        for _ in range(2):
            coef = dag(frame) @ base
            if np.linalg.norm(coef) > _SNAP * max(1.0, float(np.linalg.norm(base))):
                base = base - frame @ coef
    return AffineSubspace(base, frame)


def canonical(s: AffineSubspace, tol: Tolerance = DEFAULT_TOL) -> AffineSubspace:
    return subspace(s.base, s.frame, tol)


def from_json(obj: dict, field: str) -> AffineSubspace:
    """``{"base": [...], "frame": [[...]]}``; anything else, a non-finite
    entry, or one so large that canonicalization overflows, is refused."""
    if not (isinstance(obj, dict) and all(isinstance(obj.get(key), list) for key in ("base", "frame"))):
        raise ConfigInvalid('a subspace must be a JSON object with lists "base" and "frame"')
    base = matrix_from_json([obj["base"]], field)[0]
    frame = matrix_from_json(obj["frame"], field) if obj["frame"] else np.zeros((base.shape[0], 0))
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(frame))):
        raise ConfigInvalid("subspace entries must be finite")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return subspace(base, frame)
    except FloatingPointError as exc:
        raise ConfigInvalid(f"subspace entries too large: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Affinity:
    """x -> linear @ x + translation, with invertible linear part."""

    translation: np.ndarray
    linear: np.ndarray

    def __post_init__(self) -> None:
        sv = np.linalg.svd(self.linear, compute_uv=False)
        if sv[-1] <= DEFAULT_TOL.tau_abs * sv[0]:
            raise ConfigInvalid("affinity has a numerically singular linear part")

    def __call__(self, point: np.ndarray) -> np.ndarray:
        return self.linear @ point + self.translation

    def compose(self, other: "Affinity") -> "Affinity":
        return Affinity(self.linear @ other.translation + self.translation, self.linear @ other.linear)

    def inverse(self) -> "Affinity":
        inv = np.linalg.inv(self.linear)
        return Affinity(-(inv @ self.translation), inv)


def linear_affinity(linear: np.ndarray) -> Affinity:
    return Affinity(np.zeros(linear.shape[0], dtype=linear.dtype), linear)


def at_infinity(s: AffineSubspace) -> np.ndarray:
    """The direction span of a subspace (the trace on the hyperplane at
    infinity) as its orthonormal frame; independent of the base point."""
    return s.frame


def apply(g: Affinity, s: AffineSubspace, tol: Tolerance = DEFAULT_TOL) -> AffineSubspace:
    return subspace(g(s.base), g.linear @ s.frame, tol)


def meet(s1: AffineSubspace, s2: AffineSubspace, tol: Tolerance = DEFAULT_TOL):
    """Intersection of two affine subspaces: a canonical subspace (possibly
    a single point of dimension 0) or None when they are disjoint."""
    if s1.ambient != s2.ambient:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    k1, k2 = s1.dim, s2.dim
    rhs = s2.base - s1.base
    if k1 + k2 == 0:
        gap = float(np.linalg.norm(rhs))
        if gap <= tol.tau_abs:
            return subspace(s1.base, s1.frame, tol)
        if gap >= 10 * tol.tau_abs:
            return None
        raise IllConditioned(f"point gap {gap:.3e} inside the ambiguity band")
    if k1 and k2:
        m = np.hstack([s1.frame, -s2.frame])
    elif k1:
        m = s1.frame
    else:
        m = -s2.frame
    u, sv, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(sv > _RANK_REL * sv[0])) if sv.size and sv[0] > 0 else 0
    coeffs = dag(u[:, :rank]) @ rhs
    z = dag(vh[:rank, :]) @ (coeffs / sv[:rank]) if rank else np.zeros(m.shape[1], dtype=m.dtype)
    residual = float(np.linalg.norm(m @ z - rhs))
    if residual >= 10 * tol.tau_abs:
        return None
    if residual > tol.tau_abs:
        raise IllConditioned(f"meet residual {residual:.3e} inside the ambiguity band")
    point = s1.base + (s1.frame @ z[:k1] if k1 else 0.0)
    null_basis = dag(vh[rank:, :])
    if null_basis.shape[1] == 0:
        return subspace(point, np.zeros((s1.ambient, 0), dtype=m.dtype), tol)
    directions = s1.frame @ null_basis[:k1, :] if k1 else s2.frame @ null_basis[k1:, :]
    return subspace(point, directions, tol)


def projector(frame: np.ndarray, n: int) -> np.ndarray:
    if frame.shape[1] == 0:
        return np.zeros((n, n), dtype=np.result_type(frame.dtype, np.float64))
    return frame @ dag(frame)


def subspace_distance(s1: AffineSubspace, s2: AffineSubspace) -> float:
    """Frobenius distance of the direction projectors plus the norm of the
    base gap projected onto the common normal space (the orthogonal
    complement of the union of the two direction spans).  Zero exactly for
    equal subspaces; symmetric by construction."""
    if s1.ambient != s2.ambient or s1.dim != s2.dim:
        raise DimensionMismatch("subspace comparison requires matching dimensions")
    n = s1.ambient
    p1 = projector(s1.frame, n)
    p2 = projector(s2.frame, n)
    d_dir = fro(p1 - p2)
    gap = s1.base - s2.base
    # The union of the two direction spans is the range of p1 + p2; the sum
    # is commutative in floating point, so the result is exactly symmetric
    # in its arguments.
    union = p1 + p2
    dec = eig_hermitian(union)
    top = float(dec.eigenvalues[-1]) if dec.eigenvalues.size else 0.0
    if top > 0.0:
        keep = dec.eigenvalues > _RANK_REL * top
        basis = dec.eigenbasis[:, keep]
        gap = gap - basis @ (dag(basis) @ gap)
    return d_dir + float(np.linalg.norm(gap))


@dataclass(frozen=True)
class TransversalityReport:
    """Violations raise, so a report means every meet was a single point."""

    samples: int
    worst_margin: float


def transversality_check(
    w: AffineSubspace,
    rhos,
    u: AffineSubspace,
    tol: Tolerance = DEFAULT_TOL,
) -> TransversalityReport:
    """Check that w meets the image of u under every sampled linear map in
    exactly one point; reports the worst conditioning margin
    sigma_min/sigma_max of the deciding linear systems."""
    if w.dim + u.dim != w.ambient:
        raise DimensionMismatch(
            f"dim W + dim U = {w.dim + u.dim} must equal the ambient dimension {w.ambient}"
        )
    worst = np.inf
    count = 0
    for rho in rhos:
        mat = rho.matrix if isinstance(rho, SigmaElement) else rho
        image = apply(linear_affinity(mat), u, tol)
        try:
            x = meet(w, image, tol)
        except IllConditioned as exc:
            raise TransversalityViolated(f"sample {count}: {exc}") from exc
        if x is None or x.dim != 0:
            raise TransversalityViolated(
                f"sample {count}: meet is {'empty' if x is None else f'{x.dim}-dimensional'}"
            )
        sv = np.linalg.svd(np.hstack([w.frame, -image.frame]), compute_uv=False)
        worst = min(worst, float(sv[-1] / sv[0]))
        count += 1
    return TransversalityReport(count, worst)
