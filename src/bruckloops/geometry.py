"""Affine subspaces of F^n, their directions at infinity, and their images
under affine maps.

A subspace is stored in canonical form: an orthonormal direction frame
plus the minimum-norm point (the base is orthogonal to the frame's span).
Canonicalization is bit-for-bit idempotent thanks to the snap threshold
in the orthonormalizer and a second projection of the base, so subspace
equality reduces to a plain numeric comparison.

Over the complex field subspaces are complex-linear spans and projectors
are hermitian; "dimension" always means the F-dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, TransversalityViolated
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


def at_infinity(s: AffineSubspace) -> np.ndarray:
    """The direction span of a subspace (the trace on the hyperplane at
    infinity) as its orthonormal frame; independent of the base point."""
    return s.frame


def apply(
    linear: np.ndarray, s: AffineSubspace, shift=0.0, tol: Tolerance = DEFAULT_TOL
) -> AffineSubspace:
    """The image of ``s`` under x -> linear @ x + shift.  A linear part that
    collapses the subspace is refused by orthonormalize (RankDeficient)."""
    return subspace(linear @ s.base + shift, linear @ s.frame, tol)


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
    """Violations raise, so a report means every sampled image met the
    subspace in a single point."""

    samples: int
    worst_margin: float


def transversality_check(
    w: AffineSubspace,
    rhos,
    u: AffineSubspace,
    tol: Tolerance = DEFAULT_TOL,
) -> TransversalityReport:
    """Check that w meets the image of u under every sampled linear map in
    exactly one point.  The dimensions are complementary, so that holds
    exactly when the square matrix [w frame, -image frame] has full rank:
    its singular values decide it, with the relative threshold
    1e-8 * sigma_max.  Reports the worst margin sigma_min/sigma_max."""
    if w.dim + u.dim != w.ambient:
        raise DimensionMismatch(
            f"dim W + dim U = {w.dim + u.dim} must equal the ambient dimension {w.ambient}"
        )
    worst = np.inf
    count = 0
    for rho in rhos:
        mat = rho.matrix if isinstance(rho, SigmaElement) else rho
        image = apply(mat, u, tol=tol)
        sv = np.linalg.svd(np.hstack([w.frame, -image.frame]), compute_uv=False)
        if sv[-1] <= _RANK_REL * sv[0]:
            raise TransversalityViolated(
                f"sample {count}: the image does not meet the subspace in exactly one "
                f"point (sigma_min {sv[-1]:.3e}, sigma_max {sv[0]:.3e})"
            )
        worst = min(worst, float(sv[-1] / sv[0]))
        count += 1
    return TransversalityReport(count, worst)
