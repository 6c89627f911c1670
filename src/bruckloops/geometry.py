"""Affine subspaces of F^n, their directions at infinity, and their images
under affine maps.

A subspace is any point and spanning frame, and ``apply`` maps the pair as
given.  Code that reads an orthonormal frame or the minimum-norm point
builds it only where it is not already known: ``subspace`` gives the
canonical form, the frame ``orthonormalize`` gives (the positive-diagonal
QR frame, the one Gram-Schmidt gives; a collapsed frame is RankDeficient)
plus the base projected once onto its orthogonal complement.  Canonical
forms of one subspace agree to rounding, not bit for bit.
``canonical_distance`` is the one metric on canonical forms, read as
given: the Frobenius gap of the direction projectors plus the gap of the
minimum-norm points, with no spectral call; ``subspace_distance`` is one
stacked QR of any two operands followed by it.

Every function takes stacks: a subspace whose base is (..., n) and frame
(..., n, k) is that many subspaces of one dimension, and each step is one
call for the whole stack.

Over the complex field subspaces are complex-linear spans and projectors
are hermitian; "dimension" always means the F-dimension.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, TransversalityViolated
from .linalg import dag, fro, matrix_from_json, mv, orthonormalize, refuse_assignment

_RANK_REL = 1e-8


class AffineSubspace:
    """Pair (base point, direction frame): any point and spanning frame, or
    the minimum-norm point and an orthonormal frame when built by
    ``subspace``.  The frame's span is the direction at infinity (the trace
    on the hyperplane at infinity), independent of the base point."""

    __slots__ = ("base", "frame")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, base: np.ndarray, frame: np.ndarray):
        _set_base(self, base)
        _set_frame(self, frame)

    def __getitem__(self, index):
        """The subspace, or sub-stack, at ``index`` of the batch axes."""
        return AffineSubspace(self.base[index], self.frame[index])

    def __len__(self) -> int:
        """The length of a stack's first batch axis."""
        return len(self.frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[-1]

    @property
    def ambient(self) -> int:
        return self.frame.shape[-2]

    def reshape(self, batch: tuple) -> AffineSubspace:
        """The stack with its batch axes read as the shape ``batch``."""
        n, k = self.frame.shape[-2:]
        return AffineSubspace(self.base.reshape(batch + (n,)), self.frame.reshape(batch + (n, k)))

    def broadcast(self) -> AffineSubspace:
        """The stack with base and frame copied out to one batch shape; the
        subspace itself when their batch shapes already agree.  The copies
        are contiguous, so a stack gives the bits of its subspaces alone."""
        batch = self.frame.shape[:-2]
        if self.base.shape[:-1] == batch:
            return self
        batch = np.broadcast_shapes(self.base.shape[:-1], batch)
        return AffineSubspace(
            np.ascontiguousarray(np.broadcast_to(self.base, batch + self.base.shape[-1:])),
            np.ascontiguousarray(np.broadcast_to(self.frame, batch + self.frame.shape[-2:])),
        )


_set_base, _set_frame = AffineSubspace.base.__set__, AffineSubspace.frame.__set__


def subspace(base: np.ndarray, directions: np.ndarray) -> AffineSubspace:
    """Build the canonical subspace through ``base`` spanned by the columns
    of ``directions`` (which need not be orthonormal): their orthonormal
    frame and the base minus its projection onto that frame's span."""
    base = np.asarray(base)
    directions = np.asarray(directions)
    if directions.shape[-2] != base.shape[-1]:
        raise DimensionMismatch(
            f"directions live in dim {directions.shape[-2]}, base in {base.shape[-1]}"
        )
    frame = orthonormalize(directions).astype(np.result_type(directions.dtype, base.dtype, np.float64), copy=False)
    return AffineSubspace(base - mv(frame, mv(dag(frame), base)), frame)


def from_json(obj: dict, field: str) -> AffineSubspace:
    """``{"base": [...], "frame": [[...]]}`` as written; anything else, or a
    non-finite entry, is refused.  ``extension_config`` checks a transversal
    under the overflow trap of ``cli.resolve``."""
    if not (isinstance(obj, dict) and all(isinstance(obj.get(key), list) for key in ("base", "frame"))):
        raise ConfigInvalid('a subspace must be a JSON object with lists "base" and "frame"')
    base = matrix_from_json([obj["base"]], field)[0]
    frame = matrix_from_json(obj["frame"], field) if obj["frame"] else np.zeros((base.shape[0], 0))
    return AffineSubspace(base, frame)


def apply(linear: np.ndarray, s: AffineSubspace, shift=0.0) -> AffineSubspace:
    """The image of ``s`` under x -> linear @ x + shift: the mapped point and
    the mapped frame.  A linear part that collapses the subspace is refused
    where the image's frame is orthonormalized (RankDeficient)."""
    return AffineSubspace(mv(linear, s.base) + shift, linear @ s.frame)


def projector(frame: np.ndarray) -> np.ndarray:
    return frame @ dag(frame)


def canonical_distance(s1: AffineSubspace, s2: AffineSubspace) -> float:
    """The metric on canonical forms, read off their frames and bases as
    given: the Frobenius gap of the direction projectors plus the gap of the
    minimum-norm points, ||P1 - P2|| + |m1 - m2|, broadcast over the batch
    axes.  Operands known canonical (a stored transversal, a coordinate
    subspace, their images under a unitary) take it with no QR call."""
    return fro(projector(s1.frame) - projector(s2.frame)) + fro(s1.base - s2.base, axis=-1)


def subspace_distance(s1: AffineSubspace, s2: AffineSubspace) -> float:
    """``canonical_distance`` of the canonical forms of any two subspaces: a
    metric on the (projector, point) embedding of affine subspaces,
    continuous in both operands and zero exactly for equal subspaces;
    symmetric by construction.  One distance per subspace of a stack; both
    operands, batch axes flattened, are canonicalized by one ``subspace``
    call, so a single subspace against a stack takes one QR and broadcasts."""
    if s1.ambient != s2.ambient or s1.dim != s2.dim:
        raise DimensionMismatch("subspace comparison requires matching dimensions")
    (f1, shape1), (f2, shape2) = _flattened(s1), _flattened(s2)
    c, size = subspace(np.concatenate([f1.base, f2.base]), np.concatenate([f1.frame, f2.frame])), len(f1.base)
    return canonical_distance(c[:size].reshape(shape1), c[size:].reshape(shape2))


def _flattened(s: AffineSubspace) -> tuple:
    """A stack as one batch axis, base (m, n) and frame (m, n, k), and its
    batch shape."""
    s = s.broadcast()
    return s.reshape((-1,)), s.frame.shape[:-2]


# The sample count and the worst margin.  Violations raise, so a report
# means every sampled image met the subspace in a single point.
TransversalityReport = namedtuple("TransversalityReport", "samples worst_margin")


def transversality_check(w: AffineSubspace, linear: np.ndarray, u: AffineSubspace) -> TransversalityReport:
    """Check that w meets the image of u under each matrix of the stack
    ``linear`` (..., n, n) in exactly one point.  The dimensions are
    complementary, so that holds exactly when the square matrix [w frame,
    -image frame] has full rank: its singular values, from one stacked SVD,
    decide it with the relative threshold 1e-8 * sigma_max, on w's frame as
    given (orthonormal) and the orthonormalized image frame, which refuses a
    collapsing map (RankDeficient).  Reports the worst margin."""
    if w.dim + u.dim != w.ambient:
        raise DimensionMismatch(
            f"dim W + dim U = {w.dim + u.dim} must equal the ambient dimension {w.ambient}"
        )
    image = orthonormalize(linear @ u.frame)
    pair = np.concatenate([np.broadcast_to(w.frame, image.shape[:-1] + (w.dim,)), -image], axis=-1)
    sv = np.linalg.svd(pair, compute_uv=False).reshape(-1, w.ambient)
    bad = sv[:, -1] <= _RANK_REL * sv[:, 0]
    if bad.any():
        first = int(np.argmax(bad))
        raise TransversalityViolated(
            f"sample {first}: the image does not meet the subspace in exactly one "
            f"point (sigma_min {sv[first, -1]:.3e}, sigma_max {sv[first, 0]:.3e})"
        )
    margins = sv[:, -1] / sv[:, 0]
    return TransversalityReport(margins.size, float(np.min(margins, initial=np.inf)))
