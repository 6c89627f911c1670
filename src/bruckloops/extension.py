"""The loop of affine subspaces carried by translations along a transversal.

The carrier set is the orbit of a coordinate subspace W_i (the span of the
first p1 or last p2 basis vectors) under compositions of positive-definite
isometries with translations along a fixed transversal subspace.  Every
orbit subspace is identified by the pair

    (intersection point with the transversal,  direction at infinity)

and the direction is in turn carried by a canonical positive-definite lift,
so an element is stored as ``(w, rho)``.  Realizing an element re-creates
the subspace; the coordinate map ``omega`` inverts realization.

Every orbit direction at infinity is the graph of a strict contraction
between the two coordinate blocks, which gives ``lift_from_infinity`` a
closed form (the boost of that contraction, as in the gyrogroup view of
the loop).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NotInOrbit,
    NotPositiveDefinite,
    RankAmbiguous,
    TransversalityViolated,
    WitnessNotFound,
)
from .geometry import AffineSubspace, apply, at_infinity, projector, subspace, subspace_distance
from .groups import (
    PhiElement,
    SampleStream,
    SigmaElement,
    SignatureForm,
    _off_diagonal_generator,
    element_from_json,
    element_to_json,
    matrix_from_json,
    matrix_to_json,
    sample_phi,
    sample_sigma,
    sigma_from_block,
)
from .kernel import Loop
from .linalg import COMPLEX, DEFAULT_TOL, Tolerance, dag, eig_hermitian, spectral_map, symmetrize
from .matrixloop import MatrixLoop, _inverse

_W_SCALE = 1.0  # sampled transversal points have frame coordinates in [-1, 1]
_STEP = 1e-5  # central-difference step of the dimension Jacobian
_AMBIGUITY_FRACTION = 0.10  # share of gapless points that refuses a rank estimate


def coordinate_subspace(form: SignatureForm, which: int) -> AffineSubspace:
    """W_1 = span of the first p1 basis vectors, W_2 = span of the last p2."""
    eye = np.eye(form.n, dtype=form.dtype)
    cols = eye[:, : form.p1] if which == 1 else eye[:, form.p1 :]
    return subspace(np.zeros(form.n, dtype=form.dtype), cols)


@dataclass(frozen=True, eq=False)
class ExtensionConfig:
    """Validated configuration: form, carrier index i, transversal subspace."""

    form: SignatureForm
    carrier: int
    wtilde: AffineSubspace
    tol: Tolerance = field(default=DEFAULT_TOL)

    @property
    def complement_index(self) -> int:
        return 2 if self.carrier == 1 else 1

    @property
    def carrier_dim(self) -> int:
        return self.form.p1 if self.carrier == 1 else self.form.p2

    @property
    def transversal_dim(self) -> int:
        return self.form.n - self.carrier_dim

    def carrier_subspace(self) -> AffineSubspace:
        return coordinate_subspace(self.form, self.carrier)

    def identity_element(self) -> "ExtensionElement":
        return ExtensionElement(
            np.zeros(self.form.n, dtype=self.form.dtype),
            SigmaElement(np.eye(self.form.n, dtype=self.form.dtype), self.form),
        )


def extension_config(
    form: SignatureForm,
    carrier: int = 1,
    wtilde: AffineSubspace | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtensionConfig:
    """Build and validate a configuration.

    The transversal defaults to the complementary coordinate subspace.  Any
    other must pass through 0 (it is stored with base exactly 0), have the
    right dimension, and meet every orbit direction, the graph of a strict
    contraction, in one point: exactly when the form is non-positive on it
    (carrier 1) or non-negative (carrier 2), the angular-operator theorem.
    One eigendecomposition of F* J F decides it, once, for the loop; the
    sampled ``geometry.transversality_check`` is the independent
    cross-check, one singular-value decomposition per sampled direction.
    """
    if carrier not in (1, 2):
        raise ConfigInvalid(f"carrier index must be 1 or 2, got {carrier}")
    if wtilde is None:
        wtilde = coordinate_subspace(form, 2 if carrier == 1 else 1)
    else:
        wtilde = geometry.canonical(wtilde, tol)
    pj = form.n - (form.p1 if carrier == 1 else form.p2)
    if wtilde.ambient != form.n or wtilde.dim != pj:
        raise ConfigInvalid(
            f"transversal must be a {pj}-dimensional subspace of F^{form.n}, "
            f"got dim {wtilde.dim} in F^{wtilde.ambient}"
        )
    if float(np.linalg.norm(wtilde.base)) > 10 * tol.tau_abs:
        raise ConfigInvalid("transversal must pass through 0")
    sign, kind = (1.0, "non-positive") if carrier == 1 else (-1.0, "non-negative")
    gram = symmetrize(dag(wtilde.frame) @ (sign * form.j_matrix()) @ wtilde.frame)
    wrong = float(eig_hermitian(gram, tol).eigenvalues[-1])  # worst wrong-sign value on a unit vector
    if wrong > tol.tau_abs:
        raise TransversalityViolated(f"the form must be {kind} on the transversal, not {sign * wrong:.3e}")
    return ExtensionConfig(form, carrier, AffineSubspace(np.zeros_like(wtilde.base), wtilde.frame), tol)


@dataclass(frozen=True, eq=False)
class ExtensionElement:
    """Coordinates (w, rho): the transversal intersection point and the
    canonical positive-definite lift of the direction at infinity."""

    w: np.ndarray
    rho: SigmaElement

    def to_json(self) -> dict:
        return {"w": matrix_to_json(self.w.reshape(1, -1))[0], "rho": element_to_json(self.rho)}


def extension_element_from_json(obj: dict) -> ExtensionElement:
    missing = [key for key in ("w", "rho") if key not in obj]
    if missing:
        raise ConfigInvalid(f"extension element lacks {', '.join(missing)}")
    rho = element_from_json(obj["rho"])
    w = matrix_from_json([obj["w"]], rho.form.field)[0]
    if w.shape != (rho.form.n,):
        raise ConfigInvalid(f"w has {w.size} entries, expected n = {rho.form.n}")
    return ExtensionElement(w, rho)


def realize(e: ExtensionElement, cfg: ExtensionConfig) -> AffineSubspace:
    """The orbit subspace encoded by an element: the image of the carrier
    under the linear lift meets the transversal at 0, so placing it through
    w lands that intersection on w."""
    cols = e.rho.matrix[:, : cfg.form.p1] if cfg.carrier == 1 else e.rho.matrix[:, cfg.form.p1 :]
    return subspace(e.w, cols, cfg.tol)


def lift_from_infinity(z: np.ndarray, cfg: ExtensionConfig) -> SigmaElement:
    """The unique positive-definite isometry whose carrier image has the
    direction span of the frame ``z``.

    An orbit direction is the graph of a p1 x p2 contraction X: the span of
    [I; X*] for carrier 1 and of [X; I] for carrier 2.  With z = [F1; F2]
    split at p1, X* = F2 F1^-1 (carrier 1) or X = F1 F2^-1 (carrier 2).
    The lift is the boost (I + T)(I - T^2)^{-1/2} = exp(artanh T) with
    T = [[0, X], [X*, 0]], which maps W_1 onto span [I; X*] and W_2 onto
    span [X; I].  A singular block, or I - T^2 not positive definite
    (||X|| >= 1), means z is not in the orbit.
    """
    form = cfg.form
    if z.shape != (form.n, cfg.carrier_dim):
        raise DimensionMismatch(
            f"direction must be {cfg.carrier_dim}-dimensional in F^{form.n}"
        )
    zh = dag(z.astype(form.dtype))
    f1h, f2h = zh[:, : form.p1], zh[:, form.p1 :]  # F1*, F2*
    try:
        x = np.linalg.solve(f1h, f2h) if cfg.carrier == 1 else dag(np.linalg.solve(f2h, f1h))
    except np.linalg.LinAlgError as exc:
        raise NotInOrbit(f"direction is not a graph over the carrier: {exc}") from exc
    t = _off_diagonal_generator(form, x)
    eye = np.eye(form.n, dtype=form.dtype)
    try:
        scale = spectral_map(eye - t @ t, "inverse_sqrt", cfg.tol)
    except NotPositiveDefinite as exc:
        raise NotInOrbit(f"direction is not the graph of a contraction: {exc}") from exc
    return SigmaElement(symmetrize((eye + t) @ scale), form)


def _transversal_point(s: AffineSubspace, cfg: ExtensionConfig) -> np.ndarray:
    """Where an orbit subspace meets the transversal: one solve of [frame,
    -W~ frame] c = -base, nonsingular once extension_config has passed W~."""
    try:
        c = np.linalg.solve(np.hstack([s.frame, -cfg.wtilde.frame]), -s.base)
    except np.linalg.LinAlgError as exc:
        raise TransversalityViolated(f"subspace does not meet the transversal in one point: {exc}") from exc
    return s.base + s.frame @ c[: s.dim]


def omega(s: AffineSubspace, cfg: ExtensionConfig) -> ExtensionElement:
    """Coordinates of an orbit subspace: the transversal intersection point
    and the lift of the direction at infinity."""
    return ExtensionElement(_transversal_point(s, cfg), lift_from_infinity(at_infinity(s), cfg))


def ext_mul(e1: ExtensionElement, e2: ExtensionElement, cfg: ExtensionConfig) -> ExtensionElement:
    """Coordinate multiplication: left translation by the unique orbit map.

    The product is the coordinates of the image of the second element's
    subspace under x -> rho1 x + w1, the first element's left translation.
    Its direction part is the graph lift of the image direction, which
    agrees with the matrix-loop product of the direction lifts (the
    positive factor of rho1 rho2) without computing it."""
    return omega(apply(e1.rho.matrix, realize(e2, cfg), e1.w, cfg.tol), cfg)


def solve_translation(
    d1: AffineSubspace, d2: AffineSubspace, cfg: ExtensionConfig
) -> tuple[np.ndarray, SigmaElement]:
    """The unique (translation along the transversal, positive isometry)
    pair mapping the first orbit subspace onto the second.

    The isometry is the right division of the direction lifts (the unique
    positive element whose loop product with the first lift gives the
    second); the translation then matches the transversal intersection
    points."""
    rho1 = lift_from_infinity(at_infinity(d1), cfg)
    rho2 = lift_from_infinity(at_infinity(d2), cfg)
    loop = MatrixLoop(cfg.form, cfg.tol)
    rho = loop.right_divide(rho2, rho1)
    moved = apply(rho.matrix, d1, tol=cfg.tol)
    t = _transversal_point(d2, cfg) - _transversal_point(moved, cfg)
    return t, rho


def ext_loop_interface(cfg: ExtensionConfig, sample_radius: float = 0.75) -> Loop:
    """The loop interface on extension elements.

    Left division maps by the inverse of the divisor's left translation,
    x -> A^-1 (x - w) with A^-1 = J A J, and reads the coordinates of the
    image; right division is the sharp transitivity solver.  The sampler
    draws a uniform point of the transversal and a random positive isometry.
    """
    form = cfg.form

    def mul(a, b):
        return ext_mul(a, b, cfg)

    def left_divide(a, c):
        ainv = _inverse(a.rho)
        return omega(apply(ainv, realize(c, cfg), -(ainv @ a.w), cfg.tol), cfg)

    def right_divide(c, a):
        t, rho = solve_translation(realize(a, cfg), realize(c, cfg), cfg)
        return ExtensionElement(t, rho)

    def distance(a, b):
        return subspace_distance(realize(a, cfg), realize(b, cfg))

    def sample(stream: SampleStream):
        k = cfg.wtilde.dim
        if form.field == COMPLEX:
            vals, stream = stream.next_uniforms(2 * k, -_W_SCALE, _W_SCALE)
            coef = vals[0::2] + 1j * vals[1::2]
        else:
            vals, stream = stream.next_uniforms(k, -_W_SCALE, _W_SCALE)
            coef = vals
        w = cfg.wtilde.frame @ coef.astype(form.dtype)
        rho, stream = sample_sigma(form, stream, sample_radius, cfg.tol)
        return ExtensionElement(w, rho), stream

    return Loop(
        mul=mul,
        left_divide=left_divide,
        right_divide=right_divide,
        identity=cfg.identity_element(),
        distance=distance,
        sample=sample,
    )


@dataclass(frozen=True)
class WitnessReport:
    element: PhiElement
    displacement: float
    samples_used: int


def nonisomorphism_witness(
    cfg: ExtensionConfig,
    stream: SampleStream | None = None,
    budget: int = 100,
    threshold: float = 1e-3,
) -> WitnessReport:
    """Search for a block-diagonal unitary that moves the transversal.

    Such an element conjugates translations along the transversal to
    translations along a genuinely different subspace, so the left
    translation set is not normalized and the loop cannot be isomorphic to
    the one built on the coordinate transversal.  Requires the transversal
    to differ from the coordinate one; the coordinate subspaces are
    invariant under every block-diagonal unitary, so no witness exists
    there.
    """
    w_standard = coordinate_subspace(cfg.form, cfg.complement_index)
    if subspace_distance(cfg.wtilde, w_standard) <= threshold:
        raise ConfigInvalid(
            "transversal coincides with the coordinate subspace; every "
            "block-diagonal unitary stabilizes it"
        )
    if stream is None:
        stream = SampleStream(1)
    for used in range(1, budget + 1):
        g, stream = sample_phi(cfg.form, stream)
        moved = apply(g.matrix, cfg.wtilde, tol=cfg.tol)
        disp = subspace_distance(moved, cfg.wtilde)
        if disp > threshold:
            return WitnessReport(g, disp, used)
    raise WitnessNotFound(f"no displacement above {threshold:g} in {budget} samples")


# ---------------------------------------------------------------------------
# Dimension of the carrier manifold by numeric rank of the coordinate chart.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionReport:
    rank: int
    ranks: tuple
    gap_fraction: float
    points: int


def expected_dimension(cfg: ExtensionConfig) -> int:
    eps = 2 if cfg.form.field == COMPLEX else 1
    return eps * (cfg.transversal_dim + cfg.form.p1 * cfg.form.p2)


def _element_from_chart(cfg: ExtensionConfig, theta: np.ndarray) -> ExtensionElement:
    form = cfg.form
    k = cfg.wtilde.dim
    if form.field == COMPLEX:
        wc = theta[: 2 * k]
        coef = wc[0::2] + 1j * wc[1::2]
        xc = theta[2 * k :]
        x = (xc[0::2] + 1j * xc[1::2]).reshape(form.p1, form.p2)
    else:
        coef = theta[:k]
        x = theta[k:].reshape(form.p1, form.p2)
    w = cfg.wtilde.frame @ coef.astype(form.dtype)
    return ExtensionElement(w, sigma_from_block(form, x.astype(form.dtype), cfg.tol))


def _embed(cfg: ExtensionConfig, e: ExtensionElement) -> np.ndarray:
    s = realize(e, cfg)
    p = projector(s.frame, cfg.form.n)
    if cfg.form.field == COMPLEX:
        return np.concatenate(
            [p.real.ravel(), p.imag.ravel(), s.base.real, s.base.imag]
        )
    return np.concatenate([p.ravel(), s.base])


def dimension_rank_report(
    cfg: ExtensionConfig,
    points: int = 20,
    stream: SampleStream | None = None,
    gap: float = 1e-4,
) -> DimensionReport:
    """Estimate the manifold dimension of the carrier set.

    The chart (transversal coordinates) x (exponential block) is pushed
    through realization into the projector-plus-base embedding; the real
    rank of a central finite-difference Jacobian is estimated at sampled
    chart points.  A point's rank counts the singular values at or above
    ``gap`` relative to the largest; the point is trustworthy only when
    kept and discarded values are separated by at least ``gap``.  The modal
    rank is returned; if more than ``_AMBIGUITY_FRACTION`` of the points
    lack the gap the estimate is refused.
    """
    if stream is None:
        stream = SampleStream(1)
    d = expected_dimension(cfg)
    ranks = []
    ok = 0
    for _ in range(points):
        theta, stream = stream.next_uniforms(d, -0.4, 0.4)
        cols = []
        for idx in range(d):
            hi = theta.copy()
            hi[idx] += _STEP
            lo = theta.copy()
            lo[idx] -= _STEP
            cols.append(
                (_embed(cfg, _element_from_chart(cfg, hi)) - _embed(cfg, _element_from_chart(cfg, lo)))
                / (2 * _STEP)
            )
        jac = np.column_stack(cols)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0:
            ranks.append(0)
            continue
        sn = sv / sv[0]
        kept = sn[sn >= gap]
        dropped = sn[sn < gap]
        rank = int(kept.size)
        margin = float(kept[-1] - (dropped[0] if dropped.size else 0.0)) if kept.size else 0.0
        if margin >= gap:
            ok += 1
        ranks.append(rank)
    gap_fraction = ok / points if points else 0.0
    if gap_fraction < 1.0 - _AMBIGUITY_FRACTION:
        raise RankAmbiguous(
            f"singular-value gap present at only {gap_fraction:.0%} of {points} points"
        )
    modal = Counter(ranks).most_common(1)[0][0]
    return DimensionReport(modal, tuple(ranks), gap_fraction, points)
