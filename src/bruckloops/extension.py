"""The loop of affine subspaces carried by translations along a transversal.

The carrier set is the orbit of a coordinate subspace W_i (the span of the
first p1 or last p2 basis vectors) under compositions of positive-definite
isometries with translations along a fixed transversal subspace.  Every
orbit subspace is identified by the pair

    (intersection point with the transversal,  direction at infinity)

and the direction is in turn carried by a canonical positive-definite lift,
so an element is stored as ``(w, rho)``.  The loop operations run on these
coordinates: ``realize`` gives the point w and the carrier columns of rho,
and ``omega`` reads coordinates off any point and spanning frame.  Canonical
subspaces serve only where a minimum-norm base is read: the transversal,
``distance``, the dimension chart and the ``solve_translation`` property.

Elements take stacks: ``w`` of shape (..., n) with ``rho`` a plain array
(..., n, n) of the same batch shape is that many elements, and every loop
operation, ``distance`` and ``sample`` act on the whole stack, each step
one stacked ``solve``, p2 x p2 eigendecomposition or QR call; ``distance``
makes one QR call.  ``join`` concatenates stacks, broadcasting one element.
The loop holds the form; the JSON writer and reader take it as an argument.

Every orbit direction at infinity is the graph of a strict contraction
between the two coordinate blocks, which gives ``lift_from_infinity`` a
closed form (the boost of that contraction, as in the gyrogroup view of
the loop).  ``ExtensionConfig`` is the loop itself, the object the kernel
checkers call, and holds the matrix loop of its lifts, built once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NotInOrbit,
    NotPositiveDefinite,
    RankAmbiguous,
    TransversalityViolated,
    WitnessNotFound,
)
from .geometry import AffineSubspace, apply, projector, subspace, subspace_distance
from .groups import (
    SAMPLE_RADIUS,
    SampleStream,
    SignatureForm,
    blocks,
    draw_width,
    element_from_json,
    element_to_json,
    matrix_from_json,
    matrix_to_json,
    sample_phi,
    scale,
    sigma_from_block,
    sigma_from_spectrum,
    sigma_from_uniforms,
    sigma_width,
)
from .linalg import concat, dag, eig_hermitian, mv, spectral_map
from .matrixloop import MatrixLoop

_W_SCALE = 1.0  # sampled transversal points have frame coordinates in [-1, 1]
_STEP = 1e-5  # central-difference step of the dimension Jacobian
_AMBIGUITY_FRACTION = 0.10  # share of gapless points that refuses a rank estimate
WITNESS_THRESHOLD = 1e-3  # least displacement of the transversal that counts as a witness
DIMENSION_GAP = 1e-4  # relative singular-value cut and least gap of a rank estimate


def _block_columns(a: np.ndarray, form: SignatureForm, which: int) -> np.ndarray:
    """The columns of ``a``, or of each matrix of a stack, that span W_which
    in the basis of ``a``: the first p1 for W_1, the last p2 for W_2."""
    return a[..., : form.p1] if which == 1 else a[..., form.p1 :]


def coordinate_subspace(form: SignatureForm, which: int) -> AffineSubspace:
    """W_1 = span of the first p1 basis vectors, W_2 = span of the last p2,
    canonical as built: base 0 and a read-only view of the identity's columns."""
    return AffineSubspace(np.zeros(form.n, dtype=form.dtype), _block_columns(form.eye(), form, which))


def complement(form: SignatureForm, carrier: int) -> AffineSubspace:
    """W_j, the coordinate subspace complementary to the carrier W_i: the
    default transversal, whose dimension every transversal has."""
    return coordinate_subspace(form, 2 if carrier == 1 else 1)


@dataclass(frozen=True, eq=False)
class ExtensionConfig:
    """The extension loop: its validated form, carrier index i and
    transversal subspace, and the loop operations on ``(w, rho)``.

    Left division maps by the inverse of the divisor's left translation,
    x -> A^-1 (x - w) with A^-1 = J A J, and reads the coordinates of the
    image.  Right division c / a takes rho = c.rho / a.rho in the matrix loop
    and w = c.w minus the transversal point of a's subspace moved by rho.  The
    sampler draws a uniform transversal point and a random positive isometry.
    """

    form: SignatureForm
    carrier: int
    wtilde: AffineSubspace

    @property
    def carrier_dim(self) -> int:
        return self.form.p1 if self.carrier == 1 else self.form.p2

    @cached_property
    def mat(self) -> MatrixLoop:
        """The matrix loop of the directions' lifts."""
        return MatrixLoop(self.form)

    def carrier_subspace(self) -> AffineSubspace:
        return coordinate_subspace(self.form, self.carrier)

    @property
    def identity(self) -> "ExtensionElement":
        return ExtensionElement(np.zeros(self.form.n, dtype=self.form.dtype), self.mat.identity)

    def join(self, *parts):
        return ExtensionElement(concat(*(p.w for p in parts)), concat(*(p.rho for p in parts)))

    def mul(self, a, b):
        return ext_mul(a, b, self)

    def left_divide(self, a, c):
        ainv = self.mat.inverse(a.rho)
        return omega(apply(ainv, realize(c, self), -mv(ainv, a.w)), self)

    def right_divide(self, c, a):
        rho = self.mat.right_divide(c.rho, a.rho)
        return ExtensionElement(c.w - _transversal_point(apply(rho, realize(a, self)), self), rho)

    def distance(self, a, b):
        return subspace_distance(realize(a, self), realize(b, self))

    @property
    def point_width(self) -> int:
        """How many uniforms one transversal point draws: its frame coordinates."""
        return draw_width(self.form, (self.wtilde.dim, 1))

    def point_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The transversal point, or stack, that unit uniforms ``u`` of shape
        (..., point_width) draw: frame coordinates uniform in [-1, 1)."""
        (coef,) = blocks(self.form, scale(u, -_W_SCALE, _W_SCALE), (self.wtilde.dim, 1))
        return mv(self.wtilde.frame, coef[..., 0])

    def sample(self, stream: SampleStream, count: int, radius: float = SAMPLE_RADIUS):
        """Draw a stack of ``count`` elements, one ``next_rows`` call: per
        sample a transversal point, then a Sigma element of the given radius."""
        (uw, urho), stream = stream.next_rows(count, self.point_width, sigma_width(self.form))
        elems = ExtensionElement(self.point_from_uniforms(uw), sigma_from_uniforms(self.form, urho, radius))
        return elems, stream


def extension_config(
    form: SignatureForm,
    carrier: int = 1,
    wtilde: AffineSubspace | None = None,
) -> ExtensionConfig:
    """Build and validate a configuration.

    The transversal defaults to the complementary coordinate subspace.  Any
    other point and spanning frame is canonicalized here, the one place a
    transversal is: it must pass through 0 (it is stored with base exactly
    0), have independent columns and the right dimension, and meet every
    orbit direction, the graph of a strict contraction, in one point:
    exactly when the form is non-positive on it (carrier 1) or
    non-negative (carrier 2), the angular-operator theorem.
    One eigendecomposition of F* J F decides it, once, for the loop; the
    sampled ``geometry.transversality_check`` is the independent
    cross-check, one singular-value decomposition per sampled direction.
    Overflow is trapped where the command line calls this (``cli.resolve``).
    """
    if carrier not in (1, 2):
        raise ConfigInvalid(f"carrier index must be 1 or 2, got {carrier}")
    standard = complement(form, carrier)
    wtilde = standard if wtilde is None else subspace(wtilde.base, wtilde.frame)
    if wtilde.ambient != form.n or wtilde.dim != standard.dim:
        raise ConfigInvalid(
            f"transversal must be a {standard.dim}-dimensional subspace of F^{form.n}, "
            f"got dim {wtilde.dim} in F^{wtilde.ambient}"
        )
    if float(np.linalg.norm(wtilde.base)) > 10 * linalg.TAU_ABS:
        raise ConfigInvalid("transversal must pass through 0")
    sign, kind = (1.0, "non-positive") if carrier == 1 else (-1.0, "non-negative")
    gram = dag(wtilde.frame) @ (sign * form.j_matrix()) @ wtilde.frame
    wrong = float(eig_hermitian(gram).eigenvalues[-1])  # worst wrong-sign value on a unit vector
    if wrong > linalg.TAU_ABS:
        raise TransversalityViolated(f"the form must be {kind} on the transversal, not {sign * wrong:.3e}")
    return ExtensionConfig(form, carrier, AffineSubspace(np.zeros_like(wtilde.base), wtilde.frame))


@dataclass(frozen=True, eq=False)
class ExtensionElement:
    """Coordinates (w, rho): the transversal intersection point and the
    canonical positive-definite lift of the direction at infinity; for a
    stack, w is (..., n) and rho (..., n, n)."""

    w: np.ndarray
    rho: np.ndarray

    def __getitem__(self, index):
        """The element, or sub-stack, at ``index`` of the batch axes."""
        return ExtensionElement(self.w[index], self.rho[index])

    def __len__(self) -> int:
        """The length of a stack's first batch axis."""
        return len(self.w)

    def to_json(self, form: SignatureForm) -> dict:
        return {"w": matrix_to_json(self.w.reshape(1, -1))[0], "rho": element_to_json(self.rho, form)}


def extension_element_from_json(obj: dict, form: SignatureForm) -> ExtensionElement:
    """An extension element file; its rho's form must be ``form``."""
    missing = [key for key in ("w", "rho") if key not in obj]
    if missing:
        raise ConfigInvalid(f"extension element lacks {', '.join(missing)}")
    rho = element_from_json(obj["rho"], form)
    w = matrix_from_json([obj["w"]], form.field)[0]
    if w.shape != (form.n,):
        raise ConfigInvalid(f"w has {w.size} entries, expected n = {form.n}")
    return ExtensionElement(w, rho)


def realize(e: ExtensionElement, cfg: ExtensionConfig) -> AffineSubspace:
    """An element's orbit subspace as the point w and the carrier columns of
    rho: the carrier's image under the linear lift meets the transversal at
    0, so placing it through w lands that intersection on w."""
    return AffineSubspace(e.w, _block_columns(e.rho, cfg.form, cfg.carrier))


def lift_from_infinity(z: np.ndarray, cfg: ExtensionConfig) -> np.ndarray:
    """The unique positive-definite isometry whose carrier image has the
    direction span of the frame ``z``, or one per frame of a stack
    (..., n, k): one stacked ``solve`` and one stacked p2 x p2 ``spectral_map``.

    An orbit direction is the graph of a p1 x p2 contraction X: the span of
    [I; X*] for carrier 1 and of [X; I] for carrier 2.  With z = [F1; F2]
    split at p1, X* = F2 F1^-1 (carrier 1) or X = F1 F2^-1 (carrier 2).
    The lift is the boost (I + T)(I - T^2)^{-1/2} = exp(artanh T) with
    T = [[0, X], [X*, 0]], which maps W_1 onto span [I; X*] and W_2 onto
    span [X; I]: the block X with a = b = M^{-1/2}, M = I - X* X.  A singular
    block, or M not positive definite (||X|| >= 1), means z is not in the orbit.
    """
    form = cfg.form
    if z.shape[-2:] != (form.n, cfg.carrier_dim):
        raise DimensionMismatch(f"direction must be {cfg.carrier_dim}-dimensional in F^{form.n}")
    zh = dag(z.astype(form.dtype))
    f1h, f2h = zh[..., : form.p1], zh[..., form.p1 :]  # F1*, F2*
    try:
        x = np.linalg.solve(f1h, f2h) if cfg.carrier == 1 else dag(np.linalg.solve(f2h, f1h))
    except np.linalg.LinAlgError as exc:
        raise NotInOrbit(f"direction is not a graph over the carrier: {exc}") from exc
    try:
        dec, r = spectral_map(np.eye(form.p2, dtype=form.dtype) - dag(x) @ x, "inverse_sqrt")
    except NotPositiveDefinite as exc:
        raise NotInOrbit(f"direction is not the graph of a contraction: {exc}") from exc
    return sigma_from_spectrum(form, x, dec, r, r)


def _transversal_point(s: AffineSubspace, cfg: ExtensionConfig) -> np.ndarray:
    """Where an orbit subspace, or each of a stack, meets the transversal:
    one stacked solve of [frame, -W~ frame] c = -base, nonsingular once
    extension_config has passed W~."""
    other = np.broadcast_to(-cfg.wtilde.frame, s.frame.shape[:-1] + (cfg.wtilde.dim,))
    try:
        c = np.linalg.solve(np.concatenate([s.frame, other], axis=-1), -s.base[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise TransversalityViolated(f"subspace does not meet the transversal in one point: {exc}") from exc
    return s.base + mv(s.frame, c[..., : s.dim])


def omega(s: AffineSubspace, cfg: ExtensionConfig) -> ExtensionElement:
    """Coordinates of an orbit subspace, from any point and spanning frame
    of it: the transversal intersection point and the lift of its direction."""
    return ExtensionElement(_transversal_point(s, cfg), lift_from_infinity(s.frame, cfg))


def ext_mul(e1: ExtensionElement, e2: ExtensionElement, cfg: ExtensionConfig) -> ExtensionElement:
    """Coordinate multiplication: left translation by the unique orbit map.

    The product is the coordinates of the image of the second element's
    subspace under x -> rho1 x + w1, the first element's left translation.
    Its direction part is the graph lift of the image direction, which
    agrees with the matrix-loop product of the direction lifts (the
    positive factor of rho1 rho2) without computing it."""
    return omega(apply(e1.rho, realize(e2, cfg), e1.w), cfg)


def solve_translation(
    d1: AffineSubspace, d2: AffineSubspace, cfg: ExtensionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The unique (translation along the transversal, positive isometry)
    pair mapping d1 onto d2: the right division of their coordinates, both
    read by one ``omega`` call on the stacked pair.  A base and a frame of
    different batch shapes are first copied out to one."""
    d1, d2 = d1.broadcast(), d2.broadcast()
    pair = AffineSubspace(concat(d2.base[None], d1.base[None]), concat(d2.frame[None], d1.frame[None]))
    both = omega(pair, cfg)
    x = cfg.right_divide(both[0], both[1])
    return x.w, x.rho


@dataclass(frozen=True)
class WitnessReport:
    element: np.ndarray
    displacement: float
    samples_used: int


def nonisomorphism_witness(
    cfg: ExtensionConfig,
    stream: SampleStream | None = None,
    budget: int = 100,
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
    if subspace_distance(cfg.wtilde, complement(cfg.form, cfg.carrier)) <= WITNESS_THRESHOLD:
        raise ConfigInvalid(
            "transversal coincides with the coordinate subspace; every "
            "block-diagonal unitary stabilizes it"
        )
    if stream is None:
        stream = SampleStream(1)
    for used in range(1, budget + 1):
        g, stream = sample_phi(cfg.form, stream, 1)
        g = g[0]
        moved = apply(g, cfg.wtilde)
        disp = subspace_distance(moved, cfg.wtilde)
        if disp > WITNESS_THRESHOLD:
            return WitnessReport(g, disp, used)
    raise WitnessNotFound(f"no displacement above {WITNESS_THRESHOLD:g} in {budget} samples")


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
    """The real dimension of the chart: transversal coordinates and a p1 x p2 block."""
    return draw_width(cfg.form, (cfg.wtilde.dim, 1), (cfg.form.p1, cfg.form.p2))


def _chart_embeddings(cfg: ExtensionConfig, thetas: np.ndarray) -> np.ndarray:
    """Stack (m, d) of chart points -> stack (m, L) of carrier images in the
    projector-plus-base embedding, a complex entry as its (re, im) pair.

    A chart point is laid out as ``blocks`` reads it: the transversal
    coordinates, then the exponential block.  Its element is (w, exp of the
    block's generator) and its image the canonical form of its subspace
    (w, carrier columns), from one stacked ``orthonormalize`` call, which
    refuses a collapsed carrier column.
    """
    form = cfg.form
    coef, x = blocks(form, thetas, (cfg.wtilde.dim, 1), (form.p1, form.p2))
    cols = _block_columns(sigma_from_block(form, x), form, cfg.carrier)
    s = subspace(mv(cfg.wtilde.frame, coef[..., 0]), cols)
    p = projector(s.frame).reshape(len(thetas), form.n**2)
    return np.concatenate([p, s.base], axis=-1).view(np.float64)


def _chart_jacobians(cfg: ExtensionConfig, thetas: np.ndarray) -> np.ndarray:
    """Stack (points, d) of chart points -> stack (points, L, d) of central
    finite-difference Jacobians of the embedding, from one stacked pass
    over all 2 d points perturbed chart points."""
    points, d = thetas.shape
    steps = _STEP * np.eye(d)
    moved = np.stack([thetas[:, None, :] + steps, thetas[:, None, :] - steps], axis=1)
    emb = _chart_embeddings(cfg, moved.reshape(2 * d * points, d))
    emb = emb.reshape(points, 2, d, emb.shape[-1])
    return ((emb[:, 0] - emb[:, 1]) / (2 * _STEP)).swapaxes(-1, -2)


def dimension_rank_report(
    cfg: ExtensionConfig,
    points: int = 20,
    stream: SampleStream | None = None,
) -> DimensionReport:
    """Estimate the manifold dimension of the carrier set.

    The chart (transversal coordinates) x (exponential block) is pushed
    through realization into the projector-plus-base embedding; the real
    rank of a central finite-difference Jacobian is estimated at sampled
    chart points.  A point's rank counts the singular values at or above
    ``DIMENSION_GAP`` relative to the largest; the point is trustworthy only
    when kept and discarded values are separated by at least
    ``DIMENSION_GAP``.  The modal rank is returned; if more than
    ``_AMBIGUITY_FRACTION`` of the points lack the gap the estimate is
    refused.

    The Jacobians are computed as stacks: one draw of every chart point,
    one eigendecomposition call for the lifts of all 2 * d * points
    perturbed chart points, one QR call and one SVD call.  The spectral
    layer still checks each matrix, and each carrier frame is checked for
    collapse.
    """
    if stream is None:
        stream = SampleStream(1)
    d = expected_dimension(cfg)
    thetas, stream = stream.next_uniforms(points * d, -0.4, 0.4)
    svs = np.linalg.svd(_chart_jacobians(cfg, thetas.reshape(points, d)), compute_uv=False)
    ranks, gapped = _rank_fold(svs)
    gap_fraction = int(np.count_nonzero(gapped)) / points if points else 0.0
    if gap_fraction < 1.0 - _AMBIGUITY_FRACTION:
        raise RankAmbiguous(
            f"singular-value gap present at only {gap_fraction:.0%} of {points} points"
        )
    modal = Counter(ranks.tolist()).most_common(1)[0][0]
    return DimensionReport(modal, tuple(ranks.tolist()), gap_fraction, points)


def _rank_fold(svs: np.ndarray) -> tuple:
    """Per point of a stack (points, m) of descending singular values: its
    rank, the count of values at or above ``DIMENSION_GAP`` relative to the
    largest, and whether the smallest kept value lies ``DIMENSION_GAP`` above
    the largest dropped one (or 0).  A largest value of 0 gives rank 0."""
    top = svs[:, :1]
    sn = np.zeros((len(svs), svs.shape[1] + 1))  # the trailing 0 is read when nothing is dropped
    np.divide(svs, top, out=sn[:, :-1], where=top > 0)
    ranks, rows = np.count_nonzero(sn >= DIMENSION_GAP, axis=1), np.arange(len(sn))
    margin = sn[rows, ranks - 1] - sn[rows, ranks]
    return ranks, (ranks > 0) & (margin >= DIMENSION_GAP)
