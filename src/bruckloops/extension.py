"""The loop of affine subspaces carried by translations along a transversal.

The carrier set is the orbit of a coordinate subspace W_i (the span of the
first p1 or last p2 basis vectors) under compositions of positive-definite
isometries with translations along a fixed transversal subspace.  Every
orbit subspace is identified by the pair

    (intersection point with the transversal,  direction at infinity)

and the direction is in turn carried by a canonical positive-definite lift,
so an element is stored as ``(w, rho)``.  The loop operations run on these
coordinates: ``realize`` gives the point w and the carrier columns of rho,
and ``omega`` reads coordinates off any point and isometric frame
(F* J F = I on carrier 1, -I on carrier 2): a product or a left division
is the coordinates of a moved subspace, whose frame, the carrier columns
of a product of lifts, is isometric as it is, and ``coordinates`` those
of the subspaces it is given, whose frames it makes isometric first, so
``ExtensionConfig.run`` reads those of several calls with one ``omega``
call, which the kernel's driver shares among them; so too one QR call
serves the readings ``distance``, of element pairs, and
``subspace_distance``, of subspace pairs.  ``solve_translation``, the
library function and the suite's row, reads its subspaces' coordinates
through ``coordinates``.  Canonical subspaces serve only where a
minimum-norm base is read: the transversal, the distances and the
``solve_translation`` property.

Elements take stacks: ``w`` of shape (..., n) with ``rho`` a plain array
(..., n, n) of the same batch shape is that many elements, and every loop
operation and ``distance`` act on the whole stack, each step one stacked
``solve``, p2 x p2 eigendecomposition or QR call; ``distance`` makes one QR
call.  ``join`` concatenates element stacks, broadcasting one element, or
subspace stacks.
The loop holds the form; the JSON writer and reader take it as an argument.

Every orbit direction at infinity is the graph of a strict contraction
between the two coordinate blocks, which gives ``lift_from_infinity`` a
closed form (the boost of that contraction, as in the gyrogroup view of
the loop), read off an isometric frame by the matrix loop's own lift,
``groups.positive_factor``, and the dimension check its chart: the ball
of graph blocks, whose projectors and their tangents are closed forms in
one small solve, with no QR, no eigendecomposition and no step size.  The
dimension check holds one pass of points at a time: ``passes``, the one
cut of the suite's memory rule ``PASS_BYTES``, cuts its points as it cuts
the suite's rows, and each pass's Gram matrices go to one ``eigvalsh``
call.
``ExtensionConfig`` is the loop itself, the object the kernel checkers
call, and holds the matrix loop of its lifts, built once.

A transversal is likewise the graph of a block over the coordinate
subspace it complements, which gives ``nonisomorphism_witness`` its
element in closed form, one SVD of that block, with no sampling, and its
distances read off canonical forms with no QR.
"""

from __future__ import annotations

from collections import Counter, namedtuple

import numpy as np

from . import linalg
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NoConvergence,
    NotInOrbit,
    NotPositiveDefinite,
    RankAmbiguous,
    TransversalityViolated,
)
from .geometry import AffineSubspace, apply, canonical_distance, subspace, subspace_distance
from .groups import (
    SampleStream,
    SignatureForm,
    blocks,
    draw_width,
    element_from_json,
    element_to_json,
    graph_block,
    positive_factor,
    scale,
    unit_uniforms,
)
from .linalg import concat, dag, eig_hermitian, matrix_from_json, matrix_to_json, mv, pieces
from .matrixloop import MatrixLoop

_W_SCALE = 1.0  # sampled transversal points have frame coordinates in [-1, 1]
_AMBIGUITY_FRACTION = 0.10  # share of gapless points that refuses a rank estimate
WITNESS_THRESHOLD = 1e-3  # least displacement of the transversal that counts as a witness
DIMENSION_GAP = 1e-4  # relative singular-value cut and least gap of a rank estimate
# The suite's one memory rule: the most bytes of values, counted as n x n
# matrices (``SignatureForm.matrix_bytes``), that one pass holds; ``passes``
# cuts by it.  A suite row whose draw is larger runs in slices of its
# samples, and the dimension check takes its points' tangents and spectra
# in passes of this size (``_point_bytes`` a point).  8 MiB slices no row
# at 8 samples a row up to n = 104 complex, nor at the default counts up
# to n = 13 complex and n = 18 real, and takes every point of a default
# dimension check in one pass up to n = 16 real and n = 11 complex
# (p1 - p2 <= 1).
PASS_BYTES = 1 << 23


def passes(count: int, item_bytes: int) -> list:
    """The one memory rule's cut: ``count`` items of ``item_bytes`` each as
    slices of consecutive items holding at most ``PASS_BYTES`` (an item
    larger than that is a pass alone); no items are one empty pass."""
    per = max(1, PASS_BYTES // item_bytes)
    return [slice(start, min(start + per, count)) for start in range(0, max(count, 1), per)]


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


class ExtensionConfig:
    """The extension loop: its validated form, carrier index i and
    transversal subspace, the matrix loop ``mat`` of the directions' lifts,
    and the loop operations on ``(w, rho)``.  Configs compare by identity.

    Left division maps by the inverse of the divisor's left translation,
    x -> A^-1 (x - w) with A^-1 = J A J, and reads the coordinates of the
    image.  Right division c / a takes rho = c.rho / a.rho in the matrix loop
    and w = c.w minus the transversal point of a's subspace moved by rho.
    ``point_from_uniforms`` is the chart of a uniform transversal point.
    """

    __slots__ = ("form", "carrier", "wtilde", "mat")
    __setattr__ = __delattr__ = linalg.refuse_assignment

    def __init__(self, form: SignatureForm, carrier: int, wtilde: AffineSubspace):
        for name, value in zip(self.__slots__, (form, carrier, wtilde, MatrixLoop(form))):
            object.__setattr__(self, name, value)

    # The operations that share a call: products, left divisions and
    # coordinates read subspaces' coordinates with one ``omega`` call, and
    # the distances of element pairs and of subspace pairs one
    # ``geometry.subspace_distance`` call
    primitive = {"mul": "omega", "left_divide": "omega", "coordinates": "omega",
                 "distance": "distance", "subspace_distance": "distance"}

    @property
    def carrier_dim(self) -> int:
        return self.form.p1 if self.carrier == 1 else self.form.p2

    def carrier_subspace(self) -> AffineSubspace:
        return coordinate_subspace(self.form, self.carrier)

    @property
    def identity(self) -> "ExtensionElement":
        return ExtensionElement(np.zeros(self.form.n, dtype=self.form.dtype), self.mat.identity)

    def identity_like(self, a: "ExtensionElement") -> "ExtensionElement":
        """The identity filling the batch shape of ``a``: read-only views."""
        return ExtensionElement(np.broadcast_to(self.identity.w, a.w.shape), self.mat.identity_like(a.rho))

    def join(self, *parts):
        """The element stacks, or subspace stacks, of ``parts`` concatenated."""
        if isinstance(parts[0], AffineSubspace):
            return AffineSubspace(concat(*(p.base for p in parts)), concat(*(p.frame for p in parts)))
        return ExtensionElement(concat(*(p.w for p in parts)), concat(*(p.rho for p in parts)))

    def run(self, calls: list) -> list:
        """The result of each of ``calls``, ``(operation, operands)`` pairs
        of operations in ``primitive`` that rest on one primitive, from the
        subspaces each reads (``_read``), their batch axes read as one: the
        coordinates through one ``omega`` call, the distances through one
        ``subspace_distance`` call."""
        read = (lambda s: omega(s, self)) if self.primitive[calls[0][0]] == "omega" else subspace_distance
        subspaces = [self._read(operation, *operands) for operation, operands in calls]
        if len(subspaces) == 1:
            # read as they are: omega took about 10 us more on a stack of one
            # than on a lone (4,3,1) real subspace, a quarter of its time
            return [read(*subspaces[0])]
        flat = [[s.reshape((-1,)) for s in read_by] for read_by in subspaces]
        results = pieces(read(*(self.join(*same) for same in zip(*flat))), [len(f[0]) for f in flat])
        return [x.reshape(s[0].base.shape[:-1]) for s, x in zip(subspaces, results)]

    def _read(self, operation: str, *operands) -> tuple:
        """The subspaces ``operation`` reads: c's under a's left translation
        x -> rho x + w for mul(a, c), under its inverse for
        left_divide(a, c); the realized elements for distance; the operands
        themselves for ``subspace_distance``, and for ``coordinates`` its
        subspace with its frame made isometric."""
        if operation == "distance":
            return tuple(realize(e, self) for e in operands)
        if operation not in ("mul", "left_divide"):
            return (_isometric(*operands, self),) if operation == "coordinates" else operands
        a, c = operands
        if operation == "mul":
            return (apply(a.rho, realize(c, self), a.w),)
        ainv = self.mat.inverse(a.rho)
        return (apply(ainv, realize(c, self), -mv(ainv, a.w)),)

    def mul(self, a, b):
        """Coordinate multiplication: left translation by the unique orbit map.

        The product is the coordinates of the image of b's subspace under
        x -> rho_a x + w_a, a's left translation.  Its direction part is the
        lift of the image's frame, the carrier columns of rho_a rho_b: the
        matrix-loop product of the direction lifts, the positive factor of
        rho_a rho_b, read off the carrier's columns rather than the last
        p2."""
        return self.run([("mul", (a, b))])[0]

    def left_divide(self, a, c):
        return self.run([("left_divide", (a, c))])[0]

    def right_divide(self, c, a):
        rho = self.mat.right_divide(c.rho, a.rho)
        return ExtensionElement(c.w - _transversal_point(apply(rho, realize(a, self)), self), rho)

    def coordinates(self, s: AffineSubspace) -> "ExtensionElement":
        """The coordinates of an orbit subspace, or of each of a stack,
        from any point and spanning frame of it: ``omega`` of the subspace
        with its frame made isometric (``_isometric``)."""
        return self.run([("coordinates", (s,))])[0]

    def distance(self, a, b):
        return self.run([("distance", (a, b))])[0]

    def subspace_distance(self, s1: AffineSubspace, s2: AffineSubspace):
        """``geometry.subspace_distance``, a reading that shares its QR call
        with the loop's ``distance``."""
        return self.run([("subspace_distance", (s1, s2))])[0]

    @property
    def point_width(self) -> int:
        """How many uniforms one transversal point draws: its frame coordinates."""
        return draw_width(self.form, (self.wtilde.dim, 1))

    def point_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The transversal point, or stack, that unit uniforms ``u`` of shape
        (..., point_width) draw: frame coordinates uniform in [-1, 1)."""
        (coef,) = blocks(self.form, scale(u, -_W_SCALE, _W_SCALE), (self.wtilde.dim, 1))
        return mv(self.wtilde.frame, coef[..., 0])


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


class ExtensionElement:
    """Coordinates (w, rho): the transversal intersection point and the
    canonical positive-definite lift of the direction at infinity; for a
    stack, w is (..., n) and rho (..., n, n)."""

    __slots__ = ("w", "rho")
    __setattr__ = __delattr__ = linalg.refuse_assignment

    def __init__(self, w: np.ndarray, rho: np.ndarray):
        _set_w(self, w)
        _set_rho(self, rho)

    def __getitem__(self, index):
        """The element, or sub-stack, at ``index`` of the batch axes."""
        return ExtensionElement(self.w[index], self.rho[index])

    def __len__(self) -> int:
        """The length of a stack's first batch axis."""
        return len(self.w)

    def reshape(self, batch: tuple) -> "ExtensionElement":
        """The stack with its batch axes read as the shape ``batch``."""
        n = self.w.shape[-1]
        return ExtensionElement(self.w.reshape(batch + (n,)), self.rho.reshape(batch + (n, n)))

    def to_json(self, form: SignatureForm) -> dict:
        return {"w": matrix_to_json(self.w.reshape(1, -1))[0], "rho": element_to_json(self.rho, form)}


_set_w, _set_rho = ExtensionElement.w.__set__, ExtensionElement.rho.__set__


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
    direction span of the isometric frame ``z`` (z* J z = I on carrier 1,
    -I on carrier 2), or one per frame of a stack (..., n, k): the lift of
    ``z`` as the carrier columns of an isometry, ``groups.positive_factor``,
    one stacked ``solve`` and one stacked p2 x p2 ``spectral_map``.

    An orbit direction is the graph of a p1 x p2 contraction X over the
    carrier (``groups.graph_block``), and the lift is its boost
    (I + T)(I - T^2)^{-1/2} = exp(artanh T) with T = [[0, X], [X*, 0]],
    which maps W_1 onto span [I; X*] and W_2 onto span [X; I].  A singular
    block means z is not in the orbit.  The carrier columns of a product
    of lifts are isometric as they are; ``ExtensionConfig.coordinates``
    makes any other frame isometric first (``_isometric``).
    """
    if z.shape[-2:] != (cfg.form.n, cfg.carrier_dim):
        raise DimensionMismatch(f"direction must be {cfg.carrier_dim}-dimensional in F^{cfg.form.n}")
    try:
        return positive_factor(cfg.form, [(z, cfg.carrier)])[0]
    except NotPositiveDefinite as exc:
        raise NotInOrbit(f"direction is not in the orbit: {exc}") from exc


def _isometric(s: AffineSubspace, cfg: ExtensionConfig) -> AffineSubspace:
    """The subspace, or each of a stack, with its frame F made isometric:
    F L^-*, L the Cholesky factor of F* J F on carrier 1 and of -F* J F on
    carrier 2, so one Cholesky and one stacked ``solve``.  NotInOrbit
    unless that Gram matrix is positive definite, as on every orbit
    direction, the graph of a strict contraction."""
    sign = 1.0 if cfg.carrier == 1 else -1.0
    try:
        low = np.linalg.cholesky(dag(s.frame) @ ((sign * cfg.form.j_matrix()) @ s.frame))
    except np.linalg.LinAlgError as exc:
        raise NotInOrbit(f"the form is not definite on the direction: {exc}") from exc
    return AffineSubspace(s.base, np.ascontiguousarray(dag(np.linalg.solve(low, dag(s.frame)))))


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
    """Coordinates of an orbit subspace, or of each of a stack, from any
    point of it and an isometric frame (``lift_from_infinity``): the
    transversal intersection point and the lift of its direction.  Products
    and left divisions hand it the carrier columns of a product of lifts,
    isometric as they are; ``coordinates`` makes any other frame isometric
    first, so one ``omega`` call serves all three."""
    return ExtensionElement(_transversal_point(s, cfg), lift_from_infinity(s.frame, cfg))


def solve_translation(
    d1: AffineSubspace, d2: AffineSubspace, cfg: ExtensionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The unique (translation along the transversal, positive isometry)
    pair mapping d1 onto d2: the right division of their coordinates, read
    by one ``coordinates`` call on d2 and d1 stacked on a new first axis.
    A base and a frame of different batch shapes are first copied out to
    one."""
    both = cfg.coordinates(cfg.join(d2.broadcast()[None], d1.broadcast()[None]))
    x = cfg.right_divide(both[0], both[1])
    return x.w, x.rho


# The witness and how far it moves the transversal.
WitnessReport = namedtuple("WitnessReport", "element displacement")


def nonisomorphism_witness(cfg: ExtensionConfig) -> WitnessReport:
    """A block-diagonal unitary of determinant 1 that moves the transversal.

    Such an element conjugates translations along the transversal to
    translations along a genuinely different subspace, so the left
    translation set is not normalized and the loop cannot be isomorphic to
    the one built on the coordinate transversal.  Requires the transversal
    to differ from the coordinate one; the coordinate subspaces are
    invariant under every block-diagonal unitary, so no witness exists
    there.

    The element is constructed, with no draw.  The transversal is the graph
    of a p1 x p2 block L over the coordinate subspace it complements
    (``groups.graph_block``): L = F1 F2^-1 for carrier 1, L = (F2 F1^-1)* for
    carrier 2.  With Q the first two columns of L's full left singular
    basis (p1 >= 2 always), g = diag(I - 2 Q Q*, I) turns the plane of Q by
    pi, so its determinant is 1 on both fields, and negates L along its top
    two left singular directions: the graph of L goes to the graph of
    (I - 2 Q Q*) L.  Near the coordinate transversal the displacement is at
    least 2 sqrt(2 / max(m, 2)) times the distance from it, m <= p2 the
    count of L's nonzero singular values.

    Both distances read canonical forms as given, with no QR: the stored
    transversal (base exactly 0, a QR frame), the coordinate subspace, and
    the transversal's image under the unitary g, canonical to rounding.
    """
    form = cfg.form
    if canonical_distance(cfg.wtilde, complement(form, cfg.carrier)) <= WITNESS_THRESHOLD:
        raise ConfigInvalid(
            "transversal coincides with the coordinate subspace; every "
            "block-diagonal unitary stabilizes it"
        )
    q = np.linalg.svd(graph_block(cfg.wtilde.frame, form, 3 - cfg.carrier))[0][:, :2]
    g = form.eye().copy()
    g[: form.p1, : form.p1] -= 2.0 * q @ dag(q)
    return WitnessReport(g, float(canonical_distance(apply(g, cfg.wtilde), cfg.wtilde)))


# ---------------------------------------------------------------------------
# Dimension of the carrier manifold by numeric rank of the coordinate chart.
# ---------------------------------------------------------------------------


# The modal rank, each point's rank, the share of points with a clear
# singular-value gap, and the point count.
DimensionReport = namedtuple("DimensionReport", "rank ranks gap_fraction points")


def expected_dimension(cfg: ExtensionConfig) -> int:
    """The real dimension of the chart: transversal coordinates and a p1 x p2 block."""
    return draw_width(cfg.form, (cfg.wtilde.dim, 1), (cfg.form.p1, cfg.form.p2))


def _chart_jacobians(cfg: ExtensionConfig, thetas: np.ndarray) -> np.ndarray:
    """Stack (points, d) of chart points -> stack (points, L, d) of the exact
    Jacobians of the ball chart's embedding: the n x (n + 1) matrix [P, Q w]
    of the carrier image's projector P and base Q w, Q = I - P, read row by
    row, a complex entry as its (re, im) pair.

    A chart point is laid out as ``blocks`` reads it: the transversal
    coordinates c, with w = W~ c, then the block X, read as the graph block
    Z = X / sqrt(p1 p2), so that ||Z|| < 1.  The carrier image is the span of
    G = [Z; I] (carrier 2), or the orthogonal complement of the span of
    G = [-Z; I] (carrier 1).  With G+ = (G* G)^-1 G* from one stacked
    ``solve`` and R = I - G G+, the embedding is [I - R, R w] (carrier 2) or
    [R, w - R w] (carrier 1), and on both carriers moving Z's entry (i, j)
    by a unit u moves it by (T + T*) [I, -w], T = u R e_i e_j* G+: by
    u A + conj(u) B, two outer products A = (R e_i)(e_j* G+ [I, -w]) and
    B = (G+* e_j)(e_i* R* [I, -w]).  So the real part of the entry moves it
    by A + B and the imaginary part by i (A - B), each with the chart's
    factor 1 / sqrt(p1 p2).  Moving c_k moves only the base, by R f_k
    (carrier 2) or f_k - R f_k (carrier 1).
    """
    form, m, kw, f = cfg.form, len(thetas), cfg.wtilde.dim, draw_width(cfg.form, (1, 1))
    n, d, s = form.n, thetas.shape[-1], 1.0 / np.sqrt(form.p1 * form.p2)
    u = np.array([1, 1j][:f], form.dtype)[:, None, None]  # the units an entry moves by: 1, and i if complex
    coef, x = blocks(form, thetas, (kw, 1), (form.p1, form.p2))
    eye = np.broadcast_to(np.eye(form.p2, dtype=form.dtype), (m, form.p2, form.p2))
    g = np.concatenate([x * (s if cfg.carrier == 2 else -s), eye], axis=-2)
    gplus = np.linalg.solve(dag(g) @ g, dag(g))
    r = form.eye() - g @ gplus
    ri = s * r[..., : form.p1]  # the columns R e_i, with the chart's factor
    e = np.concatenate([np.broadcast_to(form.eye(), (m, n, n)), -mv(cfg.wtilde.frame, coef[..., 0])[..., None]], -1)
    a = ri.swapaxes(-1, -2)[:, :, None, None, :, None] * ((gplus @ e)[:, None, :, None, None, :] * u)
    b = (gplus.conj()[:, None, :, None, :, None] * u.conj()) * (dag(ri) @ e)[:, :, None, None, None, :]
    jac = np.zeros((m, d, n, n + 1), dtype=form.dtype)
    np.add(a, b, out=jac[:, kw * f :].reshape(m, form.p1, form.p2, f, n, n + 1))
    rf = r @ cfg.wtilde.frame if cfg.carrier == 2 else g @ (gplus @ cfg.wtilde.frame)  # R f_k, or f_k - R f_k
    jac[:, : kw * f, :, n] = (rf.swapaxes(-1, -2)[:, :, None] * u[:, 0]).reshape(m, kw * f, n)
    return jac.view(np.float64).reshape(m, d, n * (n + 1) * f).swapaxes(-1, -2)


def _point_bytes(cfg: ExtensionConfig) -> int:
    """What one chart point holds in a pass of the dimension check, counted
    as n x n matrices: its d tangents and the outer-product stacks A and B
    of ``_chart_jacobians``, one tangent for each real coordinate of X in
    each.  A pass of (20,10,10) points, real or complex, peaks within about
    10% of it under tracemalloc."""
    return (expected_dimension(cfg) + 2 * draw_width(cfg.form, (cfg.form.p1, cfg.form.p2))) * cfg.form.matrix_bytes


def dimension_rank_report(cfg: ExtensionConfig, points: int, stream: SampleStream) -> DimensionReport:
    """Estimate the manifold dimension of the carrier set.

    The ball chart (transversal coordinates) x (graph block) is pushed
    into the projector-plus-base embedding; the real rank of its exact
    Jacobian (``_chart_jacobians``) is estimated at sampled chart points,
    the block entries uniform in [-0.4, 0.4) before the chart's factor
    1 / sqrt(p1 p2).  A point's rank counts the singular values at or above
    ``DIMENSION_GAP`` relative to the largest; the point is trustworthy only
    when kept and discarded values are separated by at least
    ``DIMENSION_GAP``.  The modal rank is returned; if more than
    ``_AMBIGUITY_FRACTION`` of the points lack the gap the estimate is
    refused.

    The check holds one pass at a time: one draw of every chart point,
    then, for each pass of points whose working sets (``_point_bytes``)
    fit ``PASS_BYTES`` (``passes``; one pass unless they outgrow it), one
    stacked ``solve`` for the exact tangents and one ``eigvalsh`` call on
    the pass's Gram matrices J^T J, whose eigenvalues are the squared
    singular values; of them it keeps only each point's rank and gap, with
    no QR and no eigenvectors.  A non-finite Jacobian raises
    ``NoConvergence`` before the spectral call.
    """
    d = expected_dimension(cfg)
    thetas = scale(unit_uniforms(stream.seed, stream.counters(points * d)), -0.4, 0.4).reshape(points, d)
    folds = [_rank_fold(_singular_values(_chart_jacobians(cfg, thetas[cut])))
             for cut in passes(points, _point_bytes(cfg))]
    ranks, gapped = (np.concatenate(parts) for parts in zip(*folds))
    gap_fraction = int(np.count_nonzero(gapped)) / points if points else 0.0
    if gap_fraction < 1.0 - _AMBIGUITY_FRACTION:
        raise RankAmbiguous(f"singular-value gap present at only {gap_fraction:.0%} of {points} points")
    modal = Counter(ranks.tolist()).most_common(1)[0][0]
    return DimensionReport(modal, tuple(ranks.tolist()), gap_fraction, points)


def _singular_values(jac: np.ndarray) -> np.ndarray:
    """The descending singular values of each Jacobian of a stack, from one
    ``eigvalsh`` call on the Gram matrices: sqrt(max(lambda, 0)).  They are
    resolved to about sqrt(eps) of the largest, far below ``DIMENSION_GAP``."""
    if not np.isfinite(jac).all():
        raise NoConvergence("the dimension chart's Jacobian has non-finite entries")
    return np.sqrt(np.maximum(np.linalg.eigvalsh(jac.swapaxes(-1, -2) @ jac), 0.0))[..., ::-1]


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
