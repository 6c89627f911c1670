"""The indefinite form, its isometry groups, and the sharply transitive set.

The diagonal form J has p1 entries +1 followed by p2 entries -1.  Three
groups appear:

* ``U_p2``   -- A* J A = J (the isometry group of the form), which
  ``polar_factorize`` splits,
* ``Sigma``  -- positive-definite hermitian isometries of determinant 1,
  the one target of ``membership_residual``,
* ``Phi``    -- block-diagonal unitary stabilizer elements of determinant 1.

A Sigma element is fixed by its p1 x p2 block and built from one p2 x p2
spectral call (``sigma_from_spectrum``).  Sampling uses the exponential
chart exp([[0, X], [X*, 0]]), whose generators are the hermitian H with
H J + J H = 0; the entries of X are drawn uniformly from a radius box.
A draw is cut into per-sample parts and blocks by slicing, so a block
already in the field's dtype is a view of the draw.  ``SignatureForm``
builds J, its sign pattern (``x * signs()`` is J X J) and the identity
once per form, read-only.

An element of Sigma or Phi, or a stack of them, is a plain array
(..., n, n).  Its form is held by whoever holds the element (the loop or
the config) and is passed to the functions that need it, the JSON writer
and reader included; the reader refuses a file of another form.  The
matrix inside an element file is read and written by ``linalg``'s codec.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from itertools import accumulate

import numpy as np

from . import linalg
from .errors import ConfigInvalid, DimensionMismatch, NoConvergence, NotInGroup
from .linalg import (
    COMPLEX,
    REAL,
    convert,
    dag,
    fro,
    matrix_from_json,
    matrix_to_json,
    spectral_map,
    symmetrize,
    worst,
)

_MODULUS = 1 << 64
# splitmix64's golden gamma, multipliers and shifts as uint64 scalars, built once
_GAMMA, _M1, _M2, _S11, _S27, _S30, _S31 = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31], dtype=np.uint64)
# The membership bound: the largest residual a matrix may show and still
# count as a group element, for factor's input, mul's operands and the suite.
MEMBERSHIP_TOLERANCE = 1e-9
SAMPLE_RADIUS = 0.75  # half-width of the sampled Sigma block entries, every sampler's default
_PHI_RADIUS = 1.0  # half-width of the sampled Phi generator entries


class SignatureForm(namedtuple("SignatureForm", "n p1 p2 field")):
    """Signature (p1, p2) of the diagonal +-1 form on F^n.  Equal forms are
    equal and hash alike, so they share the cached J, signs and identity."""

    __slots__ = ()

    def __new__(cls, n: int, p1: int, p2: int, field: str = REAL):
        if field not in (REAL, COMPLEX):
            raise ConfigInvalid(f"unknown field {field!r}")
        if p1 + p2 != n:
            raise ConfigInvalid(f"p1 + p2 = {p1 + p2} != n = {n}")
        if not (p1 >= p2 >= 1):
            raise ConfigInvalid(f"need p1 >= p2 >= 1, got ({p1}, {p2})")
        if n < 3:
            raise ConfigInvalid(f"need n >= 3, got {n}")
        return super().__new__(cls, n, p1, p2, field)

    @property
    def dtype(self):
        return linalg.dtype_of(self.field)

    @property
    def matrix_bytes(self) -> int:
        """The bytes of one n x n matrix of the form, the unit in which the
        suite's memory rule and the kernel's sharing bound count."""
        return self.n**2 * np.dtype(self.dtype).itemsize

    @cache
    def j_matrix(self) -> np.ndarray:
        """J, built once per form and read-only."""
        return _read_only(np.diag(np.where(np.arange(self.n) < self.p1, 1.0, -1.0)).astype(self.dtype))

    @cache
    def signs(self) -> np.ndarray:
        """The signs J_ii J_jj, +1 on the diagonal blocks and -1 off them, so
        that ``x * signs()`` is J X J with no matrix product; built once per
        form and read-only."""
        d = np.diagonal(self.j_matrix()).real
        return _read_only(np.multiply.outer(d, d))

    @cache
    def eye(self) -> np.ndarray:
        """The identity in the form's field, built once and read-only."""
        return _read_only(np.eye(self.n, dtype=self.dtype))

    def to_json(self) -> dict:
        return {"n": self.n, "p1": self.p1, "p2": self.p2, "field": self.field}

    @staticmethod
    def from_json(obj: dict) -> "SignatureForm":
        try:
            n, p1, p2 = (convert(int, obj[key], f"form.{key}") for key in ("n", "p1", "p2"))
            return SignatureForm(n, p1, p2, obj.get("field", REAL))
        except (KeyError, TypeError) as exc:
            raise ConfigInvalid(f"bad form object {obj!r}") from exc


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SampleStream(namedtuple("SampleStream", "seed counter", defaults=(0,))):
    """A position on a counter-based splitmix64 stream: draw k of the seed
    is a pure function of (seed, k), so one position replays identical
    values on any platform, and one draw of many values gives the same bits
    as many draws of few.  A stream draws nothing itself: ``counters``
    names the next draws, ``unit_uniforms`` computes them, and ``split``
    moves the position, which is how the suite gives each row its slot.
    """

    __slots__ = ()

    def counters(self, count: int) -> np.ndarray:
        """The ``uint64`` counters k + 1 of the next ``count`` draws k."""
        return np.arange(count, dtype=np.uint64) + np.uint64((self.counter + 1) % _MODULUS)

    def split(self, offset: int) -> "SampleStream":
        return SampleStream(self.seed, self.counter + offset)


def unit_uniforms(seed: int, k: np.ndarray) -> np.ndarray:
    """splitmix64 of seed + k * golden gamma modulo 2^64 for each ``uint64``
    counter of ``k``, its top 53 bits read as a fraction in [0, 1): one
    pass over the whole array, updated in place."""
    z = k * _GAMMA
    z += np.uint64(seed % _MODULUS)
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    z >>= _S11
    u = z.astype(np.float64)
    u *= 1.0 / (1 << 53)
    return u


def sample_parts(vals: np.ndarray, count: int, widths) -> list:
    """``count`` samples' unit uniforms, split per sample into consecutive
    parts of the given widths: one array (count, width) per part, in the
    order the parts would be drawn sample by sample.  The parts are column
    slices of ``vals`` read as (count, sum of widths)."""
    return _slices(vals.reshape(count, sum(widths)), widths)


def scale(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Unit uniforms mapped onto [lo, hi); onto [0, 1) it is exact."""
    return lo + (hi - lo) * u


class MembershipReport(namedtuple("MembershipReport", "residuals max_residual")):
    """Per-condition residuals, each a float or, for a stack, one per matrix,
    and ``max_residual``, the worst over every condition and every matrix,
    folded once when the report is built."""

    __slots__ = ()

    def __new__(cls, residuals: dict):
        return super().__new__(cls, residuals, worst(*residuals.values()))

    @property
    def passed(self) -> bool:
        return self.max_residual <= MEMBERSHIP_TOLERANCE


def membership_residual(a: np.ndarray, form: SignatureForm) -> MembershipReport:
    """Per-condition residuals for membership in Sigma, of a matrix or of
    each matrix of a stack (..., n, n).

    Positivity is read off the lowest eigenvalue of the hermitian part alone,
    one LAPACK ``eigvalsh`` call with no eigenvectors: ``symmetrize`` is
    exactly hermitian, so there is nothing to check first.  A non-finite
    hermitian part, or LAPACK not converging, raises NoConvergence."""
    if a.shape[-2:] != (form.n, form.n):
        raise DimensionMismatch(f"expected {form.n}x{form.n}, got {a.shape}")
    j, h = form.j_matrix(), symmetrize(a)
    if not np.isfinite(h).all():
        raise NoConvergence("matrix has non-finite entries")
    try:
        lowest = np.linalg.eigvalsh(h)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh failed: {exc}") from exc
    res = {"hermitian": fro(a - dag(a)), "positive_definite": np.maximum(0.0, -lowest)}
    res["isometry"] = fro(dag(a) @ j @ a - j)
    res["determinant"] = np.abs(np.linalg.det(a) - 1.0)
    # a single matrix's residuals are plain floats, ready for JSON
    return MembershipReport({name: r if np.ndim(r) else float(r) for name, r in res.items()})


def sigma_from_spectrum(form: SignatureForm, y: np.ndarray, dec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Sigma element [[I + Y c Y*, Y a], [a Y*, b]], or stack, of the
    p1 x p2 block Y, with a, b and c = a^2 / (1 + b), the isometry condition,
    functions on the spectrum of the p2 x p2 matrix ``dec`` decomposes:
    J + 2 U U* with U = ``graph_frame(Y, Q, a / (2 bottom), bottom)``, Q its
    eigenbasis and bottom = sqrt((1 + b) / 2)."""
    bottom = np.sqrt((1.0 + b) / 2.0)
    u = graph_frame(y, dec.eigenbasis, a / (2.0 * bottom), bottom)
    return form.j_matrix() + (2.0 * u) @ dag(u)


def graph_frame(y: np.ndarray, q: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """[Y Q diag(top); Q diag(bottom)], or stack, for a p1 x p2 block Y, a
    p2 x p2 eigenbasis Q and per-column scales: the frame U of both
    J + 2 U U* in ``sigma_from_spectrum`` and the dimension chart's
    projector U U*."""
    return np.concatenate([(y @ q) * top[..., None, :], q * bottom[..., None, :]], axis=-2)


def sigma_from_block(form: SignatureForm, x: np.ndarray) -> np.ndarray:
    """exp([[0, X], [X*, 0]]) of a p1 x p2 block, or stack, from one
    eigendecomposition of X* X: a = sinh t / t (1 at t = 0) and b = cosh t
    on its eigenvalues t^2."""
    if x.shape[-2:] != (form.p1, form.p2):
        raise DimensionMismatch(f"block must be {form.p1}x{form.p2}, got {x.shape}")
    dec = linalg.eig_hermitian(dag(x) @ x)
    t = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    a = np.divide(np.sinh(t), t, out=np.ones_like(t), where=t > 0)
    return sigma_from_spectrum(form, x, dec, a, np.cosh(t))


def positive_factor(s: np.ndarray, form: SignatureForm) -> np.ndarray:
    """sqrt(S S*) for an isometry S, or stack: the square root of the positive
    isometry C = S S*, with Y = C12, b = sqrt((1 + lambda) / 2) on the
    spectrum of C22 >= I and a = 1 / (2 b).  A singular S has a C22
    eigenvalue <= TAU_ABS: NotPositiveDefinite."""
    c = s @ dag(s[..., form.p1 :, :])  # the last p2 columns of S S*
    dec, b = spectral_map(c[..., form.p1 :, :], "sqrt")
    return sigma_from_spectrum(form, c[..., : form.p1, :], dec, 0.5 / b, b)


def blocks(form: SignatureForm, vals: np.ndarray, *shapes) -> list:
    """Consecutive blocks of the given (rows, cols) shapes read off the last
    axis of ``vals``, as entries of the form's field: a complex entry takes
    two values, real part first.  Leading axes of ``vals`` are batch axes.
    A block already in the field's dtype is a view of ``vals``, not a copy."""
    if form.field == COMPLEX:
        vals = vals[..., 0::2] + 1j * vals[..., 1::2]
    parts = zip(_slices(vals, [rows * cols for rows, cols in shapes]), shapes)
    return [part.reshape(vals.shape[:-1] + shape).astype(form.dtype, copy=False) for part, shape in parts]


def _slices(vals: np.ndarray, widths) -> list:
    """Consecutive slices of the last axis of ``vals`` of the given widths."""
    ends = list(accumulate(widths, initial=0))
    return [vals[..., start:end] for start, end in zip(ends, ends[1:])]


def draw_width(form: SignatureForm, *shapes) -> int:
    """How many uniforms ``blocks`` reads for blocks of these shapes."""
    return (2 if form.field == COMPLEX else 1) * sum(rows * cols for rows, cols in shapes)


def sigma_width(form: SignatureForm) -> int:
    """How many uniforms one Sigma sample draws."""
    return draw_width(form, (form.p1, form.p2))


def phi_width(form: SignatureForm) -> int:
    """How many uniforms one Phi sample draws."""
    return draw_width(form, (form.p1, form.p1), (form.p2, form.p2))


def sigma_from_uniforms(form: SignatureForm, u: np.ndarray, radius: float = SAMPLE_RADIUS) -> np.ndarray:
    """The Sigma element, or stack, that unit uniforms ``u`` of shape
    (..., sigma_width) draw from the exponential chart: block entries
    uniform in the radius box.

    Radius 0 is allowed and yields the identity; a radius that is negative
    or not finite is refused.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ConfigInvalid(f"radius must be finite and >= 0, got {radius}")
    (x,) = blocks(form, scale(u, -radius, radius), (form.p1, form.p2))
    return sigma_from_block(form, x)


def phi_from_uniforms(form: SignatureForm, u: np.ndarray) -> np.ndarray:
    """The Phi element, or stack, that unit uniforms ``u`` of shape
    (..., phi_width) draw: exp of a block-diagonal anti-hermitian generator
    K, its blocks' entries uniform in the ``_PHI_RADIUS`` box, with its trace
    shifted to zero so the determinant is exactly 1.

    K is normal, so Rodrigues' formula gives its exponential from one
    eigendecomposition of the positive semi-definite K* K = -K^2:
    exp(K) = cos(T) + K sin(T)/T with T = sqrt(K* K).  Both functions of T
    are even power series in T, so the formula is exact and stays real on
    the real field."""
    n, p1 = form.n, form.p1
    top, bottom = blocks(form, scale(u, -_PHI_RADIUS, _PHI_RADIUS), (p1, p1), (form.p2, form.p2))
    k = np.zeros(u.shape[:-1] + (n, n), dtype=form.dtype)
    k[..., :p1, :p1] = (top - dag(top)) / 2.0
    k[..., p1:, p1:] = (bottom - dag(bottom)) / 2.0
    if form.field == COMPLEX:
        k -= (np.trace(k, axis1=-2, axis2=-1)[..., None, None] / n) * np.eye(n, dtype=form.dtype)
    dec = linalg.eig_hermitian(dag(k) @ k)
    t = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    return dec.apply(np.cos(t)) + k @ dec.apply(np.sinc(t / np.pi))


def require_isometry(s: np.ndarray, form: SignatureForm) -> None:
    """NotInGroup unless ``s``, or every matrix of a stack, is an isometry
    of determinant 1 to the membership bound: what ``polar_factorize``
    splits."""
    if s.shape[-2:] != (form.n, form.n):
        raise DimensionMismatch(f"expected {form.n}x{form.n}, got {s.shape}")
    j = form.j_matrix()
    iso_res = np.max(fro(dag(s) @ j @ s - j), initial=0.0)
    det_res = np.max(np.abs(np.linalg.det(s) - 1.0), initial=0.0)
    if not iso_res <= MEMBERSHIP_TOLERANCE or det_res > MEMBERSHIP_TOLERANCE:
        raise NotInGroup(f"isometry residual {iso_res:.3e}, det residual {det_res:.3e}")


def polar_factorize(s: np.ndarray, form: SignatureForm):
    """Split an isometry of determinant 1, or each of a stack, into its
    unique Sigma * Phi pair.

    The Sigma factor is the positive polar factor S1 = sqrt(S S*); being a
    positive isometry, its inverse is J S1 J, S1 with its off-diagonal
    blocks negated, so the Phi factor S1^{-1} S = (J S1 J) S costs no second
    spectral call and no product by J.
    """
    require_isometry(s, form)
    s1 = positive_factor(s, form)
    return s1, (s1 * form.signs()) @ s


def conjugate_by_phi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B^{-1} A B with B^{-1} taken as the conjugate transpose, which keeps
    unitarity exact at working precision."""
    return symmetrize(dag(b) @ a @ b)


def standard_boost(form: SignatureForm, t: float) -> np.ndarray:
    """The one-parameter boost mixing coordinates p1 and p1+1: cosh(t) on
    the two diagonal entries, sinh(t) off-diagonal, identity elsewhere."""
    x = np.zeros((form.p1, form.p2), dtype=form.dtype)
    x[form.p1 - 1, 0] = t
    return sigma_from_block(form, x)


# ---------------------------------------------------------------------------
# JSON encoding of group elements:
#   { "form": {"n":…, "p1":…, "p2":…, "field":…}, "matrix": [[…]] }
# with the matrix as ``linalg.matrix_to_json`` writes it.
# ---------------------------------------------------------------------------


def element_to_json(a: np.ndarray, form: SignatureForm) -> dict:
    return {"form": form.to_json(), "matrix": matrix_to_json(a)}


def element_from_json(obj: dict, form: SignatureForm) -> np.ndarray:
    """The matrix of an element file; the file's form must be ``form``."""
    if not isinstance(obj, dict):
        raise ConfigInvalid("an element must be a JSON object")
    found = SignatureForm.from_json(obj.get("form", {}))
    if found != form:
        raise ConfigInvalid(f"form {found.to_json()} is not the configured {form.to_json()}")
    matrix = matrix_from_json(obj.get("matrix", []), form.field)
    if matrix.shape != (form.n, form.n):
        raise ConfigInvalid(f"matrix shape {matrix.shape} does not match n = {form.n}")
    return matrix
