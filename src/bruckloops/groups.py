"""The indefinite form, its isometry groups, and the sharply transitive set.

The diagonal form J has p1 entries +1 followed by p2 entries -1.  Three
membership targets are exposed:

* ``U_p2``   -- A* J A = J (the isometry group of the form),
* ``Sigma``  -- positive-definite hermitian isometries of determinant 1,
* ``Phi``    -- block-diagonal unitary stabilizer elements of determinant 1.

Sampling Sigma uses the exponential chart: exp(H) lands in the isometry
group and is hermitian exactly when H J + J H = 0, i.e. when H is hermitian
with zero diagonal blocks, H = [[0, X], [X*, 0]].  (exp(H) J = J exp(-H)
then gives exp(H)* J exp(H) = J, and exp of a hermitian matrix is
positive-definite hermitian.)  The block X is the free parameter; its
entries are drawn uniformly from a radius box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigInvalid, DimensionMismatch, NotInGroup
from .linalg import COMPLEX, REAL, dag, fro, spectral_map, symmetrize

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The membership bound: the largest residual a matrix may show and still
# count as a group element, for factor's input, mul's operands and the suite.
MEMBERSHIP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SignatureForm:
    """Signature (p1, p2) of the diagonal +-1 form on F^n."""

    n: int
    p1: int
    p2: int
    field: str = REAL

    def __post_init__(self) -> None:
        if self.field not in (REAL, COMPLEX):
            raise ConfigInvalid(f"unknown field {self.field!r}")
        if self.p1 + self.p2 != self.n:
            raise ConfigInvalid(f"p1 + p2 = {self.p1 + self.p2} != n = {self.n}")
        if not (self.p1 >= self.p2 >= 1):
            raise ConfigInvalid(f"need p1 >= p2 >= 1, got ({self.p1}, {self.p2})")
        if self.n < 3:
            raise ConfigInvalid(f"need n >= 3, got {self.n}")

    @property
    def dtype(self):
        return linalg.dtype_of(self.field)

    def j_matrix(self) -> np.ndarray:
        d = np.ones(self.n)
        d[self.p1 :] = -1.0
        return np.diag(d).astype(self.dtype)

    def to_json(self) -> dict:
        return {"n": self.n, "p1": self.p1, "p2": self.p2, "field": self.field}

    @staticmethod
    def from_json(obj: dict) -> "SignatureForm":
        try:
            n, p1, p2 = (_convert(int, obj[key], f"form.{key}") for key in ("n", "p1", "p2"))
            return SignatureForm(n, p1, p2, obj.get("field", REAL))
        except (KeyError, TypeError) as exc:
            raise ConfigInvalid(f"bad form object {obj!r}") from exc


def _convert(kind, value, name: str):
    """``value`` as ``kind``, int or str: an int must be a JSON number with
    no fractional part and a str a JSON string.  Anything else, booleans
    and numeric strings included, is refused rather than coerced."""
    if kind is int and _is_number(value) and value % 1 == 0:
        return int(value)
    if kind is str and isinstance(value, str):
        return value
    raise ConfigInvalid(f"entry {name!r} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True, eq=False)
class SigmaElement:
    """A positive-definite hermitian isometry; a loop element."""

    matrix: np.ndarray
    form: SignatureForm


@dataclass(frozen=True, eq=False)
class PhiElement:
    """A block-diagonal unitary stabilizer element of determinant 1."""

    matrix: np.ndarray
    form: SignatureForm


def _splitmix(state: int) -> int:
    z = state & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class SampleStream:
    """Counter-based splitmix64 stream; draws are pure functions of
    (seed, counter), so identical streams replay identical values on any
    platform.  Each draw returns the value together with the advanced
    stream; concurrent use splits by counter offset.
    """

    seed: int
    counter: int = 0

    def _raw(self, index: int) -> int:
        state = (self.seed + (index + 1) * _GAMMA) & _MASK64
        return _splitmix(state)

    def next_uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0):
        base = self.counter
        vals = np.array(
            [(self._raw(base + k) >> 11) * (1.0 / (1 << 53)) for k in range(count)]
        )
        return lo + (hi - lo) * vals, SampleStream(self.seed, base + count)

    def split(self, offset: int) -> "SampleStream":
        return SampleStream(self.seed, self.counter + offset)


@dataclass(frozen=True)
class MembershipReport:
    target: str
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= MEMBERSHIP_TOLERANCE


def membership_residual(a: np.ndarray, target: str, form: SignatureForm) -> MembershipReport:
    """Per-condition residuals for membership in U_p2, Sigma or Phi."""
    if a.shape != (form.n, form.n):
        raise DimensionMismatch(f"expected {form.n}x{form.n}, got {a.shape}")
    j = form.j_matrix()
    res: dict = {}
    if target == "U_p2":
        res["isometry"] = fro(dag(a) @ j @ a - j)
    elif target == "Sigma":
        res["hermitian"] = linalg.hermitian_residual(a)
        dec = linalg.eig_hermitian(symmetrize(a))
        res["positive_definite"] = max(0.0, -float(dec.eigenvalues[0]))
        res["isometry"] = fro(dag(a) @ j @ a - j)
        res["determinant"] = float(abs(np.linalg.det(a) - 1.0))
    elif target == "Phi":
        p1 = form.p1
        res["block_diagonal"] = float(
            np.sqrt(fro(a[:p1, p1:]) ** 2 + fro(a[p1:, :p1]) ** 2)
        )
        res["unitary"] = fro(a @ dag(a) - np.eye(form.n, dtype=form.dtype))
        res["determinant"] = float(abs(np.linalg.det(a) - 1.0))
    else:
        raise ValueError(f"unknown membership target {target!r}")
    return MembershipReport(target, res)


def _off_diagonal_generator(form: SignatureForm, x: np.ndarray) -> np.ndarray:
    h = np.zeros(x.shape[:-2] + (form.n, form.n), dtype=form.dtype)
    h[..., : form.p1, form.p1 :] = x
    h[..., form.p1 :, : form.p1] = dag(x)
    return h


def sigma_from_block(form: SignatureForm, x: np.ndarray) -> SigmaElement:
    """exp of the off-diagonal hermitian generator built from a p1 x p2 block.

    A stack of blocks (..., p1, p2) gives an element whose matrix is the
    stack (..., n, n) of their exponentials, from one eigendecomposition
    call."""
    if x.shape[-2:] != (form.p1, form.p2):
        raise DimensionMismatch(f"block must be {form.p1}x{form.p2}, got {x.shape}")
    return SigmaElement(spectral_map(_off_diagonal_generator(form, x), "exp"), form)


def sample_sigma(form: SignatureForm, stream: SampleStream, radius: float = 0.75):
    """Draw a Sigma element from the exponential chart.

    Radius 0 is allowed and yields the identity; a radius that is negative
    or not finite is refused.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ConfigInvalid(f"radius must be finite and >= 0, got {radius}")
    count = form.p1 * form.p2
    if form.field == COMPLEX:
        vals, stream = stream.next_uniforms(2 * count, -radius, radius)
        x = (vals[0::2] + 1j * vals[1::2]).reshape(form.p1, form.p2)
    else:
        vals, stream = stream.next_uniforms(count, -radius, radius)
        x = vals.reshape(form.p1, form.p2)
    return sigma_from_block(form, x.astype(form.dtype)), stream


def sample_phi(form: SignatureForm, stream: SampleStream, radius: float = 1.0):
    """Draw a Phi element: exp of a block-diagonal anti-hermitian generator
    K with its trace shifted to zero so the determinant is exactly 1.

    K is normal, so Rodrigues' formula gives its exponential from one
    eigendecomposition of the positive semi-definite K* K = -K^2:
    exp(K) = cos(T) + K sin(T)/T with T = sqrt(K* K).  Both functions of T
    are even power series in T, so the formula is exact and stays real on
    the real field."""
    k = np.zeros((form.n, form.n), dtype=form.dtype)
    for (lo, hi) in ((0, form.p1), (form.p1, form.n)):
        size = hi - lo
        if form.field == COMPLEX:
            vals, stream = stream.next_uniforms(2 * size * size, -radius, radius)
            block = (vals[0::2] + 1j * vals[1::2]).reshape(size, size)
        else:
            vals, stream = stream.next_uniforms(size * size, -radius, radius)
            block = vals.reshape(size, size)
        k[lo:hi, lo:hi] = (block - dag(block)) / 2.0
    if form.field == COMPLEX:
        k -= (np.trace(k) / form.n) * np.eye(form.n, dtype=form.dtype)
    dec = linalg.eig_hermitian(dag(k) @ k)
    t = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    return PhiElement(dec.apply(np.cos(t)) + k @ dec.apply(np.sinc(t / np.pi)), form), stream


def polar_factorize(s: np.ndarray, form: SignatureForm):
    """Split an isometry of determinant 1 into its unique Sigma * Phi pair.

    The Sigma factor is the positive polar factor S1 = sqrt(S S*); being a
    positive isometry, its inverse is J S1 J, so the Phi factor
    S1^{-1} S = (J S1 J) S costs no second spectral call.
    """
    report = membership_residual(s, "U_p2", form)
    det_res = abs(np.linalg.det(s) - 1.0)
    if not report.passed or det_res > MEMBERSHIP_TOLERANCE:
        raise NotInGroup(
            f"isometry residual {report.max_residual:.3e}, det residual {det_res:.3e}"
        )
    s1 = spectral_map(s @ dag(s), "sqrt")
    j = form.j_matrix()
    return SigmaElement(s1, form), PhiElement(((j @ s1) @ j) @ s, form)


def conjugate_by_phi(a: SigmaElement, b: PhiElement) -> SigmaElement:
    """B^{-1} A B with B^{-1} taken as the conjugate transpose, which keeps
    unitarity exact at working precision."""
    if a.form != b.form:
        raise DimensionMismatch("incompatible forms")
    return SigmaElement(symmetrize(dag(b.matrix) @ a.matrix @ b.matrix), a.form)


def standard_boost(form: SignatureForm, t: float) -> SigmaElement:
    """The one-parameter boost mixing coordinates p1 and p1+1: cosh(t) on
    the two diagonal entries, sinh(t) off-diagonal, identity elsewhere."""
    x = np.zeros((form.p1, form.p2), dtype=form.dtype)
    x[form.p1 - 1, 0] = t
    return sigma_from_block(form, x)


# ---------------------------------------------------------------------------
# JSON encoding of group elements:
#   { "form": {"n":…, "p1":…, "p2":…, "field":…}, "matrix": [[…]] }
# with complex entries as [re, im] pairs.
# ---------------------------------------------------------------------------


def matrix_to_json(a: np.ndarray) -> list:
    if np.iscomplexobj(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_entry(v, field: str) -> bool:
    """A real entry is a JSON number; a complex one is a [re, im] pair."""
    if field == COMPLEX:
        return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
    return _is_number(v)


def matrix_from_json(rows: list, field: str) -> np.ndarray:
    """A list of rows, each a list of entries; strings, booleans,
    non-finite numbers and wrongly shaped entries are refused."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ConfigInvalid("matrix payload must be a list of rows, each a list")
    if not all(_is_entry(v, field) for row in rows for v in row):
        kind = "[re, im] pairs of numbers" if field == COMPLEX else "numbers"
        raise ConfigInvalid(f"matrix entries must be {kind}")
    try:
        if field == COMPLEX:
            data = [[complex(*v) for v in row] for row in rows]
        else:
            data = [[float(v) for v in row] for row in rows]
        out = np.array(data, dtype=linalg.dtype_of(field))
    except (OverflowError, ValueError) as exc:
        raise ConfigInvalid(f"bad matrix payload: {exc}") from exc
    if out.ndim != 2:
        raise ConfigInvalid("matrix payload must be a list of equal-length rows")
    if not np.all(np.isfinite(out)):
        raise ConfigInvalid("matrix entries must be finite")
    return out


def element_to_json(elem) -> dict:
    return {"form": elem.form.to_json(), "matrix": matrix_to_json(elem.matrix)}


def element_from_json(obj: dict) -> SigmaElement:
    if not isinstance(obj, dict):
        raise ConfigInvalid("an element must be a JSON object")
    form = SignatureForm.from_json(obj.get("form", {}))
    matrix = matrix_from_json(obj.get("matrix", []), form.field)
    if matrix.shape != (form.n, form.n):
        raise ConfigInvalid(f"matrix shape {matrix.shape} does not match n = {form.n}")
    return SigmaElement(matrix, form)
