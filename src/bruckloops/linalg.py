"""Dense field-generic matrix arithmetic and hermitian spectral calculus.

Matrices are plain numpy arrays: ``float64`` for the real field,
``complex128`` for the complex one.  Conjugation is the identity on the
real field and flips the sign of the imaginary part on the complex one,
so a single code path written with ``conj``/``conjugate-transpose``
serves both fields.

Hermitian eigenproblems go to LAPACK through ``numpy.linalg.eigh``.  The
result is deterministic only in the weak sense that identical input bytes
give identical output on one machine with one numpy/LAPACK build; like
``svd``, ``det``, ``inv`` and ``@`` elsewhere in the package, it may differ
in the last bits across platforms or BLAS/LAPACK builds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
)

REAL = "real"
COMPLEX = "complex"

# Skip-threshold that makes orthonormalization and canonicalization exact
# fixed points on their own output (needed for bit-for-bit idempotence).
_SNAP = 1e-13


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerance bundle threaded through every operation.

    tau_abs: absolute floor for pivots, positivity and the transversal's
        sign check.
    tau_rel: relative tolerance for residual checks against norms.
    """

    tau_abs: float = 1e-9
    tau_rel: float = 1e-7

    def __post_init__(self) -> None:
        if not (self.tau_abs > 0 and self.tau_rel > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def field_of(a: np.ndarray) -> str:
    return COMPLEX if np.iscomplexobj(a) else REAL


def dtype_of(field: str):
    if field == REAL:
        return np.float64
    if field == COMPLEX:
        return np.complex128
    raise ValueError(f"unknown field {field!r}")


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (plain transpose on the real field)."""
    return a.conj().T


def fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2; the hermitian part, used to stop hermiticity drift."""
    return (a + dag(a)) / 2.0


def hermitian_residual(a: np.ndarray) -> float:
    return fro(a - dag(a))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary eigenbasis Q with
    A = Q diag(eigenvalues) Q*."""

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble Q diag(values) Q*, re-symmetrized."""
        q = self.eigenbasis
        return symmetrize((q * values) @ dag(q))


def eig_hermitian(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Full eigendecomposition of a hermitian matrix by LAPACK ``eigh``.

    The input is checked for hermiticity against ``tol`` and then
    symmetrized, so LAPACK sees an exactly hermitian matrix whichever
    triangle it reads.  Eigenvalues are real and ascending.  The sign or
    phase of each eigenvector, and the basis chosen within a degenerate
    cluster, are whatever LAPACK returns; no caller may depend on them.
    Identical input bytes give an identical decomposition on one machine
    with one numpy/LAPACK build, not across platforms.

    Raises NoConvergence when the input has a non-finite entry or LAPACK
    does not converge.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NoConvergence("matrix has non-finite entries")
    residual = hermitian_residual(a)
    if residual > tol.tau_abs + tol.tau_rel * fro(a):
        raise NotHermitian(f"symmetry residual {residual:.3e} exceeds tolerance")
    try:
        vals, q = np.linalg.eigh(symmetrize(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc
    return SpectralDecomposition(vals, q)


_SPECTRAL_FUNCTIONS = {
    "sqrt": np.sqrt,
    "inverse_sqrt": lambda x: 1.0 / np.sqrt(x),
    "exp": np.exp,
}
_NEEDS_POSITIVITY = {"sqrt", "inverse_sqrt"}


def spectral_map(a: np.ndarray, func: str, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a scalar function to a hermitian matrix through its spectrum.

    ``sqrt`` returns the unique positive-definite square root.  Functions
    needing positivity (sqrt, inverse_sqrt) raise
    NotPositiveDefinite when the smallest eigenvalue is <= tau_abs.  The
    result is re-symmetrized so hermiticity cannot drift through long
    chains of loop multiplications.
    """
    if func not in _SPECTRAL_FUNCTIONS:
        raise ValueError(f"unknown spectral function {func!r}")
    dec = eig_hermitian(a, tol)
    if func in _NEEDS_POSITIVITY and dec.eigenvalues[0] <= tol.tau_abs:
        raise NotPositiveDefinite(
            f"{func}: smallest eigenvalue {dec.eigenvalues[0]:.3e} <= {tol.tau_abs:.1e}"
        )
    return dec.apply(_SPECTRAL_FUNCTIONS[func](dec.eigenvalues))


def orthonormalize(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Gram-Schmidt on the columns of ``v``, order-preserving: the result U
    has U* U = I and the same span.

    Projection and normalization steps within _SNAP of a no-op are
    skipped, which makes the function an exact fixed point on its own
    output; canonical frames therefore survive re-canonicalization
    bit-for-bit.

    Raises RankDeficient when a residual column collapses.
    """
    out = np.array(v, dtype=np.result_type(v.dtype, np.float64))
    for j in range(v.shape[1]):
        col = out[:, j]
        vn = float(np.linalg.norm(col))
        for i in range(j):
            coef = np.vdot(out[:, i], col)
            if abs(coef) > _SNAP * vn:
                col = col - coef * out[:, i]
        nrm = float(np.linalg.norm(col))
        if nrm <= tol.tau_abs * max(1.0, vn):
            raise RankDeficient(f"column {j} is dependent (residual {nrm:.3e})")
        if abs(nrm - 1.0) > _SNAP:
            col = col / nrm
        out[:, j] = col
    return out


# ---------------------------------------------------------------------------
# Matrix text format (CLI interchange)
#
#   rows cols field
#   row-major entries, one row per line
#
# Complex entries are written a+bi / a-bi with no spaces.  Scalars use 17
# significant decimal digits, which round-trips float64 bit-exactly.
# ---------------------------------------------------------------------------

_COMPLEX_ENTRY = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def format_scalar(x, field: str) -> str:
    if field == REAL:
        return format(float(np.real(x)), ".17g")
    rp = format(float(np.real(x)), ".17g")
    ip = float(np.imag(x))
    sign = "+" if (ip >= 0 or math.isnan(ip)) else "-"
    return f"{rp}{sign}{format(abs(ip), '.17g')}i"


def parse_scalar(token: str, field: str):
    try:
        if field == REAL:
            return float(token)
        if token.endswith("i"):
            m = _COMPLEX_ENTRY.match(token)
            if m is None:
                raise ValueError(token)
            return complex(float(m.group("re")), float(m.group("im")))
        return complex(float(token), 0.0)
    except ValueError as exc:
        raise ParseError(f"bad {field} entry {token!r}") from exc


def write_matrix_text(a: np.ndarray) -> str:
    field = field_of(a)
    rows, cols = a.shape
    lines = [f"{rows} {cols} {field}"]
    for i in range(rows):
        lines.append(" ".join(format_scalar(a[i, j], field) for j in range(cols)))
    return "\n".join(lines) + "\n"


def read_matrix_text(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"bad header {lines[0]!r}; expected 'rows cols field'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad dimensions in header {lines[0]!r}") from exc
    field = header[2]
    if field not in (REAL, COMPLEX):
        raise ParseError(f"unknown field {field!r}")
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be >= 1")
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, found {len(tokens)}")
    data = [parse_scalar(t, field) for t in tokens]
    return np.array(data, dtype=dtype_of(field)).reshape(rows, cols)
