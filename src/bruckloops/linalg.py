"""Dense field-generic matrix arithmetic and hermitian spectral calculus.

Matrices are plain numpy arrays: ``float64`` for the real field,
``complex128`` for the complex one.  Conjugation is the identity on the
real field and flips the sign of the imaginary part on the complex one,
so a single code path written with ``conj``/``conjugate-transpose``
serves both fields.

Hermitian eigenproblems go to LAPACK through ``numpy.linalg.eigh``, except
1 x 1 ones, which take LAPACK's closed form directly.  The result is
deterministic only in the weak sense that identical input bytes give
identical output on one machine with one numpy/LAPACK build; like
``svd``, ``det``, ``inv`` and ``@`` elsewhere in the package, it may differ
in the last bits across platforms or BLAS/LAPACK builds.

The whole layer takes stacks: ``dag``, ``fro``, ``symmetrize``,
``eig_hermitian``, ``SpectralDecomposition.apply`` and ``spectral_map``
accept arrays of shape ``(..., n, n)`` and act on the last two axes, one
LAPACK call for the whole stack; ``mv`` multiplies stacks of matrices and
vectors, and ``concat`` joins stacks.  ``orthonormalize`` takes stacks
(..., n, k) of frames the same way, one QR call.  Every check is made per
matrix, and a 2-D input is the stack with no batch axes: a matrix gives
the same bits alone as inside a stack.  The glue around the LAPACK calls
copies nothing it need not: ``dag`` of a real array is a transpose view,
``concat`` broadcasts only parts whose shapes differ, and ``eig_hermitian``
takes one conjugate transpose for its check and its symmetrization.

Three fixed floors serve every layer: ``TAU_ABS`` is the absolute floor
for pivots, positivity and the transversal's sign check, ``TAU_COLUMN``
the relative floor of a QR column against its own norm, and ``TAU_REL``
the relative tolerance of the hermiticity check.  Verdicts on measured
residuals are the suite's, against its fixed acceptance bounds.
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
TAU_ABS = 1e-9
TAU_COLUMN = 1e-9
TAU_REL = 1e-7


def field_of(a: np.ndarray) -> str:
    return COMPLEX if np.iscomplexobj(a) else REAL


def dtype_of(field: str):
    if field == REAL:
        return np.float64
    if field == COMPLEX:
        return np.complex128
    raise ValueError(f"unknown field {field!r}")


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; on the real field a
    transpose view, with no copy."""
    return (a.conj() if a.dtype.kind == "c" else a).swapaxes(-1, -2)


def fro(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack: the norm
    over the last two axes, which gives a matrix the same bits alone as
    inside a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for stacks (..., n, k) of matrices and (..., k) of vectors,
    broadcast over the batch axes; one matrix-vector product per pair."""
    return (a @ v[..., None])[..., 0]


def concat(*stacks: np.ndarray) -> np.ndarray:
    """The stacks concatenated along the first batch axis; when their shapes
    differ they are first broadcast against each other, so a single matrix
    or vector fills a stack."""
    if len({s.shape for s in stacks}) > 1:
        stacks = np.broadcast_arrays(*stacks)
    return np.concatenate(stacks)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2; the hermitian part, used to stop hermiticity drift."""
    return (a + dag(a)) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary eigenbasis Q with
    A = Q diag(eigenvalues) Q*; for a stack, shapes (..., n) and (..., n, n)."""

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble Q diag(values) Q*, re-symmetrized."""
        q = self.eigenbasis
        return symmetrize((q * values[..., None, :]) @ dag(q))


def eig_hermitian(a: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a hermitian matrix, or of a stack of them
    of shape (..., n, n): one LAPACK ``eigh`` call for the stack, or for
    n = 1 LAPACK's own closed form, the entry's real part with eigenbasis
    1, which is what ``?syevd``/``?heevd`` return at N = 1.

    Each matrix is checked for hermiticity, its residual ||A - A*||
    against its own TAU_ABS + TAU_REL ||A||, and then symmetrized, so
    LAPACK sees an exactly hermitian matrix whichever triangle it reads.
    Eigenvalues are real and ascending.  The sign or phase of each
    eigenvector, and the basis chosen within a degenerate cluster, are
    whatever LAPACK returns; no caller may depend on them.
    Identical input bytes give an identical decomposition on one machine
    with one numpy/LAPACK build, not across platforms.

    Raises NoConvergence when any matrix has a non-finite entry or LAPACK
    does not converge.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NoConvergence("matrix has non-finite entries")
    ah = dag(a)
    residual = fro(a - ah)
    bad = residual > TAU_ABS + TAU_REL * fro(a)
    if bad.any():
        raise NotHermitian(f"symmetry residual {np.max(residual[bad]):.3e} exceeds tolerance")
    h = (a + ah) / 2.0
    if a.shape[-1] == 1:
        return SpectralDecomposition(np.ascontiguousarray(h.real[..., 0]), np.ones_like(h))
    try:
        vals, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc
    return SpectralDecomposition(vals, q)


# Functions on the spectrum of the p2 x p2 matrix M of a positive isometry
# (``groups.sigma_from_spectrum``): for M = C22 = cosh t of C, the C22 block
# cosh(t/2) of sqrt(C); for M = I - X* X of a contraction X, M^{-1/2}.
_SPECTRAL_FUNCTIONS = {
    "sqrt": lambda lam: np.sqrt((1.0 + lam) / 2.0),
    "inverse_sqrt": lambda lam: 1.0 / np.sqrt(lam),
}


def spectral_map(a: np.ndarray, func: str):
    """The decomposition of a positive-definite hermitian matrix, or stack,
    and a function's values on its spectrum, from one ``eig_hermitian`` call;
    NotPositiveDefinite when any eigenvalue is <= TAU_ABS."""
    dec = eig_hermitian(a)
    lowest = dec.eigenvalues[..., 0]
    if (lowest <= TAU_ABS).any():
        raise NotPositiveDefinite(f"{func}: smallest eigenvalue {np.min(lowest):.3e} <= {TAU_ABS:.1e}")
    return dec, _SPECTRAL_FUNCTIONS[func](dec.eigenvalues)


def orthonormalize(v: np.ndarray) -> np.ndarray:
    """Orthonormal frame of the columns of ``v``, or of each matrix of a
    stack (..., n, k), from one QR call.

    The result U has U* U = I, spans what the first j columns of ``v`` span
    in its first j columns, and makes U* v upper triangular with a positive
    real diagonal: Q's columns are multiplied by the phase of R's diagonal.
    That frame is unique, the one Gram-Schmidt gives.

    Raises RankDeficient when a column's residual |R_jj| is at most
    TAU_COLUMN times its norm, or when there are more columns than rows.
    """
    if v.shape[-1] > v.shape[-2]:
        raise RankDeficient(f"{v.shape[-1]} columns in dimension {v.shape[-2]} are dependent")
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(diag)
    collapsed = size <= TAU_COLUMN * np.linalg.norm(v, axis=-2)
    if collapsed.any():
        raise RankDeficient(f"a column is dependent (residual {np.min(size[collapsed]):.3e})")
    return q * (diag / size)[..., None, :]


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
    if not np.isfinite(data).all():
        raise ParseError("matrix entries must be finite")
    return np.array(data, dtype=dtype_of(field)).reshape(rows, cols)
