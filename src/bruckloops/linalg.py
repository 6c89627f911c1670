"""Dense field-generic matrix arithmetic and hermitian spectral calculus.

Matrices are plain numpy arrays: ``float64`` for the real field,
``complex128`` for the complex one.  Conjugation is the identity on the
real field and flips the sign of the imaginary part on the complex one,
so a single code path written with ``conj``/``conjugate-transpose``
serves both fields.

Hermitian eigenproblems go to LAPACK through ``numpy.linalg.eigh``, except
1 x 1 ones, which take LAPACK's closed form directly, and whose hermiticity
residual is read in closed form too: |2 Im a|, nothing to check but
finiteness on the real field.  Positivity of a matrix already symmetrized
needs its spectrum alone (``groups.membership_residual``, one
``numpy.linalg.eigvalsh`` call with no eigenvectors).  The result is
deterministic only in the weak sense that identical input bytes give
identical output on one machine with one numpy/LAPACK build; like
``svd``, ``det``, ``inv`` and ``@`` elsewhere in the package, it may differ
in the last bits across platforms or BLAS/LAPACK builds.

The whole layer takes stacks: ``dag``, ``fro``, ``symmetrize``,
``eig_hermitian``, ``SpectralDecomposition.apply`` and ``spectral_map``
accept arrays of shape ``(..., n, n)`` and act on the last two axes, one
LAPACK call for the whole stack; ``mv`` multiplies stacks of matrices and
vectors, ``concat`` joins stacks and ``pieces`` cuts them back.
``orthonormalize`` takes stacks (..., n, k) of frames the same way, one QR
call.  Every check is made per matrix, and a 2-D input is the stack with
no batch axes: a matrix gives the same bits alone as inside a stack.  The glue around the LAPACK calls
copies nothing it need not: ``dag`` of a real array is a transpose view,
``concat`` broadcasts only parts whose shapes differ, and ``eig_hermitian``
takes one conjugate transpose for its check and its symmetrization.

Three fixed floors serve every layer: ``TAU_ABS`` is the absolute floor
for pivots, positivity and the transversal's sign check, ``TAU_COLUMN``
the relative floor of a QR column against its own norm, and ``TAU_REL``
the relative tolerance of the hermiticity check.  Verdicts on measured
residuals are the suite's, against its fixed acceptance bounds; ``worst``
is their one fold, max from 0.

The layer also holds how a matrix is written in a file, for every reader
above it: the matrix text reader, and the JSON codec (``matrix_to_json``,
``matrix_from_json``) with the JSON scalar rules the config and form
readers share (``convert``).
"""

from __future__ import annotations

import re
from itertools import accumulate

import numpy as np

from .errors import (
    ConfigInvalid,
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


def fro(a: np.ndarray, axis=(-2, -1)):
    """Frobenius norm of a matrix, or of each matrix of a stack, over the
    last two axes, or the 2-norm over the one ``axis`` given: the expression
    ``np.linalg.norm`` evaluates for it, bit for bit, without its dispatch.
    A matrix gives the same bits alone as inside a stack."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


def worst(*residuals) -> float:
    """Fold residuals, floats or per-element stacks, with max from 0."""
    return max((float(np.max(r, initial=0.0)) for r in residuals), default=0.0)


def mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for stacks (..., n, k) of matrices and (..., k) of vectors,
    broadcast over the batch axes; one matrix-vector product per pair."""
    return (a @ v[..., None])[..., 0]


def concat(*stacks: np.ndarray) -> np.ndarray:
    """The stacks concatenated along the first batch axis, whatever their
    lengths.  A single matrix or vector among them, a part with fewer axes
    than the rest, is first broadcast to the shape of the first stack, so it
    fills a stack of that length.  A lone stack is returned as it is."""
    if len(stacks) == 1:
        return stacks[0]
    if len({s.ndim for s in stacks}) > 1:
        shape = max(stacks, key=np.ndim).shape
        stacks = [s if s.ndim == len(shape) else np.broadcast_to(s, shape) for s in stacks]
    return np.concatenate(stacks)


def pieces(stack, lengths: list) -> list:
    """The consecutive stacks of the given lengths that ``concat``, or a
    loop's ``join``, joined into ``stack``; one length is the whole stack."""
    if len(lengths) == 1:
        return [stack]
    return [stack[end - length : end] for length, end in zip(lengths, accumulate(lengths))]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2; the hermitian part, used to stop hermiticity drift."""
    return (a + dag(a)) / 2.0


def refuse_assignment(self, name: str, *_):
    """``__setattr__`` and ``__delattr__`` of the immutable slotted classes.

    The package's one rule for value types: a record is a namedtuple (a
    subclass with ``__slots__ = ()`` when it has methods or validation),
    anything else immutable a slotted class with these two methods, never a
    dataclass.  Building the package's ten dataclasses took about half of
    every command's ``import bruckloops.cli`` from cached bytecode (12-16
    ms, 4-6 ms without them), and a frozen dataclass's constructor, which
    sets its fields through ``object.__setattr__``, costs 1.7 times a
    slotted class's.  The classes built on every loop operation set each
    field once through its slot's own setter; the loops, built once a
    command, through ``object.__setattr__``."""
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary eigenbasis Q with
    A = Q diag(eigenvalues) Q*; for a stack, shapes (..., n) and (..., n, n)."""

    __slots__ = ("eigenvalues", "eigenbasis")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, eigenvalues: np.ndarray, eigenbasis: np.ndarray):
        _set_eigenvalues(self, eigenvalues)
        _set_eigenbasis(self, eigenbasis)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble Q diag(values) Q*, re-symmetrized."""
        q = self.eigenbasis
        return symmetrize((q * values[..., None, :]) @ dag(q))


_set_eigenvalues, _set_eigenbasis = SpectralDecomposition.eigenvalues.__set__, SpectralDecomposition.eigenbasis.__set__


def eig_hermitian(a: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a hermitian matrix, or of a stack of them
    of shape (..., n, n): one LAPACK ``eigh`` call for the stack, or for
    n = 1 LAPACK's own closed form, the entry's real part with eigenbasis
    1, which is what ``?syevd``/``?heevd`` return at N = 1.

    Each matrix is checked for hermiticity, its residual ||A - A*||
    (|2 Im a| at n = 1, exactly what the norm gives short of overflow far
    above the bound) against its own TAU_ABS + TAU_REL ||A||, and then
    symmetrized, so LAPACK sees an exactly hermitian matrix whichever
    triangle it reads.
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
    if a.shape[-1] > 1 or a.dtype.kind == "c":
        # at n = 1, ||A - A*|| is |2 Im a|, and 0 on the real field
        residual = fro(a - ah) if a.shape[-1] > 1 else 2.0 * np.abs(a.imag[..., 0, 0])
        bad = residual > TAU_ABS + TAU_REL * fro(a)
        if bad.any():
            raise NotHermitian(f"symmetry residual {np.max(fro(a - ah)[bad]):.3e} exceeds tolerance")
    h = (a + ah) / 2.0
    if a.shape[-1] == 1:
        return SpectralDecomposition(np.ascontiguousarray(h.real[..., 0]), np.ones_like(h))
    try:
        vals, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc
    return SpectralDecomposition(vals, q)


def spectral_map(a: np.ndarray):
    """The decomposition of a positive-definite hermitian matrix, or stack,
    and the square roots of its spectrum, from one ``eig_hermitian`` call;
    NotPositiveDefinite when any eigenvalue is <= TAU_ABS.  On the p2 x p2
    matrix M^{-1} of a positive isometry's graph block they are that
    block's a = b = M^{-1/2} (``groups.positive_factor``)."""
    dec = eig_hermitian(a)
    lowest = dec.eigenvalues[..., 0]
    if (lowest <= TAU_ABS).any():
        raise NotPositiveDefinite(f"smallest eigenvalue {np.min(lowest):.3e} <= {TAU_ABS:.1e}")
    return dec, np.sqrt(dec.eigenvalues)


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
    collapsed = size <= TAU_COLUMN * fro(v, axis=-2)
    if collapsed.any():
        raise RankDeficient(f"a column is dependent (residual {np.min(size[collapsed]):.3e})")
    return q * (diag / size)[..., None, :]


# ---------------------------------------------------------------------------
# Matrix text format (CLI input)
#
#   rows cols field
#   row-major entries, one row per line
#
# Complex entries are spelled a+bi / a-bi with no spaces.  The package reads
# this format and writes none; its commands print JSON.
# ---------------------------------------------------------------------------

# Compiled on first use, through ``re``'s own cache: only complex matrix
# text reads it, and compiling it took about 0.5 ms of every import.
_COMPLEX_ENTRY = (
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_scalar(token: str, field: str):
    try:
        if field == REAL:
            return float(token)
        if token.endswith("i"):
            m = re.match(_COMPLEX_ENTRY, token)
            if m is None:
                raise ValueError(token)
            return complex(float(m.group("re")), float(m.group("im")))
        return complex(float(token), 0.0)
    except ValueError as exc:
        raise ParseError(f"bad {field} entry {token!r}") from exc


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


# ---------------------------------------------------------------------------
# JSON encoding of matrices: a list of rows, complex entries as [re, im]
# pairs.  Its scalar rules serve every JSON reader of the package: the
# config, the form and the matrix payloads.
# ---------------------------------------------------------------------------


def matrix_to_json(a: np.ndarray) -> list:
    """Rows of Python floats, a complex entry as its [re, im] pair."""
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], -1).tolist()
    return a.tolist()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def convert(kind, value, name: str):
    """``value`` as ``kind``, int or str: an int must be a JSON number with
    no fractional part and a str a JSON string.  Anything else, booleans
    and numeric strings included, is refused rather than coerced."""
    if kind is int and _is_number(value) and value % 1 == 0:
        return int(value)
    if kind is str and isinstance(value, str):
        return value
    raise ConfigInvalid(f"entry {name!r} must be {kind.__name__}, got {value!r}")


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
        out = np.array(data, dtype=dtype_of(field))
    except (OverflowError, ValueError) as exc:
        raise ConfigInvalid(f"bad matrix payload: {exc}") from exc
    if out.ndim != 2:
        raise ConfigInvalid("matrix payload must be a list of equal-length rows")
    if not np.all(np.isfinite(out)):
        raise ConfigInvalid("matrix entries must be finite")
    return out
