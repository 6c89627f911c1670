"""The Bruck loop on positive-definite hermitian isometries.

Multiplication is A o B = sqrt(A B^2 A), the positive factor sqrt(S S*)
of the polar decomposition of S = A B; the square root is the unique
positive-definite one, so the carrier is closed.  Divisions have closed
forms: a*(a\\b)=b gives x = sqrt(A^{-1} C^2 A^{-1}), the positive factor of
A^{-1} C, and the right-division equation x A^2 x = B^2 is a Riccati
equation whose unique positive-definite solution is
x = A^{-1} sqrt(A B^2 A) A^{-1}.

Every element is a hermitian isometry, A J A = J, so its inverse is
A^{-1} = J A J: a sign flip of the off-diagonal blocks, by the form's sign
pattern, with no matrix product and no spectral call.  Every other
operation costs one p2 x p2 eigendecomposition, that of
``groups.positive_factor``, which builds the result in block coordinates.

An element is a plain (n, n) array and a stack (..., n, n) is that many
elements; the loop holds the form.  Every operation and ``distance``
take stacks, operands broadcast over the batch axes, and each
operation is one LAPACK call for the whole stack, which gives each matrix
the same bits as a call of its own.  The identity is a single read-only
matrix, built once per form, and broadcasts against any stack, ``join``
among them.

Products of three matrices are evaluated strictly left to right, results
are assembled from their blocks or re-symmetrized, and the eigensolver
symmetrizes its own input, so residuals are reproducible on one machine
with one numpy/LAPACK build (not across platforms: ``@`` and ``eigh`` go
through BLAS/LAPACK).  Elements are validated by the callers that read them from
outside; operations trust their inputs and the test suite validates
outputs.  ``MatrixLoop`` is the object the kernel checkers call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import SignatureForm, positive_factor
# spectral_map is held for bench/tests/test_bench.py; groups.positive_factor calls it
from .linalg import concat, fro, spectral_map, symmetrize  # noqa: F401


def frobenius_distance(a: np.ndarray, b: np.ndarray):
    """Relative Frobenius distance, symmetric in its arguments; one per
    element of a stack."""
    return fro(a - b) / (1.0 + np.maximum(fro(a), fro(b)))


@dataclass(frozen=True)
class MatrixLoop:
    form: SignatureForm

    distance = staticmethod(frobenius_distance)
    join = staticmethod(concat)

    @property
    def identity(self) -> np.ndarray:
        return self.form.eye()

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return positive_factor(a @ b, self.form)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """A^{-1} = J A J, exact for a hermitian isometry: A with its
        off-diagonal blocks negated."""
        return symmetrize(a * self.form.signs())

    def left_divide(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        return positive_factor(self.inverse(a) @ c, self.form)

    def right_divide(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        root = positive_factor(a @ b, self.form)
        ainv = self.inverse(a)
        return symmetrize((ainv @ root) @ ainv)

