"""The Bruck loop on positive-definite hermitian isometries.

Multiplication is A o B = sqrt(A B^2 A), the positive factor sqrt(S S*)
of the polar decomposition of S = A B; the square root is the unique
positive-definite one, so the carrier is closed.  Divisions have closed
forms: a*(a\\b)=b gives x = sqrt(A^{-1} C^2 A^{-1}), the positive factor of
A^{-1} C, and the right-division equation x A^2 x = B^2 is a Riccati
equation whose unique positive-definite solution is
x = A^{-1} sqrt(A B^2 A) A^{-1}.

Every element is a hermitian isometry, A J A = J, so its inverse is
A^{-1} = J A J: a sign flip of the off-diagonal blocks, with no spectral
call.  Each operation except the inverse therefore costs one
eigendecomposition (the positive factor) and the inverse costs none.

Products of three matrices are evaluated strictly left to right and
every hermitian intermediate is re-symmetrized, so residuals are
reproducible on one machine with one numpy/LAPACK build (not across
platforms: ``@`` and ``eigh`` go through BLAS/LAPACK).  Elements are
validated on construction by the callers that mint them; operations trust
their inputs and the test suite validates outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .groups import SampleStream, SigmaElement, SignatureForm, sample_sigma
from .kernel import Loop
from .linalg import DEFAULT_TOL, Tolerance, dag, fro, spectral_map, symmetrize

_SAMPLE_RADIUS = 0.75  # half-width of the sampled exponential-chart block entries


def _inverse(a: SigmaElement) -> np.ndarray:
    """A^{-1} = J A J, exact for a hermitian isometry."""
    j = a.form.j_matrix()
    return symmetrize((j @ a.matrix) @ j)


def _positive_factor(s: np.ndarray, tol: Tolerance) -> np.ndarray:
    """sqrt(S S*): the positive-definite factor P of the polar decomposition
    S = P U."""
    return spectral_map(symmetrize(s @ dag(s)), "sqrt", tol)


def frobenius_distance(a: SigmaElement, b: SigmaElement) -> float:
    """Relative Frobenius distance, symmetric in its arguments."""
    return fro(a.matrix - b.matrix) / (1.0 + max(fro(a.matrix), fro(b.matrix)))


@dataclass(frozen=True)
class MatrixLoop:
    form: SignatureForm
    tol: Tolerance = field(default=DEFAULT_TOL)

    def identity(self) -> SigmaElement:
        return SigmaElement(np.eye(self.form.n, dtype=self.form.dtype), self.form)

    def _check(self, *elems: SigmaElement) -> None:
        for e in elems:
            if e.form != self.form:
                raise DimensionMismatch("element form does not match the loop form")

    def mul(self, a: SigmaElement, b: SigmaElement) -> SigmaElement:
        self._check(a, b)
        return SigmaElement(_positive_factor(a.matrix @ b.matrix, self.tol), self.form)

    def inverse(self, a: SigmaElement) -> SigmaElement:
        self._check(a)
        return SigmaElement(_inverse(a), self.form)

    def left_divide(self, a: SigmaElement, c: SigmaElement) -> SigmaElement:
        self._check(a, c)
        return SigmaElement(_positive_factor(_inverse(a) @ c.matrix, self.tol), self.form)

    def right_divide(self, b: SigmaElement, a: SigmaElement) -> SigmaElement:
        self._check(a, b)
        root = _positive_factor(a.matrix @ b.matrix, self.tol)
        ainv = _inverse(a)
        return SigmaElement(symmetrize((ainv @ root) @ ainv), self.form)

    def sample(self, stream: SampleStream):
        return sample_sigma(self.form, stream, _SAMPLE_RADIUS, self.tol)

    def loop_interface(self) -> Loop:
        return Loop(
            mul=self.mul,
            left_divide=self.left_divide,
            right_divide=self.right_divide,
            identity=self.identity(),
            distance=frobenius_distance,
            sample=self.sample,
        )
