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
pattern, with no matrix product and no spectral call.  So every operation
is one primitive, ``groups.positive_factor`` of a product (a b, J a J c,
a b), one p2 x p2 eigendecomposition that builds the result in block
coordinates, and right division then finishes A^{-1} root A^{-1}.
``run`` takes several calls at once, forms each one's product, makes one
``positive_factor`` call on them all and cuts it back, so one spectral
call serves whatever products and divisions the kernel's driver shares.
Each operation is ``run`` on its own call.
``membership`` reads the worst Sigma membership residual of each element,
the suite's closure rows' request.

An element is a plain (n, n) array and a stack (..., n, n) is that many
elements; the loop holds the form.  Every operation and ``distance``
take stacks, operands broadcast over the batch axes, and each
operation is one LAPACK call for the whole stack, which gives each matrix
the same bits as a call of its own.  The identity is a single read-only
matrix, built once per form, and broadcasts against any stack, ``join``
among them; ``identity_like`` fills a stack with it, a view with no copy.

Products of three matrices are evaluated strictly left to right, results
are assembled from their blocks or re-symmetrized, and the eigensolver
symmetrizes its own input, so residuals are reproducible on one machine
with one numpy/LAPACK build (not across platforms: ``@`` and ``eigh`` go
through BLAS/LAPACK).  Elements are validated by the callers that read them from
outside; operations trust their inputs and the test suite validates
outputs.  ``MatrixLoop`` is the object the kernel checkers call.
"""

from __future__ import annotations

import numpy as np

from .groups import SignatureForm, membership_residual, positive_factor
# spectral_map is held for bench/tests/test_bench.py; groups.positive_factor calls it
from .linalg import concat, fro, pieces, refuse_assignment, spectral_map, symmetrize  # noqa: F401

# The product whose positive factor each operation takes: a b for
# mul(a, b), A^{-1} c for left_divide(a, c), and a b for right_divide(b, a).
_PRODUCTS = {
    "mul": lambda loop, a, b: a @ b,
    "left_divide": lambda loop, a, c: loop.inverse(a) @ c,
    "right_divide": lambda loop, b, a: a @ b,
}

def frobenius_distance(a: np.ndarray, b: np.ndarray):
    """Relative Frobenius distance, symmetric in its arguments; one per
    element of a stack."""
    return fro(a - b) / (1.0 + np.maximum(fro(a), fro(b)))


class MatrixLoop:
    """The matrix loop on Sigma of ``form``; loops of equal forms are equal."""

    __slots__ = ("form",)
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, form: SignatureForm):
        object.__setattr__(self, "form", form)

    def __eq__(self, other):
        return self.form == other.form if type(other) is MatrixLoop else NotImplemented

    def __hash__(self) -> int:
        return hash(self.form)

    distance = staticmethod(frobenius_distance)
    join = staticmethod(concat)
    primitive = dict.fromkeys(_PRODUCTS, "positive_factor")

    @property
    def identity(self) -> np.ndarray:
        return self.form.eye()

    def identity_like(self, a: np.ndarray) -> np.ndarray:
        """The identity filling the batch shape of ``a``: a read-only view."""
        return np.broadcast_to(self.form.eye(), a.shape)

    def run(self, calls: list) -> list:
        """The result of each of ``calls``, ``(operation, operands)`` pairs
        of operations in ``primitive``: their products, batch axes read as
        one, through one ``positive_factor`` call, each right division
        finished on its own slice."""
        form = self.form
        products = [_PRODUCTS[operation](self, *operands) for operation, operands in calls]
        shapes = [p.shape for p in products]
        flat = [p.reshape(-1, form.n, form.n) for p in products]  # batch axes read as one, single matrices too
        del products
        roots = pieces(positive_factor(concat(*flat), form), [len(f) for f in flat])
        del flat  # the products go before the right divisions are finished
        return [
            self._finished(operation, operands, root.reshape(shape))
            for (operation, operands), shape, root in zip(calls, shapes, roots)
        ]

    def _finished(self, operation: str, operands: tuple, root: np.ndarray) -> np.ndarray:
        """An operation's result from the positive factor of its product:
        right division's x = A^{-1} sqrt(A B^2 A) A^{-1}, the factor itself
        otherwise."""
        if operation != "right_divide":
            return root
        ainv = self.inverse(operands[1])
        return symmetrize((ainv @ root) @ ainv)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.run([("mul", (a, b))])[0]

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """A^{-1} = J A J, exact for a hermitian isometry: A with its
        off-diagonal blocks negated."""
        return symmetrize(a * self.form.signs())

    def left_divide(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self.run([("left_divide", (a, c))])[0]

    def right_divide(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.run([("right_divide", (b, a))])[0]

    def membership(self, a: np.ndarray) -> np.ndarray:
        """The worst of the Sigma membership residuals of each element:
        one ``membership_residual`` call for the stack."""
        return np.max(list(membership_residual(a, self.form).residuals.values()), axis=0)
