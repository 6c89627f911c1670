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
is one primitive, ``groups.positive_factor``, the package's one lift, of
a product (a b, J a J c, a b) of which it forms only the last p2 columns,
n^2 p2 work rather than n^3: the positive factor is the positive isometry
whose last p2 columns span what the product's span, read off those
isometric columns with one small solve and one p2 x p2
eigendecomposition, with no S S* and no subtraction.  Right division then
finishes A^{-1} root A^{-1}.  ``mul_w1`` is the product read off its
first p1 columns instead, which the extension loop's ``ext_infinity_compat``
row takes as its second, independent computation on carrier 2.
``lift`` is the one lift both loops share: it takes lift requests of
loops of one form, whatever loop each comes from, has each loop's
``lift_steps`` state the (frame, block) pair of each of its requests,
makes one ``positive_factor`` call on them all and has each loop finish
its own results from the factors, so one spectral call serves whatever
products, divisions and coordinates the kernel's driver shares.  Each
operation called directly is ``lift`` of its one request, the same path.
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

from .errors import NotPositiveDefinite
from .groups import SignatureForm, membership_residual, positive_factor
# spectral_map is held for bench/tests/test_bench.py; groups.positive_factor calls it
from .linalg import concat, fro, pieces, refuse_assignment, spectral_map, symmetrize  # noqa: F401

# The columns of the product whose positive factor each operation takes,
# and their block: the last p2 columns of a b for mul(a, b), of A^{-1} c
# for left_divide(a, c) and of a b for right_divide(b, a); and the first p1
# columns of a b for mul_w1(a, b), the product a * b read off the other
# block, the extension loop's second computation of its products.
_PRODUCTS = {
    "mul": lambda loop, a, b: (a @ b[..., loop.form.p1 :], 2),
    "left_divide": lambda loop, a, c: (loop.inverse(a) @ c[..., loop.form.p1 :], 2),
    "right_divide": lambda loop, b, a: (a @ b[..., loop.form.p1 :], 2),
    "mul_w1": lambda loop, a, b: (a @ b[..., : loop.form.p1], 1),
}


def frobenius_distance(a: np.ndarray, b: np.ndarray):
    """Relative Frobenius distance, symmetric in its arguments; one per
    element of a stack."""
    return fro(a - b) / (1.0 + np.maximum(fro(a), fro(b)))


def lift(requests: list) -> list:
    """The result of each of ``requests``, ``(loop, operation, operands)``
    lift operations of loops of one form, whatever loop each comes from,
    from one ``positive_factor`` call: each loop's ``lift_steps`` yield the
    (frame, block) pair each of its calls lifts and return the calls'
    results from their factors.  A breakdown of the call is thrown into
    the first loop's steps, so the requests of one loop raise its error;
    the kernel's driver re-runs a broken call of several requests one by
    one."""
    places = {}  # loop -> the indices of its requests, in order
    for k, (loop, *_) in enumerate(requests):
        places.setdefault(loop, []).append(k)
    lifts = [loop.lift_steps([requests[k][1:] for k in own]) for loop, own in places.items()]
    frames = [next(steps) for steps in lifts]
    try:
        factors = positive_factor(requests[0][0].form, [frame for own in frames for frame in own])
    except NotPositiveDefinite as exc:
        lifts[0].throw(exc)
    results = {}  # request index -> its result
    for own, steps, roots in zip(places.values(), lifts, pieces(factors, [len(f) for f in frames])):
        try:
            steps.send(roots)
        except StopIteration as done:
            results.update(zip(own, done.value))
    return [results[k] for k in range(len(requests))]


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

    run = staticmethod(lift)

    def lift_steps(self, calls: list):
        """Steps of the shared lift (``lift``) for ``calls``, ``(operation,
        operands)`` pairs of operations in ``primitive``: it yields the
        columns of each call's product (``columns``), receives their
        positive factors and returns each call's result (``finished``)."""
        roots = yield [self.columns(operation, *operands) for operation, operands in calls]
        return [self.finished(operation, operands, root) for (operation, operands), root in zip(calls, roots)]

    def columns(self, operation: str, *operands) -> tuple:
        """The (frame, block) pair whose positive factor ``operation`` takes."""
        return _PRODUCTS[operation](self, *operands)

    def finished(self, operation: str, operands: tuple, root: np.ndarray) -> np.ndarray:
        """An operation's result from the positive factor of its product:
        right division's x = A^{-1} sqrt(A B^2 A) A^{-1}, the factor itself
        otherwise."""
        if operation != "right_divide":
            return root
        ainv = self.inverse(operands[1])
        return symmetrize((ainv @ root) @ ainv)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lift([(self, "mul", (a, b))])[0]

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """A^{-1} = J A J, exact for a hermitian isometry: A with its
        off-diagonal blocks negated."""
        return symmetrize(a * self.form.signs())

    def left_divide(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        return lift([(self, "left_divide", (a, c))])[0]

    def right_divide(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        return lift([(self, "right_divide", (b, a))])[0]

    def membership(self, a: np.ndarray) -> np.ndarray:
        """The worst of the Sigma membership residuals of each element:
        one ``membership_residual`` call for the stack."""
        return np.max(list(membership_residual(a, self.form).residuals.values()), axis=0)
