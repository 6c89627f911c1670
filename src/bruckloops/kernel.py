"""The loop protocol and numeric checkers for loop identities.

A loop here is a carrier with a binary operation, a two-sided identity,
and unique left/right division; associativity is not assumed.  Both loops
of the package, ``MatrixLoop`` and ``ExtensionConfig``, satisfy the
``Loop`` protocol, and the checkers call them directly.  The checkers
measure identities as residual distances rather than booleans: each
returns the worst residual over its samples as a float, and the suite
judges it against its fixed acceptance bound.  Sampling is delegated to the
concrete loop -- the kernel has no way to enumerate elements.

Every checker is batched: it draws all its samples in one ``sample`` call,
splits the stack into the tuples a sample-by-sample draw would give, runs
each loop operation once on the whole stack and folds the per-element
residuals with max from 0.  Appending samples can only raise the returned
residual, and it is deterministic given (seed, count).
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from .errors import InversesDisagree
from .groups import SampleStream

INVERSE_GAP = 1e-9  # largest distance between e/x and x\e that inverse_of accepts


class Loop(Protocol):
    """What the checkers call on a loop.

    left_divide(a, b) returns x with a * x = b; right_divide(b, a)
    returns x with x * a = b.  Elements may be stacks, and the operations
    and ``distance`` act per element, broadcasting the single identity.
    ``sample`` draws a stack of ``count`` elements and returns it with the
    advanced stream; a stack is indexed along its batch axis.  For the
    matrix loop an element is a plain array, for the extension loop a
    ``(w, rho)`` pair of arrays; either way the loop, not the element,
    holds the form.
    """

    identity: Any

    def mul(self, a, b): ...
    def left_divide(self, a, b): ...
    def right_divide(self, b, a): ...
    def distance(self, a, b): ...
    def sample(self, stream: SampleStream, count: int) -> tuple: ...


def worst(*residuals) -> float:
    """Fold residuals, floats or per-element stacks, with max from 0."""
    return max((float(np.max(r, initial=0.0)) for r in residuals), default=0.0)


def sample_tuples(loop: Loop, stream: SampleStream, count: int, size: int) -> list:
    """``count`` sampled ``size``-tuples from one stacked draw, as ``size``
    stacks: slot j of tuple i is draw size * i + j, the element a
    sample-by-sample draw gives it."""
    xs, _ = loop.sample(stream, size * count)
    return [xs[j::size] for j in range(size)]


def check_loop_axioms(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residuals of e*x = x, x*e = x, a*(a\\b) = b and (b/a)*a = b."""
    e = loop.identity
    a, b = sample_tuples(loop, stream, count, 2)
    return worst(
        loop.distance(loop.mul(e, a), a),
        loop.distance(loop.mul(a, e), a),
        loop.distance(loop.mul(a, loop.left_divide(a, b)), b),
        loop.distance(loop.mul(loop.right_divide(b, a), a), b),
    )


def check_bol(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of x(y . xz) = (x . yx)z over sampled triples."""
    x, y, z = sample_tuples(loop, stream, count, 3)
    lhs = loop.mul(x, loop.mul(y, loop.mul(x, z)))
    rhs = loop.mul(loop.mul(x, loop.mul(y, x)), z)
    return worst(loop.distance(lhs, rhs))


def inverse_gap(loop: Loop, x):
    """The right inverse e/x and its distance to the left inverse x\\e, per
    element."""
    right = loop.right_divide(loop.identity, x)
    return right, loop.distance(right, loop.left_divide(x, loop.identity))


def inverse_of(loop: Loop, x):
    """Two-sided inverse e/x, checked per element to coincide with x\\e."""
    right, gap = inverse_gap(loop, x)
    if np.any(gap > INVERSE_GAP):
        raise InversesDisagree(f"e/x and x\\e differ by {np.max(gap):.3e}")
    return right


def check_aip(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of the automorphic inverse property (xy)^-1 = x^-1 y^-1."""
    x, y = sample_tuples(loop, stream, count, 2)
    lhs = inverse_of(loop, loop.mul(x, y))
    rhs = loop.mul(inverse_of(loop, x), inverse_of(loop, y))
    return worst(loop.distance(lhs, rhs))


def check_left_a(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of lambda_{x,y}(u*v) = lambda_{x,y}(u) * lambda_{x,y}(v),
    where lambda_{x,y}(w) = (x*y) \\ (x*(y*w)).

    The map is evaluated through divisions, so no translation ever has to
    be inverted as a map.
    """
    x, y, u, v = sample_tuples(loop, stream, count, 4)
    xy = loop.mul(x, y)

    def lam(w):
        return loop.left_divide(xy, loop.mul(x, loop.mul(y, w)))

    return worst(loop.distance(lam(loop.mul(u, v)), loop.mul(lam(u), lam(v))))
