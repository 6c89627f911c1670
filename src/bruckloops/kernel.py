"""The loop protocol and numeric checkers for loop identities.

A loop here is a carrier with a binary operation, a two-sided identity,
and unique left/right division; associativity is not assumed.  Both loops
of the package, ``MatrixLoop`` and ``ExtensionConfig``, satisfy the
``Loop`` protocol, and the checkers call them directly.  The checkers
measure identities as residual distances rather than booleans: each
returns the worst residual over its samples as a float, and the suite
judges it against its fixed acceptance bound.  A checker takes its
samples as element stacks, one per slot of the identity (the i-th
elements of the stacks are sample i), and draws nothing itself.

Every checker is batched and runs its identity level by level: the
independent operations of one kind at one dependency level (``x*z`` with
``y*x``, the three inverses of AIP, the three lambda evaluations of
left-A) are one call on the operand stacks ``Loop.join`` concatenates,
split back by slicing, and every distance the checker compares is one
``distance`` call.  Each element gets the bits a call of its own gives
it, so only the number of calls depends on the fusion.  The per-element
residuals are folded with max from 0: appending samples can only raise
the returned residual, and it is deterministic given the elements.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from .errors import InversesDisagree
from .linalg import worst

INVERSE_GAP = 1e-9  # largest distance between e/x and x\e that inverse_of accepts


class Loop(Protocol):
    """What the checkers call on a loop.

    left_divide(a, b) returns x with a * x = b; right_divide(b, a)
    returns x with x * a = b.  Elements may be stacks, and the operations
    and ``distance`` act per element, broadcasting the single identity; a
    stack is indexed along its batch axis and ``len`` counts it.  ``join``
    broadcasts its parts against each other, so a single element such as
    the identity fills a stack, and concatenates them along the batch
    axis.  For the matrix loop an element is a plain array, for the
    extension loop a ``(w, rho)`` pair of arrays; either way the loop, not
    the element, holds the form.
    """

    identity: Any

    def join(self, *parts): ...
    def mul(self, a, b): ...
    def left_divide(self, a, b): ...
    def right_divide(self, b, a): ...
    def distance(self, a, b): ...


def split(stack, count: int, parts: int) -> list:
    """The ``parts`` consecutive stacks of ``count`` elements that
    ``Loop.join`` concatenated into ``stack``."""
    return [stack[k * count : (k + 1) * count] for k in range(parts)]


def check_loop_axioms(loop: Loop, a, b) -> float:
    """Residuals of e*x = x, x*e = x, a*(a\\b) = b and (b/a)*a = b over the
    sampled pairs: both divisions, then the four products in one ``mul``
    call."""
    e = loop.identity
    left, right = loop.left_divide(a, b), loop.right_divide(b, a)
    products = loop.mul(loop.join(e, a, a, right), loop.join(a, e, left, a))
    return worst(loop.distance(products, loop.join(a, a, b, b)))


def check_bol(loop: Loop, x, y, z) -> float:
    """Residual of x(y . xz) = (x . yx)z over sampled triples, both sides
    together: one ``mul`` call per level."""
    count = len(x)
    xz, yx = split(loop.mul(loop.join(x, y), loop.join(z, x)), count, 2)
    y_xz, x_yx = split(loop.mul(loop.join(y, x), loop.join(xz, yx)), count, 2)
    lhs, rhs = split(loop.mul(loop.join(x, x_yx), loop.join(y_xz, z)), count, 2)
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


def check_aip(loop: Loop, x, y) -> float:
    """Residual of the automorphic inverse property (xy)^-1 = x^-1 y^-1 over
    sampled pairs; the inverses of xy, x and y are one ``inverse_of`` call."""
    lhs, inv_x, inv_y = split(inverse_of(loop, loop.join(loop.mul(x, y), x, y)), len(x), 3)
    return worst(loop.distance(lhs, loop.mul(inv_x, inv_y)))


def check_left_a(loop: Loop, x, y, u, v) -> float:
    """Residual of lambda_{x,y}(u*v) = lambda_{x,y}(u) * lambda_{x,y}(v),
    where lambda_{x,y}(w) = (x*y) \\ (x*(y*w)).

    The map is evaluated through divisions, so no translation ever has to
    be inverted as a map; its three arguments uv, u and v go through it as
    one stack.
    """
    count = len(x)
    xy, uv = split(loop.mul(loop.join(x, u), loop.join(y, v)), count, 2)
    ys = loop.mul(loop.join(y, y, y), loop.join(uv, u, v))
    lam = loop.left_divide(loop.join(xy, xy, xy), loop.mul(loop.join(x, x, x), ys))
    lam_uv, lam_u, lam_v = split(lam, count, 3)
    return worst(loop.distance(lam_uv, loop.mul(lam_u, lam_v)))
