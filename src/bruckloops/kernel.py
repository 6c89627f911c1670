"""The loop protocol and numeric checkers for loop identities.

A loop here is a carrier with a binary operation, a two-sided identity,
and unique left/right division; associativity is not assumed.  Both loops
of the package, ``MatrixLoop`` and ``ExtensionConfig``, satisfy the
``Loop`` protocol, and the checkers call them directly.  The checkers
measure identities as residual distances rather than booleans: each
returns the worst residual over its samples as a float, and the suite
judges it against its fixed acceptance bound.  Sampling is delegated to the
concrete loop -- the kernel has no way to enumerate elements.

Checkers fold sample residuals with max, so appending samples can only
raise the returned residual, and it is deterministic given (seed, count).
"""

from __future__ import annotations

from typing import Any, Protocol

from .errors import InversesDisagree
from .groups import SampleStream

_INVERSE_GAP = 1e-9  # largest distance between e/x and x\e that inverse_of accepts


class Loop(Protocol):
    """What the checkers call on a loop.

    left_divide(a, b) returns x with a * x = b; right_divide(b, a)
    returns x with x * a = b.  ``sample`` draws one element and returns
    it with the advanced stream.
    """

    identity: Any

    def mul(self, a, b): ...
    def left_divide(self, a, b): ...
    def right_divide(self, b, a): ...
    def distance(self, a, b) -> float: ...
    def sample(self, stream: SampleStream) -> tuple: ...


def _draw(loop: Loop, stream: SampleStream, count: int):
    out = []
    for _ in range(count):
        x, stream = loop.sample(stream)
        out.append(x)
    return out, stream


def check_loop_axioms(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residuals of e*x = x, x*e = x, a*(a\\b) = b and (b/a)*a = b."""
    e = loop.identity
    worst = 0.0
    for _ in range(count):
        (a, b), stream = _draw(loop, stream, 2)
        worst = max(worst, loop.distance(loop.mul(e, a), a))
        worst = max(worst, loop.distance(loop.mul(a, e), a))
        worst = max(worst, loop.distance(loop.mul(a, loop.left_divide(a, b)), b))
        worst = max(worst, loop.distance(loop.mul(loop.right_divide(b, a), a), b))
    return worst


def check_bol(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of x(y . xz) = (x . yx)z over sampled triples."""
    worst = 0.0
    for _ in range(count):
        (x, y, z), stream = _draw(loop, stream, 3)
        lhs = loop.mul(x, loop.mul(y, loop.mul(x, z)))
        rhs = loop.mul(loop.mul(x, loop.mul(y, x)), z)
        worst = max(worst, loop.distance(lhs, rhs))
    return worst


def inverse_of(loop: Loop, x):
    """Two-sided inverse e/x, checked to coincide with x\\e."""
    right = loop.right_divide(loop.identity, x)
    left = loop.left_divide(x, loop.identity)
    gap = loop.distance(right, left)
    if gap > _INVERSE_GAP:
        raise InversesDisagree(f"e/x and x\\e differ by {gap:.3e}")
    return right


def check_aip(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of the automorphic inverse property (xy)^-1 = x^-1 y^-1."""
    worst = 0.0
    for _ in range(count):
        (x, y), stream = _draw(loop, stream, 2)
        lhs = inverse_of(loop, loop.mul(x, y))
        rhs = loop.mul(inverse_of(loop, x), inverse_of(loop, y))
        worst = max(worst, loop.distance(lhs, rhs))
    return worst


def check_left_a(loop: Loop, stream: SampleStream, count: int) -> float:
    """Residual of lambda_{x,y}(u*v) = lambda_{x,y}(u) * lambda_{x,y}(v),
    where lambda_{x,y}(w) = (x*y) \\ (x*(y*w)).

    The map is evaluated through divisions, so no translation ever has to
    be inverted as a map.
    """

    def lam(x, y, w):
        return loop.left_divide(loop.mul(x, y), loop.mul(x, loop.mul(y, w)))

    worst = 0.0
    for _ in range(count):
        (x, y, u, v), stream = _draw(loop, stream, 4)
        lhs = lam(x, y, loop.mul(u, v))
        rhs = loop.mul(lam(x, y, u), lam(x, y, v))
        worst = max(worst, loop.distance(lhs, rhs))
    return worst
