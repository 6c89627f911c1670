"""The loop protocol, numeric checkers for loop identities, and the driver
that runs checks as steps.

A loop here is a carrier with a binary operation, a two-sided identity,
and unique left/right division; associativity is not assumed.  Both loops
of the package, ``MatrixLoop`` and ``ExtensionConfig``, satisfy the
``Loop`` protocol.  The identities measure residual distances rather than
booleans: each returns one residual per sample, unfolded, and the suite's
runner alone folds them and judges the fold against its fixed acceptance
bound.  An identity takes its samples as element stacks, one per slot
(the i-th elements of the stacks are sample i), and draws nothing itself.

Every identity is written as steps, a generator that runs it level by
level.  At each level it yields its requests, a non-empty list of
``(loop, operation, operands)``: the name of a ``Loop`` operation and its
operand stacks, all of one length.  It receives their results in the same
order and finally returns its value.  Within a level the independent
operations of one kind (``x*z`` with ``y*x``, the three inverses of AIP)
may be one request on the operand stacks ``Loop.join`` concatenates, cut
back by ``linalg.pieces``; left-A's products and divisions and AIP's two
readings are requests of their own, which the driver joins while they
fit ``SHARE_BYTES`` and runs apart past it.  An identity asks for each
loop operation as soon as its operands exist, in the level of whatever
else it asks for then, so no product waits on a reading it does not use.

``drive`` advances many steps together.  Every operation of a loop rests
on a primitive, ``Loop.primitive``.  Both loops' products, divisions and
coordinates of subspaces rest on the one lift, ``LIFT``, whose waiting
requests of one form share a group, whichever loop they come from: each
loop states the (frame, block) pair each request lifts and finishes its
results from the factors (``Loop.lift_steps``), so one
``groups.positive_factor`` call serves both loops.  The extension loop's
distances of elements and of subspaces rest on one ``distance``; an
operation not named there is a primitive of its own.  While requests
wait, ``drive`` takes every waiting request of the oldest group of one
primitive (of one loop, or for the lift of one form), the readings
``distance`` and ``membership`` only when nothing else waits, and
``_call`` alone decides what shares a call.  While the group's operands,
counted as one n x n matrix per element, fit ``SHARE_BYTES``, it makes
one call: the requests of a primitive go to one ``Loop.run``, which
joins what it reads, and those of any other operation to one call of it
on their operands joined by ``Loop.join``, its result sliced back.  Past
the bound every request runs on its own.  A call on a stack gives each
element the bits a call of its own gives it, so only the number of calls
depends on who shares them.  A numeric breakdown in a shared call re-runs
it once per request, so only the steps whose own operands break fail,
each with the error its own call raises; a breakdown is thrown into its
steps, and one that escapes ends them.  Each steps' seconds are its own
time in the generator plus a share of every call it took part in, in
proportion to the elements it gave.

The checkers ``check_*`` are ``drive`` run on one generator, its
per-sample residuals folded by ``linalg.worst``, with max from 0:
appending samples can only raise the returned residual, and it is
deterministic given the elements.
"""

from __future__ import annotations

import time
from typing import Any, Protocol

import numpy as np

from .errors import BruckLoopsError, InversesDisagree
from .linalg import pieces, worst

INVERSE_GAP = 1e-9  # largest distance between e/x and x\e that inverse_of accepts
# Operations that read results rather than make them: a group of them runs
# only when nothing else waits, so every steps' readings share one call.
READINGS = ("distance", "membership")
# The primitive both loops share, the one lift: its waiting requests of one
# form share a group, whichever loop they come from.
LIFT = "positive_factor"
# The most bytes of operands, counted as one n x n matrix per element, that
# one call joins.  Sharing a call saves its fixed cost, which shows only on
# small stacks: two divisions' products took 0.73-0.80 of the time of two
# calls joined at 2 KiB, 0.89-0.94 at 32-36 KiB and 1.1-1.2 from 256 KiB on
# ((4,2,2) real, (3,2,1) and (6,3,3) complex).  A joined stack also holds
# all its temporaries at once: AIP's inverse gap at 1,000 samples and
# (20,10,10) complex peaked 229 MB above its draw joined, 127 MB apart.
SHARE_BYTES = 1 << 17

# A numeric breakdown fails the check whose operands raised it, not its caller.
BREAKDOWN = (BruckLoopsError, np.linalg.LinAlgError)


class Loop(Protocol):
    """What the checkers call on a loop.

    left_divide(a, b) returns x with a * x = b; right_divide(b, a)
    returns x with x * a = b.  Elements may be stacks, and the operations
    and ``distance`` act per element, broadcasting the single identity; a
    stack is indexed along its batch axis and ``len`` counts it.  ``join``
    concatenates its parts along the batch axis; a single element among
    them, such as the identity, first fills a stack of the length of the
    stacks it joins.  ``identity_like(x)`` is the identity filling the
    batch shape of ``x``, with no copy.  For the matrix loop an element is
    a plain array, for the extension loop a ``(w, rho)`` pair of arrays;
    either way the loop, not the element, holds the form.

    ``primitive`` maps each operation that shares a primitive to its name;
    ``run(requests)`` gives the result of each ``(loop, operation,
    operands)`` request of one primitive, from one call of it; a lift
    group's requests may come from either loop of the form.
    ``lift_steps(calls)`` are the loop's steps of a lift call on its own
    ``(operation, operands)`` calls: they yield the (frame, block) pair each
    lifts, receive the factors and return the results.  ``form`` is the
    loop's ``SignatureForm``.
    """

    identity: Any
    primitive: dict
    form: Any

    def join(self, *parts): ...
    def identity_like(self, x): ...
    def run(self, requests: list) -> list: ...
    def lift_steps(self, calls: list): ...
    def mul(self, a, b): ...
    def left_divide(self, a, b): ...
    def right_divide(self, b, a): ...
    def distance(self, a, b): ...


def step(loop: Loop, operation: str, *operands):
    """One loop operation as a level of steps:
    ``result = yield from step(loop, "mul", a, b)``."""
    (result,) = yield [(loop, operation, operands)]
    return result


class Outcome:
    """What driving one steps generator gave: its value, or the breakdown
    that ended it, and its seconds.  A slotted class the driver fills in:
    like every value type of the package it is no dataclass, whose
    decoration would add about a millisecond to every command's import
    (``linalg.refuse_assignment`` states the rule)."""

    __slots__ = ("value", "error", "seconds")

    def __init__(self, value: Any = None, error: Exception | None = None):
        self.value, self.error, self.seconds = value, error, 0.0


def drive(steps: list) -> list:
    """Advance every generator of ``steps`` together and return the
    ``Outcome`` of each, in order; see the module docstring."""
    outcomes = [Outcome() for _ in steps]
    levels = [None] * len(steps)  # per steps: the results of its requests while it waits
    waiting = [0] * len(steps)  # per steps: how many of its requests still wait
    groups = {}  # (loop, primitive) -> its waiting requests and their (steps index, request index), oldest first

    def advance(i: int, results=None, error=None) -> None:
        t0 = time.perf_counter()
        try:
            requests = steps[i].send(results) if error is None else steps[i].throw(error)
        except StopIteration as stop:
            outcomes[i].value = stop.value
        except BREAKDOWN as exc:
            outcomes[i].error = exc
        else:
            levels[i], waiting[i] = [None] * len(requests), len(requests)
            for k, (loop, operation, operands) in enumerate(requests):
                name = loop.primitive.get(operation, operation)
                key = (loop.form if name == LIFT else id(loop), name)
                batch, places = groups.setdefault(key, ([], []))
                batch.append((loop, operation, operands))
                places.append((i, k))
        outcomes[i].seconds += time.perf_counter() - t0

    for i in range(len(steps)):
        advance(i)
    while groups:
        key = next((key for key in groups if key[1] not in READINGS), next(iter(groups)))
        batch, places = groups.pop(key)
        results = _call(batch, [outcomes[i] for i, _ in places])
        del batch  # the operands go before their steps build the next level's
        ready = []
        for (i, k), result in zip(places, results):
            levels[i][k] = result
            waiting[i] -= 1
            if not waiting[i]:
                ready.append(i)
        for i in ready:
            done, levels[i] = levels[i], None
            advance(i, done, next((r for r in done if isinstance(r, BREAKDOWN)), None))
    return outcomes


def _call(requests: list, outcomes: list) -> list:
    """The results of ``requests``, all of one loop and primitive: from one
    call while their operands fit ``SHARE_BYTES``, or when that call breaks
    down, from one call each; a request whose own call breaks down gets
    the exception.  Each call's seconds go to the outcomes of its requests,
    a shared call's in proportion to the elements each request gave."""
    loop, operation = requests[0][:2]
    counts = [len(operands[0]) for *_, operands in requests]
    total = sum(counts)
    if len(requests) > 1 and total * loop.form.matrix_bytes > SHARE_BYTES:
        return [_call([request], [outcome])[0] for request, outcome in zip(requests, outcomes)]
    t0 = time.perf_counter()
    try:
        if operation in loop.primitive:
            results = loop.run(requests)
        else:
            operands = [loop.join(*parts) for parts in zip(*(request[2] for request in requests))]
            results = pieces(getattr(loop, operation)(*operands), counts)
    except BREAKDOWN as exc:
        results = exc
    elapsed = time.perf_counter() - t0
    for outcome, count in zip(outcomes, counts):
        outcome.seconds += elapsed * (count / total if total else 1 / len(requests))
    if isinstance(results, BREAKDOWN):
        if len(requests) == 1:
            return [results]
        # its traceback holds this frame, which holds it: dropped now, the
        # cycle would keep every request's operands until a collection
        del results
        return [_call([request], [outcome])[0] for request, outcome in zip(requests, outcomes)]
    return results


def run(steps):
    """The value of one steps generator driven alone; the breakdown that
    ended it is raised."""
    (outcome,) = drive([steps])
    if outcome.error is not None:
        raise outcome.error
    return outcome.value


def loop_axioms(loop: Loop, a, b):
    """Steps: per sampled pair, the worst residual of e*x = x, x*e = x,
    a*(a\\b) = b and (b/a)*a = b: both divisions, then the four products
    as one ``mul``."""
    e = loop.identity
    left, right = yield [(loop, "left_divide", (a, b)), (loop, "right_divide", (b, a))]
    products = yield from step(loop, "mul", loop.join(e, a, a, right), loop.join(a, e, left, a))
    d = yield from step(loop, "distance", products, loop.join(a, a, b, b))
    return d.reshape(4, -1).max(axis=0)  # a view: row k is the k-th check of every pair


def bol(loop: Loop, x, y, z):
    """Steps: the residual of x(y . xz) = (x . yx)z per sampled triple,
    both sides together: one ``mul`` per level."""
    halves = [len(x)] * 2
    xz, yx = pieces((yield from step(loop, "mul", loop.join(x, y), loop.join(z, x))), halves)
    y_xz, x_yx = pieces((yield from step(loop, "mul", loop.join(y, x), loop.join(xz, yx))), halves)
    lhs, rhs = pieces((yield from step(loop, "mul", loop.join(x, x_yx), loop.join(y_xz, z))), halves)
    return (yield from step(loop, "distance", lhs, rhs))


def _inverses(loop: Loop, x):
    """Steps: the right inverse e/x and the left inverse x\\e, per
    element, as one level."""
    e = loop.identity_like(x)  # a view: filled by a shared call's join, passed as it is alone
    return (yield [(loop, "right_divide", (e, x)), (loop, "left_divide", (x, e))])


def inverse_gap(loop: Loop, x):
    """Steps: the right inverse e/x and its distance to the left inverse
    x\\e, per element."""
    right, left = yield from _inverses(loop, x)
    return right, (yield from step(loop, "distance", right, left))


def _two_sided(right, gap):
    """The right inverses, once each is checked to coincide with its left
    inverse."""
    if np.any(gap > INVERSE_GAP):
        raise InversesDisagree(f"e/x and x\\e differ by {np.max(gap):.3e}")
    return right


def inverse_of(loop: Loop, x):
    """Two-sided inverse e/x, checked per element to coincide with x\\e."""
    return _two_sided(*run(inverse_gap(loop, x)))


def aip(loop: Loop, x, y):
    """Steps: the residual of the automorphic inverse property
    (xy)^-1 = x^-1 y^-1 per sampled pair; the inverses of xy, x and y are
    one level of divisions.  The product x^-1 y^-1 is the next level, so a
    breakdown in it ends the steps before the inverses are checked to be
    two-sided, and both readings, the inverses' gap and the residual, are
    the last."""
    xy = yield from step(loop, "mul", x, y)
    right, left = yield from _inverses(loop, loop.join(xy, x, y))
    lhs, inv_x, inv_y = pieces(right, [len(x)] * 3)
    rhs = yield from step(loop, "mul", inv_x, inv_y)
    gap, d = yield [(loop, "distance", (right, left)), (loop, "distance", (lhs, rhs))]
    _two_sided(right, gap)
    return d


def left_a(loop: Loop, x, y, u, v):
    """Steps: the residual of lambda_{x,y}(u*v) = lambda_{x,y}(u) *
    lambda_{x,y}(v) per sampled tuple, where lambda_{x,y}(w) =
    (x*y) \\ (x*(y*w)).

    The map is evaluated through divisions, so no translation ever has to
    be inverted as a map.  Each product and division is asked for as soon
    as its operands exist, as a request of its own: xy, uv, y*u and y*v
    first, so lambda(u) and lambda(v) wait on no product with uv, and the
    identity takes four levels of products and divisions.
    """
    xy, uv, yu, yv = yield [(loop, "mul", pair) for pair in ((x, y), (u, v), (y, u), (y, v))]
    y_uv, x_yu, x_yv = yield [(loop, "mul", pair) for pair in ((y, uv), (x, yu), (x, yv))]
    x_y_uv, lam_u, lam_v = yield [
        (loop, "mul", (x, y_uv)), (loop, "left_divide", (xy, x_yu)), (loop, "left_divide", (xy, x_yv))]
    lam_uv, rhs = yield [(loop, "left_divide", (xy, x_y_uv)), (loop, "mul", (lam_u, lam_v))]
    return (yield from step(loop, "distance", lam_uv, rhs))


def check_loop_axioms(loop: Loop, a, b) -> float:
    """The worst residual of the loop axioms over the sampled pairs."""
    return worst(run(loop_axioms(loop, a, b)))


def check_bol(loop: Loop, x, y, z) -> float:
    """The worst residual of the left Bol identity over the sampled triples."""
    return worst(run(bol(loop, x, y, z)))


def check_aip(loop: Loop, x, y) -> float:
    """The worst residual of the automorphic inverse property over the
    sampled pairs; InversesDisagree when the loop lacks two-sided inverses.
    A breakdown in the product x^-1 y^-1 is raised before that check."""
    return worst(run(aip(loop, x, y)))


def check_left_a(loop: Loop, x, y, u, v) -> float:
    """The worst residual of the left-A property over the sampled tuples."""
    return worst(run(left_a(loop, x, y, u, v)))
