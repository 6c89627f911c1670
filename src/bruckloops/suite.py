"""The verification suite: the property table, its draw and its runner.

The suite is one table, ``PROPERTIES``: each row names its report entries
and their keys in the fixed bounds table ``TOLERANCES``, its sample-count
key (which also selects its slot of the seed's stream), whether it is
required, its default count, its per-sample draw layout (kinds of value,
keys of ``PARTS``) and its ``steps``, which return each entry's residual
per sample, unfolded.  ``layout`` works out every row's part widths once
a verify, for ``stream_slots`` and ``draw_parts``.  ``draw_parts`` draws the
uniforms of a run of rows' samples, each from the row's own slot, in one
splitmix64 pass, and evaluates each kind's chart over the run in one call,
so a verify at small counts, one run, makes one Sigma chart call and one
Phi chart call, and each row gets its values as slices.

A row's steps are a generator in the kernel's step protocol: at each
dependency level it yields its requests, each one request on the joined
stacks of its elements, and it returns one residual per sample for each
entry, as the kernel's identities do.  Every row but ``transversality``,
which finishes at its first step, asks for its loop work this way:
``factorization`` its positive factor as a matrix product,
``solve_translation`` the coordinates and the right divisions of its
exact and perturbed pairs and its mapping residual, each on their
flattened stack, and the closure rows their membership residuals, a
request that, like the distances, runs only when nothing else waits.

The suite keeps one memory rule, ``extension.PASS_BYTES`` of values,
counted as n x n matrices, and cuts by it as the dimension check does,
through ``extension.passes``: in one walk over the rows, ``_runs`` cuts a
row whose draw is larger into slices of consecutive samples, each drawing
from the row's stream where a whole draw would reach its first sample, so
every value keeps its bits, and packs consecutive slices into runs, as
many as fit ``_STEPS_BYTES`` of drawn values (every row, whole, at small
counts).  ``run_suite`` draws each run just before it hands the run's
steps to one ``kernel.drive``, a slice whose draw broke down as steps
that raise it, and keeps only the text of a breakdown, so a verify holds
one pass's draws at a time.  ``_entries`` is the one fold of the report:
a row's per-sample stacks, over all its slices, fold into its entries,
residuals by max from 0 and ``detail`` values (``worst_margin``) by min,
and its seconds by sum; the first slice that breaks down ends the row with
its own text.

The driver advances the steps together: the waiting requests of one loop
and primitive share one call, whatever row and operation they come from
(the matrix loop's products and divisions one ``positive_factor`` call,
the extension loop's products, left divisions and coordinates one
``omega`` call, its distances of elements and of subspaces one QR call),
so a verify makes far fewer calls than its rows make levels, and every
residual keeps the bits of its row run alone.
A numeric breakdown (any package error or ``LinAlgError``) in a shared
call is re-run request by request, so it fails only the rows whose own
operands break.  A breakdown inside a row, or inside a chart
serving it, becomes failed entries carrying ``detail.error``, so the
report is still written.  A check inside a stacked call covers the whole
stack, so ``detail.error`` names the worst matrix of the slice's stack,
not the first failing sample, and a sample index in it, such as
transversality's, counts from the slice's first sample.  A row's
``seconds`` are its own time in its steps plus a share of every call it
took part in, in proportion to the elements it gave.

``run_suite`` samples from a resolved ``ExtensionConfig``, which holds the
form and the matrix loop; it reads no file and parses no argument.  The
acceptance bounds are constants, not settings.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .groups import (
    MEMBERSHIP_TOLERANCE,
    SampleStream,
    conjugate_by_phi,
    phi_from_uniforms,
    phi_width,
    require_isometry,
    sample_parts,
    scale,
    sigma_from_uniforms,
    sigma_width,
    unit_uniforms,
)
from .kernel import BREAKDOWN, INVERSE_GAP, aip, bol, drive, inverse_gap, left_a, loop_axioms, step
from .linalg import fro, pieces, worst

# The fixed acceptance bound of each kind of report entry; every entry
# carries its bound as ``tolerance``.
TOLERANCES = {
    "identity": 1e-8,
    "membership": MEMBERSHIP_TOLERANCE,
    "factor": 1e-8,
    "factor_reconstruction": 1e-10,
    "solve": 1e-8,
    "solve_stability": 1e-6,
    "inverse": INVERSE_GAP,
}


# Draw part kind -> (how many uniforms one value draws on a loop, the chart
# mapping unit uniforms (m, width) to a stack of m values).  A ``point`` is
# an extension element's transversal point, which with the ``sigma`` after
# it makes the element; ``noise`` jiggles both of solve_translation's
# subspaces, n (k + 1) values each: the base, then the frame row-major.
PARTS = {
    "sigma": (lambda loop: sigma_width(loop.form), lambda loop, u: sigma_from_uniforms(loop.form, u)),
    "phi": (lambda loop: phi_width(loop.form), lambda loop, u: phi_from_uniforms(loop.form, u)),
    "point": (lambda loop: loop.point_width, lambda loop, u: loop.point_from_uniforms(u)),
    "noise": (lambda loop: 2 * loop.form.n * (loop.carrier_dim + 1), lambda loop, u: scale(u, -1e-10, 1e-10)),
}
_ELEMENT = ("point", "sigma")  # the layout of one extension element


# One row of the verification suite.
#
# ``key`` names the row's sample count and selects its slot of the seed's
# stream.  ``entries`` are the report entries the row fills, as ``(entry
# name, TOLERANCES key)`` pairs.  ``draw`` is what one sample draws, in draw
# order, as ``PARTS`` kinds.  ``steps(loop, *parts)`` takes one stack per
# part of the layout, whose i-th values sample i drew, and is a generator in
# the kernel's step protocol that returns, for each entry, a stack of one
# residual per sample, and a dict of per-sample stacks for the report's
# ``detail``, or None.  Every row is batched: one request per loop operation
# per dependency level on the joined stacks.  The row folds nothing;
# ``_entries`` does.
Property = namedtuple("Property", "key default_samples required entries draw steps")


def _on_lifts(identity: Callable) -> Callable:
    """A kernel identity's steps as a row on the matrix loop of the lifts."""

    def steps(loop: ext.ExtensionConfig, *xs):
        return ((yield from identity(loop.mat, *xs)),), None

    return steps


def _on_elements(identity: Callable) -> Callable:
    """A kernel identity's steps as a row on the extension loop."""

    def steps(loop: ext.ExtensionConfig, *parts):
        return ((yield from identity(loop, *_elements(parts))),), None

    return steps


def _elements(parts) -> list:
    """The extension elements of consecutive (point, Sigma) part pairs."""
    return [ext.ExtensionElement(w, rho) for w, rho in zip(parts[0::2], parts[1::2])]


def _sigma_closure(loop: ext.ExtensionConfig, a, b):
    product = yield from step(loop.mat, "mul", a, b)
    return ((yield from step(loop.mat, "membership", product)),), None


def _conjugation_closure(loop: ext.ExtensionConfig, a, b):
    return ((yield from step(loop.mat, "membership", conjugate_by_phi(a, b))),), None


def _factorization(loop: ext.ExtensionConfig, s1, c):
    """Recovery of both sampled factors, and the relative reconstruction,
    from ``polar_factorize`` of m = s1 c: its check inline, its positive
    factor sqrt(m m*) as the matrix loop's product s1 * c."""
    m = s1 @ c
    require_isometry(m, loop.form)
    f1 = yield from step(loop.mat, "mul", s1, c)
    f2 = (f1 * loop.form.signs()) @ m
    recovery = np.maximum(np.abs(f1 - s1), np.abs(f2 - c)).max(axis=(-2, -1))
    return (recovery, fro(f1 @ f2 - m) / fro(m)), None


def _transversality(loop: ext.ExtensionConfig, rhos):
    yield from ()  # a row that calls no loop operation finishes at its first step
    margins = geometry.transversality_check(loop.wtilde, rhos, loop.carrier_subspace())
    return (np.zeros(len(margins)),), {"worst_margin": margins}


def _ext_infinity_compat(loop: ext.ExtensionConfig, *parts):
    """``cfg.mul``'s direction part, the lift of the carrier columns of
    rho1 rho2, against the matrix loop's product rho1 * rho2 read off the
    complementary block's columns (``mul`` for carrier 1, ``mul_w1`` for
    carrier 2): two computations of the same element that share only the
    lift's last step, the spectral call and the assembly from a graph
    block and a p2 x p2 Gram matrix, each read off its own columns."""
    e1, e2 = _elements(parts)
    prod, lifts = yield [(loop, "mul", (e1, e2)), (loop.mat, ("mul", "mul_w1")[loop.carrier - 1], (e1.rho, e2.rho))]
    return (fro(prod.rho - lifts),), None


def _ext_aip(loop: ext.ExtensionConfig, w, rho):
    """The extension loop need not have two-sided inverses, without which
    the AIP cannot be stated, so the entry records the left/right inverse
    gap, judged against the kernel's inverse bound: ``pass`` says whether
    the sampled elements have two-sided inverses."""
    _, gap = yield from inverse_gap(loop, ext.ExtensionElement(w, rho))
    return (gap,), None


def _solve_translation(loop: ext.ExtensionConfig, w1, rho1, w2, rho2, noise):
    """Sharp transitivity, and the solution's drift when both subspaces, in
    canonical form, are moved by 1e-10.  Both elements of a sample are
    realized and canonicalized as one stack; the coordinates of the exact
    and perturbed pairs are one ``coordinates`` request, their right
    divisions one request, and the mapping residual one
    ``subspace_distance`` request, each on the flattened stack.

    The drift reads the conditioning of the map from subspace pairs to
    their translation, not rounding: it is exactly linear in the jiggle (a
    ratio of 315 from 1e-12 to 1e-7 at (7,4,3) complex ``boost:3``) and
    grows with n, from 2.4e-9 at (3,2,1) real to 2.9e-7 at (16,8,8) complex
    and 1.0-1.4e-6 at (20,10,10) complex, so more accurate arithmetic does
    not lower it."""
    realized = ext.realize(ext.ExtensionElement(np.stack([w1, w2]), np.stack([rho1, rho2])), loop)
    d = geometry.subspace(realized.base, realized.frame)  # d[0] is d1, d[1] is d2
    dp = _perturb(d, noise.reshape(len(noise), 2, noise.shape[-1] // 2).swapaxes(0, 1))
    # index (d1 | d2, exact | perturbed, sample)
    pairs = geometry.AffineSubspace(np.stack([d.base, dp.base], axis=1), np.stack([d.frame, dp.frame], axis=1))
    both = yield from step(loop, "coordinates", pairs.reshape((-1,)))
    both = both.reshape(pairs.base.shape[:-1])
    x = yield from step(loop, "right_divide", both[1].reshape((-1,)), both[0].reshape((-1,)))
    x = x.reshape(both.w.shape[1:-1])  # index 0 exact, 1 perturbed
    t, rho = x.w, x.rho
    moved = geometry.apply(rho[0], d[0], t[0])
    stability = fro(t[1] - t[0], axis=-1) + fro(rho[1] - rho[0])
    return ((yield from step(loop, "subspace_distance", moved, d[1])), stability), None


def _perturb(s, noise: np.ndarray):
    """A nearby representative of (almost) the same subspace, or of each of
    a stack: its base and then its frame entries, row-major, jiggled by
    ``noise`` (..., n (k + 1))."""
    n, k = s.frame.shape[-2:]
    base = s.base + noise[..., :n].astype(s.base.dtype)
    frame = s.frame + noise[..., n:].reshape(noise.shape[:-1] + (n, k)).astype(s.frame.dtype)
    return geometry.AffineSubspace(base, frame)


# One row per property, in run order: sample-count key, default count,
# required, (entry name, TOLERANCES key) pairs, draw layout, steps.
PROPERTIES = (
    Property("loop_axioms", 500, True, (("loop_axioms", "identity"),), ("sigma",) * 2, _on_lifts(loop_axioms)),
    Property("sigma_closure", 1000, True, (("sigma_closure", "membership"),), ("sigma",) * 2,
             _sigma_closure),
    Property("bol", 1000, True, (("bol", "identity"),), ("sigma",) * 3, _on_lifts(bol)),
    Property("aip", 1000, True, (("aip", "identity"),), ("sigma",) * 2, _on_lifts(aip)),
    Property("left_a", 500, False, (("left_a", "identity"),), ("sigma",) * 4, _on_lifts(left_a)),
    Property("conjugation_closure", 500, True, (("conjugation_closure", "membership"),), ("sigma", "phi"),
             _conjugation_closure),
    Property("factorization", 500, True,
             (("factorization_recovery", "factor"),
              ("factorization_reconstruction", "factor_reconstruction")),
             ("sigma", "phi"), _factorization),
    Property("transversality", 200, True, (("transversality", "membership"),), ("sigma",), _transversality),
    Property("ext_loop_axioms", 500, True, (("ext_loop_axioms", "identity"),), _ELEMENT * 2,
             _on_elements(loop_axioms)),
    Property("ext_infinity_compat", 500, True, (("ext_infinity_compat", "membership"),), _ELEMENT * 2,
             _ext_infinity_compat),
    Property("ext_bol", 100, False, (("ext_bol", "identity"),), _ELEMENT * 3, _on_elements(bol)),
    Property("ext_aip", 100, False, (("ext_aip", "inverse"),), _ELEMENT, _ext_aip),
    Property("solve_translation", 200, True,
             (("solve_translation", "solve"), ("solve_translation_stability", "solve_stability")),
             _ELEMENT * 2 + ("noise",), _solve_translation),
)

DEFAULT_SAMPLES = {row.key: row.default_samples for row in PROPERTIES} | {"dimension_points": 20}

# The most samples a row, or a ``sample`` call, may draw.  A verify draws,
# per sample over all rows, 26 Sigma and 2 Phi elements, 10 transversal
# points and one noise draw, so at 100,000 samples a row 2.8 million n x n
# matrices, 200 MB at (3,2,1) real and 1.6 GB at (6,3,3) complex, though
# it holds only one pass's draws at a time.  A larger count is refused
# before anything is drawn rather than left to exhaust memory or overflow
# the draw.
MAX_SAMPLES = 100_000

# The most bytes of drawn values, counted as n x n matrices, whose rows are
# driven together.  Sharing a call saves its fixed cost, which shows only
# on small stacks: 256 KiB takes every row of a verify at 8 samples a row
# up to n = 6 complex in one run.  A default-count row, thousands of
# values, runs alone or with few others, as larger shared stacks would
# only cost memory and cache.
_STEPS_BYTES = 1 << 18

# Entries whose residuals carry no pass requirement; they are measured and
# reported only.
INFORMATIONAL = frozenset(name for row in PROPERTIES if not row.required for name, _ in row.entries)


def held_matrices(counts: dict) -> int:
    """How many n x n matrices a verify draws, of which it holds at most
    ``extension.PASS_BYTES`` at a time: each row's count times the Sigma
    and Phi parts of its layout."""
    return sum(counts[row.key] * sum(kind in ("sigma", "phi") for kind in row.draw) for row in PROPERTIES)


def _runs(streams: dict, counts: dict, widths: dict, value_bytes: int) -> list:
    """Every row's samples, in row order, as runs of slices
    ``(row, stream, count)``, in one walk over the rows.  A row is cut by
    ``extension.passes`` into slices of consecutive samples, each drawing
    at most ``extension.PASS_BYTES`` of values of ``value_bytes`` from the
    row's stream in ``streams`` split where a draw of the whole row reaches
    its first sample, for the row ``widths`` of ``layout`` (a row of no
    samples is one empty slice); consecutive slices are packed into runs
    drawing at most ``_STEPS_BYTES`` (a larger slice is a run alone)."""
    runs, left = [], 0
    for row in PROPERTIES:
        width, sample_bytes = sum(widths[row.key]), len(row.draw) * value_bytes
        for cut in ext.passes(counts[row.key], sample_bytes):
            count = cut.stop - cut.start
            if not runs or count * sample_bytes > left:
                runs.append([])
                left = _STEPS_BYTES
            runs[-1].append((row, streams[row.key].split(cut.start * width), count))
            left -= count * sample_bytes
    return runs


def _chart(loop: ext.ExtensionConfig, kind: str, us: list) -> list:
    """The values of ``kind`` that each stack of unit uniforms in ``us``
    (m, width) draws, one stack for each, from one chart call on them all
    (an empty draw is one call on the empty stack); or, for each, the
    breakdown the chart raised."""
    try:
        values = PARTS[kind][1](loop, np.concatenate(us))
    except BREAKDOWN as exc:
        return [exc] * len(us)
    return pieces(values, [len(x) for x in us])


def layout(loop: ext.ExtensionConfig) -> dict:
    """How many uniforms each part of one sample of each row draws, by row
    key: each kind's width worked out once, for the whole verify."""
    width = {kind: part_width(loop) for kind, (part_width, _) in PARTS.items()}
    return {row.key: [width[kind] for kind in row.draw] for row in PROPERTIES}


def stream_slots(loop: ext.ExtensionConfig, counts: dict, widths: dict) -> dict:
    """Where each row, and the dimension check, draws on the seed's stream:
    (offset, uniforms drawn) by sample-count key, for the row ``widths`` of
    ``layout``.  Key k in sorted order starts at (k + 1) strides, a stride
    being 10,000,000 or the largest draw if that is larger, so no two draws
    share a uniform."""
    sizes = {row.key: counts[row.key] * sum(widths[row.key]) for row in PROPERTIES}
    sizes["dimension_points"] = counts["dimension_points"] * ext.expected_dimension(loop)
    stride = max(10_000_000, *sizes.values())
    return {key: ((k + 1) * stride, sizes[key]) for k, key in enumerate(sorted(sizes))}


def draw_parts(loop: ext.ExtensionConfig, widths: dict, slices: list) -> list:
    """The drawn values of each of ``slices``, in order: one stack per part
    of its row's layout, of the row ``widths`` of ``layout``, or the
    breakdown a chart serving the slice raised.

    A slice ``(row, stream, count)`` draws ``count`` samples' uniforms from
    ``stream``, sample by sample in layout order, as a sample-by-sample
    draw would; every stream is on one seed.  One ``unit_uniforms`` pass
    draws every slice's uniforms, and each kind's uniforms, pooled over
    the slices in order, go through one call of its chart and are sliced
    back; a kind no slice draws makes no call.  A stacked chart call gives
    each value the bits it gets alone."""
    sizes = [count * sum(widths[row.key]) for row, _, count in slices]
    counters = [stream.counters(size) for (_, stream, _), size in zip(slices, sizes)]
    u = unit_uniforms(slices[0][1].seed, counters[0] if len(counters) == 1 else np.concatenate(counters))
    del counters  # before the charts; a lone slice's went to the pass uncopied
    pooled = {kind: [] for kind in PARTS}  # each kind's uniforms, part by part in slice order
    for (row, _, count), part_uniforms in zip(slices, pieces(u, sizes)):
        for kind, part in zip(row.draw, sample_parts(part_uniforms, count, widths[row.key])):
            pooled[kind].append(part)
    values = {kind: iter(_chart(loop, kind, us)) for kind, us in pooled.items() if us}
    drawn = []
    for row, *_ in slices:
        parts = [next(values[kind]) for kind in row.draw]
        drawn.append(next((p for p in parts if isinstance(p, Exception)), parts))
    return drawn


def _entries(row: Property, count: int, outcomes: list) -> list:
    """The report entries of one row from the ``Outcome`` of its steps on
    each of its slices: the suite's one fold.  Each entry's per-sample
    residuals, over all slices, fold by max from 0, each ``detail`` stack
    (transversality's ``worst_margin``) by min, and the slices' seconds by
    sum; a ``detail`` stack of no samples writes no value, as strict JSON
    refuses the empty min, inf.  The row's seconds go on its first entry; a
    companion entry records 0 seconds and names that entry in
    ``detail.timed_with``.  A breakdown, which ends the row at its slice,
    fails every entry with residual 1.0 and the exception text in
    ``detail.error``."""
    broke = next((outcome.error for outcome in outcomes if outcome.error is not None), None)
    if broke is None:
        stacks, details = zip(*(outcome.value for outcome in outcomes))
        residuals = [worst(*entry) for entry in zip(*stacks)]
        detail = {key: float(np.min(values)) for key in details[0] or ()
                  if (values := np.concatenate([d[key] for d in details])).size}
    else:
        residuals, detail = (1.0,) * len(row.entries), {"error": str(broke)}
    first = row.entries[0][0]
    entries = []
    for (name, tol_key), residual in zip(row.entries, residuals):
        tolerance = TOLERANCES[tol_key]
        entry = {
            "property": name,
            "samples": count,
            "max_residual": residual,
            "tolerance": tolerance,
            "pass": broke is None and residual <= tolerance,
            "required": row.required,
            "seconds": sum(outcome.seconds for outcome in outcomes) if name == first else 0.0,
        }
        info = dict(detail or {})
        if name != first:
            info["timed_with"] = first
        if info:
            entry["detail"] = info
        entries.append(entry)
    return entries


def _drop_frames(error: BaseException | None) -> None:
    """Clear the tracebacks of ``error`` and of the exceptions chained to
    it: they hold the frames of the steps and calls it passed through, and
    so the draws of its run, in cycles that only a collection would free,
    while the report reads only its text."""
    chained, seen = [error], set()
    while chained:
        exc = chained.pop()
        if exc is not None and id(exc) not in seen:
            seen.add(id(exc))
            exc.__traceback__ = None
            chained += [exc.__cause__, exc.__context__]


def _raising(error: Exception):
    """Steps that end at their first step with ``error``: a slice whose
    draw broke down, driven, so its outcome is made as every slice's."""
    raise error
    yield  # a generator


def run_suite(loop: ext.ExtensionConfig, counts: dict, seed: int) -> dict:
    """Cut the rows of PROPERTIES into slices of at most
    ``extension.PASS_BYTES`` of drawn values, packed into runs of at most
    ``_STEPS_BYTES`` (``_runs``).  For each run, draw its slices, each from
    its row's slot of the seed's stream, and drive their steps together, a
    slice whose draw broke down as steps that raise it, skipping the slices
    of a row that broke down, so a verify holds one run's draws at a time,
    and of a breakdown it keeps only the text.  Fold each row's slices into
    its entries, then run the dimension check on its slot, and return the
    report's ``properties``, ``dimension`` and ``pass``."""
    base, widths = SampleStream(seed), layout(loop)
    streams = {key: base.split(offset) for key, (offset, _) in stream_slots(loop, counts, widths).items()}
    outcomes = {row.key: [] for row in PROPERTIES}
    for run in _runs(streams, counts, widths, loop.form.matrix_bytes):
        run = [piece for piece in run if all(outcome.error is None for outcome in outcomes[piece[0].key])]
        if not run:
            continue
        steps = [_raising(parts) if isinstance(parts, Exception) else row.steps(loop, *parts)
                 for (row, *_), parts in zip(run, draw_parts(loop, widths, run))]
        for (row, *_), outcome in zip(run, drive(steps)):
            _drop_frames(outcome.error)
            outcomes[row.key].append(outcome)
    entries = [entry for row in PROPERTIES for entry in _entries(row, counts[row.key], outcomes[row.key])]

    t0 = time.perf_counter()
    expected = ext.expected_dimension(loop)
    dim_entry = {"expected": expected, "measured": None, "gap_fraction": 0.0, "pass": False}
    try:
        dim = ext.dimension_rank_report(loop, counts["dimension_points"], streams["dimension_points"])
        dim_entry.update(
            measured=dim.rank, gap_fraction=dim.gap_fraction, points=dim.points, ranks=list(dim.ranks)
        )
        dim_entry["pass"] = dim.rank == expected
    except BREAKDOWN as exc:
        dim_entry.update(points=counts["dimension_points"], error=str(exc))
    dim_entry["seconds"] = time.perf_counter() - t0

    entries.sort(key=lambda e: e["property"])
    overall = all(e["pass"] for e in entries if e["required"]) and dim_entry["pass"]
    return {"properties": entries, "dimension": dim_entry, "pass": overall}
