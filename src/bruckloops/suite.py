"""The verification suite: the property table, its draw and its runner.

The suite is one table, ``PROPERTIES``: each row names its report entries
and their keys in the fixed bounds table ``TOLERANCES``, its sample-count
key (which also selects its slot of the seed's stream), whether it is
required, its default count, its per-sample draw layout (kinds of value,
keys of ``PARTS``) and its ``steps``, which return the worst residual of
each entry.  ``layout`` works out every row's part widths once a verify,
for ``stream_slots`` and ``draw_parts``.  ``draw_parts`` draws every row's
uniforms from the row's own slot, all rows in one splitmix64 pass at the
usual counts, and evaluates each kind's chart over all rows, in calls of
at most ``_CHART_BYTES`` of values, so a verify at small counts makes one
Sigma chart call and one Phi chart call, and each row gets its values as
slices.

A row's steps are a generator in the kernel's step protocol: at each
dependency level it yields its requests, each one request on the joined
stacks of its elements, and it folds the per-element residuals with max.
Every row but ``transversality``, which finishes at its first step, asks
for its loop work this way: ``factorization`` its positive factor as a
matrix product, ``solve_translation`` its right division on the flattened
stack of its exact and perturbed pairs, and the closure rows their
membership residuals, a request that, like ``distance``, runs only when
nothing else waits.  ``run_suite`` hands the steps of consecutive rows, as
many as fit ``_STEPS_BYTES`` of drawn values (all rows at small counts),
to one ``kernel.drive``, which advances them together: the waiting
requests of one loop and primitive share one call, whatever row and
operation they come from (the matrix loop's products and divisions one
``positive_factor`` call, the extension loop's products and left
divisions one ``omega`` call), so a verify makes far fewer calls than its
rows make levels, and every residual keeps the bits of its row run alone.
A numeric breakdown (any package error or ``LinAlgError``) in a shared
call is re-run request by request, so it fails only the rows whose own
operands break.  A breakdown inside a row, or inside a chart
serving it, becomes failed entries carrying ``detail.error``, so the
report is still written.  A check inside a stacked call covers the whole
stack, so ``detail.error`` names the worst matrix of the row's stack, not
the first failing sample.  A row's ``seconds`` are its own time in its
steps plus a share of every call it took part in, in proportion to the
elements it gave.

``run_suite`` samples from a resolved ``ExtensionConfig``, which holds the
form and the matrix loop; it reads no file and parses no argument.  The
acceptance bounds are constants, not settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from .kernel import BREAKDOWN, INVERSE_GAP, Outcome, aip, bol, drive, inverse_gap, left_a, loop_axioms, step
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


@dataclass(frozen=True)
class Property:
    """One row of the verification suite.

    ``key`` names the row's sample count and selects its slot of the
    seed's stream.  ``entries`` are the report entries the row fills, as
    ``(entry name, TOLERANCES key)`` pairs.  ``draw`` is what one sample
    draws, in draw order, as ``PARTS`` kinds.  ``steps(loop, *parts)``
    takes one stack per part of the layout, whose i-th values sample i
    drew, and is a generator in the kernel's step protocol that returns
    the worst residual of each entry and a ``detail`` dict for the report,
    or None.  Every row is batched: one request per loop operation per
    dependency level on the joined stacks, and a fold of the per-element
    residuals with max from 0.
    """

    key: str
    default_samples: int
    required: bool
    entries: tuple
    draw: tuple
    steps: Callable


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
    return (worst((yield from step(loop.mat, "membership", product))),), None


def _conjugation_closure(loop: ext.ExtensionConfig, a, b):
    return (worst((yield from step(loop.mat, "membership", conjugate_by_phi(a, b)))),), None


def _factorization(loop: ext.ExtensionConfig, s1, c):
    """Recovery of both sampled factors, and the relative reconstruction,
    from ``polar_factorize`` of m = s1 c: its check inline, its positive
    factor sqrt(m m*) as the matrix loop's product s1 * c."""
    m = s1 @ c
    require_isometry(m, loop.form)
    f1 = yield from step(loop.mat, "mul", s1, c)
    f2 = (f1 * loop.form.signs()) @ m
    recovery = worst(np.abs(f1 - s1), np.abs(f2 - c))
    return (recovery, worst(fro(f1 @ f2 - m) / fro(m))), None


def _transversality(loop: ext.ExtensionConfig, rhos):
    yield from ()  # a row that calls no loop operation finishes at its first step
    tr = geometry.transversality_check(loop.wtilde, rhos, loop.carrier_subspace())
    # with no sample checked the margin is still inf, which strict JSON refuses
    return (0.0,), {"worst_margin": tr.worst_margin} if tr.samples else None


def _ext_infinity_compat(loop: ext.ExtensionConfig, *parts):
    """ext_mul's direction part, the lift read off the image graph X,
    against the matrix loop product, the positive factor of rho1 rho2 read
    off its C12 and C22 blocks: two computations of the same element."""
    e1, e2 = _elements(parts)
    prod, lifts = yield [(loop, "mul", (e1, e2)), (loop.mat, "mul", (e1.rho, e2.rho))]
    return (worst(fro(prod.rho - lifts)),), None


def _ext_aip(loop: ext.ExtensionConfig, w, rho):
    """The extension loop need not have two-sided inverses, without which
    the AIP cannot be stated, so the entry records the left/right inverse
    gap, judged against the kernel's inverse bound: ``pass`` says whether
    the sampled elements have two-sided inverses."""
    _, gap = yield from inverse_gap(loop, ext.ExtensionElement(w, rho))
    return (worst(gap),), None


def _solve_translation(loop: ext.ExtensionConfig, w1, rho1, w2, rho2, noise):
    """Sharp transitivity, and the solution's drift when both subspaces, in
    canonical form, are moved by 1e-10.  Both elements of a sample are
    realized and canonicalized as one stack, and the exact and perturbed
    pairs are read by one ``omega`` call and divided by one request on
    their flattened stack.

    The drift reads the conditioning of the map from subspace pairs to
    their translation, not rounding: it is exactly linear in the jiggle (a
    ratio of 315 from 1e-12 to 1e-7 at (7,4,3) complex ``boost:3``) and
    grows with n, from 2.4e-9 at (3,2,1) real to 2.9e-7 at (16,8,8) complex
    and 1.0-1.4e-6 at (20,10,10) complex, so more accurate arithmetic does
    not lower it."""
    realized = ext.realize(ext.ExtensionElement(np.stack([w1, w2]), np.stack([rho1, rho2])), loop)
    d = geometry.subspace(realized.base, realized.frame)  # d[0] is d1, d[1] is d2
    dp = _perturb(d, noise.reshape(len(noise), 2, noise.shape[-1] // 2).swapaxes(0, 1))
    pairs = geometry.AffineSubspace(np.stack([d.base, dp.base]), np.stack([d.frame, dp.frame]))
    # one solve for (d1 | d1p) onto (d2 | d2p): index 0 exact, 1 perturbed
    both = ext.translation_operands(pairs[:, 0], pairs[:, 1], loop)
    x = yield from step(loop, "right_divide", both[0].reshape((-1,)), both[1].reshape((-1,)))
    x = x.reshape(both.w.shape[1:-1])
    t, rho = x.w, x.rho
    moved = geometry.apply(rho[0], d[0], t[0])
    stability = np.linalg.norm(t[1] - t[0], axis=-1) + fro(rho[1] - rho[0])
    return (worst(geometry.subspace_distance(moved, d[1])), worst(stability)), None


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

# The most samples a row, or a ``sample`` call, may draw.  A verify holds
# every row's drawn values at once: per sample over all rows, 26 Sigma and
# 2 Phi elements, 10 transversal points and one noise draw, so at 100,000
# samples a row 2.8 million n x n matrices, 200 MB at (3,2,1) real and
# 1.6 GB at (6,3,3) complex.  A larger count is refused before anything is
# drawn rather than left to exhaust memory or overflow the draw.
MAX_SAMPLES = 100_000

# The most uniforms one splitmix64 pass of the draw computes: MAX_SAMPLES
# times the widest layout, so pooling the rows' draws takes no larger pass
# than some row's own.
_DRAW_CHUNK = MAX_SAMPLES * max(len(row.draw) for row in PROPERTIES)

# The most bytes of values, counted as n x n matrices, that one chart call
# maps, as ``extension._CHART_BYTES`` bounds the dimension chart's passes.
# 8 MiB takes every value of a kind in one call at 8 samples a row up to
# n = 50 complex, and at the default counts up to n = 6 complex and n = 8
# real, and bounds the temporaries of a larger draw: the values of a kind
# are then assembled in one array, one call's worth at a time.
_CHART_BYTES = 1 << 23

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
    """How many n x n matrices a verify's draw holds at once: each row's
    count times the Sigma and Phi parts of its layout."""
    return sum(counts[row.key] * sum(kind in ("sigma", "phi") for kind in row.draw) for row in PROPERTIES)


def _packed(items: list, sizes: list, room: int) -> list:
    """``items`` in runs of consecutive items whose ``sizes`` sum to at most
    ``room``; a larger item is a run alone."""
    runs, left = [], 0
    for item, size in zip(items, sizes):
        if not runs or size > left:
            runs.append([])
            left = room
        runs[-1].append(item)
        left -= size
    return runs


def _chart(loop: ext.ExtensionConfig, kind: str, us: list) -> list:
    """The values of ``kind`` that each stack of unit uniforms in ``us``
    (m, width) draws, one stack for each, from chart calls on them all of
    at most ``_CHART_BYTES`` of values each (an empty draw is one call on
    the empty stack); or, for each, the breakdown the chart raised."""
    u, chart = np.concatenate(us), PARTS[kind][1]
    chunk = max(1, _CHART_BYTES // (loop.form.n**2 * np.dtype(loop.form.dtype).itemsize))
    try:
        values = chart(loop, u[:chunk])
        if len(u) > chunk:
            whole = np.empty((len(u),) + values.shape[1:], values.dtype)
            whole[:chunk] = values
            for k in range(chunk, len(u), chunk):
                whole[k : k + chunk] = chart(loop, u[k : k + chunk])
            values = whole
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


def draw_parts(loop: ext.ExtensionConfig, streams: dict, counts: dict, widths: dict) -> dict:
    """Every row's drawn values, by row key: one stack per part of its
    layout, of the row ``widths`` of ``layout``, or the breakdown a chart
    serving the row raised.

    Each row draws ``counts[key]`` samples' uniforms from ``streams[key]``,
    sample by sample in layout order, as a sample-by-sample draw would.
    Every stream is on one seed.  Consecutive rows draw together, one
    ``unit_uniforms`` pass over their counters per batch of at most
    ``_DRAW_CHUNK`` uniforms (a larger row is a batch alone), and each
    row's parts are sliced from it.  Each kind's uniforms, pooled over all
    rows in row order, go through its chart, in calls of at most
    ``_CHART_BYTES`` of values, and are sliced back.  A stacked chart call
    gives each value the bits it gets alone."""
    seed = streams[PROPERTIES[0].key].seed
    draws = [(row, streams[row.key], counts[row.key] * sum(widths[row.key])) for row in PROPERTIES]
    pooled = {kind: [] for kind in PARTS}  # each kind's uniforms, part by part in row order
    for batch in _packed(draws, [n for *_, n in draws], _DRAW_CHUNK):
        counters = [stream.counters(n) for _, stream, n in batch]  # a lone row's passed uncopied
        u = unit_uniforms(seed, counters[0] if len(batch) == 1 else np.concatenate(counters))
        del counters
        for (row, _, n), part_uniforms in zip(batch, pieces(u, [n for *_, n in batch])):
            for kind, part in zip(row.draw, sample_parts(part_uniforms, counts[row.key], widths[row.key])):
                pooled[kind].append(part)
    values = {kind: iter(_chart(loop, kind, us)) for kind, us in pooled.items()}
    drawn = {}
    for row in PROPERTIES:
        parts = [next(values[kind]) for kind in row.draw]
        drawn[row.key] = next((p for p in parts if isinstance(p, Exception)), parts)
    return drawn


def _entries(row: Property, count: int, outcome: Outcome) -> list:
    """The report entries of one row from the ``Outcome`` of its steps.
    The row's seconds go on its first entry; a companion entry records 0
    seconds and names that entry in ``detail.timed_with``.  A breakdown
    fails every entry with residual 1.0 and the exception text in
    ``detail.error``."""
    broke = outcome.error
    if broke is None:
        residuals, detail = outcome.value
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
            "seconds": outcome.seconds if name == first else 0.0,
        }
        info = dict(detail or {})
        if name != first:
            info["timed_with"] = first
        if info:
            entry["detail"] = info
        entries.append(entry)
    return entries


def run_suite(loop: ext.ExtensionConfig, counts: dict, seed: int) -> dict:
    """Draw every row of PROPERTIES, ``counts[key]`` samples, from its own
    slot of the seed's stream, drive the steps of consecutive rows on their
    values together, per run of at most ``_STEPS_BYTES`` of drawn values (a
    larger row is a run alone), run the dimension check on its slot, and
    return the report's ``properties``, ``dimension`` and ``pass``."""
    base, widths = SampleStream(seed), layout(loop)
    streams = {key: base.split(offset) for key, (offset, _) in stream_slots(loop, counts, widths).items()}
    drawn = draw_parts(loop, streams, counts, widths)
    # a row whose draw broke down fails as it stands
    outcomes = {key: Outcome(error=parts) for key, parts in drawn.items() if isinstance(parts, Exception)}
    ready = [row for row in PROPERTIES if row.key not in outcomes]
    value_bytes = loop.form.n**2 * np.dtype(loop.form.dtype).itemsize
    for batch in _packed(ready, [counts[row.key] * len(row.draw) * value_bytes for row in ready], _STEPS_BYTES):
        outcomes |= zip((row.key for row in batch), drive([row.steps(loop, *drawn[row.key]) for row in batch]))
    entries = []
    for row in PROPERTIES:
        entries += _entries(row, counts[row.key], outcomes[row.key])

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
