"""The verification suite: the property table, its draw and its runner.

The suite is one table, ``PROPERTIES``: each row names its report entries
and their keys in the fixed bounds table ``TOLERANCES``, its sample-count
key (which also selects its slot of the seed's stream), whether it is
required, its default count, its per-sample draw layout (kinds of value,
keys of ``PARTS``) and a ``run`` that returns the worst residual of each
entry.  ``draw_parts`` draws every row's uniforms from the row's own slot,
all rows in one splitmix64 pass at the usual counts, and evaluates each
kind's chart once over all rows, so a verify makes one Sigma chart call
and one Phi chart call, and each row gets its values as slices.  Every row
is batched: it makes one call per loop operation per dependency level on
the joined stacks of elements and folds the per-element residuals with
max.  One runner times every row's check, builds its entries and turns a
numeric breakdown inside it or inside a chart serving it (any package
error or ``LinAlgError``) into failed entries carrying ``detail.error``,
so the report is still written.  A check inside a stacked call covers the
whole stack, so ``detail.error`` names the worst matrix of the stack, not
the first failing sample.

``run_suite`` samples from a resolved ``ExtensionConfig``, which holds the
form and the matrix loop; it reads no file and parses no argument.  The
acceptance bounds are constants, not settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError
from .groups import (
    MEMBERSHIP_TOLERANCE,
    SampleStream,
    conjugate_by_phi,
    membership_residual,
    phi_from_uniforms,
    phi_width,
    polar_factorize,
    sample_parts,
    scale,
    sigma_from_uniforms,
    sigma_width,
    unit_uniforms,
)
from .kernel import INVERSE_GAP, check_aip, check_bol, check_left_a, check_loop_axioms, inverse_gap
from .linalg import fro, worst

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
    draws, in draw order, as ``PARTS`` kinds.  ``run(loop, *parts)`` takes
    one stack per part of the layout, whose i-th values sample i drew, and
    returns the worst residual of each entry and a ``detail`` dict for the
    report, or None.  Every run is batched: one call per loop operation per
    dependency level on the joined stacks, and a fold of the per-element
    residuals with max from 0.
    """

    key: str
    default_samples: int
    required: bool
    entries: tuple
    draw: tuple
    run: Callable


def _one(residual: float):
    """A kernel checker's worst residual as a one-entry row result."""
    return (residual,), None


def _elements(parts) -> list:
    """The extension elements of consecutive (point, Sigma) part pairs."""
    return [ext.ExtensionElement(w, rho) for w, rho in zip(parts[0::2], parts[1::2])]


def _sigma_closure(loop: ext.ExtensionConfig, a, b):
    return (membership_residual(loop.mat.mul(a, b), loop.form).max_residual,), None


def _conjugation_closure(loop: ext.ExtensionConfig, a, b):
    return (membership_residual(conjugate_by_phi(a, b), loop.form).max_residual,), None


def _factorization(loop: ext.ExtensionConfig, s1, c):
    """Recovery of both sampled factors, and the relative reconstruction."""
    m = s1 @ c
    f1, f2 = polar_factorize(m, loop.form)
    recovery = worst(np.abs(f1 - s1), np.abs(f2 - c))
    return (recovery, worst(fro(f1 @ f2 - m) / fro(m))), None


def _transversality(loop: ext.ExtensionConfig, rhos):
    tr = geometry.transversality_check(loop.wtilde, rhos, loop.carrier_subspace())
    # with no sample checked the margin is still inf, which strict JSON refuses
    return (0.0,), {"worst_margin": tr.worst_margin} if tr.samples else None


def _ext_infinity_compat(loop: ext.ExtensionConfig, *parts):
    """ext_mul's direction part, the lift read off the image graph X,
    against the matrix loop product, the positive factor of rho1 rho2 read
    off its C12 and C22 blocks: two computations of the same element."""
    e1, e2 = _elements(parts)
    prod = loop.mul(e1, e2)
    return (worst(fro(prod.rho - loop.mat.mul(e1.rho, e2.rho))),), None


def _ext_aip(loop: ext.ExtensionConfig, w, rho):
    """The extension loop need not have two-sided inverses, without which
    the AIP cannot be stated, so the entry records the left/right inverse
    gap, judged against the kernel's inverse bound: ``pass`` says whether
    the sampled elements have two-sided inverses."""
    return (worst(inverse_gap(loop, ext.ExtensionElement(w, rho))[1]),), None


def _solve_translation(loop: ext.ExtensionConfig, w1, rho1, w2, rho2, noise):
    """Sharp transitivity, and the solution's drift when both subspaces, in
    canonical form, are moved by 1e-10.  Both elements of a sample are
    realized and canonicalized as one stack, and the exact and perturbed
    pairs are solved in one call.

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
    t, rho = ext.solve_translation(pairs[:, 0], pairs[:, 1], loop)
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
# required, (entry name, TOLERANCES key) pairs, draw layout, run.
PROPERTIES = (
    Property("loop_axioms", 500, True, (("loop_axioms", "identity"),), ("sigma",) * 2,
             lambda loop, *xs: _one(check_loop_axioms(loop.mat, *xs))),
    Property("sigma_closure", 1000, True, (("sigma_closure", "membership"),), ("sigma",) * 2,
             _sigma_closure),
    Property("bol", 1000, True, (("bol", "identity"),), ("sigma",) * 3,
             lambda loop, *xs: _one(check_bol(loop.mat, *xs))),
    Property("aip", 1000, True, (("aip", "identity"),), ("sigma",) * 2,
             lambda loop, *xs: _one(check_aip(loop.mat, *xs))),
    Property("left_a", 500, False, (("left_a", "identity"),), ("sigma",) * 4,
             lambda loop, *xs: _one(check_left_a(loop.mat, *xs))),
    Property("conjugation_closure", 500, True, (("conjugation_closure", "membership"),), ("sigma", "phi"),
             _conjugation_closure),
    Property("factorization", 500, True,
             (("factorization_recovery", "factor"),
              ("factorization_reconstruction", "factor_reconstruction")),
             ("sigma", "phi"), _factorization),
    Property("transversality", 200, True, (("transversality", "membership"),), ("sigma",), _transversality),
    Property("ext_loop_axioms", 500, True, (("ext_loop_axioms", "identity"),), _ELEMENT * 2,
             lambda loop, *parts: _one(check_loop_axioms(loop, *_elements(parts)))),
    Property("ext_infinity_compat", 500, True, (("ext_infinity_compat", "membership"),), _ELEMENT * 2,
             _ext_infinity_compat),
    Property("ext_bol", 100, False, (("ext_bol", "identity"),), _ELEMENT * 3,
             lambda loop, *parts: _one(check_bol(loop, *_elements(parts)))),
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

# The most values one chart call maps: what one row may draw, MAX_SAMPLES
# times the widest layout, so pooling the rows' draws does not enlarge a
# chart's temporaries.
_CHART_CHUNK = MAX_SAMPLES * max(len(row.draw) for row in PROPERTIES)

# Entries whose residuals carry no pass requirement; they are measured and
# reported only.
INFORMATIONAL = frozenset(name for row in PROPERTIES if not row.required for name, _ in row.entries)

# A numeric breakdown inside a property fails that property, not the run.
_BREAKDOWN = (BruckLoopsError, np.linalg.LinAlgError)


def held_matrices(counts: dict) -> int:
    """How many n x n matrices a verify's draw holds at once: each row's
    count times the Sigma and Phi parts of its layout."""
    return sum(counts[row.key] * sum(kind in ("sigma", "phi") for kind in row.draw) for row in PROPERTIES)


def _chart(loop: ext.ExtensionConfig, kind: str, us: list) -> list:
    """The values of ``kind`` that each stack of unit uniforms in ``us``
    (m, width) draws, one stack for each, from one chart call on them all
    per ``_CHART_CHUNK`` values (an empty draw is one call on the empty
    stack); or, for each, the breakdown the chart raised."""
    u, chart = np.concatenate(us), PARTS[kind][1]
    try:
        chunks = [chart(loop, u[k : k + _CHART_CHUNK]) for k in range(0, max(len(u), 1), _CHART_CHUNK)]
    except _BREAKDOWN as exc:
        return [exc] * len(us)
    values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return [values[end - len(x) : end] for x, end in zip(us, accumulate(len(x) for x in us))]


def _widths(loop: ext.ExtensionConfig, row: Property) -> list:
    """How many uniforms each part of one sample of ``row`` draws."""
    return [PARTS[kind][0](loop) for kind in row.draw]


def stream_slots(loop: ext.ExtensionConfig, counts: dict) -> dict:
    """Where each row, and the dimension check, draws on the seed's stream:
    (offset, uniforms drawn) by sample-count key.  Key k in sorted order
    starts at (k + 1) strides, a stride being 10,000,000 or the largest
    draw if that is larger, so no two draws share a uniform."""
    sizes = {row.key: counts[row.key] * sum(_widths(loop, row)) for row in PROPERTIES}
    sizes["dimension_points"] = counts["dimension_points"] * ext.expected_dimension(loop)
    stride = max(10_000_000, *sizes.values())
    return {key: ((k + 1) * stride, sizes[key]) for k, key in enumerate(sorted(sizes))}


def draw_parts(loop: ext.ExtensionConfig, streams: dict, counts: dict) -> dict:
    """Every row's drawn values, by row key: one stack per part of its
    layout, or the breakdown a chart serving the row raised.

    Each row draws ``counts[key]`` samples' uniforms from ``streams[key]``,
    sample by sample in layout order, as a sample-by-sample draw would.
    Every stream is on one seed.  Consecutive rows draw together, one
    ``unit_uniforms`` pass over their counters per batch of at most
    ``_CHART_CHUNK`` uniforms (a larger row is a batch alone), and each
    row's parts are sliced from it.  Each kind's uniforms, pooled over all
    rows in row order, go through its chart once and are sliced back.  A
    stacked chart call gives each value the bits it gets alone."""
    seed = streams[PROPERTIES[0].key].seed
    batches, room = [], 0  # runs of (row, widths, stream, uniforms drawn); what the last may still take
    for row in PROPERTIES:
        widths, stream = _widths(loop, row), streams[row.key]
        size = counts[row.key] * sum(widths)
        if not batches or size > room:
            batches.append([])
            room = _CHART_CHUNK
        batches[-1].append((row, widths, stream, size))
        room -= size
    pooled = {kind: [] for kind in PARTS}  # each kind's uniforms, part by part in row order
    for batch in batches:
        counters = [stream.counters(n) for *_, stream, n in batch]  # a lone row's passed uncopied
        u = unit_uniforms(seed, counters[0] if len(batch) == 1 else np.concatenate(counters))
        del counters
        for (row, widths, _, n), end in zip(batch, accumulate(n for *_, n in batch)):
            for kind, part in zip(row.draw, sample_parts(u[end - n : end], counts[row.key], widths)):
                pooled[kind].append(part)
    values = {kind: iter(_chart(loop, kind, us)) for kind, us in pooled.items()}
    drawn = {}
    for row in PROPERTIES:
        parts = [next(values[kind]) for kind in row.draw]
        drawn[row.key] = next((p for p in parts if isinstance(p, Exception)), parts)
    return drawn


def _run_property(row: Property, loop: ext.ExtensionConfig, parts, count: int) -> list:
    """The report entries of one row from its drawn ``parts``, or the
    breakdown that drawing them raised.  The time of the row's check goes on
    its first entry; a companion entry records 0 seconds and names that
    entry in ``detail.timed_with``.  A breakdown fails every entry with
    residual 1.0 and the exception text in ``detail.error``."""
    t0 = time.perf_counter()
    broke = parts if isinstance(parts, Exception) else None
    if broke is None:
        try:
            residuals, detail = row.run(loop, *parts)
        except _BREAKDOWN as exc:
            broke = exc
    if broke is not None:
        residuals, detail = (1.0,) * len(row.entries), {"error": str(broke)}
    seconds = time.perf_counter() - t0
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
            "seconds": seconds if name == first else 0.0,
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
    slot of the seed's stream, run each on its values, run the dimension
    check on its slot, and return the report's ``properties``,
    ``dimension`` and ``pass``."""
    base = SampleStream(seed)
    streams = {key: base.split(offset) for key, (offset, _) in stream_slots(loop, counts).items()}
    drawn = draw_parts(loop, streams, counts)
    entries = []
    for row in PROPERTIES:
        entries += _run_property(row, loop, drawn[row.key], counts[row.key])

    t0 = time.perf_counter()
    expected = ext.expected_dimension(loop)
    dim_entry = {"expected": expected, "measured": None, "gap_fraction": 0.0, "pass": False}
    try:
        dim = ext.dimension_rank_report(loop, counts["dimension_points"], streams["dimension_points"])
        dim_entry.update(
            measured=dim.rank, gap_fraction=dim.gap_fraction, points=dim.points, ranks=list(dim.ranks)
        )
        dim_entry["pass"] = dim.rank == expected
    except _BREAKDOWN as exc:
        dim_entry.update(points=counts["dimension_points"], error=str(exc))
    dim_entry["seconds"] = time.perf_counter() - t0

    entries.sort(key=lambda e: e["property"])
    overall = all(e["pass"] for e in entries if e["required"]) and dim_entry["pass"]
    return {"properties": entries, "dimension": dim_entry, "pass": overall}
