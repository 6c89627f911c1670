"""Command-line front door: deterministic verification suites, element
arithmetic, factorization, witnesses and machine-readable reports.  Each
command is a row of ``COMMANDS`` (help line, handler, a function adding its
arguments); the first call of a command in a process builds that command's
parser alone, and later calls reuse it.

Exit codes are a stable contract: 0 when every required property passes,
1 when a property fails, or ``mul``'s product fails its membership
diagnostics (the output is still written), 2 for usage or configuration
errors.  ``witness`` constructs its element, so ``--seed`` does not change
it.  Each command's Sigma operands or draws are checked by one stacked
``membership_residual`` call (``_check_sigma``).

The verification suite is one table, ``PROPERTIES``: each row names its
report entries and their keys in the fixed bounds table ``TOLERANCES``,
its sample-count key (which also selects its sample stream), whether it is
required, its default count, its per-sample draw layout (kinds of value,
keys of ``PARTS``) and a ``run`` that returns the worst residual of each
entry.  ``draw_parts`` draws every row's uniforms from the row's own
stream, all rows in one splitmix64 pass at the usual counts, and
evaluates each kind's chart once over all rows, so a verify makes one
Sigma chart call and one Phi chart call, and each row gets its values as
slices.  Every row is batched: it makes one call per loop
operation per dependency level on the joined stacks of elements and folds
the per-element residuals with max.  One runner times every row's check,
builds its entries and turns a numeric breakdown inside it or inside a
chart serving it (any package error or ``LinAlgError``) into failed
entries carrying ``detail.error``, so the report is still written.  A
check inside a stacked call covers the whole stack, so ``detail.error``
names the worst matrix of the stack, not the first failing sample.  The
suite samples from the resolved ``ExtensionConfig``, which holds the form
and the matrix loop.

Every setting is a row of ``SETTINGS`` (config key, ``SuiteConfig``
attribute, type), which the JSON loader, the command-line flags and the
report echo all read; the config's one section, ``samples``, sets the
per-property counts.  The acceptance bounds are constants, not settings.
Every default is echoed, so a run is self-describing; identical config and
seed produce byte-identical reports on one machine and one numpy/LAPACK
build, except for the wall-clock fields.  Arithmetic on outside input (the
transversal, in ``resolve``; ``mul``, ``factor`` and ``sample``) runs under
the one floating-point trap, ``_in_float_range``; the properties run
outside it, so their breakdowns stay failed report entries.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError, ConfigInvalid, NotInOrbit, TransversalityViolated
from .groups import (
    MEMBERSHIP_TOLERANCE,
    SAMPLE_RADIUS,
    SampleStream,
    SignatureForm,
    conjugate_by_phi,
    element_from_json,
    element_to_json,
    membership_residual,
    phi_from_uniforms,
    phi_width,
    polar_factorize,
    sample_parts,
    sample_sigma,
    scale,
    sigma_from_uniforms,
    sigma_width,
    standard_boost,
    unit_uniforms,
)
from .kernel import INVERSE_GAP, check_aip, check_bol, check_left_a, check_loop_axioms, inverse_gap
from .linalg import convert, dag, field_of, fro, read_matrix_text, worst
from .matrixloop import MatrixLoop

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


# Config key -> (SuiteConfig attribute, type, options of its flag --<key>).
# The report echoes every setting but ``out``, where the report goes.
SETTINGS = {
    "n": ("n", int, {}),
    "p1": ("p1", int, {}),
    "p2": ("p2", int, {}),
    "field": ("field_name", str, {"choices": ["real", "complex"]}),
    "carrier": ("carrier", int, {"choices": [1, 2]}),
    "wtilde": ("wtilde", str, {"help": "standard | boost:<t> | file:<path>"}),
    "seed": ("seed", int, {}),
    "out": ("out", str, {"help": "write the JSON report here as well as stdout"}),
}


@dataclass
class SuiteConfig:
    n: int = 3
    p1: int = 2
    p2: int = 1
    field_name: str = "real"
    carrier: int = 1
    wtilde: str = "standard"
    seed: int = 1
    samples: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    out: str | None = None

    @property
    def form(self) -> SignatureForm:
        return SignatureForm(self.n, self.p1, self.p2, self.field_name)

    def echo(self) -> dict:
        settings = {key: getattr(self, attr) for key, (attr, _, _) in SETTINGS.items() if key != "out"}
        return settings | {"samples": dict(self.samples)}


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at ``path``, the one reader of every input
    file; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: str, what: str, text: str | None = None) -> dict:
    """The JSON object in the file at ``path``, whose ``text`` is read here
    unless given; ``what`` names it in errors."""
    try:
        obj = json.loads(_read_text(path, what) if text is None else text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{what} {path} must hold a JSON object")
    return obj


def load_suite_config(args) -> SuiteConfig:
    """The defaults, then the ``--config`` file, then the flags in ``args``.
    The ``out`` key and the ``samples`` section are read by ``verify``
    alone, the one command with the ``--out`` and ``--samples`` flags."""
    cfg = SuiteConfig()
    raw = {} if args.config is None else _read_json(args.config, "config")
    for key, value in raw.items():
        if key in ("out", "samples") and not hasattr(args, "samples"):
            raise ConfigInvalid(f"config key {key!r} is read by verify alone")
        if key == "samples":
            if not isinstance(value, dict):
                raise ConfigInvalid("config section 'samples' must be an object")
            for name, entry in value.items():
                if name not in cfg.samples:
                    raise ConfigInvalid(f"unknown samples entry {name!r}")
                cfg.samples[name] = convert(int, entry, f"samples.{name}")
        elif key in SETTINGS:
            attr, kind, _ = SETTINGS[key]
            setattr(cfg, attr, convert(kind, value, key))
        else:
            raise ConfigInvalid(f"unknown config key {key!r}")
    for attr, _, _ in SETTINGS.values():
        if getattr(args, attr, None) is not None:
            setattr(cfg, attr, getattr(args, attr))
    if getattr(args, "samples", None) is not None:
        cfg.samples |= {name: args.samples for name in cfg.samples if name != "dimension_points"}
    low = sorted(name for name, count in cfg.samples.items() if count < 1)
    if low:
        raise ConfigInvalid(f"sample counts must be >= 1: {', '.join(low)}")
    high = sorted(name for name, count in cfg.samples.items() if count > MAX_SAMPLES)
    if high:
        raise ConfigInvalid(f"sample counts must be <= {MAX_SAMPLES}: {', '.join(high)}")
    return cfg


def build_wtilde(form: SignatureForm, carrier: int, spec: str):
    """Resolve a transversal spec (``standard``, ``boost:<t>``, ``file:<path
    to subspace JSON>``) to the point and frame ``extension_config`` checks.
    Overflow is not trapped here but in ``resolve`` (``_in_float_range``)."""
    if spec == "standard":
        return None
    if spec.startswith("boost:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigInvalid(f"bad boost parameter in {spec!r}") from exc
        if not math.isfinite(t):
            raise ConfigInvalid(f"{spec!r} has a non-finite boost parameter")
        return geometry.apply(standard_boost(form, t), ext.complement(form, carrier))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return geometry.from_json(_read_json(path, "transversal file"), form.field)
    raise ConfigInvalid(f"unknown wtilde spec {spec!r}")


@contextmanager
def _in_float_range(inputs: str = "inputs"):
    """Arithmetic on user inputs that overflows or turns invalid is a
    configuration error (exit 2) naming ``inputs``, not a result of
    Infinity or NaN.  The program's one floating-point trap."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigInvalid(f"{inputs} out of floating-point range: {exc}") from exc


def resolve(cfg: SuiteConfig) -> ext.ExtensionConfig:
    """Validate a suite config into the extension loop every property samples from."""
    form = cfg.form
    with _in_float_range(f"transversal {cfg.wtilde!r}"):
        return ext.extension_config(form, cfg.carrier, build_wtilde(form, cfg.carrier, cfg.wtilde))


# The two JSON writers, built once: an indented document, and one line.
_DOCUMENT = json.JSONEncoder(sort_keys=True, indent=2).encode
_LINE = json.JSONEncoder(sort_keys=True).encode


def _json_text(obj) -> str:
    return _DOCUMENT(obj) + "\n"


# ---------------------------------------------------------------------------
# the property table
# ---------------------------------------------------------------------------


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

    ``key`` names the row's sample count in ``SuiteConfig.samples`` and
    selects its sample stream.  ``entries`` are the report entries the row
    fills, as ``(entry name, TOLERANCES key)`` pairs.  ``draw`` is what one
    sample draws, in draw order, as ``PARTS`` kinds.  ``run(loop, *parts)``
    takes one stack per part of the layout, whose i-th values sample i drew,
    and returns the worst residual of each entry and a ``detail`` dict for
    the report, or None.  Every run is batched: one call per loop operation
    per dependency level on the joined stacks, and a fold of the
    per-element residuals with max from 0.
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
    pairs are solved in one call."""
    realized = ext.realize(ext.ExtensionElement(np.stack([w1, w2]), np.stack([rho1, rho2])), loop)
    d = geometry.subspace(realized.base, realized.frame)  # d[0] is d1, d[1] is d2
    dp = _perturb(d, noise.reshape(len(noise), 2, noise.shape[-1] // 2).swapaxes(0, 1))
    pairs = geometry.AffineSubspace(np.stack([d.base, dp.base]), np.stack([d.frame, dp.frame]))
    # one solve for (d1 | d1p) onto (d2 | d2p): index 0 exact, 1 perturbed
    t, rho = ext.solve_translation(pairs[:, 0], pairs[:, 1], loop)
    moved = geometry.apply(rho[0], d[0], t[0])
    stability = np.linalg.norm(t[1] - t[0], axis=-1) + fro(rho[1] - rho[0])
    return (worst(geometry.subspace_distance(moved, d[1])), worst(stability)), None


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
    Consecutive rows on one seed draw together, one ``unit_uniforms`` pass
    over their counters per batch of at most ``_CHART_CHUNK`` uniforms (a
    larger row is a batch alone), and each row's parts are sliced from it.
    Each kind's uniforms, pooled over all rows in row order, go through its
    chart once and are sliced back.  A stacked chart call gives each value
    the bits it gets alone."""
    batches, room = [], 0  # runs of (row, widths, stream, uniforms drawn); what the last may still take
    for row in PROPERTIES:
        widths, stream = _widths(loop, row), streams[row.key]
        size = counts[row.key] * sum(widths)
        if not batches or size > room or stream.seed != batches[-1][0][2].seed:
            batches.append([])
            room = _CHART_CHUNK
        batches[-1].append((row, widths, stream, size))
        room -= size
    pooled = {kind: [] for kind in PARTS}  # each kind's uniforms, part by part in row order
    for batch in batches:
        counters = [stream.counters(n) for *_, stream, n in batch]  # a lone row's passed uncopied
        u = unit_uniforms(batch[0][2].seed, counters[0] if len(batch) == 1 else np.concatenate(counters))
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


def run_verify(cfg: SuiteConfig) -> dict:
    """Draw every row of PROPERTIES from its own slot of the seed's stream,
    run each on its values, run the dimension check on its slot, and
    assemble the report."""
    loop = resolve(cfg)
    counts = cfg.samples
    t_start = time.perf_counter()
    base = SampleStream(cfg.seed)
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
    return {
        "config": cfg.echo(),
        "properties": entries,
        "dimension": dim_entry,
        "pass": overall,
        "total_seconds": time.perf_counter() - t_start,
    }


def _perturb(s, noise: np.ndarray):
    """A nearby representative of (almost) the same subspace, or of each of
    a stack: its base and then its frame entries, row-major, jiggled by
    ``noise`` (..., n (k + 1))."""
    n, k = s.frame.shape[-2:]
    base = s.base + noise[..., :n].astype(s.base.dtype)
    frame = s.frame + noise[..., n:].reshape(noise.shape[:-1] + (n, k)).astype(s.frame.dtype)
    return geometry.AffineSubspace(base, frame)


# ---------------------------------------------------------------------------
# element loading for mul / factor
# ---------------------------------------------------------------------------


def _load_matrix_element(path: str, form: SignatureForm) -> np.ndarray:
    """A JSON element of the configured form, or a matrix text file read in
    it; complex text for a real form would lose its imaginary part, so is
    refused."""
    text = _read_text(path, "element file")
    if text.lstrip().startswith("{"):
        return element_from_json(_read_json(path, "element file", text), form)
    matrix = read_matrix_text(text)
    if not np.can_cast(matrix.dtype, form.dtype):
        raise ConfigInvalid(f"{path}: {field_of(matrix)} matrix text does not fit the {form.field} form")
    return matrix.astype(form.dtype)


def _check_sigma(stack: np.ndarray, form: SignatureForm, name: Callable[[int], str]) -> None:
    """Refuse a stack of operands or drawn Sigma parts holding a matrix that
    is not a Sigma element, from one ``membership_residual`` call: the first
    such, matrix i, is named ``name(i)`` with its worst condition."""
    rep = membership_residual(stack, form)
    if not rep.passed:
        worst = np.max(list(rep.residuals.values()), axis=0)
        first = int(np.argmax(worst > MEMBERSHIP_TOLERANCE))
        residuals = {cond: float(r[first]) for cond, r in rep.residuals.items()}
        condition = max(residuals, key=residuals.get)
        raise ConfigInvalid(f"{name(first)}: not in Sigma, {condition} residual {residuals[condition]:.3e}")


def _diagnostics(a: np.ndarray, form: SignatureForm) -> dict:
    rep = membership_residual(a, form)
    return {"membership": rep.residuals, "pass": rep.passed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, the empty one included,
    before the suite runs; the file is neither created nor truncated here."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigInvalid(f"cannot write the report to {path or repr(path)}")


def cmd_verify(args) -> int:
    cfg = load_suite_config(args)
    if cfg.out is not None:
        _check_writable(cfg.out)
    report = run_verify(cfg)
    text = _json_text(report)
    if cfg.out is not None:
        with open(cfg.out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


def cmd_mul(args) -> int:
    cfg = load_suite_config(args)
    with _in_float_range():
        out, rho = _product(args, cfg)
        out["diagnostics"] = _diagnostics(rho, cfg.form)
    sys.stdout.write(_json_text(out))
    return 0 if out["diagnostics"]["pass"] else 1


def _product(args, cfg: SuiteConfig) -> tuple:
    """The product of the two operand files, as JSON and its Sigma part.
    Both operands' Sigma parts are checked by one ``_check_sigma`` call;
    a refusal names the first bad operand as checking lhs, then rhs would.
    An extension product that breaks down in the orbit chart is refused
    naming both operands."""
    paths = (args.lhs, args.rhs)
    if args.loop == "matrix":
        form = cfg.form
        lhs, rhs = (_load_matrix_element(path, form) for path in paths)
        _check_sigma(np.stack([lhs, rhs]), form, paths.__getitem__)
        product = MatrixLoop(form).mul(lhs, rhs)
        return element_to_json(product, form), product
    eloop = resolve(cfg)
    e1, e2 = (ext.extension_element_from_json(_read_json(path, "element file"), eloop.form) for path in paths)
    frame = eloop.wtilde.frame  # orthonormal, through 0 once validated
    off = [not np.linalg.norm(e.w - frame @ (dag(frame) @ e.w)) <= MEMBERSHIP_TOLERANCE for e in (e1, e2)]
    # checked in the order lhs rho, lhs w, rhs rho, rhs w: the rho up to the first w off the transversal
    last = off.index(True) if True in off else 1
    _check_sigma(np.stack([e1.rho, e2.rho])[: last + 1], eloop.form, paths.__getitem__)
    if off[last]:
        raise ConfigInvalid(f"{paths[last]}: w is not on the transversal")
    try:
        product = eloop.mul(e1, e2)
    except (NotInOrbit, TransversalityViolated) as exc:
        raise ConfigInvalid(
            f"product of {paths[0]} and {paths[1]} leaves float64's range of the orbit chart: {exc}"
        ) from exc
    return product.to_json(eloop.form), product.rho


def cmd_factor(args) -> int:
    cfg = load_suite_config(args)
    form = cfg.form
    s = _load_matrix_element(args.matrix, form)
    with _in_float_range():
        s1, c = polar_factorize(s, form)
        residual = fro(s1 @ c - s) / fro(s)
    out = {
        "s1": element_to_json(s1, form),
        "c": element_to_json(c, form),
        "reconstruction_residual": residual,
    }
    sys.stdout.write(_json_text(out))
    return 0


def cmd_witness(args) -> int:
    cfg = load_suite_config(args)
    report = ext.nonisomorphism_witness(resolve(cfg))
    out = {
        "element": element_to_json(report.element, cfg.form),
        "displacement": report.displacement,
        # always 1, the element being constructed; bench/workloads.py's _check_witness reads it
        "samples_used": 1,
    }
    sys.stdout.write(_json_text(out))
    return 0


def cmd_sample(args) -> int:
    if not 0 <= args.count <= MAX_SAMPLES:
        raise ConfigInvalid(f"count must be in [0, {MAX_SAMPLES}], got {args.count}")
    cfg = load_suite_config(args)
    form = cfg.form
    loop = None if args.loop == "matrix" else resolve(cfg)
    stream = SampleStream(cfg.seed)
    with _in_float_range():
        if loop is None:
            elems, _ = sample_sigma(form, stream, args.count, args.radius)
            sigma, objs = elems, (element_to_json(a, form) for a in elems)
        else:
            elems, _ = loop.sample(stream, args.count, args.radius)
            sigma, objs = elems.rho, (elems[i].to_json(form) for i in range(args.count))
        _check_sigma(sigma, form, lambda i: f"sample {i + 1} of {args.count}")
        lines = [_LINE(obj) for obj in objs]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _add_common(parser: argparse.ArgumentParser, verify: bool = False) -> None:
    """``--config`` and a flag per setting; ``--out`` and ``--samples`` only
    if ``verify``."""
    parser.add_argument("--config", help="JSON config file")
    for key, (attr, kind, options) in SETTINGS.items():
        if key != "out" or verify:
            parser.add_argument(f"--{key}", dest=attr, type=kind, **options)
    if verify:
        parser.add_argument("--samples", type=int, help="override every per-property sample count")


_LOOP = {"choices": ["matrix", "extension"], "default": "matrix"}


def _mul_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("lhs")
    parser.add_argument("rhs")
    parser.add_argument("--loop", **_LOOP)
    _add_common(parser)


def _factor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("matrix")
    _add_common(parser)


def _sample_arguments(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--radius", type=float, default=SAMPLE_RADIUS)
    parser.add_argument("--loop", **_LOOP)


# Command name -> (help line, handler, a function adding its arguments in usage order).
COMMANDS = {
    "verify": ("run the full property suite", cmd_verify, lambda parser: _add_common(parser, verify=True)),
    "mul": ("multiply two elements", cmd_mul, _mul_arguments),
    "factor": ("split an isometry into its unique positive * unitary pair", cmd_factor, _factor_arguments),
    "witness": ("find a block unitary displacing the transversal", cmd_witness, _add_common),
    "sample": ("emit deterministic element samples", cmd_sample, _sample_arguments),
}


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as ``bruckloops <name>``, built on its first
    call in a process and reused after: ``parse_args`` fills a fresh
    namespace from the parser's fixed defaults on every call."""
    _, handler, add_arguments = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"bruckloops {name}")
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the command names and their help lines, for help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="bruckloops",
        description="verify loop identities on matrix Bruck loops and their affine-subspace extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)  # exits: help, no command or an unknown one
    args = command_parser(argv[0]).parse_args(argv[1:])
    try:
        return args.func(args)
    except (BruckLoopsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
