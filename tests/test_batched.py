"""The batched sampler and verification rows against their per-sample
reference (tests/reference.py), the draw pooled over all rows, and
per-element failures inside stacks."""

import json
import math
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bruckloops.extension
import bruckloops.geometry
import bruckloops.kernel as kernel
import bruckloops.linalg
import bruckloops.suite as suite
from bruckloops.cli import SuiteConfig, main, resolve, run_verify
from bruckloops.errors import InversesDisagree, NoConvergence, NotHermitian, NotInOrbit, NotPositiveDefinite
from bruckloops.extension import ExtensionElement, extension_config
from bruckloops.geometry import AffineSubspace
from bruckloops.groups import SampleStream, element_to_json, sample_parts, unit_uniforms
from bruckloops.kernel import check_aip, check_left_a, drive, inverse_of, run
from bruckloops.linalg import spectral_map, worst
from bruckloops.matrixloop import MatrixLoop
from bruckloops.suite import PROPERTIES, TOLERANCES, draw_parts
from conftest import one
from reference import (
    ROWS,
    ReferenceStream,
    check_drawn,
    draw,
    left_a,
    per_row_draw_parts,
    reference_uniforms,
    sample_tuples,
    transversality,
)

SEEDS = [0, 1, 7919, -5, 2**70 + 3, 2**64 - 1]
COUNTERS = [0, 10**7, 2**63 - 100]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("counter", COUNTERS)
def test_unit_uniforms_are_the_reference_splitmix_bit_for_bit(seed, counter):
    stream = SampleStream(seed, counter)
    assert np.array_equal(unit_uniforms(seed, stream.counters(257)), reference_uniforms(seed, counter, 257))
    assert np.array_equal(unit_uniforms(seed, stream.counters(5)), reference_uniforms(seed, counter, 5))
    assert stream.split(257) == SampleStream(seed, counter + 257)


def test_sample_parts_split_sample_by_sample():
    a, b = sample_parts(unit_uniforms(3, SampleStream(3).counters(20)), 4, (2, 3))
    flat = reference_uniforms(3, 0, 20).reshape(4, 5)
    assert np.array_equal(a, flat[:, :2]) and np.array_equal(b, flat[:, 2:])


# (3,2,1) complex, (4,2,2) real carrier 2 boost:ln 2, (4,3,1) real, (6,3,3) complex
SUITES = {
    "321c": dict(n=3, p1=2, p2=1, field_name="complex"),
    "422r-c2-boost": dict(n=4, p1=2, p2=2, field_name="real", carrier=2, wtilde="boost:0.6931471805599453"),
    "431r": dict(n=4, p1=3, p2=1, field_name="real"),
    "633c": dict(n=6, p1=3, p2=3, field_name="complex"),
}
COUNT = 6
# Samples per row, mixed so that slicing the pooled draw back shows
MIXED_COUNTS = (1, 3, 6)


def _drawn(loop, streams, counts) -> dict:
    """Every row's whole draw, drawn as one run, by row key."""
    slices = [(row, streams[row.key], counts[row.key]) for row in PROPERTIES]
    return {row.key: parts for row, parts in zip(PROPERTIES, draw_parts(loop, suite.layout(loop), slices))}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_row_matches_the_per_sample_reference(name, seed):
    loop = resolve(SuiteConfig(seed=seed, **SUITES[name]))
    streams = {row.key: SampleStream(seed).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    counts = {row.key: MIXED_COUNTS[k % 3] for k, row in enumerate(PROPERTIES)}
    drawn = _drawn(loop, streams, counts)
    # every row driven together, so rows of unequal counts share calls
    outcomes = drive([row.steps(loop, *drawn[row.key]) for row in PROPERTIES])
    for row, outcome in zip(PROPERTIES, outcomes):
        stream, count = streams[row.key], counts[row.key]
        batched, detail = outcome.value
        reference = ROWS[row.key](loop, ReferenceStream(stream.seed, stream.counter), count)
        for (entry, key), got, want in zip(row.entries, batched, reference):
            # every sample, not only the worst
            assert got.shape == want.shape == (count,), entry
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(got), np.abs(want))), (entry, got, want)
            assert np.array_equal(got <= TOLERANCES[key], want <= TOLERANCES[key]), entry
        if row.key == "transversality":
            _, margins = transversality(loop, ReferenceStream(stream.seed, stream.counter), count)
            got = detail["worst_margin"]
            assert got.shape == (count,) and np.all(np.abs(got - margins) <= 1e-15 * margins), (got, margins)


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_left_a_on_the_extension_loop_matches_the_per_sample_reference(name, seed):
    # no suite row runs left-A on extension elements, so its fused levels
    # are checked here
    loop = resolve(SuiteConfig(seed=seed, **SUITES[name]))
    stream = SampleStream(seed).split(4000)
    got = run(kernel.left_a(loop, *sample_tuples(loop, stream, COUNT, 4)))
    (want,) = left_a(loop, ReferenceStream(stream.seed, stream.counter), COUNT)
    assert got.shape == want.shape == (COUNT,)
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(got), np.abs(want))), (got, want)
    assert check_drawn(check_left_a, loop, stream, COUNT) == worst(got)


def test_the_element_draw_is_the_verify_element_draw():
    # the tests' draw of extension elements and a verify row of layout
    # _ELEMENT give the same elements from the same stream
    loop = resolve(SuiteConfig(seed=3, **SUITES["633c"]))
    streams = {row.key: SampleStream(3).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    counts = {row.key: 5 for row in PROPERTIES}
    drawn = _drawn(loop, streams, counts)
    row = next(row for row in PROPERTIES if row.draw == suite._ELEMENT)
    w, rho = drawn[row.key]
    elems, _ = draw(loop, streams[row.key], counts[row.key])
    assert w.tobytes() == elems.w.tobytes() and rho.tobytes() == elems.rho.tobytes()


@pytest.mark.parametrize("carrier", [1, 2])
def test_stream_slots_are_disjoint_at_the_largest_counts(no_draw, carrier):
    # at (7,4,3) complex a row's draw at MAX_SAMPLES outgrows 10,000,000
    # uniforms, so the stride grows with it; nothing is drawn here
    loop = resolve(SuiteConfig(n=7, p1=4, p2=3, field_name="complex", carrier=carrier))
    counts = {key: suite.MAX_SAMPLES for key in suite.DEFAULT_SAMPLES}
    slots = sorted(suite.stream_slots(loop, counts, suite.layout(loop)).values())
    assert len(slots) == len(suite.DEFAULT_SAMPLES)
    assert max(size for _, size in slots) > 10_000_000
    assert all(start + size <= following for (start, size), (following, _) in zip(slots, slots[1:]))


def test_stream_slots_keep_their_offsets_while_the_draws_fit():
    loop = resolve(SuiteConfig())
    slots = suite.stream_slots(loop, suite.DEFAULT_SAMPLES, suite.layout(loop))
    assert [offset for _, (offset, _) in sorted(slots.items())] == [
        (k + 1) * 10_000_000 for k in range(len(slots))
    ]


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k not in ("seconds", "total_seconds")}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def _counting(monkeypatch, module, name: str) -> list:
    """Record the size of every call ``module``'s binding ``name`` makes."""
    calls, real = [], getattr(module, name)

    def counted(form, u, *args):
        calls.append(len(u))
        return real(form, u, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _loop_calls(monkeypatch) -> list:
    """Record every primitive call a verify makes from outside any other,
    as ``(loop class, primitive)``: every ``Loop.run``, and every operation
    called directly.  A lift call may serve both loops, so it is recorded
    as ``("lift", "positive_factor")``."""
    calls, depth = [], [0]

    def wrap(cls, name):
        real = cls.__dict__[name]
        static = isinstance(real, staticmethod)
        real = getattr(cls, name)

        def counted(*args):
            if depth[0] == 0:
                operation = args[-1][0][1] if name == "run" else name
                primitive = cls.primitive.get(operation, operation)
                calls.append(("lift" if primitive == "positive_factor" else cls.__name__, primitive))
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, staticmethod(counted) if static else counted)

    for cls in (MatrixLoop, bruckloops.extension.ExtensionConfig):
        for name in ("run", "mul", "left_divide", "right_divide", "distance"):
            wrap(cls, name)
    wrap(MatrixLoop, "membership")
    return calls


# The two benchmark suites, at the benchmark's 20 dimension points, and the
# eigendecompositions of one verify: one Sigma chart and one Phi chart for
# all rows, one for the transversal and one per lift call, all rows'
# requests of products, divisions and coordinates of both loops at once;
# the membership judge and the dimension check take eigenvalues alone,
# outside ``eig_hermitian``
BENCH_SUITES = {
    "321c": (dict(n=3, p1=2, p2=1, field_name="complex"), 7),
    "422r-c2": (dict(n=4, p1=2, p2=2, carrier=2, wtilde=f"boost:{math.log(2)!r}"), 8),
}
# The primitive calls of one such verify at equal counts, 7: all rows'
# waiting lift requests of both loops share a call, and no product waits
# on a reading, so the products, divisions and coordinates take four
# calls, left-A's depth, and every row's readings of a kind one call
LOOP_CALLS = {
    ("lift", "positive_factor"): 4,
    ("MatrixLoop", "distance"): 1,
    ("MatrixLoop", "membership"): 1,
    ("ExtensionConfig", "distance"): 1,
}


@pytest.mark.parametrize("samples", [2, 8])
@pytest.mark.parametrize("name", sorted(BENCH_SUITES))
def test_a_verify_makes_one_chart_call_per_kind(monkeypatch, eig_calls, name, samples):
    settings, eig_count = BENCH_SUITES[name]
    sigma = _counting(monkeypatch, suite, "sigma_from_uniforms")
    phi = _counting(monkeypatch, suite, "phi_from_uniforms")
    draws = _counting(monkeypatch, suite, "unit_uniforms")
    qr = []
    real_qr = bruckloops.linalg.orthonormalize
    for module in (bruckloops.linalg, bruckloops.geometry):
        monkeypatch.setattr(module, "orthonormalize", lambda v: qr.append(v.shape) or real_qr(v))
    inside = {}  # the eigendecompositions and QR calls of the dimension check
    real_report = bruckloops.extension.dimension_rank_report

    def dimension(loop, points, stream):
        eig_before, qr_before = len(eig_calls), len(qr)
        report = real_report(loop, points, stream)
        inside.update(eig=eig_calls[eig_before:], qr=qr[qr_before:])
        return report

    monkeypatch.setattr(bruckloops.extension, "dimension_rank_report", dimension)
    operations = _loop_calls(monkeypatch)
    lifts, driving, real_lift, real_drive = [], [False], bruckloops.matrixloop.positive_factor, suite.drive

    def lift(form, frames):
        lifts.append(driving[0])
        return real_lift(form, frames)

    def drive_steps(steps):
        driving[0] = True
        try:
            return real_drive(steps)
        finally:
            driving[0] = False

    monkeypatch.setattr(bruckloops.matrixloop, "positive_factor", lift)
    monkeypatch.setattr(suite, "drive", drive_steps)
    cfg = SuiteConfig(**settings)
    cfg.samples |= {key: samples for key in cfg.samples if key != "dimension_points"}
    run_verify(cfg)
    assert len(eig_calls) == eig_count
    assert Counter(operations) == LOOP_CALLS
    assert len(operations) == 7
    assert lifts == [True] * 4  # every lift call made by the driver
    loop = resolve(cfg)
    draws_of = {kind: sum(row.draw.count(kind) for row in PROPERTIES) for kind in ("sigma", "phi")}
    assert sigma == [draws_of["sigma"] * samples] and phi == [draws_of["phi"] * samples]
    assert draws == [samples * sum(sum(widths) for widths in suite.layout(loop).values())]
    assert inside == {"eig": [], "qr": []}


# The numpy.linalg calls of one bench-count verify, 8 samples a row, as
# (eigh, solve): ``eig_hermitian`` decomposes a 1 x 1 matrix in closed form,
# so at (3,2,1) one decomposition calls eigh; a lift call solves once per
# block it lifts, the extension loop's transversal points take one solve
# per lift call that serves it, its coordinates one more to make their
# frames isometric, and the dimension check one
BENCH_NUMPY_CALLS = {"321c": (1, 12), "422r-c2": (8, 10)}


@pytest.mark.parametrize("name", sorted(BENCH_SUITES))
def test_a_bench_count_verify_makes_few_eigh_and_solve_calls(monkeypatch, name):
    calls = Counter()
    for function in ("eigh", "solve"):
        real = getattr(np.linalg, function)

        def counted(*args, _real=real, _function=function, **kwargs):
            calls[_function] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, function, counted)
    cfg = SuiteConfig(**BENCH_SUITES[name][0])
    cfg.samples |= {key: 8 for key in cfg.samples if key != "dimension_points"}
    run_verify(cfg)
    assert (calls["eigh"], calls["solve"]) == BENCH_NUMPY_CALLS[name]


# Counts per row for the fused-schedule checks: rows of unequal counts in
# one shared call, every row empty, every row one sample
FUSED_COUNTS = {
    "mixed": lambda k: MIXED_COUNTS[k % 3],
    "zero": lambda k: 0,
    "one": lambda k: 1,
}
FUSED_SUITES = ("321c", "422r-c2-boost", "633c")


def _fused_config(name: str, counts: str) -> SuiteConfig:
    cfg = SuiteConfig(seed=7919, **SUITES[name])
    cfg.samples |= {row.key: FUSED_COUNTS[counts](k) for k, row in enumerate(PROPERTIES)}
    return cfg


@pytest.mark.parametrize("counts", sorted(FUSED_COUNTS))
@pytest.mark.parametrize("name", FUSED_SUITES)
def test_fused_rows_are_the_rows_driven_alone_bit_for_bit(name, counts):
    cfg = _fused_config(name, counts)
    loop = resolve(cfg)
    streams = {row.key: SampleStream(cfg.seed).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    drawn = _drawn(loop, streams, cfg.samples)
    fused = drive([row.steps(loop, *drawn[row.key]) for row in PROPERTIES])
    for row, got in zip(PROPERTIES, fused):
        (alone,) = drive([row.steps(loop, *drawn[row.key])])
        assert got.error is None and alone.error is None, row.key
        assert _stack_bits(got.value) == _stack_bits(alone.value), row.key


def _stack_bits(value) -> list:
    """A row's value, its per-sample residual stacks and ``detail`` stacks,
    as the shape and bytes of each."""
    residuals, detail = value
    return [(r.shape, r.tobytes()) for r in residuals] + [(k, v.shape, v.tobytes()) for k, v in (detail or {}).items()]


@pytest.mark.parametrize("counts", sorted(FUSED_COUNTS))
@pytest.mark.parametrize("name", FUSED_SUITES)
def test_fused_report_is_the_report_of_rows_driven_one_by_one(monkeypatch, name, counts):
    cfg = _fused_config(name, counts)
    calls = _loop_calls(monkeypatch)
    fused = run_verify(cfg)
    shared = len(calls)
    monkeypatch.setattr(suite, "_STEPS_BYTES", -1)  # every row a run of its own, an empty one too
    alone = run_verify(cfg)
    assert _without_timing(fused) == _without_timing(alone)
    assert shared < len(calls) - shared


def test_each_run_of_rows_is_drawn_just_before_it_is_driven(monkeypatch):
    # a default-count (3,2,1) real verify packs its rows into several runs:
    # each is drawn, its rows only, then driven, and the report has the
    # bits of one draw and one drive of every row
    cfg = SuiteConfig()
    loop = resolve(cfg)
    planned = suite._runs(dict.fromkeys(cfg.samples, SampleStream(0)), cfg.samples, suite.layout(loop),
                          loop.form.matrix_bytes)
    runs = [[row.key for row, *_ in run] for run in planned]
    # every row whole, packed greedily into runs of at most 256 KiB of draws
    # of 72 bytes a value: bol, 216,000 bytes, fills a run alone
    assert runs == [["loop_axioms", "sigma_closure"], ["bol"], ["aip"], ["left_a", "conjugation_closure"],
                    ["factorization", "transversality", "ext_loop_axioms"],
                    ["ext_infinity_compat", "ext_bol", "ext_aip"], ["solve_translation"]]
    assert [count for run in planned for _, _, count in run] == [cfg.samples[row.key] for row in PROPERTIES]
    events, real_draw, real_drive = [], suite.draw_parts, suite.drive

    def drawing(loop, widths, slices):
        events.append(("draw", [row.key for row, *_ in slices]))
        return real_draw(loop, widths, slices)

    def driving(steps):
        events.append(("drive", len(steps)))
        return real_drive(steps)

    monkeypatch.setattr(suite, "draw_parts", drawing)
    monkeypatch.setattr(suite, "drive", driving)
    report = _without_timing(run_verify(cfg))
    assert events == [event for run in runs for event in (("draw", run), ("drive", len(run)))]
    events.clear()
    monkeypatch.setattr(suite, "_STEPS_BYTES", 1 << 40)  # one run: every row drawn and driven at once
    assert _without_timing(run_verify(cfg)) == report
    assert events == [("draw", [row.key for row in PROPERTIES]), ("drive", len(PROPERTIES))]


def test_a_broken_row_holds_no_draws_after_its_run(monkeypatch):
    # the solve_translation row's coordinates request breaks; its error's
    # traceback, and those of the errors chained to it, hold the frames of
    # its steps, and so its draws, unless they are cleared after the run
    refs, real_draw, real_lift = [], suite.draw_parts, bruckloops.extension.ExtensionConfig.lift_steps

    def drawing(*args):
        drawn = real_draw(*args)
        refs.extend(weakref.ref(part) for parts in drawn for part in parts)
        return drawn

    def refuse(self, calls):
        if any(operation == "coordinates" for operation, _ in calls):
            raise NotInOrbit("no translation")
        return real_lift(self, calls)

    alive, real_entries = [], suite._entries

    def entries(row, count, outcome):
        if not alive:  # every run is driven
            alive.append(sum(ref() is not None for ref in refs))
        return real_entries(row, count, outcome)

    monkeypatch.setattr(suite, "draw_parts", drawing)
    monkeypatch.setattr(bruckloops.extension.ExtensionConfig, "lift_steps", refuse)
    monkeypatch.setattr(suite, "_entries", entries)
    cfg = SuiteConfig()
    cfg.samples |= {key: 3 for key in cfg.samples if key != "dimension_points"}
    report = run_verify(cfg)
    assert refs and alive == [0]
    broken = [entry for entry in report["properties"] if entry.get("detail", {}).get("error")]
    assert {entry["property"] for entry in broken} == {"solve_translation", "solve_translation_stability"}


@pytest.mark.parametrize("name", ["321c", "422r-c2-boost"])
def test_a_breakdown_in_a_shared_call_fails_its_row_alone(monkeypatch, name):
    # the first matrix bol draws breaks every positive_factor call whose
    # products' left factors hold it: bol's first level, shared with other
    # rows, re-runs per request, and only bol fails, with the text its own
    # call raises
    cfg = _fused_config(name, "mixed")
    clean = _without_timing(run_verify(cfg))
    loop = resolve(cfg)
    slots = suite.stream_slots(loop, cfg.samples, suite.layout(loop))
    streams = {key: SampleStream(cfg.seed).split(offset) for key, (offset, _) in slots.items()}
    poison = _drawn(loop, streams, cfg.samples)["bol"][0][0]
    real, sizes = MatrixLoop.lift_steps, []

    def run(self, calls):
        if any(op == "mul" and np.all(ops[0] == poison, axis=(-2, -1)).any() for op, ops in calls):
            size = sum(len(ops[0]) for _, ops in calls)
            sizes.append(size)
            raise NotPositiveDefinite(f"injected in a stack of {size}")
        return real(self, calls)

    monkeypatch.setattr(MatrixLoop, "lift_steps", run)
    reports = []
    for steps_bytes in (suite._STEPS_BYTES, -1):  # fused, then every row alone
        monkeypatch.setattr(suite, "_STEPS_BYTES", steps_bytes)
        reports.append(_without_timing(run_verify(cfg)))
    fused, alone = reports
    bol_stack = 2 * cfg.samples["bol"]
    assert sizes[0] > bol_stack and sizes[1:] == [bol_stack, bol_stack]
    assert fused == alone and fused["pass"] is False
    for entry, was in zip(fused["properties"], clean["properties"]):
        if entry["property"] == "bol":
            assert entry["pass"] is False and entry["max_residual"] == 1.0
            assert entry["detail"] == {"error": f"injected in a stack of {bol_stack}"}
        else:
            assert entry == was
    assert fused["dimension"] == clean["dimension"]


@pytest.mark.parametrize("name", ["321c", "422r-c2-boost"])
def test_a_breakdown_in_aips_last_product_fails_the_aip_row_alone(monkeypatch, name):
    # AIP's last product x^-1 y^-1 shares a positive_factor call with other
    # rows' products; a breakdown on the inverse of the first x drawn fails
    # that call, which re-runs per request, and only AIP fails, with the
    # error ``check_aip`` raises on the row's own samples
    cfg = _fused_config(name, "mixed")
    clean = _without_timing(run_verify(cfg))
    loop = resolve(cfg)
    slots = suite.stream_slots(loop, cfg.samples, suite.layout(loop))
    streams = {key: SampleStream(cfg.seed).split(offset) for key, (offset, _) in slots.items()}
    x, y = _drawn(loop, streams, cfg.samples)["aip"]
    poison = loop.mat.inverse(x[0])
    real = MatrixLoop.lift_steps

    def run(self, calls):
        for operation, operands in calls:
            if operation == "mul" and (np.abs(operands[0] - poison).max(axis=(-2, -1)) < 1e-8).any():
                raise NotPositiveDefinite(f"injected in a stack of {sum(len(ops[0]) for _, ops in calls)}")
        return real(self, calls)

    monkeypatch.setattr(MatrixLoop, "lift_steps", run)
    with pytest.raises(NotPositiveDefinite) as alone:
        check_aip(loop.mat, x, y)
    report = _without_timing(run_verify(cfg))
    assert str(alone.value) == f"injected in a stack of {cfg.samples['aip']}"
    for entry, was in zip(report["properties"], clean["properties"]):
        if entry["property"] == "aip":
            assert entry["pass"] is False and entry["max_residual"] == 1.0
            assert entry["detail"] == {"error": str(alone.value)}
        else:
            assert entry == was
    assert report["dimension"] == clean["dimension"]


@pytest.mark.parametrize("samples", [1, 8, 60])
def test_entry_seconds_fit_in_the_total(samples):
    # a row's seconds are its own steps plus its share of the calls it took
    # part in, so with the dimension check's they never exceed the total
    cfg = SuiteConfig(field_name="complex")
    cfg.samples |= {key: samples for key in cfg.samples if key != "dimension_points"}
    report = run_verify(cfg)
    seconds = [entry["seconds"] for entry in report["properties"]]
    assert all(s >= 0.0 for s in seconds)
    assert sum(seconds) + report["dimension"]["seconds"] <= report["total_seconds"]


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_batched_draw_is_the_per_row_draw_bit_for_bit(monkeypatch, name, seed):
    # each row's own splitmix64 pass, against one pass over a run: every
    # row whole, then every row cut by the runner into slices of
    # 4 // (its layout's length) samples, or one, each drawn from where the
    # row's whole draw reaches its first sample
    loop = resolve(SuiteConfig(seed=seed, **SUITES[name]))
    streams = {row.key: SampleStream(seed).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    counts = {row.key: MIXED_COUNTS[k % 3] for k, row in enumerate(PROPERTIES)}
    widths = suite.layout(loop)
    per_row = per_row_draw_parts(loop, streams, counts)
    whole = [(row, streams[row.key], counts[row.key]) for row in PROPERTIES]
    monkeypatch.setattr(bruckloops.extension, "PASS_BYTES", 4)
    sliced = [piece for run in suite._runs(streams, counts, widths, 1) for piece in run]
    assert len(sliced) == sum(-(-counts[row.key] // max(1, 4 // len(row.draw))) for row in PROPERTIES)
    for slices in (whole, sliced):
        draws = _counting(monkeypatch, suite, "unit_uniforms")
        drawn = draw_parts(loop, widths, slices)
        assert draws == [sum(count * sum(widths[row.key]) for row, _, count in slices)]
        for row in PROPERTIES:
            row_slices = [parts for (drawn_row, *_), parts in zip(slices, drawn) if drawn_row is row]
            for k, want in enumerate(per_row[row.key]):
                got = np.concatenate([parts[k] for parts in row_slices])
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (row.key, len(row_slices))


def _pass_bytes(values: int, cfg: SuiteConfig) -> int:
    """The pass bound that ``values`` n x n matrices of ``cfg`` fill."""
    return values * cfg.form.matrix_bytes


SLICED_SUITES = ("321c", "422r-c2-boost")


@pytest.mark.parametrize("values", [2, 7])
@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", SLICED_SUITES)
def test_sliced_rows_give_the_same_report(monkeypatch, name, seed, values):
    # a bound of a few values cuts each row into slices of values // (its
    # layout's length) samples, or one (at two values, transversality's
    # three samples into two slices); the report keeps every bit, with the
    # slices packed into runs and with each slice a run alone, where each
    # slice makes one Sigma chart call
    cfg = SuiteConfig(seed=seed, **SUITES[name])
    cfg.samples |= {row.key: (1, 3, 6)[k % 3] for k, row in enumerate(PROPERTIES)}
    whole = _without_timing(run_verify(cfg))
    monkeypatch.setattr(bruckloops.extension, "PASS_BYTES", _pass_bytes(values, cfg))
    assert _without_timing(run_verify(cfg)) == whole
    monkeypatch.setattr(suite, "_STEPS_BYTES", -1)
    sigma = _counting(monkeypatch, suite, "sigma_from_uniforms")
    assert _without_timing(run_verify(cfg)) == whole
    want = []
    for row in PROPERTIES:
        count, size = cfg.samples[row.key], max(1, values // len(row.draw))
        want += [row.draw.count("sigma") * (min(start + size, count) - start) for start in range(0, count, size)]
    assert len(sigma) > len(PROPERTIES) and sigma == want


# The kernel identities a row runs as it is, each with its checker, on the
# matrix loop of the lifts or on the extension loop.
CHECKED_ROWS = {
    "loop_axioms": (kernel.loop_axioms, kernel.check_loop_axioms, False),
    "bol": (kernel.bol, kernel.check_bol, False),
    "aip": (kernel.aip, kernel.check_aip, False),
    "left_a": (kernel.left_a, kernel.check_left_a, False),
    "ext_loop_axioms": (kernel.loop_axioms, kernel.check_loop_axioms, True),
    "ext_bol": (kernel.bol, kernel.check_bol, True),
}


@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("name", sorted(BENCH_SUITES))
def test_rows_return_per_sample_stacks_that_the_runner_alone_folds(monkeypatch, name, sliced):
    # at the benchmark's counts, whole and in slices of at most 7 values:
    # every stack a row returns holds one value per sample of its slice,
    # the report's residual and margin are their folds, max from 0 and
    # min, bit for bit, and each checker is the fold of its identity's
    # stack, the report's residual
    cfg = SuiteConfig(seed=1, **BENCH_SUITES[name][0])
    cfg.samples |= {key: 8 for key in cfg.samples if key != "dimension_points"}
    if sliced:
        monkeypatch.setattr(bruckloops.extension, "PASS_BYTES", _pass_bytes(7, cfg))
    seen, real = {}, suite._entries

    def entries(row, count, outcomes):
        seen[row.key] = count, [outcome.value for outcome in outcomes]
        return real(row, count, outcomes)

    monkeypatch.setattr(suite, "_entries", entries)
    report = {entry["property"]: entry for entry in run_verify(cfg)["properties"]}
    for row in PROPERTIES:
        count, values = seen[row.key]
        assert len(values) > 1 if sliced else len(values) == 1, row.key
        lengths = []
        for residuals, detail in values:
            stacks = [*residuals, *(detail or {}).values()]
            assert len(stacks) == len(row.entries) + (row.key == "transversality"), row.key
            assert all(s.ndim == 1 and len(s) == len(stacks[0]) for s in stacks), row.key
            lengths.append(len(stacks[0]))
        assert sum(lengths) == count == 8, row.key
        for k, (entry, _) in enumerate(row.entries):
            stack = np.concatenate([residuals[k] for residuals, _ in values])
            assert float(np.max(stack, initial=0.0)) == report[entry]["max_residual"], entry
    margins = np.concatenate([detail["worst_margin"] for _, detail in seen["transversality"][1]])
    assert float(np.min(margins)) == report["transversality"]["detail"]["worst_margin"]
    loop = resolve(cfg)
    slots = suite.stream_slots(loop, cfg.samples, suite.layout(loop))
    drawn = _drawn(loop, {key: SampleStream(cfg.seed).split(offset) for key, (offset, _) in slots.items()},
                   cfg.samples)
    for key, (identity, check, on_elements) in CHECKED_ROWS.items():
        on, xs = (loop, suite._elements(drawn[key])) if on_elements else (loop.mat, drawn[key])
        stack = kernel.run(identity(on, *xs))
        assert stack.shape == (8,) and check(on, *xs) == worst(stack) == report[key]["max_residual"], key


@pytest.mark.parametrize("alone", [True, False])
@pytest.mark.parametrize("name", SLICED_SUITES)
def test_a_breakdown_in_a_rows_second_slice_fails_that_row_alone(monkeypatch, name, alone):
    # bol runs in three slices of two samples; breakdowns on the first
    # matrix of its second and third slices fail bol with the second
    # slice's text, and every other entry keeps its bits.  With each slice
    # a run alone the third slice is never drawn; with every slice in one
    # run, it is driven beside the second, whose breakdown still stands
    cfg = _fused_config(name, "mixed")
    cfg.samples["bol"] = 6
    clean = _without_timing(run_verify(cfg))
    loop = resolve(cfg)
    slots = suite.stream_slots(loop, cfg.samples, suite.layout(loop))
    streams = {key: SampleStream(cfg.seed).split(offset) for key, (offset, _) in slots.items()}
    x = _drawn(loop, streams, cfg.samples)["bol"][0]
    real, real_draw, drawn = MatrixLoop.lift_steps, suite.draw_parts, []

    def run(self, calls):
        for op, ops in calls:
            for k in (2, 4):
                if op == "mul" and np.all(ops[0] == x[k], axis=(-2, -1)).any():
                    raise NotPositiveDefinite(f"injected at sample {k} in a stack of {len(ops[0])}")
        return real(self, calls)

    def drawing(loop, widths, slices):
        drawn.extend((row.key, stream.counter, count) for row, stream, count in slices)
        return real_draw(loop, widths, slices)

    monkeypatch.setattr(MatrixLoop, "lift_steps", run)
    monkeypatch.setattr(suite, "draw_parts", drawing)
    monkeypatch.setattr(bruckloops.extension, "PASS_BYTES", _pass_bytes(6, cfg))  # bol: 2 samples a slice
    monkeypatch.setattr(suite, "_STEPS_BYTES", -1 if alone else 1 << 40)
    report = _without_timing(run_verify(cfg))
    width, bol = sum(suite.layout(loop)["bol"]), streams["bol"].counter
    slices = [(bol + start * width, 2) for start in (0, 2, 4)]
    assert [(counter, count) for key, counter, count in drawn if key == "bol"] == slices[: 2 if alone else 3]
    for entry, was in zip(report["properties"], clean["properties"]):
        if entry["property"] == "bol":
            assert entry["pass"] is False and entry["max_residual"] == 1.0 and entry["samples"] == 6
            assert entry["detail"] == {"error": "injected at sample 2 in a stack of 4"}
        else:
            assert entry == was
    assert report["dimension"] == clean["dimension"]


SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "suite_report.schema.json"


@pytest.mark.parametrize("kind, chart", [("sigma", "sigma_from_uniforms"), ("phi", "phi_from_uniforms")])
def test_a_chart_breakdown_fails_the_rows_it_serves(tmp_path, monkeypatch, kind, chart):
    jsonschema = pytest.importorskip("jsonschema")
    clean = tmp_path / "clean.json"
    assert main(["verify", "--samples", "2", "--out", str(clean)]) == 0

    def refuse(*args, **kwargs):
        raise NoConvergence("injected")

    monkeypatch.setattr(suite, chart, refuse)
    out = tmp_path / "report.json"
    assert main(["verify", "--samples", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    jsonschema.validate(report, json.loads(SCHEMA.read_text()))
    served = {name for row in PROPERTIES if kind in row.draw for name, _ in row.entries}
    if kind == "phi":
        assert served == {"conjugation_closure", "factorization_recovery", "factorization_reconstruction"}
    else:  # every row draws Sigma elements
        assert len(served) == len(report["properties"])
    before = _without_timing(json.loads(clean.read_text()))
    for entry, was in zip(report["properties"], before["properties"]):
        if entry["property"] in served:
            assert entry["pass"] is False and entry["max_residual"] == 1.0
            assert entry["detail"]["error"] == "injected"
        else:
            assert _without_timing(entry) == was
    assert _without_timing(report["dimension"]) == before["dimension"]


@pytest.mark.parametrize("loop", ["matrix", "extension"])
def test_sample_command_prints_the_per_sample_draws(capsys, loop):
    assert main(["sample", "--count", "3", "--seed", "7", "--loop", loop]) == 0
    lines = capsys.readouterr().out.splitlines()
    eloop = resolve(SuiteConfig(seed=7))
    stream = ReferenceStream(7)
    expected = []
    for _ in range(3):
        if loop == "matrix":
            elem, stream = one(draw(eloop.form, stream, 1, radius=0.75))
            expected.append(json.dumps(element_to_json(elem, eloop.form), sort_keys=True))
        else:
            elem, stream = one(draw(eloop, stream, 1))
            expected.append(json.dumps(elem.to_json(eloop.form), sort_keys=True))
    assert lines == expected


class TestPerElementFailures:
    """One bad matrix in a stack fails the stacked call with the error class
    the same matrix raises on its own."""

    @pytest.fixture
    def mloop(self, form321r):
        return MatrixLoop(form321r)

    def _stack(self, mloop, bad):
        good, _ = draw(mloop, SampleStream(5), 3)
        return np.concatenate([good[:2], bad[None], good[2:]])

    def test_one_bad_element_fails_inverse_of(self, mloop):
        good, _ = draw(mloop, SampleStream(5), 3)
        assert mloop.distance(inverse_of(mloop, good), mloop.inverse(good)).max() <= 1e-10
        # 2I is no isometry: J A J is not its inverse, so e/x and x\e part
        stack = self._stack(mloop, 2.0 * np.eye(3))
        with pytest.raises(InversesDisagree):
            inverse_of(mloop, stack[2])
        with pytest.raises(InversesDisagree):
            inverse_of(mloop, stack)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.diag([1.0, 1.0, -1.0]), NotPositiveDefinite),
            (np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), NotHermitian),
        ],
    )
    def test_one_bad_matrix_fails_the_stacked_spectral_call(self, mloop, bad, error):
        stack = self._stack(mloop, bad)
        with pytest.raises(error):
            spectral_map(stack[2])
        with pytest.raises(error):
            spectral_map(stack)

    def test_one_singular_operand_fails_the_stacked_division(self, mloop):
        a, _ = draw(mloop, SampleStream(6), 4)
        c = self._stack(mloop, np.zeros((3, 3)))
        with pytest.raises(NotPositiveDefinite):
            mloop.left_divide(a[2], c[2])
        with pytest.raises(NotPositiveDefinite):
            mloop.left_divide(a, c)

    def test_one_direction_off_the_orbit_fails_the_stacked_lift(self, form321r):
        # the product e0 * (0, rho) lifts the carrier columns of rho as they are
        cfg = extension_config(form321r)
        x, _ = one(draw(cfg, SampleStream(8), 1))
        bad = np.eye(3)[:, [0, 2, 1]]  # carrier columns of no graph over the carrier: their top block is singular
        with pytest.raises(NotInOrbit, match="^direction is not in the orbit: "):
            cfg.mul(cfg.identity, ExtensionElement(np.zeros(3), bad))
        with pytest.raises(NotInOrbit, match="^direction is not in the orbit: "):
            cfg.mul(cfg.identity, ExtensionElement(np.zeros((3, 3)), np.stack([x.rho, bad, x.rho])))

    def test_one_direction_off_the_orbit_fails_the_stacked_coordinates(self, form321r):
        cfg = extension_config(form321r)
        x, _ = one(draw(cfg, SampleStream(8), 1))
        good = x.rho[:, :2]
        bad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])  # the graph of a non-contraction
        frames = np.stack([good, bad, good])
        with pytest.raises(NotInOrbit):
            cfg.coordinates(AffineSubspace(np.zeros(3), bad))
        with pytest.raises(NotInOrbit):
            cfg.coordinates(AffineSubspace(np.zeros((3, 3)), frames))
