"""The batched sampler and verification rows against their per-sample
reference (tests/reference.py), the draw pooled over all rows, and
per-element failures inside stacks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import bruckloops.cli as cli
import bruckloops.extension
from bruckloops.cli import PROPERTIES, TOLERANCES, SuiteConfig, draw_parts, main, resolve, run_verify
from bruckloops.errors import InversesDisagree, NoConvergence, NotHermitian, NotInOrbit, NotPositiveDefinite
from bruckloops.extension import extension_config, lift_from_infinity
from bruckloops.groups import SampleStream, element_to_json, sample_sigma
from bruckloops.kernel import check_left_a, inverse_of
from bruckloops.linalg import spectral_map
from bruckloops.matrixloop import MatrixLoop
from conftest import one
from reference import ROWS, ReferenceStream, check_drawn, draw, left_a, reference_uniforms

SEEDS = [0, 1, 7919, -5, 2**70 + 3, 2**64 - 1]
COUNTERS = [0, 10**7, 2**63 - 100]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("counter", COUNTERS)
def test_next_uniforms_is_the_reference_splitmix_bit_for_bit(seed, counter):
    vals, stream = SampleStream(seed, counter).next_uniforms(257, -0.75, 0.75)
    assert np.array_equal(vals, reference_uniforms(seed, counter, 257, -0.75, 0.75))
    assert stream == SampleStream(seed, counter + 257)
    unit, _ = SampleStream(seed, counter).next_uniforms(5)
    assert np.array_equal(unit, reference_uniforms(seed, counter, 5))


def test_next_rows_split_sample_by_sample():
    (a, b), stream = SampleStream(3).next_rows(4, 2, 3)
    flat = reference_uniforms(3, 0, 20).reshape(4, 5)
    assert np.array_equal(a, flat[:, :2]) and np.array_equal(b, flat[:, 2:])
    assert stream.counter == 20


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


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_row_matches_the_per_sample_reference(name, seed):
    loop = resolve(SuiteConfig(seed=seed, **SUITES[name]))
    streams = {row.key: SampleStream(seed).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    counts = {row.key: MIXED_COUNTS[k % 3] for k, row in enumerate(PROPERTIES)}
    drawn = draw_parts(loop, streams, counts)
    for row in PROPERTIES:
        stream, count = streams[row.key], counts[row.key]
        batched, _ = row.run(loop, *drawn[row.key])
        reference = ROWS[row.key](loop, ReferenceStream(stream.seed, stream.counter), count)
        for (entry, key), got, want in zip(row.entries, batched, reference):
            assert abs(got - want) <= 1e-15 * max(abs(got), abs(want)), (entry, got, want)
            assert (got <= TOLERANCES[key]) == (want <= TOLERANCES[key]), entry


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_left_a_on_the_extension_loop_matches_the_per_sample_reference(name, seed):
    # no suite row runs left-A on extension elements, so its fused levels
    # are checked here
    loop = resolve(SuiteConfig(seed=seed, **SUITES[name]))
    stream = SampleStream(seed).split(4000)
    got = check_drawn(check_left_a, loop, stream, COUNT)
    (want,) = left_a(loop, ReferenceStream(stream.seed, stream.counter), COUNT)
    assert abs(got - want) <= 1e-15 * max(abs(got), abs(want)), (got, want)


def test_extension_sample_is_the_verify_element_draw():
    # ExtensionConfig.sample (``sample --loop extension``) and a verify row
    # of layout _ELEMENT give the same elements from the same stream
    loop = resolve(SuiteConfig(seed=3, **SUITES["633c"]))
    streams = {row.key: SampleStream(3).split((k + 1) * 1000) for k, row in enumerate(PROPERTIES)}
    counts = {row.key: 5 for row in PROPERTIES}
    drawn = draw_parts(loop, streams, counts)
    row = next(row for row in PROPERTIES if row.draw == cli._ELEMENT)
    w, rho = drawn[row.key]
    elems, _ = loop.sample(streams[row.key], counts[row.key])
    assert w.tobytes() == elems.w.tobytes() and rho.tobytes() == elems.rho.tobytes()


@pytest.mark.parametrize("carrier", [1, 2])
def test_stream_slots_are_disjoint_at_the_largest_counts(monkeypatch, carrier):
    # at (7,4,3) complex a row's draw at MAX_SAMPLES outgrows 10,000,000
    # uniforms, so the stride grows with it; nothing is drawn here
    def no_draw(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(SampleStream, "next_uniforms", no_draw)
    loop = resolve(SuiteConfig(n=7, p1=4, p2=3, field_name="complex", carrier=carrier))
    slots = sorted(cli.stream_slots(loop, {key: cli.MAX_SAMPLES for key in cli.DEFAULT_SAMPLES}).values())
    assert len(slots) == len(cli.DEFAULT_SAMPLES)
    assert max(size for _, size in slots) > 10_000_000
    assert all(start + size <= following for (start, size), (following, _) in zip(slots, slots[1:]))


def test_stream_slots_keep_their_offsets_while_the_draws_fit():
    loop = resolve(SuiteConfig())
    slots = cli.stream_slots(loop, cli.DEFAULT_SAMPLES)
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


# The two benchmark suites, at the benchmark's 20 dimension points, and the
# spectral calls of one verify: one Sigma chart and one Phi chart for all
# rows, one chart for the dimension check, one call per loop operation per
# dependency level and the membership judge's
BENCH_SUITES = {
    "321c": (dict(n=3, p1=2, p2=1, field_name="complex"), 35),
    "422r-c2": (dict(n=4, p1=2, p2=2, carrier=2, wtilde=f"boost:{math.log(2)!r}"), 36),
}


@pytest.mark.parametrize("samples", [2, 8])
@pytest.mark.parametrize("name", sorted(BENCH_SUITES))
def test_a_verify_makes_one_chart_call_per_kind(monkeypatch, eig_calls, name, samples):
    settings, eig_count = BENCH_SUITES[name]
    sigma = _counting(monkeypatch, cli, "sigma_from_uniforms")
    phi = _counting(monkeypatch, cli, "phi_from_uniforms")
    dimension = _counting(monkeypatch, bruckloops.extension, "sigma_from_block")
    cfg = SuiteConfig(**settings)
    cfg.samples |= {key: samples for key in cfg.samples if key != "dimension_points"}
    run_verify(cfg)
    draws = {kind: sum(row.draw.count(kind) for row in PROPERTIES) for kind in ("sigma", "phi")}
    assert sigma == [draws["sigma"] * samples] and phi == [draws["phi"] * samples]
    assert len(dimension) == 1
    assert len(eig_calls) == eig_count


def test_chunked_charts_give_the_same_report(monkeypatch):
    cfg = SuiteConfig(field_name="complex", seed=7919)
    cfg.samples |= {row.key: (1, 3, 6)[k % 3] for k, row in enumerate(PROPERTIES)}
    whole = _without_timing(run_verify(cfg))
    monkeypatch.setattr(cli, "_CHART_CHUNK", 7)
    sigma = _counting(monkeypatch, cli, "sigma_from_uniforms")
    assert _without_timing(run_verify(cfg)) == whole
    total = sum(row.draw.count("sigma") * cfg.samples[row.key] for row in PROPERTIES)
    assert sigma == [7] * (total // 7) + [total % 7] * (total % 7 > 0)


SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "suite_report.schema.json"


@pytest.mark.parametrize("kind, chart", [("sigma", "sigma_from_uniforms"), ("phi", "phi_from_uniforms")])
def test_a_chart_breakdown_fails_the_rows_it_serves(tmp_path, monkeypatch, kind, chart):
    jsonschema = pytest.importorskip("jsonschema")
    clean = tmp_path / "clean.json"
    assert main(["verify", "--samples", "2", "--out", str(clean)]) == 0

    def refuse(*args, **kwargs):
        raise NoConvergence("injected")

    monkeypatch.setattr(cli, chart, refuse)
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
            elem, stream = draw(sample_sigma, eloop.form, stream, 1, 0.75)
            expected.append(json.dumps(element_to_json(elem, eloop.form), sort_keys=True))
        else:
            elem, stream = draw(eloop.sample, stream, 1)
            expected.append(json.dumps(elem.to_json(eloop.form), sort_keys=True))
    assert lines == expected


class TestPerElementFailures:
    """One bad matrix in a stack fails the stacked call with the error class
    the same matrix raises on its own."""

    @pytest.fixture
    def mloop(self, form321r):
        return MatrixLoop(form321r)

    def _stack(self, mloop, bad):
        good, _ = mloop.sample(SampleStream(5), 3)
        return np.concatenate([good[:2], bad[None], good[2:]])

    def test_one_bad_element_fails_inverse_of(self, mloop):
        good, _ = mloop.sample(SampleStream(5), 3)
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
            spectral_map(stack[2], "sqrt")
        with pytest.raises(error):
            spectral_map(stack, "sqrt")

    def test_one_singular_operand_fails_the_stacked_division(self, mloop):
        a, _ = mloop.sample(SampleStream(6), 4)
        c = self._stack(mloop, np.zeros((3, 3)))
        with pytest.raises(NotPositiveDefinite):
            mloop.left_divide(a[2], c[2])
        with pytest.raises(NotPositiveDefinite):
            mloop.left_divide(a, c)

    def test_one_direction_off_the_orbit_fails_the_stacked_lift(self, form321r):
        cfg = extension_config(form321r)
        x, _ = one(cfg.sample(SampleStream(8), 1))
        good = x.rho[:, :2]
        bad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])  # the graph of a non-contraction
        with pytest.raises(NotInOrbit):
            lift_from_infinity(bad, cfg)
        with pytest.raises(NotInOrbit):
            lift_from_infinity(np.stack([good, bad, good]), cfg)
