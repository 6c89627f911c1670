import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruckloops import cli
from bruckloops.cli import COMMANDS, SETTINGS, SuiteConfig, _diagnostics, main, run_verify
from bruckloops.errors import NotInOrbit, NotPositiveDefinite
from bruckloops.groups import SignatureForm, element_to_json, standard_boost
from bruckloops.kernel import INVERSE_GAP
from bruckloops.suite import DEFAULT_SAMPLES, MAX_SAMPLES, PROPERTIES, TOLERANCES
from conftest import boost3, rotation
from reference import operand_refusal, write_matrix_text

SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "suite_report.schema.json"

SMALL_SAMPLES = {
    "loop_axioms": 25,
    "sigma_closure": 25,
    "bol": 25,
    "aip": 25,
    "left_a": 10,
    "conjugation_closure": 25,
    "factorization": 25,
    "transversality": 25,
    "ext_loop_axioms": 15,
    "ext_infinity_compat": 15,
    "ext_bol": 5,
    "ext_aip": 5,
    "solve_translation": 10,
    "dimension_points": 4,
}


# Transversal files for (3,2,1), carrier 1: objects with or without "base"
# and "frame", of the right shape or of random shapes, with entries that
# include non-finite, huge and non-numeric values; now and then a root that
# is not an object.
_FLOAT = st.floats(-2, 2)
_ODD = [1.25, math.nan, math.inf, -math.inf, 1e300, -1e300, "x", None, True]
_ENTRY = st.one_of(_FLOAT, st.sampled_from(_ODD))
_ROWS = st.lists(st.lists(_ENTRY, max_size=4), max_size=4)
TRANSVERSAL_FILES = st.one_of(
    st.fixed_dictionaries({
        "base": st.one_of(st.just([0.0, 0.0, 0.0]), st.lists(_ENTRY, min_size=3, max_size=3)),
        "frame": st.lists(
            st.lists(st.one_of(_FLOAT, _ENTRY), min_size=1, max_size=1), min_size=3, max_size=3
        ),
    }),
    st.fixed_dictionaries({}, optional={"base": st.one_of(st.lists(_ENTRY, max_size=4), _ENTRY),
                                        "frame": st.one_of(_ROWS, _ENTRY)}),
    _ROWS,
    _ENTRY,
)

# Config dicts and element files with one field of a valid one replaced by a
# drawn value.  Purely random inputs almost never get past the first check,
# so edits of valid ones reach the arithmetic; integers stay small so n, p1
# and p2 keep every example fast.
_VALUE = st.one_of(
    st.integers(-2, 6), st.floats(-2, 2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, "x", "complex", None, True, [1, 2]]),
)
_VALID_CONFIG = {"n": 3, "p1": 2, "p2": 1, "field": "real", "carrier": 1, "seed": 1, "wtilde": "standard"}
_CONFIG_KEYS = [(key,) for key in _VALID_CONFIG]
_MATRIX_PATHS = (
    [("matrix", i, j) for i in range(3) for j in range(3)]
    + [("form", key) for key in ("n", "p1", "p2", "field")]
    + [("matrix", 0), ("matrix",), ("form",)]
)
_EXTENSION_PATHS = [("w", i) for i in range(3)] + [("w",), ("rho",)] + [("rho", *p) for p in _MATRIX_PATHS]
CONFIG_EDITS = st.tuples(st.sampled_from(["matrix", "extension"]), st.sampled_from(_CONFIG_KEYS), _VALUE)
ELEMENT_EDITS = st.one_of(
    st.tuples(st.just("matrix"), st.sampled_from(_MATRIX_PATHS), _VALUE),
    st.tuples(st.just("extension"), st.sampled_from(_EXTENSION_PATHS), _VALUE),
)


def replaced(obj, path, value):
    """A deep copy of ``obj`` with the entry at ``path`` set to ``value``."""
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def write_config(path, **extra):
    cfg = {"n": 3, "p1": 2, "p2": 1, "field": "real", "seed": 1, "samples": SMALL_SAMPLES}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in ("seconds", "total_seconds")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class TestVerify:
    def test_default_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        names = [p["property"] for p in report["properties"]]
        assert names == sorted(names)
        assert report["dimension"]["measured"] == 3

    def test_dimension_block_lists_per_point_ranks(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        dim = json.loads(out.read_text())["dimension"]
        assert dim["ranks"] == [3] * SMALL_SAMPLES["dimension_points"] == [dim["measured"]] * dim["points"]

    def test_report_matches_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), json.loads(SCHEMA.read_text()))

    def test_swapped_signature_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", p1=1, p2=2)
        assert main(["verify", "--config", cfg]) == 2

    def test_non_transversal_file_is_config_error(self, tmp_path):
        wt = tmp_path / "wt.json"
        wt.write_text(json.dumps({"base": [0.0, 0.0, 0.0], "frame": [[1.0], [0.0], [0.0]]}))
        cfg = write_config(tmp_path / "cfg.json", wtilde=f"file:{wt}")
        assert main(["verify", "--config", cfg]) == 2
        # the refused transversal neither creates nor truncates the report file
        new, kept = tmp_path / "new.json", tmp_path / "kept.json"
        kept.write_text("kept")
        for out in (new, kept):
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not new.exists() and kept.read_text() == "kept"

    def test_failing_tolerance_gives_exit_one_and_report(self, tmp_path, monkeypatch):
        monkeypatch.setitem(TOLERANCES, "identity", 1e-20)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        failed = {p["property"] for p in report["properties"] if not p["pass"]}
        assert "loop_axioms" in failed and "sigma_closure" not in failed

    def test_entries_carry_the_fixed_bounds(self, tmp_path):
        # the bounds are constants: each entry is judged against its row's
        # table value, and the table holds these values
        assert TOLERANCES == {
            "identity": 1e-8, "membership": 1e-9, "factor": 1e-8,
            "factor_reconstruction": 1e-10, "solve": 1e-8, "solve_stability": 1e-6,
            "inverse": 1e-9,
        }
        bound = {name: TOLERANCES[key] for row in PROPERTIES for name, key in row.entries}
        report = run_verify(SuiteConfig(samples={name: 2 for name in DEFAULT_SAMPLES}))
        assert {p["property"]: p["tolerance"] for p in report["properties"]} == bound
        assert "tolerances" not in report["config"]

    def test_determinism_modulo_timing(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        a = json.dumps(strip_timing(json.loads(out1.read_text())), sort_keys=True)
        b = json.dumps(strip_timing(json.loads(out2.read_text())), sort_keys=True)
        assert a.encode() == b.encode()

    def test_boosted_transversal_suite(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", wtilde=f"boost:{math.log(2)}")
        assert main(["verify", "--config", cfg]) == 0

    @pytest.mark.parametrize("t", ["12", "100"])
    def test_almost_null_boosted_transversal_passes(self, tmp_path, t):
        # the form is non-positive on the boosted line, so it is a valid
        # transversal even where the boost is far from well conditioned
        cfg = write_config(tmp_path / "cfg.json", wtilde=f"boost:{t}")
        assert main(["verify", "--config", cfg, "--samples", "3"]) == 0

    @pytest.mark.parametrize(
        "section", [{"identity": 1.0}, {"tau_abs": 1e-9}], ids=["identity-loosened", "tau_abs"]
    )
    def test_tolerances_section_is_config_error(self, tmp_path, capsys, section):
        # the bounds are fixed: a config can neither loosen one nor name a removed one
        cfg = write_config(tmp_path / "cfg.json", tolerances=section)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tolerances" in err and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-folder", "folder", "file-as-folder", "empty"])
    def test_unwritable_report_path_fails_before_the_suite(self, tmp_path, capsys, monkeypatch, where):
        import bruckloops.cli

        def refuse(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bruckloops.cli, "run_verify", refuse)
        (tmp_path / "file").write_text("")
        out = {
            "missing-folder": tmp_path / "missing" / "r.json",
            "folder": tmp_path,
            "file-as-folder": tmp_path / "file" / "r.json",
            "empty": "",
        }[where]
        assert main(["verify", "--samples", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_numeric_breakdown_is_a_failed_entry(self, tmp_path, capsys, monkeypatch):
        import bruckloops.linalg

        jsonschema = pytest.importorskip("jsonschema")
        # the lift's M^-1 = F2 F2* >= I makes a floor of at least 1 necessary
        # to break it; the QR column floor is TAU_COLUMN, so the config still
        # resolves
        monkeypatch.setattr(bruckloops.linalg, "TAU_ABS", 2.0)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--samples", "3", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
        broken = [p for p in report["properties"] if "error" in p.get("detail", {})]
        for p in broken:
            assert p["pass"] is False and p["max_residual"] == 1.0 and p["detail"]["error"]
        errors = {p["property"]: p["detail"]["error"] for p in broken}
        assert errors["loop_axioms"].startswith("smallest eigenvalue")

    def test_membership_lapack_failure_fails_its_rows(self, tmp_path, monkeypatch):
        # the closure rows judge membership by its eigenvalues alone; a LAPACK
        # failure there is a breakdown of those rows, not of the suite
        _fail_eigvalsh(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["verify", "--samples", "3", "--out", str(out)]) == 1
        entries = {p["property"]: p for p in json.loads(out.read_text())["properties"]}
        broken = {name for name, p in entries.items() if "error" in p.get("detail", {})}
        assert broken == {"sigma_closure", "conjugation_closure"}
        for name in broken:
            assert entries[name]["pass"] is False and entries[name]["max_residual"] == 1.0
            assert entries[name]["detail"]["error"] == "eigvalsh failed: Eigenvalues did not converge"
        assert all(p["pass"] for name, p in entries.items() if p["required"] and name not in broken)

    def test_breakdown_fails_every_entry_of_its_row(self, tmp_path, monkeypatch):
        # the row's coordinates request shares the extension loop's omega
        # call: that call breaks, and re-run per request only the row's fails
        from bruckloops.extension import ExtensionConfig

        real = ExtensionConfig.run

        def refuse(self, calls):
            if any(operation == "coordinates" for operation, _ in calls):
                raise NotInOrbit("no translation")
            return real(self, calls)

        monkeypatch.setattr(ExtensionConfig, "run", refuse)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        entries = {p["property"]: p for p in json.loads(out.read_text())["properties"]}
        for name in ("solve_translation", "solve_translation_stability"):
            assert entries[name]["pass"] is False
            assert entries[name]["detail"]["error"] == "no translation"

    def test_companion_entries_name_their_timer(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        entries = {p["property"]: p for p in json.loads(out.read_text())["properties"]}
        for first, companion in (
            ("factorization_recovery", "factorization_reconstruction"),
            ("solve_translation", "solve_translation_stability"),
        ):
            assert entries[first]["seconds"] > 0.0 and "detail" not in entries[first]
            assert entries[companion]["seconds"] == 0.0
            assert entries[companion]["detail"] == {"timed_with": first}

    def test_zero_count_report_is_strict_json(self):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = SuiteConfig(samples={name: 0 for name in DEFAULT_SAMPLES})
        report = run_verify(cfg)
        jsonschema.validate(json.loads(json.dumps(report, allow_nan=False)), json.loads(SCHEMA.read_text()))
        entry = next(p for p in report["properties"] if p["property"] == "transversality")
        assert "detail" not in entry

    @pytest.mark.parametrize(
        "extra, argv, wtilde",
        [
            ({"n": "abc"}, [], None),
            ({"samples": {"bol": "x"}}, [], None),
            ({"tolerances": {"membership": "nan"}}, [], None),
            ({}, ["--samples", "-5"], None),
            ({"tolerances": {"identity": -1.0}}, [], None),
            ({}, ["--wtilde", "boost:1e6"], None),
            ({}, ["--wtilde", "boost:700"], None),
            ({"n": 3.9}, [], None),
            ({"seed": 1.7}, [], None),
            ({"samples": {"bol": True}}, [], None),
            ({"tolerances": {"identity": True}}, [], None),
            ({"n": math.inf}, [], None),
            ({}, [], {"base": [0.0, 0.0, 0.0], "frame": [[math.nan], [0.0], [1.0]]}),
            ({}, [], {"frame": [[0.0], [0.0], [1.0]]}),
            ({}, [], [[0.0], [0.0], [1.0]]),
            ({}, [], {"base": [0.0, 0.0, 0.0], "frame": [[1.25], [0.0], [1.0]]}),
            ({}, [], {"base": [0.0, 0.0, 0.0], "frame": [[0.0], [0.0], [0.0]]}),
            ({}, [], {"base": [0.0, 0.0, 1e300], "frame": [[0.0], [1.0], [0.0]]}),
            ({"seeed": 5}, [], None),
            ({"out": None}, [], None),
            ({"out": ""}, [], None),
            ({"n": "3"}, [], None),
            ({"samples": {"bol": "5"}}, [], None),
            ({}, [], {"base": [0, 0], "frame": [[0], [0], [1]]}),
            ({"carrier": 2}, [], {"base": [0, 0, 0], "frame": [[0, 0], [0, 0], [1, 2]]}),
            ({"samples": None}, [], None),
            ({"samples": [1, 2]}, [], None),
            ({"samples": {"bol": math.nan}}, [], None),
            ({"samples": {"bol": 1e308}}, [], None),
            ({"samples": {"bol": [1, 2]}}, [], None),
            ({"samples": {"bol": 2.5}}, [], None),
            ({}, ["--samples", str(MAX_SAMPLES + 1)], None),
        ],
        ids=[
            "n-abc", "samples-x", "membership-nan", "samples-neg", "tol-neg", "boost-overflow", "boost-700",
            "n-float", "seed-float", "samples-bool", "tol-bool", "n-inf",
            "wtilde-nan", "wtilde-no-base", "wtilde-list", "wtilde-contraction-1.25",
            "wtilde-zero-column", "wtilde-huge-base", "unknown-key", "out-null", "out-empty",
            "n-string", "samples-string", "wtilde-short-base", "wtilde-dependent-columns",
            "samples-null", "samples-list", "samples-nan", "samples-1e308", "samples-entry-list",
            "samples-fraction", "samples-over-max",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, monkeypatch, extra, argv, wtilde):
        monkeypatch.chdir(tmp_path)
        if wtilde is not None:
            wt = tmp_path / "wt.json"
            wt.write_text(json.dumps(wtilde))
            extra = dict(extra, wtilde=f"file:{wt}")
        cfg = write_config(tmp_path / "cfg.json", **extra)
        assert main(["verify", "--config", cfg, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--wtilde" in argv:
            assert argv[argv.index("--wtilde") + 1] in err
        # a null "out" names no report file, least of all one called None
        assert not (tmp_path / "None").exists()

    def test_flags_and_config_file_agree(self, tmp_path):
        # the same settings given as flags and as a config file give the same report body
        flags_out, file_out = tmp_path / "flags.json", tmp_path / "file.json"
        argv = ["--n", "4", "--p1", "3", "--p2", "1", "--field", "real", "--carrier", "2",
                "--wtilde", "standard", "--seed", "7", "--samples", "3"]
        assert main(["verify", *argv, "--out", str(flags_out)]) == 0
        config = {
            "n": 4, "p1": 3, "p2": 1, "field": "real", "carrier": 2, "wtilde": "standard", "seed": 7,
            "samples": {name: 3 for name in DEFAULT_SAMPLES if name != "dimension_points"},
            "out": str(file_out),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cfg)]) == 0
        bodies = [
            json.dumps(strip_timing(json.loads(path.read_text())), sort_keys=True).encode()
            for path in (flags_out, file_out)
        ]
        assert bodies[0] == bodies[1]
        assert json.loads(bodies[0])["config"]["n"] == 4

    def test_short_transversal_direction_passes(self, tmp_path):
        # [0, 0, 1e-12] spans W_2 itself; only a zero column is dependent
        wt = tmp_path / "wt.json"
        wt.write_text(json.dumps({"base": [0.0, 0.0, 0.0], "frame": [[0.0], [0.0], [1e-12]]}))
        assert main(["verify", "--samples", "3", "--wtilde", f"file:{wt}"]) == 0

    @settings(max_examples=200, deadline=None)
    @given(TRANSVERSAL_FILES)
    def test_transversal_file_fuzz(self, tmp_path_factory, obj):
        wt = tmp_path_factory.mktemp("wt") / "wt.json"
        wt.write_text(json.dumps(obj))
        assert main(["sample", "--loop", "extension", "--wtilde", f"file:{wt}"]) in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(CONFIG_EDITS)
    def test_config_fuzz(self, tmp_path_factory, edit):
        loop, path, value = edit
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps(replaced(_VALID_CONFIG, path, value)))
        assert main(["sample", "--count", "1", "--config", str(cfg), "--loop", loop]) in (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([("samples",), ("samples", "bol")]), _VALUE)
    def test_samples_section_fuzz(self, tmp_path_factory, path, value):
        # verify, the one command that reads the section, runs on a count in
        # [1, MAX_SAMPLES] and refuses any other value before the suite runs
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps(replaced(_VALID_CONFIG | {"samples": SMALL_SAMPLES}, path, value)))
        count = len(path) == 2 and type(value) in (int, float) and value % 1 == 0 and 1 <= value <= MAX_SAMPLES
        assert main(["verify", "--config", str(cfg)]) == (0 if count else 2)


# The 16-case set's configs: the four acceptance signatures, both bench
# suites, (3,2,1) real boosted and (4,3,1) real on carrier 2.
SCHEMA_CONFIGS = {
    "321r": {},
    "321c": {"field_name": "complex"},
    "422r": {"n": 4, "p2": 2},
    "431r": {"n": 4, "p1": 3},
    "422r-c2-boost": {"n": 4, "p2": 2, "carrier": 2, "wtilde": "boost:0.6931471805599453"},
    "633c-boost": {"n": 6, "p1": 3, "p2": 3, "field_name": "complex", "wtilde": "boost:0.5"},
    "321r-boost": {"wtilde": "boost:0.6931471805599453"},
    "431r-c2": {"n": 4, "p1": 3, "carrier": 2},
}


def _small_report(**settings) -> dict:
    cfg = SuiteConfig(**settings)
    cfg.samples = dict(SMALL_SAMPLES)
    return json.loads(json.dumps(run_verify(cfg), allow_nan=False))


class TestReportSchema:
    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        return jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    @pytest.mark.parametrize("name", sorted(SCHEMA_CONFIGS))
    def test_reports_of_every_config_pass(self, validator, name):
        report = _small_report(**SCHEMA_CONFIGS[name])
        assert validator.is_valid(report)
        # ext_aip is judged against the kernel's inverse bound, and no
        # config's extension loop has two-sided inverses
        entry = next(p for p in report["properties"] if p["property"] == "ext_aip")
        assert entry["tolerance"] == INVERSE_GAP and entry["pass"] is False and "detail" not in entry

    def test_breakdown_report_passes(self, validator, monkeypatch):
        import bruckloops.extension
        import bruckloops.linalg
        from bruckloops.errors import RankAmbiguous

        def ambiguous(*args, **kwargs):
            raise RankAmbiguous("no gap")

        # the lift's M^-1 >= I: a floor of 2 breaks it, as in the verify test
        monkeypatch.setattr(bruckloops.linalg, "TAU_ABS", 2.0)
        monkeypatch.setattr(bruckloops.extension, "dimension_rank_report", ambiguous)
        report = _small_report()
        assert any("error" in p.get("detail", {}) for p in report["properties"])
        assert report["dimension"]["error"] == "no gap"
        assert validator.is_valid(report)

    @pytest.mark.parametrize("where", ["config.tolerances", "config.bogus", "entry", "detail", "dimension", "root"])
    def test_unknown_keys_fail(self, validator, where):
        report = _small_report()
        entry = next(p for p in report["properties"] if "detail" in p)
        target = {
            "config.tolerances": report["config"],
            "config.bogus": report["config"],
            "entry": entry,
            "detail": entry["detail"],
            "dimension": report["dimension"],
            "root": report,
        }[where]
        assert validator.is_valid(report)
        target["tolerances" if where == "config.tolerances" else "bogus"] = {"identity": 1e-8}
        assert not validator.is_valid(report)


class TestMul:
    def test_identity_times_element(self, tmp_path, capsys, form321r):
        b = standard_boost(form321r, 0.5)
        lhs = tmp_path / "lhs.json"
        rhs = tmp_path / "rhs.json"
        lhs.write_text(json.dumps(element_to_json(np.eye(3), form321r)))
        rhs.write_text(json.dumps(element_to_json(b, form321r)))
        assert main(["mul", str(lhs), str(rhs)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["matrix"], b)
        assert out["diagnostics"]["pass"] is True

    def test_boost_squared_from_text_files(self, tmp_path, capsys):
        a = boost3(math.log(2))
        lhs = tmp_path / "a.mat"
        lhs.write_text(write_matrix_text(a))
        assert main(["mul", str(lhs), str(lhs), "--n", "3", "--p1", "2", "--p2", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.125, 1.875], [0.0, 1.875, 2.125]])
        assert np.max(np.abs(np.array(out["matrix"]) - expected)) <= 1e-10

    def test_extension_identity(self, tmp_path, capsys, form321r):
        ident = {
            "w": [0.0, 0.0, 0.0],
            "rho": element_to_json(np.eye(3), form321r),
        }
        b = standard_boost(form321r, 0.4)
        other = {"w": [0.0, 0.0, 0.25], "rho": element_to_json(b, form321r)}
        lhs = tmp_path / "e1.json"
        rhs = tmp_path / "e2.json"
        lhs.write_text(json.dumps(ident))
        rhs.write_text(json.dumps(other))
        assert main(["mul", str(lhs), str(rhs), "--loop", "extension"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["w"], other["w"])
        assert np.allclose(out["rho"]["matrix"], b)

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2 real\n1 2 3\n")
        good = tmp_path / "good.mat"
        good.write_text(write_matrix_text(np.eye(3)))
        assert main(["mul", str(bad), str(good), "--n", "3", "--p1", "2", "--p2", "1"]) == 2

    @pytest.mark.parametrize(
        "loop, case",
        [
            ("matrix", "truncated"),
            ("extension", "truncated"),
            ("matrix", "non_integer_n"),
            ("extension", "missing_rho"),
            ("extension", "short_w"),
            ("extension", "rho_not_object"),
            ("matrix", "block_rotation"),
            ("matrix", "not_an_isometry"),
            ("matrix", "other_form"),
            ("extension", "block_rotation"),
            ("extension", "w_off_transversal"),
            ("matrix", "form-float"),
            ("matrix", "form-bool"),
            ("matrix", "form-string"),
            ("matrix", "string-rows"),
            ("matrix", "bool-entry"),
            pytest.param("matrix", "three-part-entry", id="complex-three-part-entry"),
            ("matrix", "huge-int-entry"),
            ("matrix", "overflow-entry"),
            ("extension", "w-overflow"),
            ("matrix", "complex-text-real-form"),
            ("matrix", "other_signature"),
            ("extension", "other_signature"),
            ("factor", "other_signature"),
        ],
    )
    def test_malformed_element_file_is_config_error(
        self, tmp_path, capsys, form321r, form321c, loop, case
    ):
        elem = element_to_json(np.eye(3), form321r)
        celem = element_to_json(np.eye(3, dtype=complex), form321c)
        # the other-signature operand is read for --n 4 --p1 3 --p2 1
        form = SignatureForm(4, 3, 1) if case == "other_signature" else form321r
        boost = element_to_json(standard_boost(form, 0.5), form)
        good = boost if loop != "extension" else {"w": [0.0] * form.n, "rho": boost}
        # a Sigma element of the configured size and another signature
        elem422 = element_to_json(np.eye(4), SignatureForm(4, 2, 2))
        # operands that parse but are not Sigma elements of the configured form
        rotated = dict(elem, matrix=rotation(3, 0, 1, 0.7).tolist())
        stretched = dict(elem, matrix=np.diag([2.0, 1.0, 0.5]).tolist())
        bad = {
            "truncated": json.dumps(good)[:40],
            "non_integer_n": json.dumps(dict(elem, form=dict(elem["form"], n="x"))),
            "missing_rho": json.dumps({"w": [0.0, 0.0, 0.0]}),
            "short_w": json.dumps({"w": [0.0, 0.0], "rho": elem}),
            "rho_not_object": json.dumps({"w": [0.0, 0.0, 0.0], "rho": "x"}),
            "block_rotation": json.dumps(
                rotated if loop == "matrix" else {"w": [0.0, 0.0, 0.0], "rho": rotated}
            ),
            "not_an_isometry": json.dumps(stretched),
            "other_form": json.dumps(element_to_json(np.eye(3, dtype=complex), form321c)),
            "other_signature": json.dumps(
                elem422 if loop != "extension" else {"w": [0.0] * 4, "rho": elem422}
            ),
            "w_off_transversal": json.dumps({"w": [0.5, 0.0, 0.3], "rho": elem}),
            "form-float": json.dumps(dict(elem, form={"n": 3.9, "p1": 2.7, "p2": 1, "field": "real"})),
            "form-bool": json.dumps(dict(elem, form=dict(elem["form"], p2=True))),
            "form-string": json.dumps(dict(elem, form=dict(elem["form"], n="3"))),
            # rows and entries of the wrong JSON type, or out of float range
            "string-rows": json.dumps(dict(elem, matrix=["100", "010", "001"])),
            "bool-entry": json.dumps(dict(elem, matrix=[[True, 0, 0], [0, 1, 0], [0, 0, 1]])),
            "three-part-entry": json.dumps(dict(
                celem, matrix=[[[1, 0, 7], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
            )),
            "huge-int-entry": json.dumps(dict(elem, matrix=[[10**400, 0, 0], [0, 1, 0], [0, 0, 1]])),
            # finite entries whose arithmetic overflows
            "overflow-entry": json.dumps(dict(elem, matrix=[[1e200, 0, 0], [0, 1, 0], [0, 0, 1]])),
            "w-overflow": json.dumps({"w": [0.0, 0.0, 1e308], "rho": elem}),
            # a Sigma element, but reading it as real would drop its imaginary part
            "complex-text-real-form": write_matrix_text(boost3(0.5).astype(complex)),
        }[case]
        lhs, rhs = tmp_path / "bad.json", tmp_path / "good.json"
        lhs.write_text(bad)
        # an overflowing operand is multiplied by itself
        other = bad if "overflow" in case else json.dumps(celem if case == "three-part-entry" else good)
        rhs.write_text(other)
        field = "complex" if case == "three-part-entry" else "real"
        command = ["factor", str(lhs)] if loop == "factor" else ["mul", str(lhs), str(rhs), "--loop", loop]
        size = ["--n", "4", "--p1", "3", "--p2", "1"] if case == "other_signature" else []
        assert main(command + ["--field", field] + size) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if case in ("other_form", "other_signature"):
            assert "is not the configured" in err

    def test_extension_operands_make_no_qr(self, tmp_path, capsys, monkeypatch):
        # the standard transversal is canonical as built and the operands'
        # w are measured against its stored frame
        assert main(["sample", "--loop", "extension", "--count", "2"]) == 0
        lhs, rhs = tmp_path / "a.json", tmp_path / "b.json"
        for path, line in zip((lhs, rhs), capsys.readouterr().out.splitlines()):
            path.write_text(line)

        def no_qr(*args, **kwargs):
            raise AssertionError("made a QR call")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert main(["mul", "--loop", "extension", str(lhs), str(rhs)]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["pass"] is True

    @pytest.mark.parametrize("wtilde", ["standard", "boost:0.5"])
    def test_w_is_measured_against_the_transversal(self, tmp_path, capsys, form321r, wtilde):
        # carrier 1: the transversal is the span of e3, or of its boost
        # (0, sinh t, cosh t); each one's point is off the other
        standard, boosted = [0.0, 0.0, 0.25], [0.0, 0.25 * math.sinh(0.5), 0.25 * math.cosh(0.5)]
        on, off = (standard, boosted) if wtilde == "standard" else (boosted, standard)
        rho = element_to_json(np.eye(3), form321r)
        path = tmp_path / "e.json"
        for w, code in ((on, 0), (off, 2), ([0.25, 0.0, 0.0], 2)):
            path.write_text(json.dumps({"w": w, "rho": rho}))
            assert main(["mul", "--loop", "extension", "--wtilde", wtilde, str(path), str(path)]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else f"error: {path}: w is not on the transversal\n")

    @pytest.mark.parametrize("case", ["matrix", "extension", "text-inf", "text-nan"])
    def test_non_finite_entries_are_refused_when_read(self, tmp_path, capsys, form321r, case):
        # JSON element files and matrix text files alike
        elem = element_to_json(np.eye(3), form321r)
        bad = {
            "matrix": json.dumps(dict(elem, matrix=[[math.inf, 0, 0], [0, 1, 0], [0, 0, 1]])),
            "extension": json.dumps({"w": [0.0, 0.0, math.nan], "rho": elem}),
            "text-inf": "3 3 real\ninf 0 0\n0 1 0\n0 0 1\n",
            "text-nan": "3 3 real\n1 0 0\n0 nan 0\n0 0 1\n",
        }[case]
        path = tmp_path / "bad"
        path.write_text(bad)
        loop = "extension" if case == "extension" else "matrix"
        assert main(["mul", str(path), str(path), "--loop", loop]) == 2
        err = capsys.readouterr().err
        assert err == "error: matrix entries must be finite\n"

    @settings(max_examples=150, deadline=None)
    @given(ELEMENT_EDITS, st.booleans())
    def test_element_file_fuzz(self, tmp_path_factory, edit, squared):
        loop, path, value = edit
        boost = element_to_json(standard_boost(SignatureForm(3, 2, 1), 0.5), SignatureForm(3, 2, 1))
        good = boost if loop == "matrix" else {"w": [0.0, 0.0, 0.25], "rho": boost}
        folder = tmp_path_factory.mktemp("mul")
        lhs, rhs = folder / "lhs.json", folder / "rhs.json"
        lhs.write_text(json.dumps(replaced(good, path, value)))
        rhs.write_text(lhs.read_text() if squared else json.dumps(good))
        assert main(["mul", str(lhs), str(rhs), "--loop", loop]) in (0, 2)

    def _squared(self, tmp_path, capsys, loop, radius, seed):
        """``mul`` of a drawn element by itself: its exit code and output."""
        assert main(["sample", "--loop", loop, "--radius", radius, "--seed", seed]) == 0
        element = tmp_path / "x.json"
        element.write_text(capsys.readouterr().out)
        code = main(["mul", "--loop", loop, str(element), str(element)])
        return code, capsys.readouterr(), element

    @pytest.mark.parametrize("loop, radius, seed", [("matrix", "8", "3"), ("extension", "8", "2"),
                                                     ("extension", "15", "3")])
    def test_failed_diagnostics_exit_one(self, tmp_path, capsys, loop, radius, seed):
        # a large sample squared leaves Sigma by more than the bound in
        # float64: the product is still written, and the exit code says it
        # failed.  The radius-15 square's direction lies so near the ball's
        # boundary that subtracting I - X* X once refused it (exit 2); its
        # isometric frame lifts it with a membership residual near 9e-5
        code, captured, _ = self._squared(tmp_path, capsys, loop, radius, seed)
        assert code == 1 and captured.err == ""
        out = json.loads(captured.out)
        assert out["diagnostics"]["pass"] is False
        assert max(out["diagnostics"]["membership"].values()) > TOLERANCES["membership"]

    def test_radius_8_seed_1_square_passes(self, tmp_path, capsys):
        # the square the half-angle on S S* once failed (1.3e-9): read off
        # its last p2 columns it passes, near 6e-10
        code, captured, _ = self._squared(tmp_path, capsys, "matrix", "8", "1")
        assert code == 0 and captured.err == ""
        out = json.loads(captured.out)
        assert out["diagnostics"]["pass"] is True
        assert max(out["diagnostics"]["membership"].values()) <= TOLERANCES["membership"]

    def test_product_leaving_the_orbit_chart_is_refused(self, tmp_path, capsys, monkeypatch):
        # no float64 input is known to reach the refusal since the lift reads
        # isometric frames with no subtraction, so the breakdown is injected:
        # a singular graph block, as ``graph_block`` raises it.  The product,
        # not an operand, is refused, and nothing is written
        import bruckloops.groups

        def singular(*args):
            raise NotPositiveDefinite("the W_1 block of a frame is singular: Singular matrix")

        assert main(["sample", "--loop", "extension", "--seed", "3"]) == 0
        element = tmp_path / "e.json"
        element.write_text(capsys.readouterr().out)
        monkeypatch.setattr(bruckloops.groups, "graph_block", singular)
        assert main(["mul", "--loop", "extension", str(element), str(element)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: product of {element} and {element} leaves float64's range")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    @pytest.mark.parametrize("target", ["solve", "eigh"])
    def test_a_lapack_breakdown_in_a_product_is_exit_two(self, tmp_path, capsys, monkeypatch, loop, target):
        # a LinAlgError inside a product, from its solves or its
        # eigensolver, reaches the command line as a package error: exit 2,
        # one line, nothing written
        def broken(*args):
            raise np.linalg.LinAlgError("injected")

        form = ["--n", "4", "--p1", "2", "--p2", "2"]  # p2 = 2: the eigensolver calls LAPACK
        assert main(["sample", "--loop", loop, "--seed", "3"] + form) == 0
        element = tmp_path / "x.json"
        element.write_text(capsys.readouterr().out)
        monkeypatch.setattr(np.linalg, target, broken)
        assert main(["mul", "--loop", loop, str(element), str(element)] + form) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    @pytest.mark.parametrize("bad", ["lhs", "rhs", "both"])
    def test_operand_refusal_names_the_first_bad_operand(self, tmp_path, capsys, form321r, loop, bad):
        # a block rotation is not hermitian, a stretch not an isometry: each
        # refusal is the one checking that operand alone gives
        good = standard_boost(form321r, 0.5)
        wrong = {"lhs": rotation(3, 0, 1, 0.7), "rhs": np.diag([2.0, 1.0, 0.5])}
        mats = {side: wrong[side] if bad in (side, "both") else good for side in ("lhs", "rhs")}
        paths = {}
        for side, m in mats.items():
            elem = element_to_json(m, form321r)
            paths[side] = tmp_path / f"{side}.json"
            paths[side].write_text(json.dumps(elem if loop == "matrix" else {"w": [0.0] * 3, "rho": elem}))
        assert main(["mul", "--loop", loop, str(paths["lhs"]), str(paths["rhs"])]) == 2
        captured = capsys.readouterr()
        first = "rhs" if bad == "rhs" else "lhs"
        assert captured.out == ""
        assert captured.err == operand_refusal(str(paths[first]), mats[first], form321r)

    @pytest.mark.parametrize(
        "lhs_rho, lhs_w, rhs_rho, rhs_w, refused",
        [("bad", "off", "good", "on", "lhs rho"), ("good", "off", "bad", "on", "lhs w"),
         ("good", "on", "bad", "off", "rhs rho"), ("bad", "on", "good", "off", "lhs rho"),
         ("good", "on", "good", "off", "rhs w")],
    )
    def test_extension_operands_are_refused_lhs_first(
        self, tmp_path, capsys, form321r, lhs_rho, lhs_w, rhs_rho, rhs_w, refused
    ):
        # the checks run as lhs rho, lhs w, rhs rho, rhs w would, one at a time
        rho = {"good": standard_boost(form321r, 0.5), "bad": rotation(3, 0, 1, 0.7)}
        w = {"on": [0.0, 0.0, 0.25], "off": [0.5, 0.0, 0.25]}
        paths = {}
        for side, r, x in (("lhs", lhs_rho, lhs_w), ("rhs", rhs_rho, rhs_w)):
            paths[side] = tmp_path / f"{side}.json"
            paths[side].write_text(json.dumps({"w": w[x], "rho": element_to_json(rho[r], form321r)}))
        assert main(["mul", "--loop", "extension", str(paths["lhs"]), str(paths["rhs"])]) == 2
        side, part = refused.split()
        expected = (
            operand_refusal(str(paths[side]), rho["bad"], form321r) if part == "rho"
            else f"error: {paths[side]}: w is not on the transversal\n"
        )
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    def test_operands_are_checked_in_one_stacked_call(self, tmp_path, capsys, monkeypatch, loop):
        assert main(["sample", "--loop", loop, "--count", "2"]) == 0
        lhs, rhs = tmp_path / "a.json", tmp_path / "b.json"
        for path, line in zip((lhs, rhs), capsys.readouterr().out.splitlines()):
            path.write_text(line)
        calls = []
        real = cli.membership_residual

        def counting(a, form):
            calls.append(a.shape)
            return real(a, form)

        monkeypatch.setattr(cli, "membership_residual", counting)
        assert main(["mul", "--loop", loop, str(lhs), str(rhs)]) == 0
        # the two operands at once, then the product's diagnostics
        assert calls == [(2, 3, 3), (3, 3)]

    def test_determinant_dominated_diagnostics_serialize(self, form321r):
        diag = _diagnostics(2.0 * np.eye(3), form321r)
        assert diag["pass"] is False
        json.dumps(diag)


class TestFactor:
    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "s.mat"
        path.write_text(write_matrix_text(np.eye(3)))
        assert main(["factor", str(path), "--n", "3", "--p1", "2", "--p2", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["s1"]["matrix"], np.eye(3))
        assert np.allclose(out["c"]["matrix"], np.eye(3))

    def test_boost_times_rotation(self, tmp_path, capsys):
        a = boost3(math.log(2))
        r = rotation(3, 0, 1, math.pi / 6)
        path = tmp_path / "s.mat"
        path.write_text(write_matrix_text(a @ r))
        assert main(["factor", str(path), "--n", "3", "--p1", "2", "--p2", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.max(np.abs(np.array(out["s1"]["matrix"]) - a)) <= 1e-10
        assert np.max(np.abs(np.array(out["c"]["matrix"]) - r)) <= 1e-10
        assert out["reconstruction_residual"] <= 1e-10

    def test_sigma_input(self, tmp_path, capsys, form321r):
        a = standard_boost(form321r, 0.9)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(element_to_json(a, form321r)))
        assert main(["factor", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.max(np.abs(np.array(out["s1"]["matrix"]) - a)) <= 1e-10
        assert np.allclose(out["c"]["matrix"], np.eye(3), atol=1e-10)

    @pytest.mark.parametrize(
        "text_field, field", [("complex", "real"), ("real", "complex")],
        ids=["complex-text-real-form", "real-text-complex-form"],
    )
    def test_text_matrix_must_fit_the_form(self, tmp_path, capsys, text_field, field):
        # complex text read for a real form would lose its imaginary part;
        # real text widens to a complex form without loss
        a = boost3(math.log(2)) @ rotation(3, 0, 1, math.pi / 6)
        path = tmp_path / "s.mat"
        path.write_text(write_matrix_text(a.astype(complex) if text_field == "complex" else a))
        code = main(["factor", str(path), "--field", field])
        captured = capsys.readouterr()
        if text_field == "complex":
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.endswith(": complex matrix text does not fit the real form\n")
        else:
            assert code == 0
            assert json.loads(captured.out)["reconstruction_residual"] <= 1e-10

    def test_element_of_another_form_is_config_error(self, tmp_path, capsys, form321r):
        # as for mul, a JSON element must carry the configured form
        path = tmp_path / "s.json"
        path.write_text(json.dumps(element_to_json(standard_boost(form321r, 0.9), form321r)))
        assert main(["factor", str(path), "--n", "4", "--p1", "2", "--p2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "is not the configured" in captured.err

    def test_non_member_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.mat"
        path.write_text(write_matrix_text(np.diag([2.0, 1.0, 0.5])))
        assert main(["factor", str(path), "--n", "3", "--p1", "2", "--p2", "1"]) == 2

    @pytest.mark.parametrize("entry", ["inf", "nan", "1e308"])
    def test_non_finite_or_overflowing_entry_is_config_error(self, tmp_path, capsys, entry):
        # refused when read, or trapped when its arithmetic overflows, with
        # no numpy warning (warnings are errors in this suite)
        path = tmp_path / "s.mat"
        path.write_text(f"3 3 real\n{entry} 0 0\n0 1 0\n0 0 1\n")
        assert main(["factor", str(path), "--n", "3", "--p1", "2", "--p2", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if entry != "1e308":
            assert captured.err == "error: matrix entries must be finite\n"


@pytest.mark.parametrize("command", [["mul", "a", "b"], ["factor", "a"], ["witness"], ["sample"]])
def test_samples_and_out_are_verify_only(capsys, command):
    # the other commands do not read them, so refuse them as unknown options
    for flag in ("--samples", "--out"):
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["mul", "a", "b"], ["factor", "a"], ["witness"], ["sample"]])
@pytest.mark.parametrize(
    "config, key",
    [({"out": "zzz.json"}, "out"), ({"samples": {"bol": 3}}, "samples"),
     ({"out": "zzz.json", "samples": {"bol": 3}}, "out")],
    ids=["out", "samples", "both"],
)
def test_verify_only_config_keys_are_config_errors(tmp_path, capsys, monkeypatch, command, config, key):
    # a config file sets no more than the command's flags may, so the keys
    # these commands would silently ignore are refused
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r} is read by verify alone\n"
    assert not (tmp_path / "zzz.json").exists()


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse parser constructed, in order, from a
    process with no command parser built yet."""
    import argparse

    cli.command_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_call_builds_its_own_parser_alone(tmp_path, capsys, form321r, parsers_built, command):
    element = tmp_path / "e.json"
    element.write_text(json.dumps(element_to_json(np.eye(3), form321r)))
    argv = {
        "verify": ["verify", "--config", write_config(tmp_path / "cfg.json")],
        "mul": ["mul", str(element), str(element)],
        "factor": ["factor", str(element)],
        "witness": ["witness", "--wtilde", "boost:0.5"],
        "sample": ["sample", "--count", "2"],
    }[command]
    assert main(argv) == 0
    assert parsers_built == [f"bruckloops {command}"]
    # a later call of the command reuses its parser
    assert main(argv) == 0
    assert parsers_built == [f"bruckloops {command}"]


def _cold_out(capsys, argv) -> str:
    """The stdout of ``main(argv)`` in a process with no command parser built."""
    cli.command_parser.cache_clear()
    assert main(argv) == 0
    return capsys.readouterr().out


class TestReusedParser:
    """A command's parser is built once per process; no argument of one call
    reaches the next."""

    def test_sample_radius_does_not_carry_over(self, capsys):
        default = ["sample", "--count", "2", "--seed", "5"]
        cold = _cold_out(capsys, default)
        assert main(["sample", "--count", "2", "--radius", "0", "--seed", "5"]) == 0
        assert capsys.readouterr().out != cold
        assert main(default) == 0
        assert capsys.readouterr().out == cold

    def test_mul_loop_does_not_carry_over(self, tmp_path, capsys, form321r):
        assert main(["sample", "--loop", "extension", "--count", "2", "--seed", "4"]) == 0
        ext_files = (tmp_path / "e1.json", tmp_path / "e2.json")
        for path, line in zip(ext_files, capsys.readouterr().out.splitlines()):
            path.write_text(line)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(element_to_json(boost3(0.5), form321r)))
        b.write_text(json.dumps(element_to_json(boost3(-0.25), form321r)))
        matrix = ["mul", str(a), str(b)]
        cold = _cold_out(capsys, matrix)
        assert main(["mul", "--loop", "extension", *map(str, ext_files)]) == 0
        assert "w" in json.loads(capsys.readouterr().out)
        assert main(matrix) == 0
        assert capsys.readouterr().out == cold

    def test_verify_samples_do_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        cli.command_parser.cache_clear()
        assert main(["verify", "--config", cfg, "--samples", "3"]) == 0
        echo = json.loads(capsys.readouterr().out)["config"]["samples"]
        assert set(echo.values()) == {3, SMALL_SAMPLES["dimension_points"]}
        assert main(["verify", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["samples"] == DEFAULT_SAMPLES | SMALL_SAMPLES

    def test_usage_error_between_calls(self, tmp_path, capsys, form321r):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(element_to_json(boost3(0.5), form321r)))
        good = ["mul", str(a), str(a)]
        cold = _cold_out(capsys, good)
        with pytest.raises(SystemExit) as exc:
            main(good + ["--samples", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert main(good) == 0
        assert capsys.readouterr().out == cold


@pytest.mark.parametrize("argv, code", [([], 2), (["bogus"], 2), (["-h"], 0)])
def test_no_command_goes_through_the_top_level_parser(capsys, parsers_built, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert parsers_built == ["bruckloops"] + [f"bruckloops {name}" for name in COMMANDS]
    captured = capsys.readouterr()
    assert "{verify,mul,factor,witness,sample}" in (captured.err if code else captured.out)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_its_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: bruckloops {command} ")
    verify_only = {"--out", "--samples"}
    own = {
        "verify": verify_only,
        "mul": {"lhs", "rhs", "--loop"},
        "factor": {"matrix"},
        "witness": set(),
        "sample": {"--count", "--radius", "--loop"},
    }[command]
    expected = {"--config"} | {f"--{key}" for key in SETTINGS if key != "out"} | own
    assert all(name in text for name in expected)
    assert not any(name in text for name in verify_only - own)


# Each usage error exits 2 with argparse's error line; only an unknown
# option's line names the command it was given to.
USAGE_ERRORS = [
    ([], "bruckloops: error: the following arguments are required: command"),
    (["frobnicate"], "bruckloops: error: argument command: invalid choice: 'frobnicate'"),
    *[([name, "--seed", "x"], f"bruckloops {name}: error: argument --seed: invalid int value: 'x'")
      for name in COMMANDS],
    (["mul", "a"], "bruckloops mul: error: the following arguments are required: rhs"),
    (["factor"], "bruckloops factor: error: the following arguments are required: matrix"),
    (["mul", "a", "b", "--samples", "0"], "bruckloops mul: error: unrecognized arguments: --samples 0"),
    (["witness", "--budget", "5"], "bruckloops witness: error: unrecognized arguments: --budget 5"),
]


@pytest.mark.parametrize("argv, line", USAGE_ERRORS, ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_two(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: bruckloops")
    # the list of choices after an invalid one is spelled differently across Python versions
    assert captured.err.splitlines()[-1].split(" (choose from")[0] == line


UNDECODABLE_READS = [
    ["verify", "--config", "{bad}"],
    ["verify", "--wtilde", "file:{bad}"],
    ["mul", "{bad}", "{bad}"],
    ["mul", "--loop", "extension", "{bad}", "{bad}"],
    ["factor", "{bad}"],
]


@pytest.mark.parametrize("argv", UNDECODABLE_READS, ids=[" ".join(argv) for argv in UNDECODABLE_READS])
def test_undecodable_input_file_is_config_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main([arg.format(bad=bad) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ") and f"{bad}: 'utf-8' codec can't decode" in captured.err
    assert captured.err.count("\n") == 1


class TestWitness:
    def test_boosted(self, capsys):
        code = main(
            ["witness", "--n", "3", "--p1", "2", "--p2", "1",
             "--wtilde", f"boost:{math.log(2)}", "--seed", "1"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["displacement"] > 1e-3
        assert out["samples_used"] == 1

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("carrier", ["1", "2"])
    def test_seed_has_no_effect(self, capsys, field, carrier):
        # the witness is constructed, not drawn
        argv = ["witness", "--n", "4", "--p1", "2", "--p2", "2", "--field", field,
                "--carrier", carrier, "--wtilde", "boost:0.3"]
        assert main(argv + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("carrier", ["1", "2"])
    def test_standard_transversal_rejected(self, capsys, carrier):
        assert main(["witness", "--n", "3", "--p1", "2", "--p2", "1", "--carrier", carrier]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: transversal coincides with the coordinate subspace; "
            "every block-diagonal unitary stabilizes it\n"
        )

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_boost_is_config_error(self, capsys, t):
        argv = ["witness", "--n", "3", "--p1", "2", "--p2", "1", "--wtilde", f"boost:{t}"]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err


def _fail_eigvalsh(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


@pytest.mark.parametrize("loop", ["matrix", "extension"])
def test_membership_lapack_failure_exits_two(tmp_path, capsys, monkeypatch, loop):
    # mul's operand check and sample's check of its draws turn a LAPACK
    # failure of the membership eigenvalues into NoConvergence: exit 2
    assert main(["sample", "--count", "2", "--loop", loop]) == 0
    paths = [tmp_path / f"{k}.json" for k in range(2)]
    for path, line in zip(paths, capsys.readouterr().out.splitlines()):
        path.write_text(line)
    _fail_eigvalsh(monkeypatch)
    for argv in (["mul", str(paths[0]), str(paths[1])], ["sample", "--count", "2"]):
        assert main(argv + ["--loop", loop]) == 2
        assert capsys.readouterr().err == "error: eigvalsh failed: Eigenvalues did not converge\n"


class TestSample:
    def test_deterministic_bytes(self, capsys):
        assert main(["sample", "--count", "3", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", "--count", "3", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_count_and_membership(self, capsys, form321r):
        from bruckloops.groups import membership_residual

        assert main(["sample", "--count", "20", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            obj = json.loads(line)
            m = np.array(obj["matrix"])
            assert membership_residual(m, form321r).max_residual <= 1e-9

    def test_zero_radius_emits_identity(self, capsys):
        assert main(["sample", "--count", "2", "--radius", "0"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert np.allclose(json.loads(line)["matrix"], np.eye(3))

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    def test_negative_radius_is_config_error(self, capsys, loop):
        # a negative or non-finite radius is refused by name, and one whose
        # draws overflow too
        for radius in ("-1", "1e300", "nan", "inf"):
            assert main(["sample", "--radius", radius, "--loop", loop]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            if radius != "1e300":
                assert "radius" in err

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    def test_negative_count_is_config_error(self, capsys, loop):
        assert main(["sample", "--count", "-3", "--loop", loop]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "count" in captured.err

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    @pytest.mark.parametrize("count", [MAX_SAMPLES + 1, 10**13])
    def test_count_above_the_bound_is_refused_before_drawing(self, capsys, no_draw, loop, count):
        # 10**13 samples would exhaust memory in the draw; the bound is verify's
        assert main(["sample", "--count", str(count), "--loop", loop]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: count must be in [0, {MAX_SAMPLES}], got {count}\n"

    def test_matrix_sample_reads_no_transversal(self, tmp_path, capsys, monkeypatch):
        # as mul and factor do, the matrix sample ignores the transversal
        # settings and resolves none, so it makes no QR call
        missing = f"file:{tmp_path / 'missing.json'}"
        assert main(["sample", "--count", "3"]) == 0
        plain = capsys.readouterr().out

        def no_qr(*args, **kwargs):
            raise AssertionError("made a QR call")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert main(["sample", "--count", "3", "--wtilde", missing]) == 0
        assert capsys.readouterr().out == plain
        assert main(["sample", "--count", "3", "--wtilde", missing, "--loop", "extension"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read transversal file")

    @pytest.mark.parametrize(
        "argv, err",
        [(["--radius", "10", "--seed", "3"], "sample 1 of 1: not in Sigma, isometry residual 7.589e-09"),
         (["--count", "3", "--radius", "10", "--seed", "1"], "sample 2 of 3: not in Sigma, isometry residual"),
         (["--loop", "extension", "--radius", "20", "--seed", "3"],
          "sample 1 of 1: not in Sigma, isometry residual 6.133e-09")],
        ids=["matrix", "matrix-second", "extension"],
    )
    def test_draw_outside_sigma_is_refused(self, capsys, argv, err):
        # a draw whose Sigma part is too far out for float64 to keep it in
        # Sigma prints nothing rather than an element mul would refuse
        assert main(["sample", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {err}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    def test_draw_is_checked_in_one_stacked_call(self, capsys, monkeypatch, loop):
        calls = []
        real = cli.membership_residual

        def counting(a, form):
            calls.append(a.shape)
            return real(a, form)

        monkeypatch.setattr(cli, "membership_residual", counting)
        assert main(["sample", "--count", "4", "--loop", loop]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert calls == [(4, 3, 3)]

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    def test_count_zero_prints_nothing(self, capsys, loop):
        assert main(["sample", "--count", "0", "--loop", loop]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("loop", ["matrix", "extension"])
    @pytest.mark.parametrize("radius", ["8", "10", "20"])
    @pytest.mark.parametrize("seed", ["1", "3", "7"])
    def test_mul_accepts_what_sample_prints(self, tmp_path, capsys, loop, radius, seed):
        code = main(["sample", "--loop", loop, "--radius", radius, "--seed", seed])
        out = capsys.readouterr().out
        if code == 2:
            assert out == ""
            return
        element = tmp_path / "s.json"
        element.write_text(out)
        # a product may still break down far out; membership of the operands is not why
        main(["mul", "--loop", loop, str(element), str(element)])
        assert "not in Sigma" not in capsys.readouterr().err

    def test_extension_elements(self, capsys):
        assert main(["sample", "--count", "2", "--loop", "extension", "--seed", "3"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            obj = json.loads(line)
            assert "w" in obj and "rho" in obj


HUGE = ["--n", "3000000", "--p1", "1500000", "--p2", "1500000"]
LARGE = ["--n", "3000", "--p1", "1500", "--p2", "1500"]


class TestSizeBudget:
    """A command whose n x n matrices would pass the fixed size budget is
    refused with exit 2 when its config is loaded, before any matrix is
    built or any uniform drawn."""

    @pytest.fixture
    def nothing_built(self, monkeypatch, no_draw):
        monkeypatch.setattr(SignatureForm, "eye", pytest.fail)

    @pytest.mark.parametrize("signature", [HUGE, LARGE], ids=["huge", "3000"])
    @pytest.mark.parametrize(
        "argv",
        [["sample"], ["witness", "--wtilde", "boost:0.5"], ["verify", "--samples", "1"]],
        ids=["sample", "witness", "verify"],
    )
    def test_refused_before_anything_is_built(self, capsys, nothing_built, argv, signature):
        assert main(argv + signature) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: n = {signature[1]} needs about ")
        assert captured.err.endswith(f" bytes of n x n matrices, over the size budget of {cli.SIZE_BUDGET:,}\n")

    def test_the_estimate_counts_the_draws_and_the_workspace(self, capsys, nothing_built):
        # a verify at n = 3000 draws 28 Sigma and Phi matrices per sample over all rows
        assert main(["verify", "--samples", "1"] + LARGE) == 2
        estimate = (28 + cli._WORKSPACE) * 3000**2 * 8
        assert f"needs about {estimate:,} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("n, field", [(20, "complex"), (47, "real"), (33, "complex")])
    def test_default_count_verifies_fit(self, n, field):
        p2 = n // 2
        args = cli.command_parser("verify").parse_args(
            ["--n", str(n), "--p1", str(n - p2), "--p2", str(p2), "--field", field]
        )
        assert cli.load_suite_config(args).samples == DEFAULT_SAMPLES

    def test_the_largest_count_fits_at_the_smallest_signature(self):
        args = cli.command_parser("verify").parse_args(["--samples", str(MAX_SAMPLES)])
        assert cli.load_suite_config(args).n == 3
        args = cli.command_parser("sample").parse_args(["--count", str(MAX_SAMPLES), "--field", "complex"])
        assert cli.load_suite_config(args).n == 3
