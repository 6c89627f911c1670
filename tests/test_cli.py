import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruckloops.cli import DEFAULT_SAMPLES, SuiteConfig, _diagnostics, main, run_verify
from bruckloops.errors import NotInOrbit
from bruckloops.groups import SigmaElement, element_to_json, standard_boost
from bruckloops.linalg import write_matrix_text
from conftest import boost3, rotation

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

    def test_failing_tolerance_gives_exit_one_and_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            tolerances={"identity": 1e-20},
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False

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

    def test_removed_jacobi_stop_tolerance_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tolerances={"jacobi_stop": 1e-13})
        assert main(["verify", "--config", cfg]) == 2
        assert "jacobi_stop" in capsys.readouterr().err

    def test_numeric_breakdown_is_a_failed_entry(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = write_config(tmp_path / "cfg.json", tolerances={"tau_abs": 0.5})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--samples", "3", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
        broken = [p for p in report["properties"] if "error" in p.get("detail", {})]
        for p in broken:
            assert p["pass"] is False and p["max_residual"] == 1.0 and p["detail"]["error"]
        errors = {p["property"]: p["detail"]["error"] for p in broken}
        assert errors["loop_axioms"].startswith("sqrt: smallest eigenvalue")

    def test_breakdown_fails_every_entry_of_its_row(self, tmp_path, monkeypatch):
        import bruckloops.extension

        def refuse(*args, **kwargs):
            raise NotInOrbit("no translation")

        monkeypatch.setattr(bruckloops.extension, "solve_translation", refuse)
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
            ({"tolerances": {"tau_abs": "nan"}}, [], None),
            ({}, ["--samples", "-5"], None),
            ({}, ["--tol", "-1"], None),
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
        ],
        ids=[
            "n-abc", "samples-x", "tau_abs-nan", "samples-neg", "tol-neg", "boost-overflow", "boost-700",
            "n-float", "seed-float", "samples-bool", "tol-bool", "n-inf",
            "wtilde-nan", "wtilde-no-base", "wtilde-list", "wtilde-contraction-1.25",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, extra, argv, wtilde):
        if wtilde is not None:
            wt = tmp_path / "wt.json"
            wt.write_text(json.dumps(wtilde))
            extra = dict(extra, wtilde=f"file:{wt}")
        cfg = write_config(tmp_path / "cfg.json", **extra)
        assert main(["verify", "--config", cfg, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(TRANSVERSAL_FILES)
    def test_transversal_file_fuzz(self, tmp_path_factory, obj):
        wt = tmp_path_factory.mktemp("wt") / "wt.json"
        wt.write_text(json.dumps(obj))
        assert main(["sample", "--loop", "extension", "--wtilde", f"file:{wt}"]) in (0, 2)


class TestMul:
    def test_identity_times_element(self, tmp_path, capsys, form321r):
        b = standard_boost(form321r, 0.5)
        lhs = tmp_path / "lhs.json"
        rhs = tmp_path / "rhs.json"
        lhs.write_text(json.dumps(element_to_json(SigmaElement(np.eye(3), form321r))))
        rhs.write_text(json.dumps(element_to_json(b)))
        assert main(["mul", str(lhs), str(rhs)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["matrix"], b.matrix)
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
            "rho": element_to_json(SigmaElement(np.eye(3), form321r)),
        }
        b = standard_boost(form321r, 0.4)
        other = {"w": [0.0, 0.0, 0.25], "rho": element_to_json(b)}
        lhs = tmp_path / "e1.json"
        rhs = tmp_path / "e2.json"
        lhs.write_text(json.dumps(ident))
        rhs.write_text(json.dumps(other))
        assert main(["mul", str(lhs), str(rhs), "--loop", "extension"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["w"], other["w"])
        assert np.allclose(out["rho"]["matrix"], b.matrix)

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
            ("matrix", "string-rows"),
            ("matrix", "bool-entry"),
            pytest.param("matrix", "three-part-entry", id="complex-three-part-entry"),
            ("matrix", "huge-int-entry"),
        ],
    )
    def test_malformed_element_file_is_config_error(
        self, tmp_path, capsys, form321r, form321c, loop, case
    ):
        elem = element_to_json(SigmaElement(np.eye(3), form321r))
        celem = element_to_json(SigmaElement(np.eye(3, dtype=complex), form321c))
        boost = element_to_json(standard_boost(form321r, 0.5))
        good = boost if loop == "matrix" else {"w": [0.0, 0.0, 0.0], "rho": boost}
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
            "other_form": json.dumps(element_to_json(SigmaElement(np.eye(3, dtype=complex), form321c))),
            "w_off_transversal": json.dumps({"w": [0.5, 0.0, 0.3], "rho": elem}),
            "form-float": json.dumps(dict(elem, form={"n": 3.9, "p1": 2.7, "p2": 1, "field": "real"})),
            "form-bool": json.dumps(dict(elem, form=dict(elem["form"], p2=True))),
            # rows and entries of the wrong JSON type, or out of float range
            "string-rows": json.dumps(dict(elem, matrix=["100", "010", "001"])),
            "bool-entry": json.dumps(dict(elem, matrix=[[True, 0, 0], [0, 1, 0], [0, 0, 1]])),
            "three-part-entry": json.dumps(dict(
                celem, matrix=[[[1, 0, 7], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
            )),
            "huge-int-entry": json.dumps(dict(elem, matrix=[[10**400, 0, 0], [0, 1, 0], [0, 0, 1]])),
        }[case]
        lhs, rhs = tmp_path / "bad.json", tmp_path / "good.json"
        lhs.write_text(bad)
        rhs.write_text(json.dumps(celem if case == "three-part-entry" else good))
        field = "complex" if case == "three-part-entry" else "real"
        assert main(["mul", str(lhs), str(rhs), "--loop", loop, "--field", field]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_determinant_dominated_diagnostics_serialize(self, form321r):
        diag = _diagnostics(SigmaElement(2.0 * np.eye(3), form321r), 1e-9)
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
        path.write_text(json.dumps(element_to_json(a)))
        assert main(["factor", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.max(np.abs(np.array(out["s1"]["matrix"]) - a.matrix)) <= 1e-10
        assert np.allclose(out["c"]["matrix"], np.eye(3), atol=1e-10)

    def test_non_member_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.mat"
        path.write_text(write_matrix_text(np.diag([2.0, 1.0, 0.5])))
        assert main(["factor", str(path), "--n", "3", "--p1", "2", "--p2", "1"]) == 2


class TestWitness:
    def test_boosted(self, capsys):
        code = main(
            ["witness", "--n", "3", "--p1", "2", "--p2", "1",
             "--wtilde", f"boost:{math.log(2)}", "--seed", "1"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["displacement"] > 1e-3
        assert out["samples_used"] <= 100

    def test_standard_transversal_rejected(self, capsys):
        assert main(["witness", "--n", "3", "--p1", "2", "--p2", "1"]) == 2

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_boost_is_config_error(self, capsys, t):
        argv = ["witness", "--n", "3", "--p1", "2", "--p2", "1", "--wtilde", f"boost:{t}"]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err


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
            assert membership_residual(m, "Sigma", form321r).max_residual <= 1e-9

    def test_zero_radius_emits_identity(self, capsys):
        assert main(["sample", "--count", "2", "--radius", "0"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert np.allclose(json.loads(line)["matrix"], np.eye(3))

    def test_extension_elements(self, capsys):
        assert main(["sample", "--count", "2", "--loop", "extension", "--seed", "3"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            obj = json.loads(line)
            assert "w" in obj and "rho" in obj
