import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruckloops import groups
from bruckloops.errors import ConfigInvalid, DimensionMismatch, NotInGroup
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    conjugate_by_phi,
    element_from_json,
    element_to_json,
    membership_residual,
    polar_factorize,
    scale,
    sigma_from_block,
    standard_boost,
    unit_uniforms,
)
from bruckloops.linalg import eig_hermitian, fro, matrix_to_json
from conftest import boost3, one, rotation
from reference import draw, elementwise_matrix_json


class TestSignatureForm:
    def test_valid(self):
        f = SignatureForm(4, 2, 2, "real")
        assert np.allclose(f.j_matrix(), np.diag([1.0, 1.0, -1.0, -1.0]))

    @pytest.mark.parametrize(
        "args",
        [
            (3, 1, 2, "real"),  # p1 < p2
            (3, 2, 2, "real"),  # p1 + p2 != n
            (2, 1, 1, "real"),  # n < 3
            (3, 3, 0, "real"),  # p2 < 1
            (3, 2, 1, "rational"),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ConfigInvalid):
            SignatureForm(*args)


class TestSampleStream:
    def test_bit_for_bit_determinism(self, form321r):
        a, _ = one(draw(form321r, SampleStream(42), 1))
        b, _ = one(draw(form321r, SampleStream(42), 1))
        assert np.array_equal(a, b)

    def test_counter_advances(self):
        s = SampleStream(1)
        s1 = s.split(1)
        assert s1.counter == 1 and s1.split(1).counter == 2
        assert s.counters(2).tolist() == [1, 2] and s1.counters(1).tolist() == [2]
        assert unit_uniforms(1, s.counters(1)) != unit_uniforms(1, s1.counters(1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**63), st.integers(1, 30), st.integers(1, 30))
    def test_prefix_stability(self, seed, k, extra):
        short = unit_uniforms(seed, SampleStream(seed).counters(k))
        long = unit_uniforms(seed, SampleStream(seed).counters(k + extra))
        assert np.array_equal(short, long[:k])

    def test_range(self):
        unit = unit_uniforms(7, SampleStream(7).counters(1000))
        assert np.all(unit >= 0.0) and np.all(unit < 1.0)
        vals = scale(unit, -0.75, 0.75)
        assert np.all(vals >= -0.75) and np.all(vals < 0.75)


class TestMembership:
    def test_identity_is_sigma(self, form321r):
        rep = membership_residual(np.eye(3), form321r)
        assert rep.passed and all(r == 0.0 for r in rep.residuals.values())

    def test_boost_is_sigma(self, form321r):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.25, 0.75], [0.0, 0.75, 1.25]])
        rep = membership_residual(a, form321r)
        assert rep.passed
        # eigenvalues of the boost are {2, 1, 1/2}: cosh +- sinh at log 2
        dec = eig_hermitian(a)
        assert np.allclose(dec.eigenvalues, [0.5, 1.0, 2.0], atol=1e-12)

    def test_diagonal_isometry_failure(self, form321r):
        a = np.diag([2.0, 1.0, 0.5])
        rep = membership_residual(a, form321r)
        assert not rep.passed
        # A^t J A = diag(4, 1, -1/4); residual is its distance from J
        assert math.isclose(rep.residuals["isometry"], math.sqrt(9.5625), rel_tol=1e-12)

    def test_dimension_mismatch(self, form321r):
        with pytest.raises(DimensionMismatch):
            membership_residual(np.eye(4), form321r)

    def test_determinant_dominated_report_is_plain_json(self, form321r):
        # For 2I the determinant residual (about 7) exceeds every other one
        # (at most 3 sqrt 3), so it alone decides ``passed``.
        rep = membership_residual(2.0 * np.eye(3), form321r)
        assert rep.max_residual == rep.residuals["determinant"]
        assert type(rep.passed) is bool
        assert all(type(r) is float for r in rep.residuals.values())
        json.dumps({"membership": rep.residuals, "pass": rep.passed})


class TestSampleSigma:
    def test_zero_radius_gives_identity(self, form321r):
        a, _ = one(draw(form321r, SampleStream(1), 1, radius=0.0))
        assert np.allclose(a, np.eye(3))

    def test_single_block_entry_is_boost(self, form321r):
        t = 0.8
        x = np.array([[0.0], [t]])
        a = sigma_from_block(form321r, x)
        assert fro(a - boost3(t)) <= 1e-13

    @pytest.mark.parametrize("field,count", [("real", 500), ("complex", 150)])
    def test_membership_500(self, field, count):
        form = SignatureForm(3, 2, 1, field)
        stream = SampleStream(1)
        for _ in range(count):
            a, stream = one(draw(form, stream, 1))
            assert membership_residual(a, form).max_residual <= 1e-9


class TestSamplePhi:
    def test_zero_radius_gives_identity(self, form321r, monkeypatch):
        monkeypatch.setattr(groups, "_PHI_RADIUS", 0.0)
        b, _ = one(draw(form321r, SampleStream(1), 1, "phi"))
        assert np.allclose(b, np.eye(3))

    def test_block_structure_p2_one(self, form321r):
        b, _ = one(draw(form321r, SampleStream(4), 1, "phi"))
        m = b
        # real (2,1): a rotation block in coordinates 1,2 and +1 in coordinate 3
        assert m[2, 2] == pytest.approx(1.0)
        assert abs(np.linalg.det(m[:2, :2]) - 1.0) <= 1e-12
        assert fro(m[:2, :2] @ m[:2, :2].T - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_membership(self, field):
        form = SignatureForm(4, 2, 2, field)
        stream = SampleStream(2)
        for _ in range(100):
            b, stream = one(draw(form, stream, 1, "phi"))
            p1 = form.p1
            off_diagonal = np.sqrt(fro(b[:p1, p1:]) ** 2 + fro(b[p1:, :p1]) ** 2)
            unitary = fro(b @ b.conj().T - np.eye(form.n))
            determinant = abs(np.linalg.det(b) - 1.0)
            assert max(off_diagonal, unitary, determinant) <= 1e-9


class TestPolarFactorize:
    def test_identity(self, form321r):
        s1, c = polar_factorize(np.eye(3), form321r)
        assert np.allclose(s1, np.eye(3)) and np.allclose(c, np.eye(3))

    def test_boost_times_rotation(self, form321r):
        a = boost3(math.log(2))
        r = rotation(3, 0, 1, math.pi / 6)
        s1, c = polar_factorize(a @ r, form321r)
        assert fro(s1 - a) <= 1e-12
        assert fro(c - r) <= 1e-12

    def test_sigma_input_gives_trivial_phi(self, form321r):
        a, _ = one(draw(form321r, SampleStream(3), 1))
        s1, c = polar_factorize(a, form321r)
        assert fro(s1 - a) <= 1e-12
        assert fro(c - np.eye(3)) <= 1e-12

    def test_rejects_non_member(self, form321r):
        with pytest.raises(NotInGroup):
            polar_factorize(np.diag([2.0, 1.0, 0.5]), form321r)

    def test_refusal_names_the_worst_residuals(self, form321r):
        # a stack of a stretch (isometry residual sqrt 9.5625) and J (det -1)
        stack = np.stack([np.diag([2.0, 1.0, 0.5]), form321r.j_matrix()])
        with pytest.raises(NotInGroup, match=r"^isometry residual 3\.092e\+00, det residual 2\.000e\+00$"):
            polar_factorize(stack, form321r)
        with pytest.raises(DimensionMismatch, match=r"^expected 3x3, got \(4, 4\)$"):
            polar_factorize(np.eye(4), form321r)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrip_500(self, field):
        form = SignatureForm(3, 2, 1, field)
        stream = SampleStream(1)
        count = 500 if field == "real" else 150
        for _ in range(count):
            s1, stream = one(draw(form, stream, 1))
            c, stream = one(draw(form, stream, 1, "phi"))
            s = s1 @ c
            f1, f2 = polar_factorize(s, form)
            assert np.max(np.abs(f1 - s1)) <= 1e-8
            assert np.max(np.abs(f2 - c)) <= 1e-8
            assert fro(f1 @ f2 - s) <= 1e-10 * fro(s)


class TestConjugation:
    def test_identity_fixes(self, form321r):
        a, _ = one(draw(form321r, SampleStream(5), 1))
        b = np.eye(3)
        assert np.allclose(conjugate_by_phi(a, b), a)

    def test_quarter_turn_moves_boost(self, form321r):
        t = 0.6
        a = boost3(t)
        b = rotation(3, 0, 1, math.pi / 2)
        out = conjugate_by_phi(a, b)
        c, s = np.cosh(t), np.sinh(t)
        expected = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        assert fro(out - expected) <= 1e-12

    def test_closure_500(self, form321r):
        stream = SampleStream(1)
        for _ in range(500):
            a, stream = one(draw(form321r, stream, 1))
            b, stream = one(draw(form321r, stream, 1, "phi"))
            out = conjugate_by_phi(a, b)
            assert membership_residual(out, form321r).max_residual <= 1e-9


class TestBoost:
    def test_log2_boost_entries(self, form321r):
        a = standard_boost(form321r, math.log(2))
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.25, 0.75], [0.0, 0.75, 1.25]])
        assert fro(a - expected) <= 1e-12

    def test_larger_signature_placement(self):
        form = SignatureForm(4, 3, 1, "real")
        a = standard_boost(form, 0.5)
        assert a[2, 2] == pytest.approx(np.cosh(0.5))
        assert a[3, 2] == pytest.approx(np.sinh(0.5))
        assert np.allclose(a[:2, :2], np.eye(2))


def test_element_json_roundtrip():
    for field in ("real", "complex"):
        form = SignatureForm(3, 2, 1, field)
        a, _ = one(draw(form, SampleStream(6), 1))
        obj = json.loads(json.dumps(element_to_json(a, form)))
        assert np.array_equal(element_from_json(obj, form), a)
        with pytest.raises(ConfigInvalid, match="is not the configured"):
            element_from_json(obj, SignatureForm(3, 2, 1, "complex" if field == "real" else "real"))


_EDGE_ENTRIES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 0.1, 1 / 3]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("rows, cols", [(3, 3), (1, 4), (4, 2), (0, 3)])
def test_matrix_json_matches_the_elementwise_writer(field, rows, cols):
    # -0.0, the smallest subnormal, near-overflow and integer-valued floats
    # print byte for byte as the one-float-per-entry writer prints them
    rng = np.random.default_rng(rows * 10 + cols)
    vals = rng.choice(_EDGE_ENTRIES, size=(rows, cols))
    if field == "complex":
        vals = vals.astype(complex)
        vals.imag = rng.choice(_EDGE_ENTRIES, size=(rows, cols))
    for a in (vals, rng.standard_normal((rows, cols)).astype(vals.dtype)):
        for dumps in (lambda obj: json.dumps(obj, sort_keys=True), lambda obj: json.dumps(obj, indent=2)):
            assert dumps(matrix_to_json(a)) == dumps(elementwise_matrix_json(a))


def test_element_json_matches_the_elementwise_writer():
    for field in ("real", "complex"):
        form = SignatureForm(3, 2, 1, field)
        a, _ = draw(form, SampleStream(6), 5)
        for m in a:
            expected = {"form": form.to_json(), "matrix": elementwise_matrix_json(m)}
            assert json.dumps(element_to_json(m, form), sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_max_residual_is_folded_once(form321r):
    rep = membership_residual(np.stack([np.eye(3), 2.0 * np.eye(3)]), form321r)
    first = rep.max_residual
    rep.residuals["determinant"] = np.zeros(2)  # a second fold would see this
    assert rep.max_residual == first and not rep.passed
