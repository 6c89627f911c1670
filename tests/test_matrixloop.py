import math

import numpy as np
import pytest

from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    conjugate_by_phi,
    graph_block,
    membership_residual,
    positive_factor,
    sigma_from_spectrum,
    standard_boost,
)
from bruckloops.linalg import dag, fro, spectral_map, symmetrize
from bruckloops.matrixloop import MatrixLoop, frobenius_distance
from conftest import one
from reference import draw


@pytest.fixture
def mloop(form321r):
    return MatrixLoop(form321r)


class TestMul:
    def test_left_identity(self, mloop):
        b, _ = one(draw(mloop, SampleStream(1), 1))
        out = mloop.mul(mloop.identity, b)
        assert frobenius_distance(out, b) <= 1e-13

    def test_square(self, mloop):
        a, _ = one(draw(mloop, SampleStream(2), 1))
        out = mloop.mul(a, a)
        assert fro(out - a @ a) <= 1e-12

    def test_coaxial_boosts_add_rapidities(self, mloop, form321r):
        a = standard_boost(form321r, math.log(2))
        out = mloop.mul(a, a)
        # cosh(2 log 2) = 17/8, sinh(2 log 2) = 15/8
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.125, 1.875], [0.0, 1.875, 2.125]])
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_closure_membership(self, mloop, form321r):
        stream = SampleStream(3)
        for _ in range(200):
            a, stream = one(draw(mloop, stream, 1))
            b, stream = one(draw(mloop, stream, 1))
            out = mloop.mul(a, b)
            assert membership_residual(out, form321r).max_residual <= 1e-9


class TestInverse:
    def test_identity(self, mloop):
        assert frobenius_distance(mloop.inverse(mloop.identity), mloop.identity) == 0.0

    def test_boost_inverse_flips_rapidity(self, mloop, form321r):
        t = 0.7
        inv = mloop.inverse(standard_boost(form321r, t))
        assert fro(inv - standard_boost(form321r, -t)) <= 1e-12

    def test_mul_with_inverse(self, mloop):
        stream = SampleStream(4)
        for _ in range(40):
            a, stream = one(draw(mloop, stream, 1))
            out = mloop.mul(a, mloop.inverse(a))
            assert frobenius_distance(out, mloop.identity) <= 1e-9

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_inverse_times_element_is_identity(self, field):
        mloop = MatrixLoop(SignatureForm(3, 2, 1, field))
        stream = SampleStream(10)
        for _ in range(40):
            a, stream = one(draw(mloop, stream, 1))
            assert fro(mloop.inverse(a) @ a - np.eye(3)) <= 1e-12


class TestDivision:
    def test_left_divide_trivials(self, mloop):
        c, _ = one(draw(mloop, SampleStream(5), 1))
        assert frobenius_distance(mloop.left_divide(mloop.identity, c), c) <= 1e-13
        assert frobenius_distance(mloop.left_divide(c, c), mloop.identity) <= 1e-13

    def test_right_divide_trivials(self, mloop):
        b, _ = one(draw(mloop, SampleStream(6), 1))
        assert frobenius_distance(mloop.right_divide(b, mloop.identity), b) <= 1e-13
        assert frobenius_distance(mloop.right_divide(b, b), mloop.identity) <= 1e-13

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrips(self, field):
        mloop = MatrixLoop(SignatureForm(3, 2, 1, field))
        form = mloop.form
        stream = SampleStream(7)
        for _ in range(60):
            a, stream = one(draw(mloop, stream, 1))
            c, stream = one(draw(mloop, stream, 1))
            x = mloop.left_divide(a, c)
            assert frobenius_distance(mloop.mul(a, x), c) <= 1e-8
            assert membership_residual(x, form).max_residual <= 1e-9
            y = mloop.right_divide(c, a)
            assert frobenius_distance(mloop.mul(y, a), c) <= 1e-8
            assert membership_residual(y, form).max_residual <= 1e-9


@pytest.mark.parametrize(
    "op, expected", [("mul", 1), ("left_divide", 1), ("right_divide", 1), ("inverse", 0)]
)
def test_eigendecompositions_per_operation(mloop, eig_calls, op, expected):
    a, stream = one(draw(mloop, SampleStream(11), 1))
    b, _ = one(draw(mloop, stream, 1))
    eig_calls.clear()
    getattr(mloop, op)(*((a,) if op == "inverse" else (a, b)))
    assert len(eig_calls) == expected


@pytest.mark.parametrize("field", ["real", "complex"])
def test_positive_factor_needs_no_caller_symmetrization(field):
    # the eigensolver symmetrizes its input and (A + A*)/2 is exactly
    # hermitian, so symmetrizing the lift's Gram matrix F2 F2* first changes
    # no bit of the result
    form = SignatureForm(4, 2, 2, field)
    stream = SampleStream(13)
    products = []
    for _ in range(20):
        a, stream = one(draw(MatrixLoop(form), stream, 1))
        b, stream = one(draw(form, stream, 1, "phi"))
        products.append(a @ b)
    for s in products + [np.stack(products)]:
        f = s[..., 2:]
        gram = f[..., 2:, :] @ dag(f[..., 2:, :])
        dec, r = spectral_map(symmetrize(gram))
        expected = sigma_from_spectrum(form, graph_block(f, form, 2), dec, r, r)
        assert np.array_equal(positive_factor(form, [(f, 2)])[0], expected)
        # the same holds where the Gram matrix is hermitian only to rounding
        h = gram + 1e-15 * np.tril(np.ones_like(gram))
        assert not np.array_equal(h, symmetrize(h))
        (raw, raw_r), (sym, sym_r) = spectral_map(h), spectral_map(symmetrize(h))
        assert np.array_equal(raw.eigenbasis, sym.eigenbasis) and np.array_equal(raw_r, sym_r)


class TestConjugationEquivariance:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_phi_conjugation_distributes_over_mul(self, field):
        form = SignatureForm(3, 2, 1, field)
        mloop = MatrixLoop(form)
        stream = SampleStream(8)
        for _ in range(50):
            a1, stream = one(draw(mloop, stream, 1))
            a2, stream = one(draw(mloop, stream, 1))
            b, stream = one(draw(form, stream, 1, "phi"))
            lhs = conjugate_by_phi(mloop.mul(a1, a2), b)
            rhs = mloop.mul(conjugate_by_phi(a1, b), conjugate_by_phi(a2, b))
            assert fro(lhs - rhs) <= 1e-8


def test_distance_properties(mloop):
    a, stream = one(draw(mloop, SampleStream(9), 1))
    b, _ = one(draw(mloop, stream, 1))
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance(a, b) == frobenius_distance(b, a)
