import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruckloops.errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
)
from bruckloops.linalg import (
    dag,
    eig_hermitian,
    format_scalar,
    fro,
    orthonormalize,
    parse_scalar,
    read_matrix_text,
    spectral_map,
    symmetrize,
    write_matrix_text,
)
from conftest import boost3
from reference import hermitian_function


def random_hermitian(rng, n, complex_case=False):
    a = rng.uniform(-1, 1, (n, n))
    if complex_case:
        a = a + 1j * rng.uniform(-1, 1, (n, n))
    return symmetrize(a)


def random_spd(rng, n, lo=0.1, hi=10.0, complex_case=False):
    h = random_hermitian(rng, n, complex_case)
    dec = eig_hermitian(h)
    vals = np.linspace(lo, hi, n)
    return dec.apply(vals)


def random_frames(rng, shape, complex_case=False):
    v = rng.uniform(-1, 1, shape)
    return v + 1j * rng.uniform(-1, 1, shape) if complex_case else v


def modified_gram_schmidt(v):
    """Reference frame: each column has its components along the earlier
    frame columns removed one at a time, then is normalized."""
    q = v.astype(np.result_type(v.dtype, np.float64))
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= np.vdot(q[:, i], q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])
        assert np.array_equal(dec.eigenbasis, np.eye(3))

    def test_two_by_two_hand_roots(self):
        # characteristic polynomial x^2 - 4x + 3 = (x-1)(x-3)
        dec = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        dec = eig_hermitian(np.diag([4.0, 1.0, 0.25]))
        assert np.allclose(dec.eigenvalues, [0.25, 1.0, 4.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_reconstruction_200_random(self, complex_case):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_hermitian(rng, rng.integers(2, 6), complex_case)
            dec = eig_hermitian(a)
            assert fro(dec.apply(dec.eigenvalues) - a) <= 1e-10 * max(fro(a), 1e-30)
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic(self):
        a = random_hermitian(np.random.default_rng(3), 4)
        d1 = eig_hermitian(a)
        d2 = eig_hermitian(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenbasis, d2.eigenbasis)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=9, max_size=9))
    def test_reconstruction_hypothesis(self, entries):
        a = symmetrize(np.array(entries).reshape(3, 3))
        dec = eig_hermitian(a)
        assert fro(dec.apply(dec.eigenvalues) - a) <= 1e-10 * (1.0 + fro(a))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_no_convergence(self, bad):
        a = boost3(0.5)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NoConvergence):
            eig_hermitian(a)
        with pytest.raises(NoConvergence):
            spectral_map(a, "sqrt")

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            eig_hermitian(np.eye(3))


class TestStacks:
    """A stack (..., n, n) is decomposed in one call, with every check made
    per matrix; a 2-D input is the stack without batch axes."""

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_stack_matches_single_calls_bit_for_bit(self, complex_case, n):
        rng = np.random.default_rng(n)
        stack = np.stack([random_hermitian(rng, n, complex_case) for _ in range(40)])
        dec = eig_hermitian(stack.reshape(4, 10, n, n))
        vals = dec.eigenvalues.reshape(40, n)
        basis = dec.eigenbasis.reshape(40, n, n)
        applied = dec.apply(np.exp(dec.eigenvalues)).reshape(40, n, n)
        for i, a in enumerate(stack):
            single = eig_hermitian(a)
            assert np.array_equal(vals[i], single.eigenvalues)
            assert np.array_equal(basis[i], single.eigenbasis)
            assert np.array_equal(applied[i], single.apply(np.exp(single.eigenvalues)))
        # the positivity-checked call as well, on the stack shifted positive
        shifted = stack + (n + 1) * np.eye(n)
        stacked_dec, stacked_values = spectral_map(shifted, "inverse_sqrt")
        for i, a in enumerate(shifted):
            dec, values = spectral_map(a, "inverse_sqrt")
            assert np.array_equal(stacked_dec.eigenbasis[i], dec.eigenbasis)
            assert np.array_equal(stacked_values[i], values)

    def test_one_non_hermitian_matrix_refuses_the_stack(self):
        stack = np.stack([np.eye(3)] * 5)
        stack[3, 0, 1] = 1.0
        with pytest.raises(NotHermitian):
            eig_hermitian(stack)

    def test_hermiticity_is_judged_per_matrix(self):
        # the skew part 1e-6 passes against a norm-1e2 matrix only: its own
        # bound TAU_ABS + TAU_REL * ||A|| decides, not the stack's largest norm
        skew = np.zeros((3, 3))
        skew[0, 1] = 1e-6
        stack = np.stack([100.0 * np.eye(3), np.eye(3) + skew])
        eig_hermitian(stack[0] + skew)
        with pytest.raises(NotHermitian):
            eig_hermitian(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_non_finite_matrix_is_no_convergence(self, bad):
        stack = np.stack([boost3(0.1 * k) for k in range(4)])
        stack[2, 1, 2] = stack[2, 2, 1] = bad
        with pytest.raises(NoConvergence):
            eig_hermitian(stack)

    def test_one_non_positive_matrix_refuses_sqrt(self):
        stack = np.stack([np.diag([1.0, 2.0, 3.0])] * 4)
        stack[1] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            spectral_map(stack, "sqrt")
        dec, values = spectral_map(np.delete(stack, 1, axis=0), "sqrt")
        assert np.allclose(dec.apply(values)[0], np.diag(np.sqrt([1.0, 1.5, 2.0])))

    def test_non_square_stack_is_refused(self):
        with pytest.raises(DimensionMismatch):
            eig_hermitian(np.zeros((4, 3, 2)))
        with pytest.raises(DimensionMismatch):
            eig_hermitian(np.zeros(3))

    def test_dag_and_symmetrize_act_on_the_last_two_axes(self):
        rng = np.random.default_rng(2)
        stack = rng.uniform(-1, 1, (5, 3, 3)) + 1j * rng.uniform(-1, 1, (5, 3, 3))
        for i, a in enumerate(stack):
            assert np.array_equal(dag(stack)[i], a.conj().T)
            assert np.array_equal(symmetrize(stack)[i], symmetrize(a))


class TestSpectralMap:
    """The positivity-checked spectral call of the block path: a p2 x p2
    hermitian M's decomposition and a function on its spectrum."""

    def test_sqrt_is_the_half_angle_block(self):
        # M = C22 = cosh 2t of the squared boost; its square root, the
        # boost, has C22 block cosh t
        t = math.log(2)
        dec, values = spectral_map(np.array([[math.cosh(2 * t)]]), "sqrt")
        assert values[0] == pytest.approx(math.cosh(t), rel=1e-15)
        assert np.array_equal(dec.eigenbasis, np.eye(1))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_inverse_sqrt_of_a_random_positive_matrix(self, complex_case):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 3, complex_case=complex_case)
        dec, values = spectral_map(a, "inverse_sqrt")
        root = dec.apply(values)
        assert fro(root @ a @ root - np.eye(3)) <= 1e-12
        assert fro(root - dag(root)) == 0.0

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            spectral_map(np.eye(2), "exp")

    def test_positivity_guard(self):
        with pytest.raises(NotPositiveDefinite):
            spectral_map(np.diag([1.0, -1.0]), "sqrt")
        with pytest.raises(NotPositiveDefinite):
            spectral_map(np.diag([1.0, 0.0]), "inverse_sqrt")


class TestHermitianFunctionOracle:
    """The n x n oracle the block path is judged against (tests/reference)."""

    def test_sqrt_identity(self):
        assert np.allclose(hermitian_function(np.eye(3), np.sqrt), np.eye(3))

    def test_sqrt_diagonal(self):
        out = hermitian_function(np.diag([4.0, 1.0, 0.25]), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 1.0, 0.5]), atol=1e-14)

    def test_sqrt_of_squared_boost(self):
        a = boost3(math.log(2))
        squared = a @ a  # independent route: plain matrix product
        assert fro(hermitian_function(squared, np.sqrt) - a) <= 1e-12

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_sqrt_square_roundtrip(self, complex_case):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_spd(rng, 3, complex_case=complex_case)
            back = hermitian_function(a @ a, np.sqrt)
            assert fro(back - a) <= 1e-9 * fro(a)

    def test_output_hermitian(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 4, complex_case=True)
        out = hermitian_function(a, lambda v: 1.0 / np.sqrt(v))
        assert fro(out - dag(out)) <= 1e-12


class TestOrthonormalize:
    def test_already_orthonormal_unchanged(self):
        v = np.eye(3)[:, :2]
        assert np.array_equal(orthonormalize(v), v)

    def test_hand_gram_schmidt(self):
        v = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(orthonormalize(v), np.eye(3)[:, :2])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_short_column_is_independent(self):
        # the floor is relative to the column, so a short but valid
        # direction is normalized, while a zero column is still refused
        assert np.array_equal(orthonormalize(np.array([[0.0], [0.0], [1e-12]])), np.eye(3)[:, 2:])
        with pytest.raises(RankDeficient):
            orthonormalize(np.zeros((3, 1)))

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_stack_matches_single_calls_bit_for_bit(self, complex_case, n):
        rng = np.random.default_rng(n)
        stack = random_frames(rng, (40, n, 2), complex_case)
        frames = orthonormalize(stack.reshape(4, 10, n, 2)).reshape(40, n, 2)
        for i, v in enumerate(stack):
            assert np.array_equal(frames[i], orthonormalize(v))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_is_the_gram_schmidt_frame(self, complex_case):
        # the QR frame whose R has a positive diagonal is unique: the one
        # Gram-Schmidt builds, with U* v upper triangular, diagonal > 0
        rng = np.random.default_rng(12)
        for n in range(1, 7):
            for k in range(1, min(n, 3) + 1):
                for _ in range(40):
                    v = random_frames(rng, (n, k), complex_case)
                    u = orthonormalize(v)
                    assert np.max(np.abs(u - modified_gram_schmidt(v))) <= 1e-12
                    d = np.diagonal(dag(u) @ v)
                    assert np.all(d.real > 0) and np.all(np.abs(d.imag) <= 1e-14 * np.linalg.norm(v, axis=0))

    def test_more_columns_than_rows(self):
        with pytest.raises(RankDeficient):
            orthonormalize(np.eye(3, 4))


class TestMatrixText:
    @pytest.mark.parametrize("complex_case", [False, True])
    def test_roundtrip_exact(self, complex_case):
        rng = np.random.default_rng(10)
        a = rng.uniform(-10, 10, (3, 4))
        if complex_case:
            a = a + 1j * rng.uniform(-10, 10, (3, 4))
        assert np.array_equal(read_matrix_text(write_matrix_text(a)), a)

    def test_complex_entry_spellings(self):
        assert parse_scalar("1.5-2.25i", "complex") == 1.5 - 2.25j
        assert parse_scalar("-3e-05+0i", "complex") == complex(-3e-05, 0.0)
        assert parse_scalar("0+1i", "complex") == 1j

    def test_header(self):
        text = write_matrix_text(np.eye(2))
        assert text.splitlines()[0] == "2 2 real"

    def test_bad_inputs(self):
        with pytest.raises(ParseError):
            read_matrix_text("")
        with pytest.raises(ParseError):
            read_matrix_text("2 2 real\n1 2 3")
        with pytest.raises(ParseError):
            read_matrix_text("2 2 quaternion\n1 2\n3 4")
        with pytest.raises(ParseError):
            parse_scalar("1.5*2i", "complex")

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_scalar_roundtrip_hypothesis(self, re_part, im_part):
        assert parse_scalar(format_scalar(re_part, "real"), "real") == re_part
        z = complex(re_part, im_part)
        assert parse_scalar(format_scalar(z, "complex"), "complex") == z

