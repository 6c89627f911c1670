import numpy as np
import pytest

from bruckloops.errors import InversesDisagree
from bruckloops.extension import extension_config
from bruckloops.groups import SampleStream, SignatureForm, standard_boost
from bruckloops.kernel import (
    check_aip,
    check_bol,
    check_left_a,
    check_loop_axioms,
    inverse_of,
)
from bruckloops.matrixloop import MatrixLoop
from conftest import one
from reference import CHECK_SLOTS, check_drawn, draw, sample_tuples


@pytest.fixture
def mloop(form321r):
    return MatrixLoop(form321r)


@pytest.fixture
def loop(mloop):
    return mloop


class TestCheckers:
    def test_axioms_pass(self, loop):
        residual = check_drawn(check_loop_axioms, loop, SampleStream(1), 200)
        assert residual <= 1e-8

    def test_division_at_identity(self, loop):
        a, _ = one(draw(loop, SampleStream(9), 1))
        x = loop.left_divide(a, a)
        assert loop.distance(x, loop.identity) <= 1e-12

    def test_bol_trivial_slots(self, loop):
        e = loop.identity
        y, _ = one(draw(loop, SampleStream(2), 1))
        z, _ = one(draw(loop, SampleStream(3), 1))
        # x = e: both sides reduce to y*z
        lhs = loop.mul(e, loop.mul(y, loop.mul(e, z)))
        rhs = loop.mul(loop.mul(e, loop.mul(y, e)), z)
        assert loop.distance(lhs, rhs) <= 1e-13
        # z = e: both sides reduce to x*(y*x)
        x, _ = one(draw(loop, SampleStream(4), 1))
        lhs = loop.mul(x, loop.mul(y, loop.mul(x, e)))
        rhs = loop.mul(loop.mul(x, loop.mul(y, x)), e)
        assert loop.distance(lhs, rhs) <= 1e-13

    def test_bol_pass(self, loop):
        residual = check_drawn(check_bol, loop, SampleStream(5), 200)
        assert residual <= 1e-8

    def test_aip_pass(self, loop):
        residual = check_drawn(check_aip, loop, SampleStream(6), 200)
        assert residual <= 1e-8

    def test_aip_commuting_boosts(self, mloop, form321r):
        s, t = 0.4, 0.9
        prod = mloop.mul(standard_boost(form321r, s), standard_boost(form321r, t))
        inv = mloop.inverse(prod)
        expected = standard_boost(form321r, -(s + t))
        assert np.max(np.abs(inv - expected)) <= 1e-12

    def test_left_a_identity_slots(self, loop):
        e = loop.identity
        u, _ = one(draw(loop, SampleStream(7), 1))
        v, _ = one(draw(loop, SampleStream(8), 1))
        lam_e = loop.left_divide(loop.mul(e, e), loop.mul(e, loop.mul(e, u)))
        assert loop.distance(lam_e, u) <= 1e-13

    def test_left_a_reported(self, loop):
        residual = check_drawn(check_left_a, loop, SampleStream(9), 100)
        assert residual >= 0.0

    def test_monotone_in_sample_count(self, loop):
        small = check_drawn(check_bol, loop, SampleStream(10), 50)
        large = check_drawn(check_bol, loop, SampleStream(10), 150)
        assert small <= large

    def test_deterministic_reports(self, loop):
        a = check_drawn(check_aip, loop, SampleStream(11), 60)
        b = check_drawn(check_aip, loop, SampleStream(11), 60)
        assert a == b


# Spectral calls per checker: one per loop operation per dependency level;
# the checkers draw nothing and the distances make no spectral call.
MATRIX_EIG_CALLS = {check_loop_axioms: 3, check_bol: 3, check_aip: 4, check_left_a: 5}
EXTENSION_EIG_CALLS = {check_loop_axioms: 3, check_bol: 3, check_left_a: 5}


@pytest.mark.parametrize("count", [5, 50])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectral_calls_per_checker_do_not_grow_with_count(eig_calls, count, field):
    form = SignatureForm(3, 2, 1, field)
    for loop, expected in ((MatrixLoop(form), MATRIX_EIG_CALLS), (extension_config(form), EXTENSION_EIG_CALLS)):
        for checker, calls in expected.items():
            elements = sample_tuples(loop, SampleStream(3), count, CHECK_SLOTS[checker])
            eig_calls.clear()
            checker(loop, *elements)
            assert len(eig_calls) == calls, (type(loop).__name__, checker.__name__)


@pytest.mark.parametrize("join", ["matrix", "extension"])
def test_join_broadcasts_a_single_element(form321c, join):
    loop = MatrixLoop(form321c) if join == "matrix" else extension_config(form321c)
    xs, _ = draw(loop, SampleStream(4), 3)
    joined = loop.join(loop.identity, xs)
    assert loop.distance(joined[:3], loop.identity).max() == 0.0
    assert loop.distance(joined[3:], xs).max() == 0.0


class TestTwoSidedInverses:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matrix_loop_two_sided(self, field):
        loop = MatrixLoop(SignatureForm(3, 2, 1, field))
        stream = SampleStream(1)
        count = 500 if field == "real" else 150
        for _ in range(count):
            x, stream = one(draw(loop, stream, 1))
            left = loop.left_divide(x, loop.identity)
            right = loop.right_divide(loop.identity, x)
            assert loop.distance(left, right) <= 1e-9

    def test_extension_loop_inverses_disagree(self, form321r):
        # the subspace extension has distinct left and right inverses as
        # soon as the translation part is nonzero; the AIP checker must
        # refuse rather than report a meaningless residual
        loop = extension_config(form321r)
        with pytest.raises(InversesDisagree):
            check_drawn(check_aip, loop, SampleStream(1), 40)

    def test_inverse_of_matrix_loop(self, loop, mloop):
        x, _ = one(draw(loop, SampleStream(13), 1))
        inv = inverse_of(loop, x)
        assert loop.distance(inv, mloop.inverse(x)) <= 1e-10
