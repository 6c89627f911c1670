import numpy as np
import pytest

import bruckloops.kernel
import bruckloops.matrixloop
from bruckloops.errors import BruckLoopsError, InversesDisagree, NotPositiveDefinite
from bruckloops.extension import extension_config, realize
from bruckloops.geometry import AffineSubspace
from bruckloops.groups import SampleStream, SignatureForm, standard_boost
from bruckloops.kernel import (
    aip,
    bol,
    check_aip,
    check_bol,
    check_left_a,
    check_loop_axioms,
    drive,
    inverse_of,
    left_a,
    step,
)
from bruckloops.linalg import worst
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


# Spectral calls per checker: one per primitive per dependency level, so
# the matrix loop's two divisions of one level share one; the checkers draw
# nothing and the distances make no spectral call.
MATRIX_EIG_CALLS = {check_loop_axioms: 2, check_bol: 3, check_aip: 3, check_left_a: 5}
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


@pytest.mark.parametrize("join", ["matrix", "extension"])
def test_join_concatenates_stacks_of_any_lengths(form321c, join):
    loop = MatrixLoop(form321c) if join == "matrix" else extension_config(form321c)
    xs, _ = draw(loop, SampleStream(4), 4)
    joined = loop.join(xs[:1], xs[1:])
    arrays = (lambda e: (e,)) if join == "matrix" else (lambda e: (e.w, e.rho))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(joined), arrays(xs)))


class TestDrive:
    def test_steps_driven_together_share_each_level(self, monkeypatch, mloop):
        # bol, AIP and left-A on stacks of 1, 4 and 3 samples: alone they
        # make 3 + 3 + 5 positive_factor calls, together 5, left-A's depth,
        # and each value is its checker's.  The first three calls serve
        # every steps that waits on one, and AIP's two divisions share the
        # second with two levels' products; AIP asks for its last product
        # beside its inverse-gap reading, so the product joins left-A's
        # third level rather than waiting on the reading
        stream = SampleStream(12)
        samples = [(bol, check_bol, 1, 3), (aip, check_aip, 4, 2), (left_a, check_left_a, 3, 4)]
        slots = [sample_tuples(mloop, stream.split(100 * k), n, size) for k, (*_, n, size) in enumerate(samples)]
        alone = [bruckloops.kernel.run(steps(mloop, *xs)) for (steps, *_), xs in zip(samples, slots)]
        assert [worst(a) for a in alone] == [checker(mloop, *xs) for (_, checker, *_), xs in zip(samples, slots)]
        sizes, real = [], MatrixLoop.run

        def run(self, calls):
            sizes.append([(operation, len(operands[0])) for operation, operands in calls])
            return real(self, calls)

        monkeypatch.setattr(MatrixLoop, "run", run)
        outcomes = drive([steps(mloop, *xs) for (steps, *_), xs in zip(samples, slots)])
        assert all(o.error is None for o in outcomes)
        # every sample's residual, not only the worst
        assert [o.value.tobytes() for o in outcomes] == [a.tobytes() for a in alone]
        assert [o.value.shape for o in outcomes] == [(n,) for *_, n, _ in samples]
        # one entry per request, in the order the requests were made
        assert sizes == [
            [("mul", 2), ("mul", 4), ("mul", 6)],
            [("mul", 2), ("right_divide", 12), ("left_divide", 12), ("mul", 9)],
            [("mul", 2), ("mul", 4), ("mul", 9)],
            [("left_divide", 9)],
            [("mul", 3)],
        ]
        assert all(o.seconds > 0.0 for o in outcomes)

    def test_a_breakdown_is_thrown_into_the_steps_that_met_it(self, mloop):
        # a zero right operand breaks the shared left division; re-run per
        # request, only the steps whose operands hold it meet the error
        a, _ = draw(mloop, SampleStream(6), 3)

        def divide(c, catch):
            try:
                return (yield from step(mloop, "left_divide", a, c))
            except NotPositiveDefinite as exc:
                if catch:
                    return str(exc)
                raise

        broken = np.concatenate([a[:1], np.zeros((2, 3, 3))])
        good, caught, failed = drive([divide(a, False), divide(broken, True), divide(broken, False)])
        assert good.error is None and good.value.tobytes() == mloop.left_divide(a, a).tobytes()
        with pytest.raises(NotPositiveDefinite) as alone:
            mloop.left_divide(a, broken)
        assert caught.error is None and caught.value == str(alone.value)
        assert isinstance(failed.error, NotPositiveDefinite) and str(failed.error) == str(alone.value)


def _bits(x) -> tuple:
    """The bytes of a matrix stack, or of an extension stack's two arrays."""
    return (x.tobytes(),) if isinstance(x, np.ndarray) else (x.w.tobytes(), x.rho.tobytes())


# Requests of one primitive on stacks of unequal lengths: the matrix loop's
# three operations rest on positive_factor, the extension loop's product,
# left division and coordinates of orbit subspaces on omega, and its
# distances of elements and of subspaces on one QR call
MIXED = {
    "matrix": [("mul", 2), ("left_divide", 5), ("right_divide", 3), ("mul", 4)],
    "extension": [("mul", 2), ("coordinates", 4), ("left_divide", 5), ("mul", 3), ("coordinates", 1)],
    "extension-distance": [("subspace_distance", 2), ("distance", 5), ("subspace_distance", 4), ("distance", 1)],
}


def _operands(loop, operation: str, xs, ys) -> tuple:
    """The operands of one request: for the operations on subspace stacks
    the orbit subspaces of ``ys`` (and ``xs``), elements otherwise."""
    if operation == "coordinates":
        return (realize(ys, loop),)
    if operation == "subspace_distance":
        return realize(xs, loop), realize(ys, loop)
    return xs, ys


class TestMixedGroups:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", sorted(MIXED))
    def test_each_request_gets_the_bits_of_its_own_call(self, monkeypatch, kind, field):
        form = SignatureForm(3, 2, 1, field)
        loop = MatrixLoop(form) if kind == "matrix" else extension_config(form)
        xs, _ = draw(loop, SampleStream(21), 5)
        ys, _ = draw(loop, SampleStream(22), 5)
        requests = [(op, _operands(loop, op, xs[:count], ys[:count])) for op, count in MIXED[kind]]
        alone = [_bits(getattr(loop, operation)(*operands)) for operation, operands in requests]
        runs, real = [], type(loop).run
        monkeypatch.setattr(type(loop), "run", lambda self, calls: runs.append(calls) or real(self, calls))
        outcomes = drive([step(loop, operation, *operands) for operation, operands in requests])
        assert [_bits(o.value) for o in outcomes] == alone
        # one call, one entry per request
        assert [[(op, len(operands[0])) for op, operands in calls] for calls in runs] == [MIXED[kind]]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_breakdown_in_a_joined_coordinates_call_fails_only_its_request(self, field):
        # a subspace with a zero frame is not in the orbit: it breaks the
        # shared omega call, and re-run per request only its own fails
        loop = extension_config(SignatureForm(3, 2, 1, field))
        xs, _ = draw(loop, SampleStream(24), 4)
        good = realize(xs, loop)
        broken = realize(xs[:3], loop)
        broken = AffineSubspace(broken.base, np.concatenate([broken.frame[:1], np.zeros_like(broken.frame[1:])]))
        requests = [("coordinates", (good,)), ("mul", (xs, xs)), ("coordinates", (broken,))]
        fine, product, bad = drive([step(loop, operation, *operands) for operation, operands in requests])
        with pytest.raises(BruckLoopsError) as own:
            loop.coordinates(broken)
        assert isinstance(bad.error, type(own.value)) and str(bad.error) == str(own.value)
        assert fine.error is None and _bits(fine.value) == _bits(loop.coordinates(good))
        assert product.error is None and _bits(product.value) == _bits(loop.mul(xs, xs))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", sorted(MIXED))
    def test_requests_past_the_share_bound_run_apart_with_the_same_bits(self, monkeypatch, kind, field):
        form = SignatureForm(3, 2, 1, field)
        loop = MatrixLoop(form) if kind == "matrix" else extension_config(form)
        xs, _ = draw(loop, SampleStream(21), 5)
        ys, _ = draw(loop, SampleStream(22), 5)
        requests = [(op, _operands(loop, op, xs[:count], ys[:count])) for op, count in MIXED[kind]]
        joined = [_bits(o.value) for o in drive([step(loop, op, *operands) for op, operands in requests])]
        runs, real = [], type(loop).run
        monkeypatch.setattr(type(loop), "run", lambda self, calls: runs.append(calls) or real(self, calls))
        monkeypatch.setattr(bruckloops.kernel, "SHARE_BYTES", 0)
        apart = drive([step(loop, op, *operands) for op, operands in requests])
        assert [_bits(o.value) for o in apart] == joined
        # one call per request, on its own operands
        assert [[(op, len(operands[0])) for op, operands in calls] for calls in runs] == [[r] for r in MIXED[kind]]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["matrix", "extension"])
    def test_an_operation_of_no_primitive_joins_while_it_fits(self, monkeypatch, kind, field):
        # the matrix loop's distance and the extension loop's right
        # division share no primitive: one call on the joined operands
        # within the bound, one call per request past it
        form = SignatureForm(3, 2, 1, field)
        loop = MatrixLoop(form) if kind == "matrix" else extension_config(form)
        operation = "distance" if kind == "matrix" else "right_divide"
        xs, _ = draw(loop, SampleStream(21), 5)
        ys, _ = draw(loop, SampleStream(22), 5)
        counts = [2, 5, 3]
        alone = [_bits(getattr(loop, operation)(xs[:n], ys[:n])) for n in counts]
        called, real = [], getattr(loop, operation)
        monkeypatch.setattr(type(loop), operation, staticmethod(lambda a, b: called.append(len(a)) or real(a, b)))
        for share, calls in ((bruckloops.kernel.SHARE_BYTES, [sum(counts)]), (0, counts)):
            monkeypatch.setattr(bruckloops.kernel, "SHARE_BYTES", share)
            called.clear()
            outcomes = drive([step(loop, operation, xs[:n], ys[:n]) for n in counts])
            assert [_bits(o.value) for o in outcomes] == alone and called == calls

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_breakdown_fails_only_the_request_that_breaks(self, field):
        # a singular operand breaks the shared positive_factor call; re-run
        # per request, only its division fails, with its own call's text
        loop = MatrixLoop(SignatureForm(3, 2, 1, field))
        a, _ = draw(loop, SampleStream(23), 4)
        broken = np.concatenate([a[:1], np.zeros((2, 3, 3), dtype=a.dtype)])
        requests = [("mul", (a, a)), ("left_divide", (a[:3], broken)), ("right_divide", (a[:2], a[:2]))]
        outcomes = drive([step(loop, operation, *operands) for operation, operands in requests])
        with pytest.raises(NotPositiveDefinite) as own:
            loop.left_divide(a[:3], broken)
        good, bad, other = outcomes
        assert isinstance(bad.error, NotPositiveDefinite) and str(bad.error) == str(own.value)
        assert good.error is None and _bits(good.value) == _bits(loop.mul(a, a))
        assert other.error is None and _bits(other.value) == _bits(loop.right_divide(a[:2], a[:2]))


@pytest.mark.parametrize("kind", ["matrix", "extension"])
def test_identity_like_fills_a_stack_with_no_copy(form321c, kind):
    loop = MatrixLoop(form321c) if kind == "matrix" else extension_config(form321c)
    xs, _ = draw(loop, SampleStream(4), 3)
    filled = loop.identity_like(xs)
    assert len(filled) == 3 and loop.distance(filled, loop.identity).max() == 0.0
    rho = filled if kind == "matrix" else filled.rho
    assert not rho.flags.writeable and np.shares_memory(rho, form321c.eye())


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

    def test_extension_loop_aip_refusal_reads_the_inverse_gap(self, form321r):
        # x^-1 y^-1 is made before the inverses are checked; the refusal
        # keeps its text, the largest gap among the inverses of xy, x and y
        loop = extension_config(form321r)
        x, y = sample_tuples(loop, SampleStream(1), 40, CHECK_SLOTS[check_aip])
        with pytest.raises(InversesDisagree) as refused:
            check_aip(loop, x, y)
        with pytest.raises(InversesDisagree) as gap:
            inverse_of(loop, loop.join(loop.mul(x, y), x, y))
        assert str(refused.value) == str(gap.value)
        assert str(refused.value).startswith("e/x and x\\e differ by ")

    @pytest.mark.parametrize("kind", ["matrix", "extension"])
    def test_a_breakdown_in_aips_last_product_comes_before_the_inverse_check(self, monkeypatch, form321r, kind):
        # the last product is the second call that holds one; on the
        # extension loop, whose inverses disagree, its breakdown is still
        # the error the checker raises
        loop = MatrixLoop(form321r) if kind == "matrix" else extension_config(form321r)
        products, real = [], type(loop).run

        def run(self, calls):
            if any(operation == "mul" for operation, _ in calls):
                products.append(calls)
                if len(products) == 2:
                    raise NotPositiveDefinite("injected")
            return real(self, calls)

        monkeypatch.setattr(type(loop), "run", run)
        with pytest.raises(NotPositiveDefinite, match="^injected$"):
            check_drawn(check_aip, loop, SampleStream(1), 40)
        assert len(products) == 2 and [operation for operation, _ in products[1]] == ["mul"]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_inverse_of_one_matrix_shares_one_call(self, monkeypatch, field):
        # e/x and x\e of a single matrix are two 2-D products, whose last
        # columns join one positive_factor call, which reads them as stacks
        # of one; it breaks nothing, so none is re-run
        loop = MatrixLoop(SignatureForm(3, 2, 1, field))
        x, _ = one(draw(loop, SampleStream(13), 1))
        factored, real = [], bruckloops.matrixloop.positive_factor

        def counted(form, frames):
            factored.append([f.shape for f, _ in frames])
            return real(form, frames)

        monkeypatch.setattr(bruckloops.matrixloop, "positive_factor", counted)
        inverse = inverse_of(loop, x)
        assert factored == [[(3, 1), (3, 1)]]
        monkeypatch.undo()
        assert _bits(inverse) == _bits(loop.right_divide(loop.identity, x))

    def test_inverse_of_matrix_loop(self, loop, mloop):
        x, _ = one(draw(loop, SampleStream(13), 1))
        inv = inverse_of(loop, x)
        assert loop.distance(inv, mloop.inverse(x)) <= 1e-10
