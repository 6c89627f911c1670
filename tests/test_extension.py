import json
import math

import numpy as np
import pytest

from bruckloops import extension as ext
from bruckloops.cli import build_wtilde
from bruckloops.errors import ConfigInvalid, NotInOrbit, RankDeficient, TransversalityViolated
from bruckloops.extension import (
    ExtensionElement,
    coordinate_subspace,
    dimension_rank_report,
    expected_dimension,
    ext_mul,
    extension_config,
    extension_element_from_json,
    lift_from_infinity,
    nonisomorphism_witness,
    omega,
    realize,
    solve_translation,
)
from bruckloops.geometry import AffineSubspace, apply, projector, subspace, subspace_distance
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    sample_sigma,
    sigma_from_block,
    standard_boost,
)
from bruckloops.kernel import check_loop_axioms
from bruckloops.linalg import fro, orthonormalize
from bruckloops.matrixloop import MatrixLoop
from conftest import one, rotation
from reference import canonical_distance, check_drawn


@pytest.fixture
def cfg(form321r):
    return extension_config(form321r)


@pytest.fixture
def boosted_cfg(form321r):
    wt = apply(standard_boost(form321r, math.log(2)), coordinate_subspace(form321r, 2))
    return extension_config(form321r, wtilde=wt)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", range(3, 8))
def test_coordinate_subspaces_are_canonical_by_construction(monkeypatch, field, n):
    # base 0 and the identity's columns, every zero +0.0, with no QR: the
    # canonical form a QR would give up to the signs of its zeros
    def refuse(*args):
        pytest.fail("a coordinate subspace was orthonormalized")

    monkeypatch.setattr("bruckloops.linalg.orthonormalize", refuse)
    monkeypatch.setattr("bruckloops.geometry.orthonormalize", refuse)
    for p2 in range(1, n // 2 + 1):
        form = SignatureForm(n, n - p2, p2, field)
        for which, columns in ((1, slice(None, n - p2)), (2, slice(n - p2, None))):
            w = coordinate_subspace(form, which)
            assert w.base.dtype == w.frame.dtype == form.dtype
            assert np.array_equal(w.base, np.zeros(n))
            assert np.array_equal(w.frame, np.eye(n)[:, columns])
            for part in (w.base, w.frame):
                assert not np.signbit(part.real).any() and not np.signbit(part.imag).any()


def test_eig_calls_counts_calls_through_imported_names(form321r, eig_calls):
    # extension holds eig_hermitian under its own name; the subspace
    # distance makes no spectral call
    extension_config(form321r)
    assert len(eig_calls) == 1
    eig_calls.clear()
    s = subspace(np.zeros(3), np.eye(3)[:, :2])
    subspace_distance(s, s)
    assert eig_calls == []


class TestConfig:
    def test_default_transversal(self, cfg):
        assert cfg.wtilde.dim == 1
        assert np.allclose(cfg.wtilde.base, 0.0)

    def test_bad_carrier(self, form321r):
        with pytest.raises(ConfigInvalid):
            extension_config(form321r, carrier=3)

    def test_wrong_dimension_transversal(self, form321r):
        wt = subspace(np.zeros(3), np.eye(3)[:, 1:])
        with pytest.raises(ConfigInvalid):
            extension_config(form321r, wtilde=wt)

    def test_transversal_must_contain_zero(self, form321r):
        wt = subspace(np.array([1.0, 0.0, 0.0]), np.eye(3)[:, 2:])
        with pytest.raises(ConfigInvalid):
            extension_config(form321r, wtilde=wt)

    def test_non_transversal_rejected(self, form321r):
        # a line inside the carrier plane meets W1 itself in more than a point
        wt = subspace(np.zeros(3), np.eye(3)[:, :1])
        with pytest.raises(TransversalityViolated):
            extension_config(form321r, wtilde=wt)

    def test_contraction_norm_above_one_rejected(self, form321r):
        # W~ = span [C; 1] with ||C|| = 1.25: the orbit direction of the
        # contraction X* = [0.8, 0] meets it in a line, and no sample of
        # radius 0.75 reaches that direction
        wt = subspace(np.zeros(3), np.array([[1.25], [0.0], [1.0]]))
        with pytest.raises(TransversalityViolated):
            extension_config(form321r, wtilde=wt)

    def test_carrier_two_mirror_rejected(self, form321r):
        wt = subspace(np.zeros(3), np.array([[1.0, 0.0], [0.0, 1.0], [1.25, 0.0]]))
        with pytest.raises(TransversalityViolated):
            extension_config(form321r, carrier=2, wtilde=wt)

    def test_no_sampling(self, form321r, monkeypatch):
        monkeypatch.setattr(SampleStream, "next_uniforms", pytest.fail)
        wt = apply(standard_boost(form321r, 0.5), coordinate_subspace(form321r, 2))
        assert extension_config(form321r, wtilde=wt).wtilde.dim == 1

    def test_stored_base_is_exactly_zero(self, form321r):
        wt = subspace(np.full(3, 1e-12), np.array([[0.5], [0.0], [1.0]]))
        assert not np.any(extension_config(form321r, wtilde=wt).wtilde.base)

    def test_near_boundary_boost_accepted(self, form321r):
        # boost 3 gives ||C|| = tanh 3 = 0.995, just inside the boundary
        wt = apply(standard_boost(form321r, 3.0), coordinate_subspace(form321r, 2))
        loop = extension_config(form321r, wtilde=wt)
        residual = check_drawn(check_loop_axioms, loop, SampleStream(3), 20)
        assert residual <= 1e-8, residual


class TestRealize:
    def test_identity_element(self, cfg):
        assert subspace_distance(realize(cfg.identity, cfg), cfg.carrier_subspace()) == 0.0

    def test_pure_translation(self, cfg):
        w = np.array([0.0, 0.0, 1.3])
        e = ExtensionElement(w, cfg.identity.rho)
        s = realize(e, cfg)
        expected = subspace(w, np.eye(3)[:, :2])
        assert subspace_distance(s, expected) <= 1e-12

    def test_pure_linear(self, cfg, form321r):
        rho, _ = one(sample_sigma(form321r, SampleStream(1), 1))
        e = ExtensionElement(np.zeros(3), rho)
        expected = apply(rho, cfg.carrier_subspace())
        assert subspace_distance(realize(e, cfg), expected) <= 1e-12


class TestLift:
    def test_carrier_direction_gives_identity(self, cfg):
        z = cfg.carrier_subspace().frame
        assert fro(lift_from_infinity(z, cfg) - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrip_uniqueness(self, field):
        form = SignatureForm(3, 2, 1, field)
        config = extension_config(form)
        stream = SampleStream(2)
        for _ in range(50):
            rho, stream = one(sample_sigma(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            lifted = lift_from_infinity(z, config)
            assert fro(lifted - rho) <= 1e-8

    def test_negative_direction_not_in_orbit(self, cfg):
        with pytest.raises(NotInOrbit):
            lift_from_infinity(np.eye(3)[:, [0, 2]], cfg)

    def test_non_contraction_not_in_orbit(self, cfg):
        # invertible top block, but the graph block X* = [0, 2] has norm 2
        with pytest.raises(NotInOrbit):
            lift_from_infinity(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]]), cfg)

    @pytest.mark.parametrize("carrier", [1, 2])
    def test_roundtrip_532_complex(self, carrier):
        form = SignatureForm(5, 3, 2, "complex")
        config = extension_config(form, carrier=carrier)
        stream = SampleStream(5)
        for _ in range(30):
            rho, stream = one(sample_sigma(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            assert fro(lift_from_infinity(z, config) - rho) <= 1e-8

    def test_one_eigendecomposition_and_no_svd_or_det(self, cfg, form321r, eig_calls, monkeypatch):
        rho, _ = one(sample_sigma(form321r, SampleStream(6), 1))
        z = apply(rho, cfg.carrier_subspace()).frame
        eig_calls.clear()
        for name in ("svd", "det"):
            monkeypatch.setattr(np.linalg, name, pytest.fail)
        lift_from_infinity(z, cfg)
        assert len(eig_calls) == 1

    def test_carrier_two(self):
        form = SignatureForm(4, 2, 2, "real")
        config = extension_config(form, carrier=2)
        stream = SampleStream(3)
        for _ in range(20):
            rho, stream = one(sample_sigma(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            assert fro(lift_from_infinity(z, config) - rho) <= 1e-8

    def test_determinant_correction_complex(self):
        form = SignatureForm(3, 2, 1, "complex")
        config = extension_config(form)
        stream = SampleStream(4)
        for _ in range(30):
            rho, stream = one(sample_sigma(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            assert fro(lift_from_infinity(z, config) - rho) <= 1e-8


class TestOmega:
    def test_carrier_maps_to_identity(self, cfg):
        e = omega(cfg.carrier_subspace(), cfg)
        assert np.allclose(e.w, 0.0)
        assert fro(e.rho - np.eye(3)) <= 1e-12

    def test_roundtrip(self, cfg):
        loop = cfg
        stream = SampleStream(5)
        for _ in range(50):
            e, stream = one(loop.sample(stream, 1))
            back = omega(realize(e, cfg), cfg)
            assert np.linalg.norm(back.w - e.w) <= 1e-8
            assert fro(back.rho - e.rho) <= 1e-8


class TestExtMul:
    def test_left_identity(self, cfg):
        loop = cfg
        e, _ = one(loop.sample(SampleStream(6), 1))
        out = ext_mul(cfg.identity, e, cfg)
        assert np.linalg.norm(out.w - e.w) <= 1e-12
        assert fro(out.rho - e.rho) <= 1e-12

    def test_right_identity(self, cfg):
        loop = cfg
        e, _ = one(loop.sample(SampleStream(7), 1))
        out = ext_mul(e, cfg.identity, cfg)
        assert np.linalg.norm(out.w - e.w) <= 1e-12
        assert fro(out.rho - e.rho) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_left_translation_oracle(self, field):
        # the product realizes to the image of the right factor under the
        # left factor's affinity: multiplication IS left translation
        form = SignatureForm(3, 2, 1, field)
        config = extension_config(form)
        loop = config
        stream = SampleStream(8)
        for _ in range(50):
            e1, stream = one(loop.sample(stream, 1))
            e2, stream = one(loop.sample(stream, 1))
            prod = ext_mul(e1, e2, config)
            oracle = apply(e1.rho, realize(e2, config), e1.w)
            assert subspace_distance(realize(prod, config), oracle) <= 1e-8

    def test_infinity_projection_matches_matrix_loop(self, cfg, form321r):
        mloop = MatrixLoop(form321r)
        loop = cfg
        stream = SampleStream(9)
        for _ in range(50):
            e1, stream = one(loop.sample(stream, 1))
            e2, stream = one(loop.sample(stream, 1))
            prod = ext_mul(e1, e2, cfg)
            assert fro(prod.rho - mloop.mul(e1.rho, e2.rho)) <= 1e-9

    def test_one_eigendecomposition_and_no_det(self, cfg, eig_calls, monkeypatch):
        # the orbit map: one graph lift, and no polar factorization
        loop = cfg
        e1, stream = one(loop.sample(SampleStream(12), 1))
        e2, _ = one(loop.sample(stream, 1))
        eig_calls.clear()
        monkeypatch.setattr(np.linalg, "det", pytest.fail)
        ext_mul(e1, e2, cfg)
        assert len(eig_calls) == 1

    def test_no_svd_or_inv(self, boosted_cfg, monkeypatch):
        # left translations are positive isometries: the left division
        # inverts them as J A J, and nothing checks their rank
        loop = boosted_cfg
        e1, stream = one(loop.sample(SampleStream(15), 1))
        e2, _ = one(loop.sample(stream, 1))
        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, pytest.fail)
        ext_mul(e1, e2, boosted_cfg)
        loop.left_divide(e1, e2)
        loop.right_divide(e2, e1)
        omega(realize(e1, boosted_cfg), boosted_cfg)
        solve_translation(realize(e1, boosted_cfg), realize(e2, boosted_cfg), boosted_cfg)


class TestSolveTranslation:
    def test_identity_pair(self, cfg):
        w1 = cfg.carrier_subspace()
        t, rho = solve_translation(w1, w1, cfg)
        assert np.linalg.norm(t) <= 1e-12
        assert fro(rho - np.eye(3)) <= 1e-12

    def test_recovers_element_coordinates(self, cfg):
        loop = cfg
        e, _ = one(loop.sample(SampleStream(10), 1))
        t, rho = solve_translation(cfg.carrier_subspace(), realize(e, cfg), cfg)
        assert np.linalg.norm(t - e.w) <= 1e-8
        assert fro(rho - e.rho) <= 1e-8

    def test_random_pairs(self, cfg):
        loop = cfg
        stream = SampleStream(11)
        for _ in range(50):
            e1, stream = one(loop.sample(stream, 1))
            e2, stream = one(loop.sample(stream, 1))
            d1, d2 = realize(e1, cfg), realize(e2, cfg)
            t, rho = solve_translation(d1, d2, cfg)
            assert subspace_distance(apply(rho, d1, t), d2) <= 1e-8

    def test_stability_under_representative_perturbation(self, cfg):
        loop = cfg
        stream = SampleStream(12)
        rng = np.random.default_rng(12)
        for _ in range(25):
            e1, stream = one(loop.sample(stream, 1))
            e2, stream = one(loop.sample(stream, 1))
            d1, d2 = realize(e1, cfg), realize(e2, cfg)
            t, rho = solve_translation(d1, d2, cfg)
            d1p = subspace(d1.base + 1e-10 * rng.uniform(-1, 1, 3),
                           d1.frame + 1e-10 * rng.uniform(-1, 1, d1.frame.shape))
            d2p = subspace(d2.base + 1e-10 * rng.uniform(-1, 1, 3),
                           d2.frame + 1e-10 * rng.uniform(-1, 1, d2.frame.shape))
            tp, rhop = solve_translation(d1p, d2p, cfg)
            assert np.linalg.norm(tp - t) + fro(rhop - rho) <= 1e-6


class TestExtLoop:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_axioms(self, field):
        form = SignatureForm(3, 2, 1, field)
        loop = extension_config(form)
        residual = check_drawn(check_loop_axioms, loop, SampleStream(1), 100)
        assert residual <= 1e-8, residual

    def test_axioms_boosted_transversal(self, boosted_cfg):
        loop = boosted_cfg
        residual = check_drawn(check_loop_axioms, loop, SampleStream(2), 100)
        assert residual <= 1e-8, residual


class TestWitness:
    def test_standard_transversal_rejected(self, cfg):
        with pytest.raises(ConfigInvalid):
            nonisomorphism_witness(cfg)

    def test_hand_quarter_turn_displacement(self, boosted_cfg, form321r):
        # boosted transversal is spanned by (0, 3, 5)/sqrt(34); a quarter
        # turn sends it to (-3, 0, 5)/sqrt(34); the projector distance is
        # sqrt(2 - 2 (25/34)^2) and the translate parts vanish
        g = rotation(3, 0, 1, math.pi / 2)
        moved = apply(g, boosted_cfg.wtilde)
        expected = math.sqrt(2.0 - 2.0 * (25.0 / 34.0) ** 2)
        assert subspace_distance(moved, boosted_cfg.wtilde) == pytest.approx(expected, rel=1e-12)
        assert expected > 1e-3

    def test_search_succeeds(self, boosted_cfg):
        report = nonisomorphism_witness(boosted_cfg, SampleStream(3))
        assert report.displacement > 1e-3
        assert report.samples_used <= 100


# The configs of the 16-case report set (the (3,2,1) complex one doubles as
# the suite-321c benchmark config) plus a larger complex signature.
DIMENSION_CONFIGS = [
    ((3, 2, 1, "real"), 1, "standard"),
    ((3, 2, 1, "complex"), 1, "standard"),
    ((4, 2, 2, "real"), 1, "standard"),
    ((4, 3, 1, "real"), 1, "standard"),
    ((4, 2, 2, "real"), 2, f"boost:{math.log(2)!r}"),
    ((3, 2, 1, "real"), 1, f"boost:{math.log(2)!r}"),
    ((4, 3, 1, "real"), 2, "standard"),
    ((6, 3, 3, "complex"), 1, "boost:0.5"),
]


def dimension_config(signature, carrier, wtilde):
    form = SignatureForm(*signature)
    return extension_config(form, carrier, build_wtilde(form, carrier, wtilde))


def reference_jacobians(cfg, thetas):
    """The per-point reference for the stacked Jacobian: every perturbed
    chart point becomes one element through the single-element
    sigma_from_block, is realized and canonicalized, and is embedded by its
    projector and base."""
    form = cfg.form
    k = cfg.wtilde.dim

    def embed(theta):
        if form.field == "complex":
            coef = theta[0 : 2 * k : 2] + 1j * theta[1 : 2 * k : 2]
            x = (theta[2 * k :: 2] + 1j * theta[2 * k + 1 :: 2]).reshape(form.p1, form.p2)
        else:
            coef = theta[:k]
            x = theta[k:].reshape(form.p1, form.p2)
        w = cfg.wtilde.frame @ coef.astype(form.dtype)
        raw = realize(ExtensionElement(w, sigma_from_block(form, x.astype(form.dtype))), cfg)
        s = subspace(raw.base, raw.frame)
        # a complex entry as its (re, im) pair
        return np.concatenate([projector(s.frame).ravel(), s.base]).view(np.float64)

    step = 1e-5
    jacobians = []
    for theta in thetas:
        cols = []
        for idx in range(theta.size):
            hi, lo = theta.copy(), theta.copy()
            hi[idx] += step
            lo[idx] -= step
            cols.append((embed(hi) - embed(lo)) / (2 * step))
        jacobians.append(np.column_stack(cols))
    return np.stack(jacobians)


class TestDimension:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_stacked_pass_matches_per_point_reference(self, monkeypatch, signature, carrier, wtilde, seed):
        cfg = dimension_config(signature, carrier, wtilde)
        report = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        stacked = ext._chart_jacobians
        checked = []

        def reference(config, thetas):
            ref = reference_jacobians(config, thetas)
            assert np.max(np.abs(stacked(config, thetas) - ref)) <= 1e-9
            checked.append(thetas.shape)
            return ref

        monkeypatch.setattr(ext, "_chart_jacobians", reference)
        ref_report = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        assert checked == [(20, expected_dimension(cfg))]
        assert report.rank == ref_report.rank == expected_dimension(cfg)
        assert report.ranks == ref_report.ranks
        assert report.gap_fraction == ref_report.gap_fraction

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_eigendecomposition_call_for_all_points(self, eig_calls, field):
        cfg = extension_config(SignatureForm(3, 2, 1, field))
        eig_calls.clear()
        dimension_rank_report(cfg, points=5)
        d = expected_dimension(cfg)
        assert eig_calls == [(2 * d * 5, 1, 1)]

    def test_collapsed_carrier_frame_is_refused(self, monkeypatch, cfg):
        # one perturbed lift whose two carrier columns coincide is refused,
        # as orthonormalize refuses that frame
        def collapsing(form, x):
            rho = sigma_from_block(form, x).copy()
            rho[7, :, 1] = rho[7, :, 0]
            return rho

        monkeypatch.setattr(ext, "sigma_from_block", collapsing)
        with pytest.raises(RankDeficient):
            dimension_rank_report(cfg, points=3)
        with pytest.raises(RankDeficient):
            orthonormalize(collapsing(cfg.form, np.zeros((8, 2, 1)))[7][:, :2])

    def test_real_321(self, cfg):
        report = dimension_rank_report(cfg, points=10)
        assert report.rank == 3 == expected_dimension(cfg)
        assert report.gap_fraction >= 0.9

    def test_complex_321(self):
        config = extension_config(SignatureForm(3, 2, 1, "complex"))
        report = dimension_rank_report(config, points=6)
        assert report.rank == 6 == expected_dimension(config)

    def test_check_returns_int(self, cfg):
        assert dimension_rank_report(cfg, points=4).rank == 3


class TestOnCoordinates:
    """The loop operations run on (w, rho) and on raw images of carrier
    spans: right division is one matrix-loop division, and no operation
    builds a canonical subspace."""

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_one_eigendecomposition_per_operation(self, eig_calls, signature, carrier, wtilde):
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = one(cfg.sample(SampleStream(21), 1))
        c, _ = one(cfg.sample(stream, 1))
        for op in (cfg.mul, cfg.left_divide, cfg.right_divide):
            eig_calls.clear()
            op(a, c)
            assert len(eig_calls) == 1, op.__name__

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_no_canonical_subspace_on_the_hot_path(self, monkeypatch, signature, carrier, wtilde):
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = one(cfg.sample(SampleStream(22), 1))
        c, _ = one(cfg.sample(stream, 1))
        d1, d2 = realize(a, cfg), realize(c, cfg)

        def refuse(*args):
            pytest.fail("a loop operation built a canonical subspace")

        for target in ("geometry.subspace", "extension.subspace", "geometry.orthonormalize",
                       "linalg.orthonormalize"):
            monkeypatch.setattr(f"bruckloops.{target}", refuse)
        cfg.mul(a, c)
        cfg.left_divide(a, c)
        cfg.right_divide(c, a)
        omega(d1, cfg)
        solve_translation(d1, d2, cfg)

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_omega_of_any_representative(self, signature, carrier, wtilde):
        # (w + F c, F M) spans the same subspace as realize(e) for any c and
        # invertible M; ||M - I|| <= 0.2 sqrt(2) k < 1 keeps M invertible
        cfg = dimension_config(signature, carrier, wtilde)
        rng = np.random.default_rng(23)
        k = cfg.carrier_dim
        complex_field = cfg.form.field == "complex"
        stream = SampleStream(23)
        for _ in range(10):
            e, stream = one(cfg.sample(stream, 1))
            noise = rng.uniform(-1, 1, (2, k + 1, k))
            shift = (noise[0] + 1j * noise[1] if complex_field else noise[0]).astype(cfg.form.dtype)
            f = ext._block_columns(e.rho, cfg.form, cfg.carrier)
            rep = AffineSubspace(e.w + f @ shift[k], f @ (np.eye(k) + 0.2 * shift[:k]))
            got, want = omega(rep, cfg), omega(realize(e, cfg), cfg)
            assert np.linalg.norm(got.w - want.w) <= 1e-12
            assert fro(got.rho - want.rho) <= 1e-12

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_distance_is_the_distance_of_the_canonical_realizations(self, signature, carrier, wtilde):
        # distance hands the raw realizations to subspace_distance, which
        # canonicalizes each once: the judge reads what it read on canonical
        # realizations, bit for bit
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = cfg.sample(SampleStream(24), 16)
        b, _ = cfg.sample(stream, 16)
        canonical = [subspace(s.base, s.frame) for s in (realize(a, cfg), realize(b, cfg))]
        assert np.array_equal(cfg.distance(a, b), canonical_distance(*canonical))
        # a single subspace broadcast against a stack reads what it reads alone
        stack, single = realize(a, cfg), realize(b, cfg)[0]
        alone = [subspace_distance(stack[i], single) for i in range(16)]
        assert np.array_equal(subspace_distance(stack, single), alone)
        assert np.array_equal(subspace_distance(single, stack), alone)


def test_extension_element_json_roundtrip(cfg):
    loop = cfg
    e, _ = one(loop.sample(SampleStream(13), 1))
    back = extension_element_from_json(json.loads(json.dumps(e.to_json(cfg.form))), cfg.form)
    assert np.array_equal(back.w, e.w)
    assert np.array_equal(back.rho, e.rho)
