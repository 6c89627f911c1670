import json
import math
import tracemalloc

import numpy as np
import pytest

from bruckloops import extension as ext
from bruckloops.cli import SuiteConfig, build_wtilde, main
from bruckloops.errors import ConfigInvalid, NotInOrbit, TransversalityViolated
from bruckloops.extension import (
    DimensionReport,
    ExtensionConfig,
    ExtensionElement,
    WitnessReport,
    coordinate_subspace,
    dimension_rank_report,
    expected_dimension,
    extension_config,
    extension_element_from_json,
    lift_from_infinity,
    nonisomorphism_witness,
    omega,
    realize,
    solve_translation,
)
from bruckloops.geometry import (
    AffineSubspace,
    apply,
    subspace,
    subspace_distance,
)
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    membership_residual,
    standard_boost,
)
from bruckloops.kernel import check_loop_axioms, run
from bruckloops.linalg import SpectralDecomposition, fro, matrix_to_json, orthonormalize
from bruckloops.matrixloop import MatrixLoop
from bruckloops.suite import PROPERTIES
from conftest import one, rotation
from reference import ball_chart_jacobians, canonical_distance, check_drawn, draw, uniforms


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

    def test_no_sampling(self, form321r, no_draw):
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
        rho, _ = one(draw(form321r, SampleStream(1), 1))
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
            rho, stream = one(draw(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            lifted = lift_from_infinity(z, config)
            assert fro(lifted - rho) <= 1e-8

    def test_negative_direction_not_in_orbit(self, cfg):
        with pytest.raises(NotInOrbit):
            lift_from_infinity(np.eye(3)[:, [0, 2]], cfg)

    def test_non_contraction_not_in_orbit(self, cfg):
        # invertible top block, but the graph block X* = [0, 2] has norm 2:
        # the form is indefinite on it, so no frame of it is isometric
        with pytest.raises(NotInOrbit):
            cfg.coordinates(AffineSubspace(np.zeros(3), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])))

    @pytest.mark.parametrize("carrier", [1, 2])
    def test_roundtrip_532_complex(self, carrier):
        form = SignatureForm(5, 3, 2, "complex")
        config = extension_config(form, carrier=carrier)
        stream = SampleStream(5)
        for _ in range(30):
            rho, stream = one(draw(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            assert fro(lift_from_infinity(z, config) - rho) <= 1e-8

    def test_one_eigendecomposition_and_no_svd_or_det(self, cfg, form321r, eig_calls, monkeypatch):
        rho, _ = one(draw(form321r, SampleStream(6), 1))
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
            rho, stream = one(draw(form, stream, 1))
            z = apply(rho, config.carrier_subspace()).frame
            assert fro(lift_from_infinity(z, config) - rho) <= 1e-8

    def test_determinant_correction_complex(self):
        form = SignatureForm(3, 2, 1, "complex")
        config = extension_config(form)
        stream = SampleStream(4)
        for _ in range(30):
            rho, stream = one(draw(form, stream, 1))
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
            e, stream = one(draw(loop, stream, 1))
            back = omega(realize(e, cfg), cfg)
            assert np.linalg.norm(back.w - e.w) <= 1e-8
            assert fro(back.rho - e.rho) <= 1e-8


class TestExtMul:
    def test_left_identity(self, cfg):
        loop = cfg
        e, _ = one(draw(loop, SampleStream(6), 1))
        out = cfg.mul(cfg.identity, e)
        assert np.linalg.norm(out.w - e.w) <= 1e-12
        assert fro(out.rho - e.rho) <= 1e-12

    def test_right_identity(self, cfg):
        loop = cfg
        e, _ = one(draw(loop, SampleStream(7), 1))
        out = cfg.mul(e, cfg.identity)
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
            e1, stream = one(draw(loop, stream, 1))
            e2, stream = one(draw(loop, stream, 1))
            prod = config.mul(e1, e2)
            oracle = apply(e1.rho, realize(e2, config), e1.w)
            assert subspace_distance(realize(prod, config), oracle) <= 1e-8

    def test_infinity_projection_matches_matrix_loop(self, cfg, form321r):
        mloop = MatrixLoop(form321r)
        loop = cfg
        stream = SampleStream(9)
        for _ in range(50):
            e1, stream = one(draw(loop, stream, 1))
            e2, stream = one(draw(loop, stream, 1))
            prod = cfg.mul(e1, e2)
            assert fro(prod.rho - mloop.mul(e1.rho, e2.rho)) <= 1e-9

    @pytest.mark.parametrize("signature, field, carrier, wtilde", [
        ((3, 2, 1), "real", 1, "standard"), ((4, 3, 1), "real", 2, "standard"),
        ((4, 2, 2), "real", 2, "boost:0.6931471805599453"), ((5, 3, 2), "complex", 2, "boost:0.5"),
        ((5, 3, 2), "complex", 1, "standard"),
    ])
    def test_infinity_compat_compares_two_computations(self, signature, field, carrier, wtilde):
        # the row's two sides lift the carrier columns of rho1 rho2 and the
        # columns of the complementary block, each with its own solve and Gram
        # matrix: they agree to rounding, and differ in it on some sample.
        # Sides that shared their arithmetic would read exactly 0 everywhere
        form = SignatureForm(*signature, field)
        loop = extension_config(form, carrier, build_wtilde(form, carrier, wtilde))
        row = next(row for row in PROPERTIES if row.key == "ext_infinity_compat")
        e, stream = draw(loop, SampleStream(17), 32)
        f, _ = draw(loop, stream, 32)
        (residuals,), _ = run(row.steps(loop, e.w, e.rho, f.w, f.rho))
        assert np.max(residuals) <= 1e-13
        assert np.count_nonzero(residuals) > 0

    def test_one_eigendecomposition_and_no_det(self, cfg, eig_calls, monkeypatch):
        # the orbit map: one graph lift, and no polar factorization
        loop = cfg
        e1, stream = one(draw(loop, SampleStream(12), 1))
        e2, _ = one(draw(loop, stream, 1))
        eig_calls.clear()
        monkeypatch.setattr(np.linalg, "det", pytest.fail)
        cfg.mul(e1, e2)
        assert len(eig_calls) == 1

    def test_no_svd_or_inv(self, boosted_cfg, monkeypatch):
        # left translations are positive isometries: the left division
        # inverts them as J A J, and nothing checks their rank
        loop = boosted_cfg
        e1, stream = one(draw(loop, SampleStream(15), 1))
        e2, _ = one(draw(loop, stream, 1))
        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, pytest.fail)
        boosted_cfg.mul(e1, e2)
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
        e, _ = one(draw(loop, SampleStream(10), 1))
        t, rho = solve_translation(cfg.carrier_subspace(), realize(e, cfg), cfg)
        assert np.linalg.norm(t - e.w) <= 1e-8
        assert fro(rho - e.rho) <= 1e-8

    def test_random_pairs(self, cfg):
        loop = cfg
        stream = SampleStream(11)
        for _ in range(50):
            e1, stream = one(draw(loop, stream, 1))
            e2, stream = one(draw(loop, stream, 1))
            d1, d2 = realize(e1, cfg), realize(e2, cfg)
            t, rho = solve_translation(d1, d2, cfg)
            assert subspace_distance(apply(rho, d1, t), d2) <= 1e-8

    def test_stability_under_representative_perturbation(self, cfg):
        loop = cfg
        stream = SampleStream(12)
        rng = np.random.default_rng(12)
        for _ in range(25):
            e1, stream = one(draw(loop, stream, 1))
            e2, stream = one(draw(loop, stream, 1))
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

    def test_constructed(self, boosted_cfg):
        report = nonisomorphism_witness(boosted_cfg)
        assert report.displacement > 1e-3

    @pytest.mark.parametrize("wtilde", ["boost:0.5", "file"])
    def test_one_witness_makes_one_qr_call(self, monkeypatch, tmp_path, capsys, wtilde):
        # the transversal's canonicalization; both distances read canonical
        # forms as given
        if wtilde == "file":
            path = tmp_path / "wt.json"
            path.write_text(json.dumps({"base": [0, 0, 0], "frame": [[0.25], [0], [1]]}))
            wtilde = f"file:{path}"
        qr = []
        for module in ("bruckloops.linalg", "bruckloops.geometry"):
            monkeypatch.setattr(f"{module}.orthonormalize", lambda v: qr.append(v.shape) or orthonormalize(v))
        assert main(["witness", "--wtilde", wtilde]) == 0
        assert qr == [(3, 1)]
        assert json.loads(capsys.readouterr().out)["displacement"] > ext.WITNESS_THRESHOLD


def _assert_witness(cfg):
    """The constructed witness is a block-diagonal unitary of determinant 1
    whose displacement of the transversal is the one reported, and clears
    the threshold with room."""
    form, report = cfg.form, nonisomorphism_witness(cfg)
    g, p1 = report.element, form.p1
    assert g.dtype == form.dtype
    assert not g[:p1, p1:].any() and not g[p1:, :p1].any()
    assert np.array_equal(g[p1:, p1:], np.eye(form.p2))
    assert fro(g @ g.conj().T - np.eye(form.n)) <= 1e-12
    assert abs(np.linalg.det(g) - 1.0) <= 1e-12
    # read off the canonical forms as given, it is the QR route's distance to rounding
    qr_route = subspace_distance(apply(g, cfg.wtilde), cfg.wtilde)
    assert abs(report.displacement - qr_route) <= 1e-14 * qr_route
    assert report.displacement > 2.8 * ext.WITNESS_THRESHOLD


WITNESS_FORMS = [(n, p1, n - p1) for n in range(3, 7) for p1 in range(n - 1, (n - 1) // 2, -1)]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n, p1, p2", WITNESS_FORMS)
def test_constructed_witness_on_boosted_transversals(n, p1, p2, field):
    form = SignatureForm(n, p1, p2, field)
    for carrier in (1, 2):
        for t in (1e-3, 0.1, 1.0, 8.0):
            cfg = extension_config(form, carrier, build_wtilde(form, carrier, f"boost:{t!r}"))
            _assert_witness(cfg)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("carrier", [1, 2])
@pytest.mark.parametrize("n, p1, p2", [(3, 2, 1), (4, 2, 2), (5, 3, 2), (6, 3, 3)])
def test_constructed_witness_on_file_transversals(tmp_path, n, p1, p2, field, carrier):
    # the graph of a random block L of norm from 1e-2 to 0.9, spanned by a
    # frame mixed by a random invertible matrix, read from a file
    form = SignatureForm(n, p1, p2, field)
    rng = np.random.default_rng(100 * n + 10 * p1 + carrier)
    k = p2 if carrier == 1 else p1
    for size in (1e-2, 0.3, 0.9):
        shape = (p1, p2) if carrier == 1 else (p2, p1)
        block = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if field == "complex" else 0)
        block *= size / np.linalg.norm(block, 2)
        graph = np.vstack([block, np.eye(p2)]) if carrier == 1 else np.vstack([np.eye(p1), block])
        frame = graph @ (rng.standard_normal((k, k)) + 2 * np.eye(k))
        path = tmp_path / "wt.json"
        base = matrix_to_json(np.zeros((1, n), dtype=form.dtype))[0]
        path.write_text(json.dumps({"base": base, "frame": matrix_to_json(frame)}))
        _assert_witness(extension_config(form, carrier, build_wtilde(form, carrier, f"file:{path}")))


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


# n = 3..7, every p2, both fields and carriers, standard and boosted transversals
CHART_CONFIGS = [
    ((n, n - p2, p2, field), carrier, wtilde)
    for n in range(3, 8)
    for p2 in range(1, n // 2 + 1)
    for field in ("real", "complex")
    for carrier in (1, 2)
    for wtilde in ("standard", f"boost:{math.log(2)!r}", "boost:3")
]


def dimension_config(signature, carrier, wtilde):
    form = SignatureForm(*signature)
    return extension_config(form, carrier, build_wtilde(form, carrier, wtilde))


class TestDimension:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_exact_tangents_match_the_qr_oracle_and_its_report(self, monkeypatch, signature, carrier, wtilde, seed):
        # the exact tangents lie within 1e-9 of the oracle's central
        # differences (7.3e-11 at worst measured), and the oracle's
        # Jacobians give every rank and the gap fraction
        cfg = dimension_config(signature, carrier, wtilde)
        report = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        exact = ext._chart_jacobians
        checked = []

        def oracle(config, thetas):
            ref = ball_chart_jacobians(config, thetas)
            assert np.max(np.abs(exact(config, thetas) - ref)) <= 1e-9
            checked.append(thetas.shape)
            return ref

        monkeypatch.setattr(ext, "_chart_jacobians", oracle)
        ref_report = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        assert checked == [(20, expected_dimension(cfg))]
        assert report.rank == ref_report.rank == expected_dimension(cfg)
        assert report.ranks == ref_report.ranks
        assert report.gap_fraction == ref_report.gap_fraction

    @pytest.mark.parametrize("carrier", [1, 2])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_exact_tangents_at_n_20_match_the_qr_oracle(self, field, carrier):
        cfg = extension_config(SignatureForm(20, 10, 10, field), carrier)
        d = expected_dimension(cfg)
        thetas = uniforms(SampleStream(5), d, -0.4, 0.4)[0].reshape(1, d)
        got, want = ext._chart_jacobians(cfg, thetas), ball_chart_jacobians(cfg, thetas)
        assert got.shape == want.shape == (1, 420 * (2 if field == "complex" else 1), d)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("signature, points, rank", [((20, 10, 10, "complex"), 3, 220), ((16, 8, 8, "real"), 2, 72)])
    def test_each_point_at_scale_has_the_expected_rank_and_its_gap(self, signature, points, rank):
        cfg = extension_config(SignatureForm(*signature))
        report = dimension_rank_report(cfg, points=points, stream=SampleStream(1))
        assert rank == expected_dimension(cfg)
        assert report == DimensionReport(rank, (rank,) * points, 1.0, points)

    def test_a_pass_holds_about_its_point_bytes(self):
        # two points of (20,10,10) complex: each point's 220 tangents and its
        # outer-product stacks A and B are 4.0 MB, and the pass peaks near
        # 8.5 MB; the central differences' pass peaked near 13 MB
        cfg = extension_config(SignatureForm(20, 10, 10, "complex"))
        thetas = uniforms(SampleStream(5), 2 * expected_dimension(cfg), -0.4, 0.4)[0].reshape(2, -1)
        tracemalloc.start()
        try:
            ext._rank_fold(ext._singular_values(ext._chart_jacobians(cfg, thetas)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 2 * ext._point_bytes(cfg) < 13_000_000, peak

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_no_eigendecomposition_for_any_point(self, eig_calls, field):
        cfg = extension_config(SignatureForm(3, 2, 1, field))
        eig_calls.clear()
        dimension_rank_report(cfg, points=5, stream=SampleStream(1))
        assert eig_calls == []

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_passes_bounded_in_bytes_keep_the_bits(self, monkeypatch, field):
        # three points a pass: 3 + 3 + 1 points, each pass's Jacobians the
        # bits of its points' in the whole stack, one solve call a pass, and
        # the same report; a point larger than the bound is a pass alone
        cfg = extension_config(SignatureForm(4, 2, 2, field))
        d = expected_dimension(cfg)
        thetas = uniforms(SampleStream(3), 7 * d, -0.4, 0.4)[0].reshape(7, d)
        whole = ext._chart_jacobians(cfg, thetas)
        report = dimension_rank_report(cfg, points=7, stream=SampleStream(3))
        real, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or real(a, b))
        for bound, sizes in ((3 * ext._point_bytes(cfg), [3, 3, 1]), (1, [1] * 7)):
            monkeypatch.setattr(ext, "PASS_BYTES", bound)
            cuts = ext.passes(7, ext._point_bytes(cfg))
            assert [cut.stop - cut.start for cut in cuts] == sizes
            jacobians = np.concatenate([ext._chart_jacobians(cfg, thetas[cut]) for cut in cuts])
            assert jacobians.tobytes() == whole.tobytes()
            solves.clear()
            assert dimension_rank_report(cfg, points=7, stream=SampleStream(3)) == report
            assert solves == sizes

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_spectral_call_takes_one_pass(self, monkeypatch, field):
        # with the bound at three points, the check takes 3 + 3 + 1 points'
        # Gram matrices to three eigvalsh calls, whose eigenvalues are the
        # bits of one call on all seven
        cfg = extension_config(SignatureForm(4, 2, 2, field))
        d = expected_dimension(cfg)
        thetas = uniforms(SampleStream(3), 7 * d, -0.4, 0.4)[0].reshape(7, d)
        jac = ext._chart_jacobians(cfg, thetas)
        whole = np.linalg.eigvalsh(jac.swapaxes(-1, -2) @ jac)
        real, calls = np.linalg.eigvalsh, []

        def recording(a, *args, **kwargs):
            calls.append(real(a, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        monkeypatch.setattr(ext, "PASS_BYTES", 3 * ext._point_bytes(cfg))
        dimension_rank_report(cfg, points=7, stream=SampleStream(3))
        assert [len(values) for values in calls] == [3, 3, 1]
        assert np.concatenate(calls).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("signature, carrier, wtilde", CHART_CONFIGS)
    def test_exact_tangents_match_the_qr_oracle_at_the_box_corners(self, signature, carrier, wtilde):
        # the centre, the all -0.4 and all +0.4 corners, where ||Z|| is
        # largest, and one drawn point
        cfg = dimension_config(signature, carrier, wtilde)
        d = expected_dimension(cfg)
        thetas = np.stack([np.zeros(d), np.full(d, -0.4), np.full(d, 0.4), uniforms(SampleStream(11), d, -0.4, 0.4)[0]])
        assert np.max(np.abs(ext._chart_jacobians(cfg, thetas) - ball_chart_jacobians(cfg, thetas))) <= 1e-9

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("signature, carrier, wtilde", CHART_CONFIGS)
    def test_gram_route_gives_the_svd_report(self, monkeypatch, signature, carrier, wtilde, seed):
        cfg = dimension_config(signature, carrier, wtilde)
        report = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        monkeypatch.setattr(ext, "_singular_values", lambda jac: np.linalg.svd(jac, compute_uv=False))
        oracle = dimension_rank_report(cfg, points=20, stream=SampleStream(seed))
        assert (report.rank, report.ranks, report.gap_fraction) == (oracle.rank, oracle.ranks, oracle.gap_fraction)

    @pytest.mark.parametrize("where", [(7, 0, 0), (0, 0, 2)])
    def test_a_chart_breakdown_fails_the_dimension_entry(self, tmp_path, monkeypatch, where):
        # a non-finite tangent, of the projector or of the base, is refused
        # before the spectral call: the dimension entry reports the error
        # and no rank
        real = ext._chart_jacobians

        def broken(cfg, thetas):
            jac = real(cfg, thetas).copy()
            jac[where] = np.nan if where[0] else np.inf
            return jac

        monkeypatch.setattr(ext, "_chart_jacobians", broken)
        out = tmp_path / "report.json"
        assert main(["verify", "--samples", "2", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        dim = report["dimension"]
        assert "Jacobian has non-finite entries" in dim["error"] and dim["pass"] is False and report["pass"] is False
        assert dim["measured"] is None and "ranks" not in dim and "gap_fraction" in dim
        assert all(entry["pass"] for entry in report["properties"] if entry["required"])

    def test_real_321(self, cfg):
        report = dimension_rank_report(cfg, points=10, stream=SampleStream(1))
        assert report.rank == 3 == expected_dimension(cfg)
        assert report.gap_fraction >= 0.9

    def test_complex_321(self):
        config = extension_config(SignatureForm(3, 2, 1, "complex"))
        report = dimension_rank_report(config, points=6, stream=SampleStream(1))
        assert report.rank == 6 == expected_dimension(config)

    def test_check_returns_int(self, cfg):
        assert dimension_rank_report(cfg, points=4, stream=SampleStream(1)).rank == 3


class TestOnCoordinates:
    """The loop operations run on (w, rho) and on raw images of carrier
    spans: right division is one matrix-loop division, and no operation
    builds a canonical subspace."""

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_one_eigendecomposition_per_operation(self, eig_calls, signature, carrier, wtilde):
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = one(draw(cfg, SampleStream(21), 1))
        c, _ = one(draw(cfg, stream, 1))
        for op in (cfg.mul, cfg.left_divide, cfg.right_divide):
            eig_calls.clear()
            op(a, c)
            assert len(eig_calls) == 1, op.__name__

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_no_canonical_subspace_on_the_hot_path(self, monkeypatch, signature, carrier, wtilde):
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = one(draw(cfg, SampleStream(22), 1))
        c, _ = one(draw(cfg, stream, 1))
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
    def test_coordinates_of_any_representative(self, signature, carrier, wtilde):
        # (w + F c, F M) spans the same subspace as realize(e) for any c and
        # invertible M; ||M - I|| <= 0.2 sqrt(2) k < 1 keeps M invertible.
        # coordinates makes F M isometric, and omega lifts it as it lifts
        # the isometric carrier columns F themselves
        cfg = dimension_config(signature, carrier, wtilde)
        rng = np.random.default_rng(23)
        k = cfg.carrier_dim
        complex_field = cfg.form.field == "complex"
        stream = SampleStream(23)
        for _ in range(10):
            e, stream = one(draw(cfg, stream, 1))
            noise = rng.uniform(-1, 1, (2, k + 1, k))
            shift = (noise[0] + 1j * noise[1] if complex_field else noise[0]).astype(cfg.form.dtype)
            f = ext._block_columns(e.rho, cfg.form, cfg.carrier)
            rep = AffineSubspace(e.w + f @ shift[k], f @ (np.eye(k) + 0.2 * shift[:k]))
            got, want = cfg.coordinates(rep), omega(realize(e, cfg), cfg)
            assert np.linalg.norm(got.w - want.w) <= 1e-12
            assert fro(got.rho - want.rho) <= 1e-12

    @pytest.mark.parametrize("signature, carrier, wtilde", DIMENSION_CONFIGS)
    def test_distance_is_the_distance_of_the_canonical_realizations(self, signature, carrier, wtilde):
        # distance hands the raw realizations to subspace_distance, which
        # canonicalizes each once: the judge reads what it read on canonical
        # realizations, bit for bit
        cfg = dimension_config(signature, carrier, wtilde)
        a, stream = draw(cfg, SampleStream(24), 16)
        b, _ = draw(cfg, stream, 16)
        canonical = [subspace(s.base, s.frame) for s in (realize(a, cfg), realize(b, cfg))]
        assert np.array_equal(cfg.distance(a, b), canonical_distance(*canonical))
        # a single subspace broadcast against a stack reads what it reads alone
        stack, single = realize(a, cfg), realize(b, cfg)[0]
        alone = [subspace_distance(stack[i], single) for i in range(16)]
        assert np.array_equal(subspace_distance(stack, single), alone)
        assert np.array_equal(subspace_distance(single, stack), alone)


def test_extension_element_json_roundtrip(cfg):
    loop = cfg
    e, _ = one(draw(loop, SampleStream(13), 1))
    back = extension_element_from_json(json.loads(json.dumps(e.to_json(cfg.form))), cfg.form)
    assert np.array_equal(back.w, e.w)
    assert np.array_equal(back.rho, e.rho)


@pytest.mark.parametrize("cls", [ExtensionElement, AffineSubspace, SpectralDecomposition])
def test_value_types_are_immutable_and_compared_by_identity(cls):
    fields = cls.__slots__
    value, twin = (cls(np.zeros(3), np.eye(3)) for _ in range(2))
    assert not hasattr(value, "__dict__")
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, np.ones(3))
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert np.array_equal(getattr(value, fields[0]), np.zeros(3)) and getattr(value, fields[1]).shape == (3, 3)
    assert value == value and value != twin
    assert hash(value) == object.__hash__(value) and len({value, twin, value}) == 2


# One value of each immutable type that is not built from two arrays.
IMMUTABLE = {
    "SignatureForm": lambda: SignatureForm(3, 2, 1),
    "SampleStream": lambda: SampleStream(5, 2),
    "MembershipReport": lambda: membership_residual(np.eye(3), SignatureForm(3, 2, 1)),
    "WitnessReport": lambda: WitnessReport(np.eye(3), 0.5),
    "DimensionReport": lambda: DimensionReport(3, (3, 3), 1.0, 2),
    "Property": lambda: PROPERTIES[0],
    "MatrixLoop": lambda: MatrixLoop(SignatureForm(3, 2, 1)),
    "ExtensionConfig": lambda: extension_config(SignatureForm(3, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_value_types_refuse_assignment(name):
    value = IMMUTABLE[name]()
    fields = getattr(value, "_fields", None) or type(value).__slots__
    assert not hasattr(value, "__dict__")
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_forms_and_streams_are_equal_and_hash_by_value():
    form, twin = SignatureForm(3, 2, 1), SignatureForm(3, 2, 1, "real")
    assert form is not twin and form == twin and hash(form) == hash(twin)
    assert twin.j_matrix() is form.j_matrix() and twin.signs() is form.signs() and twin.eye() is form.eye()
    assert form != SignatureForm(3, 2, 1, "complex")
    assert SampleStream(5) == SampleStream(5, 0) and hash(SampleStream(5)) == hash(SampleStream(5, 0))
    assert SampleStream(5).split(3) == SampleStream(5, 3) != SampleStream(6, 3)


def test_loops_compare_matrix_loops_by_form_and_configs_by_identity():
    form = SignatureForm(3, 2, 1)
    loop, twin = MatrixLoop(form), MatrixLoop(SignatureForm(3, 2, 1))
    assert loop == twin and hash(loop) == hash(twin)
    assert MatrixLoop(form) != MatrixLoop(SignatureForm(3, 2, 1, "complex"))
    cfg, twin = extension_config(form), extension_config(form)
    assert cfg == cfg and cfg != twin and hash(cfg) == object.__hash__(cfg)
    assert isinstance(cfg, ExtensionConfig) and cfg.mat == MatrixLoop(form) and cfg.mat is cfg.mat


@pytest.mark.parametrize("args, message", [
    ((3, 2, 1, "quaternion"), "unknown field 'quaternion'"),
    ((4, 2, 1), "p1 + p2 = 3 != n = 4"),
    ((3, 1, 2), "need p1 >= p2 >= 1, got (1, 2)"),
    ((2, 1, 1), "need n >= 3, got 2"),
])
def test_signature_form_validation_and_repr(args, message):
    with pytest.raises(ConfigInvalid) as err:
        SignatureForm(*args)
    assert str(err.value) == message
    assert repr(SignatureForm(3, 2, 1)) == "SignatureForm(n=3, p1=2, p2=1, field='real')"


def test_suite_configs_hold_samples_of_their_own():
    first, second = SuiteConfig(), SuiteConfig()
    first.samples["bol"] = 1
    assert first.samples is not second.samples and second.samples == SuiteConfig().samples != first.samples
