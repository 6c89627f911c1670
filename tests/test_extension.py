import json
import math

import numpy as np
import pytest

from bruckloops.errors import ConfigInvalid, NotInOrbit, TransversalityViolated
from bruckloops.extension import (
    ExtensionElement,
    coordinate_subspace,
    dimension_rank_report,
    expected_dimension,
    ext_loop_interface,
    ext_mul,
    extension_config,
    extension_element_from_json,
    lift_from_infinity,
    nonisomorphism_witness,
    omega,
    realize,
    solve_translation,
)
from bruckloops.geometry import apply, at_infinity, subspace, subspace_distance
from bruckloops.groups import SampleStream, SignatureForm, sample_sigma, standard_boost
from bruckloops.kernel import check_loop_axioms
from bruckloops.linalg import fro
from bruckloops.matrixloop import MatrixLoop
from conftest import rotation


@pytest.fixture
def cfg(form321r):
    return extension_config(form321r)


@pytest.fixture
def boosted_cfg(form321r):
    wt = apply(standard_boost(form321r, math.log(2)).matrix, coordinate_subspace(form321r, 2))
    return extension_config(form321r, wtilde=wt)


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
        import bruckloops.extension

        monkeypatch.setattr(bruckloops.extension, "sample_sigma", pytest.fail)
        wt = apply(standard_boost(form321r, 0.5).matrix, coordinate_subspace(form321r, 2))
        assert extension_config(form321r, wtilde=wt).wtilde.dim == 1

    def test_stored_base_is_exactly_zero(self, form321r):
        wt = subspace(np.full(3, 1e-12), np.array([[0.5], [0.0], [1.0]]))
        assert not np.any(extension_config(form321r, wtilde=wt).wtilde.base)

    def test_near_boundary_boost_accepted(self, form321r):
        # boost 3 gives ||C|| = tanh 3 = 0.995, just inside the boundary
        wt = apply(standard_boost(form321r, 3.0).matrix, coordinate_subspace(form321r, 2))
        loop = ext_loop_interface(extension_config(form321r, wtilde=wt))
        rep = check_loop_axioms(loop, SampleStream(3), 20)
        assert rep.passed, rep.max_residual


class TestRealize:
    def test_identity_element(self, cfg):
        assert subspace_distance(realize(cfg.identity_element(), cfg), cfg.carrier_subspace()) == 0.0

    def test_pure_translation(self, cfg):
        w = np.array([0.0, 0.0, 1.3])
        e = ExtensionElement(w, cfg.identity_element().rho)
        s = realize(e, cfg)
        expected = subspace(w, np.eye(3)[:, :2])
        assert subspace_distance(s, expected) <= 1e-12

    def test_pure_linear(self, cfg, form321r):
        rho, _ = sample_sigma(form321r, SampleStream(1))
        e = ExtensionElement(np.zeros(3), rho)
        expected = apply(rho.matrix, cfg.carrier_subspace())
        assert subspace_distance(realize(e, cfg), expected) <= 1e-12


class TestLift:
    def test_carrier_direction_gives_identity(self, cfg):
        z = at_infinity(cfg.carrier_subspace())
        assert fro(lift_from_infinity(z, cfg).matrix - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrip_uniqueness(self, field):
        form = SignatureForm(3, 2, 1, field)
        config = extension_config(form)
        stream = SampleStream(2)
        for _ in range(50):
            rho, stream = sample_sigma(form, stream)
            z = at_infinity(apply(rho.matrix, config.carrier_subspace()))
            lifted = lift_from_infinity(z, config)
            assert fro(lifted.matrix - rho.matrix) <= 1e-8

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
            rho, stream = sample_sigma(form, stream)
            z = at_infinity(apply(rho.matrix, config.carrier_subspace()))
            assert fro(lift_from_infinity(z, config).matrix - rho.matrix) <= 1e-8

    def test_one_eigendecomposition_and_no_svd_or_det(self, cfg, form321r, eig_calls, monkeypatch):
        rho, _ = sample_sigma(form321r, SampleStream(6))
        z = at_infinity(apply(rho.matrix, cfg.carrier_subspace()))
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
            rho, stream = sample_sigma(form, stream)
            z = at_infinity(apply(rho.matrix, config.carrier_subspace()))
            assert fro(lift_from_infinity(z, config).matrix - rho.matrix) <= 1e-8

    def test_determinant_correction_complex(self):
        form = SignatureForm(3, 2, 1, "complex")
        config = extension_config(form)
        stream = SampleStream(4)
        for _ in range(30):
            rho, stream = sample_sigma(form, stream)
            z = at_infinity(apply(rho.matrix, config.carrier_subspace()))
            assert fro(lift_from_infinity(z, config).matrix - rho.matrix) <= 1e-8


class TestOmega:
    def test_carrier_maps_to_identity(self, cfg):
        e = omega(cfg.carrier_subspace(), cfg)
        assert np.allclose(e.w, 0.0)
        assert fro(e.rho.matrix - np.eye(3)) <= 1e-12

    def test_roundtrip(self, cfg):
        loop = ext_loop_interface(cfg)
        stream = SampleStream(5)
        for _ in range(50):
            e, stream = loop.sample(stream)
            back = omega(realize(e, cfg), cfg)
            assert np.linalg.norm(back.w - e.w) <= 1e-8
            assert fro(back.rho.matrix - e.rho.matrix) <= 1e-8


class TestExtMul:
    def test_left_identity(self, cfg):
        loop = ext_loop_interface(cfg)
        e, _ = loop.sample(SampleStream(6))
        out = ext_mul(cfg.identity_element(), e, cfg)
        assert np.linalg.norm(out.w - e.w) <= 1e-12
        assert fro(out.rho.matrix - e.rho.matrix) <= 1e-12

    def test_right_identity(self, cfg):
        loop = ext_loop_interface(cfg)
        e, _ = loop.sample(SampleStream(7))
        out = ext_mul(e, cfg.identity_element(), cfg)
        assert np.linalg.norm(out.w - e.w) <= 1e-12
        assert fro(out.rho.matrix - e.rho.matrix) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_left_translation_oracle(self, field):
        # the product realizes to the image of the right factor under the
        # left factor's affinity: multiplication IS left translation
        form = SignatureForm(3, 2, 1, field)
        config = extension_config(form)
        loop = ext_loop_interface(config)
        stream = SampleStream(8)
        for _ in range(50):
            e1, stream = loop.sample(stream)
            e2, stream = loop.sample(stream)
            prod = ext_mul(e1, e2, config)
            oracle = apply(e1.rho.matrix, realize(e2, config), e1.w)
            assert subspace_distance(realize(prod, config), oracle) <= 1e-8

    def test_infinity_projection_matches_matrix_loop(self, cfg, form321r):
        mloop = MatrixLoop(form321r)
        loop = ext_loop_interface(cfg)
        stream = SampleStream(9)
        for _ in range(50):
            e1, stream = loop.sample(stream)
            e2, stream = loop.sample(stream)
            prod = ext_mul(e1, e2, cfg)
            assert fro(prod.rho.matrix - mloop.mul(e1.rho, e2.rho).matrix) <= 1e-9

    def test_one_eigendecomposition_and_no_det(self, cfg, eig_calls, monkeypatch):
        # the orbit map: one graph lift, and no polar factorization
        loop = ext_loop_interface(cfg)
        e1, stream = loop.sample(SampleStream(12))
        e2, _ = loop.sample(stream)
        eig_calls.clear()
        monkeypatch.setattr(np.linalg, "det", pytest.fail)
        ext_mul(e1, e2, cfg)
        assert len(eig_calls) == 1

    def test_no_svd_or_inv(self, boosted_cfg, monkeypatch):
        # left translations are positive isometries: the left division
        # inverts them as J A J, and nothing checks their rank
        loop = ext_loop_interface(boosted_cfg)
        e1, stream = loop.sample(SampleStream(15))
        e2, _ = loop.sample(stream)
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
        assert fro(rho.matrix - np.eye(3)) <= 1e-12

    def test_recovers_element_coordinates(self, cfg):
        loop = ext_loop_interface(cfg)
        e, _ = loop.sample(SampleStream(10))
        t, rho = solve_translation(cfg.carrier_subspace(), realize(e, cfg), cfg)
        assert np.linalg.norm(t - e.w) <= 1e-8
        assert fro(rho.matrix - e.rho.matrix) <= 1e-8

    def test_random_pairs(self, cfg):
        loop = ext_loop_interface(cfg)
        stream = SampleStream(11)
        for _ in range(50):
            e1, stream = loop.sample(stream)
            e2, stream = loop.sample(stream)
            d1, d2 = realize(e1, cfg), realize(e2, cfg)
            t, rho = solve_translation(d1, d2, cfg)
            assert subspace_distance(apply(rho.matrix, d1, t), d2) <= 1e-8

    def test_stability_under_representative_perturbation(self, cfg):
        loop = ext_loop_interface(cfg)
        stream = SampleStream(12)
        rng = np.random.default_rng(12)
        for _ in range(25):
            e1, stream = loop.sample(stream)
            e2, stream = loop.sample(stream)
            d1, d2 = realize(e1, cfg), realize(e2, cfg)
            t, rho = solve_translation(d1, d2, cfg)
            d1p = subspace(d1.base + 1e-10 * rng.uniform(-1, 1, 3),
                           d1.frame + 1e-10 * rng.uniform(-1, 1, d1.frame.shape))
            d2p = subspace(d2.base + 1e-10 * rng.uniform(-1, 1, 3),
                           d2.frame + 1e-10 * rng.uniform(-1, 1, d2.frame.shape))
            tp, rhop = solve_translation(d1p, d2p, cfg)
            assert np.linalg.norm(tp - t) + fro(rhop.matrix - rho.matrix) <= 1e-6


class TestExtLoop:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_axioms(self, field):
        form = SignatureForm(3, 2, 1, field)
        loop = ext_loop_interface(extension_config(form))
        rep = check_loop_axioms(loop, SampleStream(1), 100)
        assert rep.passed, rep.max_residual

    def test_axioms_boosted_transversal(self, boosted_cfg):
        loop = ext_loop_interface(boosted_cfg)
        rep = check_loop_axioms(loop, SampleStream(2), 100)
        assert rep.passed, rep.max_residual


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


class TestDimension:
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


def test_extension_element_json_roundtrip(cfg):
    loop = ext_loop_interface(cfg)
    e, _ = loop.sample(SampleStream(13))
    back = extension_element_from_json(json.loads(json.dumps(e.to_json())))
    assert np.array_equal(back.w, e.w)
    assert np.array_equal(back.rho.matrix, e.rho.matrix)
