import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruckloops.errors import DimensionMismatch, RankDeficient, TransversalityViolated
from bruckloops.geometry import (
    apply,
    at_infinity,
    canonical,
    from_json,
    projector,
    subspace,
    subspace_distance,
    transversality_check,
)
from bruckloops.groups import SampleStream, sample_sigma, standard_boost
from conftest import boost3, rotation

E3 = np.eye(3)


def line(base, direction):
    return subspace(np.asarray(base, dtype=float), np.asarray(direction, dtype=float).reshape(3, 1))


class TestCanonical:
    def test_base_is_minimum_norm(self):
        s = subspace(np.array([2.0, 3.0, 4.0]), E3[:, :2])
        assert np.allclose(s.base, [0.0, 0.0, 4.0])
        assert abs(np.linalg.norm(s.base) - 4.0) <= 1e-12

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = subspace(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, (3, 2)))
            c = canonical(s)
            assert np.array_equal(c.base, s.base)
            assert np.array_equal(c.frame, s.frame)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    def test_idempotent_hypothesis(self, entries):
        data = np.array(entries).reshape(3, 3)
        sv = np.linalg.svd(data[:, :2], compute_uv=False)
        assume(sv.size == 2 and sv[-1] > 1e-3)
        s = subspace(data[:, 2], data[:, :2])
        c = canonical(s)
        assert np.array_equal(c.base, s.base) and np.array_equal(c.frame, s.frame)

    def test_idempotent_when_frame_is_off_orthonormal_by_the_snap(self):
        # The two columns have inner product exactly 1e-13, so Gram-Schmidt
        # skips that projection; a single base projection would leave a
        # 2e-13 component for canonical() to remove.
        directions = np.array([[1.0, 0.0], [0.0, 0.0], [1e-13, 1.0]])
        s = subspace(np.array([2.0, 0.0, 0.0]), directions)
        c = canonical(s)
        assert np.array_equal(c.base, s.base) and np.array_equal(c.frame, s.frame)


class TestAtInfinity:
    def test_plane_through_origin(self):
        s = subspace(np.zeros(3), E3[:, :2])
        assert np.allclose(projector(at_infinity(s), 3), np.diag([1.0, 1.0, 0.0]))

    def test_translation_invariance(self):
        a = subspace(np.zeros(3), E3[:, :2])
        b = subspace(E3[:, 2], E3[:, :2])
        pa = projector(at_infinity(a), 3)
        pb = projector(at_infinity(b), 3)
        assert np.array_equal(pa, pb)

    def test_boost_image_direction(self):
        t = 0.8
        img = apply(boost3(t), subspace(np.zeros(3), E3[:, :2]))
        c, s = np.cosh(t), np.sinh(t)
        v = np.array([0.0, c, s]) / math.hypot(c, s)
        expected = np.outer(E3[:, 0], E3[:, 0]) + np.outer(v, v)
        assert np.max(np.abs(projector(at_infinity(img), 3) - expected)) <= 1e-12


class TestJoin:
    def test_axis_through_origin(self):
        s = subspace(np.zeros(3), at_infinity(line([0, 0, 0], E3[:, 0])))
        assert s.dim == 1 and np.allclose(projector(s.frame, 3), np.diag([1.0, 0.0, 0.0]))

    def test_roundtrip_direction(self):
        z = at_infinity(subspace(np.zeros(3), E3[:, 1:]))
        s = subspace(np.array([1.0, 0.0, 0.0]), z)
        assert np.allclose(projector(at_infinity(s), 3), projector(z, 3))


class TestSubspaceDistance:
    def test_zero_on_equal(self):
        s = subspace(np.array([1.0, 2.0, 3.0]), E3[:, :2])
        assert subspace_distance(s, s) == 0.0

    def test_axes_projector_gap(self):
        d = subspace_distance(line([0, 0, 0], E3[:, 0]), line([0, 0, 0], E3[:, 1]))
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_parallel_normal_gap(self):
        d = subspace_distance(line([0, 0, 0], E3[:, 0]), line([0, 1, 0], E3[:, 0]))
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s1 = subspace(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 2)))
            s2 = subspace(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 2)))
            assert subspace_distance(s1, s2) == subspace_distance(s2, s1)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tri = [subspace(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 2))) for _ in range(3)]
            d02 = subspace_distance(tri[0], tri[2])
            d01 = subspace_distance(tri[0], tri[1])
            d12 = subspace_distance(tri[1], tri[2])
            assert d02 <= d01 + d12 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_distance(line([0, 0, 0], E3[:, 0]), subspace(np.zeros(3), E3[:, :2]))


class TestApply:
    def test_identity_affinity(self):
        s = subspace(np.array([0.5, 0.0, 1.0]), E3[:, :2])
        out = apply(np.eye(3), s, np.zeros(3))
        assert subspace_distance(out, s) <= 1e-15

    def test_translation_keeps_direction(self):
        s = subspace(np.zeros(3), E3[:, :2])
        out = apply(np.eye(3), s, np.array([0.0, 0.0, 2.0]))
        assert np.array_equal(
            projector(at_infinity(out), 3), projector(at_infinity(s), 3)
        )

    def test_composition_law(self, form321r):
        rng = np.random.default_rng(5)
        g, gt = boost3(0.4), rng.uniform(-1, 1, 3)
        h, ht = rotation(3, 0, 1, 0.3), rng.uniform(-1, 1, 3)
        s = subspace(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 2)))
        composed = apply(g @ h, s, g @ ht + gt)
        assert subspace_distance(apply(g, apply(h, s, ht), gt), composed) <= 1e-12

    def test_inverse_roundtrip(self):
        g, gt = boost3(0.3), np.array([1.0, -2.0, 0.5])
        s = subspace(np.array([0.2, 0.4, -0.6]), E3[:, :2])
        ginv = np.linalg.inv(g)
        assert subspace_distance(apply(ginv, apply(g, s, gt), -(ginv @ gt)), s) <= 1e-12

    def test_collapsing_map_refused(self):
        # the projection onto the first axis sends the plane's two
        # directions to one line
        s = subspace(np.array([0.0, 0.0, 1.0]), E3[:, :2])
        with pytest.raises(RankDeficient):
            apply(np.diag([1.0, 0.0, 0.0]), s)


class TestTransversality:
    def test_identity_sample(self, form321r):
        w2 = subspace(np.zeros(3), E3[:, 2:])
        w1 = subspace(np.zeros(3), E3[:, :2])
        rep = transversality_check(w2, [np.eye(3)], w1)
        assert rep.samples == 1

    def test_boosted_transversal_200_samples(self, form321r):
        w1 = subspace(np.zeros(3), E3[:, :2])
        wt = apply(standard_boost(form321r, math.log(2)).matrix, subspace(np.zeros(3), E3[:, 2:]))
        stream = SampleStream(7)
        rhos = []
        for _ in range(200):
            rho, stream = sample_sigma(form321r, stream)
            rhos.append(rho)
        rep = transversality_check(wt, rhos, w1)
        assert rep.samples == 200 and rep.worst_margin > 0.0

    def test_wrong_dimension_rejected(self, form321r):
        w1 = subspace(np.zeros(3), E3[:, :2])
        with pytest.raises(DimensionMismatch):
            transversality_check(w1, [np.eye(3)], w1)

    def test_one_svd_per_sample(self, form321r, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        w1 = subspace(np.zeros(3), E3[:, :2])
        w2 = subspace(np.zeros(3), E3[:, 2:])
        rhos = [standard_boost(form321r, t) for t in (0.0, 0.5, 1.0, 1.5)]
        rep = transversality_check(w2, rhos, w1)
        assert rep.samples == 4 and calls == [False] * 4

    def test_violation_detected(self, form321r):
        inside = subspace(np.zeros(3), E3[:, :1])  # lies inside the carrier plane
        w1 = subspace(np.zeros(3), E3[:, :2])
        with pytest.raises(TransversalityViolated):
            transversality_check(inside, [np.eye(3)], w1)


def test_subspace_json_roundtrip():
    s = subspace(np.array([0.0, 0.0, 2.0]), E3[:, :2])
    back = from_json(json.loads(json.dumps(s.to_json())), "real")
    assert subspace_distance(back, s) <= 1e-15
    zc = subspace(np.zeros(3, dtype=complex), np.eye(3, dtype=complex)[:, 1:])
    back = from_json(json.loads(json.dumps(zc.to_json())), "complex")
    assert subspace_distance(back, zc) <= 1e-15
