import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruckloops.errors import DimensionMismatch, RankDeficient, TransversalityViolated
from bruckloops.geometry import (
    AffineSubspace,
    apply,
    from_json,
    projector,
    subspace,
    subspace_distance,
    transversality_check,
)
from bruckloops.groups import SampleStream, standard_boost
from bruckloops.linalg import fro, matrix_to_json, orthonormalize
from conftest import boost3, rotation
from reference import draw

E3 = np.eye(3)


def line(base, direction):
    return subspace(np.asarray(base, dtype=float), np.asarray(direction, dtype=float).reshape(3, 1))


class TestCanonical:
    def test_base_is_minimum_norm(self):
        s = subspace(np.array([2.0, 3.0, 4.0]), E3[:, :2])
        assert np.allclose(s.base, [0.0, 0.0, 4.0])
        assert abs(np.linalg.norm(s.base) - 4.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    def test_orthonormal_frame_and_normal_base_hypothesis(self, entries):
        data = np.array(entries).reshape(3, 3)
        sv = np.linalg.svd(data[:, :2], compute_uv=False)
        assume(sv.size == 2 and sv[-1] > 1e-3)
        s = subspace(data[:, 2], data[:, :2])
        assert fro(s.frame.T @ s.frame - np.eye(2)) <= 1e-14
        assert np.linalg.norm(s.frame.T @ s.base) <= 1e-13 * max(1.0, np.linalg.norm(s.base))


class TestAtInfinity:
    def test_plane_through_origin(self):
        s = subspace(np.zeros(3), E3[:, :2])
        assert np.allclose(projector(s.frame), np.diag([1.0, 1.0, 0.0]))

    def test_translation_invariance(self):
        a = subspace(np.zeros(3), E3[:, :2])
        b = subspace(E3[:, 2], E3[:, :2])
        pa = projector(a.frame)
        pb = projector(b.frame)
        assert np.array_equal(pa, pb)

    def test_boost_image_direction(self):
        t = 0.8
        img = apply(boost3(t), subspace(np.zeros(3), E3[:, :2]))
        c, s = np.cosh(t), np.sinh(t)
        v = np.array([0.0, c, s]) / math.hypot(c, s)
        expected = np.outer(E3[:, 0], E3[:, 0]) + np.outer(v, v)
        assert np.max(np.abs(projector(orthonormalize(img.frame)) - expected)) <= 1e-12


class TestJoin:
    def test_axis_through_origin(self):
        s = subspace(np.zeros(3), line([0, 0, 0], E3[:, 0]).frame)
        assert s.dim == 1 and np.allclose(projector(s.frame), np.diag([1.0, 0.0, 0.0]))

    def test_roundtrip_direction(self):
        z = subspace(np.zeros(3), E3[:, 1:]).frame
        s = subspace(np.array([1.0, 0.0, 0.0]), z)
        assert np.allclose(projector(s.frame), projector(z))


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

    @staticmethod
    def planes(theta):
        """Two planes of R^4 at principal angles 0.5 and theta: the first
        through 0, the second through (0, 0, 0.3, 0.2)."""
        e4 = np.eye(4)
        f2 = np.column_stack([math.cos(0.5) * e4[:, 0] + math.sin(0.5) * e4[:, 2],
                              math.cos(theta) * e4[:, 1] + math.sin(theta) * e4[:, 3]])
        return AffineSubspace(np.zeros(4), e4[:, :2]), subspace(np.array([0.0, 0.0, 0.3, 0.2]), f2)

    def test_distance_does_not_depend_on_the_point_given(self):
        # a point far along the first plane gives the distance its
        # minimum-norm point gives
        near, s2 = self.planes(5e-5)
        far = AffineSubspace(near.frame @ np.array([30.0, -40.0]), near.frame)
        assert abs(subspace_distance(far, s2) - subspace_distance(near, s2)) <= 1e-12

    def test_distance_is_continuous_in_the_principal_angles(self):
        # theta = 2e-4 is where the union's eigenvalue 1 - cos(theta) meets a
        # rank cut at 1e-8 of the largest; with no cut the distance moves by
        # about 1e-9 across it
        below, above = (subspace_distance(*self.planes(theta)) for theta in (1.99e-4, 2.01e-4))
        assert abs(below - above) <= 1e-6
        assert below == pytest.approx(1.0086362333, abs=1e-9)

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
            projector(out.frame), projector(s.frame)
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
        # directions to one line; the image's reader refuses it
        s = subspace(np.array([0.0, 0.0, 1.0]), E3[:, :2])
        collapse = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            subspace_distance(apply(collapse, s), s)
        with pytest.raises(RankDeficient):
            transversality_check(subspace(np.zeros(3), E3[:, 2:]), np.stack([np.eye(3), collapse]), s)


class TestTransversality:
    def test_identity_sample(self, form321r):
        w2 = subspace(np.zeros(3), E3[:, 2:])
        w1 = subspace(np.zeros(3), E3[:, :2])
        rep = transversality_check(w2, np.eye(3)[None], w1)
        assert rep.samples == 1

    def test_boosted_transversal_200_samples(self, form321r):
        w1 = subspace(np.zeros(3), E3[:, :2])
        wt = apply(standard_boost(form321r, math.log(2)), subspace(np.zeros(3), E3[:, 2:]))
        rhos, _ = draw(form321r, SampleStream(7), 200)
        rep = transversality_check(wt, rhos, w1)
        assert rep.samples == 200 and rep.worst_margin > 0.0

    def test_wrong_dimension_rejected(self, form321r):
        w1 = subspace(np.zeros(3), E3[:, :2])
        with pytest.raises(DimensionMismatch):
            transversality_check(w1, np.eye(3)[None], w1)

    def test_one_svd_call_for_all_samples(self, form321r, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counting(a, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            return real(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        w1 = subspace(np.zeros(3), E3[:, :2])
        w2 = subspace(np.zeros(3), E3[:, 2:])
        rhos = np.stack([standard_boost(form321r, t) for t in (0.0, 0.5, 1.0, 1.5)])
        rep = transversality_check(w2, rhos, w1)
        assert rep.samples == 4 and calls == [((4, 3, 3), False)]

    def test_violation_names_the_first_failing_sample(self, form321r):
        w1 = subspace(np.zeros(3), E3[:, :2])
        inside = subspace(np.zeros(3), E3[:, 1:2])
        # the boost tilts the carrier plane off the second axis; the identity does not
        rhos = np.stack([standard_boost(form321r, 0.5), np.eye(3), np.eye(3)])
        with pytest.raises(TransversalityViolated, match="^sample 1:"):
            transversality_check(inside, rhos, w1)

    def test_violation_detected(self, form321r):
        inside = subspace(np.zeros(3), E3[:, :1])  # lies inside the carrier plane
        w1 = subspace(np.zeros(3), E3[:, :2])
        with pytest.raises(TransversalityViolated):
            transversality_check(inside, np.eye(3)[None], w1)


def _subspace_json(s):
    return {"base": matrix_to_json(s.base[None])[0], "frame": matrix_to_json(s.frame)}


def test_subspace_json_roundtrip():
    s = subspace(np.array([0.0, 0.0, 2.0]), E3[:, :2])
    back = from_json(json.loads(json.dumps(_subspace_json(s))), "real")
    assert subspace_distance(back, s) <= 1e-15
    zc = subspace(np.zeros(3, dtype=complex), np.eye(3, dtype=complex)[:, 1:])
    back = from_json(json.loads(json.dumps(_subspace_json(zc))), "complex")
    assert subspace_distance(back, zc) <= 1e-15
    # the reader keeps the pair as written
    assert np.array_equal(back.base, zc.base) and np.array_equal(back.frame, zc.frame)
