"""The stacked kernels' glue against its earlier forms in tests/reference.py,
bit for bit on both fields: slices for ``np.split`` parts, joins that
broadcast only parts of differing shapes, the sign pattern for products by
J, one conjugate transpose in the eigensolver, one ``omega`` call per
translation and the array rank fold."""

import numpy as np
import pytest

from bruckloops.extension import (
    DIMENSION_GAP,
    _chart_jacobians,
    _rank_fold,
    coordinate_subspace,
    expected_dimension,
    extension_config,
    realize,
    solve_translation,
)
from bruckloops.geometry import AffineSubspace, apply, subspace, subspace_distance
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    blocks,
    phi_from_uniforms,
    phi_width,
    polar_factorize,
    sample_sigma,
    sigma_from_uniforms,
    sigma_width,
    standard_boost,
)
from bruckloops.linalg import concat, dag, eig_hermitian
from bruckloops.matrixloop import MatrixLoop
import reference

FORMS = [
    SignatureForm(3, 2, 1, "real"),
    SignatureForm(3, 2, 1, "complex"),
    SignatureForm(4, 2, 2, "real"),
    SignatureForm(5, 3, 2, "complex"),
]
FORM_IDS = ["321r", "321c", "422r", "532c"]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("widths", [(1,), (4,), (2, 3), (6, 1, 12), (3, 0, 2)])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_next_rows_slices_are_the_split_parts(count, widths):
    stream = SampleStream(7919, 11)
    parts, after = stream.next_rows(count, *widths)
    want, want_after = reference.split_rows(stream, count, *widths)
    assert after == want_after and len(parts) == len(want)
    assert all(same_bits(got, part) for got, part in zip(parts, want))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
def test_blocks_are_the_split_copies(form, batch):
    shapes = [(form.p1, form.p2), (form.p1, form.p1), (form.p2, 1)]
    width = (2 if form.field == "complex" else 1) * sum(r * c for r, c in shapes)
    vals, _ = SampleStream(3).next_uniforms(int(np.prod(batch, dtype=int)) * width, -1.0, 1.0)
    vals = vals.reshape(batch + (width,))
    got, want = blocks(form, vals, *shapes), reference.split_blocks(form, vals, *shapes)
    assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_equal_shape_concat_is_the_broadcast_join(form):
    stacks, _ = sample_sigma(form, SampleStream(1), 9)
    parts = (stacks[:3], stacks[3:6], stacks[6:])
    assert same_bits(concat(*parts), reference.broadcast_concat(*parts))
    w = stacks[:, 0]  # vectors join the same way
    assert same_bits(concat(w[:4], w[4:8]), reference.broadcast_concat(w[:4], w[4:8]))
    # a single element still fills a stack
    e = MatrixLoop(form).identity
    assert same_bits(concat(e, stacks[:3], e), reference.broadcast_concat(e, stacks[:3], e))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_dag_and_eig_hermitian_match_the_conjugate_copies(form):
    a, _ = sample_sigma(form, SampleStream(5), 40)
    a = a @ a  # not exactly hermitian: the symmetrization shows
    assert same_bits(dag(a), reference.conj_dag(a))
    assert np.shares_memory(dag(a), a) == (form.field == "real")
    got, want = eig_hermitian(a), reference.eig_hermitian(a)
    assert same_bits(got.eigenvalues, want.eigenvalues) and same_bits(got.eigenbasis, want.eigenbasis)


# 1 x 1 entries at the edges: signed zeros, the least subnormal, +-1e300
# and negative values; on the complex field with imaginary parts inside the
# hermiticity tolerance, which the symmetrization drops.
ONE_BY_ONE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, -0.75, 1.0])
ONE_BY_ONE_IMAG = np.array([0.0, -0.0, 5e-324, 1e-10, 0.0, -0.0, -1e-9, 1e-12, -5e-324])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("batch", [(), (9,), (3, 3)])
def test_one_by_one_eig_hermitian_is_lapacks_closed_form(field, batch):
    a = ONE_BY_ONE + 1j * ONE_BY_ONE_IMAG if field == "complex" else ONE_BY_ONE
    stacks = [x.reshape(1, 1) for x in a] if batch == () else [a.reshape(batch + (1, 1))]
    for a in stacks:
        # the hermiticity check's norm of a 1e300 entry overflows to inf,
        # which passes it
        with np.errstate(over="ignore"):
            got = eig_hermitian(a)
        vals, q = np.linalg.eigh((a + reference.conj_dag(a)) / 2.0)
        assert same_bits(got.eigenvalues, vals) and same_bits(got.eigenbasis, q)


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_inverse_and_phi_factor_are_the_j_products(form):
    (us, up), _ = SampleStream(1).next_rows(60, sigma_width(form), phi_width(form))
    s1, c = sigma_from_uniforms(form, us), phi_from_uniforms(form, up)
    loop = MatrixLoop(form)
    assert same_bits(loop.inverse(s1), reference.j_inverse(form, s1))
    assert same_bits(loop.inverse(s1[7]), reference.j_inverse(form, s1[7]))
    for got, want in zip(polar_factorize(s1 @ c, form), reference.j_polar_factorize(s1 @ c, form)):
        assert same_bits(got, want)


def test_the_identity_is_one_read_only_array(form321c):
    loop = MatrixLoop(form321c)
    assert loop.identity is MatrixLoop(SignatureForm(3, 2, 1, "complex")).identity
    assert same_bits(loop.identity, np.eye(3, dtype=np.complex128))
    with pytest.raises(ValueError):
        loop.identity[0, 0] = 2.0


def _boosted(form, carrier):
    w = apply(standard_boost(form, np.log(2)), coordinate_subspace(form, 2 if carrier == 1 else 1))
    return extension_config(form, carrier, w)


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("carrier", [1, 2])
def test_subspace_distance_matches_the_split_form(form, carrier):
    cfg = _boosted(form, carrier)
    e, _ = cfg.sample(SampleStream(2), 12)
    s = realize(e, cfg)
    cases = [
        (s, s[::-1]),
        (s[0], s),  # one subspace against a stack
        (s, s[2]),  # a stack against one subspace
        (AffineSubspace(s.base[0], s.frame), s[3]),  # base and frame of different batch shapes
        (s[4], s[5]),
    ]
    for a, b in cases:
        assert same_bits(subspace_distance(a, b), reference.split_subspace_distance(a, b))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("carrier", [1, 2])
def test_stacked_solve_translation_is_two_omega_calls(form, carrier):
    cfg = _boosted(form, carrier)
    e, _ = cfg.sample(SampleStream(4), 20)
    d1, d2 = realize(e[0::2], cfg), realize(e[1::2], cfg)
    d1, d2 = subspace(d1.base, d1.frame), subspace(d2.base, d2.frame)
    cases = [
        (d1, d2),
        (d1[3], d2[3]),
        (d2, d1),
        (AffineSubspace(d1.base[0], d1.frame), d2[::-1]),  # base and frame of different batch shapes
        (d1[2], AffineSubspace(d2.base, d2.frame[5])),
    ]
    for a, b in cases:
        for got, want in zip(solve_translation(a, b, cfg), reference.two_omega_translation(a, b, cfg)):
            # a rho that two unstacked frames give is repeated over the stack
            assert same_bits(got, np.broadcast_to(want, got.shape))


def _chart_singular_values(form):
    """Singular values of a dimension chart's Jacobians at six points."""
    cfg = extension_config(form)
    d = expected_dimension(cfg)
    thetas, _ = SampleStream(1).next_uniforms(6 * d, -0.4, 0.4)
    return np.linalg.svd(_chart_jacobians(cfg, thetas.reshape(6, d)), compute_uv=False)


G = DIMENSION_GAP
# name -> (descending singular values, rank, whether kept and dropped are G apart)
EDGE_ROWS = {
    "zero top value": ([0.0, 0.0, 0.0, 0.0], 0, False),
    "nothing dropped": ([3.0, 2.0, 1.0, 0.5], 4, True),
    "margin just under the gap": ([1.0, 0.5, 1.9999 * G, 0.99995 * G], 3, False),
    "margin just over the gap": ([1.0, 0.5, 2.0 * G, G * (1 - 1e-9)], 3, True),
    "kept value at the cut": ([2.0, 1.0, 2.0 * G, 0.0], 3, True),
    "one kept value": ([4.0, 1e-300, 0.0, 0.0], 1, True),
}


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_array_rank_fold_is_the_per_point_loop(form):
    svs = _chart_singular_values(form)
    ranks, gapped = _rank_fold(svs)
    assert (ranks.tolist(), int(np.count_nonzero(gapped))) == reference.rank_fold_by_point(svs)


def test_rank_fold_edge_rows():
    svs = np.array([row for row, _, _ in EDGE_ROWS.values()])
    ranks, gapped = _rank_fold(svs)
    assert (ranks.tolist(), int(np.count_nonzero(gapped))) == reference.rank_fold_by_point(svs)
    assert ranks.tolist() == [rank for _, rank, _ in EDGE_ROWS.values()]
    assert gapped.tolist() == [gap for _, _, gap in EDGE_ROWS.values()]
