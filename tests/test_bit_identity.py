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
    _point_bytes,
    _rank_fold,
    _singular_values,
    coordinate_subspace,
    expected_dimension,
    extension_config,
    passes,
    realize,
    solve_translation,
)
from bruckloops.geometry import AffineSubspace, apply, subspace, subspace_distance
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    blocks,
    membership_residual,
    phi_from_uniforms,
    phi_width,
    polar_factorize,
    sample_parts,
    sigma_from_uniforms,
    sigma_width,
    standard_boost,
    unit_uniforms,
)
from bruckloops.errors import NoConvergence, NotHermitian
from bruckloops.linalg import TAU_ABS, TAU_REL, concat, dag, eig_hermitian
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
def test_sample_parts_are_the_split_parts(count, widths):
    stream = SampleStream(7919, 11)
    parts = sample_parts(unit_uniforms(stream.seed, stream.counters(count * sum(widths))), count, widths)
    want, want_after = reference.split_rows(stream, count, *widths)
    assert stream.split(count * sum(widths)) == want_after and len(parts) == len(want)
    assert all(same_bits(got, part) for got, part in zip(parts, want))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
def test_blocks_are_the_split_copies(form, batch):
    shapes = [(form.p1, form.p2), (form.p1, form.p1), (form.p2, 1)]
    width = (2 if form.field == "complex" else 1) * sum(r * c for r, c in shapes)
    vals, _ = reference.uniforms(SampleStream(3), int(np.prod(batch, dtype=int)) * width, -1.0, 1.0)
    vals = vals.reshape(batch + (width,))
    got, want = blocks(form, vals, *shapes), reference.split_blocks(form, vals, *shapes)
    assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_equal_shape_concat_is_the_broadcast_join(form):
    stacks, _ = reference.draw(form, SampleStream(1), 9)
    parts = (stacks[:3], stacks[3:6], stacks[6:])
    assert same_bits(concat(*parts), reference.broadcast_concat(*parts))
    w = stacks[:, 0]  # vectors join the same way
    assert same_bits(concat(w[:4], w[4:8]), reference.broadcast_concat(w[:4], w[4:8]))
    # a single element still fills a stack
    e = MatrixLoop(form).identity
    assert same_bits(concat(e, stacks[:3], e), reference.broadcast_concat(e, stacks[:3], e))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_dag_and_eig_hermitian_match_the_conjugate_copies(form):
    a, _ = reference.draw(form, SampleStream(5), 40)
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


def _threshold_parts(re: float) -> list:
    """Imaginary parts within 3 ulp of where |2 Im a| meets the bound
    TAU_ABS + TAU_REL |a| of the 1 x 1 hermiticity check."""
    im = 0.0
    for _ in range(8):
        im = (TAU_ABS + TAU_REL * np.hypot(re, im)) / 2.0
    parts = [im]
    for direction in (np.inf, -np.inf):
        x = im
        for _ in range(3):
            x = np.nextafter(x, direction)
            parts.append(x)
    return parts + [-x for x in parts]


ONE_BY_ONE_RE = [0.0, -0.0, 5e-324, 1e-310, 1.0, -2.5, 1e150, 1e160, 1e300, -1e300]
ONE_BY_ONE_IM = [0.0, -0.0, 5e-324, -1e-310, 1e-12, 1e-8, 1e154, -1e154, 1e160, 1e300, -1e300]


def _outcome(eig, a):
    """The NotHermitian message an eigensolver gives ``a``, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            eig(a)
        except NotHermitian as exc:
            return str(exc)
    return None


def test_one_by_one_hermiticity_residual_is_the_general_formula():
    # |2 Im a| in closed form refuses exactly what ||A - A*|| refuses, with
    # its message, the overflowing norm of Im a = 1e154 included
    entries = [complex(re, im) for re in ONE_BY_ONE_RE for im in ONE_BY_ONE_IM + _threshold_parts(re)]
    messages = []
    for x in entries:
        a = np.array([[x]])
        messages.append(_outcome(eig_hermitian, a))
        assert messages[-1] == _outcome(reference.eig_hermitian, a), x
    assert None in messages and "symmetry residual inf exceeds tolerance" in messages
    stack = np.array(entries).reshape(-1, 1, 1)
    assert _outcome(eig_hermitian, stack) == _outcome(reference.eig_hermitian, stack) is not None
    # the real field has no hermiticity residual to refuse
    real = np.array(ONE_BY_ONE_RE + [x.imag for x in entries]).reshape(-1, 1, 1)
    assert _outcome(eig_hermitian, real) is None
    assert all(_outcome(eig_hermitian, x) is None for x in real)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)])
def test_one_by_one_non_finite_entry_is_no_convergence(bad):
    for a in (np.array([[bad]]), np.full((3, 1, 1), bad)):
        with pytest.raises(NoConvergence, match="non-finite"):
            eig_hermitian(a)


SIGMA_FORMS = [
    SignatureForm(n, p1, n - p1, field)
    for n in range(3, 8) for p1 in range(n - 1, (n - 1) // 2, -1) for field in ("real", "complex")
]


@pytest.mark.parametrize("form", SIGMA_FORMS, ids=lambda f: f"{f.n}{f.p1}{f.p2}{f.field[0]}")
def test_positive_definite_residual_is_the_eigendecomposition_oracle(form):
    a, _ = reference.draw(form, SampleStream(3), 40)
    for stack in (a, a[7], a @ a):
        got = membership_residual(stack, form).residuals["positive_definite"]
        assert same_bits(got, reference.eig_positive_definite(stack))


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_positive_definite_residual_of_indefinite_matrices(form):
    a, _ = reference.draw(form, SampleStream(5), 20)
    j, eye = form.j_matrix(), form.eye()
    for stack in (j, -eye, -a, j @ a @ j - 2.0 * eye, np.stack([j, -eye, eye])):
        got = membership_residual(stack, form).residuals["positive_definite"]
        want = reference.eig_positive_definite(stack)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)) and np.any(want > 0.0)
    assert membership_residual(j, form).residuals["positive_definite"] == 1.0


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_positive_definite_breakdowns_are_no_convergence(monkeypatch, form):
    a, _ = reference.draw(form, SampleStream(5), 4)
    a[2, 0, 1] = np.nan
    with pytest.raises(NoConvergence, match="non-finite"):
        membership_residual(a, form)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        membership_residual(form.eye(), form)


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_inverse_and_phi_factor_are_the_j_products(form):
    (us, up), _ = reference.rows(SampleStream(1), 60, sigma_width(form), phi_width(form))
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
    e, _ = reference.draw(cfg, SampleStream(2), 12)
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
    e, _ = reference.draw(cfg, SampleStream(4), 20)
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
    """Singular values of a dimension chart's Jacobians at six points, one
    pass of the check, which folds them as ``_rank_fold`` does."""
    cfg = extension_config(form)
    d = expected_dimension(cfg)
    thetas, _ = reference.uniforms(SampleStream(1), 6 * d, -0.4, 0.4)
    (cut,) = passes(6, _point_bytes(cfg))
    return _singular_values(_chart_jacobians(cfg, thetas.reshape(6, d)[cut]))


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
