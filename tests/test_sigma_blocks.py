"""Positive isometries in block coordinates: the exponential chart, the
positive factor and the lift each come from one p2 x p2 spectral call and
``groups.sigma_from_spectrum``; the n x n forms in tests/reference.py are
their oracle."""

import numpy as np
import pytest

import reference
from bruckloops.extension import ExtensionElement, extension_config
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    blocks,
    polar_factorize,
    positive_factor,
    scale,
    sigma_from_block,
    sigma_width,
)
from bruckloops.linalg import fro
from bruckloops.matrixloop import MatrixLoop

SIGNATURES = [(n, p1, n - p1) for n in range(3, 8) for p1 in range(n - 1, (n - 1) // 2, -1)]
CASES = [(signature, field) for signature in SIGNATURES for field in ("real", "complex")]


def relative(a, b):
    """The largest relative Frobenius distance over a stack."""
    return float(np.max(fro(a - b) / fro(b)))


def graph_block(a, form, carrier):
    """The contraction X whose graph is the span of ``a``'s carrier columns."""
    p1 = form.p1
    if carrier == 1:
        return np.conj(a[..., p1:, :p1] @ np.linalg.inv(a[..., :p1, :p1])).swapaxes(-1, -2)
    return a[..., :p1, p1:] @ np.linalg.inv(a[..., p1:, p1:])


def carrier_columns(a, form, carrier):
    return a[..., : form.p1] if carrier == 1 else a[..., form.p1 :]


def test_signatures_cover_every_form_up_to_seven():
    assert len(SIGNATURES) == 11 and (7, 4, 3) in SIGNATURES and (6, 3, 3) in SIGNATURES



def _lift(a, cfg):
    """The lift of the carrier columns of ``a``, or of each of a stack: the
    direction part of the extension loop's product of the identity and
    (0, a), which lifts those columns as they are."""
    return cfg.mul(cfg.identity, ExtensionElement(np.zeros(a.shape[:-1], dtype=a.dtype), a)).rho

@pytest.mark.parametrize("signature, field", CASES)
def test_block_path_matches_the_oracle(signature, field):
    form = SignatureForm(*signature, field)
    loop = MatrixLoop(form)
    (u,), stream = reference.rows(SampleStream(31), 16, sigma_width(form))
    (x,) = blocks(form, scale(u, -0.75, 0.75), (form.p1, form.p2))
    a = sigma_from_block(form, x)
    assert relative(a, reference.sigma_exp(form, x)) <= 1e-13
    b, stream = reference.draw(loop, stream, 16)
    assert relative(loop.mul(a, b), reference.positive_factor(a @ b)) <= 1e-13
    phi, _ = reference.draw(form, stream, 16, "phi")
    s = b @ phi  # an isometry that is not hermitian
    assert relative(polar_factorize(s, form)[0], reference.positive_factor(s)) <= 1e-13
    for carrier in (1, 2):
        lifted = _lift(a, extension_config(form, carrier))
        assert relative(lifted, reference.boost(form, graph_block(a, form, carrier))) <= 1e-13


@pytest.mark.parametrize("signature, field", CASES)
def test_zero_block_is_exactly_the_identity(signature, field):
    form = SignatureForm(*signature, field)
    eye = np.eye(form.n, dtype=form.dtype)
    assert np.array_equal(sigma_from_block(form, np.zeros((form.p1, form.p2), dtype=form.dtype)), eye)
    for block in (1, 2):
        assert np.array_equal(positive_factor(form, [(carrier_columns(eye, form, block), block)])[0], eye)
    assert np.array_equal(MatrixLoop(form).mul(eye, eye), eye)
    for carrier in (1, 2):
        cfg = extension_config(form, carrier)
        assert np.array_equal(_lift(eye, cfg), eye)


@pytest.mark.parametrize("signature, field", CASES)
def test_tiny_blocks_keep_their_relative_accuracy(signature, field):
    # with block entries near 1e-9 the off-diagonal block is X (1 + O(|X|^2)):
    # every path keeps it to rounding relative to X itself, where an n x n
    # function of the whole matrix loses it to rounding relative to I
    form = SignatureForm(*signature, field)
    (u,), _ = reference.rows(SampleStream(5), 8, sigma_width(form))
    (x,) = blocks(form, scale(u, -1e-9, 1e-9), (form.p1, form.p2))
    a = sigma_from_block(form, x)
    eye = np.eye(form.n, dtype=form.dtype)

    def block(m):
        return m[..., : form.p1, form.p1 :]

    assert relative(block(a), x) <= 1e-13
    assert float(np.max(fro(a - eye - reference.off_diagonal(form, x)))) <= 1e-14  # I to rounding
    assert relative(block(MatrixLoop(form).mul(a, eye)), x) <= 1e-13
    assert relative(block(polar_factorize(a, form)[0]), x) <= 1e-13
    for carrier in (1, 2):
        lifted = _lift(a, extension_config(form, carrier))
        assert relative(block(lifted), x) <= 1e-13


@pytest.mark.parametrize("signature", [(3, 2, 1), (4, 2, 2), (7, 4, 3)])
def test_every_sigma_spectral_call_is_p2_by_p2(eig_calls, signature):
    form = SignatureForm(*signature, "complex")
    loop = MatrixLoop(form)
    cfg = extension_config(form)
    a, stream = reference.draw(loop, SampleStream(3), 4)
    b, stream = reference.draw(loop, stream, 4)
    eig_calls.clear()
    reference.draw(loop, stream, 4)
    for op in (loop.mul, loop.left_divide, loop.right_divide):
        op(a, b)
    polar_factorize(a, form)
    _lift(a, cfg)
    assert len(eig_calls) == 6
    assert all(shape[-2:] == (form.p2, form.p2) for shape in eig_calls)
