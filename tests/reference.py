"""Per-sample reference for the batched sampler and verification rows, and
the n x n oracle for the positive isometries built in block coordinates.

``ReferenceStream`` draws with the scalar Python splitmix64 loop, one value
at a time.  The ``ROWS`` functions are the suite's rows written sample by
sample: each sample is drawn alone, through a stack of one, and every loop
operation runs on single elements; residuals are folded with Python's max
from 0.  The batched code in the package must agree with them.
``sample_tuples`` is a row's own stacked draw, which the suite replaced by
one draw pooled over all rows; ``check_drawn`` runs a kernel checker on it.

``hermitian_function``, ``sigma_exp``, ``positive_factor`` and ``boost`` are
the n x n forms the package's block path replaced: a function of a whole
n x n hermitian matrix through one ``numpy.linalg.eigh`` of it.

The functions after them are the earlier forms of the stacked kernels'
glue: ``np.split`` parts, joins that always broadcast, products by the
diagonal J, a second conjugate transpose in the eigensolver, two ``omega``
calls per translation and a per-point rank fold.  The package must agree
with each bit for bit.
"""

from __future__ import annotations

import numpy as np

from bruckloops import extension as ext
from bruckloops import geometry
from bruckloops.errors import InversesDisagree, NotHermitian
from bruckloops.groups import (
    SampleStream,
    conjugate_by_phi,
    membership_residual,
    polar_factorize,
    positive_factor as block_positive_factor,
    sample_phi,
    sample_sigma,
)
from bruckloops.kernel import check_aip, check_bol, check_left_a, check_loop_axioms
from bruckloops.linalg import COMPLEX, TAU_ABS, TAU_REL, SpectralDecomposition, dag, fro, symmetrize

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INVERSE_GAP = 1e-9


def hermitian_function(a, func):
    """func(A) for a hermitian matrix A, or each of a stack, through its
    spectrum: Q func(lambda) Q* from one eigh of the whole matrix."""
    vals, q = np.linalg.eigh(symmetrize(a))
    return symmetrize((q * func(vals)[..., None, :]) @ dag(q))


def off_diagonal(form, x):
    """The hermitian generator [[0, X], [X*, 0]] of a block, or stack."""
    h = np.zeros(x.shape[:-2] + (form.n, form.n), dtype=form.dtype)
    h[..., : form.p1, form.p1 :] = x
    h[..., form.p1 :, : form.p1] = dag(x)
    return h


def sigma_exp(form, x):
    """exp([[0, X], [X*, 0]])."""
    return hermitian_function(off_diagonal(form, x), np.exp)


def positive_factor(s):
    """sqrt(S S*)."""
    return hermitian_function(s @ dag(s), np.sqrt)


def boost(form, x):
    """(I + T)(I - T^2)^{-1/2} with T = [[0, X], [X*, 0]], X a contraction."""
    t = off_diagonal(form, x)
    eye = np.eye(form.n, dtype=form.dtype)
    return symmetrize((eye + t) @ hermitian_function(eye - t @ t, lambda v: 1.0 / np.sqrt(v)))


def split_rows(stream, count: int, *widths: int):
    """``SampleStream.next_rows`` through ``np.split``."""
    vals, stream = stream.next_uniforms(count * sum(widths))
    rows = vals.reshape(count, sum(widths))
    return np.split(rows, np.cumsum(widths)[:-1], axis=1), stream


def split_blocks(form, vals, *shapes) -> list:
    """``groups.blocks`` through ``np.split``, every block a copy."""
    if form.field == COMPLEX:
        vals = vals[..., 0::2] + 1j * vals[..., 1::2]
    ends = np.cumsum([rows * cols for rows, cols in shapes])
    return [
        part.reshape(vals.shape[:-1] + shape).astype(form.dtype)
        for part, shape in zip(np.split(vals, ends[:-1], axis=-1), shapes)
    ]


def broadcast_concat(*stacks):
    """``linalg.concat`` broadcasting its parts whatever their shapes."""
    return np.concatenate(np.broadcast_arrays(*stacks))


def conj_dag(a):
    """``linalg.dag`` with the conjugate copy on the real field too."""
    return a.conj().swapaxes(-1, -2)


def eig_hermitian(a):
    """``linalg.eig_hermitian`` taking the conjugate transpose twice."""
    residual = fro(a - conj_dag(a))
    bad = residual > TAU_ABS + TAU_REL * fro(a)
    if bad.any():
        raise NotHermitian(f"symmetry residual {np.max(residual[bad]):.3e} exceeds tolerance")
    vals, q = np.linalg.eigh((a + conj_dag(a)) / 2.0)
    return SpectralDecomposition(vals, q)


def j_inverse(form, a):
    """``MatrixLoop.inverse`` as the products J A J."""
    j = form.j_matrix()
    return symmetrize((j @ a) @ j)


def j_polar_factorize(s, form):
    """``polar_factorize`` with its Phi factor as ((J S1) J) S."""
    s1 = block_positive_factor(s, form)
    j = form.j_matrix()
    return s1, ((j @ s1) @ j) @ s


def split_subspace_distance(s1, s2):
    """``geometry.subspace_distance`` broadcasting both operands and
    splitting the canonical forms with ``np.split``."""
    n, k = s1.ambient, s1.dim
    shapes = [np.broadcast_shapes(s.base.shape[:-1], s.frame.shape[:-2]) for s in (s1, s2)]
    bases = [np.broadcast_to(s.base, b + (n,)).reshape(-1, n) for s, b in zip((s1, s2), shapes)]
    frames = [np.broadcast_to(s.frame, b + (n, k)).reshape(-1, n, k) for s, b in zip((s1, s2), shapes)]
    c, size = geometry.subspace(np.concatenate(bases), np.concatenate(frames)), len(bases[0])
    p1, p2 = (part.reshape(b + (n, n)) for part, b in zip(np.split(geometry.projector(c.frame), [size]), shapes))
    m1, m2 = (part.reshape(b + (n,)) for part, b in zip(np.split(c.base, [size]), shapes))
    return fro(p1 - p2) + np.linalg.norm(m1 - m2, axis=-1)


def two_omega_translation(d1, d2, cfg):
    """``extension.solve_translation`` with one ``omega`` call per subspace."""
    x = cfg.right_divide(ext.omega(d2, cfg), ext.omega(d1, cfg))
    return x.w, x.rho


def rank_fold_by_point(svs):
    """The dimension check's rank and gap fold, one point at a time: the
    ranks and the number of points with a gap."""
    ranks = []
    ok = 0
    for sv in svs:
        if sv.size == 0 or sv[0] == 0.0:
            ranks.append(0)
            continue
        sn = sv / sv[0]
        kept = sn[sn >= ext.DIMENSION_GAP]
        dropped = sn[sn < ext.DIMENSION_GAP]
        margin = float(kept[-1] - (dropped[0] if dropped.size else 0.0)) if kept.size else 0.0
        if margin >= ext.DIMENSION_GAP:
            ok += 1
        ranks.append(int(kept.size))
    return ranks, ok


def splitmix(state: int) -> int:
    z = state & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def reference_uniforms(seed: int, counter: int, count: int, lo: float = 0.0, hi: float = 1.0):
    """Draws counter .. counter + count - 1, uniform on [lo, hi), one by one."""
    vals = np.array(
        [(splitmix((seed + (k + 1) * _GAMMA) & _MASK64) >> 11) * (1.0 / (1 << 53))
         for k in range(counter, counter + count)]
    )
    return lo + (hi - lo) * vals


class ReferenceStream(SampleStream):
    """A SampleStream whose draws come from the scalar reference loop."""

    def next_uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0):
        vals = reference_uniforms(self.seed, self.counter, count, lo, hi)
        return vals, ReferenceStream(self.seed, self.counter + count)


def draw(sample, *args):
    """One element from a sampler of stacks, ``sample(stream, 1, ...)``."""
    stack, stream = sample(*args)
    return stack[0], stream


def fold(stream, count: int, fn) -> tuple:
    """Fold ``fn(stream) -> (residuals, stream)`` over ``count`` samples,
    entry by entry, with max from 0."""
    worst = None
    for _ in range(count):
        residuals, stream = fn(stream)
        worst = tuple(map(max, worst or (0.0,) * len(residuals), residuals))
    return worst


def sample_tuples(loop, stream, count: int, size: int) -> list:
    """``count`` sampled ``size``-tuples from one stacked draw, as ``size``
    stacks: slot j of tuple i is draw size * i + j, the element a
    sample-by-sample draw gives it."""
    xs, _ = loop.sample(stream, size * count)
    return [xs[j::size] for j in range(size)]


# Elements per sample of each kernel checker.
CHECK_SLOTS = {check_loop_axioms: 2, check_bol: 3, check_aip: 2, check_left_a: 4}


def check_drawn(check, loop, stream, count: int) -> float:
    """A kernel checker on ``count`` samples drawn from ``stream`` as one stack."""
    return check(loop, *sample_tuples(loop, stream, count, CHECK_SLOTS[check]))


def _elements(loop, stream, size: int):
    out = []
    for _ in range(size):
        x, stream = draw(loop.sample, stream, 1)
        out.append(x)
    return out, stream


def _inverse_of(loop, x):
    right = loop.right_divide(loop.identity, x)
    left = loop.left_divide(x, loop.identity)
    gap = loop.distance(right, left)
    if gap > _INVERSE_GAP:
        raise InversesDisagree(f"e/x and x\\e differ by {gap:.3e}")
    return right


def loop_axioms(loop, stream, count):
    e = loop.identity

    def one(stream):
        (a, b), stream = _elements(loop, stream, 2)
        return (max(
            loop.distance(loop.mul(e, a), a),
            loop.distance(loop.mul(a, e), a),
            loop.distance(loop.mul(a, loop.left_divide(a, b)), b),
            loop.distance(loop.mul(loop.right_divide(b, a), a), b),
        ),), stream

    return fold(stream, count, one)


def bol(loop, stream, count):
    def one(stream):
        (x, y, z), stream = _elements(loop, stream, 3)
        lhs = loop.mul(x, loop.mul(y, loop.mul(x, z)))
        rhs = loop.mul(loop.mul(x, loop.mul(y, x)), z)
        return (loop.distance(lhs, rhs),), stream

    return fold(stream, count, one)


def aip(loop, stream, count):
    def one(stream):
        (x, y), stream = _elements(loop, stream, 2)
        lhs = _inverse_of(loop, loop.mul(x, y))
        rhs = loop.mul(_inverse_of(loop, x), _inverse_of(loop, y))
        return (loop.distance(lhs, rhs),), stream

    return fold(stream, count, one)


def left_a(loop, stream, count):
    def lam(x, y, w):
        return loop.left_divide(loop.mul(x, y), loop.mul(x, loop.mul(y, w)))

    def one(stream):
        (x, y, u, v), stream = _elements(loop, stream, 4)
        return (loop.distance(lam(x, y, loop.mul(u, v)), loop.mul(lam(x, y, u), lam(x, y, v))),), stream

    return fold(stream, count, one)


def sigma_closure(s, stream, count):
    def one(stream):
        (a, b), stream = _elements(s.mat, stream, 2)
        return (membership_residual(s.mat.mul(a, b), s.form).max_residual,), stream

    return fold(stream, count, one)


def _sigma_then_phi(s, stream):
    a, stream = draw(sample_sigma, s.form, stream, 1)
    b, stream = draw(sample_phi, s.form, stream, 1)
    return a, b, stream


def conjugation_closure(s, stream, count):
    def one(stream):
        a, b, stream = _sigma_then_phi(s, stream)
        return (membership_residual(conjugate_by_phi(a, b), s.form).max_residual,), stream

    return fold(stream, count, one)


def factorization(s, stream, count):
    def one(stream):
        s1, c, stream = _sigma_then_phi(s, stream)
        m = s1 @ c
        f1, f2 = polar_factorize(m, s.form)
        recovery = max(float(np.max(np.abs(f1 - s1))), float(np.max(np.abs(f2 - c))))
        return (recovery, fro(f1 @ f2 - m) / fro(m)), stream

    return fold(stream, count, one)


def transversality(s, stream, count):
    """Residual 0 and the worst margin, one sample per check."""
    margin = np.inf
    for _ in range(count):
        rho, stream = draw(s.mat.sample, stream, 1)
        report = geometry.transversality_check(s.wtilde, rho[None], s.carrier_subspace())
        margin = min(margin, report.worst_margin)
    return (0.0,), margin


def ext_infinity_compat(s, stream, count):
    def one(stream):
        (e1, e2), stream = _elements(s, stream, 2)
        return (fro(s.mul(e1, e2).rho - s.mat.mul(e1.rho, e2.rho)),), stream

    return fold(stream, count, one)


def ext_aip(s, stream, count):
    """The left/right inverse gap of the extension loop."""
    def one(stream):
        x, stream = draw(s.sample, stream, 1)
        right = s.right_divide(s.identity, x)
        left = s.left_divide(x, s.identity)
        return (s.distance(right, left),), stream

    return fold(stream, count, one)


def canonical_distance(s1, s2):
    """The subspace distance of two canonical subspaces, read as given: the
    Frobenius gap of the direction projectors plus the gap of the bases, in
    ``geometry.subspace_distance``'s order of operations."""
    p1, p2 = geometry.projector(s1.frame), geometry.projector(s2.frame)
    return fro(p1 - p2) + np.linalg.norm(s1.base - s2.base, axis=-1)


def _perturb(sub, noise):
    n, k = sub.frame.shape
    base = sub.base + noise[:n].astype(sub.base.dtype)
    frame = sub.frame + noise[n:].reshape(n, k).astype(sub.frame.dtype)
    return geometry.AffineSubspace(base, frame)


def solve_translation(s, stream, count):
    def one(stream):
        (e1, e2), stream = _elements(s, stream, 2)
        realized = ext.realize(e1, s), ext.realize(e2, s)
        d1, d2 = (geometry.subspace(d.base, d.frame) for d in realized)
        t, rho = ext.solve_translation(d1, d2, s)
        moved = geometry.apply(rho, d1, t)
        noise, stream = stream.next_uniforms(2 * s.form.n * (d1.dim + 1), -1e-10, 1e-10)
        d1p = _perturb(d1, noise[: noise.size // 2])
        d2p = _perturb(d2, noise[noise.size // 2 :])
        tp, rhop = ext.solve_translation(d1p, d2p, s)
        stability = float(np.linalg.norm(tp - t)) + fro(rhop - rho)
        return (geometry.subspace_distance(moved, d2), stability), stream

    return fold(stream, count, one)


# Row key -> per-sample reference run(loop, stream, count) -> worst residuals,
# on the resolved extension loop and the matrix loop it holds.
ROWS = {
    "loop_axioms": lambda s, stream, n: loop_axioms(s.mat, stream, n),
    "sigma_closure": sigma_closure,
    "bol": lambda s, stream, n: bol(s.mat, stream, n),
    "aip": lambda s, stream, n: aip(s.mat, stream, n),
    "left_a": lambda s, stream, n: left_a(s.mat, stream, n),
    "conjugation_closure": conjugation_closure,
    "factorization": factorization,
    "transversality": lambda s, stream, n: transversality(s, stream, n)[0],
    "ext_loop_axioms": loop_axioms,
    "ext_infinity_compat": ext_infinity_compat,
    "ext_bol": bol,
    "ext_aip": ext_aip,
    "solve_translation": solve_translation,
}
