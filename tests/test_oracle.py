"""Loop operations against the exact result of their float operands.

``reference.exact_operation`` computes sqrt(A B^2 A), its divisions and the
extension loop's direction product with mpmath at 40 digits and rounds
once.  Each operation's forward error, relative in the Frobenius norm, is
pinned in units of eps, and its isometry residual ||P* J P - J|| in units
of eps ||P||^2, the floor that even the exactly rounded product has.  Every
n = 3..7 form is covered in both fields, and so is the worst
``sigma_closure`` sample of the default (16,8,8) complex verify at seed 1,
sample 617, where the half-angle on S S* once read a forward error of
2.8e-14 and an isometry residual of 3.73e-9 (77 eps ||P||^2).
"""

import numpy as np
import pytest

import reference
from bruckloops import suite
from bruckloops.cli import SuiteConfig, resolve
from bruckloops.extension import ExtensionElement, extension_config
from bruckloops.groups import SampleStream, SignatureForm
from bruckloops.linalg import fro
from bruckloops.matrixloop import MatrixLoop

EPS = np.finfo(np.float64).eps
SIGNATURES = [(n, p1, n - p1) for n in range(3, 8) for p1 in range(n - 1, (n - 1) // 2, -1)]
# operation -> its oracle and the forward error bound, in eps; ``ext<i>``
# is the extension loop's product on carrier i, whose direction part is the
# matrix loop's product of the lifts.  Measured worst over these draws:
# 5.1 eps for products, 4.5 for left divisions, 27 for right divisions and
# 6.9 for the extension products (the half-angle on S S* read 5.2, 5.5 and
# 74 eps, and the extension products, whose lift subtracted I - X* X, 224)
BOUNDS = {"mul": 32, "left_divide": 32, "right_divide": 64, "ext1": 32, "ext2": 32}
ISOMETRY_BOUND = 64  # in eps ||P||^2; measured worst 15


def _errors(form, exact, got):
    """Per sample: the forward error in eps and the isometry residual in eps ||P||^2."""
    forward = [fro(g - e) / fro(e) / EPS for g, e in zip(got, exact)]
    floor = [EPS * np.linalg.norm(e, 2) ** 2 for e in exact]
    return np.array(forward), np.array([reference.isometry_residual(g, form) / f for g, f in zip(got, floor)])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("signature", SIGNATURES)
def test_operations_against_the_exact_result(signature, field):
    form = SignatureForm(*signature, field)
    loop = MatrixLoop(form)
    a, stream = reference.draw(loop, SampleStream(41), 3)
    b, _ = reference.draw(loop, stream, 3)
    exact = {op: [reference.exact_operation(form, op, x, y) for x, y in zip(a, b)]
             for op in ("mul", "left_divide", "right_divide")}
    w = np.zeros((3, form.n), dtype=form.dtype)
    for operation, bound in BOUNDS.items():
        if operation.startswith("ext"):
            cfg = extension_config(form, int(operation[-1]))
            got, want = cfg.mul(ExtensionElement(w, a), ExtensionElement(w, b)).rho, exact["mul"]
        else:
            got, want = getattr(loop, operation)(a, b), exact[operation]
        forward, isometry = _errors(form, want, got)
        assert np.max(forward) <= bound, (operation, forward)
        assert np.max(isometry) <= ISOMETRY_BOUND, (operation, isometry)


def test_sigma_closure_sample_617_of_the_default_16_8_8_complex_verify():
    # forward error 6.3e-15 (28 eps) and isometry residual 2.72e-11, 0.56 eps
    # ||P||^2 at ||P|| = 466; the exactly rounded product reads 1.29e-11
    cfg = SuiteConfig(16, 8, 8, "complex")
    loop = resolve(cfg)
    widths = suite.layout(loop)
    offset, _ = suite.stream_slots(loop, cfg.samples, widths)["sigma_closure"]
    row = next(row for row in suite.PROPERTIES if row.key == "sigma_closure")
    stream = SampleStream(cfg.seed).split(offset).split(617 * sum(widths["sigma_closure"]))
    ((a, b),) = suite.draw_parts(loop, widths, [(row, stream, 1)])
    exact = [reference.exact_operation(loop.form, "mul", a[0], b[0])]
    forward, isometry = _errors(loop.form, exact, loop.mat.mul(a, b))
    assert forward[0] * EPS <= 1e-14
    assert isometry[0] <= 4
