import sys

import numpy as np
import pytest


def rotation(n, i, j, theta, dtype=np.float64):
    """Plane rotation by theta in coordinates (i, j), identity elsewhere."""
    r = np.eye(n, dtype=dtype)
    c, s = np.cos(theta), np.sin(theta)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def boost3(t):
    """Hand-built 3x3 hyperbolic boost mixing coordinates 2 and 3."""
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, s, c]])


def one(drawn):
    """The single element of a stacked draw of one, with the advanced stream."""
    stack, stream = drawn
    return stack[0], stream


@pytest.fixture
def form321r():
    from bruckloops.groups import SignatureForm

    return SignatureForm(3, 2, 1, "real")


@pytest.fixture
def form321c():
    from bruckloops.groups import SignatureForm

    return SignatureForm(3, 2, 1, "complex")


def patch_bindings(monkeypatch, name: str, real, replacement) -> None:
    """Bind ``replacement`` in place of ``real`` under ``name`` in every
    package module that holds ``real`` by that name."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "bruckloops" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def no_draw(monkeypatch):
    """Make every draw of uniforms fail, under whichever name a module of
    the package holds unit_uniforms."""
    from bruckloops import groups

    def drew(*args):
        raise AssertionError("drew uniforms")

    patch_bindings(monkeypatch, "unit_uniforms", groups.unit_uniforms, drew)


@pytest.fixture
def eig_calls(monkeypatch):
    """Record every eigendecomposition, including those inside spectral_map,
    under whichever name a module of the package holds eig_hermitian."""
    from bruckloops import linalg

    calls = []
    real = linalg.eig_hermitian

    def counting(a):
        calls.append(a.shape)
        return real(a)

    patch_bindings(monkeypatch, "eig_hermitian", real, counting)
    return calls
