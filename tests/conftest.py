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


@pytest.fixture
def eig_calls(monkeypatch):
    """Record every eigendecomposition, including those inside spectral_map,
    under whichever name a module of the package holds eig_hermitian."""
    import sys

    from bruckloops import linalg

    calls = []
    real = linalg.eig_hermitian

    def counting(a):
        calls.append(a.shape)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruckloops" and getattr(module, "eig_hermitian", None) is real:
            monkeypatch.setattr(module, "eig_hermitian", counting)
    return calls
