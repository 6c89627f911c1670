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


@pytest.fixture
def form321r():
    from bruckloops import SignatureForm

    return SignatureForm(3, 2, 1, "real")


@pytest.fixture
def form321c():
    from bruckloops import SignatureForm

    return SignatureForm(3, 2, 1, "complex")


@pytest.fixture
def eig_calls(monkeypatch):
    """Record every eigendecomposition, including those inside spectral_map."""
    from bruckloops import linalg

    calls = []
    real = linalg.eig_hermitian

    def counting(a, tol=linalg.DEFAULT_TOL):
        calls.append(a.shape)
        return real(a, tol)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    return calls


@pytest.fixture
def meet_calls(monkeypatch):
    """Record every geometry.meet call, under whichever name a module of the
    package holds it."""
    import sys

    from bruckloops import geometry

    calls = []
    real = geometry.meet

    def counting(s1, s2, tol=geometry.DEFAULT_TOL):
        calls.append((s1.dim, s2.dim))
        return real(s1, s2, tol)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruckloops" and getattr(module, "meet", None) is real:
            monkeypatch.setattr(module, "meet", counting)
    return calls
