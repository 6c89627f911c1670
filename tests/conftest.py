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
