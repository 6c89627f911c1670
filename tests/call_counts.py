"""Print the calls one bench-count verify makes: its primitive calls, its
eigendecompositions and its ``numpy.linalg.solve`` calls, and the
eigendecompositions per loop operation.

A bench-count verify draws 8 samples a row and 20 dimension points.  A
primitive call is one call the kernel's driver makes for a group of
requests: a lift (``groups.positive_factor``), a distance or a membership
reading.  Eigendecompositions are counted as ``linalg.eig_hermitian``
calls, which take a 1 x 1 matrix in closed form, and as
``numpy.linalg.eigh`` calls.  A loop operation is one product or division
a row asks for, and the eigendecompositions per loop operation are those
made inside lift calls over them.

Run from anywhere: ``python tests/call_counts.py``; it imports the package
from the ``src/`` beside it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from bruckloops import cli, linalg, matrixloop  # noqa: E402
from bruckloops.extension import ExtensionConfig  # noqa: E402
from bruckloops.matrixloop import MatrixLoop  # noqa: E402

VERIFIES = {
    "(3,2,1) complex": dict(n=3, p1=2, p2=1, field_name="complex"),
    "(4,2,2) real carrier 2 boost:ln 2": dict(n=4, p1=2, p2=2, carrier=2, wtilde=f"boost:{math.log(2)!r}"),
}
SAMPLES, POINTS = 8, 20


def counts(settings: dict) -> Counter:
    """The calls of one bench-count verify of ``settings``."""
    seen, inside, undo = Counter(), [False], []

    def patch(owner, name, wrapper):
        real = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        undo.append((owner, name, real))
        static = isinstance(real, staticmethod)
        wrapped = wrapper(real.__func__ if static else real)
        setattr(owner, name, staticmethod(wrapped) if static else wrapped)

    def counting(key):
        return lambda real: lambda *args: seen.update([key]) or real(*args)

    def lift(real):
        def lifted(form, frames):
            seen["lift"] += 1
            inside[0] = True
            try:
                return real(form, frames)
            finally:
                inside[0] = False

        return lifted

    def operations(real):
        def steps(loop, calls):
            seen["loop operations"] += sum(operation != "coordinates" for operation, _ in calls)
            return real(loop, calls)

        return steps

    def eig(real):
        def counted(a):
            seen["eig_hermitian"] += 1
            seen["eig_hermitian in lifts"] += inside[0]
            return real(a)

        return counted

    def readings(real):
        def run(loop, requests):
            seen["distance"] += loop.primitive[requests[0][1]] == "distance"
            return real(loop, requests)

        return run

    real_eig = linalg.eig_hermitian
    patch(matrixloop, "positive_factor", lift)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "bruckloops"]:
        if getattr(module, "eig_hermitian", None) is real_eig:
            patch(module, "eig_hermitian", eig)
    patch(np.linalg, "eigh", counting("numpy.linalg.eigh"))
    patch(np.linalg, "solve", counting("numpy.linalg.solve"))
    for cls in (MatrixLoop, ExtensionConfig):
        patch(cls, "lift_steps", operations)
    patch(ExtensionConfig, "run", readings)
    patch(MatrixLoop, "distance", counting("distance"))
    patch(MatrixLoop, "membership", counting("membership"))
    try:
        cfg = cli.SuiteConfig(seed=1, **settings)
        cfg.samples |= {key: SAMPLES for key in cfg.samples} | {"dimension_points": POINTS}
        cli.run_verify(cfg)
    finally:
        for owner, name, real in reversed(undo):
            setattr(owner, name, real)
    return seen


def main() -> None:
    for name, settings in VERIFIES.items():
        seen = counts(settings)
        primitive = seen["lift"] + seen["distance"] + seen["membership"]
        print(f"bench-count verify, {name}:")
        print(f"  primitive calls      {primitive:3d} ({seen['lift']} lift, {seen['distance']} distance, "
              f"{seen['membership']} membership)")
        print(f"  eig_hermitian        {seen['eig_hermitian']:3d} ({seen['eig_hermitian in lifts']} in lifts)")
        print(f"  numpy.linalg.eigh    {seen['numpy.linalg.eigh']:3d}")
        print(f"  numpy.linalg.solve   {seen['numpy.linalg.solve']:3d}")
        per = seen["eig_hermitian in lifts"] / seen["loop operations"]
        print(f"  eigendecompositions per loop operation {per:.2f} "
              f"({seen['eig_hermitian in lifts']} over {seen['loop operations']} operations)")


if __name__ == "__main__":
    main()
