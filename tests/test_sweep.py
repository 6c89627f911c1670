"""The signature sweep: ``verify`` passes on every form with n = 3..6 and
p2 <= n/2, both fields, both carriers, the standard and the ``boost:3``
transversal, seed 1, 8 samples per row and 20 dimension points, under the
fixed bounds.

Run as a script, it prints the smallest margin log10(tolerance / residual)
of every report entry over the same sweep extended to n = 7, and the
config that set it:

    PYTHONPATH=src python tests/test_sweep.py
"""

import math

import pytest

from bruckloops import suite
from bruckloops.cli import DEFAULT_SAMPLES, SuiteConfig, resolve, run_verify
from bruckloops.groups import MEMBERSHIP_TOLERANCE, SampleStream
from bruckloops.kernel import drive
from bruckloops.linalg import worst

TRANSVERSALS = ("standard", "boost:3")


def configs(largest_n: int) -> list:
    return [
        (n, n - p2, p2, field, carrier, wtilde)
        for n in range(3, largest_n + 1)
        for p2 in range(1, n // 2 + 1)
        for field in ("real", "complex")
        for carrier in (1, 2)
        for wtilde in TRANSVERSALS
    ]


def sweep_report(n, p1, p2, field, carrier, wtilde) -> dict:
    samples = {key: 8 for key in DEFAULT_SAMPLES} | {"dimension_points": 20}
    cfg = SuiteConfig(n=n, p1=p1, p2=p2, field_name=field, carrier=carrier, wtilde=wtilde, seed=1, samples=samples)
    return run_verify(cfg)


def test_the_sweep_has_64_configs():
    assert len(configs(6)) == 64


@pytest.mark.parametrize("config", configs(6), ids=lambda c: "-".join(map(str, c)))
def test_every_signature_passes(config):
    report = sweep_report(*config)
    failed = [e for e in report["properties"] if e["required"] and not e["pass"]]
    assert not failed
    assert report["dimension"]["pass"], report["dimension"]


def test_membership_rows_pass_at_default_counts_on_16_8_8_complex():
    # the default-count sigma_closure (1,000 samples) and
    # ext_infinity_compat (500) rows of (16,8,8) complex, seed 1, each from
    # its own slot of the stream as verify draws it: 3.7e-9 and 2.4e-9 with
    # the half-angle on S S* and the lift through I - X* X, now 4.0e-11 and
    # 3.3e-12 against the membership bound 1e-9
    cfg = SuiteConfig(16, 8, 8, "complex")
    loop = resolve(cfg)
    widths = suite.layout(loop)
    slots = suite.stream_slots(loop, cfg.samples, widths)
    rows = [row for row in suite.PROPERTIES if row.key in ("sigma_closure", "ext_infinity_compat")]
    slices = [(row, SampleStream(cfg.seed).split(slots[row.key][0]), cfg.samples[row.key]) for row in rows]
    outcomes = drive([row.steps(loop, *parts) for row, parts in zip(rows, suite.draw_parts(loop, widths, slices))])
    for row, outcome in zip(rows, outcomes):
        (residuals,), _ = outcome.value
        assert len(residuals) == cfg.samples[row.key]
        assert worst(residuals) <= MEMBERSHIP_TOLERANCE, row.key


def smallest_margins(largest_n: int = 7) -> dict:
    """Entry -> (smallest margin, required, config that set it)."""
    worst = {}
    for config in configs(largest_n):
        for e in sweep_report(*config)["properties"]:
            residual = e["max_residual"]
            margin = math.log10(e["tolerance"] / residual) if residual > 0 else math.inf
            if e["property"] not in worst or margin < worst[e["property"]][0]:
                worst[e["property"]] = (margin, e["required"], config)
    return worst


if __name__ == "__main__":
    for name, (margin, required, config) in sorted(smallest_margins().items()):
        print(f"{name:30s} {margin:6.2f}  {'required' if required else 'informational':13s} {config}")
