"""Acceptance suite.

Each test runs one verification contract at its stated tolerance over the
four reference signatures (seed 1) and prints a single pass/fail line; run
with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.

Run as a script, it prints the sha256 of the timing-stripped ``verify``
report body for the two benchmark suite configs (8 samples per row) and
the five default-count acceptance configs, at seeds 1 and 7919:

    PYTHONPATH=src python tests/test_acceptance.py

A change that claims to leave every result bit alone cites these digests
before and after.  They hold on one machine and one numpy/LAPACK build,
so they are no test.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from bruckloops.cli import SuiteConfig, main, run_verify
from bruckloops.extension import (
    ExtensionElement,
    coordinate_subspace,
    dimension_rank_report,
    extension_config,
    nonisomorphism_witness,
    realize,
    solve_translation,
)
from bruckloops.geometry import apply, subspace, subspace_distance
from bruckloops.groups import (
    SampleStream,
    SignatureForm,
    conjugate_by_phi,
    membership_residual,
    phi_from_uniforms,
    phi_width,
    polar_factorize,
    scale,
    sigma_from_uniforms,
    sigma_width,
    standard_boost,
)
from bruckloops.kernel import check_aip, check_bol, check_loop_axioms
from bruckloops.linalg import fro, worst
from bruckloops.matrixloop import MatrixLoop
from reference import check_drawn, rows, sample_tuples

SEED = 1

CONFIGS = [
    SignatureForm(3, 2, 1, "real"),
    SignatureForm(3, 2, 1, "complex"),
    SignatureForm(4, 2, 2, "real"),
    SignatureForm(4, 3, 1, "real"),
]
IDS = ["n3-21-real", "n3-21-complex", "n4-22-real", "n4-31-real"]

# transversal dimension + block dimension, doubled over the complex field
EXPECTED_DIMENSION = {
    ("n3-21-real"): 3,
    ("n3-21-complex"): 6,
    ("n4-22-real"): 6,
    ("n4-31-real"): 4,
}


def emit(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def config_id(form: SignatureForm) -> str:
    return IDS[CONFIGS.index(form)]


def strip_timing(obj):
    """A report without its wall-clock fields."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in ("seconds", "total_seconds")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_matrix_loop_closure(form):
    mloop = MatrixLoop(form)
    t0 = time.perf_counter()
    a, b = sample_tuples(mloop, SampleStream(SEED), 1000, 2)
    residual = membership_residual(mloop.mul(a, b), form).max_residual
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-9 and elapsed < 10.0
    emit(ok, f"closure[{config_id(form)}]",
         f"worst membership residual {residual:.2e} <= 1e-09 over 1000 products in {elapsed:.1f}s")
    assert residual <= 1e-9
    assert elapsed < 10.0


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_bruck_identities(form):
    loop = MatrixLoop(form)
    bol = check_drawn(check_bol, loop, SampleStream(SEED), 1000)
    aip = check_drawn(check_aip, loop, SampleStream(SEED).split(50_000_000), 1000)
    ok = bol <= 1e-8 and aip <= 1e-8
    emit(ok, f"bruck[{config_id(form)}]",
         f"bol residual {bol:.2e}, aip residual {aip:.2e} <= 1e-08")
    assert bol <= 1e-8 and aip <= 1e-8


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_conjugation_closure(form):
    (us, up), _ = rows(SampleStream(SEED), 500, sigma_width(form), phi_width(form))
    out = conjugate_by_phi(sigma_from_uniforms(form, us), phi_from_uniforms(form, up))
    residual = membership_residual(out, form).max_residual
    ok = residual <= 1e-9
    emit(ok, f"conjugation[{config_id(form)}]",
         f"worst membership residual {residual:.2e} <= 1e-09 over 500 conjugations")
    assert ok


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_factorization_roundtrip(form):
    (us, up), _ = rows(SampleStream(SEED), 500, sigma_width(form), phi_width(form))
    s1, c = sigma_from_uniforms(form, us), phi_from_uniforms(form, up)
    s = s1 @ c
    f1, f2 = polar_factorize(s, form)
    worst_comp = worst(np.abs(f1 - s1), np.abs(f2 - c))
    worst_recon = worst(fro(f1 @ f2 - s) / fro(s))
    ok = worst_comp <= 1e-8 and worst_recon <= 1e-10
    emit(ok, f"factorization[{config_id(form)}]",
         f"componentwise {worst_comp:.2e} <= 1e-08, reconstruction {worst_recon:.2e} <= 1e-10")
    assert ok


def test_coaxial_boost_product():
    form = SignatureForm(3, 2, 1, "real")
    mloop = MatrixLoop(form)
    a = standard_boost(form, math.log(2))
    out = mloop.mul(a, a)
    # doubling the rapidity: cosh(2 log 2) = 17/8, sinh(2 log 2) = 15/8
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.125, 1.875], [0.0, 1.875, 2.125]])
    gap = float(np.max(np.abs(out - expected)))
    ok = gap <= 1e-10
    emit(ok, "coaxial-boost", f"entrywise gap {gap:.2e} <= 1e-10")
    assert ok


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_sharp_transitivity(form):
    cfg = extension_config(form)
    n, k = form.n, cfg.carrier_dim
    half = n * (k + 1)
    element = (cfg.point_width, sigma_width(form))  # a transversal point, then a Sigma element
    (w1, u1, w2, u2, noise), _ = rows(SampleStream(SEED), 200, *element, *element, 2 * half)
    d1, d2 = (
        realize(ExtensionElement(cfg.point_from_uniforms(w), sigma_from_uniforms(form, u)), cfg)
        for w, u in ((w1, u1), (w2, u2))
    )
    t, rho = solve_translation(d1, d2, cfg)
    mapping = worst(subspace_distance(apply(rho, d1, t), d2))
    noise = scale(noise, -1e-10, 1e-10)
    d1p = subspace(d1.base + noise[:, :n], d1.frame + noise[:, : n * k].reshape(-1, n, k))
    d2p = subspace(d2.base + noise[:, half : half + n], d2.frame + noise[:, half : half + n * k].reshape(-1, n, k))
    tp, rhop = solve_translation(d1p, d2p, cfg)
    worst_stability = worst(np.linalg.norm(tp - t, axis=-1) + fro(rhop - rho))
    ok = mapping <= 1e-8 and worst_stability <= 1e-6
    emit(ok, f"sharp-transitivity[{config_id(form)}]",
         f"mapping residual {mapping:.2e} <= 1e-08, perturbation drift {worst_stability:.2e} <= 1e-06")
    assert mapping <= 1e-8
    assert worst_stability <= 1e-6


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_extension_axioms_and_projection(form):
    cfg = extension_config(form)
    loop = cfg
    axioms = check_drawn(check_loop_axioms, loop, SampleStream(SEED), 500)
    mloop = MatrixLoop(form)
    e1, e2 = sample_tuples(loop, SampleStream(SEED).split(90_000_000), 200, 2)
    prod = cfg.mul(e1, e2)
    worst_proj = worst(fro(prod.rho - mloop.mul(e1.rho, e2.rho)))
    ok = axioms <= 1e-8 and worst_proj <= 1e-9
    emit(ok, f"extension-axioms[{config_id(form)}]",
         f"axiom residual {axioms:.2e} <= 1e-08 over 500 samples, "
         f"direction projection gap {worst_proj:.2e} <= 1e-09")
    assert axioms <= 1e-8
    assert worst_proj <= 1e-9


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_manifold_dimension(form):
    cfg = extension_config(form)
    report = dimension_rank_report(cfg, points=20, stream=SampleStream(SEED))
    expected = EXPECTED_DIMENSION[config_id(form)]
    ok = report.rank == expected and report.gap_fraction >= 0.9
    emit(ok, f"dimension[{config_id(form)}]",
         f"measured rank {report.rank} == {expected}, gap at {report.gap_fraction:.0%} of 20 points")
    assert report.rank == expected
    assert report.gap_fraction >= 0.9


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_transversal_witness(form):
    boosted = apply(standard_boost(form, math.log(2)), coordinate_subspace(form, 2))
    cfg = extension_config(form, wtilde=boosted)
    report = nonisomorphism_witness(cfg)
    ok = report.displacement > 1e-3
    emit(ok, f"witness[{config_id(form)}]", f"constructed displacement {report.displacement:.3e} > 1e-03")
    assert ok


def test_report_determinism(tmp_path):
    config = {
        "n": 3, "p1": 2, "p2": 1, "field": "real", "seed": SEED,
        "samples": {
            "loop_axioms": 40, "sigma_closure": 40, "bol": 40, "aip": 40,
            "left_a": 20, "conjugation_closure": 40, "factorization": 40,
            "transversality": 40, "ext_loop_axioms": 25, "ext_infinity_compat": 25,
            "ext_bol": 10, "ext_aip": 10, "solve_translation": 20,
            "dimension_points": 6,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def run(name):
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out.read_bytes()

    first, second = run("r1.json"), run("r2.json")
    a = json.dumps(strip_timing(json.loads(first)), sort_keys=True).encode()
    b = json.dumps(strip_timing(json.loads(second)), sort_keys=True).encode()
    ok = a == b
    emit(ok, "determinism", f"two verify runs agree on {len(a)} bytes modulo timing fields")
    assert ok


# Label -> (SuiteConfig settings, samples per row, or None for the default counts).
DIGEST_CONFIGS = {
    "suite-321c": (dict(n=3, p1=2, p2=1, field_name="complex"), 8),
    "suite-422r-c2": (dict(n=4, p1=2, p2=2, carrier=2, wtilde=f"boost:{math.log(2)!r}"), 8),
    "default-321r": (dict(n=3, p1=2, p2=1), None),
    "default-321c": (dict(n=3, p1=2, p2=1, field_name="complex"), None),
    "default-422r": (dict(n=4, p1=2, p2=2), None),
    "default-431r": (dict(n=4, p1=3, p2=1), None),
    "default-422r-c2": (dict(n=4, p1=2, p2=2, carrier=2, wtilde=f"boost:{math.log(2)!r}"), None),
}


def report_digest(settings: dict, samples, seed: int) -> str:
    """sha256 of the timing-stripped report body, as the benchmark reads it."""
    cfg = SuiteConfig(seed=seed, **settings)
    if samples is not None:
        cfg.samples |= {name: samples for name in cfg.samples if name != "dimension_points"}
    body = json.dumps(strip_timing(run_verify(cfg)), sort_keys=True, indent=2).encode("utf-8")
    return hashlib.sha256(body).hexdigest()


if __name__ == "__main__":
    for label, (settings, samples) in DIGEST_CONFIGS.items():
        for seed in (1, 7919):
            print(f"{label:16s} seed {seed:<5d} {report_digest(settings, samples, seed)}")
