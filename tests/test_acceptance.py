"""Acceptance suite.

Each test runs one verification contract at its stated tolerance over the
four reference signatures (seed 1) and prints a single pass/fail line; run
with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import json
import math
import time

import numpy as np
import pytest

from bruckloops.cli import main
from bruckloops.extension import (
    coordinate_subspace,
    dimension_rank_report,
    ext_loop_interface,
    ext_mul,
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
    polar_factorize,
    sample_phi,
    sample_sigma,
    standard_boost,
)
from bruckloops.kernel import check_aip, check_bol, check_loop_axioms
from bruckloops.linalg import fro
from bruckloops.matrixloop import MatrixLoop

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


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_matrix_loop_closure(form):
    mloop = MatrixLoop(form)
    stream = SampleStream(SEED)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        a, stream = mloop.sample(stream)
        b, stream = mloop.sample(stream)
        out = mloop.mul(a, b)
        worst = max(worst, membership_residual(out.matrix, "Sigma", form).max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    emit(ok, f"closure[{config_id(form)}]",
         f"worst membership residual {worst:.2e} <= 1e-09 over 1000 products in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_bruck_identities(form):
    loop = MatrixLoop(form).loop_interface()
    bol = check_bol(loop, SampleStream(SEED), 1000, 1e-8)
    aip = check_aip(loop, SampleStream(SEED).split(50_000_000), 1000, 1e-8)
    ok = bol.passed and aip.passed
    emit(ok, f"bruck[{config_id(form)}]",
         f"bol residual {bol.max_residual:.2e}, aip residual {aip.max_residual:.2e} <= 1e-08")
    assert bol.passed and aip.passed


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_conjugation_closure(form):
    stream = SampleStream(SEED)
    worst = 0.0
    for _ in range(500):
        a, stream = sample_sigma(form, stream)
        b, stream = sample_phi(form, stream)
        out = conjugate_by_phi(a, b)
        worst = max(worst, membership_residual(out.matrix, "Sigma", form).max_residual)
    ok = worst <= 1e-9
    emit(ok, f"conjugation[{config_id(form)}]",
         f"worst membership residual {worst:.2e} <= 1e-09 over 500 conjugations")
    assert ok


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_factorization_roundtrip(form):
    stream = SampleStream(SEED)
    worst_comp = 0.0
    worst_recon = 0.0
    for _ in range(500):
        s1, stream = sample_sigma(form, stream)
        c, stream = sample_phi(form, stream)
        s = s1.matrix @ c.matrix
        f1, f2 = polar_factorize(s, form)
        worst_comp = max(
            worst_comp,
            float(np.max(np.abs(f1.matrix - s1.matrix))),
            float(np.max(np.abs(f2.matrix - c.matrix))),
        )
        worst_recon = max(worst_recon, fro(f1.matrix @ f2.matrix - s) / fro(s))
    ok = worst_comp <= 1e-8 and worst_recon <= 1e-10
    emit(ok, f"factorization[{config_id(form)}]",
         f"componentwise {worst_comp:.2e} <= 1e-08, reconstruction {worst_recon:.2e} <= 1e-10")
    assert ok


def test_coaxial_boost_product():
    form = SignatureForm(3, 2, 1, "real")
    mloop = MatrixLoop(form)
    a = standard_boost(form, math.log(2))
    out = mloop.mul(a, a).matrix
    # doubling the rapidity: cosh(2 log 2) = 17/8, sinh(2 log 2) = 15/8
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.125, 1.875], [0.0, 1.875, 2.125]])
    gap = float(np.max(np.abs(out - expected)))
    ok = gap <= 1e-10
    emit(ok, "coaxial-boost", f"entrywise gap {gap:.2e} <= 1e-10")
    assert ok


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_sharp_transitivity(form):
    cfg = extension_config(form)
    loop = ext_loop_interface(cfg)
    stream = SampleStream(SEED)
    worst = 0.0
    worst_stability = 0.0
    for _ in range(200):
        e1, stream = loop.sample(stream)
        e2, stream = loop.sample(stream)
        d1, d2 = realize(e1, cfg), realize(e2, cfg)
        t, rho = solve_translation(d1, d2, cfg)
        worst = max(worst, subspace_distance(apply(rho.matrix, d1, t), d2))
        noise, stream = stream.next_uniforms(2 * form.n * (d1.dim + 1), -1e-10, 1e-10)
        half = noise.size // 2
        d1p = subspace(d1.base + noise[:form.n], d1.frame + np.resize(noise[:half], d1.frame.shape))
        d2p = subspace(d2.base + noise[half:half + form.n],
                       d2.frame + np.resize(noise[half:], d2.frame.shape))
        tp, rhop = solve_translation(d1p, d2p, cfg)
        worst_stability = max(
            worst_stability, float(np.linalg.norm(tp - t)) + fro(rhop.matrix - rho.matrix)
        )
    ok = worst <= 1e-8 and worst_stability <= 1e-6
    emit(ok, f"sharp-transitivity[{config_id(form)}]",
         f"mapping residual {worst:.2e} <= 1e-08, perturbation drift {worst_stability:.2e} <= 1e-06")
    assert worst <= 1e-8
    assert worst_stability <= 1e-6


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_extension_axioms_and_projection(form):
    cfg = extension_config(form)
    loop = ext_loop_interface(cfg)
    axioms = check_loop_axioms(loop, SampleStream(SEED), 500, 1e-8)
    mloop = MatrixLoop(form)
    stream = SampleStream(SEED).split(90_000_000)
    worst_proj = 0.0
    for _ in range(200):
        e1, stream = loop.sample(stream)
        e2, stream = loop.sample(stream)
        prod = ext_mul(e1, e2, cfg)
        worst_proj = max(worst_proj, fro(prod.rho.matrix - mloop.mul(e1.rho, e2.rho).matrix))
    ok = axioms.passed and worst_proj <= 1e-9
    emit(ok, f"extension-axioms[{config_id(form)}]",
         f"axiom residual {axioms.max_residual:.2e} <= 1e-08 over 500 samples, "
         f"direction projection gap {worst_proj:.2e} <= 1e-09")
    assert axioms.passed
    assert worst_proj <= 1e-9


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_manifold_dimension(form):
    cfg = extension_config(form)
    report = dimension_rank_report(cfg, points=20, stream=SampleStream(SEED), gap=1e-4)
    expected = EXPECTED_DIMENSION[config_id(form)]
    ok = report.rank == expected and report.gap_fraction >= 0.9
    emit(ok, f"dimension[{config_id(form)}]",
         f"measured rank {report.rank} == {expected}, gap at {report.gap_fraction:.0%} of 20 points")
    assert report.rank == expected
    assert report.gap_fraction >= 0.9


@pytest.mark.parametrize("form", CONFIGS, ids=IDS)
def test_transversal_witness(form):
    boosted = apply(standard_boost(form, math.log(2)).matrix, coordinate_subspace(form, 2))
    cfg = extension_config(form, wtilde=boosted)
    report = nonisomorphism_witness(cfg, SampleStream(SEED), budget=100, threshold=1e-3)
    ok = report.displacement > 1e-3 and report.samples_used <= 100
    emit(ok, f"witness[{config_id(form)}]",
         f"displacement {report.displacement:.3e} > 1e-03 after {report.samples_used} samples")
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

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in ("seconds", "total_seconds")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    first, second = run("r1.json"), run("r2.json")
    a = json.dumps(strip(json.loads(first)), sort_keys=True).encode()
    b = json.dumps(strip(json.loads(second)), sort_keys=True).encode()
    ok = a == b
    emit(ok, "determinism", f"two verify runs agree on {len(a)} bytes modulo timing fields")
    assert ok
