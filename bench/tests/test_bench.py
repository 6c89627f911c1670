"""Self-tests of the benchmark: tracer hygiene, repeatable counts, declared
metric names, the recorded workload rationale and layer map, and refusal to
run without the program.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import bruckloops.cli as cli  # noqa: E402
import bruckloops.matrixloop as matrixloop  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((BENCH / "config.json").read_text())
METRIC_LINE = re.compile(r"^  (\S+) = ")


def small_config(seed: int = 5):
    cfg = cli.SuiteConfig(n=3, p1=2, p2=1, seed=seed)
    for name in cfg.samples:
        cfg.samples[name] = 2
    return cfg


def bindings() -> dict:
    """Every name bound in the package's modules, the MatrixLoop class and
    numpy.linalg, mapped to the object it holds."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "bruckloops" or mod_name.startswith("bruckloops.")):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = value
    for key, value in vars(matrixloop.MatrixLoop).items():
        out[("MatrixLoop", key)] = value
    for key in ("svd", "det", "inv"):
        out[("numpy.linalg", key)] = getattr(np.linalg, key)
    return out


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


_RUNS = {}


def bench_result(workload: str, trace: int, attempt: int = 0):
    key = (workload, trace, attempt)
    if key not in _RUNS:
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-1]), lines[:-1])
    return _RUNS[key]


def test_tracer_rebinds_and_restores_every_name():
    before = bindings()
    tracer = Tracer(run.traced_names(), run.COUNTED)
    with tracer:
        during = bindings()
        changed = {k for k in before if during.get(k) is not before[k]}
        cli.run_verify(small_config())
    after = bindings()
    # imported-by-value copies are rebound too, not only the defining module
    assert ("bruckloops.matrixloop", "spectral_map") in changed
    assert ("bruckloops.cli", "check_bol") in changed
    assert ("MatrixLoop", "mul") in changed
    assert ("numpy.linalg", "svd") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tracer.take()
    assert totals.calls["linalg.eig_hermitian"] > 0
    assert totals.calls["cli.run_verify"] == 1


def test_tracer_restores_after_an_exception():
    before = bindings()
    with pytest.raises(ValueError):
        with Tracer(run.traced_names(), run.COUNTED):
            raise ValueError("boom")
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_skips_targets_the_program_no_longer_defines():
    before = bindings()
    tracer = Tracer(["linalg.no_such_function", "matrixloop.MatrixLoop.no_such_method", "linalg.eig_hermitian"])
    with tracer:
        assert tracer.missing == ["linalg.no_such_function", "matrixloop.MatrixLoop.no_such_method"]
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_in_process():
    results = []
    for _ in range(2):
        tracer = Tracer(run.traced_names(), run.COUNTED)
        with tracer:
            cli.run_verify(small_config())
        totals = tracer.take(nested=[(run.EIG, "matrixloop.")])
        results.append((totals.calls, totals.counted, totals.errors, totals.nested))
    assert results[0] == results[1]


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for attempt in (0, 1):
        result, _ = bench_result(workload, 1, attempt)
        counts.append({k: v for k, v in result["metrics"].items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig_hermitian.calls"]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_are_declared(workload, trace):
    result, lines = bench_result(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {m.group(1) for m in map(METRIC_LINE.match, lines) if m}
    assert printed == set(declared)


def test_benchmark_json_records_rationale_and_layer_map():
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(CONFIG["workloads"])
    assert all(w["why"].strip() and "\n" not in w["why"] for w in DECLARED["workloads"])
    assert set(CONFIG["layers"]) == set(run.TRACE_TARGETS)
    for layer, entry in CONFIG["layers"].items():
        assert entry["functions"] == run.TRACE_TARGETS[layer]
        assert entry["moves"].strip()
    assert [m["name"] for m in DECLARED["per_layer"]] == run.per_layer_names()
    assert CONFIG["default_seed"] != CONFIG["held_out_seed"]
    assert CONFIG["ref_nominal_s"] > 0
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli-oneshot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
