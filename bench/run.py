"""bruckloops benchmark.

    python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json and bench/config.json):

* ``suite-321c``    -- ``cli.run_verify`` on (3,2,1) complex, carrier 1;
* ``suite-422r-c2`` -- ``cli.run_verify`` on (4,2,2) real, carrier 2, boosted
  transversal;
* ``cli-oneshot``   -- a closed loop of in-process ``cli.main`` calls on
  (4,3,1) real: matrix ``mul``, extension ``mul``, ``factor``, ``sample``
  and ``witness``.

One process, one client, BLAS pinned to one thread.  The run first times
set-up in fresh interpreters, then calls the program in a closed loop for
``--seconds``, bracketing every unit of work with the host reference kernel
(bench/hostref.py).  With ``--trace 1`` it alternates untraced and traced
units and reports per-layer metrics instead of the end-to-end ones.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when
that line is printed, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "suite_report.schema.json"
WORKDIR = ROOT / ".bench_run"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import hostref  # noqa: E402
from tracer import Tracer  # noqa: E402

TRACE_TARGETS = {
    "linalg": ["eig_hermitian", "spectral_map", "orthonormalize"],
    "matrixloop": ["MatrixLoop.mul", "MatrixLoop.left_divide", "MatrixLoop.right_divide"],
    "groups": ["sample_sigma", "sample_phi", "polar_factorize", "membership_residual", "conjugate_by_phi"],
    "geometry": ["meet", "subspace", "apply", "subspace_distance", "transversality_check"],
    "extension": [
        "ext_mul", "realize", "lift_from_infinity", "omega",
        "solve_translation", "extension_config", "dimension_rank_report",
    ],
    "kernel": ["check_loop_axioms", "check_bol", "check_aip", "check_left_a"],
    "cli": ["run_verify", "main"],
}
COUNTED = ["numpy.svd", "numpy.det", "numpy.inv"]
EIG = "linalg.eig_hermitian"

# Report entries whose cli.run_verify timer is shared: the benchmark
# publishes the sum under the first name (see config.json notes).
COMBINED = {
    "factorization_recovery": "factorization",
    "factorization_reconstruction": "factorization",
    "solve_translation": "solve_translation",
    "solve_translation_stability": "solve_translation",
}
PROPERTY_TIMES = [
    "loop_axioms", "sigma_closure", "bol", "aip", "left_a", "conjugation_closure",
    "factorization", "transversality", "ext_loop_axioms", "ext_infinity_compat",
    "ext_bol", "ext_aip", "solve_translation", "dimension",
]
PROPERTY_RESIDUALS = [
    "loop_axioms", "sigma_closure", "bol", "aip", "left_a", "conjugation_closure",
    "factorization_recovery", "factorization_reconstruction", "transversality",
    "ext_loop_axioms", "ext_infinity_compat", "ext_bol", "ext_aip",
    "solve_translation", "solve_translation_stability",
]
SUBCOMMANDS = ["mul", "mul-extension", "factor", "sample", "witness"]

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
{snippet}t1 = time.perf_counter()
import hostref
print(json.dumps({{"setup_s": t1 - t0, "ref_s": hostref.measure()}}))
"""


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACE_TARGETS.items() for fn in fns]


def layer_key(name: str) -> str:
    """Metric prefix of a traced name: ``matrixloop.MatrixLoop.mul`` is
    published as ``matrixloop.mul``."""
    mod, _, rest = name.partition(".")
    return f"{mod}.{rest.rsplit('.', 1)[-1]}"


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for mod, fns in TRACE_TARGETS.items():
        for fn in fns:
            key = layer_key(f"{mod}.{fn}")
            names += [f"{key}.calls", f"{key}.self_s"]
        if mod == "linalg":
            names.append("linalg.eig_hermitian.us_per_call")
        if mod == "matrixloop":
            names.append("matrixloop.eig_per_op")
        if mod == "geometry":
            names += [f"{c}.calls" for c in COUNTED]
    names += [f"cli.property.{p}.s" for p in PROPERTY_TIMES]
    names += [f"cli.property.{p}.residual" for p in PROPERTY_RESIDUALS]
    names += [f"cli.{c}.ms.p50" for c in SUBCOMMANDS]
    names += [f"{mod}.errors" for mod in TRACE_TARGETS]
    names.append("trace.overhead")
    return names


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup(snippet: str, repeats: int, nominal: float) -> list[tuple[float, float]]:
    """(raw, host-corrected) set-up seconds from ``repeats`` fresh interpreters."""
    out = []
    code = SETUP_CHILD.format(snippet=snippet)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["setup_s"] * nominal / rec["ref_s"]))
    return out


@dataclass
class Unit:
    """One checked unit of work with its host-correction factor."""

    index: int
    traced: bool
    calls: list
    factor: float
    outcome: object
    totals: object = None

    @property
    def raw_s(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.factor


def run_units(workload, seconds: float, tracer, nominal: float, refs: list) -> list[Unit]:
    """Closed loop of units for ``seconds`` (and at least the workload's
    minimum), each bracketed by reference-kernel runs.  With a tracer every
    index runs once untraced and once traced."""
    units = []
    refs.append(hostref.measure())
    start = time.perf_counter()
    durations = []
    index = 0
    while True:
        t_unit = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
                try:
                    calls = workload.unit(index)
                finally:
                    tracer.restore()
                totals = tracer.take(nested=[(EIG, "matrixloop.")])
            else:
                calls, totals = workload.unit(index), None
            refs.append(hostref.measure())
            factor = nominal / ((refs[-2] + refs[-1]) / 2.0)
            outcome = workload.check(index, calls)
            units.append(Unit(index, traced, calls, factor, outcome, totals))
        durations.append(time.perf_counter() - t_unit)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= workload.min_units and elapsed + statistics.median(durations) > seconds:
            return units


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(units, setup) -> dict:
    """name -> (value, unit, samples, raw value)."""
    lat = [c.seconds * u.factor * 1e3 for u in units for c in u.calls]
    raw = [c.seconds * 1e3 for u in units for c in u.calls]
    margins = [u.outcome.margin_digits for u in units]
    return {
        "setup_s": (
            statistics.median(c for _, c in setup), "s", len(setup),
            statistics.median(r for r, _ in setup),
        ),
        "call_ms.p50": (statistics.median(lat), "ms", len(lat), statistics.median(raw)),
        "call_ms.p90": (percentile(lat, 90), "ms", len(lat), percentile(raw, 90)),
        "calls_per_s": (len(lat) * 1e3 / sum(lat), "1/s", len(lat), len(raw) * 1e3 / sum(raw)),
        "margin_digits": (min(margins), "digits", len(margins), min(margins)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, None,
        ),
    }


def per_layer(units, pool_size: int) -> dict:
    """name -> (value, unit, samples, raw value); raw is None for counts.

    Counts are means over the traced units of the first pass through the
    workload's inputs, so two runs of one seed give identical counts; times
    are medians over every traced unit."""
    plain = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]
    once = [u for u in traced if u.index < pool_size]
    out = {}

    def med(values):
        return statistics.median(values) if values else 0.0

    for name in traced_names():
        key = layer_key(name)
        calls = [u.totals.calls.get(name, 0) for u in once]
        out[f"{key}.calls"] = (statistics.fmean(calls), "count", len(once), None)
        self_s = [u.totals.self_s.get(name, 0.0) * u.factor for u in traced]
        out[f"{key}.self_s"] = (
            med(self_s), "s", len(traced), med([u.totals.self_s.get(name, 0.0) for u in traced]),
        )
    eig_us = [
        u.totals.self_s.get(EIG, 0.0) * u.factor * 1e6 / u.totals.calls[EIG]
        for u in traced if u.totals.calls.get(EIG)
    ]
    out["linalg.eig_hermitian.us_per_call"] = (med(eig_us), "us", len(eig_us), None)
    ml_calls = sum(v for u in once for n, v in u.totals.calls.items() if n.startswith("matrixloop."))
    ml_eigs = sum(u.totals.nested.get((EIG, "matrixloop."), 0) for u in once)
    out["matrixloop.eig_per_op"] = (ml_eigs / ml_calls if ml_calls else 0.0, "ratio", len(once), None)
    for c in COUNTED:
        out[f"{c}.calls"] = (statistics.fmean(u.totals.counted[c] for u in once), "count", len(once), None)

    reports = [u.calls[0].output for u in plain if isinstance(u.calls[0].output, dict)]
    for p in PROPERTY_TIMES:
        vals = []
        for u in plain:
            rep = u.calls[0].output
            if not isinstance(rep, dict):
                continue
            if p == "dimension":
                secs = rep["dimension"]["seconds"]
            else:
                secs = sum(
                    e["seconds"] for e in rep["properties"]
                    if COMBINED.get(e["property"], e["property"]) == p
                )
            vals.append(secs * u.factor)
        out[f"cli.property.{p}.s"] = (med(vals), "s", len(vals), None)
    first = reports[0] if reports else {"properties": []}
    residual = {e["property"]: e["max_residual"] for e in first["properties"]}
    for p in PROPERTY_RESIDUALS:
        out[f"cli.property.{p}.residual"] = (float(residual.get(p, 0.0)), "1", len(reports), None)
    for c in SUBCOMMANDS:
        vals = [k.seconds * u.factor * 1e3 for u in plain for k in u.calls if k.label == c]
        out[f"cli.{c}.ms.p50"] = (med(vals), "ms", len(vals), None)
    for mod in TRACE_TARGETS:
        errs = [sum(v for n, v in u.totals.errors.items() if n.startswith(mod + ".")) for u in once]
        out[f"{mod}.errors"] = (statistics.fmean(errs), "count", len(once), None)
    overhead = med([u.corrected_s for u in traced]) / med([u.corrected_s for u in plain])
    out["trace.overhead"] = (overhead, "ratio", len(traced), None)
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_program():
    """Import the program from this checkout's ``src``, or exit 2."""
    if not (SRC / "bruckloops" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no bruckloops sources or report schema under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bruckloops.cli as cli
    import jsonschema

    if Path(cli.__file__).resolve().parent != SRC / "bruckloops":
        print(f"error: bruckloops imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    return cli, jsonschema.Draft7Validator(schema)


def main(argv=None) -> int:
    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="bruckloops benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli, validator = load_program()
    import workloads

    spec = config["workloads"][args.workload]
    nominal = config["ref_nominal_s"]
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        if spec["kind"] == "suite":
            workload = workloads.SuiteWorkload(spec, args.seed, cli, validator)
        else:
            workdir.mkdir(parents=True, exist_ok=True)
            workload = workloads.OneShotWorkload(spec, args.seed, cli, workdir)
        setup = [] if args.trace else measure_setup(
            workload.setup_snippet(), config["setup_repeats"], nominal
        )
        refs = []
        tracer = Tracer(traced_names(), COUNTED) if args.trace else None
        units = run_units(workload, args.seconds, tracer, nominal, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    attempted = sum(u.outcome.attempted for u in units)
    failed = sum(u.outcome.failed for u in units)
    metrics = per_layer(units, workload.pool_size) if args.trace else end_to_end(units, setup)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env_stamp(), sort_keys=True))
    print(
        f"host.ref_s: {statistics.median(refs)!r} (median of {len(refs)}; "
        f"ref_nominal_s {nominal!r})"
    )
    if tracer and tracer.missing:
        print("trace: not defined by the program, reading 0: " + ", ".join(tracer.missing))
    print(f"checks: attempted {attempted}, failed {failed}, fail_frac {failed / attempted!r}")
    reasons = collections.Counter(r for u in units for r in u.outcome.reasons)
    for reason, count in sorted(reasons.items()):
        print(f"failed {count}x: {reason}", file=sys.stderr)
    for name, (value, unit, n, raw) in metrics.items():
        extra = f"; raw {raw!r} {unit}" if raw is not None else ""
        print(f"  {name} = {value!r} {unit} (n={n}{extra})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit, _, _) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
