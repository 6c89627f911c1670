"""The benchmark's workloads: what one unit of work is, how it is timed and
how its outputs are checked.

Every workload is one client calling the program in a closed loop.  A suite
workload's unit is one ``cli.run_verify`` call; the one-shot workload's unit
is one pass through a fixed mix of five in-process ``cli.main`` calls.
Outputs are checked outside the timed region, and every failed check is
counted, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIMING_KEYS = ("seconds", "total_seconds")


@dataclass
class Call:
    """One timed call into the program."""

    label: str
    seconds: float
    output: object = None
    exit_code: int | None = None
    error: str | None = None


@dataclass
class Outcome:
    """Checks of one unit: operations attempted and failed, the accuracy
    headroom ``min log10(tolerance / residual)`` of the unit, and one line
    per failure saying why."""

    attempted: int
    failed: int
    margin_digits: float
    reasons: tuple = ()


def margin(tolerance: float, residual: float) -> float:
    """Digits of headroom; an exact zero residual has unbounded headroom."""
    return math.inf if residual == 0.0 else math.log10(tolerance / residual)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def body_bytes(report: dict) -> bytes:
    return json.dumps(strip_timing(report), sort_keys=True, indent=2).encode("utf-8")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


class SuiteWorkload:
    """``cli.run_verify`` on one signature, every property at ``samples``."""

    def __init__(self, spec: dict, seed: int, cli, validator):
        self.spec = spec
        self.seed = seed
        self.cli = cli
        self.validator = validator
        self.min_units = spec["min_units"]
        self.pool_size = 1
        self.first_body = None

    def config(self):
        cfg = self.cli.SuiteConfig(seed=self.seed, **self.spec["suite"])
        for name in cfg.samples:
            cfg.samples[name] = self.spec["samples"]
        cfg.samples["dimension_points"] = self.spec["dimension_points"]
        return cfg

    def setup_snippet(self) -> str:
        """Set-up as a user pays it: import the CLI and resolve the config."""
        kwargs = dict(self.spec["suite"], seed=self.seed)
        return f"import bruckloops.cli as cli\ncli.resolve(cli.SuiteConfig(**{kwargs!r}))\n"

    def unit(self, index: int) -> list[Call]:
        cfg = self.config()
        t0 = time.perf_counter()
        try:
            report = self.cli.run_verify(cfg)
        except Exception as exc:  # counted as a failed unit, see check()
            return [Call("verify", time.perf_counter() - t0, error=repr(exc))]
        return [Call("verify", time.perf_counter() - t0, output=report)]

    def operations(self) -> int:
        """Required report entries plus the dimension check.  Every sampled
        property is one report entry except factorization and
        solve_translation, which report two each."""
        entries = len(self.config().samples) - 1 + 2
        return entries - len(self.cli.INFORMATIONAL) + 1

    def check(self, index: int, calls: list[Call]) -> Outcome:
        """A unit whose report is missing or breaks the schema fails every
        operation and shows no headroom; a report body that differs from
        the run's first fails every operation."""
        ops = self.operations()
        (call,) = calls
        report = call.output
        if call.error is not None:
            return Outcome(ops, ops, 0.0, (f"verify raised {call.error}",))
        if not self.validator.is_valid(report):
            return Outcome(ops, ops, 0.0, ("verify report breaks the schema",))
        required = [p for p in report["properties"] if p["required"]]
        digits = min((margin(p["tolerance"], p["max_residual"]) for p in required), default=0.0)
        body = body_bytes(report)
        if self.first_body is None:
            self.first_body = body
        if body != self.first_body:
            return Outcome(ops, ops, digits, ("verify report body differs from the run's first",))
        reasons = [f"verify: {p['property']} failed" for p in required if not p["pass"]]
        failed = len(reasons)
        dim = report["dimension"]
        if not dim["pass"] or dim["measured"] != self.spec["expected_dimension"]:
            failed += 1
            reasons.append(f"verify: dimension {dim['measured']}, expected {self.spec['expected_dimension']}")
        if not report["pass"] and failed == 0:
            failed = ops
            reasons.append("verify: report pass is false")
        return Outcome(len(required) + 1, failed, digits, tuple(reasons))


# ---------------------------------------------------------------------------
# one-shot CLI calls
# ---------------------------------------------------------------------------

MEMBERSHIP_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-10
FACTOR_TOL = 1e-8
WITNESS_THRESHOLD = 1e-3
WITNESS_BUDGET = 100


def _j(form: dict) -> np.ndarray:
    return np.diag([1.0] * form["p1"] + [-1.0] * form["p2"])


def _sigma(form: dict, rng: np.random.Generator, radius: float) -> np.ndarray:
    """exp of an off-diagonal symmetric generator, by numpy's eigh."""
    p1, n = form["p1"], form["n"]
    h = np.zeros((n, n))
    x = rng.uniform(-radius, radius, size=(p1, n - p1))
    h[:p1, p1:] = x
    h[p1:, :p1] = x.T
    vals, vecs = np.linalg.eigh(h)
    m = (vecs * np.exp(vals)) @ vecs.T
    return (m + m.T) / 2.0


def _rotation(size: int, rng: np.random.Generator) -> np.ndarray:
    """A rotation of determinant 1 by the Cayley transform of a skew matrix."""
    k = rng.uniform(-0.5, 0.5, size=(size, size))
    k = (k - k.T) / 2.0
    eye = np.eye(size)
    return np.linalg.solve(eye - k, eye + k)


def _element_json(form: dict, m: np.ndarray) -> dict:
    return {"form": dict(form), "matrix": [[float(v) for v in row] for row in m]}


def _matrix_text(m: np.ndarray) -> str:
    rows = [" ".join(format(float(v), ".17g") for v in row) for row in m]
    return f"{m.shape[0]} {m.shape[1]} real\n" + "\n".join(rows) + "\n"


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def _is_sigma(m: np.ndarray, j: np.ndarray) -> bool:
    return (
        _rel(m, m.T) <= 1e-12
        and float(np.linalg.eigvalsh((m + m.T) / 2.0)[0]) > 0.0
        and _rel(m @ j @ m, j) <= MEMBERSHIP_TOL
    )


class OneShotWorkload:
    """A fixed mix of five ``cli.main`` calls on one signature, with inputs
    drawn by numpy from the benchmark seed into a pool of files."""

    COMMANDS = ("mul", "mul-extension", "factor", "sample", "witness")

    def __init__(self, spec: dict, seed: int, cli, workdir: Path):
        self.spec = spec
        self.form = spec["form"]
        self.cli = cli
        self.min_units = max(spec["pool"], math.ceil(spec["min_calls"] / len(self.COMMANDS)))
        self.first_output = {}
        self.inputs = self._make_inputs(seed, workdir)
        self.pool_size = len(self.inputs)

    def setup_snippet(self) -> str:
        """Set-up as a user pays it: import the CLI."""
        return "import bruckloops.cli\n"

    def _make_inputs(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng(seed)
        form = self.form
        common = [
            "--n", str(form["n"]), "--p1", str(form["p1"]),
            "--p2", str(form["p2"]), "--field", form["field"],
        ]
        inputs = []
        for k in range(self.spec["pool"]):
            a, b = _sigma(form, rng, 0.75), _sigma(form, rng, 0.75)
            r1, r2 = _sigma(form, rng, 0.75), _sigma(form, rng, 0.75)
            w1, w2 = np.zeros(form["n"]), np.zeros(form["n"])
            w1[form["p1"]:] = rng.uniform(-1.0, 1.0, size=form["p2"])
            w2[form["p1"]:] = rng.uniform(-1.0, 1.0, size=form["p2"])
            s1 = _sigma(form, rng, 0.75)
            c = np.eye(form["n"])
            c[: form["p1"], : form["p1"]] = _rotation(form["p1"], rng)
            c[form["p1"]:, form["p1"]:] = _rotation(form["p2"], rng)
            files = {
                "a": _element_json(form, a),
                "b": _element_json(form, b),
                "e1": {"w": [float(v) for v in w1], "rho": _element_json(form, r1)},
                "e2": {"w": [float(v) for v in w2], "rho": _element_json(form, r2)},
            }
            paths = {}
            for name, obj in files.items():
                paths[name] = workdir / f"{k}-{name}.json"
                paths[name].write_text(json.dumps(obj), encoding="utf-8")
            paths["s"] = workdir / f"{k}-s.txt"
            paths["s"].write_text(_matrix_text(s1 @ c), encoding="utf-8")
            boost = float(rng.uniform(*self.spec["boost_range"]))
            call_seed = int(rng.integers(1, 2**31))
            argv = {
                "mul": ["mul", str(paths["a"]), str(paths["b"])] + common,
                "mul-extension": ["mul", str(paths["e1"]), str(paths["e2"]), "--loop", "extension"] + common,
                "factor": ["factor", str(paths["s"])] + common,
                "sample": ["sample", "--count", str(self.spec["sample_count"]), "--seed", str(call_seed)] + common,
                "witness": ["witness", "--wtilde", f"boost:{boost!r}", "--seed", str(call_seed)] + common,
            }
            inputs.append(
                {"argv": argv, "a": a, "b": b, "r1": r1, "r2": r2, "s1": s1, "c": c, "s": s1 @ c}
            )
        return inputs

    def unit(self, index: int) -> list[Call]:
        inp = self.inputs[index % len(self.inputs)]
        calls = []
        for label in self.COMMANDS:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(inp["argv"][label])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # counted as a failed call, see check()
                calls.append(Call(label, time.perf_counter() - t0, error=repr(exc)))
                continue
            calls.append(Call(label, time.perf_counter() - t0, buf.getvalue(), code))
        return calls

    def check(self, index: int, calls: list[Call]) -> Outcome:
        """A call fails on a nonzero exit, a failed output check, or output
        that differs from the first output for the same input; a call whose
        output cannot be read shows no headroom."""
        slot = index % len(self.inputs)
        inp = self.inputs[slot]
        reasons = []
        digits = math.inf
        for call in calls:
            good, d = False, 0.0
            if call.error is not None:
                why = f"raised {call.error}"
            elif call.exit_code != 0:
                why = f"exit code {call.exit_code}"
            else:
                why = "output check failed"
                first = self.first_output.setdefault((slot, call.label), call.output)
                try:
                    good, d = getattr(self, "_check_" + call.label.replace("-", "_"))(inp, call.output)
                except (ValueError, KeyError, TypeError, IndexError, AttributeError):
                    good, d = False, 0.0
                good = good and call.output == first
            digits = min(digits, d)
            if not good:
                reasons.append(f"{call.label} on input {slot}: {why}")
        return Outcome(len(calls), len(reasons), digits, tuple(reasons))

    def _check_mul(self, inp, text):
        out = json.loads(text)
        p = np.array(out["matrix"], dtype=float)
        a, b = inp["a"], inp["b"]
        res = max(out["diagnostics"]["membership"].values())
        good = (
            out["diagnostics"]["pass"]
            and _is_sigma(p, _j(self.form))
            and _rel(p @ p, a @ b @ b @ a) <= MEMBERSHIP_TOL
        )
        return good, margin(MEMBERSHIP_TOL, res)

    def _check_mul_extension(self, inp, text):
        out = json.loads(text)
        rho = np.array(out["rho"]["matrix"], dtype=float)
        w = np.array(out["w"], dtype=float)
        s = inp["r1"] @ inp["r2"]
        res = max(out["diagnostics"]["membership"].values())
        good = (
            out["diagnostics"]["pass"]
            and _is_sigma(rho, _j(self.form))
            and _rel(rho @ rho, s @ s.T) <= MEMBERSHIP_TOL
            and float(np.abs(w[: self.form["p1"]]).max()) <= MEMBERSHIP_TOL
        )
        return good, margin(MEMBERSHIP_TOL, res)

    def _check_factor(self, inp, text):
        out = json.loads(text)
        s1 = np.array(out["s1"]["matrix"], dtype=float)
        c = np.array(out["c"]["matrix"], dtype=float)
        res = float(out["reconstruction_residual"])
        good = (
            res <= RECONSTRUCTION_TOL
            and _rel(s1 @ c, inp["s"]) <= RECONSTRUCTION_TOL
            and float(np.abs(s1 - inp["s1"]).max()) <= FACTOR_TOL
            and float(np.abs(c - inp["c"]).max()) <= FACTOR_TOL
        )
        return good, margin(RECONSTRUCTION_TOL, res)

    def _check_sample(self, inp, text):
        lines = text.splitlines()
        j = _j(self.form)
        good = len(lines) == self.spec["sample_count"]
        for line in lines:
            elem = json.loads(line)
            good = good and elem["form"] == self.form
            good = good and _is_sigma(np.array(elem["matrix"], dtype=float), j)
        return good, math.inf

    def _check_witness(self, inp, text):
        out = json.loads(text)
        g = np.array(out["element"]["matrix"], dtype=float)
        p1 = self.form["p1"]
        good = (
            out["displacement"] > WITNESS_THRESHOLD
            and 1 <= out["samples_used"] <= WITNESS_BUDGET
            and float(np.abs(g[:p1, p1:]).max()) <= MEMBERSHIP_TOL
            and float(np.abs(g[p1:, :p1]).max()) <= MEMBERSHIP_TOL
            and _rel(g @ g.T, np.eye(self.form["n"])) <= MEMBERSHIP_TOL
            and abs(float(np.linalg.det(g)) - 1.0) <= MEMBERSHIP_TOL
        )
        return good, math.inf
