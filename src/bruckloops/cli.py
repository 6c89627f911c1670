"""Command-line front door: deterministic verification suites, element
arithmetic, factorization, witnesses and machine-readable reports.

Exit codes are a stable contract: 0 when every required property passes,
1 when a property fails (the report is still written), 2 for usage or
configuration errors.

The verification suite is one table, ``PROPERTIES``: each row names its
report entries and their tolerance keys, its sample-count key (which also
selects its sample stream), whether it is required, its default count, and
a ``run`` that returns the worst residual of each entry.  One runner gives
every row its stream, times it, builds its entries and turns a numeric
breakdown inside it (any package error or ``LinAlgError``) into failed
entries carrying ``detail.error``, so the report is still written.

Configs are JSON; every default is echoed back into the report so a run
is self-describing and reproducible.  Identical config and seed produce
byte-identical reports on one machine and one numpy/LAPACK build, except
for the wall-clock fields (``seconds``, ``total_seconds``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError, ConfigInvalid, InversesDisagree, ParseError
from .groups import (
    SampleStream,
    SigmaElement,
    SignatureForm,
    _convert,
    conjugate_by_phi,
    element_from_json,
    element_to_json,
    membership_residual,
    polar_factorize,
    sample_phi,
    sample_sigma,
    standard_boost,
)
from .kernel import IdentityReport, Loop, check_aip, check_bol, check_left_a, check_loop_axioms
from .linalg import Tolerance, fro, read_matrix_text
from .matrixloop import MatrixLoop

DEFAULT_TOLERANCES = {
    "tau_abs": 1e-9,
    "tau_rel": 1e-7,
    "identity": 1e-8,
    "membership": 1e-9,
    "factor": 1e-8,
    "factor_reconstruction": 1e-10,
    "solve": 1e-8,
    "solve_stability": 1e-6,
    "witness_threshold": 1e-3,
    "dimension_gap": 1e-4,
}


@dataclass
class SuiteConfig:
    n: int = 3
    p1: int = 2
    p2: int = 1
    field_name: str = "real"
    carrier: int = 1
    wtilde: str = "standard"
    seed: int = 1
    samples: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    out: str | None = None

    def echo(self) -> dict:
        return {
            "n": self.n,
            "p1": self.p1,
            "p2": self.p2,
            "field": self.field_name,
            "carrier": self.carrier,
            "wtilde": self.wtilde,
            "seed": self.seed,
            "samples": dict(self.samples),
            "tolerances": dict(self.tolerances),
        }

    def numeric_tol(self) -> Tolerance:
        """The pivot and residual floors every numeric layer takes."""
        return Tolerance(self.tolerances["tau_abs"], self.tolerances["tau_rel"])


def load_suite_config(path: str | None, overrides: dict) -> SuiteConfig:
    cfg = SuiteConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be a JSON object")
        for key in ("n", "p1", "p2", "carrier", "seed"):
            if key in raw:
                setattr(cfg, key, _convert(int, raw[key], key))
        if "field" in raw:
            cfg.field_name = str(raw["field"])
        if "wtilde" in raw:
            cfg.wtilde = str(raw["wtilde"])
        if "out" in raw:
            cfg.out = str(raw["out"])
        for key, bucket in (("samples", cfg.samples), ("tolerances", cfg.tolerances)):
            section = raw.get(key, {})
            if not isinstance(section, dict):
                raise ConfigInvalid(f"config section {key!r} must be an object")
            for name, value in section.items():
                if name not in bucket:
                    raise ConfigInvalid(f"unknown {key} entry {name!r}")
                bucket[name] = _convert(int if key == "samples" else float, value, f"{key}.{name}")
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "samples_all":
            for name in cfg.samples:
                if name != "dimension_points":
                    cfg.samples[name] = int(value)
        elif key == "tol":
            cfg.tolerances["identity"] = float(value)
        elif key == "field":
            cfg.field_name = str(value)
        elif key in ("n", "p1", "p2", "carrier", "seed"):
            setattr(cfg, key, int(value))
        elif key in ("wtilde", "out"):
            setattr(cfg, key, str(value))
    low = sorted(name for name, count in cfg.samples.items() if count < 1)
    if low:
        raise ConfigInvalid(f"sample counts must be >= 1: {', '.join(low)}")
    bad = sorted(
        name for name, value in cfg.tolerances.items() if not (math.isfinite(value) and value > 0)
    )
    if bad:
        raise ConfigInvalid(f"tolerances must be finite and > 0: {', '.join(bad)}")
    return cfg


def build_wtilde(form: SignatureForm, carrier: int, spec: str, tol: Tolerance):
    """Resolve a transversal spec: ``standard``, ``boost:<t>`` or
    ``file:<path to subspace JSON>``."""
    j = 2 if carrier == 1 else 1
    if spec == "standard":
        return None
    if spec.startswith("boost:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigInvalid(f"bad boost parameter in {spec!r}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            boost = standard_boost(form, t, tol)
        if not np.all(np.isfinite(boost.matrix)):
            raise ConfigInvalid(f"{spec!r} gives a non-finite boost matrix")
        try:
            with np.errstate(over="raise", invalid="raise"):
                return geometry.apply(boost.matrix, ext.coordinate_subspace(form, j), tol=tol)
        except FloatingPointError as exc:
            raise ConfigInvalid(f"{spec!r} overflows the transversal frame: {exc}") from exc
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read transversal file {path}: {exc}") from exc
        return geometry.from_json(obj, form.field)
    raise ConfigInvalid(f"unknown wtilde spec {spec!r}")


@dataclass(frozen=True)
class Suite:
    """A validated config as the live objects every property samples from."""

    form: SignatureForm
    tol: Tolerance
    tolerances: dict
    econfig: ext.ExtensionConfig
    mat: Loop
    eloop: Loop


def resolve(cfg: SuiteConfig) -> Suite:
    """Validate a suite config into live objects."""
    form = SignatureForm(cfg.n, cfg.p1, cfg.p2, cfg.field_name)
    tol = cfg.numeric_tol()
    wtilde = build_wtilde(form, cfg.carrier, cfg.wtilde, tol)
    econfig = ext.extension_config(form, cfg.carrier, wtilde, tol)
    mat = MatrixLoop(form, tol).loop_interface()
    return Suite(form, tol, cfg.tolerances, econfig, mat, ext.ext_loop_interface(econfig))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# the property table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """One row of the verification suite.

    ``key`` names the row's sample count in ``SuiteConfig.samples`` and
    selects its sample stream.  ``entries`` are the report entries the row
    fills, as ``(entry name, tolerance key)`` pairs.  ``run(suite, stream,
    count)`` returns the worst residual of each entry and a ``detail`` dict
    for the report, or None.
    """

    key: str
    default_samples: int
    required: bool
    entries: tuple
    run: Callable


def _worst(stream: SampleStream, count: int, fn) -> tuple:
    """Fold ``fn(stream) -> (residuals, stream)`` over ``count`` samples,
    entry by entry, with max from 0; None when ``count`` is 0."""
    worst = None
    for _ in range(count):
        residuals, stream = fn(stream)
        worst = tuple(map(max, worst or (0.0,) * len(residuals), residuals))
    return worst


def _sampled(fn):
    """A row run folding the per-sample ``fn(suite, stream)`` with _worst."""
    return lambda s, stream, count: (_worst(stream, count, partial(fn, s)), None)


def _one(report: IdentityReport):
    """A kernel checker's report as a one-entry row result."""
    return (report.max_residual,), None


def _sigma_residual(s: Suite, matrix: np.ndarray) -> float:
    return membership_residual(matrix, "Sigma", s.form, s.tolerances["membership"], s.tol).max_residual


def _sigma_closure(s: Suite, stream: SampleStream):
    a, stream = s.mat.sample(stream)
    b, stream = s.mat.sample(stream)
    return (_sigma_residual(s, s.mat.mul(a, b).matrix),), stream


def _conjugation_closure(s: Suite, stream: SampleStream):
    a, stream = sample_sigma(s.form, stream, tol=s.tol)
    b, stream = sample_phi(s.form, stream)
    return (_sigma_residual(s, conjugate_by_phi(a, b).matrix),), stream


def _factorization(s: Suite, stream: SampleStream):
    """Recovery of both sampled factors, and the relative reconstruction."""
    s1, stream = sample_sigma(s.form, stream, tol=s.tol)
    c, stream = sample_phi(s.form, stream)
    m = s1.matrix @ c.matrix
    f1, f2 = polar_factorize(m, s.form, s.tolerances["membership"], s.tol)
    recovery = max(
        float(np.max(np.abs(f1.matrix - s1.matrix))), float(np.max(np.abs(f2.matrix - c.matrix)))
    )
    return (recovery, fro(f1.matrix @ f2.matrix - m) / fro(m)), stream


def _transversality(s: Suite, stream: SampleStream, count: int):
    rhos = []
    for _ in range(count):
        rho, stream = sample_sigma(s.form, stream, tol=s.tol)
        rhos.append(rho)
    tr = geometry.transversality_check(s.econfig.wtilde, rhos, s.econfig.carrier_subspace(), s.tol)
    # with no sample checked the margin is still inf, which strict JSON refuses
    return (0.0,), {"worst_margin": tr.worst_margin} if tr.samples else None


def _ext_infinity_compat(s: Suite, stream: SampleStream):
    """ext_mul's direction part, the graph lift of the image direction,
    against the matrix loop product, the spectral positive factor of
    rho1 rho2: two independent computations of the same element."""
    e1, stream = s.eloop.sample(stream)
    e2, stream = s.eloop.sample(stream)
    prod = ext.ext_mul(e1, e2, s.econfig)
    return (fro(prod.rho.matrix - s.mat.mul(e1.rho, e2.rho).matrix),), stream


def _inverse_gap(s: Suite, stream: SampleStream):
    x, stream = s.eloop.sample(stream)
    right = s.eloop.right_divide(s.eloop.identity, x)
    left = s.eloop.left_divide(x, s.eloop.identity)
    return (s.eloop.distance(right, left),), stream


def _ext_aip(s: Suite, stream: SampleStream, count: int):
    """The extension loop need not have two-sided inverses at all; when the
    AIP checker refuses (InversesDisagree), the entry records the measured
    left/right inverse gap instead."""
    try:
        return _one(check_aip(s.eloop, stream, count))
    except InversesDisagree:
        return _worst(stream, count, partial(_inverse_gap, s)), {"two_sided_inverses": False}


def _solve_translation(s: Suite, stream: SampleStream):
    """Sharp transitivity, and the solution's drift when both subspaces are
    moved by 1e-10."""
    e1, stream = s.eloop.sample(stream)
    e2, stream = s.eloop.sample(stream)
    d1 = ext.realize(e1, s.econfig)
    d2 = ext.realize(e2, s.econfig)
    t, rho = ext.solve_translation(d1, d2, s.econfig)
    moved = geometry.apply(rho.matrix, d1, t, s.tol)
    noise, stream = stream.next_uniforms(2 * s.form.n * (d1.dim + d2.dim), -1e-10, 1e-10)
    d1p = _perturb(d1, noise[: noise.size // 2], s.tol)
    d2p = _perturb(d2, noise[noise.size // 2 :], s.tol)
    tp, rhop = ext.solve_translation(d1p, d2p, s.econfig)
    stability = float(np.linalg.norm(tp - t)) + fro(rhop.matrix - rho.matrix)
    return (geometry.subspace_distance(moved, d2), stability), stream


# One row per property, in run order: sample-count key, default count,
# required, (entry name, tolerance key) pairs, run.
PROPERTIES = (
    Property("loop_axioms", 500, True, (("loop_axioms", "identity"),),
             lambda s, stream, n: _one(check_loop_axioms(s.mat, stream, n))),
    Property("sigma_closure", 1000, True, (("sigma_closure", "membership"),),
             _sampled(_sigma_closure)),
    Property("bol", 1000, True, (("bol", "identity"),),
             lambda s, stream, n: _one(check_bol(s.mat, stream, n))),
    Property("aip", 1000, True, (("aip", "identity"),),
             lambda s, stream, n: _one(check_aip(s.mat, stream, n))),
    Property("left_a", 500, False, (("left_a", "identity"),),
             lambda s, stream, n: _one(check_left_a(s.mat, stream, n))),
    Property("conjugation_closure", 500, True, (("conjugation_closure", "membership"),),
             _sampled(_conjugation_closure)),
    Property("factorization", 500, True,
             (("factorization_recovery", "factor"),
              ("factorization_reconstruction", "factor_reconstruction")),
             _sampled(_factorization)),
    Property("transversality", 200, True, (("transversality", "membership"),), _transversality),
    Property("ext_loop_axioms", 500, True, (("ext_loop_axioms", "identity"),),
             lambda s, stream, n: _one(check_loop_axioms(s.eloop, stream, n))),
    Property("ext_infinity_compat", 500, True, (("ext_infinity_compat", "membership"),),
             _sampled(_ext_infinity_compat)),
    Property("ext_bol", 100, False, (("ext_bol", "identity"),),
             lambda s, stream, n: _one(check_bol(s.eloop, stream, n))),
    Property("ext_aip", 100, False, (("ext_aip", "identity"),), _ext_aip),
    Property("solve_translation", 200, True,
             (("solve_translation", "solve"), ("solve_translation_stability", "solve_stability")),
             _sampled(_solve_translation)),
)

DEFAULT_SAMPLES = {row.key: row.default_samples for row in PROPERTIES} | {"dimension_points": 20}

# Entries whose residuals carry no pass requirement; they are measured and
# reported only.
INFORMATIONAL = frozenset(name for row in PROPERTIES if not row.required for name, _ in row.entries)

# A numeric breakdown inside a property fails that property, not the run.
_BREAKDOWN = (BruckLoopsError, np.linalg.LinAlgError)


def _run_property(row: Property, suite: Suite, stream: SampleStream, count: int) -> list:
    """The report entries of one row.  The row's time goes on its first
    entry; a companion entry records 0 seconds and names that entry in
    ``detail.timed_with``.  A breakdown fails every entry with residual 1.0
    and the exception text in ``detail.error``."""
    t0 = time.perf_counter()
    try:
        worst, detail = row.run(suite, stream, count)
        broke = False
    except _BREAKDOWN as exc:
        worst, detail, broke = (1.0,) * len(row.entries), {"error": str(exc)}, True
    seconds = time.perf_counter() - t0
    first = row.entries[0][0]
    entries = []
    for (name, tol_key), residual in zip(row.entries, worst or (0.0,) * len(row.entries)):
        entry = IdentityReport(name, count, residual, suite.tolerances[tol_key]).to_json()
        entry["required"] = row.required
        entry["seconds"] = seconds if name == first else 0.0
        info = dict(detail or {})
        if name != first:
            info["timed_with"] = first
        if broke:
            entry["pass"] = False
        if info:
            entry["detail"] = info
        entries.append(entry)
    return entries


def run_verify(cfg: SuiteConfig) -> dict:
    """Run every row of PROPERTIES and the dimension check, each on its own
    sample stream, and assemble the report."""
    suite = resolve(cfg)
    counts = cfg.samples
    t_start = time.perf_counter()
    base = SampleStream(cfg.seed)
    offsets = {name: (k + 1) * 10_000_000 for k, name in enumerate(sorted(counts))}
    entries = []
    for row in PROPERTIES:
        entries += _run_property(row, suite, base.split(offsets[row.key]), counts[row.key])

    t0 = time.perf_counter()
    expected = ext.expected_dimension(suite.econfig)
    dim_entry = {"expected": expected, "measured": None, "gap_fraction": 0.0, "pass": False}
    try:
        dim = ext.dimension_rank_report(
            suite.econfig,
            counts["dimension_points"],
            base.split(offsets["dimension_points"]),
            gap=cfg.tolerances["dimension_gap"],
        )
        dim_entry.update(measured=dim.rank, gap_fraction=dim.gap_fraction, points=dim.points)
        dim_entry["pass"] = dim.rank == expected
    except _BREAKDOWN as exc:
        dim_entry.update(points=counts["dimension_points"], error=str(exc))
    dim_entry["seconds"] = time.perf_counter() - t0

    entries.sort(key=lambda e: e["property"])
    overall = all(e["pass"] for e in entries if e["required"]) and dim_entry["pass"]
    return {
        "config": cfg.echo(),
        "properties": entries,
        "dimension": dim_entry,
        "pass": overall,
        "total_seconds": time.perf_counter() - t_start,
    }


def _perturb(s, noise: np.ndarray, tol: Tolerance):
    """A nearby representative of (almost) the same subspace: jiggle the
    base and frame entries and re-canonicalize."""
    n, k = s.frame.shape
    need = n * (k + 1)
    pad = np.resize(noise, need)
    base = s.base + pad[:n].astype(s.base.dtype)
    frame = s.frame + pad[n:].reshape(n, k).astype(s.frame.dtype)
    return geometry.subspace(base, frame, tol)


# ---------------------------------------------------------------------------
# element loading for mul / factor
# ---------------------------------------------------------------------------


def _parse_json_object(path: str, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return obj


def _load_matrix_element(path: str, form_hint: SignatureForm | None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return element_from_json(_parse_json_object(path, text))
    matrix = read_matrix_text(text)
    if form_hint is None:
        raise ConfigInvalid(
            "matrix text files carry no signature; pass --n/--p1/--p2/--field"
        )
    return SigmaElement(matrix.astype(form_hint.dtype), form_hint)


def _load_extension_element(path: str) -> ext.ExtensionElement:
    with open(path, "r", encoding="utf-8") as fh:
        return ext.extension_element_from_json(_parse_json_object(path, fh.read()))


def _check_operand(path: str, elem: SigmaElement, form: SignatureForm, cfg: SuiteConfig) -> None:
    """Refuse an operand that is not a Sigma element of the configured form."""
    if elem.form != form:
        raise ConfigInvalid(f"{path}: form {elem.form.to_json()} is not the configured {form.to_json()}")
    tolerance = cfg.tolerances["membership"]
    rep = membership_residual(elem.matrix, "Sigma", form, tolerance, cfg.numeric_tol())
    if not rep.passed:
        worst = max(rep.residuals, key=rep.residuals.get)
        raise ConfigInvalid(f"{path}: not in Sigma, {worst} residual {rep.max_residual:.3e}")


def _diagnostics(elem: SigmaElement, tolerance: float) -> dict:
    rep = membership_residual(elem.matrix, "Sigma", elem.form, tolerance)
    return {"membership": rep.residuals, "pass": rep.passed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = load_suite_config(args.config, _overrides(args))
    report = run_verify(cfg)
    payload = _json_bytes(report)
    out_path = args.out or cfg.out
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    sys.stdout.write(payload.decode("utf-8"))
    return 0 if report["pass"] else 1


def cmd_mul(args) -> int:
    cfg = load_suite_config(args.config, _overrides(args))
    if args.loop == "matrix":
        form = SignatureForm(cfg.n, cfg.p1, cfg.p2, cfg.field_name)
        lhs, rhs = (_load_matrix_element(path, form) for path in (args.lhs, args.rhs))
        for path, elem in ((args.lhs, lhs), (args.rhs, rhs)):
            _check_operand(path, elem, form, cfg)
        product = MatrixLoop(form, cfg.numeric_tol()).mul(lhs, rhs)
        out = element_to_json(product)
        out["diagnostics"] = _diagnostics(product, cfg.tolerances["membership"])
    else:
        econfig = resolve(cfg).econfig
        e1, e2 = (_load_extension_element(path) for path in (args.lhs, args.rhs))
        for path, elem in ((args.lhs, e1), (args.rhs, e2)):
            _check_operand(path, elem.rho, econfig.form, cfg)
            if not econfig.wtilde.contains(elem.w, cfg.tolerances["membership"]):
                raise ConfigInvalid(f"{path}: w is not on the transversal")
        product = ext.ext_mul(e1, e2, econfig)
        out = product.to_json()
        out["diagnostics"] = _diagnostics(product.rho, cfg.tolerances["membership"])
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def cmd_factor(args) -> int:
    cfg = load_suite_config(args.config, _overrides(args))
    form = SignatureForm(cfg.n, cfg.p1, cfg.p2, cfg.field_name)
    tol = cfg.numeric_tol()
    elem = _load_matrix_element(args.matrix, form)
    s1, c = polar_factorize(elem.matrix, elem.form, cfg.tolerances["membership"], tol)
    residual = fro(s1.matrix @ c.matrix - elem.matrix) / max(1.0, fro(elem.matrix))
    out = {
        "s1": element_to_json(s1),
        "c": element_to_json(c),
        "reconstruction_residual": residual,
    }
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def cmd_witness(args) -> int:
    cfg = load_suite_config(args.config, _overrides(args))
    report = ext.nonisomorphism_witness(
        resolve(cfg).econfig,
        SampleStream(cfg.seed),
        budget=args.budget,
        threshold=cfg.tolerances["witness_threshold"],
    )
    out = {
        "element": element_to_json(report.element),
        "displacement": report.displacement,
        "samples_used": report.samples_used,
    }
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def cmd_sample(args) -> int:
    cfg = load_suite_config(args.config, _overrides(args))
    suite = resolve(cfg)
    stream = SampleStream(cfg.seed)
    lines = []
    if args.loop == "matrix":
        for _ in range(args.count):
            elem, stream = sample_sigma(suite.form, stream, args.radius, suite.tol)
            lines.append(json.dumps(element_to_json(elem), sort_keys=True))
    else:
        loop = ext.ext_loop_interface(suite.econfig, sample_radius=args.radius)
        for _ in range(args.count):
            elem, stream = loop.sample(stream)
            lines.append(json.dumps(elem.to_json(), sort_keys=True))
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _overrides(args) -> dict:
    return {
        "n": getattr(args, "n", None),
        "p1": getattr(args, "p1", None),
        "p2": getattr(args, "p2", None),
        "field": getattr(args, "field", None),
        "carrier": getattr(args, "carrier", None),
        "wtilde": getattr(args, "wtilde", None),
        "seed": getattr(args, "seed", None),
        "samples_all": getattr(args, "samples", None),
        "tol": getattr(args, "tol", None),
        "out": getattr(args, "out", None),
    }


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--p1", type=int)
    parser.add_argument("--p2", type=int)
    parser.add_argument("--field", choices=["real", "complex"])
    parser.add_argument("--carrier", type=int, choices=[1, 2])
    parser.add_argument("--wtilde", help="standard | boost:<t> | file:<path>")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int, help="override every per-property sample count")
    parser.add_argument("--tol", type=float, help="override the identity tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruckloops",
        description="verify loop identities on matrix Bruck loops and their "
        "affine-subspace extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full property suite")
    _add_common(p)
    p.add_argument("--out", help="write the JSON report here as well as stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mul", help="multiply two elements")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--loop", choices=["matrix", "extension"], default="matrix")
    _add_common(p)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("factor", help="split an isometry into its unique positive * unitary pair")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("witness", help="find a block unitary displacing the transversal")
    _add_common(p)
    p.add_argument("--budget", type=int, default=100)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sample", help="emit deterministic element samples")
    _add_common(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--radius", type=float, default=0.75)
    p.add_argument("--loop", choices=["matrix", "extension"], default="matrix")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BruckLoopsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
