"""Command-line front door: deterministic verification suites, element
arithmetic, factorization, witnesses and machine-readable reports.

Exit codes are a stable contract: 0 when every required property passes,
1 when a property fails (the report is still written), 2 for usage or
configuration errors.

The verification suite is one table, ``PROPERTIES``: each row names its
report entries and their keys in the fixed bounds table ``TOLERANCES``,
its sample-count key (which also selects its sample stream), whether it is
required, its default count, and a ``run`` that returns the worst residual
of each entry.  One runner gives every row its stream, times it, builds
its entries and turns a numeric breakdown inside it (any package error or
``LinAlgError``) into failed entries carrying ``detail.error``, so the
report is still written.

Every setting is a row of ``SETTINGS`` (config key, ``SuiteConfig``
attribute, type), which the JSON loader, the command-line flags and the
report echo all read; the config's one section, ``samples``, sets the
per-property counts.  The acceptance bounds are constants, not settings.
Every default is echoed, so a run is self-describing; identical config and
seed produce byte-identical reports on one machine and one numpy/LAPACK
build, except for the wall-clock fields.  Arithmetic on outside input (the
transversal, in ``resolve``; ``mul``, ``factor`` and ``sample``) runs under
the one floating-point trap, ``_in_float_range``; the properties run
outside it, so their breakdowns stay failed report entries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError, ConfigInvalid, InversesDisagree
from .groups import (
    MEMBERSHIP_TOLERANCE,
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
from .kernel import check_aip, check_bol, check_left_a, check_loop_axioms
from .linalg import field_of, fro, read_matrix_text
from .matrixloop import MatrixLoop

# The fixed acceptance bound of each kind of report entry; every entry
# carries its bound as ``tolerance``.
TOLERANCES = {
    "identity": 1e-8,
    "membership": MEMBERSHIP_TOLERANCE,
    "factor": 1e-8,
    "factor_reconstruction": 1e-10,
    "solve": 1e-8,
    "solve_stability": 1e-6,
}


# Config key -> (SuiteConfig attribute, type, options of its flag --<key>).
# The report echoes every setting but ``out``, where the report goes.
SETTINGS = {
    "n": ("n", int, {}),
    "p1": ("p1", int, {}),
    "p2": ("p2", int, {}),
    "field": ("field_name", str, {"choices": ["real", "complex"]}),
    "carrier": ("carrier", int, {"choices": [1, 2]}),
    "wtilde": ("wtilde", str, {"help": "standard | boost:<t> | file:<path>"}),
    "seed": ("seed", int, {}),
    "out": ("out", str, {"help": "write the JSON report here as well as stdout"}),
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
    out: str | None = None

    @property
    def form(self) -> SignatureForm:
        return SignatureForm(self.n, self.p1, self.p2, self.field_name)

    def echo(self) -> dict:
        settings = {key: getattr(self, attr) for key, (attr, _, _) in SETTINGS.items() if key != "out"}
        return settings | {"samples": dict(self.samples)}


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{what} {path} must hold a JSON object")
    return obj


def load_suite_config(args) -> SuiteConfig:
    """The defaults, then the ``--config`` file, then the flags in ``args``."""
    cfg = SuiteConfig()
    raw = {} if args.config is None else _read_json(args.config, "config")
    for key, value in raw.items():
        if key == "samples":
            if not isinstance(value, dict):
                raise ConfigInvalid("config section 'samples' must be an object")
            for name, entry in value.items():
                if name not in cfg.samples:
                    raise ConfigInvalid(f"unknown samples entry {name!r}")
                cfg.samples[name] = _convert(int, entry, f"samples.{name}")
        elif key in SETTINGS:
            attr, kind, _ = SETTINGS[key]
            setattr(cfg, attr, _convert(kind, value, key))
        else:
            raise ConfigInvalid(f"unknown config key {key!r}")
    for attr, _, _ in SETTINGS.values():
        if getattr(args, attr, None) is not None:
            setattr(cfg, attr, getattr(args, attr))
    if args.samples is not None:
        cfg.samples |= {name: args.samples for name in cfg.samples if name != "dimension_points"}
    low = sorted(name for name, count in cfg.samples.items() if count < 1)
    if low:
        raise ConfigInvalid(f"sample counts must be >= 1: {', '.join(low)}")
    return cfg


def build_wtilde(form: SignatureForm, carrier: int, spec: str):
    """Resolve a transversal spec: ``standard``, ``boost:<t>`` or
    ``file:<path to subspace JSON>``.  Overflow is not trapped here;
    ``resolve`` builds the transversal under ``_in_float_range``."""
    if spec == "standard":
        return None
    if spec.startswith("boost:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigInvalid(f"bad boost parameter in {spec!r}") from exc
        if not math.isfinite(t):
            raise ConfigInvalid(f"{spec!r} has a non-finite boost parameter")
        j = 2 if carrier == 1 else 1
        return geometry.apply(standard_boost(form, t).matrix, ext.coordinate_subspace(form, j))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return geometry.from_json(_read_json(path, "transversal file"), form.field)
    raise ConfigInvalid(f"unknown wtilde spec {spec!r}")


@dataclass(frozen=True)
class Suite:
    """A validated config as the live objects every property samples from."""

    form: SignatureForm
    mat: MatrixLoop
    eloop: ext.ExtensionConfig


@contextmanager
def _in_float_range(inputs: str = "inputs"):
    """Arithmetic on user inputs that overflows or turns invalid is a
    configuration error (exit 2) naming ``inputs``, not a result of
    Infinity or NaN.  The program's one floating-point trap."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigInvalid(f"{inputs} out of floating-point range: {exc}") from exc


def resolve(cfg: SuiteConfig) -> Suite:
    """Validate a suite config into live objects."""
    form = cfg.form
    with _in_float_range(f"transversal {cfg.wtilde!r}"):
        eloop = ext.extension_config(form, cfg.carrier, build_wtilde(form, cfg.carrier, cfg.wtilde))
    return Suite(form, MatrixLoop(form), eloop)


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
    fills, as ``(entry name, TOLERANCES key)`` pairs.  ``run(suite, stream,
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


def _one(residual: float):
    """A kernel checker's worst residual as a one-entry row result."""
    return (residual,), None


def _sigma_residual(s: Suite, matrix: np.ndarray) -> float:
    return membership_residual(matrix, "Sigma", s.form).max_residual


def _sigma_closure(s: Suite, stream: SampleStream):
    a, stream = s.mat.sample(stream)
    b, stream = s.mat.sample(stream)
    return (_sigma_residual(s, s.mat.mul(a, b).matrix),), stream


def _conjugation_closure(s: Suite, stream: SampleStream):
    a, stream = sample_sigma(s.form, stream)
    b, stream = sample_phi(s.form, stream)
    return (_sigma_residual(s, conjugate_by_phi(a, b).matrix),), stream


def _factorization(s: Suite, stream: SampleStream):
    """Recovery of both sampled factors, and the relative reconstruction."""
    s1, stream = sample_sigma(s.form, stream)
    c, stream = sample_phi(s.form, stream)
    m = s1.matrix @ c.matrix
    f1, f2 = polar_factorize(m, s.form)
    recovery = max(
        float(np.max(np.abs(f1.matrix - s1.matrix))), float(np.max(np.abs(f2.matrix - c.matrix)))
    )
    return (recovery, fro(f1.matrix @ f2.matrix - m) / fro(m)), stream


def _transversality(s: Suite, stream: SampleStream, count: int):
    rhos = []
    for _ in range(count):
        rho, stream = sample_sigma(s.form, stream)
        rhos.append(rho)
    tr = geometry.transversality_check(s.eloop.wtilde, rhos, s.eloop.carrier_subspace())
    # with no sample checked the margin is still inf, which strict JSON refuses
    return (0.0,), {"worst_margin": tr.worst_margin} if tr.samples else None


def _ext_infinity_compat(s: Suite, stream: SampleStream):
    """ext_mul's direction part, the graph lift of the image direction,
    against the matrix loop product, the spectral positive factor of
    rho1 rho2: two independent computations of the same element."""
    e1, stream = s.eloop.sample(stream)
    e2, stream = s.eloop.sample(stream)
    prod = s.eloop.mul(e1, e2)
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
    d1 = ext.realize(e1, s.eloop)
    d2 = ext.realize(e2, s.eloop)
    t, rho = ext.solve_translation(d1, d2, s.eloop)
    moved = geometry.apply(rho.matrix, d1, t)
    noise, stream = stream.next_uniforms(2 * s.form.n * (d1.dim + d2.dim), -1e-10, 1e-10)
    d1p = _perturb(d1, noise[: noise.size // 2])
    d2p = _perturb(d2, noise[noise.size // 2 :])
    tp, rhop = ext.solve_translation(d1p, d2p, s.eloop)
    stability = float(np.linalg.norm(tp - t)) + fro(rhop.matrix - rho.matrix)
    return (geometry.subspace_distance(moved, d2), stability), stream


# One row per property, in run order: sample-count key, default count,
# required, (entry name, TOLERANCES key) pairs, run.
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
        tolerance = TOLERANCES[tol_key]
        entry = {
            "property": name,
            "samples": count,
            "max_residual": residual,
            "tolerance": tolerance,
            "pass": not broke and residual <= tolerance,
            "required": row.required,
            "seconds": seconds if name == first else 0.0,
        }
        info = dict(detail or {})
        if name != first:
            info["timed_with"] = first
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
    expected = ext.expected_dimension(suite.eloop)
    dim_entry = {"expected": expected, "measured": None, "gap_fraction": 0.0, "pass": False}
    try:
        dim = ext.dimension_rank_report(
            suite.eloop, counts["dimension_points"], base.split(offsets["dimension_points"])
        )
        dim_entry.update(
            measured=dim.rank, gap_fraction=dim.gap_fraction, points=dim.points, ranks=list(dim.ranks)
        )
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


def _perturb(s, noise: np.ndarray):
    """A nearby representative of (almost) the same subspace: jiggle the
    base and frame entries and re-canonicalize."""
    n, k = s.frame.shape
    need = n * (k + 1)
    pad = np.resize(noise, need)
    base = s.base + pad[:n].astype(s.base.dtype)
    frame = s.frame + pad[n:].reshape(n, k).astype(s.frame.dtype)
    return geometry.subspace(base, frame)


# ---------------------------------------------------------------------------
# element loading for mul / factor
# ---------------------------------------------------------------------------


def _check_form(path: str, elem: SigmaElement, form: SignatureForm) -> None:
    """Refuse an element of another form than the configured one."""
    if elem.form != form:
        raise ConfigInvalid(f"{path}: form {elem.form.to_json()} is not the configured {form.to_json()}")


def _load_matrix_element(path: str, form: SignatureForm) -> SigmaElement:
    """A JSON element, or a matrix text file read in the configured form;
    complex text for a real form would lose its imaginary part, so is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return element_from_json(_read_json(path, "element file"))
    matrix = read_matrix_text(text)
    if not np.can_cast(matrix.dtype, form.dtype):
        raise ConfigInvalid(f"{path}: {field_of(matrix)} matrix text does not fit the {form.field} form")
    return SigmaElement(matrix.astype(form.dtype), form)


def _check_operand(path: str, elem: SigmaElement, form: SignatureForm) -> None:
    """Refuse an operand that is not a Sigma element of the configured form."""
    _check_form(path, elem, form)
    rep = membership_residual(elem.matrix, "Sigma", form)
    if not rep.passed:
        worst = max(rep.residuals, key=rep.residuals.get)
        raise ConfigInvalid(f"{path}: not in Sigma, {worst} residual {rep.max_residual:.3e}")


def _diagnostics(elem: SigmaElement) -> dict:
    rep = membership_residual(elem.matrix, "Sigma", elem.form)
    return {"membership": rep.residuals, "pass": rep.passed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before the suite runs;
    the file is neither created nor truncated here."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigInvalid(f"cannot write the report to {path}")


def cmd_verify(args) -> int:
    cfg = load_suite_config(args)
    if cfg.out:
        _check_writable(cfg.out)
    report = run_verify(cfg)
    payload = _json_bytes(report)
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(payload)
    sys.stdout.write(payload.decode("utf-8"))
    return 0 if report["pass"] else 1


def cmd_mul(args) -> int:
    cfg = load_suite_config(args)
    with _in_float_range():
        out, rho = _product(args, cfg)
        out["diagnostics"] = _diagnostics(rho)
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def _product(args, cfg: SuiteConfig) -> tuple:
    """The product of the two operand files, as JSON and its Sigma part."""
    if args.loop == "matrix":
        form = cfg.form
        lhs, rhs = (_load_matrix_element(path, form) for path in (args.lhs, args.rhs))
        for path, elem in ((args.lhs, lhs), (args.rhs, rhs)):
            _check_operand(path, elem, form)
        product = MatrixLoop(form).mul(lhs, rhs)
        return element_to_json(product), product
    eloop = resolve(cfg).eloop
    e1, e2 = (
        ext.extension_element_from_json(_read_json(path, "element file")) for path in (args.lhs, args.rhs)
    )
    for path, elem in ((args.lhs, e1), (args.rhs, e2)):
        _check_operand(path, elem.rho, eloop.form)
        if not eloop.wtilde.contains(elem.w):
            raise ConfigInvalid(f"{path}: w is not on the transversal")
    product = eloop.mul(e1, e2)
    return product.to_json(), product.rho


def cmd_factor(args) -> int:
    cfg = load_suite_config(args)
    form = cfg.form
    elem = _load_matrix_element(args.matrix, form)
    _check_form(args.matrix, elem, form)
    with _in_float_range():
        s1, c = polar_factorize(elem.matrix, elem.form)
        residual = fro(s1.matrix @ c.matrix - elem.matrix) / max(1.0, fro(elem.matrix))
    out = {
        "s1": element_to_json(s1),
        "c": element_to_json(c),
        "reconstruction_residual": residual,
    }
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def cmd_witness(args) -> int:
    if args.budget < 1:
        raise ConfigInvalid(f"budget must be >= 1, got {args.budget}")
    cfg = load_suite_config(args)
    report = ext.nonisomorphism_witness(resolve(cfg).eloop, SampleStream(cfg.seed), budget=args.budget)
    out = {
        "element": element_to_json(report.element),
        "displacement": report.displacement,
        "samples_used": report.samples_used,
    }
    sys.stdout.write(_json_bytes(out).decode("utf-8"))
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise ConfigInvalid(f"count must be >= 0, got {args.count}")
    cfg = load_suite_config(args)
    suite = resolve(cfg)
    stream = SampleStream(cfg.seed)
    lines = []
    with _in_float_range():
        if args.loop == "matrix":
            for _ in range(args.count):
                elem, stream = sample_sigma(suite.form, stream, args.radius)
                lines.append(json.dumps(element_to_json(elem), sort_keys=True))
        else:
            for _ in range(args.count):
                elem, stream = suite.eloop.sample(stream, args.radius)
                lines.append(json.dumps(elem.to_json(), sort_keys=True))
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _add_common(parser: argparse.ArgumentParser, out: bool = False) -> None:
    """``--config``, a flag per setting (``--out`` only if ``out``), ``--samples``."""
    parser.add_argument("--config", help="JSON config file")
    for key, (attr, kind, options) in SETTINGS.items():
        if key != "out" or out:
            parser.add_argument(f"--{key}", dest=attr, type=kind, **options)
    parser.add_argument("--samples", type=int, help="override every per-property sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruckloops",
        description="verify loop identities on matrix Bruck loops and their "
        "affine-subspace extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full property suite")
    _add_common(p, out=True)
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
