"""Command-line front door: deterministic verification suites, element
arithmetic, factorization, witnesses and machine-readable reports.

Exit codes are a stable contract: 0 when every required property passes,
1 when a property fails (the report is still written), 2 for usage or
configuration errors.

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

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError, ConfigInvalid, InversesDisagree, ParseError
from .groups import (
    SampleStream,
    SigmaElement,
    SignatureForm,
    conjugate_by_phi,
    element_from_json,
    element_to_json,
    membership_residual,
    polar_factorize,
    sample_phi,
    sample_sigma,
    standard_boost,
)
from .kernel import IdentityReport, check_aip, check_bol, check_left_a, check_loop_axioms
from .linalg import Tolerance, fro, read_matrix_text
from .matrixloop import MatrixLoop

DEFAULT_SAMPLES = {
    "loop_axioms": 500,
    "sigma_closure": 1000,
    "bol": 1000,
    "aip": 1000,
    "left_a": 500,
    "conjugation_closure": 500,
    "factorization": 500,
    "transversality": 200,
    "ext_loop_axioms": 500,
    "ext_infinity_compat": 500,
    "ext_bol": 100,
    "ext_aip": 100,
    "solve_translation": 200,
    "dimension_points": 20,
}

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

# Properties whose residuals carry no pass requirement; they are measured
# and reported only.
INFORMATIONAL = {"left_a", "ext_bol", "ext_aip"}


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


def _convert(kind, value, name: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"config entry {name!r} must be {kind.__name__}, got {value!r}") from exc


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
        return geometry.apply(
            geometry.linear_affinity(boost.matrix), ext.coordinate_subspace(form, j), tol
        )
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read transversal file {path}: {exc}") from exc
        return geometry.from_json(obj, form.field)
    raise ConfigInvalid(f"unknown wtilde spec {spec!r}")


def resolve(cfg: SuiteConfig):
    """Validate a suite config into live objects."""
    form = SignatureForm(cfg.n, cfg.p1, cfg.p2, cfg.field_name)
    tol = cfg.numeric_tol()
    wtilde = build_wtilde(form, cfg.carrier, cfg.wtilde, tol)
    econfig = ext.extension_config(form, cfg.carrier, wtilde, tol)
    return form, tol, econfig, MatrixLoop(form, tol)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _report_entry(report: IdentityReport, seconds: float, required: bool) -> dict:
    entry = report.to_json()
    entry["required"] = required
    entry["seconds"] = seconds
    return entry


def run_verify(cfg: SuiteConfig) -> dict:
    """Run the full property suite and assemble the report."""
    form, tol, econfig, mloop = resolve(cfg)
    tols = cfg.tolerances
    counts = cfg.samples
    seed = cfg.seed
    mat = mloop.loop_interface()
    eloop = ext.ext_loop_interface(econfig)

    entries = []
    t_start = time.perf_counter()

    def record(report: IdentityReport, seconds: float) -> None:
        entries.append(
            _report_entry(report, seconds, report.property_name not in INFORMATIONAL)
        )

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    stream_base = SampleStream(seed)
    offsets = {name: (k + 1) * 10_000_000 for k, name in enumerate(sorted(counts))}

    def stream_for(name: str) -> SampleStream:
        return stream_base.split(offsets[name])

    # matrix loop identities
    rep, dt = timed(
        lambda: check_loop_axioms(mat, stream_for("loop_axioms"), counts["loop_axioms"], tols["identity"])
    )
    record(rep, dt)

    def sigma_closure():
        stream = stream_for("sigma_closure")
        worst = 0.0
        for _ in range(counts["sigma_closure"]):
            a, stream = mloop.sample(stream)
            b, stream = mloop.sample(stream)
            m = mloop.mul(a, b)
            worst = max(
                worst,
                membership_residual(m.matrix, "Sigma", form, tols["membership"], tol).max_residual,
            )
        return IdentityReport("sigma_closure", counts["sigma_closure"], worst, tols["membership"])

    rep, dt = timed(sigma_closure)
    record(rep, dt)

    rep, dt = timed(lambda: check_bol(mat, stream_for("bol"), counts["bol"], tols["identity"]))
    record(rep, dt)
    rep, dt = timed(lambda: check_aip(mat, stream_for("aip"), counts["aip"], tols["identity"]))
    record(rep, dt)
    rep, dt = timed(lambda: check_left_a(mat, stream_for("left_a"), counts["left_a"], tols["identity"]))
    record(rep, dt)

    def conjugation_closure():
        stream = stream_for("conjugation_closure")
        worst = 0.0
        for _ in range(counts["conjugation_closure"]):
            a, stream = sample_sigma(form, stream, tol=tol)
            b, stream = sample_phi(form, stream)
            c = conjugate_by_phi(a, b)
            worst = max(
                worst,
                membership_residual(c.matrix, "Sigma", form, tols["membership"], tol).max_residual,
            )
        return IdentityReport(
            "conjugation_closure", counts["conjugation_closure"], worst, tols["membership"]
        )

    rep, dt = timed(conjugation_closure)
    record(rep, dt)

    def factorization():
        stream = stream_for("factorization")
        worst_comp = 0.0
        worst_recon = 0.0
        for _ in range(counts["factorization"]):
            s1, stream = sample_sigma(form, stream, tol=tol)
            c, stream = sample_phi(form, stream)
            s = s1.matrix @ c.matrix
            f1, f2 = polar_factorize(s, form, tols["membership"], tol)
            worst_comp = max(
                worst_comp,
                float(np.max(np.abs(f1.matrix - s1.matrix))),
                float(np.max(np.abs(f2.matrix - c.matrix))),
            )
            worst_recon = max(worst_recon, fro(f1.matrix @ f2.matrix - s) / fro(s))
        return (
            IdentityReport(
                "factorization_recovery", counts["factorization"], worst_comp, tols["factor"]
            ),
            IdentityReport(
                "factorization_reconstruction",
                counts["factorization"],
                worst_recon,
                tols["factor_reconstruction"],
            ),
        )

    (rep_a, rep_b), dt = timed(factorization)
    record(rep_a, dt / 2)
    record(rep_b, dt / 2)

    def transversality():
        stream = stream_for("transversality")
        rhos = []
        for _ in range(counts["transversality"]):
            rho, stream = sample_sigma(form, stream, tol=tol)
            rhos.append(rho)
        try:
            tr = geometry.transversality_check(econfig.wtilde, rhos, econfig.carrier_subspace(), tol)
            report = IdentityReport(
                "transversality", tr.samples, 0.0, tols["membership"]
            )
            return report, tr.worst_margin
        except BruckLoopsError:
            # residual 1.0 >> membership tolerance marks the violation
            return (
                IdentityReport(
                    "transversality", counts["transversality"], 1.0, tols["membership"]
                ),
                0.0,
            )

    (rep, margin), dt = timed(transversality)
    entry = _report_entry(rep, dt, True)
    entry["detail"] = {"worst_margin": margin}
    entries.append(entry)

    rep, dt = timed(
        lambda: check_loop_axioms(
            eloop, stream_for("ext_loop_axioms"), counts["ext_loop_axioms"], tols["identity"]
        )
    )
    record(IdentityReport("ext_loop_axioms", rep.samples, rep.max_residual, rep.tolerance), dt)

    def ext_infinity_compat():
        stream = stream_for("ext_infinity_compat")
        worst = 0.0
        for _ in range(counts["ext_infinity_compat"]):
            e1, stream = eloop.sample(stream)
            e2, stream = eloop.sample(stream)
            prod = ext.ext_mul(e1, e2, econfig)
            direct = mloop.mul(e1.rho, e2.rho)
            worst = max(worst, fro(prod.rho.matrix - direct.matrix))
        return IdentityReport(
            "ext_infinity_compat", counts["ext_infinity_compat"], worst, tols["membership"]
        )

    rep, dt = timed(ext_infinity_compat)
    record(rep, dt)

    rep, dt = timed(lambda: check_bol(eloop, stream_for("ext_bol"), counts["ext_bol"], tols["identity"]))
    record(IdentityReport("ext_bol", rep.samples, rep.max_residual, rep.tolerance), dt)

    # The extension loop need not have two-sided inverses at all; when the
    # AIP checker refuses (InversesDisagree), the informational entry
    # records the measured left/right inverse gap instead of aborting.
    t0 = time.perf_counter()
    try:
        rep = check_aip(eloop, stream_for("ext_aip"), counts["ext_aip"], tols["identity"])
        entry = _report_entry(
            IdentityReport("ext_aip", rep.samples, rep.max_residual, rep.tolerance),
            time.perf_counter() - t0,
            False,
        )
    except InversesDisagree:
        stream = stream_for("ext_aip")
        gap = 0.0
        for _ in range(counts["ext_aip"]):
            x, stream = eloop.sample(stream)
            right = eloop.right_divide(eloop.identity, x)
            left = eloop.left_divide(x, eloop.identity)
            gap = max(gap, eloop.distance(right, left))
        entry = _report_entry(
            IdentityReport("ext_aip", counts["ext_aip"], gap, tols["identity"]),
            time.perf_counter() - t0,
            False,
        )
        entry["detail"] = {"two_sided_inverses": False}
    entries.append(entry)

    def solve_translation_suite():
        stream = stream_for("solve_translation")
        worst = 0.0
        worst_stab = 0.0
        for _ in range(counts["solve_translation"]):
            e1, stream = eloop.sample(stream)
            e2, stream = eloop.sample(stream)
            d1 = ext.realize(e1, econfig)
            d2 = ext.realize(e2, econfig)
            t, rho = ext.solve_translation(d1, d2, econfig)
            moved = geometry.apply(geometry.Affinity(t, rho.matrix), d1, tol)
            worst = max(worst, geometry.subspace_distance(moved, d2))
            noise, stream = stream.next_uniforms(2 * form.n * (d1.dim + d2.dim), -1e-10, 1e-10)
            d1p = _perturb(d1, noise[: noise.size // 2], tol)
            d2p = _perturb(d2, noise[noise.size // 2 :], tol)
            tp, rhop = ext.solve_translation(d1p, d2p, econfig)
            worst_stab = max(
                worst_stab,
                float(np.linalg.norm(tp - t)) + fro(rhop.matrix - rho.matrix),
            )
        return (
            IdentityReport("solve_translation", counts["solve_translation"], worst, tols["solve"]),
            IdentityReport(
                "solve_translation_stability",
                counts["solve_translation"],
                worst_stab,
                tols["solve_stability"],
            ),
        )

    (rep_a, rep_b), dt = timed(solve_translation_suite)
    record(rep_a, dt / 2)
    record(rep_b, dt / 2)

    t0 = time.perf_counter()
    expected = ext.expected_dimension(econfig)
    try:
        dim = ext.dimension_rank_report(
            econfig,
            counts["dimension_points"],
            stream_for("dimension_points"),
            gap=tols["dimension_gap"],
        )
        dim_entry = {
            "expected": expected,
            "measured": dim.rank,
            "gap_fraction": dim.gap_fraction,
            "points": dim.points,
            "pass": dim.rank == expected,
            "seconds": time.perf_counter() - t0,
        }
    except BruckLoopsError as exc:
        dim_entry = {
            "expected": expected,
            "measured": None,
            "gap_fraction": 0.0,
            "points": counts["dimension_points"],
            "pass": False,
            "error": str(exc),
            "seconds": time.perf_counter() - t0,
        }

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
        tol = cfg.numeric_tol()
        lhs = _load_matrix_element(args.lhs, form)
        rhs = _load_matrix_element(args.rhs, form)
        if lhs.form != rhs.form:
            raise ConfigInvalid("operands carry different forms")
        product = MatrixLoop(lhs.form, tol).mul(lhs, rhs)
        out = element_to_json(product)
        out["diagnostics"] = _diagnostics(product, cfg.tolerances["membership"])
    else:
        _, tol, econfig, _ = resolve(cfg)
        e1, e2 = (_load_extension_element(path) for path in (args.lhs, args.rhs))
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
    _, tol, econfig, _ = resolve(cfg)
    report = ext.nonisomorphism_witness(
        econfig,
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
    form, tol, econfig, _ = resolve(cfg)
    stream = SampleStream(cfg.seed)
    lines = []
    if args.loop == "matrix":
        for _ in range(args.count):
            elem, stream = sample_sigma(form, stream, args.radius, tol)
            lines.append(json.dumps(element_to_json(elem), sort_keys=True))
    else:
        loop = ext.ext_loop_interface(econfig, sample_radius=args.radius)
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
    except (ConfigInvalid, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BruckLoopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
