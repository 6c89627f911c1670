"""Command-line front door: deterministic verification suites, element
arithmetic, factorization, witnesses and machine-readable reports.  Each
command is a row of ``COMMANDS`` (help line, handler, a function adding its
arguments); the first call of a command in a process builds that command's
parser alone, and later calls reuse it.  The suite itself, its property
table and its runner, is ``bruckloops.suite``; ``run_verify`` resolves a
config, runs the suite and adds the config echo and the total time.

Exit codes are a stable contract: 0 when every required property passes,
1 when a property fails, or ``mul``'s product fails its membership
diagnostics (the output is still written), 2 for usage or configuration
errors.  ``witness`` constructs its element, so ``--seed`` does not change
it.  Each command's Sigma operands or draws are checked by one stacked
``membership_residual`` call (``_check_sigma``).  ``sample`` draws as the
suite does: unit uniforms at the seed's first counters, cut per sample by
``sample_parts`` and mapped by the charts.

Every setting is a row of ``SETTINGS`` (config key, ``SuiteConfig``
attribute, type), which the JSON loader, the command-line flags and the
report echo all read; the config's one section, ``samples``, sets the
per-property counts.  A command whose n x n matrices would pass the fixed
``SIZE_BUDGET`` is refused when its config is loaded, before anything is
built or drawn.  Every default is echoed, so a run is self-describing;
identical config and seed produce byte-identical reports on one machine and
one numpy/LAPACK build, except for the wall-clock fields.  Arithmetic on
outside input (the transversal, in ``resolve``; ``mul``, ``factor`` and
``sample``) runs under the one floating-point trap, ``_in_float_range``;
the properties run outside it, so their breakdowns stay failed report
entries.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import extension as ext
from . import geometry
from .errors import BruckLoopsError, ConfigInvalid, NotInOrbit, TransversalityViolated
from .groups import (
    MEMBERSHIP_TOLERANCE,
    SAMPLE_RADIUS,
    SampleStream,
    SignatureForm,
    element_from_json,
    element_to_json,
    membership_residual,
    polar_factorize,
    sample_parts,
    sigma_from_uniforms,
    sigma_width,
    standard_boost,
    unit_uniforms,
)
# check_bol is held for bench/tests/test_bench.py; the suite's rows run its steps, kernel.bol
from .kernel import check_bol  # noqa: F401
from .linalg import COMPLEX, convert, dag, field_of, fro, read_matrix_text
from .matrixloop import MatrixLoop
# INFORMATIONAL is held for bench/workloads.py
from .suite import DEFAULT_SAMPLES, INFORMATIONAL, MAX_SAMPLES, held_matrices, run_suite  # noqa: F401

# The most bytes of n x n matrices a command may hold: verify's drawn Sigma
# and Phi parts, sample's drawn elements, and a workspace of _WORKSPACE
# more for every command.  256 MiB admits every default-count verify up to
# n = 47 real and n = 33 complex, which peak at 169 and 177 MiB
# (ru_maxrss, OPENBLAS_NUM_THREADS=1), and refuses any command at n = 3000.
SIZE_BUDGET = 1 << 28
_WORKSPACE = 8  # n x n matrices every command holds besides its draws: products, checks, output

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


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at ``path``, the one reader of every input
    file; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: str, what: str, text: str | None = None) -> dict:
    """The JSON object in the file at ``path``, whose ``text`` is read here
    unless given; ``what`` names it in errors."""
    try:
        obj = json.loads(_read_text(path, what) if text is None else text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{what} {path} must hold a JSON object")
    return obj


def load_suite_config(args) -> SuiteConfig:
    """The defaults, then the ``--config`` file, then the flags in ``args``.
    The ``out`` key and the ``samples`` section are read by ``verify``
    alone, the one command with the ``--out`` and ``--samples`` flags.  A
    config whose command would hold more than ``SIZE_BUDGET`` bytes of n x n
    matrices is refused: verify's drawn parts, sample's ``--count``
    elements, and for every command ``_WORKSPACE`` more."""
    cfg = SuiteConfig()
    raw = {} if args.config is None else _read_json(args.config, "config")
    for key, value in raw.items():
        if key in ("out", "samples") and not hasattr(args, "samples"):
            raise ConfigInvalid(f"config key {key!r} is read by verify alone")
        if key == "samples":
            if not isinstance(value, dict):
                raise ConfigInvalid("config section 'samples' must be an object")
            for name, entry in value.items():
                if name not in cfg.samples:
                    raise ConfigInvalid(f"unknown samples entry {name!r}")
                cfg.samples[name] = convert(int, entry, f"samples.{name}")
        elif key in SETTINGS:
            attr, kind, _ = SETTINGS[key]
            setattr(cfg, attr, convert(kind, value, key))
        else:
            raise ConfigInvalid(f"unknown config key {key!r}")
    for attr, _, _ in SETTINGS.values():
        if getattr(args, attr, None) is not None:
            setattr(cfg, attr, getattr(args, attr))
    if getattr(args, "samples", None) is not None:
        cfg.samples |= {name: args.samples for name in cfg.samples if name != "dimension_points"}
    low = sorted(name for name, count in cfg.samples.items() if count < 1)
    if low:
        raise ConfigInvalid(f"sample counts must be >= 1: {', '.join(low)}")
    high = sorted(name for name, count in cfg.samples.items() if count > MAX_SAMPLES)
    if high:
        raise ConfigInvalid(f"sample counts must be <= {MAX_SAMPLES}: {', '.join(high)}")
    drawn = held_matrices(cfg.samples) if hasattr(args, "samples") else getattr(args, "count", 0)
    size = (drawn + _WORKSPACE) * cfg.n**2 * (16 if cfg.field_name == COMPLEX else 8)
    if size > SIZE_BUDGET:
        raise ConfigInvalid(
            f"n = {cfg.n} needs about {size:,} bytes of n x n matrices, over the size budget of {SIZE_BUDGET:,}"
        )
    return cfg


def build_wtilde(form: SignatureForm, carrier: int, spec: str):
    """Resolve a transversal spec (``standard``, ``boost:<t>``, ``file:<path
    to subspace JSON>``) to the point and frame ``extension_config`` checks.
    Overflow is not trapped here but in ``resolve`` (``_in_float_range``)."""
    if spec == "standard":
        return None
    if spec.startswith("boost:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigInvalid(f"bad boost parameter in {spec!r}") from exc
        if not math.isfinite(t):
            raise ConfigInvalid(f"{spec!r} has a non-finite boost parameter")
        return geometry.apply(standard_boost(form, t), ext.complement(form, carrier))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return geometry.from_json(_read_json(path, "transversal file"), form.field)
    raise ConfigInvalid(f"unknown wtilde spec {spec!r}")


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


def resolve(cfg: SuiteConfig) -> ext.ExtensionConfig:
    """Validate a suite config into the extension loop every property samples from."""
    form = cfg.form
    with _in_float_range(f"transversal {cfg.wtilde!r}"):
        return ext.extension_config(form, cfg.carrier, build_wtilde(form, cfg.carrier, cfg.wtilde))


# The two JSON writers, built once: an indented document, and one line.
_DOCUMENT = json.JSONEncoder(sort_keys=True, indent=2).encode
_LINE = json.JSONEncoder(sort_keys=True).encode


def _json_text(obj) -> str:
    return _DOCUMENT(obj) + "\n"


def run_verify(cfg: SuiteConfig) -> dict:
    """The report of one verify: the suite on the resolved config, its
    config echo and its total time, counted from after ``resolve``."""
    loop = resolve(cfg)
    t_start = time.perf_counter()
    report = run_suite(loop, cfg.samples, cfg.seed)
    return report | {"config": cfg.echo(), "total_seconds": time.perf_counter() - t_start}


# ---------------------------------------------------------------------------
# element loading for mul / factor
# ---------------------------------------------------------------------------


def _load_matrix_element(path: str, form: SignatureForm) -> np.ndarray:
    """A JSON element of the configured form, or a matrix text file read in
    it; complex text for a real form would lose its imaginary part, so is
    refused."""
    text = _read_text(path, "element file")
    if text.lstrip().startswith("{"):
        return element_from_json(_read_json(path, "element file", text), form)
    matrix = read_matrix_text(text)
    if not np.can_cast(matrix.dtype, form.dtype):
        raise ConfigInvalid(f"{path}: {field_of(matrix)} matrix text does not fit the {form.field} form")
    return matrix.astype(form.dtype)


def _check_sigma(stack: np.ndarray, form: SignatureForm, name: Callable[[int], str]) -> None:
    """Refuse a stack of operands or drawn Sigma parts holding a matrix that
    is not a Sigma element, from one ``membership_residual`` call: the first
    such, matrix i, is named ``name(i)`` with its worst condition."""
    rep = membership_residual(stack, form)
    if not rep.passed:
        worst = np.max(list(rep.residuals.values()), axis=0)
        first = int(np.argmax(worst > MEMBERSHIP_TOLERANCE))
        residuals = {cond: float(r[first]) for cond, r in rep.residuals.items()}
        condition = max(residuals, key=residuals.get)
        raise ConfigInvalid(f"{name(first)}: not in Sigma, {condition} residual {residuals[condition]:.3e}")


def _diagnostics(a: np.ndarray, form: SignatureForm) -> dict:
    rep = membership_residual(a, form)
    return {"membership": rep.residuals, "pass": rep.passed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, the empty one included,
    before the suite runs; the file is neither created nor truncated here."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigInvalid(f"cannot write the report to {path or repr(path)}")


def cmd_verify(args) -> int:
    cfg = load_suite_config(args)
    if cfg.out is not None:
        _check_writable(cfg.out)
    report = run_verify(cfg)
    text = _json_text(report)
    if cfg.out is not None:
        with open(cfg.out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


def cmd_mul(args) -> int:
    cfg = load_suite_config(args)
    with _in_float_range():
        out, rho = _product(args, cfg)
        out["diagnostics"] = _diagnostics(rho, cfg.form)
    sys.stdout.write(_json_text(out))
    return 0 if out["diagnostics"]["pass"] else 1


def _product(args, cfg: SuiteConfig) -> tuple:
    """The product of the two operand files, as JSON and its Sigma part.
    Both operands' Sigma parts are checked by one ``_check_sigma`` call;
    a refusal names the first bad operand as checking lhs, then rhs would.
    An extension product that breaks down in the orbit chart is refused
    naming both operands."""
    paths = (args.lhs, args.rhs)
    if args.loop == "matrix":
        form = cfg.form
        lhs, rhs = (_load_matrix_element(path, form) for path in paths)
        _check_sigma(np.stack([lhs, rhs]), form, paths.__getitem__)
        product = MatrixLoop(form).mul(lhs, rhs)
        return element_to_json(product, form), product
    eloop = resolve(cfg)
    e1, e2 = (ext.extension_element_from_json(_read_json(path, "element file"), eloop.form) for path in paths)
    frame = eloop.wtilde.frame  # orthonormal, through 0 once validated
    off = [not np.linalg.norm(e.w - frame @ (dag(frame) @ e.w)) <= MEMBERSHIP_TOLERANCE for e in (e1, e2)]
    # checked in the order lhs rho, lhs w, rhs rho, rhs w: the rho up to the first w off the transversal
    last = off.index(True) if True in off else 1
    _check_sigma(np.stack([e1.rho, e2.rho])[: last + 1], eloop.form, paths.__getitem__)
    if off[last]:
        raise ConfigInvalid(f"{paths[last]}: w is not on the transversal")
    try:
        product = eloop.mul(e1, e2)
    except (NotInOrbit, TransversalityViolated) as exc:
        raise ConfigInvalid(
            f"product of {paths[0]} and {paths[1]} leaves float64's range of the orbit chart: {exc}"
        ) from exc
    return product.to_json(eloop.form), product.rho


def cmd_factor(args) -> int:
    cfg = load_suite_config(args)
    form = cfg.form
    s = _load_matrix_element(args.matrix, form)
    with _in_float_range():
        s1, c = polar_factorize(s, form)
        residual = fro(s1 @ c - s) / fro(s)
    out = {
        "s1": element_to_json(s1, form),
        "c": element_to_json(c, form),
        "reconstruction_residual": residual,
    }
    sys.stdout.write(_json_text(out))
    return 0


def cmd_witness(args) -> int:
    cfg = load_suite_config(args)
    report = ext.nonisomorphism_witness(resolve(cfg))
    out = {
        "element": element_to_json(report.element, cfg.form),
        "displacement": report.displacement,
        # always 1, the element being constructed; bench/workloads.py's _check_witness reads it
        "samples_used": 1,
    }
    sys.stdout.write(_json_text(out))
    return 0


def cmd_sample(args) -> int:
    if not 0 <= args.count <= MAX_SAMPLES:
        raise ConfigInvalid(f"count must be in [0, {MAX_SAMPLES}], got {args.count}")
    cfg = load_suite_config(args)
    form = cfg.form
    loop = None if args.loop == "matrix" else resolve(cfg)
    # per sample a Sigma element, after a transversal point on the extension loop
    widths = [sigma_width(form)] if loop is None else [loop.point_width, sigma_width(form)]
    with _in_float_range():
        u = unit_uniforms(cfg.seed, SampleStream(cfg.seed).counters(args.count * sum(widths)))
        parts = sample_parts(u, args.count, widths)
        sigma = sigma_from_uniforms(form, parts[-1], args.radius)
        if loop is None:
            objs = (element_to_json(a, form) for a in sigma)
        else:
            elems = ext.ExtensionElement(loop.point_from_uniforms(parts[0]), sigma)
            objs = (elems[i].to_json(form) for i in range(args.count))
        _check_sigma(sigma, form, lambda i: f"sample {i + 1} of {args.count}")
        lines = [_LINE(obj) for obj in objs]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _add_common(parser: argparse.ArgumentParser, verify: bool = False) -> None:
    """``--config`` and a flag per setting; ``--out`` and ``--samples`` only
    if ``verify``."""
    parser.add_argument("--config", help="JSON config file")
    for key, (attr, kind, options) in SETTINGS.items():
        if key != "out" or verify:
            parser.add_argument(f"--{key}", dest=attr, type=kind, **options)
    if verify:
        parser.add_argument("--samples", type=int, help="override every per-property sample count")


_LOOP = {"choices": ["matrix", "extension"], "default": "matrix"}


def _mul_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("lhs")
    parser.add_argument("rhs")
    parser.add_argument("--loop", **_LOOP)
    _add_common(parser)


def _factor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("matrix")
    _add_common(parser)


def _sample_arguments(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--radius", type=float, default=SAMPLE_RADIUS)
    parser.add_argument("--loop", **_LOOP)


# Command name -> (help line, handler, a function adding its arguments in usage order).
COMMANDS = {
    "verify": ("run the full property suite", cmd_verify, lambda parser: _add_common(parser, verify=True)),
    "mul": ("multiply two elements", cmd_mul, _mul_arguments),
    "factor": ("split an isometry into its unique positive * unitary pair", cmd_factor, _factor_arguments),
    "witness": ("find a block unitary displacing the transversal", cmd_witness, _add_common),
    "sample": ("emit deterministic element samples", cmd_sample, _sample_arguments),
}


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as ``bruckloops <name>``, built on its first
    call in a process and reused after: ``parse_args`` fills a fresh
    namespace from the parser's fixed defaults on every call."""
    _, handler, add_arguments = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"bruckloops {name}")
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the command names and their help lines, for help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="bruckloops",
        description="verify loop identities on matrix Bruck loops and their affine-subspace extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)  # exits: help, no command or an unknown one
    args = command_parser(argv[0]).parse_args(argv[1:])
    try:
        return args.func(args)
    except (BruckLoopsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
