"""Command-line front end: transform, verify, spectrum and classify runs.

Exit codes: 0 success, 1 verification or numeric failure, 2 invalid or
inadmissible input.  Exact rationals serialise as {"num": str, "den": str}
so no precision is lost in JSON, and ``json_text`` writes every JSON
document; CSV output has a fixed column order and 17-digit floats (``_F17``).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

import numpy as np

from .oscillator import OscillatorModel, golden_cross_check, is_juxtaposed_pair
from .polynomial import Poly, RatFun
from .spectral import (
    REFERENCE_GRID,
    Grid,
    LevelCountMismatch,
    PoleOnGrid,
    SpectrumReport,
    SpectrumRow,
    quadrature_simpson,
    sample,
    verify_spectrum,
)
from .susy import anticommutator_check, classify, eigen_doublet
from .transform import (
    InadmissibleSelection,
    LevelSelection,
    TransformResult,
    build_transform,
    crum_krein_apply,
    factorization_identity_check,
    kernel_functions,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


# -- exact JSON encoding ----------------------------------------------------

def fraction_to_json(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def poly_to_json(p: Poly) -> list:
    return [fraction_to_json(c) for c in p.coeffs]


def ratfun_to_json(r: RatFun) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists,
    strings, ints, floats and None: the same text, without the pure-Python
    encoder that ``indent`` selects."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{encode_basestring_ascii(k)}: {json_text(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{items}\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = ",\n".join(inner + json_text(v, inner) for v in value)
        return f"[\n{items}\n{indent}]"
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    if value is None:
        return "null"
    raise TypeError(f"cannot write {type(value).__name__} as JSON text")


def transform_to_json(tr: TransformResult) -> dict:
    return {
        "model": "oscillator",
        "levels": list(tr.selection.levels),
        "alphas": [fraction_to_json(a) for a in tr.selection.alphas],
        "order": tr.order,
        "wronskian_poly": poly_to_json(tr.wronskian.r.num),
        "wronskian_den": poly_to_json(tr.wronskian.r.den),
        "wronskian_weight": fraction_to_json(tr.wronskian.s),
        "potential_shift": ratfun_to_json(tr.shift),
        "base_potential": ratfun_to_json(tr.base_potential),
        "partner_potential": ratfun_to_json(tr.partner_potential),
        "operator_coeffs": [ratfun_to_json(c) for c in tr.operator.coeffs],
    }


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A run's settings, named by their config-file keys; one validated grid."""

    levels: tuple[int, ...]
    nmax: int
    grid: Grid
    format: str
    out: str | None
    corrupt_vn: Fraction | None


_FORMATS = ("json", "csv")
# transform and verify scale each survivor n by the float squared norm of
# L phi_n, the model's squared norm times P(E_n); its rational part
# squared_norm(n).q * |P(E_n)| must stay below this.
# classify builds the same images, so it takes the same cap.
_FLOAT_NORM_LIMIT = sys.float_info.max / math.sqrt(2 * math.pi)


# Float samples a command holds at once: grid points times its columns.
# Peak RSS at 100001 points against 2401 gives the cost of a sample: 74 B
# in transform's CSV (x, V0, VN and one column per survivor, as floats and
# as 17-digit text), 110 B in spectrum (V0 and VN, each also in its matrix and
# Sturm rows).  verify holds one image, classify none.  At 110 B: 0.86 GiB.
_MAX_SAMPLES = 1 << 23

# The Wronskian's degree sum(k_i) - N(N-1)/2, known before any exact work,
# drives the exact layer's cost.  On a 2-vCPU host, verify --nmax 8 at
# degree 64 took 0.3, 0.5-0.7, 2.0-2.2, 2.2-3.9, 5.4-7.1 and 15-17 s at
# orders 2, 4, 6, 8, 10 and 12 (two runs each); transform --nmax 5 took 28 s
# at degree 400.  The cap keeps an order-10 verify under 10 s; a higher
# order costs more at the same degree.
_MAX_WRONSKIAN_DEGREE = 64


def _largest_float_norm_nmax(model: OscillatorModel, selection: LevelSelection) -> int:
    """Largest nmax whose survivors all have a finite float norm.

    Every survivor has an integer energy n and |P(n)| >= 1, so the first
    survivor from 171 on overflows, as n! alone does.  Above the top level,
    n! and every factor n - alpha_i grow with n, so the first overflow there
    is found by bisection; below it, each survivor is tried in turn.
    """
    def overflows(n: int) -> bool:
        norm = model.squared_norm(n).q * abs(selection.factor(model.energy(n)))
        return norm > _FLOAT_NORM_LIMIT

    top = selection.levels[-1]
    for n in range(top):
        if n not in selection.levels and overflows(n):
            return n - 1
    above = range(top + 1, max(top + 1, 171) + 1)
    return above[bisect.bisect_left(above, True, key=overflows)] - 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_levels(raw) -> tuple[int, ...]:
    if raw is None:
        raise ValueError("no levels given (use --levels or a config file)")
    if isinstance(raw, list):
        values = list(raw)
    else:
        values = [int(part) for part in str(raw).split(",") if part.strip() != ""]
    if not values:
        raise ValueError("at least one level is required")
    if any(v < 0 for v in values):
        raise ValueError("levels must be nonnegative")
    ordered = tuple(sorted(set(values)))
    if len(ordered) != len(values):
        raise ValueError("levels must be distinct")
    return ordered


def _parse_fraction(raw) -> Fraction | None:
    try:
        return None if raw is None else Fraction(str(raw))
    except ZeroDivisionError:
        raise ValueError(f"--corrupt-vn {raw} has a zero denominator") from None


@dataclass(frozen=True)
class _Option:
    """One setting: its flag, default, help text and config-file check.

    ``key`` names the config-file key and, with dashes, the flag.  ``valid``
    is None for the one option a config file cannot set, ``--config``.
    """

    key: str
    default: object
    help: str
    what: str = ""  # what a config-file value must be
    valid: Callable[[object], bool] | None = None
    parse: Callable[[object], object] = lambda raw: raw
    flag_type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    command: str | None = None  # the one subcommand that has the flag

    @property
    def help_text(self) -> str:
        if self.default is None:
            return self.help
        shown = self.default if isinstance(self.default, str) else f"{self.default:g}"
        return f"{self.help} (default {shown})"


# Every option, in help and config-key order.
_OPTIONS = (
    _Option("levels", None, "comma-separated deleted levels, e.g. 1,2",
            "a list of integers or a comma-separated string",
            lambda v: isinstance(v, str) or (isinstance(v, list) and all(map(_is_int, v))),
            parse=_parse_levels),
    _Option("nmax", 8, "highest level to inspect", "an integer", _is_int, flag_type=int),
    _Option("xmin", REFERENCE_GRID.x_min, "grid left end", "a number", _is_number,
            parse=float, flag_type=float),
    _Option("xmax", REFERENCE_GRID.x_max, "grid right end", "a number", _is_number,
            parse=float, flag_type=float),
    _Option("points", REFERENCE_GRID.n_points, "grid point count", "an integer", _is_int,
            flag_type=int),
    _Option("format", "json", "output format", " or ".join(f'"{f}"' for f in _FORMATS),
            lambda v: isinstance(v, str) and v in _FORMATS, choices=_FORMATS),
    _Option("out", None, "output path", "a string", lambda v: isinstance(v, str)),
    _Option("config", None, "JSON config file; flags win on conflict"),
    _Option("corrupt_vn", None,
            "negative-control hook: exact rational added to the partner potential; "
            "give a negative one with =, as in --corrupt-vn=-1/3",
            "a number or a string", lambda v: isinstance(v, str) or _is_number(v),
            parse=_parse_fraction, command="verify"),
)
_CONFIG_KEYS = {opt.key: opt for opt in _OPTIONS if opt.valid is not None}


def _read_config(path: str) -> dict:
    """The JSON object in ``path``, every key known and every value typed."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path} must hold a JSON object, got {json.dumps(cfg)}")
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r} in {path}; known keys: {', '.join(_CONFIG_KEYS)}")
        opt = _CONFIG_KEYS[key]
        if not opt.valid(value):
            raise ValueError(f"{key!r} in {path} must be {opt.what}, got {json.dumps(value)}")
    return cfg


def _merge_config(args: argparse.Namespace, model: OscillatorModel) -> RunConfig:
    """Each option from its flag, else the config file, else its default."""
    file_cfg = _read_config(args.config) if args.config else {}
    value = {}
    for key, opt in _CONFIG_KEYS.items():
        raw = getattr(args, key, None)  # absent where the subcommand lacks the flag
        if raw is None:
            raw = file_cfg.get(key, opt.default)
        value[key] = opt.parse(raw)
    # Bounds on the grid and nmax, checked here so no command starts exact
    # work on them.
    grid = Grid(value.pop("xmin"), value.pop("xmax"), value.pop("points"))
    cfg = RunConfig(grid=grid, **value)
    if cfg.out == "":
        raise ValueError("--out is an empty path: it names no file to write")
    if cfg.nmax < 0:
        raise ValueError(f"--nmax {cfg.nmax} is below 0")
    selection = LevelSelection.for_model(model, cfg.levels)
    if args.command != "spectrum":
        top = _largest_float_norm_nmax(model, selection)
        if cfg.nmax > top:
            raise ValueError(
                f"--nmax {cfg.nmax} is above {top}, the largest for levels "
                f"{','.join(map(str, cfg.levels))}: the float norm "
                f"n! * sqrt(2 pi) * prod(n - k_i) of level {top + 1} overflows"
            )
    columns = {"spectrum": 2, "verify": 1}.get(args.command, 0)
    if args.command == "transform" and "csv" in _transform_formats(cfg):
        columns = len(selection.survivors(cfg.nmax)) + 3
    if cfg.grid.n_points * columns > _MAX_SAMPLES:
        raise ValueError(
            f"--points {cfg.grid.n_points} is too many for {args.command}: {columns} "
            f"columns of samples exceed the cap of {_MAX_SAMPLES} float samples"
        )
    if args.command == "classify" and cfg.nmax < cfg.levels[-1]:
        raise ValueError(
            f"--nmax {cfg.nmax} is below the highest selected level {cfg.levels[-1]}"
        )
    if args.command == "spectrum":
        grid = cfg.grid
        if cfg.nmax >= grid.n_points:
            raise ValueError(
                f"--nmax {cfg.nmax} needs more than --points {grid.n_points} grid points"
            )
        # The finite-difference Hamiltonian's entries are multiples of 1/h^2,
        # and its Sturm count squares the off-diagonal -1/h^2: float products
        # that overflow to inf, formed here as spectral forms them.
        h2 = grid.h * grid.h
        inv_h2 = 1.0 / h2 if h2 else math.inf
        for name, value in (("1/h^2", inv_h2), ("1/h^4", inv_h2 * inv_h2)):
            if not math.isfinite(value):
                raise ValueError(
                    f"grid spacing h = {grid.h!r} on [{grid.x_min}, {grid.x_max}] with "
                    f"--points {grid.n_points} is too small: {name} is not a finite float"
                )
    order = len(cfg.levels)
    degree = sum(cfg.levels) - order * (order - 1) // 2
    if degree > _MAX_WRONSKIAN_DEGREE:
        raise ValueError(
            f"levels {','.join(map(str, cfg.levels))} give a Wronskian of degree {degree}, "
            f"above the cap of {_MAX_WRONSKIAN_DEGREE}"
        )
    return cfg


_F17 = "%.17g"  # the one 17-significant-digit float format


def _out_stem(path: str) -> str:
    for suffix in (".json", ".csv"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _emit(text: str, files: dict[str, str]) -> int:
    """Write each ``{path: content}`` entry, then print ``text``.

    An unwritable path is bad input: it is reported, nothing is printed and
    the exit code says so.
    """
    for path, content in files.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            print(f"cannot write --out file: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    print(text)
    return EXIT_OK


# -- transform ----------------------------------------------------------------

def _csv_rows(columns: Sequence[np.ndarray]) -> list[str]:
    """One line per sample: the columns' values side by side, each written
    by ``_F17``, with one %-format per line."""
    row = ",".join([_F17] * len(columns))
    return [row % values for values in zip(*(col.tolist() for col in columns))]


def _transform_csv_lines(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> list[str]:
    grid = cfg.grid
    columns = [grid.points(), sample(tr.base_potential, grid), sample(tr.partner_potential, grid)]
    names = ["x", "V0", "VN"]
    for n in tr.selection.survivors(cfg.nmax):
        image = crum_krein_apply(tr, model.eigenfunction(n))
        # Norm first, then one float factor per alpha: another order moves last bits.
        norm_sq = model.squared_norm(n).to_float()
        for alpha in tr.selection.alphas:
            norm_sq *= float(model.energy(n) - alpha)
        columns.append(sample(image, grid) / math.sqrt(norm_sq))
        names.append(f"psi_{n}")
    return [",".join(names), *_csv_rows(columns)]


def _transform_formats(cfg: RunConfig) -> tuple[str, ...]:
    """The texts transform builds: the one it prints, and both for --out."""
    return _FORMATS if cfg.out else (cfg.format,)


def cmd_transform(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    formats = _transform_formats(cfg)
    text = {}
    if "json" in formats:
        text["json"] = json_text(transform_to_json(tr))
    if "csv" in formats:
        text["csv"] = "\n".join(_transform_csv_lines(model, tr, cfg)) + "\n"
    files = {}
    if cfg.out:
        stem = _out_stem(cfg.out)
        files = {stem + ".json": text["json"] + "\n", stem + ".csv": text["csv"]}
    return _emit(text[cfg.format], files)


# -- verify ---------------------------------------------------------------------

def _verification_checks(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> list[dict]:
    """Run every check once; the report's entries, in report order."""
    levels = tr.selection.levels
    n_max = cfg.nmax
    skipped = "skipped (not a juxtaposed pair)"
    h_partner = tr.hamiltonian_partner()
    results: list[dict] = []

    def record(name: str, ok: bool, detail: str, failure: str | None = None) -> None:
        results.append({"name": name, "status": "pass" if ok else "fail",
                        "detail": detail if ok or failure is None else failure})

    # Each image L phi_n is built once: the kernel check reads the selected
    # levels, the partner-side checks read the survivors.  The anticommutator
    # check forms every (hN - E_n) L phi_n once, up to 2N - 1 at least: the
    # factorisation check proves both identities from those levels, and
    # levels above nmax are checked but not reported.
    top = max(n_max, 2 * tr.order - 1)
    doublets = {n: eigen_doublet(model, tr, n) for n in sorted({*range(top + 1), *levels})}
    acomm = anticommutator_check(tr, doublets)
    by_level = {c.level: c for c in acomm.checks}

    factorization = factorization_identity_check(tr, acomm.checks)
    record("L_dagger_L_factorization", factorization.base_ok, "exact-zero residual",
           f"residual {factorization.residual_base!r}")
    record("L_L_dagger_factorization", factorization.partner_ok, "exact-zero residual",
           f"residual {factorization.residual_partner!r}")

    bad = [k for k in levels if not doublets[k].lower.is_zero]
    record("kernel_annihilation", not bad, "L u_i = 0 for all selected levels", f"nonzero at {bad}")

    bad = []
    for k, alpha, v in zip(levels, tr.selection.alphas, kernel_functions(tr)):
        if not tr.adjoint(v).is_zero:
            bad.append(("adjoint", k))
        if not (h_partner(v) - v * alpha).is_zero:
            bad.append(("eigen", k))
    record("adjoint_kernel", not bad, "L+ v_k = 0 and (hN - alpha_k) v_k = 0", f"failures: {bad}")

    # eigen_residuals reads the intertwining residuals for the survivors.
    images = {n: doublets[n].lower for n in tr.selection.survivors(n_max)}
    bad = [n for n, image in images.items() if image.is_zero or not by_level[n].intertwining_ok]
    record("eigen_residuals", not bad, "(hN - E_n) L phi_n = 0 for all surviving levels",
           f"failed levels {bad}")

    golden = golden_cross_check(tr, images) if is_juxtaposed_pair(levels) else None
    if golden:
        record("golden_closed_forms", golden.ok,
               "partner potential and wave functions match the closed forms", "closed-form mismatch")
    else:
        record("golden_closed_forms", True, skipped)

    record("superalgebra_anticommutator", all(by_level[n].ok for n in range(n_max + 1)),
           "factor prod(E - alpha_i) on every eigen-doublet", "mismatch")

    grid = cfg.grid
    if golden:
        worst = 0.0
        for check in golden.levels:
            values = sample(check.bracket, grid) / math.sqrt(check.norm.to_float())
            worst = max(worst, abs(quadrature_simpson(values**2, grid) - 1.0))
        record("closed_form_normalization", worst <= 1e-4, f"max |1 - norm| {worst:.3e}")
    else:
        record("closed_form_normalization", True, skipped)

    worst = 0.0
    for n, image in images.items():
        expected = float(by_level[n].factor)
        num = quadrature_simpson(sample(image, grid) ** 2, grid)
        got = num / model.squared_norm(n).to_float()
        worst = max(worst, abs(got - expected) / abs(expected))
    record("norm_transport", worst <= 1e-6, f"max relative error {worst:.3e}")
    return results


def cmd_verify(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    if cfg.corrupt_vn is not None:
        # Negative-control hook: an exact perturbation of the partner
        # potential must trip the residual checks.
        tr = replace(tr, partner_potential=tr.partner_potential + cfg.corrupt_vn)

    checks = _verification_checks(model, tr, cfg)
    text = json_text({"levels": list(cfg.levels), "checks": checks})
    if _emit(text, {cfg.out: text + "\n"} if cfg.out else {}) != EXIT_OK:
        return EXIT_BAD_INPUT
    failures = [check["name"] for check in checks if check["status"] == "fail"]
    if failures:
        print(f"verification failed: {failures[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- spectrum --------------------------------------------------------------------

def _partner_cells(row: SpectrumRow, err_format: str) -> tuple[str, str]:
    """The hN and hN_err cells of a spectrum row; deleted levels say so."""
    if row.partner_deleted:
        return "deleted", ""
    return _F17 % row.partner_value, err_format % row.partner_error


def _spectrum_file_text(report: SpectrumReport, cfg: RunConfig) -> str:
    if cfg.format == "csv":
        csv_lines = ["level,predicted,h0,h0_err,hN,hN_err"]
        for row in report.rows:
            hn, hn_err = _partner_cells(row, _F17)
            csv_lines.append(
                f"{row.level},{row.predicted},{_F17 % row.base_value},"
                f"{_F17 % row.base_error},{hn},{hn_err}"
            )
        return "\n".join(csv_lines) + "\n"
    return json_text(
        {
            "levels": list(cfg.levels),
            "max_error": report.max_error,
            "rows": [
                {
                    "level": row.level,
                    "predicted": fraction_to_json(row.predicted),
                    "h0": row.base_value,
                    "h0_err": row.base_error,
                    "hN": "deleted" if row.partner_deleted else row.partner_value,
                    "hN_err": row.partner_error,
                }
                for row in report.rows
            ],
        }
    ) + "\n"


def cmd_spectrum(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    report = verify_spectrum(tr, cfg.nmax, cfg.grid)

    header = f"{'level':>5} {'predicted':>10} {'h0':>22} {'h0_err':>12} {'hN':>22} {'hN_err':>12}"
    lines = [header]
    for row in report.rows:
        hn, hn_err = _partner_cells(row, "%.3e")
        lines.append(
            f"{row.level:>5} {str(row.predicted):>10} {_F17 % row.base_value:>22}"
            f" {row.base_error:>12.3e} {hn:>22} {hn_err:>12}"
        )
    return _emit("\n".join(lines), {cfg.out: _spectrum_file_text(report, cfg)} if cfg.out else {})


# -- classify --------------------------------------------------------------------

def cmd_classify(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    result = classify(model, tr, cfg.nmax)
    doc = {
        "n0": sorted(result.n0),
        "vacuum_energy": fraction_to_json(result.vacuum_energy),
        "tags": {str(n): tag for n, tag in sorted(result.tags.items())},
        "below_vacuum": sorted(result.below_vacuum),
    }
    text = json_text(doc)
    return _emit(text, {cfg.out: text + "\n"} if cfg.out else {})


# -- entry point --------------------------------------------------------------------

_COMMANDS = {
    "transform": (cmd_transform, "build the transformation and emit exact coefficients plus samples"),
    "verify": (cmd_verify, "run the exact and numeric verification suites"),
    "spectrum": (cmd_spectrum, "compare numeric spectra of the base and partner Hamiltonians"),
    "classify": (cmd_classify, "emit the supersymmetric level classification"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call and kept: each ``parse_args``
    starts from a fresh namespace, so calls share nothing else."""
    parser = argparse.ArgumentParser(
        prog="darboux",
        description="Exact higher-order Darboux partner potentials of the harmonic "
        "oscillator, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in _OPTIONS:
            if opt.command in (None, name):
                flag = "--" + opt.key.replace("_", "-")
                p.add_argument(flag, type=opt.flag_type, choices=opt.choices, help=opt.help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; keep the contract
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    model = OscillatorModel()
    try:
        cfg = _merge_config(args, model)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        tr = build_transform(model, cfg.levels)
        command, _ = _COMMANDS[args.command]
        return command(model, tr, cfg)
    except InadmissibleSelection as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    except FloatingPointError as exc:
        grid = cfg.grid
        print(f"invalid grid: samples on [{grid.x_min}, {grid.x_max}] are not finite ({exc})",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    except PoleOnGrid as exc:
        print(f"grid failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LevelCountMismatch as exc:
        print(f"spectrum check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
