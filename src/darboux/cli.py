"""Command-line front end: transform, verify, spectrum and classify runs.

Exit codes: 0 success, 1 verification or numeric failure, 2 invalid or
inadmissible input.  Exact rationals serialise as {"num": str, "den": str}
so no precision is lost in JSON; CSV output uses a fixed column order and
17-significant-digit formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from .oscillator import (
    OscillatorModel,
    golden_cross_check,
    partner_eigenfunction_closed_form,
)
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
    return None if raw is None else Fraction(str(raw))


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


def _merge_config(args: argparse.Namespace) -> RunConfig:
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
    if cfg.nmax < 0:
        raise ValueError(f"--nmax {cfg.nmax} is below 0")
    if args.command == "classify" and cfg.nmax < cfg.levels[-1]:
        raise ValueError(
            f"--nmax {cfg.nmax} is below the highest selected level {cfg.levels[-1]}"
        )
    if args.command == "spectrum" and cfg.nmax >= cfg.grid.n_points:
        raise ValueError(
            f"--nmax {cfg.nmax} needs more than --points {cfg.grid.n_points} grid points"
        )
    return cfg


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


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

def _transform_csv_lines(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> list[str]:
    grid = cfg.grid
    xs = grid.points()
    columns = [xs, sample(tr.base_potential, grid), sample(tr.partner_potential, grid)]
    names = ["x", "V0", "VN"]
    for n in tr.selection.survivors(cfg.nmax):
        image = crum_krein_apply(tr, model.eigenfunction(n))
        norm_sq = model.squared_norm(n).to_float()
        for alpha in tr.selection.alphas:
            norm_sq *= float(model.energy(n) - alpha)
        columns.append(sample(image, grid) / math.sqrt(norm_sq))
        names.append(f"psi_{n}")
    lines = [",".join(names)]
    for i in range(len(xs)):
        lines.append(",".join(_fmt17(col[i]) for col in columns))
    return lines


def cmd_transform(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    doc = transform_to_json(tr)
    json_text = json.dumps(doc, indent=2)
    csv_text = "\n".join(_transform_csv_lines(model, tr, cfg)) + "\n"
    files = {}
    if cfg.out:
        stem = _out_stem(cfg.out)
        files = {stem + ".json": json_text + "\n", stem + ".csv": csv_text}
    return _emit(csv_text if cfg.format == "csv" else json_text, files)


# -- verify ---------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verification_checks(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> list[CheckResult]:
    """Run every check once, in report order."""
    levels = tr.selection.levels
    alphas = tr.selection.alphas
    n_max = cfg.nmax
    survivors = tr.selection.survivors(n_max)
    juxtaposed_pair = len(levels) == 2 and levels[1] == levels[0] + 1
    skipped = "skipped (not a juxtaposed pair)"
    h_partner = tr.hamiltonian_partner()
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str, failure: str | None = None) -> None:
        results.append(CheckResult(name, ok, detail if ok or failure is None else failure))

    factorization = factorization_identity_check(tr)
    record("L_dagger_L_factorization", factorization.base_ok, "exact-zero residual",
           f"residual {factorization.residual_base!r}")
    record("L_L_dagger_factorization", factorization.partner_ok, "exact-zero residual",
           f"residual {factorization.residual_partner!r}")

    # Each image L phi_n is built once: the kernel check reads the selected
    # levels, the partner-side checks read the survivors.
    doublets = {n: eigen_doublet(model, tr, n) for n in sorted({*range(n_max + 1), *levels})}
    bad = [k for k in levels if not doublets[k].lower.is_zero]
    record("kernel_annihilation", not bad, "L u_i = 0 for all selected levels", f"nonzero at {bad}")

    bad = []
    for k, alpha, v in zip(levels, alphas, kernel_functions(tr)):
        if not tr.adjoint(v).is_zero:
            bad.append(("adjoint", k))
        if not (h_partner(v) - v * alpha).is_zero:
            bad.append(("eigen", k))
    record("adjoint_kernel", not bad, "L+ v_k = 0 and (hN - alpha_k) v_k = 0", f"failures: {bad}")

    images = {n: doublets[n].lower for n in survivors}
    bad = []
    for n, image in images.items():
        if image.is_zero or not (h_partner(image) - image * model.energy(n)).is_zero:
            bad.append(n)
    record("eigen_residuals", not bad, "(hN - E_n) L phi_n = 0 for all surviving levels",
           f"failed levels {bad}")

    if juxtaposed_pair:
        record("golden_closed_forms", golden_cross_check(tr, images).ok,
               "partner potential and wave functions match the closed forms", "closed-form mismatch")
    else:
        record("golden_closed_forms", True, skipped)

    acomm = anticommutator_check(tr, {n: doublets[n] for n in range(n_max + 1)})
    record("superalgebra_anticommutator", acomm.ok,
           "factor prod(E - alpha_i) on every eigen-doublet", "mismatch")

    grid = cfg.grid
    if juxtaposed_pair:
        worst = 0.0
        for n in survivors:
            bracket, norm = partner_eigenfunction_closed_form(levels[0], n)
            values = sample(bracket, grid) / math.sqrt(norm.to_float())
            worst = max(worst, abs(quadrature_simpson(values**2, grid) - 1.0))
        record("closed_form_normalization", worst <= 1e-4, f"max |1 - norm| {worst:.3e}")
    else:
        record("closed_form_normalization", True, skipped)

    worst = 0.0
    for n, image in images.items():
        expected = 1.0
        for alpha in alphas:
            expected *= float(model.energy(n) - alpha)
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

    results = _verification_checks(model, tr, cfg)

    report = {
        "levels": list(cfg.levels),
        "checks": [
            {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
            for r in results
        ],
    }
    text = json.dumps(report, indent=2)
    if _emit(text, {cfg.out: text + "\n"} if cfg.out else {}) != EXIT_OK:
        return EXIT_BAD_INPUT
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"verification failed: {failures[0].name}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- spectrum --------------------------------------------------------------------

def _partner_cells(row: SpectrumRow, fmt_err: Callable[[float], str]) -> tuple[str, str]:
    """The hN and hN_err cells of a spectrum row; deleted levels say so."""
    if row.partner_deleted:
        return "deleted", ""
    return _fmt17(row.partner_value), fmt_err(row.partner_error)


def _spectrum_file_text(report: SpectrumReport, cfg: RunConfig) -> str:
    if cfg.format == "csv":
        csv_lines = ["level,predicted,h0,h0_err,hN,hN_err"]
        for row in report.rows:
            hn, hn_err = _partner_cells(row, _fmt17)
            csv_lines.append(
                f"{row.level},{row.predicted},{_fmt17(row.base_value)},"
                f"{_fmt17(row.base_error)},{hn},{hn_err}"
            )
        return "\n".join(csv_lines) + "\n"
    return json.dumps(
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
        },
        indent=2,
    ) + "\n"


def cmd_spectrum(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> int:
    report = verify_spectrum(tr, cfg.nmax, cfg.grid)

    header = f"{'level':>5} {'predicted':>10} {'h0':>22} {'h0_err':>12} {'hN':>22} {'hN_err':>12}"
    lines = [header]
    for row in report.rows:
        hn, hn_err = _partner_cells(row, lambda err: f"{err:.3e}")
        lines.append(
            f"{row.level:>5} {str(row.predicted):>10} {_fmt17(row.base_value):>22}"
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
    text = json.dumps(doc, indent=2)
    return _emit(text, {cfg.out: text + "\n"} if cfg.out else {})


# -- entry point --------------------------------------------------------------------

_COMMANDS = {
    "transform": (cmd_transform, "build the transformation and emit exact coefficients plus samples"),
    "verify": (cmd_verify, "run the exact and numeric verification suites"),
    "spectrum": (cmd_spectrum, "compare numeric spectra of the base and partner Hamiltonians"),
    "classify": (cmd_classify, "emit the supersymmetric level classification"),
}


def _build_parser() -> argparse.ArgumentParser:
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
    try:
        cfg = _merge_config(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    model = OscillatorModel()
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
