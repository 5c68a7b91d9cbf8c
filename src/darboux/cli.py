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


def fraction_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def poly_to_json(p: Poly) -> list:
    return [fraction_to_json(c) for c in p.coeffs]


def poly_from_json(obj: list) -> Poly:
    return Poly(fraction_from_json(c) for c in obj)


def ratfun_to_json(r: RatFun) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfun_from_json(obj: dict) -> RatFun:
    return RatFun(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


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

@dataclass
class RunConfig:
    levels: tuple[int, ...]
    n_max: int = 8
    x_min: float = -12.0
    x_max: float = 12.0
    n_points: int = 2401
    fmt: str = "json"
    out: str | None = None
    corrupt_vn: Fraction | None = None

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n_points)


_FORMATS = ("json", "csv")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Config-file keys (the flags' destinations) and what each value must be.
_CONFIG_KEYS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "levels": ("a list of integers or a comma-separated string",
               lambda v: isinstance(v, str) or (isinstance(v, list) and all(map(_is_int, v)))),
    "nmax": ("an integer", _is_int),
    "xmin": ("a number", _is_number),
    "xmax": ("a number", _is_number),
    "points": ("an integer", _is_int),
    "format": (" or ".join(f'"{f}"' for f in _FORMATS), lambda v: isinstance(v, str) and v in _FORMATS),
    "out": ("a string", lambda v: isinstance(v, str)),
    "corrupt_vn": ("a number or a string", lambda v: isinstance(v, str) or _is_number(v)),
}


def _read_config(path: str) -> dict:
    """The JSON object in ``path``, every key known and every value typed."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path} must hold a JSON object, got {json.dumps(cfg)}")
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r} in {path}; known keys: {', '.join(_CONFIG_KEYS)}")
        what, valid = _CONFIG_KEYS[key]
        if not valid(value):
            raise ValueError(f"{key!r} in {path} must be {what}, got {json.dumps(value)}")
    return cfg


def _parse_levels(raw) -> tuple[int, ...]:
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


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """File config first, flags win on conflict."""
    file_cfg = _read_config(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    levels_raw = pick(args.levels, "levels", None)
    if levels_raw is None:
        raise ValueError("no levels given (use --levels or a config file)")
    corrupt = pick(getattr(args, "corrupt_vn", None), "corrupt_vn", None)
    cfg = RunConfig(
        levels=_parse_levels(levels_raw),
        n_max=pick(args.nmax, "nmax", 8),
        x_min=float(pick(args.xmin, "xmin", -12.0)),
        x_max=float(pick(args.xmax, "xmax", 12.0)),
        n_points=pick(args.points, "points", 2401),
        fmt=pick(args.format, "format", "json"),
        out=pick(args.out, "out", None),
        corrupt_vn=Fraction(str(corrupt)) if corrupt is not None else None,
    )
    # Bounds on the grid and nmax, checked here so no command starts exact
    # work on them.
    cfg.grid()
    if cfg.n_max < 0:
        raise ValueError(f"--nmax {cfg.n_max} is below 0")
    if args.command == "classify" and cfg.n_max < cfg.levels[-1]:
        raise ValueError(
            f"--nmax {cfg.n_max} is below the highest selected level {cfg.levels[-1]}"
        )
    if args.command == "spectrum" and cfg.n_max >= cfg.n_points:
        raise ValueError(
            f"--nmax {cfg.n_max} needs more than --points {cfg.n_points} grid points"
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

def _psi_levels(cfg: RunConfig) -> list[int]:
    return [n for n in range(cfg.n_max + 1) if n not in cfg.levels]


def _transform_csv_lines(model: OscillatorModel, tr: TransformResult, cfg: RunConfig) -> list[str]:
    grid = cfg.grid()
    xs = grid.points()
    columns = [xs, sample(tr.base_potential, grid), sample(tr.partner_potential, grid)]
    names = ["x", "V0", "VN"]
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    for n in _psi_levels(cfg):
        image = crum_krein_apply(tr, model.eigenfunction(n))
        norm_sq = math.factorial(n) * sqrt_2pi
        for alpha in tr.selection.alphas:
            norm_sq *= float(model.energy(n) - alpha)
        columns.append(sample(image, grid) / math.sqrt(norm_sq))
        names.append(f"psi_{n}")
    lines = [",".join(names)]
    for i in range(len(xs)):
        lines.append(",".join(_fmt17(col[i]) for col in columns))
    return lines


def cmd_transform(cfg: RunConfig) -> int:
    model = OscillatorModel()
    tr = build_transform(model, cfg.levels)
    doc = transform_to_json(tr)
    json_text = json.dumps(doc, indent=2)
    csv_text = "\n".join(_transform_csv_lines(model, tr, cfg)) + "\n"
    files = {}
    if cfg.out:
        stem = _out_stem(cfg.out)
        files = {stem + ".json": json_text + "\n", stem + ".csv": csv_text}
    return _emit(csv_text if cfg.fmt == "csv" else json_text, files)


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
    n_max = cfg.n_max
    survivors = [n for n in range(n_max + 1) if n not in levels]
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
        record("golden_closed_forms", golden_cross_check(tr, n_max).ok,
               "partner potential and wave functions match the closed forms", "closed-form mismatch")
    else:
        record("golden_closed_forms", True, skipped)

    acomm = anticommutator_check(tr, {n: doublets[n] for n in range(n_max + 1)})
    record("superalgebra_anticommutator", acomm.ok,
           "factor prod(E - alpha_i) on every eigen-doublet", "mismatch")

    grid = cfg.grid()
    if juxtaposed_pair:
        worst = 0.0
        for n in survivors:
            bracket, norm = partner_eigenfunction_closed_form(levels[0], n)
            values = sample(bracket, grid) / math.sqrt(norm.to_float())
            worst = max(worst, abs(quadrature_simpson(values**2, grid) - 1.0))
        record("closed_form_normalization", worst <= 1e-4, f"max |1 - norm| {worst:.3e}")
    else:
        record("closed_form_normalization", True, skipped)

    sqrt_2pi = math.sqrt(2.0 * math.pi)
    worst = 0.0
    for n, image in images.items():
        expected = 1.0
        for alpha in alphas:
            expected *= float(model.energy(n) - alpha)
        num = quadrature_simpson(sample(image, grid) ** 2, grid)
        got = num / (math.factorial(n) * sqrt_2pi)
        worst = max(worst, abs(got - expected) / abs(expected))
    record("norm_transport", worst <= 1e-6, f"max relative error {worst:.3e}")
    return results


def cmd_verify(cfg: RunConfig) -> int:
    model = OscillatorModel()
    tr = build_transform(model, cfg.levels)
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
    if cfg.fmt == "csv":
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


def cmd_spectrum(cfg: RunConfig) -> int:
    model = OscillatorModel()
    tr = build_transform(model, cfg.levels)
    report = verify_spectrum(tr, cfg.n_max, cfg.grid())

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

def cmd_classify(cfg: RunConfig) -> int:
    model = OscillatorModel()
    tr = build_transform(model, cfg.levels)
    result = classify(model, tr, cfg.n_max)
    doc = {
        "n0": sorted(result.n0),
        "vacuum_energy": fraction_to_json(result.vacuum_energy),
        "tags": {str(n): tag for n, tag in sorted(result.tags.items())},
        "below_vacuum": sorted(result.below_vacuum),
    }
    text = json.dumps(doc, indent=2)
    return _emit(text, {cfg.out: text + "\n"} if cfg.out else {})


# -- entry point --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darboux",
        description="Exact higher-order Darboux partner potentials of the harmonic "
        "oscillator, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("transform", "build the transformation and emit exact coefficients plus samples"),
        ("verify", "run the exact and numeric verification suites"),
        ("spectrum", "compare numeric spectra of the base and partner Hamiltonians"),
        ("classify", "emit the supersymmetric level classification"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--levels", help="comma-separated deleted levels, e.g. 1,2")
        p.add_argument("--nmax", type=int, help="highest level to inspect (default 8)")
        p.add_argument("--xmin", type=float, help="grid left end (default -12)")
        p.add_argument("--xmax", type=float, help="grid right end (default 12)")
        p.add_argument("--points", type=int, help="grid point count (default 2401)")
        p.add_argument("--format", choices=_FORMATS, help="output format (default json)")
        p.add_argument("--out", help="output path")
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        if name == "verify":
            p.add_argument(
                "--corrupt-vn",
                dest="corrupt_vn",
                help="negative-control hook: exact rational added to the partner potential",
            )
    return parser


_COMMANDS = {
    "transform": cmd_transform,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "classify": cmd_classify,
}


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
    try:
        return _COMMANDS[args.command](cfg)
    except InadmissibleSelection as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    except FloatingPointError as exc:
        print(f"invalid grid: samples on [{cfg.x_min}, {cfg.x_max}] are not finite ({exc})",
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
