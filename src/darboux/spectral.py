"""Floating-point verification layer: finite differences on a uniform grid.

Deliberately independent of the exact engine: it only ever samples exact
objects pointwise and never re-derives a symbolic formula, so agreement
between the two layers is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .gaussian import GaussFun
from .polynomial import Poly, RatFun, sturm_real_root_count
from .transform import TransformResult


class PoleOnGrid(ValueError):
    """A sampled rational function has a pole inside the grid interval."""


class NonConvergence(RuntimeError):
    """Inverse iteration failed to reach the residual target."""


class LevelCountMismatch(RuntimeError):
    """A Sturm count between predicted levels disagrees with the prediction."""


GridFunction = np.ndarray
Sampleable = Union[Poly, RatFun, GaussFun]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid ends must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


REFERENCE_GRID = Grid(-12.0, 12.0, 2401)


def _poly_values(p: Poly, xs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(xs)
    for c in reversed(p.coeffs):
        acc = acc * xs + float(c)
    return acc


def _check_pole_free(den: Poly, grid: Grid) -> None:
    if den.degree() <= 0:
        return
    lo, hi = Fraction(grid.x_min), Fraction(grid.x_max)
    if sturm_real_root_count(den, lo, hi) > 0:
        raise PoleOnGrid(f"denominator {den!r} vanishes inside [{grid.x_min}, {grid.x_max}]")


def sample(f: Sampleable, grid: Grid) -> GridFunction:
    """Pointwise float samples of an exact object; poles are rejected exactly.

    An overflow or an invalid operation raises numpy's FloatingPointError
    instead of leaving an inf or a nan in the samples.
    """
    xs = grid.points()
    with np.errstate(over="raise", invalid="raise"):
        if isinstance(f, Poly):
            return _poly_values(f, xs)
        if isinstance(f, RatFun):
            _check_pole_free(f.den, grid)
            return _poly_values(f.num, xs) / _poly_values(f.den, xs)
        if isinstance(f, GaussFun):
            _check_pole_free(f.r.den, grid)
            base = _poly_values(f.r.num, xs) / _poly_values(f.r.den, xs)
            return base * np.exp(float(f.s) * xs * xs / 4.0)
    raise TypeError(f"cannot sample {type(f).__name__}")


@dataclass(frozen=True)
class TridiagMatrix:
    """Symmetric tridiagonal matrix (diagonal and one off-diagonal)."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if len(self.off) != len(self.diag) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")

    @property
    def size(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def inf_norm(self) -> float:
        rows = np.abs(self.diag).astype(float)
        rows[:-1] += np.abs(self.off)
        rows[1:] += np.abs(self.off)
        return float(rows.max())


def build_hamiltonian(potential: GridFunction, grid: Grid) -> TridiagMatrix:
    """Second-order discretisation of -d^2/dx^2 + V with Dirichlet ends."""
    if len(potential) != grid.n_points:
        raise ValueError("potential samples do not match the grid")
    inv_h2 = 1.0 / (grid.h * grid.h)
    diag = 2.0 * inv_h2 + np.asarray(potential, dtype=float)
    off = np.full(grid.n_points - 1, -inv_h2)
    return TridiagMatrix(diag, off)


_PIVMIN = 1e-200


def _sturm_rows(t: TridiagMatrix) -> tuple[list[float], list[float]]:
    """The diagonal and the squared off-diagonal as Python floats.

    The squares are led by a 0.0, so row 0 takes the same recurrence step as
    every other row: ``diag[0] - lam - 0.0 / d`` is ``diag[0] - lam`` exactly.
    """
    return t.diag.tolist(), [0.0] + (t.off * t.off).tolist()


def _count_below(diag: list[float], off_sq: list[float], lam: float, cap: int | None = None) -> int:
    """Eigenvalues below ``lam`` (Sturm count), or ``cap`` once that many are found.

    Counts the negative pivots of the LDL^T factorisation of T - lam*I, with
    rows from ``_sturm_rows``.  Vanishing pivots are fenced to -pivmin (they
    signal an eigenvalue of a leading minor at lam and must count as negative
    for monotonicity).  Plain floats round as numpy float64 scalars do, so the
    count is that of the same recurrence run on the arrays.
    """
    count = 0
    d = 1.0
    for di, osq in zip(diag, off_sq):
        d = di - lam - osq / d
        if abs(d) < _PIVMIN:
            d = -_PIVMIN
        if d < 0.0:
            count += 1
            if count == cap:
                break
    return count


def eigenvalues_bisection(t: TridiagMatrix, k_lowest: int, tol: float = 1e-10) -> list[float]:
    """k lowest eigenvalues by Sturm-count bisection, to absolute tolerance."""
    if k_lowest < 1 or k_lowest > t.size:
        raise ValueError("k_lowest out of range")
    radius = np.abs(t.off)
    lo_bound = float(np.min(t.diag - np.concatenate([[0.0], radius]) - np.concatenate([radius, [0.0]])))
    hi_bound = float(np.max(t.diag + np.concatenate([[0.0], radius]) + np.concatenate([radius, [0.0]])))
    diag, off_sq = _sturm_rows(t)
    out = []
    lo_start = lo_bound
    for j in range(1, k_lowest + 1):
        lo, hi = lo_start, hi_bound
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            # Only "at least j below mid?" matters, so the count may stop at j.
            if _count_below(diag, off_sq, mid, cap=j) >= j:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
        lo_start = lo  # eigenvalues are returned in nondecreasing order
    return out


class _TridiagLU:
    """LU factorisation of a (shifted) tridiagonal matrix, partial pivoting.

    Row swaps introduce a second superdiagonal; near-singular pivots are
    fenced so solves against an exact eigenvalue shift stay finite (the huge
    solution is the point of inverse iteration).
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n = len(diag)
        d = diag.astype(float).copy()
        du = off.astype(float).copy() if n > 1 else np.zeros(0)
        dl = off.astype(float).copy() if n > 1 else np.zeros(0)
        du2 = np.zeros(max(n - 2, 0))
        swap = np.zeros(max(n - 1, 0), dtype=bool)
        fence = _PIVMIN
        for i in range(n - 1):
            if abs(d[i]) >= abs(dl[i]):
                if abs(d[i]) < fence:
                    d[i] = fence
                factor = dl[i] / d[i]
                d[i + 1] -= factor * du[i]
                dl[i] = factor
            else:
                factor = d[i] / dl[i]
                d[i] = dl[i]
                dl[i] = factor
                tmp = d[i + 1]
                d[i + 1] = du[i] - factor * tmp
                du[i] = tmp
                if i < n - 2:
                    du2[i] = du[i + 1]
                    du[i + 1] = -factor * du2[i]
                swap[i] = True
        if abs(d[n - 1]) < fence:
            d[n - 1] = fence
        self.d, self.du, self.du2, self.dl, self.swap = d, du, du2, dl, swap

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = len(self.d)
        x = rhs.astype(float).copy()
        for i in range(n - 1):
            if self.swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - self.dl[i] * x[i + 1]
            else:
                x[i + 1] -= self.dl[i] * x[i]
        x[n - 1] /= self.d[n - 1]
        if n > 1:
            x[n - 2] = (x[n - 2] - self.du[n - 2] * x[n - 1]) / self.d[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (x[i] - self.du[i] * x[i + 1] - self.du2[i] * x[i + 2]) / self.d[i]
        return x


def eigenvector_inverse_iteration(
    t: TridiagMatrix, lam: float, max_iter: int = 50
) -> GridFunction:
    """Unit-norm eigenvector for an eigenvalue estimate, by inverse iteration.

    Deterministic (fixed-seed start vector); the sign is fixed so the first
    component exceeding 1e-8 in magnitude is positive.  Raises
    NonConvergence if the residual target is not met.
    """
    norm_t = t.inf_norm()
    target = 1e-8 * norm_t
    lu = _TridiagLU(t.diag - lam, t.off)
    rng = np.random.default_rng(20240229)
    v = rng.uniform(-1.0, 1.0, t.size)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = lu.solve(v)
        scale = float(np.max(np.abs(w)))
        if not np.isfinite(scale) or scale == 0.0:
            raise NonConvergence("inverse iteration produced a degenerate vector")
        w /= scale  # guard the 2-norm against overflow on near-singular solves
        w /= float(np.linalg.norm(w))
        residual = float(np.linalg.norm(t.matvec(w) - lam * w))
        if residual <= target:
            significant = np.nonzero(np.abs(w) > 1e-8)[0]
            if len(significant) and w[significant[0]] < 0.0:
                w = -w
            return w
        v = w
    raise NonConvergence(f"no convergence after {max_iter} iterations")


def quadrature_simpson(values: GridFunction, grid: Grid) -> float:
    """Composite Simpson integral; even point counts get a trapezoid tail."""
    if len(values) != grid.n_points:
        raise ValueError("samples do not match the grid")
    h = grid.h
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n % 2 == 1:
        core, tail = v, 0.0
    else:
        core = v[: n - 1]
        tail = 0.5 * h * (v[-2] + v[-1])
    total = core[0] + core[-1] + 4.0 * core[1:-1:2].sum() + 2.0 * core[2:-1:2].sum()
    return float(h / 3.0 * total + tail)


@dataclass(frozen=True)
class SpectrumRow:
    level: int
    predicted: Fraction
    base_value: float
    base_error: float
    partner_deleted: bool
    partner_value: float | None
    partner_error: float | None


@dataclass(frozen=True)
class SpectrumReport:
    rows: tuple[SpectrumRow, ...]
    max_error: float


def verify_spectrum(tr: TransformResult, n_max: int, grid: Grid) -> SpectrumReport:
    """Numerically confirm that exactly the selected levels are deleted.

    The base spectrum is compared against {0..n_max}; the partner spectrum
    against the same set minus the selection, matched in order.  Matching in
    order is only sound when no level is missing or spurious, so the Sturm
    count at every m + 1/2 must equal the number of predicted levels up to m;
    LevelCountMismatch names the first sector and m where it does not.  The
    counts are cheap, so they run before the eigenvalue solves.
    """
    v0 = sample(tr.base_potential, grid)
    vn = sample(tr.partner_potential, grid)
    t0 = build_hamiltonian(v0, grid)
    tn = build_hamiltonian(vn, grid)

    survivors = tr.selection.survivors(n_max)
    for sector, t, levels in (("base", t0, range(n_max + 1)), ("partner", tn, survivors)):
        diag, off_sq = _sturm_rows(t)
        for m in range(n_max + 1):
            expected = sum(1 for n in levels if n <= m)
            found = _count_below(diag, off_sq, m + 0.5)
            if found != expected:
                raise LevelCountMismatch(
                    f"{sector} sector has {found} levels below m + 1/2 at m = {m}, expected {expected}"
                )
    base_eigs = eigenvalues_bisection(t0, n_max + 1)
    partner_eigs = eigenvalues_bisection(tn, len(survivors)) if survivors else []
    partner_by_level = dict(zip(survivors, partner_eigs))

    rows = []
    max_err = 0.0
    for n in range(n_max + 1):
        predicted = Fraction(n)
        base_val = base_eigs[n]
        base_err = abs(base_val - float(predicted))
        max_err = max(max_err, base_err)
        if n in tr.selection.levels:
            rows.append(SpectrumRow(n, predicted, base_val, base_err, True, None, None))
        else:
            pv = partner_by_level[n]
            perr = abs(pv - float(predicted))
            max_err = max(max_err, perr)
            rows.append(SpectrumRow(n, predicted, base_val, base_err, False, pv, perr))
    return SpectrumReport(tuple(rows), max_err)
