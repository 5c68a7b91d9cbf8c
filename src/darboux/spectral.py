"""Floating-point verification layer: finite differences on a uniform grid.

Deliberately independent of the exact engine: it only ever samples exact
objects pointwise and never re-derives a symbolic formula, so agreement
between the two layers is meaningful evidence.

numpy is bound in one place, ``_NumpyOnFirstUse.__getattr__``: the first
float operation that reads an ``np`` attribute imports numpy and rebinds the
module's ``np`` to it, so commands that never sample a grid start without it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .gaussian import GaussFun
from .polynomial import Poly, WFun, sturm_real_root_count
from .transform import TransformResult


class PoleOnGrid(ValueError):
    """A sampled rational function has a real pole."""


class NonConvergence(RuntimeError):
    """Inverse iteration failed to reach the residual target."""


class LevelCountMismatch(RuntimeError):
    """A Sturm count between predicted levels disagrees with the prediction."""


class _NumpyOnFirstUse:
    """Stands in for numpy until the first attribute read imports it."""

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()

GridFunction = "np.ndarray"
Sampleable = Union[Poly, WFun, GaussFun]


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
        # A finite width makes the spacing, width / (n_points - 1), finite too.
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(
                f"grid width on [{self.x_min}, {self.x_max}] is not a finite float"
            )
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


REFERENCE_GRID = Grid(-12.0, 12.0, 2401)


def _poly_values(p: Poly, xs: np.ndarray) -> np.ndarray:
    """Float Horner on ``nums[i] / den``: ``int / int`` rounds correctly, as
    ``float(Fraction)`` does, and the in-place steps are the same IEEE
    operations in the same order as ``acc * xs + c``."""
    acc = np.zeros_like(xs)
    den = p.den
    for c in reversed(p.nums):
        acc *= xs
        acc += c / den
    return acc


def _rational_values(r: WFun, xs: np.ndarray) -> np.ndarray:
    """Samples of r's canonical form, after proving it has no real pole:
    r's poles are zeros of its base's W, whose whole-line root count is
    taken once per base, so a value over a node-free base (the polynomials'
    among them) needs no count; over a base with real roots, r's canonical
    denominator is counted on the whole line."""
    if r.base.real_root_count():
        den = r.den
        if den.degree() > 0 and sturm_real_root_count(den) > 0:
            raise PoleOnGrid(
                f"the sampled function has a real pole: its denominator {den!r} has a real root"
            )
    return _poly_values(r.num, xs) / _poly_values(r.den, xs)


def sample(f: Sampleable, grid: Grid) -> GridFunction:
    """Pointwise float samples of a Poly, a WFun or a GaussFun; a value with
    a real pole is rejected exactly, with ``PoleOnGrid``
    (``_rational_values``).

    An overflow or an invalid operation raises numpy's FloatingPointError
    instead of leaving an inf or a nan in the samples.
    """
    xs = grid.points()
    with np.errstate(over="raise", invalid="raise"):
        if isinstance(f, Poly):
            return _poly_values(f, xs)
        if isinstance(f, WFun):
            return _rational_values(f, xs)
        if isinstance(f, GaussFun):
            return _rational_values(f.r, xs) * np.exp(float(f.s) * xs * xs / 4.0)
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
        if d < _PIVMIN:  # negative, or fenced to -pivmin
            if d > -_PIVMIN:
                d = -_PIVMIN
            count += 1
            if count == cap:
                break
    return count


def _count_and_ratio(diag: list[float], off_sq: list[float], lam: float) -> tuple[int, float]:
    """Full Sturm count below ``lam``, and f'/f for f(lam) = det(T - lam*I).

    The pivots are those of ``_count_below`` (same recurrence, same fence),
    so the count is the same.  Each pivot's derivative is d_i' = -1 +
    b_i^2 d_{i-1}' / d_{i-1}^2, so with q_i = b_i^2 / d_{i-1} the term
    r_i = d_i'/d_i of f'/f = sum r_i is (q_i r_{i-1} - 1) / d_i.  Past a
    fenced pivot the ratio is meaningless (huge, inf or nan), so a Newton
    step taken from it must be checked by counts.
    """
    count = 0
    d = 1.0
    r = 0.0
    ratio = 0.0
    for di, osq in zip(diag, off_sq):
        q = osq / d
        d = di - lam - q
        if d < _PIVMIN:
            if d > -_PIVMIN:
                d = -_PIVMIN
            count += 1
        r = (q * r - 1.0) / d
        ratio += r
    return count, ratio


def _wider_than(lo: float, hi: float, tol: float) -> bool:
    """Whether (lo, hi] is wider than ``tol`` and a float lies strictly inside."""
    return hi - lo > tol and lo < 0.5 * (lo + hi) < hi


def eigenvalues_bisection(t: TridiagMatrix, k_lowest: int, tol: float = 1e-10) -> list[float]:
    """k lowest eigenvalues in nondecreasing order, each to absolute tolerance ``tol``.

    Sturm counts isolate eigenvalue j in a bracket (lo, hi] with count(lo) =
    j - 1 and count(hi) = j; safeguarded Newton steps on det(T - lam) refine
    it, and every step's count shrinks the bracket.  A step that leaves the
    bracket, or a zero f'/f, falls back to the bracket midpoint (bisection).
    A level is done only when its bracket is at most ``tol`` wide (or its
    ends are adjacent floats): a Newton step shorter than ``tol`` is
    confirmed by two counts at lam -+ tol/2, never trusted on its own.

    Both shortcuts below rest on one premise: the computed Sturm count is
    monotone in lam (it is for this recurrence with its -pivmin fence:
    Barth, Martin & Wilkinson; Demmel, Dhillon & Ren, ETNA 3, 1995).
    - Every isolation count is taken with ``cap = k_lowest + 1``, and every
      probe is recorded as min(count, k_lowest + 1) (the Newton passes count
      in full, for f'/f).  Capping keeps the probe list sorted, and
      every decision compares a count with some j <= k_lowest < cap: the
      index bisect_left(counts, j) and the isolation test (j - 1, j) read
      the same as with full counts.  So a pass far above the k lowest
      levels stops after k_lowest + 1 negative pivots.
    - A certificate count at lam -+ tol/2 is skipped when the bracket
      already settles it: count(lo) < j, so a point at or below lo counts
      below j; count(hi) >= j, so a point at or above hi counts at least j.
    Neither changes a probe position, so the result is that of full counts.
    References: Barth, Martin & Wilkinson, Numer. Math. 1967; Li & Zeng,
    SIAM J. Sci. Comput. 1994.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if k_lowest < 1 or k_lowest > t.size:
        raise ValueError("k_lowest out of range")
    radius = np.abs(t.off)
    lo_bound = float(np.min(t.diag - np.concatenate([[0.0], radius]) - np.concatenate([radius, [0.0]])))
    hi_bound = float(np.max(t.diag + np.concatenate([[0.0], radius]) + np.concatenate([radius, [0.0]])))
    diag, off_sq = _sturm_rows(t)
    # Every count taken, capped at k_lowest + 1, in increasing lam.  Counts
    # rise with lam, so one probe bounds every later level too.
    cap = k_lowest + 1
    lams, counts = [lo_bound, hi_bound], [0, min(t.size, cap)]

    def record(lam: float, count: int) -> None:
        at = bisect.bisect(lams, lam)
        lams.insert(at, lam)
        counts.insert(at, count)

    out: list[float] = []
    for j in range(1, k_lowest + 1):
        at = bisect.bisect_left(counts, j)
        lo, hi = lams[at - 1], lams[at]
        # Isolation: bisect until (lo, hi] holds eigenvalue j alone, or until
        # it is tol wide (eigenvalues closer than tol never separate).
        while (counts[at - 1], counts[at]) != (j - 1, j) and _wider_than(lo, hi, tol):
            mid = 0.5 * (lo + hi)
            record(mid, _count_below(diag, off_sq, mid, cap))
            at = bisect.bisect_left(counts, j)
            lo, hi = lams[at - 1], lams[at]

        x = 2.0 * out[-1] - out[-2] if j > 2 else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        newton = math.nan
        while _wider_than(lo, hi, tol):
            count, ratio = _count_and_ratio(diag, off_sq, x)
            record(x, min(count, cap))
            if count >= j:
                hi = x
            else:
                lo = x
            newton = x - 1.0 / ratio if ratio else math.nan
            if abs(newton - x) < tol:  # a claim to certify, not a stop
                below, above = newton - 0.5 * tol, newton + 0.5 * tol
                if below > lo and _count_below(diag, off_sq, below, cap=j) >= j:
                    hi = min(hi, below)
                elif above < hi and _count_below(diag, off_sq, above, cap=j) < j:
                    lo = max(lo, above)
                else:
                    lo, hi = max(lo, below), min(hi, above)
                    break
            x = newton if lo < newton < hi else 0.5 * (lo + hi)
        out.append(newton if lo < newton <= hi else 0.5 * (lo + hi))
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
    count at every m + 1/2, from m = -1 (nothing below -1/2) to n_max, must
    equal the number of predicted levels up to m;
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
        for m in range(-1, n_max + 1):
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
