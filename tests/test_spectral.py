import bisect
import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from darboux import spectral
from darboux.gaussian import GaussFun
from darboux.polynomial import Poly, WBase, WFun
from darboux.spectral import (
    Grid,
    LevelCountMismatch,
    NonConvergence,
    PoleOnGrid,
    REFERENCE_GRID,
    TridiagMatrix,
    _count_and_ratio,
    _count_below,
    _count_from_brackets,
    _wider_than,
    build_hamiltonian,
    eigenvalues_bisection,
    eigenvector_inverse_iteration,
    quadrature_simpson,
    sample,
    verify_spectrum,
)
from darboux.transform import build_transform, crum_krein_apply


_X = sympy.Symbol("x")
# Two bases with real nodes and one node-free base.
_W_X, _W_ROOT2, _W_FREE = WBase(Poly((0, 1))), WBase(Poly((-2, 0, 1))), WBase(Poly((1, 0, 1)))
_nonzero_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any).map(Poly)


def _over(num: Poly, den: Poly) -> WFun:
    """num / den over the powers of its own monic denominator: a fresh base,
    whose roots no sample has counted yet."""
    return WBase(den).over(num * (1 / den.lead()), 1)


_sampled_values = st.one_of(
    st.builds(_over, _nonzero_polys, _nonzero_polys.filter(lambda p: p.degree() > 0)),
    st.builds(lambda base, p, k: base.over(p, k),
              st.sampled_from([_W_X, _W_ROOT2, _W_FREE]), _nonzero_polys, st.integers(1, 2)),
)
# Windows both around and beside the poles the values above can have.
_small_grids = st.builds(lambda lo, width: Grid(lo, lo + width, 11),
                         st.integers(-3, 1).map(float), st.integers(1, 3).map(float))


def _sympy_expr(p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * _X**i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


@pytest.fixture
def laplacian3():
    return TridiagMatrix(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]))


class TestGridAndSampling:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    def test_reference_grid_spacing(self):
        assert REFERENCE_GRID.h == pytest.approx(0.01)
        assert len(REFERENCE_GRID.points()) == 2401

    def test_constant(self):
        g = Grid(0.0, 1.0, 5)
        assert np.all(sample(Poly((1,)), g) == 1.0)

    def test_partner_potential_origin(self, model, tr12):
        g = Grid(-1.0, 1.0, 5)  # midpoint is x = 0
        vals = sample(tr12.partner_potential, g)
        assert vals[2] == pytest.approx(-2.5, abs=1e-14)

    def test_gaussian_value(self, model):
        g = Grid(-2.0, 2.0, 5)
        vals = sample(model.eigenfunction(0), g)
        assert vals[-1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_overflow_raises_instead_of_inf(self, model, tr12):
        huge = Grid(-1e300, 1e300, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for f in (model.potential, tr12.partner_potential, model.eigenfunction(3)):
                with pytest.raises(FloatingPointError):
                    sample(f, huge)

    def test_underflow_samples_to_zero(self, model):
        values = sample(model.eigenfunction(2), Grid(-1e10, 1e10, 101))
        assert np.all(np.isfinite(values))
        assert values[0] == 0.0

    def test_pole_rejected(self):
        f = _over(Poly.one(), Poly((0, 1)))  # 1/x
        with pytest.raises(PoleOnGrid, match="has a real pole"):
            sample(f, Grid(-1.0, 1.0, 11))
        # A pole beside the window is rejected too: the count is whole-line.
        with pytest.raises(PoleOnGrid, match="has a real pole"):
            sample(f, Grid(1.0, 2.0, 11))
        # A denominator with no real root is sampled.
        g = _over(Poly.one(), Poly((1, 0, 1)))  # 1/(1 + x^2)
        assert np.all(np.isfinite(sample(g, Grid(-1.0, 1.0, 11))))

    @settings(deadline=None, max_examples=120, derandomize=True)
    @given(_sampled_values, _small_grids)
    @example(_over(Poly.one(), Poly((0, 1))), Grid(-1.0, 1.0, 11))  # 1/x
    @example(_over(Poly.one(), Poly((0, 1))), Grid(1.0, 2.0, 11))  # its pole beside the grid
    @example(_W_X.over(Poly.one(), 1), Grid(-1.0, 1.0, 11))
    @example(_W_X.over(Poly.one(), 1), Grid(1.0, 2.0, 11))
    @example(_W_ROOT2.over(Poly((1, 1)), 2), Grid(-1.0, 1.0, 11))  # poles at +-sqrt(2)
    @example(_W_X.over(Poly((0, 0, 1)), 1), Grid(-1.0, 1.0, 11))  # x^2 / x: no pole left
    @example(_W_FREE.over(Poly((0, 1)), 2), Grid(-1.0, 1.0, 11))
    def test_sample_rejects_a_value_exactly_when_sympy_finds_a_real_pole(self, f, grid):
        # The one pole rule: a value is rejected when its canonical
        # denominator has a real root anywhere on the line, whether or not
        # the grid reaches it.  sympy cancels the fraction and counts the
        # roots on its own.
        num, den = f.p, f.base.power(f.k)
        reduced = sympy.fraction(sympy.cancel(_sympy_expr(num) / _sympy_expr(den)))[1]
        if sympy.Poly(reduced, _X).count_roots() > 0:
            with pytest.raises(PoleOnGrid, match="has a real pole"):
                sample(f, grid)
        else:
            # The samples are those of the canonical form, over a base of
            # its own denominator.
            assert np.array_equal(sample(f, grid), sample(_over(f.num, f.den), grid))
            assert np.all(np.isfinite(sample(f, grid)))

    def test_w_form_values_read_their_base_certificate(self, model, monkeypatch):
        # Every pole of a WFun is a zero of its base's W, whose whole-line
        # count build_transform has taken; the canonical form over a fresh
        # base of its own denominator takes that base's count.  The samples
        # are those of the canonical form.
        tr = build_transform(model, (1, 2, 5, 6))
        image = crum_krein_apply(tr, model.eigenfunction(3))
        counts = []
        count = spectral.sturm_real_root_count

        def counted(*args):
            counts.append(args)
            return count(*args)

        monkeypatch.setattr(spectral, "sturm_real_root_count", counted)
        monkeypatch.setattr("darboux.polynomial.sturm_real_root_count", counted)
        grid = REFERENCE_GRID
        w_form = [sample(tr.partner_potential, grid), sample(image, grid)]
        assert counts == []
        canonical = [sample(_over(tr.partner_potential.num, tr.partner_potential.den), grid),
                     sample(GaussFun(_over(image.r.num, image.r.den), image.s), grid)]
        assert len(counts) == 2
        for got, want in zip(w_form, canonical):
            assert np.array_equal(got, want)

    def test_w_form_pole_rejected_over_a_noded_base(self):
        base = WBase(Poly((0, 1)))  # W = x
        f = base.over(Poly.one(), 1)  # 1/x
        with pytest.raises(PoleOnGrid, match="has a real pole"):
            sample(f, Grid(-1.0, 1.0, 11))
        # A pole beside the window is rejected too: the count is whole-line.
        with pytest.raises(PoleOnGrid, match="has a real pole"):
            sample(f, Grid(1.0, 2.0, 11))
        # A value whose pole cancels is sampled as its canonical form.
        g = base.over(Poly((0, 0, 1)), 1)  # x^2 / x
        assert np.array_equal(sample(g, Grid(-1.0, 1.0, 11)), sample(_over(g.num, g.den), Grid(-1.0, 1.0, 11)))


def _reference_poly_values(p: Poly, xs: np.ndarray) -> np.ndarray:
    """The sampler's Horner loop over ``float(c)`` of the Fraction
    coefficients, kept as the oracle of ``spectral._poly_values``."""
    acc = np.zeros_like(xs)
    for c in reversed(p.coeffs):
        acc = acc * xs + float(c)
    return acc


def _outcome(f, p: Poly, xs: np.ndarray):
    """The samples of p, or the type of the exception sampling raised."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return f(p, xs)
    except ArithmeticError as exc:  # OverflowError or FloatingPointError
        return type(exc)


_fractions = st.builds(
    lambda num, den: Fraction(num, den),
    st.one_of(st.integers(-10**40, 10**40), st.sampled_from([10**400, -(10**309)])),
    st.one_of(st.integers(1, 10**30), st.sampled_from([3**700])),
)
_sample_points = st.lists(
    st.floats(-1e30, 1e30, allow_nan=False, allow_subnormal=True), min_size=1, max_size=8
).map(np.array)


class TestPolyValues:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coeffs=st.lists(_fractions, max_size=12), xs=_sample_points)
    @example(coeffs=[Fraction(10**400, 3**700)], xs=np.array([0.5]))
    def test_same_bits_as_the_fraction_loop(self, coeffs, xs):
        p = Poly(coeffs)
        mine, oracle = _outcome(spectral._poly_values, p, xs), _outcome(_reference_poly_values, p, xs)
        if isinstance(oracle, type):
            assert mine is oracle
        else:
            assert np.array_equal(mine, oracle)

    def test_coefficient_beyond_the_float_range_raises_on_both_routes(self):
        p = Poly((1, 10**400))
        xs = np.array([0.0, 1.0])
        assert _outcome(_reference_poly_values, p, xs) is OverflowError
        assert _outcome(spectral._poly_values, p, xs) is OverflowError


class TestHamiltonian:
    def test_free_particle_matrix(self):
        g = Grid(0.0, 2.0, 3)  # h = 1
        t = build_hamiltonian(np.zeros(3), g)
        assert np.allclose(t.diag, [2.0, 2.0, 2.0])
        assert np.allclose(t.off, [-1.0, -1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(np.zeros(4), Grid(0.0, 2.0, 3))


class TestBisection:
    def test_laplacian_closed_form(self, laplacian3):
        eigs = eigenvalues_bisection(laplacian3, 3)
        expected = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        assert np.allclose(eigs, expected, atol=1e-9)

    def test_monotone_output(self, laplacian3):
        eigs = eigenvalues_bisection(laplacian3, 3)
        assert all(a <= b for a, b in zip(eigs, eigs[1:]))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            t = TridiagMatrix(rng.uniform(-2, 2, 20), rng.uniform(-1, 1, 19))
            mine = eigenvalues_bisection(t, 20)
            dense = eigvalsh_tridiagonal(t.diag, t.off)
            assert np.max(np.abs(np.array(mine) - dense)) < 1e-9

    def test_oscillator_levels(self, model):
        g = Grid(-12.0, 12.0, 1201)
        t = build_hamiltonian(sample(model.potential, g), g)
        eigs = eigenvalues_bisection(t, 6)
        assert np.allclose(eigs, range(6), atol=5e-3)

    def test_k_out_of_range(self, laplacian3):
        with pytest.raises(ValueError):
            eigenvalues_bisection(laplacian3, 4)


@st.composite
def integer_tridiagonals(draw):
    # Small integer entries make zero pivots common, so the fence is exercised.
    n = draw(st.integers(1, 7))
    diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    off = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    return TridiagMatrix(np.array(diag, dtype=float), np.array(off, dtype=float))


class TestSturmCount:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t=integer_tridiagonals(), twice_lam=st.integers(-16, 16), cap=st.integers(1, 8))
    @example(  # first pivot is exactly zero at lam = 1
        t=TridiagMatrix(np.array([1.0, 1.0]), np.array([1.0])), twice_lam=2, cap=1
    )
    def test_count_matches_dense_eigenvalues(self, t, twice_lam, cap):
        lam = twice_lam / 2
        eigs = eigvalsh_tridiagonal(t.diag, t.off)
        assume(np.min(np.abs(eigs - lam)) >= 1e-6)
        rows = t.sturm_rows
        full = _count_below(*rows, lam)
        assert full == int(np.sum(eigs < lam))
        assert _count_below(*rows, lam, cap=cap) == min(full, cap)

    def test_reference_partner_against_lapack(self, tr12):
        linalg = pytest.importorskip("scipy.linalg")
        g = REFERENCE_GRID
        tn = build_hamiltonian(sample(tr12.partner_potential, g), g)
        mine = eigenvalues_bisection(tn, 17)
        oracle = linalg.eigvalsh_tridiagonal(tn.diag, tn.off, select="i", select_range=(0, 16))
        assert np.max(np.abs(np.array(mine) - oracle)) < 1e-9


@st.composite
def float_tridiagonals(draw):
    n = draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return TridiagMatrix(np.array(diag), np.array(off))


def _bounded_passes(limit):
    """Patch the Newton pass to record its lam and fail past ``limit`` calls.

    A solve that stops making progress then fails instead of hanging.
    """
    passes = []
    count_and_ratio = spectral._count_and_ratio

    def spy(diag, off_sq, lam):
        passes.append(lam)
        if len(passes) > limit:
            raise AssertionError(f"more than {limit} Newton passes")
        return count_and_ratio(diag, off_sq, lam)

    return passes, mock.patch.object(spectral, "_count_and_ratio", spy)


class TestNewtonRefinement:
    """Sturm-certified Newton steps against the LAPACK oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t=st.one_of(float_tridiagonals(), integer_tridiagonals()),
        k=st.integers(1, 12),
        tol=st.sampled_from([1e-10, 1e-3, 0.5]),
    )
    @example(  # a zero pivot sits where a step-size stop would return 3.0
        t=TridiagMatrix(np.array([-3.0, 0.0, 0.0, 3.0, 2.0]), np.array([0.0, -1.0, 0.0, -2.0])),
        k=5,
        tol=1e-10,
    )
    def test_agrees_with_lapack(self, t, k, tol):
        k = min(k, t.size)
        _, patch = _bounded_passes(100 * k)
        with patch:
            mine = np.array(eigenvalues_bisection(t, k, tol))
        oracle = eigvalsh_tridiagonal(t.diag, t.off)[:k]
        assert np.max(np.abs(mine - oracle)) < max(tol, 1e-9)
        assert np.all(np.diff(mine) >= 0.0)

    def test_step_leaving_the_bracket_falls_back_to_the_midpoint(self):
        # Eigenvalues -1 and 1, Gershgorin bounds [-1, 1].  The count at 0
        # isolates level 1 in (-1, 0]; Newton from the midpoint -0.5 steps to
        # -1.25, outside, so the next pass is at -0.75, the midpoint of
        # (-1, -0.5].
        t = TridiagMatrix(np.array([0.0, 0.0]), np.array([1.0]))
        count, ratio = spectral._count_and_ratio(*t.sturm_rows, -0.5)
        assert (count, -0.5 - 1.0 / ratio) == (1, -1.25)
        passes, patch = _bounded_passes(100)
        with patch:
            (lowest,) = eigenvalues_bisection(t, 1)
        assert passes[:2] == [-0.5, -0.75]
        assert lowest == pytest.approx(-1.0, abs=5e-11)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_bad_tol_rejected(self, laplacian3, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            eigenvalues_bisection(laplacian3, 3, tol=tol)

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self, laplacian3):
        _, patch = _bounded_passes(300)
        with patch:
            eigs = eigenvalues_bisection(laplacian3, 3, tol=1e-300)
        assert np.allclose(eigs, [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)], rtol=0.0, atol=1e-15)


def _reference_eigenvalues_bisection(t: TridiagMatrix, k_lowest: int, tol: float = 1e-10) -> list[float]:
    """``eigenvalues_bisection`` with a full Sturm count at every probe and
    both certificate counts taken: the solver's bit-identity oracle."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if k_lowest < 1 or k_lowest > t.size:
        raise ValueError("k_lowest out of range")
    radius = np.abs(t.off)
    lo_bound = float(np.min(t.diag - np.concatenate([[0.0], radius]) - np.concatenate([radius, [0.0]])))
    hi_bound = float(np.max(t.diag + np.concatenate([[0.0], radius]) + np.concatenate([radius, [0.0]])))
    diag, off_sq = t.sturm_rows
    lams, counts = [lo_bound, hi_bound], [0, t.size]

    def record(lam: float, count: int) -> None:
        at = bisect.bisect(lams, lam)
        lams.insert(at, lam)
        counts.insert(at, count)

    out: list[float] = []
    for j in range(1, k_lowest + 1):
        at = bisect.bisect_left(counts, j)
        lo, hi = lams[at - 1], lams[at]
        while (counts[at - 1], counts[at]) != (j - 1, j) and _wider_than(lo, hi, tol):
            mid = 0.5 * (lo + hi)
            record(mid, _count_below(diag, off_sq, mid))
            at = bisect.bisect_left(counts, j)
            lo, hi = lams[at - 1], lams[at]

        x = 2.0 * out[-1] - out[-2] if j > 2 else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        newton = math.nan
        while _wider_than(lo, hi, tol):
            count, ratio = _count_and_ratio(diag, off_sq, x)
            record(x, count)
            if count >= j:
                hi = x
            else:
                lo = x
            newton = x - 1.0 / ratio if ratio else math.nan
            if abs(newton - x) < tol:
                below, above = newton - 0.5 * tol, newton + 0.5 * tol
                if _count_below(diag, off_sq, below, cap=j) >= j:
                    hi = min(hi, below)
                elif _count_below(diag, off_sq, above, cap=j) < j:
                    lo = max(lo, above)
                else:
                    lo, hi = max(lo, below), min(hi, above)
                    break
            x = newton if lo < newton < hi else 0.5 * (lo + hi)
        out.append(newton if lo < newton <= hi else 0.5 * (lo + hi))
    return out


class TestSolverBitIdentity:
    """Capped probe counts and bracket-settled certificates return the
    floats that full counts do."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t=st.one_of(float_tridiagonals(), integer_tridiagonals()),
        k=st.integers(1, 12),
        tol=st.sampled_from([1e-10, 1e-3, 0.5, 1e-300]),
    )
    @example(
        t=TridiagMatrix(np.array([-3.0, 0.0, 0.0, 3.0, 2.0]), np.array([0.0, -1.0, 0.0, -2.0])),
        k=5,
        tol=1e-10,
    )
    def test_random_tridiagonals(self, t, k, tol):
        k = min(k, t.size)
        # Halving a bracket of these matrices' width down to tol = 1e-300
        # takes about 1 000 passes.  The reference takes the same Newton
        # passes, so it ends when this does.
        _, patch = _bounded_passes(2000 * k)
        with patch:
            mine = eigenvalues_bisection(t, k, tol)
        assert mine == _reference_eigenvalues_bisection(t, k, tol)

    @pytest.mark.parametrize("levels", [(1, 2), (2, 3)])
    def test_reference_grid_hamiltonians(self, model, levels):
        tr = build_transform(model, levels)
        k = {"base": 17, "partner": len(tr.selection.survivors(16))}
        for sector, potential in (("base", tr.base_potential), ("partner", tr.partner_potential)):
            t = build_hamiltonian(sample(potential, REFERENCE_GRID), REFERENCE_GRID)
            assert eigenvalues_bisection(t, k[sector]) == _reference_eigenvalues_bisection(t, k[sector])


def _bracket_probes(eigs: list[float], tol: float) -> list[float]:
    """Points beside each lam_j, at and beside lam_j -+ tol/2, tol and 2 tol,
    midway between levels, and at every m + 1/2 across the levels."""
    probes = [0.5 * (a + b) for a, b in zip(eigs, eigs[1:])]
    for lam in eigs:
        for d in (0.0, 0.5 * tol, tol, 2.0 * tol, 3.0 * tol):
            for x in (lam - d, lam + d):
                probes += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    probes += [m + 0.5 for m in range(math.floor(eigs[0]) - 1, math.ceil(eigs[-1]) + 1)]
    return probes


def _settled_counts(t: TridiagMatrix, eigs: list[float], probes: list[float], tol: float) -> list:
    """Each probe's count read from the brackets, checked against a full
    Sturm count there; None where the brackets leave it open."""
    rows = t.sturm_rows
    top = max(probes)
    ceiling = _count_below(*rows, top)
    settled = []
    for lam in probes:
        got = _count_from_brackets(eigs, lam, ceiling, tol)
        if got is not None:
            assert got == _count_below(*rows, lam), (lam, eigs)
        settled.append(got)
    return settled


class TestCountsFromBrackets:
    """Every count read from the solver's brackets equals the Sturm count."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        t=st.one_of(float_tridiagonals(), integer_tridiagonals()),
        k=st.integers(1, 12),
        tol=st.sampled_from([1e-10, 1e-3, 0.5]),
    )
    def test_random_tridiagonals(self, t, k, tol):
        k = min(k, t.size)
        eigs = eigenvalues_bisection(t, k, tol)
        _settled_counts(t, eigs, _bracket_probes(eigs, tol), tol)

    @pytest.mark.parametrize("levels", [(1, 2), (2, 3)])
    def test_reference_grid_sectors(self, model, levels):
        tr = build_transform(model, levels)
        n_max = 16
        for potential, k in ((tr.base_potential, n_max + 1),
                             (tr.partner_potential, len(tr.selection.survivors(n_max)))):
            t = build_hamiltonian(sample(potential, REFERENCE_GRID), REFERENCE_GRID)
            eigs = eigenvalues_bisection(t, k)
            # The brackets settle every gate point, given the count at the top one.
            gate = [m + 0.5 for m in range(-1, n_max + 1)]
            assert None not in _settled_counts(t, eigs, gate, spectral._TOL)
            _settled_counts(t, eigs, _bracket_probes(eigs, spectral._TOL), spectral._TOL)

    def test_no_levels_leave_only_the_ceiling(self):
        assert _count_from_brackets([], 3.0, 0) == 0
        assert _count_from_brackets([], 3.0, 1) is None


def test_spectrum_takes_full_passes_only_in_its_level_count_gate(tr12, monkeypatch):
    # On the reference (1,2) solves, full counts at every probe and both
    # certificates always taken made 61 uncapped counts at --nmax 8 (20 of
    # them the gate's) and 32 certificate counts.  The gate now takes one
    # full count per sector, at n_max + 1/2, and reads the rest from the
    # solver's brackets; the solver's own counts are those it took when the
    # gate counted every m + 1/2 (at --nmax 16 the gate took 36).
    solve, count_below, count_and_ratio = (
        spectral.eigenvalues_bisection, spectral._count_below, spectral._count_and_ratio)
    k_lowest = []
    passes = Counter()

    def solving(t, k, *args):
        k_lowest.append(k)
        return solve(t, k, *args)

    def counting(diag, off_sq, lam, cap=None):
        if cap is None:
            passes["uncapped"] += 1
        elif cap == k_lowest[-1] + 1:
            passes["isolation"] += 1
        else:
            assert cap <= k_lowest[-1]
            passes["certificate"] += 1
        return count_below(diag, off_sq, lam, cap)

    def ratio(diag, off_sq, lam):
        passes["ratio"] += 1
        return count_and_ratio(diag, off_sq, lam)

    monkeypatch.setattr(spectral, "eigenvalues_bisection", solving)
    monkeypatch.setattr(spectral, "_count_below", counting)
    monkeypatch.setattr(spectral, "_count_and_ratio", ratio)
    for n_max, solves, isolation, certificate, newton in ((8, [9, 7], 41, 16, 61),
                                                          (16, [17, 15], 54, 42, 98)):
        k_lowest.clear()
        passes.clear()
        verify_spectrum(tr12, n_max, REFERENCE_GRID)
        assert k_lowest == solves
        assert passes == {"uncapped": 2, "isolation": isolation,
                          "certificate": certificate, "ratio": newton}


class TestInverseIteration:
    def test_laplacian_middle_mode(self, laplacian3):
        v = eigenvector_inverse_iteration(laplacian3, 2.0)
        expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        assert np.allclose(v, expected, atol=1e-8)
        assert v[0] > 0  # sign convention

    def test_residual_target(self, laplacian3):
        lam = 2 - math.sqrt(2)
        v = eigenvector_inverse_iteration(laplacian3, lam)
        residual = np.linalg.norm(laplacian3.matvec(v) - lam * v)
        assert residual <= 1e-8 * laplacian3.inf_norm()

    def test_oscillator_ground_state_shape(self, model):
        g = Grid(-12.0, 12.0, 1201)
        t = build_hamiltonian(sample(model.potential, g), g)
        lam = eigenvalues_bisection(t, 1)[0]
        vec = eigenvector_inverse_iteration(t, lam)
        phi = sample(model.eigenfunction(0), g)
        phi /= np.linalg.norm(phi)
        assert abs(float(np.dot(vec, phi))) > 0.9999

    def test_partner_eigenvectors_match_exact_images(self, model, tr12):
        from darboux.transform import crum_krein_apply

        g = REFERENCE_GRID
        tn = build_hamiltonian(sample(tr12.partner_potential, g), g)
        eigs = eigenvalues_bisection(tn, 3)  # survivors at E = 0, 3, 4
        for lam, n in zip(eigs, (0, 3, 4)):
            vec = eigenvector_inverse_iteration(tn, lam)
            exact = sample(crum_krein_apply(tr12, model.eigenfunction(n)), g)
            exact = exact / np.linalg.norm(exact)
            if float(np.dot(exact, vec)) < 0:
                exact = -exact
            assert np.max(np.abs(vec - exact)) <= 1e-3

    def test_non_convergence_away_from_spectrum(self, laplacian3):
        with pytest.raises(NonConvergence):
            eigenvector_inverse_iteration(laplacian3, 1.2, max_iter=10)


class TestQuadrature:
    def test_unit_interval(self):
        g = Grid(0.0, 1.0, 11)
        assert quadrature_simpson(np.ones(11), g) == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_integral(self, model):
        vals = sample(model.eigenfunction(0), REFERENCE_GRID) ** 2
        total = quadrature_simpson(vals, REFERENCE_GRID)
        assert total == pytest.approx(math.sqrt(2 * math.pi), abs=1e-9)

    def test_even_point_count_trapezoid_tail(self):
        g = Grid(0.0, 1.0, 10)
        xs = g.points()
        assert quadrature_simpson(xs, g) == pytest.approx(0.5, abs=1e-12)


class TestVerifySpectrum:
    def test_excited_pair_deletion(self, model, tr12):
        g = Grid(-12.0, 12.0, 1201)
        report = verify_spectrum(tr12, 5, g)
        deleted = {row.level for row in report.rows if row.partner_deleted}
        assert deleted == {1, 2}
        assert report.max_error < 5e-3

    def test_ground_pair_shifted_spectrum(self, model, tr01):
        g = Grid(-12.0, 12.0, 1201)
        report = verify_spectrum(tr01, 5, g)
        survivors = [row for row in report.rows if not row.partner_deleted]
        assert [row.level for row in survivors] == [2, 3, 4, 5]
        for row in survivors:
            assert row.partner_error < 5e-3

    def test_convergence_order(self, model):
        errors = []
        for points in (601, 1201):
            g = Grid(-12.0, 12.0, points)
            t = build_hamiltonian(sample(model.potential, g), g)
            eigs = eigenvalues_bisection(t, 4)
            errors.append([abs(eigs[n] - n) for n in range(4)])
        for coarse, fine in zip(*errors):
            assert 3.5 < coarse / fine < 4.5

    def test_coarse_grid_fails_base_level_count(self, tr12):
        with pytest.raises(LevelCountMismatch, match="base sector .* m = 2"):
            verify_spectrum(tr12, 8, Grid(-3.0, 3.0, 101))

    def test_level_count_gate_runs_before_the_solves(self, tr12, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue solve started")

        monkeypatch.setattr("darboux.spectral.eigenvalues_bisection", refuse)
        with pytest.raises(LevelCountMismatch, match="base sector .* m = 2"):
            verify_spectrum(tr12, 8, Grid(-3.0, 3.0, 101))

    def test_level_below_the_ground_state_detected(self, tr12):
        # On 5 points of [-2, 2] the partner has an eigenvalue near -0.94,
        # below every predicted level.
        with pytest.raises(LevelCountMismatch, match="partner sector has 1 levels .* m = -1, expected 0"):
            verify_spectrum(tr12, 2, Grid(-2.0, 2.0, 5))

    def test_count_read_from_the_brackets_names_the_mismatch(self, tr12, monkeypatch):
        # h0 + 2 has levels 2, 3, 4 and 5 below 5.5, as many as the partner
        # should: both top counts pass and the solves run, so the count at
        # 1/2 that fails is read from the brackets, not taken again.
        shifted = replace(tr12, partner_potential=tr12.base_potential + 2)
        full = []
        count_below = spectral._count_below

        def counting(diag, off_sq, lam, cap=None):
            if cap is None:
                full.append(lam)
            return count_below(diag, off_sq, lam, cap)

        monkeypatch.setattr(spectral, "_count_below", counting)
        with pytest.raises(LevelCountMismatch,
                           match=r"^partner sector has 0 levels below m \+ 1/2 at m = 0, expected 1$"):
            verify_spectrum(shifted, 5, Grid(-12.0, 12.0, 1201))
        assert full == [5.5, 5.5]

    def test_spurious_partner_level_detected(self, tr12):
        # The base potential keeps levels 1 and 2 the partner must not have.
        undeleted = replace(tr12, partner_potential=tr12.base_potential)
        with pytest.raises(LevelCountMismatch, match="partner sector .* m = 1"):
            verify_spectrum(undeleted, 5, Grid(-12.0, 12.0, 1201))
