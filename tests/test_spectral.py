import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from darboux.polynomial import Poly, RatFun
from darboux.spectral import (
    Grid,
    LevelCountMismatch,
    NonConvergence,
    PoleOnGrid,
    REFERENCE_GRID,
    TridiagMatrix,
    _count_below,
    _sturm_rows,
    build_hamiltonian,
    eigenvalues_bisection,
    eigenvector_inverse_iteration,
    quadrature_simpson,
    sample,
    verify_spectrum,
)


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
        f = RatFun(Poly.one(), Poly((0, 1)))  # 1/x
        with pytest.raises(PoleOnGrid):
            sample(f, Grid(-1.0, 1.0, 11))
        # pole outside the window is fine
        sample(f, Grid(1.0, 2.0, 11))


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
    @settings(max_examples=300, deadline=None)
    @given(t=integer_tridiagonals(), twice_lam=st.integers(-16, 16), cap=st.integers(1, 8))
    @example(  # first pivot is exactly zero at lam = 1
        t=TridiagMatrix(np.array([1.0, 1.0]), np.array([1.0])), twice_lam=2, cap=1
    )
    def test_count_matches_dense_eigenvalues(self, t, twice_lam, cap):
        lam = twice_lam / 2
        eigs = eigvalsh_tridiagonal(t.diag, t.off)
        assume(np.min(np.abs(eigs - lam)) >= 1e-6)
        rows = _sturm_rows(t)
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

    def test_spurious_partner_level_detected(self, tr12):
        # The base potential keeps levels 1 and 2 the partner must not have.
        undeleted = replace(tr12, partner_potential=tr12.base_potential)
        with pytest.raises(LevelCountMismatch, match="partner sector .* m = 1"):
            verify_spectrum(undeleted, 5, Grid(-12.0, 12.0, 1201))
