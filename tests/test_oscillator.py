import math
from fractions import Fraction

import pytest
from conftest import value_at

from darboux.gaussian import DiffOp, GaussFun
from darboux.oscillator import (
    ForbiddenLevel,
    cross_polynomial,
    golden_cross_check,
    is_juxtaposed_pair,
    pair_wronskian_poly,
    partner_eigenfunction_closed_form,
    partner_potential_closed_form,
)
from darboux.polynomial import NormValue, Poly, WBase, sturm_real_root_count
from darboux.spectral import REFERENCE_GRID, quadrature_simpson, sample
from darboux.transform import build_transform, crum_krein_apply


def survivor_images(model, tr, n_max):
    survivors = tr.selection.survivors(n_max)
    return {n: crum_krein_apply(tr, model.eigenfunction(n)) for n in survivors}


class TestModel:
    def test_potential(self, model):
        assert model.potential == Poly((Fraction(-1, 2), 0, Fraction(1, 4)))

    @pytest.mark.parametrize("n", range(11))
    def test_eigen_identity(self, model, n):
        # h0 phi_n = n phi_n pins the Hermite convention and the offset
        h0 = DiffOp.schroedinger(model.potential)
        phi = model.eigenfunction(n)
        assert h0(phi) == n * phi

    def test_squared_norm_values(self, model):
        assert model.squared_norm(0).q == 1
        assert model.squared_norm(2).q == 2
        assert model.squared_norm(2) == NormValue(Fraction(2))

    @pytest.mark.parametrize("n", [0, 2])
    def test_squared_norm_against_quadrature(self, model, n):
        phi, norm = model.eigenfunction(n), model.squared_norm(n)
        numeric = quadrature_simpson(sample(phi, REFERENCE_GRID) ** 2, REFERENCE_GRID)
        assert numeric == pytest.approx(norm.to_float(), rel=1e-9)


class TestPairPolynomial:
    def test_first_three(self):
        assert pair_wronskian_poly(0) == Poly.one()
        assert pair_wronskian_poly(1) == Poly((1, 0, 1))
        assert pair_wronskian_poly(2) == Poly((3, 0, 0, 0, 1))

    @pytest.mark.parametrize("k", range(7))
    def test_node_free_and_shape(self, k):
        p = pair_wronskian_poly(k)
        assert p.degree() == 2 * k
        assert p.lead() > 0
        assert value_at(p, 0) > 0
        if p.degree() > 0:
            assert sturm_real_root_count(p) == 0


class TestPartnerPotential:
    def test_plain_shifted_oscillator(self):
        assert partner_potential_closed_form(0) == Poly((Fraction(3, 2), 0, Fraction(1, 4)))

    def test_value_at_origin(self):
        # 3/2 - 2*2/1 + 0 = -5/2
        assert value_at(partner_potential_closed_form(1), 0) == Fraction(-5, 2)

    def test_matches_engine(self, model, tr12):
        assert partner_potential_closed_form(1) == tr12.partner_potential


class TestClosedFormWaveFunctions:
    def test_cross_polynomial_small_cases(self):
        assert cross_polynomial(1, 0) == Poly.one()
        assert cross_polynomial(1, 3) == Poly((0, 0, 0, -2))  # -2x^3

    def test_bracket_below_pair(self):
        bracket, norm = partner_eigenfunction_closed_form(1, 0)
        assert bracket == GaussFun(WBase(Poly((1, 0, 1))).over(Poly((-2,)), 1), -1)
        assert norm == NormValue(Fraction(2))  # 0! * (0-1)(0-2) = 2

    def test_bracket_above_pair(self):
        bracket, _ = partner_eigenfunction_closed_form(1, 3)
        expected = GaussFun(WBase(Poly((1, 0, 1))).over(Poly((0, -6, 0, -2)), 1), -1)
        assert bracket == expected

    def test_normalized_value_at_origin(self):
        # oracle: (2 sqrt(2 pi))^(-1/2) * (-2)
        bracket, norm = partner_eigenfunction_closed_form(1, 0)
        # exp(s x^2/4) is 1 at the origin, so the bracket's value is r(0).
        value = float(value_at(bracket.r, 0)) / math.sqrt(norm.to_float())
        assert value == pytest.approx(-0.8932438417380023, abs=1e-12)

    def test_deleted_levels_rejected(self):
        with pytest.raises(ForbiddenLevel):
            partner_eigenfunction_closed_form(1, 1)
        with pytest.raises(ForbiddenLevel):
            partner_eigenfunction_closed_form(1, 2)

    @pytest.mark.parametrize("n", [0, 3, 4])
    def test_normalization_constant_positive(self, n):
        _, norm = partner_eigenfunction_closed_form(1, n)
        assert norm.q > 0


class TestGoldenCrossCheck:
    @pytest.mark.parametrize("k", range(5))
    def test_pairs_up_to_four(self, model, k):
        tr = build_transform(model, (k, k + 1))
        report = golden_cross_check(tr, survivor_images(model, tr, 8))
        assert report.ok
        # engine Wronskian equals the closed-form polynomial up to a constant
        assert report.wronskian_ratio != 0
        for check in report.levels:
            assert check.ratio_constant
            assert check.ratio ** 2 == 1  # unit proportionality, sign recorded

    def test_recorded_sign_for_ground_state(self, model, tr12):
        report = golden_cross_check(tr12, survivor_images(model, tr12, 4))
        by_level = {c.level: c.ratio for c in report.levels}
        assert by_level[0] == -1

    @pytest.mark.parametrize("levels, expected", [
        ((0, 1), True), ((4, 5), True), ((1, 3), False), ((1,), False), ((1, 2, 3), False),
    ])
    def test_juxtaposed_pair_predicate(self, levels, expected):
        assert is_juxtaposed_pair(levels) is expected

    def test_rejects_non_pairs(self, model):
        tr = build_transform(model, (0,))
        with pytest.raises(ValueError):
            golden_cross_check(tr, survivor_images(model, tr, 4))
