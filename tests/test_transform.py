import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux.gaussian import DiffOp, GaussFun, wronskian
from darboux.oscillator import OscillatorModel
from darboux.polynomial import Poly, RatFun, hermite_he, sturm_real_root_count
from darboux.transform import (
    InadmissibleSelection,
    LevelSelection,
    build_transform,
    crum_krein_apply,
    crum_krein_operator,
    factorization_identity_check,
    kernel_functions,
    krein_admissible,
    krein_failure_index,
)


def phi(n):
    return GaussFun(RatFun(hermite_he(n)), -1)


class TestKreinCriterion:
    def test_juxtaposed_pair(self):
        assert krein_admissible((1, 2))

    def test_isolated_excited_level(self):
        assert not krein_admissible((1,))
        assert krein_failure_index((1,)) == 0

    def test_two_pairs(self):
        # brute-force scan over k = 0..6 passes
        assert krein_admissible((1, 2, 5, 6))

    def test_ground_state(self):
        assert krein_admissible((0,))

    def test_block_from_two(self):
        assert krein_admissible((2, 3, 4, 5))

    def test_brute_force_agreement(self):
        for size in (1, 2, 3):
            for sel in combinations(range(7), size):
                expected = all(
                    _product(k, sel) >= 0 for k in range(0, max(sel) + 1)
                )
                assert krein_admissible(sel) == expected


def _product(k, sel):
    out = 1
    for ki in sel:
        out *= k - ki
    return out


class TestLevelSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelSelection((), ())
        with pytest.raises(ValueError):
            LevelSelection((2, 1), (Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            LevelSelection((1, 1), (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            LevelSelection((-1,), (Fraction(-1),))


class TestBuildTransform:
    def test_ground_pair_constant_shift(self, model, tr01):
        assert tr01.shift == RatFun.constant(2)
        assert tr01.partner_potential == RatFun(Poly((Fraction(3, 2), 0, Fraction(1, 4))))
        assert tr01.wronskian == GaussFun(RatFun.one(), -2)

    def test_excited_pair_values_at_origin(self, tr12):
        assert tr12.shift(Fraction(0)) == Fraction(-2)
        assert tr12.partner_potential(Fraction(0)) == Fraction(-5, 2)
        assert tr12.wronskian.r == RatFun(Poly((1, 0, 1)))

    def test_inadmissible_raises(self, model):
        with pytest.raises(InadmissibleSelection) as err:
            build_transform(model, (1,))
        assert err.value.failing_k == 0

    def test_consistency_invariants(self, tr12):
        assert tr12.partner_potential == tr12.base_potential + tr12.shift
        assert tr12.operator.coeff(tr12.order) == RatFun.one()
        assert sturm_real_root_count(tr12.wronskian.r.num) == 0


class TestCrumKreinOperator:
    def test_first_order(self, model):
        tr = build_transform(model, (0,))
        expected = DiffOp((RatFun(Poly((0, Fraction(1, 2)))), RatFun.one()))  # d + x/2
        assert tr.operator == expected

    def test_second_order_hand_expansion(self, tr01):
        # 3x3 determinant expanded by hand: d^2 + x d + (x^2/4 + 1/2)
        expected = DiffOp(
            (
                RatFun(Poly((Fraction(1, 2), 0, Fraction(1, 4)))),
                RatFun.x(),
                RatFun.one(),
            )
        )
        assert tr01.operator == expected

    @pytest.mark.parametrize("levels", [(0,), (0, 1), (1, 2), (2, 3), (0, 1, 2)])
    def test_monic_top_coefficient(self, model, levels):
        tr = build_transform(model, levels)
        assert tr.operator.coeff(len(levels)) == RatFun.one()

    def test_degenerate_family_rejected(self):
        from darboux.transform import DegenerateTransformation

        f = phi(1)
        with pytest.raises((DegenerateTransformation, ZeroDivisionError)):
            crum_krein_operator([f, 2 * f], wronskian([f, 2 * f]))


class TestCrumKreinApply:
    def test_kernel_property(self, model, tr12):
        for u in tr12.functions:
            assert crum_krein_apply(tr12, u).is_zero

    def test_image_of_ground_state(self, tr12):
        # engine image is 2/(1+x^2) e^{-x^2/4}; proportional to the
        # closed-form bracket -2/(1+x^2) e^{-x^2/4}
        image = crum_krein_apply(tr12, phi(0))
        assert image == GaussFun(RatFun(Poly((2,)), Poly((1, 0, 1))), -1)

    def test_image_is_partner_eigenfunction(self, model, tr01):
        image = crum_krein_apply(tr01, phi(2))
        assert not image.is_zero
        h_partner = tr01.hamiltonian_partner()
        assert (h_partner(image) - 2 * image).is_zero

    def test_bordered_route_random_pairs(self, model):
        # the bordered-Wronskian assertion inside crum_krein_apply is the
        # check; 20 seeded (selection, level) pairs
        rng = random.Random(42)
        pool = [(0,), (0, 1), (1, 2), (2, 3), (3, 4), (0, 1, 2), (2, 3, 4, 5), (1, 2, 5, 6)]
        cache = {}
        for _ in range(20):
            levels = rng.choice(pool)
            if levels not in cache:
                cache[levels] = build_transform(model, levels)
            n = rng.randint(0, 8)
            crum_krein_apply(cache[levels], phi(n))


class TestKernelFunctions:
    def test_pair_kernel_closed_forms(self, tr12):
        v1, v2 = kernel_functions(tr12)
        assert v1 == GaussFun(RatFun(Poly((-1, 0, 1)), Poly((1, 0, 1))), 1)
        assert v2 == GaussFun(RatFun(Poly((0, 1)), Poly((1, 0, 1))), 1)

    def test_first_order_reciprocal(self, model):
        tr = build_transform(model, (0,))
        (v,) = kernel_functions(tr)
        assert v == GaussFun(RatFun.one(), 1)

    @pytest.mark.parametrize("levels", [(0,), (0, 1), (1, 2), (2, 3)])
    def test_adjoint_annihilation_and_eigen_equations(self, model, levels):
        tr = build_transform(model, levels)
        adjoint = tr.operator.adjoint()
        h_partner = tr.hamiltonian_partner()
        for alpha, v in zip(tr.selection.alphas, kernel_functions(tr)):
            assert adjoint(v).is_zero
            assert (h_partner(v) - alpha * v).is_zero


class TestFactorization:
    def test_excited_pair(self, tr12):
        report = factorization_identity_check(tr12)
        assert report.base_ok and report.partner_ok
        assert report.residual_base.is_zero

    def test_adjoint_is_built_once_per_transform(self, tr12):
        assert tr12.adjoint is tr12.adjoint
        assert tr12.adjoint == tr12.operator.adjoint()

    def test_replaced_transform_gets_its_own_adjoint(self, tr12):
        tr12.adjoint
        d = DiffOp((RatFun.zero(), RatFun.one()))
        first_order = replace(tr12, operator=d)
        assert first_order.adjoint == -d

    def test_action_on_ground_state(self, tr12):
        # L+ L phi_0 = (0-1)(0-2) phi_0 = 2 phi_0
        composed = tr12.operator.adjoint().compose(tr12.operator)
        assert composed(phi(0)) == 2 * phi(0)

    def test_ground_pair_partner_identity(self, tr01):
        report = factorization_identity_check(tr01)
        assert report.partner_ok
        assert tr01.partner_potential == RatFun(Poly((Fraction(3, 2), 0, Fraction(1, 4))))

    def test_eigen_residuals_surviving_levels(self, model, tr12):
        h_partner = tr12.hamiltonian_partner()
        for n in range(9):
            if n in tr12.selection.levels:
                continue
            image = crum_krein_apply(tr12, phi(n))
            assert (h_partner(image) - model.energy(n) * image).is_zero


def _expanded_product(h: DiffOp, alphas) -> DiffOp:
    product = DiffOp.identity()
    for alpha in alphas:
        product = product.compose(h - alpha * DiffOp.identity())
    return product


def _expanded_residuals(tr):
    """Both identities expanded in full: the route the derived check replaces."""
    op, adjoint, alphas = tr.operator, tr.operator.adjoint(), tr.selection.alphas
    h0 = DiffOp.schroedinger(tr.base_potential)
    return (
        adjoint.compose(op) - _expanded_product(h0, alphas),
        op.compose(adjoint) - _expanded_product(tr.hamiltonian_partner(), alphas),
    )


# Every Krein-admissible selection of order <= 4 with levels up to 7.
_ADMISSIBLE = [
    sel
    for order in range(1, 5)
    for sel in combinations(range(8), order)
    if krein_admissible(sel)
]


class TestDerivedPartnerIdentity:
    @settings(deadline=None, max_examples=12, derandomize=True)
    @given(st.sampled_from(_ADMISSIBLE))
    def test_agrees_with_full_expansion(self, levels):
        tr = build_transform(OscillatorModel(), levels)
        report = factorization_identity_check(tr)
        base, partner = _expanded_residuals(tr)
        assert report.residual_base == base
        assert report.residual_partner == partner
        assert report.ok and partner.is_zero

    @pytest.mark.parametrize("levels, shift", [
        ((1, 2), Fraction(1, 1000)),
        ((0, 1, 6, 7), Fraction(-1, 3)),
    ])
    def test_corrupted_partner_reports_the_expanded_residual(self, model, levels, shift):
        tr = build_transform(model, levels)
        tr = replace(tr, partner_potential=tr.partner_potential + shift)
        report = factorization_identity_check(tr)
        base, partner = _expanded_residuals(tr)
        assert report.base_ok and not report.partner_ok
        assert repr(report.residual_base) == repr(base)
        assert repr(report.residual_partner) == repr(partner)

    def test_partner_side_is_not_expanded_on_success(self, tr12, monkeypatch):
        # L+ L, two factors of P(h0) and the two sides of L h0 = hN L.
        calls = []
        compose = DiffOp.compose

        def counted(self, other):
            calls.append(other)
            return compose(self, other)

        monkeypatch.setattr(DiffOp, "compose", counted)
        assert factorization_identity_check(tr12).ok
        assert len(calls) == 5


class TestNodedWronskianGuard:
    def test_certificate_rejects_noded_function(self):
        from darboux.transform import NodefulWronskian, _certify_node_free

        noded = GaussFun(RatFun(Poly((0, 1))), -2)  # x e^{-x^2/2} vanishes at 0
        with pytest.raises(NodefulWronskian):
            _certify_node_free(noded)

    def test_certificate_accepts_node_free(self):
        from darboux.transform import _certify_node_free

        _certify_node_free(GaussFun(RatFun(Poly((1, 0, 1))), -2))


class TestAdmissibilityOracleAgreement:
    def test_small_subsets(self, model):
        # Krein scan vs Sturm nodelessness of the actual Wronskian
        for size in (1, 2):
            for sel in combinations(range(5), size):
                funcs = [model.eigenfunction(k) for k in sel]
                count = sturm_real_root_count(wronskian(funcs).r.num)
                if krein_admissible(sel):
                    assert count == 0
                    build_transform(model, sel)  # must not raise
                else:
                    assert count > 0
                    with pytest.raises(InadmissibleSelection):
                        build_transform(model, sel)
