import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from unittest.mock import patch

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import darboux.gaussian
import darboux.polynomial
import darboux.transform
from darboux.cli import json_text, main, transform_to_json
from darboux.gaussian import (
    BorderedWronskian,
    DiffOp,
    GaussFun,
    MixedWeightError,
    derivative_table,
    wronskian,
)
from darboux.oscillator import OscillatorModel
from darboux.susy import anticommutator_check, eigen_doublet
from darboux.polynomial import (
    Poly,
    RatFun,
    WBase,
    WFun,
    hermite_he,
    ratfun_det,
    sturm_real_root_count,
)
from darboux.transform import (
    DegenerateTransformation,
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


# Every Krein-admissible selection of order <= 4 with levels up to 7.
_ADMISSIBLE = [
    sel
    for order in range(1, 5)
    for sel in combinations(range(8), order)
    if krein_admissible(sel)
]


@lru_cache(maxsize=None)
def _transform(levels):
    return build_transform(OscillatorModel(), levels)


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

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.lists(st.fractions(max_denominator=9, min_value=-20, max_value=20),
                    min_size=1, max_size=5),
           st.fractions(max_denominator=9, min_value=-20, max_value=20))
    def test_factor_matches_sympy_product(self, alphas, energy):
        def rational(f):
            return sympy.Rational(f.numerator, f.denominator)

        got = LevelSelection(tuple(range(len(alphas))), tuple(alphas)).factor(energy)
        assert isinstance(got, Fraction)
        assert rational(got) == sympy.prod(rational(energy) - rational(a) for a in alphas)

    @pytest.mark.parametrize("order", range(1, 5))
    def test_factor_nonnegative_exactly_when_krein_admissible(self, model, order):
        # The superalgebra's factor on the oscillator's levels and Krein's
        # criterion share no code; two levels past the top suffice, since
        # beyond it every factor is positive.
        for levels in combinations(range(9), order):
            selection = LevelSelection.for_model(model, levels)
            nonnegative = all(
                selection.factor(model.energy(k)) >= 0 for k in range(levels[-1] + 3)
            )
            assert nonnegative == krein_admissible(levels), levels


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
        assert tr12.operator.coeffs[tr12.order] == RatFun.one()
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
        assert tr.operator.coeffs[len(levels)] == RatFun.one()

    def test_degenerate_family_rejected(self):
        f = phi(1)
        with pytest.raises(DegenerateTransformation):
            crum_krein_operator([f, 2 * f], WBase(Poly.one()))

    def test_zero_pivot_at_the_last_step_rejected(self):
        # [f, g, f + g]: the leading minors f and W(f, g) are nonzero, so
        # only the last pivot, the whole determinant, is zero.
        f, g = phi(1), phi(2)
        with pytest.raises(DegenerateTransformation) as err:
            crum_krein_operator([f, g, f + g], WBase(Poly.one()))
        assert "leading minor 3 " in str(err.value.__cause__)

    @pytest.mark.parametrize("levels", _ADMISSIBLE + [(2, 3, 6, 7, 10, 11)])
    def test_solve_agrees_with_minors(self, levels):
        tr = _transform(levels)
        operator = crum_krein_operator(tr.functions, tr.base)
        assert operator == _operator_from_minors(tr.functions, tr.wronskian)
        assert operator == tr.operator

    @pytest.mark.parametrize("levels", _ADMISSIBLE + [(2, 3, 6, 7, 10, 11)])
    def test_json_text_matches_the_encoder(self, levels):
        doc = transform_to_json(_transform(levels))
        assert json_text(doc) == json.dumps(doc, indent=2)

    def test_wrong_operator_trips_the_bordered_route(self, tr12):
        # The standing assertion compares the operator with the stored
        # sub-Wronskian chain, so a wrong coefficient cannot pass silently.
        coeffs = list(tr12.operator.coeffs)
        coeffs[0] = coeffs[0] + RatFun.constant(Fraction(1, 7))
        wrong = replace(tr12, operator=DiffOp(coeffs))
        with pytest.raises(AssertionError, match="routes disagree"):
            crum_krein_apply(wrong, phi(0))


def _operator_from_minors(functions, w):
    """The Wronskian-determinant formula expanded along its column of d^m.

    The (N+1)x(N+1) determinant whose last column is (1, d, ..., d^N) gives
    d^m the signed minor that deletes derivative row m, divided by W; the
    shared exponential factor cancels.  N + 1 separate determinants: the
    oracle for the one-solve operator.
    """
    n = len(functions)
    table = derivative_table(functions, n)
    coeffs = []
    for m in range(n + 1):
        minor = ratfun_det([[table[d][i] for i in range(n)] for d in range(n + 1) if d != m])
        coeffs.append((minor if (n + m) % 2 == 0 else -minor) / w.r)
    return DiffOp(coeffs)


# A same-weight function with a non-constant denominator: its column needs
# clearing of its own, which oscillator eigenfunctions never do.
RATIONAL_PHI = GaussFun(RatFun(hermite_he(3), Poly((1, 0, 1))), -1)


class TestWronskianAgainstSympy:
    @settings(deadline=None, max_examples=10, derandomize=True)
    @given(st.sampled_from(_ADMISSIBLE))
    @example((1, 2, 5, 6))
    def test_matches_sympy(self, levels):
        x = sympy.Symbol("x")
        gauss = sympy.exp(-x**2 / 4)
        hermite = [sympy.hermite_prob(k, x) for k in levels]
        family = [phi(k) for k in levels]

        def poly(expr):
            coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()
            return RatFun(Poly(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)))

        # Row m holds the m-th derivatives over the shared exp(-x^2/4).
        for m, row in enumerate(derivative_table(family, len(levels) - 1)):
            assert row == [poly(sympy.diff(he * gauss, x, m) / gauss) for he in hermite]
        # W(h f_1, ..., h f_N) = h^N W(f_1, ..., f_N): the weight only scales
        # the Wronskian, so sympy's Wronskian of the Hermite polynomials is
        # its whole rational part.
        expected = GaussFun(poly(sympy.wronskian(hermite, x)), -len(levels))
        assert wronskian(family) == expected

    @settings(deadline=None, max_examples=10, derandomize=True)
    @given(st.sampled_from(_ADMISSIBLE))
    @example((1, 2, 5, 6))
    def test_shift_and_partner_potential(self, levels):
        # A = -2 [log W]'' for W = r exp(s x^2/4): -2 (log r)'' - s.
        x = sympy.Symbol("x")
        r = sympy.wronskian([sympy.hermite_prob(k, x) for k in levels], x)
        num, den = sympy.fraction(sympy.cancel(-2 * sympy.diff(sympy.log(r), x, 2) + len(levels)))

        def poly(expr):
            coeffs = sympy.Poly(expr, x).all_coeffs()
            return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))

        shift = RatFun(poly(num), poly(den))
        tr = _transform(levels)
        assert tr.shift.canonical() == shift
        assert tr.partner_potential == OscillatorModel().potential + shift


class TestBorderedWronskian:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        st.sampled_from(_ADMISSIBLE),
        st.one_of(
            st.tuples(st.just("eigen"), st.integers(0, 9)),
            st.tuples(st.just("zero"), st.just(0)),
            st.tuples(st.just("L+L"), st.integers(0, 9)),
            st.tuples(st.just("rational"), st.just(0)),
        ),
    )
    def test_equals_a_fresh_wronskian(self, levels, kind):
        tr = _transform(levels)
        name, n = kind
        f = {
            "eigen": lambda: phi(n),
            "zero": GaussFun.zero,
            "L+L": lambda: tr.adjoint(tr.operator(phi(n))),
            "rational": lambda: RATIONAL_PHI,
        }[name]()
        assert tr.bordered(f) == wronskian(list(tr.functions) + [f])

    @pytest.mark.parametrize("levels", [(0,), (1, 2), (0, 1, 2), (1, 2, 5, 6)])
    def test_successive_calls_stand_alone(self, levels):
        # One chain serves calls with different functions, in any order.
        tr = _transform(levels)
        bordered = BorderedWronskian(tr.functions)
        for f in [RATIONAL_PHI, phi(0), phi(7), RATIONAL_PHI, GaussFun.zero(), phi(3)]:
            assert bordered(f) == wronskian(list(tr.functions) + [f])

    @pytest.mark.parametrize(
        "levels", _ADMISSIBLE + [(2, 3, 6, 7, 10, 11), (2, 3, 6, 7, 9, 10, 11, 12)]
    )
    def test_last_pivot_is_the_wronskian(self, levels):
        tr = _transform(levels)
        assert tr.wronskian == wronskian(tr.functions)
        assert tr.bordered.wronskian is tr.wronskian
        # Every link of the chain: P_k is the Wronskian of the first k.
        bordered = tr.bordered
        for k, (p, _, _) in enumerate(bordered._chain, 1):
            assert GaussFun(RatFun(p), k * bordered.weight) == wronskian(tr.functions[:k])

    def test_doubled_last_link_trips_the_route_check(self, model):
        # A seeded mutant of the chain: P_N and P_N' both doubled double
        # every bordered value, and crum_krein_apply's assertion catches it.
        tr = build_transform(model, (1, 2, 5, 6))
        mutant = BorderedWronskian(tr.functions)
        *head, (p, dp, prev) = mutant._chain
        mutant._chain = (*head, (2 * p, 2 * dp, prev))
        assert mutant(phi(0)) == 2 * tr.bordered(phi(0))
        with pytest.raises(AssertionError, match="routes disagree"):
            crum_krein_apply(replace(tr, bordered=mutant), phi(0))

    def test_rational_family_rejected(self):
        with pytest.raises(ValueError, match="must be polynomials"):
            BorderedWronskian([phi(0), RATIONAL_PHI])

    def test_dependent_family_has_a_zero_pivot(self):
        f = phi(2)
        with pytest.raises(DegenerateTransformation):
            BorderedWronskian([phi(0), f, 3 * f])

    def test_other_weight_rejected(self, tr12):
        with pytest.raises(MixedWeightError):
            tr12.bordered(GaussFun(RatFun.one(), 1))


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

    def test_phi_outside_the_family_space_rejected(self, tr12):
        # Both routes run on every phi: another weight, which the operator
        # alone would accept, fails in the bordered route.
        with pytest.raises(MixedWeightError):
            crum_krein_apply(tr12, GaussFun(RatFun.one(), 1))
        with pytest.raises(ValueError, match="is not a polynomial"):
            crum_krein_apply(tr12, RATIONAL_PHI)

    def test_no_fresh_determinant_per_image(self, model, monkeypatch):
        # Each image's bordered Wronskian runs phi through the stored
        # chain: no Wronskian and no determinant of its own.
        tr = build_transform(model, (1, 2, 5, 6))

        def refuse(*args):
            raise AssertionError("a fresh determinant was computed")

        monkeypatch.setattr(darboux.gaussian, "wronskian", refuse)
        monkeypatch.setattr(darboux.gaussian, "ratfun_det", refuse)
        for n in tr.selection.survivors(8):
            assert not crum_krein_apply(tr, phi(n)).is_zero

    def test_family_is_eliminated_once_per_verify(self, monkeypatch, capsys):
        built = []

        def counted(family):
            built.append(tuple(family))
            return BorderedWronskian(family)

        monkeypatch.setattr(darboux.transform, "BorderedWronskian", counted)
        assert main(["verify", "--levels", "1,2,5,6", "--nmax", "8", "--points", "601"]) == 0
        capsys.readouterr()
        assert len(built) == 1

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


class TestKernelSolve:
    """The kernel functions from one solve against independent routes."""

    @pytest.mark.parametrize("levels", [(0,), (1, 2), (0, 1, 2), (1, 2, 5, 6)])
    def test_last_column_of_the_inverse(self, levels):
        # Cramer: W_k / W = (-1)^(N-1-k) (M^-1)_{k,N-1}, M the Wronskian
        # matrix of the Hermite polynomials times exp(-x^2/4) (row m the
        # m-th derivatives, over the shared factor), inverted by sympy.
        x = sympy.Symbol("x")
        gauss = sympy.exp(-x**2 / 4)
        n = len(levels)
        matrix = sympy.Matrix([
            [sympy.expand(sympy.diff(sympy.hermite_prob(k, x) * gauss, x, m) / gauss)
             for k in levels]
            for m in range(n)
        ])
        inverse = matrix.inv()

        def poly(expr):
            coeffs = sympy.Poly(expr, x).all_coeffs()
            return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))

        for k, v in enumerate(kernel_functions(_transform(levels))):
            num, den = sympy.fraction(sympy.cancel((-1) ** (n - 1 - k) * inverse[k, n - 1]))
            assert v == GaussFun(RatFun(poly(num), poly(den)), 1)

    def test_verify_computes_no_determinant(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a determinant was computed")

        for module, name in [
            (darboux.polynomial, "ratfun_det"),
            (darboux.polynomial, "poly_det_bareiss"),
            (darboux.gaussian, "ratfun_det"),
            (darboux.gaussian, "wronskian"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert main(["verify", "--levels", "1,2,5,6", "--nmax", "8"]) == 0
        capsys.readouterr()


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
    """Both identities expanded in full over RatFun coefficients: the route
    the derived check in W-form replaces."""
    op = DiffOp(c.canonical() for c in tr.operator.coeffs)
    adjoint, alphas = op.adjoint(), tr.selection.alphas
    h0 = DiffOp.schroedinger(tr.base_potential)
    hn = DiffOp.schroedinger(tr.partner_potential.canonical())
    return (
        adjoint.compose(op) - _expanded_product(h0, alphas),
        op.compose(adjoint) - _expanded_product(hn, alphas),
    )


def _level_checks(tr):
    """Per-level anticommutator results on the 2N levels 0 .. 2N-1 that the
    factorisation proof needs."""
    model = OscillatorModel()
    doublets = {n: eigen_doublet(model, tr, n) for n in range(2 * tr.order)}
    return anticommutator_check(tr, doublets).checks


def _composes(tr, checks=()):
    """The report and the number of DiffOp.compose calls it took."""
    calls = []
    compose = DiffOp.compose

    def counted(self, other):
        calls.append(other)
        return compose(self, other)

    with patch.object(DiffOp, "compose", counted):
        report = factorization_identity_check(tr, checks)
    return report, len(calls)


class TestDerivedPartnerIdentity:
    @settings(deadline=None, max_examples=12, derandomize=True)
    @given(st.sampled_from(_ADMISSIBLE))
    def test_agrees_with_full_expansion(self, levels):
        # The same residuals three ways: expanded in W-form, expanded over
        # RatFun coefficients, and proved from 2N per-level checks with no
        # expansion at all.
        tr = build_transform(OscillatorModel(), levels)
        report = factorization_identity_check(tr)
        base, partner = _expanded_residuals(tr)
        assert report.residual_base == base
        assert report.residual_partner == partner
        assert report.ok and partner.is_zero
        derived, calls = _composes(tr, _level_checks(tr))
        assert (derived.residual_base, derived.residual_partner, calls) == (base, partner, 0)

    @pytest.mark.parametrize("levels, shift", [
        ((1, 2), Fraction(1, 1000)),
        ((0, 1, 6, 7), Fraction(-1, 3)),
        ((1, 2, 5, 6), Fraction(1, 7)),
    ])
    def test_corrupted_partner_reports_the_expanded_residual(self, model, levels, shift):
        tr = build_transform(model, levels)
        tr = replace(tr, partner_potential=tr.partner_potential + shift)
        report = factorization_identity_check(tr)
        base, partner = _expanded_residuals(tr)
        assert report.base_ok and not report.partner_ok
        assert repr(report.residual_base) == repr(base)
        assert repr(report.residual_partner) == repr(partner)

    def test_partner_side_is_not_expanded_on_success(self, tr12):
        # Without per-level results: L+ L, two factors of P(h0) and the two
        # sides of L h0 = hN L.  With them: nothing.
        report, calls = _composes(tr12)
        assert report.ok and calls == 5
        report, calls = _composes(tr12, _level_checks(tr12))
        assert report.ok and calls == 0

    @pytest.mark.parametrize("fixture", ["tr12", "tr01"])
    @pytest.mark.parametrize("edge", ["anticommutator missing at 2N-1",
                                      "anticommutator false at 2N-1",
                                      "intertwining false at N"])
    def test_unmet_premise_expands(self, fixture, edge, request):
        # R = L+ L - P(h0) has order 2N - 1, so 2N - 1 levels prove
        # nothing; T = L h0 - hN L has order N, so N levels prove nothing.
        # A check that reads one level fewer on either side returns a zero
        # residual here without expanding.
        tr = request.getfixturevalue(fixture)
        n = tr.order
        checks = {c.level: c for c in _level_checks(tr)}
        if edge == "anticommutator missing at 2N-1":
            del checks[2 * n - 1]
        elif edge == "anticommutator false at 2N-1":
            checks[2 * n - 1] = replace(checks[2 * n - 1], anticommutator_ok=False)
        else:
            checks[n] = replace(checks[n], intertwining_ok=False)
        report, calls = _composes(tr, checks.values())
        assert report.ok and calls == 5


class TestNodedWronskianGuard:
    def test_certificate_rejects_noded_function(self):
        from darboux.transform import NodefulWronskian, _certified_base

        noded = GaussFun(RatFun(Poly((0, 1))), -2)  # x e^{-x^2/2} vanishes at 0
        with pytest.raises(NodefulWronskian):
            _certified_base(noded)

    def test_certificate_accepts_node_free(self):
        from darboux.transform import _certified_base

        base = _certified_base(GaussFun(RatFun(Poly((2, 0, 2))), -2))
        assert base.W == Poly((1, 0, 1)) and base.real_root_count() == 0


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


class TestWRoute:
    """The W-form values of the checks against the RatFun-coefficient route."""

    @pytest.mark.parametrize("levels", [(1, 2), (1, 2, 5, 6)])
    def test_images_match_the_ratfun_route(self, model, levels):
        tr = _transform(levels)
        op = DiffOp(c.canonical() for c in tr.operator.coeffs)
        adjoint = op.adjoint()
        hn = DiffOp.schroedinger(tr.partner_potential.canonical())
        assert all(isinstance(c, RatFun) for c in (*op.coeffs, *adjoint.coeffs, *hn.coeffs))
        for n in range(9):
            f = model.eigenfunction(n)
            image, want = crum_krein_apply(tr, f), op(f)
            assert isinstance(image.r, WFun)
            for got, expected in [
                (image, want),
                (tr.adjoint(image), adjoint(want)),
                (tr.hamiltonian_partner()(image), hn(want)),
            ]:
                assert got == expected and repr(got) == repr(expected)
        for u, v in zip(tr.functions, kernel_functions(tr)):
            rest = [w for w in tr.functions if w is not u]
            w_k = wronskian(rest) if rest else GaussFun.one()
            want = GaussFun(w_k.r / tr.wronskian.r, w_k.s - tr.wronskian.s)
            for got, expected in [(v, want), (tr.adjoint(v), adjoint(want)),
                                  (tr.hamiltonian_partner()(v), hn(want))]:
                assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize("levels", _ADMISSIBLE + [(2, 3, 6, 7, 10, 11)])
    def test_oscillator_values_lift(self, levels):
        # Crum (1955): the shift and V_N over W^2, L's coefficients over W,
        # L+'s coefficient of d^m over W^(N-m), the kernel functions W_k / W
        # over W.  build_transform makes each over the transform's one base.
        tr = _transform(levels)
        n = tr.order
        built = [(tr.shift, 2), (tr.partner_potential, 2), *((c, 1) for c in tr.operator.coeffs)]
        for value, k in built:
            assert isinstance(value, WFun) and value.base is tr.base and value.k <= k
        assert all(c.k <= n - m for m, c in enumerate(tr.adjoint.coeffs))
        assert tr.base.lift(tr.base_potential).k == 0
        assert all(v.r.k <= 1 for v in kernel_functions(tr))
