import random
from fractions import Fraction

import pytest

from darboux.gaussian import DiffOp, GaussFun, MixedWeightError, derivative_table, wronskian
from darboux.polynomial import Poly, RatFun, det_cofactor, hermite_he, ratfun_det


def gaussian(coeffs, s=-1):
    return GaussFun(RatFun(Poly(coeffs)), s)


class TestGaussDerivative:
    def test_plain_gaussian(self):
        # (e^{-x^2/4})' = (-x/2) e^{-x^2/4}
        f = gaussian((1,))
        assert f.derivative() == gaussian((0, Fraction(-1, 2)))

    def test_product_rule(self):
        # (x e^{-x^2/4})' = (1 - x^2/2) e^{-x^2/4}
        f = gaussian((0, 1))
        assert f.derivative() == gaussian((1, 0, Fraction(-1, 2)))

    def test_quotient_and_weight(self):
        # (e^{+x^2/4}/(1+x^2))' = ((x^3/2 - 3x/2)/(1+x^2)^2) e^{+x^2/4}
        f = GaussFun(RatFun(Poly.one(), Poly((1, 0, 1))), 1)
        expected = GaussFun(
            RatFun(Poly((0, Fraction(-3, 2), 0, Fraction(1, 2))), Poly((1, 0, 1)) ** 2), 1
        )
        assert f.derivative() == expected

    def test_linearity_preserves_weight(self):
        rng = random.Random(3)
        for _ in range(20):
            f = gaussian([rng.randint(-4, 4) for _ in range(2)] + [rng.randint(1, 4)])
            g = gaussian([rng.randint(-4, 4) for _ in range(3)] + [rng.randint(1, 4)])
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = a * f + b * g
            assert combo.derivative() == a * f.derivative() + b * g.derivative()
            if not combo.is_zero:
                assert combo.derivative().s == Fraction(-1)


class TestWronskian:
    def test_single_function(self):
        f = gaussian((1,))
        assert wronskian([f]) == f

    def test_pair_he0_he1(self):
        # hand-expanded 2x2 determinant: weight doubles, polynomial part is 1
        w = wronskian([gaussian((1,)), gaussian((0, 1))])
        assert w == GaussFun(RatFun(Poly.one()), -2)

    def test_pair_he1_he2(self):
        # hand-expanded: polynomial part 1 + x^2
        w = wronskian([gaussian((0, 1)), gaussian((-1, 0, 1))])
        assert w == GaussFun(RatFun(Poly((1, 0, 1))), -2)

    def test_linear_dependence_is_zero(self):
        f = gaussian((1, 2))
        assert wronskian([f, 2 * f]).is_zero

    def test_mixed_weights_rejected(self):
        with pytest.raises(MixedWeightError):
            wronskian([gaussian((1,), s=-1), gaussian((1,), s=1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wronskian([])

    @pytest.mark.parametrize("n", [3, 4])
    def test_fraction_free_agrees_with_cofactor(self, n):
        funcs = [GaussFun(RatFun(hermite_he(k)), -1) for k in range(n)]
        rows = derivative_table(funcs, n - 1)
        assert ratfun_det(rows) == det_cofactor(rows)

    def test_rational_entries(self):
        f = GaussFun(RatFun(Poly.one(), Poly((1, 0, 1))), -1)
        g = gaussian((0, 1))
        h = gaussian((-1, 0, 1))
        rows = derivative_table([f, g, h], 2)
        assert ratfun_det(rows) == det_cofactor(rows)


class TestDiffOpApply:
    def test_ground_state_annihilation(self):
        op = DiffOp((RatFun(Poly((0, Fraction(1, 2)))), RatFun.one()))  # d + x/2
        assert op(gaussian((1,))).is_zero

    def test_identity(self):
        f = gaussian((3, 0, 2))
        assert DiffOp.identity()(f) == f

    def test_oscillator_eigenvalue(self):
        h0 = DiffOp.schroedinger(RatFun(Poly((Fraction(-1, 2), 0, Fraction(1, 4)))))
        phi2 = GaussFun(RatFun(hermite_he(2)), -1)
        assert h0(phi2) == 2 * phi2


class TestDiffOpCompose:
    def test_leibniz(self):
        d = DiffOp((RatFun.zero(), RatFun.one()))
        x = DiffOp((RatFun.x(),))
        assert d.compose(x) == DiffOp((RatFun.one(), RatFun.x()))  # x d + 1

    def test_identity_neutral(self):
        op = DiffOp((RatFun.x(), RatFun.one(), RatFun(Poly((0, 0, 1)))))
        assert DiffOp.identity().compose(op) == op
        assert op.compose(DiffOp.identity()) == op

    def test_ladder_product(self):
        # (d + x/2)(d - x/2) = d^2 - x^2/4 - 1/2
        up = DiffOp((RatFun(Poly((0, Fraction(1, 2)))), RatFun.one()))
        down = DiffOp((RatFun(Poly((0, Fraction(-1, 2)))), RatFun.one()))
        expected = DiffOp(
            (RatFun(Poly((Fraction(-1, 2), 0, Fraction(-1, 4)))), RatFun.zero(), RatFun.one())
        )
        assert up.compose(down) == expected

    def test_apply_respects_composition(self):
        rng = random.Random(9)
        for _ in range(15):
            a = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 3))])
            b = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 3))])
            f = gaussian([rng.randint(-3, 3) for _ in range(3)])
            assert a.compose(b)(f) == a(b(f))


class TestAdjoint:
    def test_derivative_flips_sign(self):
        d = DiffOp((RatFun.zero(), RatFun.one()))
        assert d.adjoint() == -d

    def test_multiplication_fixed(self):
        op = DiffOp((Poly((1, 2, 3)),))
        assert op.adjoint() == op

    def test_x_d(self):
        op = DiffOp((RatFun.zero(), RatFun.x()))  # x d
        assert op.adjoint() == DiffOp((RatFun.constant(-1), -RatFun.x()))  # -x d - 1

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(21)
        for _ in range(12):
            a = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
            b = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
            assert a.adjoint().adjoint() == a
            assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())

    def test_hamiltonian_self_adjoint(self):
        h0 = DiffOp.schroedinger(RatFun(Poly((Fraction(-1, 2), 0, Fraction(1, 4)))))
        assert h0.adjoint() == h0
