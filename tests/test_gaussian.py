import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darboux.gaussian import DiffOp, GaussFun, MixedWeightError, _d_left, derivative_table, wronskian
from darboux.polynomial import Poly, WBase, WFun, det_cofactor, hermite_he, ratfun_det


def gaussian(coeffs, s=-1):
    return GaussFun(Poly(coeffs), s)


def _over(num: Poly, den: Poly) -> WFun:
    """num / den over the powers of its own monic denominator."""
    return WBase(den).over(num * (1 / den.lead()), 1)


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
        f = GaussFun(_over(Poly.one(), Poly((1, 0, 1))), 1)
        expected = GaussFun(
            _over(Poly((0, Fraction(-3, 2), 0, Fraction(1, 2))), Poly((1, 0, 1)) * Poly((1, 0, 1))), 1
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
        assert w == GaussFun(Poly.one(), -2)

    def test_pair_he1_he2(self):
        # hand-expanded: polynomial part 1 + x^2
        w = wronskian([gaussian((0, 1)), gaussian((-1, 0, 1))])
        assert w == GaussFun(Poly((1, 0, 1)), -2)

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
        funcs = [GaussFun(hermite_he(k), -1) for k in range(n)]
        rows = derivative_table(funcs, n - 1)
        assert ratfun_det(rows) == det_cofactor(rows)

    def test_rational_entries(self):
        f = GaussFun(_over(Poly.one(), Poly((1, 0, 1))), -1)
        g = gaussian((0, 1))
        h = gaussian((-1, 0, 1))
        rows = derivative_table([f, g, h], 2)
        assert ratfun_det(rows) == det_cofactor(rows)


class TestDiffOpApply:
    def test_ground_state_annihilation(self):
        op = DiffOp((Poly((0, Fraction(1, 2))), 1))  # d + x/2
        assert op(gaussian((1,))).is_zero

    def test_identity(self):
        f = gaussian((3, 0, 2))
        assert DiffOp.identity()(f) == f

    def test_oscillator_eigenvalue(self):
        h0 = DiffOp.schroedinger(Poly((Fraction(-1, 2), 0, Fraction(1, 4))))
        phi2 = GaussFun(hermite_he(2), -1)
        assert h0(phi2) == 2 * phi2


class TestDiffOpCompose:
    def test_leibniz(self):
        d = DiffOp((0, 1))
        x = DiffOp((Poly.x(),))
        assert d.compose(x) == DiffOp((1, Poly.x()))  # x d + 1

    def test_identity_neutral(self):
        op = DiffOp((Poly.x(), 1, Poly((0, 0, 1))))
        assert DiffOp.identity().compose(op) == op
        assert op.compose(DiffOp.identity()) == op

    def test_ladder_product(self):
        # (d + x/2)(d - x/2) = d^2 - x^2/4 - 1/2
        up = DiffOp((Poly((0, Fraction(1, 2))), 1))
        down = DiffOp((Poly((0, Fraction(-1, 2))), 1))
        expected = DiffOp((Poly((Fraction(-1, 2), 0, Fraction(-1, 4))), 0, 1))
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
        d = DiffOp((0, 1))
        assert d.adjoint() == -d

    def test_multiplication_fixed(self):
        op = DiffOp((Poly((1, 2, 3)),))
        assert op.adjoint() == op

    def test_x_d(self):
        op = DiffOp((0, Poly.x()))  # x d
        assert op.adjoint() == DiffOp((-1, -Poly.x()))  # -x d - 1

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(21)
        for _ in range(12):
            a = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
            b = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
            assert a.adjoint().adjoint() == a
            assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())

    def test_hamiltonian_self_adjoint(self):
        h0 = DiffOp.schroedinger(Poly((Fraction(-1, 2), 0, Fraction(1, 4))))
        assert h0.adjoint() == h0


_X = sympy.Symbol("x")
_G = sympy.Function("g")(_X)


def _to_sympy(r: WFun):
    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * _X**k
                   for k, c in enumerate(p.coeffs))
    return poly(r.num) / poly(r.den)


def _from_field(f) -> WFun:
    def poly(p):
        terms = {m: Fraction(int(c.numerator), int(c.denominator)) for (m,), c in p.terms()}
        return Poly(terms.get(k, 0) for k in range(max(terms, default=0) + 1))
    return _over(poly(f.numer), poly(f.denom))


def _operator_of(expr, order: int) -> DiffOp:
    """The coefficients of g, g', ..., g^(order) in a linear expression in g,
    read in the ring Q(x)[y_0, ..., y_order] with y_k = g^(k)."""
    ys = [sympy.Symbol(f"y{k}") for k in range(order + 1)]
    ring, *gens = sympy.ring(ys, sympy.QQ.frac_field(_X))
    expr = expr.xreplace({_G.diff(_X, k): y for k, y in enumerate(ys)})
    linear = ring.from_expr(expr)
    return DiffOp(_from_field(linear.coeff(y)) for y in gens)


def _apply(op: DiffOp, expr, order: int):
    """op(expr) for expr linear in g of the given order.  Each derivative is
    taken by sympy, then collected over g, g', ... to keep the trees small."""
    out = sympy.Integer(0)
    for j, a in enumerate(op.coeffs):
        if j:
            collected = _operator_of(sympy.diff(expr, _X), order + j).coeffs
            expr = sum((_to_sympy(c) * _G.diff(_X, k) for k, c in enumerate(collected)),
                       sympy.Integer(0))
        out += _to_sympy(a) * expr
    return out


# One explicit base for operators with rational coefficients: its W is the
# product of every denominator they take.
_OP_BASE = WBase(Poly((1, 0, 1)) * Poly((2, 1)) * Poly((1, 1)) * Poly((1, 1)))


def _over_op_base(num: Poly, den: Poly) -> WFun:
    """num / den over ``_OP_BASE``, den a monic factor of its W."""
    return _OP_BASE.over(num * _OP_BASE.W.exact_div(den), 1)


# Nonzero operators of order <= 3 with small rational-function coefficients,
# some of them zero.
_coeffs = st.builds(
    lambda num, den: _over_op_base(Poly(num), den),
    st.lists(st.integers(-3, 3), max_size=3),
    st.sampled_from([Poly((1,)), Poly((1, 0, 1)), Poly((2, 1)), Poly((1, 1)) * Poly((1, 1))]),
)
_ops = st.lists(_coeffs, min_size=1, max_size=4).map(DiffOp).filter(lambda op: not op.is_zero)


def _apply_term_by_term(op: DiffOp, f: GaussFun) -> GaussFun:
    """op(f) one term at a time, each product a_j f^(j) and each partial
    sum in normal form: the oracle for ``DiffOp.__call__``, which reduces
    once."""
    out = GaussFun.zero()
    for a, fj in zip(op.coeffs, f.derivatives(op.order())):
        if not a.is_zero:
            out = out + fj * a
    return out


def _compose_term_by_term(a: DiffOp, b: DiffOp) -> DiffOp:
    """a o b with every product and partial sum in normal form: the oracle
    for ``DiffOp.compose``, which reduces once per coefficient."""
    out = [a.coeffs[-1] * 0] * (a.order() + b.order() + 1)
    ladder = list(b.coeffs)
    for i, c in enumerate(a.coeffs):
        if i:
            ladder = _d_left(ladder)
        for j, t in enumerate(ladder):
            out[j] = out[j] + c * t
    return DiffOp(out)


def _assert_same_normal_form(got: WFun, want: WFun):
    """Equal values with the same (p, k), and the same base when k > 0."""
    assert got == want
    assert (got.k, got.p) == (want.k, want.p)
    if got.k:
        assert got.base is want.base


# Values over _OP_BASE with a pole, and polynomials over it and over W = 1.
_weights = st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2)])
_int_polys = st.lists(st.integers(-4, 4), max_size=5).map(Poly)
_functions = st.one_of(
    st.builds(lambda p, k, s: GaussFun(_OP_BASE.over(p, k), s), _int_polys, st.integers(1, 2), _weights),
    st.builds(GaussFun, _int_polys, _weights),
    st.builds(lambda p, s: GaussFun(_OP_BASE.lift(p), s), _int_polys, _weights),
    st.just(GaussFun.zero()),
)
_poly_ops = st.lists(_int_polys, min_size=1, max_size=4).map(DiffOp).filter(lambda op: not op.is_zero)


class TestOneReductionPerResult:
    """``DiffOp.__call__`` and ``compose`` sum each result's numerators over
    one power of W and reduce once; the term-by-term sums are the oracle."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.one_of(_ops, _poly_ops), _functions)
    @example(  # zero interior coefficients
        DiffOp((_over_op_base(Poly((1, 2)), Poly((2, 1))), 0, 0, _over_op_base(Poly((3,)), Poly((1, 0, 1))))),
        GaussFun(_OP_BASE.over(Poly((1, 0, -1)), 2), -1),
    )
    @example(  # polynomial coefficients on a value with a pole
        DiffOp((Poly((0, 1)), 0, Poly((-1,)))),
        GaussFun(_OP_BASE.over(Poly((5, 1)), 1), Fraction(1, 2)),
    )
    @example(DiffOp((Poly((1,)), Poly((0, 2)))), GaussFun.zero())
    def test_apply_matches_the_term_by_term_sum(self, op, f):
        got, want = op(f), _apply_term_by_term(op, f)
        assert got.s == want.s
        _assert_same_normal_form(got.r, want.r)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(st.one_of(_ops, _poly_ops), st.one_of(_ops, _poly_ops))
    def test_compose_matches_the_term_by_term_sum(self, a, b):
        got, want = a.compose(b), _compose_term_by_term(a, b)
        assert len(got.coeffs) == len(want.coeffs)
        for x, y in zip(got.coeffs, want.coeffs):
            _assert_same_normal_form(x, y)

    def test_two_bases_with_poles_still_refused(self):
        other = WBase(Poly((3, 0, 1)))
        op = DiffOp((_over_op_base(Poly((1,)), Poly((2, 1))),))
        with pytest.raises(ValueError, match="different Wronskians"):
            op(GaussFun(other.over(Poly((1,)), 1)))


class TestOperatorAlgebraAgainstSympy:
    """``compose`` and ``adjoint`` against sympy applying the operators to a
    generic function g: A(B(g)) and sum_j (-1)^j (a_j g)^(j)."""

    @settings(deadline=None, max_examples=12, derandomize=True)
    @given(_ops, _ops)
    @example(  # a zero d^1 coefficient, as in h0: the ladder still advances
        DiffOp((_over_op_base(Poly((0, 1)), Poly((1, 0, 1))), 0, -1)),
        DiffOp((_over_op_base(Poly((1,)), Poly((2, 1))), Poly.x())),
    )
    def test_compose_and_adjoint(self, a, b):
        a_b_g = _apply(a, _apply(b, _G, 0), b.order())
        assert a.compose(b) == _operator_of(a_b_g, a.order() + b.order())
        adjoint = sum(((-1) ** j * sympy.diff(_to_sympy(c) * _G, _X, j)
                       for j, c in enumerate(a.coeffs)), sympy.Integer(0))
        assert a.adjoint() == _operator_of(adjoint, a.order())
