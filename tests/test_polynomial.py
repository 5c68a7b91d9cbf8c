import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darboux.polynomial import (
    NormValue,
    Poly,
    RatFun,
    det_cofactor,
    hermite_he,
    poly_det_bareiss,
    poly_gcd,
    sturm_real_root_count,
)


def P(*coeffs):
    return Poly(coeffs)


# Integer polynomials of degree >= 1 with either sign of leading coefficient,
# plus products a * b^2 that carry repeated roots.
_int_polys = (
    st.lists(st.integers(-12, 12), min_size=2, max_size=7)
    .filter(lambda cs: cs[-1] != 0)
    .map(Poly)
)
_sturm_polys = st.one_of(
    _int_polys, st.tuples(_int_polys, _int_polys).map(lambda ab: ab[0] * ab[1] ** 2)
)
_endpoints = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def _sympy_rational(f: Fraction) -> sympy.Rational:
    return sympy.Rational(f.numerator, f.denominator)


def _sympy_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly([_sympy_rational(c) for c in reversed(p.coeffs)], sympy.Symbol("x"))


class TestPoly:
    def test_canonical_zero(self):
        assert Poly((0, 0)).is_zero
        assert Poly(()).coeffs == ()
        assert Poly((1, 0)).coeffs == (1,)

    def test_arithmetic(self):
        p = P(1, 2)  # 1 + 2x
        q = P(0, 0, 3)  # 3x^2
        assert p + q == P(1, 2, 3)
        assert p - p == Poly.zero()
        assert p * q == P(0, 0, 3, 6)
        assert 2 * p == P(2, 4)
        assert p ** 3 == P(1, 6, 12, 8)

    def test_divmod_exact(self):
        num = P(-1, 0, 1)  # x^2 - 1
        q, r = divmod(num, P(-1, 1))  # / (x - 1)
        assert q == P(1, 1) and r.is_zero
        q, r = divmod(P(1, 0, 1), P(1, 1))
        assert q == P(-1, 1) and r == P(2)
        with pytest.raises(ZeroDivisionError):
            divmod(num, Poly.zero())
        with pytest.raises(ArithmeticError):
            P(1, 0, 1).exact_div(P(1, 1))

    def test_random_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            a = Poly(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 7)))
            b = Poly(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree() < b.degree()

    def test_gcd(self):
        a = P(-1, 0, 1)  # (x-1)(x+1)
        b = P(1, 2, 1)  # (x+1)^2
        assert poly_gcd(a, b) == P(1, 1)
        assert poly_gcd(a, P(7)) == Poly.one()
        # gcd is monic regardless of input scaling
        assert poly_gcd(3 * a, 5 * b) == P(1, 1)

    def test_evaluation(self):
        p = P(1, 0, 2)
        assert p(Fraction(1, 2)) == Fraction(3, 2)
        assert p(2.0) == 9.0


# Reference arithmetic on plain Fraction tuples, lowest degree first, with no
# trailing zero: the coefficient-wise representation the integer core replaces.
def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r.pop()
    return _ref_trim(q), _ref_trim(r)


def _ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _assert_canonical(p: Poly):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.nums or p.den == 1


_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)
_coeff_lists = st.lists(_rationals, max_size=7).map(_ref_trim)
_divisors = st.one_of(
    _coeff_lists.filter(bool),
    _rationals.filter(bool).map(lambda c: (c,)),  # constants
    _coeff_lists.filter(lambda cs: len(cs) > 1).map(lambda cs: tuple(-c for c in cs)),
)


class TestIntegerCore:
    """The integer-numerator Poly against the Fraction-tuple reference."""

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_coeff_lists, _coeff_lists, _rationals)
    def test_ring_operations(self, a, b, c):
        pa, pb = Poly(a), Poly(b)
        assert pa.coeffs == a
        for got, want in [
            (pa + pb, _ref_add(a, b)),
            (pa - pb, _ref_add(a, tuple(-x for x in b))),
            (-pa, tuple(-x for x in a)),
            (pa * pb, _ref_mul(a, b)),
            (pa * c, _ref_mul(a, (c,))),
            (c * pa, _ref_mul(a, (c,))),
            (pa * c.numerator, _ref_mul(a, (c.numerator,))),
            (pa + c, _ref_add(a, (c,))),
            (pa.derivative(), _ref_trim(i * x for i, x in enumerate(a) if i)),
            (pa.monic(), _ref_monic(a)),
        ]:
            _assert_canonical(got)
            assert got.coeffs == want

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_coeff_lists, _divisors)
    @example((Fraction(1), Fraction(0), Fraction(1)), (Fraction(3), Fraction(-2)))
    @example((Fraction(1, 3), Fraction(5), Fraction(0), Fraction(7, 2)), (Fraction(-5, 4),))
    @example((Fraction(2), Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(-6)))
    def test_divmod_and_gcd(self, a, b):
        q, r = divmod(Poly(a), Poly(b))
        _assert_canonical(q)
        _assert_canonical(r)
        assert (q.coeffs, r.coeffs) == _ref_divmod(a, b)
        g = poly_gcd(Poly(a), Poly(b))
        _assert_canonical(g)
        assert g.coeffs == _ref_gcd(a, b)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_coeff_lists, _divisors, _coeff_lists)
    def test_exact_div(self, a, b, extra):
        pa, pb = Poly(a), Poly(b)
        assert (pa * pb).exact_div(pb) == pa
        r = _ref_divmod(extra, b)[1]
        if r:  # a nonzero remainder of degree below deg b
            with pytest.raises(ArithmeticError):
                (pa * pb + Poly(r)).exact_div(pb)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_coeff_lists, _coeff_lists, _coeff_lists, st.integers(1, 10**9))
    def test_equal_values_hash_alike(self, a, b, c, k):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        routes = [
            ((pa * pb) * pc, pa * (pb * pc)),
            (pa + pb - pb, pa),
            ((pa * k) * Fraction(1, k), pa),
            (Poly(x * k for x in a) * Fraction(1, k), pa),
            (pa.derivative(), (pa * 2).derivative() * Fraction(1, 2)),
        ]
        for x, y in routes:
            _assert_canonical(x)
            assert x == y and hash(x) == hash(y)
            assert len({x, y}) == 1

    def test_zero_is_canonical(self):
        for z in (Poly(()), Poly((0, Fraction(0, 7))), P(Fraction(1, 3)) - P(Fraction(1, 3))):
            _assert_canonical(z)
            assert (z.nums, z.den) == ((), 1)


class TestHermite:
    def test_base_cases(self):
        assert hermite_he(0) == Poly.one()
        assert hermite_he(1) == Poly.x()

    def test_recurrence_values(self):
        assert hermite_he(2) == P(-1, 0, 1)
        assert hermite_he(4) == P(3, 0, -6, 0, 1)

    @pytest.mark.parametrize("n", range(13))
    def test_degree_and_parity(self, n):
        he = hermite_he(n)
        assert he.degree() == n
        # He_n(-x) = (-1)^n He_n(x): coefficients of the wrong parity vanish
        for i, c in enumerate(he.coeffs):
            if (i - n) % 2 != 0:
                assert c == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_derivative_identity(self, n):
        assert hermite_he(n).derivative() == n * hermite_he(n - 1)

    @pytest.mark.parametrize("n", range(13))
    def test_differential_equation(self, n):
        # He_n'' - x He_n' + n He_n = 0, exactly
        he = hermite_he(n)
        residual = he.derivative().derivative() - Poly.x() * he.derivative() + n * he
        assert residual.is_zero


class TestDerivative:
    def test_constant(self):
        assert P(1).derivative().is_zero

    def test_square(self):
        assert P(-1, 0, 1).derivative() == P(0, 2)

    def test_hermite_case(self):
        assert hermite_he(3).derivative() == 3 * hermite_he(2)


def _numeric_real_root_count(p: Poly) -> int:
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    reals = sorted(r.real for r in roots if abs(r.imag) < 1e-7)
    distinct = []
    for r in reals:
        if not distinct or abs(r - distinct[-1]) > 1e-6:
            distinct.append(r)
    return len(distinct)


class TestSturm:
    def test_no_real_roots(self):
        assert sturm_real_root_count(P(1, 0, 1)) == 0

    def test_two_real_roots(self):
        assert sturm_real_root_count(P(-1, 0, 1)) == 2

    def test_quartic_positive(self):
        p = P(3, 0, 0, 0, 1)  # x^4 + 3
        assert sturm_real_root_count(p) == 0
        assert _numeric_real_root_count(p) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_real_root_count(Poly.zero())

    def test_multiple_roots_counted_once(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)  # (x-1)^2 (x+2)
        assert sturm_real_root_count(p) == 2

    def test_product_rule_with_known_roots(self):
        # distinct integer roots by construction
        p = P(-1, 1) * P(-2, 1)  # roots 1, 2
        q = P(3, 1) * P(5, 1)  # roots -3, -5
        assert sturm_real_root_count(p) == 2
        assert sturm_real_root_count(q) == 2
        assert sturm_real_root_count(p * q) == 4
        shared = p * P(-1, 1)  # root 1 repeated
        assert sturm_real_root_count(shared * q) == 4

    def test_interval_counts(self):
        p = P(-1, 0, 1)  # roots at -1, 1
        assert sturm_real_root_count(p, 0, 2) == 1
        assert sturm_real_root_count(p, -2, 2) == 2
        assert sturm_real_root_count(p, 1, 2) == 1  # closed left endpoint
        assert sturm_real_root_count(p, -2, -1) == 1  # closed right endpoint
        assert sturm_real_root_count(p, Fraction(-1, 2), Fraction(1, 2)) == 0

    def test_random_against_numeric_oracle(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 50:
            degree = rng.randint(1, 8)
            p = Poly([rng.randint(-6, 6) for _ in range(degree)] + [rng.randint(1, 6)])
            assert sturm_real_root_count(p) == _numeric_real_root_count(p)
            checked += 1

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(_sturm_polys)
    def test_whole_line_against_sympy(self, p):
        assert sturm_real_root_count(p) == _sympy_poly(p).count_roots()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(_sturm_polys, _endpoints, _endpoints, st.booleans())
    def test_closed_interval_against_sympy(self, p, a, b, root_at_endpoint):
        lo, hi = min(a, b), max(a, b)
        if root_at_endpoint:  # put a root exactly on each closed end
            p = p * P(-lo.numerator, lo.denominator) * P(-hi.numerator, hi.denominator)
        expected = _sympy_poly(p).count_roots(_sympy_rational(lo), _sympy_rational(hi))
        assert sturm_real_root_count(p, lo, hi) == expected


class TestRatFun:
    def test_reduce_scalar(self):
        r = RatFun(P(0, 0, 2), P(2))
        assert r.num == P(0, 0, 1) and r.den == Poly.one()

    def test_reduce_common_factor(self):
        r = RatFun(P(-1, 0, 1), P(-1, 1))
        assert r.num == P(1, 1) and r.den == Poly.one()

    def test_reduce_keeps_coprime_parts(self):
        # 4(x^2-1)/(1+x^2)^2 has nothing to cancel
        num = P(-4, 0, 4)
        den = P(1, 0, 1) * P(1, 0, 1)
        r = RatFun(num, den)
        assert r.num == num and r.den == den
        # value oracle at sample points away from poles
        for k in range(1, 11):
            x = Fraction(k, 7)
            assert r(x) == num(x) / den(x)

    def test_monic_denominator(self):
        r = RatFun(P(1), P(0, 2))
        assert r.den == P(0, 1) and r.num == P(Fraction(1, 2))

    def test_idempotent(self):
        r = RatFun(P(-4, 0, 4), P(1, 0, 2, 0, 1))
        again = RatFun(r.num, r.den)
        assert r == again

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(P(1), Poly.zero())

    def test_field_ops_value_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            a = RatFun(
                Poly([rng.randint(-5, 5) for _ in range(3)]),
                Poly([rng.randint(-3, 3) for _ in range(2)] + [1]),
            )
            b = RatFun(
                Poly([rng.randint(-5, 5) for _ in range(2)]),
                Poly([rng.randint(-3, 3) for _ in range(1)] + [1]),
            )
            x = Fraction(rng.randint(2, 40), 7)
            if a.den(x) == 0 or b.den(x) == 0:
                continue
            assert (a + b)(x) == a(x) + b(x)
            assert (a - b)(x) == a(x) - b(x)
            assert (a * b)(x) == a(x) * b(x)
            if not b.is_zero and b(x) != 0:
                assert (a / b)(x) == a(x) / b(x)

    def test_derivative_quotient_rule(self):
        r = RatFun(P(0, 1), P(1, 0, 1))  # x/(1+x^2)
        d = r.derivative()
        expected = RatFun(P(1, 0, -1), P(1, 0, 2, 0, 1))  # (1-x^2)/(1+x^2)^2
        assert d == expected


class TestDeterminants:
    def test_bareiss_matches_cofactor(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(3, 4)
            rows = [
                [Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
            direct = det_cofactor([[RatFun(e) for e in row] for row in rows])
            ff = poly_det_bareiss(rows)
            assert RatFun(ff) == direct

    def test_singular_matrix(self):
        row = [P(1, 1), P(0, 1), P(2)]
        assert poly_det_bareiss([row, row, [P(1), P(0), P(1)]]).is_zero


class TestNormValue:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            NormValue(Fraction(0), 1)

    def test_float_value(self):
        nv = NormValue(Fraction(1), 1)  # sqrt(2 pi)
        assert nv.to_float() == pytest.approx(2.5066282746310002, abs=1e-15)
