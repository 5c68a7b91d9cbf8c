import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import value_at

from darboux import polynomial
from darboux.gaussian import GaussFun, wronskian
from darboux.polynomial import (
    _int_exact_div,
    _int_primitive,
    _prs_gcd,
    NormValue,
    POLYNOMIALS,
    Poly,
    WBase,
    WFun,
    cramer_numerators,
    det_cofactor,
    hermite_he,
    poly_det_bareiss,
    poly_gcd,
    ratfun_det,
    sturm_real_root_count,
)
from darboux.spectral import _poly_values


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
    _int_polys, st.tuples(_int_polys, _int_polys).map(lambda ab: ab[0] * ab[1] * ab[1])
)


def _sympy_rational(f: Fraction) -> sympy.Rational:
    return sympy.Rational(f.numerator, f.denominator)


def _sympy_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly([_sympy_rational(c) for c in reversed(p.coeffs)], sympy.Symbol("x"),
                      domain="QQ")


def _poly_of(p: sympy.Poly) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _sympy_canonical(num: sympy.Poly, den: sympy.Poly) -> tuple[Poly, Poly]:
    """(num, den) cancelled by sympy, with a monic denominator: the parts of
    the canonical record, formed without this package's gcd."""
    num, den = num.cancel(den, include=True)
    lead = den.LC()
    return _poly_of(num.quo_ground(lead)), _poly_of(den.quo_ground(lead))


def _over_its_den(num: Poly, den: Poly) -> WFun:
    """num / den over the powers of its own monic denominator, a base of its
    own."""
    return WBase(den).over(num * (1 / den.lead()), 1)


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
        assert p * p * p == P(1, 6, 12, 8)

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
        # The float sampler's Horner against the exact oracle.
        p = P(1, 0, 2)
        assert value_at(p, Fraction(1, 2)) == Fraction(3, 2)
        assert _poly_values(p, np.array([0.5, 2.0])).tolist() == [1.5, 9.0]


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

# Long, big and sparse inputs for the row-wise kernels: up to 40 coefficients
# with numerators up to 2^200, and about one in three zero, so interior zeros
# and a zero constant term are common.  The length is drawn first, so long
# lists are as common as short ones.
def _lists_up_to_40(elements):
    return st.integers(0, 40).flatmap(lambda n: st.lists(elements, min_size=n, max_size=n))


_big_ints = st.integers(-(2**200), 2**200)
_sparse_int_lists = _lists_up_to_40(st.one_of(st.just(0), _big_ints, st.integers(-9, 9)))
_wide_lists = _lists_up_to_40(
    st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, _big_ints, st.integers(1, 2**64)),
        _rationals,
    )
).map(_ref_trim)
# Derivative weights with odd and even numerators, and integer ones.
_weights = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.integers(-6, 6),
).filter(bool)


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
        # One value in several types: a polynomial as a Poly and as a WFun
        # over two bases, and a constant also as an int or a Fraction.
        lift = WBase(Poly((2, 0, 1))).lift
        c0 = a[0] if a else Fraction(0)
        cross = [
            (pa, POLYNOMIALS.lift(pa)),
            (pa, lift(pa)),
            (POLYNOMIALS.lift(pa), lift(pa)),
            (Poly((c0,)), c0),
            (POLYNOMIALS.lift(Poly((c0,))), c0),
            (Poly((k,)), k),
            (POLYNOMIALS.lift(k), k),
            (lift(k), k),
            (Poly((Fraction(1, k),)), Fraction(1, k)),
            (POLYNOMIALS.lift(Fraction(1, k)), Fraction(1, k)),
            (Poly.zero(), 0),
        ]
        for x, y in routes + cross:
            if isinstance(x, Poly):
                _assert_canonical(x)
            assert x == y and y == x and hash(x) == hash(y)
            assert len({x, y}) == 1

    def test_zero_is_canonical(self):
        for z in (Poly(()), Poly((0, Fraction(0, 7))), P(Fraction(1, 3)) - P(Fraction(1, 3))):
            _assert_canonical(z)
            assert (z.nums, z.den) == ((), 1)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(_sparse_int_lists, _sparse_int_lists)
    @example([0, 0, 3], [5])
    @example([0] * 39 + [2**200], [-(2**200)] + [0] * 38 + [1])
    def test_int_mul_matches_the_dot_products(self, a, b):
        want = [
            sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)
        ] if a and b else []
        assert polynomial._int_mul(a, b) == want
        assert polynomial._int_mul(b, a) == want

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(_wide_lists, _wide_lists)
    def test_long_sparse_ring_operations(self, a, b):
        pa, pb = Poly(a), Poly(b)
        # Integer numerators over one denominator take the equal-denominator sum.
        same = Poly(Fraction(c.numerator, 7) for c in b)
        for got, want in [
            (pa + pb, _ref_add(a, b)),
            (pa - pb, _ref_add(a, tuple(-x for x in b))),
            (pa * pb, _ref_mul(a, b)),
            (Poly(x * 7 for x in a) * Fraction(1, 7) + same, _ref_add(a, same.coeffs)),
            (pa.derivative(), _ref_trim(i * x for i, x in enumerate(a) if i)),
        ]:
            _assert_canonical(got)
            assert got.coeffs == want

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(_wide_lists, _wide_lists.map(lambda cs: _ref_trim(cs[:12])).filter(bool))
    @example((Fraction(0), Fraction(0), Fraction(2**200, 3)), (Fraction(0), Fraction(5)))
    def test_long_sparse_division(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert (pa * pb).exact_div(pb) == pa
        q, r = divmod(pa, pb)
        _assert_canonical(q)
        _assert_canonical(r)
        assert (q.coeffs, r.coeffs) == _ref_divmod(a, b)
        # The integer kernel itself: lead(b)^e a = q b + r with deg r < deg b.
        x, y = list(pa.nums), list(pb.nums)
        iq, ir, e = polynomial._int_pseudo_divmod(x, y)
        lhs = Poly(c * y[-1] ** e for c in x)
        assert lhs == Poly(iq) * Poly(y) + Poly(ir)
        assert len(ir) < len(y) and (not ir or ir[-1])

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_wide_lists, _weights)
    @example((Fraction(0), Fraction(0), Fraction(1)), Fraction(2, 3))
    @example((Fraction(5, 4),), Fraction(-4, 9))
    @example((), Fraction(7, 2))
    def test_weighted_derivative(self, a, w):
        # p' + (w/2) x p, with w's numerator odd or even.
        got = Poly(a).derivative(w)
        _assert_canonical(got)
        want = _ref_add(
            tuple(i * x for i, x in enumerate(a) if i),
            tuple(Fraction(w) / 2 * x for x in (Fraction(0), *a)),
        )
        assert got.coeffs == want

    def test_weight_must_be_exact(self):
        with pytest.raises(TypeError):
            P(1, 2).derivative(0.5)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(_wide_lists)
    def test_unit_factor_returns_the_other(self, a):
        pa = Poly(a)
        for one in (Poly.one(), Poly((Fraction(3, 3),)), POLYNOMIALS.power(0)):
            for got in (pa * one, one * pa):
                assert got is pa
                _assert_canonical(got)
                assert got.coeffs == _ref_mul(a, (Fraction(1),))
        # A unit only up to a scalar is multiplied out.
        assert (pa * P(-1)).coeffs == tuple(-x for x in a)
        assert (pa * P(Fraction(1, 2))).coeffs == tuple(x / 2 for x in a)


# Integer coefficient lists, nonzero on top, drawn either small, up to 130
# bits, or mixed, so the two inputs of a gcd often differ widely in norm.
def _int_lists(min_size, max_size):
    small, big = st.integers(-9, 9), st.integers(-(2**130), 2**130)
    return st.sampled_from([small, big, st.one_of(small, big)]).flatmap(
        lambda ints: st.lists(ints, min_size=min_size, max_size=max_size).filter(lambda cs: cs[-1])
    )


# (g, k, u, v) for the inputs g^k u and g^k v.  At the first evaluation point
# xi = 256, u(256) and v(256) are both multiples of 251 (u(5) = v(5) = 251),
# so the integer gcd carries that factor into a wrong candidate.
_WRONG_FIRST_POINT = ([1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1], 1, [1, 25, 0, 1], [76, 0, 2, 1])
# At xi = 256, which still holds every coefficient, x - 255 evaluates to 1 and
# the candidate 1 divides both inputs; xi > 2 * 255 + 1 rules that point out.
_BELOW_THE_BOUND = ([-255, 1], 1, [1] * 16, [1, 1] + [0] * 11 + [1])


class TestHeuristicGcd:
    """``poly_gcd``, heuristic first on every pair of non-constant inputs,
    against the primitive pseudo-remainder sequence it falls back to."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_int_lists(2, 4), st.integers(0, 3), _int_lists(14, 18), _int_lists(14, 18),
           _rationals.filter(bool))
    @example(*_WRONG_FIRST_POINT, Fraction(1))
    @example(*_BELOW_THE_BOUND, Fraction(-3, 7))
    @example([3, -(2**100)], 3, [1] * 14, [2**110 + 1] + [0] * 12 + [-1], Fraction(5, 2**120))
    def test_matches_the_remainder_sequence(self, gcd_routes, g, k, u, v, scale):
        # k = 0 gives a coprime pair (almost surely), k = 2, 3 repeated factors.
        a = math.prod([Poly(g)] * k, start=Poly(u)) * scale
        b = math.prod([Poly(g)] * k, start=Poly(v))
        x, y = _int_primitive(a), _int_primitive(b)
        want = _prs_gcd(x, y)
        with gcd_routes() as routes:
            got = poly_gcd(a, b)
        _assert_canonical(got)
        assert got == Poly(want).monic()
        assert routes["heuristic"] == 1
        assert routes["accepted"] + routes["fallback"] == routes["heuristic"]
        assert routes["prs"] == 1 - routes["accepted"]

    def test_constant_candidate_takes_no_trial_division(self, gcd_routes):
        # x^2 + 1 and x^3 - 2 at 256 are 65537 and 16777214, coprime: the
        # candidate is the constant 1, which divides both inputs.
        with gcd_routes() as routes, \
                patch.object(polynomial, "_int_pseudo_divmod", side_effect=AssertionError):
            got = poly_gcd(P(1, 0, 1), P(-2, 0, 0, 1))
        assert got == Poly.one()
        assert (routes["accepted"], routes["points"]) == (1, 1)

    def test_wrong_first_candidate_moves_on(self, gcd_routes):
        g, k, u, v = _WRONG_FIRST_POINT
        with gcd_routes() as routes:
            got = poly_gcd(math.prod([Poly(g)] * k, start=Poly(u)), math.prod([Poly(g)] * k, start=Poly(v)))
        assert got == Poly(g)
        assert routes["points"] >= 2 or routes["fallback"] == 1


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

    def test_repeated_roots_take_no_gcd(self):
        # Sturm's theorem holds for the remainder sequence of p and p' when p
        # has multiple roots too, so no square-free step is taken.
        cubed = P(-1, 1) * P(-1, 1) * P(-1, 1) * P(2, 1) * P(2, 1) * P(1, 0, 1)  # (x-1)^3 (x+2)^2 (x^2+1)
        with patch.object(polynomial, "poly_gcd", side_effect=AssertionError("gcd taken")), \
                patch.object(Poly, "exact_div", side_effect=AssertionError("division taken")):
            assert sturm_real_root_count(cubed) == 2
            assert sturm_real_root_count(P(1, 0, 1) * P(1, 0, 1)) == 0

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
    @example(P(-1, 1) * P(-1, 1) * P(-1, 1) * P(2, 1) * P(2, 1) * P(1, 0, 1))
    @example(P(1, 0, 1) * P(1, 0, 1))
    @example(P(0, 2, -3))  # a negative lead: its remainder's sign is restored
    def test_whole_line_against_sympy(self, p):
        assert sturm_real_root_count(p) == _sympy_poly(p).count_roots()


_X = sympy.Symbol("x")


def _from_sympy(expr) -> Poly:
    coeffs = sympy.Poly(expr, _X).all_coeffs()
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))


_small_polys = (
    st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0).map(Poly)
)
# Denominators of degree 0, and a * b^k whose repeated factor b makes
# gcd(q, q') nontrivial.
_denominators = st.one_of(
    st.integers(-4, 4).filter(bool).map(lambda c: Poly((c,))),
    st.builds(lambda a, b, k: math.prod([b] * k, start=a), _small_polys, _small_polys, st.integers(1, 3)),
)
_weights = st.sampled_from([Fraction(w) for w in (0, 1, -1, 4)] + [Fraction(1, 2), Fraction(-1, 2)])


class TestRatFun:
    """Rational functions read through ``WFun.canonical()``, the pair
    (num, den): it reduces, and WFun arithmetic over one explicit base lands
    on sympy's cancelled fractions."""

    def test_reduce_scalar(self):
        # 2x^2 / 2 over W = 2, which is W = 1 once monic.
        r = _over_its_den(P(0, 0, 2), P(2))
        assert r.canonical() == (P(0, 0, 1), Poly.one())

    def test_reduce_common_factor(self):
        # (x^2 - 1)/(x - 1): over divides W out.  (x - 1)/(x^2 - 1)^k:
        # W does not divide x - 1, and the gcd takes the common factor.
        assert _over_its_den(P(-1, 0, 1), P(-1, 1)).canonical() == (P(1, 1), Poly.one())
        base = WBase(P(-1, 0, 1))
        assert base.over(P(-1, 1), 1).canonical() == (P(1), P(1, 1))
        assert base.over(P(-1, 1), 2).canonical() == (P(1), P(-1, -1, 1, 1))

    def test_reduce_keeps_coprime_parts(self):
        # 4(x^2-1)/(1+x^2)^2 has nothing to cancel
        num = P(-4, 0, 4)
        den = P(1, 0, 1) * P(1, 0, 1)
        r = WBase(P(1, 0, 1)).over(num, 2)
        assert r.canonical() == (num, den)
        # value oracle at sample points away from poles
        for k in range(1, 11):
            x = Fraction(k, 7)
            assert value_at(r, x) == value_at(num, x) / value_at(den, x)

    def test_monic_denominator(self):
        # 1/(2x), and 3x / (2x^2) after the gcd x: each den monic.
        assert _over_its_den(P(1), P(0, 2)).canonical() == (P(Fraction(1, 2)), P(0, 1))
        assert _over_its_den(P(0, 3), P(0, 0, 2)).canonical() == (P(Fraction(3, 2)), P(0, 1))

    def test_idempotent(self):
        r = WBase(P(1, 0, 2, 0, 1)).over(P(-4, 0, 4), 1)
        pair = r.canonical()
        assert r.canonical() is pair
        assert _over_its_den(*pair).canonical() == pair

    def test_zero_reads_zero_over_one(self):
        for base in (POLYNOMIALS, WBase(P(1, 0, 1))):
            assert base.over(Poly.zero(), 2).canonical() == (Poly.zero(), Poly.one())
        assert (WBase(P(1, 0, 1)).over(P(0, 1), 1) * 0).canonical() == (Poly.zero(), Poly.one())

    def test_constant_side_takes_no_gcd(self, gcd_routes):
        # A constant numerator over W^k, and a polynomial over W^0, read
        # their pairs with no gcd; a non-constant pair takes one.
        base = WBase(P(1, 0, 1))
        constant = [base.over(P(3), 2), base.over(P(1, 2), 0), POLYNOMIALS.lift(P(0, 1))]
        with gcd_routes() as routes, \
                patch.object(polynomial, "poly_gcd", side_effect=AssertionError("gcd taken")):
            pairs = [v.canonical() for v in constant]
        assert not routes
        assert pairs == [(P(3), P(1, 0, 2, 0, 1)), (P(1, 2), Poly.one()), (P(0, 1), Poly.one())]
        with gcd_routes() as routes:
            base.over(P(0, 1), 1).canonical()
        assert routes["heuristic"] == 1

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(
        st.lists(st.integers(-5, 5), max_size=3).map(Poly), st.one_of(_small_polys, _denominators),
        st.lists(st.integers(-5, 5), max_size=3).map(Poly), st.one_of(_small_polys, _denominators),
        st.integers(2, 40),
    )
    def test_field_ops_value_oracle(self, a_num, a_den, b_num, b_den, k):
        # Over one explicit base W = a_den b_den b_num, a, b and 1/b are each
        # p / W, so a quotient is a product with 1/b.  A structural oracle:
        # each result's canonical parts are sympy's cancelled fraction; and
        # a value oracle at x = k/7, from the inputs' own parts.
        q = b_num if not b_num.is_zero else Poly.one()
        w = a_den * b_den * q
        base = WBase(w)
        a = base.over(a_num * b_den * q * (1 / w.lead()), 1)
        b = base.over(b_num * a_den * q * (1 / w.lead()), 1)
        an, ad, bn, bd = map(_sympy_poly, (a_num, a_den, b_num, b_den))
        cases = [(operator.add, a + b, an * bd + bn * ad, ad * bd),
                 (operator.sub, a - b, an * bd - bn * ad, ad * bd),
                 (operator.mul, a * b, an * bn, ad * bd)]
        if not b_num.is_zero:
            reciprocal = base.over(a_den * b_den * b_den * (1 / w.lead()), 1)
            cases.append((operator.truediv, a * reciprocal, an * bd, ad * bn))
        x = Fraction(k, 7)
        av, bv = (value_at(num, x) / value_at(den, x) if value_at(den, x) else None
                  for num, den in ((a_num, a_den), (b_num, b_den)))
        for op, got, top, bottom in cases:
            assert (got.num, got.den) == _sympy_canonical(top, bottom)
            if av is not None and bv is not None and (op is not operator.truediv or bv):
                assert value_at(got, x) == op(av, bv)

    def test_derivative_quotient_rule(self):
        r = WBase(P(1, 0, 1)).over(P(0, 1), 1)  # x/(1+x^2)
        d = r.derivative()
        assert d.canonical() == (P(1, 0, -1), P(1, 0, 2, 0, 1))  # (1-x^2)/(1+x^2)^2


class TestWeightedDerivative:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.lists(st.integers(-6, 6), max_size=4).map(Poly), _denominators, _weights)
    @example(P(1), P(1, 0, 1) * P(1, 0, 1) * P(-2, 1), Fraction(1, 2))
    @example(P(3, -1, 2), P(2), Fraction(-1))
    @example(P(0, 1), P(1, 1) * P(1, 1) * P(1, 1), Fraction(4))
    def test_matches_sympy(self, num, den, w):
        # d/dx[r exp(w x^2/4)] exp(-w x^2/4), cancelled by sympy, against
        # the canonical parts of the derivative of num/den over its own base.
        r = _over_its_den(num, den)
        e = sympy.exp(_sympy_rational(w) * _X**2 / 4)
        value = _sympy_poly(num).as_expr() / _sympy_poly(den).as_expr()
        top, bottom = sympy.fraction(sympy.cancel(sympy.diff(value * e, _X) / e))
        got = r.derivative(w)
        assert (got.num, got.den) == _sympy_canonical(sympy.Poly(top, _X, domain="QQ"),
                                                      sympy.Poly(bottom, _X, domain="QQ"))
        # The polynomial route, p' + (w/2) x p, against the same oracle.
        poly_value = _sympy_poly(num).as_expr()
        assert num.derivative(w) == _from_sympy(sympy.cancel(sympy.diff(poly_value * e, _X) / e))


class TestScalarMultiple:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.lists(st.integers(-6, 6), max_size=4).map(Poly),
        _denominators,
        st.one_of(
            st.just(0),
            st.fractions(max_value=0, max_denominator=50),
            st.integers(-(10**40), 10**40),
        ),
    )
    @example(P(1, 1), P(1, 0, 1) * P(1, 0, 1), 0)
    @example(P(0, 2), P(3, 1), Fraction(-7, 3))
    def test_scalar_route_is_canonical(self, num, den, c):
        # A scalar multiple is a product like any other: its result must be
        # the canonical form of c p / q, a zero scalar included.
        r = _over_its_den(num, den)
        expected = _sympy_canonical(_sympy_poly(r.num * c), _sympy_poly(r.den))
        for got in (r * c, c * r, (GaussFun(r, -1) * c).r):
            assert (got.num, got.den) == expected
        assert GaussFun(r, -1) * c == GaussFun(_over_its_den(*expected), -1)


def _family_wronskian(levels) -> Poly:
    return wronskian([GaussFun(hermite_he(k), -1) for k in levels]).r.num


@lru_cache(maxsize=None)
def _w_bases() -> tuple[WBase, ...]:
    """W of the pair (1, 2), x^2 + 1; W of (1, 2, 5, 6), of degree 8; the
    square (x^2 + 1)^2, which shares a factor with its derivative; and
    (x - 256)(x^2 + 1), whose root 256 is the evaluation point one byte
    below the one the rule xi > max|w_i| gives.  Built on first use, so a
    broken Wronskian fails the tests that read it, not the collection."""
    return (
        WBase(P(1, 0, 1)),
        WBase(_family_wronskian((1, 2, 5, 6))),
        WBase(P(1, 0, 1) * P(1, 0, 1)),
        WBase(P(-256, 1) * P(1, 0, 1)),
    )


# (p, j, k) for the value p W^j / W^k: p a small polynomial, times x^2 + 1
# or not (a proper factor of two of the bases), over any exponent.
_w_specs = st.tuples(
    st.builds(lambda q, i, c: math.prod([P(1, 0, 1)] * i, start=q) * c,
              st.lists(st.integers(-5, 5), max_size=4).map(Poly), st.integers(0, 1),
              _rationals.filter(bool)),
    st.integers(0, 2),
    st.integers(0, 3),
)


def _w_value(base: WBase, spec) -> tuple[WFun, tuple[sympy.Poly, sympy.Poly]]:
    """The value of ``spec`` over ``base``, and its numerator and
    denominator as sympy polynomials."""
    p, j, k = spec
    p = math.prod([base.W] * j, start=p)
    return base.over(p, k), (_sympy_poly(p), _sympy_poly(math.prod([base.W] * k, start=Poly.one())))


def _assert_normal(v: WFun) -> None:
    assert v.k >= 0
    if v.k:
        assert not divmod(v.p, v.base.W)[1].is_zero
    if v.is_zero:
        assert v.k == 0


class TestWPowers:
    """``WFun`` values p / W^k against sympy's cancelled fractions."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.deferred(lambda: st.sampled_from(_w_bases())), _w_specs, _w_specs, _rationals)
    @example(WBase(P(1, 0, 1) * P(1, 0, 1)), (P(1, 1), 0, 2), (P(0, 1), 2, 1), Fraction(2))
    @example(WBase(P(-256, 1) * P(1, 0, 1)), (P(1), 0, 1), (P(3, 0, 1), 0, 1), Fraction(-1, 3))
    def test_matches_ratfun(self, base, sa, sb, c):
        a, (an, ad) = _w_value(base, sa)
        b, (bn, bd) = _w_value(base, sb)
        sc = _sympy_rational(c)
        x = sympy.Poly(_X, _X, domain="QQ")

        def derivative(w):
            # (n/d)' + (w/2) x n/d = (n' d - n d' + (w/2) x n d) / d^2
            return an.diff() * ad - an * ad.diff() + sympy.Rational(w, 2) * x * an * ad, ad * ad

        pairs = [
            (a, (an, ad)), (b, (bn, bd)),
            (a + b, (an * bd + bn * ad, ad * bd)), (a - b, (an * bd - bn * ad, ad * bd)),
            (a * b, (an * bn, ad * bd)),
            (a * c, (an * sc, ad)), (c * a, (an * sc, ad)), (a + c, (an + sc * ad, ad)),
            *((a.derivative(w), derivative(w)) for w in (0, -1, 1)),
            ((a + b) - a, (bn, bd)),
        ]
        for got, (top, bottom) in pairs:
            want = _sympy_canonical(top, bottom)
            _assert_normal(got)
            assert got.canonical() == want
            assert (got.num, got.den) == want
            # The same value over a base of its own denominator.
            other = _over_its_den(*want)
            assert got == other and hash(got) == hash(other)
            num, den = want
            assert repr(got) == (repr(num) if den == Poly.one() else f"({num!r})/({den!r})")
        # One value, one normal form: equality over a base is structural.
        assert ((a + b) - a).p == b.p and ((a + b) - a).k == b.k
        assert (a == b) == (_sympy_canonical(an, ad) == _sympy_canonical(bn, bd))

    def test_evaluation_point_above_the_root_bound(self):
        for base in _w_bases():
            xi = 2 ** base.xi_bits
            assert xi > max(map(abs, base.w))
            assert base.w_at_xi == sum(c * xi**i for i, c in enumerate(base.w)) > 0

    def test_evaluation_point_at_the_cauchy_edge(self):
        # W = x - 256: max|w_i| = 256 needs 9 bits, so xi = 2^16.  One byte
        # narrower, xi = 256 is W's root, and the pretest would divide by 0.
        base = WBase(P(-256, 1))
        assert base.xi_bits == 16
        assert base.w_at_xi == 2**16 - 256
        assert value_at(P(-256, 1), 256) == 0

    def test_zero_w_rejected(self):
        with pytest.raises(ValueError, match="nonzero W, got W = 0"):
            WBase(Poly.zero())

    def test_polynomials_lift_with_exponent_zero(self):
        for base in _w_bases():
            for value in (P(1, 2, 3), POLYNOMIALS.lift(P(1, 2, 3)), 3, Fraction(-1, 2)):
                v = base.lift(value)
                assert v.k == 0 and v == value

    def test_foreign_denominator_rejected(self):
        # A value with a pole is built over a base, never lifted to it: not
        # even from another base object that holds the same W.
        for base in _w_bases():
            with pytest.raises(ValueError, match="is not a polynomial"):
                base.lift(WBase(base.W).over(P(1), 1))
        with pytest.raises(ValueError, match="different Wronskians"):
            _w_bases()[0].over(P(0, 1), 1) + _w_bases()[2].over(P(0, 1), 1)

    def test_one_w_over_two_bases_compares_without_gcd(self):
        # Two bases that hold one monic W share its normal form, so values
        # over them compare as they are: the result is the canonical
        # comparison's, and no gcd is taken.
        specs = [(P(1, 1), 0, 2), (P(0, 1), 2, 1), (P(0, 1), 1, 2), (P(3, 0, 1), 0, 1), (P(), 0, 1)]
        for base in _w_bases():
            twin = WBase(base.W * 3)
            assert twin is not base and twin.W == base.W
            pairs = [(_w_value(base, a)[0], _w_value(twin, b)[0]) for a in specs for b in specs]
            with patch.object(polynomial, "poly_gcd", side_effect=AssertionError("gcd taken")):
                got = [a == b for a, b in pairs]
            assert got == [a.canonical() == b.canonical() for a, b in pairs]
            assert any(got) and not all(got)

    def test_real_roots_counted_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return sturm_real_root_count(p)

        monkeypatch.setattr("darboux.polynomial.sturm_real_root_count", counted)
        base = WBase(P(-2, 0, 2))  # 2 (x^2 - 1)
        assert base.real_root_count() == base.real_root_count() == 2
        assert calls == [P(-1, 0, 1)]


# Explicit bases for determinant entries: one without real roots, two with
# them, and W = 1.
_DET_BASES = [P(1, 0, 1), P(2, 1) * P(1, 1), P(-3, 0, 1), P(1)]


def _det_entries(w: Poly):
    """Entries p / W^k, k <= 2, over ``WBase(w)``, or polynomials over
    ``POLYNOMIALS``, with the sympy expression of each."""
    base = WBase(w)

    def entry(nums, k, polynomial):
        p = Poly(nums)
        if polynomial:
            return POLYNOMIALS.lift(p), _sympy_poly(p).as_expr()
        return base.over(p, k), _sympy_poly(p).as_expr() / _sympy_poly(base.W).as_expr() ** k

    return st.builds(entry, st.lists(st.fractions(-5, 5, max_denominator=6), max_size=3),
                     st.sampled_from([2, 1, 0]), st.booleans())


class TestDeterminants:
    def test_bareiss_matches_cofactor(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(3, 4)
            rows = [
                [Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
            direct = det_cofactor([[POLYNOMIALS.lift(e) for e in row] for row in rows])
            ff = poly_det_bareiss(rows)
            assert direct == ff

    def test_singular_matrix(self):
        row = [P(1, 1), P(0, 1), P(2)]
        assert poly_det_bareiss([row, row, [P(1), P(0), P(1)]]).is_zero

    # 30 examples: sympy's determinant of a 3 x 3 takes about 0.05 s.
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(st.sampled_from(_DET_BASES).flatmap(lambda w: st.sampled_from([0, 1, 2, 3]).flatmap(
        lambda n: st.lists(st.lists(_det_entries(w), min_size=n, max_size=n),
                           min_size=n, max_size=n))))
    def test_ratfun_det_matches_cofactor(self, cells):
        # Both routes, for every size and the empty matrix, against sympy's
        # determinant of the same entries, cancelled.
        rows = [[value for value, _ in row] for row in cells]
        det = sympy.Matrix([[expr for _, expr in row] for row in cells]).det()
        top, bottom = sympy.fraction(sympy.cancel(det))
        want = _sympy_canonical(sympy.Poly(top, _X, domain="QQ"), sympy.Poly(bottom, _X, domain="QQ"))
        for got in (ratfun_det(rows), det_cofactor(rows)):
            assert (got.num, got.den) == want


# Signed integer polynomials, the zero polynomial and wide coefficients
# among them, for systems whose point xi spans several bytes.
_int_entries = st.lists(
    st.one_of(st.integers(-4, 4), st.integers(-2**40, 2**40)), max_size=3
).map(Poly)


def _system(n: int):
    return st.lists(st.lists(_int_entries, min_size=n + 1, max_size=n + 1),
                    min_size=n, max_size=n)


class TestCramerNumerators:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.integers(1, 4).flatmap(_system), st.lists(st.integers(1, 6), min_size=4))
    # det = -129 x meets the bound B = 129 * 1: one byte narrower, xi = 256
    # cannot hold the digit 129.
    @example([[P(0, -129), P(), P()], [P(), P(1), P()]], [1, 1, 1, 1])
    # An all-zero row: B must not collapse to 0 (and xi to 1) before the
    # zero pivot is reached.
    @example([[P(2**40, 3), P(5), P(1)], [P(), P(), P()]], [1, 1, 1, 1])
    def test_against_bareiss_minors(self, rows, dens):
        n = len(rows)
        a = [row[:n] for row in rows]
        if any(poly_det_bareiss([r[:k] for r in a[:k]]).is_zero for k in range(1, n + 1)):
            with pytest.raises(ZeroDivisionError):
                cramer_numerators(rows)
            return
        det, ys = cramer_numerators(rows)
        assert det == poly_det_bareiss(a)
        for i, y in enumerate(ys):
            minor = poly_det_bareiss([r[:i] + r[i + 1:] for r in rows])
            assert y == (minor if (n - 1 - i) % 2 == 0 else -minor)
        # Rows with rational coefficients are scaled to integers first; the
        # solution y_i / det does not change.
        scaled = [[p * Fraction(1, d) for p in row] for row, d in zip(rows, dens)]
        det_q, ys_q = cramer_numerators(scaled)
        assert all(y_q * det == y * det_q for y_q, y in zip(ys_q, ys))

    def test_empty_system(self):
        assert cramer_numerators([]) == (Poly.one(), [])

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="N \\+ 1 entries"):
            cramer_numerators([[P(1), P(2)], [P(3)]])

    def test_remainder_raises(self):
        # No integer system leaves a remainder (Bareiss divides exactly over
        # any integral domain), so the check guards the arithmetic itself.
        assert _int_exact_div(-12, 4) == -3
        with pytest.raises(ArithmeticError, match="does not divide"):
            _int_exact_div(7, 2)


class TestNormValue:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            NormValue(Fraction(0))

    def test_float_value(self):
        nv = NormValue(Fraction(1))  # sqrt(2 pi)
        assert nv.to_float() == pytest.approx(2.5066282746310002, abs=1e-15)
