"""Exact univariate polynomial and rational-function arithmetic.

A ``Poly`` holds integer numerators over one positive common denominator, so
every ring operation (sums, products, derivatives, division) runs in ``int``
arithmetic and ends in a single reduction; ``Poly.coeffs`` presents the
same values as ``fractions.Fraction`` coefficients.  Everything in this
module is exact and deterministic.  All values are canonical: a polynomial's
denominator is positive and coprime to the content of its numerators, with
no trailing zero coefficient, and rational functions are gcd-reduced with a
monic denominator.  Structural equality therefore coincides with value
equality, which is what lets the operator identity checks elsewhere reduce
to ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _frac(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Poly:
    """Dense polynomial over the rationals: ``nums[i] / den`` is the
    coefficient of x^i, lowest degree first.

    Canonical form: ``den > 0``, gcd(den, nums) = 1 and no trailing zero in
    ``nums``; the zero polynomial is ``nums == ()`` with ``den == 1``.  Each
    value has exactly one such form.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        den = 1
        for c in cs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        self.nums, self.den = _canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial with coefficients nums[i] / den (den nonzero)."""
        p = object.__new__(cls)
        p.nums, p.den = _canonical(nums, den)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of([], 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls._of([1], 1)

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            out = [a + b for a, b in zip_longest(self.nums, other.nums, fillvalue=0)]
            return Poly._of(out, da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        out = [a * sa + b * sb for a, b in zip_longest(self.nums, other.nums, fillvalue=0)]
        return Poly._of(out, da * sa)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.nums], self.den)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly._of([c * other for c in self.nums], self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return Poly._of([c * n for c in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._of(_int_mul(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division over the rationals, by integer pseudo-division.

        With a = A/da and b = B/db, lead(B)^e A = Q B + R gives
        q = Q db / (lead(B)^e da) and r = R / (lead(B)^e da).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.nums
        if len(b) == 1:
            return Poly._of([c * other.den for c in self.nums], self.den * b[0]), Poly.zero()
        q, r, e = _int_pseudo_divmod(self.nums, b)
        scale = self.den * b[-1] ** e
        return Poly._of([c * other.den for c in q], scale), Poly._of(r, scale)

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder (raises otherwise)."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    # -- calculus and evaluation ---------------------------------------

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.nums[1:], 1)], self.den)

    def __call__(self, x):
        """Horner evaluation; works for Fraction and float arguments alike."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms ---------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero or self.nums[-1] == self.den:
            return self
        return Poly._of(list(self.nums), self.nums[-1])

    # -- comparison / display -------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash(("Poly", self.nums, self.den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                var = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical (nums, den) for the coefficients nums[i] / den."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


def _as_poly(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly._of([value], 1)
    if isinstance(value, Fraction):
        return Poly._of([value.numerator], value.denominator)
    return NotImplemented


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient sequences, one dot product per
    output coefficient."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        return [a[0] * y for y in b] if a else []
    rb = b[::-1]
    la, lb = len(a), len(b)
    out = []
    for k in range(la + lb - 1):
        lo = k - lb + 1 if k >= lb else 0
        hi = k + 1 if k < la else la
        out.append(sum(map(mul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out


def _int_pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Integer q, r and e >= 0 with lead(b)^e * a = q*b + r, deg r < deg b.

    A step whose top coefficient lead(b) divides needs no scaling, so e
    counts only the steps that do.  r carries no trailing zero.
    """
    d = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * max(len(r) - d, 0)
    e = 0
    for k in range(len(r) - 1 - d, -1, -1):
        top = r.pop()
        if not top:
            continue
        c, rem = divmod(top, lead)
        if rem:
            r = [x * lead for x in r]
            q = [x * lead for x in q]
            e += 1
            c = top
        q[k] = c
        r[k:] = [x - c * y for x, y in zip(r[k:], b)]
    while r and not r[-1]:
        r.pop()
    return q, r, e


def _int_content_free(ints: list[int]) -> list[int]:
    """Divide integer coefficients by their (positive) content."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _int_primitive(p: Poly) -> list[int]:
    """Coprime integer coefficients of a positive rational multiple of p."""
    return _int_content_free(list(p.nums))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, computed by a primitive integer
    pseudo-remainder sequence on the numerators."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree() == 0 or b.degree() == 0:
        return Poly.one()
    x = _int_primitive(a)
    y = _int_primitive(b)
    while y:
        x, y = y, _int_content_free(_int_pseudo_divmod(x, y)[1])
    return Poly._of(x, x[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


@lru_cache(maxsize=None)
def hermite_he(n: int) -> Poly:
    """Probabilists' Hermite polynomial He_n.

    Three-term recurrence He_{n+1} = x*He_n - n*He_{n-1} with He_0 = 1,
    He_1 = x.  These are orthogonal against exp(-x^2/2), which matches the
    x^2/4 - 1/2 oscillator used throughout this package.
    """
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    if n == 0:
        return Poly.one()
    if n == 1:
        return Poly.x()
    prev, cur = Poly.one(), Poly.x()
    for k in range(1, n):
        prev, cur = cur, Poly.x() * cur - k * prev
    return cur


# ---------------------------------------------------------------------------
# Sturm sequences and real-root counting
# ---------------------------------------------------------------------------

def _sturm_chain(p: Poly) -> list[list[int]]:
    # Square-free reduction first so the classical sign-variation count
    # applies verbatim.  Every member is a positive multiple of the classical
    # Sturm polynomial, held as coprime integer coefficients: a remainder
    # scaled by lead^e with lead < 0 and e odd has its sign restored.
    g = poly_gcd(p, p.derivative())
    if g.degree() > 0:
        p = p.exact_div(g)
    chain = [_int_primitive(p)]
    chain.append(_int_content_free([i * c for i, c in enumerate(chain[0]) if i]))
    # p is square-free, so the sequence ends at a nonzero constant.
    while len(chain[-1]) > 1:
        _, rem, e = _int_pseudo_divmod(chain[-2], chain[-1])
        sign = -1 if chain[-1][-1] > 0 or e % 2 == 0 else 1
        chain.append(_int_content_free([sign * c for c in rem]))
    return chain


def _variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _sign_at(q: list[int], x: Fraction) -> int:
    # Sign of den(x)^deg(q) * q(x), a homogeneous integer Horner sum.
    num, den = x.numerator, x.denominator
    acc, den_pow = 0, 1
    for c in reversed(q):
        acc = acc * num + c * den_pow
        den_pow *= den
    return (acc > 0) - (acc < 0)


def _sign_at_inf(q: list[int], positive: bool) -> int:
    s = 1 if q[-1] > 0 else -1
    if not positive and len(q) % 2 == 0:  # odd degree
        s = -s
    return s


def sturm_real_root_count(
    p: Poly,
    lo: Scalar | None = None,
    hi: Scalar | None = None,
) -> int:
    """Count distinct real roots of ``p``, exactly.

    With no bounds the count is over the whole real line.  With bounds the
    count is over the closed interval [lo, hi].  Multiple roots are counted
    once (the chain is built from the square-free part).
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial is undefined")
    if p.degree() == 0:
        return 0
    chain = _sturm_chain(p)
    if lo is None and hi is None:
        v_lo = _variations(_sign_at_inf(q, positive=False) for q in chain)
        v_hi = _variations(_sign_at_inf(q, positive=True) for q in chain)
        return v_lo - v_hi
    if lo is None or hi is None:
        raise ValueError("interval count needs both endpoints")
    a, b = Fraction(lo), Fraction(hi)
    if a > b:
        raise ValueError("empty interval")
    v_a = _variations(_sign_at(q, a) for q in chain)
    v_b = _variations(_sign_at(q, b) for q in chain)
    # V(a) - V(b) counts roots in (a, b]; the left endpoint is patched in.
    count = v_a - v_b
    if _sign_at(chain[0], a) == 0:
        count += 1
    return count


# ---------------------------------------------------------------------------
# Reduced rational functions
# ---------------------------------------------------------------------------

class RatFun:
    """Rational function in canonical form: reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = Poly.one() if den is None else _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.lead()
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
        self.num: Poly = num
        self.den: Poly = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFun":
        """Skip canonicalisation; caller guarantees reduced, monic den."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFun":
        return cls(Poly.one())

    @classmethod
    def x(cls) -> "RatFun":
        return cls(Poly.x())

    @classmethod
    def constant(cls, c: Scalar) -> "RatFun":
        return cls(Poly.constant(c))

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return self.num[0]

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # Knuth-style rational addition: cancel the denominator gcd first so
        # the remaining reduction is against a small polynomial only.
        g = poly_gcd(self.den, other.den)
        if g.degree() == 0:
            return RatFun._raw(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        left = self.den.exact_div(g)
        right = other.den.exact_div(g)
        num = self.num * right + other.num * left
        if num.is_zero:
            return RatFun._raw(Poly.zero(), Poly.one())
        g2 = poly_gcd(num, g)
        if g2.degree() > 0:
            num = num.exact_div(g2)
            g = g.exact_div(g2)
        return RatFun._raw(num, left * right * g)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun._raw(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFun":
        return _as_ratfun(other) - self

    @staticmethod
    def _mul_reduced(a_num: Poly, a_den: Poly, b_num: Poly, b_den: Poly) -> "RatFun":
        # Cross-cancellation keeps both gcd calls on already-reduced pairs,
        # after which the product is reduced by construction.
        if a_num.is_zero or b_num.is_zero:
            return RatFun._raw(Poly.zero(), Poly.one())
        g1 = poly_gcd(a_num, b_den)
        if g1.degree() > 0:
            a_num = a_num.exact_div(g1)
            b_den = b_den.exact_div(g1)
        g2 = poly_gcd(b_num, a_den)
        if g2.degree() > 0:
            b_num = b_num.exact_div(g2)
            a_den = a_den.exact_div(g2)
        num = a_num * b_num
        den = a_den * b_den
        lc = den.lead()
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        return RatFun._raw(num, den)

    def __mul__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun._mul_reduced(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun._mul_reduced(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return _as_ratfun(other) / self

    def derivative(self) -> "RatFun":
        if self.den.degree() == 0:
            return RatFun._raw(self.num.derivative(), self.den)
        # Cancel the repeated part of the denominator before reducing.
        den_prime = self.den.derivative()
        g = poly_gcd(self.den, den_prime)
        den_red = self.den.exact_div(g)
        num = self.num.derivative() * den_red - self.num * den_prime.exact_div(g)
        return RatFun(num, self.den * den_red)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    # -- comparison / display --------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFun", self.num, self.den))

    def __repr__(self) -> str:
        if self.den == Poly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _coerce_poly(value) -> Poly:
    p = _as_poly(value)
    if p is NotImplemented:
        raise TypeError(f"cannot build a polynomial from {type(value).__name__}")
    return p


def _as_ratfun(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return RatFun(value)
    return NotImplemented


def as_ratfun(value) -> RatFun:
    r = _as_ratfun(value)
    if r is NotImplemented:
        raise TypeError(f"cannot build a rational function from {type(value).__name__}")
    return r


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------

def poly_det_bareiss(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix, fraction-free (Bareiss).

    Every division performed by the algorithm is exact, which bounds entry
    growth compared to plain elimination over the rational-function field.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    for row in m:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Poly.one()
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det_cofactor(rows: Sequence[Sequence[RatFun]]) -> RatFun:
    """Cofactor-expansion determinant over the rational-function field.

    Exponential cost; kept as the independent cross-check path for the
    fraction-free route and as the direct route for tiny matrices.
    """
    n = len(rows)
    if n == 0:
        return RatFun.one()
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = RatFun.zero()
    rest = rows[1:]
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rest]
        term = entry * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ratfun_det(rows: Sequence[Sequence[RatFun]]) -> RatFun:
    """Exact determinant of a square RatFun matrix.

    Rows are cleared to polynomials (tracking the scaling) and the core
    determinant runs fraction-free; 1x1 and 2x2 cases go direct.
    """
    n = len(rows)
    if n <= 2:
        return det_cofactor(rows)
    poly_rows: list[list[Poly]] = []
    scale = Poly.one()
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
        common = Poly.one()
        for entry in row:
            common = poly_lcm(common, entry.den)
        poly_rows.append([entry.num * common.exact_div(entry.den) for entry in row])
        scale = scale * common
    return RatFun(poly_det_bareiss(poly_rows), scale)


# ---------------------------------------------------------------------------
# Symbolic norm constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormValue:
    """Exact squared-norm constant q * (2*pi)^(m/2) with q a positive rational.

    Irrational pieces never enter the symbolic layer; square roots are taken
    only when a float is finally requested.
    """

    q: Fraction
    m: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("squared norm must be positive")

    def to_float(self) -> float:
        return float(self.q) * (2.0 * math.pi) ** (self.m / 2.0)
