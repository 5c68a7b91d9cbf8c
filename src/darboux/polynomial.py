"""Exact univariate polynomial and rational-function arithmetic.

A ``Poly`` holds integer numerators over one positive common denominator, so
every ring operation (sums, products, derivatives, division) runs in ``int``
arithmetic and ends in a single reduction; ``Poly.coeffs`` presents the
same values as ``fractions.Fraction`` coefficients.  Products, sums and
derivatives run their inner loops as ``map`` calls over whole rows, at C
level.  Everything in this module is exact and deterministic.  A Poly is
canonical: its denominator is positive and coprime to the content of its
numerators, with no trailing zero coefficient.  Structural equality therefore coincides with value
equality, which is what lets the operator identity checks elsewhere reduce
to ``==``.

One type does all rational arithmetic.  A ``WFun`` is a value of
Q[x][1/W], p / W^k over one ``WBase`` (a transform's Wronskian W, a closed
form's P_k, or W = 1 for the polynomials, ``POLYNOMIALS``), held in a
normal form rather than the canonical one: k is the smallest exponent, so W
does not divide p unless k = 0 (Geddes, Czapor and Labahn 1992, ch. 3: a
zero test needs only a normal form).  The normal form is unique, so
equality is still structural and zero is p = 0, but sums, products and
derivatives take no gcd: a factor W left in the numerator is divided out
after a cheap evaluation pretest and one pseudo-division.  A polynomial
that meets a value over another base is lifted to it.  The canonical form,
the pair (num, den) reduced by one gcd with a monic denominator, is formed
only where a value is read (``WFun.canonical``).

``poly_gcd`` works on the primitive integer numerators in one order: the
heuristic GCD (GCDHEU) first, one big-integer gcd of both inputs evaluated
at xi = 2^(8b), with xi above 2 min(|x|, |y|) + 1, read back as a
candidate that counts only once it divides both inputs exactly.  Inputs on
which six evaluation points fail take the primitive pseudo-remainder
sequence.

``cramer_numerators``, the one linear solver, works at such a point too:
every entry of an N x (N+1) system is evaluated once at a xi above twice a
bound on the coefficients of all its minors, Bareiss's fraction-free
elimination runs on those integers, and the determinant and the Cramer
numerators are read back as symmetric base-xi digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, zip_longest
from operator import add, mul
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
            a, b = self.nums, other.nums
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            out[:len(b)] = map(add, a, b)
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
        if isinstance(other, Poly):
            # The unit polynomial, such as W^0, returns the other factor as it is.
            if other.den == 1 and other.nums == (1,):
                return self
            if self.den == 1 and self.nums == (1,):
                return other
            return Poly._of(_int_mul(self.nums, other.nums), self.den * other.den)
        if isinstance(other, int):
            return Poly._of([c * other for c in self.nums], self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return Poly._of([c * n for c in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

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

    # -- calculus -------------------------------------------------------

    def derivative(self, weight: Scalar = 0) -> "Poly":
        """p' + (w/2) x p, that is d/dx[p exp(w x^2/4)] * exp(-w x^2/4); the
        plain derivative p' at the default w = 0.

        Integers throughout: with w = n/d in lowest terms, w/2 = a/b is n/2
        over d for an even n and n over 2d for an odd one, and the result's
        numerators b i p_i + a p_(i-1) go over b den.  The canonical form is
        unique, so it is the one that Fraction arithmetic would give."""
        nums = self.nums
        out = list(map(mul, range(1, len(nums)), nums[1:]))
        if not weight:
            return Poly._of(out, self.den)
        w = _frac(weight)
        n, d = w.numerator, w.denominator
        a, b = (n // 2, d) if n % 2 == 0 else (n, 2 * d)
        shifted = [0, *map(mul, repeat(a), nums)]
        shifted[:len(out)] = map(add, map(mul, repeat(b), out), shifted)
        return Poly._of(shifted, self.den * b)

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
        # A constant equals its Fraction (and an int), so it hashes as one.
        if len(self.nums) <= 1:
            return hash(self[0])
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
    """Product of integer coefficient sequences, row by row: a[0] * b, then
    one scaled copy a_i * b added at shift i for each later nonzero a_i,
    with a the shorter input.  Each row is one ``map`` over b, so the inner
    loop runs at C level and the Python loop runs once per row of a.  Every
    output coefficient is the same integer sum as a dot product gives."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    lb = len(b)
    out = [a[0] * y for y in b] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        x = a[i]
        if x:
            out[i:i + lb] = map(add, out[i:i + lb], map(mul, repeat(x), b))
    return out


def _int_pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Integer q, r and e >= 0 with lead(b)^e * a = q*b + r, deg r < deg b.

    A step whose top coefficient lead(b) divides needs no scaling, so e
    counts only the steps that do.  r carries no trailing zero.  Each step's
    update is one comprehension, not a ``map`` as in ``_int_mul``: its cost
    is the big-integer products of a remainder that grows by lead(b) at
    every scaled step, not the loop, so a ``map`` gains nothing here.
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


def _int_exact_div(num: int, den: int) -> int:
    """num / den, which must divide exactly: a remainder raises
    ``ArithmeticError``."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{den} does not divide {num}")
    return q


def _int_content_free(ints: list[int]) -> list[int]:
    """Divide integer coefficients by their (positive) content."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _int_primitive(p: Poly) -> list[int]:
    """Coprime integer coefficients of a positive rational multiple of p."""
    return _int_content_free(list(p.nums))


# Evaluation points the heuristic tries, one byte wider each, before the
# remainder sequence takes over.
_HEU_POINTS = 6


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    Both numerators are made primitive first.  Two non-constant inputs take
    the heuristic GCD (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput.
    7, 1989), ``_heu_gcd``: one integer gcd of the two inputs evaluated at
    xi = 2^(8b), read back as a candidate and proved by exact division.
    Only inputs on which all ``_HEU_POINTS`` evaluation points fail take the
    primitive pseudo-remainder sequence, ``_prs_gcd``.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree() == 0 or b.degree() == 0:
        return Poly.one()
    x = _int_primitive(a)
    y = _int_primitive(b)
    g = _heu_gcd(x, y)
    if g is None:
        g = _prs_gcd(x, y)
    return Poly._of(g, g[-1])


def _prs_gcd(x: list[int], y: list[int]) -> list[int]:
    """gcd of primitive x and y (up to sign) by the primitive
    pseudo-remainder sequence."""
    while y:
        x, y = y, _int_content_free(_int_pseudo_divmod(x, y)[1])
    return x


def _heu_gcd(x: list[int], y: list[int]) -> list[int] | None:
    """gcd of primitive x and y of degree >= 1, with a positive lead, or
    None if ``_HEU_POINTS`` evaluation points all fail.

    At xi = 2^(8b) > 2 min(|x|, |y|) + 1 (max norms), a primitive candidate
    that divides both inputs is their gcd (GCDHEU's theorem), so the exact
    division test makes each accepted candidate a proof.  The constant
    candidate 1 divides every input, so it is accepted without that test.
    """
    need = 2 * min(max(map(abs, x)), max(map(abs, y))) + 1
    width = (need.bit_length() + 7) // 8
    shorter = min(len(x), len(y))
    for nbytes in range(width, width + _HEU_POINTS):
        bits = 8 * nbytes
        h = _unpack_symmetric(math.gcd(_at_power_of_two(x, bits), _at_power_of_two(y, bits)), nbytes)
        if len(h) > shorter:
            continue
        h = _int_content_free(h if h[-1] > 0 else [-c for c in h])
        if len(h) == 1:
            return h
        if not _int_pseudo_divmod(x, h)[1] and not _int_pseudo_divmod(y, h)[1]:
            return h
    return None


def _at_power_of_two(cs: Sequence[int], bits: int) -> int:
    """Integer coefficients cs evaluated at 2^bits by Horner's rule on
    shifts, exactly for coefficients of any size."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << bits) + c
    return acc


def _unpack_symmetric(v: int, nbytes: int) -> list[int]:
    """Digits of v > 0 in base xi = 2^(8 nbytes), each in (-xi/2, xi/2],
    lowest first, by one carry pass over v's bytes."""
    xi = 1 << (8 * nbytes)
    half = xi >> 1
    raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
    digits = []
    carry = 0
    for i in range(0, len(raw), nbytes):
        d = int.from_bytes(raw[i:i + nbytes], "little") + carry
        carry = d > half
        digits.append(d - xi if carry else d)
    if carry:
        digits.append(1)
    return digits


def _unpack_poly(v: int, nbytes: int) -> Poly:
    """The integer polynomial whose symmetric base-2^(8 nbytes) digits
    give v, of any sign: the negation of -v's digits when v < 0."""
    if v > 0:
        return Poly._of(_unpack_symmetric(v, nbytes), 1)
    if v < 0:
        return Poly._of([-d for d in _unpack_symmetric(-v, nbytes)], 1)
    return Poly.zero()


def cramer_numerators(rows: Sequence[Sequence[Poly]]) -> tuple[Poly, list[Poly]]:
    """Fraction-free solve of the N x (N+1) augmented system
    sum_j a_ij x_j = c_i, row i = (a_i0, ..., a_i,N-1, c_i): the
    determinant det of (a_ij) and the Cramer numerators y_i = det * x_i,
    each a polynomial.

    Each row is first scaled to integer coefficients by the lcm of its
    denominators; that scales det and every y_i alike, so x_i = y_i / det
    is unchanged, and det and the y_i returned are the scaled system's.
    Every entry is then evaluated once at xi = 2^(8b) with xi > 2B,

        B = prod_i max(1, sum_j |a_ij|_1),  c_i counted as column N,

    and Bareiss's fraction-free elimination (Bareiss 1968) runs on those
    integers, followed by back substitution

        y_i = (det * c_i - sum_{j>i} U_ij y_j) / U_ii.

    Why one point suffices: each Leibniz term of a minor takes one entry
    per row and |f g|_1 <= |f|_1 |g|_1, so the coefficients of every minor
    over any subset of the rows, in particular det, every y_i and every
    entry the elimination forms (a (k+1)-minor after step k), are at most
    B < xi/2 in size.  Such a polynomial is its symmetric base-xi digits
    read off its value at xi, and it is the zero polynomial exactly when
    that value is 0.  Evaluation at xi is a ring homomorphism, so each
    exact division of polynomials is an exact division of integers.  The
    max(1, .) keeps an all-zero row from making B zero (and xi 1): minors
    on the other rows are bounded by their own rows.

    A zero pivot at xi is a zero leading minor; the elimination does not
    pivot, so it raises ``ZeroDivisionError``.  Every division is exact for
    any integer matrix (Sylvester's identity), so a remainder can only be a
    fault in the elimination itself; it raises ``ArithmeticError``, as
    ``Poly.exact_div`` does.
    """
    n = len(rows)
    scaled = []
    bound = 1
    for row in rows:
        if len(row) != n + 1:
            raise ValueError("an augmented system needs N rows of N + 1 entries")
        scale = math.lcm(*(p.den for p in row))
        ints = [[c * (scale // p.den) for c in p.nums] for p in row]
        bound *= max(1, sum(sum(map(abs, cs)) for cs in ints))
        scaled.append(ints)
    nbytes = ((2 * bound).bit_length() + 7) // 8
    m = [[_at_power_of_two(cs, 8 * nbytes) for cs in row] for row in scaled]
    prev = 1
    for k in range(n):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if not pivot:
            raise ZeroDivisionError(f"leading minor {k + 1} of the system is zero")
        for row in m[k + 1:]:
            c = row[k]
            for j in range(k + 1, n + 1):
                row[j] = _int_exact_div(pivot * row[j] - c * pivot_row[j], prev)
        prev = pivot
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = _int_exact_div(acc, row[i])
    return _unpack_poly(det, nbytes), [_unpack_poly(v, nbytes) for v in y]


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
    """The signed remainder sequence of p and p', up to its last nonzero
    member, each a positive multiple of the classical one held as coprime
    integer coefficients: a remainder scaled by lead^e with lead < 0 and e
    odd has its sign restored.

    No square-free step is taken: Sturm's theorem holds for this sequence
    whether or not p has multiple roots, so its sign variations at -inf
    less those at +inf, where no root lies, are the number of p's distinct
    real roots (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, 2nd ed., Thm 2.50).  The last member is a constant multiple of
    gcd(p, p').
    """
    chain = [_int_primitive(p), _int_primitive(p.derivative())]
    while True:
        _, rem, e = _int_pseudo_divmod(chain[-2], chain[-1])
        if not rem:
            return chain
        sign = -1 if chain[-1][-1] > 0 or e % 2 == 0 else 1
        chain.append(_int_content_free([sign * c for c in rem]))


def _variations(signs: Sequence[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at_inf(q: list[int], positive: bool) -> int:
    s = 1 if q[-1] > 0 else -1
    if not positive and len(q) % 2 == 0:  # odd degree
        s = -s
    return s


def sturm_real_root_count(p: Poly) -> int:
    """The number of distinct real roots of ``p`` on the whole line,
    exactly: the sign variations of ``_sturm_chain(p)`` at -inf less those
    at +inf.  A multiple root is counted once."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial is undefined")
    if p.degree() == 0:
        return 0
    chain = _sturm_chain(p)
    v_lo = _variations([_sign_at_inf(q, positive=False) for q in chain])
    v_hi = _variations([_sign_at_inf(q, positive=True) for q in chain])
    return v_lo - v_hi


# ---------------------------------------------------------------------------
# Values over the powers of one Wronskian: Q[x][1/W]
# ---------------------------------------------------------------------------

class WBase:
    """The powers of one polynomial W, over which ``WFun`` values live.

    Holds W monic, its primitive integer form w (positive lead) and W', a
    cache of the powers W^j, and one evaluation point xi = 2^(8b), the
    least such power above max|w_i|.  Every root of w lies below
    1 + max|w_i| <= xi in absolute value (Cauchy's bound; w's lead is an
    integer), so w(xi) > 0, stored as ``w_at_xi``: ``over``'s pretest needs
    no more.  W's real roots are counted once, on first use: every value
    over the base has its poles among them.
    """

    __slots__ = ("W", "w", "dW", "xi_bits", "w_at_xi", "_powers", "_real_roots")

    def __init__(self, W: Poly):
        if W.is_zero:
            raise ValueError("a base needs a nonzero W, got W = 0")
        self.W = W.monic()
        self.w = _int_primitive(self.W)
        self.dW = self.W.derivative()
        self.xi_bits = 8 * ((max(map(abs, self.w)).bit_length() + 7) // 8)
        self.w_at_xi = _at_power_of_two(self.w, self.xi_bits)
        self._powers = [Poly.one(), self.W]
        self._real_roots = None

    def power(self, j: int) -> Poly:
        """W^j, from the cache."""
        powers = self._powers
        while len(powers) <= j:
            powers.append(powers[-1] * self.W)
        return powers[j]

    def real_root_count(self) -> int:
        """Distinct real roots of W on the whole line (Sturm), counted once."""
        if self._real_roots is None:
            self._real_roots = sturm_real_root_count(self.W)
        return self._real_roots

    def over(self, p: Poly, k: int) -> "WFun":
        """p / W^k in normal form: one factor W is divided out while it
        divides the numerator.

        A trial first evaluates p's integer numerators at xi: when w(xi)
        does not divide that value, w does not divide them (by Gauss's lemma
        the quotient of primitive w would be integral), so W does not divide
        p.  Otherwise one pseudo-division by w decides.
        """
        w = self.w
        while k and p.nums:
            if _at_power_of_two(p.nums, self.xi_bits) % self.w_at_xi:
                break
            q, r, e = _int_pseudo_divmod(p.nums, w)
            if r:
                break
            # lead^e nums = q w and W = w / lead, so p / W = q lead / (lead^e den).
            p = Poly._of([c * w[-1] for c in q], p.den * w[-1] ** e)
            k -= 1
        return WFun._of(self, p, k if p.nums else 0)

    def lift(self, value) -> "WFun":
        """``value`` over this base: a WFun over it as it is, and a
        polynomial over W^0, whether a Poly, a scalar or a WFun with k = 0
        over any base.  This is the one place a value changes base.  A value
        with a pole is built over its base (``over``), never lifted to
        another."""
        if isinstance(value, WFun):
            if value.base is self:
                return value
            if value.k:
                raise ValueError(f"values over different Wronskians: {value!r} is not a polynomial")
            value = value.p
        p = _as_poly(value)
        if p is NotImplemented:
            raise TypeError(f"cannot build a polynomial from {type(value).__name__}")
        return WFun._of(self, p, 0)


class WFun:
    """A value p / W^k over one ``WBase``, in normal form: p a ``Poly`` and
    k >= 0 the smallest exponent, so k = 0 or W does not divide p.

    The normal form of a value is unique: p / W^k = q / W^j with j > k
    would make q = p W^(j - k) a multiple of W.  So equality over one base
    is structural, zero is p = 0, a value is a polynomial exactly when
    k = 0, and sums, products and derivatives need no gcd: only an
    equal-exponent sum, a product of two non-scalars and a derivative can
    leave a factor W in the numerator, and ``WBase.over`` divides it out.
    Polynomials live over ``POLYNOMIALS``, W = 1, and meet any other base
    by ``WBase.lift``.  A value is read (``num``, ``den``, ``repr``)
    through its canonical pair (``canonical``), built on the
    first read and cached: the only place a gcd is taken.
    """

    __slots__ = ("base", "p", "k", "_canonical")

    @classmethod
    def _of(cls, base: WBase, p: Poly, k: int) -> "WFun":
        """Skip the trial; caller guarantees the normal form."""
        obj = object.__new__(cls)
        obj.base = base
        obj.p = p
        obj.k = k
        obj._canonical = None
        return obj

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.p.is_zero

    @property
    def is_constant(self) -> bool:
        return self.k == 0 and self.p.degree() <= 0

    def canonical(self) -> tuple[Poly, Poly]:
        """The value as its canonical pair (num, den): p / W^k reduced by
        one gcd, taken on the first read and cached, so two pairs are equal
        exactly when the values are.  A constant side takes no gcd: zero
        and every polynomial have k = 0 and read (p, 1).  den is monic,
        since W^k and the gcd are."""
        if self._canonical is None:
            num, den = self.p, self.base.power(self.k)
            if num.degree() > 0 and den.degree() > 0:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, den = num.exact_div(g), den.exact_div(g)
            self._canonical = num, den
        return self._canonical

    @property
    def num(self) -> Poly:
        return self.canonical()[0]

    @property
    def den(self) -> Poly:
        return self.canonical()[1]

    # -- ring operations ----------------------------------------------------

    def _pair(self, other):
        """self and other over one base: a polynomial meets the other
        operand's base (``WBase.lift``)."""
        if isinstance(other, WFun) and other.k and not self.k:
            return other.base.lift(self), other
        if isinstance(other, (WFun, Poly, int, Fraction)):
            return self, self.base.lift(other)
        return NotImplemented

    def __add__(self, other) -> "WFun":
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.k > b.k:
            a, b = b, a
        if a.k == b.k:
            return a.base.over(a.p + b.p, a.k)
        # W divides a.p W^(b.k - a.k) and not b.p (b.k > 0), so not the sum.
        return WFun._of(a.base, a.p * a.base.power(b.k - a.k) + b.p, b.k)

    __radd__ = __add__

    def __neg__(self) -> "WFun":
        return WFun._of(self.base, -self.p, self.k)

    def __sub__(self, other) -> "WFun":
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other) -> "WFun":
        return (-self) + other

    def __mul__(self, other) -> "WFun":
        if isinstance(other, (int, Fraction)):
            p = self.p * other
            return WFun._of(self.base, p, self.k if p.nums else 0)
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        p = a.p * b.p
        k = a.k + b.k
        if not p.nums or a.is_constant or b.is_constant:
            # A scalar multiple keeps the other factor's normal form.
            return WFun._of(a.base, p, k if p.nums else 0)
        return a.base.over(p, k)

    __rmul__ = __mul__

    def derivative(self, weight: Scalar = 0) -> "WFun":
        """r' + (w/2) x r, that is d/dx[r exp(w x^2/4)] * exp(-w x^2/4): for
        r = p / W^k it is ((p' + (w/2) x p) W - k p W') / W^(k+1)."""
        p, k, base = self.p, self.k, self.base
        top = p.derivative(weight)
        if not k:
            return WFun._of(base, top, 0)
        return base.over(top * base.W - p * (k * base.dW), k + 1)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, WFun):
            if other.base is self.base or other.base.W == self.base.W or not (self.k and other.k):
                # One monic W, or a polynomial on one side: compare the
                # normal forms as they are.
                return self.k == other.k and self.p == other.p
            return self.canonical() == other.canonical()
        if isinstance(other, (Poly, int, Fraction)):
            return self.k == 0 and self.p == other
        return NotImplemented

    def __hash__(self) -> int:
        # A polynomial equals its Poly, so it hashes as one.
        return hash(self.canonical()) if self.k else hash(self.p)

    def __repr__(self) -> str:
        num, den = self.canonical()
        return repr(num) if den == Poly.one() else f"({num!r})/({den!r})"


# The powers of W = 1: the base of every value built as a polynomial, such as
# the model's eigenfunctions and potential.
POLYNOMIALS = WBase(Poly.one())


def _pole_base(values: Iterable[WFun]) -> WBase:
    """The base of the values with a pole, ``POLYNOMIALS`` when none has one:
    the base that ``WFun._pair`` puts a pair on, since a value with a pole
    is never lifted to another base."""
    return next((v.base for v in values if v.k), POLYNOMIALS)


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


def det_cofactor(rows: Sequence[Sequence[WFun]]) -> WFun:
    """Cofactor-expansion determinant of WFun entries.

    Exponential cost; kept as the independent cross-check path for the
    fraction-free route.
    """
    n = len(rows)
    if n == 0:
        return POLYNOMIALS.lift(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = POLYNOMIALS.lift(0)
    rest = rows[1:]
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rest]
        term = entry * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ratfun_det(rows: Sequence[Sequence[WFun]]) -> WFun:
    """Exact determinant of a square matrix of WFun entries, over the base
    of its entries with a pole (``POLYNOMIALS`` when it has none).

    Row i is cleared to polynomials by W^K_i, K_i its largest exponent, and
    the core determinant runs fraction-free: det = D / W^(K_1 + ... + K_n),
    D that of the cleared rows.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    base = _pole_base(e for row in rows for e in row)
    poly_rows = []
    exponent = 0
    for row in rows:
        row = [base.lift(e) for e in row]
        top = max(e.k for e in row)
        poly_rows.append([e.p * base.power(top - e.k) for e in row])
        exponent += top
    return base.over(poly_det_bareiss(poly_rows), exponent)


# ---------------------------------------------------------------------------
# Symbolic norm constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormValue:
    """Exact squared-norm constant q * sqrt(2*pi) with q a positive rational.

    Irrational pieces never enter the symbolic layer; the square root is
    taken only when a float is finally requested.
    """

    q: Fraction

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("squared norm must be positive")

    def to_float(self) -> float:
        return float(self.q) * (2.0 * math.pi) ** 0.5
