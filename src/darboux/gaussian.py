"""Gaussian-weighted rational functions and differential operators.

``GaussFun`` is r(x)*exp(s*x^2/4) with s a rational weight and r an exact
rational function, a ``WFun`` p/W^k in normal form over the powers of one W:
W = 1 for a polynomial (the model's eigenfunctions, the Wronskians of its
families), a transform's Wronskian, or a closed form's P_k.  The class is
closed under differentiation and products, which is exactly what
Wronskians of oscillator eigenfunctions need.  ``DiffOp`` is
sum_j a_j(x) d^j/dx^j with WFun coefficients; its composition and adjoint
both rest on the one commutation rule d o a = a d + a' (``_d_left``).  No
step takes a gcd: a WFun only divides out factors W, and a polynomial
meeting a value over another W is lifted to it.  Applying an operator and
each coefficient of a composition are sums of products; their numerators
are summed over one power of W and reduced once (``_sum_of_products``).
The normal form of a value is unique, so that is bit for bit the WFun a
reduction after every product and every partial sum would give.
Everything is exact and immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .polynomial import POLYNOMIALS, Poly, Scalar, WBase, WFun, _frac, _pole_base, ratfun_det


class MixedWeightError(ValueError):
    """Raised when an operation needs a common Gaussian weight and gets two."""


class DegenerateTransformation(ValueError):
    """The transformation functions are linearly dependent (zero Wronskian)."""


def _coefficient(value) -> WFun:
    """A WFun as it is, a polynomial or a scalar over ``POLYNOMIALS``."""
    return value if isinstance(value, WFun) else POLYNOMIALS.lift(value)


class GaussFun:
    """r(x) * exp(s * x^2 / 4), r a normal WFun, s rational."""

    __slots__ = ("r", "s")

    def __init__(self, r, s: Scalar = 0):
        r = _coefficient(r)
        s = _frac(s)
        if r.is_zero:  # canonical zero so equality stays structural
            s = Fraction(0)
        self.r: WFun = r
        self.s: Fraction = s

    @classmethod
    def zero(cls) -> "GaussFun":
        return cls(0)

    @classmethod
    def one(cls) -> "GaussFun":
        return cls(1)

    @property
    def is_zero(self) -> bool:
        return self.r.is_zero

    def derivative(self) -> "GaussFun":
        return GaussFun(self.r.derivative(self.s), self.s)

    def derivatives(self, order: int) -> list["GaussFun"]:
        """[f, f', ..., f^(order)]."""
        out = [self]
        for _ in range(order):
            out.append(out[-1].derivative())
        return out

    def __add__(self, other) -> "GaussFun":
        if not isinstance(other, GaussFun):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.s != other.s:
            raise MixedWeightError("cannot add Gaussian functions with different weights")
        return GaussFun(self.r + other.r, self.s)

    def __neg__(self) -> "GaussFun":
        return GaussFun(-self.r, self.s)

    def __sub__(self, other) -> "GaussFun":
        if not isinstance(other, GaussFun):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "GaussFun":
        if isinstance(other, GaussFun):
            return GaussFun(self.r * other.r, self.s + other.s)
        if isinstance(other, (WFun, Poly, int, Fraction)):
            return GaussFun(self.r * other, self.s)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussFun):
            return NotImplemented
        return self.s == other.s and self.r == other.r

    def __hash__(self) -> int:
        return hash(("GaussFun", self.r, self.s))

    def __repr__(self) -> str:
        if self.s == 0:
            return repr(self.r)
        return f"({self.r!r})*exp({self.s}*x^2/4)"


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------

class DiffOp:
    """Differential operator sum_j a_j(x) d^j with WFun coefficients.

    Coefficients are stored lowest order first; the zero operator is the
    empty tuple, otherwise the top coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[WFun, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((1,))

    @classmethod
    def schroedinger(cls, potential) -> "DiffOp":
        """-d^2 + V(x), its coefficients over V's base."""
        v = _coefficient(potential)
        return cls((v, v * 0, v * 0 - 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, f: GaussFun) -> GaussFun:
        """Apply the operator to a Gaussian-weighted function, exactly: the
        rational part sum_j a_j r_j of the result, r_j that of f^(j), is
        one ``_sum_of_products`` over the base with a pole among the a_j
        and f, so it takes one normal-form reduction, not one per term."""
        if self.is_zero or f.is_zero:
            return GaussFun.zero()
        derivs = f.derivatives(self.order())
        base = _pole_base((*self.coeffs, f.r))
        r = _sum_of_products(zip(self.coeffs, (g.r for g in derivs)), base)
        return GaussFun(r, f.s)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self o other = sum_i a_i (d^i o other).  The ladder d^i o other
        takes one ``_d_left`` step per i, also past a zero a_i.  Output
        coefficient j, sum_i a_i c_ij over the ladders' c_ij, is one
        ``_sum_of_products``, as in ``__call__``."""
        if self.is_zero or other.is_zero:
            return DiffOp.zero()
        base = _pole_base((*self.coeffs, *other.coeffs))
        columns: list[list[tuple[WFun, WFun]]] = [[] for _ in range(len(self.coeffs) + other.order())]
        ladder = list(other.coeffs)
        for i, a in enumerate(self.coeffs):
            if i:
                ladder = _d_left(ladder)
            for column, c in zip(columns, ladder):
                column.append((a, c))
        return DiffOp(_sum_of_products(column, base) for column in columns)

    def adjoint(self) -> "DiffOp":
        """Formal (Laplace) adjoint sum_j (-d)^j o a_j by Horner's rule:
        C = a_N, then C = a_j - d o C for j = N-1, ..., 0."""
        if self.is_zero:
            return self
        c = [self.coeffs[-1]]
        for a in reversed(self.coeffs[:-1]):
            c = [-t for t in _d_left(c)]
            c[0] = a + c[0]
        return DiffOp(c)

    def __add__(self, other) -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return DiffOp([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "DiffOp":
        return DiffOp(-c for c in self.coeffs)

    def __sub__(self, other) -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction, Poly, WFun)):
            return DiffOp(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("DiffOp", self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            dd = "" if j == 0 else ("d" if j == 1 else f"d^{j}")
            parts.append(f"({a!r}){'*' + dd if dd else ''}")
        return " + ".join(parts)


def _sum_of_products(pairs: Iterable[tuple[WFun, WFun]], base: WBase) -> WFun:
    """sum a * c over the pairs, over ``base``, with one normal-form
    reduction.  Each product p_a p_c / W^(k_a + k_c) is raised to the
    largest exponent K by W^(K - k_a - k_c), the numerators are summed, and
    ``WBase.over`` divides the factors W out of that sum once.  The normal
    form of a value is unique, so the result is the WFun that the sum of
    the reduced products gives, term by term."""
    terms = [(base.lift(a), base.lift(c)) for a, c in pairs if not (a.is_zero or c.is_zero)]
    if not terms:
        return base.lift(0)
    top = max(a.k + c.k for a, c in terms)
    products = [a.p * c.p * base.power(top - a.k - c.k) for a, c in terms]
    num = sum(products[1:], products[0])
    return base.over(num, top)


def _d_left(coeffs: Sequence[WFun]) -> list[WFun]:
    """d o C for C = sum_j c_j d^j (nonempty), by the one commutation rule
    d o c = c d + c': the coefficients of c_j' d^j + c_j d^(j+1)."""
    shifted = [coeffs[0] * 0, *coeffs]
    return [s + c.derivative() for s, c in zip(shifted, coeffs)] + [coeffs[-1]]


# ---------------------------------------------------------------------------
# Wronskians
# ---------------------------------------------------------------------------

def derivative_table(funcs: Sequence[GaussFun], max_order: int) -> list[list[WFun]]:
    """Rational parts of derivative rows for a common-weight family: the
    oracle route, read by ``wronskian`` and the tests.

    ``table[m][i]`` is the rational part of the m-th derivative of funcs[i];
    the shared exp(s x^2/4) factor is kept out of the matrix so determinants
    stay in the rational-function field.  Commands build the family's rows
    as polynomials instead (``transform``).
    """
    common_weight(funcs)  # a mixed-weight family raises MixedWeightError
    columns = [f.derivatives(max_order) for f in funcs]
    return [[col[m].r for col in columns] for m in range(max_order + 1)]


def common_weight(funcs: Sequence[GaussFun]) -> Fraction:
    weights = {f.s for f in funcs if not f.is_zero}
    if len(weights) > 1:
        raise MixedWeightError(f"functions carry different Gaussian weights: {sorted(weights)}")
    return weights.pop() if weights else Fraction(0)


def wronskian(funcs: Sequence[GaussFun]) -> GaussFun:
    """Wronskian determinant of a common-weight family, exactly.

    For n inputs of weight s the result carries weight n*s.  The determinant
    runs fraction-free (``ratfun_det``).
    """
    n = len(funcs)
    if n == 0:
        raise ValueError("Wronskian of an empty family")
    weight = common_weight(funcs)
    rows = derivative_table(funcs, n - 1)  # row m: the m-th derivatives
    return GaussFun(ratfun_det(rows), n * weight)


class BorderedWronskian:
    """W(u_1, ..., u_N, phi) for a fixed family and any phi of its weight.

    Jacobi's Wronskian identity (Sylvester's determinant identity on the
    Wronskian matrix), W(W(F, g), W(F, h)) = W(F) W(F, g, h), turns the
    bordered determinant of Crum's formula (Crum 1955) into a chain of
    two-by-two Wronskians.  With P_k = W(u_1, ..., u_k), P_0 = 1, and
    B_k = W(u_1, ..., u_k, phi), B_0 = phi,

        B_k = (P_k B_{k-1}' - P_k' B_{k-1}) / P_{k-1},

    an exact division (``_jacobi_step``).  A Wronskian of k functions with
    a common factor exp(s x^2/4) is that factor's k-th power times the
    Wronskian of their rational parts, so P_k and B_{k-1} carry one weight
    and its terms cancel: the chain runs on rational parts with plain
    derivatives.  The sub-Wronskians P_k come from the same step with
    u_i, i > k, in place of phi: N(N-1)/2 steps, once per family.  Each phi
    then takes N steps.  The last sub-Wronskian P_N is W itself.  The
    rational parts of the family and of phi must be polynomials, as every
    oscillator eigenfunction's is.
    """

    __slots__ = ("weight", "wronskian", "_chain")

    def __init__(self, family: Sequence[GaussFun]):
        n = len(family)
        if n == 0:
            raise ValueError("Wronskian of an empty family")
        self.weight = common_weight(family)
        if any(u.r.k for u in family):
            raise ValueError("the family's rational parts must be polynomials")
        # After k steps, rest[i] is W(u_1, ..., u_k, u_{k+1+i})'s rational part.
        rest = [u.r.p for u in family]
        chain = []
        prev = Poly.one()
        for _ in range(n):
            p, *rest = rest
            if p.is_zero:
                raise DegenerateTransformation("transformation functions are linearly dependent")
            link = (p, p.derivative(), prev)
            rest = [_jacobi_step(link, q) for q in rest]
            chain.append(link)
            prev = p
        self.wronskian = GaussFun(prev, n * self.weight)
        # (P_k, P_k', P_{k-1}) for k = 1, ..., N.
        self._chain = tuple(chain)

    def __call__(self, phi: GaussFun) -> GaussFun:
        """W(u_1, ..., u_N, phi), equal to ``wronskian(family + [phi])``."""
        if phi.is_zero:
            return GaussFun.zero()
        if phi.s != self.weight:
            raise MixedWeightError(
                f"functions carry different Gaussian weights: {sorted({self.weight, phi.s})}"
            )
        if phi.r.k:
            raise ValueError(f"phi's rational part is not a polynomial: {phi!r}")
        b = phi.r.p
        for link in self._chain:
            b = _jacobi_step(link, b)
        return GaussFun(b, (len(self._chain) + 1) * self.weight)


def _jacobi_step(link: tuple[Poly, Poly, Poly], q: Poly) -> Poly:
    """(P_k Q' - P_k' Q) / P_(k-1), exactly, for link = (P_k, P_k', P_(k-1))."""
    p, dp, prev = link
    return (p * q.derivative() - dp * q).exact_div(prev)
