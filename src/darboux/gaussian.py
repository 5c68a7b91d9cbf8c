"""Gaussian-weighted rational functions and differential operators.

``GaussFun`` is r(x)*exp(s*x^2/4) with s a rational weight and r an exact
rational function: a canonical ``RatFun`` (the model's eigenfunctions, the
Wronskians of its families) or a ``WFun`` p/W^k in normal form over the
powers of one W (a transform's Wronskian, or a closed form's P_k).
The class is closed under differentiation and products, which is exactly
what Wronskians of oscillator eigenfunctions need.  ``DiffOp`` is
sum_j a_j(x) d^j/dx^j with coefficients of either type; its composition and
adjoint both rest on the one commutation rule d o a = a d + a'
(``_d_left``).  Both classes run one algorithm over either coefficient
type: a RatFun reduces by a gcd at every step, a WFun only divides out
factors W, and a polynomial meeting a WFun is lifted to it.  Everything is
exact and immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomial import Poly, RatFun, Scalar, WFun, _frac, ratfun_det


class MixedWeightError(ValueError):
    """Raised when an operation needs a common Gaussian weight and gets two."""


class DegenerateTransformation(ValueError):
    """The transformation functions are linearly dependent (zero Wronskian)."""


def _coefficient(value) -> RatFun | WFun:
    """A WFun as it is, any other exact value as a RatFun."""
    return value if isinstance(value, (RatFun, WFun)) else RatFun(value)


class GaussFun:
    """r(x) * exp(s * x^2 / 4), r a canonical RatFun or a normal WFun, s
    rational."""

    __slots__ = ("r", "s")

    def __init__(self, r, s: Scalar = 0):
        r = _coefficient(r)
        s = _frac(s)
        if r.is_zero:  # canonical zero so equality stays structural
            s = Fraction(0)
        self.r: RatFun | WFun = r
        self.s: Fraction = s

    @classmethod
    def zero(cls) -> "GaussFun":
        return cls(RatFun.zero())

    @classmethod
    def one(cls) -> "GaussFun":
        return cls(RatFun.one())

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
        if isinstance(other, (RatFun, WFun, Poly, int, Fraction)):
            return GaussFun(self.r * other, self.s)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x: float) -> float:
        return self.r(x) * math.exp(float(self.s) * x * x / 4.0)

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
    """Differential operator sum_j a_j(x) d^j with RatFun or WFun
    coefficients.

    Coefficients are stored lowest order first; the zero operator is the
    empty tuple, otherwise the top coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[RatFun | WFun, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((RatFun.one(),))

    @classmethod
    def schroedinger(cls, potential) -> "DiffOp":
        """-d^2 + V(x), its coefficients of V's type."""
        v = _coefficient(potential)
        return cls((v, v * 0, v * 0 - 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, f: GaussFun) -> GaussFun:
        """Apply the operator to a Gaussian-weighted function, exactly."""
        if self.is_zero:
            return GaussFun.zero()
        derivs = f.derivatives(self.order())
        out = GaussFun.zero()
        for a, fj in zip(self.coeffs, derivs):
            if not a.is_zero:
                out = out + fj * a
        return out

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self o other = sum_i a_i (d^i o other).  The ladder d^i o other
        takes one ``_d_left`` step per i, also past a zero a_i."""
        if self.is_zero or other.is_zero:
            return DiffOp.zero()
        out = [self.coeffs[-1] * 0] * (self.order() + other.order() + 1)
        ladder = list(other.coeffs)
        for i, a in enumerate(self.coeffs):
            if i:
                ladder = _d_left(ladder)
            for j, c in enumerate(ladder):
                out[j] = out[j] + a * c
        return DiffOp(out)

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
        if isinstance(other, (int, Fraction, Poly, RatFun, WFun)):
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


def _d_left(coeffs: Sequence[RatFun | WFun]) -> list[RatFun | WFun]:
    """d o C for C = sum_j c_j d^j (nonempty), by the one commutation rule
    d o c = c d + c': the coefficients of c_j' d^j + c_j d^(j+1)."""
    shifted = [coeffs[0] * 0, *coeffs]
    return [s + c.derivative() for s, c in zip(shifted, coeffs)] + [coeffs[-1]]


# ---------------------------------------------------------------------------
# Wronskians
# ---------------------------------------------------------------------------

def derivative_table(funcs: Sequence[GaussFun], max_order: int) -> list[list[RatFun]]:
    """Rational parts of derivative rows for a common-weight family, as
    RatFuns: the oracle route, read by ``wronskian`` and the tests.

    ``table[m][i]`` is the RatFun part of the m-th derivative of funcs[i];
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

    an exact division.  A Wronskian of k functions with a common factor
    exp(s x^2/4) is that factor's k-th power times the Wronskian of their
    rational parts, so P_k and B_{k-1} carry one weight and its terms
    cancel: the chain runs on rational parts with plain derivatives.  The
    sub-Wronskians P_k come from the same identity with u_i, i > k, in
    place of phi: N(N-1)/2 steps, once per family.  Each phi then takes N
    steps; for phi = b/r the step on b_k = B_k r^(k+1) is

        b_k = (P_k (b_{k-1}' r - k b_{k-1} r') - P_k' b_{k-1} r) / P_{k-1}.

    The last sub-Wronskian P_N is W itself.  The family's rational parts
    must be polynomials, as every oscillator eigenfunction's is.
    """

    __slots__ = ("weight", "wronskian", "_chain")

    def __init__(self, family: Sequence[GaussFun]):
        n = len(family)
        if n == 0:
            raise ValueError("Wronskian of an empty family")
        self.weight = common_weight(family)
        if any(u.r.den.degree() > 0 for u in family):
            raise ValueError("the family's rational parts must be polynomials")
        # After k steps, rest[i] is W(u_1, ..., u_k, u_{k+1+i})'s rational part.
        rest = [u.r.num for u in family]
        chain = []
        prev = Poly.one()
        for _ in range(n):
            p, *rest = rest
            if p.is_zero:
                raise DegenerateTransformation("transformation functions are linearly dependent")
            dp = p.derivative()
            rest = [(p * q.derivative() - dp * q).exact_div(prev) for q in rest]
            chain.append((p, dp, prev))
            prev = p
        self.wronskian = GaussFun(RatFun(prev), n * self.weight)
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
        b, r = phi.r.num, phi.r.den
        dr = r.derivative()
        for k, (p, dp, prev) in enumerate(self._chain, 1):
            b = (p * (b.derivative() * r - b * dr * k) - dp * b * r).exact_div(prev)
        n = len(self._chain)
        return GaussFun(RatFun(b, r ** (n + 1)), (n + 1) * self.weight)
