"""Gaussian-weighted rational functions and differential operators.

``GaussFun`` is r(x)*exp(s*x^2/4) with r a reduced rational function and s a
rational weight; the class is closed under differentiation, products and
quotients, which is exactly what Wronskians of oscillator eigenfunctions
need.  ``DiffOp`` is sum_j a_j(x) d^j/dx^j with rational-function
coefficients.  Everything is exact and immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomial import (
    Poly,
    RatFun,
    Scalar,
    _frac,
    as_ratfun,
    ratfun_det,
)


class MixedWeightError(ValueError):
    """Raised when an operation needs a common Gaussian weight and gets two."""


class GaussFun:
    """r(x) * exp(s * x^2 / 4), r a canonical RatFun, s rational."""

    __slots__ = ("r", "s")

    def __init__(self, r, s: Scalar = 0):
        r = as_ratfun(r)
        s = _frac(s)
        if r.is_zero:  # canonical zero so equality stays structural
            s = Fraction(0)
        self.r: RatFun = r
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
        # (r e^{s x^2/4})' = (r' + s x r / 2) e^{s x^2/4}
        return GaussFun(self.r.derivative() + RatFun.x() * self.r * Fraction(self.s, 2), self.s)

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
        if isinstance(other, (RatFun, Poly, int, Fraction)):
            return GaussFun(self.r * as_ratfun(other), self.s)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussFun":
        if isinstance(other, GaussFun):
            return GaussFun(self.r / other.r, self.s - other.s)
        if isinstance(other, (RatFun, Poly, int, Fraction)):
            return GaussFun(self.r / as_ratfun(other), self.s)
        return NotImplemented

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

def _binomial(n: int, k: int) -> int:
    return math.comb(n, k)


class DiffOp:
    """Differential operator sum_j a_j(x) d^j with RatFun coefficients.

    Coefficients are stored lowest order first; the zero operator is the
    empty tuple, otherwise the top coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_ratfun(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[RatFun, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((RatFun.one(),))

    @classmethod
    def schroedinger(cls, potential) -> "DiffOp":
        """-d^2 + V(x)."""
        return cls((as_ratfun(potential), RatFun.zero(), RatFun.constant(-1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> RatFun:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else RatFun.zero()

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
        """Operator composition self o other, expanded by the Leibniz rule."""
        if self.is_zero or other.is_zero:
            return DiffOp.zero()
        out: list[RatFun] = [RatFun.zero()] * (self.order() + other.order() + 1)
        for j, b in enumerate(other.coeffs):
            if b.is_zero:
                continue
            # Derivatives of b drive d^i o (b d^j).
            b_derivs = [b]
            for _ in range(self.order()):
                b_derivs.append(b_derivs[-1].derivative())
            for i, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                for t in range(i + 1):
                    out[i - t + j] = out[i - t + j] + a * (_binomial(i, t) * b_derivs[t])
        return DiffOp(out)

    def adjoint(self) -> "DiffOp":
        """Formal (Laplace) adjoint sum_j (-1)^j d^j o a_j, expanded."""
        if self.is_zero:
            return self
        out: list[RatFun] = [RatFun.zero()] * (self.order() + 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            a_derivs = [a]
            for _ in range(j):
                a_derivs.append(a_derivs[-1].derivative())
            sign = 1 if j % 2 == 0 else -1
            for t in range(j + 1):
                out[j - t] = out[j - t] + sign * _binomial(j, t) * a_derivs[t]
        return DiffOp(out)

    def __add__(self, other) -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(self.coeff(j) + other.coeff(j) for j in range(n))

    def __neg__(self) -> "DiffOp":
        return DiffOp(-c for c in self.coeffs)

    def __sub__(self, other) -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction, Poly, RatFun)):
            scalar = as_ratfun(other)
            return DiffOp(c * scalar for c in self.coeffs)
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


# ---------------------------------------------------------------------------
# Wronskians
# ---------------------------------------------------------------------------

def derivative_table(funcs: Sequence[GaussFun], max_order: int) -> list[list[RatFun]]:
    """Rational parts of derivative rows for a common-weight family.

    ``table[m][i]`` is the RatFun part of the m-th derivative of funcs[i];
    the shared exp(s x^2/4) factor is kept out of the matrix so determinants
    stay in the rational-function field.
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
    runs fraction-free for n >= 3 and by direct cofactor expansion below
    that.
    """
    n = len(funcs)
    if n == 0:
        raise ValueError("Wronskian of an empty family")
    weight = common_weight(funcs)
    rows = derivative_table(funcs, n - 1)  # row m: the m-th derivatives
    return GaussFun(ratfun_det(rows), n * weight)
