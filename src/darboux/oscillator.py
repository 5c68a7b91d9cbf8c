"""Harmonic oscillator base model and its closed-form double-transform partners.

The model is h0 = -d^2/dx^2 + x^2/4 - 1/2 with spectrum E_n = n and
eigenfunctions He_n(x) exp(-x^2/4) (probabilists' Hermite polynomials; that
convention is forced by the -1/2 offset).  Deleting the juxtaposed pair
{k, k+1} admits fully closed forms:

    P_k(x)  = sum_{i=0}^{k} (k!/i!) He_i(x)^2            (node-free, degree 2k)
    V2(x)   = x^2/4 + 3/2 - 2 P_k''/P_k + 2 (P_k'/P_k)^2
    psi_n   = c_n [ (n-k) He_n + g_kn He_{k+1} / P_k ] exp(-x^2/4)
    g_kn    = He_k He_{n+1} - He_n He_{k+1},  n not in {k, k+1}
    c_n     = [ sqrt(2 pi) n! (n-k)(n-k-1) ]^(-1/2)

These serve both as the transformation-function source and as independent
references the Wronskian engine must reproduce.  They are built in W-form
over the powers of their own P_k (``WBase``), never over a transform's W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .gaussian import GaussFun
from .polynomial import POLYNOMIALS, NormValue, Poly, WBase, WFun, hermite_he
from .transform import TransformResult


class ForbiddenLevel(ValueError):
    """Closed-form partner eigenfunction requested at a deleted level."""


_HALF_X_SQUARED = POLYNOMIALS.lift(Poly((Fraction(-1, 2), 0, Fraction(1, 4))))  # x^2/4 - 1/2


class OscillatorModel:
    """Solvable base model: potential x^2/4 - 1/2, spectrum E_n = n."""

    name = "oscillator"

    def __init__(self):
        self.potential: WFun = _HALF_X_SQUARED

    def energy(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("level index must be nonnegative")
        return Fraction(n)

    def eigenfunction(self, n: int) -> GaussFun:
        """Unnormalised eigenfunction He_n(x) exp(-x^2/4)."""
        return GaussFun(hermite_he(n), Fraction(-1))

    def squared_norm(self, n: int) -> NormValue:
        """Exact squared norm n! * sqrt(2 pi) of the unnormalised eigenfunction."""
        if n < 0:
            raise ValueError("level index must be nonnegative")
        return NormValue(Fraction(math.factorial(n)))


def pair_wronskian_poly(k: int) -> Poly:
    """Closed-form polynomial sum_{i<=k} (k!/i!) He_i^2 for the pair {k, k+1}.

    Monic of degree 2k (only i = k reaches x^(2k)), with no real roots; it
    is the polynomial part of the engine Wronskian up to a rational constant.
    """
    if k < 0:
        raise ValueError("pair index must be nonnegative")
    kfact = math.factorial(k)
    total = Poly.zero()
    for i in range(k + 1):
        he = hermite_he(i)
        total = total + Fraction(kfact, math.factorial(i)) * (he * he)
    return total


def partner_potential_closed_form(k: int) -> WFun:
    """x^2/4 + 3/2 - 2 P_k''/P_k + 2 (P_k'/P_k)^2 over the powers of P_k.

    Pole-free on the real line since P_k has no real roots.
    """
    return _potential_over(WBase(pair_wronskian_poly(k)))


def _potential_over(base: WBase) -> WFun:
    """[(x^2/4 + 3/2) P^2 - 2 P'' P + 2 P'^2] / P^2 for P = base.W."""
    quadratic = Poly((Fraction(3, 2), 0, Fraction(1, 4)))
    p, dp = base.W, base.dW
    return base.over(quadratic * base.power(2) - 2 * dp.derivative() * p + 2 * dp * dp, 2)


def cross_polynomial(k: int, n: int) -> Poly:
    """He_k He_{n+1} - He_n He_{k+1}."""
    return hermite_he(k) * hermite_he(n + 1) - hermite_he(n) * hermite_he(k + 1)


def partner_eigenfunction_closed_form(k: int, n: int) -> tuple[GaussFun, NormValue]:
    """Closed-form partner eigenfunction at level n after deleting {k, k+1}.

    Returns the unnormalised bracket
    [(n-k) He_n + g_kn He_{k+1} / P_k] exp(-x^2/4) together with its exact
    squared norm n! (n-k)(n-k-1) sqrt(2 pi); dividing by the float square
    root of the latter yields the unit-norm wave function.  The product
    (n-k)(n-k-1) is positive on both sides of the deleted pair.
    """
    return _eigenfunction_over(WBase(pair_wronskian_poly(k)), k, n)


def _eigenfunction_over(base: WBase, k: int, n: int) -> tuple[GaussFun, NormValue]:
    """The bracket [(n-k) He_n P_k + g_kn He_{k+1}] / P_k for P_k = base.W."""
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if n in (k, k + 1):
        raise ForbiddenLevel(f"level {n} is deleted by the pair ({k}, {k + 1})")
    top = (n - k) * hermite_he(n) * base.W + cross_polynomial(k, n) * hermite_he(k + 1)
    bracket = GaussFun(base.over(top, 1), Fraction(-1))
    norm = NormValue(Fraction(math.factorial(n) * (n - k) * (n - k - 1)))
    return bracket, norm


@dataclass(frozen=True)
class GoldenLevelCheck:
    level: int
    ratio: Fraction          # engine image / closed-form bracket
    ratio_constant: bool
    bracket: GaussFun        # as partner_eigenfunction_closed_form returns it
    norm: NormValue


@dataclass(frozen=True)
class GoldenReport:
    """Engine vs closed-form comparison for a juxtaposed pair {k, k+1}."""

    k: int
    wronskian_ratio: Fraction        # engine W polynomial part / P_k
    potential_matches: bool
    levels: tuple[GoldenLevelCheck, ...]

    @property
    def ok(self) -> bool:
        return self.potential_matches and all(c.ratio_constant for c in self.levels)


def is_juxtaposed_pair(levels: Sequence[int]) -> bool:
    """Whether the selection is a pair {k, k+1}, the one with closed forms."""
    return len(levels) == 2 and levels[1] == levels[0] + 1


def golden_cross_check(tr: TransformResult, images: Mapping[int, GaussFun]) -> GoldenReport:
    """Compare an engine transform over {k, k+1} against the closed forms.

    ``images`` maps surviving levels n to the engine images L phi_n, as
    ``verify`` builds them once.  Checks that the Wronskian polynomial part
    is P_k up to a rational constant, that the partner potential matches
    structurally, and that each image is a constant multiple of the
    closed-form bracket.  The sign of that constant is a phase convention;
    it is recorded, never assumed.  Each level's check carries its bracket
    and exact norm, so the caller builds neither again.  A deleted level in
    ``images`` raises ForbiddenLevel.  The closed forms are built over the
    powers of P_k, not the engine's W, so the check stays independent.
    """
    if not is_juxtaposed_pair(tr.selection.levels):
        raise ValueError("golden cross-check applies to juxtaposed pairs {k, k+1}")
    k = tr.selection.levels[0]

    p_k = pair_wronskian_poly(k)
    base = WBase(p_k)
    w_ratio = tr.wronskian.r.num.lead() / p_k.lead()
    if tr.wronskian.r != w_ratio * p_k:
        raise AssertionError("engine Wronskian is not proportional to the closed form")

    potential_matches = tr.partner_potential == _potential_over(base)

    checks = []
    for n, image in images.items():
        bracket, norm = _eigenfunction_over(base, k, n)
        # Ratio of canonical leading coefficients, then structural equality of
        # the canonical forms: no pointwise division, no special points.
        ratio = Fraction(0)  # a zero image matches no bracket
        if not image.is_zero:
            num, den = bracket.r.num, bracket.r.den
            c = image.r.num.lead() / num.lead()
            if image.s == bracket.s and image.r.den == den and image.r.num == c * num:
                ratio = c
        checks.append(GoldenLevelCheck(n, ratio, ratio != 0, bracket, norm))
    return GoldenReport(k, w_ratio, potential_matches, tuple(checks))
