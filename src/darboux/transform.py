"""N-th-order Darboux (Crum-Krein) transformations of a solvable model.

Given a strictly increasing selection of discrete levels k_1 < ... < k_N with
eigenfunctions u_i and eigenvalues alpha_i, this module builds

* the Wronskian W(u_1, ..., u_N), certified node-free two independent ways
  (the Krein integer criterion and an exact Sturm root count),
* the potential difference A(x) = -2 [log W]'' and the partner potential,
* the intertwining operator L of order N, realised both by one
  fraction-free solve of L u_i = 0 at one integer point
  (``cramer_numerators``) and as Crum's bordered-Wronskian quotient
  W(u_1, ..., u_N, phi)/W (Crum 1955), run as a chain of two-by-two
  Wronskians over the family's sub-Wronskians by Jacobi's (Sylvester's)
  Wronskian identity; the chain never reads L, and the two routes are
  checked against each other on every image,
* the kernel functions of the adjoint operator, by the same solve on the
  Wronskian matrix, and
* exact checks of the factorisation identities
  L+ L = prod_i (h0 - alpha_i)  and  L L+ = prod_i (hN - alpha_i) by
  expansion: the first expanded and the second derived from it and
  L h0 = hN L.  ``susy`` proves both from L h0 = hN L and L u_i = 0
  (``crum_proved``), and expands L+ L and L L+
  (``factorization_residuals``) only where that proof does not apply.

Each coefficient of L, L+ and hN lies over a power of the Wronskian's
polynomial W (Crum 1955): L's over W, the d^m coefficient of L+ over
W^(N-m), V_N over W^2.  So every derived value is built, and held, in one
form: a ``WFun`` p/W^k in normal form over the transform's one ``WBase``,
where a zero test is p = 0 and no gcd is taken.  The shift, V_N, L, the
checks, the images L phi and the kernel functions are all computed there,
and the model's polynomials (its eigenfunctions and potential) are lifted
to it; a value meets its canonical form (one gcd, cached) only where it is
read: printed or sampled.

Deleting an admissible selection removes exactly those levels from the
partner spectrum while every other level survives with the same energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Protocol, Sequence

from .gaussian import BorderedWronskian, DegenerateTransformation, DiffOp, GaussFun
from .polynomial import Poly, WBase, WFun, cramer_numerators


class InadmissibleSelection(ValueError):
    """The level selection fails the Krein sign criterion."""

    def __init__(self, levels: Sequence[int], failing_k: int):
        self.levels = tuple(levels)
        self.failing_k = failing_k
        super().__init__(
            f"selection {self.levels} is inadmissible: "
            f"the Krein product is negative at k={failing_k}"
        )


class NodefulWronskian(RuntimeError):
    """Sturm certification found a real zero of a Krein-admissible Wronskian.

    The two admissibility views must agree; disagreement signals an
    arithmetic bug, not a user error, hence a hard failure.
    """


class SolvableModel(Protocol):
    """What the engine needs from a base model."""

    potential: WFun

    def energy(self, n: int) -> Fraction: ...

    def eigenfunction(self, n: int) -> GaussFun: ...


@dataclass(frozen=True)
class LevelSelection:
    """Strictly increasing deleted levels and their eigenvalues."""

    levels: tuple[int, ...]
    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a selection must contain at least one level")
        if any(k < 0 for k in self.levels):
            raise ValueError("levels must be nonnegative")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if len(self.alphas) != len(self.levels):
            raise ValueError("one eigenvalue per level is required")

    @classmethod
    def for_model(cls, model: SolvableModel, levels: Sequence[int]) -> "LevelSelection":
        levels = tuple(levels)
        return cls(levels, tuple(model.energy(k) for k in levels))

    @property
    def order(self) -> int:
        return len(self.levels)

    def survivors(self, n_max: int) -> list[int]:
        """Levels 0..n_max that the transformation keeps, in increasing order."""
        return [n for n in range(n_max + 1) if n not in self.levels]

    def factor(self, energy: Fraction) -> Fraction:
        """P(E) = prod_i (E - alpha_i): {Q, Q+} on a level of energy E, and
        the factor by which L scales a squared norm there."""
        return math.prod((energy - alpha for alpha in self.alphas), start=Fraction(1))


def krein_failure_index(levels: Sequence[int]) -> int | None:
    """First integer k >= 0 with prod_i (k - k_i) < 0, or None if none exists.

    Beyond max(levels) every factor is positive, so scanning 0..max(levels)
    decides the criterion.
    """
    for k in range(max(levels) + 1):
        product = 1
        for ki in levels:
            product *= k - ki
        if product < 0:
            return k
    return None


def krein_admissible(levels: Sequence[int]) -> bool:
    """Krein sign criterion: prod_i (k - k_i) >= 0 for every integer k >= 0."""
    return krein_failure_index(levels) is None


@dataclass(frozen=True)
class TransformResult:
    """Everything the N-th-order transformation produces.

    Invariants (established by ``build_transform``): the Wronskian has no
    real zeros, the operator is monic in d^N, and the partner potential is
    base potential plus shift.
    """

    selection: LevelSelection
    functions: tuple[GaussFun, ...]
    wronskian: GaussFun
    # The powers of W, the Wronskian's rational part made monic; shift,
    # partner_potential and operator's coefficients are WFuns over it.
    base: WBase = field(compare=False, repr=False)
    shift: WFun
    base_potential: WFun
    partner_potential: WFun
    operator: DiffOp
    # W(u_1, ..., u_N, phi) by the Jacobi-identity chain over the family's
    # sub-Wronskians W(u_1, ..., u_k), built once; W is the last of them.
    bordered: BorderedWronskian = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return self.selection.order

    @cached_property
    def adjoint(self) -> DiffOp:
        """L+ in W-form, built on first use and kept: the full route's checks
        read this one."""
        return self.operator.adjoint()

    def hamiltonian_partner(self) -> DiffOp:
        """hN = -d^2 + V_N in W-form."""
        return DiffOp.schroedinger(self.partner_potential)


def _certified_base(w: GaussFun) -> WBase:
    """The powers of W, certified node-free by W's Sturm root count.  The
    Wronskian's rational part is the polynomial c W: ``BorderedWronskian``
    admits only polynomial families, and its chain divides exactly."""
    base = WBase(w.r.num)
    if base.real_root_count():
        raise NodefulWronskian(
            "Krein-admissible selection produced a Wronskian with a real zero"
        )
    return base


def build_transform(model: SolvableModel, levels: Sequence[int]) -> TransformResult:
    """Build the full N-th-order transformation for a level selection.

    Raises InadmissibleSelection when the Krein scan fails and
    NodefulWronskian when the independent Sturm certificate disagrees with a
    passing scan (never silently ignored).
    """
    selection = LevelSelection.for_model(model, levels)
    failing = krein_failure_index(selection.levels)
    if failing is not None:
        raise InadmissibleSelection(selection.levels, failing)

    functions = tuple(model.eigenfunction(k) for k in selection.levels)
    bordered = BorderedWronskian(functions)  # raises DegenerateTransformation
    w = bordered.wronskian
    base = _certified_base(w)

    # A = -2 [log W]'' with the Wronskian c W exp(s x^2/4):
    # (log)' = W'/W + s x / 2, so A = -2 (W'/W)' - s, over W^2.
    shift = -2 * base.over(base.dW, 1).derivative() - w.s
    return TransformResult(
        selection=selection,
        functions=functions,
        wronskian=w,
        base=base,
        shift=shift,
        base_potential=model.potential,
        partner_potential=shift + model.potential,
        operator=crum_krein_operator(functions, base),
        bordered=bordered,
    )


def _derivative_rows(functions: Sequence[GaussFun], order: int) -> list[list[Poly]]:
    """Row i: the polynomial parts of u_i, u_i', ..., u_i^(order), the
    weighted derivatives ``GaussFun.derivatives`` takes (the factor
    exp(s x^2/4) is kept out).  Raises ValueError on a rational part that
    is not a polynomial, as ``BorderedWronskian`` does."""
    if any(u.r.k for u in functions):
        raise ValueError("the family's rational parts must be polynomials")
    return [[g.r.p for g in u.derivatives(order)] for u in functions]


def crum_krein_operator(functions: Sequence[GaussFun], base: WBase) -> DiffOp:
    """Intertwining operator L = d^N + sum_{m<N} a_m d^m from L u_i = 0.

    The N equations sum_m a_m u_i^(m) = -u_i^(N) are written over the
    polynomial parts of the derivatives (the shared exponential factor
    cancels) and solved by ``cramer_numerators``: y_i = det * a_i, det the
    Wronskian's polynomial part, so each a_i is built over ``base``, the
    powers of W, with exponent 1.
    """
    n = len(functions)
    rows = _derivative_rows(functions, n)
    for row in rows:
        row[n] = -row[n]
    return DiffOp(_solve_over_wronskian(rows, base) + [base.lift(1)])


def _solve_over_wronskian(rows: list[list[Poly]], base: WBase) -> list[WFun]:
    """The solution y_i / det of a system whose determinant is the
    Wronskian's polynomial part lead * W, each over W with exponent 1.

    Raises DegenerateTransformation on a zero leading minor (a dependent
    family) and ValueError when det is not a multiple of W.
    """
    try:
        det, ys = cramer_numerators(rows)
    except ZeroDivisionError as err:
        raise DegenerateTransformation("transformation functions are linearly dependent") from err
    lead = det.lead()
    if det != base.W * lead:
        raise ValueError("the solve's determinant is not the Wronskian's polynomial part")
    return [base.over(y * (1 / lead), 1) for y in ys]


def crum_krein_apply(tr: TransformResult, phi: GaussFun) -> GaussFun:
    """Apply the intertwiner to phi; result may be exactly zero.

    phi carries the family's weight and a polynomial rational part; the
    bordered Wronskian rejects any other (MixedWeightError, ValueError).
    Two independent routes take phi as it is: the bordered Wronskian
    W(u_1, ..., u_N, phi) over the Wronskian c W exp(N s x^2/4), and the
    literal operator application.  Their agreement is a standing check,
    also under ``python -O``, compared in W-form; the image is returned in
    W-form.
    """
    bordered = tr.bordered(phi)
    w = tr.wronskian
    quotient = GaussFun(tr.base.over(bordered.r.p * (1 / w.r.p.lead()), 1), bordered.s - w.s)
    image = tr.operator(phi)
    if quotient != image:
        raise AssertionError("bordered-Wronskian and operator routes disagree")
    return image


def kernel_functions(tr: TransformResult) -> list[GaussFun]:
    """Kernel of the adjoint operator: v_k = W_k / W, in W-form.

    W_k is the order-(N-1) Wronskian of the family with u_k omitted (the
    empty Wronskian is 1).  By Cramer's rule on the Wronskian matrix M
    (row m the m-th derivatives), W_k / W = (-1)^(N-1-k) (M^-1)_{k,N-1}, so
    one solve of M z = e_{N-1} (``cramer_numerators``) gives every v_k.
    Each v_k satisfies L+ v_k = 0 and is a formal eigenfunction of the
    partner Hamiltonian at the deleted energy alpha_k; its weight is
    opposite to the family's, so it is not normalisable.
    """
    n = tr.order
    columns = _derivative_rows(tr.functions, n - 1)
    rows = [
        [col[m] for col in columns] + [Poly.one() if m == n - 1 else Poly.zero()]
        for m in range(n)
    ]
    weight = -tr.bordered.weight
    return [
        GaussFun(v if (n - 1 - k) % 2 == 0 else -v, weight)
        for k, v in enumerate(_solve_over_wronskian(rows, tr.base))
    ]


@dataclass(frozen=True)
class FactorizationReport:
    """Residuals of the exact operator factorisation identities, in W-form."""

    residual_base: DiffOp
    residual_partner: DiffOp

    @property
    def base_ok(self) -> bool:
        return self.residual_base.is_zero

    @property
    def partner_ok(self) -> bool:
        return self.residual_partner.is_zero

    @property
    def ok(self) -> bool:
        return self.base_ok and self.partner_ok


def _hamiltonian_product(h: DiffOp, alphas: Sequence[Fraction]) -> DiffOp:
    identity = DiffOp((h.coeffs[-1] * 0 + 1,))  # its coefficient of h's type
    product = identity
    for alpha in alphas:
        product = product.compose(h - identity * alpha)
    return product


def factorization_identity_check(tr: TransformResult) -> FactorizationReport:
    """Verify L+ L = prod (h0 - alpha_i) and L L+ = prod (hN - alpha_i) by
    expansion alone: T = L h0 - hN L is expanded, then
    ``factorization_residuals`` reads whether it is zero.  The stand-alone
    check; ``susy.factorization_check`` takes T's verdict from its
    per-level report instead and never expands T."""
    h0 = DiffOp.schroedinger(tr.base.lift(tr.base_potential))
    intertwining = tr.operator.compose(h0) - tr.hamiltonian_partner().compose(tr.operator)
    return factorization_residuals(tr, intertwining.is_zero)


def factorization_residuals(tr: TransformResult, t_zero: bool) -> FactorizationReport:
    """The residuals of L+ L = P(h0) and L L+ = P(hN), P(h) = prod (h - alpha_i),
    given whether T = L h0 - hN L = 0.  The base identity is expanded to a
    residual in normal form.  The partner identity is derived (Crum 1955):

        (L L+ - P(hN)) L = L (L+ L - P(h0)) + (L P(h0) - P(hN) L),

    and the last term vanishes once L h0 = hN L.  Operators with rational
    coefficients have no zero divisors, so an exact zero base residual and
    T = 0 prove the partner identity.  Otherwise L L+ is expanded so the
    report carries the actual partner residual.  The report carries
    residuals (zero operators on success) rather than raising.  Every
    operator is in W-form.
    """
    alphas = tr.selection.alphas
    h0 = DiffOp.schroedinger(tr.base.lift(tr.base_potential))
    residual_base = tr.adjoint.compose(tr.operator) - _hamiltonian_product(h0, alphas)
    if residual_base.is_zero and t_zero:
        residual_partner = DiffOp.zero()
    else:
        residual_partner = (tr.operator.compose(tr.adjoint)
                            - _hamiltonian_product(tr.hamiltonian_partner(), alphas))
    return FactorizationReport(residual_base=residual_base, residual_partner=residual_partner)
