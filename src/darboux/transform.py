"""N-th-order Darboux (Crum-Krein) transformations of a solvable model.

Given a strictly increasing selection of discrete levels k_1 < ... < k_N with
eigenfunctions u_i and eigenvalues alpha_i, this module builds

* the Wronskian W(u_1, ..., u_N), certified node-free two independent ways
  (the Krein integer criterion and an exact Sturm root count),
* the potential difference A(x) = -2 [log W]'' and the partner potential,
* the intertwining operator L of order N, realised both as the cofactor
  expansion of the Wronskian-determinant formula and as a bordered-Wronskian
  quotient (the two routes are asserted against each other),
* the kernel functions of the adjoint operator, and
* exact checks of the factorisation identities
  L+ L = prod_i (h0 - alpha_i)  and  L L+ = prod_i (hN - alpha_i),
  the first expanded and the second derived from it and L h0 = hN L.

Deleting an admissible selection removes exactly those levels from the
partner spectrum while every other level survives with the same energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Protocol, Sequence

from .gaussian import DiffOp, GaussFun, common_weight, derivative_table, wronskian
from .polynomial import RatFun, ratfun_det, sturm_real_root_count


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


class DegenerateTransformation(ValueError):
    """The transformation functions are linearly dependent (zero Wronskian)."""


class SolvableModel(Protocol):
    """What the engine needs from a base model."""

    potential: RatFun

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
    shift: RatFun
    base_potential: RatFun
    partner_potential: RatFun
    operator: DiffOp

    @property
    def order(self) -> int:
        return self.selection.order

    @cached_property
    def adjoint(self) -> DiffOp:
        """L+, built on first use and kept: every check reads this one."""
        return self.operator.adjoint()

    def hamiltonian_partner(self) -> DiffOp:
        return DiffOp.schroedinger(self.partner_potential)


def _certify_node_free(w: GaussFun) -> None:
    poly_part = w.r.num
    if poly_part.degree() > 0 and sturm_real_root_count(poly_part) > 0:
        raise NodefulWronskian(
            "Krein-admissible selection produced a Wronskian with a real zero"
        )
    if w.r.den.degree() > 0 and sturm_real_root_count(w.r.den) > 0:
        raise NodefulWronskian("Wronskian denominator has a real zero")


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
    w = wronskian(functions)
    if w.is_zero:
        raise DegenerateTransformation("transformation functions are linearly dependent")
    _certify_node_free(w)

    # A = -2 [log W]'' with W = r * exp(s x^2/4):
    # (log W)' = r'/r + s x / 2, so A = -2 [(r'/r)' + s/2].
    log_deriv = w.r.derivative() / w.r
    shift = -2 * (log_deriv.derivative() + RatFun.constant(Fraction(w.s, 2)))
    partner = model.potential + shift

    operator = crum_krein_operator(functions, w)
    return TransformResult(
        selection=selection,
        functions=functions,
        wronskian=w,
        shift=shift,
        base_potential=model.potential,
        partner_potential=partner,
        operator=operator,
    )


def crum_krein_operator(functions: Sequence[GaussFun], w: GaussFun) -> DiffOp:
    """Intertwining operator from the Wronskian-determinant formula.

    The (N+1)x(N+1) determinant whose last column is (1, d, ..., d^N) is
    expanded along that column; the coefficient of d^m is the signed minor
    obtained by deleting derivative row m, divided by W.  The shared
    exponential factor of the minors cancels against W, so every coefficient
    is a plain rational function, and the top coefficient is exactly 1.
    """
    n = len(functions)
    if w.is_zero:
        raise DegenerateTransformation("zero Wronskian")
    table = derivative_table(functions, n)
    coeffs: list[RatFun] = []
    for m in range(n + 1):
        rows = [[table[d][i] for i in range(n)] for d in range(n + 1) if d != m]
        minor = ratfun_det(rows)
        signed = minor if (n + m) % 2 == 0 else -minor
        coeffs.append(signed / w.r)
    op = DiffOp(coeffs)
    assert op.coeff(n) == RatFun.one(), "top coefficient of the operator must be 1"
    return op


def crum_krein_apply(tr: TransformResult, phi: GaussFun) -> GaussFun:
    """Apply the intertwiner to phi; result may be exactly zero.

    Two independent routes are evaluated whenever phi shares the family's
    weight: the bordered Wronskian W(u_1, ..., u_N, phi)/W and the literal
    operator application.  Their agreement is a standing assertion.
    """
    image = tr.operator(phi)
    weight = common_weight(tr.functions)
    if phi.is_zero or phi.s == weight:
        bordered = wronskian(list(tr.functions) + [phi])
        quotient = bordered / tr.wronskian
        assert quotient == image, "bordered-Wronskian and operator routes disagree"
    return image


def kernel_functions(tr: TransformResult) -> list[GaussFun]:
    """Kernel of the adjoint operator: v_k = W_k / W.

    W_k is the order-(N-1) Wronskian of the family with u_k omitted (the
    empty Wronskian is 1).  Each v_k satisfies L+ v_k = 0 and is a formal
    eigenfunction of the partner Hamiltonian at the deleted energy alpha_k;
    its weight is opposite to the family's, so it is not normalisable.
    """
    out = []
    for k in range(len(tr.functions)):
        rest = [u for i, u in enumerate(tr.functions) if i != k]
        w_k = wronskian(rest) if rest else GaussFun.one()
        out.append(w_k / tr.wronskian)
    return out


@dataclass(frozen=True)
class FactorizationReport:
    """Residuals of the exact operator factorisation identities."""

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


def _hamiltonian_product(potential: RatFun, alphas: Sequence[Fraction]) -> DiffOp:
    product = DiffOp.identity()
    h = DiffOp.schroedinger(potential)
    for alpha in alphas:
        product = product.compose(h - alpha * DiffOp.identity())
    return product


def factorization_identity_check(tr: TransformResult) -> FactorizationReport:
    """Verify L+ L = prod (h0 - alpha_i) and L L+ = prod (hN - alpha_i).

    The base identity is expanded to a canonical residual.  The partner
    identity is derived (Crum 1955): with P(h) = prod (h - alpha_i),

        (L L+ - P(hN)) L = L (L+ L - P(h0)) + (L P(h0) - P(hN) L),

    and the last term vanishes once L h0 = hN L.  Operators with rational
    coefficients have no zero divisors, so an exact zero base residual and
    an exact intertwining prove the partner identity.  When either is
    nonzero, L L+ is expanded so the report carries the actual partner
    residual.  The report carries residuals (zero operators on success)
    rather than raising.
    """
    op = tr.operator
    alphas = tr.selection.alphas
    residual_base = tr.adjoint.compose(op) - _hamiltonian_product(tr.base_potential, alphas)
    intertwining = (
        op.compose(DiffOp.schroedinger(tr.base_potential))
        - tr.hamiltonian_partner().compose(op)
    )
    if residual_base.is_zero and intertwining.is_zero:
        residual_partner = DiffOp.zero()
    else:
        residual_partner = op.compose(tr.adjoint) - _hamiltonian_product(
            tr.partner_potential, alphas
        )
    return FactorizationReport(residual_base=residual_base, residual_partner=residual_partner)
