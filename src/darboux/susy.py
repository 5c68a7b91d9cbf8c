"""Supersymmetric pairing built on the intertwining operator.

The supercharge Q has the intertwiner L in its lower-left corner, Q+ has the
adjoint in the upper-right, and together with the diagonal super-Hamiltonian
diag(h0, hN) they close a polynomial algebra:

    {Q, Q+} = prod_i (H - alpha_i),   [Q, H] = [Q+, H] = 0.

Levels are classified constructively.  A selected level has an eigenfunction
in the base sector only (L annihilates it): a singlet, annihilated by both
supercharges.  Every other level has exact eigenfunctions in both sectors: a
doublet.  The vacuum is the lowest singlet; when the selection excludes the
ground state, twofold-degenerate levels sit below the vacuum energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping

from .gaussian import DiffOp, GaussFun
from .transform import (
    FactorizationReport,
    SolvableModel,
    TransformResult,
    crum_krein_apply,
    factorization_residuals,
    kernel_functions,
)

Tag = Literal["singlet", "doublet"]


@dataclass(frozen=True)
class Doublet:
    """Two-component state: upper lives in the base sector, lower in the partner."""

    upper: GaussFun
    lower: GaussFun
    energy: Fraction | None = None

    @property
    def is_zero(self) -> bool:
        return self.upper.is_zero and self.lower.is_zero


@dataclass(frozen=True)
class SusyClassification:
    n0: frozenset[int]
    vacuum_energy: Fraction
    tags: dict[int, Tag]
    below_vacuum: frozenset[int]


def eigen_doublet(model: SolvableModel, tr: TransformResult, n: int) -> Doublet:
    """Exact eigen-doublet at level n: (phi_n, L phi_n).

    The lower component is exactly zero when n is a deleted level.
    """
    phi = model.eigenfunction(n)
    return Doublet(upper=phi, lower=crum_krein_apply(tr, phi), energy=model.energy(n))


def classify(model: SolvableModel, tr: TransformResult, n_max: int) -> SusyClassification:
    """Tag each level up to n_max as singlet or doublet.

    The tags follow from the selection by rule, then every level is
    confirmed constructively: L phi_n must vanish exactly when n is
    selected.  A mismatch is an engine bug, not a user error.
    """
    selected = frozenset(tr.selection.levels)
    if n_max < max(selected):
        raise ValueError("n_max must reach the highest selected level")

    tags: dict[int, Tag] = {}
    for n in range(n_max + 1):
        image = eigen_doublet(model, tr, n).lower
        rule: Tag = "singlet" if n in selected else "doublet"
        constructive: Tag = "singlet" if image.is_zero else "doublet"
        if rule != constructive:
            raise RuntimeError(
                f"rule says {rule} but the operator says {constructive} at level {n}"
            )
        tags[n] = rule

    vacuum = min(model.energy(k) for k in selected)
    below = frozenset(n for n in range(n_max + 1) if model.energy(n) < vacuum)
    return SusyClassification(
        n0=selected,
        vacuum_energy=vacuum,
        tags=tags,
        below_vacuum=below,
    )


def supercharge_apply(side: Literal["Q", "Q+"], tr: TransformResult, state: Doublet) -> Doublet:
    """Act with a supercharge: Q sends (phi, psi) to (0, L phi), Q+ the reverse.

    Q^2 = 0 and (Q+)^2 = 0 hold structurally from the matrix shape.
    """
    if side == "Q":
        return Doublet(GaussFun.zero(), crum_krein_apply(tr, state.upper), state.energy)
    if side == "Q+":
        return Doublet(tr.adjoint(state.lower), GaussFun.zero(), state.energy)
    raise ValueError(f"unknown supercharge side {side!r}")


@dataclass(frozen=True)
class AnticommutatorCheck:
    level: int
    factor: Fraction
    anticommutator_ok: bool
    intertwining_ok: bool

    @property
    def ok(self) -> bool:
        return self.anticommutator_ok and self.intertwining_ok


@dataclass(frozen=True)
class AnticommutatorReport:
    checks: tuple[AnticommutatorCheck, ...]
    t_zero: bool  # T = L h0 - hN L = 0, decided once (``intertwining_proved``)
    proved: bool  # T = 0 and L u_i = 0 prove every L+ identity (``crum_proved``)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def intertwining_proved(tr: TransformResult, h: DiffOp, verdicts: Mapping[int, bool]) -> bool:
    """Whether exact residuals formed with h = hN prove T = L h0 - hN L = 0.

    ``verdicts`` maps a level n to whether (hN - E_n) L phi_n = 0 holds
    exactly, with h0 phi_n = E_n phi_n, so T phi_n = -(hN - E_n) L phi_n.
    L is monic of order N and hN = -d^2 + V_N (both checked), so the
    d^(N+2) and d^(N+1) terms of T cancel and T has order at most N.  A
    nonzero operator of order m kills at most m independent functions on an
    interval free of its coefficients' poles and its top coefficient's
    zeros; W has no real zero and the phi_n are independent.  So T = 0 once
    levels 0 .. N all hold.
    """
    n = tr.order
    if not (tr.operator.order() == n and tr.operator.coeffs[-1] == 1):
        raise AssertionError("L must be monic of order N")
    return (
        h.order() == 2
        and h.coeffs[2] == -1
        and h.coeffs[1].is_zero
        and all(verdicts.get(k, False) for k in range(n + 1))
    )


def crum_proved(tr: TransformResult, t_zero: bool, doublets: Mapping[int, Doublet]) -> bool:
    """Whether T = L h0 - hN L = 0 (``t_zero``) and L u_i = 0 on the
    selection (its images in ``doublets``) prove every L+ identity:
    L+ L = P(h0), L L+ = P(hN) and L+ v_k = 0, P(h) = prod_i (h - alpha_i)
    (Crum 1955).

    Lemma.  An R with coefficients in Q(x) that is formally self-adjoint
    and commutes with h0 = -d^2 + q is a polynomial in h0.  By induction on
    its order n: the top coefficient of [R, h0] is 2 r_n', so r_n is a
    constant c; R+ = R gives (-1)^n c = c, so n = 2m is even; and
    R - c (-1)^m h0^m is again self-adjoint, commutes with h0 and has lower
    order.

    L+ L = P(h0).  Formal adjoints reverse products and h0, hN are formally
    self-adjoint, so the adjoint of T = 0 is h0 L+ = L+ hN, and
    R = L+ L - P(h0) commutes with h0.  R is self-adjoint and, L being
    monic of order N (``intertwining_proved``), of order at most 2N - 1:
    R = f(h0) with deg f <= N - 1.  L u_i = 0 and P(alpha_i) = 0 give
    f(alpha_i) u_i = R u_i = 0 at N distinct alpha_i, so R = 0.  L L+ =
    P(hN) then follows from R = 0 and T = 0 (``factorization_residuals``).

    L+ v_k = 0 wherever (hN - alpha_k) v_k = 0 holds exactly (checked):
    L L+ v_k = P(alpha_k) v_k = 0, so L+ v_k lies in ker L, the span of the
    u_i on the real line, where W has no zero.  L+ v_k is a rational
    function times exp(-s x^2/4) and each u_i a polynomial times
    exp(s x^2/4), s the family's weight, so for s != 0, L+ v_k = 0.

    Two premises no run checks raise AssertionError, also under
    ``python -O``: the alpha_i are distinct, and s != 0, so the kernel
    functions' weight -s differs from the family's.
    """
    levels = tr.selection.levels
    if not (t_zero and all(k in doublets and doublets[k].lower.is_zero for k in levels)):
        return False
    if len(set(tr.selection.alphas)) != len(levels):
        raise AssertionError("the deleted energies alpha_i must be distinct")
    if tr.bordered.weight == 0:
        raise AssertionError("the kernel functions' weight must differ from the family's")
    return True


def anticommutator_check(tr: TransformResult, doublets: Mapping[int, Doublet]) -> AnticommutatorReport:
    """Verify {Q, Q+} = prod_i (E - alpha_i) on exact eigen-doublets.

    ``doublets`` maps each level n to its eigen-doublet (phi_n, L phi_n),
    as built by ``eigen_doublet``.  {Q, Q+} (phi, L phi) = (L+ L phi,
    L L+ L phi), and the lower component needs no pass: when L+ L phi
    equals P(E) phi, L of it equals P(E) L phi, because L is linear and
    exact values are canonical.  (hN - E) L phi_n = 0 exactly confirms that
    Q commutes with the super-Hamiltonian.

    The levels 0 .. N take that hN residual first.  When they all hold,
    T = L h0 - hN L = 0 (``intertwining_proved``, kept as ``t_zero``), so
    (hN - E_n) L phi_n = L (h0 - E_n) phi_n = 0 for every n > N: those
    levels take no hN application.  With L u_i = 0 on the selection, every
    L+ identity holds (``crum_proved``, kept as ``proved``) and no level
    takes L+; otherwise each level takes one L+ application.
    """
    h_partner = tr.hamiltonian_partner()
    residuals = {n: _intertwines(h_partner, s) for n, s in doublets.items() if n <= tr.order}
    t_zero = intertwining_proved(tr, h_partner, residuals)
    proved = crum_proved(tr, t_zero, doublets)
    checks = []
    for n, state in doublets.items():
        factor = tr.selection.factor(state.energy)
        # The two sides meet in W-form: phi is lifted to the transform's base.
        acomm_ok = proved or tr.adjoint(state.lower) == GaussFun(
            tr.base.lift(state.upper.r) * factor, state.upper.s)
        # Above level N, T = 0 proves the residual.
        intertwining_ok = residuals[n] if n in residuals else (
            t_zero or _intertwines(h_partner, state))
        checks.append(AnticommutatorCheck(n, factor, acomm_ok, intertwining_ok))
    return AnticommutatorReport(tuple(checks), t_zero, proved)


def _intertwines(h_partner: DiffOp, state: Doublet) -> bool:
    """(hN - E) L phi = 0 exactly, for the doublet (phi, L phi) at energy E."""
    return (h_partner(state.lower) - state.lower * state.energy).is_zero


def factorization_check(tr: TransformResult, report: AnticommutatorReport) -> FactorizationReport:
    """L+ L = P(h0) and L L+ = P(hN), P(h) = prod (h - alpha_i): proved
    when ``report.proved`` holds (``crum_proved``), else expanded by
    ``factorization_residuals`` with the report's verdict on T.  T is never
    expanded: ``verify`` hands over levels 0 .. N, where T = 0 goes
    unproved only when some T phi_n is nonzero."""
    if report.proved:
        return FactorizationReport(residual_base=DiffOp.zero(), residual_partner=DiffOp.zero())
    return factorization_residuals(tr, report.t_zero)


def adjoint_kernel_failures(tr: TransformResult,
                            report: AnticommutatorReport) -> list[tuple[str, int]]:
    """Each selected level k whose kernel function v_k fails L+ v_k = 0
    ("adjoint") or (hN - alpha_k) v_k = 0 ("eigen").  The second proves the
    first when ``report`` has proved every L+ identity (``crum_proved``);
    otherwise L+ is applied."""
    h_partner = tr.hamiltonian_partner()
    bad = []
    for k, alpha, v in zip(tr.selection.levels, tr.selection.alphas, kernel_functions(tr)):
        eigen_ok = (h_partner(v) - v * alpha).is_zero
        if not (report.proved and eigen_ok) and not tr.adjoint(v).is_zero:
            bad.append(("adjoint", k))
        if not eigen_ok:
            bad.append(("eigen", k))
    return bad
