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


def _adjoint_sends(tr: TransformResult, f: GaussFun, g: GaussFun, by_jet: bool) -> bool:
    """L+ f = g exactly, for g = p exp(s x^2/4), p a polynomial.  With ``by_jet``,
    L+ f - g solves h0 y = E y (``anticommutator_check``), so 1-jets at 0 decide
    it: L+ f's read off L, g's (p(0), p'(0)).  Otherwise L+ is applied."""
    if by_jet:
        p = tr.base.lift(g.r).p
        return tr.adjoint_jet(f) == (p[0], p[1])
    return tr.adjoint(f) == g


def anticommutator_check(tr: TransformResult, doublets: Mapping[int, Doublet]) -> AnticommutatorReport:
    """Verify {Q, Q+} = prod_i (E - alpha_i) on exact eigen-doublets.

    ``doublets`` maps each level n to its eigen-doublet (phi_n, L phi_n),
    as built by ``eigen_doublet``.  {Q, Q+} (phi, L phi) = (L+ L phi,
    L L+ L phi), and the lower component needs no pass: when L+ L phi
    equals P(E) phi, L of it equals P(E) L phi, because L is linear and
    exact values are canonical.  (hN - E) L phi_n = 0 exactly confirms that
    Q commutes with the super-Hamiltonian.

    The levels 0 .. N take that hN residual first.  When they all hold,
    T = L h0 - hN L = 0 (``intertwining_proved``, kept as ``t_zero``), and
    every L+ identity follows from its 1-jet at x = 0 (``_adjoint_sends``):

    * Formal adjoints reverse products and h0, hN are formally
      self-adjoint, so T = 0 gives h0 L+ = L+ hN.
    * So y = L+ L phi_n - P(E_n) phi_n solves h0 y = E_n y, and where
      (hN - alpha_k) v_k = 0 holds exactly, y = L+ v_k solves
      h0 y = alpha_k y.
    * h0 = -d^2 + x^2/4 - 1/2 has polynomial coefficients, and W has no real
      zero (the Sturm certificate), so such a y is analytic on the whole
      line, and y(0) = y'(0) = 0 forces y = 0 (uniqueness for linear ODEs;
      Coddington and Levinson 1955, ch. 1).
    * T = 0 also gives (hN - E_n) L phi_n = L (h0 - E_n) phi_n = 0 for
      every n > N: those levels take no hN application.

    When a level 0 .. N is missing or fails, every level takes the full
    route instead: one L+ application and one hN residual.
    """
    h_partner = tr.hamiltonian_partner()
    residuals = {n: _intertwines(h_partner, s) for n, s in doublets.items() if n <= tr.order}
    t_zero = intertwining_proved(tr, h_partner, residuals)
    checks = []
    for n, state in doublets.items():
        factor = tr.selection.factor(state.energy)
        # The two sides meet in W-form: phi is lifted to the transform's base.
        target = GaussFun(tr.base.lift(state.upper.r) * factor, state.upper.s)
        acomm_ok = _adjoint_sends(tr, state.lower, target, t_zero)
        # Above level N, T = 0 proves the residual.
        intertwining_ok = residuals[n] if n in residuals else (
            t_zero or _intertwines(h_partner, state))
        checks.append(AnticommutatorCheck(n, factor, acomm_ok, intertwining_ok))
    return AnticommutatorReport(tuple(checks), t_zero)


def _intertwines(h_partner: DiffOp, state: Doublet) -> bool:
    """(hN - E) L phi = 0 exactly, for the doublet (phi, L phi) at energy E."""
    return (h_partner(state.lower) - state.lower * state.energy).is_zero


def factorization_check(tr: TransformResult, report: AnticommutatorReport) -> FactorizationReport:
    """L+ L = P(h0) and L L+ = P(hN), P(h) = prod (h - alpha_i): proved when
    ``report`` has T = 0 and levels 0 .. 2N-1 pass, else expanded by
    ``factorization_residuals`` with the report's verdict on T.

    Those verdicts then came from the jet route, on T = 0 alone.  L is monic
    of order N, so R = L+ L - P(h0) has order at most 2N - 1 and vanishes
    once it kills phi_0 .. phi_(2N-1) (the bound in ``intertwining_proved``);
    R = 0 and T = 0 give L L+ = P(hN) (``factorization_residuals``).  T is
    never expanded: ``verify`` hands over levels 0 .. N, where T = 0 goes
    unproved only when some T phi_n is nonzero, so an unproved T is a
    nonzero T and L L+ is expanded for its residual.
    """
    passed = {c.level for c in report.checks if c.anticommutator_ok}
    if report.t_zero and passed.issuperset(range(2 * tr.order)):
        return FactorizationReport(residual_base=DiffOp.zero(), residual_partner=DiffOp.zero())
    return factorization_residuals(tr, report.t_zero)


def adjoint_kernel_failures(tr: TransformResult,
                            report: AnticommutatorReport) -> list[tuple[str, int]]:
    """Each selected level k whose kernel function v_k fails L+ v_k = 0
    ("adjoint") or (hN - alpha_k) v_k = 0 ("eigen").  The jet decides the
    first when T = 0 and the second holds (``anticommutator_check``)."""
    h_partner = tr.hamiltonian_partner()
    bad = []
    for k, alpha, v in zip(tr.selection.levels, tr.selection.alphas, kernel_functions(tr)):
        eigen_ok = (h_partner(v) - v * alpha).is_zero
        if not _adjoint_sends(tr, v, GaussFun.zero(), report.t_zero and eigen_ok):
            bad.append(("adjoint", k))
        if not eigen_ok:
            bad.append(("eigen", k))
    return bad
