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
from .transform import SolvableModel, TransformResult, crum_krein_apply, intertwining_proved

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

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def anticommutator_check(tr: TransformResult, doublets: Mapping[int, Doublet]) -> AnticommutatorReport:
    """Verify {Q, Q+} = prod_i (E - alpha_i) on exact eigen-doublets.

    ``doublets`` maps each level n to its eigen-doublet (phi_n, L phi_n),
    as built by ``eigen_doublet``.  {Q, Q+} (phi, L phi) = (L+ L phi,
    L L+ L phi), and the lower component needs no pass: when L+ L phi
    equals P(E) phi, L of it equals P(E) L phi, because L is linear and
    exact values are canonical.  (hN - E) L phi_n = 0 exactly confirms that
    Q commutes with the super-Hamiltonian.

    The levels 0 .. N take that hN residual first.  When they all hold,
    T = L h0 - hN L = 0 (``intertwining_proved``), and every L+ identity
    follows from its 1-jet at x = 0 (``TransformResult.adjoint_jet``):

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

    ``factorization_identity_check``'s proof of L+ L = P(h0) then reads
    verdicts that rest on T = 0 alone, so the argument is not circular.
    When a level 0 .. N is missing or fails, every level takes the full
    route instead: one Q+ application (``tr.adjoint``) and one hN residual.
    """
    h_partner = tr.hamiltonian_partner()
    residuals = {
        n: _intertwines(h_partner, state) for n, state in doublets.items() if n <= tr.order
    }
    t_zero = intertwining_proved(tr, residuals)
    checks = []
    for n, state in doublets.items():
        factor = tr.selection.factor(state.energy)
        # The two sides meet in W-form: phi is lifted to the transform's base,
        # a polynomial p over W^0 there, whose 1-jet at 0 is (p(0), p'(0)).
        upper = tr.base.lift(state.upper.r)
        if t_zero:
            acomm_ok = tr.adjoint_jet(state.lower) == (factor * upper.p[0], factor * upper.p[1])
            intertwining_ok = residuals.get(n, True)  # above level N, T = 0 proves it
        else:
            back = supercharge_apply("Q+", tr, state)
            acomm_ok = back.upper == GaussFun(upper * factor, state.upper.s)
            intertwining_ok = residuals[n] if n in residuals else _intertwines(h_partner, state)
        checks.append(AnticommutatorCheck(n, factor, acomm_ok, intertwining_ok))
    return AnticommutatorReport(tuple(checks))


def _intertwines(h_partner: DiffOp, state: Doublet) -> bool:
    """(hN - E) L phi = 0 exactly, for the doublet (phi, L phi) at energy E."""
    return (h_partner(state.lower) - state.lower * state.energy).is_zero
