import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest

from darboux import cli, susy
from darboux.gaussian import BorderedWronskian, DiffOp, GaussFun
from darboux.oscillator import OscillatorModel
from darboux.polynomial import Poly
from darboux.susy import (
    Doublet,
    anticommutator_check,
    classify,
    crum_proved,
    eigen_doublet,
    factorization_check,
    supercharge_apply,
)
from darboux.transform import (
    LevelSelection,
    TransformResult,
    build_transform,
    factorization_identity_check,
    kernel_functions,
    krein_admissible,
)


def doublets(model, tr, levels):
    return {n: eigen_doublet(model, tr, n) for n in levels}


# Every Krein-admissible selection of order <= 4 with levels up to 7.
_ADMISSIBLE = [
    sel
    for order in range(1, 5)
    for sel in combinations(range(8), order)
    if krein_admissible(sel)
]


class TestClassify:
    def test_excited_pair(self, model, tr12):
        result = classify(model, tr12, n_max=5)
        assert result.n0 == {1, 2}
        assert result.vacuum_energy == Fraction(1)
        assert {n for n, t in result.tags.items() if t == "singlet"} == {1, 2}
        assert {n for n, t in result.tags.items() if t == "doublet"} == {0, 3, 4, 5}
        assert result.below_vacuum == {0}

    def test_ground_pair_nothing_below(self, model, tr01):
        result = classify(model, tr01, n_max=4)
        assert result.vacuum_energy == Fraction(0)
        assert result.below_vacuum == frozenset()

    def test_block_of_four(self, model):
        tr = build_transform(model, (2, 3, 4, 5))
        result = classify(model, tr, n_max=6)
        assert result.vacuum_energy == Fraction(2)
        assert result.below_vacuum == {0, 1}
        assert result.tags[0] == "doublet" and result.tags[1] == "doublet"

    def test_n_max_must_cover_selection(self, model, tr12):
        with pytest.raises(ValueError):
            classify(model, tr12, n_max=1)


class TestSupercharges:
    def test_q_annihilates_selected(self, model, tr12):
        for k in tr12.selection.levels:
            state = Doublet(model.eigenfunction(k), GaussFun.zero(), model.energy(k))
            assert supercharge_apply("Q", tr12, state).is_zero

    def test_q_kills_lower_sector(self, tr12, model):
        state = Doublet(GaussFun.zero(), model.eigenfunction(0), None)
        image = supercharge_apply("Q", tr12, state)
        assert image.is_zero

    def test_q_squared_zero(self, model, tr12):
        state = eigen_doublet(model, tr12, 3)
        twice = supercharge_apply("Q", tr12, supercharge_apply("Q", tr12, state))
        assert twice.is_zero

    def test_qdag_then_q_gives_factor(self, model, tr12):
        # (Q+ Q)(phi_0, 0) = (0-1)(0-2) (phi_0, 0) = 2 (phi_0, 0)
        state = Doublet(model.eigenfunction(0), GaussFun.zero(), Fraction(0))
        out = supercharge_apply("Q+", tr12, supercharge_apply("Q", tr12, state))
        assert out.upper == 2 * model.eigenfunction(0)
        assert out.lower.is_zero

    def test_unknown_side_rejected(self, model, tr12):
        state = eigen_doublet(model, tr12, 0)
        with pytest.raises(ValueError):
            supercharge_apply("X", tr12, state)


class TestAnticommutator:
    def test_factors_excited_pair(self, model, tr12):
        report = anticommutator_check(tr12, doublets(model, tr12, range(6)))
        assert report.ok
        factors = {c.level: c.factor for c in report.checks}
        assert factors[0] == 2  # (0-1)(0-2)
        assert factors[1] == 0  # singlet: degenerates to 0 = 0
        assert factors[3] == 2  # (3-1)(3-2)

    def test_factor_ground_pair(self, model, tr01):
        report = anticommutator_check(tr01, doublets(model, tr01, [3]))
        assert report.ok
        assert report.checks[0].factor == 6  # (3-0)(3-1)

    def test_intertwining_residuals(self, model, tr12):
        report = anticommutator_check(tr12, doublets(model, tr12, range(6)))
        assert all(c.intertwining_ok for c in report.checks)

    @pytest.mark.parametrize("levels", [(1, 2), (0, 1, 6, 7)])
    def test_agrees_with_four_supercharge_oracle(self, model, levels):
        # The oracle sums Q+ Q and Q Q+ from four separate applications.
        tr = build_transform(model, levels)
        report = anticommutator_check(tr, doublets(model, tr, range(6)))
        assert report.ok
        for n, check in zip(range(6), report.checks):
            state = eigen_doublet(model, tr, n)
            via_q = supercharge_apply("Q+", tr, supercharge_apply("Q", tr, state))
            via_qdag = supercharge_apply("Q", tr, supercharge_apply("Q+", tr, state))
            acomm = Doublet(
                via_q.upper + via_qdag.upper, via_q.lower + via_qdag.lower, state.energy
            )
            factor = Fraction(1)
            for alpha in tr.selection.alphas:
                factor *= model.energy(n) - alpha
            assert check.factor == factor == tr.selection.factor(state.energy)
            assert acomm == Doublet(state.upper * factor, state.lower * factor, state.energy)

    def test_one_supercharge_application_per_level(self, model, tr12, monkeypatch):
        # Levels 0 .. N prove L h0 = hN L, and with L u_i = 0 on the
        # selection every L+ identity follows (``crum_proved``): no Q+.
        # Without level N the premise is not covered, and each level takes
        # one Q+, an application of the built L+.
        adjoint, apply = tr12.adjoint, DiffOp.__call__
        applied = []
        monkeypatch.setattr(DiffOp, "__call__",
                            lambda op, f: applied.append(op is adjoint) or apply(op, f))
        report = anticommutator_check(tr12, doublets(model, tr12, range(4)))
        assert report.ok and report.proved and sum(applied) == 0
        report = anticommutator_check(tr12, doublets(model, tr12, [0, 1, 3, 4]))
        assert report.ok and not report.t_zero and sum(applied) == 4

    _WRONG_BY_TWO = {0: False, 1: True, 2: True, 3: False, 4: False}

    def test_wrong_adjoint_fails_every_doublet(self, model, monkeypatch):
        # 2 L+ in place of L+: every doublet fails but the singlets, where
        # L phi = 0 and P(E) = 0.  On the full route the fault is in the
        # built L+; the premise is broken by x/7 added to hN.
        tr = build_transform(model, (1, 2))
        tr.__dict__["adjoint"] = tr.operator.adjoint() * 2
        partner = TransformResult.hamiltonian_partner
        monkeypatch.setattr(TransformResult, "hamiltonian_partner",
                            lambda tr: partner(tr) + DiffOp((Poly((0, Fraction(1, 7))),)))
        report = anticommutator_check(tr, doublets(model, tr, range(5)))
        assert not any(c.intertwining_ok for c in report.checks if c.factor)
        assert {c.level: c.anticommutator_ok for c in report.checks} == self._WRONG_BY_TWO


def _composes(check, *args):
    """What ``check(*args)`` returns and the number of DiffOp.compose calls it took."""
    calls = []
    compose = DiffOp.compose

    def counted(self, other):
        calls.append(other)
        return compose(self, other)

    with patch.object(DiffOp, "compose", counted):
        result = check(*args)
    return result, len(calls)


_X7 = Poly((0, Fraction(1, 7)))


@pytest.fixture(scope="module")
def tr23(model):
    return build_transform(model, (2, 3))


class TestFactorizationProof:
    """L+ L = P(h0) and L L+ = P(hN) proved from L h0 = hN L and L u_i = 0,
    expanding nothing, and expanded when a premise of that proof is unmet."""

    def test_agrees_with_full_expansion(self):
        # Every admissible selection of order <= 4 with levels <= 7, on the
        # doublets verify builds for nmax 0: levels 0 .. N and the selection.
        model = OscillatorModel()
        for levels in _ADMISSIBLE:
            tr = build_transform(model, levels)
            expanded = factorization_identity_check(tr)
            report = anticommutator_check(
                tr, doublets(model, tr, sorted({*range(tr.order + 1), *levels})))
            proved, calls = _composes(factorization_check, tr, report)
            assert report.proved and report.ok and expanded.ok, levels
            assert (proved.residual_base, proved.residual_partner, calls) == (
                expanded.residual_base, expanded.residual_partner, 0), levels
            assert all(tr.adjoint(v).is_zero for v in kernel_functions(tr)), levels

    @pytest.mark.parametrize("premise", ["distinct", "weight"])
    def test_unchecked_premise_raises(self, premise, model, tr12):
        # Equal alpha_i, or a family of weight 0 whose kernel functions
        # would share its weight, void the proof: it raises, not passes.
        if premise == "distinct":
            tr = replace(tr12, selection=LevelSelection((1, 2), (Fraction(1), Fraction(1))))
        else:
            family = [GaussFun(Poly((0, 1))), GaussFun(Poly((0, 0, 1)))]
            tr = replace(tr12, bordered=BorderedWronskian(family))
        with pytest.raises(AssertionError, match=premise):
            crum_proved(tr, True, doublets(model, tr12, range(3)))

    def test_partner_side_is_not_expanded_on_success(self, model, tr12):
        report = anticommutator_check(tr12, doublets(model, tr12, range(4)))
        proved, calls = _composes(factorization_check, tr12, report)
        assert proved.ok and calls == 0

    @pytest.mark.parametrize("fixture", ["tr12", "tr01", "tr23"])
    @pytest.mark.parametrize("edge", ["intertwining false at N",
                                      "selected level missing",
                                      "selected image nonzero"])
    def test_unmet_premise_expands(self, fixture, edge, model, request, monkeypatch):
        # The proof reads T = 0 from levels 0 .. N and L u_i = 0 from every
        # selected level.  A proof that reads one level fewer, or no image
        # of the selection, returns a zero residual here without expanding:
        # the expansion is L+ L and two factors of P(h0), and L L+ and two
        # factors of P(hN) only where the report has not proved T = 0.  The
        # edges take the top selected level k; T = 0 survives them only
        # where k > N, as on (2, 3).  T itself is never expanded.
        tr = request.getfixturevalue(fixture)
        n, k = tr.order, tr.selection.levels[-1]
        levels = {*range(n + 1), *tr.selection.levels} - ({k} if edge == "selected level missing"
                                                         else set())
        if edge == "intertwining false at N":
            intertwines = susy._intertwines
            monkeypatch.setattr(susy, "_intertwines", lambda h, state: (
                state.energy != model.energy(n) and intertwines(h, state)))
        states = doublets(model, tr, sorted(levels))
        if edge == "selected image nonzero":
            wrong = states[k].lower + GaussFun(tr.base.lift(_X7), -1)
            states[k] = replace(states[k], lower=wrong)
        report = anticommutator_check(tr, states)
        assert not report.proved
        assert report.t_zero == (edge != "intertwining false at N" and k > n)
        proved, calls = _composes(factorization_check, tr, report)
        assert proved.ok and calls == (3 if report.t_zero else 6)

    def test_proved_intertwining_is_not_expanded_again(self, monkeypatch, capsys):
        # x/7 exp(-x^2/4) added to L u_6 on (1, 2, 5, 6): level 6 lies
        # above N = 4, so T = 0 holds and the selection's kernel fails.  L+ L
        # and P(h0)'s four factors are expanded (5 composes), and
        # L h0 = hN L is not (7).
        apply = susy.crum_krein_apply
        phi = OscillatorModel().eigenfunction(6)
        monkeypatch.setattr(susy, "crum_krein_apply", lambda tr, f: (
            apply(tr, f) + GaussFun(tr.base.lift(_X7), -1) if f == phi else apply(tr, f)))
        reports = []
        check = cli.anticommutator_check
        monkeypatch.setattr(cli, "anticommutator_check",
                            lambda tr, doublets: reports.append(check(tr, doublets)) or reports[-1])
        code, calls = _composes(cli.main, ["verify", "--levels", "1,2,5,6", "--nmax", "8",
                                           "--points", "601"])
        status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert code == 1 and status["kernel_annihilation"] == "fail"
        assert [(report.t_zero, report.proved) for report in reports] == [(True, False)]
        assert calls == 5
