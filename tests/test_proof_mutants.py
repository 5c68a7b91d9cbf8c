"""A mutant matrix for the proofs that ``verify`` rests on.

Each row injects one exact fault, by a monkeypatch, and runs ``verify`` on an
order-2 and an order-4 selection.  It names the check that must fail (exit
1) and the route the anticommutator check ran, read from its report:
"crum" when T = 0 and L u_i = 0 proved every L+ identity
(``susy.crum_proved``), "full" when L+ was applied.

Three rows mutate the proof's premise.  Two add x/7 to hN on the selections
0 .. N-1, where level N is the only level 0 .. N that L does not annihilate,
so its intertwining residual alone sees a wrong hN.  Unmutated, that fault
takes the full route and fails ``eigen_residuals`` and
``L_L_dagger_factorization`` (the "hN d^0" rows).  Each premise mutant
instead takes the proof and lets one of those checks pass (``hides``): the
hN rows kill both mutants.  The third ignores the selection's images, under
a nonzero L u_k above level N: ``kernel_annihilation`` kills it.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from darboux import cli, susy
from darboux.cli import main
from darboux.gaussian import DiffOp, GaussFun
from darboux.oscillator import OscillatorModel
from darboux.polynomial import Poly
from darboux.transform import TransformResult

_X7 = Poly((0, Fraction(1, 7)))
_MODEL = OscillatorModel()


def _perturbed(op: DiffOp, j: int) -> DiffOp:
    coeffs = list(op.coeffs)
    coeffs[j] = coeffs[j] + _X7
    return DiffOp(coeffs)


def _on_transform(monkeypatch, change):
    build = cli.build_transform
    monkeypatch.setattr(cli, "build_transform", lambda model, levels: change(build(model, levels)))


def _l_coefficient(monkeypatch, levels):
    _on_transform(monkeypatch, lambda tr: replace(tr, operator=_perturbed(tr.operator, 0)))


def _partner(j):
    def inject(monkeypatch, levels):
        partner = TransformResult.hamiltonian_partner
        monkeypatch.setattr(TransformResult, "hamiltonian_partner",
                            lambda tr: _perturbed(partner(tr), j))
    return inject


def _image(level_of):
    # x/7 exp(-x^2/4) added to L phi_n at the level ``level_of(levels)``.
    def inject(monkeypatch, levels):
        phi = _MODEL.eigenfunction(level_of(levels))
        apply = susy.crum_krein_apply

        def wrong(tr, f):
            image = apply(tr, f)
            return image + GaussFun(tr.base.lift(_X7), -1) if f == phi else image

        monkeypatch.setattr(susy, "crum_krein_apply", wrong)
    return inject


def _survivor(above_n: bool):
    """The first survivor n <= N or n > N."""
    return lambda levels: next(k for k in range(20)
                               if k not in levels and (k > len(levels)) == above_n)


def _kernel_function(monkeypatch, levels):
    kernel = susy.kernel_functions

    def wrong(tr):
        v = kernel(tr)
        return [v[0] + GaussFun(tr.base.lift(_X7), v[0].s), *v[1:]]

    monkeypatch.setattr(susy, "kernel_functions", wrong)


def _verdict_forced_true(monkeypatch, levels):
    _partner(0)(monkeypatch, levels)
    intertwines = susy._intertwines
    top = _MODEL.energy(len(levels))
    monkeypatch.setattr(susy, "_intertwines",
                        lambda h, state: state.energy == top or intertwines(h, state))


def _premise_cut(monkeypatch, levels):
    _partner(0)(monkeypatch, levels)
    proved = susy.intertwining_proved

    def cut(tr, h, verdicts):
        return proved(tr, h, {**verdicts, tr.order: True})  # reads levels 0 .. N-1

    monkeypatch.setattr(susy, "intertwining_proved", cut)


def _kernel_ignored(monkeypatch, levels):
    _image(lambda levels: levels[-1])(monkeypatch, levels)  # a nonzero L u_k, k > N
    monkeypatch.setattr(susy, "crum_proved", lambda tr, t_zero, doublets: t_zero)


@dataclass(frozen=True)
class Row:
    fault: str
    inject: object
    fails: tuple[str, ...]  # checks marked "fail", or the standing assertion that fires
    route: str | None
    selections: tuple = ((1, 2), (1, 2, 5, 6))
    hides: str | None = None  # a check the unmutated proof fails and this mutant passes


_EDGE = ((0, 1), (0, 1, 2, 3))
_ROWS = [
    # A wrong L is caught before any check: the bordered-Wronskian route,
    # which never reads L, disagrees with it on the first image.
    Row("L coefficient", _l_coefficient, ("bordered-Wronskian and operator routes disagree",),
        None),
    Row("hN d^0", _partner(0), ("L_L_dagger_factorization", "eigen_residuals"), "full",
        ((1, 2), (1, 2, 5, 6), *_EDGE)),
    Row("hN d^1", _partner(1), ("L_L_dagger_factorization",), "full"),
    Row("image, level <= N", _image(_survivor(False)), ("eigen_residuals",), "full"),
    # Above level N the proof reads no image: only the float checks see it,
    # and the closed forms where the selection is a juxtaposed pair.
    Row("image, level > N", _image(_survivor(True)), ("norm_transport", "golden_closed_forms"),
        "crum", ((1, 2),)),
    Row("image, level > N", _image(_survivor(True)), ("norm_transport",), "crum",
        ((1, 2, 5, 6),)),
    Row("kernel function v_k", _kernel_function, ("adjoint_kernel",), "crum"),
    Row("intertwining verdict forced true at level N", _verdict_forced_true,
        ("adjoint_kernel",), "crum", _EDGE, hides="eigen_residuals"),
    Row("premise range cut to 0 .. N-1", _premise_cut, ("eigen_residuals",), "crum", _EDGE,
        hides="L_L_dagger_factorization"),
    Row("selection's kernel ignored by the proof", _kernel_ignored, ("kernel_annihilation",),
        "crum", ((2, 3), (1, 2, 5, 6)), hides="superalgebra_anticommutator"),
]
_CASES = [(row, levels) for row in _ROWS for levels in row.selections]


@pytest.mark.parametrize("row, levels", _CASES,
                         ids=[f"{row.fault}-{','.join(map(str, lv))}" for row, lv in _CASES])
def test_fault_fails_its_check(row, levels, monkeypatch, capsys):
    reports = []
    check = cli.anticommutator_check
    monkeypatch.setattr(cli, "anticommutator_check",
                        lambda tr, doublets: reports.append(check(tr, doublets)) or reports[-1])
    row.inject(monkeypatch, levels)
    argv = ["verify", "--levels", ",".join(map(str, levels)), "--nmax", "8", "--points", "601"]
    if row.route is None:
        with pytest.raises(AssertionError, match=row.fails[0]):
            main(argv)
        return
    assert main(argv) == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert all(status[name] == "fail" for name in row.fails)
    assert [("crum" if report.proved else "full") for report in reports] == [row.route]
    if row.hides:
        assert status[row.hides] == "pass"
