import hashlib
import json
import math
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darboux import cli, oscillator, polynomial, susy
from darboux.cli import main, transform_to_json
from darboux.oscillator import OscillatorModel
from darboux.gaussian import DiffOp
from darboux.polynomial import Poly, RatFun, WFun
from darboux.transform import LevelSelection, TransformResult, build_transform, crum_krein_apply


def run(*argv):
    return main(list(argv))


def exact(cell) -> Fraction:
    """A JSON rational {"num": str, "den": str}, decoded without the CLI's help."""
    return Fraction(int(cell["num"]), int(cell["den"]))


def exact_poly(cells) -> Poly:
    return Poly(exact(c) for c in cells)


class TestTransformCommand:
    def test_wronskian_poly_is_pair_polynomial(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("transform", "--levels", "1,2", "--nmax", "4", "--out", str(out)) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "run.json").read_text())
        assert exact_poly(doc["wronskian_poly"]) == Poly((1, 0, 1))
        assert doc["levels"] == [1, 2]
        assert [exact(a) for a in doc["alphas"]] == [Fraction(1), Fraction(2)]

    def test_inadmissible_exit_code_names_failing_k(self, capsys):
        assert run("transform", "--levels", "1") == 2
        err = capsys.readouterr().err
        assert "k=0" in err

    def test_csv_constant_shift(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            run(
                "transform", "--levels", "0,1", "--nmax", "3",
                "--points", "101", "--out", str(out),
            )
            == 0
        )
        capsys.readouterr()
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["x", "V0", "VN"]
        assert header[3:] == ["psi_2", "psi_3"]
        for line in lines[1:]:
            cells = [float(v) for v in line.split(",")]
            assert cells[2] - cells[1] == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("transform", "--levels", "1,2", "--nmax", "3", "--out", str(out)) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "run.json").read_text())
        # rebuild from scratch and compare the serialised forms verbatim
        fresh = transform_to_json(build_transform(OscillatorModel(), tuple(doc["levels"])))
        assert fresh == doc
        # decoded coefficients match the engine exactly
        cells = doc["partner_potential"]
        rebuilt = RatFun(exact_poly(cells["num"]), exact_poly(cells["den"]))
        assert rebuilt == build_transform(OscillatorModel(), (1, 2)).partner_potential


    # SHA-256 of the CSV that `transform --out` writes on the reference grid
    # at the default nmax, frozen before the CSV rows were written by one
    # format per line.
    @pytest.mark.parametrize("levels, digest", [
        ("1,2", "9bb053566e36ee92b7cd4bb74bc1a77060f450adc8fda09d00d8cb72a463ff41"),
        ("2,3,6,7,10,11", "84bbf341cf338357468588b46a9f8f553ba12a2dd1594be2a2bb4c30fe6f9425"),
    ], ids=["1,2", "2,3,6,7,10,11"])
    def test_frozen_csv(self, levels, digest, tmp_path, capsys):
        assert run("transform", "--levels", levels, "--out", str(tmp_path / "run")) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == digest

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(st.recursive(
        st.one_of(st.integers(), st.text(max_size=6), st.none(), st.floats()),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.text(), inner, max_size=3)),
        max_leaves=8,
    ))
    @example({"": [], "a": {}, "\"\\\n\t\x00\x7f": ["\u00e9\u2603\U0001f600", -1, 0]})
    @example([-0.0, 5e-324, 1e308, 0.1, 1 / 3, np.float64(0.1), math.nan, math.inf, -math.inf, None])
    def test_json_text_matches_the_encoder(self, doc):
        assert cli.json_text(doc) == json.dumps(doc, indent=2)

    def test_json_text_rejects_other_types(self):
        for value in (True, (1, 2), {1: 2}):
            with pytest.raises(TypeError):
                cli.json_text(value)

    def test_csv_rows_match_fmt17(self):
        edges = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0]
        columns = [np.array(edges), np.array(edges[::-1])]
        assert cli._csv_rows(columns) == [
            f"{a:.17g},{b:.17g}" for a, b in zip(edges, edges[::-1])
        ]

    @pytest.mark.parametrize("fmt, unbuilt", [
        ("json", ("crum_krein_apply", "sample")),
        ("csv", ("transform_to_json",)),
    ])
    def test_builds_only_the_printed_text(self, fmt, unbuilt, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("built a text that is not printed")

        for name in unbuilt:
            monkeypatch.setattr(cli, name, refuse)
        assert run("transform", "--levels", "1,2", "--nmax", "3", "--format", fmt) == 0
        capsys.readouterr()


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(
            "verify", "--levels", "1,2", "--nmax", "5",
            "--points", "1201", "--out", str(report_path),
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert [c["name"] for c in doc["checks"]] == [
            "L_dagger_L_factorization",
            "L_L_dagger_factorization",
            "kernel_annihilation",
            "adjoint_kernel",
            "eigen_residuals",
            "golden_closed_forms",
            "superalgebra_anticommutator",
            "closed_form_normalization",
            "norm_transport",
        ]
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["L_dagger_L_factorization"]["status"] == "pass"
        assert by_name["L_dagger_L_factorization"]["detail"] == "exact-zero residual"
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_corrupted_potential_fails_eigen_residuals(self, capsys):
        code = run(
            "verify", "--levels", "1,2", "--nmax", "4",
            "--points", "601", "--corrupt-vn", "1e-3",
        )
        assert code == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        by_name = {c["name"]: c["status"] for c in doc["checks"]}
        assert by_name["eigen_residuals"] == "fail"
        assert "verification failed" in captured.err

    def test_zero_denominator_corruption_rejected(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("exact work started")

        monkeypatch.setattr(cli, "build_transform", refuse)
        assert run("verify", "--levels", "1,2", "--corrupt-vn", "1/0") == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid configuration: --corrupt-vn 1/0 has a zero denominator\n"
        assert captured.out == ""

    def test_negative_corruption_needs_the_equals_form(self, capsys):
        # argparse takes a bare "-1/3" for a flag; "--corrupt-vn=-1/3" reaches the hook.
        assert run("verify", "--levels", "1,2", "--nmax", "4", "--corrupt-vn", "-1/3") == 2
        assert "expected one argument" in capsys.readouterr().err
        assert run("verify", "--levels", "1,2", "--nmax", "4", "--corrupt-vn=-1/3") == 1
        captured = capsys.readouterr()
        by_name = {c["name"]: c["status"] for c in json.loads(captured.out)["checks"]}
        assert by_name["eigen_residuals"] == "fail"
        assert "verification failed" in captured.err

    def test_order_four_selection(self, capsys):
        code = run("verify", "--levels", "1,2,5,6", "--nmax", "8", "--points", "601")
        assert code == 0

    def test_negative_nmax_rejected(self, capsys):
        assert run("verify", "--levels", "1,2", "--nmax", "-1") == 2
        assert "--nmax -1 is below 0" in capsys.readouterr().err

    def test_each_exact_object_built_once(self, monkeypatch, capsys):
        # L+ has one owner, the transform, and each image L phi_n has one
        # owner, its eigen-doublet: 9 doublets, and the anticommutator check
        # applies no Q.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(DiffOp, "adjoint", counted("adjoint", DiffOp.adjoint))
        apply = counted("apply", crum_krein_apply)
        for module in (cli, susy):
            monkeypatch.setattr(module, "crum_krein_apply", apply)
        assert run("verify", "--levels", "1,2", "--nmax", "8") == 0
        capsys.readouterr()
        assert calls == {"adjoint": 1, "apply": 9}

    def test_closed_forms_built_once(self, monkeypatch, capsys):
        # A juxtaposed pair sums P_k once and builds each of its 7 survivors'
        # brackets once: the golden and normalisation checks share them.
        calls = Counter()
        for name in ("pair_wronskian_poly", "cross_polynomial"):
            def counted(*args, name=name, fn=getattr(oscillator, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(oscillator, name, counted)
        command, code, digest = _FROZEN_REPORTS[0]
        got = run(*command.split())
        captured = capsys.readouterr()
        text = json.dumps([got, captured.out, captured.err])
        assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)
        assert calls == {"pair_wronskian_poly": 1, "cross_polynomial": 7}

    def test_wrong_closed_form_fails_the_golden_check(self, monkeypatch, capsys):
        # A seeded mutant: g_kn + 1 in place of g_kn in every bracket.
        cross = oscillator.cross_polynomial
        monkeypatch.setattr(oscillator, "cross_polynomial", lambda k, n: cross(k, n) + 1)
        assert run("verify", "--levels", "1,2", "--nmax", "8") == 1
        captured = capsys.readouterr()
        by_name = {c["name"]: c["status"] for c in json.loads(captured.out)["checks"]}
        assert by_name["golden_closed_forms"] == "fail"
        assert "verification failed: golden_closed_forms" in captured.err

    def test_each_operator_applied_once_per_level(self, monkeypatch, capsys):
        # L: the 9 doublets.  L+: the 2 kernel functions and one Q+ per
        # doublet.  hN: the 2 kernel functions and one intertwining residual
        # per doublet, which eigen_residuals reads for the survivors.  Each
        # is the W-form operator.
        tr = build_transform(OscillatorModel(), (1, 2))
        named = {"L": tr.operator, "L+": tr.adjoint, "hN": tr.hamiltonian_partner()}
        calls = Counter()
        apply = DiffOp.__call__

        def counted(op, f):
            assert all(isinstance(c, WFun) for c in op.coeffs)
            calls[next(name for name, known in named.items() if op == known)] += 1
            return apply(op, f)

        monkeypatch.setattr(DiffOp, "__call__", counted)
        assert run("verify", "--levels", "1,2", "--nmax", "8") == 0
        capsys.readouterr()
        assert calls == {"L": 9, "L+": 11, "hN": 11}

    def test_gcd_calls_capped(self, monkeypatch, capsys):
        # The transform is built and checked in W-form, which takes no gcd;
        # what is left is the Sturm certificate's square-free step (1) and
        # one canonical form per sampled image (5 survivors).
        gcd = polynomial.poly_gcd
        calls = Counter()

        def counted(a, b):
            calls["gcd"] += 1
            return gcd(a, b)

        bound = [m for name, m in sys.modules.items()
                 if name.startswith("darboux.") and getattr(m, "poly_gcd", None) is gcd]
        assert polynomial in bound
        for module in bound:
            monkeypatch.setattr(module, "poly_gcd", counted)
        assert run("verify", "--levels", "1,2,5,6", "--nmax", "8") == 0
        capsys.readouterr()
        assert 0 < calls["gcd"] <= 6

    def test_gcd_routes(self, gcd_routes, capsys):
        # Every gcd of two non-constant inputs tries the heuristic first.  At
        # order 8 each is proved at its first evaluation point, with no
        # fallback.
        with gcd_routes() as routes:
            assert run("transform", "--levels", "3,4,7,8,9,10,11,12", "--format", "csv") == 0
        assert routes["heuristic"] > 0 and routes["fallback"] == 0
        assert routes["accepted"] == routes["points"] == routes["heuristic"]
        # Order 2 takes the same order: the remainder sequence runs only
        # where the heuristic gives up.
        with gcd_routes() as routes:
            assert run("verify", "--levels", "1,2", "--nmax", "8") == 0
        capsys.readouterr()
        assert routes["heuristic"] > 0 and routes["prs"] == routes["fallback"]


@pytest.mark.parametrize("command", [
    "verify --levels 1,2 --nmax 8",
    "verify --levels 1,2,5,6 --nmax 8 --corrupt-vn 1/7",
    "classify --levels 2,3,6,7 --nmax 9",
    "transform --levels 1,2,5,6 --format csv",
])
def test_operators_act_in_w_form(command, monkeypatch, capsys):
    # One route: every operator a command composes or applies has WFun
    # coefficients; the RatFun route is left to the tests as their oracle.
    compose, apply = DiffOp.compose, DiffOp.__call__
    seen = Counter()

    def in_w_form(*ops):
        for op in ops:
            assert all(isinstance(c, WFun) for c in op.coeffs)
            seen["ops"] += 1

    def checked_compose(self, other):
        in_w_form(self, other)
        return compose(self, other)

    def checked_apply(self, f):
        in_w_form(self)
        return apply(self, f)

    monkeypatch.setattr(DiffOp, "compose", checked_compose)
    monkeypatch.setattr(DiffOp, "__call__", checked_apply)
    run(*command.split())
    capsys.readouterr()
    assert seen["ops"] > 0


@pytest.mark.parametrize("command", [
    "verify --levels 1,2 --nmax 8",
    "verify --levels 2,3 --nmax 16",
    "verify --levels 1,2,5,6 --nmax 8",
    "verify --levels 2,3,6,7,10,11 --nmax 13",
    "transform --levels 1,2,5,6",
    "transform --levels 1,2,5,6 --format csv",
    "classify --levels 2,3,6,7 --nmax 9",
    "spectrum --levels 1,2 --nmax 8",
])
def test_one_exact_route(command, monkeypatch, capsys):
    # No command does RatFun arithmetic, whatever the operands, and none
    # counts roots on an interval.  The family's derivative rows are
    # polynomials, the transform and the closed forms live over the powers
    # of their own W, whose poles one whole-line Sturm count rules out, and
    # a RatFun is only read.  RatFun's arithmetic is left to the tests.
    reached = []

    def checked(name, fn):
        def wrapper(*args, **kwargs):
            reached.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "derivative"):
        monkeypatch.setattr(RatFun, name, checked(name, getattr(RatFun, name)))
    sturm = polynomial.sturm_real_root_count

    def whole_line(p, lo=None, hi=None):
        if lo is not None or hi is not None:
            reached.append("interval Sturm count")
        return sturm(p, lo, hi)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("darboux") and \
                getattr(module, "sturm_real_root_count", None) is sturm:
            monkeypatch.setattr(module, "sturm_real_root_count", whole_line)
    assert run(*command.split()) == 0
    capsys.readouterr()
    assert reached == []


# SHA-256 of [exit code, stdout, stderr] as JSON; the reports are exact, so
# any change to a check's verdict or detail moves the digest.
_FROZEN_REPORTS = [
    ("verify --levels 1,2 --nmax 8", 0,
     "d6641d83e0a46559ec674bd9e9accaea7581fe46e01ff86140db9261daf27a76"),
    ("verify --levels 1,2,5,6 --nmax 8", 0,
     "837e20be7db8ca58cb321a6cbd48b158d5f096d3cbf499a6e3de61c5e499fef9"),
    ("verify --levels 1,2 --nmax 4 --points 601 --corrupt-vn 1e-3", 1,
     "8cab2f222c9587f57c7f1a10a9eef7f11c8063e4738bcf98d3241582ac90889e"),
    ("verify --levels 1,2,5,6 --nmax 8 --corrupt-vn 1/7", 1,
     "b674669c7798126aa29c669b795948dd1e1f6675df9193b455498f6ac20a4c52"),
    ("classify --levels 2,3,6,7 --nmax 9", 0,
     "198e21b7628a5d8c6335849f7447b7ec84ce4df039959745363cc649877f2ba6"),
    ("verify --levels 2,3,6,7,10,11 --nmax 13", 0,
     "20192fd839424dc51b8430ca375647a5e84357c4b2da05f7cf08beaef4c165ef"),
    ("verify --levels 3,4,7,8,9,10,11,12 --nmax 12", 0,
     "9205fd6aacaab668b80814e38a8a11a603bd2d953cad150918b5ac8944efc20b"),
    ("spectrum --levels 1,2 --nmax 8", 0,
     "8717566643fa0e082b5df1128267f9c86aedf1b7b40e12d27315036e2a98c34b"),
]


@pytest.mark.parametrize("command, code, digest", _FROZEN_REPORTS,
                         ids=[c for c, _, _ in _FROZEN_REPORTS])
def test_frozen_report(command, code, digest, monkeypatch, capsys):
    # A passing report expands no operator product: verify proves both
    # factorisation identities from its per-level checks.  A failing one
    # expands them, and its residuals are in the digest.
    compose = DiffOp.compose
    composed = []

    def checked(self, other):
        assert code != 0, "a passing report composed operators"
        composed.append(other)
        return compose(self, other)

    monkeypatch.setattr(DiffOp, "compose", checked)
    got = run(*command.split())
    captured = capsys.readouterr()
    text = json.dumps([got, captured.out, captured.err])
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)
    assert bool(composed) == ("--corrupt-vn" in command)


def _perturbed(op: DiffOp, j: int, delta) -> DiffOp:
    coeffs = list(op.coeffs)
    coeffs[j] = coeffs[j] + delta
    return DiffOp(coeffs)


@pytest.mark.parametrize("operator, j", [("L+", 0), ("L+", 4), ("hN", 0), ("hN", 1)])
def test_perturbed_operator_fails_a_factorization_check(operator, j, monkeypatch, capsys):
    # Seeded mutants: x/7 added to one coefficient of the cached L+ or of
    # hN.  The per-level checks then prove nothing, and the expansion
    # reports the residual.
    x = Poly((0, 1)) * Fraction(1, 7)
    if operator == "L+":
        build = cli.build_transform

        def mutant_transform(model, levels):
            tr = build(model, levels)
            vars(tr)["adjoint"] = _perturbed(tr.adjoint, j, x)
            return tr

        monkeypatch.setattr(cli, "build_transform", mutant_transform)
    else:
        partner = TransformResult.hamiltonian_partner
        monkeypatch.setattr(TransformResult, "hamiltonian_partner",
                            lambda tr: _perturbed(partner(tr), j, x))
    assert run("verify", "--levels", "1,2,5,6", "--nmax", "8") == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    name = "L_dagger_L_factorization" if operator == "L+" else "L_L_dagger_factorization"
    assert status[name] == "fail"


def test_cached_parser_keeps_each_call_alone(capsys):
    # One parser serves every call: bad input, a verify and a spectrum
    # print and exit as they do from a parser built for each call.
    commands = [("verify", "--levels", "1,2", "--nmax", "x"),
                ("verify", "--levels", "1,2", "--nmax", "4"),
                ("spectrum", "--levels", "1,2", "--nmax", "4")]

    def outcomes(fresh: bool) -> list:
        got = []
        for argv in commands:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    fresh = outcomes(fresh=True)
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert outcomes(fresh=False) == fresh
    assert cli._build_parser() is cli._build_parser()


class TestSpectrumCommand:
    def test_two_deleted_rows(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run(
            "spectrum", "--levels", "1,2", "--nmax", "5",
            "--points", "1201", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == (
            "level  predicted                     h0       h0_err"
            "                     hN       hN_err"
        )
        # level 1 is deleted: blank-padded hN_err, fixed column widths
        assert re.fullmatch(r"    1          1 [ \d.e+-]{22} [ \d.e+-]{12} {16}deleted {13}", table[2])
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert rows[1][4] == "deleted" and rows[2][4] == "deleted"
        assert rows[0][4] != "deleted"
        for row in rows:
            assert float(row[3]) <= 5e-3  # base sector error column
            if row[4] != "deleted":
                assert float(row[5]) <= 5e-3

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = run(
            "spectrum", "--levels", "0,1", "--nmax", "4",
            "--points", "1201", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [r["hN"] for r in doc["rows"][:2]] == ["deleted", "deleted"]

    # SHA-256 of the files `spectrum --levels 1,2 --nmax 8 --out` writes,
    # frozen before the JSON and the 17-digit cells were given one writer each.
    @pytest.mark.parametrize("args, name, digest", [
        ((), "x.json", "cd7f576e84868d9f311486dca162316ecc73cc4e1a45296bf670dee283bc1295"),
        (("--format", "csv"), "x.csv",
         "757e65ad993a897f43840fa20c8fb65c2134500cbe426c6241d1162b58474719"),
    ], ids=["json", "csv"])
    def test_frozen_spectrum_files(self, args, name, digest, tmp_path, capsys):
        out = tmp_path / name
        assert run("spectrum", "--levels", "1,2", "--nmax", "8", *args, "--out", str(out)) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_nmax_beyond_grid_rejected(self, capsys):
        assert run("spectrum", "--levels", "1,2", "--nmax", "3000") == 2
        assert "--nmax 3000 needs more than --points 2401" in capsys.readouterr().err

    def test_negative_nmax_rejected(self, capsys):
        assert run("spectrum", "--levels", "1,2", "--nmax", "-1") == 2
        assert "--nmax -1 is below 0" in capsys.readouterr().err

    def test_too_coarse_grid_fails_level_count(self, capsys):
        code = run(
            "spectrum", "--levels", "1,2", "--nmax", "8",
            "--xmin", "-3", "--xmax", "3", "--points", "101",
        )
        assert code == 1
        assert "base sector" in capsys.readouterr().err

    def test_level_below_the_ground_state_fails_level_count(self, capsys):
        code = run(
            "spectrum", "--levels", "1,2", "--nmax", "2",
            "--xmin=-2", "--xmax", "2", "--points", "5",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "partner sector has 1 levels below m + 1/2 at m = -1, expected 0" in captured.err


class TestClassifyCommand:
    def test_excited_pair(self, capsys):
        assert run("classify", "--levels", "1,2", "--nmax", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert exact(doc["vacuum_energy"]) == 1
        assert doc["below_vacuum"] == [0]
        assert doc["tags"]["1"] == "singlet"

    def test_ground_pair(self, capsys):
        assert run("classify", "--levels", "0,1", "--nmax", "4") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["below_vacuum"] == []

    def test_block_pair(self, capsys):
        assert run("classify", "--levels", "2,3", "--nmax", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert exact(doc["vacuum_energy"]) == 2
        assert doc["below_vacuum"] == [0, 1]

    def test_inadmissible(self, capsys):
        assert run("classify", "--levels", "3") == 2

    def test_nmax_below_selection_rejected(self, capsys):
        assert run("classify", "--levels", "3,4", "--nmax", "2") == 2
        assert "--nmax 2 is below the highest selected level 4" in capsys.readouterr().err


def _assert_float_norm_bound(command, levels, nmax, top, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("exact work started")

    monkeypatch.setattr(cli, "build_transform", refuse)
    code = run(command, "--levels", levels, "--nmax", str(nmax), "--points", "11",
               "--format", "csv")
    assert code == 2
    assert (f"--nmax {nmax} is above {top}, the largest for levels {levels}: "
            f"the float norm n! * sqrt(2 pi) * prod(n - k_i) of level {top + 1} overflows"
            ) in capsys.readouterr().err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": [3], "nmax": 5}))
        # config alone is inadmissible; the flag must win
        assert run("classify", "--config", str(cfg), "--levels", "1,2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n0"] == [1, 2]

    def test_config_file_supplies_levels(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": "0,1", "nmax": 3}))
        assert run("classify", "--config", str(cfg)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n0"] == [0, 1]

    @pytest.mark.parametrize("command", ["transform", "verify", "classify"])
    def test_nmax_above_float_norm_bound_rejected(self, command, monkeypatch, capsys):
        _assert_float_norm_bound(command, "1,2", 171, 168, monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["transform", "verify"])
    @pytest.mark.parametrize("levels, nmax, top", [("0", 170, 169), ("1,2", 169, 168)])
    def test_nmax_bound_depends_on_the_selection(self, command, levels, nmax, top,
                                                 monkeypatch, capsys):
        # 170! * sqrt(2 pi) * 170 and 169! * sqrt(2 pi) * 168 * 167 overflow,
        # though n! * sqrt(2 pi) alone is finite up to n = 170.
        _assert_float_norm_bound(command, levels, nmax, top, monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["transform", "verify", "spectrum", "classify"])
    def test_wronskian_degree_above_cap_rejected(self, command, monkeypatch, capsys):
        class Sentinel(Exception):
            pass

        def refuse(*args):
            raise Sentinel

        monkeypatch.setattr(cli, "build_transform", refuse)
        argv = ("--nmax", "70", "--points", "101")
        # Degree sum(k_i) - N(N-1)/2: 64, the cap, reaches the exact layer.
        for levels in ("64", "32,33"):
            with pytest.raises(Sentinel):
                run(command, "--levels", levels, *argv)
        rejected = [("65", 65), ("33,34", 66)]
        if command != "classify":  # classify's nmax must reach 1000001: rejected before
            rejected.append(("1000000,1000001", 2000000))
        for levels, degree in rejected:
            assert run(command, "--levels", levels, *argv) == 2
            assert capsys.readouterr().err == (
                f"invalid configuration: levels {levels} give a Wronskian of degree "
                f"{degree}, above the cap of 64\n"
            )

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(st.integers(1, 4).flatmap(
        lambda order: st.lists(st.integers(0, 39 if order <= 2 else 25),
                               min_size=order, max_size=order, unique=True)))
    @example([0])
    @example([1, 2])
    @example([38, 39])
    @example([200])  # the first overflow lies below the top level
    @example([100, 160])
    @example([168, 169])  # the first overflow is at 171
    @example([171, 173])  # ... and at 172, just below the top level
    def test_float_norm_cap_is_where_the_csv_normaliser_overflows(self, levels):
        # The CSV scales psi_n by the float norm, formed as _transform_csv_lines
        # forms it: the base norm as a float, then one float factor per alpha.
        model = OscillatorModel()
        selection = LevelSelection.for_model(model, sorted(levels))

        def normaliser_finite(n):
            try:
                norm_sq = model.squared_norm(n).to_float()
            except OverflowError:
                return False
            for alpha in selection.alphas:
                norm_sq *= float(model.energy(n) - alpha)
            return math.isfinite(norm_sq)

        n = 0
        while n in selection.levels or normaliser_finite(n):
            n += 1
        assert cli._largest_float_norm_nmax(model, selection) == n - 1

    @pytest.mark.parametrize("levels, nmax", [("0", 169), ("1,2", 168)])
    def test_nmax_at_float_norm_bound_accepted(self, levels, nmax, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "build_transform", reached)
        with pytest.raises(Reached):
            run("transform", "--levels", levels, "--nmax", str(nmax), "--points", "11")

    def test_missing_levels_rejected(self, capsys):
        assert run("classify") == 2

    def test_bad_levels_rejected(self, capsys):
        assert run("classify", "--levels", "-1,2") == 2
        assert run("classify", "--levels", "") == 2

    @pytest.mark.parametrize("content, message", [
        ([1, 2], "must hold a JSON object, got [1, 2]"),
        ({"levels": [[1], 2]}, "'levels' in"),
        ({"levels": [1, 2], "nmax": None}, "'nmax' in"),
        ({"levels": [1, 2], "out": 5}, "'out' in"),
        ({"levels": [1, 2], "format": "xml"}, "'format' in"),
        ({"levels": [True, 2]}, "'levels' in"),
        ({"levels": [1, 2], "n_max": 3}, "unknown key 'n_max'"),
        ({"levels": [1, 2], "corrupt_vn": "1/0"}, "--corrupt-vn 1/0 has a zero denominator"),
    ], ids=["array", "nested-level", "null-nmax", "int-out", "xml-format", "bool-level",
            "unknown-key", "zero-denominator"])
    def test_malformed_config_is_bad_input(self, content, message, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("exact work started")

        monkeypatch.setattr("darboux.cli.build_transform", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert run("transform", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: ")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value, command", [
        ("xmin", -6.5, ("transform", "--nmax", "3", "--points", "101", "--format", "csv")),
        ("xmax", 7.25, ("transform", "--nmax", "3", "--points", "101", "--format", "csv")),
        ("points", 51, ("transform", "--nmax", "3", "--format", "csv")),
        ("format", "csv", ("spectrum", "--nmax", "3", "--points", "401", "--out", "spec")),
        ("out", "report.json", ("classify", "--nmax", "3")),
        ("corrupt_vn", "-1/3", ("verify", "--nmax", "3", "--points", "201")),
    ])
    def test_config_value_equals_flag(self, key, value, command, tmp_path, monkeypatch, capsys):
        # The same value through a config file and through its flag gives the
        # same stdout, stderr, exit code and --out file, and not the default's.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        flag = f"--{key.replace('_', '-')}={value}"
        results = []
        for source in ([], [flag], ["--config", "cfg.json"]):
            code = run(*command, "--levels", "1,2", *source)
            captured = capsys.readouterr()
            files = {p.name: p.read_text() for p in tmp_path.iterdir() if p.name != "cfg.json"}
            for name in files:
                (tmp_path / name).unlink()
            results.append((code, captured.out, captured.err, files))
        default, from_flag, from_file = results
        assert from_file == from_flag != default
        assert from_flag[0] == (1 if key == "corrupt_vn" else 0)

    def test_seed_env_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("DARBOUX_SEED", "12345")
        assert run("classify", "--levels", "1,2", "--nmax", "3") == 0


class TestGridAndOutputErrors:
    @pytest.fixture
    def no_exact_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact work started")

        monkeypatch.setattr("darboux.cli.build_transform", refuse)

    @pytest.mark.parametrize("command", ["verify", "transform", "spectrum"])
    def test_overflowing_width_rejected(self, command, no_exact_work, capsys):
        # Every end is finite but xmax - xmin is not: rejected before any
        # exact work and before numpy forms the grid and warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, "--levels", "3,4,7,8,9,10,11,12", "--nmax", "12",
                       "--xmin=-1e308", "--xmax=1e308", "--points", "3")
        err = capsys.readouterr().err
        assert code == 2
        assert "grid width on [-1e+308, 1e+308] is not a finite float" in err
        assert "Warning" not in err
        assert caught == []

    def test_too_few_points_rejected(self, no_exact_work, capsys):
        assert run("verify", "--levels", "1,2", "--points", "2") == 2
        assert "need at least 3 grid points" in capsys.readouterr().err

    def test_empty_interval_rejected(self, no_exact_work, capsys):
        assert run("verify", "--levels", "1,2", "--xmin", "3", "--xmax", "3") == 2
        assert "x_min must be below x_max" in capsys.readouterr().err

    def test_infinite_end_rejected(self, no_exact_work, capsys):
        assert run("spectrum", "--levels", "1,2", "--xmin=-inf") == 2
        assert "grid ends must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("xmax, h, power", [
        ("1e-170", "1e-171", 2),  # h * h underflows to 0
        ("1e-155", "1e-156", 2),  # 1/h^2 overflows
        ("1e-150", "1e-151", 4),  # 1/h^2 = 1e302 is finite, its square overflows
    ])
    def test_spectrum_spacing_without_finite_inverse_square_rejected(
            self, xmax, h, power, no_exact_work, capsys):
        assert run("spectrum", "--levels", "1,2", "--nmax", "2", "--xmin", "0",
                   "--xmax", xmax, "--points", "11") == 2
        assert (f"grid spacing h = {h} on [0.0, {xmax}] with --points 11 is too small: "
                f"1/h^{power} is not a finite float") in capsys.readouterr().err

    @pytest.mark.parametrize("command, xmax", [
        ("transform", "1e-170"),  # no Hamiltonian is built on the grid
        ("spectrum", "1e-76"),  # 1/h^4 = 1e308 is finite
    ])
    def test_tiny_spacing_accepted(self, command, xmax, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "build_transform", reached)
        with pytest.raises(Reached):
            run(command, "--levels", "1,2", "--nmax", "2", "--xmin", "0", "--xmax", xmax,
                "--points", "11")

    # The cap on float samples held at once, over a command's columns:
    # transform's CSV x, V0, VN and 7 survivors (built to print it or for
    # --out), spectrum's V0 and VN, verify's one image.  No grid is built, so
    # no oversized run is made, and no --out file is written.
    @pytest.mark.parametrize("command, columns", [
        (("transform", "--nmax", "8", "--format", "csv"), 10),
        (("transform", "--nmax", "8", "--format", "json", "--out", "unwritten"), 10),
        (("spectrum", "--nmax", "8"), 2),
        (("verify", "--nmax", "8"), 1),
    ])
    def test_oversized_grid_rejected(self, command, columns, no_exact_work, capsys):
        points = cli._MAX_SAMPLES // columns + 1
        assert run(*command, "--levels", "1,2", "--points", str(points)) == 2
        captured = capsys.readouterr()
        assert (f"invalid configuration: --points {points} is too many for {command[0]}: "
                f"{columns} columns of samples exceed the cap of {cli._MAX_SAMPLES} float "
                "samples") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, points", [
        (("transform", "--nmax", "8"), cli._MAX_SAMPLES // 10),
        (("verify", "--nmax", "8"), cli._MAX_SAMPLES),
        (("classify", "--nmax", "8"), 10 * cli._MAX_SAMPLES),  # samples nothing
        (("transform", "--nmax", "8"), 10 * cli._MAX_SAMPLES),  # JSON alone: no CSV
    ])
    def test_grid_at_the_cap_accepted(self, command, points, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "build_transform", reached)
        with pytest.raises(Reached):
            run(*command, "--levels", "1,2", "--points", str(points))

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "run"
        assert run("transform", "--levels", "1,2", "--nmax", "3", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "cannot write --out file" in captured.err
        assert captured.out == ""

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert run("classify", "--levels", "1,2", "--nmax", "3", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert "cannot write --out file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["transform", "verify", "spectrum", "classify"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_rejected(self, command, source, no_exact_work, tmp_path, monkeypatch,
                                capsys):
        # An empty path names no file: bad input, before any exact work,
        # whether it comes from the flag or from a config file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": ""}))
        given = ["--out="] if source == "flag" else ["--config", "cfg.json"]
        assert run(command, "--levels", "1,2", "--nmax", "3", *given) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "invalid configuration: --out is an empty path: it names no file to write\n"
        )
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestUnsampleableGrid:
    @pytest.mark.parametrize("command", [
        ("verify", "--nmax", "2"),
        ("transform", "--format", "csv"),
    ])
    def test_overflowing_grid_is_bad_input(self, command, tmp_path, capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(*command, "--levels", "1,2", "--xmin=-1e300", "--xmax=1e300",
                       "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert "[-1e+300, 1e+300]" in captured.err
        assert "RuntimeWarning" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_json_alone_samples_nothing(self, capsys):
        # Without --out, --format json builds no CSV, so a grid that cannot
        # be sampled does not matter.
        assert run("transform", "--levels", "1,2", "--format", "json",
                   "--xmin=-1e300", "--xmax=1e300") == 0
        wide = capsys.readouterr().out
        assert run("transform", "--levels", "1,2", "--format", "json") == 0
        assert capsys.readouterr().out == wide

    @pytest.mark.parametrize("ends, code", [(("-100", "100"), 0), (("-1e10", "1e10"), 1)])
    def test_wide_finite_grids_keep_their_codes(self, ends, code, capsys):
        xmin, xmax = ends
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("verify", "--levels", "1,2", "--nmax", "2",
                       f"--xmin={xmin}", f"--xmax={xmax}") == code
        capsys.readouterr()
