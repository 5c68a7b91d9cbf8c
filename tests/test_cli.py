import json
import re
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from darboux import cli, susy
from darboux.cli import main, transform_to_json
from darboux.oscillator import OscillatorModel
from darboux.gaussian import DiffOp
from darboux.polynomial import Poly, RatFun
from darboux.transform import build_transform, crum_krein_apply


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
        # owner, its eigen-doublet: 9 doublets + 9 Q applications in the
        # anticommutator check.
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
        assert calls == {"adjoint": 1, "apply": 18}


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
    ], ids=["array", "nested-level", "null-nmax", "int-out", "xml-format", "bool-level",
            "unknown-key"])
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

    def test_too_few_points_rejected(self, no_exact_work, capsys):
        assert run("verify", "--levels", "1,2", "--points", "2") == 2
        assert "need at least 3 grid points" in capsys.readouterr().err

    def test_empty_interval_rejected(self, no_exact_work, capsys):
        assert run("verify", "--levels", "1,2", "--xmin", "3", "--xmax", "3") == 2
        assert "x_min must be below x_max" in capsys.readouterr().err

    def test_infinite_end_rejected(self, no_exact_work, capsys):
        assert run("spectrum", "--levels", "1,2", "--xmin=-inf") == 2
        assert "grid ends must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("ends, code", [(("-100", "100"), 0), (("-1e10", "1e10"), 1)])
    def test_wide_finite_grids_keep_their_codes(self, ends, code, capsys):
        xmin, xmax = ends
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("verify", "--levels", "1,2", "--nmax", "2",
                       f"--xmin={xmin}", f"--xmax={xmax}") == code
        capsys.readouterr()
