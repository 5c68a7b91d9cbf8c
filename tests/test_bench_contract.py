"""The stage benchmark reads darboux from outside; what it reads must hold.

``bench/spans.py`` and ``bench/workloads.py`` are loaded read-only (no
bytecode is written next to them).  The tracer patches darboux by name: a
plain name is looked up as a module attribute, ``Class.method`` as a key of
the class ``__dict__``, which is what the tracer's ``_patch`` reads.  It also
measures coefficient sizes through ``Poly.coeffs``.  The workloads' output
gates judge what the CLI writes.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import weighted_kernel, weighted_operator

import darboux
from darboux.cli import main
from darboux.oscillator import OscillatorModel
from darboux.transform import build_transform, kernel_functions

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"darboux_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans(monkeypatch):
    return _load("spans", monkeypatch)


@pytest.fixture
def workloads(monkeypatch):
    return _load("workloads", monkeypatch)


@pytest.fixture
def targets(spans):
    return spans.TARGETS


def test_every_traced_name_resolves(targets):
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"darboux.{layer}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                owner = getattr(module, cls_name, None)
                found = owner is not None and method in vars(owner)
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []


_TRACE_AFTER_CLI_IMPORT = """
import importlib.util, json, sys

sys.dont_write_bytecode = True
import darboux.cli

spec = importlib.util.spec_from_file_location("darboux_bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = spans
spec.loader.exec_module(spans)
with spans.Tracer():
    pass
missing = [layer for layer in spans.TARGETS if f"darboux.{layer}" not in sys.modules]
print(json.dumps({"missing": missing, "numpy": "numpy" in sys.modules}))
"""


def test_tracer_finds_every_layer_after_importing_only_the_cli():
    # bench/run.py imports darboux.cli alone and the tracer then reads each
    # traced layer from sys.modules: importing the CLI must load every layer
    # in TARGETS, and installing the tracer must not load numpy.
    src = str(Path(darboux.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _TRACE_AFTER_CLI_IMPORT, str(BENCH / "spans.py")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"missing": [], "numpy": False}


def test_coeff_bits_agree_with_transform_json(spans, capsys):
    # The tracer's max_coeff_bits reads .numerator/.denominator of each
    # Poly.coeffs entry; the transform JSON serialises the same rationals.
    tr = build_transform(OscillatorModel(), (2, 3, 6, 7))
    assert main(["transform", "--levels", "2,3,6,7", "--nmax", "7", "--points", "101"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ratfuns = [doc["potential_shift"], doc["partner_potential"], *doc["operator_coeffs"]]
    polys = [doc["wronskian_poly"], doc["wronskian_den"]]
    polys += [r[part] for r in ratfuns for part in ("num", "den")]
    bits = max(
        max(int(c["num"]).bit_length(), int(c["den"]).bit_length()) for p in polys for c in p
    )
    assert bits > 20
    assert spans._coeff_bits(tr) == bits


def test_spectrum_grid_gate_passes(workloads, tmp_path, capsys):
    # The larger spectrum-grid rung on (1,2): the deleted rows and the level
    # tolerance of the benchmark's output gate, on the reference grid.
    rung = workloads.WORKLOADS["spectrum-grid"].rungs[1]
    argv = workloads._argv(rung, (1, 2), tmp_path)
    assert argv[:5] == ("spectrum", "--levels", "1,2", "--nmax", "16")
    code = main(list(argv))
    stdout = capsys.readouterr().out
    outcome = workloads.check(workloads.Command(1, (1, 2), rung.nmax, argv), code, stdout, tmp_path)
    assert outcome.error is None
    assert 0.0 < outcome.level_error <= workloads.SPECTRUM_TOLERANCE


@pytest.mark.parametrize("rung_index", [0, 1], ids=["order6", "order8"])
def test_transform_gate_passes(workloads, rung_index, tmp_path, capsys):
    # One selection of each transform-high-order rung, with the rung's own
    # argv: the frozen JSON digest, stdout equal to the written JSON, and
    # the CSV's shape and finiteness.
    rung = workloads.WORKLOADS["transform-high-order"].rungs[rung_index]
    levels = rung.pool[0]
    assert len(levels) == 6 + 2 * rung_index
    argv = workloads._argv(rung, levels, tmp_path)
    code = main(list(argv))
    stdout = capsys.readouterr().out
    outcome = workloads.check(workloads.Command(rung_index, levels, rung.nmax, argv), code,
                              stdout, tmp_path)
    assert outcome.error is None


def test_plain_rows_match_the_weighted_rows_on_every_pool(workloads):
    # Every selection the benchmark times, orders 2 to 8: L and the adjoint
    # kernel solved on plain derivatives equal the weighted-row solve.
    model = OscillatorModel()
    pools = {levels for w in workloads.WORKLOADS.values() for rung in w.rungs
             for levels in rung.pool}
    assert sorted({len(levels) for levels in pools}) == [2, 4, 6, 8]
    for levels in sorted(pools):
        tr = build_transform(model, levels)
        assert tr.operator == weighted_operator(tr.functions, tr.base), levels
        assert kernel_functions(tr) == weighted_kernel(tr), levels
