"""The stage benchmark's tracer reads darboux from outside; what it reads must hold.

``bench/spans.py`` is loaded read-only (no bytecode is written next to it).
It patches darboux by name: a plain name is looked up as a module attribute,
``Class.method`` as a key of the class ``__dict__``, which is what the
tracer's ``_patch`` reads.  It also measures coefficient sizes through
``Poly.coeffs``.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from darboux.cli import main
from darboux.oscillator import OscillatorModel
from darboux.transform import build_transform

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("darboux_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
