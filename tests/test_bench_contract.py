"""The stage benchmark's tracer patches darboux by name; every name must resolve.

``bench/spans.py`` is loaded read-only (no bytecode is written next to it).
A plain name is looked up as a module attribute, ``Class.method`` as a key
of the class ``__dict__``, which is what the tracer's ``_patch`` reads.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("darboux_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
