"""Span tracer for the darboux modules, installed from outside the package.

Each traced function is replaced, in every darboux module that looks it up,
by a wrapper that records a span: name, start, end, parent span and command
id.  Spans stay in memory and are written out when the run ends.  Per-layer
metrics are derived from the spans of one pass.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Public functions traced in each layer.  A dotted name is a method of a
# class defined in that module.
TARGETS = {
    "cli": ["main"],
    "transform": [
        "krein_failure_index", "build_transform", "crum_krein_operator",
        "crum_krein_apply", "kernel_functions", "factorization_identity_check",
    ],
    "susy": ["eigen_doublet", "classify", "supercharge_apply", "anticommutator_check"],
    "oscillator": [
        "pair_wronskian_poly", "partner_potential_closed_form", "cross_polynomial",
        "partner_eigenfunction_closed_form", "golden_cross_check",
    ],
    "gaussian": [
        "derivative_table", "common_weight", "wronskian",
        "DiffOp.compose", "DiffOp.__call__", "DiffOp.adjoint",
    ],
    "polynomial": [
        "poly_gcd", "poly_lcm", "hermite_he", "sturm_real_root_count",
        "poly_det_bareiss", "det_cofactor", "ratfun_det",
    ],
    "spectral": [
        "sample", "build_hamiltonian", "eigenvalues_bisection",
        "eigenvector_inverse_iteration", "quadrature_simpson", "verify_spectrum",
    ],
}
LAYERS = tuple(TARGETS)

# Per-layer metric -> (span name, what to take from its spans).
SPAN_METRICS = {
    "polynomial.gcd_calls": ("polynomial.poly_gcd", "calls"),
    "polynomial.gcd_s": ("polynomial.poly_gcd", "s"),
    "polynomial.det_calls": ("polynomial.ratfun_det", "calls"),
    "polynomial.det_s": ("polynomial.ratfun_det", "s"),
    "polynomial.sturm_calls": ("polynomial.sturm_real_root_count", "calls"),
    "polynomial.sturm_s": ("polynomial.sturm_real_root_count", "s"),
    "gaussian.compose_calls": ("gaussian.DiffOp.compose", "calls"),
    "gaussian.compose_s": ("gaussian.DiffOp.compose", "s"),
    "gaussian.op_apply_s": ("gaussian.DiffOp.__call__", "s"),
    "gaussian.adjoint_s": ("gaussian.DiffOp.adjoint", "s"),
    "gaussian.wronskian_calls": ("gaussian.wronskian", "calls"),
    "gaussian.wronskian_s": ("gaussian.wronskian", "s"),
    "transform.build_transform_s": ("transform.build_transform", "s"),
    "transform.apply_calls": ("transform.crum_krein_apply", "calls"),
    "transform.apply_s": ("transform.crum_krein_apply", "s"),
    "transform.factorization_s": ("transform.factorization_identity_check", "s"),
    "transform.kernel_functions_s": ("transform.kernel_functions", "s"),
    "susy.anticommutator_s": ("susy.anticommutator_check", "s"),
    "oscillator.golden_s": ("oscillator.golden_cross_check", "s"),
    "spectral.verify_spectrum_s": ("spectral.verify_spectrum", "s"),
    "spectral.eigen_s": ("spectral.eigenvalues_bisection", "s"),
    "spectral.hamiltonian_s": ("spectral.build_hamiltonian", "s"),
    "spectral.sample_s": ("spectral.sample", "s"),
    "spectral.quadrature_s": ("spectral.quadrature_simpson", "s"),
}

# Metrics that count work rather than time it: two traced passes over the
# same commands must give exactly the same values.
PURE_COUNTS = (
    "polynomial.gcd_calls", "polynomial.det_calls", "gaussian.compose_calls",
    "transform.apply_calls", "transform.apply_distinct_ratio",
    "polynomial.wronskian_degree", "polynomial.max_coeff_bits",
)

METRIC_UNITS = {
    **{name: "count" if kind == "calls" else "s" for name, (_, kind) in SPAN_METRICS.items()},
    "transform.apply_distinct_ratio": "ratio",
    "polynomial.wronskian_degree": "degree",
    "polynomial.max_coeff_bits": "bit",
    "spectral.eigenvalues_found": "count",
    "spectral.max_level_err": "1",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _coeff_bits(tr) -> int:
    """Largest numerator or denominator bit length in the exact outputs."""
    ratfuns = [tr.wronskian.r, tr.shift, tr.partner_potential, *tr.operator.coeffs]
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for r in ratfuns for p in (r.num, r.den) for c in p.coeffs
    )


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and removes it."""

    def __init__(self):
        # One span is [name, start, end, parent index, command id, outermost];
        # outermost is False when a span of the same name encloses it.
        self.spans: list[list] = []
        # Facts the spans cannot carry, as (command id, key, value).
        self.facts: list[tuple] = []
        self.command = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, attrs in TARGETS.items():
            module = sys.modules[f"darboux.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, method, f"{layer}.{attr}")
                else:
                    self._patch_everywhere(getattr(module, attr), f"{layer}.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch_everywhere(self, fn, name: str) -> None:
        # Patch the name wherever a darboux module looks it up.
        wrapped = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "darboux" and not mod_name.startswith("darboux."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        spans, stack, depth, facts = self.spans, self._stack, self._depth, self.facts
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, depth[name] == 0]
            spans.append(record)
            stack.append(index)
            depth[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if observe is not None:
                facts.extend((self.command, key, value) for key, value in observe(args, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["index", "name", "start", "end", "parent", "command", "outermost"]) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span]) + "\n")


_OBSERVERS = {
    "transform.build_transform": lambda args, tr: [
        ("wronskian_degree", tr.wronskian.r.num.degree()),
        ("max_coeff_bits", _coeff_bits(tr)),
    ],
    "transform.crum_krein_apply": lambda args, image: [
        ("apply_input", (args[0].selection.levels, args[1])),
    ],
    "spectral.eigenvalues_bisection": lambda args, eigs: [("eigenvalues", len(eigs))],
}


def layer_metrics(spans: list[list], first: int, facts: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass: ``spans[first:]`` and its facts."""
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    child_time: defaultdict = defaultdict(float)
    for name, start, end, parent, _command, _outer in spans[first:]:
        child_time[parent] += end - start
    for index in range(first, len(spans)):
        name, start, end, _parent, _command, outermost = spans[index]
        calls[name] += 1
        if outermost:
            inclusive[name] += end - start
        self_time[name.split(".")[0]] += end - start - child_time[index]
    metrics: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        metrics[metric] = calls[span] if kind == "calls" else inclusive[span]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]

    by_key = defaultdict(list)
    for command, key, value in facts:
        by_key[key].append((command, value))
    distinct = {(command, value) for command, value in by_key["apply_input"]}
    n_apply = len(by_key["apply_input"])
    metrics["transform.apply_distinct_ratio"] = len(distinct) / n_apply if n_apply else 0.0
    metrics["polynomial.wronskian_degree"] = max((v for _, v in by_key["wronskian_degree"]), default=0)
    metrics["polynomial.max_coeff_bits"] = max((v for _, v in by_key["max_coeff_bits"]), default=0)
    metrics["spectral.eigenvalues_found"] = sum(v for _, v in by_key["eigenvalues"])
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Lower median of each metric, so a count stays one of its samples."""
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
