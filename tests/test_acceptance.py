"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from darboux.gaussian import DiffOp, wronskian
from darboux.oscillator import (
    OscillatorModel,
    pair_wronskian_poly,
    partner_eigenfunction_closed_form,
    partner_potential_closed_form,
)
from darboux.polynomial import Poly, sturm_real_root_count
from darboux.spectral import (
    Grid,
    REFERENCE_GRID,
    TridiagMatrix,
    build_hamiltonian,
    eigenvalues_bisection,
    quadrature_simpson,
    sample,
)
from darboux.susy import anticommutator_check, classify, eigen_doublet
from darboux.transform import (
    InadmissibleSelection,
    build_transform,
    crum_krein_apply,
    factorization_identity_check,
    kernel_functions,
    krein_admissible,
)

FACTORIZATION_SELECTIONS = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 2, 5, 6)]


@pytest.fixture(scope="module")
def model():
    return OscillatorModel()


@pytest.fixture(scope="module")
def transforms(model):
    return {levels: build_transform(model, levels) for levels in FACTORIZATION_SELECTIONS}


def _report(index, ok, detail):
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_factorization(transforms):
    start = time.perf_counter()
    for levels, tr in transforms.items():
        report = factorization_identity_check(tr)
        assert report.base_ok, f"L+L identity fails for {levels}"
        assert report.partner_ok, f"LL+ identity fails for {levels}"
    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 5.0,
        f"both factorization identities exact for {FACTORIZATION_SELECTIONS} "
        f"in {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_2_golden_closed_forms(model):
    frozen = {0: Poly.one(), 1: Poly((1, 0, 1)), 2: Poly((3, 0, 0, 0, 1))}
    for k in range(5):
        tr = build_transform(model, (k, k + 1))
        assert tr.partner_potential == partner_potential_closed_form(k), f"potential k={k}"
        w, p_k = tr.wronskian.r, pair_wronskian_poly(k)
        ratio = w.p.lead() / p_k.lead()
        assert w.k == 0 and w == ratio * p_k and ratio != 0, f"Wronskian k={k}"
        if k in frozen:
            assert pair_wronskian_poly(k) == frozen[k]
    _report(2, True, "engine potentials and Wronskians equal the closed forms for k=0..4")


def test_criterion_3_kernel_identities(model, transforms):
    for levels, tr in transforms.items():
        adjoint = tr.operator.adjoint()
        h_partner = tr.hamiltonian_partner()
        for u in tr.functions:
            assert crum_krein_apply(tr, u).is_zero, f"L u != 0 for {levels}"
        for alpha, v in zip(tr.selection.alphas, kernel_functions(tr)):
            assert adjoint(v).is_zero, f"L+ v != 0 for {levels}"
            assert (h_partner(v) - alpha * v).is_zero, f"(hN - alpha) v != 0 for {levels}"
    _report(3, True, "kernel and adjoint-kernel identities exact for all tested selections")


def test_criterion_4_level_deletion_numeric(model, transforms):
    start = time.perf_counter()
    tr = transforms[(1, 2)]
    t0 = build_hamiltonian(sample(tr.base_potential, REFERENCE_GRID), REFERENCE_GRID)
    tn = build_hamiltonian(sample(tr.partner_potential, REFERENCE_GRID), REFERENCE_GRID)
    base = eigenvalues_bisection(t0, 8)
    partner = eigenvalues_bisection(tn, 8)
    base_expected = list(range(8))
    partner_expected = [0, 3, 4, 5, 6, 7, 8, 9]
    base_err = max(abs(a - b) for a, b in zip(base, base_expected))
    partner_err = max(abs(a - b) for a, b in zip(partner, partner_expected))
    elapsed = time.perf_counter() - start
    _report(
        4,
        base_err <= 5e-3 and partner_err <= 5e-3 and elapsed < 10.0,
        f"deleted pair k=1: base spectrum err {base_err:.2e}, partner err "
        f"{partner_err:.2e} (<= 5e-3) in {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_5_normalization_and_norm_transport(model, transforms):
    tr = transforms[(1, 2)]
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    worst_norm = 0.0
    for n in (0, 3, 4):
        bracket, norm = partner_eigenfunction_closed_form(1, n)
        values = sample(bracket, REFERENCE_GRID) / math.sqrt(norm.to_float())
        integral = quadrature_simpson(values**2, REFERENCE_GRID)
        worst_norm = max(worst_norm, abs(integral - 1.0))
    worst_transport = 0.0
    for n in (0, 3, 4):
        expected = (n - 1) * (n - 2)
        image = crum_krein_apply(tr, model.eigenfunction(n))
        integral = quadrature_simpson(sample(image, REFERENCE_GRID) ** 2, REFERENCE_GRID)
        got = integral / (math.factorial(n) * sqrt_2pi)
        worst_transport = max(worst_transport, abs(got - expected) / expected)
    _report(
        5,
        worst_norm <= 1e-4 and worst_transport <= 1e-6,
        f"unit norms within {worst_norm:.2e} (<= 1e-4); norm transport within "
        f"{worst_transport:.2e} relative (<= 1e-6)",
    )


def test_criterion_6_susy_classification(model, transforms):
    tr = transforms[(1, 2)]
    result = classify(model, tr, n_max=5)
    singlets = {n for n, tag in result.tags.items() if tag == "singlet"}
    assert result.vacuum_energy == Fraction(1)
    assert singlets == {1, 2}
    assert result.tags[0] == "doublet" and 0 in result.below_vacuum
    report = anticommutator_check(tr, {0: eigen_doublet(model, tr, 0)})
    assert report.ok and report.checks[0].factor == 2
    _report(
        6,
        True,
        "vacuum energy 1, singlets {1, 2}, doublet below the vacuum at E=0, "
        "anticommutator factor 2 exact",
    )


def test_criterion_7_admissibility_oracles_agree(model):
    attempted = 0
    for size in range(1, 5):
        for sel in combinations(range(7), size):
            admissible = krein_admissible(sel)
            if size == 1 and sel[0] >= 1:
                assert not admissible, f"singleton {sel} must be rejected"
            funcs = [model.eigenfunction(k) for k in sel]
            w = wronskian(funcs)
            nodes = (
                sturm_real_root_count(w.r.num) if w.r.num.degree() > 0 else 0
            )
            if admissible:
                build_transform(model, sel)  # must succeed, Sturm-certified inside
                assert nodes == 0, f"admissible {sel} has a noded Wronskian"
                attempted += 1
            else:
                assert nodes > 0, f"inadmissible {sel} has a node-free Wronskian"
                with pytest.raises(InadmissibleSelection):
                    build_transform(model, sel)
    _report(
        7,
        True,
        f"Krein scan and Sturm certificate agree on all {attempted} admissible "
        "subsets of {0..6} with size <= 4; all others rejected",
    )


def test_criterion_8_property_suites(model):
    # bordered Wronskian vs determinant-expansion operator, 20 seeded pairs
    rng = random.Random(101)
    pool = [(0,), (0, 1), (1, 2), (2, 3), (3, 4), (0, 1, 2), (2, 3, 4, 5), (1, 2, 5, 6)]
    cache = {}
    for _ in range(20):
        levels = rng.choice(pool)
        if levels not in cache:
            cache[levels] = build_transform(model, levels)
        n = rng.randint(0, 8)
        crum_krein_apply(cache[levels], model.eigenfunction(n))  # asserts agreement

    # adjoint involution and anti-homomorphism on random operators
    for _ in range(10):
        a = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
        b = DiffOp([Poly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(1, 4))])
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())

    # bisection vs dense oracle on random 20x20 tridiagonals
    np_rng = np.random.default_rng(2468)
    worst = 0.0
    for _ in range(5):
        t = TridiagMatrix(np_rng.uniform(-2, 2, 20), np_rng.uniform(-1, 1, 19))
        mine = np.array(eigenvalues_bisection(t, 20))
        dense = eigvalsh_tridiagonal(t.diag, t.off)
        worst = max(worst, float(np.max(np.abs(mine - dense))))
    assert worst < 1e-9, f"dense-oracle deviation {worst:.2e}"

    # halving h improves oscillator eigenvalues by about 4x
    errors = []
    for points in (601, 1201):
        g = Grid(-12.0, 12.0, points)
        t = build_hamiltonian(sample(model.potential, g), g)
        eigs = eigenvalues_bisection(t, 4)
        errors.append([abs(eigs[n] - n) for n in range(4)])
    ratios = [coarse / fine for coarse, fine in zip(*errors)]
    assert all(3.5 < r < 4.5 for r in ratios), f"convergence ratios {ratios}"

    _report(
        8,
        True,
        f"bordered = minors on 20 pairs; adjoint laws hold; dense-oracle "
        f"deviation {worst:.1e} (< 1e-9); h-halving ratios {[f'{r:.2f}' for r in ratios]}",
    )
