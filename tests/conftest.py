from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import pytest

from darboux import polynomial
from darboux.gaussian import DiffOp, GaussFun
from darboux.oscillator import OscillatorModel
from darboux.polynomial import Poly, WBase, WFun, cramer_numerators
from darboux.transform import TransformResult, build_transform


@pytest.fixture(scope="session")
def model():
    return OscillatorModel()


@pytest.fixture(scope="session")
def tr12(model):
    return build_transform(model, (1, 2))


@pytest.fixture(scope="session")
def tr01(model):
    return build_transform(model, (0, 1))


@contextmanager
def _counted_gcd_routes():
    heu, prs, unpack = polynomial._heu_gcd, polynomial._prs_gcd, polynomial._unpack_symmetric
    counts = Counter()
    # The solver in ``cramer_numerators`` reads its values back by the same
    # digit pass; only the heuristic's calls count as its points.
    in_heu = []

    def counted_heu(x, y):
        counts["heuristic"] += 1
        in_heu.append(True)
        try:
            g = heu(x, y)
        finally:
            in_heu.pop()
        counts["accepted" if g is not None else "fallback"] += 1
        return g

    def counted_prs(x, y):
        counts["prs"] += 1
        return prs(x, y)

    def counted_unpack(v, nbytes):
        counts["points"] += bool(in_heu)
        return unpack(v, nbytes)

    with patch.object(polynomial, "_heu_gcd", counted_heu), \
            patch.object(polynomial, "_prs_gcd", counted_prs), \
            patch.object(polynomial, "_unpack_symmetric", counted_unpack):
        yield counts


@pytest.fixture(scope="session")
def gcd_routes():
    """A context manager counting the routes ``poly_gcd`` takes inside it:
    ``heuristic`` entries, their ``accepted`` and ``fallback`` results, the
    heuristic's evaluation ``points`` and the remainder-sequence runs
    (``prs``)."""
    return _counted_gcd_routes


def fr(num, den=1) -> Fraction:
    return Fraction(num, den)


def value_at(f: Poly | WFun, x) -> Fraction:
    """f(x) exactly, for a Poly or a WFun at a rational x: Fraction Horner
    on the canonical numerator and denominator.  The tests' one exact
    evaluator; the program evaluates only on floats (``spectral.sample``)."""
    x = Fraction(x)
    num, den = (f, Poly.one()) if isinstance(f, Poly) else f.canonical()

    def horner(p: Poly) -> Fraction:
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    return horner(num) / horner(den)


def _weighted_rows(functions, order: int) -> list[list[Poly]]:
    """Row i: the polynomial parts of u_i, u_i', ..., u_i^(order), the
    weighted derivatives (d + s x/2)^m p_i that ``GaussFun.derivatives``
    takes, of degree deg p_i + m."""
    return [[g.r.p for g in u.derivatives(order)] for u in functions]


def _weighted_solve(rows, base: WBase) -> list[WFun]:
    det, ys = cramer_numerators(rows)
    lead = det.lead()
    assert det == base.W * lead
    return [base.over(y * (1 / lead), 1) for y in ys]


def weighted_operator(functions, base: WBase) -> DiffOp:
    """L from L u_i = 0 solved on the weighted rows, sum_m a_m u_i^(m) =
    -u_i^(N) over the shared exp(s x^2/4): no change of derivative, so the
    oracle for ``crum_krein_operator``'s plain rows and conjugation."""
    n = len(functions)
    rows = _weighted_rows(functions, n)
    for row in rows:
        row[n] = -row[n]
    return DiffOp(_weighted_solve(rows, base) + [base.lift(1)])


def weighted_kernel(tr: TransformResult) -> list[GaussFun]:
    """v_k = W(u without u_k) / W(u) by Cramer's rule on the weighted
    Wronskian matrix: the oracle for ``kernel_functions``' plain one."""
    n = tr.order
    columns = _weighted_rows(tr.functions, n - 1)
    rows = [
        [col[m] for col in columns] + [Poly.one() if m == n - 1 else Poly.zero()]
        for m in range(n)
    ]
    weight = -tr.bordered.weight
    return [
        GaussFun(v if (n - 1 - k) % 2 == 0 else -v, weight)
        for k, v in enumerate(_weighted_solve(rows, tr.base))
    ]
