from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import pytest

from darboux import polynomial
from darboux.oscillator import OscillatorModel
from darboux.polynomial import Poly, WFun
from darboux.transform import build_transform


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
