from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quonlib.qpoly import QPoly

coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


def test_basic_arithmetic():
    q = QPoly.q()
    one = QPoly.one()
    assert (one + q) * (one - q) == QPoly([1, 0, -1])
    assert q ** 3 == QPoly.monomial(3)
    assert q ** 0 == one
    m = QPoly.monomial(2, Fraction(-3, 2))
    assert m ** 3 == m * m * m == QPoly.monomial(6, Fraction(-27, 8))
    assert (q - q).is_zero()
    assert QPoly([0, 0, 0]) == QPoly.zero()


def test_degree_and_leading():
    assert QPoly.zero().degree == -1
    assert QPoly([3]).degree == 0
    assert QPoly([1, 2, 0]).degree == 1


def test_exact_division():
    p = (QPoly.one() - QPoly.q()) ** 4
    d = QPoly.one() - QPoly.q()
    assert p.exact_div(d) == (QPoly.one() - QPoly.q()) ** 3
    with pytest.raises(ValueError):
        (QPoly.q() + 1).exact_div(QPoly.q())


def test_division_keeps_integer_coefficients():
    p = QPoly([2, 4, 2])
    out = p.exact_div(QPoly([2]))
    assert out == QPoly([1, 2, 1])
    assert all(isinstance(c, int) for c in out.coeffs)


def test_integral_fraction_coefficients_become_int():
    assert QPoly([Fraction(4, 2)]).coeffs == (2,)
    assert type(QPoly([Fraction(4, 2)]).coeffs[0]) is int
    assert QPoly([Fraction(1, 2), Fraction(3)]).coeffs == (Fraction(1, 2), 3)
    assert type(QPoly([Fraction(1, 2), Fraction(3)]).coeffs[1]) is int


def test_evaluation_exact_and_float():
    p = QPoly([1, -1, 2])
    assert p(Fraction(1, 2)) == Fraction(1) - Fraction(1, 2) + Fraction(1, 2)
    assert p(0.5) == pytest.approx(1.0)
    assert p(0) == 1


def test_str():
    assert str(QPoly.zero()) == "0"
    assert str(QPoly([1, 1])) == "1 + q"
    assert str(QPoly([0, -1, 2])) == "-q + 2*q^2"


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa + pb) + pc == pa + (pb + pc)


@given(coeff_lists, coeff_lists)
def test_multiply_then_divide(a, b):
    pa, pb = QPoly(a), QPoly(b)
    if pb.is_zero():
        return
    assert (pa * pb).exact_div(pb) == pa
