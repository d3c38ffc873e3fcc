import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# -- sparse kernels against dense oracles ---------------------------------


def dense_product(a, b):
    """Reference product: the schoolbook loop over every coefficient pair
    of two coefficient lists, zeros included."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def dense_power(a, e):
    """Reference power: e - 1 dense products of a with itself."""
    out = [1]
    for _ in range(e):
        out = dense_product(out, a)
    return out


def exact_coeffs(p):
    """The coefficients with their types: equal QPolys must agree in both."""
    return [(type(c), c) for c in p.coeffs]


small_fractions = st.fractions(-5, 5, max_denominator=7)
# mostly zeros, so that long zero runs sit between the nonzero terms
sparse_coeffs = st.lists(
    st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9),
              small_fractions),
    max_size=40)


@given(sparse_coeffs, sparse_coeffs)
def test_sparse_product_equals_dense_schoolbook(a, b):
    product = QPoly(a) * QPoly(b)
    assert exact_coeffs(product) == exact_coeffs(QPoly(dense_product(a, b)))


@given(sparse_coeffs, st.integers(0, 6),
       st.one_of(st.just(1), st.integers(-9, 9).filter(bool),
                 small_fractions.filter(bool)))
def test_product_with_a_monomial_equals_dense_schoolbook(a, j, c):
    # c = 1 takes the shift; every other c the general product
    monomial = [0] * j + [c]
    for product in (QPoly(a) * QPoly(monomial), QPoly(monomial) * QPoly(a)):
        assert exact_coeffs(product) == \
            exact_coeffs(QPoly(dense_product(a, monomial)))


@settings(deadline=None)
@given(st.one_of(st.just(0), st.integers(-4, 4), small_fractions),
       st.one_of(st.integers(-4, 4).filter(bool),
                 small_fractions.filter(bool)),
       st.integers(0, 3), st.integers(1, 4),
       st.one_of(st.integers(0, 3), st.integers(20, 40)))
def test_two_term_power_equals_repeated_multiplication(c0, c, shift, gap, e):
    coeffs = [0] * shift + [c0] + [0] * (gap - 1) + [c]
    power = QPoly(coeffs) ** e
    assert exact_coeffs(power) == exact_coeffs(QPoly(dense_power(coeffs, e)))


def test_two_term_power_edge_cases():
    one_minus_q2 = QPoly([1, 0, -1])
    assert one_minus_q2 ** 0 == QPoly.one()
    assert one_minus_q2 ** 1 == one_minus_q2
    assert one_minus_q2 ** 2 == QPoly([1, 0, -2, 0, 1])
    assert exact_coeffs(one_minus_q2 ** 300) == exact_coeffs(
        QPoly(dense_power([1, 0, -1], 300)))
    half = QPoly([Fraction(1, 2), Fraction(-3, 2)])
    assert exact_coeffs(half ** 7) == exact_coeffs(
        QPoly(dense_power(list(half.coeffs), 7)))
    assert QPoly.zero() ** 0 == QPoly.one()
    assert QPoly.zero() ** 3 == QPoly.zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zagier_determinant_equals_factor_by_factor_dense_expansion(n):
    from quonlib.gram import zagier_determinant
    fact = math.factorial(n)
    expanded = [1]
    for k in range(1, n):
        d = k * (k + 1)
        factor = dense_power([1] + [0] * (d - 1) + [-1], (n - k) * fact // d)
        expanded = dense_product(expanded, factor)
    assert exact_coeffs(zagier_determinant(n)) == exact_coeffs(
        QPoly(expanded))


@given(st.integers(1, 70).flatmap(
    lambda shift: st.tuples(
        st.just(shift),
        st.lists(st.integers(-(2 ** (shift - 1)) + 1, 2 ** (shift - 1) - 1),
                 max_size=8))))
def test_packed_round_trip(shift_coeffs):
    # every integer polynomial with |c| < 2^(shift - 1), zero and negative
    # ones included, reads back from its value at 2^shift
    shift, coeffs = shift_coeffs
    p = QPoly(coeffs)
    back = QPoly.from_packed(p(2 ** shift), shift)
    assert back == p
    assert back.coeffs == p.coeffs


def test_packed_examples():
    assert QPoly.from_packed(0, 4) == QPoly.zero()
    # 1 - 2^4 is 1 - q at q = 2^4
    assert QPoly.from_packed(1 - 16, 4) == QPoly([1, -1])
    assert QPoly.from_packed(7 + 7 * 16, 4) == QPoly([7, 7])
    # the balanced digits of base 16 run from -8 to 7, so 8 = -8 + 16
    assert QPoly.from_packed(8, 4) == QPoly([-8, 1])
    # no digit but 0 has |c| < 2^(shift - 1) below shift 2
    assert QPoly.from_packed(0, 1) == QPoly.zero()
    for shift in (0, 1):
        for value in (1, -1, 5):
            with pytest.raises(ValueError, match="no packed polynomial"):
                QPoly.from_packed(value, shift)


@pytest.mark.parametrize("coeff", [
    0, 1, -1, 7, 10 ** 30, -10 ** 30, Fraction(0), Fraction(3),
    Fraction(-4, 1), Fraction(1, 2), Fraction(-10 ** 30, 7), True, False],
    ids=repr)
def test_monomial_equals_the_normalised_list(coeff):
    # monomial builds its tuple without _normalize; the QPoly must be the
    # one the list constructor gives, coefficient types and repr included
    for power in [*range(41), -1]:
        m = QPoly.monomial(power, coeff)
        dense = QPoly([0] * power + [coeff])
        assert repr(m) == repr(dense)
        assert exact_coeffs(m) == exact_coeffs(dense)
        assert m == dense and hash(m) == hash(dense)


_EQ_CASES = [
    # (QPoly, other, equal)
    (QPoly([]), QPoly([]), True),
    (QPoly([]), QPoly([0, 0]), True),
    (QPoly([1, 2]), QPoly([1, 2]), True),
    (QPoly([1, 2]), QPoly([1, 2, 0, 0]), True),
    (QPoly([1, 2]), QPoly([1, 3]), False),
    (QPoly([0, 1]), QPoly.monomial(1), True),
    (QPoly([Fraction(1, 2)]), QPoly([Fraction(2, 4)]), True),
    (QPoly([Fraction(4, 2)]), QPoly([2]), True),
    (QPoly([]), 0, True),
    (QPoly([]), False, True),
    (QPoly([]), Fraction(0), True),
    (QPoly([1]), 1, True),
    (QPoly([1]), True, True),
    (QPoly([True]), 1, True),
    (QPoly([3]), Fraction(3), True),
    (QPoly([3]), 4, False),
    (QPoly([0, 1]), 0, False),
    (QPoly([0, 1]), 1, False),
    (QPoly([Fraction(1, 2)]), Fraction(1, 2), True),
    (QPoly([Fraction(1, 2)]), 1, False),
    # neither side compares a QPoly with a float or a str: unequal
    (QPoly([1]), 1.0, False),
    (QPoly([]), 0.0, False),
    (QPoly([1.5]), 1.5, False),
    (QPoly([1]), "1", False),
    (QPoly([]), "", False),
    (QPoly([]), None, False),
]


@pytest.mark.parametrize("p, other, equal", _EQ_CASES, ids=repr)
def test_equality_with_qpolys_numbers_and_other_types(p, other, equal):
    assert (p == other) is equal and (other == p) is equal
    assert (p != other) is not equal and (other != p) is not equal
