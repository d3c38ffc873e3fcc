from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quonlib import bounds
from quonlib.bounds import (BOSONIC, FERMIONIC, STATE_LIMIT,
                            _conservation_test_states, _fermi_limit_facts,
                            _matrix_elements, composite_q,
                            compositeness_overlap, conservation_residual,
                            conservation_residual_check, conservation_sweep,
                            propagate_statistics, q_from_v, v_from_q)
from quonlib.qfock import ANNIHILATOR, CREATOR, apply_terms, q_inner_product
from quonlib.qpoly import QPoly


def test_v_q_conversions_exact():
    assert q_from_v(0, FERMIONIC) == -1
    assert q_from_v(Fraction(1, 2), FERMIONIC) == 0
    assert q_from_v(0, BOSONIC) == 1
    assert q_from_v(Fraction(1, 4), BOSONIC) == Fraction(1, 2)
    for flavor in (FERMIONIC, BOSONIC):
        for v in (0, Fraction(1, 3), Fraction(9, 10), 1):
            assert v_from_q(q_from_v(v, flavor), flavor) == v


def test_conversion_validation():
    with pytest.raises(ValueError):
        q_from_v(2, FERMIONIC)
    with pytest.raises(ValueError):
        v_from_q(Fraction(3, 2), BOSONIC)
    with pytest.raises(ValueError):
        q_from_v(0, "anyonic")


def test_tiny_bound_survives_as_rational():
    # a 1.7e-27 fermionic bound must not collapse to q = -1
    v_f = Fraction(17, 10 ** 27)
    q_e = q_from_v(v_f, FERMIONIC)
    assert q_e == -1 + Fraction(34, 10 ** 27)
    assert q_e != -1
    assert float(q_e) == -1.0  # the float image does collapse; Fraction wins


def test_propagation_exact_and_leading():
    prop = propagate_statistics(Fraction(-1, 2))
    assert prop.q_bosonic_exact == Fraction(1, 4)
    eps = Fraction(1, 4)
    assert prop.v_bosonic_exact == 2 * eps * (1 - eps)
    assert prop.q_bosonic_leading == 1 - 4 * eps
    assert prop.v_bosonic_leading == 2 * eps


def test_propagation_of_tiny_bound():
    eps = Fraction(17, 10 ** 27)
    prop = propagate_statistics(-1 + 2 * eps)
    assert prop.q_bosonic_leading == 1 - 4 * eps
    assert prop.v_bosonic_leading == 2 * eps
    # exact and leading order differ at second order only
    assert prop.v_bosonic_exact == 2 * eps - 2 * eps ** 2


def test_composite_rule():
    assert composite_q(Fraction(1, 2), 2) == Fraction(1, 16)
    assert composite_q(-1, 3) == -1
    assert composite_q(-1, 2) == 1
    # even constituent counts flip fermions to bosons
    for n in range(1, 8):
        assert composite_q(-1, n) == (-1) ** n
    with pytest.raises(ValueError):
        composite_q(0, 0)
    # past [-1, 1] the power would not even have a float value
    with pytest.raises(ValueError, match="outside"):
        composite_q(3, 30)


def test_compositeness_overlap():
    exact, approx = compositeness_overlap(0.01, 0.03)
    assert approx == pytest.approx(4e-4)
    assert exact == pytest.approx(approx, rel=1e-3)
    assert compositeness_overlap(0.2, 0.2) == (pytest.approx(0.0), 0.0)
    with pytest.raises(ValueError):
        compositeness_overlap(1.0, 0.0)


def test_conservation_zero_at_fermi_point():
    rep = conservation_residual_check(Fraction(-1), max_particles=2)
    assert rep["all_zero"]
    assert rep["max_residual_exact"] == 0


def test_conservation_nonzero_away_from_limit():
    rep = conservation_residual_check(Fraction(-1, 2), max_particles=2)
    assert rep["max_residual_exact"] > 0


def test_conservation_momentum_validation():
    with pytest.raises(ValueError):
        conservation_residual_check(Fraction(-1), momenta=(1, 2, 3, 2))


def test_conservation_exactly_linear_in_qb_offset():
    # residual with q_b = q_e^2 +- delta is linear in the offset
    q_e = Fraction(-1, 2)
    base = q_e * q_e
    d1, d2 = Fraction(1, 100), Fraction(1, 200)
    r1 = conservation_residual_check(q_e, q_b=base + d1, max_particles=2)
    r2 = conservation_residual_check(q_e, q_b=base + d2, max_particles=2)
    r0 = conservation_residual_check(q_e, max_particles=2)
    e1 = r1["max_residual_exact"] - r0["max_residual_exact"]
    e2 = r2["max_residual_exact"] - r0["max_residual_exact"]
    assert e1 == 2 * e2


def test_conservation_sweep_slope():
    rep = conservation_sweep()
    assert rep["zero_at_fermi_limit"]
    assert rep["root_multiplicity"] == 1
    assert rep["first_order_slopes"] == [-2, 0, 2]
    assert rep["offset_residual"] == 1
    assert rep["controls_rejected"] == {"q_e": True, "999/1000": True}
    assert rep["passed"]
    assert rep["n_states"] == 84
    # one-particle states see no matrix element at all: no verdict
    rep = conservation_sweep(max_particles=1)
    assert rep["root_multiplicity"] is None and not rep["passed"]


def _residual_from_polynomials(per_state, q_e):
    return [(psi, max(abs(a(q_e) - q_e * q_e * b(q_e)) for a, b in pairs))
            for psi, pairs in per_state]


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
def test_polynomial_elements_give_the_fraction_residual(q_e):
    per_state = _matrix_elements((1, 2, 5, 9), 2, QPoly.q())
    assert _residual_from_polynomials(per_state, q_e) == \
        conservation_residual(q_e, (1, 2, 5, 9), max_particles=2)


def test_polynomial_elements_give_the_fraction_residual_at_three_particles():
    per_state = _matrix_elements((1, 2, 5, 9), 3, QPoly.q())
    for q_e in (Fraction(-1, 2), Fraction(-999, 1000), Fraction(-1)):
        assert _residual_from_polynomials(per_state, q_e) == \
            conservation_residual(q_e, (1, 2, 5, 9))


def test_conservation_gate_accepts_qb_one_at_fermi_limit_only(monkeypatch):
    q = QPoly.q()
    elements = [(a, b) for _, pairs in _matrix_elements((1, 2, 5, 9), 3, q)
                for a, b in pairs if a or b]
    # every q_b with q_b(-1) = 1 passes alike: q_e^2 is not singled out
    for q_b in (q * q, 1, -q, q ** 4):
        facts = _fermi_limit_facts(elements, q_b)
        assert facts["zero_at_fermi_limit"]
        assert facts["root_multiplicity"] == 1
        assert facts["passed"]
    # a control fails at q_e = -1 already, so no root is divided out
    monkeypatch.setattr(bounds, "_root_multiplicity", None)
    for q_b in (q, Fraction(999, 1000)):
        facts = _fermi_limit_facts(elements, q_b)
        assert not facts["zero_at_fermi_limit"]
        assert facts["root_multiplicity"] == 0
        assert not facts["passed"]


def test_conservation_offset_residual_at_fermi_limit():
    # A(-1) = B(-1), so a constant q_b leaves |1 - q_b| * max |B(-1)|
    offset = conservation_sweep(max_particles=2)["offset_residual"]
    for d in (Fraction(1, 1000), Fraction(-3, 7)):
        rep = conservation_residual_check(Fraction(-1), q_b=1 - d,
                                          max_particles=2)
        assert rep["max_residual_exact"] == abs(d) * offset


def test_conservation_input_validation():
    with pytest.raises(ValueError, match="max_particles"):
        conservation_residual_check(Fraction(-1), max_particles=0)
    with pytest.raises(ValueError, match="momenta"):
        conservation_residual_check(Fraction(-1), momenta=(1, 2))


def test_inner_numeric_matches_polynomial_oracle():
    q = Fraction(1, 3)
    for u, v in (((0, 1), (1, 0)), ((0, 0), (0, 0)), ((0, 1, 1), (1, 0, 1))):
        assert q_inner_product(u, v, q) == q_inner_product(u, v)(q)


def _all_pairs_elements(momenta, max_particles, q):
    """Oracle of _matrix_elements: the inner product of every test state
    with both images of every test state, matching labels or not."""
    states = _conservation_test_states(momenta, max_particles)
    k, l, p, r = momenta
    b1 = ((CREATOR, p), (ANNIHILATOR, k + p))
    b2 = ((CREATOR, l + r), (ANNIHILATOR, r))
    one = q ** 0

    def element(phi, image):
        total = 0 * one
        for word, c in image.items():
            inner = q_inner_product(phi, word, q)
            if inner:
                total = total + c * inner
        return total

    out = []
    for psi in states:
        ab = apply_terms(((b1 + b2, 1),), {psi: one}, q)
        ba = apply_terms(((b2 + b1, 1),), {psi: one}, q)
        out.append((psi, [(element(phi, ab), element(phi, ba))
                          for phi in states]))
    return out


@pytest.mark.parametrize("q", [QPoly.q(), Fraction(-1, 2), Fraction(-1)],
                         ids=["symbolic", "-1/2", "-1"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_label_matched_elements_equal_all_pairs(cap, q):
    fast = _matrix_elements((1, 2, 5, 9), cap, q)
    assert fast == _all_pairs_elements((1, 2, 5, 9), cap, q)
    # every skipped pair is an exact zero of the scalar ring of q
    zero = 0 * q ** 0
    assert all(type(a) is type(zero) and type(b) is type(zero)
               for _, pairs in fast for a, b in pairs)


def test_label_matched_elements_with_coinciding_modes():
    # p = l+r: three modes, and an image can hold a mode twice
    momenta = (1, 2, 11, 9)
    for q in (QPoly.q(), Fraction(1, 3)):
        assert _matrix_elements(momenta, 3, q) == \
            _all_pairs_elements(momenta, 3, q)


def test_conservation_state_limit_is_a_typed_error_before_any_work():
    # four modes: 1364 states at five particles, 5460 at six
    assert len(_conservation_test_states((1, 2, 5, 9), 5)) == STATE_LIMIT
    message = "exceeds the limit of 1364 test states"
    with pytest.raises(ValueError, match=message):
        conservation_sweep(max_particles=6)
    with pytest.raises(ValueError, match=message):
        conservation_residual_check(Fraction(-1, 2), max_particles=10 ** 9)
