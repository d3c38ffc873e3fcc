from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quonlib import bounds, qfock
from quonlib.bounds import (BOSONIC, FERMIONIC, STATE_LIMIT,
                            _conservation_residual, _conservation_test_states,
                            _derivative_at, _fermi_gate, _matrix_elements,
                            composite_q, compositeness_overlap,
                            conservation_residual_check, conservation_sweep,
                            propagate_statistics, q_from_v, v_from_q)
from quonlib.qfock import (ANNIHILATOR, CREATOR, apply_symbol, apply_terms,
                           q_inner_product)
from quonlib.qpoly import QPoly

Q = QPoly.q()
MOMENTA = ((1, 2, 5, 9), (1, 2, 11, 9))   # four modes; three, p = l+r


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


def test_composite_refuses_a_power_past_the_bit_budget():
    # (1/2)^(n^2) has n^2 + 1 bits: the largest n within the budget is 1024
    assert composite_q(Fraction(1, 2), 1024) == Fraction(1, 2 ** (1024 ** 2))
    with pytest.raises(ValueError, match="past the budget of 1048576"):
        composite_q(Fraction(1, 2), 1025)
    with pytest.raises(ValueError, match="10000000000 bits"):
        composite_q(Fraction(1, 2), 100000)
    # powers of 0 and +-1 fit one bit, whatever n
    assert composite_q(-1, 10 ** 6) == 1
    assert composite_q(0, 10 ** 6) == 0
    assert composite_q(1, 10 ** 6) == 1


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


def _max_residual(q_e, q_b, max_particles):
    """The worst residual at any q_b, from the code beneath
    conservation_residual_check, which takes q_b = q_e^2."""
    elements = _matrix_elements((1, 2, 5, 9), max_particles)
    return max(v for _, v in _conservation_residual(elements, q_e, q_b))


def test_conservation_exactly_linear_in_qb_offset():
    # residual with q_b = q_e^2 +- delta is linear in the offset
    q_e = Fraction(-1, 2)
    base = q_e * q_e
    d1, d2 = Fraction(1, 100), Fraction(1, 200)
    r0 = conservation_residual_check(q_e, max_particles=2)
    assert r0["max_residual_exact"] == _max_residual(q_e, base, 2)
    e1 = _max_residual(q_e, base + d1, 2) - r0["max_residual_exact"]
    e2 = _max_residual(q_e, base + d2, 2) - r0["max_residual_exact"]
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
    rep = bounds._sweep(_matrix_elements((1, 2, 5, 9), 1))
    assert rep["root_multiplicity"] is None and not rep["passed"]


# -- oracles: the Fock action in the ring of an exact q, every pair formed --


def _inner_at(u, v, q):
    """<u, v> in the ring of q (a QPoly or an exact number), from the
    annihilator action on |v>."""
    zero = 0 * q ** 0
    if sorted(u) != sorted(v):
        return zero
    state = {tuple(v): q ** 0}
    for m in u:
        state = apply_symbol((ANNIHILATOR, m), state, q)
    return state.get((), zero)


def _all_pairs_elements(momenta, max_particles, q):
    """Oracle of _matrix_elements in the ring of q: the inner product of
    every test state with both images of every test state, matching labels
    or not, zero pairs kept."""
    states = _conservation_test_states(momenta, max_particles)
    k, l, p, r = momenta
    b1 = ((CREATOR, p), (ANNIHILATOR, k + p))
    b2 = ((CREATOR, l + r), (ANNIHILATOR, r))
    one = q ** 0

    def element(phi, image):
        return sum((c * _inner_at(phi, word, q) for word, c in image.items()),
                   0 * one)

    out = []
    for psi in states:
        ab = apply_terms(((b1 + b2, 1),), {psi: one}, q)
        ba = apply_terms(((b2 + b1, 1),), {psi: one}, q)
        out.append((psi, [(element(phi, ab), element(phi, ba))
                          for phi in states]))
    return out


def _fraction_residual(q_e, momenta, max_particles):
    """_conservation_residual from the Fraction-ring elements at q_e."""
    return [(psi, max(abs(a - q_e * q_e * b) for a, b in pairs))
            for psi, pairs in _all_pairs_elements(momenta, max_particles, q_e)]


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
def test_polynomial_elements_give_the_fraction_residual(q_e):
    elements = _matrix_elements((1, 2, 5, 9), 2)
    assert _conservation_residual(elements, q_e, q_e * q_e) == \
        _fraction_residual(q_e, (1, 2, 5, 9), 2)


def test_polynomial_elements_give_the_fraction_residual_at_three_particles():
    for momenta in MOMENTA:
        elements = _matrix_elements(momenta, 3)
        for q_e in (Fraction(-1), Fraction(-1, 2), Fraction(-999, 1000),
                    Fraction(1, 3)):
            assert _conservation_residual(elements, q_e, q_e * q_e) == \
                _fraction_residual(q_e, momenta, 3)


def _full_division_facts(elements, q_b):
    """Oracle of the sweep's Fermi-limit facts: every residual polynomial
    R = A - q_b B formed, and the full multiplicity of its root -1
    divided out."""
    nonzero = [r for r in (a - q_b * b for a, b in elements) if r]
    zero = all(r(-1) == 0 for r in nonzero)
    multiplicity = min((bounds._root_multiplicity(r, -1) for r in nonzero),
                       default=None) if zero else 0
    slopes = sorted({Fraction(_derivative_at(a - b, -1), b(-1))
                     for a, b in elements if b(-1)})
    offset = Fraction(max((abs(b(-1)) for _, b in elements), default=0))
    return {"zero_at_fermi_limit": zero,
            "root_multiplicity": multiplicity,
            "first_order_slopes": slopes,
            "offset_residual": offset}


def _gate(elements, q_b):
    values = [(a(-1), b(-1), _derivative_at(a, -1), _derivative_at(b, -1))
              for a, b in elements]
    return _fermi_gate(elements, values, q_b)


def _elements(momenta, cap):
    return [ab for _, pairs in _matrix_elements(momenta, cap) for ab in pairs]


QB_CHOICES = {"q^2": Q * Q, "1": QPoly.one(), "-q": -Q, "q^4": Q ** 4,
              "q": Q, "999/1000": QPoly([Fraction(999, 1000)])}


@pytest.mark.parametrize("momenta", MOMENTA, ids=["four-modes", "p=l+r"])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_fermi_gate_matches_full_division(cap, momenta):
    elements = _elements(momenta, cap)
    for name, q_b in QB_CHOICES.items():
        want = _full_division_facts(elements, q_b)
        assert _gate(elements, q_b) == (want["zero_at_fermi_limit"],
                                        want["root_multiplicity"]), name
    rep = bounds._sweep(_matrix_elements(momenta, cap))
    want = _full_division_facts(elements, Q * Q)
    assert {key: rep[key] for key in want} == want


def test_conservation_gate_accepts_qb_one_at_fermi_limit_only(monkeypatch):
    elements = _elements((1, 2, 5, 9), 3)
    # a simple root shows in R'(-1) != 0, so no root is divided out
    monkeypatch.setattr(bounds, "_root_multiplicity", None)
    # every q_b with q_b(-1) = 1 passes alike: q_e^2 is not singled out
    for name in ("q^2", "1", "-q", "q^4"):
        assert _gate(elements, QB_CHOICES[name]) == (True, 1), name
    # a control fails at q_e = -1 already
    for name in ("q", "999/1000"):
        assert _gate(elements, QB_CHOICES[name]) == (False, 0), name


def test_fermi_gate_divides_out_roots_only_without_a_simple_one(monkeypatch):
    # R = (1 + q)^2 and (1 + q)^3: every R'(-1) = 0, so the least
    # multiplicity comes from exact division
    calls = []
    real = bounds._root_multiplicity
    monkeypatch.setattr(bounds, "_root_multiplicity",
                        lambda poly, root: calls.append(poly) or
                        real(poly, root))
    double, triple = (1 + Q) ** 2, (1 + Q) ** 3
    elements = [(double, QPoly.zero()), (triple, QPoly.zero())]
    assert _gate(elements, Q * Q) == (True, 2)
    assert calls == [double, triple]
    monkeypatch.setattr(bounds, "_matrix_elements",
                        lambda momenta, cap: [((5,), elements)])
    rep = conservation_sweep()
    assert (rep["zero_at_fermi_limit"], rep["root_multiplicity"]) == (True, 2)
    assert not rep["passed"]
    # no nonzero residual at all: no multiplicity
    assert _gate([(Q * Q, QPoly.one())], Q * Q) == (True, None)


def test_conservation_offset_residual_at_fermi_limit():
    # A(-1) = B(-1), so a constant q_b leaves |1 - q_b| * max |B(-1)|
    offset = bounds._sweep(_matrix_elements((1, 2, 5, 9), 2))[
        "offset_residual"]
    for d in (Fraction(1, 1000), Fraction(-3, 7)):
        assert _max_residual(Fraction(-1), 1 - d, 2) == abs(d) * offset


def test_conservation_input_validation():
    with pytest.raises(ValueError, match="max_particles"):
        conservation_residual_check(Fraction(-1), max_particles=0)
    with pytest.raises(ValueError, match="momenta"):
        conservation_residual_check(Fraction(-1), momenta=(1, 2))


def test_inner_numeric_matches_polynomial_oracle():
    q = Fraction(1, 3)
    for u, v in (((0, 1), (1, 0)), ((0, 0), (0, 0)), ((0, 1, 1), (1, 0, 1)),
                 ((0, 1), (0, 2))):
        assert _inner_at(u, v, q) == q_inner_product(u, v)(q)
        assert _inner_at(u, v, Q) == q_inner_product(u, v)


def _label_matched_agree(momenta, cap, q):
    """_matrix_elements against the all-pairs oracle in the ring of q:
    symbolic, the nonzero pairs alike; at an exact q, the values that do
    not vanish there."""
    fast = _matrix_elements(momenta, cap)
    assert all(isinstance(a, QPoly) and isinstance(b, QPoly) and (a or b)
               for _, pairs in fast for a, b in pairs)
    if not isinstance(q, QPoly):
        fast = [(psi, [(a(q), b(q)) for a, b in pairs])
                for psi, pairs in fast]
    nonzero = [(psi, [(a, b) for a, b in pairs if a or b])
               for psi, pairs in fast]
    oracle = [(psi, [(a, b) for a, b in pairs if a or b])
              for psi, pairs in _all_pairs_elements(momenta, cap, q)]
    assert nonzero == oracle


EXACT_QS = {"symbolic": Q, "-1/2": Fraction(-1, 2), "-1": Fraction(-1)}


# cap 4, where the walk shares phi-prefixes, at the symbolic q only: the
# all-pairs oracle takes about 2 s there
@pytest.mark.parametrize("cap, q", [
    pytest.param(cap, q, id=f"{cap}-{name}")
    for cap in (1, 2, 3) for name, q in EXACT_QS.items()]
    + [pytest.param(4, Q, id="4-symbolic")])
def test_label_matched_elements_equal_all_pairs(cap, q):
    _label_matched_agree((1, 2, 5, 9), cap, q)


def _shared_prefix_applications(momenta, cap):
    """Annihilator applications on nonempty states that _matrix_elements
    makes if each acts once per (psi, phi-prefix, label) on each image,
    counted from the words alone.  The images take an a_r and an a_{k+p}
    each, the second only where psi holds the first's label; then every
    prefix some image word contains, as a multiset, is extended by every
    label the words containing it hold past it, once for each image with
    such a word."""
    k, l, p, r = momenta
    b1 = ((CREATOR, p), (ANNIHILATOR, k + p))
    b2 = ((CREATOR, l + r), (ANNIHILATOR, r))
    count = 0
    for psi in _conservation_test_states(momenta, cap):
        count += 2 + (r in psi) + (k + p in psi)
        images = [[Counter(w) for w in apply_terms(((word, 1),), {psi: 1}, 1)]
                  for word in (b1 + b2, b2 + b1)]
        prefixes = [()]
        for _ in psi:
            longer = []
            for prefix in prefixes:
                held = [[w - Counter(prefix) for w in image
                         if not Counter(prefix) - w] for image in images]
                labels = sorted({m for rest in held for w in rest for m in w})
                count += len(labels) * sum(map(bool, held))
                longer += [prefix + (m,) for m in labels]
            prefixes = longer
    return count


def test_each_annihilator_acts_once_per_psi_prefix_and_label(monkeypatch):
    # 7,572 applications at cap 4, where applying each phi's annihilators
    # to the images afresh took 10,016
    expected = _shared_prefix_applications((1, 2, 5, 9), 4)
    assert expected == 7572
    calls = []
    real = qfock.apply_symbol

    def spy(symbol, state, q):
        if symbol[0] == ANNIHILATOR and state:
            calls.append(symbol)
        return real(symbol, state, q)

    monkeypatch.setattr(qfock, "apply_symbol", spy)
    monkeypatch.setattr(bounds, "apply_symbol", spy, raising=False)
    _matrix_elements((1, 2, 5, 9), 4)
    assert len(calls) == expected


def test_label_matched_elements_with_coinciding_modes():
    # p = l+r: three modes, and an image can hold a mode twice
    for q in (Q, Fraction(1, 3)):
        _label_matched_agree((1, 2, 11, 9), 3, q)


def test_conservation_state_limit_is_a_typed_error_before_any_work():
    # four modes: 1364 states at five particles, 5460 at six
    assert len(_conservation_test_states((1, 2, 5, 9), 5)) == STATE_LIMIT
    message = "exceeds the limit of 1364 test states"
    with pytest.raises(ValueError, match=message):
        _matrix_elements((1, 2, 5, 9), 6)
    with pytest.raises(ValueError, match=message):
        conservation_residual_check(Fraction(-1, 2), max_particles=10 ** 9)
