import itertools
import math
import time
import tracemalloc
from functools import partialmethod

import numpy as np
import pytest

from quonlib import parastat, verify
from quonlib.parastat import (GreenRealization, WorkLimitError, build_green,
                              check_occupancy, check_trilinear,
                              check_vacuum_conditions, gentile_demo,
                              max_occupancy)


# -- reference oracles: the Kronecker-product build and the dense check ----


def _embed(op, site, nsites, levels):
    """Place a single-site operator at `site` in the tensor product
    (site 0 is the leftmost kron factor)."""
    out = np.array([[1.0]])
    for i in range(nsites):
        out = np.kron(out, op if i == site else np.eye(levels))
    return out


def kron_green_components(kind, p, modes, cap=None):
    """Green components as products of embedded single-site matrices, in
    the orthonormal basis, with each Klein sign applied as a dense parity
    matmul."""
    levels = 2 if kind == "parafermi" else cap + 1
    nsites = p * modes
    low = np.zeros((levels, levels))
    for n in range(1, levels):
        low[n - 1, n] = math.sqrt(n)
    parity = np.diag([(-1.0) ** n for n in range(levels)])
    components = {}
    for alpha in range(p):
        for k in range(modes):
            op = _embed(low, alpha * modes + k, nsites, levels)
            if kind == "parafermi":
                string = [alpha * modes + k2 for k2 in range(k)]
            else:
                string = range(alpha * modes)
            for s in string:
                op = _embed(parity, s, nsites, levels) @ op
            components[(alpha, k)] = op
    return components


def _basis(r):
    """(dense index, state code, occupations) of every basis state; the
    dense index reads site 0 as its most significant digit, as the kron
    reference does."""
    levels, nsites = r.cap + 1, r.order * r.modes
    width = r.cap.bit_length()
    for index, occ in enumerate(itertools.product(range(levels),
                                                  repeat=nsites)):
        yield index, sum(n << width * s for s, n in enumerate(occ)), occ


def _dense(r, act):
    """The matrix of a map of states, act(state), on the basis."""
    basis = list(_basis(r))
    index = {code: i for i, code, _ in basis}
    out = np.zeros((r.dim, r.dim))
    for i, code, _ in basis:
        for target, c in act({code: 1}).items():
            out[index[target], i] = c
    return out


def _unnormalized(r, matrix):
    """A matrix of the orthonormal basis in the basis (b†)^n |0>: the change
    of basis is diagonal, sqrt(prod_site n!)."""
    d = np.array([math.sqrt(math.prod(map(math.factorial, occ)))
                  for _, _, occ in _basis(r)])
    return matrix * d[None, :] / d[:, None]


def dense_trilinear_residual(r):
    """max |[[a†_k, a_l]_±, a†_m] - 2 delta_lm a†_k| over the protected
    columns, from the kron matrices taken to the unnormalized basis."""
    sign = 1.0 if r.kind == "parabose" else -1.0
    ref = kron_green_components(r.kind, r.order, r.modes, r.cap)
    a = {k: _unnormalized(r, sum(ref[(alpha, k)] for alpha in range(r.order)))
         for k in range(r.modes)}
    c = {k: _unnormalized(r, sum(ref[(alpha, k)]
                                 for alpha in range(r.order)).T)
         for k in range(r.modes)}
    values = set(r.protected_values())
    cols = [i for i, _, occ in _basis(r) if set(occ) <= values]
    worst = 0.0
    for k, l, m in itertools.product(range(r.modes), repeat=3):
        inner = c[k] @ a[l] + sign * (a[l] @ c[k])
        t = inner @ c[m] - c[m] @ inner
        if l == m:
            t = t - 2 * c[k]
        worst = max(worst, float(np.abs(t[:, cols]).max(initial=0.0)))
    return worst


BUILD_GRID = ([("parafermi", p, m, None) for p in (1, 2, 3) for m in (1, 2, 3)]
              + [("parabose", p, m, cap) for p, m, cap in
                 ((1, 1, 3), (1, 2, 4), (2, 1, 2), (2, 2, 1), (2, 2, 3),
                  (2, 3, 2), (3, 2, 1))])


@pytest.mark.parametrize("kind,p,modes,cap", BUILD_GRID)
def test_index_build_equals_kron_reference(kind, p, modes, cap):
    # the integer action is the kron reference after the diagonal change
    # of basis sqrt(prod_site n!), for a_k and for a†_k
    r = build_green(kind, p, modes, cap=cap)
    ref = kron_green_components(kind, p, modes, cap)
    for k in range(modes):
        a_k = sum(ref[(alpha, k)] for alpha in range(p))
        lower = _dense(r, lambda state: r.annihilate(k, state))
        upper = _dense(r, lambda state: r.create(k, state))
        assert np.array_equal(lower, np.round(lower))
        assert np.array_equal(upper, np.round(upper))
        assert np.allclose(lower, _unnormalized(r, a_k), atol=1e-12)
        assert np.allclose(upper, _unnormalized(r, a_k.T), atol=1e-12)


def test_build_allocates_nothing_of_size_dim():
    # the realization only describes its sites; a parafermi p = 40 on 40
    # modes has dimension 2^1600
    tracemalloc.start()
    try:
        r = build_green("parafermi", 40, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 12
    assert r.dim == 2 ** 1600
    assert not hasattr(r, "annihilators")


def _count_term_applications(monkeypatch):
    """Count the (component, code) pairs every call of the action meets."""
    count = [0]
    act = GreenRealization._act

    def counting(self, k, state, raising):
        count[0] += len(state) * self.order
        return act(self, k, state, raising)
    monkeypatch.setattr(GreenRealization, "create",
                        partialmethod(counting, raising=True))
    monkeypatch.setattr(GreenRealization, "annihilate",
                        partialmethod(counting, raising=False))
    return count


@pytest.mark.parametrize("kind,p,modes,cap", [
    ("parafermi", 2, 4, None), ("parafermi", 3, 3, None),
    ("parafermi", 8, 1, None), ("parabose", 1, 1, 300),
    ("parabose", 1, 2, 20), ("parabose", 2, 3, 2)])
def test_work_estimate_counts_the_term_applications(kind, p, modes, cap,
                                                    monkeypatch):
    # the estimate each check is refused by follows its work: within twice
    # for check_trilinear, whose M^2 and M terms it leaves out, and as an
    # upper bound for the vacuum conditions
    count = _count_term_applications(monkeypatch)
    r = build_green(kind, p, modes, cap=cap)
    rep = check_trilinear(r)
    estimate = max(rep["protected_states"], 1) * modes ** 3 * (p + 1) ** 3
    assert estimate / 8 <= count[0] <= 2 * estimate
    count[0] = 0
    check_vacuum_conditions(r)
    assert count[0] <= modes ** 2 * (p + 1) ** 2


@pytest.mark.parametrize("kind,p", [
    ("parafermi", 2), ("parafermi", 8), ("parabose", 2), ("parabose", 4)])
def test_occupancy_estimate_bounds_its_term_applications(kind, p,
                                                         monkeypatch):
    count = _count_term_applications(monkeypatch)
    check_occupancy(kind, p)
    sym = kind == "parafermi"
    estimate = (p + 1) ** 2 * p * (2 ** p if sym
                                   else math.factorial(p + 1) * p ** p)
    assert 0 < count[0] <= estimate


@pytest.mark.parametrize("check", [check_trilinear, check_vacuum_conditions])
def test_work_limit_refuses_before_any_work(check, monkeypatch):
    # parafermi p = 1000 on 1000 modes: dimension 2^(10^6), past the limit
    # for either check, refused before any state is formed
    count = _count_term_applications(monkeypatch)
    r = build_green("parafermi", 1000, 1000)
    t0 = time.perf_counter()
    with pytest.raises(WorkLimitError, match=r"takes about 10\^[\d.]+ term "
                       r"applications, past the limit of 20000000"):
        check(r)
    assert time.perf_counter() - t0 < 0.1
    assert count[0] == 0
    with pytest.raises(WorkLimitError, match="check_trilinear takes about "
                                             r"10\^8\.7 term applications"):
        check_trilinear(build_green("parafermi", 4, 4))


def test_work_estimate_weighs_the_code_width(monkeypatch):
    # parabose p = 100 on 40 modes: M^2 (p + 1)^2 = 1.6e7 term applications
    # either way, but at cap 10^6 each code is 80,000 bits (1250 words,
    # 12 s unweighed) and at cap 1 only 4000 bits, under CODE_WORDS
    count = _count_term_applications(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(WorkLimitError, match=r"check_vacuum_conditions takes "
                       r"about 10\^8\.2 term applications"):
        check_vacuum_conditions(build_green("parabose", 100, 40, cap=10 ** 6))
    assert time.perf_counter() - t0 < 0.1
    assert count[0] == 0
    monkeypatch.undo()
    rep = check_vacuum_conditions(build_green("parabose", 100, 40, cap=1))
    assert rep["pass"]
    assert rep["one_particle_constant"] == dict.fromkeys(range(40), 100)


CHECK_GRID = [("parafermi", 1, 2, None), ("parafermi", 2, 2, None),
              ("parafermi", 3, 2, None), ("parabose", 1, 2, 4),
              ("parabose", 2, 2, 3), ("parabose", 3, 1, 3)]


@pytest.mark.parametrize("kind,p,modes,cap", CHECK_GRID)
def test_column_check_matches_dense_reference(kind, p, modes, cap):
    r = build_green(kind, p, modes, cap=cap)
    rep = check_trilinear(r)
    want = dense_trilinear_residual(r)
    assert rep["max_residual"] == round(want)
    assert abs(rep["max_residual"] - want) <= 1e-9
    assert rep["exact"] == (rep["max_residual"] == 0)
    assert isinstance(rep["max_residual"], int)


def test_check_reports_the_columns_it_covers():
    rep = check_trilinear(build_green("parabose", 2, 2, cap=3))
    assert (rep["dim"], rep["protected_states"]) == (256, 16)
    # criterion 6's parabose case checks the vacuum column only
    details = verify.parastatistics()["details"]
    assert details["trilinear_parabose_columns"] == {
        "dim": 729, "protected_states": 1}
    rep = check_trilinear(build_green("parafermi", 2, 2))
    assert (rep["dim"], rep["protected_states"]) == (16, 16)
    # a parabose cap of 1 protects no state, so there is nothing to check
    with pytest.raises(ValueError, match="cap=1 is below 2 and protects"):
        check_trilinear(build_green("parabose", 2, 2, cap=1))


class _BrokenKlein(GreenRealization):
    """A realization whose one component, `broken`, has another string."""
    broken = None
    string = range(0)

    def klein_string(self, alpha, k):
        if (alpha, k) == self.broken:
            return self.string
        return super().klein_string(alpha, k)


def _broken(kind, p, modes, cap, broken, string):
    r = build_green(kind, p, modes, cap=cap)
    cls = type("Broken", (_BrokenKlein,),
               {"broken": broken, "string": string})
    return cls(kind=r.kind, order=p, modes=modes, cap=r.cap)


@pytest.mark.parametrize("kind,p,modes,cap,broken", [
    ("parafermi", 2, 2, None, (0, 1)),
    ("parabose", 2, 2, 3, (1, 0)),
    ("parabose", 2, 3, 2, (1, 2)),
])
def test_check_catches_a_wrong_sign_string(kind, p, modes, cap, broken):
    # drop the Klein string of one component: its relations to the other
    # components flip between commuting and anticommuting
    bad = _broken(kind, p, modes, cap, broken, range(0))
    assert bad.klein_string(*broken) != build_green(
        kind, p, modes, cap=cap).klein_string(*broken)
    rep = check_trilinear(bad)
    assert not rep["exact"]
    assert rep["max_residual"] >= 1


@pytest.mark.parametrize("kind,p,modes,cap", [
    ("parafermi", 2, 2, None), ("parabose", 2, 2, 3),
    ("parabose", 2, 3, 2)])
def test_check_catches_the_other_kinds_sign_strings(kind, p, modes, cap):
    # every component signed by the other kind's string
    r = build_green(kind, p, modes, cap=cap)
    other = "parabose" if kind == "parafermi" else "parafermi"

    class Swapped(GreenRealization):
        def klein_string(self, alpha, k):
            return GreenRealization(other, p, modes, 1).klein_string(alpha,
                                                                     k)
    rep = check_trilinear(Swapped(kind, p, modes, r.cap))
    assert rep["max_residual"] >= 1


@pytest.mark.parametrize("kind,p,modes,cap", [
    ("parafermi", 2, 2, None), ("parabose", 2, 2, 3),
    ("parabose", 3, 1, 3)])
def test_check_catches_a_wrong_inner_bracket_sign(kind, p, modes, cap):
    r = build_green(kind, p, modes, cap=cap)
    inner = -1 if kind == "parabose" else 1     # the other kind's bracket
    worst = max(max(map(abs, res.values()), default=0)
                for x in r.protected_states()
                for res in parastat._trilinear_residuals(r, {x: 1}, inner))
    assert worst >= 1


def test_protected_columns():
    r = build_green("parabose", 2, 2, cap=3)
    codes = list(r.protected_states())
    # two creations from a protected state stay within the cap of 3
    assert codes == [code for _, code, occ in _basis(r) if max(occ) <= 1]
    fermi = build_green("parafermi", 2, 2)
    assert list(fermi.protected_states()) == [
        code for _, code, _ in _basis(fermi)]


def test_build_validation():
    with pytest.raises(ValueError):
        build_green("bogus", 2, 2)
    with pytest.raises(ValueError):
        build_green("parabose", 2, 2)  # missing cap
    with pytest.raises(ValueError):
        build_green("parafermi", 2, 0)
    # any size builds; the checks refuse what they cannot afford
    r = build_green("parafermi", 4, 4)
    with pytest.raises(WorkLimitError):
        check_trilinear(r)
    assert issubclass(WorkLimitError, ValueError)
    assert build_green("parafermi", 2, 2, cap=1).cap == 1
    with pytest.raises(ValueError, match="cap=2"):
        build_green("parafermi", 2, 2, cap=2)  # a site holds one quantum


def _relation(r, x, word_terms):
    """sum of coeff * word on the basis state x, a word's last letter
    acting first, ('a', k) or ('c', k)."""
    out = {}
    for coeff, word in word_terms:
        v = {x: 1}
        for kind, k in reversed(word):
            v = (r.annihilate if kind == "a" else r.create)(k, v)
        out = parastat.combine((1, out), (coeff, v))
    return out


def test_parafermi_p1_is_fermi():
    r = build_green("parafermi", 1, 2)
    for x in r.protected_states():
        for k, l in itertools.product(range(2), repeat=2):
            assert _relation(r, x, [(1, [("a", k), ("a", l)]),
                                    (1, [("a", l), ("a", k)])]) == {}
            anti = _relation(r, x, [(1, [("a", k), ("c", l)]),
                                    (1, [("c", l), ("a", k)])])
            assert anti == ({x: 1} if k == l else {})


def test_parabose_p1_is_bose_below_cap():
    r = build_green("parabose", 1, 1, cap=4)
    for x in r.protected_states():
        comm = _relation(r, x, [(1, [("a", 0), ("c", 0)]),
                                (-1, [("c", 0), ("a", 0)])])
        assert comm == {x: 1}
    # at the cap a†|cap> = 0 breaks it, which is why only protected states
    # are asserted on
    assert _relation(r, 4, [(1, [("a", 0), ("c", 0)]),
                            (-1, [("c", 0), ("a", 0)])]) == {4: -4}


def test_canonical_relations_fail_on_a_dropped_string():
    bad = _broken("parafermi", 1, 2, None, (0, 1), range(0))
    assert not verify._canonical_relations_exact(bad)
    assert verify._canonical_relations_exact(build_green("parafermi", 1, 2))


def test_cross_component_relations():
    # parafermi: distinct components commute; parabose: anticommute
    rf = kron_green_components("parafermi", 2, 1)
    b0, b1 = rf[(0, 0)], rf[(1, 0)]
    assert np.allclose(b0 @ b1 - b1 @ b0, 0)
    rb = kron_green_components("parabose", 2, 1, cap=2)
    c0, c1 = rb[(0, 0)], rb[(1, 0)]
    assert np.allclose(c0 @ c1 + c1 @ c0, 0)


def test_trilinear_parafermi():
    for p in (1, 2):
        rep = check_trilinear(build_green("parafermi", p, 2))
        assert rep["exact"]
        assert rep["max_residual"] == 0


def test_trilinear_parabose_protected():
    rep = check_trilinear(build_green("parabose", 2, 2, cap=3))
    assert rep["exact"]
    assert rep["protected_only"]


def test_vacuum_constant_is_order():
    for kind, kwargs in (("parafermi", {}), ("parabose", {"cap": 2})):
        for p in (1, 2):
            rep = check_vacuum_conditions(build_green(kind, p, 2, **kwargs))
            assert rep["pass"]
            assert rep["one_particle_constant"] == {0: p, 1: p}
            assert rep["off_diagonal_residual"] == 0


def test_parafermi_occupancy_bound():
    # at most p quanta fit in any totally symmetric state
    r = build_green("parafermi", 2, 3)
    assert max_occupancy(r, (0, 0)) == 4
    assert max_occupancy(r, (0, 0, 0)) == 0
    assert max_occupancy(r, (0, 1, 2)) == 0
    assert max_occupancy(r, (0, 1, 2), symmetric=False) > 0


def test_parabose_antisymmetric_bound():
    r = build_green("parabose", 2, 3, cap=2)
    assert max_occupancy(r, (0, 1), symmetric=False) == 2
    assert max_occupancy(r, (0, 1, 2), symmetric=False) == 0
    # swapping two equal letters is odd: the antisymmetrized word vanishes
    assert max_occupancy(r, (0, 0), symmetric=False) == 0


def test_occupancy_of_p8_is_fast():
    # all 9! orderings of (0,)*9 are one ordering
    t0 = time.perf_counter()
    rep, passed = check_occupancy("parafermi", 8)
    assert time.perf_counter() - t0 < 1.0
    assert passed
    assert rep["norms"]["same_mode_n8"] == math.factorial(8) ** 2
    assert rep["norms"]["same_mode_n9"] == 0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_parabose_occupancy_at_cap_1_equals_a_larger_cap(p):
    # check_occupancy builds parabose at cap 1: the antisymmetrized
    # distinct-mode word never puts two quanta on one site
    rep, passed = check_occupancy("parabose", p)
    assert passed
    r = build_green("parabose", p, p + 1, cap=3)
    assert rep["norms"] == {
        f"distinct_modes_n{n}": max_occupancy(r, tuple(range(n)), False)
        for n in range(1, p + 2)}


def test_gentile_demo_quarter_turn():
    rep = gentile_demo(math.pi / 4)
    assert rep["gentile_allowed_norm_sq"] == pytest.approx(0.75)
    assert rep["gentile_forbidden_norm_sq"] == pytest.approx(0.25)
    assert rep["parafermi_sector_vanishes"]


def test_gentile_demo_trivial_rotation():
    rep = gentile_demo(0.0)
    # everything sits in the forbidden triple-occupancy pattern
    assert rep["gentile_allowed_norm_sq"] == pytest.approx(0.0)
    assert rep["parafermi_sector_vanishes"]


def test_gentile_allowed_formula():
    for theta in (0.3, 0.8, 1.2):
        rep = gentile_demo(theta)
        want = 1 - math.cos(theta) ** 6 - math.sin(theta) ** 6
        assert rep["gentile_allowed_norm_sq"] == pytest.approx(want)


def _dense_projected_norm(kind, p, modes, cap, word, symmetric):
    """Squared norm of (1/n!) sum over all n! orderings, from the kron
    reference in the orthonormal basis."""
    ref = kron_green_components(kind, p, modes, cap)
    creators = {k: sum(ref[(alpha, k)] for alpha in range(p)).T
                for k in set(word)}
    vacuum = np.zeros(len(ref[(0, 0)]))
    vacuum[0] = 1.0
    out = np.zeros_like(vacuum)
    for perm in itertools.permutations(range(len(word))):
        v = vacuum
        for i in reversed(perm):
            v = creators[word[i]] @ v
        sign = 1 if symmetric else (-1) ** parastat.inversions(perm)
        out = out + sign * v
    out = out / math.factorial(len(word))
    return float(out @ out)


def test_projected_state_symmetrizes():
    # one application per distinct ordering, weighted by its count, gives
    # the norm of the full n!-ordering sum, in either order of the word
    for kind, p, modes, cap, word, symmetric in [
            ("parafermi", 2, 2, None, (0, 1), True),
            ("parafermi", 2, 2, None, (0, 0, 1), True),
            ("parafermi", 2, 3, None, (0, 1, 2), False),
            ("parabose", 2, 3, 2, (0, 1), False),
            ("parabose", 2, 2, 2, (0, 0, 1), True)]:
        r = build_green(kind, p, modes, cap=cap)
        norm = max_occupancy(r, word, symmetric)
        assert norm == pytest.approx(
            _dense_projected_norm(kind, p, modes, cap, word, symmetric))
        assert max_occupancy(r, word[::-1], symmetric) == norm
