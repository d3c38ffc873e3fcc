import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quonlib import observables as obs, parastat, qfock
from quonlib.observables import TruncatedFockSpace, transition_operator
from quonlib.qfock import apply_symbol, apply_terms
from quonlib.qpoly import QPoly


@pytest.fixture
def space():
    return TruncatedFockSpace(modes=(0, 1, 2), cap=3)


def test_space_basis(space):
    assert space.dim == 1 + 3 + 9 + 27
    assert () in space.basis
    assert len(space.states_below_cap()) == 1 + 3 + 9


def test_transition_operator_term_count(space):
    # depth d contributes len(modes)^d words
    terms = transition_operator(0, 1, 2, space.modes)
    assert len(terms) == 1 + 3 + 9
    word0, coeff0 = terms[0]
    assert word0 == (("c", 0), ("a", 1))
    assert coeff0 == 1


def test_depth_one_word_shape():
    (w,) = [w for w, _ in transition_operator(0, 1, 1, (2,))][1:]
    assert w == (("c", 2), ("c", 0), ("a", 1), ("a", 2))


def test_apply_terms_examples(space):
    n01 = transition_operator(0, 1, 2, space.modes)
    assert apply_terms(n01, {(1,): 1}, 0) == {(0,): 1}
    assert apply_terms(n01, {(): 1}, 0) == {}
    # the deep terms repair the leftmost-only annihilator action
    assert apply_terms(n01, {(2, 1): 1}, 0) == {(2, 0): 1}


def test_annihilator_leftmost_only():
    out = apply_symbol(("a", 1), {(1, 1): 1}, 0)
    assert out == {(1,): 1}
    assert apply_symbol(("a", 1), {(2, 1): 1}, 0) == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(tuple(range(m))),
    st.integers(0, m - 1), st.integers(0, m - 1), st.integers(0, 3),
    st.lists(st.integers(0, m - 1), max_size=4).map(tuple))))
def test_series_terms_keep_the_word_length(drawn):
    # as many creators as annihilators, the annihilators acting first: no
    # term takes a word past its length, so the action needs no cap
    modes, k, l, depth, word = drawn
    space = TruncatedFockSpace(modes=modes, cap=max(depth + 1, len(word)))
    energies = {m: Fraction(m + 1, 2) for m in modes}
    terms = (transition_operator(k, l, depth, modes)
             + obs.free_hamiltonian_terms(space, energies))
    for q in (0, QPoly.q()):
        for term in terms:
            out = apply_terms([term], {word: q ** 0}, q)
            assert all(len(w) == len(word) for w in out), term


def test_commutator_exact_at_sufficient_depth(space):
    for k in space.modes:
        for l in space.modes:
            for m in space.modes:
                rep = obs.check_transition_commutator(space, k, l, m)
                assert rep["exact"], (k, l, m)
                assert rep["depth"] == space.cap - 1
                assert rep["max_residual"] == 0


def test_shallow_depth_rejected(space):
    # one term short of cap - 1, the series misses a state below the cap:
    # so the checks take depth cap - 1 and no other
    assert obs.commutator_residual(space, 0, 1, 1, depth=space.cap - 2)


def test_undeepened_series_fails():
    # with no correction terms the commutator misses multi-particle states
    space = TruncatedFockSpace(modes=(0, 1), cap=2)
    res = obs.commutator_residual(space, 0, 1, 1, depth=0)
    assert res  # nonzero residual on at least one state


def test_free_hamiltonian_diagonal(space):
    energies = {0: Fraction(1, 2), 1: 2, 2: Fraction(7, 3)}
    rep = obs.check_free_hamiltonian(space, energies)
    assert rep["exact"]


def test_free_hamiltonian_missing_energy(space):
    with pytest.raises(ValueError):
        obs.free_hamiltonian_terms(space, {0: 1})


def test_locality_discrete(space):
    rep = obs.check_locality(space)
    assert rep["all_exact"]
    # every (x, y, w), the delta present (y = w) or not, and n_xy|0> = 0
    # for every (x, y)
    assert rep["commutators"]["triples"] == 27
    assert rep["commutators"]["all_exact"]
    assert rep["vacuum_failures"] == []


def test_locality_catches_a_series_that_moves_the_vacuum(space,
                                                        monkeypatch):
    # a bare creator term in n_01 leaves the vacuum moved
    def with_creator(k, l, depth, modes):
        terms = transition_operator(k, l, depth, modes)
        return terms + [((("c", k),), 1)] if (k, l) == (0, 1) else terms
    monkeypatch.setattr(obs, "transition_operator", with_creator)
    rep = obs.check_locality(space)
    assert rep["vacuum_failures"] == [(0, 1)]
    assert not rep["all_exact"]


def test_adjoint_pairs(space):
    # n_kl and n_lk are mutual adjoints in the q = 0 inner product, where
    # the Fock words are orthonormal
    for k, l in ((0, 1), (1, 2)):
        nkl = transition_operator(k, l, space.cap - 1, space.modes)
        nlk = transition_operator(l, k, space.cap - 1, space.modes)
        for u in space.basis:
            a = apply_terms(nkl, {u: 1}, 0)
            for v in space.basis:
                b = apply_terms(nlk, {v: 1}, 0)
                assert a.get(v, 0) == b.get(u, 0), (k, l, u, v)


@pytest.mark.parametrize("check, run", [
    ("commutator", obs.check_commutators),
    ("locality", obs.check_locality),
    ("hamiltonian", lambda space: obs.check_free_hamiltonian(
        space, {k: k + 1 for k in space.modes})),
])
@pytest.mark.parametrize("modes, cap", [(1, 1), (1, 3), (2, 2), (3, 2),
                                        (2, 3)])
def test_work_estimate_counts_every_term_application(monkeypatch, check, run,
                                                     modes, cap):
    # the estimate, made before the space is built, is 2 cap + 1 letters for
    # each term the check applies to each state, and no fewer than the
    # letters it applies
    estimates, applied, letters = [], [], []
    monkeypatch.setattr(obs, "refuse_past_work_limit",
                        lambda what, log_work, bits: estimates.append(
                            math.exp(log_work)))
    real = obs.apply_terms
    monkeypatch.setattr(obs, "apply_terms", lambda terms, state, q: (
        applied.append(len(terms) * len(state)) or real(terms, state, q)))
    symbol = qfock.apply_symbol
    monkeypatch.setattr(qfock, "apply_symbol", lambda sym, state, q: (
        letters.append(len(state)) or symbol(sym, state, q)))
    obs.refuse_past_limit(check, modes, cap)
    run(TruncatedFockSpace(modes=tuple(range(modes)), cap=cap))
    assert estimates == [pytest.approx((2 * cap + 1) * sum(applied),
                                       rel=1e-12)]
    assert estimates[0] >= sum(letters) > 0


def test_work_past_the_limit_is_refused_before_the_basis(monkeypatch):
    # 10 modes capped at 10 would list about 1.1e10 basis words first
    def refuse(*args, **kwargs):
        raise AssertionError("the space was built")
    monkeypatch.setattr(TruncatedFockSpace, "__init__", refuse)
    for check in ("commutator", "locality", "hamiltonian"):
        with pytest.raises(parastat.WorkLimitError,
                           match=f"observables --check {check} takes about "
                                 r"10\^"):
            obs.refuse_past_limit(check, 10, 10)
    # the README example and criterion 5's space are within it
    obs.refuse_past_limit("commutator", 3, 3)
