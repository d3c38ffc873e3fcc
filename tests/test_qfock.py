import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quonlib.qfock import (ANNIHILATOR, CREATOR, apply_symbol, fock_words,
                           parse_word, q_inner_product, vacuum_expectation)
from quonlib.qpoly import QPoly
from quonlib.wick import wick_expectation

Q = QPoly.q()
ONE = QPoly.one()


def _add_term(acc, word, coeff):
    cur = acc.get(word)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        acc.pop(word, None)
    else:
        acc[word] = new


def normal_order(word):
    """Reference: rewrite a word so every creator stands left of every
    annihilator, as a dict {normal-ordered word: QPoly}.

    Equal to the input modulo the defining relation.  Terminates because
    each rewrite strictly reduces the number of (annihilator, creator)
    inversions.
    """
    pending = {tuple(word): ONE}
    done = {}
    while pending:
        w, c = pending.popitem()
        i = next((i for i in range(len(w) - 1)
                  if w[i][0] == ANNIHILATOR and w[i + 1][0] == CREATOR), -1)
        if i < 0:
            _add_term(done, w, c)
            continue
        (_, k), (_, l) = w[i], w[i + 1]
        _add_term(pending, w[:i] + (w[i + 1], w[i]) + w[i + 2:], c * Q)
        if k == l:
            _add_term(pending, w[:i] + w[i + 2:], c)
    return done


def vev_word_for_inner_product(u, v):
    """The operator word whose vacuum expectation equals <u, v>."""
    return tuple((ANNIHILATOR, m) for m in reversed(tuple(u))) + \
        tuple((CREATOR, m) for m in v)


def test_parse_and_format():
    w = parse_word("a1 a2 c2 c1")
    assert w == (("a", 1), ("a", 2), ("c", 2), ("c", 1))
    # the tokens, formatted back, are the text
    assert " ".join(f"{kind}{mode}" for kind, mode in w) == "a1 a2 c2 c1"
    with pytest.raises(ValueError):
        parse_word("x3")
    with pytest.raises(ValueError):
        parse_word("c-1")


def test_normal_order_single_relation():
    # a_k a†_k -> 1 + q a†_k a_k
    out = normal_order(parse_word("a0 c0"))
    assert out == {(): ONE, parse_word("c0 a0"): Q}
    # different modes: no delta term
    out = normal_order(parse_word("a0 c1"))
    assert out == {parse_word("c1 a0"): Q}


def test_normal_order_is_normal_ordered():
    out = normal_order(parse_word("a0 a1 c0 c1 a0 c0"))
    for word in out:
        seen_annihilator = False
        for kind, _ in word:
            if kind == "a":
                seen_annihilator = True
            else:
                assert not seen_annihilator, word


def test_normal_order_constant_term():
    # a_k a_l a†_k a†_l with k != l: constant term is q (one crossing)
    out = normal_order(parse_word("a0 a1 c0 c1"))
    assert out.get(()) == Q


def test_vacuum_expectation_is_the_constant_term_of_normal_order():
    # only the empty word of a normal-ordered sum survives between vacua
    rng = random.Random(11)
    for _ in range(200):
        word = tuple((rng.choice((ANNIHILATOR, CREATOR)), rng.randint(0, 2))
                     for _ in range(rng.randint(0, 8)))
        assert vacuum_expectation(word) == \
            normal_order(word).get((), QPoly.zero())


hashable_labels = st.sampled_from([0, 1, 2, 10 ** 30, "x"])


@st.composite
def hashable_label_words(draw):
    """Words of up to 16 symbols, one annihilator and one creator per drawn
    label, in any order."""
    modes = draw(st.lists(hashable_labels, max_size=8))
    return tuple(draw(st.permutations(
        [(ANNIHILATOR, m) for m in modes] + [(CREATOR, m) for m in modes])))


@settings(max_examples=150, deadline=None)
@given(hashable_label_words())
def test_vacuum_expectation_on_any_hashable_label(word):
    value = vacuum_expectation(word)
    assert value == normal_order(word).get((), QPoly.zero())
    assert value == wick_expectation(word)


@pytest.mark.parametrize("pairs, modes", [(p, m) for p in range(3, 8)
                                          for m in range(1, 4)])
def test_vacuum_expectation_equals_wick_on_every_size_class(pairs, modes):
    # the size classes of the benchmark's words: 3-7 pairs over 1-3 modes,
    # until 20 words with a complete contraction have been checked
    rng = random.Random(pairs * 10 + modes)
    nonzero = 0
    while nonzero < 20:
        drawn = [rng.randrange(modes) for _ in range(pairs)]
        word = [(ANNIHILATOR, m) for m in drawn] + \
            [(CREATOR, m) for m in drawn]
        rng.shuffle(word)
        value = wick_expectation(word)
        assert vacuum_expectation(word) == value
        nonzero += bool(value)


def test_rewriting_does_no_polynomial_arithmetic(monkeypatch):
    words = [parse_word(t) for t in ("a0 c0", "a0 a1 c0 c1", "a0 a0 c0 c0",
                                     "a1 a0 a1 c1 c0 c1 a2 c2")]
    values = [vacuum_expectation(w) for w in words]

    def refuse(*args):
        raise AssertionError("QPoly arithmetic in the rewriting")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(QPoly, name, refuse)
    assert [vacuum_expectation(w) for w in words] == values


@pytest.mark.parametrize("n", range(8))
def test_single_mode_moment_against_normal_ordering(n):
    # a1^n c1^n has n! contractions, as many as the rewriting's
    # coefficient bound allows; normal_order never packs a polynomial
    word = (("a", 1),) * n + (("c", 1),) * n
    assert vacuum_expectation(word) == normal_order(word).get((), QPoly.zero())


def test_vacuum_expectation_examples():
    assert vacuum_expectation(parse_word("a0 c0")) == ONE
    assert vacuum_expectation(parse_word("a0 a1 c0 c1")) == Q
    assert vacuum_expectation(parse_word("a1 a0 c0 c1")) == ONE


def test_vev_vanishes_on_unbalanced_words():
    assert vacuum_expectation(parse_word("a0 c0 c0")).is_zero()
    assert vacuum_expectation(parse_word("c0 a0")).is_zero()


def annihilate(k, word):
    return apply_symbol(("a", k), {word: ONE}, Q)


def test_apply_annihilator_examples():
    assert annihilate(5, (5,)) == {(): ONE}
    assert annihilate(5, (7, 5)) == {(7,): Q}
    assert annihilate(5, (7,)) == {}
    assert annihilate(5, (5, 5)) == {(5,): ONE + Q}


def test_inner_product_examples():
    assert q_inner_product((5,), (5,)) == ONE
    assert q_inner_product((0, 1), (1, 0)) == Q
    assert q_inner_product((0, 0), (0, 0)) == ONE + Q
    assert q_inner_product((0,), (1,)).is_zero()
    assert q_inner_product((0, 1), (0,)).is_zero()


def test_inner_product_symmetric():
    words = list(itertools.product(range(2), repeat=3))
    for u in words:
        for v in words:
            assert q_inner_product(u, v) == q_inner_product(v, u)


def test_defining_relation_on_fock_words():
    # a_k a†_l - q a†_l a_k = delta_kl, exactly, on words up to length 5
    modes = range(3)
    words = [w for n in range(6)
             for w in itertools.product(modes, repeat=n)]
    for k in modes:
        for l in modes:
            for w in words:
                lhs = dict(annihilate(k, (l,) + w))
                for ww, c in annihilate(k, w).items():
                    key = (l,) + ww
                    lhs[key] = lhs.get(key, QPoly.zero()) - Q * c
                lhs = {ww: c for ww, c in lhs.items() if not c.is_zero()}
                assert lhs == ({w: ONE} if k == l else {})


def test_oracle_agreement_with_rewriting():
    # <u, v> equals the VEV of the assembled operator word
    words = [w for n in range(6)
             for w in itertools.product(range(2), repeat=n)]
    for u in words:
        for v in words:
            if len(u) + len(v) > 10:
                continue
            assert q_inner_product(u, v) == \
                vacuum_expectation(vev_word_for_inner_product(u, v))


def test_adjointness():
    # <a†_k u, v> = <u, a_k v> for basis words up to length 4
    words = [w for n in range(4)
             for w in itertools.product(range(2), repeat=n)]
    for k in range(2):
        for u in words:
            for v in words:
                lhs = q_inner_product((k,) + u, v)
                rhs = QPoly.zero()
                for w, c in annihilate(k, v).items():
                    rhs = rhs + c * q_inner_product(u, w)
                assert lhs == rhs


def test_degree_bound():
    # n-particle inner products have degree at most n(n-1)/2
    for n in range(1, 5):
        for u in itertools.product(range(2), repeat=n):
            for v in itertools.product(range(2), repeat=n):
                assert q_inner_product(u, v).degree <= n * (n - 1) // 2


def test_three_distinct_labels_are_linearly_independent():
    # the 6 orderings of 3 distinct creators have a nonsingular Gram matrix
    from quonlib.gram import det_gram_exact
    assert not det_gram_exact(3).is_zero()


fock_states = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=5).map(tuple),
    st.integers(-3, 3).filter(bool), max_size=4)


@settings(max_examples=60, deadline=None)
@given(fock_states, st.sampled_from("ac"), st.integers(0, 2),
       st.fractions(min_value=-1, max_value=1, max_denominator=50))
def test_action_is_the_same_over_every_scalar_ring(state, kind, mode, q):
    # exact Fraction q agrees with the QPoly action evaluated at q
    symbol = (kind, mode)
    poly = apply_symbol(symbol, {w: QPoly([c]) for w, c in state.items()},
                        Q)
    at_q = {w: c(q) for w, c in poly.items() if c(q) != 0}
    assert apply_symbol(symbol, state, q) == at_q
    # q = 0: an annihilator keeps only a leftmost match
    leftmost = {w[1:]: c for w, c in state.items() if w[:1] == (mode,)}
    want = leftmost if kind == "a" else {(mode,) + w: c
                                         for w, c in state.items()}
    assert apply_symbol(symbol, state, 0) == want


def fock_inner_product(u, v):
    """Oracle: <u, v> by the annihilator action in the QPoly ring."""
    state = {tuple(v): ONE}
    for m in u:
        state = apply_symbol((ANNIHILATOR, m), state, Q)
    return state.get((), QPoly.zero())


@st.composite
def words_with_repeated_labels(draw):
    """v uses up to four labels, each 1 to 4 times, 9 letters at most; u is
    an ordering of the same letters, or of letters one label away."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                  .filter(lambda c: sum(c) <= 9))
    letters = [label for label, c in enumerate(counts) for _ in range(c)]
    v = draw(st.permutations(letters))
    u = draw(st.permutations(letters))
    if draw(st.booleans()):
        u[draw(st.integers(0, len(u) - 1))] = draw(st.integers(0, 4))
    return tuple(u), tuple(v)


@settings(max_examples=150, deadline=None)
@given(words_with_repeated_labels())
def test_packed_inner_product_equals_the_fock_action(words):
    # the action on ints at q = 2^shift reads back as the QPoly-ring action:
    # no coefficient reaches past the product of the labels' factorials
    u, v = words
    assert q_inner_product(u, v) == fock_inner_product(u, v)


@pytest.mark.parametrize("modes, longest", [((0,), 0), ((0,), 4),
                                            ((0, 1, 2), 3), (range(3), 5),
                                            ((1, 2, 5, 9), 3)])
def test_fock_words_lists_as_the_three_listers_it_replaced(modes, longest):
    # the observables basis, the bounds conservation test states (no empty
    # word) and criterion 4's words, each as it was listed before
    basis = []
    for n in range(longest + 1):
        basis.extend(itertools.product(modes, repeat=n))
    states = []
    for n in range(1, longest + 1):
        states.extend(itertools.product(modes, repeat=n))
    words = []
    for n in range(longest + 1):
        words.extend(itertools.product(range(len(modes)), repeat=n))
    listed = fock_words(modes, longest)
    assert tuple(listed) == tuple(basis)
    assert listed[1:] == states
    assert fock_words(range(len(modes)), longest) == words
