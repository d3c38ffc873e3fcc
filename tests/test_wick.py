import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quonlib.qfock import parse_word, vacuum_expectation
from quonlib.qpoly import QPoly
from quonlib.wick import (NonVEVWordError, enumerate_contractions,
                          wick_expectation)


def chords_cross(p, q):
    """Two chords interleave iff exactly one endpoint of one lies strictly
    between the endpoints of the other: the pair-by-pair reference for the
    crossing graphs enumerate_contractions reads as it places the chords."""
    (a1, c1), (a2, c2) = sorted(p), sorted(q)
    return (a1 < a2 < c1 < c2) or (a2 < a1 < c2 < c1)


def crossing_number(pairs):
    """Interleaving chord pairs, counted pair by pair: the reference for
    the number of edges of a diagram's crossing graph."""
    pairs = list(pairs)
    return sum(chords_cross(pairs[i], pairs[j])
               for i in range(len(pairs)) for j in range(i + 1, len(pairs)))


def test_single_pair():
    diagrams = enumerate_contractions(parse_word("a1 c1"))
    assert diagrams == [(((0, 1),), ())]
    assert wick_expectation(parse_word("a1 c1")) == QPoly.one()


def test_crossing_pair():
    diagrams = enumerate_contractions(parse_word("a1 a2 c1 c2"))
    assert diagrams == [(((0, 2), (1, 3)), ((0, 1),))]


def test_nested_pair():
    assert wick_expectation(parse_word("a1 a2 c2 c1")) == QPoly.one()


def test_repeated_mode_enumeration():
    diagrams = enumerate_contractions(parse_word("a1 a1 c1 c1"))
    assert len(diagrams) == 2
    assert sorted(len(edges) for _, edges in diagrams) == [0, 1]
    assert wick_expectation(parse_word("a1 a1 c1 c1")) == \
        QPoly.one() + QPoly.q()


def test_rejects_unbalanced_words():
    with pytest.raises(NonVEVWordError):
        enumerate_contractions(parse_word("a1 a1 c1"))
    with pytest.raises(NonVEVWordError):
        wick_expectation(parse_word("a1 a1 c1"))


def test_empty_word_has_one_empty_diagram():
    assert enumerate_contractions(()) == [((), ())]
    assert wick_expectation(()) == QPoly.one()


def test_no_matching_when_multisets_differ():
    assert enumerate_contractions(parse_word("a1 c2")) == []
    assert wick_expectation(parse_word("a1 c2")).is_zero()


def test_chords_cross():
    assert chords_cross((0, 2), (1, 3))
    assert not chords_cross((0, 3), (1, 2))
    assert not chords_cross((0, 1), (2, 3))


def test_anti_normal_form_crossings_count_coinversions():
    # all annihilators left of all creators, distinct labels: matchings
    # biject with permutations; chord i ends at the creator carrying its
    # label, so two chords cross exactly when the labels are in order
    n = 3
    word = tuple(("a", m) for m in range(n)) + tuple(("c", m) for m in range(n))
    diagrams = enumerate_contractions(word)
    assert len(diagrams) == 1  # distinct labels force the identity matching
    word_perms = set()
    for perm in itertools.permutations(range(n)):
        w = tuple(("a", m) for m in range(n)) + \
            tuple(("c", perm[m]) for m in range(n))
        (pairs, edges), = enumerate_contractions(w)
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        assert len(edges) == n * (n - 1) // 2 - inv
        word_perms.add(pairs)
    assert len(word_perms) == 6


def test_relabeling_invariance():
    rng = random.Random(7)
    for _ in range(30):
        npairs = rng.randint(1, 5)
        syms = []
        for _ in range(npairs):
            m = rng.randint(0, 3)
            syms.append(("a", m))
            syms.append(("c", m))
        rng.shuffle(syms)
        word = tuple(syms)
        relabel = {0: 7, 1: 5, 2: 9, 3: 2}
        mapped = tuple((k, relabel[m]) for k, m in word)
        assert wick_expectation(word) == wick_expectation(mapped)


@st.composite
def vev_words(draw, min_pairs=1, max_pairs=6):
    npairs = draw(st.integers(min_pairs, max_pairs))
    modes = draw(st.lists(st.integers(0, 3), min_size=npairs, max_size=npairs))
    syms = [("a", m) for m in modes] + [("c", m) for m in modes]
    return tuple(draw(st.permutations(syms)))


@settings(max_examples=150, deadline=None)
@given(vev_words())
def test_wick_matches_rewriting(word):
    assert wick_expectation(word) == vacuum_expectation(word)
    assert all(len(edges) == crossing_number(pairs)
               for pairs, edges in enumerate_contractions(word))


@settings(max_examples=150, deadline=None)
@given(vev_words(0, 7))
def test_edges_are_the_interleaving_chord_pairs(word):
    # the edges read from the between-masks against the pair-by-pair rule,
    # in the lexicographic order of the index pairs
    for pairs, edges in enumerate_contractions(word):
        assert edges == tuple((i, j) for i in range(len(pairs))
                              for j in range(i + 1, len(pairs))
                              if chords_cross(pairs[i], pairs[j]))


def test_crossing_number_helper():
    assert crossing_number([(0, 4), (1, 3), (2, 5)]) == 2


@settings(max_examples=150, deadline=None)
@given(vev_words(0, 7))
def test_histogram_equals_listed_diagrams(word):
    # the used-creator pass against the listing of every diagram
    diagrams = enumerate_contractions(word)
    listed = Counter(len(edges) for _, edges in diagrams)
    value = wick_expectation(word)
    assert {k: c for k, c in enumerate(value.coeffs) if c} == dict(listed)
    assert value(1) == len(diagrams)


def _q_factorial(n):
    out = QPoly.one()
    for k in range(1, n + 1):
        out = out * QPoly([1] * k)
    return out


@pytest.mark.parametrize("n", range(13))
def test_single_mode_moment_is_q_factorial(n):
    # <0| a^n a†^n |0> = [1]_q [2]_q ... [n]_q; at n = 12 that is 479001600
    # matchings, which the used-creator pass never lists
    word = (("a", 1),) * n + (("c", 1),) * n
    value = wick_expectation(word)
    assert value == _q_factorial(n)
    if n <= 10:
        assert value == vacuum_expectation(word)
