"""Contraction-diagram evaluation of quon vacuum expectation values.

Each complete contraction pairs every annihilator with a creator of the
same mode standing to its right; drawing the chords above the axis, the
term contributes q^(number of interleaving chord pairs).  This is an
independent combinatorial oracle for qfock.vacuum_expectation.
"""

from __future__ import annotations

from collections import Counter

from .qfock import ANNIHILATOR, CREATOR
from .qpoly import QPoly


class NonVEVWordError(ValueError):
    """Raised for words that cannot be a vacuum expectation (count mismatch)."""


def _positions(word):
    ann = [i for i, (kind, _) in enumerate(word) if kind == ANNIHILATOR]
    cre = [i for i, (kind, _) in enumerate(word) if kind == CREATOR]
    return ann, cre


def chords_cross(p, q):
    """Two chords interleave iff exactly one endpoint of one lies strictly
    between the endpoints of the other."""
    (a1, c1), (a2, c2) = sorted(p), sorted(q)
    return (a1 < a2 < c1 < c2) or (a2 < a1 < c2 < c1)


def crossing_number(pairs):
    """Interleaving chord pairs, counted pair by pair: the reference for
    the count enumerate_contractions keeps while it builds a matching."""
    pairs = list(pairs)
    return sum(chords_cross(pairs[i], pairs[j])
               for i in range(len(pairs)) for j in range(i + 1, len(pairs)))


def enumerate_contractions(word):
    """All label-respecting perfect matchings of a word, with crossing counts.

    Returns a list of (pairs, crossings) where pairs is a tuple of
    (annihilator position, creator position) index pairs sorted by
    annihilator position.  Deterministic lexicographic order: annihilators
    are matched left to right, each to its candidate creators in ascending
    position.  Crossings are counted as the chords are placed: a new chord
    (a, c) interleaves an already chosen chord, whose annihilator lies left
    of a, exactly when that chord's creator lies strictly between a and c.
    """
    word = tuple(word)
    ann, cre = _positions(word)
    if len(ann) != len(cre):
        raise NonVEVWordError(
            f"word has {len(ann)} annihilators but {len(cre)} creators")
    # a contraction <0| a a† |0> needs the annihilator on the left
    candidates = [[(j, cpos) for j, cpos in enumerate(cre)
                   if cpos > apos and word[cpos][1] == word[apos][1]]
                  for apos in ann]
    diagrams = []
    used = [False] * len(cre)
    chosen = []

    def extend(i, crossings):
        if i == len(ann):
            diagrams.append((tuple(chosen), crossings))
            return
        apos = ann[i]
        for j, cpos in candidates[i]:
            if used[j]:
                continue
            used[j] = True
            new = sum(apos < c < cpos for _, c in chosen)
            chosen.append((apos, cpos))
            extend(i + 1, crossings + new)
            chosen.pop()
            used[j] = False

    extend(0, 0)
    return diagrams


def wick_expectation(word):
    """Sum over complete contractions of q^crossings."""
    hist = Counter(crossings for _, crossings in enumerate_contractions(word))
    return QPoly([hist[k] for k in range(max(hist, default=-1) + 1)])
