"""Contraction-diagram evaluation of quon vacuum expectation values.

Each complete contraction pairs every annihilator with a creator of the
same mode standing to its right; drawing the chords above the axis, the
term contributes q^(number of interleaving chord pairs).  This is an
independent combinatorial oracle for qfock.vacuum_expectation.

Chords are placed left to right over the annihilators.  A new chord (a, c)
then crosses exactly the placed chords whose creator lies strictly between
a and c, so its new crossings depend only on the set of creators already
used.  wick_expectation sums the crossing histogram over those sets,
merging every partial matching with the same used set (the transfer behind
the Touchard-Riordan statistic), and lists no matching.
walk_contractions yields the diagrams one by one, each with its crossing
graph read by the same rule, for the Speicher ansatz's per-diagram
contractions; enumerate_contractions lists them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict

from .qfock import ANNIHILATOR, CREATOR, refuse_past_work_limit
from .qpoly import QPoly


class NonVEVWordError(ValueError):
    """Raised for words that cannot be a vacuum expectation (count mismatch)."""


def _chord_table(word):
    """Annihilator positions, left to right, and for each its candidate
    chords: (creator bit, creator position, mask of the creators strictly
    between the two ends), in ascending creator position.

    Creator j (the j-th creator from the left) is bit 1 << j.  A chord
    placed after the chords of every annihilator to its left crosses
    exactly those whose creator lies under its between-mask.
    """
    word = tuple(word)
    ann = [i for i, (kind, _) in enumerate(word) if kind == ANNIHILATOR]
    cre = [i for i, (kind, _) in enumerate(word) if kind == CREATOR]
    if len(ann) != len(cre):
        raise NonVEVWordError(
            f"word has {len(ann)} annihilators but {len(cre)} creators")
    table = []
    for apos in ann:
        # creators are in ascending position: those right of apos start at
        # index first, and those strictly between apos and creator j are
        # first .. j-1; a contraction <0| a a† |0> needs the annihilator on
        # the left
        first = bisect_right(cre, apos)
        table.append([(1 << j, cpos, (1 << j) - (1 << first))
                      for j, cpos in enumerate(cre[first:], first)
                      if word[cpos][1] == word[apos][1]])
    return ann, table


def walk_contractions(word):
    """Yield every label-respecting perfect matching of a word, with its
    crossing graph.

    Each is a pair (pairs, edges): pairs is a tuple of (annihilator
    position, creator position) index pairs sorted by annihilator
    position, and edges the tuple of index pairs (i, j), i < j in
    lexicographic order, of the chords pairs[i] and pairs[j] that
    interleave; the diagram's crossing number is len(edges).
    Deterministic lexicographic order: annihilators are matched left to
    right, each to its candidate creators in ascending position.  Edges
    are read as the chords are placed, by the rule of _chord_table.  The
    walk is depth first on an explicit stack, so a word of any length
    takes no recursion, and each diagram is made only when it is asked
    for.
    """
    ann, table = _chord_table(word)
    if not ann:
        yield (), ()
        return
    chosen = []
    # creator bit -> the chord that used it last, current for the bits in
    # used
    chord_of = {}
    # one frame per annihilator reached: the creators used left of it, the
    # crossing edges so far, and its candidates not yet tried
    frames = [(0, [], iter(table[0]))]
    while frames:
        used, edges, options = frames[-1]
        i = len(frames) - 1
        for bit, cpos, between in options:
            if not used & bit:
                break
        else:
            frames.pop()
            if chosen:      # the choice that led to the frame popped
                chosen.pop()
            continue
        crossed = used & between
        chord_of[bit] = i
        chosen.append((ann[i], cpos))
        edges = edges + [(chord_of[b], i) for b in chord_of if crossed & b]
        if i + 1 < len(ann):
            frames.append((used | bit, edges, iter(table[i + 1])))
        else:
            yield tuple(chosen), tuple(sorted(edges))
            chosen.pop()


def enumerate_contractions(word):
    """The diagrams of walk_contractions, as a list."""
    return list(walk_contractions(word))


def wick_expectation(word):
    """Sum over complete contractions of q^crossings.

    One pass over the annihilators, left to right, keeps for each set of
    used creators the crossing histogram of the partial matchings that used
    exactly those.  A histogram is packed into one integer, its polynomial
    at q = 2^width (see QPoly.from_packed), the number of matchings with k
    crossings in bits [k * width, (k + 1) * width): adding a chord with c
    new crossings shifts it by c * width bits, and merging two adds them.
    The product of the candidate counts bounds the number of partial
    matchings at every step, and width is one bit past it, so no count
    carries into its neighbour and each is below 2^(width - 1), as the
    read-back needs.

    Before the pass it refuses, past WORK_LIMIT, the candidates it may
    try: layer i holds at most min(C(c, i), prod_{j<i} |O_j|) sets of
    used creators, c the creators and O_j the candidates of annihilator j,
    each tried against the |O_i| candidates of annihilator i.
    """
    _, table = _chord_table(word)
    work, sets, matchings = 0, 1, 1
    for i, options in enumerate(table):
        work += min(sets, matchings) * len(options)
        sets = sets * (len(table) - i) // (i + 1)
        matchings *= len(options)
    refuse_past_work_limit("wick_expectation", math.log(max(work, 1)), 0)
    width = matchings.bit_length() + 1
    layer = {0: 1}
    for options in table:
        nxt = defaultdict(int)
        for used, packed in layer.items():
            for bit, _, between in options:
                if not used & bit:
                    nxt[used | bit] += packed << (
                        width * (used & between).bit_count())
        layer = nxt
    # after the last annihilator every creator is used: one state, or none
    # when the word has no complete contraction
    return QPoly.from_packed(sum(layer.values()), width)
