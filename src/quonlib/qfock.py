"""Vacuum expectations and the free Fock-space action of the quon algebra.

The single defining relation is

    a_k a†_l  =  delta_kl + q a†_l a_k

with no relation at all between two creators or two annihilators.
Everything here is exact.  Rewriting (vacuum_expectation) runs on words
coded as ints with each polynomial packed into one int, and returns one
QPoly.  The free Fock action is written once, in apply_symbol, generic in
the ring of the q it is given.  The library runs it on ints only: on
polynomials packed at q = 2^shift and read back once (q_inner_product,
criterion 4 and bounds' matrix elements), or at q = 0 (the observables).
The QPoly and Fraction rings are test oracles.

Conventions
-----------
* An operator word is a tuple of (kind, mode) pairs, kind "c" for a
  creator and "a" for an annihilator, written left to right in
  matrix-element order (the leftmost symbol acts last on a ket).
* A Fock word (j1, ..., jn) stands for the state a†_j1 ... a†_jn |0>.
  A creator prepends its label; the annihilator acting on position i
  (0-based) picks up the coefficient q^i.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter

from .qpoly import QPoly

CREATOR = "c"
ANNIHILATOR = "a"

# the work a check may take, in term applications: a para component on
# one state code, an observables letter on one Fock word, a Wick candidate
# chord on one set of used creators, or a letter or coefficient the
# rewriting memo stores
WORK_LIMIT = 2 * 10 ** 7
# 64-bit words of a state code whose big-integer work costs about as much
# as a term application's fixed interpreter cost (about 100 ns against
# about 0.9 ns a word); a term on a wider code counts as its width in
# words over CODE_WORDS term applications
CODE_WORDS = 128

# OperatorWord: tuple[tuple[str, int], ...]
# FockWord: tuple[int, ...]
# State: dict mapping Fock word -> scalar, no zero values stored.


class WorkLimitError(ValueError):
    """A check whose estimated work passes WORK_LIMIT."""


def refuse_past_work_limit(what, log_work, code_bits):
    """Raise WorkLimitError, naming what, when the estimated work of a
    check passes WORK_LIMIT: the one limit of the para and observables
    checks and of the two vacuum-expectation walks.  The estimate is in
    logs, as it can be too large to form, and is weighed by the width of
    the codes it acts on, code_bits bits."""
    words = -(-code_bits // 64)
    log_work += math.log(max(1, words / CODE_WORDS))
    if log_work > math.log(WORK_LIMIT):
        raise WorkLimitError(
            f"{what} takes about 10^{log_work / math.log(10):.1f} term "
            f"applications, past the limit of {WORK_LIMIT}")


def parse_word(text):
    """Parse the word grammar: whitespace-separated `c<INT>` / `a<INT>` tokens."""
    symbols = []
    for tok in text.split():
        kind, num = tok[0], tok[1:]
        if kind not in (CREATOR, ANNIHILATOR) or not num.lstrip("-").isdigit():
            raise ValueError(f"bad operator token {tok!r}")
        mode = int(num)
        if mode < 0:
            raise ValueError(f"negative mode in token {tok!r}")
        symbols.append((kind, mode))
    return tuple(symbols)


def vacuum_expectation(word):
    """<0| word |0> as an exact polynomial in q.

    Rewrites the leftmost adjacent pair a_k a†_l by the defining relation,
    q a†_l a_k plus the empty word when k = l, and keeps only branches that
    can still reach the empty word: one that starts with a creator or ends
    with an annihilator has expectation zero.  Each rewrite removes one
    (annihilator, creator) inversion, so the recursion ends.

    The word is coded once, each distinct mode label (any hashable) as a
    positive int in order of first appearance, +m for a creator and -m for
    an annihilator.  The rewriting runs on those codes with a memo that
    lives for this call only, each polynomial packed as its value at
    q = 2^shift (see QPoly.from_packed), and reads the QPoly back once.
    Its coefficient of q^k counts the contractions with k crossings, at
    most bound: the product over annihilators of the creators of the same
    code to their right.  That holds at every memoised subword, as swaps
    and contractions only shrink each annihilator's candidates and a
    subword's coefficients count its own contractions; so no digit carries.

    Past WORK_LIMIT letters and coefficients stored in the memo, or past
    the interpreter's recursion limit (one frame per rewrite step), it
    raises WorkLimitError.
    """
    codes = {}
    coded = []
    for kind, mode in word:
        code = codes.setdefault(mode, len(codes) + 1)
        coded.append(code if kind == CREATOR else -code)
    bound, creators = 1, {}
    for code in reversed(coded):
        if code > 0:
            creators[code] = creators.get(code, 0) + 1
        else:
            bound *= creators.get(-code, 0)
    shift = bound.bit_length() + 1
    try:
        packed = _rewrite(tuple(coded), {}, shift, [WORK_LIMIT])
    except RecursionError:
        raise WorkLimitError(
            f"vacuum_expectation of a {len(coded)}-letter word nests its "
            f"rewriting past the interpreter's recursion limit of "
            f"{sys.getrecursionlimit()} frames") from None
    return QPoly.from_packed(packed, shift)


def _rewrite(word, memo, shift, room):
    """The vacuum expectation of a coded word at q = 2^shift (see
    vacuum_expectation); room[0] is what the memo may still store, in
    letters and coefficients."""
    if not word:
        return 1
    if word[0] > 0 or word[-1] < 0:
        # a surviving creator on the left (or annihilator on the right)
        # can never be removed by the rewriting
        return 0
    cached = memo.get(word)
    if cached is not None:
        return cached
    # the leftmost adjacent annihilator a and creator c; one exists, as the
    # word starts with an annihilator and ends with a creator
    i = 0
    while not word[i] < 0 < word[i + 1]:
        i += 1
    a, c = word[i], word[i + 1]
    # times q: a shift by one digit
    result = (_rewrite(word[:i] + (c, a) + word[i + 2:], memo, shift, room)
              << shift)
    if a == -c:
        result += _rewrite(word[:i] + word[i + 2:], memo, shift, room)
    room[0] -= len(word) + result.bit_length() // shift + 1
    if room[0] < 0:
        raise WorkLimitError(
            f"the rewriting memo of vacuum_expectation passes the limit of "
            f"{WORK_LIMIT} letters and coefficients")
    memo[word] = result
    return result


# -- free Fock-space action ------------------------------------------------


def fock_words(modes, longest):
    """Every Fock word over modes of at most longest letters, shortest
    first, each length in itertools.product order: the observables basis,
    bounds' test states and criterion 4's words."""
    return [w for n in range(longest + 1)
            for w in itertools.product(modes, repeat=n)]


def apply_symbol(symbol, state, q):
    """One operator symbol acting on a state dict {Fock word: scalar}.

    a†_k prepends k; a_k removes a letter k at position i with weight q^i.
    The scalar ring follows from q: an int 2^shift gives packed
    polynomial coefficients, a QPoly q symbolic ones, and q = 0 keeps only
    the leftmost match.  The state stores no zero coefficient, and neither
    does the result.
    """
    kind, mode = symbol
    if kind == CREATOR:
        # prepending one mode to distinct words cannot make two words collide
        return {(mode,) + w: c for w, c in state.items()}
    out = {}
    for w, c in state.items():
        for i, label in enumerate(w):
            if label != mode:
                continue
            if i:
                weight = q ** i
                if not weight:
                    break     # q = 0: every later power vanishes too
                c_i = c * weight
            else:
                c_i = c
            nw = w[:i] + w[i + 1:]
            cur = out.get(nw)
            out[nw] = c_i if cur is None else cur + c_i
    return {w: c for w, c in out.items() if c}


def apply_terms(terms, state, q):
    """Apply a sum of (operator word, scalar coefficient) terms to a state;
    the rightmost symbol of each word acts first."""
    out = {}
    for word, coeff in terms:
        cur = state
        for symbol in reversed(word):
            cur = apply_symbol(symbol, cur, q)
            if not cur:
                break
        for w, c in cur.items():
            c = coeff * c
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
    return {w: c for w, c in out.items() if c}


def q_inner_product(u, v):
    """<u, v> for Fock words as a QPoly, via the annihilator action on |v>.

    Equals the vacuum expectation of a_{u_n} ... a_{u_1} a†_{v_1} ... a†_{v_n};
    zero whenever the label multisets differ.  The action runs on ints at
    q = 2^shift and the QPoly is read back once (QPoly.from_packed): the
    coefficient of q^k counts the label-respecting matchings of u with v
    that pick up q^k, so every coefficient is at most their number, the
    product over labels of (multiplicity)!, and no digit carries.
    """
    u, v = tuple(u), tuple(v)
    if len(u) == len(v) and sorted(u) == sorted(v):
        bound = math.prod(map(math.factorial, Counter(v).values()))
        shift = bound.bit_length() + 1
        state = {v: 1}
        for m in u:
            state = apply_symbol((ANNIHILATOR, m), state, 1 << shift)
        if state:
            return QPoly.from_packed(state[()], shift)
    return QPoly.zero()


def inversions(perm):
    """Pairs i < j with perm[i] > perm[j]: <id, w> = q^inversions(w) for a
    word w of distinct modes."""
    perm = tuple(perm)
    return sum(perm[i] > perm[j]
               for i in range(len(perm)) for j in range(i + 1, len(perm)))
