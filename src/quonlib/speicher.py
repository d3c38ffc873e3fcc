"""Random-sign Bose-component ansatz for the quon Fock representation.

The quon annihilator is modeled as N^(-1/2) times a sum of N Bose
components with random relative commutation signs s(alpha,beta) = ±1,
drawn with prob(+1) = (1+q)/2.  Vacuum expectations under the finite-N
ansatz are evaluated combinatorially: a chord diagram contributes, for
each assignment of components to its chords, the product of s over
interleaving chord pairs carrying distinct components (same component
gives the Bose factor 1).  Averaging over sign draws converges to the
quon value q^crossings per diagram as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .wick import chords_cross, enumerate_contractions

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SignMatrix:
    n_components: int
    signs: np.ndarray    # symmetric ±1 int matrix, diagonal fixed to +1

    def __post_init__(self):
        s = self.signs
        if s.shape != (self.n_components, self.n_components):
            raise ValueError("sign matrix shape mismatch")
        if not np.array_equal(s, s.T):
            raise ValueError("sign matrix must be symmetric")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    n_components: int


def sample_sign_matrix(n_components, q, rng):
    """Independent ±1 per unordered pair, prob(+1) = (1+q)/2."""
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [-1, 1]")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    n = n_components
    s = np.ones((n, n), dtype=np.int64)
    iu = np.triu_indices(n, k=1)
    draws = np.where(rng.random(len(iu[0])) < (1.0 + q) / 2.0, 1, -1)
    s[iu] = draws
    s[(iu[1], iu[0])] = draws
    return SignMatrix(n_components=n, signs=s)


def _diagram_edges(pairs):
    """Indices of chord pairs that interleave."""
    return [(i, j)
            for i in range(len(pairs)) for j in range(i + 1, len(pairs))
            if chords_cross(pairs[i], pairs[j])]


def _assignment_sum(edges, n_chords, signs, n):
    """Sum over component assignments of the product of cross-chord signs.

    Chords form a product over interleaving edges; the diagonal of the
    sign matrix is 1, which is exactly the same-component Bose factor, so
    a plain tensor contraction over all N values per chord is exact.
    """
    if not edges:
        return n ** n_chords
    in_edges = sorted({i for e in edges for i in e})
    sub = ",".join(_LETTERS[e[0]] + _LETTERS[e[1]] for e in edges)
    total = int(np.einsum(sub + "->", *([signs] * len(edges)), optimize=True))
    return total * n ** (n_chords - len(in_edges))


def expectation_given_signs(word, sign_matrix, exact=True):
    """Exact finite-N vacuum expectation of a word for fixed signs."""
    n_comp = sign_matrix.n_components
    signs = sign_matrix.signs.astype(object)  # exact big-int arithmetic
    total = 0
    n_chords = None
    for pairs, _ in enumerate_contractions(word):
        n_chords = len(pairs)
        total += _assignment_sum(_diagram_edges(pairs), n_chords, signs, n_comp)
    if n_chords is None:
        # no contraction at all: the expectation is zero for any N
        n_chords = len(word) // 2
    value = Fraction(total, n_comp ** n_chords) if n_chords else Fraction(total)
    return value if exact else float(value)


def expected_over_signs(word, q, n_components):
    """Closed-form average over sign draws: each distinct-component
    interleaving contributes E[s] = q, same-component contributes 1.

    This is the unbiased-limit target for the Monte Carlo mean at finite N.
    """
    q = Fraction(q)
    total = Fraction(0)
    n = n_components
    for pairs, _ in enumerate_contractions(word):
        edges = _diagram_edges(pairs)
        chords = len(pairs)
        # group assignments by which chords share a component; a sign
        # variable repeated an even number of times averages to 1, an odd
        # number to q
        for assignment in _assignments_by_blocks(chords, n):
            mult = {}
            for i, j in edges:
                a, b = assignment[i], assignment[j]
                if a != b:
                    key = (a, b) if a < b else (b, a)
                    mult[key] = mult.get(key, 0) + 1
            w = Fraction(1)
            for m in mult.values():
                if m % 2:
                    w *= q
            total += w * Fraction(_count_for_pattern(assignment, n),
                                  n ** chords)
    return total


def _assignments_by_blocks(chords, n):
    """Set partitions of the chords into distinct-component blocks
    (canonical block labels 0,1,2,...)."""
    patterns = [[]]
    for _ in range(chords):
        new = []
        for p in patterns:
            top = max(p, default=-1)
            for b in range(top + 2):
                new.append(p + [b])
        patterns = new
    return [tuple(p) for p in patterns if max(p, default=-1) < n]

def _count_for_pattern(pattern, n):
    """Number of injective labelings of the blocks with n components."""
    blocks = max(pattern) + 1
    count = 1
    for i in range(blocks):
        count *= (n - i)
    return count


def mc_estimate(word, q, n_components, samples, seed):
    """Monte Carlo mean of expectation_given_signs over sign draws.

    Per-sample streams are spawned from a single SeedSequence, so the
    estimate is reproducible from (seed, N, samples) and samples are
    independent regardless of evaluation order.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    diagrams = [(pairs, _diagram_edges(pairs))
                for pairs, _ in enumerate_contractions(word)]
    n_chords = len(word) // 2
    children = np.random.SeedSequence(seed).spawn(samples)
    values = np.empty(samples)
    denom = float(n_components) ** n_chords if n_chords else 1.0
    for i, child in enumerate(children):
        sm = sample_sign_matrix(n_components, q, np.random.default_rng(child))
        signs = sm.signs
        total = 0
        for pairs, edges in diagrams:
            total += _assignment_sum(edges, len(pairs), signs, n_components)
        values[i] = total / denom
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, samples=samples,
                      n_components=n_components)
