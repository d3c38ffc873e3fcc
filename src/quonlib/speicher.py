"""Random-sign Bose-component ansatz for the quon Fock representation.

The quon annihilator is modeled as N^(-1/2) times a sum of N Bose
components with random relative commutation signs s(alpha,beta) = ±1,
drawn with prob(+1) = (1+q)/2.  Vacuum expectations under the finite-N
ansatz are evaluated combinatorially: a chord diagram contributes, for
each assignment of components to its chords, the product of s over
interleaving chord pairs carrying distinct components (same component
gives the Bose factor 1).  Averaging over sign draws converges to the
quon value q^crossings per diagram as N grows.

Each diagram's sum is one np.einsum over its crossing graph: one
sign-matrix operand per interleaving chord pair, in integer sublist form,
along a path from np.einsum_path.  mc_estimate plans every diagram once
per call and draws each sample into one reused float64 sign buffer; its
sums of ±1 products are exact below 2^53 and never wrap.  Exact values
(expectation_given_signs) run the same contraction on object-dtype
integers.  A crossing graph with more edges than einsum takes operands,
or more chords than its 52 axis labels, raises ContractionLimitError
when it is planned.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .wick import chords_cross, enumerate_contractions


@dataclass(frozen=True)
class SignMatrix:
    n_components: int
    signs: np.ndarray    # symmetric ±1 matrix, diagonal fixed to +1

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
    diagrams: int           # complete contractions of the word
    crossing_edges: int     # interleaving chord pairs over all diagrams


class ContractionLimitError(ValueError):
    """A diagram's crossing graph does not fit one np.einsum call."""


# numpy's C einsum takes at most NPY_MAXARGS operands (64 since numpy 2.0,
# 32 before) and names each axis by one of 52 letters
_MAX_OPERANDS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
_MAX_LABELS = 52
# partitions per vectorised step of expected_over_signs, which keeps its
# temporaries small
_PARTITION_ROWS = 4096


# One diagram's sum over component assignments as an einsum: each
# interleaving chord pair (an edge of the crossing graph) is one sign-matrix
# operand, edges holding its integer sublist labels; each of the
# free_chords chords on no edge contributes a factor N.  The path comes
# from np.einsum_path, once.
_ContractionPlan = namedtuple("_ContractionPlan", "free_chords edges path")


def _diagram_edges(pairs):
    """Indices of chord pairs that interleave."""
    return [(i, j)
            for i in range(len(pairs)) for j in range(i + 1, len(pairs))
            if chords_cross(pairs[i], pairs[j])]


def _plan_contraction(pairs, n_components):
    """The contraction plan of one diagram with N components per chord.

    Raises ContractionLimitError when the crossing graph has more edges
    than numpy's einsum takes operands or more chords than it has labels.
    """
    edges = _diagram_edges(pairs)
    chords = sorted({i for e in edges for i in e})
    if len(edges) > _MAX_OPERANDS or len(chords) > _MAX_LABELS:
        raise ContractionLimitError(
            f"crossing graph has {len(edges)} edges over {len(chords)} chords;"
            f" one np.einsum call takes at most {_MAX_OPERANDS} operands and"
            f" {_MAX_LABELS} labels")
    label = {c: i for i, c in enumerate(chords)}
    edges = tuple((label[i], label[j]) for i, j in edges)
    path = None
    if edges:
        like = np.broadcast_to(0.0, (n_components, n_components))
        path = np.einsum_path(*_operands(edges, like), [],
                              optimize="greedy")[0]
    return _ContractionPlan(free_chords=len(pairs) - len(chords),
                            edges=edges, path=path)


def _operands(edges, signs):
    """einsum arguments in sublist form: signs, [i, j], signs, [k, l], ..."""
    out = []
    for e in edges:
        out += (signs, e)
    return out


def _assignment_sum(plan, signs, n):
    """Sum over component assignments of the product of cross-chord signs.

    Chords form a product over interleaving edges; the diagonal of the
    sign matrix is 1, which is exactly the same-component Bose factor, so
    a plain tensor contraction over all N values per chord is exact in the
    dtype of signs: object for exact integers, float64 while every partial
    sum stays below 2^53.
    """
    free = n ** plan.free_chords
    if not plan.edges:
        return free
    return np.einsum(*_operands(plan.edges, signs), [],
                     optimize=plan.path) * free


def _draw_signs(out, upper, q, rng):
    """Fill the off-diagonal of out with ±1, one draw per unordered pair
    in the row-major order of the upper-triangle mask, prob(+1) = (1+q)/2."""
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [-1, 1]")
    n = len(out)
    draws = (rng.random(n * (n - 1) // 2) < (1.0 + q) / 2.0) * 2.0 - 1.0
    out[upper] = draws
    out.T[upper] = draws


def _upper_mask(n):
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def sample_sign_matrix(n_components, q, rng):
    """Independent ±1 per unordered pair, prob(+1) = (1+q)/2."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    n = n_components
    s = np.ones((n, n), dtype=np.int64)
    _draw_signs(s, _upper_mask(n), q, rng)
    return SignMatrix(n_components=n, signs=s)


def expectation_given_signs(word, sign_matrix, exact=True):
    """Exact finite-N vacuum expectation of a word for fixed signs."""
    n_comp = sign_matrix.n_components
    signs = sign_matrix.signs.astype(object)  # exact big-int arithmetic
    total = 0
    n_chords = None
    for pairs, _ in enumerate_contractions(word):
        n_chords = len(pairs)
        total += int(_assignment_sum(_plan_contraction(pairs, n_comp), signs,
                                     n_comp))
    if n_chords is None:
        # no contraction at all: the expectation is zero for any N
        n_chords = len(word) // 2
    value = Fraction(total, n_comp ** n_chords) if n_chords else Fraction(total)
    return value if exact else float(value)


def expected_over_signs(word, q, n_components):
    """Closed-form average over sign draws: each distinct-component
    interleaving contributes E[s] = q, same-component contributes 1.

    This is the unbiased-limit target for the Monte Carlo mean at finite N.
    Assignments are grouped by which chords share a component (a set
    partition into at most N blocks, realised by N(N-1)...(N-b+1) labelings
    of its b blocks); a sign variable repeated an even number of times
    averages to 1, an odd number to q.  The integer counts are added under
    their number of odd sign pairs, and the powers of q are applied once.
    """
    n = n_components
    chords = len(word) // 2
    labelings = [1]
    for b in range(chords):
        labelings.append(labelings[-1] * (n - b))
    base = chords + 1           # codes odd * base + blocks
    by_odd = Counter()
    parts = None
    for pairs, _ in enumerate_contractions(word):
        if parts is None:
            parts, blocks = _set_partitions(chords, n)
        edges = _diagram_edges(pairs)
        for rows in range(0, len(parts), _PARTITION_ROWS):
            chunk = slice(rows, rows + _PARTITION_ROWS)
            odd = _odd_sign_pairs(parts[chunk], edges)
            counts = np.bincount(odd * base + blocks[chunk])
            for code in np.flatnonzero(counts).tolist():
                by_odd[code // base] += (int(counts[code])
                                         * labelings[code % base])
    q = Fraction(q)
    total = sum((count * q ** k for k, count in by_odd.items()), Fraction(0))
    return total / n ** chords


def _set_partitions(chords, n):
    """Set partitions of the chords into at most n blocks, one row each of
    canonical block labels 0, 1, 2, ... in order of first use, and the
    number of blocks of each row."""
    parts = np.zeros((1, 0), dtype=np.int8)
    blocks = np.zeros(1, dtype=np.int8)
    for _ in range(chords):
        # an old block, or a new one while fewer than n are in use; the
        # bound is at most chords, so it fits the int8 labels
        choices = np.minimum(blocks + 1, min(n, chords))
        row = np.repeat(np.arange(len(parts), dtype=np.int32), choices)
        first = np.repeat((np.cumsum(choices) - choices).astype(np.int32),
                          choices)
        label = (np.arange(len(row), dtype=np.int32) - first).astype(np.int8)
        parts = np.column_stack([parts[row], label])
        blocks = np.maximum(blocks[row], label + 1)
    return parts, blocks


def _odd_sign_pairs(parts, edges):
    """Per partition, the number of block pairs {A, B}, A != B, joined by
    an odd number of crossing edges."""
    odd = np.zeros(len(parts), dtype=np.int64)
    if not edges:
        return odd
    a = parts[:, [i for i, _ in edges]].astype(np.int16)
    b = parts[:, [j for _, j in edges]].astype(np.int16)
    width = parts.shape[1]
    # one key per block pair, -1 for an edge inside a block (no sign)
    keys = np.where(a != b, np.minimum(a, b) * width + np.maximum(a, b), -1)
    keys.sort(axis=1)
    # walk the sorted keys column by column, closing each run of equal keys
    run_odd = np.ones(len(parts), dtype=bool)
    for t in range(1, keys.shape[1]):
        new_run = keys[:, t] != keys[:, t - 1]
        odd += new_run & run_odd & (keys[:, t - 1] >= 0)
        run_odd = new_run | ~run_odd
    odd += run_odd & (keys[:, -1] >= 0)
    return odd


def mc_estimate(word, q, n_components, samples, seed):
    """Monte Carlo mean of expectation_given_signs over sign draws.

    Per-sample streams are spawned from a single SeedSequence, so the
    estimate is reproducible from (seed, N, samples) and samples are
    independent regardless of evaluation order.  Each diagram is planned
    once; every sample is drawn into one float64 sign buffer, whose sums of
    ±1 products are exact below 2^53 and never wrap.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if n_components < 1:
        raise ValueError("need at least one component")
    n = n_components
    plans = [_plan_contraction(pairs, n)
             for pairs, _ in enumerate_contractions(word)]
    n_chords = len(word) // 2
    denom = float(n) ** n_chords if n_chords else 1.0
    upper = _upper_mask(n)
    signs = np.ones((n, n))
    values = np.empty(samples)
    children = np.random.SeedSequence(seed).spawn(samples)
    for i, child in enumerate(children):
        _draw_signs(signs, upper, q, np.random.default_rng(child))
        SignMatrix(n_components=n, signs=signs)  # the symmetry check
        total = sum(_assignment_sum(plan, signs, n) for plan in plans)
        values[i] = total / denom
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, samples=samples,
                      n_components=n,
                      diagrams=len(plans),
                      crossing_edges=sum(len(p.edges) for p in plans))
