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
along a path from np.einsum_path.  Samples are evaluated in blocks: the
sign matrices of B samples form one (B, N, N) float64 stack, every operand
carries one shared batch label, and each diagram is contracted once per
block along a path planned per word and N, on a stack of one.  B is
chosen so the stack fits _BLOCK_BYTES.  Every sample draws from its own
SeedSequence child, spawned as its block starts.  Float64 sums of ±1
products are exact only while N^m < 2^53 for m chords, and the tests pin
that the estimate does not depend on B past that too.
A block's signs are filled as bytes: one uniform per unordered pair
gives a bool mask of the +1s, scattered once into the upper triangle of
a mask whose diagonal is preset, ORed with its transpose, and written
into the float64 stack as ±1 by one int8 copy.
Signs are drawn only where one can change a sample: when 0 < (1+q)/2 < 1
and some diagram's crossing graph has an edge.  At q = ±1 every draw is
the same matrix (+1 on the diagonal, q off it), so each diagram is
contracted once on a batch of that one matrix; a word without crossings
reads no sign at all.  Either way every sample has that one value, and
no SeedSequence child or generator is made.

A single draw (sample_sign_matrix) is a plain symmetric N x N int64 array
with +1 on the diagonal; its exact value (expectation_given_signs) runs
the same contraction on a batch of one object-dtype copy.

A crossing graph with more edges than einsum takes operands, or more than
51 chords (einsum names axes by 52 letters and the batch takes one),
raises ContractionLimitError when it is planned.  So does a call whose
estimated work exceeds _WORK_BUDGET multiply-adds: _path_work, N^(labels
a step loops over) summed over the steps of every diagram's path, times
the samples contracted (every sample where signs are drawn, one where
they are fixed), summed as each diagram is planned, in the order
wick.walk_contractions yields them, so no diagram is listed past the
first sum over the budget.  mc_estimate raises it too for an N^m, m
chords, past the float64 range.  mc_estimate refuses more than
MAX_SAMPLES samples before it allocates anything, and on a word with a
crossing, an N whose sign arrays take more than 8 MAX_SAMPLES bytes: one
drawn sample (see _pair_indices), or the one fixed matrix at q = ±1; only
a word without crossings takes any N >= 1.
check_estimate, the pass rule, refuses (BiasBoundError) before it plans
anything a bias bound under which no mean can fail.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .wick import enumerate_contractions, walk_contractions, wick_expectation


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    n_components: int
    diagrams: int           # complete contractions of the word
    crossing_edges: int     # interleaving chord pairs over all diagrams
    multiply_adds: int      # estimated contraction work, see _path_work


class ContractionLimitError(ValueError):
    """A diagram's crossing graph does not fit one np.einsum call, the
    contraction work of a call exceeds _WORK_BUDGET, or N^m for m chords,
    which divides every sample, is past the float64 range."""


class BiasBoundError(ValueError):
    """A bias bound at or past the largest deviation a mean can have,
    where check_estimate passes every estimate."""


# numpy's C einsum takes at most NPY_MAXARGS operands (64 since numpy 2.0,
# 32 before) and names each axis by one of 52 letters; the last label is
# the batch of samples, which leaves 51 for chords
_MAX_OPERANDS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
_MAX_LABELS = 52
_BATCH = _MAX_LABELS - 1
# bytes of the (B, N, N) float64 sign stack of one block of samples: at
# N = 100 a block is 13 samples
_BLOCK_BYTES = 1 << 20
# estimated multiply-adds of one call (_path_work of every diagram, times
# the samples contracted); a step over many operands runs at about 10^8
# per second, so this bounds a call to minutes
_WORK_BUDGET = 10 ** 10
# samples of one mc_estimate call: each holds 8 bytes of values, so this
# bounds that array to 80 MB, the bound _check_sample_bytes puts on the
# sign arrays of one sample too
MAX_SAMPLES = 10 ** 7
# partitions per vectorised step of expected_over_signs, which keeps its
# temporaries small
_PARTITION_ROWS = 4096


# One diagram's sum over component assignments as an einsum: each
# interleaving chord pair (an edge of the crossing graph) is one sign-matrix
# operand, edges holding its integer sublist labels; each of the
# free_chords chords on no edge contributes a factor N.  The path comes
# from np.einsum_path, once; work is its estimated multiply-adds per sample.
_ContractionPlan = namedtuple("_ContractionPlan",
                              "free_chords edges path work")


def _plan_contraction(diagram, n_components):
    """The contraction plan of one (pairs, edges) diagram of
    enumerate_contractions with N components per chord, made on a stack
    of one sign matrix.  It serves a stack of any length: the batch label
    is on every operand and on the output, so its length scales the size
    of every candidate step alike, which leaves the greedy path as it is.

    Raises ContractionLimitError when the crossing graph has more edges
    than numpy's einsum takes operands or more chords than it has labels
    besides the batch.
    """
    pairs, edges = diagram
    chords = sorted({i for e in edges for i in e})
    if len(edges) > _MAX_OPERANDS or len(chords) > _BATCH:
        raise ContractionLimitError(
            f"crossing graph has {len(edges)} edges over {len(chords)} chords;"
            f" one np.einsum call takes at most {_MAX_OPERANDS} operands and"
            f" {_BATCH} chords (one of its {_MAX_LABELS} labels is the batch"
            f" of samples)")
    label = {c: i for i, c in enumerate(chords)}
    edges = tuple((label[i], label[j]) for i, j in edges)
    path = None
    if edges:
        like = np.broadcast_to(0.0, (1, n_components, n_components))
        path = np.einsum_path(*_operands(edges, like), [_BATCH],
                              optimize="greedy")[0]
    return _ContractionPlan(free_chords=len(pairs) - len(chords),
                            edges=edges, path=path,
                            work=_path_work(edges, path, n_components))


def _path_work(edges, path, n):
    """Estimated multiply-adds per sample along an einsum path.

    A step over one operand, or over three or more, loops over every
    chord label they carry.  A step over two first sums out of each operand the
    labels that neither the other operand nor a later one carries, then
    loops over the labels left (numpy's einsum contracts a pair by matmul
    after such sums).  A step's result keeps the labels later operands
    still use.
    """
    operands = [set(e) for e in edges]
    work = 0
    for step in (path or [])[1:]:
        joined = [operands[k] for k in step]
        for k in sorted(step, reverse=True):
            del operands[k]
        later = set().union(*operands)
        if len(joined) == 2:
            a, b = joined
            work += n ** len(a) + n ** len(b)
            loop = (a & b) | ((a | b) & later)
        else:
            loop = set().union(*joined)
        work += n ** len(loop)
        operands.append(set().union(*joined) & later)
    return work


def _plan_word(word, n_components, samples=1):
    """Plans of every diagram of word, for contracting samples sign
    matrices, each planned as walk_contractions yields it; the first
    running sum of their work past _WORK_BUDGET raises
    ContractionLimitError, as the total would be past it too."""
    plans, work = [], 0
    for diagram in walk_contractions(word):
        plan = _plan_contraction(diagram, n_components)
        plans.append(plan)
        work += samples * plan.work
        if work > _WORK_BUDGET:
            raise ContractionLimitError(
                f"estimated at least {work:.3g} multiply-adds ({samples}"
                f" samples at N={n_components}) exceed the budget of"
                f" {_WORK_BUDGET:.0e}")
    return plans


def _operands(edges, signs):
    """einsum arguments in sublist form over a stack of sign matrices:
    signs, [batch, i, j], signs, [batch, k, l], ..."""
    out = []
    for i, j in edges:
        out += (signs, [_BATCH, i, j])
    return out


def _assignment_sum(plan, signs, n):
    """Per matrix of the (B, N, N) stack signs, the sum over component
    assignments of the product of cross-chord signs, as an array of B.

    Chords form a product over interleaving edges; the diagonal of the
    sign matrix is 1, which is exactly the same-component Bose factor, so
    a plain tensor contraction over all N values per chord is exact in the
    dtype of signs: object for exact integers, float64 while N^m < 2^53
    for m chords, which bounds every partial sum.
    """
    free = n ** plan.free_chords
    if not plan.edges:
        return np.full(len(signs), free, dtype=signs.dtype)
    return np.einsum(*_operands(plan.edges, signs), [_BATCH],
                     optimize=plan.path) * free


def _check_q(q):
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [-1, 1]")


def _check_n(n_components):
    if n_components < 1:
        raise ValueError("need at least one component")


def _check_symmetric(signs):
    """signs is one sign matrix or a stack of them."""
    if not np.array_equal(signs, np.swapaxes(signs, -1, -2)):
        raise ValueError("sign matrix must be symmetric")


def _pair_indices(n):
    """Flat positions in an N x N matrix of the unordered pairs i < j, in
    the row-major order of the upper triangle.

    Every draw of signs asks for them before it allocates anything, and
    here an N is refused (ValueError) whose one sample takes more than
    8 MAX_SAMPLES bytes: an N x N float64 matrix and byte mask, and a
    float64 uniform and an int64 position per unordered pair."""
    _check_sample_bytes("one sample of drawn signs", n,
                        9 * n * n + 8 * n * (n - 1))
    i, j = np.triu_indices(n, 1)
    return i * n + j


def _check_sample_bytes(what, n, size):
    """ValueError, naming what, when what takes more than 8 MAX_SAMPLES
    bytes at N = n."""
    if size > 8 * MAX_SAMPLES:
        raise ValueError(f"at N={n} {what} takes {size} bytes, past the"
                         f" limit of {8 * MAX_SAMPLES}")


def _draw_signs(stack, uniforms, rngs, q, positions):
    """Fill stack[k] with a sign matrix from rngs[k]: +1 on the diagonal,
    and one uniform per unordered pair, in the order of positions (see
    _pair_indices), gives +1 with probability (1+q)/2 at the pair and at
    its mirror.  uniforms is a (B, N(N-1)/2) scratch buffer.

    The signs stay bytes until the last step: the bool mask of the +1s is
    scattered once into the upper triangle, with the diagonal preset, and
    ORed with its transpose; its ±1 as int8 are then copied into the
    float64 stack."""
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
    b, n = stack.shape[:2]
    plus = np.zeros((b, n * n), dtype=bool)
    plus[:, ::n + 1] = True
    plus[:, positions] = uniforms < (1.0 + q) / 2.0
    plus = plus.reshape(b, n, n)
    signs = (plus | plus.transpose(0, 2, 1)).view(np.int8)
    signs *= 2
    signs -= 1
    stack[...] = signs


def sample_sign_matrix(n_components, q, rng):
    """An N x N int64 sign matrix: symmetric, diagonal +1, an independent
    ±1 per unordered pair with prob(+1) = (1+q)/2; an N past the sample
    size _pair_indices allows is refused before anything is allocated."""
    _check_q(q)
    rng = np.random.default_rng(rng)    # a Generator comes back as it is
    n = n_components
    positions = _pair_indices(n)
    stack = np.empty((1, n, n))
    _draw_signs(stack, np.empty((1, n * (n - 1) // 2)), [rng], q, positions)
    return stack[0].astype(np.int64)


def expectation_given_signs(word, signs):
    """Exact finite-N vacuum expectation of a word for a fixed N x N sign
    matrix, as a Fraction."""
    if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
        raise ValueError(f"sign matrix must be square, got shape "
                         f"{signs.shape}")
    n = signs.shape[0]
    _check_symmetric(signs)
    plans = _plan_word(word, n)
    # a batch of one, in exact big-int arithmetic
    batch = signs.astype(object)[None]
    total = sum(int(_assignment_sum(plan, batch, n)[0]) for plan in plans)
    # a word without contractions has expectation zero for any N
    return Fraction(total, n ** (len(word) // 2))


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
    for _, edges in enumerate_contractions(word):
        if parts is None:
            parts, blocks = _set_partitions(chords, n)
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


def bias_bound(diagrams, chords, n_components):
    """Bound on how far the finite-N expectation over sign draws lies from
    the quon value, the sum over diagrams of q^crossings.

    Per diagram, the assignments giving every chord its own component, a
    fraction N(N-1)...(N-m+1)/N^m of all for m chords, average exactly
    q^crossings (their crossing pairs carry distinct, independent signs);
    every other assignment contributes a product of signs, at most 1 in
    size.  So each diagram is off by at most 2(1 - N(N-1)...(N-m+1)/N^m),
    returned as an exact Fraction: 2/N for one diagram of two chords.
    """
    n = n_components
    distinct = prod(range(n - chords + 1, n + 1))   # 0 when chords > n
    return 2 * diagrams * (1 - Fraction(distinct, n ** chords))


def check_estimate(word, q, n_components, samples, seed):
    """(estimate, quon value, tolerance, passed) of mc_estimate(word, q,
    n_components, samples, seed), for `quon speicher` and criterion 8: the
    mean passes when it lies within the tolerance of the quon value, three
    standard errors or the finite-N bias bound, whichever is larger.

    Each diagram contributes at most 1 in size to a sample, so a mean of
    D diagrams lies within D + |quon value| of the quon value.  A bias
    bound that reaches it passes every estimate, and raises
    BiasBoundError before the estimate is planned; compared exactly, with
    D the quon value at q = 1.  Below m components for m chords the bound
    is 2 D, and a word with no diagram has D = 0: both are refused.
    """
    _check_n(n_components)
    _check_q(q)
    value = wick_expectation(word)
    diagrams = value(1)
    reach = diagrams + abs(value(Fraction(q)))
    bias = bias_bound(diagrams, len(word) // 2, n_components)
    if bias >= reach:
        raise BiasBoundError(
            f"at N={n_components} the bias bound {float(bias):.6g} reaches "
            f"D + |quon value| = {float(reach):.6g} for D={diagrams}, the "
            f"largest deviation a mean can have, so every estimate would "
            f"pass")
    est = mc_estimate(word, q, n_components, samples, seed)
    target = value(q)
    tol = max(3 * est.stderr, float(bias))
    return est, target, tol, abs(est.mean - target) <= tol


def mc_estimate(word, q, n_components, samples, seed):
    """Monte Carlo mean of expectation_given_signs over sign draws.

    Per-sample streams are spawned from a single SeedSequence, so the
    estimate is reproducible from (seed, N, samples) and samples are
    independent regardless of evaluation order.  Each diagram is planned
    once, for the word and N; samples are drawn in blocks of B, each
    block's streams spawned as the block starts (a SeedSequence continues
    its count, so the children are those of one spawn of every sample),
    into one reused (B, N, N) float64 stack, whose sums of ±1 products
    never wrap and are exact while N^m < 2^53 for m chords, and each
    diagram is contracted once per block;
    multiply_adds is samples times the work of each path.

    Only 0 < (1+q)/2 < 1 on a word with a crossing draws signs.  At
    q = ±1, and on a word whose diagrams have no crossing, every sample
    has one value, computed by one contraction per diagram (none without
    a crossing) with no stream spawned; the mean and standard error are
    bit for bit those of drawn samples, and multiply_adds counts that one
    contraction: the work of each path.

    samples runs from 2 to MAX_SAMPLES, checked before any allocation.
    On a word with a crossing, N is refused before its signs are
    allocated where they take more than 8 MAX_SAMPLES bytes: a drawn
    sample past the size _pair_indices allows, or the fixed N x N matrix
    from N = 3163.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples={samples} above the limit of"
                         f" {MAX_SAMPLES:.0e} (8 bytes each)")
    _check_n(n_components)
    _check_q(q)
    n = n_components
    plus = (1.0 + q) / 2.0
    # every sample is contracted where signs vary, else one; a word with
    # no crossing has no work either way
    contracted = samples if 0.0 < plus < 1.0 else 1
    plans = _plan_word(word, n, contracted)
    work = contracted * sum(plan.work for plan in plans)
    n_chords = len(word) // 2
    try:
        denom = float(n) ** n_chords
    except OverflowError:
        raise ContractionLimitError(
            f"each sample is divided by N^m = {n}^{n_chords}, past the"
            f" float64 range") from None
    crossed = any(plan.edges for plan in plans)
    drawn = 0.0 < plus < 1.0 and crossed
    values = np.empty(samples)
    if drawn:
        batch = min(samples, max(1, _BLOCK_BYTES // (8 * n * n)))
        positions = _pair_indices(n)
        stack = np.empty((batch, n, n))
        uniforms = np.empty((batch, n * (n - 1) // 2))
        seeds = np.random.SeedSequence(seed)
        for start in range(0, samples, batch):
            rngs = [np.random.default_rng(c)
                    for c in seeds.spawn(min(batch, samples - start))]
            block = stack[:len(rngs)]
            _draw_signs(block, uniforms[:len(rngs)], rngs, q, positions)
            _check_symmetric(block)
            total = sum(_assignment_sum(plan, block, n) for plan in plans)
            values[start:start + len(rngs)] = total / denom
    else:
        # every draw gives one matrix, -1 or +1 off the diagonal as plus is
        # 0 or 1, so every sample has its value; without a crossing
        # _assignment_sum reads only the batch's length and dtype
        signs = np.empty((1, 0, 0))
        if crossed:
            _check_sample_bytes("the fixed sign matrix", n, 8 * n * n)
            signs = np.full((1, n, n), 1.0 if plus > 0.0 else -1.0)
            np.fill_diagonal(signs[0], 1.0)
        total = sum(_assignment_sum(plan, signs, n) for plan in plans)
        values[:] = total / denom
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, samples=samples,
                      n_components=n,
                      diagrams=len(plans),
                      crossing_edges=sum(len(p.edges) for p in plans),
                      multiply_adds=work)
