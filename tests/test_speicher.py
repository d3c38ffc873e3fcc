import re
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quonlib import speicher
from quonlib.qfock import parse_word
from quonlib.speicher import (expectation_given_signs, expected_over_signs,
                              mc_estimate, sample_sign_matrix)
from quonlib.wick import enumerate_contractions, wick_expectation


def test_sign_matrix_properties():
    signs = sample_sign_matrix(20, 0.3, np.random.default_rng(0))
    assert signs.shape == (20, 20) and signs.dtype == np.int64
    assert np.array_equal(signs, signs.T)
    assert np.all(np.diag(signs) == 1)
    assert set(np.unique(signs)) <= {-1, 1}


def test_sign_matrix_extremes():
    plus = sample_sign_matrix(8, 1.0, np.random.default_rng(1))
    assert np.all(plus == 1)
    minus = sample_sign_matrix(8, -1.0, np.random.default_rng(1))
    off = ~np.eye(8, dtype=bool)
    assert np.all(minus[off] == -1)


def test_sign_matrix_rejects_bad_q():
    with pytest.raises(ValueError):
        sample_sign_matrix(4, 1.5, np.random.default_rng(0))


def test_bose_corner_is_exact():
    # all-plus signs reproduce the Bose value for every N
    word = parse_word("a1 a1 c1 c1")
    for n in (1, 3, 10):
        sm = sample_sign_matrix(n, 1.0, np.random.default_rng(0))
        assert expectation_given_signs(word, sm) == 2
    assert wick_expectation(word)(1.0) == 2.0


def test_single_chord_is_sign_free():
    word = parse_word("a1 c1")
    sm = sample_sign_matrix(5, -0.7, np.random.default_rng(3))
    assert expectation_given_signs(word, sm) == 1


def test_expectation_given_signs_exact_value():
    # N=2 crossing diagram: (N + sum of off-diagonal signs pairings)/N^2
    word = parse_word("a1 a2 c1 c2")
    signs = np.array([[1, -1], [-1, 1]], dtype=np.int64)
    # assignments: (0,0),(1,1) give +1 each; (0,1),(1,0) give -1 each
    assert expectation_given_signs(word, signs) == Fraction(0)


def test_expectation_given_signs_rejects_bad_sign_matrices():
    word = parse_word("a1 a2 c1 c2")
    with pytest.raises(ValueError, match="square"):
        expectation_given_signs(word, np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="square"):
        expectation_given_signs(word, np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError, match="symmetric"):
        expectation_given_signs(word, np.array([[1, 1], [-1, 1]]))


def test_expected_over_signs_matches_brute_force():
    # enumerate all sign matrices for small N and average explicitly
    word = parse_word("a1 a1 c1 c1")
    q = Fraction(1, 3)
    n = 2
    prob_plus = (1 + q) / 2
    total = Fraction(0)
    for s01 in (1, -1):
        signs = np.array([[1, s01], [s01, 1]], dtype=np.int64)
        p = prob_plus if s01 == 1 else 1 - prob_plus
        total += p * expectation_given_signs(word, signs)
    assert expected_over_signs(word, q, n) == total


def test_expected_over_signs_three_chords():
    word = parse_word("a1 a1 a1 c1 c1 c1")
    q = Fraction(-1, 2)
    n = 2
    prob_plus = (1 + q) / 2
    total = Fraction(0)
    for s01 in (1, -1):
        signs = np.array([[1, s01], [s01, 1]], dtype=np.int64)
        p = prob_plus if s01 == 1 else 1 - prob_plus
        total += p * expectation_given_signs(word, signs)
    assert expected_over_signs(word, q, n) == total


def test_expected_over_signs_converges_to_quon():
    word = parse_word("a1 a2 c1 c2")
    q = Fraction(1, 2)
    target = Fraction(1, 2)  # q^1 for the single crossing diagram
    gaps = [abs(expected_over_signs(word, q, n) - target)
            for n in (2, 8, 32)]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("text", ["a1 a2 c1 c2", "a1 a2 a3 c1 c2 c3",
                                  "a1 a1 c1 c1", "a1 a2 a1 c2 c1 c1",
                                  "a1 a2 c1 a3 c2 c3"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("q", [Fraction(-1), Fraction(-1, 3), Fraction(1, 2)])
def test_bias_bound_holds_for_the_exact_average(text, n, q):
    word = parse_word(text)
    gap = abs(expected_over_signs(word, q, n) - wick_expectation(word)(q))
    bound = speicher.bias_bound(len(enumerate_contractions(word)),
                                len(word) // 2, n)
    assert gap <= bound


def test_bias_bound_values():
    # one diagram of two chords: exactly 2/N, the old tolerance term
    assert speicher.bias_bound(1, 2, 100) == Fraction(2, 100)
    assert speicher.bias_bound(1, 3, 100) == Fraction(596, 10000)
    assert speicher.bias_bound(3, 1, 5) == 0
    assert speicher.bias_bound(2, 4, 3) == 4        # no assignment is distinct


def test_mc_estimate_reproducible():
    word = parse_word("a1 a2 c1 c2")
    a = mc_estimate(word, 0.5, 50, 40, seed=11)
    b = mc_estimate(word, 0.5, 50, 40, seed=11)
    assert a == b
    c = mc_estimate(word, 0.5, 50, 40, seed=12)
    assert c.mean != a.mean


def test_mc_estimate_matches_closed_form():
    word = parse_word("a1 a2 c1 c2")
    q = 0.5
    n = 40
    est = mc_estimate(word, q, n, 3000, seed=2024)
    want = float(expected_over_signs(word, Fraction(1, 2), n))
    assert abs(est.mean - want) < 4 * est.stderr + 1e-12


def test_mc_estimate_requires_samples():
    with pytest.raises(ValueError):
        mc_estimate(parse_word("a1 c1"), 0.0, 4, 1, seed=0)
    with pytest.raises(ValueError, match="component"):
        mc_estimate(parse_word("a1 c1"), 0.0, 0, 4, seed=0)


def test_quon_target_examples():
    # the N -> infinity target is the quon VEV evaluated at q
    assert wick_expectation(parse_word("a1 c1"))(0.37) == 1.0
    assert wick_expectation(parse_word("a1 a1 c1 c1"))(0.25) == \
        pytest.approx(1.25)
    assert wick_expectation(parse_word("a1 c2"))(0.5) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.fractions(min_value=-1, max_value=1))
def test_fixed_sign_expectation_bounded(n, q):
    # |finite-N expectation| is at most the number of contractions
    word = parse_word("a1 a1 c1 c1")
    sm = sample_sign_matrix(n, float(q), np.random.default_rng(42))
    val = expectation_given_signs(word, sm)
    assert abs(val) <= 2


def chain_word(k):
    """a1 a2 c1 a3 c2 ... ak c(k-1) ck: chord i crosses only chord i+-1."""
    tokens = ["a1"]
    for i in range(2, k + 1):
        tokens += [f"a{i}", f"c{i - 1}"]
    return parse_word(" ".join(tokens + [f"c{k}"]))


class _Planned(Exception):
    """check_estimate went on to the estimate."""


@pytest.mark.parametrize("word, refused", [
    (parse_word("a1 a2 c1 c2"), 1),
    (parse_word("a1 " * 8 + "c1 " * 8), 42),
    (chain_word(27), 515),
])
def test_check_estimate_refuses_every_tolerance_no_mean_can_fail(
        monkeypatch, word, refused):
    # up to N = refused the bias bound reaches D + |q-value|, the farthest
    # a mean of D diagrams can lie from the q-value; one component more and
    # a mean can fail
    def planned(*args):
        raise _Planned
    monkeypatch.setattr(speicher, "mc_estimate", planned)
    value = wick_expectation(word)
    reach = value(1) + abs(value(Fraction(1, 2)))
    for n in (refused, refused // 2 + 1):
        assert speicher.bias_bound(value(1), len(word) // 2, n) >= reach
        with pytest.raises(speicher.BiasBoundError,
                           match=f"at N={n} the bias bound"):
            speicher.check_estimate(word, 0.5, n, 2, 0)
    with pytest.raises(_Planned):
        speicher.check_estimate(word, 0.5, refused + 1, 2, 0)


def test_check_estimate_refuses_a_word_without_diagrams():
    # D = 0: every mean is 0, the quon value too
    for n in (1, 100):
        with pytest.raises(speicher.BiasBoundError, match="for D=0"):
            speicher.check_estimate(parse_word("a1 c2"), 0.5, n, 2, 0)


def test_mc_estimate_sums_past_int64():
    # 11 chords at N = 100: the sign sums reach 100^11 > 2^63
    word = chain_word(11)
    plus = mc_estimate(word, 1.0, 100, 200, seed=3)
    assert plus.mean == pytest.approx(1.0, rel=1e-12)
    minus = mc_estimate(word, -1.0, 100, 200, seed=3)
    assert minus.mean == pytest.approx((-0.98) ** 10, rel=1e-12)
    est = mc_estimate(word, 0.5, 100, 200, seed=3)
    want = float(expected_over_signs(word, Fraction(1, 2), 100))
    assert abs(est.mean - want) <= 5 * est.stderr


@st.composite
def chord_words(draw, max_pairs=7):
    npairs = draw(st.integers(1, max_pairs))
    modes = draw(st.lists(st.integers(0, 3), min_size=npairs,
                          max_size=npairs))
    syms = [("a", m) for m in modes] + [("c", m) for m in modes]
    return tuple(draw(st.permutations(syms)))


@settings(max_examples=100, deadline=None)
@given(chord_words(), st.integers(1, 12), st.floats(-1, 1),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_float_contraction_matches_exact(word, n, q, seed, data):
    diagrams = enumerate_contractions(word)
    assume(diagrams)
    plan = speicher._plan_contraction(data.draw(st.sampled_from(diagrams)),
                                      n)
    signs = sample_sign_matrix(n, q, seed)[None]
    exact = speicher._assignment_sum(plan, signs.astype(object), n)
    assert speicher._assignment_sum(plan, signs.astype(float), n) == exact


@settings(max_examples=50, deadline=None)
@given(chord_words(max_pairs=6), st.one_of(st.integers(1, 12), st.just(100)))
def test_plans_do_not_depend_on_the_stack_length(word, n):
    # a plan is made on a stack of one sign matrix and serves blocks of any
    # length; numpy's greedy path must not change with the batch label's
    # size (13 is the block at N = 100)
    like = np.broadcast_to(0.0, (13, n, n))
    for plan in speicher._plan_word(word, n):
        if plan.edges:
            path = np.einsum_path(*speicher._operands(plan.edges, like),
                                  [speicher._BATCH], optimize="greedy")[0]
            assert plan.path == path


@settings(max_examples=40, deadline=None)
@given(chord_words(max_pairs=5), st.integers(1, 12),
       st.sampled_from([1.0, -1.0]))
def test_mc_at_bose_and_fermi_points_is_exact(word, n, q):
    # at q = +-1 every draw is the same matrix, so the mean is that value
    fixed = sample_sign_matrix(n, q, 0)
    est = mc_estimate(word, q, n, 2, seed=1)
    assert est.mean == float(expectation_given_signs(word, fixed))


def _expected_over_signs_loop(word, q, n):
    """Reference: every set partition of the chords one at a time."""
    q = Fraction(q)
    total = Fraction(0)
    for pairs, edges in enumerate_contractions(word):
        chords = len(pairs)
        patterns = [[]]
        for _ in range(chords):
            patterns = [p + [b] for p in patterns
                        for b in range(max(p, default=-1) + 2)]
        for p in patterns:
            blocks = max(p) + 1
            if blocks > n:
                continue
            mult = Counter()
            for i, j in edges:
                if p[i] != p[j]:
                    mult[frozenset((p[i], p[j]))] += 1
            labelings = 1
            for b in range(blocks):
                labelings *= n - b
            w = q ** sum(m % 2 for m in mult.values())
            total += w * Fraction(labelings, n ** chords)
    return total


@settings(max_examples=60, deadline=None)
@given(chord_words(max_pairs=6), st.integers(1, 8),
       st.fractions(min_value=-1, max_value=1))
def test_expected_over_signs_matches_partition_loop(word, n, q):
    assert expected_over_signs(word, q, n) == \
        _expected_over_signs_loop(word, q, n)


def mc_estimate_per_sample(word, q, n, samples, seed):
    """Reference: one unbatched einsum per diagram per sample, each sample
    drawn into an N x N matrix from its own SeedSequence child."""
    diagrams = []
    for pairs, edges in enumerate_contractions(word):
        chords = sorted({i for e in edges for i in e})
        label = {c: k for k, c in enumerate(chords)}
        sublists = [[label[i], label[j]] for i, j in edges]
        path = None
        if edges:
            like = np.broadcast_to(0.0, (n, n))
            path = np.einsum_path(*[x for e in sublists for x in (like, e)],
                                  [], optimize="greedy")[0]
        diagrams.append((sublists, path, n ** (len(pairs) - len(chords))))
    n_chords = len(word) // 2
    denom = float(n) ** n_chords if n_chords else 1.0
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    signs = np.ones((n, n))
    values = np.empty(samples)
    children = np.random.SeedSequence(seed).spawn(samples)
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        draws = (rng.random(n * (n - 1) // 2) < (1.0 + q) / 2.0) * 2.0 - 1.0
        signs[upper] = draws
        signs.T[upper] = draws
        speicher._check_symmetric(signs)
        total = 0
        for sublists, path, free in diagrams:
            if not sublists:
                total += free
                continue
            args = [x for e in sublists for x in (signs, e)]
            total += np.einsum(*args, [], optimize=path) * free
        values[k] = total / denom
    return (float(values.mean()),
            float(values.std(ddof=1) / np.sqrt(samples)))


@settings(max_examples=60, deadline=None)
@given(chord_words(max_pairs=5), st.integers(1, 12), st.floats(-1, 1),
       st.integers(1, 6), st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_batched_estimate_equals_per_sample_loop(word, n, q, block, samples,
                                                 seed):
    # blocks of 1..6 samples: counts below, equal to and not a multiple of
    # the block size, down to 2
    with mock.patch.object(speicher, "_BLOCK_BYTES", block * 8 * n * n):
        est = mc_estimate(word, q, n, samples, seed)
    assert (est.mean, est.stderr) == \
        mc_estimate_per_sample(word, q, n, samples, seed)


@pytest.mark.parametrize("samples", [2, 12, 13, 14, 40])
def test_batched_estimate_at_the_block_budget(samples):
    # N = 100: blocks of 13 samples.  Chains of 8 and 9 chords, as the
    # words workload draws them, sum up to N^9 = 10^18 > 2^53 in float64,
    # where the sums are no longer exact: the batched and per-sample
    # estimates must still agree bit for bit
    cases = [(chain_word(4), 0.5), (chain_word(4), -1.0)]
    if samples in (2, 13, 14):
        cases += [(chain_word(8), 0.5), (chain_word(9), 0.5)]
    for word, q in cases:
        est = mc_estimate(word, q, 100, samples, seed=7)
        assert (est.mean, est.stderr) == \
            mc_estimate_per_sample(word, q, 100, samples, 7)


@pytest.mark.parametrize("text, q, draws", [
    ("a1 a2 c1 c2", 1.0, False),
    ("a1 a2 c1 c2", -1.0, False),
    ("a1 c1", 0.5, False),
    ("a1 a2 c2 c1", 0.5, False),
    ("a1 a2 c1 c2", 0.5, True),
])
def test_signs_are_drawn_only_where_they_can_change_a_sample(monkeypatch,
                                                             text, q, draws):
    # at q = +-1 every sign is fixed, and a word without crossings reads
    # none: no stream is spawned and nothing is drawn; where signs are
    # drawn, the streams are spawned one block of 4 samples at a time
    calls, spawned = [], []
    draw = speicher._draw_signs
    monkeypatch.setattr(speicher, "_draw_signs",
                        lambda *args: calls.append("draw") or draw(*args))

    class SpawnSpy(np.random.SeedSequence):
        def spawn(self, n_children):
            calls.append("spawn")
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", SpawnSpy)
    monkeypatch.setattr(speicher, "_BLOCK_BYTES", 4 * 8 * 10 * 10)
    mc_estimate(parse_word(text), q, 10, 30, seed=0)
    assert ("spawn" in calls, "draw" in calls) == (draws, draws)
    assert all(n <= 4 for n in spawned)
    assert sum(spawned) == (30 if draws else 0)


@pytest.mark.parametrize("k", range(2, 14))
def test_fixed_signs_equal_the_per_sample_loop(k):
    # one contraction stands for every sample at q = +-1, past 2^53 too
    # (k >= 8 at N = 100); N = 100 takes blocks of 13 samples
    word = chain_word(k)
    for q in (1.0, -1.0):
        for samples in (2, 13, 14, 40, 200):
            est = mc_estimate(word, q, 100, samples, seed=k)
            assert (est.mean, est.stderr) == \
                mc_estimate_per_sample(word, q, 100, samples, k)


def test_a_word_without_crossings_needs_no_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("signs drawn")

    monkeypatch.setattr(speicher, "_draw_signs", refuse)
    est = mc_estimate(parse_word("a1 c1"), 0.5, 2000, 20, seed=0)
    assert (est.mean, est.stderr) == (1.0, 0.0)


def test_asymmetric_sign_stack_raises(monkeypatch):
    draw = speicher._draw_signs

    def lopsided(stack, *args):
        draw(stack, *args)
        stack[-1, 0, 1] = -stack[-1, 1, 0]

    monkeypatch.setattr(speicher, "_draw_signs", lopsided)
    with pytest.raises(ValueError, match="symmetric"):
        mc_estimate(parse_word("a1 a2 c1 c2"), 0.5, 4, 5, seed=0)


def test_chord_label_limit():
    # the batch of samples takes one of einsum's 52 labels
    with pytest.raises(speicher.ContractionLimitError, match="51 chords"):
        mc_estimate(chain_word(52), 0.5, 3, 2, seed=0)
    est = mc_estimate(chain_word(51), -1.0, 3, 2, seed=0)
    assert est.mean == pytest.approx((-1 / 3) ** 50, rel=1e-12)


def test_work_budget():
    # 8 chords, all crossing: one step over 8 labels, N^8 per sample
    word = parse_word(" ".join([f"a{i}" for i in range(1, 9)]
                               + [f"c{i}" for i in range(1, 9)]))
    with pytest.raises(speicher.ContractionLimitError, match="multiply-adds"):
        mc_estimate(word, 0.5, 100, 2, seed=0)
    with pytest.raises(speicher.ContractionLimitError, match="multiply-adds"):
        expectation_given_signs(word, sample_sign_matrix(100, 0.5, 0))
    # three operands at once: a loop over all their labels
    triangle = ((0, 1), (0, 2), (1, 2))
    assert speicher._path_work(triangle, ["einsum_path", (0, 1, 2)], 10) \
        == 10 ** 3
    # two at a time: joining (0, 1) and (1, 2) sums label 0 out first and
    # loops over 1 and 2 (label 2 is still needed by edge (2, 3)); the
    # last step sums label 3 out and loops over label 2
    path = ["einsum_path", (0, 1), (0, 1)]
    assert speicher._path_work(((0, 1), (1, 2), (2, 3)), path, 10) == \
        (2 * 10 ** 2 + 10 ** 2) + (10 ** 2 + 10 + 10)
    est = mc_estimate(parse_word("a1 a2 c1 c2"), 0.5, 10, 4, seed=0)
    assert est.multiply_adds == 4 * 10 ** 2
    # fixed signs: one contraction per diagram, whatever the samples (2 *
    # 10^6 samples of 10^4 each at N = 100 would be past the budget)
    est = mc_estimate(parse_word("a1 a2 c1 c2"), 1.0, 10, 4, seed=0)
    assert est.multiply_adds == 10 ** 2
    est = mc_estimate(parse_word("a1 a2 c1 c2"), 1.0, 100, 2 * 10 ** 6, 0)
    assert est.multiply_adds == 10 ** 4
    assert mc_estimate(parse_word("a1 c1"), -1.0, 10, 4, 0).multiply_adds == 0
    with pytest.raises(speicher.ContractionLimitError, match="multiply-adds"):
        mc_estimate(word, 1.0, 100, 2, seed=0)
    # a chain at N = 200 and 2000 samples takes about a second
    plans = speicher._plan_word(chain_word(3), 200, 2000)
    assert 2000 * sum(plan.work for plan in plans) == \
        2000 * (200 + 2 * 200 ** 2)


def test_a_word_past_the_budget_is_refused_before_it_is_planned_out(
        monkeypatch):
    # 7! = 5040 diagrams, the parent planned every one before refusing
    word = parse_word("a1 " * 7 + "c1 " * 7)
    calls = []
    path = np.einsum_path
    monkeypatch.setattr(np, "einsum_path",
                        lambda *a, **k: calls.append(1) or path(*a, **k))
    with pytest.raises(speicher.ContractionLimitError,
                       match="estimated at least .* multiply-adds"):
        mc_estimate(word, 0.5, 10, 200, seed=0)
    assert 0 < len(calls) < 500
    # the first of 9! = 362880 diagrams alone, 36 crossing edges at
    # N = 100, is past the budget, so no other is listed (listing them all
    # takes about 5 s and 430 MB)
    plans = []
    plan = speicher._plan_contraction
    monkeypatch.setattr(speicher, "_plan_contraction",
                        lambda *a: plans.append(1) or plan(*a))
    t0 = time.perf_counter()
    with pytest.raises(speicher.ContractionLimitError,
                       match="estimated at least .* multiply-adds"):
        mc_estimate(parse_word("a1 " * 9 + "c1 " * 9), 0.5, 100, 2, seed=0)
    assert time.perf_counter() - t0 < 1
    assert plans == [1]


def test_sample_bound(monkeypatch):
    # refused before anything is allocated: 8 bytes of values per sample
    bound = speicher.MAX_SAMPLES
    with pytest.raises(ValueError, match=re.escape(f"limit of {bound:.0e}")):
        mc_estimate(parse_word("a1 c1"), 0.5, 3, bound + 1, seed=0)
    # and 8 MAX_SAMPLES bytes of drawn signs per sample, 17 N^2 - 8 N: N =
    # 2170 is the least past it, and N = 70000, within the work budget,
    # would take 83 GB a sample
    def refuse(*args, **kwargs):
        raise AssertionError("the pair positions were allocated")
    monkeypatch.setattr(speicher.np, "triu_indices", refuse)
    assert 17 * 2169 ** 2 - 8 * 2169 <= 8 * bound
    for n in (2170, 70_000):
        refused = re.escape(f"at N={n} one sample of drawn signs takes "
                            f"{17 * n * n - 8 * n} bytes, past the limit "
                            f"of {8 * bound}")
        with pytest.raises(ValueError, match=refused):
            mc_estimate(parse_word("a1 a2 c1 c2"), 0.5, n, 2, seed=0)
        with pytest.raises(ValueError, match=refused):
            sample_sign_matrix(n, 0.5, 0)
    # a word without crossings reads no sign, and takes any N
    for q in (0.5, 1.0, -1.0):
        est = mc_estimate(parse_word("a1 a2 c2 c1"), q, 70_000, 2, seed=0)
        assert (est.mean, est.stderr) == (1.0, 0.0)
    # at q = ±1 the one fixed N x N float64 matrix, 8 N^2 bytes, is held
    # to the same limit: N = 3163 is the least past it, and N = 100000,
    # within the work budget, would take 80 GB
    def unallocated(*args, **kwargs):
        raise AssertionError("the fixed sign matrix was allocated")
    monkeypatch.setattr(speicher.np, "full", unallocated)
    assert 8 * 3162 ** 2 <= 8 * bound
    for n in (3163, 100_000):
        refused = re.escape(f"at N={n} the fixed sign matrix takes "
                            f"{8 * n * n} bytes, past the limit of "
                            f"{8 * bound}")
        for q in (1.0, -1.0):
            with pytest.raises(ValueError, match=refused):
                mc_estimate(parse_word("a1 a2 c1 c2"), q, n, 2, seed=0)


def test_q_is_checked_once_per_call(monkeypatch):
    checks = []
    check = speicher._check_q
    monkeypatch.setattr(speicher, "_check_q",
                        lambda q: checks.append(q) or check(q))
    mc_estimate(parse_word("a1 a2 c1 c2"), 0.5, 4, 30, seed=0)
    assert checks == [0.5]
    with pytest.raises(ValueError, match=r"q=1.5 outside \[-1, 1\]"):
        mc_estimate(parse_word("a1 c1"), 1.5, 4, 2, seed=0)
