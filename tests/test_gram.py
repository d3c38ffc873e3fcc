import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quonlib import gram
from quonlib.qfock import q_inner_product
from quonlib.qpoly import QPoly

Q = QPoly.q()
ONE = QPoly.one()


def det_bareiss_poly(rows):
    """Reference determinant: fraction-free Bareiss elimination over the
    polynomial ring, in place; each exact_div is guaranteed to succeed."""
    m = len(rows)
    if m == 0:
        return QPoly.one()
    sign = 1
    prev = QPoly.one()
    for k in range(m - 1):
        if rows[k][k].is_zero():
            for i in range(k + 1, m):
                if not rows[i][k].is_zero():
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return QPoly.zero()
        pk = rows[k][k]
        for i in range(k + 1, m):
            rik = rows[i][k]
            for j in range(k + 1, m):
                rows[i][j] = (pk * rows[i][j] - rik * rows[k][j]).exact_div(prev)
            rows[i][k] = QPoly.zero()
        prev = pk
    det = rows[m - 1][m - 1]
    return -det if sign < 0 else det


def all_pairs_gram(n):
    """Reference build: <u, v> through the Fock action for all (n!)^2
    pairs of orderings, in the lexicographic order of gram_matrix."""
    words = list(itertools.permutations(range(n)))
    return tuple(tuple(q_inner_product(u, v) for v in words) for u in words)


def test_gram_n1():
    g = gram.gram_matrix(1)
    assert g.entries == ((ONE,),)


def test_gram_n2():
    g = gram.gram_matrix(2)
    assert g.entries == ((ONE, Q), (Q, ONE))


def test_gram_n3_selected_entries():
    g = gram.gram_matrix(3)
    identity = g.perms.index((0, 1, 2))
    adjacent = g.perms.index((1, 0, 2))
    cycle = g.perms.index((1, 2, 0))
    assert g.entries[identity][adjacent] == Q
    assert g.entries[identity][cycle] == Q * Q


def test_gram_symmetric_unit_diagonal():
    g = gram.gram_matrix(3)
    for i in range(g.dim):
        assert g.entries[i][i] == ONE
        for j in range(g.dim):
            assert g.entries[i][j] == g.entries[j][i]


def test_entries_are_inversion_monomials():
    for n in (2, 3, 4):
        g = gram.gram_matrix(n)
        entries = g.entries
        for i, s in enumerate(g.perms):
            for j, t in enumerate(g.perms):
                tinv = [0] * n
                for pos, x in enumerate(t):
                    tinv[x] = pos
                rel = tuple(tinv[x] for x in s)
                assert entries[i][j] == QPoly.monomial(gram.inversions(rel))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_build_equals_all_pairs_oracle(n):
    g = gram.gram_matrix(n)
    oracle = all_pairs_gram(n)
    assert g.perms == tuple(itertools.permutations(range(n)))
    assert g.entries == oracle


def test_build_rejects_a_row_entry_that_is_not_a_monic_monomial(monkeypatch):
    monkeypatch.setattr(gram, "q_inner_product", lambda u, v: 2 * Q)
    with pytest.raises(ValueError, match="not a monic monomial"):
        gram.gram_matrix(3)


def test_evaluate_exact_and_float():
    g = gram.gram_matrix(3)
    # the ranks at q = +-1 from the integer table, against sympy on the
    # exact entries evaluated there
    for sign in (1, -1):
        exact = sympy.Matrix([[e(sign) for e in row] for row in g.entries])
        assert gram.rank_at_limit(3, sign) == exact.rank() == 1
    # the float table is built as Horner's rule evaluates each monomial
    x = 0.37
    np.testing.assert_array_equal(
        g.evaluate_float(x), [[e(x) for e in row] for row in g.entries])


@pytest.fixture(scope="module")
def gram6():
    return gram.gram_matrix(6)


def test_n6_entries_match_fock_action_and_inversions(gram6):
    rng = random.Random(6)
    for _ in range(300):
        i, j = rng.randrange(gram6.dim), rng.randrange(gram6.dim)
        u, v = gram6.perms[i], gram6.perms[j]
        entry = QPoly.monomial(int(gram6.exponents[i, j]))
        assert entry == q_inner_product(u, v)
        u_inv = [0] * 6
        for pos, x in enumerate(u):
            u_inv[x] = pos
        assert entry == QPoly.monomial(gram.inversions(u_inv[x] for x in v))


def test_n6_positivity(gram6):
    scan = gram.positivity_scan(6, [-0.9, -0.5, 0.0, 0.5, 0.9])
    assert len(scan) == 5
    assert all(e > 0 for _, e in scan)


def test_n6_float_determinant_matches_zagier(gram6):
    for x in (-0.3, 0.45):
        dv = float(np.linalg.det(gram6.evaluate_float(x)))
        assert dv == pytest.approx(gram.zagier_eval_float(6, x), rel=1e-9)


def test_zagier_formula_small():
    assert gram.zagier_determinant(1) == ONE
    assert gram.zagier_determinant(2) == ONE - Q ** 2
    assert gram.zagier_determinant(3) == (ONE - Q ** 2) ** 6 * (ONE - Q ** 6)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gram.zagier_determinant(0)


def test_det_exact_small_matrices():
    assert gram.det_exact([]) == ONE
    assert gram.det_exact([[QPoly([2]), ONE], [ONE, ONE]]) == ONE
    assert gram.det_exact([[ONE, QPoly.zero()], [QPoly.zero(), ONE]]) == ONE
    assert gram.det_exact(gram.gram_matrix(2).entries) == ONE - Q ** 2


def test_det_matches_zagier():
    for n in (1, 2, 3, 4):
        assert gram.det_gram_exact(n) == gram.zagier_determinant(n)


def test_det_never_builds_the_gram_matrix(monkeypatch):
    # the blocks come from one walk over S_n and the Fock-action exponents
    # alone, not from the n! x n! matrix
    def refuse(n):
        raise AssertionError(f"gram_matrix({n}) called")
    monkeypatch.setattr(gram, "gram_matrix", refuse)
    for n in (1, 2, 3, 4):
        assert gram.det_gram_exact(n) == gram.zagier_determinant(n)


def test_det_matches_zagier_past_the_exact_limit(monkeypatch):
    # EXACT_LIMIT is read at each call; n = 5 takes about 0.3 s
    monkeypatch.setattr(gram, "EXACT_LIMIT", 5)
    assert gram.det_gram_exact(5) == gram.zagier_determinant(5)


def dense(columns):
    """A matrix given as columns of (row, value) pairs, as rows."""
    out = [[Fraction(0)] * len(columns) for _ in columns]
    for c, col in enumerate(columns):
        for r, value in col:
            out[r][c] += value
    return out


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seminormal_generators_satisfy_the_coxeter_relations(n):
    for shape in gram.partitions(n):
        gens = gram.seminormal_generators(shape)
        assert all(len(col) <= 2 for gen in gens for col in gen)
        s = [dense(cols) for cols in gens]
        dim = len(gram.standard_tableaux(shape))
        eye = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
        for i in range(n - 1):
            assert matmul(s[i], s[i]) == eye
            for j in range(i + 1, n - 1):
                if j == i + 1:
                    assert (matmul(matmul(s[i], s[j]), s[i])
                            == matmul(matmul(s[j], s[i]), s[j]))
                else:
                    assert matmul(s[i], s[j]) == matmul(s[j], s[i])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_irreducible_dimensions_square_sum_to_n_factorial(n):
    dims = [len(gram.standard_tableaux(shape)) for shape in gram.partitions(n)]
    assert sum(d * d for d in dims) == math.factorial(n)


def block_det_of_exponent_function(monkeypatch, n, phi):
    """det_gram_exact and the reference determinant of the group matrix
    q^phi(u_i^-1 u_j), phi given as a list over the lexicographic perms;
    the matrix comes from gram_matrix's own table, fed phi as its row."""
    perms = list(itertools.permutations(range(n)))
    monkeypatch.setattr(gram, "q_inner_product",
                        lambda u, v: QPoly.monomial(phi[perms.index(v)]))
    reference = det_bareiss_poly([list(row)
                                  for row in gram.gram_matrix(n).entries])
    return gram.det_gram_exact(n), reference


# Against Zagier the blocks meet one exponent function, inv, which has
# symmetries of its own (inv(w) = inv(w^-1), inv is the length); these check
# the factorisation on functions with none.  No determinant can tell w from
# w^-1 (the group matrix transposes) or a shape from its conjugate (both
# blocks enter with the same power), so neither choice is pinned here.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_block_product_equals_group_determinant_s3(phi):
    with pytest.MonkeyPatch.context() as monkeypatch:
        block, reference = block_det_of_exponent_function(monkeypatch, 3, phi)
    assert block == reference


def test_block_product_equals_group_determinant_s4(monkeypatch):
    perms = list(itertools.permutations(range(4)))
    # exponents 0 and 1 keep the reference elimination near a second; many
    # such draws have determinant 0, so the check below asks for one that
    # does not
    rng = random.Random(0)
    phi = [rng.randint(0, 1) for _ in perms]
    # phi is neither inverse-symmetric nor constant on conjugacy classes
    inverse = [tuple(w.index(k) for k in range(4)) for w in perms]
    assert any(phi[i] != phi[perms.index(v)] for i, v in enumerate(inverse))
    transpositions = [phi[i] for i, w in enumerate(perms)
                      if sum(w[k] != k for k in range(4)) == 2]
    assert len(set(transpositions)) == 2
    block, reference = block_det_of_exponent_function(monkeypatch, 4, phi)
    assert not reference.is_zero()
    assert block == reference


def test_det_exact_rational_rows_9x9():
    # each row is scaled to integers before the integer points are taken,
    # so no value of a rational entry is truncated
    rng = random.Random(9)
    entries = [[QPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                for _ in range(9)] for _ in range(9)]
    reference = det_bareiss_poly([list(row) for row in entries])
    assert gram.det_exact(entries) == reference


rational_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    max_size=3).map(QPoly)
# large coefficients of either sign, integers or not, where the packing
# shift has to be taken from the coefficient bound rather than the degree
wide_polys = st.lists(
    st.one_of(st.integers(-10 ** 6, 10 ** 6),
              st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                           max_denominator=1000)),
    max_size=4).map(QPoly)


@st.composite
def square_poly_matrices(draw, polys=rational_polys, largest=4):
    m = draw(st.integers(1, largest))
    return [[draw(polys) for _ in range(m)] for _ in range(m)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(square_poly_matrices(),
                 square_poly_matrices(wide_polys, largest=3)))
def test_both_det_exact_paths_agree(entries):
    # one evaluation (det_exact) against the polynomial Bareiss oracle
    reference = det_bareiss_poly([list(row) for row in entries])
    assert gram.det_exact(entries) == reference


def sylvester_hadamard(order):
    """The ±1 Sylvester-Hadamard matrix of an order that is a power of 2:
    its rows are orthogonal, so Hadamard's inequality holds with
    equality, the tight case of det_exact's coefficient bound."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("power", [0, 3])
def test_det_exact_of_hadamard_matrices(order, power):
    entries = [[QPoly.monomial(power, x) for x in row]
               for row in sylvester_hadamard(order)]
    reference = det_bareiss_poly([list(row) for row in entries])
    # |det H| = order^(order/2), reached by no smaller bound
    assert abs(reference.coeffs[-1]) == order ** (order // 2)
    assert gram.det_exact(entries) == reference


def test_det_exact_takes_one_integer_determinant(monkeypatch):
    calls = []
    bareiss = gram._det_bareiss_int
    monkeypatch.setattr(gram, "_det_bareiss_int",
                        lambda rows: calls.append(rows) or bareiss(rows))
    entries = gram.gram_matrix(3).entries
    assert gram.det_exact(entries) == gram.zagier_determinant(3)
    assert len(calls) == 1


def test_det_exact_refuses_a_value_past_the_degree_bound(monkeypatch):
    # a faulty integer determinant whose digits reach past the sum of the
    # rows' degrees reads back as no determinant of these entries
    bareiss = gram._det_bareiss_int
    monkeypatch.setattr(gram, "_det_bareiss_int",
                        lambda rows: bareiss(rows) * rows[0][1] ** 3)
    with pytest.raises(ValueError, match="past the degree bound 2"):
        gram.det_exact(gram.gram_matrix(2).entries)


small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def integer_matrices(draw):
    # products of an m x k and a k x c factor, so the rank is often below
    # min(m, c)
    m, k, c = (draw(st.integers(1, 5)), draw(st.integers(1, 4)),
               draw(st.integers(1, 5)))
    a = [[draw(small_ints) for _ in range(k)] for _ in range(m)]
    b = [[draw(small_ints) for _ in range(c)] for _ in range(k)]
    product = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)]
               for i in range(m)]
    return draw(st.sampled_from([product, a]))


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_rank_exact_matches_sympy(rows):
    expected = sympy.Matrix(rows).rank()
    assert gram._bareiss([list(row) for row in rows])[0] == expected


def test_rank_exact_examples():
    assert gram._bareiss([[1, 2], [2, 4]])[0] == 1
    assert gram._bareiss([[0, 0], [0, 0]])[0] == 0
    assert gram._bareiss([[1, 2], [1, 2], [0, 1]])[0] == 2
    assert gram._bareiss([[0, 1, 0], [0, 0, 1]])[0] == 2


def test_det_exact_of_the_whole_n4_gram_matrix():
    # det_exact on the 24x24 matrix itself, not on its blocks
    det = gram.det_exact(gram.gram_matrix(4).entries)
    assert det == gram.zagier_determinant(4)


def test_exact_limit_enforced():
    # one range, 1..EXACT_LIMIT, on either side
    for n in (5, 0, -1):
        with pytest.raises(gram.GramLimitError,
                           match=rf"n={n} outside supported range 1\.\.4 of"
                                 " the exact determinant"):
            gram.det_gram_exact(n)
    with pytest.raises(gram.GramLimitError):
        gram.gram_matrix(9)


def dense_scan(n, q_samples):
    """Oracle: the least eigenvalue of the whole n! x n! matrix at each q."""
    g = gram.gram_matrix(n)
    return [float(np.linalg.eigvalsh(g.evaluate_float(x)).min())
            for x in q_samples]


# criterion 3's samples, and those of the README's `positivity --n 4`
SCAN_SAMPLES = list(np.linspace(-0.98, 0.98, 50))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_matches_the_dense_oracle(n):
    scan = gram.positivity_scan(n, SCAN_SAMPLES)
    assert [x for x, _ in scan] == SCAN_SAMPLES
    np.testing.assert_allclose([e for _, e in scan],
                               dense_scan(n, SCAN_SAMPLES), rtol=0, atol=1e-13)


def test_scan_never_builds_the_gram_matrix(monkeypatch):
    def refuse(n):
        raise AssertionError(f"gram_matrix({n}) called")
    monkeypatch.setattr(gram, "gram_matrix", refuse)
    scan = gram.positivity_scan(5, SCAN_SAMPLES)
    assert gram.all_positive(scan)


def inverse(w):
    return tuple(sorted(range(len(w)), key=w.__getitem__))


@st.composite
def symmetric_exponent_functions(draw):
    """n <= 4 and an exponent function phi with phi(w) = phi(w^-1), as a
    dict over the one-line permutations."""
    n = draw(st.integers(1, 4))
    phi = {}
    for w in itertools.permutations(range(n)):
        w_inv = inverse(w)
        phi[w] = phi[w_inv] if w_inv in phi else draw(st.integers(0, 6))
    return n, phi


@settings(max_examples=30, deadline=None)
@given(symmetric_exponent_functions(),
       st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=4))
def test_scan_of_symmetric_exponent_functions(n_phi, samples):
    # the blocks and the dense oracle read phi through the same hook
    n, phi = n_phi
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(gram, "q_inner_product",
                            lambda u, v: QPoly.monomial(phi[v]))
        scan = gram.positivity_scan(n, samples)
        reference = dense_scan(n, samples)
    np.testing.assert_allclose([e for _, e in scan], reference,
                               rtol=0, atol=1e-12)


def test_scan_refuses_an_exponent_function_that_is_not_symmetric(
        monkeypatch):
    # f((1, 2, 0)) raised by one: its inverse (2, 0, 1) keeps inv = 2
    def phi(u, v):
        return QPoly.monomial(gram.inversions(v) + (v == (1, 2, 0)))
    monkeypatch.setattr(gram, "q_inner_product", phi)
    with pytest.raises(ValueError, match="M_3 is not symmetric"):
        gram.positivity_scan(3, [0.5])


def test_block_minima_are_no_less_accurate_than_the_dense_ones():
    # against 40-digit eigenvalues of the whole matrix; per n, the largest
    # error of the block minima over the samples is at most the dense one's
    samples = (-0.98, -0.9, 0.5, 0.9, 0.98)
    with mpmath.workdps(40):
        for n in (2, 3, 4):
            g = gram.gram_matrix(n)
            exact = []
            for x in samples:
                q = mpmath.mpf(x)
                m = mpmath.matrix([[q ** e for e in row]
                                   for row in g.exponents.tolist()])
                exact.append(min(mpmath.eigsy(m, eigvals_only=True)))
            scan = [e for _, e in gram.positivity_scan(n, samples)]
            block = max(abs(e - r) for e, r in zip(scan, exact))
            dense = max(abs(e - r)
                        for e, r in zip(dense_scan(n, samples), exact))
            assert block <= dense
            assert block < 4e-16


def test_orthogonal_generators_are_symmetric_involutions_with_braids():
    for n in (2, 3, 4, 5):
        for shape in gram.partitions(n):
            dim = len(gram.standard_tableaux(shape))
            s = []
            for cols in gram.orthogonal_generators(shape):
                m = np.zeros((dim, dim))
                for c, col in enumerate(cols):
                    for r, value in col:
                        m[r, c] = value
                s.append(m)
            for i, si in enumerate(s):
                np.testing.assert_array_equal(si, si.T)
                np.testing.assert_allclose(si @ si, np.eye(dim), atol=1e-15)
                if i + 1 < len(s):
                    sj = s[i + 1]
                    np.testing.assert_allclose(si @ sj @ si, sj @ si @ sj,
                                               atol=1e-15)


def test_positivity_scan_examples():
    ((_, e0),) = gram.positivity_scan(2, [0.0])
    assert e0 == pytest.approx(1.0)
    ((_, e),) = gram.positivity_scan(2, [0.5])
    assert e == pytest.approx(0.5)
    ((_, e3),) = gram.positivity_scan(3, [0.9])
    assert e3 > 0


def test_positivity_scan_rejects_endpoints():
    with pytest.raises(ValueError):
        gram.positivity_scan(2, [1.0])


def test_positivity_inside_interval():
    for n in (2, 3, 4):
        scan = gram.positivity_scan(n, list(np.linspace(-0.98, 0.98, 25)))
        assert all(e > 1e-12 for _, e in scan)


def test_rank_collapse_at_limits():
    assert gram.rank_at_limit(1, 1) == 1
    for n in (2, 3, 4):
        assert gram.rank_at_limit(n, 1) == 1
        assert gram.rank_at_limit(n, -1) == 1


def test_limit_eigenvector_is_sign_vector():
    for n in (2, 3):
        for sign in (1, -1):
            ok, eig = gram.limit_eigenvector_check(n, sign)
            assert ok
            assert eig == [1, 2, 6][n - 1]


def test_n5_float_agreement():
    g = gram.gram_matrix(5)
    for x in np.linspace(-0.9, 0.9, 7):
        dv = float(np.linalg.det(g.evaluate_float(x)))
        zv = gram.zagier_eval_float(5, x)
        assert dv == pytest.approx(zv, rel=1e-9)


def dense_eigenvector_check(n, sign):
    """Oracle: M_n(sign) times the sign vector, as n! x n! int64 arrays;
    the products are exact, as every row sum is at most n! in size."""
    g = gram.gram_matrix(n)
    mat = np.power(sign, g.exponents, dtype=np.int64)
    vec = np.array([sign ** gram.inversions(p) for p in g.perms],
                   dtype=np.int64)
    return bool(np.array_equal(mat @ vec, g.dim * vec)), g.dim


@st.composite
def exponent_functions(draw):
    """n <= 4 and an exponent function phi over the one-line permutations:
    inv(w) plus an even offset, which keeps the parity, or arbitrary,
    which mostly breaks it."""
    n = draw(st.integers(1, 4))
    perms = list(itertools.permutations(range(n)))
    if draw(st.booleans()):
        return n, {w: gram.inversions(w) + 2 * draw(st.integers(0, 2))
                   for w in perms}
    return n, {w: draw(st.integers(0, 6)) for w in perms}


@settings(max_examples=40, deadline=None)
@given(exponent_functions(), st.sampled_from([1, -1]))
def test_eigenvector_check_matches_the_dense_oracle(n_phi, sign):
    n, phi = n_phi
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(gram, "q_inner_product",
                            lambda u, v: QPoly.monomial(phi[v]))
        assert (gram.limit_eigenvector_check(n, sign)
                == dense_eigenvector_check(n, sign))


def test_eigenvector_check_fails_where_the_parity_breaks(monkeypatch):
    # f raised by one at a single w: sign^f(w) = -chi(w) there at q = -1,
    # and every entry is still 1 at q = +1
    monkeypatch.setattr(gram, "q_inner_product", lambda u, v: QPoly.monomial(
        gram.inversions(v) + (v == (1, 2, 0))))
    assert gram.limit_eigenvector_check(3, -1) == (False, 6)
    assert dense_eigenvector_check(3, -1) == (False, 6)
    assert gram.limit_eigenvector_check(3, 1) == (True, 6)


def test_eigenvector_check_refuses_a_sign_outside_the_limits():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign must be"):
            gram.limit_eigenvector_check(3, sign)


def test_eigenvector_check_never_builds_the_gram_matrix(monkeypatch):
    def refuse(n):
        raise AssertionError(f"gram_matrix({n}) called")
    monkeypatch.setattr(gram, "gram_matrix", refuse)
    for sign in (1, -1):
        assert gram.limit_eigenvector_check(5, sign) == (True, 120)


@pytest.mark.parametrize("call, sizes", [
    (gram.gram_matrix, (1, 2, 3, 4, 5)),
    (gram.det_gram_exact, (1, 2, 3, 4)),
    (lambda n: gram.positivity_scan(n, [0.5]), (1, 2, 3, 4, 5)),
    (lambda n: gram.limit_eigenvector_check(n, -1), (1, 2, 3, 4, 5)),
], ids=["gram_matrix", "det_gram_exact", "positivity_scan",
        "limit_eigenvector_check"])
def test_each_consumer_reads_the_row_once(monkeypatch, call, sizes):
    # exponent_row is the one reader of the Fock action: n! calls of
    # q_inner_product, one for each w
    calls = []
    monkeypatch.setattr(gram, "q_inner_product",
                        lambda u, v: calls.append(v) or q_inner_product(u, v))
    for n in sizes:
        calls.clear()
        call(n)
        assert len(calls) == math.factorial(n)


def test_the_walk_never_calls_the_fock_action(monkeypatch):
    rows = {n: gram.exponent_row(n) for n in (1, 2, 3, 4)}
    blocks = {(n, gens): gram._group_blocks(row, gens)
              for n, row in rows.items()
              for gens in (gram.seminormal_generators,
                           gram.orthogonal_generators)}

    def refuse(u, v):
        raise AssertionError("the Fock action was called")
    monkeypatch.setattr(gram, "q_inner_product", refuse)
    for (n, gens), expected in blocks.items():
        assert gram._group_blocks(rows[n], gens) == expected


def test_exponent_row_is_the_inversion_count_in_lexicographic_order():
    for n in range(1, 6):
        row = gram.exponent_row(n)
        assert list(row) == list(itertools.permutations(range(n)))
        assert all(e == gram.inversions(w) for w, e in row.items())
    for n in (0, 7):
        with pytest.raises(gram.GramLimitError,
                           match=rf"n={n} outside supported range 1\.\.6$"):
            gram.exponent_row(n)
