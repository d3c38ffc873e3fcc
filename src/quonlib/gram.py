"""Gram matrices of n-quon states and the Zagier determinant identity.

The n! orderings of n distinct-mode creators applied to the vacuum span
an n!-dimensional space for |q| < 1; the matrix of their inner products
has the closed-form determinant

    det M_n(q) = prod_{k=1}^{n-1} (1 - q^{k(k+1)})^{(n-k) n!/(k(k+1))}

whose zeros all sit on the unit circle, so the norms stay positive on
-1 < q < 1.  At q = +-1 the matrix collapses to rank one.

The inner product does not change when the modes are relabelled, so
<u, v> = <id, u^-1 v> = q^f(u^-1 v): exponent_row, the one reader of the
free-Fock action here, gives the row f, and every other function takes
it.  gram_matrix fills the rest from the multiplication table of S_n, as
integer exponents; float values at a point come from a table of powers,
and the integers +-1 at q = +-1 from an integer power of the sign.

So M_n is a group matrix (Zagier, Commun. Math. Phys. 147 (1992) 199):
the sum of q^f(w) R(w) over the right regular representation R of S_n,
which holds each irreducible rho_lambda f_lambda times.  By Frobenius,

    det M_n = prod_lambda det(T_lambda)^f_lambda,
    T_lambda = sum_w q^f(w) rho_lambda(w),

over the irreducible representations rho_lambda of dimension f_lambda.
One walk over S_n (_group_blocks) takes the row, builds every block and
never forms M_n.
det_gram_exact takes the blocks in Young's seminormal form (rational
matrices from standard tableaux and contents), of size at most 6 at
n = 5; it uses neither the inversion count nor the product formula, so
its agreement with zagier_determinant still tests the Fock action
against Zagier.  positivity_scan takes them in Young's orthogonal form,
where rho_lambda(w^-1) = rho_lambda(w)^T: when f(w) = f(w^-1), which it
checks on the row, each T_lambda(q) is real symmetric and the
eigenvalues of M_n(q) are those of the blocks, each repeated f_lambda
times, so it finds the least eigenvalue with no n! x n! array.

Only the float functions (GramMatrix.evaluate_float, gram_matrix,
positivity_scan and rank_at_limit) import numpy, so the exact ones load
no more than qpoly and qfock.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .qfock import inversions, q_inner_product
from .qpoly import QPoly

# largest n for which det_gram_exact computes the exact determinant
EXACT_LIMIT = 4
# largest n the module builds at all
BUILD_LIMIT = 6
# most samples `quon positivity` takes: at n = 6 a positivity_scan holds
# about 2.6 kB a sample at its peak, so this keeps it near 26 MB
SAMPLE_LIMIT = 10 ** 4


class GramLimitError(ValueError):
    """Requested size exceeds the configured resource limit."""


class GramMatrix:
    def __init__(self, n, perms, exponents):
        self.n = n
        self.perms = perms          # lexicographic one-line perms of range(n)
        self.exponents = exponents  # n! x n! int8 ndarray: (i, j) is q ** it

    @property
    def dim(self):
        return len(self.perms)

    @property
    def entries(self):
        """The matrix as an n! x n! tuple-of-tuples of QPoly monomials."""
        monomials = [QPoly.monomial(k)
                     for k in range(int(self.exponents.max()) + 1)]
        return tuple(tuple(monomials[k] for k in row)
                     for row in self.exponents.tolist())

    def evaluate_float(self, x):
        """Matrix at q = x from a table of powers of x, each by one more
        multiplication."""
        import numpy as np
        powers = np.vander([float(x)], int(self.exponents.max()) + 1,
                           increasing=True)[0]
        return powers[self.exponents]


def exponent_row(n):
    """{w: f(w)} with <id, w> = q^f(w) from the free-Fock action, for the
    one-line w of range(n) in lexicographic order: the row of M_n.  Raises
    GramLimitError outside 1..BUILD_LIMIT, ValueError off monic monomials."""
    if not 1 <= n <= BUILD_LIMIT:
        raise GramLimitError(
            f"n={n} outside supported range 1..{BUILD_LIMIT}")
    identity = tuple(range(n))
    row = {}
    for w in itertools.permutations(identity):
        e = q_inner_product(identity, w)
        if e != QPoly.monomial(e.degree):
            raise ValueError(f"<id, {w}> = {e} is not a monic monomial")
        row[w] = e.degree
    return row


def gram_matrix(n):
    """Inner products of all orderings of n distinct-mode creators: entry
    (i, j) is the exponent row at u_i^-1 u_j."""
    import numpy as np
    row = exponent_row(n)
    perms = tuple(row)
    # inv(w) <= n(n-1)/2 fits int8 far beyond any n! x n! that fits memory
    exponents = np.array(list(row.values()), dtype=np.int8)
    p = np.array(perms, dtype=np.intp)
    p_inv = np.argsort(p, axis=1)
    # base-n code of u_i^-1 u_j, whose letter at position k is
    # u_i^-1[u_j[k]]; lexicographic order makes the codes of perms sorted
    code = np.zeros((len(perms), len(perms)), dtype=np.intp)
    for k in range(n):
        code = code * n + p_inv[:, p[:, k]]
    perm_codes = p @ n ** np.arange(n - 1, -1, -1)
    return GramMatrix(n=n, perms=perms,
                      exponents=exponents[np.searchsorted(perm_codes, code)])


def zagier_determinant(n):
    """Expand the closed-form product for det M_n(q) exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = QPoly.one()
    for base, e in zagier_factors(n):
        out = out * base ** e
    return out


def zagier_eval_float(n, x):
    """Float value of det M_n at q = x via the product form.

    The expanded polynomial has huge alternating coefficients (degree
    1200 already at n = 5) and is numerically useless in floats; the
    product form is accurate.
    """
    out = 1.0
    for base, e in zagier_factors(n):
        out *= float(base(float(x))) ** e
    return out


def zagier_factors(n):
    """The (base, exponent) list of the product form, without expanding:
    (1 - q^(k(k+1)), (n-k) n!/(k(k+1))) for k = 1..n-1, each exponent an
    integer."""
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return [(QPoly.one() - QPoly.monomial(k * (k + 1)),
             (n - k) * fact // (k * (k + 1)))
            for k in range(1, n)]


# -- exact determinants ----------------------------------------------------


def _denominator_lcm(values):
    """Least common multiple of the denominators of ints and Fractions:
    the smallest positive integer that makes every value an integer."""
    return math.lcm(*(v.denominator for v in values))


def _bareiss(rows):
    """Fraction-free Gaussian elimination of an integer matrix, in place.

    Returns (rank, sign, last pivot): sign is that of the row swaps, and
    for a square matrix of full rank sign * last pivot is its determinant.
    Every division is exact (Sylvester's identity), so no entry is ever a
    Fraction and none grows past a minor of the input.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        rk = rows[rank]
        pk = rk[col]
        for i in range(rank + 1, m):
            ri = rows[i]
            rik = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[col] = 0
        prev = pk
        rank += 1
    return rank, sign, prev


def _det_bareiss_int(rows):
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


def det_exact(entries):
    """Exact determinant of a square matrix of QPoly entries, by one
    integer determinant at q = 2^shift.

    Each row is first scaled by the lcm of its coefficients' denominators,
    so the scaled determinant D is a polynomial with integer coefficients
    and its value at an integer point is an integer, from one fraction-free
    integer Bareiss.  Every coefficient of D is below the product H of the
    scaled rows' bounds isqrt(sum_j |e_ij|_1^2) + 1: on |q| = 1 an entry
    is at most its l1 norm, Hadamard's inequality bounds |D(q)| there by
    the product of the rows' Euclidean norms, and Cauchy's estimate bounds
    every coefficient of D by the maximum of |D| on that circle.  So
    D(2^shift) with shift = H.bit_length() + 1 reads back as D
    (QPoly.from_packed), which is then divided by the product of the row
    scales.  A coefficient past the sum of the rows' degrees cannot be one
    of D, and raises ValueError rather than give a wrong polynomial.
    """
    m = len(entries)
    if any(len(row) != m for row in entries):
        raise ValueError("matrix is not square")
    scales = [_denominator_lcm(c for e in row for c in e.coeffs)
              for row in entries]
    scaled = [[e * s for e in row] for row, s in zip(entries, scales)]
    bound = sum(max((e.degree for e in row if not e.is_zero()), default=0)
                for row in entries)
    height = math.prod(
        math.isqrt(sum(sum(map(abs, e.coeffs)) ** 2 for e in row)) + 1
        for row in scaled)
    shift = height.bit_length() + 1
    x = 1 << shift
    det = QPoly.from_packed(
        _det_bareiss_int([[e(x) for e in row] for row in scaled]), shift)
    if det.degree > bound:
        raise ValueError(f"determinant read back with degree {det.degree},"
                         f" past the degree bound {bound}")
    scale = math.prod(scales)
    return QPoly([Fraction(c, scale) for c in det.coeffs])


# -- irreducible representations of S_n -----------------------------------


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, largest first."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def standard_tableaux(shape):
    """Standard Young tableaux of a shape.  A tableau is the tuple of the
    (row, column) boxes holding 0, 1, ..., n-1 in turn."""
    out = []
    filled = [0] * len(shape)

    def grow(boxes):
        if len(boxes) == sum(shape):
            out.append(tuple(boxes))
        for r, length in enumerate(shape):
            if filled[r] < length and (r == 0 or filled[r - 1] > filled[r]):
                boxes.append((r, filled[r]))
                filled[r] += 1
                grow(boxes)
                filled[r] -= 1
                boxes.pop()

    grow([])
    return out


def _young_generators(shape, entries):
    """Matrices of the transpositions s_i = (i, i+1) in one of Young's
    forms.  Returns one matrix for each i = 0..n-2, on the basis of
    standard_tableaux(shape), as its columns: column T is the list of
    (row, value) pairs of rho(s_i) v_T.  With d the content (column - row)
    of i+1 minus that of i in T and (a, b) = entries(d),

        rho(s_i) v_T = a v_T + b v_{s_i T},

    the second term absent when i and i+1 share a row or a column of T
    (d = +-1), where s_i T is not standard.  So each column has at most
    two nonzeros.
    """
    tableaux = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    gens = []
    for i in range(sum(shape) - 1):
        cols = []
        for t in tableaux:
            (r0, c0), (r1, c1) = t[i], t[i + 1]
            d = (c1 - r1) - (c0 - r0)
            a, b = entries(d)
            col = [(index[t], a)]
            if abs(d) > 1:
                swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
                col.append((index[swapped], b))
            cols.append(col)
        gens.append(cols)
    return gens


def seminormal_generators(shape):
    """Young's seminormal form, a = 1/d and b = 1 + 1/d: rational entries,
    so the blocks of det_gram_exact are exact."""
    return _young_generators(shape, lambda d: (Fraction(1, d),
                                               1 + Fraction(1, d)))


def orthogonal_generators(shape):
    """Young's orthogonal form, a = 1/d and b = sqrt(1 - 1/d^2), in floats:
    every rho(s_i) is symmetric and orthogonal, so rho(w^-1) = rho(w)^T."""
    return _young_generators(shape, lambda d: (1 / d,
                                               math.sqrt(1 - 1 / d ** 2)))


def _times_generator(rho, gen):
    """rho(w) rho(s_i) from the columns of rho(w) and of rho(s_i): each new
    column combines at most two columns of rho(w).  A column of rho(s_i)
    with one entry is +-v_T (d = +-1), so column T is shared or negated;
    no column is ever changed in place."""
    out = []
    for col in gen:
        if len(col) == 1:
            ((k, a),) = col
            out.append(rho[k] if a == 1 else [-x for x in rho[k]])
        else:
            (k, a), (l, b) = col
            out.append([a * x + b * y for x, y in zip(rho[k], rho[l])])
    return out


def _group_blocks(row, generators):
    """The blocks of the group matrix q^f(u^-1 v) of an exponent row f, from
    one walk over S_n that reads f(w) from the row alone.

    row maps each one-line w of S_n to f(w), as exponent_row gives it.
    Returns, for each shape lambda of partitions(n), the coefficients of
    T_lambda = sum_w q^f(w) rho_lambda(w): entry e is the sum of
    rho_lambda(w) over the w with f(w) = e, as a list of columns, for
    e = 0 .. max f.  rho_lambda is generated by generators(shape), the
    matrices of the s_i in one of Young's forms.

    One depth-first walk reaches each w of S_n once, as w' s_(k-1) ... s_j
    with w' in S_k: w' with the letter k moved left to position j.  Only
    the rho_lambda(w) along the current path are kept, one list of columns
    per shape, and each leaf adds its rho_lambda(w) into the coefficient of
    q^f(w) of every block.
    """
    n = len(next(iter(row)))
    shapes = partitions(n)
    gens = [generators(shape) for shape in shapes]
    dims = [len(standard_tableaux(shape)) for shape in shapes]
    blocks = [[] for _ in shapes]

    def walk(k, w, rhos):
        if k == n:
            e = row[w]
            for by_power, rho, dim in zip(blocks, rhos, dims):
                while len(by_power) <= e:
                    by_power.append([[0] * dim for _ in range(dim)])
                for total, col in zip(by_power[e], rho):
                    for r, x in enumerate(col):
                        if x:
                            total[r] += x
            return
        walk(k + 1, w, rhos)
        for i in range(k - 1, -1, -1):
            w = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            rhos = [_times_generator(rho, gen[i])
                    for rho, gen in zip(rhos, gens)]
            walk(k + 1, w, rhos)

    walk(1, tuple(range(n)),
         [[[int(r == c) for r in range(dim)] for c in range(dim)]
          for dim in dims])
    return blocks


def det_gram_exact(n):
    """det M_n(q) exactly, block by block over the irreducibles of S_n,
    for n up to EXACT_LIMIT.

    M_n is the group matrix M[i, j] = q^f(u_i^-1 u_j) of the exponents f
    the Fock action gives, so det M_n is the product over partitions lambda
    of det(T_lambda)^f_lambda, with T_lambda = sum_w q^f(w) rho_lambda(w)
    in Young's seminormal form and f_lambda = dim rho_lambda.
    """
    if not 1 <= n <= EXACT_LIMIT:
        raise GramLimitError(f"n={n} outside supported range 1..{EXACT_LIMIT}"
                             f" of the exact determinant")
    blocks = _group_blocks(exponent_row(n), seminormal_generators)
    det = QPoly.one()
    for by_power in blocks:
        dim = len(by_power[0])
        block = [[QPoly([coeff[c][r] for coeff in by_power])
                  for c in range(dim)] for r in range(dim)]
        det = det * det_exact(block) ** dim
    return det


# -- numeric checks --------------------------------------------------------


def all_positive(scan):
    """Whether every minimum eigenvalue of a positivity_scan is above
    1e-12, the pass rule of `quon positivity` and criterion 3."""
    return all(e > 1e-12 for _, e in scan)


def positivity_scan(n, q_samples):
    """Minimum eigenvalue of M_n(q) at each sampled q in (-1, 1).

    The eigenvalues of M_n are those of its blocks T_lambda(q) =
    sum_w q^f(w) rho_lambda(w), each repeated f_lambda times, and with
    rho_lambda in Young's orthogonal form every block is real symmetric
    when f(w) = f(w^-1) for every w: the premise that M_n is symmetric,
    checked exactly on the exponent row (ValueError if it fails).  Each
    block is evaluated at all samples at once, from the powers of q times
    its coefficient matrices, and no n! x n! array is formed.

    Not meaningful as a positivity claim at q -> +-1, where the
    determinant zeros sit on the unit circle.
    """
    import numpy as np
    for x in q_samples:
        if not -1 < float(x) < 1:
            raise ValueError(f"sample {x} not strictly inside (-1, 1)")
    row = exponent_row(n)
    for w, e in row.items():
        w_inv = tuple(sorted(range(n), key=w.__getitem__))
        if row[w_inv] != e:
            raise ValueError(f"f{w} = {e} but f{w_inv} = {row[w_inv]}: "
                             f"M_{n} is not symmetric")
    blocks = _group_blocks(row, orthogonal_generators)
    x = np.array([float(v) for v in q_samples])
    powers = np.vander(x, max(row.values()) + 1, increasing=True)
    lowest = np.full(len(x), np.inf)
    for by_power in blocks:
        # each coefficient as its list of columns: the transpose of a
        # symmetric matrix
        eig = np.linalg.eigvalsh(np.tensordot(powers, by_power, axes=1))
        lowest = np.minimum(lowest, eig[:, 0])
    return [(float(v), float(e)) for v, e in zip(x, lowest)]


def rank_at_limit(n, sign):
    """Exact rank of M_n(q) evaluated at q = +1 or q = -1, whose entries
    sign^exponent are the integers +-1."""
    import numpy as np
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    g = gram_matrix(n)
    return _bareiss(np.power(sign, g.exponents, dtype=np.int64).tolist())[0]


def limit_eigenvector_check(n, sign):
    """At q = +-1 the surviving state is the totally (anti)symmetric one:
    chi(w) = sign^inv(w), a character of S_n, is an eigenvector of M_n
    with eigenvalue n!.  With g(w) = sign^f(w), (M chi)[u] = chi(u) sum_w
    g(w) chi(w), n! exactly when every term g(w) chi(w) is 1.  Returns
    (holds exactly, n!), read from the exponent row alone."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    row = exponent_row(n)
    holds = all(sign ** e == sign ** inversions(w) for w, e in row.items())
    return holds, len(row)
