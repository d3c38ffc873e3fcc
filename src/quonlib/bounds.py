"""Statistics-violation parameter algebra and bound propagation.

Covers the v <-> q affine maps, conservation of statistics (q_b = q_f^2)
checked through exact residual polynomials on the q-Fock representation,
the composite rule q_composite = q_constituent^(n^2), and the
compositeness apparent-violation overlap.  Its matrix elements come from
the Fock action on ints packed at q = 2^shift, each read back once as a
QPoly; the action over QPoly or Fraction q is a test oracle.

Everything that can be exact rational is: a fermionic bound
v_F <= 1.7e-26 propagates to q_e = -1 + 3.4e-26 and (to leading order)
q_b = 1 - 6.8e-26 without ever collapsing to the float +-1.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple
from fractions import Fraction

from .qfock import ANNIHILATOR, CREATOR, apply_terms
from .qpoly import QPoly

FERMIONIC = "fermionic"
BOSONIC = "bosonic"


# -- v <-> q conversions ---------------------------------------------------


def q_from_v(v, flavor):
    """q = 2 v_F - 1 (fermionic) or q = 1 - 2 v_B (bosonic); exact."""
    v = Fraction(v)
    if not 0 <= v <= 1:
        raise ValueError(f"violation parameter {v} outside [0, 1]")
    if flavor == FERMIONIC:
        return 2 * v - 1
    if flavor == BOSONIC:
        return 1 - 2 * v
    raise ValueError(f"unknown flavor {flavor!r}")


def _q_in_range(q):
    """q as a Fraction, ValueError outside [-1, 1]."""
    q = Fraction(q)
    if not -1 <= q <= 1:
        raise ValueError(f"q={q} outside [-1, 1]")
    return q


def v_from_q(q, flavor):
    q = _q_in_range(q)
    if flavor == FERMIONIC:
        return (q + 1) / 2
    if flavor == BOSONIC:
        return (1 - q) / 2
    raise ValueError(f"unknown flavor {flavor!r}")


# -- conservation of statistics --------------------------------------------


# every field a Fraction: q_bosonic_exact = q_f^2, v_bosonic_exact =
# 2 eps (1 - eps) with eps = v_F, q_bosonic_leading = 1 - 4 eps and
# v_bosonic_leading = 2 eps
Propagation = namedtuple("Propagation", [
    "q_fermionic", "q_bosonic_exact", "v_bosonic_exact",
    "q_bosonic_leading", "v_bosonic_leading"])


def propagate_statistics(q_f):
    """A fermion-like field of parameter q_f couples to a boson-like field
    of parameter q_b = q_f^2; both the exact map and the small-violation
    leading order are reported."""
    q_f = _q_in_range(q_f)
    eps = (q_f + 1) / 2          # fermionic violation parameter
    q_b = q_f * q_f
    return Propagation(
        q_fermionic=q_f,
        q_bosonic_exact=q_b,
        v_bosonic_exact=2 * eps * (1 - eps),
        q_bosonic_leading=1 - 4 * eps,
        v_bosonic_leading=2 * eps,
    )


# most bits composite_q lets the exact q^(n^2) take; the power is refused
# before it is taken past this
COMPOSITE_BIT_BUDGET = 1 << 20


def composite_q(q_constituent, n):
    """Bound state of n constituents: q_composite = q_constituent^(n^2).

    Its numerator and denominator are those of q to the power n^2, so
    together they take at least n^2 (floor(log2 |numerator|) +
    floor(log2 denominator)) bits; past COMPOSITE_BIT_BUDGET this raises
    ValueError without taking the power.  The floors make q = 0 and +-1,
    whose powers fit one bit, pass for every n.
    """
    if n < 1:
        raise ValueError("constituent count must be >= 1")
    q = _q_in_range(q_constituent)
    bits = n * n * (abs(q.numerator).bit_length()
                    + q.denominator.bit_length() - 2)
    if bits > COMPOSITE_BIT_BUDGET:
        raise ValueError(
            f"q^(n^2) for q={q}, n={n} takes at least {bits} bits, past "
            f"the budget of {COMPOSITE_BIT_BUDGET}")
    return q ** (n * n)


def compositeness_overlap(lambda_a, lambda_b):
    """Two composites with excitation amplitudes lambda can co-occupy a
    state with squared norm (sqrt(1-lA^2) lB - lA sqrt(1-lB^2))^2,
    approximately (lA - lB)^2 for small amplitudes.  Returns
    (exact, approx)."""
    la, lb = float(lambda_a), float(lambda_b)
    if not (abs(la) < 1 and abs(lb) < 1):
        raise ValueError("amplitudes must satisfy |lambda| < 1")
    exact = (math.sqrt(1 - la * la) * lb - la * math.sqrt(1 - lb * lb)) ** 2
    approx = (la - lb) ** 2
    return exact, approx


# -- conservation-of-statistics residual ------------------------------------


# most test states a conservation check takes: 4 + 4^2 + ... + 4^5, five
# particles on four modes (the element list grows with its square)
STATE_LIMIT = 1364


def _conservation_test_states(momenta, max_particles):
    if len(momenta) != 4:
        raise ValueError(f"momenta must be four values (k, l, p, r), "
                         f"got {len(momenta)}")
    if max_particles < 1:
        raise ValueError(f"max_particles must be >= 1, got {max_particles}")
    k, l, p, r = momenta
    if k + p == l + r or r == p:
        raise ValueError(
            "momenta must satisfy k+p != l+r and r != p (the dropped "
            "delta terms would otherwise contribute)")
    modes = sorted({p, k + p, l + r, r})
    count = 0
    for n in range(1, max_particles + 1):
        count += len(modes) ** n
        if count > STATE_LIMIT:
            raise ValueError(
                f"max_particles={max_particles} on {len(modes)} modes "
                f"exceeds the limit of {STATE_LIMIT} test states")
    states = []
    for n in range(1, max_particles + 1):
        states.extend(itertools.product(modes, repeat=n))
    return states


def _matrix_elements(momenta, max_particles):
    """(A, B) = (<phi, b1 b2 psi>, <phi, b2 b1 psi>) as exact polynomials
    in q over the test states, with b1 = b†(p) b(k+p) and b2 = b†(l+r) b(r).

    Returns [(psi, [(A, B) for each phi with A or B nonzero])] in the order
    of the test states, each list in the order of phi.  The inner product
    of two words vanishes unless they carry the same labels, so only the
    phi with the label multiset of a word of psi's image (r -> l+r,
    k+p -> p) are computed; every other pair is an exact zero.

    Each element is phi's annihilators applied to psi's image at
    q = 2^shift and read back once (QPoly.from_packed).  Its coefficient
    of q^j counts the pairs of two annihilator positions in b1 b2 (at most
    n^2) and a matching of phi with the word left (at most n!) that pick
    up q^j, so it lies in [0, n^2 n!], n = max_particles: no digit carries.
    """
    states = _conservation_test_states(momenta, max_particles)
    k, l, p, r = momenta
    b1 = ((CREATOR, p), (ANNIHILATOR, k + p))
    b2 = ((CREATOR, l + r), (ANNIHILATOR, r))
    n = max_particles
    shift = (n * n * math.factorial(n)).bit_length() + 1
    x = 1 << shift
    by_labels = defaultdict(list)
    for i, phi in enumerate(states):
        by_labels[tuple(sorted(phi))].append(i)
    out = []
    for psi in states:
        ab = apply_terms(((b1 + b2, 1),), {psi: 1}, x)
        ba = apply_terms(((b2 + b1, 1),), {psi: 1}, x)
        labels = {tuple(sorted(word)) for word in (*ab, *ba)}
        pairs = []
        for i in sorted(i for key in labels for i in by_labels.get(key, ())):
            down = ((tuple((ANNIHILATOR, m) for m in reversed(states[i])), 1),)
            a, b = (QPoly.from_packed(apply_terms(down, image, x).get((), 0),
                                      shift) for image in (ab, ba))
            if a or b:
                pairs.append((a, b))
        out.append((psi, pairs))
    return out


def _conservation_residual(per_state, q_e, q_b):
    """Residual of the bilinear-replacement commutation check.

    R = [b†(p) b(k+p)][b†(l+r) b(r)] - q_b [b†(l+r) b(r)][b†(p) b(k+p)]
    applied to every test state.  The residual per state is the largest
    matrix element |<phi, R psi>| = |A(q_e) - q_b B(q_e)| in the
    q_e-deformed inner product, over all test states phi, read from the
    exact polynomials of `per_state`, a _matrix_elements list; each
    distinct polynomial is evaluated once.  The deformed inner product
    degenerates at q_e = -1, which is exactly right: the operator-level
    mismatch of R psi there is a null vector, invisible to every matrix
    element, so the residual is exactly zero.  Exact rational throughout.

    Returns a list of (state, residual Fraction).
    """
    polys = {poly for _, pairs in per_state for ab in pairs for poly in ab}
    at = {poly: poly(q_e) for poly in polys}
    return [(psi, max((abs(at[a] - q_b * at[b]) for a, b in pairs),
                      default=Fraction(0)))
            for psi, pairs in per_state]


def conservation_residual_check(q_e, momenta=(1, 2, 5, 9), max_particles=3):
    """Residual report at q_e with q_b = q_e^2, with conservation_sweep's
    under `sweep`."""
    q_e = Fraction(q_e)
    q_b = q_e * q_e
    elements = _matrix_elements(momenta, max_particles)
    per_state = _conservation_residual(elements, q_e, q_b)
    worst_state, worst = max(per_state, key=lambda sv: sv[1])
    return {
        "q_e": float(q_e),
        "q_b": float(q_b),
        "momenta": tuple(momenta),
        "max_residual": float(worst),
        "max_residual_exact": worst,
        "worst_state": worst_state,
        "all_zero": all(v == 0 for _, v in per_state),
        "n_states": len(per_state),
        "sweep": _sweep(elements),
    }


_Q = QPoly.q()

# q_b(q_e) choices the check must reject: both are off 1 at q_e = -1
CONSERVATION_CONTROLS = (("q_e", _Q),
                         ("999/1000", QPoly([Fraction(999, 1000)])))


def _root_multiplicity(poly, root):
    """Multiplicity of `root` as a root of the nonzero QPoly `poly`."""
    factor = QPoly([-root, 1])
    m = 0
    while poly(root) == 0:
        poly = poly.exact_div(factor)
        m += 1
    return m


def _derivative_at(poly, x):
    return sum(i * c * x ** (i - 1) for i, c in enumerate(poly.coeffs) if i)


def _fermi_gate(elements, values, q_b):
    """(zero_at_fermi_limit, root_multiplicity) of R = A - q_b(q_e) B over
    the (A, B) QPoly elements, q_b a QPoly in q_e.

    `values` holds (A(-1), B(-1), A'(-1), B'(-1)) for each element, so
    R(-1) and R'(-1) need no polynomial arithmetic.  Where some R(-1) != 0
    the least multiplicity of the root -1 is 0; where some R'(-1) != 0 it
    is 1.  Only when every R has at least a double root are the roots
    divided out, over the nonzero R (None if there is none).
    """
    c0, c1 = q_b(-1), _derivative_at(q_b, -1)
    if any(a0 != c0 * b0 for a0, b0, _, _ in values):
        return False, 0
    if any(a1 != c1 * b0 + c0 * b1 for _, b0, a1, b1 in values):
        return True, 1
    residuals = [r for r in (a - q_b * b for a, b in elements) if r]
    return True, min((_root_multiplicity(r, -1) for r in residuals),
                     default=None)


def conservation_sweep():
    """Conservation of statistics near the Fermi limit, from one exact pass
    over the test states of up to three particles at momenta (1, 2, 5, 9).

    Every matrix element <phi, R psi> is A(q_e) - q_b B(q_e) for exact
    polynomials A, B, computed once at symbolic q over the same test
    states as conservation_residual_check, and every fact below is read
    from A(-1), B(-1), A'(-1) and B'(-1).  With q_b = q_e^2 this reports
    whether every R vanishes at q_e = -1, the least multiplicity of that
    root, the set of first-order slopes (A' - B')/B at -1 over elements
    with B(-1) != 0, and offset_residual = max |B(-1)|: where A(-1) =
    B(-1), a constant q_b leaves exactly |1 - q_b| * offset_residual at
    q_e = -1.  The gate asks for a zero, a least multiplicity of 1 and a
    positive offset; `passed` also asks that every q_b in
    CONSERVATION_CONTROLS fail that gate.

    The gate holds for any q_b with q_b(-1) = 1 and a simple root there
    (1, -q_e and q_e^4 as well as q_e^2): it establishes q_b -> 1 to first
    order, not q_b = q_e^2 itself.
    """
    return _sweep(_matrix_elements((1, 2, 5, 9), 3))


def _sweep(per_state):
    """conservation_sweep over a _matrix_elements list."""
    elements = [ab for _, pairs in per_state for ab in pairs]
    values = [(a(-1), b(-1), _derivative_at(a, -1), _derivative_at(b, -1))
              for a, b in elements]
    offset = Fraction(max((abs(b0) for _, b0, _, _ in values), default=0))

    def passes(zero, multiplicity):
        return zero and multiplicity == 1 and offset > 0

    zero, multiplicity = _fermi_gate(elements, values, _Q * _Q)
    rejected = {name: not passes(*_fermi_gate(elements, values, q_b))
                for name, q_b in CONSERVATION_CONTROLS}
    return {"zero_at_fermi_limit": zero,
            "root_multiplicity": multiplicity,
            "first_order_slopes": sorted({Fraction(a1 - b1, b0)
                                          for _, b0, a1, b1 in values if b0}),
            "offset_residual": offset,
            "controls_rejected": rejected,
            "passed": passes(zero, multiplicity) and all(rejected.values()),
            "n_states": len(per_state)}
