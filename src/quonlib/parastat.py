"""Order-p parastatistics by Green's ansatz, on an exact integer action.

a_k = sum_alpha b_k^(alpha) over Bose (parabose) or Fermi (parafermi)
components that Klein sign strings make anticommute (parabose) or
commute (parafermi).  A state is a dict {state code: int} in the basis
|n> = (b†)^n |0> of each site (b|n> = n|n-1>, b†|n> = |n+1> below the
cap, 1 for parafermi), a diagonal change of basis that commutes with the
sign strings and keeps every weight an integer.  Parabose relations hold
only on "protected" states, which two creations cannot push past the cap.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, partialmethod

from .qfock import inversions

# term applications (one component on one code) a check may make
WORK_LIMIT = 2 * 10 ** 7
# 64-bit words of a state code whose big-integer work costs about as much
# as a term application's fixed interpreter cost (about 100 ns against
# about 0.9 ns a word); a term on a wider code counts as its width in
# words over CODE_WORDS term applications
CODE_WORDS = 128
# protected states check_trilinear applies the relation to at once
BATCH = 256
# largest float squared norm gentile_demo counts as zero
FLOAT_ZERO = 1e-10


class WorkLimitError(ValueError):
    """A check whose estimated work passes WORK_LIMIT."""


def refuse_past_work_limit(what, log_work, code_bits):
    """Raise WorkLimitError, naming what, when the estimated work of a
    check passes WORK_LIMIT: the one limit of the para and observables
    checks.  The estimate is in logs, as it can be too large to form, and
    is weighed by the width of the codes it acts on, code_bits bits."""
    words = -(-code_bits // 64)
    log_work += math.log(max(1, words / CODE_WORDS))
    if log_work > math.log(WORK_LIMIT):
        raise WorkLimitError(
            f"{what} takes about 10^{log_work / math.log(10):.1f} term "
            f"applications, past the limit of {WORK_LIMIT}")


def combine(*terms):
    """Sum of (coefficient, state) pairs, with no zero stored."""
    out = {}
    for coeff, state in terms:
        for code, c in state.items():
            out[code] = out.get(code, 0) + coeff * c
    return {code: c for code, c in out.items() if c}


class GreenRealization:
    """Site alpha * modes + k, component alpha of mode k, is the bit field
    of width cap.bit_length() at offset site * width of a state code."""

    def __init__(self, kind, order, modes, cap):
        self.kind = kind        # "parabose" | "parafermi"
        self.order = order      # p
        self.modes = modes      # M
        self.cap = cap          # per-site occupancy cap (1 for parafermi)

    @property
    def dim(self):
        return (self.cap + 1) ** (self.order * self.modes)

    @property
    def code_bits(self):
        """The width of a state code: one field per site."""
        return self.order * self.modes * self.cap.bit_length()

    def klein_string(self, alpha, k):
        """Sites signing component alpha of mode k: the earlier modes of
        its component (parafermi), all earlier components (parabose)."""
        if self.kind == "parafermi":
            return range(alpha * self.modes, alpha * self.modes + k)
        return range(alpha * self.modes)

    @cached_property
    def _fields(self):
        """(bit offset, Klein mask) of each site: the mask holds the lowest
        bit, an occupation's parity, of each field on the string."""
        width = self.cap.bit_length()
        lows = [0]          # lows[s]: the lowest bits of fields 0 .. s-1
        for s in range(self.order * self.modes):
            lows.append(lows[-1] | 1 << width * s)
        strings = (self.klein_string(alpha, k)
                   for alpha in range(self.order) for k in range(self.modes))
        return [(width * site, lows[string.stop] ^ lows[string.start])
                for site, string in enumerate(strings)]

    def _act(self, k, state, raising):
        field = (1 << self.cap.bit_length()) - 1
        components = self._fields[k::self.modes]
        out = {}
        for code, c in state.items():
            for shift, string in components:
                n = code >> shift & field
                if raising and n < self.cap:
                    target, weight = code + (1 << shift), c
                elif not raising and n:
                    target, weight = code - (1 << shift), c * n
                else:
                    continue
                if (code & string).bit_count() & 1:
                    weight = -weight
                out[target] = out.get(target, 0) + weight
        return {code: c for code, c in out.items() if c}

    create = partialmethod(_act, raising=True)        # a†_k on a state
    annihilate = partialmethod(_act, raising=False)   # a_k on a state

    def protected_values(self):
        """A site's occupations in a protected state."""
        return range(2) if self.kind == "parafermi" else range(self.cap - 1)

    def protected_states(self):
        for occupation in itertools.product(self.protected_values(),
                                            repeat=len(self._fields)):
            yield sum(n << shift for n, (shift, _) in zip(occupation,
                                                          self._fields))


def build_green(kind, p, modes, cap=None):
    """The realization, which allocates nothing: its action works each
    state out.  A parafermi cap other than None or 1 raises ValueError."""
    if kind not in ("parabose", "parafermi"):
        raise ValueError(f"kind must be parabose or parafermi, got {kind!r}")
    if p < 1 or modes < 1:
        raise ValueError("order and mode count must be >= 1")
    if kind == "parafermi":
        if cap not in (None, 1):
            raise ValueError(f"parafermi occupancy is at most 1 per site; "
                             f"cap={cap} is not accepted")
        cap = 1
    elif cap is None or cap < 1:
        raise ValueError("parabose realizations need a positive cap")
    return GreenRealization(kind=kind, order=p, modes=modes, cap=cap)


def _trilinear_residuals(r, state, inner):
    """[[a†_k, a_l]_inner, a†_m] - 2 delta_lm a†_k on a state, for each
    (k, l, m): inner = -1 brackets by commutator, +1 by anticommutator."""
    up = [r.create(m, state) for m in range(r.modes)]
    for k, l in itertools.product(range(r.modes), repeat=2):
        def bracket(v):
            return combine((1, r.create(k, r.annihilate(l, v))),
                           (inner, r.annihilate(l, r.create(k, v))))
        at_state = bracket(state)
        for m in range(r.modes):
            yield combine((1, bracket(up[m])), (-1, r.create(m, at_state)),
                          (-2 * (l == m), up[k]))


def check_trilinear(r):
    """[[a†_k, a_l]_±, a†_m]_- = 2 delta_lm a†_k, the inner bracket an
    anticommutator for parabose, a commutator for parafermi; max_residual
    is 0 on a pass.  BATCH states at a time, tagged with their codes above
    the site fields, share each call of the action.  Estimate: protected
    states x M^3 x (p + 1)^3, on codes twice as wide.  A parabose cap
    below 2 protects no state, and raises ValueError rather than pass over
    nothing."""
    sites, values = r.order * r.modes, len(r.protected_values())
    if not values:
        raise ValueError(f"parabose cap={r.cap} is below 2 and protects "
                         f"no state")
    refuse_past_work_limit("check_trilinear", sites * math.log(values)
                           + 3 * math.log(r.modes * (r.order + 1)),
                           2 * r.code_bits)
    inner = 1 if r.kind == "parabose" else -1
    tag = r.code_bits
    states = r.protected_states()
    worst = 0
    while batch := {x << tag | x: 1 for x in itertools.islice(states, BATCH)}:
        for res in _trilinear_residuals(r, batch, inner):
            worst = max([worst, *map(abs, res.values())])
    return {"kind": r.kind, "p": r.order, "modes": r.modes,
            "max_residual": worst, "exact": worst == 0,
            "protected_only": r.kind == "parabose",
            "dim": r.dim, "protected_states": values ** sites}


def check_vacuum_conditions(r):
    """a_k|0> = 0, and measure c in a_k a†_l |0> = c delta_kl |0> (c = p,
    reported, not asserted).  Estimate: M^2 (p + 1)^2."""
    refuse_past_work_limit("check_vacuum_conditions",
                           2 * math.log(r.modes * (r.order + 1)),
                           r.code_bits)
    vacuum = {0: 1}
    kill = not any(r.annihilate(k, vacuum) for k in range(r.modes))
    consts, off = {}, 0
    for k, l in itertools.product(range(r.modes), repeat=2):
        v = r.annihilate(k, r.create(l, vacuum))
        if k == l:
            consts[k] = v.pop(0, 0)
        off = max([off, *map(abs, v.values())])
    return {"annihilates_vacuum": kill,
            "one_particle_constant": consts,
            "off_diagonal_residual": off,
            "pass": kill and off == 0}


def max_occupancy(r, word, symmetric=True, creators=None):
    """Squared norm, <n|n> = prod_site n!, of the (anti)symmetrized creator
    word on the vacuum, (1/n!) sum over orderings: each distinct ordering
    once, over their count.  A repeated letter makes the antisymmetrized
    word vanish.  creators maps a letter to (mode, coefficient) pairs."""
    if creators is None:
        creators = {k: ((k, 1),) for k in word}
    if not symmetric and len(set(word)) < len(word):
        return 0
    orderings = {()}
    for letter in word:
        orderings = {o[:i] + (letter,) + o[i:]
                     for o in orderings for i in range(len(o) + 1)}
    out = {}
    for ordering in orderings:
        v = {0: 1 if symmetric else (-1) ** inversions(map(word.index,
                                                           ordering))}
        for letter in reversed(ordering):
            v = combine(*((c, r.create(mode, v))
                          for mode, c in creators[letter]))
        out = combine((1, out), (1, v))
    field = (1 << r.cap.bit_length()) - 1
    return Fraction(1, len(orderings)) ** 2 * sum(
        c * c * math.prod(math.factorial(code >> shift & field)
                          for shift, _ in r._fields)
        for code, c in out.items())


def check_occupancy(kind, p):
    """(report, passed): at most p quanta fit, so the norms of the
    symmetrized same-mode word (parafermi), or of its dual, the
    antisymmetrized distinct-mode word (parabose), are nonzero for n <= p
    and zero at n = p + 1.  The realization holds only the modes the words
    touch: one for parafermi, p + 1 at cap 1 for parabose, whose
    distinct-mode word never puts two quanta on one site.  Estimate: p + 1
    words of p + 1 creators, making p codes of each of 2^p codes of mode 0
    (parafermi), or of p^p codes in each of (p + 1)! orderings
    (parabose)."""
    sym = kind == "parafermi"
    r = build_green(kind, p, 1 if sym else p + 1, cap=1)
    refuse_past_work_limit(
        "check_occupancy", 2 * math.log(p + 1) + math.log(p)
        + (p * math.log(2) if sym else math.lgamma(p + 2) + p * math.log(p)),
        r.code_bits)
    name = "same_mode" if sym else "distinct_modes"
    norms = {f"{name}_n{n}":
             max_occupancy(r, (0,) * n if sym else tuple(range(n)), sym)
             for n in range(1, p + 2)}
    passed = all((norm != 0) == (n <= p)
                 for n, norm in enumerate(norms.values(), 1))
    return {"kind": kind, "p": p, "norms": norms}, passed


def gentile_demo(theta):
    """Occupancy-capped (Gentile) statistics is basis dependent: three
    Bose quanta in one rotated mode, occupancy bound 2, have an allowed
    part unless the rotation is trivial.  The parafermi p=2 exclusion
    holds in every basis."""
    c, s = math.cos(theta), math.sin(theta)
    # three distinguishable slots, each in the rotated mode (c, s)
    amplitude = {slots: math.prod((c, s)[i] for i in slots)
                 for slots in itertools.product((0, 1), repeat=3)}
    forbidden = amplitude[0, 0, 0] ** 2 + amplitude[1, 1, 1] ** 2
    allowed = sum(a * a for a in amplitude.values()) - forbidden

    # parafermi p=2 contrast, in the rotated single-particle basis
    r = build_green("parafermi", 2, 2)
    rot = {0: ((0, c), (1, s)), 1: ((0, -s), (1, c))}
    sym_norms = {w: float(max_occupancy(r, w, True, rot))
                 for w in itertools.combinations_with_replacement((0, 1), 3)}
    return {"theta": theta,
            "gentile_allowed_norm_sq": allowed,
            "gentile_forbidden_norm_sq": forbidden,
            "parafermi_symmetric_norms": sym_norms,
            "parafermi_sector_vanishes":
                max(sym_norms.values()) <= FLOAT_ZERO}
