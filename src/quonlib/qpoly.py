"""Exact univariate polynomials in the deformation parameter q.

This is the scalar ring of the whole package.  Coefficients are exact
Python integers (or Fractions where a division has occurred); evaluation
at a Fraction is exact, at a float it is ordinary IEEE arithmetic.

The coefficient list is dense, but products skip the work that is zero by
construction: a product pairs only the nonzero terms of its operands, so
its cost is the product of their term counts, not of their lengths.  A
power of a polynomial with at most two terms, (c0 q^s + c1 q^t)^e, is
written down by the binomial theorem with no multiplication of
polynomials; Zagier's factors (1 - q^d)^e are of this form.  Both give
the coefficients the dense schoolbook loop gives, exactly.

An integer polynomial p can also be packed as one int, p(2^s) (Kronecker
substitution).  QPoly.from_packed is the one read-back, for gram, qfock,
wick and bounds, each of which takes s from a proven coefficient bound.
The free Fock action in src runs on those packed ints (or at q = 0),
never over QPoly coefficients; the QPoly ring of the action is a test
oracle.

Every QPoly holds the tuple _normalize returns: no trailing zero, and a
Fraction of denominator 1 stored as an int.  Two constructors build
that tuple directly and skip _normalize: QPoly.monomial (its one
coefficient is nonzero and converted as _normalize converts it, the
zeros below it are ints) and QPoly.from_packed (int digits, the last one
nonzero).  Each result equals, repr for repr, the one _normalize would
give.
"""

from __future__ import annotations

from fractions import Fraction


def _normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    # collapse Fractions with denominator 1 back to int; an exact type
    # test, as isinstance on Fraction goes through the ABC machinery
    return tuple(int(c) if type(c) is Fraction and c.denominator == 1 else c
                 for c in coeffs)


class QPoly:
    """Dense polynomial in q, constant term first.  Immutable and hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("QPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def q(cls):
        return _Q

    @classmethod
    def monomial(cls, power, coeff=1):
        """coeff q^power, normalised as _normalize would: zero is _ZERO
        and a Fraction with denominator 1 is an int."""
        if coeff == 0:
            return _ZERO
        if type(coeff) is Fraction and coeff.denominator == 1:
            coeff = int(coeff)
        return _from_normalized((0,) * power + (coeff,))

    @classmethod
    def from_packed(cls, value, shift):
        """The integer polynomial p, unique, with p(2^shift) = value and
        every |coefficient| < 2^(shift - 1): the balanced base-2^shift
        digits of value, lowest first.  Below shift 2 only 0 packs."""
        if shift < 2 and value:
            raise ValueError(f"{value} is no packed polynomial at shift"
                             f" {shift}: only 0 is")
        base = 1 << shift
        mask, half = base - 1, base >> 1
        coeffs = []
        while value:
            digit = value & mask
            if digit >= half:
                digit -= base
            coeffs.append(digit)
            value = (value - digit) >> shift
        return _from_normalized(tuple(coeffs))

    # -- ring structure ------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        terms = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        terms = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if 1 <= len(terms) <= 2:
            return _binomial_power(terms, n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other):
        """Divide by `other`, raising ValueError unless the division is exact."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = [Fraction(c) for c in self.coeffs]
        div = other.coeffs
        dq = len(div) - 1
        lead = Fraction(div[-1])
        if len(rem) - 1 < dq:
            if any(rem):
                raise ValueError("not exactly divisible")
            return _ZERO
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] / lead
            quot[i - dq] = c
            if c:
                for j, d in enumerate(div):
                    rem[i - dq + j] -= c * d
        if any(rem):
            raise ValueError("not exactly divisible")
        return QPoly(quot)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        # the QPoly test first: isinstance on Fraction goes through the
        # ABC machinery, and most comparisons are of two QPolys
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == QPoly([other]).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation / printing ----------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction x, IEEE for float x."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"


def _binomial_power(terms, n):
    """(c0 q^s + c1 q^t)^n for the one or two (power, coefficient) terms,
    s < t: sum_k C(n, k) c0^(n-k) c1^k q^(s n + (t - s) k)."""
    s, c0 = terms[0]
    if len(terms) == 1:
        return QPoly.monomial(s * n, c0 ** n)
    t, c1 = terms[1]
    # c0^(n-k) for k = 0..n, from c0^0 upwards
    c0_powers = [1]
    for _ in range(n):
        c0_powers.append(c0_powers[-1] * c0)
    out = [0] * (t * n + 1)
    binom, c1_power = 1, 1
    for k in range(n + 1):
        out[s * n + (t - s) * k] = binom * c0_powers[n - k] * c1_power
        binom = binom * (n - k) // (k + 1)
        c1_power *= c1
    return QPoly(out)


def _from_normalized(coeffs):
    """A QPoly of a tuple that _normalize would leave as it is."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly([x])
    raise TypeError(f"cannot coerce {type(x).__name__} into QPoly")


_ZERO = QPoly([])
_ONE = QPoly([1])
_Q = QPoly([0, 1])
