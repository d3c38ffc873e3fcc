"""Statistics-violation parameter algebra and bound propagation.

Covers the v <-> q affine maps, the exchange-symmetry decomposition of a
two-particle density matrix, conservation of statistics (q_b = q_f^2)
with its numerical residual check on the q-Fock representation, the
composite rule q_composite = q_constituent^(n^2), and the compositeness
apparent-violation overlap.

Everything that can be exact rational is: a fermionic bound
v_F <= 1.7e-26 propagates to q_e = -1 + 3.4e-26 and (to leading order)
q_b = 1 - 6.8e-26 without ever collapsing to the float +-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qfock import ANNIHILATOR, CREATOR, apply_terms, q_inner_product

FERMIONIC = "fermionic"
BOSONIC = "bosonic"


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(str(x)) \
        if isinstance(x, str) else Fraction(x)


# -- v <-> q conversions ---------------------------------------------------


def q_from_v(v, flavor):
    """q = 2 v_F - 1 (fermionic) or q = 1 - 2 v_B (bosonic); exact."""
    v = _as_fraction(v)
    if not 0 <= v <= 1:
        raise ValueError(f"violation parameter {v} outside [0, 1]")
    if flavor == FERMIONIC:
        return 2 * v - 1
    if flavor == BOSONIC:
        return 1 - 2 * v
    raise ValueError(f"unknown flavor {flavor!r}")


def v_from_q(q, flavor):
    q = _as_fraction(q)
    if not -1 <= q <= 1:
        raise ValueError(f"q={q} outside [-1, 1]")
    if flavor == FERMIONIC:
        return (q + 1) / 2
    if flavor == BOSONIC:
        return (1 - q) / 2
    raise ValueError(f"unknown flavor {flavor!r}")


# -- conservation of statistics --------------------------------------------


@dataclass(frozen=True)
class Propagation:
    q_fermionic: Fraction
    q_bosonic_exact: Fraction        # q_f^2
    v_bosonic_exact: Fraction        # 2 eps (1 - eps) with eps = v_F
    q_bosonic_leading: Fraction      # 1 - 4 eps
    v_bosonic_leading: Fraction      # 2 eps


def propagate_statistics(q_f):
    """A fermion-like field of parameter q_f couples to a boson-like field
    of parameter q_b = q_f^2; both the exact map and the small-violation
    leading order are reported."""
    q_f = _as_fraction(q_f)
    if not -1 <= q_f <= 1:
        raise ValueError(f"q={q_f} outside [-1, 1]")
    eps = (q_f + 1) / 2          # fermionic violation parameter
    q_b = q_f * q_f
    return Propagation(
        q_fermionic=q_f,
        q_bosonic_exact=q_b,
        v_bosonic_exact=2 * eps * (1 - eps),
        q_bosonic_leading=1 - 4 * eps,
        v_bosonic_leading=2 * eps,
    )


def relative_q(q_b):
    """Parameter of the relative fermion-boson commutation relation:
    q_rel^2 = q_b, taking the root near +1.

    Returns (float value, first-order rational expansion 1 - delta/2 for
    q_b = 1 - delta); the expansion is what survives when delta is below
    float resolution.
    """
    q_b = _as_fraction(q_b)
    if q_b < 0:
        raise ValueError("no real root for negative q_b")
    delta = 1 - q_b
    return math.sqrt(float(q_b)), 1 - delta / 2


def composite_q(q_constituent, n):
    """Bound state of n constituents: q_composite = q_constituent^(n^2)."""
    if n < 1:
        raise ValueError("constituent count must be >= 1")
    q = _as_fraction(q_constituent)
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


# -- two-particle density matrix decomposition -----------------------------


def _swap_matrix(d):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def decompose_density_matrix(rho, flavor, psd_tol=1e-10, trace_tol=1e-12):
    """Split a two-particle density matrix into exchange-symmetry sectors.

    v is the trace weight of the anomalous sector (symmetric for
    fermionic flavor, antisymmetric for bosonic).  Off-block coherences
    are reported separately rather than folded into v.
    """
    rho = np.asarray(rho, dtype=complex)
    dsq = rho.shape[0]
    d = int(round(math.sqrt(dsq)))
    if rho.shape != (dsq, dsq) or d * d != dsq:
        raise ValueError("density matrix must be d^2 x d^2")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError("density matrix must have unit trace")
    if np.abs(rho - rho.conj().T).max() > psd_tol:
        raise ValueError("density matrix must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -psd_tol:
        raise ValueError("density matrix must be positive semidefinite")

    swap = _swap_matrix(d)
    p_sym = (np.eye(dsq) + swap) / 2
    p_anti = (np.eye(dsq) - swap) / 2
    anomalous = p_sym if flavor == FERMIONIC else p_anti
    normal = p_anti if flavor == FERMIONIC else p_sym
    if flavor not in (FERMIONIC, BOSONIC):
        raise ValueError(f"unknown flavor {flavor!r}")

    rho_anom = anomalous @ rho @ anomalous
    rho_norm = normal @ rho @ normal
    v = float(np.trace(rho_anom).real)
    coherence = float(np.abs(normal @ rho @ anomalous).max())
    parts = {}
    for name, block, weight in (("anomalous", rho_anom, v),
                                ("normal", rho_norm, 1.0 - v)):
        parts[name] = block / weight if weight > trace_tol else block
    return v, parts["normal"], parts["anomalous"], coherence


# -- conservation-of-statistics residual check -----------------------------


def _conservation_test_states(momenta, max_particles):
    k, l, p, r = momenta
    modes = sorted({p, k + p, l + r, r})
    states = []
    for n in range(1, max_particles + 1):
        states.extend(itertools.product(modes, repeat=n))
    return states


def conservation_residual(q_e, momenta, q_b=None, max_particles=3):
    """Residual of the bilinear-replacement commutation check.

    R = [b†(p) b(k+p)][b†(l+r) b(r)] - q_b [b†(l+r) b(r)][b†(p) b(k+p)]
    applied to every test state, with q_b defaulting to q_e^2.  The
    residual per state is the largest matrix element <phi, R psi> in the
    q_e-deformed inner product, over all test states phi.  The deformed
    inner product degenerates at q_e = -1, which is exactly right: the
    operator-level mismatch of R psi there is a null vector, invisible to
    every matrix element, so the residual is exactly zero.  Exact
    rational throughout.

    Returns a list of (state, residual Fraction).
    """
    k, l, p, r = momenta
    if k + p == l + r or r == p:
        raise ValueError(
            "momenta must satisfy k+p != l+r and r != p (the dropped "
            "delta terms would otherwise contribute)")
    q_e = _as_fraction(q_e)
    q_b = q_e * q_e if q_b is None else _as_fraction(q_b)
    states = _conservation_test_states(momenta, max_particles)
    b1 = ((CREATOR, p), (ANNIHILATOR, k + p))
    b2 = ((CREATOR, l + r), (ANNIHILATOR, r))
    commutator = ((b1 + b2, 1), (b2 + b1, -q_b))
    memo = {}
    per_state = []
    for w in states:
        resid = apply_terms(commutator, {w: Fraction(1)}, q_e)
        worst = Fraction(0)
        for phi in states:
            me = Fraction(0)
            for word, c in resid.items():
                key = (phi, word)
                inner = memo.get(key)
                if inner is None:
                    inner = memo[key] = q_inner_product(phi, word, q_e)
                me += c * inner
            worst = max(worst, abs(me))
        per_state.append((w, worst))
    return per_state


def conservation_residual_check(q_e, momenta=(1, 2, 5, 9), q_b=None,
                                max_particles=3):
    """Summary report: per-state residuals plus the aggregate."""
    per_state = conservation_residual(q_e, momenta, q_b, max_particles)
    q_e = _as_fraction(q_e)
    worst_state, worst = max(per_state, key=lambda sv: sv[1])
    return {
        "q_e": float(q_e),
        "q_b": float(q_e * q_e if q_b is None else _as_fraction(q_b)),
        "momenta": tuple(momenta),
        "max_residual": float(worst),
        "max_residual_exact": worst,
        "worst_state": worst_state,
        "all_zero": all(v == 0 for _, v in per_state),
        "n_states": len(per_state),
    }


def conservation_sweep(deltas=(Fraction(1, 10), Fraction(1, 100),
                               Fraction(1, 1000)), momenta=(1, 2, 5, 9)):
    """Residual scaling against (1 - q_e^2) over a sweep of q_e = -1 + delta.

    Returns the fitted log-log slope, the fitted proportionality constant
    C = max residual / (1 - q_e^2), and the raw points.  The constant and
    the test-state family are artifact choices, reported, not asserted.
    """
    points = []
    for delta in deltas:
        q_e = Fraction(-1) + Fraction(delta)
        rep = conservation_residual_check(q_e, momenta)
        small = 1.0 - float(q_e) ** 2
        points.append({"q_e": float(q_e), "one_minus_q_sq": small,
                       "max_residual": rep["max_residual"]})
    xs = np.log([pt["one_minus_q_sq"] for pt in points])
    ys = np.log([pt["max_residual"] for pt in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    c_fit = max(pt["max_residual"] / pt["one_minus_q_sq"] for pt in points)
    return {"slope": float(slope), "intercept": float(intercept),
            "C": float(c_fit), "points": points}
