"""Finite matrix realizations of order-p parastatistics.

The para-operators are sums of p component operators,

    a_k = sum_alpha b_k^(alpha),

where same-component operators are ordinary Bose (parabose) or Fermi
(parafermi) oscillators and distinct components anticommute (parabose)
or commute (parafermi).  The anomalous cross relations are installed
with diagonal sign chains (Klein construction) on a tensor-product
component space, so everything is an explicit matrix.

Parafermi realizations are exact integer matrices; parabose components
are truncated oscillators, and checks only assert on "protected" states
that cannot touch the cap.

The matrices are dense but are built by index arithmetic on the basis
(no Kronecker products), and the relation checks form only the protected
columns of each residual.  A check reports the realization's `dim` and
its `protected_states`: for parabose p = 2 on 3 modes with cap 2 that is
1 column (the vacuum) of 729, for parafermi every column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gram import inversions

# bytes of the dense float64 annihilators and check_trilinear scratch
BYTE_BUDGET = 2 ** 27
# check_trilinear's peak: an inner bracket, the last residual, and the two
# products of a new residual with their difference
CHECK_SCRATCH = 5
# largest float64 residual or squared norm the dense checks, here and in
# the verification suite, count as zero
FLOAT_ZERO = 1e-10


class DimensionBudgetError(ValueError):
    pass


@dataclass(frozen=True)
class GreenRealization:
    kind: str               # "parabose" | "parafermi"
    order: int              # p
    modes: int              # M
    cap: int                # per-site occupancy cap (1 for parafermi)
    dim: int
    annihilators: dict = field(repr=False)   # mode -> matrix of a_k
    occupancy: np.ndarray = field(repr=False)  # basis state x site -> count
    vacuum: np.ndarray = field(repr=False)

    def creator(self, k):
        return self.annihilators[k].conj().T

    def protected_columns(self):
        """Indices of the basis states the relation checks assert on: all
        of them for parafermi, for parabose those with every site at least
        2 below the cap, which two creations cannot push past it."""
        if self.kind == "parafermi":
            return np.arange(self.dim)
        return np.flatnonzero((self.occupancy <= self.cap - 2).all(axis=1))


def build_green(kind, p, modes, cap=None):
    """Explicit Green-ansatz annihilators a_k on the component tensor space.

    Site alpha * modes + k holds component alpha of mode k and is digit
    number site (most significant first) of a basis index in base cap + 1.
    Component (alpha, k) takes basis state j to j - stride(site) with
    weight sqrt(n_site) times the Klein sign (-1)^(occupancy of its
    string): the earlier modes of the same component for parafermi (same
    component anticommutes, distinct components commute), every site of
    the earlier components for parabose (distinct components
    anticommute, the same component stays Bose).  It is written straight
    into a_k, where no other component of mode k writes.  A parafermi
    site holds at most one quantum, so its cap is 1: None or 1 is
    accepted, any other cap raises ValueError.
    """
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
    levels = cap + 1
    nsites = p * modes
    dim = levels ** nsites
    nbytes = (modes + CHECK_SCRATCH) * dim * dim * 8
    if nbytes > BYTE_BUDGET:
        raise DimensionBudgetError(
            f"{modes} annihilators and {CHECK_SCRATCH} check_trilinear "
            f"scratch matrices, dense float64 {dim}x{dim}, take {nbytes} "
            f"bytes, above the budget of {BYTE_BUDGET}")

    strides = levels ** np.arange(nsites - 1, -1, -1)
    occ = (np.arange(dim)[:, None] // strides) % levels
    annihilators = {}
    for k in range(modes):
        op = annihilators[k] = np.zeros((dim, dim))
        for alpha in range(p):
            site = alpha * modes + k
            string = slice(alpha * modes, site) if kind == "parafermi" \
                else slice(0, alpha * modes)
            sign = (-1.0) ** occ[:, string].sum(axis=1)
            j = np.flatnonzero(occ[:, site])
            op[j - strides[site], j] = sign[j] * np.sqrt(occ[j, site])
    vacuum = np.zeros(dim)
    vacuum[0] = 1.0
    return GreenRealization(kind=kind, order=p, modes=modes, cap=cap, dim=dim,
                            annihilators=annihilators, occupancy=occ,
                            vacuum=vacuum)


def check_trilinear(r):
    """Trilinear relation [[a†_k, a_l]_±, a†_m]_- = 2 delta_lm a†_k.

    Inner bracket: anticommutator for parabose, commutator for parafermi.
    Parafermi holds as an exact matrix identity; parabose is asserted on
    protected states only.  Only the protected columns X of each residual
    are formed, right to left: the inner bracket B_kl is built once per
    (k, l) on the columns of X and of every a†_m X, and the residual is
    B_kl (a†_m X) - a†_m (B_kl X) - 2 delta_lm a†_k X.  `dim` and
    `protected_states` report how many of the columns were checked.
    """
    sign = 1.0 if r.kind == "parabose" else -1.0
    cols = r.protected_columns()
    creators = [r.creator(m) for m in range(r.modes)]
    # rows a†_m X can reach; B_kl is needed on these and on X itself
    reach = np.flatnonzero(sum(np.abs(c[:, cols]) for c in creators).any(1))
    span = np.union1d(cols, reach)
    at_x = np.searchsorted(span, cols)
    worst = 0.0
    for k, l in itertools.product(range(r.modes), repeat=2):
        c_k, a_l = creators[k], r.annihilators[l]
        inner = c_k @ a_l[:, span] + sign * (a_l @ c_k[:, span])
        for m in range(r.modes):
            c_m = creators[m]
            t = inner @ c_m[np.ix_(span, cols)] - c_m @ inner[:, at_x]
            if l == m:
                t = t - 2 * c_k[:, cols]
            worst = max(worst, float(np.abs(t).max(initial=0.0)))
    return {"kind": r.kind, "p": r.order, "modes": r.modes,
            "max_residual": worst, "exact": worst <= FLOAT_ZERO,
            "protected_only": r.kind == "parabose",
            "dim": r.dim, "protected_states": len(cols)}


def check_vacuum_conditions(r):
    """a_k|0> = 0 exactly, and measure c in a_k a†_l |0> = c delta_kl |0>.

    The Green ansatz gives c = p on the component tensor vacuum; the
    constant is reported, not asserted.
    """
    kill = max(float(np.abs(r.annihilators[k] @ r.vacuum).max())
               for k in range(r.modes))
    consts = {}
    off = 0.0
    for k in range(r.modes):
        for l in range(r.modes):
            v = r.annihilators[k] @ (r.creator(l) @ r.vacuum)
            if k == l:
                consts[k] = float(v @ r.vacuum)
                off = max(off, float(np.abs(v - consts[k] * r.vacuum).max()))
            else:
                off = max(off, float(np.abs(v).max()))
    return {"annihilates_vacuum": kill <= FLOAT_ZERO,
            "one_particle_constant": consts,
            "off_diagonal_residual": off,
            "pass": kill <= FLOAT_ZERO and off <= FLOAT_ZERO}


def _projected_state(r, word, symmetric, creators=None):
    """(Anti)symmetrized product of creators applied to the vacuum."""
    if creators is None:
        creators = {k: r.creator(k) for k in set(word)}
    n = len(word)
    out = np.zeros(r.dim)
    for perm in itertools.permutations(range(n)):
        sgn = 1.0 if symmetric else (-1.0) ** inversions(perm)
        v = r.vacuum
        for i in reversed(perm):
            v = creators[word[i]] @ v
        out = out + sgn * v
    return out / math.factorial(n)


def max_occupancy(r, word, symmetric=True, creators=None):
    """Squared norm of the (anti)symmetrized creator word on the vacuum;
    check_occupancy holds the rule it is judged by."""
    v = _projected_state(r, tuple(word), symmetric, creators)
    return float(v @ v)


def check_occupancy(kind, p, modes, cap=None):
    """(report, passed): at most p quanta fit, so the norms of the
    symmetrized same-mode word (parafermi), or of its dual, the
    antisymmetrized distinct-mode word (parabose), are nonzero for n <= p
    and zero at n = p + 1.  The dual takes p + 1 modes: fewer raise
    ValueError before anything is built."""
    if kind == "parabose" and modes <= p:
        raise ValueError(f"the parabose occupancy check needs p + 1 = "
                         f"{p + 1} modes, got {modes}")
    r = build_green(kind, p, modes, cap=cap)
    sym = kind == "parafermi"
    name = "same_mode" if sym else "distinct_modes"
    norms = {f"{name}_n{n}":
             max_occupancy(r, (0,) * n if sym else tuple(range(n)), sym)
             for n in range(1, p + 2)}
    passed = all((norm > FLOAT_ZERO) == (n <= p)
                 for n, norm in enumerate(norms.values(), 1))
    return {"kind": kind, "p": p, "norms": norms}, passed


def gentile_demo(theta):
    """Occupancy-capped (Gentile) statistics is basis dependent; the
    parafermi p=2 exclusion is not.

    In the two-mode, three-particle Bose sector with occupancy bound 2,
    the state with all three quanta in one rotated mode has nonzero
    projection onto the allowed occupancy patterns unless the rotation is
    trivial.  By contrast the symmetric three-particle sector of a
    parafermi p=2 realization is annihilated in every basis.
    """
    c, s = math.cos(theta), math.sin(theta)
    # product basis of three distinguishable-slot copies of C^2
    u = np.array([c, s])
    state = np.kron(np.kron(u, u), u)
    forbidden = 0.0
    for pattern in ((0, 0, 0), (1, 1, 1)):   # occupancy 3 in one mode
        idx = pattern[0] * 4 + pattern[1] * 2 + pattern[2]
        forbidden += state[idx] ** 2
    allowed = float(state @ state) - forbidden

    # parafermi p=2 contrast, in the rotated single-particle basis
    r = build_green("parafermi", 2, 2)
    rot = {0: c * r.creator(0) + s * r.creator(1),
           1: -s * r.creator(0) + c * r.creator(1)}
    sym_norms = {w: max_occupancy(r, w, symmetric=True, creators=rot)
                 for w in itertools.combinations_with_replacement((0, 1), 3)}
    return {"theta": theta,
            "gentile_allowed_norm_sq": allowed,
            "gentile_forbidden_norm_sq": float(forbidden),
            "parafermi_symmetric_norms": sym_norms,
            "parafermi_sector_vanishes":
                max(sym_norms.values()) <= FLOAT_ZERO}
