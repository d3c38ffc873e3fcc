"""Number/transition operators at q = 0 on a truncated free Fock space.

At q = 0 the Fock words over a finite mode set are orthonormal, an
annihilator only ever strips the leftmost letter, and the transition
operator has a simple (but infinite-degree) series

    n_kl = a†_k a_l + sum_t a†_t a†_k a_l a_t
         + sum_{t1,t2} a†_t2 a†_t1 a†_k a_l a_t1 a_t2 + ...

Truncated to depth D on a particle-capped space, the defining commutator

    [n_kl, a†_m] = delta_lm a†_k

holds exactly on every state at least one particle below the cap,
provided D >= cap - 1.  Every term of the series has as many creators as
annihilators, and its annihilators act first, so no term lengthens a
word; a bare creator only ever acts on states below the cap.  No state
leaves the capped space, and the Fock action needs no cap of its own.
All arithmetic is exact: integers, and Fractions for the energies.

Every function takes the modes and the cap, and lists the words it acts
on with qfock.fock_words.  Each public check first estimates its work,
once, and refuses past WORK_LIMIT before it lists a word.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .qfock import (ANNIHILATOR, CREATOR, apply_terms, fock_words,
                    refuse_past_work_limit)


def _refuse_past_limit(check, n_modes, cap):
    """Raise WorkLimitError, before a word is listed, when the check
    ("commutator", "locality" or "hamiltonian") on n_modes modes
    capped at cap applies more than WORK_LIMIT letters, the unit
    of a para term application.  With M modes and S = sum_{n<cap} M^n,
    both the states below the cap and the terms of one series,
    check_commutators applies 2S terms, and 2S + 1 where l = m, to S
    states for each of the M^3 triples, M^2 S (2MS + 1) in all;
    check_locality adds M^2 S on the vacuum, and check_free_hamiltonian
    applies M S terms to each of the S + M^cap basis states.  Each term
    counts as 2 cap + 1 letters, the longest word any check applies.  In
    logs, as M^cap can be too large to form.
    """
    log_m = math.log(n_modes)
    log_s = (math.log(cap) if n_modes == 1 else cap * log_m
             - math.log(n_modes - 1) + math.log1p(-math.exp(-cap * log_m)))
    if check == "hamiltonian":
        log_basis = cap * log_m + math.log1p(math.exp(log_s - cap * log_m))
        log_terms = log_m + log_s + log_basis
    else:
        # M^2 S (2MS + 1), or M^2 S (2MS + 2) with the vacuum terms
        ones = 2 if check == "locality" else 1
        log_terms = (3 * log_m + 2 * log_s
                     + math.log(2 + ones * math.exp(-log_m - log_s)))
    refuse_past_work_limit(f"observables --check {check}",
                           log_terms + math.log(2 * cap + 1), 0)


def transition_operator(k, l, depth, modes):
    """Truncated q = 0 n_kl series as a list of (word, 1) terms over a
    finite mode set; depth-d terms carry d+1 creators and d+1
    annihilators."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    terms = []
    for d in range(depth + 1):
        for ts in itertools.product(modes, repeat=d):
            word = tuple((CREATOR, t) for t in reversed(ts)) \
                + ((CREATOR, k), (ANNIHILATOR, l)) \
                + tuple((ANNIHILATOR, t) for t in ts)
            terms.append((word, 1))
    return terms


def commutator_residual(modes, cap, k, l, m, depth):
    """[n_kl, a†_m] - delta_lm a†_k applied to every Fock word below the
    cap.  Returns a dict state -> residual (as a state dict); exact."""
    c_m = (CREATOR, m)
    terms = [t for word, c in transition_operator(k, l, depth, modes)
             for t in ((word + (c_m,), c), ((c_m,) + word, -c))]
    if l == m:
        terms.append((((CREATOR, k),), -1))
    res = {}
    for w in fock_words(modes, cap - 1):
        diff = apply_terms(terms, {w: 1}, 0)
        if diff:
            res[w] = diff
    return res


def check_transition_commutator(modes, cap, k, l, m):
    """Report for the defining commutator, with the series at depth
    cap - 1, the least at which it holds; exact=True means zero residual
    on every state below the cap."""
    depth = cap - 1
    res = commutator_residual(modes, cap, k, l, m, depth)
    max_res = max((max(abs(c) for c in d.values()) for d in res.values()),
                  default=0)
    return {"k": k, "l": l, "m": m, "depth": depth,
            "exact": not res, "max_residual": max_res,
            "failing_states": sorted(res)}


def check_commutators(modes, cap):
    """check_transition_commutator on every triple (k, l, m) of modes, for
    `quon observables --check commutator` and criterion 5."""
    _refuse_past_limit("commutator", len(modes), cap)
    return _commutators(modes, cap)


def _commutators(modes, cap):
    reports = [check_transition_commutator(modes, cap, k, l, m)
               for k, l, m in itertools.product(modes, repeat=3)]
    exact = all(r["exact"] for r in reports)
    return {"depth": cap - 1,
            "dim": sum(len(modes) ** n for n in range(cap + 1)),
            "triples": len(reports), "all_exact": exact,
            "failures": [r for r in reports if not r["exact"]]}


def check_locality(modes, cap):
    """Discrete-mode locality, for `quon observables --check locality`:
    [n_xy, a†_w] = delta_yw a†_x on the capped space for every triple, as
    in check_commutators, and n_xy|0> = 0 for every pair (x, y)."""
    _refuse_past_limit("locality", len(modes), cap)
    commutators = _commutators(modes, cap)
    vacuum_failures = [
        (x, y) for x, y in itertools.product(modes, repeat=2)
        if apply_terms(transition_operator(x, y, cap - 1, modes),
                       {(): 1}, 0)]
    return {"commutators": commutators, "vacuum_failures": vacuum_failures,
            "all_exact": commutators["all_exact"] and not vacuum_failures}


def free_hamiltonian_terms(modes, cap, energies):
    """H = sum_k eps_k n_k as explicit q = 0 series terms, at depth
    cap - 1."""
    missing = [k for k in modes if k not in energies]
    if missing:
        raise ValueError(f"no energy given for modes {missing}")
    terms = []
    for k in modes:
        eps = Fraction(energies[k])
        terms.extend((word, eps * c) for word, c in
                     transition_operator(k, k, cap - 1, modes))
    return terms


def check_free_hamiltonian(modes, cap, energies):
    """H must act diagonally: H|w> = (sum of letter energies) |w>."""
    _refuse_past_limit("hamiltonian", len(modes), cap)
    terms = free_hamiltonian_terms(modes, cap, energies)
    failures = []
    for w in fock_words(modes, cap):
        got = apply_terms(terms, {w: 1}, 0)
        want_e = sum(Fraction(energies[m]) for m in w)
        want = {w: want_e} if want_e != 0 else {}
        if got != want:
            failures.append(w)
    return {"exact": not failures, "failing_states": failures}
